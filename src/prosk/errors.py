"""Exception types shared across the package.

Three broad kinds matter to the CLI exit-code contract: usage errors
(malformed descriptors/arguments, exit 2), budget errors (exit 3), and
everything else (violated mathematical preconditions, exit 1).
"""


class ProskError(Exception):
    """Base class; a violated mathematical precondition unless subclassed otherwise."""


class UsageError(ProskError):
    """Malformed input that never reached the math (bad descriptor, bad flag)."""


class DescriptorMismatch(ProskError):
    """Operands built over different ring/group descriptors."""


class NotAUnit(ProskError):
    pass


class NoSquareRoot(ProskError):
    pass


class EvenCharacteristic(ProskError):
    pass


class LevelTooLarge(ProskError):
    pass


class BudgetExceeded(ProskError):
    pass


class NotGenerating(ProskError):
    pass


class AlgebraMismatch(ProskError):
    pass


class NotDeepEnough(ProskError):
    pass


class TruncationTooShallow(ProskError):
    pass


class UnsupportedCharacteristic(ProskError):
    pass


class BadLevelPair(ProskError):
    pass


class OracleLevelRejected(ProskError):
    pass


class PrecisionExceedsTruncation(ProskError):
    pass


class IndexOutOfRange(ProskError):
    pass


class NotSymmetricSet(ProskError):
    pass


class UnknownSuite(UsageError):
    pass


class InvariantViolated(ProskError):
    """An internal consistency check failed at run time (kept under -O)."""
