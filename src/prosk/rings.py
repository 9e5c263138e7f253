"""Truncated local rings: Z/p^N (descriptor "Zp:p=3,N=6") and
F_q[t]/(t^N) (descriptor "Fq[[t]]:q=9,N=40").

Elements carry exact payloads: an int in [0, p^N) for Zp, a length-N tuple
of F_q element codes for the series ring, whose products and inverses run
on `nottingham.SeriesContext`, the series engine of the F_q[[t]] groups.
The valuation of a nonzero element is the number of uniformizer factors;
the zero element reports N.  F_q for prime powers is realized as
F_p[x]/(m(x)) with m the lexicographically smallest monic irreducible
(coefficients compared from the constant term up); element codes are
base-p digit packings of the polynomial coefficients.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DescriptorMismatch,
    EvenCharacteristic,
    InvariantViolated,
    NoSquareRoot,
    NotAUnit,
    UsageError,
)

_FIELD_CACHE: dict[int, "FqField"] = {}
_MAX_Q = 81


def _factor_prime_power(q):
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise UsageError(f"q={q} is not a prime power")
            return p, k
    raise UsageError(f"bad q={q}")


def _poly_mul_mod_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_divmod(a, b, p):
    # b monic; returns (quot, rem) over F_p
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    quot = [0] * max(da - db + 1, 1)
    while da >= db and any(a):
        c = a[da]
        if c:
            quot[da - db] = c
            for j in range(db + 1):
                a[da - db + j] = (a[da - db + j] - c * b[j]) % p
        da -= 1
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return quot, a


def _is_irreducible(m, p):
    k = len(m) - 1
    for deg in range(1, k // 2 + 1):
        for code in range(p**deg):
            div = [(code // p**i) % p for i in range(deg)] + [1]
            _, rem = _poly_divmod(m, div, p)
            if rem == [0]:
                return False
    return True


def _smallest_irreducible(p, k):
    # monic x^k + c_{k-1}x^{k-1} + ... + c_0, lexicographic on (c_0, ..., c_{k-1})
    for code in range(p**k):
        coeffs = [(code // p**i) % p for i in range(k)] + [1]
        if _is_irreducible(coeffs, p):
            return coeffs
    raise InvariantViolated(f"no monic irreducible of degree {k} over F_{p}")


class FqField:
    """F_q with exhaustive arithmetic tables (q <= 81)."""

    def __init__(self, q):
        if q < 2 or q > _MAX_Q:
            raise UsageError(f"q={q} outside supported range 2..{_MAX_Q}")
        p, k = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.k = k
        self.modulus = tuple(_smallest_irreducible(p, k)) if k > 1 else None
        self.add_table = np.zeros((q, q), dtype=np.int16)
        self.mul_table = np.zeros((q, q), dtype=np.int16)
        self.neg_table = np.zeros(q, dtype=np.int16)
        self.inv_table = np.zeros(q, dtype=np.int16)
        for a in range(q):
            da = self._digits(a)
            self.neg_table[a] = self._pack([(-x) % p for x in da])
            for b in range(q):
                db = self._digits(b)
                self.add_table[a, b] = self._pack(
                    [(x + y) % p for x, y in zip(da, db)]
                )
                self.mul_table[a, b] = self._pack(self._polymul(da, db))
        for a in range(1, q):
            # brute-force inverse from the multiplication table
            row = self.mul_table[a]
            self.inv_table[a] = int(np.nonzero(row == 1)[0][0])

    def _digits(self, code):
        p = self.p
        return [(code // p**i) % p for i in range(self.k)]

    def _pack(self, digits):
        p = self.p
        return sum(int(d) % p * p**i for i, d in enumerate(digits))

    def _polymul(self, da, db):
        p = self.p
        prod = _poly_mul_mod_p(da, db, p)
        if self.k == 1:
            return [prod[0] % p]
        _, rem = _poly_divmod(prod, list(self.modulus), p)
        rem = rem + [0] * (self.k - len(rem))
        return rem[: self.k]

    def add(self, a, b):
        return int(self.add_table[a, b])

    def mul(self, a, b):
        return int(self.mul_table[a, b])

    def neg(self, a):
        return int(self.neg_table[a])

    def inv(self, a):
        if a == 0:
            raise NotAUnit("0 has no inverse in F_q")
        return int(self.inv_table[a])

    def from_int(self, n):
        """Image of the integer n under Z -> F_q (prime subfield)."""
        return n % self.p

    # vectorized code arithmetic (numpy index arrays in, int64 out)

    def add_codes(self, a, b):
        return self.add_table[a, b].astype(np.int64)

    def sub_codes(self, a, b):
        return self.add_table[a, self.neg_table[b]].astype(np.int64)

    def mul_codes(self, a, b):
        return self.mul_table[a, b].astype(np.int64)

    def div_codes(self, a, b):
        return self.mul_table[a, self.inv_table[b]].astype(np.int64)

    def __repr__(self):
        return f"FqField(q={self.q})"


def get_field(q):
    if q not in _FIELD_CACHE:
        _FIELD_CACHE[q] = FqField(q)
    return _FIELD_CACHE[q]


class Ring:
    """A truncated local ring together with payload-level arithmetic.

    kind "Zp": payloads are ints mod p^N, uniformizer p.
    kind "FqT": payloads are length-N tuples of F_q codes, uniformizer t;
    products and inverses convert them to the (k, N) planes of `ctx`, the
    `nottingham.SeriesContext` of (q, N), and back.
    """

    def __init__(self, kind, p, q, N):
        if N < 1:
            raise UsageError(f"truncation level N={N} must be >= 1")
        self.kind = kind
        self.p = p
        self.q = q
        self.N = N
        if kind == "Zp":
            self.modulus = p**N
            self.field = get_field(p)
        elif kind == "FqT":  # the series arithmetic of the payloads
            from .nottingham import series_context

            self.field = get_field(q)
            self.p = self.field.p
            self.ctx = series_context(q, N)
        else:
            raise UsageError(f"unknown ring kind {kind!r}")

    # -- descriptor strings ------------------------------------------------

    @staticmethod
    def parse(text):
        text = text.strip()
        try:
            if text.startswith("Zp:"):
                body = dict(part.split("=") for part in text[3:].split(","))
                p, N = int(body["p"]), int(body["N"])
                if not _is_prime(p):
                    raise UsageError(f"p={p} is not prime")
                return Ring("Zp", p, p, N)
            if text.startswith("Fq[[t]]:"):
                body = dict(part.split("=") for part in text[8:].split(","))
                q, N = int(body["q"]), int(body["N"])
                return Ring("FqT", 0, q, N)
        except (KeyError, ValueError) as exc:
            raise UsageError(f"malformed ring descriptor {text!r}") from exc
        raise UsageError(f"malformed ring descriptor {text!r}")

    def describe(self):
        if self.kind == "Zp":
            return f"Zp:p={self.p},N={self.N}"
        return f"Fq[[t]]:q={self.q},N={self.N}"

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.kind == other.kind
            and self.p == other.p
            and self.q == other.q
            and self.N == other.N
        )

    def __hash__(self):
        return hash((self.kind, self.p, self.q, self.N))

    def __repr__(self):
        return f"Ring({self.describe()})"

    def truncated(self, m):
        """The same ring at truncation level m <= N."""
        if self.kind == "Zp":
            return Ring("Zp", self.p, self.p, m)
        return Ring("FqT", 0, self.q, m)

    # -- payload arithmetic ------------------------------------------------

    @property
    def zero(self):
        return 0 if self.kind == "Zp" else (0,) * self.N

    @property
    def one(self):
        return 1 if self.kind == "Zp" else (1,) + (0,) * (self.N - 1)

    def from_int(self, n):
        if self.kind == "Zp":
            return n % self.modulus
        return (self.field.from_int(n),) + (0,) * (self.N - 1)

    def from_code(self, c):
        """The constant with residue code c (0 <= c < q): the integer c
        over Z/p^N, the constant series of the F_q element c over F_q[[t]]
        (where `from_int` would reduce c mod p)."""
        if self.kind == "Zp":
            return c
        return (c,) + (0,) * (self.N - 1)

    def add(self, a, b):
        if self.kind == "Zp":
            return (a + b) % self.modulus
        F = self.field
        return tuple(F.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        if self.kind == "Zp":
            return (-a) % self.modulus
        F = self.field
        return tuple(F.neg(x) for x in a)

    def mul(self, a, b):
        if self.kind == "Zp":
            return (a * b) % self.modulus
        P = self.ctx.planes_from_codes
        return self._payload(self.ctx.mul(P(a), P(b)))

    def is_unit(self, a):
        if self.kind == "Zp":
            return a % self.p != 0
        return a[0] != 0

    def inv(self, a):
        """Over F_q[[t]], Newton's y <- y (2 - a y) from the constant term's
        field inverse: each step doubles the t-adic precision, so
        ceil(log2 N) steps reach t^N (Brent & Kung 1978)."""
        if self.kind == "Zp":
            if a % self.p == 0:
                raise NotAUnit(f"{a} is not a unit in {self.describe()}")
            return pow(a, -1, self.modulus)
        if a[0] == 0:
            raise NotAUnit(f"series with zero constant term in {self.describe()}")
        P = self.ctx.planes_from_codes
        A, two = P(a), P(self.from_int(2))
        Y = P(self.from_code(self.field.inv(a[0])))
        for _ in range((self.N - 1).bit_length()):
            Y = self.ctx.mul(Y, two - self.ctx.mul(A, Y))
        return self._payload(Y)

    def _payload(self, planes):
        """The payload of (k, N) planes of `ctx`."""
        return tuple(self.ctx.codes_from_planes(planes).tolist())

    def val(self, a):
        """Uniformizer-adic valuation, N for the zero payload."""
        if self.kind == "Zp":
            if a == 0:
                return self.N
            v = 0
            while a % self.p == 0:
                a //= self.p
                v += 1
            return v
        for i, c in enumerate(a):
            if c:
                return i
        return self.N

    def rand(self, rng):
        if self.kind == "FqT":
            return tuple(int(x) for x in rng.integers(0, self.q, size=self.N))
        if self.modulus <= 2**63:
            return int(rng.integers(0, self.modulus))
        # past numpy's int64 range: base p^m digits, p^m <= 2^63
        m = 1
        while self.p ** (m + 1) <= 2**63:
            m += 1
        x, base = 0, 1
        for lo in range(0, self.N, m):
            top = self.p ** min(m, self.N - lo)
            x += int(rng.integers(0, top)) * base
            base *= top
        return x

    def rand_unit(self, rng):
        while True:
            a = self.rand(rng)
            if self.is_unit(a):
                return a

    # -- wrapped elements --------------------------------------------------

    def elem(self, x):
        if isinstance(x, RingElem):
            if x.ring != self:
                raise DescriptorMismatch(
                    f"element of {x.ring.describe()} used in {self.describe()}"
                )
            return x
        if self.kind == "Zp":
            if not isinstance(x, int):
                raise UsageError(f"Zp element from {type(x).__name__}")
            return RingElem(self, x % self.modulus)
        if isinstance(x, int):
            return RingElem(self, self.from_int(x))
        if not isinstance(x, (list, tuple)):
            raise UsageError(f"Fq[[t]] element from {type(x).__name__}")
        codes = list(x)
        for c in codes:
            if not isinstance(c, int):
                raise UsageError(f"Fq[[t]] coefficient from {type(c).__name__}")
        if len(codes) > self.N:
            raise UsageError("too many series coefficients")
        codes = codes + [0] * (self.N - len(codes))
        if any(not 0 <= c < self.q for c in codes):
            raise UsageError("series coefficient code out of range")
        return RingElem(self, tuple(codes))


def _is_prime(p):
    if p < 2:
        return False
    for d in range(2, int(math.isqrt(p)) + 1):
        if p % d == 0:
            return False
    return True


class RingElem:
    """Immutable wrapper pairing a ring with one payload."""

    __slots__ = ("ring", "payload")

    def __init__(self, ring, payload):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "payload", payload)

    def __setattr__(self, *a):
        raise AttributeError("RingElem is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, RingElem)
            and other.ring == self.ring
            and other.payload == self.payload
        )

    def __hash__(self):
        return hash((self.ring, self.payload))

    def __repr__(self):
        return f"RingElem({self.ring.describe()}, {self.payload!r})"


def hensel_sqrt(a, seed):
    """Newton-lift seed to an exact square root of a.

    Requires odd residue characteristic and a unit seed whose square agrees
    with a in the residue field; the refined root beta satisfies
    beta^2 == a exactly and beta == seed to the accuracy the seed had.
    """
    if not isinstance(a, RingElem):
        raise UsageError("hensel_sqrt expects RingElem inputs")
    ring = a.ring
    if seed.ring != ring:
        raise DescriptorMismatch("seed from a different ring")
    if ring.p == 2:
        raise EvenCharacteristic("square-root lifting needs odd characteristic")
    pa, ps = a.payload, seed.payload
    if not ring.is_unit(ps):
        raise NoSquareRoot("seed is not a unit")
    if ring.val(ring.sub(ring.mul(ps, ps), pa)) < 1:
        raise NoSquareRoot("seed^2 does not match the target in the residue field")
    inv2 = ring.inv(ring.from_int(2))
    x = ps
    for _ in range(max(4, ring.N.bit_length() + 2)):
        x = ring.mul(ring.add(x, ring.mul(pa, ring.inv(x))), inv2)
    if ring.mul(x, x) != pa:
        raise NoSquareRoot("iteration stalled; target has no square root here")
    return RingElem(ring, x)
