"""Word compilation over congruence quotients: a base table of shortest words
up to a shallow level, then depth-doubling commutator stages.

The ladder step is the whole algorithm: given a word w with residual
r = g * eval(w)^-1 in K_a, pick levels (n1, m1) with n1 + m1 = a, ask the
commutator oracle for pairs whose product matches r mod K_b (b = 2*n1 + m1,
clipped to the request and the truncation), compile each commutator argument
recursively at the accuracy the refinement law demands (b - m1 for the left
entries, b - n1 for the right), and prepend.  Budgets are certified against
the telescoping bound B^i * l0, never against observed lengths.

The compiler holds no group rule: it sees a group through its facade
(`ops_for`), whose `oracle(r, n, m)` returns at most `pairs_bound()` pairs
agreeing with r mod K_min(2n+m, N), whose `oracle_admissible(n, m)` says
which level pairs the oracle takes, and whose `n0` is a plan's default base
depth.
"""

from __future__ import annotations

import functools
import hashlib
import json

from dataclasses import asdict, dataclass

import numpy as np

from . import _bfs
from .errors import (
    BudgetExceeded,
    IndexOutOfRange,
    InvariantViolated,
    OracleLevelRejected,
    PrecisionExceedsTruncation,
    UsageError,
)
from .matgroups import ops_for

# ---------------------------------------------------------------------------
# words


class Word:
    """Sequence of (generator index, exponent +-1) over a named generating
    set, stored as packed int32 ops ((idx << 1) | sign-bit)."""

    __slots__ = ("gens_id", "ops")

    def __init__(self, gens_id, ops=None):
        self.gens_id = gens_id
        self.ops = (
            np.array([], dtype=np.int32)
            if ops is None
            else np.asarray(ops, dtype=np.int32)
        )

    def __len__(self):
        return len(self.ops)

    def inverse(self):
        return Word(self.gens_id, (self.ops[::-1] ^ 1).copy())

    def concat(self, other):
        """Concatenation with seam cancellation (adjacent inverse pairs at
        the join only; no other free reduction)."""
        if self.gens_id != other.gens_id:
            raise UsageError("words over different generating sets")
        a, b = self.ops, other.ops
        i, j = len(a), 0
        while i > 0 and j < len(b) and a[i - 1] == b[j] ^ 1:
            i -= 1
            j += 1
        return Word(self.gens_id, np.concatenate([a[:i], b[j:]]))

    def commutator(self, other):
        """[w1, w2] = w1^-1 w2^-1 w1 w2, plain concatenation so that the
        length is exactly 2 (len w1 + len w2)."""
        if self.gens_id != other.gens_id:
            raise UsageError("words over different generating sets")
        parts = [self.inverse().ops, other.inverse().ops, self.ops, other.ops]
        return Word(self.gens_id, np.concatenate(parts))

    def to_json(self):
        return {
            "gens": self.gens_id,
            "ops": [[int(c >> 1), 1 if c & 1 == 0 else -1] for c in self.ops],
        }

    @staticmethod
    def from_json(obj):
        ops = []
        for i, s in obj["ops"]:
            if s not in (1, -1):
                raise UsageError(f"bad exponent {s!r} in word")
            ops.append((int(i) << 1) | (0 if s == 1 else 1))
        return Word(obj["gens"], np.array(ops, dtype=np.int32))


# ---------------------------------------------------------------------------
# generating sets


class GeneratingSet:
    """Realized generators with a content-derived id (shared by words,
    tables, and certificates so mixing them up fails loudly)."""

    def __init__(self, desc, elements, source="anonymous"):
        if not elements:
            raise UsageError("empty generating set")
        self.descriptor = desc
        self.elements = tuple(elements)
        self.source = source
        ops = ops_for(desc)
        blob = json.dumps(
            [ops.serialize(g) for g in self.elements], sort_keys=True
        )
        self.id = hashlib.sha256(
            (desc.describe() + "|" + blob).encode()
        ).hexdigest()[:16]
        self._letters = None
        self._blocks = None

    def __len__(self):
        return len(self.elements)

    @property
    def letters(self):
        """Every generator and its inverse, indexed by the packed op code
        (idx << 1) | sign-bit, built on first use: for a matrix group the
        `ops.stack` of them ((2k, d, d) residues over Z/p^N, int64 inside
        the facade's guard and Python ints past it, (2k, d, d, k, N) planes
        over F_q[[t]]), for the Nottingham group a (2k, kL, kL) float64
        array of power matrices, whose entries are integers in [0, p), so
        that `evaluate` folds over them with BLAS.  The base of `blocks`."""
        if self._letters is None:
            ops = ops_for(self.descriptor)
            letters = [x for g in self.elements for x in (g, ops.inv(g))]
            if hasattr(ops, "power_matrix"):
                self._letters = ops.power_matrices(
                    ops.stack(letters)).astype(np.float64)
            else:
                self._letters = ops.stack(letters)
        return self._letters

    @property
    def blocks(self):
        """(table, b), built from `letters` on first use and read-only:
        table[(c_1 ... c_b) in base 2k] is the product of the letters
        c_1 ... c_b, in the layout of `letters`.  A matrix group's entries
        are `ops.product`s of its stack; the Nottingham group's are
        M[c_1] @ ... @ M[c_b] % p over its float64 power matrices, exact
        since each product's sums stay below kL (p - 1)^2 < 2^53.  b is the
        longest block length in 3, 2, 1 whose (2k)^b entries fit in
        _BLOCK_BYTES, an entry of an object stack counted with the Python
        int behind each of its residues (216 entries for 3 generators:
        1.35 MB at the Nottingham kL = 28, 6.9 KB for int64 SL2 residues)."""
        if self._blocks is None:
            M, ops = self.letters, ops_for(self.descriptor)
            if hasattr(ops, "power_matrix"):
                p = self.descriptor.ring.p

                def product(A, B):  # exact: kL (p - 1)^2 < 2^53
                    return np.matmul(A, B) % p
            else:
                product = ops.product
            entry = _bfs._held_bytes(M[0])
            n = len(M)
            b = next(b for b in (3, 2, 1) if n**b * entry <= _BLOCK_BYTES)
            table = M
            for _ in range(b - 1):
                table = product(M[:, None], table[None])
                table = table.reshape((-1,) + M.shape[1:])
            table.setflags(write=False)
            self._blocks = table, b
        return self._blocks


def sample_generating_set(desc, k, seed, source=None):
    ops = ops_for(desc)
    rng = np.random.default_rng(seed)
    elems = [ops.sample_uniform(rng) for _ in range(k)]
    return GeneratingSet(
        desc, elems, source or f"sampled:{k}:{seed}"
    )


# ---------------------------------------------------------------------------
# evaluation


_CHUNK = 512  # blocks gathered per product tree; bounds the transient arrays
_BLOCK_BYTES = 4 << 20  # cap on a generating set's letter-block table


@functools.cache
def _unreduced_products(p, n):
    """Largest s with (p - 1) (n (p - 1))^s < 2^53: a vector over F_p times
    s matrices over F_p of size n x n stays exact in float64 (every partial
    sum an integer below 2^53) before one reduction mod p."""
    s = 1
    while (p - 1) * (n * (p - 1)) ** (s + 1) < 2**53:
        s += 1
    return s


def evaluate(word, gens, left=None):
    """left * (left-to-right product of the word over realized generators),
    left the identity when None.

    Both engines read the word b letters at a time from the set's block
    table (`GeneratingSet.blocks`, b = 3 within its byte cap), the 0 to
    b - 1 letters left over singly from `GeneratingSet.letters`, and both
    are exact.

    A matrix group gathers 512 blocks at a time; each chunk, and then the
    stack of chunk products, is reduced by `ops.tree_product`, a pairwise
    product tree.  `left` heads the first chunk and the leftover letters
    close the last.  The stack's layout, and so the arithmetic, is the
    facade's: int64 or Python-int residues over Z/p^N, coefficient planes
    over F_q[[t]].

    The Nottingham group folds right to left: a flat (kL,) float64 vector
    of coefficient planes starts at `ops.identity_stack()` (the series t)
    and is multiplied, one BLAS vector-matrix product each, by the float64
    power matrices (the F_p-linear maps f -> f o s) of the reversed word's
    blocks, then of its leftover letters.  The vector is reduced mod p only
    every s products, s the largest with (p - 1) (kL (p - 1))^s < 2^53
    (`_unreduced_products`, s = 7 at q = 5, N = 27), so every partial sum
    is an integer that float64 holds exactly.  The int64 planes of the
    value then go straight into `left`'s product: left * value = value o
    left is one `ctx.compose` of the two stacks, and one element is built
    from the result.
    """
    ops = ops_for(gens.descriptor)
    n_gens = len(gens.elements)
    codes = word.ops
    if not len(codes):
        return ops.identity() if left is None else left
    # one reduction for both ends: a negative code reads as a huge uint32
    if int(codes.view(np.uint32).max()) >> 1 >= n_gens:
        lo, hi = int(codes.min()) >> 1, int(codes.max()) >> 1
        raise IndexOutOfRange(
            f"word references generator {lo if lo < 0 else hi} "
            f"of a {n_gens}-element set"
        )
    letters = gens.letters
    table, b = gens.blocks
    nott = hasattr(ops, "power_matrix")
    # acc <- acc o s is right-to-left accumulation: s1...sk = sk o ... o s1,
    # so the Nottingham fold reads the word reversed
    seq = codes[::-1] if nott else codes
    cut = len(seq) - len(seq) % b
    idx = seq[0:cut:b]  # int32: the table's (2k)^b rows fit in its byte cap
    for j in range(1, b):
        idx = idx * len(letters) + seq[j:cut:b]
    rest = seq[cut:]
    if nott:
        p = gens.descriptor.ring.p
        mats = [table[i] for i in idx.tolist()]
        mats += [letters[c] for c in rest.tolist()]
        s = _unreduced_products(p, letters.shape[1])
        one = ops.identity_stack()
        acc = one.reshape(-1).astype(np.float64)
        for start in range(0, len(mats), s):
            for M in mats[start : start + s]:
                acc = acc.dot(M)
            acc %= p
        value = acc.astype(np.int64).reshape(one.shape)
        if left is not None:  # left * value = value o left
            value = ops.ctx.compose(value, ops._own(left).stack)
        return ops._element(value)
    chunks = []
    for start in range(0, max(len(idx), 1), _CHUNK):
        X = [table[idx[start : start + _CHUNK]]]
        if start == 0 and left is not None:
            X.insert(0, ops.stack([left]))
        if start + _CHUNK >= len(idx) and len(rest):
            X.append(letters[rest])
        chunks.append(ops.tree_product(np.concatenate(X) if len(X) > 1
                                       else X[0]))
    if len(chunks) > 1:
        chunks = [ops.tree_product(np.concatenate(chunks))]
    return ops.unstack(chunks[0])[0]


# ---------------------------------------------------------------------------
# base tables


class BaseTable:
    def __init__(self, gens, table):
        self.gens = gens
        self.level = table.level
        self.l0 = table.l0
        self.count = table.count
        self._table = table

    def lookup(self, g):
        return Word(self.gens.id, self._table.word_for(g))


def build_base_table(desc, n_base, gens):
    """Shortest words for every coset of G/K_{n_base} (BFS over gens and
    their inverses); raises NotGenerating if the set does not generate."""
    if gens.descriptor != desc:
        raise UsageError("generating set belongs to a different group")
    level = min(n_base, desc.ring.N)
    ops = ops_for(desc)
    table = _bfs.build_table(ops, gens.elements, level)
    return BaseTable(gens, table)


# ---------------------------------------------------------------------------
# plans and certificates


@dataclass(frozen=True)
class CompilePlan:
    kind: str = "dyadic"  # dyadic | triadic
    n0: int | None = None  # override the facade's default, `ops.n0`

    def __post_init__(self):
        if self.kind not in ("dyadic", "triadic"):
            raise UsageError(f"unknown plan {self.kind!r}")

    @property
    def D(self):
        return 2 if self.kind == "dyadic" else 3

    def budget_base(self, ops):
        A = ops.pairs_bound()
        return 8 * A * A + 6 * A if self.kind == "dyadic" else (4 * A + 1) ** 6

    def default_n0(self, desc):
        return ops_for(desc).n0 if self.n0 is None else self.n0

    def n_base(self, desc):
        return min(self.D * self.default_n0(desc), desc.ring.N)


@dataclass
class CompileCertificate:
    n: int
    length: int
    B: int
    D: int
    i: int
    l0: int
    budget: int
    residual_depth: int
    plan: str
    A: int
    gens: str  # the generating set's id

    @property
    def gens_id(self):  # the name perfbench/workloads.py checks
        return self.gens

    def as_dict(self):
        return asdict(self)


# ---------------------------------------------------------------------------
# the compiler


def _stage_pair(ops, a):
    """Largest-gain admissible oracle levels (n1, m1) with n1 + m1 = a."""
    for n1 in range(a // 2, (a + 2) // 3 - 1, -1):
        if ops.oracle_admissible(n1, a - n1):
            return n1, a - n1
    raise OracleLevelRejected(f"no admissible stage at depth {a}")


class CompilerSession:
    """One compilation context: ops + generators + base table + plan.
    The memo cache maps (accuracy, coset key at that accuracy) to words and
    is private to the session."""

    def __init__(self, gens, table, plan=None):
        self.gens = gens
        self.table = table
        if table.gens.id != gens.id:
            raise UsageError("base table was built over a different set")
        self.plan = plan or CompilePlan()
        self.ops = ops_for(gens.descriptor)
        self._memo = {}

    def _residual(self, g, word):
        """g * eval(word)^-1, as g * eval(word^-1) with g inside the
        evaluation: no group inversion."""
        return evaluate(word.inverse(), self.gens, left=g)

    def _refine(self, g, t):
        """Word w with g * eval(w)^-1 in K_t."""
        ops = self.ops
        if ops.depth(g) >= t:
            return Word(self.gens.id)
        key = (t, ops.key(g, level=t))
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        N = ops.descriptor.ring.N
        if t <= self.table.level:
            w = self.table.lookup(g)
            self._memo[key] = w
            return w
        w = self._refine(g, self.table.level)
        r = self._residual(g, w)
        for _ in range(4 * N + 8):
            a = ops.depth(r)
            if a >= t:
                break
            n1, m1 = _stage_pair(ops, a)
            b = min(2 * n1 + m1, t)
            pairs = ops.oracle(r, n1, m1)
            cw = Word(self.gens.id)
            for P, W in pairs:
                wp = self._refine(P, b - m1)
                ww = self._refine(W, b - n1)
                cw = cw.concat(wp.commutator(ww))
            # w <- cw w: seam cancellation keeps the value, so the residual
            # g eval(cw w)^-1 is r eval(cw)^-1
            w = cw.concat(w)
            r = self._residual(r, cw)
        else:
            raise InvariantViolated(f"ladder stalled refining to level {t}")
        self._memo[key] = w
        return w

    def compile(self, target, n):
        ops = self.ops
        desc = ops.descriptor
        if target.descriptor != desc:
            raise UsageError("target belongs to a different group")
        N = desc.ring.N
        if not 1 <= n <= N:
            raise PrecisionExceedsTruncation(
                f"precision {n} outside [1, {N}]"
            )
        word = self._refine(target, n)
        resid = self._residual(target, word)
        rd = ops.depth(resid)
        if rd < n:
            raise InvariantViolated(
                f"compiled word misses target: depth {rd} < {n}"
            )
        plan = self.plan
        D = plan.D
        B = plan.budget_base(ops)
        nb = self.table.level
        i, cap = 0, nb
        while cap < n:  # exact ceil(log_D(n / n_base)), no float edge cases
            cap *= D
            i += 1
        l0 = max(self.table.l0, 1)
        budget = B**i * l0
        if len(word) > budget:
            raise BudgetExceeded(
                f"word length {len(word)} exceeds certified budget {budget}"
            )
        cert = CompileCertificate(
            n=n,
            length=len(word),
            B=B,
            D=D,
            i=i,
            l0=l0,
            budget=budget,
            residual_depth=int(rd),
            plan=plan.kind,
            A=ops.pairs_bound(),
            gens=self.gens.id,
        )
        return word, cert


def compile_element(target, n, table, plan=None):
    """One-shot form: session setup + compile."""
    session = CompilerSession(table.gens, table, plan)
    return session.compile(target, n)
