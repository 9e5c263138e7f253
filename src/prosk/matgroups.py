"""Congruence-filtered classical groups SL_d / SO_d / Sp_d over a truncated
local ring, plus the Nottingham dispatch and the element class both facade
families share.

Elements satisfy the defining equations exactly at the working truncation
(det 1, M^T M = I, M^T Omega M = Omega), which `MatrixOps.is_member` checks
on a stack.  A `FilteredElement` holds one read-only array, its facade's
stack of one, so every op on it, membership, section lifts, the Lie lifts
(`liealg._lift_stack`) and sampling included, is a stack op.  The element
ops (identity, mul, inv, commutator, stack, unstack) and the orders are
written once on `BatchOps` from a facade's `eye`, `product` and `inverse`;
depth, keys, projections, the oracle and the family views are per facade.
Payload matrices (tuples of ring payloads, see rings.Ring) are the input
format only: they enter through `element` (payloads in general through
`_entries`), and `MatrixOps.mat` derives one back.  K_n is the kernel of
reduction to level n; depth(g) is the largest n with g in K_n, capped at N.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import (
    BudgetExceeded,
    DescriptorMismatch,
    InvariantViolated,
    LevelTooLarge,
    NotAUnit,
    UnsupportedCharacteristic,
    UsageError,
)
from .rings import Ring

ENUM_WORK_CAP = 5_000_000  # residue-level brute-force candidates


class GroupDescriptor:
    def __init__(self, family, d, ring):
        if family not in ("SL", "SO", "Sp", "Nottingham"):
            raise UsageError(f"unknown group family {family!r}")
        if family == "Nottingham":
            if ring.kind != "FqT":
                raise UsageError("Nottingham group lives over a series ring")
            d = 0
        else:
            if d is None or d < 2:
                raise UsageError("matrix family needs d >= 2")
            if family == "Sp" and d % 2:
                raise UsageError("Sp needs even d")
            if family in ("SO", "Sp") and ring.p == 2:
                raise UnsupportedCharacteristic(
                    f"{family}_{d} needs odd residue characteristic"
                )
        self.family = family
        self.d = d
        self.ring = ring

    @staticmethod
    def parse(text):
        head, _, rest = text.partition(",")
        if head == "Nottingham":
            return GroupDescriptor("Nottingham", 0, Ring.parse(rest))
        try:
            fam, dpart = head.split(":")
            d = int(dpart.split("=")[1])
        except (ValueError, IndexError) as exc:
            raise UsageError(f"malformed group descriptor {text!r}") from exc
        return GroupDescriptor(fam, d, Ring.parse(rest))

    def describe(self):
        if self.family == "Nottingham":
            return f"Nottingham,{self.ring.describe()}"
        return f"{self.family}:d={self.d},{self.ring.describe()}"

    def algebra_dim(self):
        d = self.d
        if self.family == "SL":
            return d * d - 1
        if self.family == "SO":
            return d * (d - 1) // 2
        if self.family == "Sp":
            g = d // 2
            return g * (2 * g + 1)
        return None  # Nottingham: not a matrix algebra

    def truncated(self, m):
        return GroupDescriptor(self.family, self.d, self.ring.truncated(m))

    def __eq__(self, other):
        return (
            isinstance(other, GroupDescriptor)
            and self.family == other.family
            and self.d == other.d
            and self.ring == other.ring
        )

    def __hash__(self):
        return hash((self.family, self.d, self.ring))

    def __repr__(self):
        return f"GroupDescriptor({self.describe()})"


class FilteredElement:
    """An element of a group facade (`MatrixOps`, `NottinghamOps`), held as
    one owned, read-only array: its facade's stack of one, checked against
    the facade's `eye` for shape and dtype.  A matrix is (1, d, d) residues
    over Z/p^N (int64 inside the facade's guard, Python ints past it) or
    (1, d, d, k, N) coefficient planes over F_q[[t]]; a Nottingham series
    is (1, k, N + 1) coefficient planes.  Elements are built from stacks by
    the facades (`BatchOps._element`, behind `unstack` and the element
    ops)."""

    __slots__ = ("descriptor", "stack")

    def __init__(self, descriptor, stack):
        eye = ops_for(descriptor).eye
        self.descriptor = descriptor
        self.stack = np.array(stack)
        self.stack.setflags(write=False)
        if self.stack.shape != eye.shape or self.stack.dtype != eye.dtype:
            raise InvariantViolated(
                f"{self.stack.dtype} stack {self.stack.shape} for "
                f"{descriptor.describe()}")

    def __eq__(self, other):
        return (
            isinstance(other, FilteredElement)
            and other.descriptor == self.descriptor
            and np.array_equal(other.stack, self.stack)
        )

    def __hash__(self):
        return hash((self.descriptor, ops_for(self.descriptor).key(self)))

    def __repr__(self):
        depth = ops_for(self.descriptor).depth(self)
        return f"<{self.descriptor.describe()} element depth {depth}>"


def _entries(ops, payloads):
    """An array of ring payloads as entries of `ops`' stacks, the one way
    payloads enter: residues over Z/p^N in the stacks' dtype, and over
    F_q[[t]] each length-N tuple of coefficient codes as (k, N) planes."""
    if ops.descriptor.ring.kind == "Zp":
        return np.array(payloads, dtype=ops.eye.dtype)
    return ops.ctx.planes_from_codes(np.array(payloads, dtype=np.int64))


def _payload_stack(desc, mats):
    """The stack (`MatrixOps`' layout) of the payload matrices `mats`,
    built in the stacks' dtype: numpy's own guess for residues in (2^63,
    2^64] is float64, which loses digits."""
    ops = ops_for(desc)
    if desc.ring.kind == "Zp":
        return np.array(mats, dtype=ops.eye.dtype).reshape(-1, desc.d, desc.d)
    return _entries(ops, np.reshape(mats, (-1, desc.d, desc.d, desc.ring.N)))


def _payload_matrix(desc, X):
    """The payload matrix of one (d, d[, k, N]) entry X of a stack."""
    if desc.ring.kind == "Zp":
        return tuple(map(tuple, X.tolist()))
    rows = ops_for(desc).ctx.codes_from_planes(X).tolist()
    return tuple(tuple(map(tuple, row)) for row in rows)


def element(desc, rows):
    ring = desc.ring
    d = desc.d
    if len(rows) != d or any(len(r) != d for r in rows):
        raise UsageError(f"need a {d}x{d} matrix")
    X = _payload_stack(desc, [[ring.elem(entry).payload for entry in row]
                              for row in rows])
    ops = ops_for(desc)
    if not ops.is_member(X)[0]:
        raise DescriptorMismatch(
            f"matrix fails the defining equations of {desc.describe()}"
        )
    return ops._element(X)


def project(a, m):
    desc = a.descriptor
    if m < 1:
        raise UsageError("projection level must be >= 1")
    if m > desc.ring.N:
        raise LevelTooLarge(f"level {m} exceeds truncation N={desc.ring.N}")
    newdesc = desc.truncated(m)
    if desc.ring.kind == "FqT":
        return FilteredElement(newdesc, a.stack[..., :m])
    X = a.stack % desc.ring.p**m
    return FilteredElement(newdesc, X.astype(ops_for(newdesc).eye.dtype))


# ---------------------------------------------------------------------------
# orders


def residue_group_order(family, d, q):
    if family == "SL":
        o = q ** (d * (d - 1) // 2)
        for k in range(2, d + 1):
            o *= q**k - 1
        return o
    if family == "SO":
        m = d // 2
        if d % 2:
            o = q ** (m * m)
            for k in range(1, m + 1):
                o *= q ** (2 * k) - 1
            return o
        eps = 1 if (m % 2 == 0 or q % 4 == 1) else -1
        o = q ** (m * (m - 1)) * (q**m - eps)
        for k in range(1, m):
            o *= q ** (2 * k) - 1
        return o
    if family == "Sp":
        m = d // 2
        o = q ** (m * m)
        for k in range(1, m + 1):
            o *= q ** (2 * k) - 1
        return o
    raise UsageError(f"no residue order formula for {family}")


def group_order(desc):
    """Order of the full group at the working truncation."""
    if desc.family == "Nottingham":
        q = desc.ring.field.q
        return q ** (desc.ring.N - 1)
    q = desc.ring.field.q
    base = residue_group_order(desc.family, desc.d, q)
    return base * q ** (desc.algebra_dim() * (desc.ring.N - 1))


def quotient_order(desc, n):
    """Order of G / K_n (image at level n)."""
    if not 1 <= n <= desc.ring.N:
        raise LevelTooLarge(f"level {n} out of range")
    return group_order(desc.truncated(n))


def kernel_order(desc, n):
    return group_order(desc) // quotient_order(desc, n)


# ---------------------------------------------------------------------------
# section lifts (exact representatives over the residue field)


def _first_diag(ops, u):
    """diag(u, 1, ..., 1) for each entry u of a stack of ring elements."""
    D = np.repeat(ops.eye, len(u), axis=0)
    D[:, 0, 0] = u
    return D


def section_lift(desc, X1):
    """Exact group elements over the full ring reducing to the stack X1 of
    residue-level matrices (`desc.truncated(1)`'s layout), as a stack."""
    ring, ops = desc.ring, ops_for(desc)
    if ring.kind == "Zp":
        M = X1.astype(ops.eye.dtype)
    else:  # the residue planes in slot 0 of each series
        M = np.zeros(X1.shape[:-1] + (ring.N,), dtype=np.int64)
        M[..., :1] = X1
    if desc.family == "SL":  # scale column 1 by det^-1, a 1-unit
        M = ops.product(M, ops.inverse(_first_diag(ops, ops.det(M))))
    else:  # M A^(-1/2) by Newton's iteration U <- U (3I - A U^2) / 2
        MT = M.swapaxes(1, 2)
        if desc.family == "SO":
            A = ops.product(MT, M)
        else:  # Omega^-1 = Omega^T for the standard form
            Om = ops.omega()
            A = ops.product(ops.product(Om.swapaxes(1, 2), MT),
                            ops.product(Om, M))
        half, U = pow(2, -1, ops.mod), ops.eye
        for _ in range(max(4, ring.N.bit_length() + 2)):
            AU2 = ops.product(A, ops.product(U, U))
            U = ops.product(U, (3 * ops.eye - AU2) % ops.mod) * half % ops.mod
        M = ops.product(M, U)
    if not ops.is_member(M).all():
        raise InvariantViolated("section lift left the group")
    return M


# ---------------------------------------------------------------------------
# enumeration and sampling


def _residue_coords(ops, codes):
    """The coordinate stack (`liealg._lift_stack`) of the residue field
    codes `codes` (ints in [0, q)), each the constant it names."""
    ring = ops.descriptor.ring
    if ring.kind == "FqT":  # the codes of t^0 .. t^(N-1)
        codes = codes[..., None] * (np.arange(ring.N) == 0)
    return _entries(ops, codes)


def enumerate_kernel(desc, n):
    """All of K_n, as products of depth-graded exact lifts (each element
    exactly once): one lift call per layer over all q^dim residue
    coordinate vectors."""
    from . import liealg

    ring, ops, dim = desc.ring, ops_for(desc), desc.algebra_dim()
    q = ring.field.q
    # the codes in itertools.product order
    codes = np.arange(q**dim)[:, None] // q ** np.arange(dim - 1, -1, -1) % q
    C = _residue_coords(ops, codes)
    out = ops.eye
    for l in range(n, ring.N):
        out = ops.outer(out, liealg._lift_stack(ops, C, l))
    return ops.unstack(out)


def enumerate_quotient(desc):
    """Every element of the group at its truncation; count is checked
    against the order formula, and against PROSK_BUDGET_MB before any
    element is built."""
    if desc.family == "Nottingham":
        from . import nottingham

        return nottingham.enumerate_quotient(desc)
    from . import _bfs  # local: _bfs imports this module

    total = group_order(desc)
    ops = ops_for(desc)
    _bfs.check_elements(ops, total)
    d, q = desc.d, desc.ring.field.q
    count = q ** (d * d)
    if count > ENUM_WORK_CAP:
        raise BudgetExceeded(
            f"residue-level enumeration needs {count} candidates")
    # the residue matrices in itertools.product order, a chunk at a time
    desc1 = desc.truncated(1)
    ops1 = ops_for(desc1)
    powers = q ** np.arange(d * d - 1, -1, -1)
    reps = [ops1.eye[:0]]
    for start in range(0, count, _bfs._CHUNK):
        flat = np.arange(start, min(start + _bfs._CHUNK, count))
        X = _payload_stack(desc1, flat[:, None] // powers % q)
        reps.append(X[ops1.is_member(X)])
    reps = np.concatenate(reps)
    if len(reps) != residue_group_order(desc.family, d, q):
        raise InvariantViolated(
            "residue enumeration disagrees with the order formula")
    if desc.ring.N == 1:
        return ops.unstack(reps)
    kernel = ops.stack(enumerate_kernel(desc, 1))
    out = ops.unstack(ops.outer(section_lift(desc, reps), kernel))
    if len(out) != total:
        raise InvariantViolated(
            f"enumerated {len(out)} elements, the order formula gives {total}")
    return out


def sample_kernel(desc, n, rng):
    """Exactly uniform element of K_n (triangular coordinates): one
    residue code per layer and basis coordinate, lifted in one call with a
    level per layer, and multiplied in layer order."""
    from . import liealg

    ring, ops, dim = desc.ring, ops_for(desc), desc.algebra_dim()
    if not 1 <= n <= ring.N:
        raise LevelTooLarge(f"kernel level {n} out of range")
    if n == ring.N:
        return ops.identity()
    codes = np.array([[int(rng.integers(0, ring.field.q)) for _ in range(dim)]
                      for _ in range(n, ring.N)])
    X = liealg._lift_stack(ops, _residue_coords(ops, codes),
                           np.arange(n, ring.N))
    return ops._element(ops.tree_product(X))


def sample_uniform(desc, rng):
    """Uniform over the full group for SL (exact).  For SO/Sp the residue
    part is the product of two Cayley transforms, which is NOT uniform: on
    SO3(F_3), 12,000 draws at seed 0 give chi^2 = 278 on 23 df (ROADMAP,
    "Uniform sampling for SO/Sp").  The kernel part is an exact uniform
    draw from K_1 for every family."""
    ring, d, ops = desc.ring, desc.d, ops_for(desc)
    if desc.family == "SL":
        desc1 = desc.truncated(1)
        ops1 = ops_for(desc1)
        while True:
            X1 = _payload_stack(desc1, rng.integers(0, ring.field.q, size=d * d))
            dt = ops1.det(X1)
            if dt.any():
                break
        # scale row 1 by det^-1, one residue field inverse: pushes uniform
        # GL to uniform SL
        codes = dt if ring.kind == "Zp" else ops1.ctx.codes_from_planes(dt)
        dt = _entries(ops1, ring.field.inv_table[codes])
        X1 = ops1.product(_first_diag(ops1, dt), X1)
        g = ops._element(section_lift(desc, X1))
    elif desc.family in ("SO", "Sp"):
        # product of two Cayley transforms: each covers the no-(-1)-eigenvalue
        # part of the group, products of two reach everything
        g = ops.mul(_cayley_sample(desc, rng), _cayley_sample(desc, rng))
    else:
        raise UsageError("sample_uniform is for matrix families")
    if ring.N > 1:
        g = ops.mul(g, sample_kernel(desc, 1, rng))
    return g


def _cayley_sample(desc, rng):
    """(I - S)(I + S)^-1 for random S in the algebra with I + S invertible:
    exactly orthogonal/symplectic with det 1 over the full truncated ring."""
    from . import liealg

    fam = {"SO": "so", "Sp": "sp"}[desc.family]
    alg = liealg.LieAlgebra(fam, desc.d, desc.ring)
    ops = ops_for(desc)
    for _ in range(256):
        S = _payload_stack(desc, [alg.random(rng).to_matrix()])
        X = np.concatenate([ops.eye - S, ops.eye + S]) % ops.mod
        try:
            Y = ops.product(X[:1], ops.inverse(X[1:]))
        except NotAUnit:
            continue
        if not ops.is_member(Y)[0]:
            raise InvariantViolated("Cayley transform left the group")
        return ops._element(Y)
    raise UsageError("could not draw an invertible I + S (degenerate ring?)")


@functools.cache
def ops_for(desc):
    """The one group facade per descriptor: its layout and arithmetic never
    change, and keys it interns (`BatchOps._keys`) stay equal exactly for
    equal elements."""
    if desc.family == "Nottingham":
        from .nottingham import NottinghamOps

        return NottinghamOps(desc)
    return MatrixOps(desc)


@functools.cache
def _signed_permutations(d):
    """(perm, sign) for each permutation of range(d), the Leibniz terms."""
    out = []
    for perm in itertools.permutations(range(d)):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        out.append((perm, -1 if inversions % 2 else 1))
    return out


def _all_equal(A, B):
    """Per entry of the batch axis, whether the stacks A and B agree."""
    E = A == B
    return E.all(axis=tuple(range(1, E.ndim)))


class BatchOps:
    """A group facade's element ops and batch surface, on which `_bfs` and
    `skcompiler.evaluate` run.  A stack holds elements along a leading batch
    axis in a layout the facade picks, and an element (`FilteredElement`)
    holds its stack of one; a subclass supplies `eye` (the identity's stack
    of one), `product`, `inverse`, `keys`, `depth` and `key`, and the
    element ops, the orders and the enumeration are written here once."""

    def _own(self, x):
        """x, checked to be an element of this facade's group: the same
        descriptor object, or failing that an equal one."""
        desc = self.descriptor
        if x.descriptor is not desc and x.descriptor != desc:
            raise DescriptorMismatch(f"an element of {x.descriptor.describe()}"
                                     f" given to {desc.describe()}")
        return x

    def _element(self, X):
        """The element whose stack of one is X: the one path from stacks to
        elements, where a facade whose arithmetic could leave the group
        checks membership."""
        return FilteredElement(self.descriptor, X)

    def identity(self):
        return self._element(self.eye)

    def identity_stack(self):
        """A stack of one element, the identity (read-only)."""
        return self.eye

    def mul(self, a, b):
        return self._element(self.product(self._own(a).stack,
                                          self._own(b).stack))

    def inv(self, a):
        return self._element(self.inverse(self._own(a).stack))

    def commutator(self, a, b):
        """a^-1 b^-1 a b: one stacked inverse and one product tree."""
        X = self.stack([a, b])
        return self._element(self.tree_product(
            np.concatenate([self.inverse(X), X])))

    def stack(self, elems):
        """The elements' stacks of one, concatenated."""
        return np.concatenate([self.eye[:0],
                               *(self._own(x).stack for x in elems)])

    def unstack(self, X):
        """The elements of the stack X, in order."""
        return [self._element(X[i : i + 1]) for i in range(len(X))]

    def group_order(self):
        return group_order(self.descriptor)

    def quotient_order(self, n):
        return quotient_order(self.descriptor, n)

    def elements(self):
        """Every element of the group at its truncation."""
        return enumerate_quotient(self.descriptor)

    def product_copies(self):
        """The most stacks the size of its result that `product` holds at
        once (result and intermediates), which `_bfs` charges per candidate
        chunk: 2, an unreduced product and its reduction."""
        return 2

    def tree_product(self, X):
        """Ordered product of the n >= 1 elements of the stack X, as a stack
        of one: neighbours multiply pairwise, an odd last one waits a
        round."""
        while len(X) > 1:
            Y = self.product(X[0:-1:2], X[1::2])
            X = np.concatenate([Y, X[-1:]]) if len(X) % 2 else Y
        return X

    def outer(self, A, B, left=False):
        """The stack whose entry i * len(B) + j is A[i] * B[j], or
        B[j] * A[i] if left."""
        X, Y = (B[None], A[:, None]) if left else (A[:, None], B[None])
        return self.product(X, Y).reshape((-1,) + A.shape[1:])

    def outer_with(self, B, left=False):
        """A -> `outer(A, B, left)`, for a caller that multiplies many
        stacks by the same B; a facade may prepare B's side once here."""
        return functools.partial(self.outer, B=B, left=left)

    def _keys(self, digits, base):
        """int64 keys of the rows of `digits` (entries in [0, base)), equal
        exactly for equal rows: packed base `base` when a row fits in an
        int64, otherwise interned in order of first sight on this facade."""
        n = digits.shape[1]
        if base**n < 2**63:
            return digits @ base ** np.arange(n, dtype=np.int64)
        ids = self.__dict__.setdefault("_ids", {})
        return np.fromiter((ids.setdefault(row, len(ids))
                            for row in map(tuple, digits.tolist())),
                           dtype=np.int64, count=len(digits))


class MatrixOps(BatchOps):
    """Uniform handle used by the compiler and the verifier.

    Stacks are numpy arrays.  Over Z/p^N an element is a (d, d) array of
    residues, int64 when a d x d product cannot overflow before its
    reduction (d (p^N - 1)^2 < 2^63), Python ints (dtype object) past that.
    Over F_q[[t]]/t^N it is (d, d, k, N) coefficient planes (q = p^k, see
    `nottingham.SeriesContext`), whose entry products are series products
    summed over the inner index.  `eye` is the identity's stack of one, and
    entries are reduced mod `mod`: p^N over Z/p^N, p digitwise over
    F_q[[t]]."""

    n0 = 1  # a compile plan's default base depth: tables of G/K_(D n0)

    def __init__(self, desc):
        self.descriptor = desc
        ring, d = desc.ring, desc.d
        if ring.kind == "FqT":  # the series arithmetic of the planes
            from .nottingham import series_context

            self.ctx = series_context(ring.q, ring.N)
            self.mod = ring.p
            self.eye = np.zeros((1, d, d, self.ctx.k, ring.N), dtype=np.int64)
            self.eye[0, range(d), range(d), 0, 0] = 1
        else:
            self.mod = ring.modulus
            wide = d * (self.mod - 1) ** 2 >= 2**63
            self.eye = np.eye(d, dtype=np.int64)[None].astype(
                object if wide else np.int64)
        self.eye.setflags(write=False)

    def depth(self, a):
        """min valuation of a - I, capped at N; N means trivial at this
        truncation.  Over Z/p^N one gcd: p^depth = gcd(p^N, entries)."""
        ring, d = self.descriptor.ring, self.descriptor.d
        if ring.kind == "FqT":  # the first t-slot with a nonzero digit
            D = (a.stack - self.eye) % ring.p
            slots = D.reshape(-1, ring.N).any(axis=0).nonzero()[0]
            return int(slots[0]) if len(slots) else ring.N
        flat = a.stack.ravel().tolist()
        for k in range(0, d * d, d + 1):  # the diagonal of a - I
            flat[k] -= 1
        g, v = math.gcd(ring.modulus, *flat), 0
        while g > 1:
            g //= ring.p
            v += 1
        return v

    def key(self, a, level=None):
        """Hashable, equal exactly when the entries agree mod the
        uniformizer^level (all of them when level is None): the bytes of an
        int64 stack, the values of an object stack, whose bytes are
        pointers."""
        X, ring = a.stack, self.descriptor.ring
        if level is not None and level < ring.N:
            X = X % ring.p**level if ring.kind == "Zp" else X[..., :level]
        return tuple(X.ravel().tolist()) if X.dtype == object else X.tobytes()

    def project(self, a, m):
        return project(a, m)

    def oracle(self, r, n, m):
        """At most `pairs_bound()` pairs (g, h), g in K_n and h in K_m,
        whose commutators multiply to r in K_(n+m) mod K_min(2n+m, N)."""
        from . import liealg

        return liealg.commutator_decompose(r, n, m)

    def oracle_admissible(self, n, m):
        return 1 <= n <= m <= 2 * n

    def pairs_bound(self):
        return 2 if self.descriptor.family == "SL" else 3

    def sample_kernel(self, n, rng):
        return sample_kernel(self.descriptor, n, rng)

    def sample_uniform(self, rng):
        return sample_uniform(self.descriptor, rng)

    def mat(self, a):
        """The payload matrix: tuples of residues, or of coefficient codes."""
        return _payload_matrix(self.descriptor, a.stack[0])

    def serialize(self, a):
        """The payload matrix as nested lists."""
        X = a.stack[0]
        if self.descriptor.ring.kind == "FqT":
            X = self.ctx.codes_from_planes(X)
        return X.tolist()

    def deserialize(self, raw):
        return element(self.descriptor, raw)

    # stacks: (B, d, d) residues over Z/p^N, (B, d, d, k, N) planes over
    # F_q[[t]]

    def product(self, A, B):
        """Entrywise group products A[i] * B[i] of two stacks, broadcast
        over their batch axes."""
        ring = self.descriptor.ring
        if ring.kind == "Zp":
            return np.matmul(A, B) % ring.modulus
        ctx = self.ctx
        # (..., i, l, 1) * (..., 1, l, j), summed over l
        T = ctx.mul(A[..., :, :, None, :, :], B[..., None, :, :, :, :])
        return T.sum(axis=-4) % ctx.p

    def inverse(self, X):
        """Entrywise inverses of the stack X, exact where X is invertible
        over the ring, NotAUnit otherwise.  X^(E - 1) inverts X mod the
        uniformizer, for E = p^ceil(log2 d) lcm(q - 1, ..., q^d - 1), a
        multiple of every element order in GL_d(F_q) (a semisimple part's
        divides some q^i - 1, a unipotent part's is a power of p, at most
        the least one >= d); ceil(log2 N) Newton steps Y <- Y (2I - X Y)
        then square the error I - X Y up to the truncation, and X Y = I is
        checked.  Every step is a `product`.  A stack that is I mod the
        uniformizer skips the ladder: Newton starts from Y = I."""
        ring, d = self.descriptor.ring, self.descriptor.d
        q = ring.field.q
        R = (X - self.eye) % ring.p
        e = (ring.p ** (d - 1).bit_length()
             * math.lcm(*(q**i - 1 for i in range(1, d + 1))) - 1
             if (R if ring.kind == "Zp" else R[..., 0]).any() else 0)
        Y, P = self.eye, X
        while e:  # Y <- X^e by squaring and multiplying
            if e & 1:
                Y = self.product(Y, P)
            P = self.product(P, P)
            e >>= 1
        for _ in range((ring.N - 1).bit_length()):
            XY = self.product(X, Y)
            if (XY == self.eye).all():
                return Y
            Y = (2 * Y - self.product(Y, XY)) % self.mod
        if not (self.product(X, Y) == self.eye).all():
            raise NotAUnit("matrix is not invertible over this local ring")
        return Y

    def det(self, X):
        """Determinants of the stack X by the Leibniz expansion: (B,)
        residues over Z/p^N, (B, k, N) planes over F_q[[t]]."""
        out = 0
        for perm, sign in _signed_permutations(self.descriptor.d):
            term = X[:, 0, perm[0]]
            for i, j in enumerate(perm[1:], 1):
                term = self.entry_product(term, X[:, i, j])
            out = out + sign * term
        return out % self.mod

    def entry_product(self, A, B):
        """Entrywise ring products of two broadcastable arrays of stack
        entries: residues mod p^N, or series products of (k, N) planes."""
        if self.descriptor.ring.kind == "Zp":
            return A * B % self.mod
        return self.ctx.mul(A, B)

    def omega(self):
        """The standard symplectic form [[0, I], [-I, 0]], a stack of one."""
        g = self.descriptor.d // 2
        Om = np.zeros_like(self.eye)
        Om[:, :g, g:] = self.eye[:, :g, :g]
        Om[:, g:, :g] = -self.eye[:, :g, :g] % self.mod
        return Om

    def is_member(self, X):
        """One bool per entry of the stack X: the defining equations at the
        truncation, det X = 1 (SL), X^T X = I and det X = 1 (SO), X^T Omega
        X = Omega (Sp)."""
        XT, fam = X.swapaxes(1, 2), self.descriptor.family
        if fam == "Sp":
            Om = self.omega()
            return _all_equal(self.product(XT, self.product(Om, X)), Om)
        ok = _all_equal(self.det(X), self.eye[:, 0, 0])
        if fam == "SO":
            ok &= _all_equal(self.product(XT, X), self.eye)
        return ok

    def product_copies(self):
        """Over F_q[[t]], the (..., d, d, d, k, N) series products before
        the sum over the inner index, and the plane convolutions behind
        them: 2d + k - 1 copies measured under tracemalloc, charged 2d + k.
        Over Z/p^N, 3: 2 measured on int64 stacks, 2.2 on Python ints,
        which grow before the reduction."""
        if self.descriptor.ring.kind == "FqT":
            return 2 * self.descriptor.d + self.ctx.k
        return 3

    def entry_codes(self, X):
        """(B, d, d) integers in [0, q^N) for the stack X: each entry's
        residue over Z/p^N (q = p), its coefficient codes read base q,
        t^0 lowest, over F_q[[t]]/t^N."""
        ring = self.descriptor.ring
        if ring.kind == "Zp":
            return X
        return self.ctx.codes_from_planes(X) @ ring.q ** np.arange(ring.N)

    def keys(self, X):
        """One int64 key per element of the stack X, equal exactly for equal
        elements: the residues packed base p^N, or the plane digits base p,
        when q^(d^2 N) < 2^63, and interned past that."""
        ring = self.descriptor.ring
        base = ring.modulus if ring.kind == "Zp" else ring.p
        return self._keys(X.reshape(len(X), -1), base)
