"""Integral Lie algebras sl_d / so_d / sp_d over a truncated local ring,
with constructive two- or three-bracket decompositions, exact lifts into
congruence levels, and the depth-graded commutator oracle.

Basis conventions (1-indexed names used in serialized coordinates):
  sl_d: E_i_j (i != j, matrix unit) and D_j_{j+1} = E_jj - E_{j+1,j+1}.
  so_d: X_i_j = E_ij - E_ji for i < j.
  sp_2g: A_i_j = diag(E_ij, -E_ji); B_i_j (i<j) with Q-block E_ij+E_ji and
         B_i_i with Q-block 2E_ii; C_i_j mirrored in the S-block.

The decomposition is linear over the ring, with coefficients +-1, 2, 1/2
and 1/4, so each algebra gets one plan (`_Plan`, cached per family, d and
ring), built once by running the reference decomposers `_decompose_sl`,
`_decompose_so` and `_decompose_sp` on the basis vectors.  It holds the
basis matrices, the map from (g - I) / pi^n to coordinates, the maps D_k to
the left members P_k, the fixed right members W_k and their lifts.  Both
`bracket_decompose` and the oracle run from it, over Z/p^N on integer
arrays (int64 inside d^2 (p^N - 1)^2 < 2^63, Python ints past it), over
F_q[[t]] on the base-p digits of the coefficients.  Every decomposition is
re-verified exactly, sum_k [P_k, W_k] = X as one stacked matrix product,
before being returned; a failure is a bug, not a data error.  Lifts over
Z/p^N run on plain ints (`_ZpInts`), over F_q[[t]] on the ring's payload
ops.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from . import _matrix as mx
from .errors import (
    AlgebraMismatch,
    BadLevelPair,
    InvariantViolated,
    NoSquareRoot,
    NotDeepEnough,
    OracleLevelRejected,
    PrecisionExceedsTruncation,
    TruncationTooShallow,
    UnsupportedCharacteristic,
    UsageError,
)
from .rings import Ring, RingElem, hensel_sqrt

_SL_SCHEME_CACHE: dict[int, dict] = {}
_PLAN_CACHE: dict[tuple, "_Plan"] = {}


# ---------------------------------------------------------------------------
# descriptors and vectors


class LieAlgebra:
    """Descriptor: family in {sl, so, sp}, dimension d, base ring."""

    def __init__(self, family, d, ring):
        if family not in ("sl", "so", "sp"):
            raise UsageError(f"unknown algebra family {family!r}")
        if d < 2:
            raise UsageError("need d >= 2")
        if family == "sp" and d % 2:
            raise UsageError("sp needs even d")
        if family in ("so", "sp") and ring.p == 2:
            raise UnsupportedCharacteristic(
                f"{family}_{d} is only realized for odd residue characteristic"
            )
        self.family = family
        self.d = d
        self.ring = ring
        self.g = d // 2  # meaningful for sp
        self._basis = _make_basis(family, d)
        self._index = {name: k for k, (name, _) in enumerate(self._basis)}
        self._bmap = dict(self._basis)

    @property
    def dim(self):
        return len(self._basis)

    def basis_names(self):
        return [name for name, _ in self._basis]

    @staticmethod
    def parse(text):
        try:
            fam, rest = text.split(":", 1)
            dpart, ringpart = rest.split(",", 1)
            d = int(dpart.split("=")[1])
        except (ValueError, IndexError) as exc:
            raise UsageError(f"malformed algebra descriptor {text!r}") from exc
        return LieAlgebra(fam, d, Ring.parse(ringpart))

    def describe(self):
        return f"{self.family}:d={self.d},{self.ring.describe()}"

    def __eq__(self, other):
        return (
            isinstance(other, LieAlgebra)
            and self.family == other.family
            and self.d == other.d
            and self.ring == other.ring
        )

    def __hash__(self):
        return hash((self.family, self.d, self.ring))

    def __repr__(self):
        return f"LieAlgebra({self.describe()})"

    def zero(self):
        return LieVector(self, {})

    def from_coords(self, coords):
        ring = self.ring
        clean = {}
        for name, value in coords.items():
            if name not in self._index:
                raise AlgebraMismatch(f"{name} is not a basis name of {self.describe()}")
            pay = value.payload if hasattr(value, "payload") else ring.from_int(value) if isinstance(value, int) else value
            if pay != ring.zero:
                clean[name] = pay
        return LieVector(self, clean)

    def random(self, rng, residue_only=False):
        ring = self.ring
        coords = {}
        for name, _ in self._basis:
            pay = (
                ring.from_code(int(rng.integers(0, ring.field.q)))
                if residue_only
                else ring.rand(rng)
            )
            if pay != ring.zero:
                coords[name] = pay
        return LieVector(self, coords)


def _name(kind, i, j):
    return f"{kind}_{i}_{j}"


def _make_basis(family, d):
    """List of (name, sparse integer matrix as ((i,j,coeff), ...)), 0-indexed."""
    basis = []
    if family == "sl":
        for j in range(1, d):
            basis.append((_name("D", j, j + 1), ((j - 1, j - 1, 1), (j, j, -1))))
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                if i != j:
                    basis.append((_name("E", i, j), ((i - 1, j - 1, 1),)))
    elif family == "so":
        for i in range(1, d + 1):
            for j in range(i + 1, d + 1):
                basis.append(
                    (_name("X", i, j), ((i - 1, j - 1, 1), (j - 1, i - 1, -1)))
                )
    else:  # sp, d = 2g
        g = d // 2
        for i in range(1, g + 1):
            for j in range(1, g + 1):
                basis.append(
                    (
                        _name("A", i, j),
                        ((i - 1, j - 1, 1), (g + j - 1, g + i - 1, -1)),
                    )
                )
        for i in range(1, g + 1):
            for j in range(i, g + 1):
                if i == j:
                    basis.append((_name("B", i, i), ((i - 1, g + i - 1, 2),)))
                else:
                    basis.append(
                        (
                            _name("B", i, j),
                            ((i - 1, g + j - 1, 1), (j - 1, g + i - 1, 1)),
                        )
                    )
        for i in range(1, g + 1):
            for j in range(i, g + 1):
                if i == j:
                    basis.append((_name("C", i, i), ((g + i - 1, i - 1, 2),)))
                else:
                    basis.append(
                        (
                            _name("C", i, j),
                            ((g + i - 1, j - 1, 1), (g + j - 1, i - 1, 1)),
                        )
                    )
    return basis


class LieVector:
    """Sparse coordinates (basis name -> ring payload) in a fixed algebra."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = {k: v for k, v in coords.items() if v != algebra.ring.zero}

    def is_zero(self):
        return not self.coords

    def __add__(self, other):
        self._chk(other)
        ring = self.algebra.ring
        out = dict(self.coords)
        for k, v in other.coords.items():
            out[k] = ring.add(out.get(k, ring.zero), v)
        return LieVector(self.algebra, out)

    def __sub__(self, other):
        self._chk(other)
        ring = self.algebra.ring
        out = dict(self.coords)
        for k, v in other.coords.items():
            out[k] = ring.sub(out.get(k, ring.zero), v)
        return LieVector(self.algebra, out)

    def __neg__(self):
        ring = self.algebra.ring
        return LieVector(self.algebra, {k: ring.neg(v) for k, v in self.coords.items()})

    def scale(self, c):
        ring = self.algebra.ring
        pay = c.payload if hasattr(c, "payload") else c
        return LieVector(
            self.algebra, {k: ring.mul(pay, v) for k, v in self.coords.items()}
        )

    def _chk(self, other):
        if other.algebra != self.algebra:
            raise AlgebraMismatch("mixed-algebra arithmetic")

    def __eq__(self, other):
        return (
            isinstance(other, LieVector)
            and other.algebra == self.algebra
            and other.coords == self.coords
        )

    def to_matrix(self):
        alg = self.algebra
        ring = alg.ring
        M = [[ring.zero] * alg.d for _ in range(alg.d)]
        for name, pay in self.coords.items():
            for i, j, coeff in alg._bmap[name]:
                term = pay if coeff == 1 else ring.mul(pay, ring.from_int(coeff))
                M[i][j] = ring.add(M[i][j], term)
        return tuple(tuple(row) for row in M)

    def to_pairs(self):
        """Canonical sparse serialization: [(basis_name, coefficient), ...]."""
        order = self.algebra._index
        out = []
        for name in sorted(self.coords, key=order.__getitem__):
            pay = self.coords[name]
            out.append((name, pay if isinstance(pay, int) else list(pay)))
        return out

    def __repr__(self):
        return f"LieVector({self.algebra.describe()}, {self.to_pairs()})"


def from_matrix(algebra, M):
    """Validate membership and extract canonical coordinates."""
    ring = algebra.ring
    d = algebra.d
    zero = ring.zero
    coords = {}
    if algebra.family == "sl":
        acc = zero
        for i in range(d):
            acc = ring.add(acc, M[i][i])
        if acc != zero:
            raise AlgebraMismatch("matrix has nonzero trace")
        run = zero
        for j in range(1, d):
            run = ring.add(run, M[j - 1][j - 1])
            coords[_name("D", j, j + 1)] = run
        for i in range(d):
            for j in range(d):
                if i != j:
                    coords[_name("E", i + 1, j + 1)] = M[i][j]
    elif algebra.family == "so":
        for i in range(d):
            if M[i][i] != zero:
                raise AlgebraMismatch("so matrix needs zero diagonal")
            for j in range(i + 1, d):
                if ring.add(M[i][j], M[j][i]) != zero:
                    raise AlgebraMismatch("matrix is not antisymmetric")
                coords[_name("X", i + 1, j + 1)] = M[i][j]
    else:
        g = algebra.g
        inv2 = ring.inv(ring.from_int(2))
        for i in range(g):
            for j in range(g):
                if ring.add(M[i][j], M[g + j][g + i]) != zero:
                    raise AlgebraMismatch("sp: lower-right block must be -P^T")
                coords[_name("A", i + 1, j + 1)] = M[i][j]
        for i in range(g):
            for j in range(i, g):
                qij, qji = M[i][g + j], M[j][g + i]
                sij, sji = M[g + i][j], M[g + j][i]
                if qij != qji or sij != sji:
                    raise AlgebraMismatch("sp: off-diagonal blocks must be symmetric")
                coords[_name("B", i + 1, j + 1)] = (
                    ring.mul(qij, inv2) if i == j else qij
                )
                coords[_name("C", i + 1, j + 1)] = (
                    ring.mul(sij, inv2) if i == j else sij
                )
    return algebra.from_coords(coords)


def bracket(X, Y):
    """[X, Y] = XY - YX, computed exactly and re-extracted."""
    X._chk(Y)
    ring = X.algebra.ring
    A, B = X.to_matrix(), Y.to_matrix()
    M = mx.sub(ring, mx.mul(ring, A, B), mx.mul(ring, B, A))
    return from_matrix(X.algebra, M)


# ---------------------------------------------------------------------------
# sl_d preimage tables


def _sl_scheme(d):
    """Preimage tables mapping each basis target to (P, Q) integer coords with
    target = [P, F] + [Q, F^T], F the lower shift."""
    if d in _SL_SCHEME_CACHE:
        return _SL_SCHEME_CACHE[d]
    if d < 3:
        raise UsageError(f"the sl preimage scheme needs d >= 3, got {d}")
    table = {}
    for j in range(1, d):
        table[_name("D", j, j + 1)] = ({_name("E", j, j + 1): 1}, {})
    for k in range(2, d):
        for i in range(1, d - k + 1):
            P = {_name("E", j, j + k + 1): -1 for j in range(1, i)}
            Q = {_name("E", 1, k): 1}
            table[_name("E", i, i + k)] = (P, Q)
            Pt = {_name("E", k, 1): -1}
            Qt = {_name("E", j + k + 1, j): 1 for j in range(1, i)}
            table[_name("E", i + k, i)] = (Pt, Qt)
    for i in range(1, d):
        P = {_name("E", 1, 3): -1}
        for j in range(1, i):
            P[_name("E", j, j + 2)] = P.get(_name("E", j, j + 2), 0) - 1
        Q = {_name("D", 1, 2): 1}
        table[_name("E", i, i + 1)] = (P, Q)
        Pt = {_name("D", 1, 2): -1}
        Qt = {_name("E", 3, 1): 1}
        for j in range(1, i):
            Qt[_name("E", j + 2, j)] = Qt.get(_name("E", j + 2, j), 0) + 1
        table[_name("E", i + 1, i)] = (Pt, Qt)
    _verify_sl_scheme(d, table)
    _SL_SCHEME_CACHE[d] = table
    return table


def _frac_basis_matrix(family, d, name):
    M = [[Fraction(0)] * d for _ in range(d)]
    for i, j, coeff in dict(_make_basis(family, d))[name]:
        M[i][j] += coeff
    return M


def _frac_combo(family, d, coords):
    M = [[Fraction(0)] * d for _ in range(d)]
    for name, c in coords.items():
        B = _frac_basis_matrix(family, d, name)
        for i in range(d):
            for j in range(d):
                M[i][j] += c * B[i][j]
    return M


def _frac_mul(A, B):
    d = len(A)
    return [
        [sum(A[i][k] * B[k][j] for k in range(d)) for j in range(len(B[0]))]
        for i in range(d)
    ]


def _frac_brk(A, B):
    AB, BA = _frac_mul(A, B), _frac_mul(B, A)
    return [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(AB, BA)]


def _verify_sl_scheme(d, table):
    F = [[Fraction(int(i == j + 1)) for j in range(d)] for i in range(d)]
    Ft = [[Fraction(int(j == i + 1)) for j in range(d)] for i in range(d)]
    for target, (P, Q) in table.items():
        lhs = _frac_brk(_frac_combo("sl", d, P), F)
        rhs = _frac_brk(_frac_combo("sl", d, Q), Ft)
        want = _frac_basis_matrix("sl", d, target)
        got = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(lhs, rhs)]
        if got != want:
            raise InvariantViolated(f"sl_{d} preimage table broken at {target}")


# ---------------------------------------------------------------------------
# so helpers (shared with the sp sub-solve)


def _so_canon(a, b, sign):
    if a == b:
        return None
    if a > b:
        return (b, a), -sign
    return (a, b), sign


def _so_T1_image(i, j, d):
    """[X_ij, sum_k X_k,k+1] as a list of ((a,b), sign) with a<b."""
    out = []
    for a, b, s in (
        (i, j + 1, 1),
        (i, j - 1, -1),
        (i + 1, j, 1),
        (i - 1, j, -1),
    ):
        if 1 <= a and b <= d and a <= d and 1 <= b:
            canon = _so_canon(a, b, s)
            if canon:
                out.append(canon)
    return out


def _so_sweep(ring, coords, d):
    """Clear every X_ab with a >= 2 using T1 preimages.

    coords: dict (a,b)->payload with a<b, consumed destructively.
    Returns P1 as dict (a,b)->payload; on exit coords holds only first-row
    entries.  Junk flows to lower anti-diagonals or the first row only.
    """
    P1 = {}
    zero = ring.zero
    for s in range(2 * d - 1, 4, -1):
        for i in range((s - 2) // 2, max(1, s - d - 1) - 1, -1):
            u = (i, s - i - 1)
            tgt = (i + 1, s - i - 1) if i + 1 < s - i - 1 else (i, s - i)
            x = coords.get(tgt, zero)
            if x == zero:
                continue
            P1[u] = ring.add(P1.get(u, zero), x)
            for (a, b), sign in _so_T1_image(u[0], u[1], d):
                delta = x if sign == 1 else ring.neg(x)
                coords[(a, b)] = ring.sub(coords.get((a, b), zero), delta)
                if coords[(a, b)] == zero:
                    del coords[(a, b)]
    for (a, b), v in coords.items():
        if a != 1 and v != zero:
            raise InvariantViolated(f"sweep left residue at X_{a}_{b}")
    return P1


# ---------------------------------------------------------------------------
# bracket_decompose


def bracket_decompose(X):
    """Write X as a sum of at most 2 (sl) or 3 (so, sp) brackets.

    Returns [(P_k, W_k), ...] with sum_k [P_k, W_k] == X exactly; the right
    members W_k are fixed per algebra (independent of X).  The pairs come
    from the algebra's plan (`_plan`): P_k = c D_k for the coordinates c of
    X, pairs with P_k = 0 dropped, in slot order, and the sum of brackets
    is checked against X as one stacked matrix product before returning.
    """
    alg = X.algebra
    plan = _plan(alg.family, alg.d, alg.ring)
    zero = alg.ring.zero
    P = plan.solve(plan.planes([X.coords.get(name, zero)
                                for name in plan.names]))
    return [(LieVector(plan.alg, dict(zip(plan.names, plan.payloads(Pk)))),
             W) for Pk, W in zip(P, plan.W) if Pk.any()]


def _decompose(X):
    """Every slot (P_k, W_k) of the reference decomposition of X, zero P_k
    included; `bracket_decompose` drops those."""
    family = X.algebra.family
    if family == "sl":
        return _decompose_sl(X)
    if family == "so":
        return _decompose_so(X)
    return _decompose_sp(X)


def _decompose_sl(X):
    alg = X.algebra
    ring = alg.ring
    d = alg.d
    if d == 2:
        if ring.p == 2:
            raise UnsupportedCharacteristic("sl_2 decomposition needs odd p")
        a = X.coords.get("D_1_2", ring.zero)
        b = X.coords.get("E_1_2", ring.zero)
        c = X.coords.get("E_2_1", ring.zero)
        half = ring.inv(ring.from_int(2))
        P1 = alg.from_coords({"E_1_2": ring.neg(b), "E_2_1": c})
        H = alg.from_coords({"D_1_2": half})
        P2 = alg.from_coords({"E_1_2": a})
        return [(P1, H), (P2, alg.from_coords({"E_2_1": ring.one}))]
    table = _sl_scheme(d)
    P: dict = {}
    Q: dict = {}
    for name, x in X.coords.items():
        tp, tq = table[name]
        for bname, coeff in tp.items():
            term = x if coeff == 1 else ring.mul(x, ring.from_int(coeff))
            P[bname] = ring.add(P.get(bname, ring.zero), term)
        for bname, coeff in tq.items():
            term = x if coeff == 1 else ring.mul(x, ring.from_int(coeff))
            Q[bname] = ring.add(Q.get(bname, ring.zero), term)
    F = alg.from_coords({_name("E", i + 1, i): ring.one for i in range(1, d)})
    Ft = alg.from_coords({_name("E", i, i + 1): ring.one for i in range(1, d)})
    return [(alg.from_coords(P), F), (alg.from_coords(Q), Ft)]


def _decompose_so(X):
    alg = X.algebra
    ring = alg.ring
    d = alg.d
    if d < 3:
        raise UnsupportedCharacteristic("so decomposition needs d >= 3")
    zero = ring.zero
    W1 = alg.from_coords(
        {_name("X", i, i + 1): ring.one for i in range(1, d)}
    )
    W2 = alg.from_coords(
        {
            _name("X", 1, d - 1): ring.one,
            _name("X", 1, d): ring.one,
            _name("X", 2, d): ring.one,
        }
    )
    W3 = alg.from_coords({_name("X", 1, 2): ring.one})
    if d == 3:
        x12 = X.coords.get("X_1_2", zero)
        x13 = X.coords.get("X_1_3", zero)
        x23 = X.coords.get("X_2_3", zero)
        P2 = alg.from_coords({"X_2_3": x12})
        P3 = alg.from_coords(
            {"X_2_3": ring.neg(ring.add(x12, x13)), "X_1_3": x23}
        )
        return [(P2, W2), (P3, W3)]
    work = {}
    for name, v in X.coords.items():
        _, a, b = name.split("_")
        work[(int(a), int(b))] = v
    P1 = _so_sweep(ring, work, d)
    P2: dict = {}
    P3: dict = {}
    for j in range(3, d - 1):
        r = work.pop((1, j), zero)
        if r != zero:
            P2[_name("X", j, d - 1)] = ring.add(
                P2.get(_name("X", j, d - 1), zero), r
            )
    r = work.pop((1, 2), zero)
    if r != zero:
        P2[_name("X", 2, d)] = ring.add(P2.get(_name("X", 2, d), zero), r)
    r = work.pop((1, d - 1), zero)
    if r != zero:
        P3[_name("X", 2, d - 1)] = ring.sub(
            P3.get(_name("X", 2, d - 1), zero), r
        )
    r = work.pop((1, d), zero)
    if r != zero:
        P3[_name("X", 2, d)] = ring.sub(P3.get(_name("X", 2, d), zero), r)
    if any(v != zero for v in work.values()):
        raise InvariantViolated("so decomposition left first-row residue")
    P1v = alg.from_coords({_name("X", a, b): v for (a, b), v in P1.items()})
    return [(P1v, W1), (alg.from_coords(P2), W2), (alg.from_coords(P3), W3)]


def _decompose_sp(X):
    alg = X.algebra
    ring = alg.ring
    g = alg.g
    zero = ring.zero
    inv2 = ring.inv(ring.from_int(2))
    inv4 = ring.mul(inv2, inv2)
    M = X.to_matrix()
    P = [[M[i][j] for j in range(g)] for i in range(g)]
    Q = [[M[i][g + j] for j in range(g)] for i in range(g)]
    S = [[M[g + i][j] for j in range(g)] for i in range(g)]

    # gl_g sub-solve: find Y1 with skew([Y1, G]) = skew(P),
    # G = E_11 + sum_i (E_i,i+1 - E_i+1,i)
    skewP = {}
    for a in range(1, g + 1):
        for b in range(a + 1, g + 1):
            v = ring.mul(ring.sub(P[a - 1][b - 1], P[b - 1][a - 1]), inv2)
            if v != zero:
                skewP[(a, b)] = v
    P1_so = _so_sweep(ring, skewP, g) if g >= 2 else {}
    Y1 = [[zero] * g for _ in range(g)]
    for (a, b), v in P1_so.items():
        Y1[a - 1][b - 1] = ring.add(Y1[a - 1][b - 1], v)
        Y1[b - 1][a - 1] = ring.sub(Y1[b - 1][a - 1], v)
    for (a, b), r in skewP.items():
        if r == zero:
            continue
        if a != 1:
            raise InvariantViolated(f"sp sweep left residue at X_{a}_{b}")
        # S1(-(E_1b + E_b1)) = X_1b for the E_11 part of G
        Y1[0][b - 1] = ring.sub(Y1[0][b - 1], r)
        Y1[b - 1][0] = ring.sub(Y1[b - 1][0], r)
    G = [[zero] * g for _ in range(g)]
    G[0][0] = ring.one
    for i in range(g - 1):
        G[i][i + 1] = ring.one
        G[i + 1][i] = ring.neg(ring.one)
    G = tuple(tuple(row) for row in G)
    Y1 = tuple(tuple(row) for row in Y1)
    BrY = mx.sub(ring, mx.mul(ring, Y1, G), mx.mul(ring, G, Y1))
    # Z = sym part of [Y1, G]; the skew part equals skew(P) by construction
    Z = [
        [ring.mul(ring.add(BrY[i][j], BrY[j][i]), inv2) for j in range(g)]
        for i in range(g)
    ]
    DA = [
        [
            ring.sub(
                ring.mul(ring.add(P[i][j], P[j][i]), inv2), Z[i][j]
            )
            for j in range(g)
        ]
        for i in range(g)
    ]

    def emb(TL, TR, BL, BRm):
        out = [[zero] * (2 * g) for _ in range(2 * g)]
        for i in range(g):
            for j in range(g):
                out[i][j] = TL[i][j]
                out[i][g + j] = TR[i][j]
                out[g + i][j] = BL[i][j]
                out[g + i][g + j] = BRm[i][j]
        return tuple(tuple(row) for row in out)

    zg = [[zero] * g for _ in range(g)]
    negY1T = [[ring.neg(Y1[j][i]) for j in range(g)] for i in range(g)]
    negGT = [[ring.neg(G[j][i]) for j in range(g)] for i in range(g)]
    pair1 = (
        from_matrix(alg, emb(Y1, zg, zg, negY1T)),
        from_matrix(alg, emb(G, zg, zg, negGT)),
    )
    DA4 = [[ring.mul(DA[i][j], inv4) for j in range(g)] for i in range(g)]
    nDA4 = [[ring.neg(DA4[i][j]) for j in range(g)] for i in range(g)]
    eye = [[ring.one if i == j else zero for j in range(g)] for i in range(g)]
    two = [[ring.from_int(2) if i == j else zero for j in range(g)] for i in range(g)]
    neye = [[ring.neg(eye[i][j]) for j in range(g)] for i in range(g)]
    pair2 = (
        from_matrix(alg, emb(zg, DA4, nDA4, zg)),
        from_matrix(alg, emb(zg, two, two, zg)),
    )
    nQ2 = [[ring.neg(ring.mul(Q[i][j], inv2)) for j in range(g)] for i in range(g)]
    S2 = [[ring.mul(S[i][j], inv2) for j in range(g)] for i in range(g)]
    pair3 = (
        from_matrix(alg, emb(zg, nQ2, S2, zg)),
        from_matrix(alg, emb(eye, zg, zg, neye)),
    )
    return [pair1, pair2, pair3]


# ---------------------------------------------------------------------------
# the per-algebra plan


def _coefficient(ring, pay):
    """The integer a plan stores for a ring constant: the residue over
    Z/p^N; over F_q[[t]] the constant's code, which must lie in F_p."""
    if ring.kind == "Zp":
        return pay
    if any(pay[1:]) or pay[0] >= ring.p:
        raise InvariantViolated(f"plan coefficient {pay!r} is not in F_p")
    return pay[0]


class _Plan:
    """One algebra's bracket decomposition as linear maps over its ring,
    built once from the reference decomposers (`_decompose`) run on the
    basis vectors; every coefficient is +-1, 2, 1/2 or 1/4.

    The maps act on planes, (z, n) integer arrays of n coordinates or
    matrix entries: over Z/p^N one plane of residues (z = 1), int64 when a
    sum of d^2 products stays exact (d^2 (p^N - 1)^2 < 2^63) and Python
    ints past that; over F_q[[t]]/t^N the N k base-p digits of each entry's
    N coefficient codes (q = p^k, z = N k), on which every map acts
    digitwise mod p, its coefficients lying in F_p.  It holds:

    - `basis`: (dim, d^2), the basis matrices;
    - `lin`: (d^2, dim), (g - I) / pi^n to the coordinates of its
      projection into the algebra (the map of `linearize`);
    - `D`: (K, dim, dim), the k-th slot's left member P_k = c @ D[k] of the
      coordinates c, and `W`/`Wm`, the fixed right members as vectors and
      (K, d, d) matrices;
    - the lifts of the W_k at each level m, filled in by `lift_w`.
    """

    def __init__(self, alg):
        ring, d = alg.ring, alg.d
        self.alg = alg
        self.names = alg.basis_names()
        zero = ring.zero
        if ring.kind == "Zp":
            self.mod = ring.modulus
            wide = d * d * (self.mod - 1) ** 2 >= 2**63
            self.dtype = object if wide else np.int64
            self._digits = None
        else:
            self.mod, self.dtype = ring.p, np.int64
            self._digits = ring.p ** np.arange(ring.field.k)

        def ints(values):
            return np.array([_coefficient(ring, x) for x in values],
                            dtype=self.dtype)

        def coords(X):
            return ints(X.coords.get(name, zero) for name in self.names)

        units = [alg.from_coords({name: ring.one}) for name in self.names]
        slots = [_decompose(X) for X in units]
        self.W = [W for _, W in slots[0]]
        if any([W for _, W in s] != self.W for s in slots):
            raise InvariantViolated("decomposition slots differ between inputs")
        self.D = np.stack([np.stack([coords(s[k][0]) for s in slots])
                           for k in range(len(self.W))])
        self.Wm = np.stack([ints(x for row in W.to_matrix() for x in row)
                            for W in self.W]).reshape(-1, d, d)
        self.basis = np.stack([ints(x for row in X.to_matrix() for x in row)
                               for X in units])
        self.lin = np.stack([coords(_project(alg, _unit_matrix(ring, d, a, b)))
                             for a in range(d) for b in range(d)])
        self._wlifts = {}

    def planes(self, payloads):
        """The (z, n) planes of n payloads."""
        if self._digits is None:
            return np.array([payloads], dtype=self.dtype)
        codes = np.array(payloads, dtype=np.int64)  # (n, N)
        digits = codes[..., None] // self._digits % self.mod
        return digits.reshape(len(payloads), -1).T

    def payloads(self, planes):
        """The n payloads of (z, n) planes."""
        if self._digits is None:
            return planes[0].tolist()
        n, k = planes.shape[-1], len(self._digits)
        codes = planes.T.reshape(n, -1, k) @ self._digits
        return [tuple(row) for row in codes.tolist()]

    def coordinates(self, X, n):
        """The planes (z, dim) of the coordinates of `linearize`: the
        projection of (g - I) / pi^n into the algebra, for g the stack of
        one X in `matgroups.MatrixOps`' layout, whose planes over F_q[[t]]
        are already digits."""
        ring, d = self.alg.ring, self.alg.d
        if self._digits is None:
            flat = (X[0] - np.eye(d, dtype=np.int64)) % self.mod // ring.p**n
            return flat.reshape(1, -1).astype(self.dtype) @ self.lin % self.mod
        G = X[0].copy()
        G[range(d), range(d), 0, 0] -= 1
        shifted = np.zeros_like(G)
        shifted[..., : ring.N - n] = G[..., n:] % self.mod
        # (d, d, k, N) -> rows t * k + r, the layout of `planes`
        return shifted.transpose(3, 2, 0, 1).reshape(-1, d * d) @ self.lin \
            % self.mod

    def solve(self, c):
        """The (K, z, dim) left members P_k = c @ D[k] of the coordinates c,
        after checking sum_k [P_k, W_k] = X exactly, as one stacked matrix
        product."""
        mod, d = self.mod, self.alg.d
        P = c @ self.D % mod
        K, z = P.shape[:2]
        Pm = (P @ self.basis % mod).reshape(K, z, d, d)
        W = self.Wm[:, None]
        brk = ((Pm @ W) % mod - (W @ Pm) % mod).sum(axis=0) % mod
        if not (brk == (c @ self.basis % mod).reshape(z, d, d)).all():
            raise InvariantViolated("decomposition failed to reproduce its input")
        return P

    def lift_w(self, k, m, desc):
        """The lift of W_k at level m in the group `desc`, computed once per
        (k, m)."""
        key = (k, m)
        if key not in self._wlifts:
            zero = self.alg.ring.zero
            W = self.W[k]
            self._wlifts[key] = _lift_coords(
                desc, [W.coords.get(name, zero) for name in self.names], m)
        return self._wlifts[key]


def _unit_matrix(ring, d, a, b):
    return tuple(tuple(ring.one if (i, j) == (a, b) else ring.zero
                       for j in range(d)) for i in range(d))


def _plan(family, d, ring):
    """The cached `_Plan` of the algebra (family, d, ring); the first call
    raises what the reference decomposer raises (d = 2 for so, p = 2 for
    sl_2)."""
    key = (family, d, ring)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = _PLAN_CACHE[key] = _Plan(LieAlgebra(family, d, ring))
    return plan


# ---------------------------------------------------------------------------
# lift / linearize / oracle


def lift(X, l):
    """Exact group element congruent to I + pi^l X mod pi^(2l).

    The factors are chosen so membership (det 1 / orthogonal / symplectic)
    holds exactly, not just to leading order.
    """
    ring = X.algebra.ring
    if not 1 <= l:
        raise UsageError("lift level must be >= 1")
    if 2 * l > ring.N:
        raise PrecisionExceedsTruncation(
            f"lift at level {l} needs 2l <= N={ring.N}"
        )
    return _lift_any(X, l)


class _ZpInts:
    """Z/p^N arithmetic of the lift on plain ints, one reduction per
    operation."""

    zero, one = 0, 1

    def __init__(self, ring):
        self.p, self.N, self.mod = ring.p, ring.N, ring.modulus

    def add(self, a, b):
        return (a + b) % self.mod

    def shift(self, a, l):
        return a * self.p**l % self.mod

    def scale(self, a, c):
        return a * c % self.mod

    def addmul(self, a, b, x):
        return (a + b * x) % self.mod

    def unit(self, a):
        """(1 + a)^-1 - 1."""
        return (pow(1 + a, -1, self.mod) - 1) % self.mod

    def rot(self, a):
        """sqrt(1 - a^2) - 1, the root that is 1 mod p, by the Newton steps
        of `rings.hensel_sqrt` from the seed 1."""
        mod = self.mod
        t = (1 - a * a) % mod
        inv2 = pow(2, -1, mod)
        x = 1
        for _ in range(max(4, self.N.bit_length() + 2)):
            x = (x + t * pow(x, -1, mod)) * inv2 % mod
        if x * x % mod != t:
            raise NoSquareRoot("iteration stalled; target has no square root here")
        return (x - 1) % mod


class _RingOps:
    """The same arithmetic through a ring's payload ops (F_q[[t]])."""

    def __init__(self, ring):
        self.ring = ring
        self.zero, self.one = ring.zero, ring.one
        self.add, self.shift = ring.add, ring.shift

    def scale(self, a, c):
        ring = self.ring
        return a if c == 1 else ring.mul(a, ring.from_int(c))

    def addmul(self, a, b, x):
        return self.ring.add(a, self.ring.mul(b, x))

    def unit(self, a):
        ring = self.ring
        return ring.sub(ring.inv(ring.add(self.one, a)), self.one)

    def rot(self, a):
        ring, one = self.ring, self.one
        t = ring.sub(one, ring.mul(a, a))
        beta = hensel_sqrt(RingElem(ring, t), RingElem(ring, one)).payload
        return ring.sub(beta, one)


def _times_factor(mat, delta, addmul):
    """mat <- mat * (I + delta) in place, delta a few (i, j, x) entries.

    Each entry is one column update, O(d) `addmul`s, instead of an O(d^3)
    product with the full factor; columns are read before any of them is
    written."""
    cols = {}
    for i, j, x in delta:
        col = cols.setdefault(j, [row[j] for row in mat])
        for r, row in enumerate(mat):
            col[r] = addmul(col[r], row[i], x)
    for j, col in cols.items():
        for r, row in enumerate(mat):
            row[j] = col[r]


@functools.cache
def _lift_program(family, d):
    """The factor each basis coordinate lifts to, in basis order, which is
    the order the factors multiply in, and the moves of the sl diagonal
    coordinates onto the off-diagonal ones.

    A factor is ("lin", entries): I + xs * sum c E_ij over the (i, j, c)
    entries (det 1, or symplectic, exactly); ("rot", (a, b)): the rotation
    with off-diagonal +-xs and diagonal sqrt(1 - xs^2) in the (a, b) plane
    (so); ("unit", (a, b)): diag(1 + xs, (1 + xs)^-1) at a, b (sp A_i_i).
    An sl D_j coordinate c lifts to the det-1 block [[1 + cs, cs], [-cs,
    1 - cs]], whose off-diagonal entries the moves (E_j_j+1 -= c, E_j+1_j
    += c) take back out of the E factors."""
    basis = _make_basis(family, d)
    index = {name: k for k, (name, _) in enumerate(basis)}
    g = d // 2
    program, moves = [], []
    for k, (name, entries) in enumerate(basis):
        kind, i, j = name.split("_")
        i, j = int(i), int(j)
        if kind == "D":
            program.append(("lin", entries + ((i - 1, j - 1, 1),
                                              (j - 1, i - 1, -1))))
            moves += [(index[_name("E", i, j)], k, -1),
                      (index[_name("E", j, i)], k, 1)]
        elif kind == "X":
            program.append(("rot", (i - 1, j - 1)))
        elif kind == "A" and i == j:
            program.append(("unit", (i - 1, g + i - 1)))
        else:
            program.append(("lin", entries))
    return program, moves


def _lift_coords(desc, coords, l):
    """The element of the group `desc` that `_lift_any` builds from the
    coordinates in basis order."""
    from .matgroups import from_payloads

    ring, d = desc.ring, desc.d
    ar = _ZpInts(ring) if ring.kind == "Zp" else _RingOps(ring)
    program, moves = _lift_program(desc.family.lower(), d)
    coords = list(coords)
    for dst, src, sign in moves:
        coords[dst] = ar.add(coords[dst], ar.scale(coords[src], sign))
    zero, one = ar.zero, ar.one
    mat = [[one if i == j else zero for j in range(d)] for i in range(d)]
    for x, (kind, spec) in zip(coords, program):
        if x == zero:
            continue
        xs = ar.shift(x, l)
        if kind == "lin":
            delta = tuple((a, b, ar.scale(xs, c)) for a, b, c in spec)
        elif kind == "rot":
            a, b = spec
            c = ar.rot(xs)
            delta = ((a, a, c), (b, b, c),
                     (a, b, xs), (b, a, ar.scale(xs, -1)))
        else:
            a, b = spec
            delta = ((a, a, xs), (b, b, ar.unit(xs)))
        _times_factor(mat, delta, ar.addmul)
    return from_payloads(desc, mat)


def _lift_any(X, l):
    """The exact lift of X at level l: the product, in basis order, of one
    factor per nonzero coordinate (`_lift_program`), each exactly in the
    group.  Over Z/p^N the factors are built and applied on plain ints, one
    reduction mod p^N per update and a plain-int Newton square root for so
    (`_ZpInts`); over F_q[[t]] through the ring's payload ops."""
    from .matgroups import GroupDescriptor

    alg = X.algebra
    zero = alg.ring.zero
    family = {"sl": "SL", "so": "SO", "sp": "Sp"}[alg.family]
    return _lift_coords(GroupDescriptor(family, alg.d, alg.ring),
                        [X.coords.get(name, zero)
                         for name in alg.basis_names()], l)


def linearize(g, n):
    """Recover X with g == I + pi^n X mod pi^(2n), projected exactly into
    the algebra.  Requires 2n <= N so the congruence is meaningful."""
    desc = g.descriptor
    ring = desc.ring
    d = desc.d
    if 2 * n > ring.N:
        raise TruncationTooShallow(
            f"linearize at depth {n} needs 2n <= N={ring.N}"
        )
    if n < 1:
        raise UsageError("linearize depth must be >= 1")
    if g.depth() < n:
        raise NotDeepEnough(f"element depth {g.depth()} < {n}")
    if desc.family not in ("SL", "SO", "Sp"):
        raise UsageError(f"linearize does not apply to family {desc.family}")
    M = mx.unshift(ring, mx.sub(ring, g.mat, mx.eye(ring, d)), n)
    return _project(LieAlgebra(desc.family.lower(), d, ring), M)


def _project(alg, M):
    """The coordinates of the projection of the payload matrix M into the
    algebra: the trace moved off the last diagonal entry (sl), the
    antisymmetric part (so), (M + Omega M^T Omega) / 2 (sp)."""
    ring, d = alg.ring, alg.d
    if alg.family == "sl":
        tr = ring.zero
        for i in range(d):
            tr = ring.add(tr, M[i][i])
        M = [list(row) for row in M]
        M[d - 1][d - 1] = ring.sub(M[d - 1][d - 1], tr)
        M = tuple(tuple(row) for row in M)
    elif alg.family == "so":
        inv2 = ring.inv(ring.from_int(2))
        Mt = mx.transpose(M)
        M = tuple(
            tuple(
                ring.mul(ring.sub(a, b), inv2) for a, b in zip(ra, rb)
            )
            for ra, rb in zip(M, Mt)
        )
    else:
        inv2 = ring.inv(ring.from_int(2))
        Om = mx.omega(ring, d)
        OMO = mx.mul(ring, Om, mx.mul(ring, mx.transpose(M), Om))
        M = tuple(
            tuple(ring.mul(ring.add(a, b), inv2) for a, b in zip(ra, rb))
            for ra, rb in zip(M, OMO)
        )
    return from_matrix(alg, M)


def commutator_decompose(r, n, m):
    """Depth-graded oracle: express r in K_{n+m} as a product of at most
    A commutators [g_k, h_k], g_k in K_n, h_k in K_m, agreeing with r
    mod K_{2n+m}.

    Runs from the plan of r's algebra (`_plan`): the coordinates c of the
    projection X of (r - I) / pi^(n+m) into the algebra, the left members
    P_k = c D_k, checked exactly (sum_k [P_k, W_k] = X) and each lifted at
    level n, and the plan's lift of W_k at level m, computed once per
    level."""
    N = r.descriptor.ring.N
    if not (1 <= n <= m <= 2 * n):
        raise BadLevelPair(f"need 1 <= n <= m <= 2n, got ({n}, {m})")
    if m + 2 * n > N:
        raise OracleLevelRejected(f"m + 2n = {m + 2 * n} exceeds N = {N}")
    return _commutator_decompose_capped(r, n, m)


def _commutator_decompose_capped(r, n, m):
    """`commutator_decompose` without its m + 2n <= N check: past it, the
    pairs agree with r mod K_N, which needs 2(n+m) >= N."""
    desc = r.descriptor
    N = desc.ring.N
    if not (1 <= n <= m <= 2 * n):
        raise BadLevelPair(f"need 1 <= n <= m <= 2n, got ({n}, {m})")
    if m + 2 * n > N and 2 * (n + m) < N:
        raise OracleLevelRejected(
            "capped oracle needs 2(n+m) >= N when 2n+m overshoots"
        )
    if desc.family == "SL" and desc.d == 2 and desc.ring.p == 2:
        raise UnsupportedCharacteristic("SL_2 oracle needs odd p")
    eff = min(n + m, N)
    if r.depth() < eff:
        raise NotDeepEnough(f"oracle input depth {r.depth()} < n+m = {n + m}")
    if eff >= N:
        return []  # r is trivial at this truncation
    plan = _plan(desc.family.lower(), desc.d, desc.ring)
    P = plan.solve(plan.coordinates(r.stack, eff))
    return [(_lift_coords(desc, plan.payloads(Pk), n),
             plan.lift_w(k, m, desc))
            for k, Pk in enumerate(P) if Pk.any()]
