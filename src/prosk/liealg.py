"""Integral Lie algebras sl_d / so_d / sp_d over a truncated local ring,
with constructive two- or three-bracket decompositions, exact lifts into
congruence levels, and the depth-graded commutator oracle.

Basis conventions (1-indexed names used in serialized coordinates):
  sl_d: E_i_j (i != j, matrix unit) and D_j_{j+1} = E_jj - E_{j+1,j+1}.
  so_d: X_i_j = E_ij - E_ji for i < j.
  sp_2g: A_i_j = diag(E_ij, -E_ji); B_i_j (i<j) with Q-block E_ij+E_ji and
         B_i_i with Q-block 2E_ii; C_i_j mirrored in the S-block.

Every decomposition is re-verified exactly (bracket arithmetic over the
ring) before being returned; a failure is a bug, not a data error.
"""

from __future__ import annotations

from fractions import Fraction

from . import _matrix as mx
from .errors import (
    AlgebraMismatch,
    BadLevelPair,
    InvariantViolated,
    NotDeepEnough,
    OracleLevelRejected,
    PrecisionExceedsTruncation,
    TruncationTooShallow,
    UnsupportedCharacteristic,
    UsageError,
)
from .rings import Ring

_SL_SCHEME_CACHE: dict[int, dict] = {}


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
    members W_k are fixed per algebra (independent of X).
    """
    alg = X.algebra
    if alg.family == "sl":
        pairs = _decompose_sl(X)
    elif alg.family == "so":
        pairs = _decompose_so(X)
    else:
        pairs = _decompose_sp(X)
    acc = alg.zero()
    for P, W in pairs:
        acc = acc + bracket(P, W)
    if acc != X:
        raise InvariantViolated("decomposition failed to reproduce its input")
    return pairs


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
        pairs = []
        P1 = alg.from_coords({"E_1_2": ring.neg(b), "E_2_1": c})
        H = alg.from_coords({"D_1_2": half})
        if not P1.is_zero():
            pairs.append((P1, H))
        P2 = alg.from_coords({"E_1_2": a})
        if not P2.is_zero():
            pairs.append((P2, alg.from_coords({"E_2_1": ring.one})))
        return pairs
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
    pairs = []
    Pv, Qv = alg.from_coords(P), alg.from_coords(Q)
    if not Pv.is_zero():
        pairs.append((Pv, F))
    if not Qv.is_zero():
        pairs.append((Qv, Ft))
    return pairs


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
        pairs = []
        if not P2.is_zero():
            pairs.append((P2, W2))
        if not P3.is_zero():
            pairs.append((P3, W3))
        return pairs
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
    pairs = []
    P1v = alg.from_coords({_name("X", a, b): v for (a, b), v in P1.items()})
    if not P1v.is_zero():
        pairs.append((P1v, W1))
    P2v = alg.from_coords(P2)
    if not P2v.is_zero():
        pairs.append((P2v, W2))
    P3v = alg.from_coords(P3)
    if not P3v.is_zero():
        pairs.append((P3v, W3))
    return pairs


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
    return [(L, R) for L, R in (pair1, pair2, pair3) if not L.is_zero()]


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


def _times_factor(ring, mat, delta):
    """mat <- mat * (I + delta) in place, delta a few (i, j, x) entries.

    Each entry is one column update, O(d) ring operations, instead of an
    O(d^3) product with the full factor; columns are read before any of
    them is written."""
    cols = {}
    for i, j, x in delta:
        col = cols.setdefault(j, [row[j] for row in mat])
        for r, row in enumerate(mat):
            col[r] = ring.add(col[r], ring.mul(row[i], x))
    for j, col in cols.items():
        for r, row in enumerate(mat):
            row[j] = col[r]


def _lift_any(X, l):
    from . import matgroups

    alg = X.algebra
    ring = alg.ring
    d = alg.d
    zero, one = ring.zero, ring.one
    fam = alg.family
    mat = [list(row) for row in mx.eye(ring, d)]
    if fam == "sl":
        off = {}
        for name, v in X.coords.items():
            kind, a, b = name.split("_")
            if kind == "E":
                off[(int(a), int(b))] = ring.add(
                    off.get((int(a), int(b)), zero), v
                )
        for j in range(1, d):
            c = X.coords.get(_name("D", j, j + 1), zero)
            if c == zero:
                continue
            off[(j, j + 1)] = ring.sub(off.get((j, j + 1), zero), c)
            off[(j + 1, j)] = ring.add(off.get((j + 1, j), zero), c)
            cs = ring.shift(c, l)
            ncs = ring.neg(cs)
            _times_factor(ring, mat, ((j - 1, j - 1, cs), (j, j, ncs),
                                      (j - 1, j, cs), (j, j - 1, ncs)))
        for (a, b) in sorted(off):
            x = off[(a, b)]
            if x != zero:
                _times_factor(ring, mat, ((a - 1, b - 1, ring.shift(x, l)),))
    elif fam == "so":
        from .rings import RingElem, hensel_sqrt

        for a in range(1, d + 1):
            for b in range(a + 1, d + 1):
                x = X.coords.get(_name("X", a, b), zero)
                if x == zero:
                    continue
                al = ring.shift(x, l)
                t = ring.sub(one, ring.mul(al, al))
                beta = hensel_sqrt(RingElem(ring, t), RingElem(ring, one)).payload
                bm1 = ring.sub(beta, one)
                _times_factor(ring, mat, ((a - 1, a - 1, bm1), (b - 1, b - 1, bm1),
                                          (a - 1, b - 1, al),
                                          (b - 1, a - 1, ring.neg(al))))
    else:  # sp
        g = alg.g
        basis = alg._bmap
        for kind in ("A", "B", "C"):
            for i in range(1, g + 1):
                rng_j = range(1, g + 1) if kind == "A" else range(i, g + 1)
                for j in rng_j:
                    x = X.coords.get(_name(kind, i, j), zero)
                    if x == zero:
                        continue
                    xs = ring.shift(x, l)
                    if kind == "A" and i == j:
                        u = ring.add(one, xs)
                        delta = ((i - 1, i - 1, xs),
                                 (g + i - 1, g + i - 1, ring.sub(ring.inv(u), one)))
                    else:  # I + xs * (basis matrix) is exactly symplectic
                        delta = tuple(
                            (a, b, xs if coeff == 1
                             else ring.mul(xs, ring.from_int(coeff)))
                            for (a, b, coeff) in basis[_name(kind, i, j)]
                        )
                    _times_factor(ring, mat, delta)
    fam_map = {"sl": "SL", "so": "SO", "sp": "Sp"}
    desc = matgroups.GroupDescriptor(fam_map[fam], d, ring)
    return matgroups.FilteredElement(desc, tuple(tuple(r) for r in mat))


def linearize(g, n):
    """Recover X with g == I + pi^n X mod pi^(2n), projected exactly into
    the algebra.  Requires 2n <= N so the congruence is meaningful."""
    if 2 * n > g.descriptor.ring.N:
        raise TruncationTooShallow(
            f"linearize at depth {n} needs 2n <= N={g.descriptor.ring.N}"
        )
    return _linearize_capped(g, n)


def _linearize_capped(g, n):
    desc = g.descriptor
    ring = desc.ring
    d = desc.d
    if n < 1:
        raise UsageError("linearize depth must be >= 1")
    if g.depth() < n:
        raise NotDeepEnough(f"element depth {g.depth()} < {n}")
    M = mx.unshift(ring, mx.sub(ring, g.mat, mx.eye(ring, d)), n)
    fam = desc.family
    if fam == "SL":
        tr = ring.zero
        for i in range(d):
            tr = ring.add(tr, M[i][i])
        M = [list(row) for row in M]
        M[d - 1][d - 1] = ring.sub(M[d - 1][d - 1], tr)
        M = tuple(tuple(row) for row in M)
        alg = LieAlgebra("sl", d, ring)
    elif fam == "SO":
        inv2 = ring.inv(ring.from_int(2))
        Mt = mx.transpose(M)
        M = tuple(
            tuple(
                ring.mul(ring.sub(a, b), inv2) for a, b in zip(ra, rb)
            )
            for ra, rb in zip(M, Mt)
        )
        alg = LieAlgebra("so", d, ring)
    elif fam == "Sp":
        inv2 = ring.inv(ring.from_int(2))
        Om = mx.omega(ring, d)
        OMO = mx.mul(ring, Om, mx.mul(ring, mx.transpose(M), Om))
        M = tuple(
            tuple(ring.mul(ring.add(a, b), inv2) for a, b in zip(ra, rb))
            for ra, rb in zip(M, OMO)
        )
        alg = LieAlgebra("sp", d, ring)
    else:
        raise UsageError(f"linearize does not apply to family {fam}")
    return from_matrix(alg, M)


def commutator_decompose(r, n, m):
    """Depth-graded oracle: express r in K_{n+m} as a product of at most
    A commutators [g_k, h_k], g_k in K_n, h_k in K_m, agreeing with r
    mod K_{2n+m}."""
    N = r.descriptor.ring.N
    if not (1 <= n <= m <= 2 * n):
        raise BadLevelPair(f"need 1 <= n <= m <= 2n, got ({n}, {m})")
    if m + 2 * n > N:
        raise OracleLevelRejected(f"m + 2n = {m + 2 * n} exceeds N = {N}")
    return _commutator_decompose_capped(r, n, m)


def _commutator_decompose_capped(r, n, m):
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
    pairs = bracket_decompose(_linearize_capped(r, eff))
    return [(_lift_any(P, n), _lift_any(W, m)) for P, W in pairs]
