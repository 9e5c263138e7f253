"""Integral Lie algebras sl_d / so_d / sp_d over a truncated local ring,
with constructive two- or three-bracket decompositions, exact lifts into
congruence levels, and the depth-graded commutator oracle, whose pairs
agree with their target mod K_min(2n+m, N): past the truncation the window
clips at N.

Basis conventions (1-indexed names used in serialized coordinates):
  sl_d: E_i_j (i != j, matrix unit) and D_j_{j+1} = E_jj - E_{j+1,j+1}.
  so_d: X_i_j = E_ij - E_ji for i < j.
  sp_2g: A_i_j = diag(E_ij, -E_ji); B_i_j (i<j) with Q-block E_ij+E_ji and
         B_i_i with Q-block 2E_ii; C_i_j mirrored in the S-block.

The decomposition is linear over the ring, so each algebra gets one plan
(`_Plan`, cached per family, d and ring): with K fixed right members W_k,
the map (P_1..P_K) -> sum_k [P_k, W_k] is an integer matrix, and the plan
holds a right inverse of it found by elimination mod p (the algebra is
perfect, [L, L] = L, once p is not tiny), with the basis matrices, the map
from (g - I) / pi^n to coordinates and the lifts of the W_k.  Both
`bracket_decompose` and the oracle run from it, over Z/p^N on integer
arrays (int64 inside d^2 (p^N - 1)^2 < 2^63, Python ints past it), over
F_q[[t]] on the base-p digits of the coefficients.  Every decomposition is
re-verified exactly, sum_k [P_k, W_k] = X as one stacked matrix product,
before being returned; a failure is a bug, not a data error.  Lifts and
brackets run on `matgroups.MatrixOps` stacks: `_lift_stack` turns a stack
of coordinate vectors, each at its own level, into one stack of group
elements.
"""

from __future__ import annotations

import functools

import numpy as np

from . import matgroups
from .errors import (
    AlgebraMismatch,
    BadLevelPair,
    InvariantViolated,
    NotDeepEnough,
    PrecisionExceedsTruncation,
    TruncationTooShallow,
    UnsupportedCharacteristic,
    UsageError,
)
from .rings import Ring

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
            pay = ring.from_int(value) if isinstance(value, int) else value
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
        return LieVector(
            self.algebra, {k: ring.mul(c, v) for k, v in self.coords.items()}
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
    """[X, Y] = XY - YX, both products one `MatrixOps.product` of the stack
    (X, Y) by (Y, X), re-extracted."""
    X._chk(Y)
    ops = _ops(X.algebra)
    desc = ops.descriptor
    A = matgroups._payload_stack(desc, [X.to_matrix(), Y.to_matrix()])
    XY, YX = ops.product(A, A[::-1])
    return from_matrix(X.algebra,
                       matgroups._payload_matrix(desc, (XY - YX) % ops.mod))


# ---------------------------------------------------------------------------
# bracket_decompose


def bracket_decompose(X):
    """Write X as a sum of at most 2 (sl, so_3) or 3 (so_d for d >= 4, sp)
    brackets.

    Returns [(P_k, W_k), ...] with sum_k [P_k, W_k] == X exactly; the right
    members W_k are fixed per algebra (independent of X).  The pairs come
    from the algebra's plan (`_plan`): P_k = c D_k for the coordinates c of
    X, pairs with P_k = 0 dropped, in slot order, and the sum of brackets
    is checked against X as one stacked matrix product before returning.
    """
    alg = X.algebra
    plan = _plan(alg.family, alg.d, alg.ring)
    P = plan.solve(plan.planes(X))
    return [(plan.vector(Pk), W) for Pk, W in zip(P, plan.W) if Pk.any()]


# ---------------------------------------------------------------------------
# the per-algebra plan


def _right_members(family, d, half):
    """The fixed right members W_k of a plan, as (K, d, d) integer
    matrices, `half` standing for 1/2 (1-indexed names as in the basis):

    - sl_2: half D_1_2 and E_2_1; sl_d, d >= 3: F = sum_i E_i+1_i and F^T;
    - so_d: sum_i X_i_i+1 (d >= 4 only), then X_1_d-1 + X_1_d + X_2_d and
      X_1_2 (X_i_i = 0, so so_2 gets X_1_2 twice);
    - sp_2g: diag(G, -G^T) for G = E_11 + sum_i (E_i_i+1 - E_i+1_i), then
      [[0, 2I], [2I, 0]] and diag(I, -I)."""
    eye, F = np.eye(d, dtype=object), np.eye(d, k=-1, dtype=object)
    if family == "sl":
        if d == 2:
            return np.array([[[half, 0], [0, -half]], [[0, 0], [1, 0]]],
                            dtype=object)
        return np.stack([F, F.T])
    if family == "so":
        def X(i, j):  # E_ij - E_ji
            E = np.outer(eye[i - 1], eye[j - 1])
            return E - E.T
        first = [F.T - F] if d >= 4 else []
        return np.stack(first + [X(1, d - 1) + X(1, d) + X(2, d), X(1, 2)])
    g = d // 2
    I, Z = eye[:g, :g], 0 * eye[:g, :g]
    G = F[:g, :g].T - F[:g, :g]
    G[0, 0] = 1
    return np.stack([np.block([[G, Z], [Z, -G.T]]),
                     np.block([[Z, 2 * I], [2 * I, Z]]),
                     np.block([[I, Z], [Z, -I]])])


def _right_inverse(A, order, p, mod):
    """A right inverse of the (n, m) integer matrix A mod `mod` = p^e,
    supported on n of its columns: Gauss-Jordan over the columns in
    `order`, each kept when it is independent mod p of the columns kept
    before.  Returns (m, n) R with A @ R = I mod `mod`; raises
    UnsupportedCharacteristic when A has no unit n x n minor."""
    n, m = A.shape
    dtype = object if (mod - 1) ** 2 >= 2**63 else np.int64
    T = np.concatenate([A, np.eye(n, dtype=np.int64)], axis=1).astype(dtype)
    free, kept = list(range(n)), []
    for c in order:
        r = next((r for r in free if T[r, c] % p), None)
        if r is None:
            continue
        T[r] = T[r] * pow(int(T[r, c]), -1, mod) % mod
        f = T[:, c].copy()
        f[r] = 0
        T = (T - f[:, None] * T[r]) % mod
        free.remove(r)
        kept.append((c, r))
        if not free:
            break
    if free:
        raise UnsupportedCharacteristic(f"the bracket map has no unit minor: "
                                        f"rank {len(kept)} < {n} mod {p}")
    R = np.zeros((m, n), dtype=dtype)
    for c, r in kept:  # T = T[:, m:] @ [A | I], and T[:, c] is the unit e_r
        R[c] = T[r, m:]
    return R


class _Plan:
    """One algebra's bracket decomposition as linear maps over its ring.
    With K fixed right members W_k (`_right_members`), the map (P_1..P_K)
    -> sum_k [P_k, W_k] is a dim x K dim integer matrix; `D` is its right
    inverse (`_right_inverse`) on the columns (k, j) met first in the scan
    j = dim - 1..0, and within each j, k = K - 1..0.  That order keeps the
    sl_2 and so_3 maps recorded in tests/test_liealg.py, on which the SL2
    and SO3 oracle pairs and compiled words depend.

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
        ring, d, dim = alg.ring, alg.d, alg.dim
        self.alg = alg
        self.names = alg.basis_names()
        if ring.kind == "Zp":
            self.mod = ring.modulus
            wide = d * d * (self.mod - 1) ** 2 >= 2**63
            self.dtype = object if wide else np.int64
            self._ctx = None
        else:
            self.mod, self.dtype, self._ctx = ring.p, np.int64, ring.ctx
        mod = self.mod
        self.basis = np.zeros((dim, d * d), dtype=self.dtype)
        for j, (_, entries) in enumerate(alg._basis):
            for a, b, coeff in entries:
                self.basis[j, a * d + b] = coeff % mod
        # over F_q[[t]] every coefficient lies in F_p: lin is that of Z/p
        zp = ring if ring.kind == "Zp" else Ring("Zp", ring.p, ring.p, 1)
        zalg = LieAlgebra(alg.family, d, zp)
        projections = [_project(zalg, _unit_matrix(zp, d, a, b)).coords
                       for a in range(d) for b in range(d)]
        self.lin = np.array([[x.get(name, 0) for name in self.names]
                             for x in projections], dtype=self.dtype)
        # (mod + 1) // 2 is 1/2 for odd p; at p = 2, [sl_2, sl_2] is one
        # line mod 2 whatever the W_k are, and the elimination raises
        W = _right_members(alg.family, d, (mod + 1) // 2) % mod
        self.Wm = W.astype(self.dtype)
        K = len(self.Wm)
        B = self.basis.reshape(dim, d, d)
        brackets = (B @ self.Wm[:, None] - self.Wm[:, None] @ B) % mod
        A = brackets.reshape(K * dim, d * d) @ self.lin % mod  # row k dim + j
        order = [k * dim + j for j in range(dim - 1, -1, -1)
                 for k in range(K - 1, -1, -1)]
        R = _right_inverse(A.T, order, ring.p, mod)
        self.D = R.reshape(K, dim, dim).transpose(0, 2, 1).astype(self.dtype)
        z = 1 if self._ctx is None else ring.N * self._ctx.k
        w = np.zeros((K, z, dim), dtype=self.dtype)
        w[:, 0] = self.Wm.reshape(K, d * d) @ self.lin % mod
        self._wplanes = w  # a constant's code in F_p is its digit 0
        self.W = [self.vector(c) for c in w]
        self._wlifts = {}

    def planes(self, X):
        """The (z, dim) planes of the coordinates of the LieVector X."""
        payloads = [X.coords.get(name, X.algebra.ring.zero)
                    for name in self.names]
        if self._ctx is None:
            return np.array([payloads], dtype=self.dtype)
        return self._ctx.digits(payloads).reshape(len(payloads), -1).T

    def vector(self, c):
        """The LieVector of the (z, dim) coordinate planes c."""
        if self._ctx is None:
            payloads = c[0].tolist()
        else:
            digits = c.T.reshape(len(self.names), -1, self._ctx.k)
            payloads = [tuple(row) for row in self._ctx.codes(digits).tolist()]
        return LieVector(self.alg, dict(zip(self.names, payloads)))

    def coordinates(self, X, n):
        """The planes (z, dim) of the coordinates of `linearize`: the
        projection of (g - I) / pi^n into the algebra, for g the stack of
        one X in `matgroups.MatrixOps`' layout, whose planes over F_q[[t]]
        are already digits."""
        ring, d = self.alg.ring, self.alg.d
        if self._ctx is None:
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

    def coord_stack(self, P, ops):
        """The (K, z, dim) planes P as `_lift_stack`'s coordinate stack for
        the group facade `ops`: (K, dim) residues in its dtype, or
        (K, dim, k, N) planes, the rows t * k + r of `planes` regrouped."""
        if self._ctx is None:
            return P[:, 0].astype(ops.eye.dtype, copy=False)
        K, dim = len(P), len(self.names)
        return P.reshape(K, self.alg.ring.N, -1, dim).transpose(0, 3, 2, 1)

    def lift_w(self, k, m, desc):
        """The lift of W_k at level m in the group `desc`; all K of level m
        are lifted in one call, once."""
        if m not in self._wlifts:
            ops = matgroups.ops_for(desc)
            C = self.coord_stack(self._wplanes, ops)
            self._wlifts[m] = ops.unstack(_lift_stack(ops, C, m))
        return self._wlifts[m][k]


def _unit_matrix(ring, d, a, b):
    return tuple(tuple(ring.one if (i, j) == (a, b) else ring.zero
                       for j in range(d)) for i in range(d))


def _plan(family, d, ring):
    """The cached `_Plan` of the algebra (family, d, ring); the first call
    raises UnsupportedCharacteristic when the algebra's bracket map has no
    unit minor (so_2, and sl_2 at p = 2)."""
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


@functools.cache
def _lift_program(family, d):
    """The factor I + delta each basis coordinate x lifts to, for xs =
    pi^l x, in basis order, which is the order the factors multiply in,
    and the moves of the sl diagonal coordinates onto the off-diagonal
    ones.

    - `lin` (dim, d, d): the part xs * lin[j] of factor j's delta.  That is
      all of it for the sl and sp coordinates (det 1, or symplectic,
      exactly), the off-diagonal +-xs of the so rotations, and the entry
      1 + xs of the sp units diag(1 + xs, (1 + xs)^-1) (A_i_i);
    - `rot` (j, a, b): the diagonal entries sqrt(1 - xs^2) at (a, a) and
      (b, b) of factor j's rotation (so);
    - `unit` (j, b): the entry (1 + xs)^-1 at (b, b) of factor j (sp);
    - `moves` (dst, src, sign): coordinate dst gains sign * coordinate src.

    An sl D_j coordinate c lifts to the det-1 block [[1 + cs, cs], [-cs,
    1 - cs]], whose off-diagonal entries the moves (E_j_j+1 -= c, E_j+1_j
    += c) take back out of the E factors."""
    basis = _make_basis(family, d)
    index = {name: k for k, (name, _) in enumerate(basis)}
    g = d // 2
    lin = np.zeros((len(basis), d, d), dtype=np.int64)
    rot, unit, moves = [], [], []
    for k, (name, entries) in enumerate(basis):
        kind, i, j = name.split("_")
        i, j = int(i), int(j)
        if kind == "D":
            entries += ((i - 1, j - 1, 1), (j - 1, i - 1, -1))
            moves += [(index[_name("E", i, j)], k, -1),
                      (index[_name("E", j, i)], k, 1)]
        elif kind == "X":
            rot.append((k, i - 1, j - 1))
        elif kind == "A" and i == j:
            entries = ((i - 1, i - 1, 1),)
            unit.append((k, g + i - 1))
        for a, b, c in entries:
            lin[k, a, b] = c
    return (lin, *(np.array(t, dtype=np.int64).reshape(-1, n).T
                   for t, n in ((rot, 3), (unit, 2), (moves, 3))))


def _ops(alg):
    """The `matgroups.MatrixOps` of the group whose algebra is `alg`."""
    family = {"sl": "SL", "so": "SO", "sp": "Sp"}[alg.family]
    return matgroups.ops_for(
        matgroups.GroupDescriptor(family, alg.d, alg.ring))


def _newton(ops, y, step, v):
    """Newton's iteration y <- step(y) from y, whose error has valuation
    v >= 1: each step at least doubles it, until it reaches N."""
    while v < ops.descriptor.ring.N:
        y, v = step(y), 2 * v
    return y


def _lift_stack(ops, C, levels):
    """The exact lifts, as a stack of the group facade `ops`, of the rows
    of the coordinate stack C, row b at level levels[b] >= 1 (one int for
    all rows): (B, dim) residues in the stacks' dtype over Z/p^N, (B, dim,
    k, N) planes over F_q[[t]].  A row lifts to the product, in basis
    order, of one factor I + delta per coordinate (`_lift_program`), each
    exactly in the group.  The factors are built as one (dim, B, d, d...)
    stack, the rotations' sqrt(1 - xs^2) and the units' (1 + xs)^-1 by
    Newton steps on the entry product alone (unique, so exact), and those
    of the coordinates nonzero in some row are multiplied pairwise
    (`tree_product`)."""
    desc, one = ops.descriptor, ops.eye[0, 0, 0]
    ring, mod, mul = desc.ring, ops.mod, ops.entry_product
    lin, rot, unit, (dst, src, sign) = _lift_program(desc.family.lower(),
                                                     desc.d)
    C = C.swapaxes(0, 1)  # (dim, B, ...), the factors' layout
    axes = (None,) * (C.ndim - 2)  # for the (k, N) axes of planes
    if len(dst):
        C = C.copy()
        C[dst] = (C[dst] + sign[(slice(None), None) + axes] * C[src]) % mod
    levels = np.array(levels).reshape((1, -1) + (1,) * len(axes))
    if ring.kind == "Zp":
        xs = C * np.power(np.array(ring.p, dtype=C.dtype), levels) % mod
    else:  # the codes of t^s move to t^(s + l)
        s = np.arange(ring.N) - levels
        xs = np.where(s >= 0, np.take_along_axis(C, np.maximum(s, 0), -1), 0)
    F = (ops.eye + lin[(slice(None), None, Ellipsis) + axes]
         * xs[:, :, None, None]) % mod
    low = levels.min(initial=ring.N)
    j, a, b = rot
    if len(j):  # y -> y (3 - t y^2) / 2 to t^(-1/2), t = 1 - xs^2, from
        # its first step; then sqrt(t) = t y
        x, half = xs[j], pow(2, -1, mod)
        t = (one - mul(x, x)) % mod
        th, c = t * half % mod, 3 * half % mod * one
        y = _newton(ops, (c - th) % mod, lambda y: mul(
            y, (c - mul(th, mul(y, y))) % mod), 4 * low)
        F[j, :, a, a] = F[j, :, b, b] = mul(t, y)
    j, b = unit
    if len(j):  # y -> y (2 - u y) to u^-1, u = 1 + xs, from its first
        # step
        u = (one + xs[j]) % mod
        F[j, :, b, b] = _newton(ops, (2 * one - u) % mod, lambda y: mul(
            y, (2 * one - mul(u, y)) % mod), 2 * low)
    live = (xs != 0).reshape(len(xs), -1).any(axis=1)
    if not live.any():
        return np.repeat(ops.eye, xs.shape[1], axis=0)
    return ops.tree_product(F[live])[0]


def _lift_any(X, l):
    """The exact lift of X at level l: `_lift_stack` on X's coordinates."""
    alg = X.algebra
    ops = _ops(alg)
    C = matgroups._entries(ops, [[X.coords.get(name, alg.ring.zero)
                                  for name in alg.basis_names()]])
    return ops.unstack(_lift_stack(ops, C, l))[0]


def linearize(g, n):
    """Recover X with g == I + pi^n X mod pi^(2n), projected exactly into
    the algebra.  Requires 2n <= N so the congruence is meaningful."""
    desc = g.descriptor
    ring = desc.ring
    if 2 * n > ring.N:
        raise TruncationTooShallow(
            f"linearize at depth {n} needs 2n <= N={ring.N}"
        )
    if n < 1:
        raise UsageError("linearize depth must be >= 1")
    depth = matgroups.ops_for(desc).depth(g)
    if depth < n:
        raise NotDeepEnough(f"element depth {depth} < {n}")
    if desc.family not in ("SL", "SO", "Sp"):
        raise UsageError(f"linearize does not apply to family {desc.family}")
    plan = _plan(desc.family.lower(), desc.d, ring)
    return plan.vector(plan.coordinates(g.stack, n))


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
        M = tuple(
            tuple(
                ring.mul(ring.sub(a, b), inv2) for a, b in zip(ra, rb)
            )
            for ra, rb in zip(M, zip(*M))
        )
    else:  # (Omega M^T Omega)_ij = +-M_j'i' for i' = i + g mod d, with
        # the minus sign when i and j lie in the same block
        g, inv2 = alg.g, ring.inv(ring.from_int(2))
        M = tuple(
            tuple(ring.mul(ring.add(M[i][j], (
                M[(j + g) % d][(i + g) % d] if (i < g) != (j < g)
                else ring.neg(M[(j + g) % d][(i + g) % d]))), inv2)
                for j in range(d))
            for i in range(d)
        )
    return from_matrix(alg, M)


def commutator_decompose(r, n, m):
    """Depth-graded oracle: express r in K_{n+m} as a product of at most
    A commutators [g_k, h_k], g_k in K_n, h_k in K_m, agreeing with r
    mod K_{2n+m}, clipped to K_N when 2n + m > N.

    Runs from the plan of r's algebra (`_plan`): the coordinates c of the
    projection X of (r - I) / pi^(n+m) into the algebra, the left members
    P_k = c D_k, checked exactly (sum_k [P_k, W_k] = X) and the nonzero
    ones lifted at level n in one call, and the plan's lift of W_k at level
    m, computed once per level."""
    desc = r.descriptor
    N = desc.ring.N
    if not (1 <= n <= m <= 2 * n):
        raise BadLevelPair(f"need 1 <= n <= m <= 2n, got ({n}, {m})")
    if desc.family == "SL" and desc.d == 2 and desc.ring.p == 2:
        raise UnsupportedCharacteristic("SL_2 oracle needs odd p")
    eff = min(n + m, N)
    ops = matgroups.ops_for(desc)
    depth = ops.depth(r)
    if depth < eff:
        raise NotDeepEnough(f"oracle input depth {depth} < n+m = {n + m}")
    if eff >= N:
        return []  # r is trivial at this truncation
    plan = _plan(desc.family.lower(), desc.d, desc.ring)
    P = plan.solve(plan.coordinates(r.stack, eff))
    live = [k for k, Pk in enumerate(P) if Pk.any()]
    lifts = ops.unstack(_lift_stack(ops, plan.coord_stack(P[live], ops), n))
    return [(g, plan.lift_w(k, m, desc)) for k, g in zip(live, lifts)]
