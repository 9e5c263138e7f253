"""Batched arithmetic for the matrix families over Z/p^N.

Everything here works on int64 arrays of shape (B, d, d) with entries
reduced mod p^N.  Used by the bulk verification suites (filtration laws
need ~10^4 commutators per family in seconds) and by the product tree of
`skcompiler.evaluate` — the scalar FilteredElement path stays the reference
implementation.

Products of two reduced entries fit int64 for every ring in scope
(5^9 squared times d is ~2e13); intermediate results are reduced after
every multiply, never chained.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from . import _matrix as mx
from .errors import InvariantViolated, UsageError


def batch_eye(d, B):
    return np.broadcast_to(np.eye(d, dtype=np.int64), (B, d, d)).copy()


def batch_mul(X, Y, mod):
    return np.matmul(X, Y) % mod


def batch_minval(D, p, N):
    """Min entry valuation of each matrix in D (N for the zero matrix)."""
    B = D.shape[0]
    x = (D % (p**N)).reshape(B, -1)
    val = np.full(x.shape, N, dtype=np.int64)
    rem = x.copy()
    cur = np.zeros(x.shape, dtype=np.int64)
    for _ in range(N):
        alive = rem != 0
        div = alive & (rem % p == 0)
        stop = alive & ~div
        val[stop] = cur[stop]
        rem[div] //= p
        rem[stop] = 0
        cur += 1
    return val.min(axis=1)


def batch_depth(M, p, N):
    d = M.shape[-1]
    return batch_minval((M - np.eye(d, dtype=np.int64)) % (p**N), p, N)


def batch_inv(M, p, N):
    """Inverse of M = I + E with E = 0 mod p, by the finite Neumann series."""
    mod = p**N
    d = M.shape[-1]
    I = np.eye(d, dtype=np.int64)
    E = (M - I) % mod
    X = (-E) % mod
    inv = batch_eye(d, M.shape[0])
    for _ in range(N - 1):
        inv = (I + np.einsum("bij,bjk->bik", X, inv)) % mod
    if (batch_mul(M, inv, mod) - I).any():
        raise InvariantViolated("Neumann inverse failed: M is not I mod p")
    return inv


def batch_commutator(g, h, p, N):
    """[g, h] = (hg)^-1 (gh) for g, h = I mod p."""
    mod = p**N
    gh = batch_mul(g, h, mod)
    hg = batch_mul(h, g, mod)
    return batch_mul(batch_inv(hg, p, N), gh, mod)


def batch_det(M, mod):
    d = M.shape[-1]
    if d > 5:
        raise UsageError("batched determinant implemented for d <= 5")
    out = np.zeros(M.shape[0], dtype=np.int64)
    for perm in permutations(range(d)):
        sign = 1
        for i in range(d):
            for j in range(i + 1, d):
                if perm[i] > perm[j]:
                    sign = -sign
        term = M[:, 0, perm[0]].copy()
        for i in range(1, d):
            term = (term * M[:, i, perm[i]]) % mod
        out = (out + sign * term) % mod
    return out


def batch_member(desc, M):
    """Boolean mask: which rows satisfy the family's defining relations."""
    ring = desc.ring
    if ring.kind != "Zp":
        raise UsageError("batched path is Z/p^N only")
    mod = ring.p**ring.N
    d = desc.d
    I = np.eye(d, dtype=np.int64)
    if desc.family == "SL":
        return batch_det(M, mod) == 1
    if desc.family == "SO":
        MtM = np.einsum("bji,bjk->bik", M, M) % mod
        return (~(MtM - I).any(axis=(1, 2))) & (batch_det(M, mod) == 1)
    if desc.family == "Sp":
        Om = np.array(mx.omega(ring, d), dtype=np.int64)
        OmM = np.einsum("jk,bkl->bjl", Om, M) % mod  # reduce: 3 chained factors overflow
        MtOM = np.einsum("bji,bjl->bil", M, OmM) % mod
        return ~((MtOM - Om) % mod).any(axis=(1, 2))
    raise UsageError(f"no batched membership for {desc.family}")


# ---------------------------------------------------------------------------
# exact-uniform sampling from K_n


def _newton_beta(alpha, p, N):
    """sqrt(1 - alpha^2) for alpha = 0 mod p, exact mod p^N (unit branch)."""
    mod = p**N
    a = (1 - alpha * alpha) % mod
    u = np.ones_like(alpha)
    for _ in range(max(4, N.bit_length() + 2)):
        u2 = (u * u) % mod
        u = (u * ((3 - a * u2) % mod)) % mod
        u = (u * pow(2, -1, mod)) % mod
    beta = (a * u) % mod
    if ((beta * beta - a) % mod).any():
        raise InvariantViolated("inverse-sqrt did not converge")
    return beta


def _scalar_inv(u, p, N):
    """Inverse of 1-units, batched (Newton on y -> y(2 - uy))."""
    mod = p**N
    y = np.ones_like(u)
    for _ in range(max(4, N.bit_length() + 2)):
        y = (y * ((2 - u * y) % mod)) % mod
    if ((u * y - 1) % mod).any():
        raise InvariantViolated("Newton inverse failed: not a 1-unit")
    return y


def _layer_factor(desc, name, sparse, c, l):
    """Exact group element congruent to I + c p^l (basis matrix) mod p^(l+1)."""
    ring = desc.ring
    p, N = ring.p, ring.N
    mod = p**N
    d = desc.d
    B = c.shape[0]
    x = (c * p**l) % mod
    F = batch_eye(d, B)
    kind = name.split("_")[0]
    if kind == "D":  # sl diagonal direction, det-1 block
        j = int(name.split("_")[1]) - 1
        F[:, j, j] = (1 + x) % mod
        F[:, j + 1, j + 1] = (1 - x) % mod
        F[:, j, j + 1] = x
        F[:, j + 1, j] = (-x) % mod
    elif kind == "E":  # sl off-diagonal transvection
        _, a, b = name.split("_")
        F[:, int(a) - 1, int(b) - 1] = x
    elif kind == "X":  # so plane rotation
        _, a, b = name.split("_")
        a, b = int(a) - 1, int(b) - 1
        beta = _newton_beta(x, p, N)
        F[:, a, a] = beta
        F[:, b, b] = beta
        F[:, a, b] = x
        F[:, b, a] = (-x) % mod
    elif kind == "A" and name.split("_")[1] == name.split("_")[2]:
        i = int(name.split("_")[1]) - 1
        g = d // 2
        u = (1 + x) % mod
        F[:, i, i] = u
        F[:, g + i, g + i] = _scalar_inv(u, p, N)
    else:  # remaining sp directions: I + x * basis is exactly symplectic
        for (a, b, coeff) in sparse:
            F[:, a, b] = (F[:, a, b] + coeff * x) % mod
    return F


def batch_sample_kernel(desc, n, B, rng):
    """B exact-uniform samples from K_n, as a (B, d, d) int64 array."""
    ring = desc.ring
    if ring.kind != "Zp":
        raise UsageError("batched path is Z/p^N only")
    if not 1 <= n <= ring.N:
        raise UsageError(f"need 1 <= n <= {ring.N}")
    from . import liealg

    p, N = ring.p, ring.N
    mod = p**N
    fam = {"SL": "sl", "SO": "so", "Sp": "sp"}[desc.family]
    alg = liealg.LieAlgebra(fam, desc.d, ring)
    mat = batch_eye(desc.d, B)
    for l in range(n, N):
        for name, sparse in alg._basis:
            c = rng.integers(0, p, B, dtype=np.int64)
            F = _layer_factor(desc, name, sparse, c, l)
            mat = batch_mul(mat, F, mod)
    return mat
