"""Internal payload-level matrix helpers over a truncated local ring.

Matrices are tuples of tuples of ring payloads (see rings.Ring).  Pure
Python is fine here: dimensions stay <= 8 and the hot batched paths live
in their own kernels.
"""

from __future__ import annotations

import itertools
import math

from .errors import NotAUnit

_PERM_CACHE: dict[int, list] = {}


def eye(ring, d):
    one, zero = ring.one, ring.zero
    return tuple(
        tuple(one if i == j else zero for j in range(d)) for i in range(d)
    )


def omega(ring, d):
    """The standard symplectic form [[0, I], [-I, 0]]."""
    g = d // 2
    zero, one = ring.zero, ring.one
    out = [[zero] * d for _ in range(d)]
    for i in range(g):
        out[i][g + i] = one
        out[g + i][i] = ring.neg(one)
    return tuple(tuple(r) for r in out)


def add(ring, A, B):
    return tuple(
        tuple(ring.add(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(A, B)
    )


def sub(ring, A, B):
    return tuple(
        tuple(ring.sub(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(A, B)
    )


def mul(ring, A, B):
    d = len(A)
    m = len(B[0])
    inner = len(B)
    Bcols = list(zip(*B))
    out = []
    radd, rmul = ring.add, ring.mul
    for i in range(d):
        Ai = A[i]
        row = []
        for j in range(m):
            Bj = Bcols[j]
            acc = rmul(Ai[0], Bj[0])
            for k in range(1, inner):
                acc = radd(acc, rmul(Ai[k], Bj[k]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def transpose(A):
    return tuple(zip(*A))


def unshift(ring, A, k):
    return tuple(tuple(ring.unshift(a, k) for a in row) for row in A)


def reduce_level(ring, A, m):
    return tuple(tuple(ring.reduce_level(a, m) for a in row) for row in A)


def depth(ring, A):
    """min valuation of A - I, capped at N; N means trivial at this truncation.

    Over Z/p^N one gcd: p^depth = gcd(p^N, entries of A - I)."""
    d = len(A)
    if ring.kind == "Zp":
        flat = [a for row in A for a in row]
        for k in range(0, d * d, d + 1):  # the diagonal of A - I
            flat[k] -= 1
        g = math.gcd(ring.modulus, *flat)
        v = 0
        while g > 1:
            g //= ring.p
            v += 1
        return v
    one = ring.one
    best = ring.N
    for i in range(d):
        for j, a in enumerate(A[i]):
            v = ring.val(ring.sub(a, one) if i == j else a)
            if v < best:
                best = v
                if best == 0:
                    return 0
    return best


def det(ring, A):
    d = len(A)
    if d not in _PERM_CACHE:
        perms = []
        for perm in itertools.permutations(range(d)):
            inversions = sum(
                1
                for a in range(d)
                for b in range(a + 1, d)
                if perm[a] > perm[b]
            )
            perms.append((perm, inversions % 2))
        _PERM_CACHE[d] = perms
    acc = ring.zero
    for perm, parity in _PERM_CACHE[d]:
        term = A[0][perm[0]]
        for i in range(1, d):
            term = ring.mul(term, A[i][perm[i]])
        acc = ring.sub(acc, term) if parity else ring.add(acc, term)
    return acc


def inv(ring, A):
    """Gauss-Jordan over the local ring; needs a unit pivot in every column."""
    d = len(A)
    M = [list(row) for row in A]
    I = [list(row) for row in eye(ring, d)]
    for col in range(d):
        piv = None
        for r in range(col, d):
            if ring.is_unit(M[r][col]):
                piv = r
                break
        if piv is None:
            raise NotAUnit("matrix is not invertible over this local ring")
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            I[col], I[piv] = I[piv], I[col]
        c = ring.inv(M[col][col])
        M[col] = [ring.mul(c, x) for x in M[col]]
        I[col] = [ring.mul(c, x) for x in I[col]]
        for r in range(d):
            if r != col:
                f = M[r][col]
                if f != ring.zero:
                    M[r] = [
                        ring.sub(x, ring.mul(f, y))
                        for x, y in zip(M[r], M[col])
                    ]
                    I[r] = [
                        ring.sub(x, ring.mul(f, y))
                        for x, y in zip(I[r], I[col])
                    ]
    return tuple(tuple(row) for row in I)


def key(ring, A, level=None):
    """Hashable canonical form, optionally reduced mod uniformizer^level."""
    if level is not None and level < ring.N:
        A = reduce_level(ring, A, level)
    return A
