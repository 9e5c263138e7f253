"""Internal payload-level matrix helpers over a truncated local ring, for
the Lie-algebra reference code (`liealg`).

Matrices are tuples of tuples of ring payloads (see rings.Ring).  Group
arithmetic, membership and section lifts run on arrays
(`matgroups.MatrixOps`).
"""

from __future__ import annotations


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

