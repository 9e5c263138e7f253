"""One breadth-first enumeration engine for the finite quotients.

Every enumerated object in prosk comes out of `bfs`: the compiler's base
tables (`build_table`) and the Cayley graphs of `spectral`.  The loop runs
level by level from the identity.  A level's candidates are the products of
every frontier state with every direction, laid out frontier-major; for
each key the first candidate in that order wins, and new states enter in
discovery order.  Tables multiply on the right (state * direction), graphs
on the left (direction * state).  `left_perms` tabulates left translations
over any enumerated batch: graph permutations, the inverse-pair class
permutations of the exhaustive sweeps, and whole multiplication tables of
small quotients.

The arithmetic comes from a backend chosen from the group, never from its
size:

  ZpBackend      Z/p^N matrices as (B, d, d) int64 arrays, keys packed
                 base p^N into one int64, so (p^N)^(d^2) < 2^63;
  NottBackend    Nottingham quotients as coefficient planes (B, k, L), keys
                 packed base p from the planes of t^2..t^N;
  ScalarBackend  the ops facade (F_q[[t]] matrices, wider Z/p^N,
                 CyclicOps): one ops.mul per product, keys interned to int64.

Word ops are packed ints: (generator_index << 1) | (0 for +1, 1 for -1), so
with directions laid out g_0, g_0^-1, g_1, g_1^-1, ... a direction's index
is its op code.
"""

from __future__ import annotations

import os
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceeded, InvariantViolated, NotGenerating
from .matgroups import FilteredElement, ops_for

_BYTES_PER_STATE = 72  # key + parent + op + dist + element slack
_BYTES_PER_EDGE = 4  # one int32 permutation entry per direction
_BYTES_PER_FLOAT = 8  # one float64 entry per state, per vector over them
_CHUNK = 1 << 16  # BFS candidates (products) held at once
ELEMENT_WORDS = 32  # an enumerated Python element, 170-500 B measured


def budget_mb():
    """The PROSK_BUDGET_MB cap on enumeration memory (default 1024)."""
    return int(os.environ.get("PROSK_BUDGET_MB", "1024"))


def _bytes_per_state(dirs, vectors=0):
    return (_BYTES_PER_STATE + _BYTES_PER_EDGE * dirs
            + _BYTES_PER_FLOAT * vectors)


def check_budget(states, dirs, vectors=0):
    """BudgetExceeded unless `states` states with `dirs` directions, and
    `vectors` float64 vectors over them, fit."""
    need = states * _bytes_per_state(dirs, vectors)
    mb = budget_mb()
    if need > mb * 2**20:
        raise BudgetExceeded(
            f"enumerating {states} elements x {dirs} directions"
            f"{f' + {vectors} vectors' if vectors else ''} needs "
            f"~{need >> 20} MB > PROSK_BUDGET_MB={mb}"
        )


def vectors_that_fit(states, dirs):
    """The most float64 vectors over `states` states that `check_budget`
    accepts beside their enumeration with `dirs` directions."""
    spare = budget_mb() * 2**20 - states * _bytes_per_state(dirs)
    return max(spare, 0) // (_BYTES_PER_FLOAT * states)


# ---------------------------------------------------------------------------
# backends: embed elements as a batch, outer products, int64 keys


class ZpBackend:
    def __init__(self, desc):
        self.desc = desc
        self.d = desc.d
        self.mod = desc.ring.p**desc.ring.N
        self._weights = self.mod ** np.arange(self.d * self.d, dtype=np.int64)

    def embed(self, elems):
        mats = np.array([x.mat for x in elems], dtype=np.int64)
        return mats.reshape(len(elems), self.d, self.d)

    def identity(self):
        return np.eye(self.d, dtype=np.int64)[None]

    def outer(self, A, B, left=False):
        """Entry i * len(B) + j is A[i] * B[j], or B[j] * A[i] if left."""
        X, Y = (B[None], A[:, None]) if left else (A[:, None], B[None])
        return (np.matmul(X, Y) % self.mod).reshape(-1, self.d, self.d)

    def keys(self, X):
        return X.reshape(len(X), -1) @ self._weights

    def element(self, X, i):
        return FilteredElement(self.desc, tuple(tuple(int(v) for v in row)
                                                for row in X[i]))


class NottBackend:
    def __init__(self, desc):
        from .nottingham import series_context  # only Nottingham runs need it

        self.desc = desc
        self.ctx = series_context(desc.ring.field.q, desc.ring.N + 1)
        digits = self.ctx.k * (desc.ring.N - 1)
        self._weights = self.ctx.p ** np.arange(digits, dtype=np.int64)

    def embed(self, elems):
        codes = np.array([x.to_codes() for x in elems], dtype=np.int64)
        return self.ctx.planes_from_codes(codes.reshape(-1, self.ctx.L))

    def identity(self):
        return self.ctx.t((1,))

    def outer(self, A, B, left=False):
        """As ZpBackend.outer; the product a * b is the series b(a(t))."""
        X, Y = (B[None], A[:, None]) if left else (A[:, None], B[None])
        return self.ctx.compose(Y, X).reshape(-1, self.ctx.k, self.ctx.L)

    def keys(self, P):
        return P[:, :, 2:].reshape(len(P), -1) @ self._weights

    def element(self, P, i):
        from .nottingham import _from_planes

        return _from_planes(self.desc, P[i])


class ScalarBackend:
    def __init__(self, ops):
        self.ops = ops
        self._ids = {}  # ops.key -> int64 key, in order of first sight

    def embed(self, elems):
        out = np.empty(len(elems), dtype=object)
        for i, x in enumerate(elems):
            out[i] = x
        return out

    def identity(self):
        return self.embed([self.ops.identity()])

    def outer(self, A, B, left=False):
        mul = self.ops.mul
        return self.embed([mul(b, a) if left else mul(a, b)
                           for a in A for b in B])

    def keys(self, X):
        ids, key = self._ids, self.ops.key
        return np.fromiter((ids.setdefault(key(x), len(ids)) for x in X),
                           dtype=np.int64, count=len(X))

    def element(self, X, i):
        return X[i]


def backend_for(ops):
    desc = getattr(ops, "descriptor", None)
    if desc is None:
        return ScalarBackend(ops)
    if desc.family == "Nottingham":
        return NottBackend(desc)
    ring = desc.ring
    if ring.kind == "Zp" and (ring.p**ring.N) ** (desc.d * desc.d) < 2**63:
        return ZpBackend(desc)
    return ScalarBackend(ops)


# ---------------------------------------------------------------------------
# the engine


class Enumeration(NamedTuple):
    """States in discovery order (a backend batch) with their keys, BFS-tree
    parents (-1 at the identity), the index of the direction that reached
    each state, and distances from the identity."""

    states: object
    keys: np.ndarray
    parent: np.ndarray
    op: np.ndarray
    dist: np.ndarray


def bfs(backend, dirs, expected, *, left):
    """Enumerate the subgroup that the batch `dirs` generates, which must
    have `expected` elements (NotGenerating otherwise).  A level expands
    _CHUNK candidates at a time, so its transient arrays stay bounded."""
    check_budget(expected, len(dirs))
    k = len(dirs)
    step = max(1, _CHUNK // max(k, 1))  # frontier states per expansion
    frontier = backend.identity()
    seen = backend.keys(frontier)  # every key so far, sorted
    states, keys = [frontier], [seen]
    parent = [np.full(1, -1, dtype=np.int64)]
    op = [np.zeros(1, dtype=np.int32)]
    dist = [np.zeros(1, dtype=np.int32)]
    start, count = 0, 1  # index of the frontier's first state; states so far
    while k and count <= expected:
        found = []
        for lo in range(0, len(frontier), step):
            cand = backend.outer(frontier[lo : lo + step], dirs, left=left)
            ckeys = backend.keys(cand)
            uniq, first = np.unique(ckeys, return_index=True)
            pos = np.searchsorted(seen, uniq)
            fresh = seen[np.minimum(pos, len(seen) - 1)] != uniq
            seen = np.insert(seen, pos[fresh], uniq[fresh])
            new = np.sort(first[fresh])
            found.append((cand[new], ckeys[new], start + lo + new // k,
                          (new % k).astype(np.int32)))
        frontier, fkeys, fparent, fop = map(np.concatenate, zip(*found))
        if not len(frontier):
            break
        states.append(frontier)
        keys.append(fkeys)
        parent.append(fparent)
        op.append(fop)
        dist.append(np.full(len(frontier), len(dist), dtype=np.int32))
        start, count = count, count + len(frontier)
    if count != expected:
        raise NotGenerating(
            f"directions span {count if count < expected else 'more'} "
            f"of {expected} elements"
        )
    return Enumeration(*map(np.concatenate, (states, keys, parent, op, dist)))


class KeyIndex:
    """Positions of keys in a fixed key array (-1 where absent)."""

    def __init__(self, keys):
        self._sorter = np.argsort(keys, kind="stable")
        self._sorted = keys[self._sorter]

    def find(self, keys):
        pos = np.searchsorted(self._sorted, keys)
        pos = np.minimum(pos, len(self._sorted) - 1)
        return np.where(self._sorted[pos] == keys, self._sorter[pos], -1)


def positions(backend, elements, items):
    """Index in the batch `elements` of each element of the batch `items`."""
    idx = KeyIndex(backend.keys(elements)).find(backend.keys(items))
    if (idx < 0).any():
        raise InvariantViolated("element missing from the enumeration")
    return idx


def left_perms(backend, elements, dirs):
    """perms[a, j] = index in `elements` of dirs[a] * elements[j] (both
    backend batches; `elements` must be closed under the translations)."""
    check_budget(len(elements), len(dirs))
    find = KeyIndex(backend.keys(elements)).find
    perms = np.empty((len(dirs), len(elements)), dtype=np.int32)
    for a in range(len(dirs)):
        perms[a] = find(backend.keys(backend.outer(dirs[a : a + 1], elements)))
    if (perms < 0).any():
        raise InvariantViolated("left-translate left the group")
    return perms


# ---------------------------------------------------------------------------
# shortest-word tables


class ShortestWordTable:
    """Every coset of G/K_level mapped to a shortest word over the directions
    {g_i, g_i^-1}: the BFS tree of one right-multiplication `bfs` of the
    quotient.  Immutable after construction."""

    def __init__(self, level, backend, run, project):
        self.level = level
        self._backend = backend
        self._project = project
        self._index = KeyIndex(run.keys)
        self._parent = run.parent
        self._op = run.op
        self.count = len(run.keys)
        self.l0 = int(run.dist.max())

    def word_for(self, g):
        """Packed ops (np.int32) of the stored shortest word for g's coset."""
        key = self._backend.keys(self._backend.embed([self._project(g)]))
        i = int(self._index.find(key)[0])
        if i < 0:
            raise NotGenerating(f"coset key {int(key[0])} missing from table")
        ops = []
        while self._parent[i] >= 0:
            ops.append(self._op[i])
            i = self._parent[i]
        ops.reverse()
        return np.array(ops, dtype=np.int32)


def build_table(ops, gens, level):
    """BFS the quotient at `level` from the identity over gens and their
    inverses; NotGenerating if the walk closes early."""
    qops = ops_for(ops.descriptor.truncated(level))
    dirs = []
    for g in gens:
        gq = ops.project(g, level)
        dirs += [gq, qops.inv(gq)]
    backend = backend_for(qops)
    run = bfs(backend, backend.embed(dirs), ops.quotient_order(level),
              left=False)
    return ShortestWordTable(level, backend, run,
                             lambda g: ops.project(g, level))
