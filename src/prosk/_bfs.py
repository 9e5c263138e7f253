"""Shortest-word labeling of congruence quotients by breadth-first search.

Two engines behind one table type: a generic scalar walk over any group-ops
facade (fine up to ~10^5 cosets), and a batched planes engine for Nottingham
quotients where the base table has q^(level-1) cosets (5^8 = 390625 for the
triadic default) and per-state composition in Python would dominate.

Word ops are packed ints: (generator_index << 1) | (0 for +1, 1 for -1).
"""

from __future__ import annotations

import os

import numpy as np

from .errors import BudgetExceeded, NotGenerating

_BYTES_PER_STATE = 48  # key + parent + op + dist + slack


def _budget_mb():
    return int(os.environ.get("PROSK_BUDGET_MB", "1024"))


def pack_op(idx, sign):
    return (idx << 1) | (0 if sign > 0 else 1)


class ShortestWordTable:
    """Every coset of G/K_level mapped to a shortest word over the directions
    {g_i, g_i^-1}.  Immutable after construction."""

    def __init__(self, level, index, parent, op, dist, key_fn):
        self.level = level
        self._index = index  # key -> state number
        self._parent = parent
        self._op = op
        self._dist = dist
        self._key_fn = key_fn
        self.count = len(index)
        self.l0 = int(dist.max()) if len(dist) else 0

    def word_for(self, g):
        """Packed ops (np.int32) of the stored shortest word for g's coset."""
        key = self._key_fn(g)
        i = self._index.get(key)
        if i is None:
            raise NotGenerating(f"coset key {key!r} missing from table")
        ops = []
        while self._parent[i] >= 0:
            ops.append(self._op[i])
            i = self._parent[i]
        ops.reverse()
        return np.array(ops, dtype=np.int32)

    def distance_histogram(self):
        return np.bincount(self._dist, minlength=self.l0 + 1)


def _check_budget(expected):
    mb = _budget_mb()
    need = expected * _BYTES_PER_STATE / 2**20
    if need > mb:
        raise BudgetExceeded(
            f"table of {expected} cosets needs ~{need:.0f} MB > PROSK_BUDGET_MB={mb}"
        )


def build_table(ops, gens, level):
    """BFS the quotient at `level` from the identity over gens and their
    inverses; NotGenerating if the walk closes early."""
    expected = ops.quotient_order(level)
    _check_budget(expected)
    if ops.descriptor.family == "Nottingham" and expected > 20000:
        return _nottingham_table(ops, gens, level)
    return _scalar_table(ops, gens, level, expected)


def _scalar_table(ops, gens, level, expected):
    qdesc = ops.descriptor.truncated(level)
    from .matgroups import ops_for

    qops = ops_for(qdesc)
    dirs = []
    for i, g in enumerate(gens):
        gq = ops.project(g, level)
        dirs.append((pack_op(i, +1), gq))
        dirs.append((pack_op(i, -1), qops.inv(gq)))

    start = qops.identity()
    key0 = qops.key(start)
    index = {key0: 0}
    parent = [-1]
    opcode = [0]
    dist = [0]
    frontier = [(0, start)]
    while frontier:
        nxt = []
        for si, g in frontier:
            for code, dg in dirs:
                h = qops.mul(g, dg)
                k = qops.key(h)
                if k in index:
                    continue
                index[k] = len(parent)
                parent.append(si)
                opcode.append(code)
                dist.append(dist[si] + 1)
                nxt.append((len(parent) - 1, h))
        frontier = nxt
    if len(index) != expected:
        raise NotGenerating(
            f"reached {len(index)} of {expected} cosets at level {level}"
        )
    return ShortestWordTable(
        level,
        index,
        np.array(parent, dtype=np.int64),
        np.array(opcode, dtype=np.int32),
        np.array(dist, dtype=np.int32),
        key_fn=lambda g: qops.key(ops.project(g, level)),
    )


def _nott_pack(planes, p, k, level):
    """Base-p packing of the coefficient planes at degrees 2..level."""
    digits = planes[:, :, 2 : level + 1].reshape(planes.shape[0], -1)
    weights = p ** np.arange(digits.shape[1], dtype=np.int64)
    return digits @ weights


def _nottingham_table(ops, gens, level):
    from .nottingham import _planes, project, series_context

    desc = ops.descriptor
    q = desc.ring.field.q
    p = desc.ring.p
    ctx = series_context(q, level + 1)
    k = ctx.k

    dir_planes = []
    for i, g in enumerate(gens):
        gq = project(g, level)
        dir_planes.append((pack_op(i, +1), _planes(gq.descriptor, gq)))
        giq = ops.project(ops.inv(g), level)
        dir_planes.append((pack_op(i, -1), _planes(giq.descriptor, giq)))

    expected = q ** (level - 1)
    ident = ctx.t((1,))
    all_keys = _nott_pack(ident, p, k, level)
    parent = np.full(1, -1, dtype=np.int64)
    opcode = np.zeros(1, dtype=np.int32)
    dist = np.zeros(1, dtype=np.int32)
    visited_sorted = all_keys.copy()
    frontier = ident
    frontier_idx = np.zeros(1, dtype=np.int64)
    d = 0
    while len(frontier):
        d += 1
        cand_planes = []
        cand_parent = []
        cand_op = []
        for code, gp in dir_planes:
            new = ctx.compose(np.broadcast_to(gp, frontier.shape), frontier)
            cand_planes.append(new)
            cand_parent.append(frontier_idx)
            cand_op.append(np.full(len(frontier), code, dtype=np.int32))
        cand_planes = np.concatenate(cand_planes)
        cand_parent = np.concatenate(cand_parent)
        cand_op = np.concatenate(cand_op)
        keys = _nott_pack(cand_planes, p, k, level)
        keys, first = np.unique(keys, return_index=True)
        fresh = ~np.isin(keys, visited_sorted)
        first = first[fresh]
        keys = keys[fresh]
        if not len(keys):
            break
        base = len(all_keys)
        all_keys = np.concatenate([all_keys, keys])
        parent = np.concatenate([parent, cand_parent[first]])
        opcode = np.concatenate([opcode, cand_op[first]])
        dist = np.concatenate([dist, np.full(len(keys), d, dtype=np.int32)])
        visited_sorted = np.sort(all_keys)
        frontier = cand_planes[first]
        frontier_idx = np.arange(base, base + len(keys), dtype=np.int64)
    if len(all_keys) != expected:
        raise NotGenerating(
            f"reached {len(all_keys)} of {expected} cosets at level {level}"
        )
    index = {int(kk): i for i, kk in enumerate(all_keys)}

    def key_fn(g):
        gq = project(g, level)
        return int(_nott_pack(_planes(gq.descriptor, gq)[None], p, k, level)[0])

    return ShortestWordTable(level, index, parent, opcode, dist, key_fn)
