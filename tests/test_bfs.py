"""The enumeration engine against a plain dict BFS kept here as the
reference: same states in the same order, same BFS tree, same tables."""

import numpy as np
import pytest

from prosk import _bfs
from prosk.matgroups import GroupDescriptor, ops_for
from prosk.skcompiler import sample_generating_set
from prosk.spectral import CyclicOps, build_graph, symmetrize


def reference_bfs(ops, dirs, left):
    """Frontier-major BFS from the identity; the first product with a new
    key wins.  Returns (keys in discovery order, parent, op, dist)."""
    start = ops.identity()
    index = {ops.key(start): 0}
    keys, parent, op, dist = [ops.key(start)], [-1], [0], [0]
    frontier = [(0, start)]
    while frontier:
        nxt = []
        for si, g in frontier:
            for a, s in enumerate(dirs):
                h = ops.mul(s, g) if left else ops.mul(g, s)
                k = ops.key(h)
                if k in index:
                    continue
                index[k] = len(keys)
                keys.append(k)
                parent.append(si)
                op.append(a)
                dist.append(dist[si] + 1)
                nxt.append((len(keys) - 1, h))
        frontier = nxt
    return keys, parent, op, dist


def _table_dirs(text, level, seed):
    """(quotient ops, [g_0, g_0^-1, g_1, ...] at `level`) for a drawn set."""
    desc = GroupDescriptor.parse(text)
    ops = ops_for(desc)
    qops = ops_for(desc.truncated(level))
    dirs = []
    for g in sample_generating_set(desc, 3, seed).elements:
        gq = ops.project(g, level)
        dirs += [gq, qops.inv(gq)]
    return qops, dirs


TABLE_CASES = (
    [("SL:d=2,Zp:p=3,N=2", 2, 1), ("SO:d=3,Zp:p=3,N=2", 2, 2),
     ("SL:d=3,Fq[[t]]:q=2,N=1", 1, 3)]
    + [("Nottingham,Fq[[t]]:q=5,N=6", n, 300) for n in range(2, 7)]
    + [("Nottingham,Fq[[t]]:q=9,N=4", n, 4) for n in range(2, 5)]
)


@pytest.mark.parametrize("text,level,seed", TABLE_CASES)
def test_right_bfs_matches_reference(text, level, seed):
    qops, dirs = _table_dirs(text, level, seed)
    keys, parent, op, dist = reference_bfs(qops, dirs, left=False)
    backend = _bfs.backend_for(qops)
    run = _bfs.bfs(backend, backend.embed(dirs), len(keys), left=False)
    assert run.parent.tolist() == parent
    assert run.op.tolist() == op
    assert run.dist.tolist() == dist
    assert [qops.key(backend.element(run.states, i))
            for i in range(len(keys))] == keys


def test_right_bfs_matches_reference_cyclic():
    ops = CyclicOps(12)
    dirs = [4, 8, 3, 9]
    keys, parent, op, dist = reference_bfs(ops, dirs, left=False)
    run = _bfs.bfs(_bfs.backend_for(ops), np.array(dirs, dtype=object), 12,
                   left=False)
    assert run.states.tolist() == keys
    assert (run.parent.tolist(), run.op.tolist(), run.dist.tolist()) == (
        parent, op, dist)


def test_backend_follows_the_group():
    def kind(text):
        return type(_bfs.backend_for(ops_for(GroupDescriptor.parse(text))))

    assert kind("SL:d=2,Zp:p=3,N=9") is _bfs.ZpBackend  # (3^9)^4 < 2^63
    assert kind("SL:d=2,Zp:p=3,N=10") is _bfs.ScalarBackend
    assert kind("SL:d=3,Fq[[t]]:q=2,N=1") is _bfs.ScalarBackend
    assert kind("Nottingham,Fq[[t]]:q=5,N=27") is _bfs.NottBackend
    assert type(_bfs.backend_for(CyclicOps(12))) is _bfs.ScalarBackend


GRAPH_CASES = [
    ("SL:d=2,Zp:p=3,N=2", 2, 5),
    ("SO:d=3,Zp:p=3,N=2", 2, 6),
    ("SL:d=3,Fq[[t]]:q=2,N=1", 2, 7),
    ("Nottingham,Fq[[t]]:q=5,N=4", 2, 8),
    ("Nottingham,Fq[[t]]:q=9,N=3", 4, 9),  # abelian: needs 4 generators
]


def _generating_set(text, k, seed):
    desc = GroupDescriptor.parse(text)
    ops = ops_for(desc)
    for seed in range(seed, seed + 50):
        gens = list(sample_generating_set(desc, k, seed).elements)
        keys = reference_bfs(ops, symmetrize(ops, gens), left=True)[0]
        if len(keys) == ops.group_order():
            return ops, gens
    raise AssertionError("no generating draw")


@pytest.mark.parametrize("text,k,seed", GRAPH_CASES)
def test_left_perms_are_left_translations(text, k, seed):
    ops, gens = _generating_set(text, k, seed)
    g = build_graph(ops, gens)
    keys, _, _, dist = reference_bfs(ops, g.dirs, left=True)
    elems = [g.element(j) for j in range(g.order)]
    assert [ops.key(x) for x in elems] == keys
    assert g.dist.tolist() == dist and g.diameter == max(dist)
    for a, s in enumerate(g.dirs):
        for j, x in enumerate(elems):
            assert ops.key(elems[g.perms[a, j]]) == ops.key(ops.mul(s, x))


def test_left_perms_cyclic():
    ops = CyclicOps(12)
    g = build_graph(ops, [1, 3])
    assert g.diameter == max(reference_bfs(ops, g.dirs, left=True)[3]) == 3
    for a, s in enumerate(g.dirs):
        for j in range(12):
            assert g.element(g.perms[a, j]) == (s + g.element(j)) % 12

