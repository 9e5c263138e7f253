"""The enumeration engine against a plain dict BFS kept here as the
reference: same states in the same order, same BFS tree, same tables."""

import numpy as np
import pytest

from prosk import _bfs
from prosk.errors import BudgetExceeded, NotGenerating
from prosk.matgroups import BatchOps, GroupDescriptor, MatrixOps, ops_for
from prosk.nottingham import SeriesContext
from prosk.skcompiler import sample_generating_set
from prosk.spectral import CyclicOps, build_graph, symmetrize


def reference_bfs(ops, dirs, left):
    """Frontier-major BFS from the identity; the first product with a new
    key wins.  Returns (keys in discovery order, parent, op, dist, perms),
    perms[a][j] the index of the product of state j with dirs[a]."""
    start = ops.identity()
    index = {ops.key(start): 0}
    keys, parent, op, dist = [ops.key(start)], [-1], [0], [0]
    perms = [[] for _ in dirs]  # states expand in index order
    frontier = [(0, start)]
    while frontier:
        nxt = []
        for si, g in frontier:
            for a, s in enumerate(dirs):
                h = ops.mul(s, g) if left else ops.mul(g, s)
                k = ops.key(h)
                if k not in index:
                    index[k] = len(keys)
                    keys.append(k)
                    parent.append(si)
                    op.append(a)
                    dist.append(dist[si] + 1)
                    nxt.append((len(keys) - 1, h))
                perms[a].append(index[k])
        frontier = nxt
    return keys, parent, op, dist, perms


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
     ("SL:d=3,Fq[[t]]:q=2,N=1", 1, 3),
     # F_q[[t]] planes: k = 2 runs the field tensor, N = 2 the series carry
     ("SL:d=2,Fq[[t]]:q=9,N=1", 1, 20), ("SL:d=2,Fq[[t]]:q=3,N=2", 2, 20),
     ("SL:d=2,Fq[[t]]:q=5,N=3", 2, 20)]  # 15,000 cosets
    + [("Nottingham,Fq[[t]]:q=5,N=6", n, 300) for n in range(2, 7)]
    + [("Nottingham,Fq[[t]]:q=9,N=4", n, 4) for n in range(2, 5)]
)


@pytest.mark.parametrize("text,level,seed", TABLE_CASES)
def test_right_bfs_matches_reference(text, level, seed):
    qops, dirs = _table_dirs(text, level, seed)
    keys, parent, op, dist, perms = reference_bfs(qops, dirs, left=False)
    run = _bfs.bfs(qops, qops.stack(dirs), len(keys), left=False)
    assert run.parent.tolist() == parent
    assert run.op.tolist() == op
    assert run.dist.tolist() == dist
    assert run.perms.tolist() == perms  # the right translations
    assert [qops.key(x) for x in qops.unstack(run.states)] == keys


def test_right_bfs_matches_reference_cyclic():
    ops = CyclicOps(12)
    dirs = [4, 8, 3, 9]
    keys, parent, op, dist, perms = reference_bfs(ops, dirs, left=False)
    run = _bfs.bfs(ops, ops.stack(dirs), 12, left=False)
    assert ops.unstack(run.states) == keys
    assert (run.parent.tolist(), run.op.tolist(), run.dist.tolist(),
            run.perms.tolist()) == (parent, op, dist, perms)


def test_right_bfs_rejects_a_wrong_order(monkeypatch):
    # build_table's quotient order, off by one either way: one short, the
    # walk stops at the chunk that outgrows its table; one over, it closes
    desc = GroupDescriptor.parse("SL:d=2,Zp:p=3,N=2")
    ops = ops_for(desc)
    gens = sample_generating_set(desc, 3, 1).elements
    order = ops.quotient_order(2)
    assert _bfs.build_table(ops, gens, 2).count == order == 648
    for wrong, match in ((order - 1, "more of 647"), (order + 1, "648 of 649")):
        monkeypatch.setattr(ops, "quotient_order", lambda level: wrong)
        with pytest.raises(NotGenerating, match=match):
            _bfs.build_table(ops, gens, 2)


def test_base_table_takes_no_translation_table(monkeypatch):
    # build_table's walk fills, and is charged for, no translation table,
    # and the table looks words up in the sorted keys the walk kept
    desc = GroupDescriptor.parse("SL:d=2,Zp:p=3,N=2")
    ops, qops = ops_for(desc), ops_for(desc.truncated(2))
    gens = sample_generating_set(desc, 3, 1).elements
    runs, charged = [], []
    bfs = _bfs.bfs

    def kept(*args, **kwargs):
        runs.append(bfs(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(_bfs, "bfs", kept)
    monkeypatch.setattr(_bfs, "_charge",
                        lambda need, what: charged.append(need))
    table = _bfs.build_table(ops, gens, 2)
    (run,) = runs
    assert run.perms is None and table.count == 648
    held, k = qops.identity_stack().nbytes, 2 * len(gens)
    assert charged == [648 * 2 * (held + _bfs._BYTES_PER_RECORD)
                       + min(_bfs._CHUNK // k, 648) * k
                       * (held * qops.product_copies() + 24)]
    keys = qops.keys(run.states)
    assert run.index.find(keys).tolist() == list(range(648))


def test_stack_layout_follows_the_group():
    # the facade picks the layout from the ring, never from the order; a
    # stack round-trips and its products are the scalar products
    cases = [
        ("SL:d=2,Zp:p=3,N=19", (2, 2), np.int64),  # 2 (3^19 - 1)^2 < 2^63
        ("SL:d=2,Zp:p=3,N=20", (2, 2), object),
        ("SO:d=3,Fq[[t]]:q=9,N=4", (3, 3, 2, 4), np.int64),  # (d, d, k, N)
        ("Nottingham,Fq[[t]]:q=5,N=27", (1, 28), np.int64),  # (k, L)
    ]
    rng = np.random.default_rng(21)
    for text, shape, dtype in cases:
        ops = ops_for(GroupDescriptor.parse(text))
        elems = [ops.identity()] + [ops.sample_uniform(rng) for _ in range(3)]
        X = ops.stack(elems)
        assert X.shape == (4,) + shape and X.dtype == dtype, text
        assert ops.unstack(X) == elems
        assert ops.unstack(ops.identity_stack()) == [ops.identity()]
        assert ops.unstack(ops.outer(X, X)) == [ops.mul(a, b) for a in elems
                                                for b in elems]
    ops = CyclicOps(12)
    X = ops.stack([0, 5, 11])
    assert X.shape == (3,) and X.dtype == np.int64
    assert ops.unstack(ops.outer(X, X, left=True)) == [
        (a + b) % 12 for a in (0, 5, 11) for b in (0, 5, 11)]


@pytest.mark.parametrize("text", ["SO:d=3,Zp:p=3,N=5",
                                  "SL:d=2,Fq[[t]]:q=9,N=6"])
def test_interned_keys_are_injective(text):
    # (3^5)^9 and 9^(4 * 6) pass 2^63, so keys are interned, not packed:
    # equal exactly for equal elements, across calls on one facade
    ops = ops_for(GroupDescriptor.parse(text))
    rng = np.random.default_rng(22)
    elems = [ops.sample_uniform(rng) for _ in range(40)]
    drawn = [elems[i] for i in rng.integers(0, 40, 120)]
    keys = ops.keys(ops.stack(drawn)).tolist()
    assert ops.keys(ops.stack(drawn[::-1])).tolist() == keys[::-1]
    by_key = {}
    for k, x in zip(keys, drawn):
        assert by_key.setdefault(k, ops.key(x)) == ops.key(x)
    assert len(by_key) == len({ops.key(x) for x in drawn})


UNIQUE_CASES = ["repeats", "wide", "all equal", "single", "sorted",
                "reversed", "near 2^62", "interned"]


def _unique_keys(name):
    rng = np.random.default_rng(24)
    if name == "interned":
        nott = ops_for(GroupDescriptor.parse("Nottingham,Fq[[t]]:q=9,N=22"))
        elems = [nott.sample_uniform(rng) for _ in range(30)]
        keys = nott.keys(nott.stack([elems[i]
                                     for i in rng.integers(0, 30, 400)]))
        assert keys.max() < 30  # 9^21 > 2^63: ids, not packed digits
        return keys
    big = 2**62
    near = np.array([big - 1, -big, big - 1, 0, -big + 1, big - 2, -big])
    ascending = np.repeat(np.arange(300, dtype=np.int64), 3)
    return {
        "repeats": rng.integers(0, 50, 5000),
        "wide": rng.integers(-2**63, 2**63 - 1, 3000, dtype=np.int64),
        "all equal": np.full(1000, 7, dtype=np.int64),
        "single": np.array([-3], dtype=np.int64),
        "sorted": ascending,
        "reversed": ascending[::-1].copy(),
        "near 2^62": rng.choice(near, 2000),
    }[name]


@pytest.mark.parametrize("name", UNIQUE_CASES)
def test_first_of_each_matches_np_unique(name):
    # the unstable sort's dedup returns np.unique's sorted keys, lowest
    # first index and inverse, so the first candidate still wins
    keys = _unique_keys(name)
    got = _bfs.first_of_each(keys)
    want = np.unique(keys, return_index=True, return_inverse=True)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert got[2].dtype == np.int32


def test_bfs_charges_its_stacked_states(monkeypatch):
    # SL3(F_2[[t]]/t^2): 43,008 states of 144 B planes each, 5.9 MB stacked,
    # so a 5 MB budget refuses the walk before any product is taken
    desc = GroupDescriptor.parse("SL:d=3,Fq[[t]]:q=2,N=2")
    ops = ops_for(desc)
    assert ops.group_order() == 43_008
    assert ops.identity_stack().nbytes == 144
    gens = [ops.sample_uniform(np.random.default_rng(23)) for _ in range(3)]
    products = []
    monkeypatch.setattr(MatrixOps, "outer",
                        lambda *args, **kw: products.append(1))
    monkeypatch.setenv("PROSK_BUDGET_MB", "5")
    with pytest.raises(BudgetExceeded, match="PROSK_BUDGET_MB=5"):
        _bfs.build_table(ops, gens, 2)
    assert not products


def test_bfs_charges_one_chunk_of_products(monkeypatch):
    # the same group: its states and records take ~14 MB, a chunk of
    # 65,532 candidate products of 144 B planes, each 2d + k = 7 copies at
    # the product's peak, ~63 MB more; a 40 MB budget refuses the walk
    desc = GroupDescriptor.parse("SL:d=3,Fq[[t]]:q=2,N=2")
    ops = ops_for(desc)
    assert ops.product_copies() == 7
    states_mb = 43_008 * 2 * (144 + _bfs._BYTES_PER_RECORD) / 2**20
    chunk_mb = (_bfs._CHUNK // 6) * 6 * 144 * 7 / 2**20
    assert states_mb < 40 < states_mb + chunk_mb
    gens = [ops.sample_uniform(np.random.default_rng(23)) for _ in range(3)]
    products = []
    monkeypatch.setattr(MatrixOps, "outer",
                        lambda *args, **kw: products.append(1))
    monkeypatch.setenv("PROSK_BUDGET_MB", "40")
    with pytest.raises(BudgetExceeded, match="PROSK_BUDGET_MB=40"):
        _bfs.build_table(ops, gens, 2)
    assert not products


def test_bfs_charges_its_translation_table(monkeypatch):
    # SL2(Z/27) over 50 drawn elements and the identity: 17,496 states of
    # 32 B and ~100 directions; states, records and one chunk of products
    # fit in 9 MB, the int32 translation table does not, so the walk is
    # refused before any product is taken (`prosk diam` exits 3 on it)
    desc = GroupDescriptor.parse("SL:d=2,Zp:p=3,N=3")
    ops = ops_for(desc)
    gens = list(sample_generating_set(desc, 50, 7).elements)
    n, k = ops.group_order(), len(symmetrize(ops, gens, include_identity=True))
    held = ops.identity_stack().nbytes
    states_mb = n * 2 * (held + _bfs._BYTES_PER_RECORD) / 2**20
    chunk_mb = (_bfs._CHUNK // k) * k * held * ops.product_copies() / 2**20
    table_mb = n * k * _bfs._BYTES_PER_EDGE / 2**20
    assert states_mb + chunk_mb < 9 < states_mb + chunk_mb + table_mb
    products = []
    monkeypatch.setattr(MatrixOps, "outer",
                        lambda *args, **kw: products.append(1))
    monkeypatch.setenv("PROSK_BUDGET_MB", "9")
    with pytest.raises(BudgetExceeded, match="PROSK_BUDGET_MB=9"):
        build_graph(ops, gens)
    assert not products


def test_graph_build_takes_one_product_per_chunk(monkeypatch):
    # the translations come out of the BFS's own products: SL2(Z/27)
    # multiplies each chunk of each level by the directions once, and
    # takes no product after the walk; the table is every left translate
    desc = GroupDescriptor.parse("SL:d=2,Zp:p=3,N=3")
    ops = ops_for(desc)
    gens = list(sample_generating_set(desc, 8, 7).elements)
    chunks = []
    outer = MatrixOps.outer

    def counted(self, A, B, left=False):
        chunks.append(len(A))
        return outer(self, A, B, left=left)

    monkeypatch.setattr(MatrixOps, "outer", counted)
    g = build_graph(ops, gens)
    assert g.order == 17_496
    step = _bfs._CHUNK // len(g.dirs)
    assert chunks == [min(step, size - lo) for size in np.bincount(g.dist)
                      for lo in range(0, size, step)]
    assert len(chunks) > g.diameter + 1  # a level spans several chunks
    translates = outer(ops, ops.stack(g.dirs), g.states)
    keys = ops.keys(g.states)
    assert (keys[g.perms].ravel() == ops.keys(translates)).all()


def test_nottingham_graph_takes_no_compose(monkeypatch):
    # a left product's inner series is a direction, so the graph's products
    # are matmuls by the directions' power matrices, not series compositions
    ops, gens = _generating_set("Nottingham,Fq[[t]]:q=5,N=5", 2, 8)
    composed = []
    compose = SeriesContext.compose

    def counted(self, G, F):
        composed.append(len(G))
        return compose(self, G, F)

    monkeypatch.setattr(SeriesContext, "compose", counted)
    g = build_graph(ops, gens)
    assert g.order == 625 and not composed
    translates = BatchOps.outer(ops, g.states, ops.stack(g.dirs), left=True)
    keys = ops.keys(g.states)
    assert (keys[g.perms].T.ravel() == ops.keys(translates)).all()
    assert composed


GRAPH_CASES = [
    ("SL:d=2,Zp:p=3,N=2", 2, 5),
    ("SO:d=3,Zp:p=3,N=2", 2, 6),
    ("SL:d=3,Fq[[t]]:q=2,N=1", 2, 7),
    ("SL:d=2,Fq[[t]]:q=9,N=1", 2, 20),
    ("SL:d=2,Fq[[t]]:q=3,N=2", 2, 20),
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
    keys, _, _, dist, _ = reference_bfs(ops, g.dirs, left=True)
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

