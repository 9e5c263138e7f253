import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from prosk import spectral, verify
from prosk.cli import main
from prosk.errors import (
    BudgetExceeded,
    DescriptorMismatch,
    InvariantViolated,
    LevelTooLarge,
    NotGenerating,
    UsageError,
)
from prosk.matgroups import GroupDescriptor, element, ops_for
from prosk.spectral import (
    CyclicOps,
    build_graph,
    congruence_pair,
    cyclic_contrast_series,
    cyclic_group,
    cyclic_pair,
    diameter_bfs,
    extension_bound_check,
    lanczos_gap,
    mixing_length,
    mixing_profile,
    monotonicity_exhaustive,
    monotonicity_sampled,
    spectral_gap,
    spectral_report,
    walk_series,
    walk_statistics,
    worst_case_diameter,
)

SL2_F3 = GroupDescriptor.parse("SL:d=2,Zp:p=3,N=1")


@pytest.mark.parametrize("own,other", [
    ("Nottingham,Fq[[t]]:q=5,N=6", "Nottingham,Fq[[t]]:q=7,N=6"),
    ("SL:d=2,Zp:p=3,N=2", "SL:d=2,Zp:p=5,N=2"),
])
def test_facades_refuse_foreign_elements(own, other):
    # elements of another group, here with the same array shape, are a
    # DescriptorMismatch wherever a facade meets them, while an element of
    # an equal descriptor built apart (a projection to the same level) belongs
    ops = ops_for(GroupDescriptor.parse(own))
    rng = np.random.default_rng(5)
    foreign = [ops_for(GroupDescriptor.parse(other)).sample_uniform(rng)
               for _ in range(2)]
    mine = ops.project(ops.sample_uniform(rng), ops.descriptor.ring.N)
    assert mine.descriptor is not ops.descriptor
    for call in (lambda: build_graph(ops, foreign),
                 lambda: diameter_bfs(ops, foreign),
                 lambda: ops.mul(*foreign),
                 lambda: ops.mul(mine, foreign[0]),
                 lambda: ops.commutator(*foreign),
                 lambda: ops.stack([mine, foreign[1]])):
        with pytest.raises(DescriptorMismatch):
            call()
    assert ops.mul(mine, ops.inv(mine)) == ops.identity()


@pytest.mark.parametrize("group", [
    "SL:d=2,Zp:p=3,N=3",
    "SL:d=2,Zp:p=3,N=20",  # object stacks: d (p^N - 1)^2 >= 2^63
    "SO:d=3,Fq[[t]]:q=5,N=2",
    "Nottingham,Fq[[t]]:q=5,N=6",
    "Nottingham,Fq[[t]]:q=9,N=5",
    "Z/12",
])
def test_facades_keep_one_element_contract(group):
    # every facade's element ops agree with its stack ops, elements round
    # trip through stacks, equal elements built apart compare and hash
    # equal, a stack of the wrong shape is no element, and a group facade's
    # quotient orders exist exactly at the levels 1..N
    ops = (CyclicOps(12) if group == "Z/12"
           else ops_for(GroupDescriptor.parse(group)))
    if ops.descriptor is not None:
        desc, N = ops.descriptor, ops.descriptor.ring.N
        for n in (0, N + 1):
            with pytest.raises(LevelTooLarge):
                ops.quotient_order(n)
        assert [ops.quotient_order(n) for n in range(1, N + 1)] == [
            ops_for(desc.truncated(n)).group_order() for n in range(1, N + 1)]
        assert ops.quotient_order(N) == ops.group_order()
    rng = np.random.default_rng(53)
    xs = [ops.sample_uniform(rng) for _ in range(4)]
    X = ops.stack(xs)
    assert ops.unstack(X) == xs
    for a, b in zip(xs, xs[1:] + xs[:1]):
        A, B = ops.stack([a]), ops.stack([b])
        AB = np.concatenate([A, B])
        assert ops.mul(a, b) == ops.unstack(ops.product(A, B))[0]
        assert ops.inv(a) == ops.unstack(ops.inverse(A))[0]
        assert ops.commutator(a, b) == ops.unstack(ops.tree_product(
            np.concatenate([ops.inverse(AB), AB])))[0]
    assert ops.unstack(ops.identity_stack()) == [ops.identity()]
    g = xs[0]
    for x in xs:
        for y in (ops.deserialize(ops.serialize(x)),
                  ops.mul(ops.mul(x, g), ops.inv(g)),
                  ops.unstack(ops.stack([g, x]))[1]):
            assert y == x and hash(y) == hash(x) and ops.key(y) == ops.key(x)
    with pytest.raises(InvariantViolated):
        ops.unstack(X[:, None])


TRANSVECTIONS = [
    element(SL2_F3, [[1, 1], [0, 1]]),
    element(SL2_F3, [[1, 0], [1, 1]]),
]


# --- frozen gaps -------------------------------------------------------------


def test_z3_gap_frozen():
    z3 = CyclicOps(3)
    bare = spectral_gap(build_graph(z3, [1], adjoin_identity=False))
    lazy = spectral_gap(build_graph(z3, [1]))
    assert abs(bare - 0.5) < 1e-12
    assert abs(lazy - 0.0) < 1e-12


def test_complete_graph_gap():
    # Z/5 with every nonzero step: rho = 1/(n-1)
    z5 = CyclicOps(5)
    g = build_graph(z5, [1, 2, 3, 4], adjoin_identity=False)
    assert abs(spectral_gap(g) - 0.25) < 1e-12


def test_transvection_walk_frozen():
    g = build_graph(ops_for(SL2_F3), TRANSVECTIONS)
    assert g.order == 24
    assert g.diameter == 4
    assert abs(spectral_gap(g) - 0.746410) < 1e-6


def test_bipartite_walk_needs_laziness():
    z2 = CyclicOps(2)
    with pytest.raises(NotGenerating):
        spectral_report(z2, [1], adjoin_identity=False)
    rep = spectral_report(z2, [1])  # lazy walk mixes
    assert rep.rho < 1.0


# --- the Lanczos gap against a dense eigensolve -------------------------------


def _dense_rho(graph):
    """Reference: the largest |eigenvalue| of the dense walk matrix with the
    constants projected out (A - J/n)."""
    n = graph.order
    A = np.zeros((n, n))
    rows = np.arange(n)
    for p in graph.perms:
        A[rows, p] += 1.0  # (A v)[j] sums v[p[j]], as walk_matvec does
    A /= len(graph.perms)
    return float(np.abs(np.linalg.eigvalsh(A - 1.0 / n)).max())


def _check_against_dense(graph, label):
    rho = spectral_gap(graph)
    assert type(rho) is float, label
    assert abs(rho - _dense_rho(graph)) <= 1e-9, label


def test_lanczos_matches_dense_small_cases():
    z = CyclicOps
    cases = [
        ("bare Z/5 {+-1}", z(5), [1], False),  # the negative end wins
        ("complete Z/5", z(5), [1, 2, 3, 4], False),  # -1/4, four times
        ("lazy Z/2", z(2), [1], True),
        ("bare Z/3", z(3), [1], False),
        ("lazy Z/3", z(3), [1], True),
        ("lazy Z/8", z(8), [1], True),
        ("lazy Z/200", z(200), [1], True),
    ]
    for label, ops, gens, lazy in cases:
        g = build_graph(ops, gens, adjoin_identity=lazy)
        _check_against_dense(g, label)
    g = build_graph(z(5), [1], adjoin_identity=False)
    assert abs(spectral_gap(g) - np.cos(np.pi / 5)) < 1e-12


def test_lanczos_matches_dense_on_criterion_5_corpus():
    from test_acceptance import _corpus

    checked = 0
    for label, ops, gens in _corpus():
        g = build_graph(ops, gens)
        if g.order <= 1500:
            _check_against_dense(g, label)
            checked += 1
    assert checked >= 50


def test_lanczos_restarts_when_the_basis_is_over_budget(monkeypatch):
    desc = GroupDescriptor.parse("SL:d=2,Zp:p=3,N=3")
    ops = ops_for(desc)
    rng = np.random.default_rng(63)
    g = build_graph(ops, [ops.sample_uniform(rng) for _ in range(2)])
    assert g.order == 17496
    full = lanczos_gap(g)
    assert full.restarts == 0 and full.residual <= spectral.GAP_TOL
    monkeypatch.setenv("PROSK_BUDGET_MB", "4")  # the graph and ~11 vectors
    small = lanczos_gap(g)
    assert small.restarts > 0
    assert small.residual <= spectral.GAP_TOL
    assert abs(small.rho - full.rho) <= 1e-9
    monkeypatch.setenv("PROSK_BUDGET_MB", "2")  # not two basis vectors
    with pytest.raises(BudgetExceeded):
        lanczos_gap(g)


def test_lanczos_reorthogonalizes_only_some_steps(monkeypatch):
    # partial reorthogonalization: on SL2(Z/27) most steps take the
    # three-term recurrence alone; the tridiagonal problem is solved by
    # bisection and inverse iteration, never by a dense eigensolver
    def dense(*args, **kw):
        raise AssertionError("dense eigensolver called")

    monkeypatch.setattr(np.linalg, "eigh", dense)
    monkeypatch.setattr(np.linalg, "eigvalsh", dense)
    ops = ops_for(GroupDescriptor.parse("SL:d=2,Zp:p=3,N=3"))
    rng = np.random.default_rng(5)
    g = build_graph(ops, [ops.sample_uniform(rng) for _ in range(3)])
    assert g.order == 17496
    run = lanczos_gap(g)
    assert 0 < run.reorths < run.matvecs
    assert run.residual <= spectral.GAP_TOL


@pytest.mark.parametrize("n", [500, 2000])
def test_lanczos_on_long_lazy_cycles(n):
    # lazy {0, +-1} on Z/n: eigenvalues (1 + 2 cos(2 pi j / n)) / 3, and the
    # Krylov space needs ~n/2 steps
    j = np.arange(1, n)
    want = np.abs((1 + 2 * np.cos(2 * np.pi * j / n)) / 3).max()
    run = lanczos_gap(build_graph(CyclicOps(n), [1]))
    assert abs(run.rho - want) <= 1e-9
    assert run.reorths < run.matvecs


def test_extreme_ritz_pairs_match_a_dense_solve():
    rng = np.random.default_rng(7)
    for m in (1, 2, 3, 10, 60):
        a, b = rng.standard_normal(m), rng.standard_normal(m - 1)
        b[m // 2 :: 7] = 0.0  # split blocks are fine too
        T = np.diag(a) + np.diag(b, 1) + np.diag(b, -1)
        theta, S = np.linalg.eigh(T)
        (lo, s_lo), (hi, s_hi) = spectral._extreme_ritz(a, b)
        assert abs(lo - theta[0]) <= 1e-13 and abs(hi - theta[-1]) <= 1e-13
        for s, want in ((s_lo, S[:, 0]), (s_hi, S[:, -1])):
            assert np.linalg.norm(T @ s - (s @ T @ s) * s) <= 1e-12
            assert abs(abs(s @ want) - 1.0) <= 1e-12


def test_unconverged_gap_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(spectral, "MATVEC_CAP", 5)
    g = build_graph(CyclicOps(200), [1])
    with pytest.raises(BudgetExceeded, match="residual"):
        spectral_gap(g)
    rc = main(["spectral", "--group", "SL:d=2,Zp:p=3,N=2", "--gens",
               "sampled:3:7", "--l", "12", "--seed", "1"])
    assert rc == 3
    assert "Ritz residual" in capsys.readouterr().err


# --- diameters ---------------------------------------------------------------


def test_cyclic_diameters():
    assert diameter_bfs(CyclicOps(12), [1]) == 6
    assert diameter_bfs(CyclicOps(12), [1, 3]) == 3
    rows = cyclic_contrast_series(3, 7)
    assert [r["diameter"] for r in rows] == [1, 4, 13, 40, 121, 364, 1093]
    assert [r["diameter"] for r in rows] == [(3**n) // 2 for n in range(1, 8)]


def test_build_graph_rejects_subgroups():
    with pytest.raises(NotGenerating):
        build_graph(CyclicOps(10), [5])


def test_build_graph_rejects_a_wrong_order():
    # too small: the BFS stops at the chunk that outgrows the table
    for order in (1, 6, 11):
        with pytest.raises(NotGenerating, match=f"more of {order} elements"):
            build_graph(CyclicOps(12), [1], order=order)
    with pytest.raises(NotGenerating, match="span 12 of 13 elements"):
        build_graph(CyclicOps(12), [1], order=13)


def test_sweep_over_a_non_subgroup_is_an_invariant_violation():
    with pytest.raises(InvariantViolated, match="left the group"):
        worst_case_diameter(CyclicOps(12), elements=[0, 1, 2])


def test_worst_case_frozen():
    assert worst_case_diameter(CyclicOps(7)).value == 3
    assert worst_case_diameter(CyclicOps(2)).value == 1
    sv = worst_case_diameter(CyclicOps(12))
    assert sv.value == 6 and sv.mode == "exhaustive"
    # the witness must reproduce its diameter
    assert diameter_bfs(CyclicOps(12), list(sv.witness)) == 6


def test_worst_case_sampled_mode():
    sv = worst_case_diameter(CyclicOps(60), mode="sampled", trials=40, seed=3)
    assert sv.mode == "sampled-lower-bound"
    assert 1 <= sv.value <= 30


def test_sweep_caps_raise_before_any_table(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("a permutation table was built")

    monkeypatch.setattr(spectral._bfs, "bfs", no_table)
    for n, cap in ((65, "SWEEP_ELEMENT_CAP=64"), (40, "SWEEP_WORK_CAP=")):
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded, match=cap):
            worst_case_diameter(CyclicOps(n))
        assert time.perf_counter() - t0 < 1.0, n


# --- the bitset sweep against a per-subset index BFS -------------------------


def _translations(ops, elems, classes, image=lambda x: x):
    """Reference left-translation rows of image(g) for every g of every
    class, tabulated with ops.mul and a key dict, and the identity's index."""
    index = {ops.key(x): j for j, x in enumerate(elems)}
    rows = [[[index[ops.key(ops.mul(image(g), x))] for x in elems]
             for g in cls] for cls in classes]
    return rows, index[ops.key(ops.identity())]


def _index_bfs(rows, root):
    """Reference: one plain index BFS, distances from root (-1 unreached)."""
    dist = [-1] * len(rows[0])
    dist[root] = 0
    frontier = [root]
    while frontier:
        grown = []
        for v in frontier:
            for row in rows:
                w = row[v]
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    grown.append(w)
        frontier = grown
    return dist


def _reference_unions(ops, elems):
    classes = spectral.inverse_pair_classes(ops, elems)
    rows, root = _translations(ops, elems, classes)
    out = []
    for bits in range(1, 2 ** len(classes)):
        dist = _index_bfs([r for i, cls in enumerate(rows) if bits >> i & 1
                           for r in cls], root)
        if min(dist) >= 0:
            out.append((bits, max(dist)))
    return out


def _reference_monotonicity(G, Q, proj):
    gel, qel = spectral.all_elements(G), spectral.all_elements(Q)
    classes = spectral.inverse_pair_classes(G, gel)
    grows, groot = _translations(G, gel, classes)
    qrows, qroot = _translations(Q, qel, classes, proj)
    checked, violations, wcG, wcQ = 0, [], -1, -1
    for bits in range(1, 2 ** len(classes)):
        chosen = [i for i in range(len(classes)) if bits >> i & 1]
        dG = _index_bfs([r for i in chosen for r in grows[i]], groot)
        if min(dG) < 0:
            continue
        dQ = _index_bfs([r for i in chosen for r in qrows[i]], qroot)
        assert min(dQ) >= 0
        dG, dQ = max(dG), max(dQ)
        checked += 1
        wcG, wcQ = max(wcG, dG), max(wcQ, dQ)
        if dQ > dG:
            violations.append({
                "set": [G.serialize(x) for i in chosen for x in classes[i]],
                "diam_G": dG, "diam_Q": dQ})
    return {"mode": "exhaustive", "checked": checked,
            "violations": violations, "worst_case_G": wcG,
            "worst_case_Q": wcQ, "worst_case_ok": wcQ <= wcG}


def _sweep_corpora():
    """(label, ops, elements) for the sweeps checked against the index BFS."""
    nott = ops_for(GroupDescriptor.parse("Nottingham,Fq[[t]]:q=5,N=3"))
    cases = [(f"Z/{n}", CyclicOps(n), None) for n in range(2, 33)] + [
        ("SL2(F_3)", ops_for(SL2_F3), None),
        ("N(F_5)/K_3", nott, None),
        ("Z/8 kernel", CyclicOps(8), [0, 2, 4, 6]),
    ]
    return [(label, ops, spectral.all_elements(ops) if elems is None
             else elems) for label, ops, elems in cases]


def test_bitset_sweep_matches_index_bfs():
    for label, ops, elems in _sweep_corpora():
        _, bits, diam = spectral._generating_unions(ops, elems, 2)
        got = list(zip(bits.tolist(), diam.tolist()))
        assert got == _reference_unions(ops, elems), label


def _loop_pair_classes(ops, elements):
    """Reference: the inverse-pair classes paired element by element with
    ops.key and ops.inv."""
    ekey = ops.key(ops.identity())
    seen = set()
    classes = []
    for x in elements:
        k = ops.key(x)
        if k == ekey or k in seen:
            continue
        xi = ops.inv(x)
        ki = ops.key(xi)
        seen.add(k)
        seen.add(ki)
        classes.append((x,) if ki == k else (x, xi))
    return classes


def test_inverse_pair_classes_match_the_element_loop():
    # the same classes in the same order with the same representatives; in
    # the last corpus the inverses of 1 and 2 lie outside the elements
    so3 = ops_for(GroupDescriptor.parse("SO:d=3,Zp:p=3,N=1"))
    for label, ops, elems in _sweep_corpora() + [
            ("SO3(F_3)", so3, spectral.all_elements(so3)),
            ("Z/12 non-subgroup", CyclicOps(12), [0, 1, 2, 1])]:
        got = spectral.inverse_pair_classes(ops, elems)
        want = _loop_pair_classes(ops, elems)
        assert [[ops.serialize(x) for x in cls] for cls in got] == \
            [[ops.serialize(x) for x in cls] for cls in want], label


@pytest.mark.parametrize("text", [
    "SL:d=2,Zp:p=3,N=1", "SL:d=2,Zp:p=3,N=3", "SO:d=3,Zp:p=3,N=1",
    "SL:d=2,Zp:p=3,N=40", "SL:d=2,Fq[[t]]:q=5,N=2",
    "Nottingham,Fq[[t]]:q=5,N=3", "Nottingham,Fq[[t]]:q=9,N=5", "cyclic"])
def test_stack_inverse_matches_inv(text):
    ops = CyclicOps(12) if text == "cyclic" else \
        ops_for(GroupDescriptor.parse(text))
    rng = np.random.default_rng(23)
    elems = [ops.identity()] + [ops.sample_uniform(rng) for _ in range(12)]
    got = ops.unstack(ops.inverse(ops.stack(elems)))
    assert [ops.serialize(x) for x in got] == \
        [ops.serialize(ops.inv(x)) for x in elems]


def test_bitset_sweep_on_a_full_word():
    # 64 vertices fill the uint64 vertex set; Z/64 with {+-1} has diameter 32
    step = np.roll(np.arange(64), -1)
    cls = np.stack([step, np.argsort(step)])
    got = spectral._union_eccentricities([cls], 64, 0, np.array([1]))
    assert got.tolist() == [32]


def _shift_rows(n, classes):
    """One (rows, n) permutation array per class of shifts v -> v + s."""
    return [np.stack([(np.arange(n) + s) % n for s in cls]) for cls in classes]


def _union_cases():
    """(n, classes of shifts, masks): 255 unions on 64 vertices, a count
    that is no multiple of 64; a sparse, strided mask view as on the
    quotient side of monotonicity_exhaustive; one-row classes (the
    involution 32, the directed +1 cycle); whole words of unions that stop
    growing in {0, 32} and in <16>, which leave the loop before the words
    of slower unions that sort after them; and classes inside <2>, where
    no union generates."""
    sparse = np.arange(1, 2**7, dtype=np.int64)[[3, 9, 10, 40, 77, 126]]
    return [
        (64, [(1, 63), (8, 56), (32,), (5, 59), (24, 40), (2, 62), (3, 61),
              (16, 48)], np.arange(1, 2**8, dtype=np.int64)),
        (21, [(1, 20), (3, 18), (7, 14), (2, 19), (6, 15), (9, 12),
              (4, 17)], np.repeat(sparse, 2)[::2]),
        (30, [(15,), (1,), (10, 20), (6, 24)],
         np.arange(1, 2**4, dtype=np.int64)),
        (64, [(32,), (16, 48), (1, 63)], np.repeat([1, 2, 4, 7], 64)),
        (8, [(2, 6), (4,)], np.arange(1, 4, dtype=np.int64)),
    ]


def _check_union_cases():
    for n, classes, masks in _union_cases():
        rows = _shift_rows(n, classes)
        want = []
        for m in masks.tolist():
            dist = _index_bfs([r for i, cls in enumerate(rows) if m >> i & 1
                               for r in cls.tolist()], 0)
            want.append(max(dist) if min(dist) >= 0 else -1)
        got = spectral._union_eccentricities(rows, n, 0, masks)
        assert got.tolist() == want, (n, classes)
    assert set(want) == {-1}


def test_union_eccentricities_match_index_bfs():
    _check_union_cases()


@pytest.mark.parametrize("words", [1, 3])
def test_union_eccentricities_across_block_boundaries(monkeypatch, words):
    # a byte budget of `words` words per block: a case of more words runs
    # in several blocks, the 255 unions on 64 vertices end in a partial
    # word, and with 3 words a block's words leave the loop at different
    # levels
    real = spectral._union_eccentricities

    def budgeted(cperms, n, root, masks):
        rows = sum(len(P) for P in cperms)
        monkeypatch.setattr(spectral, "SWEEP_BLOCK_BYTES",
                            rows * n * 8 * words)
        return real(cperms, n, root, masks)

    monkeypatch.setattr(spectral, "_union_eccentricities", budgeted)
    _check_union_cases()
    ops = CyclicOps(27)
    elems = spectral.all_elements(ops)
    _, bits, diam = spectral._generating_unions(ops, elems, 2)
    assert list(zip(bits.tolist(), diam.tolist())) == \
        _reference_unions(ops, elems)


@pytest.mark.parametrize("n, classes", [
    (19, [(s,) for s in range(1, 19)]),  # 2^18 - 1 unions of one-row classes
    (64, [(s, 64 - s) for s in range(1, 17)]),  # 64 vertices, 32 rows
])
def test_union_eccentricities_stay_within_the_block_budget(n, classes):
    # the largest shapes SWEEP_WORK_CAP admits at the sweeps' least factor
    # (2), a group of n elements holding at most n - 1 classes; besides one
    # level's gather, the peak holds only per-union arrays (the masks, their
    # order and counts, the output), charged 32 bytes per union
    c = len(classes)
    assert 2**c * n * 2 * c <= spectral.SWEEP_WORK_CAP
    rows = _shift_rows(n, classes)
    masks = np.arange(1, 2**c, dtype=np.int64)
    tracemalloc.start()
    try:
        out = spectral._union_eccentricities(rows, n, 0, masks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out[-1] >= 0
    assert peak <= spectral.SWEEP_BLOCK_BYTES + 4 * masks.nbytes, peak


def test_monotonicity_matches_index_bfs():
    nott = ops_for(GroupDescriptor.parse("Nottingham,Fq[[t]]:q=5,N=3"))
    # the folding map sends every set onto {+-1}: dQ = 3 beats small dG
    fold = (CyclicOps(6), CyclicOps(6), lambda x: 0 if x == 0 else
            1 if x <= 3 else 5)
    for G, Q, proj in (cyclic_pair(27, 9), congruence_pair(nott, 2), fold):
        assert monotonicity_exhaustive(G, Q, proj) == \
            _reference_monotonicity(G, Q, proj)
    assert monotonicity_exhaustive(*fold)["violations"]
    with pytest.raises(NotGenerating, match="projected set"):
        monotonicity_exhaustive(CyclicOps(4), CyclicOps(2), lambda x: 0)


def test_monotonicity_needs_every_projection_in_the_quotient():
    # Z/27's residues projected unreduced: 9..26 are no element of Z/9
    with pytest.raises(InvariantViolated, match="missing"):
        monotonicity_exhaustive(CyclicOps(27), CyclicOps(9), lambda x: x)


def test_cyclic_key_agrees_with_the_stack_keys():
    # an element is its own key on both surfaces, reduced or not
    ops = CyclicOps(12)
    for x in (0, 1, 11, 12, 13, 25):
        assert ops.key(x) == ops.keys(ops.stack([x]))[0] == x


def test_monotonicity_runs_one_quotient_bfs_per_image(monkeypatch):
    # Z/6 -> Z/3: the classes {1, 5} and {2, 4} both project onto {1, 2},
    # and {3} onto the identity, so the 5 generating sets of Z/6 have one
    # image between them, and the quotient BFS runs that one union only
    G, Q, proj = cyclic_pair(6, 3)
    masks = []
    real = spectral._union_eccentricities

    def spy(cperms, n, root, union_masks):
        masks.append(union_masks.tolist())
        return real(cperms, n, root, union_masks)

    monkeypatch.setattr(spectral, "_union_eccentricities", spy)
    rep = monotonicity_exhaustive(G, Q, proj)
    assert rep == _reference_monotonicity(G, Q, proj)
    assert rep["checked"] == 5 and masks[1] == [1]


# --- sandwich and profiles ---------------------------------------------------


def test_sandwich_holds_on_corpus():
    rng = np.random.default_rng(60)
    corpus = [
        (CyclicOps(6), [1]),
        (CyclicOps(10), [1, 3]),
        (CyclicOps(24), [1, 10]),
        (ops_for(SL2_F3), TRANSVECTIONS),
    ]
    for ops, gens in corpus:
        rep = spectral_report(ops, gens, l_max=30)
        inv_gap = 1.0 / (1.0 - rep.rho)
        assert rep.sandwich_lower <= inv_gap + 1e-9
        assert inv_gap <= rep.sandwich_upper + 1e-9
        devs = [float(x) for x in rep.profile]
        for l, dev in enumerate(devs):
            assert dev <= rep.rho**l + 1e-9
        assert all(devs[i + 1] <= devs[i] + 1e-12 for i in range(len(devs) - 1))


def test_exact_profile_z3():
    # two eigenvalues at -1/2 give sup deviation (2/3) 2^-l exactly
    g = build_graph(CyclicOps(3), [1], adjoin_identity=False)
    prof = mixing_profile(g, 8, exact=True)
    for l, dev in enumerate(prof):
        assert dev == Fraction(2, 3) / 2**l


def test_exact_profile_matches_float():
    g = build_graph(CyclicOps(24), [1, 10])
    exact = mixing_profile(g, 20, exact=True)
    approx = mixing_profile(g, 20, exact=False)
    for a, b in zip(exact, approx):
        assert abs(float(a) - b) < 1e-12


def _fraction_profile(graph, l_max):
    """Reference: one Fraction per vertex per step."""
    n = graph.order
    num = [0] * n
    num[graph.root] = 1
    den = 1
    out = []
    for l in range(l_max + 1):
        out.append(max(abs(Fraction(c, den) - Fraction(1, n)) for c in num))
        num = [sum(num[p[j]] for p in graph.perms) for j in range(n)]
        den *= len(graph.perms)
    return out


def test_exact_profile_matches_fraction_reference():
    nott = ops_for(GroupDescriptor.parse("Nottingham,Fq[[t]]:q=5,N=3"))
    rng = np.random.default_rng(64)
    graphs = [
        build_graph(CyclicOps(1), []),
        build_graph(CyclicOps(3), [1], adjoin_identity=False),
        build_graph(CyclicOps(5), [1], adjoin_identity=False),
        build_graph(CyclicOps(24), [1, 10]),
        build_graph(ops_for(SL2_F3), TRANSVECTIONS),
        build_graph(nott, [nott.sample_uniform(rng) for _ in range(2)]),
    ]
    for g in graphs:
        got = mixing_profile(g, 30, exact=True)
        assert all(type(x) is Fraction for x in got)
        assert got == _fraction_profile(g, 30)


def _limb_case(name):
    if name == "51 directions":
        return build_graph(CyclicOps(211), list(range(1, 26))), 30
    if name == "several limbs":
        return build_graph(CyclicOps(24), [1, 10]), 150
    if name == "ties on all limbs":
        # S = {0, 8, +-1, +-7} is fixed by x -> x + 8 and x -> -x, and so
        # is every law: each extreme sits at two vertices or more
        return build_graph(CyclicOps(16), [1, 7, 8]), 150
    if name == "trivial":
        return build_graph(CyclicOps(1), []), 200
    return build_graph(ops_for(SL2_F3), TRANSVECTIONS), 200


@pytest.mark.parametrize("name", ["51 directions", "several limbs",
                                  "ties on all limbs", "trivial", "SL2(F_3)"])
def test_limb_profile_matches_fraction_reference(name, monkeypatch):
    g, l_max = _limb_case(name)
    k = len(g.perms)
    bits = spectral._limb_bits(k)
    assert k * 2**bits < 2**63 <= k * 2 ** (bits + 1)
    seen = []  # the limb count of every step's numerators
    extremes = spectral._extreme_numerators

    def spy(num, b):
        # normalized digits, and the extremes of their Python-int values
        assert b == bits and (num >= 0).all()
        assert not (num[:-1] >> bits).any()
        values = _limb_values(num, bits)
        got = extremes(num, b)
        assert got == [max(values), min(values)]
        seen.append(len(num))
        return got

    monkeypatch.setattr(spectral, "_extreme_numerators", spy)
    got = mixing_profile(g, l_max, exact=True)
    assert all(type(x) is Fraction for x in got)
    assert got == _fraction_profile(g, l_max)
    limbs = [-(-(k**l).bit_length() // bits) for l in range(l_max + 1)]
    assert seen == limbs  # one more limb only when den needs it
    if name in ("51 directions", "several limbs", "SL2(F_3)"):
        assert limbs[-1] >= 3
    if name == "ties on all limbs":
        num = np.zeros(16, dtype=object)
        num[0] = 1
        for _ in range(l_max):
            num = num[g.perms].sum(axis=0)
            assert (num == num.max()).sum() >= 2
            assert (num == num.min()).sum() >= 2


def _limb_values(limbs, bits):
    return [sum(int(d) << (bits * i) for i, d in enumerate(col))
            for col in limbs.T]


def test_carry_passes_repeat_until_no_limb_overflows():
    # column 0: limb 0 carries 6 into a full limb 1, which carries 1 into
    # a full limb 2, which carries 1 into the top: three passes
    bits = spectral._limb_bits(7)
    full = (1 << bits) - 1
    limbs = np.array([[7 * full, 5], [full, 0], [full, full], [0, 3]],
                     dtype=np.int64)
    want = _limb_values(limbs, bits)
    spectral._carry(limbs, bits)
    assert _limb_values(limbs, bits) == want
    assert (limbs >= 0).all() and not (limbs[:-1] >> bits).any()
    assert limbs[:, 0].tolist() == [full - 6, 5, 0, 1]


@pytest.mark.parametrize("limbs", [
    [[5, 9, 2, 9], [1, 1, 1, 0]],  # the top limb ties for the largest
    [[5, 9, 2, 7], [1, 1, 0, 0]],  # ... and for the smallest
    [[4, 4, 4, 4], [2, 2, 2, 2]],  # every limb ties
    [[3], [0]],
])
def test_extreme_numerators_break_ties_downwards(limbs):
    num = np.array(limbs, dtype=np.int64)
    values = _limb_values(num, 60)
    assert spectral._extreme_numerators(num, 60) == [max(values),
                                                      min(values)]


def test_profile_work_counts_every_limb(monkeypatch):
    # the cap counts sum_l limbs(l) * n * k exactly: a cap at that work
    # passes, one unit below it refuses before any step
    g = build_graph(CyclicOps(24), [1, 10])
    n, k, l_max = g.order, len(g.perms), 400
    bits = spectral._limb_bits(k)
    work = sum(-(-(k**l).bit_length() // bits)
               for l in range(1, l_max + 1)) * n * k
    monkeypatch.setattr(spectral, "WALK_WORK_CAP", work)
    assert mixing_profile(g, l_max, exact=True) == _fraction_profile(g, l_max)
    monkeypatch.setattr(spectral, "WALK_WORK_CAP", work - 1)
    monkeypatch.setattr(spectral, "_extreme_numerators", None)  # no step
    with pytest.raises(BudgetExceeded, match="WALK_WORK_CAP"):
        mixing_profile(g, l_max, exact=True)


def test_profile_limbs_are_charged(monkeypatch):
    # the numerators, their next step, one gather and one carry array of
    # the last step's limbs, beside the graph, before the first step
    g = build_graph(CyclicOps(24), [1, 10])
    charged = []
    monkeypatch.setattr(spectral._bfs, "check_budget",
                        lambda *a, **kw: charged.append((a, kw)))
    mixing_profile(g, 150, exact=True)
    assert charged == [((24, 5), {"extra": 4 * 8 * 6 * 24})]
    monkeypatch.undo()
    monkeypatch.setenv("PROSK_BUDGET_MB", "0")
    monkeypatch.setattr(spectral, "_extreme_numerators", None)  # no step
    with pytest.raises(BudgetExceeded, match="PROSK_BUDGET_MB"):
        mixing_profile(g, 150, exact=True)
    assert mixing_profile(g, 150, exact=False)  # float mode is not charged


def test_long_exact_profile_is_refused_at_once():
    # l = 10^5 on 2184 elements would run for hours; the count alone
    # refuses it, without listing 10^5 limb counts
    desc = GroupDescriptor.parse("SL:d=2,Zp:p=13,N=1")
    g = build_graph(ops_for(desc), [element(desc, [[1, 1], [0, 1]]),
                                    element(desc, [[1, 0], [1, 1]])])
    assert g.order == 2184
    t0 = time.perf_counter()
    for l_max in (10**5, 10**12):
        with pytest.raises(BudgetExceeded, match="WALK_WORK_CAP"):
            mixing_profile(g, l_max, exact=True)
    assert time.perf_counter() - t0 < 0.5


def test_mixing_length_formula():
    assert mixing_length(0.5, 24) == int(np.ceil(10 * 2 * np.log(24)))
    assert mixing_length(0.9, 100) == int(np.ceil(10 * 10 * np.log(100)))


# --- quotient monotonicity and the extension bound ---------------------------


def test_monotonicity_exhaustive_cyclic():
    for big, small in ((8, 4), (9, 3), (16, 8)):
        G, Q, pr = cyclic_pair(big, small)
        rep = monotonicity_exhaustive(G, Q, pr)
        assert rep["mode"] == "exhaustive"
        assert rep["violations"] == []
        assert rep["worst_case_ok"]
        assert rep["checked"] > 0


def test_monotonicity_exhaustive_nottingham():
    ops = ops_for(GroupDescriptor.parse("Nottingham,Fq[[t]]:q=5,N=3"))
    G, Q, pr = congruence_pair(ops, 2)
    rep = monotonicity_exhaustive(G, Q, pr)
    assert rep["violations"] == [] and rep["worst_case_ok"]


def test_monotonicity_sampled_sl2():
    ops = ops_for(GroupDescriptor.parse("SL:d=2,Zp:p=3,N=2"))
    G, Q, pr = congruence_pair(ops, 1)
    rep = monotonicity_sampled(G, Q, pr, sets=6, seed=4)
    assert rep["violations"] == []
    assert rep["checked"] == 6


def test_extension_bound_z4():
    G, Q, pr = cyclic_pair(4, 2)
    rep = extension_bound_check(G, Q, pr, [0, 2], exhaustive=True)
    assert rep["violations"] == []
    assert rep["worst_case_Q"] == 1 and rep["worst_case_K"] == 1
    assert rep["bound"] == 4.0
    assert rep["max_diam_G"] == 2


def test_extension_bound_trivial_kernel():
    G = CyclicOps(4)
    rep = extension_bound_check(G, G, lambda a: a, [0], exhaustive=True)
    assert rep["violations"] == []
    assert rep["bound"] == rep["worst_case_Q"]


# --- random walks ------------------------------------------------------------


def test_walk_statistics_small_nottingham():
    ops = ops_for(GroupDescriptor.parse("Nottingham,Fq[[t]]:q=5,N=3"))
    rng = np.random.default_rng(61)
    gens = [ops.sample_uniform(rng) for _ in range(3)]
    w = walk_statistics(ops, gens, trials=20000, seed=8,
                        coordinates="NottinghamCoeffs")
    assert w.order == 25
    assert w.steps == w.schedule == mixing_length(w.rho, 25)
    assert w.sup_dev_exact < 1e-6
    assert abs(w.sup_dev_mc - w.sup_dev_exact) < 3 / np.sqrt(w.trials)
    assert len(w.marginals) == 2  # coefficients A2, A3
    for m in w.marginals:
        assert m["support"] == 5
        assert m["tv_mc_vs_exact"] < 3 / np.sqrt(w.trials)


def test_walk_schedule_over_cap_exits_3(monkeypatch, capsys):
    # a gap near 1 schedules ~10^10 steps; the walk must refuse, not spin
    import time

    monkeypatch.setattr(spectral, "spectral_gap", lambda graph, **kw: 1.0 - 1e-9)
    ops = ops_for(GroupDescriptor.parse("Nottingham,Fq[[t]]:q=5,N=3"))
    rng = np.random.default_rng(61)
    gens = [ops.sample_uniform(rng) for _ in range(3)]
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="WALK_WORK_CAP"):
        walk_statistics(ops, gens, trials=20000, seed=8)
    assert time.perf_counter() - t0 < 1.0
    rc = main(["walk", "--group", "Nottingham,Fq[[t]]:q=5,N=3", "--gens",
               "sampled:3:7", "--l", "30", "--trials", "4000", "--seed", "7",
               "--stats-coords", "NottinghamCoeffs"])
    assert rc == 3
    assert "WALK_WORK_CAP" in capsys.readouterr().err


def test_second_kind_digits():
    w = walk_statistics(cyclic_group(3, 3), [1, 7], trials=5000, seed=9,
                        coordinates="SecondKind")
    assert [m["support"] for m in w.marginals] == [3, 3, 3]


def test_first_kind_needs_kernel_walk():
    ops = ops_for(GroupDescriptor.parse("SL:d=2,Zp:p=3,N=2"))
    rng = np.random.default_rng(62)
    gens = [ops.sample_uniform(rng) for _ in range(3)]
    with pytest.raises(UsageError):
        walk_statistics(ops, gens, trials=100, steps=4, seed=1,
                        coordinates="FirstKind")


def test_first_kind_on_kernel():
    desc = GroupDescriptor.parse("SL:d=2,Zp:p=3,N=2")
    ops = ops_for(desc)
    rng = np.random.default_rng(11)
    gens = [ops.sample_kernel(1, rng) for _ in range(4)]
    w = walk_statistics(ops, gens, trials=5000, seed=10, order=27,
                        coordinates="FirstKind")
    assert w.order == 27
    assert [m["support"] for m in w.marginals] == [3, 3, 3, 3]


@pytest.mark.parametrize("text,depth,order", [
    ("SL:d=2,Zp:p=3,N=2", 1, 27),
    ("SL:d=2,Zp:p=3,N=21", 20, 27),  # Python-int stack past the int64 guard
    # coefficient planes, k = 2: eight kernel draws generate all of K_1
    ("SL:d=2,Fq[[t]]:q=9,N=2", 1, 729),
])
def test_first_kind_codes_read_the_entries(text, depth, order):
    # the codes of (g - 1)/P against the entries of each element's matrix
    ops = ops_for(GroupDescriptor.parse(text))
    ring = ops.descriptor.ring
    q = ring.field.q
    rng = np.random.default_rng(12)
    g = build_graph(ops, [ops.sample_kernel(depth, rng) for _ in range(8)],
                    order=order)
    codes, supports, _ = spectral._coordinate_codes(g, "FirstKind")
    want = []
    for i in range(g.order):
        mat = ops.mat(g.element(i))
        if ring.kind == "Zp":
            want.append([(e - (r == c)) % ring.modulus // ring.p
                         for r, row in enumerate(mat)
                         for c, e in enumerate(row)])
        else:  # the identity only moves the dropped slot t^0
            want.append([sum(x * q**j for j, x in enumerate(e[1:]))
                         for row in mat for e in row])
    assert codes.tolist() == want
    assert supports == [q ** (ring.N - 1)] * 4


# --- the walk's gathers against the indexing they replace --------------------


def _indexed_walk(graph, steps, trials, seed):
    """(states, law) after l = 0..steps steps by fancy indexing, as the walk
    was first written: perms[d, state] and v[perms].mean(axis=0), with the
    directions d from the walk's own draws."""
    k = len(graph.perms)
    rng = np.random.default_rng(seed)
    state = np.full(trials, graph.root, dtype=np.int64)
    law = np.zeros(graph.order)
    law[graph.root] = 1.0
    yield state, law
    for _ in range(steps):
        state = graph.perms[spectral._directions(rng, k, trials), state]
        law = law[graph.perms].mean(axis=0)
        yield state, law


def _walk_graph(text, lazy):
    if text == "Z/200":
        return build_graph(CyclicOps(200), [1, 7], adjoin_identity=lazy)
    ops = ops_for(GroupDescriptor.parse(text))
    rng = np.random.default_rng(5)
    return build_graph(ops, [ops.sample_uniform(rng) for _ in range(3)],
                       adjoin_identity=lazy)


@pytest.mark.parametrize("text,order,lazy", [
    pytest.param(text, order, lazy, id=f"{text}-{order}" + ("" if lazy
                                                           else "-bare"))
    for text, order, lazy in [
        ("Z/200", 200, True),
        ("Z/200", 200, False),
        ("SL:d=2,Zp:p=3,N=3", 17496, True),
        ("Nottingham,Fq[[t]]:q=5,N=3", 25, True),
        ("Nottingham,Fq[[t]]:q=5,N=3", 25, False),
    ]
])
def test_walk_gathers_are_bit_identical_to_indexing(text, order, lazy):
    # both branches of walk_matvec: the lazy walk copies its identity row,
    # the bare walk gathers every row
    g = _walk_graph(text, lazy)
    assert g.order == order
    assert g.lazy == lazy
    assert (g.perms[0] == np.arange(order)).all() == lazy
    steps, trials, seed = 30, 20_000, 3
    ref = list(_indexed_walk(g, steps, trials, seed))
    for (l, state, law), (want_state, want_law) in zip(
            spectral._walk(g, steps, trials, seed), ref, strict=True):
        assert (state == want_state).all(), l
        assert (law == want_law).all(), l
    n = g.order
    want_rows = []
    for l, (state, law) in enumerate(ref):
        emp = np.bincount(state, minlength=n) / trials
        want_rows.append({
            "l": l,
            "sup_dev_mc": float(np.abs(emp - 1.0 / n).max()),
            "tv_mc": float(0.5 * np.abs(emp - 1.0 / n).sum()),
            "sup_dev_exact": float(np.abs(law - 1.0 / n).max()),
            "tv_exact": float(0.5 * np.abs(law - 1.0 / n).sum()),
        })
    out = walk_series(g.ops, None, l_max=steps, trials=trials, seed=seed,
                      graph=g)
    assert out["rows"] == want_rows
    assert mixing_profile(g, steps, exact=False) == [
        float(np.abs(law - 1.0 / n).max()) for _, law in ref]


class _UnitStream:
    """A bit generator whose raw words carry given units: each random_raw
    call takes the next batch of units and repeats it to fill the words."""

    def __init__(self, unit, batches):
        self.unit = unit
        self.batches = list(batches)
        self.calls = 0

    def random_raw(self, words):
        self.calls += 1
        units = np.resize(np.asarray(self.batches.pop(0), dtype=self.unit),
                          words * 8 // self.unit.itemsize)
        return units.view(np.uint64)


@pytest.mark.parametrize("k,width", [
    (1, 8), (2, 8), (7, 8), (36, 8), (255, 8), (256, 8), (257, 16),
    (300, 16),
])
def test_directions_are_exactly_uniform(k, width):
    # every w-bit unit once, in a shuffled order: each direction comes out
    # exactly q = 2^w // k times, and the rejected positions are drawn again
    # (a round of rejected units, then accepted ones)
    unit = spectral._unit(k)
    assert 8 * unit.itemsize == width
    q = 2**width // k
    limit = k * q
    units = np.random.default_rng(k).permutation(2**width)
    rejected = np.arange(limit, 2**width)
    redrawn = np.arange(len(rejected)) * 5 % limit
    stream = _UnitStream(unit, [units, rejected, redrawn])
    d = spectral._directions(SimpleNamespace(bit_generator=stream), k,
                             2**width)
    assert d.dtype == unit and len(d) == 2**width
    kept = units < limit
    assert (np.bincount(d[kept], minlength=k) == q).all()
    assert (d[~kept] == redrawn // q).all()
    assert stream.calls == (0 if k == 1 else 3 if len(rejected) else 1)


@pytest.mark.parametrize("k", [7, 300])
def test_directions_pass_a_chi_square_check(k):
    d = spectral._directions(np.random.default_rng(2026), k, 10**6)
    counts = np.bincount(d, minlength=k)
    assert len(counts) == k
    expect = 10**6 / k
    chi2 = float(((counts - expect) ** 2 / expect).sum())
    assert chi2 < (k - 1) + 6 * np.sqrt(2 * (k - 1))  # ~6 sigma


def test_bad_walk_sizes_are_refused_before_the_graph(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("build_graph was called")

    graph = build_graph(CyclicOps(9), [1])
    monkeypatch.setattr(spectral, "build_graph", refuse)
    z = CyclicOps(9)
    for call in (lambda: walk_series(z, [1], l_max=-1),
                 lambda: walk_series(z, [1], l_max=3, trials=0),
                 lambda: walk_statistics(z, [1], steps=-1),
                 lambda: walk_statistics(z, [1], trials=-5),
                 lambda: spectral_report(z, [1], l_max=-2),
                 lambda: mixing_profile(graph, -1)):
        with pytest.raises(UsageError):
            call()


def test_walk_batch_is_charged_against_the_budget(monkeypatch):
    # the batch's per-trial arrays go through PROSK_BUDGET_MB before a step
    graph = build_graph(CyclicOps(24), [1])
    monkeypatch.setenv("PROSK_BUDGET_MB", "1")
    with pytest.raises(BudgetExceeded, match="PROSK_BUDGET_MB=1"):
        walk_series(None, None, l_max=2, trials=10**6, graph=graph)
    assert walk_series(None, None, l_max=2, trials=10**4, graph=graph)["rows"]


def test_walk_series_deterministic():
    z = CyclicOps(30)
    a = walk_series(z, [1, 7], l_max=25, trials=4000, seed=5)
    b = walk_series(z, [1, 7], l_max=25, trials=4000, seed=5)
    assert a == b
    ls = [r["l"] for r in a["rows"]]
    assert ls[0] == 0 and ls[-1] == 25
    assert a["exact"]
    # late checkpoints are closer to uniform than early ones
    assert a["rows"][-1]["tv_exact"] < 0.05 < a["rows"][1]["tv_exact"]


def test_walk_series_refuses_bad_checkpoints():
    for checkpoints in ([], [3, 26], [-1]):
        with pytest.raises(UsageError, match="empty or outside"):
            walk_series(CyclicOps(30), [1, 7], l_max=25, trials=10,
                        checkpoints=checkpoints)


# --- the batched Z/p^N stacks ------------------------------------------------


def test_fast_path_matches_scalar():
    # a group of 17,496 elements and its level-2 image, both enumerated on
    # int64 matrices (the stack layout depends on the ring, not the order)
    desc = GroupDescriptor.parse("SL:d=2,Zp:p=3,N=3")
    ops = ops_for(desc)
    rng = np.random.default_rng(63)
    gens = [ops.sample_uniform(rng) for _ in range(2)]
    g = build_graph(ops, gens)  # order 17496
    assert g.order == 17496
    assert (g.dist >= 0).all()
    rho = spectral_gap(g)
    assert 0.0 < rho < 1.0
    # its level-2 projection must agree on the quotient walk
    from prosk.matgroups import project

    small = ops_for(desc.truncated(2))
    sg = build_graph(small, [project(x, 2) for x in gens])
    assert sg.order == 648
    assert diameter_bfs(small, [project(x, 2) for x in gens]) == sg.diameter
    assert sg.diameter <= g.diameter


def test_spectral_suite_records_violated_sandwich(monkeypatch):
    # a gap of 1 - 1e-9 breaks the diameter/gap sandwich on every corpus
    # graph; the suite must list that as a failed property, not abort.  The
    # bad gap is confined to spectral_report: the walk property would
    # otherwise schedule ~1e9 steps from it.
    report = spectral.spectral_report

    def report_with_bad_gap(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(spectral, "spectral_gap", lambda graph, **kw: 1.0 - 1e-9)
            return report(*args, **kwargs)

    monkeypatch.setattr(spectral, "spectral_report", report_with_bad_gap)
    rep = verify.run_suite("spectral", seed=0, scale=0.2)
    assert not rep["passed"]
    props = {p["property"]: p for p in rep["properties"]}
    sandwich = props["diameter/gap sandwich plus pointwise rho^l mixing bound"]
    assert sandwich["checked"] == sandwich["failed"] == 5
    assert all("sandwich violated" in f["error"] for f in sandwich["failures"])
    assert sum(p["failed"] for p in rep["properties"]) == 5


# --- the shared walk, law and draw loops -------------------------------------


def test_walk_statistics_is_the_last_row_of_walk_series():
    # one graph, one seed: both read the same Monte Carlo batch and law
    ops = ops_for(GroupDescriptor.parse("Nottingham,Fq[[t]]:q=5,N=4"))
    graph = build_graph(ops, [ops.deserialize(c) for c in ([1, 0, 2], [0, 3, 1])])
    L = 23
    w = walk_statistics(ops, None, steps=L, trials=3000, seed=4, graph=graph)
    row = walk_series(ops, None, l_max=L, trials=3000, seed=4,
                      graph=graph)["rows"][-1]
    assert row["l"] == L
    for field in ("sup_dev_mc", "tv_mc", "sup_dev_exact", "tv_exact"):
        assert getattr(w, field) == row[field], field


def _plain_laws(graph, steps):
    """The float law after l = 0..steps steps, one `walk_matvec` per step,
    never stopping."""
    v = np.zeros(graph.order)
    v[graph.root] = 1.0
    out = [v]
    for _ in range(steps):
        v = graph.walk_matvec(v)
        out.append(v)
    return out


@pytest.mark.parametrize("n,gens,lazy,settles", [
    (24, [1, 10], True, 130),  # law 130 is law 129, bit for bit
    (4, [1], False, None),  # a bipartite walk: the law alternates forever
])
def test_float_laws_stop_at_their_fixed_point(n, gens, lazy, settles,
                                              monkeypatch):
    g = build_graph(CyclicOps(n), gens, adjoin_identity=lazy)
    steps, trials, seed = 300, 500, 2
    laws = _plain_laws(g, steps)
    bits = [v.view(np.uint64) for v in laws]
    repeats = [l for l in range(1, steps + 1)
               if (bits[l] == bits[l - 1]).all()]
    assert (repeats[0] if repeats else None) == settles
    calls = []
    matvec = spectral.CayleyGraph.walk_matvec
    monkeypatch.setattr(spectral.CayleyGraph, "walk_matvec",
                        lambda self, v: calls.append(1) or matvec(self, v))
    assert mixing_profile(g, steps, exact=False) == [
        float(np.abs(v - 1.0 / n).max()) for v in laws]
    assert len(calls) == (settles or steps)

    states = [s for s, _ in _indexed_walk(g, steps, trials, seed)]
    want = []
    for l, (state, law) in enumerate(zip(states, laws)):
        emp = np.abs(np.bincount(state, minlength=n) / trials - 1.0 / n)
        dev = np.abs(law - 1.0 / n)
        want.append({"l": l, "sup_dev_mc": float(emp.max()),
                     "tv_mc": float(0.5 * emp.sum()),
                     "sup_dev_exact": float(dev.max()),
                     "tv_exact": float(0.5 * dev.sum())})
    calls.clear()
    series = walk_series(g.ops, None, l_max=steps, trials=trials, seed=seed,
                         checkpoints=range(steps + 1), graph=g)
    assert series["rows"] == want
    assert len(calls) == (settles or steps)
    if not lazy:
        return  # a bipartite walk has no mixing schedule
    w = walk_statistics(g.ops, None, steps=steps, trials=trials, seed=seed,
                        graph=g)
    emp = np.bincount(states[-1], minlength=n) / trials
    assert (w.sup_dev_mc, w.tv_mc, w.sup_dev_exact, w.tv_exact) == (
        want[-1]["sup_dev_mc"], want[-1]["tv_mc"],
        want[-1]["sup_dev_exact"], want[-1]["tv_exact"])
    assert w.scaled_sup_exact == float(n * want[-1]["sup_dev_exact"])
    assert w.mc_vs_exact_sup == float(np.abs(emp - laws[-1]).max())
    assert w.mc_vs_exact_tv == float(0.5 * np.abs(emp - laws[-1]).sum())


def test_float_profile_is_the_walk_series_exact_column():
    graph = build_graph(CyclicOps(40), [1, 7])
    series = walk_series(None, None, l_max=30, trials=10, seed=0,
                         checkpoints=range(31), graph=graph)
    assert series["exact"]
    assert mixing_profile(graph, 30, exact=False) == [
        r["sup_dev_exact"] for r in series["rows"]]


def test_sampled_surveys_frozen():
    # recorded before the draw loops were merged; the seeded draws must not move
    sv = worst_case_diameter(CyclicOps(60), mode="sampled", trials=25, seed=0)
    assert (sv.value, sv.witness, sv.examined, sv.generating) == (
        15, [34, 43], 25, 19)
    sl9 = ops_for(GroupDescriptor.parse("SL:d=2,Zp:p=3,N=2"))
    sv = worst_case_diameter(sl9, mode="sampled", trials=25, seed=3)
    assert (sv.value, sv.witness, sv.generating) == (
        15, [[[0, 1], [8, 0]], [[1, 5], [7, 0]]], 22)

    rep = monotonicity_sampled(*cyclic_pair(64, 8), sets=8, seed=2)
    assert [(r["diam_G"], r["diam_Q"]) for r in rep["pairs"]] == [
        (5, 2), (4, 2), (3, 2), (8, 2), (6, 2), (4, 4), (5, 2), (4, 2)]
    rep = monotonicity_sampled(*congruence_pair(sl9, 1), sets=6, seed=4)
    assert [(r["diam_G"], r["diam_Q"]) for r in rep["pairs"]] == [
        (5, 2), (5, 2), (6, 3), (8, 3), (6, 3), (9, 3)]

    rows = spectral.quotient_diameter_series(
        GroupDescriptor.parse("Nottingham,Fq[[t]]:q=5,N=6"), [2, 3, 4], seed=2)
    assert [(r["order"], r["diameter"], r["sets"]) for r in rows] == [
        (5, 2, 3), (25, 4, 3), (125, 4, 3)]
    rows = spectral.quotient_diameter_series(
        GroupDescriptor.parse("SL:d=2,Zp:p=3,N=2"), [1, 2], sets_per_level=4,
        set_size=2, seed=5)
    assert [(r["order"], r["diameter"], r["sets"]) for r in rows] == [
        (24, 3, 4), (648, 9, 4)]


def test_sweeps_check_the_cap_before_enumerating(monkeypatch):
    # SL2(Z/3^4) has 472,392 elements: the order alone must refuse the sweep
    big = ops_for(GroupDescriptor.parse("SL:d=2,Zp:p=3,N=4"))
    enumerate_all = spectral.all_elements

    def refuse_big(ops):
        if ops is big:
            raise AssertionError("the whole group was enumerated")
        return enumerate_all(ops)

    monkeypatch.setattr(spectral, "all_elements", refuse_big)
    sweeps = (
        lambda: worst_case_diameter(big),
        lambda: monotonicity_exhaustive(*congruence_pair(big, 1)),
        lambda: extension_bound_check(big, CyclicOps(2), lambda g: 0,
                                      [big.identity()], exhaustive=True),
    )
    for sweep in sweeps:
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="SWEEP_ELEMENT_CAP"):
            sweep()
        assert time.perf_counter() - t0 < 1.0


def test_spectral_report_refuses_a_group_past_conv_cap(monkeypatch):
    # SL2(F_9[[t]]/t^2) has 524,880 elements, past CONV_CAP: refused from
    # the order alone, before any graph is built
    big = ops_for(GroupDescriptor.parse("SL:d=2,Fq[[t]]:q=9,N=2"))
    assert big.group_order() > spectral.CONV_CAP

    def refuse(*args, **kwargs):
        raise AssertionError("build_graph was called")

    monkeypatch.setattr(spectral, "build_graph", refuse)
    with pytest.raises(BudgetExceeded, match="convolution vector of 524880"):
        spectral.spectral_report(big, [big.identity()])


def test_spectral_cli_past_conv_cap_exits_3_quickly(capsys):
    t0 = time.perf_counter()
    rc = main(["spectral", "--group", "SL:d=2,Fq[[t]]:q=9,N=2",
               "--gens", "sampled:3:1", "--l", "10", "--seed", "1"])
    assert rc == 3
    assert time.perf_counter() - t0 < 10.0
    assert "convolution vector" in capsys.readouterr().err
