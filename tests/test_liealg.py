import copy

import numpy as np
import pytest

from prosk import liealg, matgroups, nottingham
from prosk.liealg import LieAlgebra, bracket, bracket_decompose, from_matrix
from prosk.matgroups import GroupDescriptor, ops_for
from prosk.rings import Ring

SL2 = LieAlgebra("sl", 2, Ring("Zp", 3, 3, 5))
SL3 = LieAlgebra("sl", 3, Ring("Zp", 5, 5, 3))
SO3 = LieAlgebra("so", 3, Ring("Zp", 5, 5, 3))
SO5 = LieAlgebra("so", 5, Ring("Zp", 3, 3, 3))
SP4 = LieAlgebra("sp", 4, Ring("Zp", 3, 3, 3))
SL2T = LieAlgebra("sl", 2, Ring("FqT", 0, 9, 3))

ALL = [SL2, SL3, SO3, SO5, SP4, SL2T]


def test_dimensions():
    assert SL2.dim == 3
    assert SL3.dim == 8
    assert SO3.dim == 3
    assert SO5.dim == 10
    assert SP4.dim == 10


@pytest.mark.parametrize("alg", ALL)
def test_vector_space_laws(alg):
    rng = np.random.default_rng(20)
    for _ in range(30):
        X, Y = alg.random(rng), alg.random(rng)
        assert X + Y == Y + X
        assert (X - Y) + Y == X
        assert X + alg.zero() == X
        assert (X + (-X)).is_zero()


@pytest.mark.parametrize("alg", ALL)
def test_bracket_bilinear_antisymmetric(alg):
    rng = np.random.default_rng(21)
    ring = alg.ring
    for _ in range(25):
        X, Y, Z = (alg.random(rng) for _ in range(3))
        assert (bracket(X, Y) + bracket(Y, X)).is_zero()
        assert bracket(X + Y, Z) == bracket(X, Z) + bracket(Y, Z)
        c = ring.rand(rng)
        assert bracket(X.scale(c), Y) == bracket(X, Y).scale(c)


@pytest.mark.parametrize("alg", ALL)
def test_jacobi(alg):
    rng = np.random.default_rng(22)
    for _ in range(20):
        X, Y, Z = (alg.random(rng) for _ in range(3))
        s = (
            bracket(bracket(X, Y), Z)
            + bracket(bracket(Y, Z), X)
            + bracket(bracket(Z, X), Y)
        )
        assert s.is_zero()


@pytest.mark.parametrize("alg", ALL)
def test_matrix_roundtrip(alg):
    rng = np.random.default_rng(23)
    for _ in range(25):
        X = alg.random(rng)
        assert from_matrix(alg, X.to_matrix()) == X


def _eye(ring, d):
    return [[ring.one if i == j else ring.zero for j in range(d)]
            for i in range(d)]


def _mat_mul(ring, A, B):
    """The payload matrix product AB, one ring op at a time."""
    out = []
    for row in A:
        out.append([])
        for col in zip(*B):
            acc = ring.zero
            for a, b in zip(row, col):
                acc = ring.add(acc, ring.mul(a, b))
            out[-1].append(acc)
    return out


def test_bracket_matches_matrix_commutator():
    rng = np.random.default_rng(24)
    for alg in (SL2, SO5, SP4, SL2T):
        ring = alg.ring
        for _ in range(20):
            X, Y = alg.random(rng), alg.random(rng)
            A, B = X.to_matrix(), Y.to_matrix()
            AB = _mat_mul(ring, A, B)
            BA = _mat_mul(ring, B, A)
            diff = tuple(
                tuple(ring.sub(a, b) for a, b in zip(ra, rb))
                for ra, rb in zip(AB, BA)
            )
            assert bracket(X, Y).to_matrix() == diff


# --- the pair decomposition --------------------------------------------------


def _check_resums(alg, rng, draws):
    """bracket_decompose of random X gives at most `pairs_bound()` pairs,
    whose brackets sum to X."""
    bound = liealg._ops(alg).pairs_bound()
    for _ in range(draws):
        X = alg.random(rng)
        pairs = bracket_decompose(X)
        assert len(pairs) <= bound
        acc = alg.zero()
        for a, b in pairs:
            acc = acc + bracket(a, b)
        assert acc == X


@pytest.mark.parametrize("alg", ALL)
def test_bracket_decompose_resums(alg):
    _check_resums(alg, np.random.default_rng(25), 80)


def test_bracket_decompose_zero():
    assert bracket_decompose(SL2.zero()) == []


# --- depth-shifted commutator lifting ----------------------------------------


@pytest.mark.parametrize(
    "desc_text,n,m",
    [
        ("SL:d=2,Zp:p=3,N=6", 1, 2),
        ("SL:d=2,Zp:p=3,N=6", 2, 3),
        ("SO:d=3,Zp:p=5,N=5", 1, 2),
        ("Sp:d=4,Zp:p=3,N=5", 2, 2),
        ("SL:d=3,Fq[[t]]:q=5,N=6", 1, 2),
    ],
)
def test_group_oracle_refines(desc_text, n, m):
    desc = GroupDescriptor.parse(desc_text)
    ops = ops_for(desc)
    N = desc.ring.N
    rng = np.random.default_rng(26)
    for _ in range(25):
        r = ops.sample_kernel(n + m, rng)
        pairs = ops.oracle(r, n, m)
        assert len(pairs) <= ops.pairs_bound()
        acc = ops.identity()
        for a, b in pairs:
            assert ops.depth(a) >= n and ops.depth(b) >= m
            acc = ops.mul(acc, ops.commutator(a, b))
        gain = min(n + m + min(n, m), N)
        assert ops.depth(ops.mul(ops.inv(acc), r)) >= gain


@pytest.mark.parametrize("desc_text", [
    "SL:d=2,Zp:p=3,N=8",
    "SO:d=3,Zp:p=3,N=9",
    "Sp:d=4,Zp:p=3,N=5",
    "SL:d=3,Fq[[t]]:q=5,N=6",
    "Nottingham,Fq[[t]]:q=5,N=16",
])
def test_oracle_clips_at_truncation(desc_text):
    # past the truncation (n + m < N < 2n + m) the window clips at N: the
    # pairs of the facade's oracle and of the module oracle behind it
    # multiply to r exactly
    desc = GroupDescriptor.parse(desc_text)
    ops = ops_for(desc)
    N = desc.ring.N
    module_oracle = (nottingham.commutator_pairs
                     if desc.family == "Nottingham"
                     else liealg.commutator_decompose)
    levels = [(n, m) for n in range(1, N) for m in range(n, 2 * n + 1)
              if n + m < N < 2 * n + m and ops.oracle_admissible(n, m)]
    assert levels
    rng = np.random.default_rng(27)
    for n, m in levels:
        for _ in range(4):
            r = ops.sample_kernel(n + m, rng)
            for oracle in (ops.oracle, module_oracle):
                pairs = oracle(r, n, m)
                assert len(pairs) <= ops.pairs_bound()
                acc = ops.identity()
                for a, b in pairs:
                    assert ops.depth(a) >= n and ops.depth(b) >= m
                    acc = ops.mul(acc, ops.commutator(a, b))
                assert acc == r, (n, m)


def _reduce_level(ring, a, m):
    """The payload a's canonical representative mod pi^m."""
    if ring.kind == "Zp":
        return a % ring.p**m
    return a[:m] + (0,) * (ring.N - m)


def _shift(ring, a, k):
    """The payload a times pi^k."""
    if ring.kind == "Zp":
        return a * ring.p**k % ring.modulus
    return ((0,) * k + a[: ring.N - k]) if k < ring.N else ring.zero


def _mod(X, l):
    """X with every coordinate reduced mod pi^l."""
    ring = X.algebra.ring
    return X.algebra.from_coords(
        {k: _reduce_level(ring, v, l) for k, v in X.coords.items()})


@pytest.mark.parametrize("alg", [
    LieAlgebra("sl", 3, Ring("Zp", 3, 3, 6)),
    LieAlgebra("so", 5, Ring("Zp", 5, 5, 4)),
    LieAlgebra("sp", 4, Ring("Zp", 3, 3, 6)),
    LieAlgebra("sl", 3, Ring("FqT", 0, 5, 4)),
], ids=LieAlgebra.describe)
def test_lift_linearize_roundtrip(alg):
    """lift(X, l) is a group element, I + pi^l X mod pi^(2l): linearize
    recovers X to its precision pi^l."""
    rng = np.random.default_rng(40)
    for l in range(1, alg.ring.N // 2 + 1):
        for _ in range(15):
            X = alg.random(rng)
            g = liealg.lift(X, l)
            assert ops_for(g.descriptor).is_member(g.stack).all()
            assert _mod(liealg.linearize(g, l), l) == _mod(X, l)


# --- internal checks are raised, so they hold under python -O -----------------


def test_decomposition_checks_raise(monkeypatch):
    from prosk.errors import InvariantViolated

    X = SL3.random(np.random.default_rng(32))
    assert not X.is_zero()
    # the decomposition runs from the plan, not through `bracket`: a plan
    # whose left members are all zero cannot reproduce X
    plan = copy.copy(liealg._plan("sl", 3, SL3.ring))
    plan.D = np.zeros_like(plan.D)
    monkeypatch.setitem(liealg._PLAN_CACHE, ("sl", 3, SL3.ring), plan)
    with pytest.raises(InvariantViolated, match="reproduce its input"):
        bracket_decompose(X)


def test_residue_draws_reach_every_field_element():
    # over F_9[[t]] a residue coordinate is any constant of F_9, not only
    # the F_3-points that Z -> F_9 reaches
    rng = np.random.default_rng(24)
    codes = set()
    for _ in range(20):
        for pay in SL2T.random(rng, residue_only=True).coords.values():
            assert pay[1:] == (0, 0)
            codes.add(pay[0])
    assert codes == set(range(1, 9))


# --- the per-algebra plan ----------------------------------------------------


# The sl_2 and so_3 maps D (slot, coordinate, basis) of the hand-written
# decompositions the plans were once built from, read off those plans over
# every ring below and written mod the plan's modulus (-1 for p^N - 1).  The
# elimination must keep them: they fix every SL2 and SO3 oracle pair.
RECORDED_D = {
    ("sl", 2): [[[0, 0, 0], [0, -1, 0], [0, 0, 1]],
                [[0, 1, 0], [0, 0, 0], [0, 0, 0]]],
    ("so", 3): [[[0, 0, 1], [0, 0, 0], [0, 0, 0]],
                [[0, 0, -1], [0, 0, -1], [0, 1, 0]]],
}


@pytest.mark.parametrize("ring", [
    Ring("Zp", 3, 3, 6), Ring("Zp", 3, 3, 8), Ring("Zp", 3, 3, 9),
    Ring("Zp", 5, 5, 12),
    Ring("Zp", 3, 3, 20),  # past the int64 guard
    Ring("FqT", 0, 9, 4), Ring("FqT", 0, 25, 4)], ids=Ring.describe)
@pytest.mark.parametrize("family,d", list(RECORDED_D))
def test_sl2_and_so3_plans_keep_the_recorded_maps(family, d, ring):
    plan = liealg._plan(family, d, ring)
    want = [[[x % plan.mod for x in row] for row in Dk]
            for Dk in RECORDED_D[family, d]]
    assert plan.D.tolist() == want


PLAN_ALGEBRAS = [
    LieAlgebra("sl", 2, Ring("Zp", 3, 3, 6)),
    LieAlgebra("sl", 3, Ring("Zp", 5, 5, 4)),
    LieAlgebra("sl", 4, Ring("Zp", 3, 3, 5)),
    LieAlgebra("sl", 5, Ring("Zp", 5, 5, 3)),
    LieAlgebra("sl", 3, Ring("Zp", 2, 2, 6)),
    LieAlgebra("sl", 4, Ring("Zp", 2, 2, 5)),
    LieAlgebra("so", 3, Ring("Zp", 3, 3, 9)),
    LieAlgebra("so", 4, Ring("Zp", 5, 5, 4)),
    LieAlgebra("so", 5, Ring("Zp", 3, 3, 6)),
    LieAlgebra("so", 6, Ring("Zp", 3, 3, 4)),
    LieAlgebra("sp", 4, Ring("Zp", 3, 3, 6)),
    LieAlgebra("sp", 6, Ring("Zp", 5, 5, 3)),
    LieAlgebra("sp", 8, Ring("Zp", 3, 3, 3)),
    LieAlgebra("sl", 3, Ring("FqT", 0, 5, 4)),
    LieAlgebra("sl", 3, Ring("FqT", 0, 9, 3)),
    LieAlgebra("sl", 3, Ring("FqT", 0, 25, 3)),
    LieAlgebra("sl", 2, Ring("Zp", 3, 3, 20)),  # past the int64 guard
]


@pytest.mark.parametrize("alg", PLAN_ALGEBRAS, ids=LieAlgebra.describe)
def test_plan_pairs_resum_exactly(alg):
    _check_resums(alg, np.random.default_rng(41), 20)


@pytest.mark.parametrize("alg", [
    LieAlgebra("sl", 2, Ring("Zp", 2, 2, 5)),
    LieAlgebra("sl", 2, Ring("FqT", 0, 4, 3)),
    LieAlgebra("so", 2, Ring("Zp", 3, 3, 4)),
], ids=LieAlgebra.describe)
def test_a_bracket_map_with_no_unit_minor_raises(alg):
    from prosk.errors import UnsupportedCharacteristic

    X = alg.from_coords({alg.basis_names()[0]: 1})
    with pytest.raises(UnsupportedCharacteristic, match="no unit minor"):
        bracket_decompose(X)


def _times_factor_ring(ring, mat, delta):
    cols = {}
    for i, j, x in delta:
        col = cols.setdefault(j, [row[j] for row in mat])
        for r, row in enumerate(mat):
            col[r] = ring.add(col[r], ring.mul(row[i], x))
    for j, col in cols.items():
        for r, row in enumerate(mat):
            row[j] = col[r]


def _lift_by_ring_ops(X, l):
    """The lift as it was computed before the plan, on Ring payload ops
    throughout: the reference for the stack lift."""
    from prosk.liealg import _name
    from prosk.rings import RingElem, hensel_sqrt

    alg = X.algebra
    ring = alg.ring
    d = alg.d
    zero, one = ring.zero, ring.one
    fam = alg.family
    mat = _eye(ring, d)
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
            cs = _shift(ring, c, l)
            ncs = ring.neg(cs)
            _times_factor_ring(ring, mat, ((j - 1, j - 1, cs), (j, j, ncs),
                                           (j - 1, j, cs), (j, j - 1, ncs)))
        for (a, b) in sorted(off):
            x = off[(a, b)]
            if x != zero:
                _times_factor_ring(ring, mat,
                                   ((a - 1, b - 1, _shift(ring, x, l)),))
    elif fam == "so":
        for a in range(1, d + 1):
            for b in range(a + 1, d + 1):
                x = X.coords.get(_name("X", a, b), zero)
                if x == zero:
                    continue
                al = _shift(ring, x, l)
                t = ring.sub(one, ring.mul(al, al))
                beta = hensel_sqrt(RingElem(ring, t), RingElem(ring, one)).payload
                bm1 = ring.sub(beta, one)
                _times_factor_ring(ring, mat, ((a - 1, a - 1, bm1),
                                               (b - 1, b - 1, bm1),
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
                    xs = _shift(ring, x, l)
                    if kind == "A" and i == j:
                        u = ring.add(one, xs)
                        delta = ((i - 1, i - 1, xs),
                                 (g + i - 1, g + i - 1,
                                  ring.sub(ring.inv(u), one)))
                    else:
                        delta = tuple(
                            (a, b, xs if coeff == 1
                             else ring.mul(xs, ring.from_int(coeff)))
                            for (a, b, coeff) in basis[_name(kind, i, j)]
                        )
                    _times_factor_ring(ring, mat, delta)
    return tuple(tuple(r) for r in mat)


LIFT_ALGEBRAS = [
    LieAlgebra("sl", 2, Ring("Zp", 3, 3, 8)),
    LieAlgebra("sl", 3, Ring("Zp", 2, 2, 6)),
    LieAlgebra("so", 3, Ring("Zp", 3, 3, 9)),
    LieAlgebra("so", 5, Ring("Zp", 5, 5, 4)),
    LieAlgebra("sp", 4, Ring("Zp", 3, 3, 6)),
    LieAlgebra("sp", 6, Ring("Zp", 5, 5, 3)),
    LieAlgebra("so", 3, Ring("Zp", 3, 3, 20)),
    LieAlgebra("so", 3, Ring("FqT", 0, 9, 4)),
    LieAlgebra("sp", 4, Ring("FqT", 0, 5, 4)),
]


@pytest.mark.parametrize("alg", LIFT_ALGEBRAS, ids=LieAlgebra.describe)
def test_int_lift_matches_the_ring_lift(alg):
    rng = np.random.default_rng(42)
    for l in range(1, alg.ring.N):
        for k in range(12):
            X = alg.random(rng, residue_only=k % 3 == 2)
            if k % 3 == 1:  # a sparse vector: every other coordinate dropped
                X = alg.from_coords(dict(list(X.coords.items())[::2]))
            assert liealg._ops(alg).mat(liealg._lift_any(X, l)) == \
                _lift_by_ring_ops(X, l)


@pytest.mark.parametrize("alg", LIFT_ALGEBRAS + [
    LieAlgebra("sl", 2, Ring("FqT", 0, 4, 6)),
    LieAlgebra("so", 3, Ring("FqT", 0, 9, 6)),
    LieAlgebra("so", 3, Ring("Zp", 3, 3, 40)),  # p^N past 2^63
], ids=LieAlgebra.describe)
def test_stack_lift_matches_the_ring_lift_row_by_row(alg):
    # one call lifts many rows, each at its own level; zero rows lift to I
    ops = liealg._ops(alg)
    N = alg.ring.N
    rng = np.random.default_rng(45)
    X = [alg.random(rng, residue_only=k % 4 == 3) for k in range(12)]
    X[2] = X[7] = alg.zero()
    X[5] = alg.from_coords(dict(list(X[5].coords.items())[::2]))
    levels = rng.integers(1, N, len(X))
    zero = alg.ring.zero
    C = matgroups._entries(ops, [[x.coords.get(name, zero)
                                  for name in alg.basis_names()] for x in X])
    got = ops.unstack(liealg._lift_stack(ops, C, levels))
    assert [ops.mat(g) for g in got] == [
        _lift_by_ring_ops(x, int(l)) for x, l in zip(X, levels)]
    assert got[2] == got[7] == ops.identity()


def test_w_lifts_are_cached_and_the_plan_built_once(monkeypatch):
    monkeypatch.setattr(liealg, "_PLAN_CACHE", {})
    builds = []
    init = liealg._Plan.__init__

    def counted(self, alg):
        builds.append(alg)
        init(self, alg)

    monkeypatch.setattr(liealg._Plan, "__init__", counted)
    desc = GroupDescriptor.parse("SO:d=3,Zp:p=3,N=9")
    ops = ops_for(desc)
    rng = np.random.default_rng(43)
    for n, m in [(1, 1), (1, 2), (2, 2), (2, 3), (2, 4), (3, 3)]:
        for _ in range(3):
            ops.oracle(ops.sample_kernel(n + m, rng), n, m)
    plan = liealg._plan("so", 3, desc.ring)
    assert builds == [plan.alg]
    for m in range(1, 9):
        for k, W in enumerate(plan.W):
            cached = plan.lift_w(k, m, desc)
            assert cached is plan.lift_w(k, m, desc)
            assert cached == liealg._lift_any(W, m)


@pytest.mark.parametrize(
    "alg", [SL3, SO3, SP4, LieAlgebra("sl", 2, Ring("Zp", 3, 3, 8))],
    ids=LieAlgebra.describe)
def test_plan_with_swapped_rows_raises(alg, monkeypatch):
    from prosk.errors import InvariantViolated

    ring = alg.ring
    plan = copy.copy(liealg._plan(alg.family, alg.d, ring))
    D = plan.D.copy()
    i, j = next((i, j) for i in range(alg.dim) for j in range(i)
                if (D[0, i] != D[0, j]).any())
    D[0, [i, j]] = D[0, [j, i]]
    plan.D, plan._wlifts = D, {}
    monkeypatch.setitem(liealg._PLAN_CACHE, (alg.family, alg.d, ring), plan)
    X = alg.from_coords({name: k + 1 for k, name in enumerate(alg.basis_names())})
    with pytest.raises(InvariantViolated, match="reproduce its input"):
        bracket_decompose(X)
    r = liealg._lift_any(X, 2)
    with pytest.raises(InvariantViolated, match="reproduce its input"):
        liealg.commutator_decompose(r, 1, 1)


def _oracle_makes_no_ring_dispatch(monkeypatch, texts):
    """Once the plans are built, the oracle runs on arrays alone, the W_k
    lifts included: no bracket, no from_matrix, no Ring.mul."""
    work = []
    for text in texts:
        desc = GroupDescriptor.parse(text)
        ops = ops_for(desc)
        N = desc.ring.N
        rng = np.random.default_rng(44)
        for n in range(1, N):
            for m in range(n, min(2 * n, N - n) + 1):
                r = ops.sample_kernel(n + m, rng)
                work.append((r, n, m, ops.oracle(r, n, m)))

    def refuse(*args, **kwargs):
        raise AssertionError("per-entry ring dispatch on the oracle path")

    for plan in liealg._PLAN_CACHE.values():
        monkeypatch.setattr(plan, "_wlifts", {})
    monkeypatch.setattr(liealg, "bracket", refuse)
    monkeypatch.setattr(liealg, "from_matrix", refuse)
    monkeypatch.setattr(Ring, "mul", refuse)
    for r, n, m, want in work:
        assert liealg.commutator_decompose(r, n, m) == want


def test_zp_oracle_makes_no_ring_dispatch(monkeypatch):
    _oracle_makes_no_ring_dispatch(
        monkeypatch, ("SO:d=3,Zp:p=3,N=9", "SL:d=2,Zp:p=3,N=8"))


def test_fqt_oracle_makes_no_ring_dispatch(monkeypatch):
    _oracle_makes_no_ring_dispatch(
        monkeypatch, ("SL:d=3,Fq[[t]]:q=5,N=6", "SO:d=3,Fq[[t]]:q=9,N=6"))
