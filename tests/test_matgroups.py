import math
import time

import numpy as np
import pytest

from prosk.errors import BudgetExceeded, InvariantViolated, NotAUnit, UsageError
from prosk.matgroups import (
    GroupDescriptor,
    element,
    enumerate_kernel,
    enumerate_quotient,
    group_order,
    kernel_order,
    ops_for,
    quotient_order,
    residue_group_order,
    section_lift,
)
from prosk.rings import Ring

SL2_9 = GroupDescriptor.parse("SL:d=2,Zp:p=3,N=2")
SL2_729 = GroupDescriptor.parse("SL:d=2,Zp:p=3,N=6")
SO3_5 = GroupDescriptor.parse("SO:d=3,Zp:p=5,N=3")
SP4_3 = GroupDescriptor.parse("Sp:d=4,Zp:p=3,N=3")
SL2_F9T = GroupDescriptor.parse("SL:d=2,Fq[[t]]:q=9,N=3")

ALL = [SL2_729, SO3_5, SP4_3, SL2_F9T]


# --- orders (classical point counts as the oracle) ---------------------------


def test_residue_orders_frozen():
    assert residue_group_order("SL", 2, 3) == 24
    assert residue_group_order("SL", 2, 5) == 120
    assert residue_group_order("SL", 3, 2) == 168
    assert residue_group_order("SO", 3, 5) == 120  # ~ PGL_2(F_5)
    assert residue_group_order("Sp", 4, 3) == 51840


def test_order_towers():
    # |G(R/M^n)| = |G(F_q)| * q^(dim * (n-1))
    assert group_order(SL2_9) == 648
    assert group_order(GroupDescriptor.parse("SL:d=2,Zp:p=3,N=3")) == 17496
    assert quotient_order(SL2_729, 1) == 24
    assert quotient_order(SL2_729, 2) == 648
    assert kernel_order(SL2_9, 1) == 27
    assert kernel_order(SL2_729, 3) * quotient_order(SL2_729, 3) == group_order(SL2_729)


def test_enumerate_quotient_counts():
    ops = ops_for(SL2_9)
    elems = enumerate_quotient(SL2_9)
    assert len(elems) == 648
    keys = {ops.key(g) for g in elems}
    assert len(keys) == 648


@pytest.mark.parametrize("text,kernel", [
    ("SL:d=2,Fq[[t]]:q=9,N=2", True), ("SL:d=2,Fq[[t]]:q=4,N=2", False),
])
def test_enumeration_over_a_non_prime_field_lists_distinct_elements(
        text, kernel):
    # each kernel layer runs over every F_q residue, not only the F_p ones
    desc = GroupDescriptor.parse(text)
    ops = ops_for(desc)
    if kernel:
        elems, order = enumerate_kernel(desc, 1), kernel_order(desc, 1)
    else:
        elems, order = enumerate_quotient(desc), group_order(desc)
    assert len({ops.key(g) for g in elems}) == len(elems) == order


def test_enumerate_kernel_counts():
    elems = enumerate_kernel(SL2_9, 1)
    assert len(elems) == 27
    ops = ops_for(SL2_9)
    assert all(ops.depth(g) >= 1 for g in elems)
    # level-1 kernel of SL2(Z/9) is elementary abelian
    for g in elems[:10]:
        for h in elems[:10]:
            assert ops.mul(g, h) == ops.mul(h, g)


# --- membership and group laws -----------------------------------------------


def test_element_checks_membership():
    from prosk.errors import DescriptorMismatch

    with pytest.raises(DescriptorMismatch):
        element(SL2_9, [[1, 1], [1, 1]])  # det 0
    with pytest.raises(DescriptorMismatch):
        element(SL2_9, [[2, 0], [0, 1]])  # det 2
    g = element(SL2_9, [[1, 1], [0, 1]])
    assert g.descriptor == SL2_9


@pytest.mark.parametrize("desc", ALL)
def test_group_laws(desc):
    ops = ops_for(desc)
    rng = np.random.default_rng(10)
    e = ops.identity()
    for _ in range(40):
        a, b, c = (ops.sample_uniform(rng) for _ in range(3))
        assert ops.mul(ops.mul(a, b), c) == ops.mul(a, ops.mul(b, c))
        assert ops.mul(a, ops.inv(a)) == e
        assert ops.inv(ops.mul(a, b)) == ops.mul(ops.inv(b), ops.inv(a))
        assert ops.commutator(a, b) == ops.mul(
            ops.mul(ops.inv(a), ops.inv(b)), ops.mul(a, b)
        )


def test_forms_preserved():
    # SO: g^T g = 1; Sp: g^T J g = J
    rng = np.random.default_rng(11)
    ops = ops_for(SO3_5)
    ring = SO3_5.ring
    for _ in range(30):
        g = ops.mat(ops.sample_uniform(rng))
        gtg = [[ring.zero] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                s = ring.zero
                for k in range(3):
                    s = ring.add(s, ring.mul(g[k][i], g[k][j]))
                gtg[i][j] = s
        for i in range(3):
            for j in range(3):
                assert gtg[i][j] == (ring.one if i == j else ring.zero)


def test_project_is_homomorphism():
    from prosk.matgroups import project

    rng = np.random.default_rng(12)
    ops = ops_for(SL2_729)
    for m in (1, 2, 4):
        mul = ops_for(SL2_729.truncated(m)).mul
        for _ in range(25):
            a, b = ops.sample_uniform(rng), ops.sample_uniform(rng)
            assert project(ops.mul(a, b), m) == mul(project(a, m),
                                                    project(b, m))


def test_keys_separate_levels():
    ops = ops_for(SL2_729)
    rng = np.random.default_rng(13)
    g = ops.sample_uniform(rng)
    k = ops.mul(g, ops.sample_kernel(3, rng))
    assert ops.key(g, level=3) == ops.key(k, level=3)
    assert ops.key(g, level=6) != ops.key(k, level=6) or g == k


# --- filtration --------------------------------------------------------------


@pytest.mark.parametrize("desc", ALL)
def test_kernel_depth_and_commutators(desc):
    ops = ops_for(desc)
    rng = np.random.default_rng(14)
    N = desc.ring.N
    for _ in range(60):
        n = int(rng.integers(1, N + 1))
        m = int(rng.integers(1, N + 1))
        g = ops.sample_kernel(n, rng)
        h = ops.sample_kernel(m, rng)
        assert ops.depth(g) >= n
        assert ops.depth(ops.mul(g, ops.inv(g))) == N
        c = ops.commutator(g, h)
        assert ops.depth(c) >= min(n + m, N)


def test_depth_of_identity_is_full():
    for desc in ALL:
        ops = ops_for(desc)
        assert ops.depth(ops.identity()) == desc.ring.N


# --- lifting -----------------------------------------------------------------


@pytest.mark.parametrize("desc", [SL2_729, SO3_5, SP4_3])
def test_section_lift_reduces_back(desc):
    from prosk.matgroups import project

    rng = np.random.default_rng(15)
    ops1 = ops_for(desc.truncated(1))
    for _ in range(25):
        g1 = ops1.sample_uniform(rng)
        [g] = ops_for(desc).unstack(section_lift(desc, g1.stack))
        assert g.descriptor == desc
        assert project(g, 1) == g1


# --- serialization -----------------------------------------------------------


@pytest.mark.parametrize("desc", ALL)
def test_serialize_roundtrip(desc):
    ops = ops_for(desc)
    rng = np.random.default_rng(16)
    for _ in range(20):
        g = ops.sample_uniform(rng)
        assert ops.deserialize(ops.serialize(g)) == g


@pytest.mark.parametrize("text", ["SL:d=2,Zp:p=3,N=40", "SO:d=3,Zp:p=3,N=40",
                                  "Sp:d=4,Zp:p=3,N=40", "SL:d=2,Zp:p=19,N=15",
                                  "SL:d=2,Zp:p=2,N=64"])
def test_residues_between_2_63_and_2_64_keep_every_digit(text):
    # p^N in (2^63, 2^64]: a payload matrix read without the stacks' dtype
    # would pass through uint64 to float64 and lose its low digits
    from prosk import liealg

    desc = GroupDescriptor.parse(text)
    ops = ops_for(desc)
    mod = desc.ring.modulus
    assert 2**63 < mod <= 2**64
    rng = np.random.default_rng(1)
    for _ in range(5):
        g = ops.sample_uniform(rng)
        assert ops.is_member(g.stack).all()
        assert ops.deserialize(ops.serialize(g)) == g
    alg = liealg.LieAlgebra(desc.family.lower(), desc.d, desc.ring)
    for _ in range(5):
        X, Y = alg.random(rng).to_matrix(), alg.random(rng).to_matrix()
        XY, YX = ([[sum(A[i][k] * B[k][j] for k in range(desc.d)) % mod
                    for j in range(desc.d)] for i in range(desc.d)]
                  for A, B in ((X, Y), (Y, X)))
        want = liealg.from_matrix(alg, [[(a - b) % mod for a, b in zip(r, s)]
                                        for r, s in zip(XY, YX)])
        assert liealg.bracket(liealg.from_matrix(alg, X),
                              liealg.from_matrix(alg, Y)) == want


def test_descriptor_parse_errors():
    for text in ("SL:d=1,Zp:p=3,N=2", "Sp:d=3,Zp:p=3,N=2", "XX:d=2,Zp:p=3,N=2"):
        with pytest.raises(UsageError):
            GroupDescriptor.parse(text)
    from prosk.errors import UnsupportedCharacteristic

    with pytest.raises(UnsupportedCharacteristic):
        GroupDescriptor.parse("SO:d=3,Zp:p=2,N=2")


def test_enumeration_is_checked_against_the_budget(monkeypatch):
    """The element count goes through PROSK_BUDGET_MB before any element
    is built, so an oversized quotient raises at once."""
    big = [GroupDescriptor.parse("SL:d=2,Zp:p=3,N=5"),  # 12,754,584 elements
           GroupDescriptor.parse("Nottingham,Fq[[t]]:q=5,N=12")]  # 5^11
    monkeypatch.delenv("PROSK_BUDGET_MB", raising=False)
    for desc in big:
        assert group_order(desc) > 10**7
        with pytest.raises(BudgetExceeded):
            enumerate_quotient(desc)
    monkeypatch.setenv("PROSK_BUDGET_MB", "1")
    desc = GroupDescriptor.parse("SL:d=2,Zp:p=3,N=4")
    assert group_order(desc) == 472_392
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="PROSK_BUDGET_MB=1"):
        enumerate_quotient(desc)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("text", ["SL:d=2,Zp:p=3,N=3",
                                  "SL:d=2,Fq[[t]]:q=5,N=2",
                                  "Nottingham,Fq[[t]]:q=5,N=7"])
def test_enumeration_charge_covers_its_peak(monkeypatch, text):
    # the budget charge per element is at least the enumeration's peak
    # traced memory per element (warm caches: plans, series contexts)
    import gc
    import tracemalloc

    from prosk import _bfs

    desc = GroupDescriptor.parse(text)
    enumerate_quotient(desc)
    charged = []
    real = _bfs._charge
    monkeypatch.setattr(_bfs, "_charge",
                        lambda need, what: charged.append(need)
                        or real(need, what))
    gc.collect()
    tracemalloc.start()
    try:
        n = len(enumerate_quotient(desc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == group_order(desc) > 10_000
    assert len(charged) == 1 and charged[0] >= peak, (charged[0] / n, peak / n)


def test_membership_and_count_checks_raise(monkeypatch):
    from prosk import matgroups

    rng = np.random.default_rng(31)
    X1 = ops_for(SL2_9.truncated(1)).sample_uniform(rng).stack
    with monkeypatch.context() as m:
        m.setattr(matgroups, "residue_group_order", lambda *a: -1)
        with pytest.raises(InvariantViolated, match="order formula"):
            enumerate_quotient(SL2_9)
    with monkeypatch.context() as m:
        m.setattr(matgroups, "enumerate_kernel", lambda desc, n: [])
        with pytest.raises(InvariantViolated, match="order formula gives"):
            enumerate_quotient(SL2_9)
    monkeypatch.setattr(matgroups.MatrixOps, "is_member",
                        lambda self, X: np.zeros(len(X), dtype=bool))
    with pytest.raises(InvariantViolated, match="section lift"):
        section_lift(SL2_9, X1)
    with pytest.raises(InvariantViolated, match="Cayley transform"):
        matgroups._cayley_sample(SO3_5, rng)



def test_kernel_draws_generate_k1_over_f9():
    # K_1 of SL2(F_9[[t]]/t^2) has 9^3 elements; eight sample_kernel(1)
    # draws generate it (the F_3-points alone span 27)
    from prosk.spectral import build_graph

    ops = ops_for(GroupDescriptor.parse("SL:d=2,Fq[[t]]:q=9,N=2"))
    rng = np.random.default_rng(12)
    g = build_graph(ops, [ops.sample_kernel(1, rng) for _ in range(8)],
                    order=729)
    assert g.order == 729


# --- depth read off the element's array ---------------------------------------


def _depth_by_valuation(ring, A):
    """The entrywise formula: min valuation of A - I, capped at N."""
    best = ring.N
    for i, row in enumerate(A):
        for j, a in enumerate(row):
            best = min(best, ring.val(ring.sub(a, ring.one) if i == j else a))
    return best


@pytest.mark.parametrize("text", [
    "SL:d=2,Zp:p=3,N=8", "SO:d=3,Zp:p=3,N=9", "Sp:d=4,Zp:p=5,N=3",
    "SL:d=3,Zp:p=2,N=6", "SL:d=2,Zp:p=3,N=20",  # past the int64 guard
    "SO:d=3,Fq[[t]]:q=9,N=4",  # the first nonzero plane slot
])
def test_depth_by_gcd_matches_the_valuation_formula(text):
    desc = GroupDescriptor.parse(text)
    ops = ops_for(desc)
    ring, N = desc.ring, desc.ring.N
    rng = np.random.default_rng(45)
    elems = [ops.identity()] + [ops.sample_uniform(rng) for _ in range(5)]
    for n in range(1, N + 1):
        elems += [ops.sample_kernel(n, rng) for _ in range(4)]
    depths = set()
    for g in elems:
        depths.add(ops.depth(g))
        assert ops.depth(g) == _depth_by_valuation(ring, ops.mat(g))
    assert {0, N} <= depths and len(depths) > 3


# --- the stacked inverse -------------------------------------------------------


def _random_stack(desc, rng, B):
    """B matrices with uniform entries in the facade's layout, most of them
    invertible over the ring and some not."""
    ops, ring, d = ops_for(desc), desc.ring, desc.d
    if ring.kind == "FqT":
        return rng.integers(0, ring.p, (B, d, d, ring.field.k, ring.N))
    digits = rng.integers(0, ring.p, (B, d, d, ring.N)).astype(object)
    powers = np.array([ring.p**i for i in range(ring.N)], dtype=object)
    return (digits * powers).sum(axis=-1).astype(ops.eye.dtype)


def _residue_det(desc, X):
    """The determinants over F_q of the residues of the stack X."""
    ops1 = ops_for(desc.truncated(1))
    if desc.ring.kind == "FqT":
        return ops1.ctx.codes(ops1.det(X[..., :1])[..., 0])
    return ops1.det(X % desc.ring.p)


INVERSE_GROUPS = [
    "SL:d=2,Zp:p=3,N=8", "SL:d=3,Zp:p=5,N=5", "SO:d=3,Zp:p=3,N=9",
    "Sp:d=4,Zp:p=3,N=5",
    # past the int64 guard: Python-int stacks
    "SL:d=2,Zp:p=3,N=20", "SL:d=3,Zp:p=7,N=23", "SO:d=3,Zp:p=5,N=14",
    "Sp:d=4,Zp:p=3,N=20",
    "SL:d=2,Fq[[t]]:q=5,N=6", "SL:d=3,Fq[[t]]:q=9,N=3",
    "SO:d=3,Fq[[t]]:q=9,N=4", "Sp:d=4,Fq[[t]]:q=5,N=3",
]


@pytest.mark.parametrize("text", INVERSE_GROUPS)
def test_stacked_inverse(text):
    desc = GroupDescriptor.parse(text)
    ops = ops_for(desc)
    eye = ops.eye
    rng = np.random.default_rng(46)
    # random stacks: X X^-1 = X^-1 X = I exactly, and NotAUnit exactly when
    # some entry's residue is singular
    X = _random_stack(desc, rng, 24)
    singular = [b for b in range(len(X))
                if _residue_det(desc, X[b : b + 1])[0] == 0]
    assert 0 < len(singular) < len(X)
    with pytest.raises(NotAUnit):
        ops.inverse(X)
    for b in singular:
        with pytest.raises(NotAUnit):
            ops.inverse(X[b : b + 1])
    U = np.delete(X, singular, axis=0)
    Y = ops.inverse(U)
    assert Y.dtype == U.dtype and Y.shape == U.shape
    assert (ops.product(U, Y) == eye).all() and (ops.product(Y, U) == eye).all()
    # group elements: the stacked inverse is the B = 1 inverse, entry by
    # entry, and SO's inverse is the transpose
    elems = [ops.sample_uniform(rng) for _ in range(6)]
    elems += [ops.sample_kernel(n, rng) for n in range(1, desc.ring.N + 1)]
    G = ops.stack(elems)
    assert ops.unstack(ops.inverse(G)) == [ops.inv(g) for g in elems]
    if desc.family == "SO":
        assert (ops.inverse(G) == G.swapaxes(1, 2)).all()


def _products_per_inverse(monkeypatch, ops, X):
    calls = []
    real = ops.product
    monkeypatch.setattr(ops, "product",
                        lambda A, B: calls.append(1) or real(A, B))
    ops.inverse(X)
    monkeypatch.undo()
    return len(calls)


@pytest.mark.parametrize("text", INVERSE_GROUPS)
def test_inverse_stops_once_exact(monkeypatch, text):
    # the Newton steps stop once X Y = I; a full run is the ladder for
    # X^(E - 1), ceil(log2 N) steps of two products and the final check
    desc = GroupDescriptor.parse(text)
    ops, ring, d = ops_for(desc), desc.ring, desc.d
    q = ring.field.q
    e = (ring.p ** (d - 1).bit_length()
         * math.lcm(*(q**i - 1 for i in range(1, d + 1))) - 1)
    full = e.bit_length() + bin(e).count("1") + 2 * (ring.N - 1).bit_length() + 1
    rng = np.random.default_rng(50)
    X = _random_stack(desc, rng, 24)
    X = X[[_residue_det(desc, X[b : b + 1])[0] != 0 for b in range(len(X))]]
    G = ops.stack([ops.sample_uniform(rng) for _ in range(6)])
    counts = [_products_per_inverse(monkeypatch, ops, Z)
              for Z in (X, G, G[:1], G[1:2])]
    assert max(counts) <= full, (counts, full)
    if text == "SO:d=3,Zp:p=3,N=9":  # X^E is already in K_2 or deeper
        assert min(counts) < full


@pytest.mark.parametrize("text", INVERSE_GROUPS + ["SL:d=2,Fq[[t]]:q=9,N=8"])
def test_inverse_of_a_k1_stack_skips_the_ladder(monkeypatch, text):
    # a stack that is I mod the uniformizer starts Newton from I: at most
    # ceil(log2 N) steps of two products and the final check
    desc = GroupDescriptor.parse(text)
    ops = ops_for(desc)
    rng = np.random.default_rng(51)
    elems = [ops.sample_kernel(n, rng) for n in (1, 1, 2, desc.ring.N)]
    G = ops.stack(elems)
    bound = 2 * (desc.ring.N - 1).bit_length() + 1
    assert _products_per_inverse(monkeypatch, ops, G) <= bound
    Y = ops.inverse(G)
    assert (ops.product(G, Y) == ops.eye).all()
    assert (ops.product(Y, G) == ops.eye).all()


@pytest.mark.parametrize("text", ["SL:d=2,Zp:p=3,N=20", "SO:d=3,Zp:p=5,N=14"])
def test_equal_elements_past_the_guard_share_keys(text):
    # two elements with equal entries, built apart, hold different Python
    # ints: equality, hashes and keys must come from the values, never from
    # an object array's bytes (which are pointers)
    desc = GroupDescriptor.parse(text)
    ops = ops_for(desc)
    rng = np.random.default_rng(47)
    for _ in range(5):
        a = ops.sample_uniform(rng)
        b = element(desc, ops.serialize(a))
        assert a.stack.dtype == object
        assert a is not b and a == b and hash(a) == hash(b)
        for level in (None, 1, 2, desc.ring.N - 1, desc.ring.N):
            assert ops.key(a, level) == ops.key(b, level)
        assert len({a, b, ops.unstack(ops.stack([a]))[0]}) == 1


# --- determinants and membership on stacks -------------------------------------


@pytest.mark.parametrize("p,d", [(3, 2), (5, 3), (7, 4), (2, 3)])
def test_det_matches_numpy_over_prime_fields(p, d):
    rng = np.random.default_rng(48)
    X = rng.integers(0, p, (200, d, d))
    want = np.rint(np.linalg.det(X)).astype(np.int64) % p
    ops = ops_for(GroupDescriptor("SL", d, Ring("Zp", p, p, 1)))
    assert (ops.det(X) == want).all()
    # the same residues as constant series over F_p[[t]]/t^1
    ops = ops_for(GroupDescriptor("SL", d, Ring("FqT", 0, p, 1)))
    assert (ops.det(X[..., None, None])[:, 0, 0] == want).all()


@pytest.mark.parametrize("text", [
    "SL:d=2,Zp:p=3,N=8", "SL:d=3,Zp:p=5,N=5", "Sp:d=4,Zp:p=3,N=5",
    "SL:d=2,Zp:p=3,N=20", "SL:d=3,Zp:p=7,N=23",  # past the int64 guard
    "SL:d=2,Fq[[t]]:q=5,N=6", "SL:d=3,Fq[[t]]:q=9,N=3",
])
def test_det_is_multiplicative(text):
    desc = GroupDescriptor.parse(text)
    ops = ops_for(desc)
    rng = np.random.default_rng(49)
    X, Y = _random_stack(desc, rng, 40), _random_stack(desc, rng, 40)
    dX, dY, dXY = ops.det(X), ops.det(Y), ops.det(ops.product(X, Y))
    assert dXY.dtype == X.dtype and len(dXY) == 40
    if desc.ring.kind == "Zp":
        assert (dXY == dX * dY % ops.mod).all()
    else:
        assert (dXY == ops.ctx.mul(dX, dY)).all()
    assert len({str(x) for x in dXY.tolist()}) > 30


@pytest.mark.parametrize("text", [
    "SL:d=2,Zp:p=3,N=1", "SL:d=2,Zp:p=3,N=3", "SO:d=3,Zp:p=3,N=2",
    "Sp:d=2,Zp:p=5,N=2", "SL:d=2,Fq[[t]]:q=5,N=2", "SL:d=2,Fq[[t]]:q=9,N=1",
])
def test_is_member_accepts_the_group_and_rejects_perturbed_entries(text):
    # adding 1 to entry (i, j) moves det by the cofactor (X^-1)_ji, so
    # perturbing where that cofactor is a unit leaves the group
    desc = GroupDescriptor.parse(text)
    ops = ops_for(desc)
    X = ops.stack(enumerate_quotient(desc))
    assert ops.is_member(X).all()
    Y = ops.inverse(X).swapaxes(1, 2)
    units = (Y[..., 0].any(axis=-1) if desc.ring.kind == "FqT"  # t^0 digits
             else Y % desc.ring.p != 0).reshape(len(X), -1)
    rows, pos = np.arange(len(X)), units.argmax(axis=1)
    assert units[rows, pos].all()
    Z = X.copy().reshape((len(X), -1) + X.shape[3:])
    idx = (rows, pos, 0, 0) if desc.ring.kind == "FqT" else (rows, pos)
    Z[idx] = (Z[idx] + 1) % ops.mod
    assert not ops.is_member(Z.reshape(X.shape)).any()


def test_enumerate_so3_over_f5():
    # 1,953,125 residue candidates, filtered a chunk at a time
    desc = GroupDescriptor.parse("SO:d=3,Zp:p=5,N=1")
    t0 = time.perf_counter()
    elems = enumerate_quotient(desc)
    assert time.perf_counter() - t0 < 20.0
    assert len(elems) == residue_group_order("SO", 3, 5) == 120
    ops = ops_for(desc)
    assert len({ops.key(g) for g in elems}) == 120
    assert ops.is_member(ops.stack(elems)).all()
