import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prosk.errors import EvenCharacteristic, NoSquareRoot, NotAUnit, UsageError
from prosk.rings import FqField, Ring, RingElem, get_field, hensel_sqrt

Z36 = Ring("Zp", 3, 3, 6)
F5T = Ring("FqT", 0, 5, 8)
F9T = Ring("FqT", 0, 9, 5)


# --- oracles -----------------------------------------------------------------
# Zp arithmetic must agree with plain Python ints mod p^N; FqT with a
# schoolbook product over the field tables (numpy convolution mod (p, t^N)
# at q = p), independent of the series engine it runs on.


@given(st.integers(0, 3**6 - 1), st.integers(0, 3**6 - 1))
def test_zp_matches_int_arithmetic(a, b):
    assert Z36.add(a, b) == (a + b) % 3**6
    assert Z36.mul(a, b) == (a * b) % 3**6
    assert Z36.neg(a) == (-a) % 3**6


def _schoolbook(field, a, b):
    """The truncated series product, one field table lookup per term."""
    out = [0] * len(a)
    for i, ai in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] = int(field.add_table[out[i + j], field.mul_table[ai, b[j]]])
    return tuple(out)


@given(st.data())
def test_fqt_mul_matches_polymul(data):
    for q in (5, 9, 25, 27):
        ring = Ring("FqT", 0, q, 8)
        codes = st.lists(st.integers(0, q - 1), min_size=8, max_size=8)
        a, b = tuple(data.draw(codes)), tuple(data.draw(codes))
        got = ring.mul(a, b)
        assert got == _schoolbook(ring.field, a, b)
        if q == 5:
            assert got == tuple(int(c) for c in np.convolve(a, b)[:8] % 5)


def test_f9_modulus_is_x2_plus_1():
    # code 3 is the adjoined root x; x^2 = -1 = 2 in F_3
    f = get_field(9)
    assert f.modulus == (1, 0, 1)
    assert f.mul_codes(np.array([3]), np.array([3]))[0] == 2


def test_field_tables_small():
    for q in (2, 3, 4, 5, 8, 9, 25, 27, 49, 81):
        f = get_field(q)
        codes = np.arange(q)
        nz = codes[1:]
        inv = f.div_codes(np.ones_like(nz), nz)
        assert np.all(f.mul_codes(nz, inv) == 1)
        # additive group has exponent p
        acc = codes.copy()
        for _ in range(f.p - 1):
            acc = f.add_codes(acc, codes)
        assert np.all(acc == 0)


def test_field_q_out_of_range():
    with pytest.raises(UsageError):
        FqField(121)
    with pytest.raises(UsageError):
        get_field(6)


# --- ring laws ---------------------------------------------------------------


@pytest.mark.parametrize("ring", [Z36, Ring("Zp", 5, 5, 3), F5T, F9T])
def test_ring_laws_sampled(ring):
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b, c = ring.rand(rng), ring.rand(rng), ring.rand(rng)
        assert ring.add(a, b) == ring.add(b, a)
        assert ring.mul(a, b) == ring.mul(b, a)
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
        assert ring.add(a, ring.neg(a)) == ring.zero
        assert ring.sub(a, b) == ring.add(a, ring.neg(b))


@pytest.mark.parametrize("ring", [Z36, F5T, F9T])
def test_valuation(ring):
    rng = np.random.default_rng(1)
    assert ring.val(ring.zero) == ring.N
    assert ring.val(ring.one) == 0
    for _ in range(300):
        a, b = ring.rand(rng), ring.rand(rng)
        va, vb = ring.val(a), ring.val(b)
        assert ring.val(ring.mul(a, b)) == min(va + vb, ring.N)
        assert ring.val(ring.add(a, b)) >= min(va, vb)
        if va != vb:
            assert ring.val(ring.add(a, b)) == min(va, vb)


@pytest.mark.parametrize("ring", [Z36, F5T, F9T])
def test_units(ring):
    rng = np.random.default_rng(3)
    for _ in range(100):
        u = ring.rand_unit(rng)
        assert ring.is_unit(u)
        assert ring.mul(u, ring.inv(u)) == ring.one
    # the uniformizer's multiples: a zero constant term over F_q[[t]]
    pi = ring.p if ring.kind == "Zp" else (0, 1) + (0,) * (ring.N - 2)
    for a in [ring.zero] + [ring.mul(pi, ring.rand(rng)) for _ in range(20)]:
        assert not ring.is_unit(a)
        with pytest.raises(NotAUnit):
            ring.inv(a)


@pytest.mark.parametrize("q", [4, 9, 25])
def test_series_inverse_at_every_newton_step_count(q):
    # N = 2^s and 2^s + 1 are where ceil(log2 N) Newton steps change count
    rng = np.random.default_rng(q)
    for N in (1, 2, 3, 4, 5, 8, 9, 17, 40):
        ring = Ring("FqT", 0, q, N)
        for _ in range(5):
            u = ring.rand_unit(rng)
            assert ring.mul(u, ring.inv(u)) == ring.one


# --- hensel lifting ----------------------------------------------------------


@pytest.mark.parametrize("ring", [Z36, Ring("Zp", 5, 5, 4), F5T, F9T,
                                  Ring("FqT", 0, 25, 40)])
def test_sqrt_of_squares(ring):
    rng = np.random.default_rng(5)
    for _ in range(60):
        u = ring.rand_unit(rng)
        a = ring.mul(u, u)
        beta = hensel_sqrt(RingElem(ring, a), RingElem(ring, u))
        assert ring.mul(beta.payload, beta.payload) == a


def test_sqrt_needs_odd_characteristic():
    r2 = Ring("Zp", 2, 2, 5)
    with pytest.raises(EvenCharacteristic):
        hensel_sqrt(RingElem(r2, 1), RingElem(r2, 1))


def test_sqrt_rejects_bad_seed():
    # 2 is not a square mod 3, so no seed can work for a=2
    with pytest.raises(NoSquareRoot):
        hensel_sqrt(RingElem(Z36, 2), RingElem(Z36, 1))


def test_rand_past_the_int64_range():
    # p^N <= 2^63: one draw, as numpy gives it; past that, base p^m digits
    # with p^m <= 2^63, so every residue class mod p^N is reachable
    for ring in (Z36, Ring("Zp", 2, 2, 63), Ring("Zp", 3, 3, 39)):
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        assert [ring.rand(a) for _ in range(20)] == \
            [int(b.integers(0, ring.modulus)) for _ in range(20)]
    from prosk.matgroups import GroupDescriptor, ops_for

    ring = Ring("Zp", 5, 5, 28)  # 5^28 > 2^63
    rng = np.random.default_rng(6)
    draws = [ring.rand(rng) for _ in range(2000)]
    assert all(0 <= x < ring.modulus for x in draws)
    assert max(draws) > 2**63 and min(draws) < 5**27
    assert len({x % 5**27 for x in draws}) == len(draws)
    assert {x // 5**27 for x in draws} == set(range(5))
    ops = ops_for(GroupDescriptor("SO", 3, ring))
    g = ops.sample_uniform(rng)
    assert ops.is_member(g.stack).all()


# --- descriptors -------------------------------------------------------------


def test_elem_rejects_non_integer_input():
    # a float or string entry is a usage error, not a value truncated by
    # int(): 1.7 once loaded silently as the series coefficient 1
    for ring, bad in ((Z36, 1.7), (Z36, "2"), (F5T, 1.7), (F5T, "12"),
                      (F5T, [1.7, 0]), (F5T, [0, "2"]), (F5T, (1, 0.0))):
        with pytest.raises(UsageError):
            ring.elem(bad)
    assert F5T.elem([1, 2]).payload == (1, 2) + (0,) * 6


def test_parse_roundtrip():
    for text in ("Zp:p=3,N=6", "Zp:p=7,N=2", "Fq[[t]]:q=9,N=40", "Fq[[t]]:q=5,N=1"):
        ring = Ring.parse(text)
        assert ring.describe() == text
        assert Ring.parse(ring.describe()) == ring


def test_parse_rejects_garbage():
    for text in ("Zp", "Zp:p=4,N=2", "Fq[[t]]:q=6,N=3", "Qp:p=3,N=2", "Zp:p=3,N=0"):
        with pytest.raises(UsageError):
            Ring.parse(text)


def test_truncated_tower():
    r = Ring.parse("Zp:p=3,N=6")
    assert r.truncated(2).modulus == 9
    assert r.truncated(6) == r
    t = Ring.parse("Fq[[t]]:q=9,N=5").truncated(3)
    assert t.N == 3 and t.q == 9
