import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prosk import nottingham
from prosk.errors import InvariantViolated, UsageError
from prosk.matgroups import FilteredElement, GroupDescriptor, ops_for
from prosk.nottingham import (
    canonical_coordinates,
    from_canonical,
    from_codes,
    generator,
    parse_series,
)
from prosk.rings import Ring, get_field

D5 = GroupDescriptor.parse("Nottingham,Fq[[t]]:q=5,N=8")
D5L = GroupDescriptor.parse("Nottingham,Fq[[t]]:q=5,N=16")
D9 = GroupDescriptor.parse("Nottingham,Fq[[t]]:q=9,N=6")

OPS5 = ops_for(D5)
OPS9 = ops_for(D9)


def series5(coeffs):
    return from_codes(D5, tuple(coeffs) + (0,) * (7 - len(coeffs)))


# --- frozen composition ------------------------------------------------------
# f = t + t^2, g = t + t^3.  Substituting f into g:
#   g(f) = f + f^3 = t + t^2 + t^3 + 3 t^4 + 3 t^5 + t^6 (exact over Z)
# The product f*g is defined as g o f, so its coefficients mod 5, N=8, are:


def test_composition_frozen():
    f = series5([1])
    g = series5([0, 1])
    prod = OPS5.mul(f, g)
    assert OPS5.coeffs(prod) == (1, 1, 3, 3, 1, 0, 0)


def test_identity_and_inverse():
    e = OPS5.identity()
    assert OPS5.coeffs(e) == (0,) * 7
    f = series5([2, 0, 1, 4])
    assert OPS5.mul(f, OPS5.inv(f)) == e
    assert OPS5.mul(OPS5.inv(f), f) == e


coeff_tuples = st.lists(st.integers(0, 4), min_size=7, max_size=7).map(tuple)


@given(coeff_tuples, coeff_tuples, coeff_tuples)
@settings(max_examples=60, deadline=None)
def test_associativity(a, b, c):
    f, g, h = from_codes(D5, a), from_codes(D5, b), from_codes(D5, c)
    assert OPS5.mul(OPS5.mul(f, g), h) == OPS5.mul(f, OPS5.mul(g, h))


@given(coeff_tuples)
@settings(max_examples=60, deadline=None)
def test_inverse_exact(a):
    f = from_codes(D5, a)
    assert OPS5.mul(f, OPS5.inv(f)) == OPS5.identity()


# --- depth and the commutator pairing ----------------------------------------


def test_depth_convention():
    assert OPS5.depth(OPS5.identity()) == 8
    assert OPS5.depth(series5([1])) == 1
    assert OPS5.depth(series5([0, 0, 2])) == 3


def test_commutator_leading_coefficient_orientation():
    # [e_1(1), e_2(1)] starts at degree 4 with coefficient 1*1*(2-1) = 1;
    # swapping the arguments flips it to -1 = 4 mod 5.
    e1 = generator(D5, 1, 1)
    e2 = generator(D5, 2, 1)
    c = OPS5.commutator(e1, e2)
    assert OPS5.coeffs(c)[2] == 1  # slot for t^4
    assert OPS5.coeffs(OPS5.commutator(e2, e1))[2] == 4
    assert OPS5.depth(c) == 3


def test_commutator_coefficient_sweep():
    # exhaustive over the truncation for q = 9: coefficient of t^(n+m+1)
    # in [e_n(lam), e_m(mu)] is lam*mu*(m-n), including the vanishing cases
    field = get_field(9)
    p = field.p
    ops = OPS9
    for n in range(1, 4):
        for m in range(1, 4):
            if n + m + 1 > 6:
                continue
            for lam in range(1, 9):
                for mu in range(1, 9):
                    c = ops.commutator(generator(D9, n, lam), generator(D9, m, mu))
                    want = field.mul_codes(
                        field.mul_codes(np.array([lam]), np.array([mu])),
                        np.array([(m - n) % p]),
                    )[0]
                    assert ops.coeffs(c)[n + m - 1] == want


def test_depth_pairing_on_kernels():
    rng = np.random.default_rng(30)
    ops = ops_for(D5L)
    for _ in range(150):
        n = int(rng.integers(1, 15))
        m = int(rng.integers(1, 15))
        g = ops.sample_kernel(n, rng)
        h = ops.sample_kernel(m, rng)
        assert ops.depth(ops.commutator(g, h)) >= min(n + m, 16)


# --- the oracle --------------------------------------------------------------


def test_oracle_admissible_table():
    # n <= m <= 2n and p does not divide m - n; the window clips at N
    admissible = ops_for(D5L).oracle_admissible
    assert not admissible(1, 1)  # 5 | 0
    assert admissible(1, 2)
    assert not admissible(2, 2)
    assert admissible(3, 4)
    assert not admissible(2, 5)  # m > 2n
    assert admissible(5, 6)  # window 2n + m = 16 just fits
    assert admissible(6, 7)  # window 19 clips at N = 16


def test_oracle_hits_targets():
    rng = np.random.default_rng(31)
    ops = ops_for(D5L)
    N = 16
    for n, m in ((1, 2), (2, 3), (2, 4), (3, 4), (4, 6), (5, 6)):
        if not ops.oracle_admissible(n, m):
            continue
        for _ in range(20):
            r = ops.sample_kernel(n + m, rng)
            pairs = ops.oracle(r, n, m)
            acc = ops.identity()
            for a, b in pairs:
                assert ops.depth(a) >= n and ops.depth(b) >= m
                acc = ops.mul(acc, ops.commutator(a, b))
            assert ops.depth(ops.mul(ops.inv(acc), r)) >= min(2 * n + m, N)


# --- coordinates and parsing -------------------------------------------------


@given(coeff_tuples)
@settings(max_examples=60, deadline=None)
def test_canonical_roundtrip(a):
    f = from_codes(D5, a)
    assert from_canonical(D5, canonical_coordinates(f)) == f


def test_parse_series():
    f = parse_series(D5, "t+2t^3+t^7")
    assert OPS5.coeffs(f) == (0, 2, 0, 0, 0, 1, 0)
    assert parse_series(D5, "t") == OPS5.identity()
    with pytest.raises(UsageError):
        parse_series(D5, "1+t")
    with pytest.raises(UsageError):
        parse_series(D5, "t+7t^2")  # coefficient outside F_5
    for text in ("t+t^3+t^3", "t+3t^3+4t^3"):
        with pytest.raises(UsageError):
            parse_series(D5, text)  # a repeated exponent
    from prosk.errors import LevelTooLarge

    with pytest.raises(LevelTooLarge):
        parse_series(D5, "t+t^40")  # beyond the truncation


def test_quotient_and_kernel_orders():
    ops = OPS5
    assert ops.group_order() == 5**7
    assert ops.quotient_order(6) == 5**5
    assert ops.quotient_order(2) == 5


def test_sample_kernel_depths():
    rng = np.random.default_rng(33)
    for n in (1, 3, 6):
        for _ in range(20):
            g = OPS5.sample_kernel(n, rng)
            assert OPS5.depth(g) >= n


def test_power_matrix_evaluation_matches_direct():
    # the banded-substitution fast path must agree with plain composition
    rng = np.random.default_rng(34)
    ops = ops_for(D5L)
    for _ in range(10):
        fs = [ops.sample_uniform(rng) for _ in range(5)]
        acc = ops.identity()
        for f in fs:
            acc = ops.mul(acc, f)
        one = ops.identity_stack()
        st = one.reshape(-1)
        for f in reversed(fs):
            st = ops.eval_apply(st, ops.power_matrix(f))
        assert ops.unstack(st.reshape(one.shape))[0] == acc


@pytest.mark.parametrize("q", [5, 9])
@pytest.mark.parametrize("L,a,b", [(8, 2, 3), (10, 3, 4), (13, 4, 6), (13, 5, 5)])
def test_commutator_table_rows_match_single_commutator(q, L, a, b):
    # the oracle reads [e_{a,c}, e_{b,1}] from the table; each row must be
    # the commutator built on its own
    ctx = nottingham.series_context(q, L)
    table = nottingham._commutator_table(q, L, a, b)
    assert table.shape == (q, ctx.k, L) and not table.flags.writeable
    for c in range(q):
        one = nottingham._single_commutator(ctx, a, np.array([c]), b)
        assert (table[c] == one[0]).all()


def test_short_coefficient_vector_raises_invariant():
    with pytest.raises(InvariantViolated):
        from_codes(D5, (0,) * 6)
    with pytest.raises(InvariantViolated):  # codes where planes belong
        FilteredElement(D5, (0,) * 7)
    for slot, digit in ((0, 1), (1, 2)):  # 1 + t and 2t: no t + O(t^2)
        P = OPS5.identity_stack().copy()
        P[0, 0, slot] = digit
        with pytest.raises(InvariantViolated, match="not in the group"):
            OPS5.unstack(P)


def test_elements_agree_exactly_when_their_codes_agree():
    # every way to build an element holds an owned, read-only stack of
    # planes, and ==, hash and ops.key(., level) agree exactly when the
    # codes do (up to a_level for the key)
    desc, wide = (GroupDescriptor.parse(f"Nottingham,Fq[[t]]:q=9,N={N}")
                  for N in (5, 7))
    ops = ops_for(desc)
    rng = np.random.default_rng(35)
    codes = [tuple(rng.integers(0, 9, 4).tolist()) for _ in range(3)]
    codes += [codes[0][:j] + ((codes[0][j] + 1) % 9,) + codes[0][j + 1 :]
              for j in range(4)]  # one slot apart from codes[0]
    codes += [(0, 0, 0, 0), (0, 3, 0, 0)]
    g = ops.sample_uniform(rng)
    built = [((0, 0, 0, 0), ops.identity()),
             ((0, 3, 0, 0), generator(desc, 2, 3))]
    for c in codes:
        x = from_codes(desc, c)
        text = "t" + "".join(f"+{a}t^{j + 2}" for j, a in enumerate(c) if a)
        built += [(c, y) for y in (
            x,
            ops.mul(ops.mul(x, g), ops.inv(g)),
            ops.unstack(ops.stack([g, x]))[1],
            ops.project(from_codes(wide, c + (5, 7)), 5),
            ops.deserialize(list(c)),
            parse_series(desc, text),
        )]
    for c, x in built:
        assert ops.coeffs(x) == c and x.descriptor == desc
        assert x.stack.flags.owndata and not x.stack.flags.writeable
        with pytest.raises(ValueError):
            x.stack[0, 0, 2] = 1
        for d, y in built:
            assert (x == y) == (c == d)
            assert hash(x) == hash(y) or c != d
            assert (ops.key(x) == ops.key(y)) == (c == d)
            for level in range(1, 7):
                assert (ops.key(x, level) == ops.key(y, level)) == \
                    (c[: level - 1] == d[: level - 1])


@pytest.mark.parametrize("q", [5, 9, 27])
def test_batched_compose_and_difference_depth_match_scalar(q):
    # bulk runs form g*h = ctx.compose(H, G) over whole batches and read
    # depth([g, h]) off the first slot where gh and hg differ
    N = 12
    ops = ops_for(GroupDescriptor("Nottingham", 0, Ring("FqT", 0, q, N)))
    ctx = nottingham.series_context(q, N + 1)
    rng = np.random.default_rng(q)
    gs = [ops.sample_kernel(int(n), rng) for n in rng.integers(1, 6, 50)]
    hs = [ops.sample_kernel(int(n), rng) for n in rng.integers(1, 6, 50)]
    hs[-1] = gs[-1]  # a commuting pair: depth N
    G, H = ops.stack(gs), ops.stack(hs)
    GH = ctx.compose(H, G)
    HG = ctx.compose(G, H)
    dep = ctx.first_difference_depth(GH, HG)
    for i, (g, h) in enumerate(zip(gs, hs)):
        assert (GH[i] == ops.mul(g, h).stack[0]).all()
        assert dep[i] == ops.depth(ops.commutator(g, h))
    assert dep[-1] == N and len(set(dep.tolist())) > 3


# --- Hasse-Taylor composition ------------------------------------------------
# compose picks Taylor (I products) over Horner (deg G products) when the
# inner series is t + h with I = (L - 1) // v(h) < deg G; both are exact.


def _inner(ctx, rng, v, batch=()):
    """Planes of t + h, h random of valuation v (v < L)."""
    codes = np.zeros(batch + (ctx.L,), dtype=np.int64)
    codes[..., 1] = 1
    codes[..., v:] = rng.integers(0, ctx.q, batch + (ctx.L - v,))
    codes[..., v] = rng.integers(1, ctx.q, batch)
    return ctx.planes_from_codes(codes)


def _counted_compose(monkeypatch, ctx, G, F):
    calls = []
    real = nottingham.SeriesContext.mul

    def counted(self, A, B):
        calls.append(1)
        return real(self, A, B)

    monkeypatch.setattr(nottingham.SeriesContext, "mul", counted)
    out = ctx.compose(G, F)
    monkeypatch.undo()
    return out, len(calls)


def _degree(G):
    return int(np.flatnonzero(G.reshape(-1, G.shape[-2], G.shape[-1])
                              .any(axis=(0, 1)))[-1])


@pytest.mark.parametrize("q", [5, 9, 25])
def test_taylor_compose_matches_horner(monkeypatch, q):
    L = 28
    ctx = nottingham.series_context(q, L)
    rng = np.random.default_rng(40 + q)
    for v in (2, 3, 5, 7, 10, 14, 27):  # shallow to deep inner series
        for _ in range(3):
            codes = rng.integers(0, q, L)
            codes[L - 1] = rng.integers(1, q)  # deg G = L - 1
            G = ctx.planes_from_codes(codes)
            F = _inner(ctx, rng, v)
            out, muls = _counted_compose(monkeypatch, ctx, G, F)
            assert (out == ctx._horner(G, F, L - 1)).all()
            I = (L - 1) // v
            assert ctx._taylor_terms(F) == I
            assert muls == min(I, L - 1)
    # a batch of mixed depths takes the smallest: v = 3, I = 9
    G = ctx.planes_from_codes(rng.integers(0, q, (12, L)))
    F = np.concatenate([_inner(ctx, rng, v, (3,)) for v in (3, 8, 12, 20)])
    out, muls = _counted_compose(monkeypatch, ctx, G, F)
    assert (out == ctx._horner(G, F, _degree(G))).all()
    assert muls == 9 < _degree(G)
    # batched G over one inner series, and the transpose
    F = _inner(ctx, rng, 6)
    assert (ctx.compose(G, F) == ctx._horner(G, F, _degree(G))).all()
    g = G[0]
    F = np.stack([_inner(ctx, rng, v) for v in (4, 9, 13)])
    assert (ctx.compose(g, F) == ctx._horner(g, F, _degree(g))).all()


@pytest.mark.parametrize("q", [5, 9, 25])
def test_compose_keeps_horner_where_taylor_costs_more(monkeypatch, q):
    L = 20
    ctx = nottingham.series_context(q, L)
    rng = np.random.default_rng(50 + q)
    # the identity inner series: G(t) = G with no product
    G = ctx.planes_from_codes(rng.integers(0, q, (4, L)))
    out, muls = _counted_compose(monkeypatch, ctx, G, ctx.t())
    assert (out == G).all() and muls == 0
    # deg G <= I: Horner, deg G products
    F = _inner(ctx, rng, 3)  # I = 6
    for deg in (2, 5, 6):
        codes = np.zeros(L, dtype=np.int64)
        codes[: deg + 1] = rng.integers(1, q, deg + 1)
        G = ctx.planes_from_codes(codes)
        out, muls = _counted_compose(monkeypatch, ctx, G, F)
        assert muls == deg and (out == ctx._horner(G, F, deg)).all()
    # F[0] != 0 or F[1] != t: Horner at every depth
    G = ctx.planes_from_codes(rng.integers(0, q, L))
    for lin in ((1, 1), (0, 2)):
        codes = np.zeros(L, dtype=np.int64)
        codes[:2] = lin
        codes[12:] = rng.integers(0, q, L - 12)
        F = ctx.planes_from_codes(codes)
        assert ctx._taylor_terms(F) is None
        out, muls = _counted_compose(monkeypatch, ctx, G, F)
        top = _degree(G)
        assert muls == top and (out == ctx._horner(G, F, top)).all()
