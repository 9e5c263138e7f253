import numpy as np
import pytest

from prosk import liealg
from prosk.liealg import LieAlgebra, bracket, bracket_decompose, from_matrix
from prosk.matgroups import GroupDescriptor, is_member, ops_for
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


def test_bracket_matches_matrix_commutator():
    rng = np.random.default_rng(24)
    from prosk import _matrix as mx

    for alg in (SL2, SO5, SP4):
        ring = alg.ring
        for _ in range(20):
            X, Y = alg.random(rng), alg.random(rng)
            A, B = X.to_matrix(), Y.to_matrix()
            AB = mx.mul(ring, A, B)
            BA = mx.mul(ring, B, A)
            diff = tuple(
                tuple(ring.sub(a, b) for a, b in zip(ra, rb))
                for ra, rb in zip(AB, BA)
            )
            assert bracket(X, Y).to_matrix() == diff


# --- the pair decomposition --------------------------------------------------


@pytest.mark.parametrize("alg", ALL)
def test_bracket_decompose_resums(alg):
    rng = np.random.default_rng(25)
    cap = 2 if alg.family == "sl" else 3
    for _ in range(80):
        X = alg.random(rng)
        pairs = bracket_decompose(X)
        assert len(pairs) <= cap
        acc = alg.zero()
        for a, b in pairs:
            acc = acc + bracket(a, b)
        assert acc == X


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
        pairs = ops.oracle(r, n, m, capped=(2 * n + m > N))
        assert len(pairs) <= ops.pairs_bound()
        acc = ops.identity()
        for a, b in pairs:
            assert ops.depth(a) >= n and ops.depth(b) >= m
            acc = ops.mul(acc, ops.commutator(a, b))
        gain = min(n + m + min(n, m), N)
        assert ops.depth(ops.mul(ops.inv(acc), r)) >= gain


def _mod(X, l):
    """X with every coordinate reduced mod pi^l."""
    ring = X.algebra.ring
    return X.algebra.from_coords(
        {k: ring.reduce_level(v, l) for k, v in X.coords.items()})


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
            assert is_member(g.descriptor, g.mat)
            assert _mod(liealg.linearize(g, l), l) == _mod(X, l)


# --- internal checks are raised, so they hold under python -O -----------------


def test_decomposition_checks_raise(monkeypatch):
    from prosk.errors import InvariantViolated, UsageError

    with pytest.raises(UsageError):
        liealg._sl_scheme(2)
    table = dict(liealg._sl_scheme(3))
    a, b = list(table)[:2]
    table[a], table[b] = table[b], table[a]
    with pytest.raises(InvariantViolated, match="preimage table"):
        liealg._verify_sl_scheme(3, table)
    X = SL3.random(np.random.default_rng(32))
    assert not X.is_zero()
    monkeypatch.setattr(liealg, "bracket", lambda P, W: P.algebra.zero())
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
