import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prosk import _bfs, matgroups, nottingham, skcompiler
from prosk.errors import InvariantViolated, NotGenerating, UsageError
from prosk.matgroups import GroupDescriptor, element, ops_for
from prosk.skcompiler import (
    CompilePlan,
    CompilerSession,
    GeneratingSet,
    Word,
    build_base_table,
    compile_element,
    evaluate,
    sample_generating_set,
)

SL2_81 = GroupDescriptor.parse("SL:d=2,Zp:p=3,N=4")
OPS = ops_for(SL2_81)
GENS = sample_generating_set(SL2_81, 3, 42)

op_codes = st.lists(st.integers(0, 5), min_size=0, max_size=15)


# --- word algebra ------------------------------------------------------------


@given(op_codes, op_codes)
@settings(max_examples=60, deadline=None)
def test_concat_evaluates_to_product(a, b):
    wa = Word(GENS.id, np.array(a, np.int32))
    wb = Word(GENS.id, np.array(b, np.int32))
    assert evaluate(wa.concat(wb), GENS) == OPS.mul(evaluate(wa, GENS), evaluate(wb, GENS))


@given(op_codes)
@settings(max_examples=60, deadline=None)
def test_inverse_word(a):
    w = Word(GENS.id, np.array(a, np.int32))
    assert evaluate(w.inverse(), GENS) == OPS.inv(evaluate(w, GENS))
    assert len(w.inverse()) == len(w)


@given(op_codes, op_codes)
@settings(max_examples=40, deadline=None)
def test_commutator_word(a, b):
    wa = Word(GENS.id, np.array(a, np.int32))
    wb = Word(GENS.id, np.array(b, np.int32))
    c = wa.commutator(wb)
    assert len(c) == 2 * (len(wa) + len(wb))
    assert evaluate(c, GENS) == OPS.commutator(evaluate(wa, GENS), evaluate(wb, GENS))


def test_seam_cancellation():
    # g0 g1 . g1^-1 g2  collapses to  g0 g2
    wa = Word(GENS.id, np.array([0, 2], np.int32))
    wb = Word(GENS.id, np.array([3, 4], np.int32))
    assert wa.concat(wb).ops.tolist() == [0, 4]


def test_word_json_roundtrip():
    w = Word(GENS.id, np.array([0, 3, 5, 1], np.int32))
    w2 = Word.from_json(w.to_json())
    assert w2.gens_id == w.gens_id and w2.ops.tolist() == w.ops.tolist()
    with pytest.raises(UsageError):
        Word.from_json({"gens": "x", "ops": [[0, 2]]})


def test_words_refuse_foreign_sets():
    other = sample_generating_set(SL2_81, 3, 43)
    w = Word(GENS.id, np.array([0], np.int32))
    v = Word(other.id, np.array([0], np.int32))
    with pytest.raises(UsageError):
        w.concat(v)


def test_generating_set_ids():
    assert sample_generating_set(SL2_81, 3, 42).id == GENS.id
    assert sample_generating_set(SL2_81, 3, 43).id != GENS.id


def test_evaluate_bounds_check():
    from prosk.errors import IndexOutOfRange

    for code in (7, -1):  # generator index 3 of a 3-set; index -1
        w = Word(GENS.id, np.array([0, code], np.int32))
        with pytest.raises(IndexOutOfRange):
            evaluate(w, GENS)


# --- evaluation engines ------------------------------------------------------
# evaluate picks its engine from the group; each must equal the plain
# left-to-right ops.mul fold exactly.  The flag says whether the letters are
# an int64 array (else Python ints, dtype object).

ENGINE_GROUPS = [
    ("SL:d=2,Zp:p=3,N=8", True),
    ("SO:d=3,Zp:p=3,N=9", True),
    ("Sp:d=4,Zp:p=5,N=3", True),
    # the int64 guard d (p^N - 1)^2 < 2^63 sits between N=19 and N=20
    ("SL:d=2,Zp:p=3,N=19", True),
    ("SL:d=2,Zp:p=3,N=20", False),
    # (6, d, d, k, N) coefficient planes, k = 2
    ("SL:d=2,Fq[[t]]:q=9,N=4", True),
    # Nottingham letters are (kL, kL) power matrices: k = 1, 2 below; at
    # q = 13 fewer products (7 against 8 at q = 5) run between reductions
    ("Nottingham,Fq[[t]]:q=5,N=27", True),
    ("Nottingham,Fq[[t]]:q=9,N=12", True),
    ("Nottingham,Fq[[t]]:q=13,N=20", True),
]
# 0 to 2 letters left over after the blocks of 3, both sides of the
# 512-letter edge, both sides of one chunk of 512 blocks, and two chunks
WORD_LENGTHS = (0, 1, 2, 3, 4, 511, 512, 513, 1535, 1536, 1537, 2000)


def _fold(ops, gens, codes):
    invs = [ops.inv(g) for g in gens.elements]
    acc = ops.identity()
    for c in codes.tolist():
        acc = ops.mul(acc, invs[c >> 1] if c & 1 else gens.elements[c >> 1])
    return acc


@pytest.mark.parametrize("text,int64", ENGINE_GROUPS)
def test_evaluate_engines_match_scalar_fold(text, int64):
    desc = GroupDescriptor.parse(text)
    ops = ops_for(desc)
    gens = sample_generating_set(desc, 3, 11)
    letters = gens.letters
    ring, d = desc.ring, desc.d
    if desc.family == "Nottingham":
        kL = ring.field.k * (ring.N + 1)
        assert letters.shape == (6, kL, kL)
    elif ring.kind == "FqT":
        assert letters.shape == (6, d, d, ring.field.k, ring.N)
    else:
        assert letters.shape == (6, d, d)
    assert letters.dtype == (np.int64 if int64 else object)
    rng = np.random.default_rng(12)
    left = ops.sample_uniform(rng)
    for n in WORD_LENGTHS:
        codes = rng.integers(0, 6, n).astype(np.int32)
        for word in (codes, codes ^ 1):  # every letter with both signs
            want = _fold(ops, gens, word)
            assert evaluate(Word(gens.id, word), gens) == want
            got = evaluate(Word(gens.id, word), gens, left=left)
            assert got == ops.mul(left, want)


@pytest.mark.parametrize(
    "text,owner,builder",
    [
        ("SO:d=3,Zp:p=3,N=9", matgroups.MatrixOps, "inv"),
        ("SL:d=2,Fq[[t]]:q=9,N=4", matgroups.MatrixOps, "inv"),
        ("Nottingham,Fq[[t]]:q=5,N=9", nottingham.NottinghamOps, "power_matrix"),
    ],
)
def test_letter_table_built_once(monkeypatch, text, owner, builder):
    desc = GroupDescriptor.parse(text)
    gens = sample_generating_set(desc, 3, 11)
    calls = []
    real = getattr(owner, builder)

    def counted(self, *args):
        calls.append(1)
        return real(self, *args)

    monkeypatch.setattr(owner, builder, counted)
    rng = np.random.default_rng(13)
    for _ in range(4):
        evaluate(Word(gens.id, rng.integers(0, 6, 40)), gens)
    first = gens.letters
    assert gens.letters is first
    assert len(calls) == (3 if builder == "inv" else 6)
    # one block table per set, in the letters' layout, and it adds no letter
    table, b = gens.blocks
    assert b == 3 and table.shape == (216,) + first.shape[1:]
    assert table.dtype == first.dtype and not table.flags.writeable
    built = len(calls)
    evaluate(Word(gens.id, rng.integers(0, 6, 40)), gens)
    assert gens.blocks[0] is table and len(calls) == built


def test_nottingham_block_table_rows_and_fallback(monkeypatch):
    # row (c1 c2 c3) in base 6 is M[c1] @ M[c2] @ M[c3] % p; below the byte
    # cap evaluate falls back to pairs, then single letters, unchanged
    desc = GroupDescriptor.parse("Nottingham,Fq[[t]]:q=5,N=9")
    ops = ops_for(desc)
    gens = sample_generating_set(desc, 3, 11)
    M, p = gens.letters, desc.ring.p
    table, b = gens.blocks
    for c1, c2, c3 in ((0, 0, 0), (1, 4, 2), (5, 3, 5)):
        want = M[c1] @ M[c2] @ M[c3] % p
        assert (table[(c1 * 6 + c2) * 6 + c3] == want).all()
    rng = np.random.default_rng(14)
    words = [rng.integers(0, 6, n).astype(np.int32)
             for n in (0, 1, 2, 3, 4, 5, 97)]
    want = [_fold(ops, gens, w) for w in words]
    mat_bytes = M[0].nbytes
    for cap, blen in ((36 * mat_bytes, 2), (36 * mat_bytes - 1, 1)):
        monkeypatch.setattr(skcompiler, "_BLOCK_BYTES", cap)
        small = GeneratingSet(desc, gens.elements)
        assert small.blocks[1] == blen and len(small.blocks[0]) == 6**blen
        for w, g in zip(words, want):
            assert evaluate(Word(small.id, w), small) == g


@pytest.mark.parametrize("text", ["SL:d=2,Zp:p=3,N=8", "SL:d=2,Zp:p=3,N=20",
                                  "SL:d=2,Fq[[t]]:q=9,N=4"])
def test_matrix_block_table_rows_and_fallback(monkeypatch, text):
    # row (c1 c2 c3) in base 6 is the stack entry of the letters c1 c2 c3's
    # product; the byte cap counts an object stack's Python ints, and below
    # it evaluate falls back to pairs, then single letters, unchanged
    desc = GroupDescriptor.parse(text)
    ops = ops_for(desc)
    gens = sample_generating_set(desc, 3, 11)
    table, b = gens.blocks
    assert b == 3
    for c in ((0, 0, 0), (1, 4, 2), (5, 3, 5)):
        row = table[(c[0] * 6 + c[1]) * 6 + c[2]][None]
        assert ops.unstack(row)[0] == _fold(ops, gens, np.array(c))
    rng = np.random.default_rng(15)
    left = ops.sample_uniform(rng)
    words = [rng.integers(0, 6, n).astype(np.int32)
             for n in (0, 1, 2, 3, 4, 5, 97)]
    want = [_fold(ops, gens, w) for w in words]
    entry = table[0].nbytes
    if table.dtype == object:
        entry += table[0].size * _bfs._BYTES_PER_OBJECT
    for cap, blen in ((36 * entry, 2), (36 * entry - 1, 1)):
        monkeypatch.setattr(skcompiler, "_BLOCK_BYTES", cap)
        small = GeneratingSet(desc, gens.elements)
        assert small.blocks[1] == blen and len(small.blocks[0]) == 6**blen
        for w, g in zip(words, want):
            assert evaluate(Word(small.id, w), small) == g
            assert evaluate(Word(small.id, w), small, left=left) == \
                ops.mul(left, g)


@pytest.mark.parametrize("text", ["SL:d=2,Zp:p=3,N=8", "SO:d=3,Zp:p=3,N=9",
                                  "SL:d=2,Zp:p=3,N=20"])  # past the guard
def test_matrix_compile_makes_no_scalar_products(monkeypatch, text):
    # the ladder's residuals g eval(w)^-1 run inside the product tree, with
    # g heading it, so a whole compile multiplies no two single elements;
    # and every element op reads the element's array, so no payload matrix
    # is derived
    desc = GroupDescriptor.parse(text)
    ops = ops_for(desc)
    gens = sample_generating_set(desc, 3, 100)
    plan = CompilePlan()
    sess = CompilerSession(gens, build_base_table(desc, plan.n_base(desc),
                                                  gens), plan)
    target = ops.sample_uniform(np.random.default_rng(16))
    calls = []
    real_mul = matgroups.MatrixOps.mul
    real_mat = matgroups.MatrixOps.mat

    def counted_mul(self, a, b):
        calls.append("mul")
        return real_mul(self, a, b)

    def counted_mat(self, a):
        calls.append("mat")
        return real_mat(self, a)

    monkeypatch.setattr(matgroups.MatrixOps, "mul", counted_mul)
    monkeypatch.setattr(matgroups.MatrixOps, "mat", counted_mat)
    N = desc.ring.N
    word, cert = sess.compile(target, N)
    assert cert.residual_depth >= N and len(word) > 100
    assert calls == []


def test_nottingham_compile_makes_no_code_conversions(monkeypatch):
    # elements, stacks, the oracle and the word fold all run on coefficient
    # planes, so a whole compile converts no series to or from field codes
    desc = GroupDescriptor.parse("Nottingham,Fq[[t]]:q=5,N=27")
    ops = ops_for(desc)
    gens = sample_generating_set(desc, 3, 300)
    plan = CompilePlan("triadic", n0=2)
    sess = CompilerSession(gens, build_base_table(desc, plan.n_base(desc),
                                                  gens), plan)
    target = ops.sample_uniform(np.random.default_rng(17))
    calls = []
    for name in ("planes_from_codes", "codes_from_planes"):
        real = getattr(nottingham.SeriesContext, name)

        def counted(self, X, name=name, real=real):
            calls.append(name)
            return real(self, X)

        monkeypatch.setattr(nottingham.SeriesContext, name, counted)
    word, cert = sess.compile(target, 27)
    assert cert.residual_depth >= 27 and len(word) > 100
    assert calls == []


def test_unreduced_products_bound():
    # s is the largest count with (p - 1) (n (p - 1))^s < 2^63
    assert skcompiler._unreduced_products(5, 28) == 8
    assert skcompiler._unreduced_products(13, 21) == 7
    for p, n in ((2, 2), (2, 40), (3, 13), (5, 28), (13, 21), (31, 64)):
        s = skcompiler._unreduced_products(p, n)
        assert (p - 1) * (n * (p - 1)) ** s < 2**63
        assert (p - 1) * (n * (p - 1)) ** (s + 1) >= 2**63


# --- base tables -------------------------------------------------------------


def test_base_table_covers_quotient():
    table = build_base_table(SL2_81, 2, GENS)
    assert table.level == 2
    assert table.count == 648
    rng = np.random.default_rng(50)
    for _ in range(40):
        g = OPS.sample_uniform(rng)
        w = table.lookup(g)
        assert len(w) <= table.l0
        assert OPS.key(evaluate(w, GENS), level=2) == OPS.key(g, level=2)


def test_base_table_rejects_non_generating():
    # a single upper-triangular element generates an abelian subgroup
    g = element(SL2_81, [[1, 1], [0, 1]])
    gens = GeneratingSet(SL2_81, [g])
    with pytest.raises(NotGenerating):
        build_base_table(SL2_81, 1, gens)


# --- plans -------------------------------------------------------------------


def test_plan_parameters():
    dy = CompilePlan()
    assert dy.D == 2 and dy.budget_base(OPS) == 44  # A = 2
    tri = CompilePlan("triadic")
    assert tri.D == 3 and tri.budget_base(OPS) == 9**6
    with pytest.raises(UsageError):
        CompilePlan("quartic")
    nd = GroupDescriptor.parse("Nottingham,Fq[[t]]:q=5,N=9")
    assert CompilePlan("triadic").default_n0(nd) == 3
    assert CompilePlan("triadic", n0=2).n_base(nd) == 6
    assert CompilePlan().default_n0(SL2_81) == 1


# --- compilation -------------------------------------------------------------


def test_compile_exact_and_budgeted():
    table = build_base_table(SL2_81, 2, GENS)
    sess = CompilerSession(GENS, table)
    rng = np.random.default_rng(51)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            target = OPS.sample_uniform(rng)
            word, cert = sess.compile(target, n)
            got = evaluate(word, GENS)
            assert OPS.key(got, level=n) == OPS.key(target, level=n)
            assert cert.length == len(word) <= cert.budget
            assert cert.residual_depth >= n
            assert cert.gens == GENS.id
    # the certificate's fields, in order, with the set's id last
    assert list(cert.as_dict()) == ["n", "length", "B", "D", "i", "l0",
                                    "budget", "residual_depth", "plan", "A",
                                    "gens"]


def test_compile_certificate_exponent():
    table = build_base_table(SL2_81, 2, GENS)
    sess = CompilerSession(GENS, table)
    rng = np.random.default_rng(52)
    t = OPS.sample_uniform(rng)
    _, c2 = sess.compile(t, 2)
    _, c3 = sess.compile(t, 3)
    _, c4 = sess.compile(t, 4)
    assert c2.i == 0 and c3.i == 1 and c4.i == 1
    assert c3.budget == c2.B * c2.l0


def test_compile_nottingham_triadic():
    desc = GroupDescriptor.parse("Nottingham,Fq[[t]]:q=5,N=9")
    ops = ops_for(desc)
    gens = sample_generating_set(desc, 3, 7)
    plan = CompilePlan("triadic", n0=2)
    table = build_base_table(desc, plan.n_base(desc), gens)
    rng = np.random.default_rng(53)
    for _ in range(3):
        target = ops.sample_uniform(rng)
        word, cert = compile_element(target, 9, table, plan)
        assert ops.key(evaluate(word, gens), level=9) == ops.key(target, level=9)
        assert len(word) <= cert.budget
        assert cert.plan == "triadic" and cert.D == 3


def test_compile_memo_reuse():
    table = build_base_table(SL2_81, 2, GENS)
    sess = CompilerSession(GENS, table)
    rng = np.random.default_rng(54)
    t = OPS.sample_uniform(rng)
    w1, _ = sess.compile(t, 4)
    w2, _ = sess.compile(t, 4)
    assert w1.ops.tolist() == w2.ops.tolist()


def test_compile_rejects_foreign_target():
    other = GroupDescriptor.parse("SL:d=2,Zp:p=3,N=3")
    table = build_base_table(SL2_81, 2, GENS)
    sess = CompilerSession(GENS, table)
    t = ops_for(other).identity()
    with pytest.raises(UsageError):
        sess.compile(t, 2)


def test_compile_level_out_of_range():
    from prosk.errors import PrecisionExceedsTruncation

    table = build_base_table(SL2_81, 2, GENS)
    sess = CompilerSession(GENS, table)
    with pytest.raises(PrecisionExceedsTruncation):
        sess.compile(OPS.identity(), 9)


# --- runtime invariants ------------------------------------------------------


def _depth2_target():
    rng = np.random.default_rng(55)
    while True:
        g = OPS.sample_kernel(2, rng)
        if OPS.depth(g) == 2:
            return g


def test_compile_miss_raises_invariant(monkeypatch):
    sess = CompilerSession(GENS, build_base_table(SL2_81, 2, GENS))
    monkeypatch.setattr(sess, "_refine", lambda g, t: Word(GENS.id))
    with pytest.raises(InvariantViolated):
        sess.compile(_depth2_target(), 4)


def test_ladder_stall_raises_invariant(monkeypatch):
    sess = CompilerSession(GENS, build_base_table(SL2_81, 2, GENS))
    monkeypatch.setattr(sess.ops, "oracle", lambda *a, **k: [])
    with pytest.raises(InvariantViolated):
        sess.compile(_depth2_target(), 4)


def test_cli_compile_miss_exits_1_under_optimize_flag():
    # under -O an assert would vanish and the failure would go unreported;
    # inputs: a compile that misses its target, a spectral sandwich that
    # fails, a section lift that leaves the group, a bracket decomposition
    # that does not resum
    cases = [("""
import sys
from prosk import skcompiler
from prosk.cli import main

skcompiler.CompilerSession._refine = lambda self, g, t: skcompiler.Word(self.gens.id)
sys.exit(main(["compile", "--group", "SL:d=2,Zp:p=3,N=4", "--level", "4",
               "--gens", "sampled:3:42", "--plan", "dyadic", "--seed", "7"]))
""", "misses target"), ("""
import sys
from prosk import spectral
from prosk.cli import main

spectral.spectral_gap = lambda graph, **kw: 1.0 - 1e-9  # 1/(1-rho) = 1e9
sys.exit(main(["spectral", "--group", "SL:d=2,Zp:p=3,N=1",
               "--gens", "sampled:2:3", "--l", "12", "--seed", "1"]))
""", "sandwich violated"), ("""
import sys
import numpy as np
from prosk import matgroups
from prosk.cli import main

matgroups.MatrixOps.is_member = lambda self, X: np.zeros(len(X), dtype=bool)
sys.exit(main(["spectral", "--group", "SL:d=2,Zp:p=3,N=2",
               "--gens", "sampled:2:3", "--l", "12", "--seed", "1"]))
""", "section lift left the group"), ("""
import sys
from prosk import liealg
from prosk.cli import main
from prosk.rings import Ring

plan = liealg._plan("sl", 2, Ring("Zp", 3, 3, 4))
plan.D = plan.D * 0  # a plan whose left members cannot reproduce X
sys.exit(main(["compile", "--group", "SL:d=2,Zp:p=3,N=4", "--level", "4",
               "--gens", "sampled:3:42", "--plan", "dyadic", "--seed", "7"]))
""", "decomposition failed to reproduce its input")]
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for script, message in cases:
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 1, out.stderr
        assert message in out.stderr and "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "text,plan,n_base,level",
    [
        ("SL:d=2,Zp:p=3,N=8", CompilePlan("dyadic"), 2, 8),
        ("Nottingham,Fq[[t]]:q=5,N=27", CompilePlan("triadic", n0=2), 6, 27),
    ],
)
def test_incremental_residual_matches_fresh(monkeypatch, text, plan, n_base, level):
    # _refine carries r = g eval(w)^-1 from stage to stage as r eval(cw)^-1;
    # at every stage it must equal the residual recomputed from the whole
    # word with a group inversion
    desc = GroupDescriptor.parse(text)
    ops = ops_for(desc)
    gens = sample_generating_set(desc, 3, 11)
    sess = CompilerSession(gens, build_base_table(desc, n_base, gens), plan)
    frames, stages = [], []
    refine, residual = sess._refine, sess._residual

    def spy_refine(g, t):
        frames.append([g, None])
        try:
            return refine(g, t)
        finally:
            frames.pop()

    def spy_residual(x, word):
        r = residual(x, word)
        if frames:  # inside a ladder: x is g, then the previous r
            frame = frames[-1]
            frame[1] = word if frame[1] is None else word.concat(frame[1])
            fresh = ops.mul(frame[0], ops.inv(evaluate(frame[1], gens)))
            assert r == fresh
            stages.append(x is not frame[0])
        return r

    monkeypatch.setattr(sess, "_refine", spy_refine)
    monkeypatch.setattr(sess, "_residual", spy_residual)
    rng = np.random.default_rng(21)
    for _ in range(2):
        word, cert = sess.compile(ops.sample_uniform(rng), level)
        assert cert.residual_depth >= level
    assert sum(stages) >= 10  # incremental updates, not just first residuals
