"""Quantitative acceptance gates, one test per criterion.

Each test drives one end-to-end claim at full scale — bulk filtration laws,
oracle exactness, compiler budgets, spectral sandwiches, walk
equidistribution, CLI reproducibility — and prints a single summary line on
success.  The per-module test files carry the fast frozen/property checks;
this file is the slow, numbers-as-stated run.  The bulk filtration run
samples its matrices from the library's own exact lifts (`liealg._lift_any`,
tabulated once per family and multiplied as int64 arrays), and its
Nottingham half uses the library's series engine (SeriesContext); every
batch path is spot-checked against the scalar reference implementation
inside the same test.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from prosk import liealg, matgroups, rings, skcompiler as sk, spectral, verify
from prosk.cli import main
from prosk.errors import NotGenerating
from prosk.matgroups import GroupDescriptor, ops_for
from prosk.nottingham import series_context

TOL = 1e-9


def _gate(num, detail):
    print(f"[criterion {num}] PASS - {detail}")


def _desc(text):
    return GroupDescriptor.parse(text)


def _kernel_lifts(desc):
    """The library's lift of c * e_name at layer l, and its inverse, for every
    layer 1..N-1, basis name and c in 0..p-1: int64 arrays [l - 1, name, c]."""
    ring = desc.ring
    alg = liealg.LieAlgebra(desc.family.lower(), desc.d, ring)
    shape = (ring.N - 1, alg.dim, ring.p, desc.d, desc.d)
    F, Finv = np.empty(shape, np.int64), np.empty(shape, np.int64)
    for l in range(1, ring.N):
        for k, name in enumerate(alg.basis_names()):
            for c in range(ring.p):
                f = liealg._lift_any(alg.from_coords({name: c}), l)
                F[l - 1, k, c] = f.stack[0]
                Finv[l - 1, k, c] = ops_for(desc).inv(f).stack[0]
    return F, Finv


def _sample_depths(lifts, depths, rng):
    """Exact-uniform samples of K_v, v = depths[i] per row, each with its
    inverse: one draw c per row for every layer l >= v and basis name, the
    lifts multiplied on the right and their inverses on the left."""
    F, Finv = lifts
    N, dim, p, d = F.shape[0] + 1, F.shape[1], F.shape[2], F.shape[3]
    mod = p**N
    g = np.broadcast_to(np.eye(d, dtype=np.int64), (len(depths), d, d)).copy()
    gi = g.copy()
    for v in np.unique(depths):
        rows = np.flatnonzero(depths == v)
        a, ai = g[rows], gi[rows]
        for l in range(v, N):
            for k in range(dim):
                c = rng.integers(0, p, len(rows), dtype=np.int64)
                a = a @ F[l - 1, k, c] % mod
                ai = Finv[l - 1, k, c] @ ai % mod
        g[rows], gi[rows] = a, ai
    return g, gi


def _commutator(g, gi, h, hi, mod):
    """[g, h] = g^-1 h^-1 g h, rows reduced after every product."""
    return gi @ hi % mod @ g % mod @ h % mod


def _depths(M, p, N):
    """Depth of each matrix: the count of v <= N with M = I mod p^v."""
    D = M - np.eye(M.shape[-1], dtype=np.int64)
    return sum((D % p**v == 0).all(axis=(1, 2)) for v in range(1, N + 1))


def _sample_series(ctx, depths, rng):
    """Nottingham planes t + lam t^(d+1) + (free tail), exact depth d per row:
    the free slots are drawn first, then the nonzero leads."""
    B, L = len(depths), ctx.L
    codes = rng.integers(0, ctx.q, (B, L))
    codes[np.arange(L) <= depths[:, None] + 1] = 0
    codes[:, 1] = 1
    codes[np.arange(B), depths + 1] = rng.integers(1, ctx.q, B)
    return ctx.planes_from_codes(codes)


def _gen_sets(desc, k, count, seed0):
    """`count` verified generating sets (graph-checked; enumerable groups
    only), advancing the seed past non-generating draws."""
    ops = ops_for(desc)
    sets = []
    seed = seed0
    while len(sets) < count:
        gs = sk.sample_generating_set(desc, k, seed)
        seed += 1
        try:
            spectral.build_graph(ops, list(gs.elements))
        except NotGenerating:
            continue
        sets.append(gs)
    return sets


# ---------------------------------------------------------------------------
# 1. filtration laws in bulk


def test_criterion_1_filtration_bulk():
    PAIRS = 10_000
    t0 = time.perf_counter()
    checked = 0

    matrix_descs = [
        GroupDescriptor(fam, d, rings.Ring("Zp", p, p, 9))
        for p in (3, 5)
        for fam, d in [("SL", 2), ("SL", 3), ("SO", 3), ("SO", 5), ("Sp", 4)]
    ]
    for desc in matrix_descs:
        p, N = desc.ring.p, desc.ring.N
        mod = p**N
        I = np.eye(desc.d, dtype=np.int64)
        lifts = _kernel_lifts(desc)
        rng = np.random.default_rng(17)
        ns = rng.integers(1, N, PAIRS)
        ms = rng.integers(1, N, PAIRS)
        g, gi = _sample_depths(lifts, ns, rng)
        h, hi = _sample_depths(lifts, ms, rng)
        assert ops_for(desc).is_member(g[:200]).all(), desc.describe()
        assert not (g @ gi % mod - I).any(), desc.describe()
        c = _commutator(g, gi, h, hi, mod)
        dep = _depths(c, p, N)
        assert (dep >= np.minimum(ns + ms, N)).all(), desc.describe()
        # refinement: bumping either factor one level deeper moves the
        # commutator only inside K_{n+m+1}
        g2, g2i = _sample_depths(lifts, np.minimum(ns + 1, N), rng)
        h2, h2i = _sample_depths(lifts, np.minimum(ms + 1, N), rng)
        c2 = _commutator(g @ g2 % mod, g2i @ gi % mod,
                         h @ h2 % mod, h2i @ hi % mod, mod)
        diff = _commutator(h, hi, g, gi, mod) @ c2 % mod  # [g, h]^-1 [g', h']
        assert (_depths(diff, p, N) >= np.minimum(ns + ms + 1, N)).all()
        # scalar cross-check ties the batch loop to the reference path
        ops = ops_for(desc)
        for i in range(6):
            a = matgroups.element(desc, g[i].tolist())
            b = matgroups.element(desc, h[i].tolist())
            assert ops.depth(ops.commutator(a, b)) == int(dep[i])
        checked += PAIRS

    for q in (5, 7, 9):
        N = 40
        ctx = series_context(q, N + 1)
        field = ctx.field
        rng = np.random.default_rng(23)
        ns = rng.integers(1, 20, PAIRS)
        ms = rng.integers(1, 20, PAIRS)
        G = _sample_series(ctx, ns, rng)
        H = _sample_series(ctx, ms, rng)
        U = ctx.compose(H, G)  # g*h = h o g
        V = ctx.compose(G, H)  # h*g = g o h
        # depth([g,h]) is the first coefficient where gh and hg disagree
        dep = ctx.first_difference_depth(U, V)
        assert (dep >= np.minimum(ns + ms, N)).all(), f"q={q}"
        # refinement at degree n+m+1: the commutator's leading coefficient
        # is exactly lam*mu*(m-n), zero included when p | (m-n)
        idx = np.arange(PAIRS)
        Gc, Hc = ctx.codes_from_planes(G), ctx.codes_from_planes(H)
        Uc, Vc = ctx.codes_from_planes(U), ctx.codes_from_planes(V)
        lam = Gc[idx, ns + 1]
        mu = Hc[idx, ms + 1]
        want = field.mul_codes(field.mul_codes(lam, mu), (ms - ns) % ctx.p)
        got = field.sub_codes(Uc[idx, ns + ms + 1], Vc[idx, ns + ms + 1])
        assert (got == want).all(), f"q={q}"
        desc = GroupDescriptor("Nottingham", 0, rings.Ring("FqT", 0, q, N))
        ops = ops_for(desc)
        for i in range(6):
            gi = ops.deserialize([int(x) for x in Gc[i, 2:]])
            hi = ops.deserialize([int(x) for x in Hc[i, 2:]])
            assert ops.depth(ops.commutator(gi, hi)) == int(dep[i])
        checked += PAIRS

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"filtration sweep took {elapsed:.1f}s"
    _gate(1, f"{len(matrix_descs)} matrix + 3 Nottingham families x {PAIRS} "
             f"pairs, law + refinement, 0 violations, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. bracket decomposition


def test_criterion_2_bracket_decompose():
    T = 1000
    cases = [
        ("sl", 2, rings.Ring("Zp", 3, 3, 5)),
        ("sl", 3, rings.Ring("Zp", 3, 3, 5)),
        ("so", 3, rings.Ring("Zp", 3, 3, 5)),
        ("so", 5, rings.Ring("Zp", 3, 3, 5)),
        ("sp", 4, rings.Ring("Zp", 3, 3, 5)),
        ("so", 5, rings.Ring("Zp", 5, 5, 4)),
        ("sp", 4, rings.Ring("Zp", 5, 5, 4)),
        ("sl", 3, rings.Ring("FqT", 0, 5, 4)),
    ]
    for fam, d, ring in cases:
        alg = liealg.LieAlgebra(fam, d, ring)
        bound = 2 if fam == "sl" else 3
        rng = np.random.default_rng(29)
        assert liealg.bracket_decompose(alg.zero()) == []
        for _ in range(T):
            X = alg.random(rng)
            pairs = liealg.bracket_decompose(X)
            assert len(pairs) <= bound, (fam, d)
            acc = alg.zero()
            for Y, Z in pairs:
                acc = acc + liealg.bracket(Y, Z)
            assert (acc + (-X)).is_zero(), (fam, d)
    _gate(2, f"{len(cases)} algebras x {T} vectors, resum exact, "
             f"pair bound 2 (sl) / 3 (so, sp)")


# ---------------------------------------------------------------------------
# 3. commutator oracle


def test_criterion_3_commutator_oracle():
    T = 100
    for p in (3, 5):
        for fam, d in [("SL", 2), ("SL", 3), ("SO", 3), ("SO", 5), ("Sp", 4)]:
            desc = GroupDescriptor(fam, d, rings.Ring("Zp", p, p, 9))
            ops = ops_for(desc)
            N = desc.ring.N
            admitted = [(n, m) for n in range(1, N) for m in range(n, N)
                        if ops.oracle_admissible(n, m) and 2 * n + m <= N]
            assert admitted, desc.describe()
            rng = np.random.default_rng(31)
            for n, m in admitted:
                for _ in range(T):
                    r = ops.sample_kernel(n + m, rng)
                    pairs = ops.oracle(r, n, m)
                    assert len(pairs) <= ops.pairs_bound()
                    w = ops.identity()
                    for a, b in pairs:
                        assert ops.depth(a) >= n and ops.depth(b) >= m
                        w = ops.mul(w, ops.commutator(a, b))
                    resid = ops.mul(ops.inv(r), w)
                    assert ops.depth(resid) >= 2 * n + m, (desc.describe(), n, m)

    ndesc = _desc("Nottingham,Fq[[t]]:q=5,N=40")
    nops = ops_for(ndesc)
    ruled = [(n, m) for n in range(1, 40) for m in range(1, 40)
             if nops.oracle_admissible(n, m)]
    stated = [(n, m) for n in range(1, 40)
              for m in range(n, min(2 * n, 39) + 1) if (m - n) % 5]
    assert ruled == stated  # admissibility is exactly the stated level rules
    admitted = [(n, m) for n, m in ruled if 2 * n + m <= 40]
    rng = np.random.default_rng(37)
    for n, m in admitted:
        for _ in range(T):
            r = nops.sample_kernel(n + m, rng)
            pairs = nops.oracle(r, n, m)
            assert len(pairs) <= nops.pairs_bound()
            w = nops.identity()
            for a, b in pairs:
                assert nops.depth(a) >= n and nops.depth(b) >= m
                w = nops.mul(w, nops.commutator(a, b))
            assert nops.depth(nops.mul(nops.inv(r), w)) >= 2 * n + m, (n, m)
    _gate(3, f"10 matrix families x 6 admitted pairs + Nottingham q=5 x "
             f"{len(admitted)} pairs, {T} targets each, exact mod K_2n+m")


# ---------------------------------------------------------------------------
# 4. compiler soundness and budget


def test_criterion_4_compiler_budget():
    # dyadic ladder on SL2(Z/3^8)
    desc = _desc("SL:d=2,Zp:p=3,N=8")
    ops = ops_for(desc)
    plan = sk.CompilePlan()
    levels = list(range(1, 9))
    max_len = {n: 1 for n in levels}
    rng = np.random.default_rng(41)
    n_sets = 0
    seed = 100
    while n_sets < 20:
        gens = sk.sample_generating_set(desc, 3, seed)
        seed += 1
        try:
            # generation is certified by the base-table enumeration itself
            table = sk.build_base_table(desc, plan.n_base(desc), gens)
        except NotGenerating:
            continue
        n_sets += 1
        sess = sk.CompilerSession(gens, table, plan)
        for n in levels:
            for _ in range(2):
                tgt = ops.sample_uniform(rng)
                word, cert = sess.compile(tgt, n)
                ev = sk.evaluate(word, gens)
                assert ops.key(ev, level=n) == ops.key(tgt, level=n)
                assert cert.length == len(word) <= cert.budget
                assert cert.B == 44 and cert.budget == 44**cert.i * cert.l0
                max_len[n] = max(max_len[n], cert.length)
    slope = spectral.loglog_slope(levels, [max_len[n] for n in levels])
    sl_bound = math.log(44) / math.log(2) + 0.5
    assert slope <= sl_bound, f"dyadic slope {slope:.2f} > {sl_bound:.2f}"

    # triadic ladder on N_5 mod K_n up to n = 27
    ndesc = _desc("Nottingham,Fq[[t]]:q=5,N=27")
    nops = ops_for(ndesc)
    nplan = sk.CompilePlan("triadic", n0=2)
    nlevels = [2, 6, 9, 18, 27]
    nmax = {n: 1 for n in nlevels}
    nsets = 0
    seed = 300
    while nsets < 20:
        gens = sk.sample_generating_set(ndesc, 3, seed)
        seed += 1
        try:
            table = sk.build_base_table(ndesc, nplan.n_base(ndesc), gens)
        except NotGenerating:
            continue
        nsets += 1
        sess = sk.CompilerSession(gens, table, nplan)
        for n in nlevels:
            tgt = nops.sample_uniform(rng)
            word, cert = sess.compile(tgt, n)
            ev = sk.evaluate(word, gens)
            assert nops.key(ev, level=n) == nops.key(tgt, level=n)
            assert cert.length == len(word) <= cert.budget
            assert cert.B == 9**6 and cert.budget == cert.B**cert.i * cert.l0
            nmax[n] = max(nmax[n], cert.length)
    nslope = spectral.loglog_slope(nlevels, [nmax[n] for n in nlevels])
    tri_bound = math.log(9**6) / math.log(3) + 0.5
    assert nslope <= tri_bound, f"triadic slope {nslope:.2f} > {tri_bound:.2f}"
    _gate(4, f"SL2: 20 sets x 8 levels, max len {max_len[8]}, slope "
             f"{slope:.2f} <= {sl_bound:.2f}; Nottingham: 20 sets x "
             f"{len(nlevels)} levels, max len {nmax[27]}, slope "
             f"{nslope:.2f} <= {tri_bound:.2f}")


# ---------------------------------------------------------------------------
# 5. diameter sandwich + mixing profile corpus


def _corpus():
    pairs = []
    patterns = [[1], [1, 2], [2, 3], None]
    ks = [5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18, 20, 21, 22, 24, 25,
          26, 27, 28, 30, 32, 33, 35, 36, 40, 44, 45, 48, 50, 54, 60, 64]
    for i, k in enumerate(ks):
        gens = patterns[i % 4] or [1, k // 2 + 1]
        pairs.append((f"Z/{k}", spectral.CyclicOps(k), gens))
    structured = [
        ("SL:d=2,Zp:p=3,N=1", 2, 3),
        ("SL:d=2,Zp:p=3,N=1", 3, 4),
        ("SL:d=2,Zp:p=3,N=1", 4, 5),
        ("SO:d=3,Zp:p=3,N=1", 2, 6),
        ("SO:d=3,Zp:p=3,N=1", 3, 7),
        ("SL:d=2,Zp:p=5,N=1", 2, 8),
        ("SL:d=2,Zp:p=5,N=1", 3, 9),
        ("SO:d=3,Zp:p=5,N=1", 2, 10),
        ("SO:d=3,Zp:p=5,N=1", 3, 11),
        ("SL:d=2,Zp:p=7,N=1", 3, 12),
        ("SL:d=2,Zp:p=3,N=2", 3, 13),
        ("SL:d=2,Zp:p=3,N=2", 2, 14),
        ("SL:d=3,Fq[[t]]:q=2,N=1", 3, 15),
        ("Nottingham,Fq[[t]]:q=5,N=4", 2, 16),
        ("Nottingham,Fq[[t]]:q=5,N=4", 3, 17),
        ("Nottingham,Fq[[t]]:q=5,N=4", 4, 18),
        ("Nottingham,Fq[[t]]:q=5,N=5", 3, 19),
        ("Nottingham,Fq[[t]]:q=7,N=3", 2, 20),
        ("Nottingham,Fq[[t]]:q=7,N=3", 3, 21),
        ("SL:d=2,Zp:p=11,N=1", 3, 22),
        ("SL:d=2,Zp:p=13,N=1", 3, 23),
        ("Nottingham,Fq[[t]]:q=5,N=6", 3, 24),  # 3125: float-profile regime
    ]
    for text, k, seed in structured:
        desc = _desc(text)
        gens = list(_gen_sets(desc, k, 1, seed)[0].elements)
        pairs.append((text, ops_for(desc), gens))
    return pairs


def test_criterion_5_diameter_sandwich():
    corpus = _corpus()
    assert len(corpus) >= 50
    n_exact = 0
    for label, ops, gens in corpus:
        rep = spectral.spectral_report(ops, gens, l_max=50)
        assert rep.order <= 5000, label
        assert rep.sandwich_lower <= rep.inv_gap + TOL, label
        assert rep.inv_gap <= rep.sandwich_upper + TOL, label
        prof = [float(x) for x in rep.profile]
        for l, dev in enumerate(prof):
            assert dev <= rep.rho**l + TOL, (label, l)
        for l in range(len(prof) - 1):
            assert prof[l + 1] <= prof[l] + 1e-12, (label, l)
        assert rep.exact_profile == (rep.order <= 3000), label
        if rep.exact_profile:
            n_exact += 1
            assert rep.profile[0] == Fraction(rep.order - 1, rep.order), label
    _gate(5, f"{len(corpus)} (G, S) pairs, sandwich within {TOL}, rho^l "
             f"pointwise to l=50, {n_exact} in exact rational mode")


# ---------------------------------------------------------------------------
# 6. quotient monotonicity and the extension bound


def test_criterion_6_monotonicity_extension():
    chains = [(4, 2), (8, 4), (16, 8), (32, 16), (9, 3), (27, 9), (25, 5)]
    swept = 0
    for big, small in chains:
        rep = spectral.monotonicity_exhaustive(*spectral.cyclic_pair(big, small))
        assert rep["violations"] == [] and rep["worst_case_ok"], (big, small)
        swept += rep["checked"]
    nott = ops_for(_desc("Nottingham,Fq[[t]]:q=5,N=3"))
    rep = spectral.monotonicity_exhaustive(*spectral.congruence_pair(nott, 2))
    assert rep["violations"] == [] and rep["worst_case_ok"]
    swept += rep["checked"]

    # extension bound, exhaustive sizes
    for big, small in [(4, 2), (8, 4), (9, 3)]:
        G, Q, proj = spectral.cyclic_pair(big, small)
        kern = list(range(0, big, small))
        rep = spectral.extension_bound_check(G, Q, proj, kern, exhaustive=True)
        assert rep["violations"] == [], (big, small)
        assert rep["max_diam_G"] <= rep["bound"]
    # trivial kernel: the bound collapses to the quotient diameter
    G5 = spectral.CyclicOps(5)
    rep = spectral.extension_bound_check(G5, G5, lambda x: x, [0],
                                         exhaustive=True)
    assert rep["worst_case_K"] == 0 and rep["bound"] == rep["worst_case_Q"]
    assert rep["violations"] == []
    sl3 = ops_for(_desc("SL:d=2,Zp:p=3,N=1"))
    rep = spectral.extension_bound_check(sl3, sl3, lambda g: g,
                                         [sl3.identity()], exhaustive=True)
    assert rep["worst_case_K"] == 0 and rep["violations"] == []

    # sampled regime: SL2(Z/9) -> SL2(Z/3)
    desc9 = _desc("SL:d=2,Zp:p=3,N=2")
    G, Q, proj = spectral.congruence_pair(ops_for(desc9), 1)
    mono = spectral.monotonicity_sampled(G, Q, proj, sets=20, seed=5)
    assert mono["checked"] == 20 and mono["violations"] == []
    kern = matgroups.enumerate_kernel(desc9, 1)
    ext = spectral.extension_bound_check(G, Q, proj, kern, sets=20, seed=6)
    assert ext["checked"] == 20 and ext["violations"] == []
    _gate(6, f"exhaustive: {swept} generating sets over 8 quotient pairs + "
             f"4 extension cases; sampled SL2(Z/9)->SL2(Z/3): 20+20 sets, "
             f"0 violations")


# ---------------------------------------------------------------------------
# 7. Nottingham depth-pairing suite


def test_criterion_7_nottingham_suite():
    rep = verify.run_suite("nottingham", seed=17, scale=1.0)
    assert rep["passed"] is True
    assert verify.CONVENTION_NOTE in rep.get("notes", [])
    lead = [p for p in rep["properties"]
            if p.get("note") == verify.CONVENTION_NOTE]
    assert lead and lead[0]["failed"] == 0 and lead[0]["checked"] >= 848
    total = sum(p["checked"] for p in rep["properties"])
    _gate(7, f"suite green, {total} checks, lead-coefficient sweep "
             f"{lead[0]['checked']} cases, composition-order convention "
             f"documented in the report")


# ---------------------------------------------------------------------------
# 8. random-walk equidistribution


def test_criterion_8_walk_equidistribution():
    T = 10**5
    mc_tol = 3.0 / math.sqrt(T)
    runs = []
    for text, coords, seeds in [
        ("Nottingham,Fq[[t]]:q=5,N=6", "NottinghamCoeffs", (5, 6)),
        ("SL:d=2,Zp:p=3,N=3", None, (5, 6)),
    ]:
        desc = _desc(text)
        ops = ops_for(desc)
        for seed in seeds:
            gens = list(_gen_sets(desc, 3, 1, seed)[0].elements)
            rep = spectral.walk_statistics(ops, gens, trials=T,
                                           coordinates=coords, seed=seed)
            assert rep.steps == rep.schedule == spectral.mixing_length(
                rep.rho, rep.order)
            # the Cor-style sup-coset deviation |G| max|q_l - 1/|G||
            assert rep.scaled_sup_exact < 1e-2, (text, seed)
            assert rep.mc_vs_exact_sup < mc_tol, (text, seed)
            for m in rep.marginals:
                assert m["tv_exact_uniform"] < 1e-2, (text, m["label"])
                assert m["tv_mc_vs_exact"] < mc_tol, (text, m["label"])
            runs.append((text, rep))
    # coordinate form on the depth-1 kernel walk (matrix-entry marginals)
    desc = _desc("SL:d=2,Zp:p=3,N=3")
    ops = ops_for(desc)
    rng = np.random.default_rng(11)
    kgens = [ops.sample_kernel(1, rng) for _ in range(4)]
    krep = spectral.walk_statistics(ops, kgens, trials=T,
                                    coordinates="FirstKind", seed=3, order=729)
    assert krep.scaled_sup_exact < 1e-2
    assert krep.mc_vs_exact_sup < mc_tol
    assert len(krep.marginals) == 4
    for m in krep.marginals:
        assert m["tv_exact_uniform"] < 1e-2
    detail = ", ".join(f"{t.split(',')[0]}: steps={r.steps} "
                       f"sup={r.scaled_sup_exact:.1e}" for t, r in runs[::2])
    _gate(8, f"{len(runs)} full-group walks + 1 kernel coordinate walk at "
             f"10^5 trials; {detail}; MC matches exact within {mc_tol:.1e}")


# ---------------------------------------------------------------------------
# 9. CLI reproducibility


def _strip_timestamp(text):
    return "\n".join(l for l in text.splitlines() if '"timestamp"' not in l)


def test_criterion_9_cli_reproducibility(tmp_path, capsys):
    commands = [
        ["spectral", "--group", "SL:d=2,Zp:p=3,N=1", "--gens", "sampled:2:3",
         "--l", "12", "--seed", "1"],
        ["walk", "--group", "Nottingham,Fq[[t]]:q=5,N=3", "--gens",
         "sampled:3:7", "--l", "40", "--trials", "5000", "--seed", "2",
         "--stats-coords", "NottinghamCoeffs"],
        ["compile", "--group", "SL:d=2,Zp:p=3,N=4", "--level", "4", "--gens",
         "sampled:3:42", "--plan", "dyadic", "--seed", "7"],
        ["verify", "--suite", "rings", "--seed", "3", "--scale", "0.3"],
    ]
    for i, argv in enumerate(commands):
        texts, csvs = [], []
        for run in ("a", "b"):
            out = tmp_path / f"c{i}{run}.json"
            rc = main(argv + ["--out", str(out)])
            capsys.readouterr()
            assert rc == 0
            texts.append(out.read_bytes())
            csv = out.with_suffix(".csv")
            csvs.append(csv.read_bytes() if csv.exists() else b"")
        assert _strip_timestamp(texts[0].decode()) == \
            _strip_timestamp(texts[1].decode()), argv[0]
        assert csvs[0] == csvs[1], argv[0]
    _gate(9, f"{len(commands)} seeded commands re-run byte-identical "
             f"(timestamp excluded), series CSVs byte-identical")
