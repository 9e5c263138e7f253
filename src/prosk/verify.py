"""Invariant suites behind the `verify` subcommand.

Each suite replays one module's contract on fresh seeded samples and reports
per-property pass counts; failing inputs are carried verbatim (serialized)
so a red run is immediately reproducible.  These are the fast, rerunnable
versions of the checks — the full-scale quantitative gates live in the test
suite.
"""

from __future__ import annotations

import numpy as np

from . import liealg, matgroups, nottingham, rings, skcompiler, spectral
from .errors import (
    InvariantViolated,
    NoSquareRoot,
    NotGenerating,
    UnknownSuite,
    UsageError,
)

SUITES = ("rings", "filtration", "lie", "nottingham", "sk", "spectral")

MAX_FAILURES = 10  # kept verbatim per property; the rest is a count

CONVENTION_NOTE = (
    "depth-pairing convention resolved empirically: for f = t + lam*t^(n+1) + ... "
    "and g = t + mu*t^(m+1) + ..., the commutator leads at degree n+m+1 with "
    "coefficient lam*mu*(m-n) when products compose right-to-left (x*y = y o x); "
    "reversing the composition order flips the sign. All depth bookkeeping here "
    "uses the former orientation."
)


class _Prop:
    def __init__(self, name, note=None):
        self.name = name
        self.note = note
        self.checked = 0
        self.failures = []
        self.overflow = 0

    def ok(self):
        self.checked += 1

    def fail(self, detail):
        self.checked += 1
        if len(self.failures) < MAX_FAILURES:
            self.failures.append(detail)
        else:
            self.overflow += 1

    def as_dict(self):
        out = {
            "property": self.name,
            "checked": self.checked,
            "failed": len(self.failures) + self.overflow,
            "failures": self.failures,
        }
        if self.overflow:
            out["failures_truncated"] = self.overflow
        if self.note:
            out["note"] = self.note
        return out


def _report(suite, props, notes=None):
    out = {
        "suite": suite,
        "properties": [p.as_dict() for p in props],
        "passed": all(not p.failures and not p.overflow for p in props),
    }
    if notes:
        out["notes"] = notes
    return out


# ---------------------------------------------------------------------------
# rings


def _suite_rings(seed, scale, ring=None):
    rng = np.random.default_rng(seed)
    T = max(20, int(120 * scale))
    ring_list = [
        rings.Ring("Zp", 3, 3, 6),
        rings.Ring("Zp", 5, 5, 4),
        rings.Ring("FqT", 0, 5, 6),
        rings.Ring("FqT", 0, 9, 4),
    ]
    if ring is not None:
        ring_list.insert(0, ring)
    axioms = _Prop("ring axioms: associativity, commutativity, distributivity")
    vals = _Prop("valuation: v(xy) = min(v x + v y, N) and v(x+y) >= min(v x, v y)")
    units = _Prop("unit inverses multiply back to one")
    roots = _Prop("square-root lifting is exact (odd characteristic)")
    fields = _Prop("residue-field tables: associativity, inverses, additive Frobenius")

    for ring in ring_list:
        for _ in range(T):
            a, b, c = ring.rand(rng), ring.rand(rng), ring.rand(rng)
            good = (
                ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
                and ring.mul(a, b) == ring.mul(b, a)
                and ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
                and ring.mul(a, ring.add(b, c))
                == ring.add(ring.mul(a, b), ring.mul(a, c))
            )
            if good:
                axioms.ok()
            else:
                axioms.fail({"ring": ring.describe(), "a": a, "b": b, "c": c})

            va, vb = ring.val(a), ring.val(b)
            ok_v = ring.val(ring.mul(a, b)) == min(va + vb, ring.N) and ring.val(
                ring.add(a, b)
            ) >= min(va, vb)
            if ok_v:
                vals.ok()
            else:
                vals.fail({"ring": ring.describe(), "a": a, "b": b})

            u = ring.rand_unit(rng)
            if ring.mul(u, ring.inv(u)) == ring.one:
                units.ok()
            else:
                units.fail({"ring": ring.describe(), "u": u})

        if ring.p != 2:
            for _ in range(max(10, T // 4)):
                u = ring.rand_unit(rng)
                a = ring.mul(u, u)
                try:
                    beta = rings.hensel_sqrt(
                        rings.RingElem(ring, a), rings.RingElem(ring, u)
                    )
                    ok = ring.mul(beta.payload, beta.payload) == a
                except NoSquareRoot:
                    ok = False
                if ok:
                    roots.ok()
                else:
                    roots.fail({"ring": ring.describe(), "square": a})

    for q in (4, 9, 25, 27):
        field = rings.get_field(q)
        p = field.p
        xs = rng.integers(0, q, size=3 * T)
        ys = rng.integers(0, q, size=3 * T)
        zs = rng.integers(0, q, size=3 * T)
        assoc = field.mul_codes(field.mul_codes(xs, ys), zs)
        assoc2 = field.mul_codes(xs, field.mul_codes(ys, zs))
        frob = field.add_codes(xs, ys)
        for _ in range(p - 1):
            frob = field.mul_codes(frob, field.add_codes(xs, ys))
        fx = xs.copy()
        fy = ys.copy()
        for _ in range(p - 1):
            fx = field.mul_codes(fx, xs)
            fy = field.mul_codes(fy, ys)
        ok = np.array_equal(assoc, assoc2) and np.array_equal(
            frob, field.add_codes(fx, fy)
        )
        nz = xs[xs != 0]
        ok = ok and np.all(field.mul_codes(nz, field.div_codes(np.ones_like(nz), nz)) == 1)
        if ok:
            fields.ok()
        else:
            fields.fail({"q": q})

    return _report("rings", [axioms, vals, units, roots, fields])


# ---------------------------------------------------------------------------
# filtration


def _suite_filtration(seed, scale, ring=None):
    rng = np.random.default_rng(seed)
    T = max(20, int(120 * scale))
    descs = [
        matgroups.GroupDescriptor("SL", 2, rings.Ring("Zp", 3, 3, 6)),
        matgroups.GroupDescriptor("SO", 3, rings.Ring("Zp", 5, 5, 4)),
        matgroups.GroupDescriptor("Sp", 4, rings.Ring("Zp", 3, 3, 4)),
        matgroups.GroupDescriptor("SL", 3, rings.Ring("FqT", 0, 5, 4)),
        matgroups.GroupDescriptor("Nottingham", 0, rings.Ring("FqT", 0, 5, 16)),
    ]
    law = _Prop("[K_n, K_m] lands in K_{n+m}")
    refine = _Prop("perturbing one commutator factor in depth refines the bracket")
    for desc in descs:
        ops = matgroups.ops_for(desc)
        N = desc.ring.N
        for _ in range(T):
            n = int(rng.integers(1, N))
            m = int(rng.integers(1, N))
            g = ops.sample_kernel(n, rng)
            h = ops.sample_kernel(m, rng)
            c = ops.commutator(g, h)
            if ops.depth(c) >= min(n + m, N):
                law.ok()
            else:
                law.fail({
                    "family": desc.describe(),
                    "n": n,
                    "m": m,
                    "g": ops.serialize(g),
                    "h": ops.serialize(h),
                    "depth": ops.depth(c),
                })
            gp = ops.mul(g, ops.sample_kernel(min(n + 1, N), rng))
            hp = ops.mul(h, ops.sample_kernel(min(m + 1, N), rng))
            diff = ops.mul(ops.inv(c), ops.commutator(gp, hp))
            if ops.depth(diff) >= min(n + m + 1, N):
                refine.ok()
            else:
                refine.fail({
                    "family": desc.describe(),
                    "n": n,
                    "m": m,
                    "depth": ops.depth(diff),
                })
    return _report("filtration", [law, refine])


# ---------------------------------------------------------------------------
# lie


def _suite_lie(seed, scale, ring=None):
    rng = np.random.default_rng(seed)
    T = max(15, int(80 * scale))
    algebras = [
        liealg.LieAlgebra("sl", 2, rings.Ring("Zp", 3, 3, 5)),
        liealg.LieAlgebra("sl", 3, rings.Ring("Zp", 5, 5, 3)),
        liealg.LieAlgebra("so", 3, rings.Ring("Zp", 5, 5, 3)),
        liealg.LieAlgebra("so", 5, rings.Ring("Zp", 3, 3, 3)),
        liealg.LieAlgebra("sp", 4, rings.Ring("Zp", 3, 3, 3)),
        liealg.LieAlgebra("sl", 2, rings.Ring("FqT", 0, 9, 3)),
    ]
    resum = _Prop("bracket_decompose re-sums exactly within the pair bound")
    antis = _Prop("brackets are antisymmetric and stay in the algebra")
    for alg in algebras:
        bound = 2 if alg.family == "sl" else 3
        for _ in range(T):
            X = alg.random(rng)
            pairs = liealg.bracket_decompose(X)
            acc = alg.zero()
            for a, b in pairs:
                acc = acc + liealg.bracket(a, b)
            if acc == X and len(pairs) <= bound:
                resum.ok()
            else:
                resum.fail({
                    "algebra": alg.describe(),
                    "coords": X.coords,
                    "pairs": len(pairs),
                    "exact": acc == X,
                })
            Y = alg.random(rng)
            if (liealg.bracket(X, Y) + liealg.bracket(Y, X)).is_zero():
                antis.ok()
            else:
                antis.fail({"algebra": alg.describe()})
    return _report("lie", [resum, antis])


# ---------------------------------------------------------------------------
# nottingham


def _suite_nottingham(seed, scale, ring=None):
    rng = np.random.default_rng(seed)
    if ring is None:
        q, N = 5, 12
    else:
        if ring.kind != "FqT":
            raise UsageError("this suite runs over a truncated series ring")
        q, N = ring.q, ring.N
    desc = matgroups.GroupDescriptor("Nottingham", 0, rings.Ring("FqT", 0, q, N))
    ops = matgroups.ops_for(desc)
    field = rings.get_field(q)
    p = field.p
    T = max(20, int(100 * scale))

    laws = _Prop("series group laws: associativity, exact inverses")
    for _ in range(T):
        f, g, h = (ops.sample_uniform(rng) for _ in range(3))
        ok = ops.mul(ops.mul(f, g), h) == ops.mul(f, ops.mul(g, h))
        ok = ok and ops.mul(f, ops.inv(f)) == ops.identity()
        if ok:
            laws.ok()
        else:
            laws.fail({"f": ops.serialize(f), "g": ops.serialize(g)})

    lead = _Prop(
        "one-term commutators lead at degree n+m+1 with coefficient lam*mu*(m-n)",
        note=CONVENTION_NOTE,
    )
    cap = N - 2
    for n in range(1, cap):
        for m in range(1, cap):
            if n + m + 1 > N:
                continue
            for lam in range(1, q):
                for mu in range(1, q):
                    f = nottingham.generator(desc, n, lam)
                    g = nottingham.generator(desc, m, mu)
                    c = ops.commutator(f, g)
                    want = field.mul_codes(
                        field.mul_codes(np.array([lam]), np.array([mu])),
                        np.array([((m - n) % p + p) % p]),
                    )[0]
                    got = c.coeffs[n + m - 1]  # slot for degree n+m+1
                    if got == want:
                        lead.ok()
                    else:
                        lead.fail({
                            "n": n, "m": m, "lam": lam, "mu": mu,
                            "got": int(got), "want": int(want),
                        })

    oracle = _Prop("commutator oracle reproduces its target mod K_{2n+m}")
    admitted = [
        (n, m)
        for n in range(1, N)
        for m in range(n, min(2 * n, N) + 1)
        if ops.oracle_admissible(n, m) and 2 * n + m <= N
    ]
    for n, m in admitted:
        for _ in range(max(3, int(8 * scale))):
            r = ops.sample_kernel(n + m, rng)
            pairs = ops.oracle(r, n, m)
            acc = ops.identity()
            for aa, bb in pairs:
                acc = ops.mul(acc, ops.commutator(aa, bb))
            diff = ops.mul(ops.inv(acc), r)
            if ops.depth(diff) >= min(2 * n + m, N):
                oracle.ok()
            else:
                oracle.fail({
                    "n": n, "m": m,
                    "r": ops.serialize(r),
                    "residual_depth": ops.depth(diff),
                })

    coords = _Prop("canonical depth coordinates round-trip")
    for _ in range(T):
        f = ops.sample_uniform(rng)
        cc = nottingham.canonical_coordinates(f)
        if nottingham.from_canonical(desc, cc) == f:
            coords.ok()
        else:
            coords.fail({"f": ops.serialize(f)})

    return _report(
        "nottingham",
        [laws, lead, oracle, coords],
        notes=[CONVENTION_NOTE],
    )


# ---------------------------------------------------------------------------
# sk


def _suite_sk(seed, scale, ring=None):
    rng = np.random.default_rng(seed)
    desc = matgroups.GroupDescriptor("SL", 2, rings.Ring("Zp", 3, 3, 5))
    ops = matgroups.ops_for(desc)
    gens = skcompiler.sample_generating_set(desc, 3, seed)
    T = max(10, int(40 * scale))

    words = _Prop("word algebra: seam cancellation, commutator shape, exact evaluation")
    for _ in range(T):
        codes_a = rng.integers(0, 6, size=rng.integers(1, 12))
        codes_b = rng.integers(0, 6, size=rng.integers(1, 12))
        wa = skcompiler.Word(gens.id, np.array(codes_a, np.int32))
        wb = skcompiler.Word(gens.id, np.array(codes_b, np.int32))
        ga = skcompiler.evaluate(wa, gens)
        gb = skcompiler.evaluate(wb, gens)
        cat = wa.concat(wb)
        ok = skcompiler.evaluate(cat, gens) == ops.mul(ga, gb)
        comm = wa.commutator(wb)
        ok = ok and len(comm) == 2 * (len(wa) + len(wb))
        ok = ok and skcompiler.evaluate(comm, gens) == ops.commutator(ga, gb)
        inv_w = wa.inverse()
        ok = ok and skcompiler.evaluate(inv_w, gens) == ops.inv(ga)
        if ok:
            words.ok()
        else:
            words.fail({"a": codes_a.tolist(), "b": codes_b.tolist()})

    compiled = _Prop("compiled words evaluate exactly to their target at the requested level")
    budgets = _Prop("certified lengths stay within B^i * l0")
    corpus = [
        (desc, skcompiler.CompilePlan(), 5),
        (
            matgroups.GroupDescriptor("Nottingham", 0, rings.Ring("FqT", 0, 5, 9)),
            skcompiler.CompilePlan("triadic", n0=2),
            9,
        ),
    ]
    for cdesc, plan, level in corpus:
        cops = matgroups.ops_for(cdesc)
        cgens = skcompiler.sample_generating_set(cdesc, 3, seed + 1)
        try:
            table = skcompiler.build_base_table(cdesc, plan.n_base(cdesc), cgens)
        except NotGenerating:
            compiled.fail({"group": cdesc.describe(), "error": "base table: not generating"})
            continue
        sess = skcompiler.CompilerSession(cgens, table, plan)
        for _ in range(max(3, int(6 * scale))):
            target = cops.sample_uniform(rng)
            word, cert = sess.compile(target, level)
            got = skcompiler.evaluate(word, cgens)
            same = cops.key(got, level=level) == cops.key(target, level=level)
            if same:
                compiled.ok()
            else:
                compiled.fail({
                    "group": cdesc.describe(),
                    "target": cops.serialize(target),
                    "level": level,
                })
            if len(word) <= cert.budget:
                budgets.ok()
            else:
                budgets.fail({
                    "group": cdesc.describe(),
                    "length": len(word),
                    "budget": cert.budget,
                })

    tables = _Prop("base-table lookups stay within the table's max word length")
    btab = skcompiler.build_base_table(
        desc, 2, skcompiler.sample_generating_set(desc, 3, seed + 2)
    )
    for _ in range(T):
        g = ops.sample_uniform(rng)
        w = btab.lookup(g)
        ok = len(w) <= btab.l0
        ok = ok and ops.key(skcompiler.evaluate(w, btab.gens), level=2) == ops.key(g, level=2)
        if ok:
            tables.ok()
        else:
            tables.fail({"g": ops.serialize(g), "len": len(w), "l0": btab.l0})

    return _report("sk", [words, compiled, budgets, tables])


# ---------------------------------------------------------------------------
# spectral


def _suite_spectral(seed, scale, ring=None):
    rng = np.random.default_rng(seed)

    frozen = _Prop("frozen gap: Z/3 with {1,2} has rho 1/2 bare, 0 lazy")
    z3 = spectral.CyclicOps(3)
    bare = spectral.spectral_gap(spectral.build_graph(z3, [1], adjoin_identity=False))
    lazy = spectral.spectral_gap(spectral.build_graph(z3, [1]))
    if abs(bare - 0.5) < 1e-12 and abs(lazy) < 1e-12:
        frozen.ok()
    else:
        frozen.fail({"bare": bare, "lazy": lazy})

    sandwich = _Prop("diameter/gap sandwich plus pointwise rho^l mixing bound")
    d3 = matgroups.GroupDescriptor("SL", 2, rings.Ring("Zp", 3, 3, 1))
    ops3 = matgroups.ops_for(d3)
    dn4 = matgroups.GroupDescriptor("Nottingham", 0, rings.Ring("FqT", 0, 5, 4))
    nops = matgroups.ops_for(dn4)
    corpus = [
        (spectral.CyclicOps(6), [1]),
        (spectral.CyclicOps(10), [1, 3]),
        (spectral.CyclicOps(24), [1, 10]),
        (ops3, [matgroups.element(d3, [[1, 1], [0, 1]]),
                matgroups.element(d3, [[1, 0], [1, 1]])]),
        (nops, [nops.sample_uniform(rng) for _ in range(2)]),
    ]
    for ops, gens in corpus:
        try:
            rep = spectral.spectral_report(ops, gens, l_max=40)
        except (InvariantViolated, NotGenerating) as e:
            sandwich.fail({"order": ops.group_order(), "error": str(e)})
            continue
        devs = [float(x) for x in rep.profile]
        ok = all(devs[l] <= rep.rho**l + 1e-9 for l in range(len(devs)))
        ok = ok and all(devs[i + 1] <= devs[i] + 1e-12 for i in range(len(devs) - 1))
        if ok:
            sandwich.ok()
        else:
            sandwich.fail({"order": rep.order, "rho": rep.rho})

    wc = _Prop("worst-case diameters on frozen tiny cases")
    got7 = spectral.worst_case_diameter(spectral.CyclicOps(7)).value
    got2 = spectral.worst_case_diameter(spectral.CyclicOps(2)).value
    if got7 == 3 and got2 == 1:
        wc.ok()
    else:
        wc.fail({"z7": got7, "z2": got2})

    mono = _Prop("quotient diameters never exceed the source (exhaustive sweeps)")
    for G, Q, pr in (
        spectral.cyclic_pair(8, 4),
        spectral.cyclic_pair(9, 3),
    ):
        rep = spectral.monotonicity_exhaustive(G, Q, pr)
        if rep["violations"] or not rep["worst_case_ok"]:
            mono.fail(rep)
        else:
            mono.ok()
    dn3 = matgroups.GroupDescriptor("Nottingham", 0, rings.Ring("FqT", 0, 5, 3))
    n3ops = matgroups.ops_for(dn3)
    G, Q, pr = spectral.congruence_pair(n3ops, 2)
    rep = spectral.monotonicity_exhaustive(G, Q, pr)
    if rep["violations"] or not rep["worst_case_ok"]:
        mono.fail(rep)
    else:
        mono.ok()

    ext = _Prop("extension bound with worst-case quotient and kernel diameters")
    G4, Q2, pr2 = spectral.cyclic_pair(4, 2)
    r1 = spectral.extension_bound_check(G4, Q2, pr2, [0, 2], exhaustive=True)
    r2 = spectral.extension_bound_check(G4, G4, lambda a: a, [0], exhaustive=True)
    if not r1["violations"] and not r2["violations"] and r2["bound"] == r2["worst_case_Q"]:
        ext.ok()
    else:
        ext.fail({"with_kernel": r1, "trivial": r2})

    walk = _Prop("Monte Carlo walk matches the exact convolution within 3/sqrt(T)")
    dn5 = matgroups.GroupDescriptor("Nottingham", 0, rings.Ring("FqT", 0, 5, 4))
    wops = matgroups.ops_for(dn5)
    wgens = [wops.sample_uniform(rng) for _ in range(3)]
    trials = max(2000, int(20000 * scale))
    w = spectral.walk_statistics(
        wops, wgens, trials=trials, coordinates="NottinghamCoeffs", seed=seed
    )
    tol = 3 / np.sqrt(w.trials)
    ok = abs(w.sup_dev_mc - w.sup_dev_exact) < tol
    ok = ok and abs(w.tv_mc - w.tv_exact) < 0.5 * np.sqrt(w.order / w.trials) + tol
    ok = ok and all(m["tv_mc_vs_exact"] < tol for m in w.marginals)
    if ok:
        walk.ok()
    else:
        walk.fail(w.as_dict())

    return _report("spectral", [frozen, sandwich, wc, mono, ext, walk])


# ---------------------------------------------------------------------------
# dispatch


_RUNNERS = {
    "rings": _suite_rings,
    "filtration": _suite_filtration,
    "lie": _suite_lie,
    "nottingham": _suite_nottingham,
    "sk": _suite_sk,
    "spectral": _suite_spectral,
}


def run_suite(name, *, seed=0, scale=1.0, ring=None):
    if name not in _RUNNERS:
        raise UnknownSuite(
            f"unknown suite {name!r}; pick from {', '.join(SUITES)} or 'all'"
        )
    return _RUNNERS[name](seed, scale, ring)


def run(names, *, seed=0, scale=1.0, ring=None):
    """Run one suite or 'all'; returns a list of suite reports."""
    if names == "all":
        picked = list(SUITES)
    else:
        picked = [names]
    return [run_suite(n, seed=seed, scale=scale, ring=ring) for n in picked]
