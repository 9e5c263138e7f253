#!/usr/bin/env python3
"""Self-test of the benchmark's output checks: they must be able to fail.

    python3 perfbench/selftest.py

Feeds the checks a compiled word with one letter corrupted and a spectral
report with a wrong rho, next to the honest outputs, and requires that the
two corrupted ones, and only they, are counted as failures (and that the
reference comparison rejects the wrong rho too).  Exit code 0 when it holds.
"""

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (sets the thread and budget environment first)

sys.path.insert(0, os.path.join(run.ROOT, "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from prosk import skcompiler as sk, spectral  # noqa: E402
from prosk.matgroups import GroupDescriptor, ops_for  # noqa: E402


def corrupted_word(ops, gens, target, n, word):
    """`word` with one letter's exponent flipped so that it misses `target`
    mod K_n; the length, and so the certificate, is unchanged."""
    for i in range(len(word) - 1, -1, -1):
        ops_i = word.ops.copy()
        ops_i[i] ^= 1
        bad = sk.Word(word.gens_id, ops_i)
        ev = sk.evaluate(bad, gens)
        if ops.key(ev, level=n) != ops.key(target, level=n):
            return bad
    raise SystemExit("no single-letter corruption changes the word's value")


def main():
    tally = run.Tally()

    desc = GroupDescriptor.parse("SL:d=2,Zp:p=3,N=4")
    ops = ops_for(desc)
    plan = sk.CompilePlan()
    gens = sk.sample_generating_set(desc, 3, 100)
    sess = sk.CompilerSession(
        gens, sk.build_base_table(desc, plan.n_base(desc), gens), plan)
    target = ops.sample_uniform(np.random.default_rng(7))
    word, cert = sess.compile(target, 4)
    tally.record("honest word",
                 workloads.check_compile(ops, gens, target, 4, word, cert))
    bad = corrupted_word(ops, gens, target, 4, word)
    tally.record("corrupted word",
                 workloads.check_compile(ops, gens, target, 4, bad, cert))

    sl3 = ops_for(GroupDescriptor.parse("SL:d=2,Zp:p=3,N=1"))
    sgens = list(sk.sample_generating_set(sl3.descriptor, 2, 3).elements)
    rep = spectral.spectral_report(sl3, sgens, l_max=20)
    tally.record("honest report", workloads.check_report(rep))
    rho = rep.rho / 2
    wrong = dataclasses.replace(rep, rho=rho, inv_gap=1.0 / (1.0 - rho))
    tally.record("wrong rho", workloads.check_report(wrong))
    ref_problems = run.compare_facts({"rho": wrong.rho}, {"rho": rep.rho},
                                     1e-7)

    for msg in tally.messages:
        print("caught " + msg)
    ok = (tally.attempted == 4 and tally.failed == 2
          and all(m.startswith(("corrupted word", "wrong rho"))
                  for m in tally.messages)
          and ref_problems)
    print(f"selftest {'ok' if ok else 'FAILED'}: attempted={tally.attempted} "
          f"failed={tally.failed}; reference check on the wrong rho: "
          f"{ref_problems}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
