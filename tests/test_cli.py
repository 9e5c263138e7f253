import json
import os
import time
import warnings

import numpy as np
import pytest

from prosk import verify
from prosk.cli import main
from prosk.errors import UnknownSuite


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_verify_rings_ok(capsys):
    rc, out = run(capsys, "verify", "--suite", "rings", "--seed", "3")
    assert rc == 0
    rep = json.loads(out)
    assert rep["command"] == "verify"
    assert rep["config"]["seed"] == 3
    assert rep["report"]["passed"] is True
    names = [p["property"] for p in rep["report"]["suites"][0]["properties"]]
    assert any("valuation" in n for n in names)


def test_verify_rings_at_large_series_truncation(capsys):
    # the ring laws of the series engine the F_q[[t]] groups run, at N = 40
    rc, out = run(capsys, "verify", "--suite", "rings", "--ring",
                  "Fq[[t]]:q=25,N=40", "--scale", "0.2", "--seed", "0")
    assert rc == 0
    rep = json.loads(out)
    assert rep["config"]["ring"] == "Fq[[t]]:q=25,N=40"
    props = rep["report"]["suites"][0]["properties"]
    assert props and all(p["checked"] and not p["failed"] for p in props)


def test_verify_unknown_suite_exit_2(capsys):
    rc = main(["verify", "--suite", "nope", "--seed", "1"])
    assert rc == 2


def test_verify_nottingham_carries_convention_note(capsys):
    rc, out = run(capsys, "verify", "--suite", "nottingham", "--seed", "2",
                  "--scale", "0.3", "--ring", "Fq[[t]]:q=5,N=10")
    assert rc == 0
    rep = json.loads(out)
    suite = rep["report"]["suites"][0]
    assert suite["passed"]
    assert any("convention" in n for n in suite.get("notes", []))


def test_run_suite_unknown_name_raises():
    with pytest.raises(UnknownSuite):
        verify.run_suite("bogus")


def test_compile_roundtrip(tmp_path, capsys):
    out = tmp_path / "c.json"
    rc = main([
        "compile", "--group", "SL:d=2,Zp:p=3,N=4", "--level", "4",
        "--gens", "sampled:3:42", "--plan", "dyadic", "--seed", "7",
        "--out", str(out),
    ])
    assert rc == 0
    rep = json.loads(out.read_text())
    cert = rep["report"]["certificate"]
    assert cert["length"] <= cert["budget"]
    # replay the word against the same sampled set
    from prosk.matgroups import GroupDescriptor, ops_for
    from prosk.skcompiler import Word, evaluate, sample_generating_set

    desc = GroupDescriptor.parse("SL:d=2,Zp:p=3,N=4")
    gens = sample_generating_set(desc, 3, 42)
    word = Word.from_json(rep["report"]["word"])
    ops = ops_for(desc)
    got = evaluate(word, gens)
    want = ops.deserialize(rep["report"]["target"])
    assert ops.key(got, level=4) == ops.key(want, level=4)
    assert set(cert) == {"n", "length", "B", "D", "i", "l0", "budget",
                         "residual_depth", "plan", "A", "gens"}
    assert cert["gens"] == gens.id


def test_compile_nottingham_series_target(tmp_path):
    out = tmp_path / "n.json"
    rc = main([
        "compile", "--group", "Nottingham,Fq[[t]]:q=5,N=7", "--level", "7",
        "--gens", "sampled:3:11", "--plan", "triadic", "--n0", "2",
        "--target", "t+2t^3+t^7", "--seed", "4", "--out", str(out),
    ])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["report"]["target"] == [0, 2, 0, 0, 0, 1]


@pytest.mark.parametrize("target", ["t+t^3+t^3", [1.7, 0, 0, 0, 0, 0],
                                    ["2", 0, 0, 0, 0, 0]])
def test_compile_bad_nottingham_target_exit_2(tmp_path, target):
    # a repeated exponent, and a file coefficient that is not an integer,
    # are usage errors rather than a silently different target
    if not isinstance(target, str):
        path = tmp_path / "target.json"
        path.write_text(json.dumps(target))
        target = f"file:{path}"
    rc = main([
        "compile", "--group", "Nottingham,Fq[[t]]:q=5,N=7", "--level", "7",
        "--gens", "sampled:3:11", "--plan", "triadic", "--n0", "2",
        "--target", target, "--seed", "4",
    ])
    assert rc == 2


def test_compile_non_integer_matrix_target_exit_2(tmp_path):
    # an F_q[[t]] matrix entry with a float coefficient is a usage error,
    # not the identity it would truncate to
    path = tmp_path / "target.json"
    path.write_text(json.dumps([[[1.7, 0], [0, 0]], [[0, 0], [1, 0]]]))
    rc = main([
        "compile", "--group", "SL:d=2,Fq[[t]]:q=5,N=2", "--level", "2",
        "--gens", "sampled:3:11", "--target", f"file:{path}", "--seed", "4",
    ])
    assert rc == 2


def test_compile_past_the_int64_range(tmp_path):
    # 5^28 > 2^63: the Cayley draws of SO's sampled generators take
    # residues mod p^N in base p^m digits
    out = tmp_path / "so.json"
    rc = main([
        "compile", "--group", "SO:d=3,Zp:p=5,N=28", "--level", "2",
        "--gens", "sampled:3:1", "--seed", "0", "--out", str(out),
    ])
    assert rc == 0
    assert json.loads(out.read_text())["report"]["certificate"]["n"] == 2


def test_diam_with_file_gens(tmp_path, capsys):
    from prosk.matgroups import GroupDescriptor, element, ops_for

    desc = GroupDescriptor.parse("SL:d=2,Zp:p=3,N=1")
    ops = ops_for(desc)
    gens = [
        element(desc, [[1, 1], [0, 1]]),
        element(desc, [[1, 0], [1, 1]]),
    ]
    path = tmp_path / "gens.json"
    path.write_text(json.dumps({
        "group": desc.describe(),
        "elements": [ops.serialize(g) for g in gens],
    }))
    rc, out = run(capsys, "diam", "--group", desc.describe(),
                  "--gens", f"file:{path}", "--seed", "1")
    assert rc == 0
    rep = json.loads(out)
    assert rep["report"]["diameter"] == 4
    assert rep["report"]["order"] == 24


def test_gens_file_group_mismatch_exit_1(tmp_path):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps({"group": "SL:d=2,Zp:p=3,N=1", "elements": []}))
    rc = main(["diam", "--group", "SL:d=2,Zp:p=5,N=1",
               "--gens", f"file:{path}", "--seed", "1"])
    assert rc == 1


def test_bad_gens_spec_exit_2():
    rc = main(["diam", "--group", "SL:d=2,Zp:p=3,N=1",
               "--gens", "sampled:x:y", "--seed", "1"])
    assert rc == 2


def test_spectral_writes_csv(tmp_path):
    out = tmp_path / "s.json"
    rc = main([
        "spectral", "--group", "SL:d=2,Zp:p=3,N=1", "--gens", "sampled:2:3",
        "--l", "10", "--seed", "1", "--out", str(out),
    ])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert 0 < rep["report"]["rho"] < 1
    csv_text = (tmp_path / "s.csv").read_text().splitlines()
    assert csv_text[0].startswith("l,deviation")
    assert len(csv_text) == 12  # header + l = 0..10


def test_walk_series_csv_and_stats(tmp_path):
    out = tmp_path / "w.json"
    rc = main([
        "walk", "--group", "Nottingham,Fq[[t]]:q=5,N=3", "--gens", "sampled:3:7",
        "--l", "30", "--trials", "4000", "--seed", "7",
        "--stats-coords", "NottinghamCoeffs", "--out", str(out),
    ])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["report"]["order"] == 25
    assert rep["report"]["statistics"]["sup_dev_mc"] < 0.05
    lines = (tmp_path / "w.csv").read_text().splitlines()
    assert lines[0] == "l,sup_dev_mc,tv_mc,sup_dev_exact,tv_exact"


def test_walk_with_stats_builds_one_graph(monkeypatch):
    from prosk import spectral

    calls = []
    build = spectral.build_graph

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(spectral, "build_graph", counted)
    rc = main([
        "walk", "--group", "Nottingham,Fq[[t]]:q=5,N=3", "--gens", "sampled:3:7",
        "--l", "10", "--trials", "1000", "--seed", "7",
        "--stats-coords", "NottinghamCoeffs",
    ])
    assert rc == 0
    assert len(calls) == 1


def test_budget_cap_exit_3(monkeypatch):
    monkeypatch.setenv("PROSK_BUDGET_MB", "0")
    rc = main(["walk", "--group", "SL:d=2,Zp:p=3,N=3",
               "--gens", "sampled:3:7", "--l", "5", "--trials", "100",
               "--seed", "7"])
    assert rc == 3


def test_translation_table_past_the_budget_exits_3(monkeypatch, capsys):
    # test_bfs_charges_its_translation_table's case: the BFS states and one
    # chunk of products fit in 9 MB, the graph's permutation table does not
    monkeypatch.setenv("PROSK_BUDGET_MB", "9")
    rc = main(["diam", "--group", "SL:d=2,Zp:p=3,N=3",
               "--gens", "sampled:50:7", "--seed", "7"])
    assert rc == 3
    assert "PROSK_BUDGET_MB=9" in capsys.readouterr().err


def test_walk_past_the_work_cap_exits_3(capsys):
    """An over-long walk series is refused before its first step."""
    t0 = time.perf_counter()
    rc = main(["walk", "--group", "SL:d=2,Zp:p=3,N=2", "--gens", "sampled:3:7",
               "--l", "1000000000", "--seed", "7"])
    assert rc == 3
    assert time.perf_counter() - t0 < 1.0
    assert "WALK_WORK_CAP" in capsys.readouterr().err


def test_exact_profile_past_the_work_cap_exits_3(capsys):
    """An over-long exact profile (a group within EXACT_CONV_CAP) is refused
    before its first step, with no output."""
    t0 = time.perf_counter()
    rc = main(["spectral", "--group", "SL:d=2,Zp:p=13,N=1", "--gens",
               "sampled:3:5", "--l", "100000", "--seed", "1"])
    assert rc == 3
    assert time.perf_counter() - t0 < 5.0
    out, err = capsys.readouterr()
    assert out == ""
    assert "WALK_WORK_CAP" in err


@pytest.mark.parametrize("argv", [
    ["walk", "--trials", "0"],
    ["walk", "--trials", "-5"],
    ["walk", "--l", "-3"],
    ["spectral", "--l", "-2"],
])
def test_bad_walk_and_profile_sizes_exit_2(argv, tmp_path, capsys):
    out = tmp_path / "o.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NaN from an empty batch
        rc = main(argv[:1] + ["--group", "SL:d=2,Zp:p=3,N=1", "--gens",
                              "sampled:2:3", "--seed", "1", "--out", str(out)]
                  + argv[1:])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()
    assert not out.with_suffix(".csv").exists()


def test_walk_batch_past_the_budget_exits_3(monkeypatch, tmp_path, capsys):
    # a 24-element graph fits in 1 MB; a million walks' arrays do not
    monkeypatch.setenv("PROSK_BUDGET_MB", "1")
    argv = ["walk", "--group", "SL:d=2,Zp:p=3,N=1", "--gens", "sampled:2:3",
            "--l", "2", "--seed", "1"]
    out = tmp_path / "w.json"
    rc = main(argv + ["--trials", "1000000", "--out", str(out)])
    assert rc == 3
    assert "PROSK_BUDGET_MB=1" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv + ["--trials", "10000", "--out", str(out)]) == 0
    assert out.exists()


def test_seeded_rerun_identical(tmp_path):
    paths = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.json"
        rc = main([
            "walk", "--group", "SL:d=2,Zp:p=3,N=2", "--gens", "sampled:3:7",
            "--l", "20", "--trials", "3000", "--seed", "9", "--out", str(out),
        ])
        assert rc == 0
        paths.append(out)
    a = json.loads(paths[0].read_text())
    b = json.loads(paths[1].read_text())
    a.pop("timestamp"), b.pop("timestamp")
    assert a == b
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()


def test_all_suites_pass_quick():
    reports = verify.run("all", seed=1, scale=0.2)
    assert [r["suite"] for r in reports] == list(verify.SUITES)
    assert all(r["passed"] for r in reports)
