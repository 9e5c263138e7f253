"""The scripts under scripts/ run end to end on tiny inputs and write the
JSON and CSV files they promise."""

import csv
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from prosk.errors import BudgetExceeded

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _outputs(path):
    with open(path) as fh:
        payload = json.load(fh)
    with open(path.with_suffix(".csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    return payload, rows


def test_mixing_curves(tmp_path, capsys):
    out = tmp_path / "curves.json"
    rc = _script("mixing_curves").main([
        "--group", "Nottingham,Fq[[t]]:q=5,N=3", "--gens", "sampled:3:7",
        "--l", "20", "--trials", "2000", "--checkpoints", "5", "--seed", "2",
        "--out", str(out)])
    assert rc == 0
    payload, rows = _outputs(out)
    assert payload["order"] == 25 and payload["exact"] is True
    assert 0 < payload["rho"] < 1 and payload["schedule"] >= 1
    assert [r["l"] for r in payload["rows"]] == [0, 4, 8, 12, 16, 20]
    assert [int(r["l"]) for r in rows] == [0, 4, 8, 12, 16, 20]
    assert list(rows[0]) == ["l", "sup_dev_mc", "tv_mc", "sup_dev_exact",
                             "tv_exact"]
    assert float(rows[0]["tv_exact"]) == pytest.approx(1 - 1 / 25)
    assert "|G|=25" in capsys.readouterr().out


def test_mixing_curves_builds_one_graph(tmp_path, monkeypatch):
    from prosk import spectral

    calls = []
    build = spectral.build_graph

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(spectral, "build_graph", counted)
    rc = _script("mixing_curves").main([
        "--group", "Nottingham,Fq[[t]]:q=5,N=3", "--gens", "sampled:3:7",
        "--l", "10", "--trials", "1000", "--seed", "2",
        "--out", str(tmp_path / "curves.json")])
    assert rc == 0
    assert len(calls) == 1


def test_mixing_curves_refuses_an_endless_walk(tmp_path):
    with pytest.raises(BudgetExceeded, match="WALK_WORK_CAP"):
        _script("mixing_curves").main([
            "--group", "SL:d=2,Zp:p=3,N=2", "--l", "1000000000", "--seed", "2",
            "--out", str(tmp_path / "never.json")])
    assert not (tmp_path / "never.json").exists()


def test_compile_scaling(tmp_path):
    out = tmp_path / "scaling.json"
    rc = _script("compile_scaling").main([
        "--group", "SL:d=2,Zp:p=3,N=4", "--gens", "sampled:3:100",
        "--targets", "1", "--seed", "4", "--out", str(out)])
    assert rc == 0
    payload, rows = _outputs(out)
    assert payload["plan"] == "dyadic"
    assert [r["level"] for r in payload["rows"]] == [1, 2, 3, 4]
    for r in payload["rows"]:
        assert 1 <= r["max_length"] <= r["budget"]
    assert [int(r["level"]) for r in rows] == [1, 2, 3, 4]
    assert list(rows[0]) == ["level", "max_length", "budget"]


def test_compile_scaling_reports_a_miss(monkeypatch, capsys):
    # the script's own check of each word survives python -O: a word that
    # evaluates off its target is reported on stderr with exit code 1
    mod = _script("compile_scaling")
    sk = SimpleNamespace(**vars(mod.sk))
    sk.evaluate = lambda word, gens: mod.ops_for(gens.descriptor).identity()
    monkeypatch.setattr(mod, "sk", sk)
    rc = mod.main(["--group", "SL:d=2,Zp:p=3,N=4", "--gens", "sampled:3:100",
                   "--levels", "4", "--targets", "1", "--seed", "4"])
    assert rc == 1
    assert "misses its target mod K_4" in capsys.readouterr().err


def test_diameter_growth(tmp_path):
    out = tmp_path / "growth.json"
    rc = _script("diameter_growth").main([
        "--group", "SL:d=2,Zp:p=3,N=2", "--sets", "1", "--contrast", "3:4",
        "--seed", "1", "--out", str(out)])
    assert rc == 0
    payload, rows = _outputs(out)
    assert [r["order"] for r in payload["rows"]] == [24, 648]
    assert [r["order"] for r in payload["contrast"]] == [3, 9, 27, 81]
    # Z/p^n with +-1 is a cycle: diameter floor(p^n / 2)
    assert [r["diameter"] for r in payload["contrast"]] == [1, 4, 13, 40]
    assert [int(r["order"]) for r in rows] == [24, 648]
    assert list(rows[0]) == ["level", "order", "diameter", "sets"]
