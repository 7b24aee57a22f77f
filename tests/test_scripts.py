"""Smoke tests of the example scripts: each ``main()`` runs on small
arguments and prints the congruences it certifies."""

import hashlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    path = SCRIPTS / (name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("q, wp", [(2, "t"), (3, "t"), (2, "t^2+t+1")])
def test_hasse_expansion(capsys, q, wp):
    code = load("hasse_expansion").main(["--q", str(q), "--wp", wp,
                                         "--prec", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("q = %d, " % q)
    # alpha_d = 1 mod wp: every listed difference has val_wp >= 1
    vals = [int(v) for v in re.findall(r"val_wp = (\d+)", out)]
    assert vals and min(vals) >= 1
    assert re.search(r"min val_wp\(alpha_d - 1\) over the window: [1-9]", out)


@pytest.mark.parametrize("q", [2, 3])
def test_limit_experiment(capsys, q):
    code = load("limit_experiment").main(["--q", str(q), "--prec", "8",
                                          "--steps", "3"])
    out = capsys.readouterr().out
    assert code == 0
    depths = re.findall(r"depth\(h_(\d+), h_\d+\) = (\d+) \(need >= (\d+)\)",
                        out)
    assert len(depths) == 2
    for n, depth, need in depths:
        assert int(depth) >= int(need) == int(n) - 1


def test_n_table(capsys):
    code = load("n_table").main(["--q", "2", "--wp", "t", "--f", "1",
                                 "--N", "16"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0 and len(lines) == 1
    row = json.loads(lines[0])
    assert (row["q"], row["wp"], row["f"], row["N"]) == (2, "t", "1", 16)
    assert row["i_max"] == 3 and row["tdquot_ok"] is True
    assert all(row[k] >= 0 for k in ("build_s", "psi_s", "verify_tdquot_s",
                                     "expp_s", "ordinarity_s", "rho_s"))


@pytest.mark.parametrize("q", [3, 4])
def test_residue_table(capsys, q):
    code = load("residue_table").main(["--q", str(q), "--deg", "2",
                                       "--r", "2", "--tau-degree", "2",
                                       "--reps", "2"])
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 0
    assert [row["op"] for row in rows] == [
        "residue_mul", "residue_pth_power", "poly_divmod", "mat_mul",
        "tau_mul", "tau_rdivmod"]
    assert all(row["q"] == q and row["deg"] == 2 and row["us"] > 0
               for row in rows)
    assert rows[3]["r"] == 2 and rows[4]["tau_degree"] == 2


def test_n_table_peak_rss(capsys):
    code = load("n_table").main(["--q", "2", "--wp", "t", "--N", "12,16"])
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 0 and [row["N"] for row in rows] == [12, 16]
    # the process peak so far, in MB: positive and never falling
    assert 0 < rows[0]["peak_rss_mb"] <= rows[1]["peak_rss_mb"]


def test_rss_guard(capsys, monkeypatch):
    # the child reads the package from src; its stdout digest is that of
    # the same command run in process
    from drinfeld import cli

    monkeypatch.setenv("PYTHONPATH", str(SCRIPTS.parent / "src"))
    command = ["tate", "canonical", "--q", "2", "--wp", "t", "--prec", "16"]
    assert cli.main(command) == 0
    digest = hashlib.md5(capsys.readouterr().out.encode()).hexdigest()
    guard = load("rss_guard")
    runs = []
    for md5, max_mb in ((digest, 1e6), ("0" * 32, 1e6), (digest, 0.001)):
        runs.append(guard.main(["--md5", md5, "--max-mb", str(max_mb), "--",
                                *command]))
        runs.append(json.loads(capsys.readouterr().out))
    assert runs[0] == 0 and runs[1]["ok"] and runs[1]["md5"] == digest
    assert runs[2] == 1 and not runs[3]["md5_ok"]
    assert runs[4] == 1 and runs[5]["md5_ok"] and runs[5]["peak_rss_mb"] > 0
