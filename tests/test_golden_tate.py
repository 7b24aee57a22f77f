"""Golden output of the Tate-Drinfeld engine.

Three `drinfeld tate` runs must print exactly the lines recorded in
`tests/golden/tate_drinfeld.jsonl`, one line per run in the order of `RUNS`.
They cover the canonical isogeny at q=3 and at a degree-2 wp, and the
x-expansions at q=2, so a change to the series products, the substitution
nu_wp or the lattice inverses that alters a single output byte shows here.
After an intended change of output, regenerate the file by running each
entry of `RUNS` as `PYTHONPATH=src python -m drinfeld.cli <args>` and
concatenating the outputs in order.
"""

from pathlib import Path

import pytest

from drinfeld import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "tate_drinfeld.jsonl"

RUNS = [
    ["tate", "canonical", "--q", "3", "--wp", "t", "--prec", "27"],
    ["tate", "canonical", "--q", "2", "--wp", "t^2+t+1", "--prec", "20"],
    ["tate", "expand", "--q", "2", "--wp", "t", "--prec", "24"],
]


@pytest.mark.parametrize("index", range(len(RUNS)),
                         ids=["-".join(argv[1:]) for argv in RUNS])
def test_tate_run_matches_golden(index, capsys):
    code = cli.main(RUNS[index])
    out = capsys.readouterr().out
    assert code == 0
    assert out == GOLDEN.read_text().splitlines(keepends=True)[index]
