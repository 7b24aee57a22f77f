"""Golden output of the Tate-Drinfeld engine just above a lattice layer.

The degree-D monic multipliers a of the lattice f A change the exponential
only from x-valuation (q-1) q^deg(f) (q^(2D+1)+1)/(q+1) on.  Each run below
sits at x-precision one above such a valuation, so the last layer that is
visible mod x^N shows in its output: layer 3 at q=2 (valuation 43), layer 2
at q=2 with f = t (valuation 22), layer 1 at q=3 (valuation 14), and the
object path at q=4 = 2^2 with f = t.  The runs must print exactly the lines
recorded in `tests/golden/tate_layers.jsonl`, one line per run in the order
of `RUNS`.  After an intended change of output, regenerate the file by
running each entry of `RUNS` as `PYTHONPATH=src python -m drinfeld.cli
<args>` and concatenating the outputs in order.
"""

from pathlib import Path

import pytest

from drinfeld import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "tate_layers.jsonl"

RUNS = [
    ["tate", "expand", "--q", "2", "--wp", "t", "--prec", "44"],
    ["tate", "expand", "--q", "2", "--wp", "t", "--f", "t", "--prec", "23"],
    ["tate", "expand", "--q", "3", "--wp", "t+1", "--prec", "15"],
    ["tate", "canonical", "--q", "4", "--wp", "t", "--f", "t", "--prec", "40"],
]


@pytest.mark.parametrize("index", range(len(RUNS)),
                         ids=["-".join(argv[1:]) for argv in RUNS])
def test_tate_layer_run_matches_golden(index, capsys):
    code = cli.main(RUNS[index])
    out = capsys.readouterr().out
    assert code == 0
    assert out == GOLDEN.read_text().splitlines(keepends=True)[index]
