"""Golden output of the tau-module commands over A/(m) with large Frobenius
twists.

Four runs must print exactly the lines recorded in
`tests/golden/frobenius_modules.jsonl`, one line per run in the order of
`RUNS`.  Each twisted product a tau^i * b = a b^(q^i) tau^i over A/(m) calls
`AResidue.frob(i)`, so these runs reach p-th powers p^k with k well past
what the q = 2 acceptance jobs use: `drinfeld classify` at q=5 with a
degree-2 wp, `vsheaf kernel` at q=4 (e = 2, k up to 12), `vsheaf dual` at
q=3 with a degree-3 wp, and `vsheaf points` over a degree-2 extension, where
theta is not the class of t.  After an intended change of output,
regenerate the file by running each entry of `RUNS` as
`PYTHONPATH=src python -m drinfeld.cli <args>` and concatenating the
outputs in order.
"""

from pathlib import Path

import pytest

from drinfeld import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "frobenius_modules.jsonl"

RUNS = [
    ["drinfeld", "classify", "--q", "5", "--wp", "t^2+t+2",
     "--a1", "3", "--a2", "t+4"],
    ["vsheaf", "kernel", "--q", "4", "--wp", "[u+1,1,u,1]",
     "--a1", "[u,u]", "--a2", "[0,u]"],
    ["vsheaf", "dual", "--q", "3", "--wp", "t^3+2*t^2+1",
     "--a1", "t^2+1", "--a2", "t^2+2*t+2"],
    ["vsheaf", "points", "--q", "3", "--wp", "t^2+1",
     "--a1", "t+1", "--a2", "2*t", "--ext-degree", "2"],
]


@pytest.mark.parametrize("index", range(len(RUNS)),
                         ids=["-".join(argv[:2] + argv[3:4]) for argv in RUNS])
def test_frobenius_run_matches_golden(index, capsys):
    code = cli.main(RUNS[index])
    out = capsys.readouterr().out
    assert code == 0
    assert out == GOLDEN.read_text().splitlines(keepends=True)[index]
