"""Golden output of the acceptance manifest.

The 19 jobs of `scripts/make_acceptance_manifest.py` run through
`drinfeld suite --threads 1` must print exactly the bytes recorded in
`tests/golden/acceptance_suite.json`.  Refactors of the arithmetic core keep
every result bit-identical, so any difference here is a regression.  After an
intended change of output, regenerate the file with

    python scripts/make_acceptance_manifest.py acceptance.json
    PYTHONPATH=src python -m drinfeld.cli suite --manifest acceptance.json \
        --threads 1 > tests/golden/acceptance_suite.json
"""

import importlib.util
import json
from pathlib import Path

from drinfeld import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "acceptance_suite.json"


def _acceptance_jobs():
    path = ROOT / "scripts" / "make_acceptance_manifest.py"
    spec = importlib.util.spec_from_file_location("make_acceptance_manifest",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.JOBS


def test_acceptance_manifest_matches_golden(tmp_path, capsys):
    manifest = tmp_path / "acceptance.json"
    manifest.write_text(json.dumps({"jobs": _acceptance_jobs()},
                                   sort_keys=True, indent=1) + "\n")
    code = cli.main(["suite", "--manifest", str(manifest), "--threads", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == GOLDEN.read_text()
