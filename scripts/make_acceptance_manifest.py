#!/usr/bin/env python3
"""Emit a batch manifest covering every CLI pipeline, then optionally run it
through the suite runner.  `python scripts/make_acceptance_manifest.py
acceptance.json --run` is a quick end-to-end exercise of the tool."""

import argparse
import json
import subprocess
import sys

JOBS = [
    {"command": "carlitz eisenstein", "q": 2, "wp": "t"},
    {"command": "carlitz eisenstein", "q": 2, "wp": "t^2+t+1"},
    {"command": "carlitz eisenstein", "q": 3, "wp": "t"},
    {"command": "carlitz cyclotomic", "q": 2, "factors": "t,t"},
    {"command": "drinfeld dual", "q": 2, "wp": "t^2+t+1", "a1": "t", "a2": "1"},
    {"command": "drinfeld classify", "q": 2, "wp": "t^2+t+1", "a1": "t",
     "a2": "1"},
    {"command": "vsheaf kernel", "q": 2, "wp": "t", "a1": "1", "a2": "1"},
    {"command": "vsheaf dual", "q": 2, "wp": "t", "a1": "1", "a2": "1"},
    {"command": "vsheaf points", "q": 2, "wp": "t", "a1": "1", "a2": "1",
     "u": "tau^d"},
    {"command": "tate expand", "q": 2, "wp": "t", "f": "1", "prec": 8},
    {"command": "tate expand", "q": 2, "wp": "t", "f": "t", "prec": 8},
    {"command": "tate expand", "q": 3, "wp": "t", "f": "1", "prec": 8},
    {"command": "tate expand", "q": 2, "wp": "t^2+t+1", "f": "1", "prec": 8},
    {"command": "tate canonical", "q": 2, "wp": "t", "f": "1", "prec": 8},
    {"command": "tate canonical", "q": 2, "wp": "t^2+t+1", "f": "1", "prec": 8},
    {"command": "forms hasse", "q": 2, "wp": "t", "prec": 16},
    {"command": "forms hasse", "q": 3, "wp": "t", "prec": 16},
    {"command": "forms audit", "q": 2, "wp": "t", "prec": 12,
     "f1": "a1^2*a2", "f2": "a1^2*a2*g^4", "max_n": 6},
    {"command": "forms limit", "q": 2, "wp": "t", "prec": 12, "chi": "0,7",
     "steps": 4, "monomial": "a1^2*a2"},
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", nargs="?", default="acceptance.json")
    parser.add_argument("--run", action="store_true")
    args = parser.parse_args(argv)
    with open(args.path, "w") as fh:
        json.dump({"jobs": JOBS}, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print("wrote %s (%d jobs)" % (args.path, len(JOBS)))
    if args.run:
        proc = subprocess.run(
            [sys.executable, "-m", "drinfeld.cli", "suite",
             "--manifest", args.path],
            capture_output=True, text=True)
        doc = json.loads(proc.stdout)
        print("passed %d / failed %d" % (doc["passed"], doc["failed"]))
        return proc.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
