#!/usr/bin/env python3
"""Run one drinfeld CLI command in a child process; check its stdout and
its peak resident memory.

The child is ``python -m drinfeld.cli`` with the arguments after ``--``.
Its peak RSS is ``resource.getrusage(RUSAGE_CHILDREN).ru_maxrss`` once it
has exited (KiB on Linux), the largest of any child this process has
waited for, so run the guard as its own process.  It prints one JSON line
and exits 0 when the command succeeded, the MD5 of its stdout equals --md5
and the peak is at most --max-mb, else 1.  Example, from the repository
root:

    PYTHONPATH=src python3 scripts/rss_guard.py \\
        --md5 e879d8c392511f232d570e620b57b133 --max-mb 45 -- \\
        tate canonical --q 2 --wp t^8+t^4+t^3+t+1 --prec 128
"""

import argparse
import hashlib
import json
import resource
import subprocess
import sys


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--md5", required=True,
                        help="expected MD5 of the command's stdout")
    parser.add_argument("--max-mb", type=float, required=True,
                        help="largest admitted peak RSS of the child, in MB")
    parser.add_argument("command", nargs="+",
                        help="drinfeld CLI arguments, after --")
    args = parser.parse_args(argv)

    child = subprocess.run([sys.executable, "-m", "drinfeld.cli",
                            *args.command], capture_output=True)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    digest = hashlib.md5(child.stdout).hexdigest()
    ok = (child.returncode == 0 and digest == args.md5
          and peak <= args.max_mb)
    print(json.dumps({"returncode": child.returncode, "md5": digest,
                      "md5_ok": digest == args.md5,
                      "peak_rss_mb": round(peak, 1), "max_mb": args.max_mb,
                      "ok": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
