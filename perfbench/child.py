"""One repetition of a workload in a fresh interpreter.

Usage (from run.py): python3 perfbench/child.py SPAWN_MONOTONIC < request.json

The request is {"workload", "jobs", "digests", "trace", "threads",
"workdir"}.  The child imports the program first, so set-up time runs from
the parent's spawn to the moment `drinfeld` and its CLI are importable and
the memo tables are still empty, as for a CLI user.  It then times a fixed
calibration loop, runs the job list once (timed), times the loop again,
reads its peak RSS, checks every output and prints one JSON line.
"""

import sys
import time

SPAWN = float(sys.argv[1])
import drinfeld.cli  # noqa: E402  (set-up is what is being timed)
SETUP_S = time.monotonic() - SPAWN

import json  # noqa: E402
import resource  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


class _Elem:
    """A field element the way the program's tables shape them: interned
    objects whose + and * are table lookups."""

    __slots__ = ("i",)

    def __init__(self, i):
        self.i = i

    def __add__(self, other):
        return _ELS[_ADD[self.i][other.i]]

    def __mul__(self, other):
        return _ELS[_MUL[self.i][other.i]]

    def __bool__(self):
        return self.i != 0


_P = 7
_ELS = [_Elem(i) for i in range(_P)]
_ADD = [[(a + b) % _P for b in range(_P)] for a in range(_P)]
_MUL = [[(a * b) % _P for b in range(_P)] for a in range(_P)]


def calibrate(rounds=200, length=48):
    """Time fixed pure-Python work shaped like the program's inner loops:
    schoolbook products of element lists, each result kept as a tuple.

    No program code runs here, so the time measures only how fast the
    machine runs such Python at that moment.
    """
    start = time.perf_counter()
    a = [_ELS[(3 * i + 1) % _P] for i in range(length)]
    b = [_ELS[(5 * i + 2) % _P] for i in range(length)]
    zero = _ELS[0]
    for _ in range(rounds):
        out = [zero] * (2 * length - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = out[i + j] + x * y
        a = tuple(out[:length])
    return time.perf_counter() - start


def run_workload(req):
    name, jobs = req["workload"], req["jobs"]
    if name == "tate-deep":
        return workloads.run_tate(jobs)
    if name == "forms-sweep":
        return workloads.run_forms(jobs)
    return workloads.run_suite(jobs, req["workdir"], req["threads"])


def main():
    req = json.load(sys.stdin)
    tracer = Tracer() if req["trace"] else None
    if tracer:
        tracer.install(drinfeld.cli.HANDLERS)
    calib_before = calibrate()
    start = time.perf_counter()
    records = run_workload(req)
    wall_s = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    calib_s = (calib_before + calibrate()) / 2
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = gate.check(req["workload"], req["jobs"], records, req["digests"])
    out = {"setup_s": SETUP_S, "wall_s": wall_s, "calib_s": calib_s,
           "peak_rss_mb": rss_mb,
           "attempted": len(req["jobs"]),
           "failures": [[i, f] for i, f in enumerate(failures) if f]}
    if tracer:
        out["layers"] = tracer.summary(wall_s)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
