"""Benchmark entry point.

    python3 perfbench/run.py --workload tate-deep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each repetition runs the workload's job
list in a fresh child interpreter (closed loop, one client), so the
program's memo tables start empty as they do for a CLI user.  Repetitions
continue until --seconds have passed (at least MIN_REPS of them), and every
end-to-end metric is the median over the run's repetitions.

wall_s is in reference seconds: each repetition's measured job-list time is
scaled by CAL_REF_S over the time of a fixed calibration loop run in the
same child (see child.calibrate).  On a shared machine whose speed drifts
by up to 2x within minutes, this cancels most of the drift; the raw seconds
are kept in the meta line.  setup_s is raw seconds.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced repetitions and prints the per-layer metrics of the median traced
repetition, plus trace.overhead_ratio.  The traced suite-mix repetitions run
the manifest on one thread: with two, the memo tables race (each is
check-then-compute) and the per-layer counts would depend on scheduling.

The line before the last one is {"meta": ...} with the Python version,
nproc, git sha and seed; the last line is the result object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, digest_key, load_catalogue, make_jobs  # noqa: E402

MIN_REPS = 3
# The calibration loop's median time at sizing (2-vCPU Intel Xeon VM,
# Python 3.11.7), so that reference seconds read close to seconds there.
CAL_REF_S = 0.1
RUN_LIMIT_S = 170  # a run must end within 180 s, whatever a child does


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    out = subprocess.run(["git", "--git-dir", os.path.join(root, ".git"),
                          "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() or None


def run_child(root, request, timeout=RUN_LIMIT_S):
    """One repetition; returns the child's result object, or None."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cmd = [sys.executable, os.path.join(HERE, "child.py")]
    spawn = time.monotonic()
    proc = subprocess.Popen(cmd + [repr(spawn)], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=root, env=env)
    try:
        out, err = proc.communicate(json.dumps(request), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        out, err = "", "repetition timed out after %.0f s\n" % timeout
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(err[-2000:])
        return None
    return json.loads(lines[-1])


def ref_wall(rep):
    """A repetition's job-list time in reference seconds."""
    return rep["wall_s"] * CAL_REF_S / rep["calib_s"]


def median_rep(reps):
    """The repetition whose scaled wall time is the (lower) median."""
    ordered = sorted(reps, key=ref_wall)
    return ordered[(len(ordered) - 1) // 2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "drinfeld", "cli.py")):
        sys.exit("perfbench: run from the root of a drinfeld-padic checkout "
                 "(src/drinfeld/cli.py not found in %s)" % root)
    cat = load_catalogue()
    jobs = make_jobs(args.workload, args.seed, cat)
    digests = {}
    for job in jobs:
        key = digest_key(args.workload, job)
        if key in cat["digests"]:
            digests[key] = cat["digests"][key]
    request = {"workload": args.workload, "jobs": jobs, "digests": digests,
               "threads": min(2, os.cpu_count() or 1),
               "workdir": os.path.join(root, ".bench_build", "perfbench")}

    plain, traced, attempted, failed = [], [], 0, 0
    start = time.monotonic()
    while True:
        for trace in ((0, 1) if args.trace else (0,)):
            req = dict(request, trace=trace)
            if trace:
                req["threads"] = 1
            rep = run_child(root, req,
                            max(5.0, RUN_LIMIT_S - (time.monotonic() - start)))
            attempted += len(jobs)
            if rep is None:
                failed += len(jobs)
                continue
            failed += len(rep["failures"])
            for index, reasons in rep["failures"][:5]:
                sys.stderr.write("job %d failed: %s\n" % (index, "; ".join(reasons)))
            (traced if trace else plain).append(rep)
        done = len(traced) if args.trace else len(plain)
        elapsed = time.monotonic() - start
        per_round = elapsed / max(1, done)
        if done >= (1 if args.trace else MIN_REPS) and elapsed + per_round > args.seconds:
            break
        if done == 0 and elapsed > args.seconds:
            break

    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "git_sha": git_sha(root),
            "wall_s_reps": [r["wall_s"] for r in plain],
            "calib_s_reps": [r["calib_s"] for r in plain],
            "traced_wall_s_reps": [r["wall_s"] for r in traced],
            "traced_calib_s_reps": [r["calib_s"] for r in traced]}
    print(json.dumps({"meta": meta}, sort_keys=True))
    metrics = {}
    if plain and not args.trace:
        metrics = {
            "wall_s": (statistics.median(ref_wall(r) for r in plain), "s"),
            "setup_s": (statistics.median(r["setup_s"] for r in plain), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
            "ok_rate": (1.0 - failed / attempted, "ratio"),
        }
    elif plain and traced:
        layers = median_rep(traced)["layers"]
        for name, value in layers.items():
            metrics[name] = (value, "s" if name.endswith("_s") else
                             "ms" if name.endswith("_ms") else
                             "ratio" if name.endswith(("_ratio", "coverage"))
                             else "count")
        metrics["trace.wall_s"] = (median_rep(traced)["wall_s"], "s")
        metrics["trace.overhead_ratio"] = (
            statistics.median(ref_wall(r) for r in traced)
            / statistics.median(ref_wall(r) for r in plain), "ratio")
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in sorted(metrics.items())}}
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
