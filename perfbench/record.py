"""Build `catalogue.json`: every job the workloads can draw, with the sha256
digest of its key-sorted JSON output at the commit it is run on.

    PYTHONPATH=src python3 perfbench/record.py            # write catalogue
    PYTHONPATH=src python3 perfbench/record.py --sizes    # also print costs

Run it only at a commit whose outputs are trusted: the digests are the
reference every benchmark run is checked against.  The suite-mix candidates
come from a fixed generator seed, so re-running it reproduces the same
catalogue.  A candidate the program rejects with a DomainError (an input
the generator got wrong, such as a2 divisible by wp) is left out; any other
error is reported and stops the recording.
"""

import argparse
import importlib.util
import json
import os
import random
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from encode import is_prime, poly_text, prime_of  # noqa: E402
from gate import identity_failures, output_text, sha256  # noqa: E402
from workloads import CATALOGUE, digest_key, run_forms  # noqa: E402

GENERATOR_SEED = 20170622

def acceptance_manifest():
    """The 19 jobs of scripts/make_acceptance_manifest.py."""
    path = os.path.join(os.path.dirname(HERE), "scripts",
                        "make_acceptance_manifest.py")
    spec = importlib.util.spec_from_file_location("make_acceptance_manifest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.JOBS


# tate-deep: distinct f = 1 configurations on an N ladder.  One repetition
# is kept near 2.5 s so that a run holds enough repetitions for a steady
# median (canonical at q=2, N=32 alone takes 2.5 s).
TATE = [
    {"command": "tate canonical", "q": 2, "wp": "t", "f": "1", "prec": 16},
    {"command": "tate canonical", "q": 2, "wp": "t", "f": "1", "prec": 24},
    {"command": "tate expand", "q": 2, "wp": "t", "f": "1", "prec": 32},
    {"command": "tate ks", "q": 2, "wp": "t", "f": "1", "prec": 40},
    {"command": "tate canonical", "q": 2, "wp": "t^2+t+1", "f": "1", "prec": 20},
    {"command": "tate expand", "q": 2, "wp": "t^2+t+1", "f": "1", "prec": 28},
    {"command": "tate canonical", "q": 3, "wp": "t", "f": "1", "prec": 45},
    {"command": "tate canonical", "q": 4, "wp": "[0,1]", "f": "1", "prec": 64},
]

# forms-sweep: criterion 7 at q = 2 and its analogue at q = 3.  l_max keeps
# p^l_max <= wp_cap, so every audited depth is visible in A/(wp^cap).  The
# q = 2 weight bound is 28 rather than criterion 7's 40 to keep one
# repetition near 2.5 s.
FORMS = [
    {"q": 2, "wp": "t", "prec": 24, "wp_cap": 12, "weight_bound": 28,
     "l_max": 3, "negative_count": 30,
     "limit": {"monomial": [2, 1], "shift": 2, "steps": 4}},
    {"q": 3, "wp": "t", "prec": 27, "wp_cap": 12, "weight_bound": 40,
     "l_max": 2, "negative_count": 30,
     "limit": {"monomial": [2, 1], "shift": 3, "steps": 4}},
]

SUITE_QS = (2, 3, 4, 5, 7)
COMMANDS = ("carlitz eisenstein", "carlitz phi", "carlitz cyclotomic",
            "drinfeld dual", "drinfeld classify", "vsheaf kernel",
            "vsheaf dual", "vsheaf points", "tate expand", "tate canonical",
            "tate ks", "forms hasse", "forms audit", "forms limit")
VARIANTS = 4
# Candidate cost bounds for the quota classes, and the cost above which a
# candidate is left out: suite-mix measures per-job overhead, so no single
# job may take a large share of a run.  drinfeld classify took 1.0-2.3 s per
# job at q=3 with a degree-3 wp, 0.7-1.6 s at q=7 with degree 2, 20-35 s at
# q=4 and 292 s at q=5 with degree 3, so those cells are not even tried.
CHEAP_S = 0.02
DEAR_S = 0.2
COST_CAP_S = 0.5
SKIPPED_CELLS = {("drinfeld classify", 7, 2)} | {
    ("drinfeld classify", q, 3) for q in (3, 4, 5, 7)}
# carlitz cyclotomic builds Phi^C_n of degree q^deg(n); two degree-3
# factors at q=5 took 269 s.
MAX_TORSION_DEGREE = 400


def irreducibles(q, d):
    from drinfeld.fields import fq, is_irreducible, polyring
    A = polyring(fq(q))
    return [[c.idx for c in f.coeffs] for f in A.monic_polys(d)
            if is_irreducible(f)]


def rand_poly(rng, q, max_deg, nonzero=True):
    while True:
        c = [rng.randrange(q) for _ in range(max_deg + 1)]
        if any(c) or not nonzero:
            return c


def monomial(rng, q):
    """a1^alpha a2^beta with x-valuation (q-1) beta small enough that the
    form is visible at precision <= 16."""
    alpha, beta = rng.randrange(4), rng.randrange(min(3, 16 // (3 * (q - 1)) + 1))
    if alpha == beta == 0:
        alpha = 1
    text = "*".join(part for part in (
        "a1^%d" % alpha if alpha else "", "a2^%d" % beta if beta else "")
        if part)
    return alpha, beta, text


def candidate(rng, command, q, d, irr):
    """One job for a cell, or None when the cell has no valid input."""
    p = prime_of(q)
    wp = rng.choice(irr[d])
    job = {"command": command, "q": q}
    if command == "carlitz eisenstein":
        job["wp"] = poly_text(wp, q)
    elif command == "carlitz phi":
        job["a"] = poly_text(rand_poly(rng, q, rng.randrange(1, 5)), q)
    elif command == "carlitz cyclotomic":
        if not is_prime(q):
            return None  # the factor list is split on ",", so no bracket form
        factors = [wp]
        d2 = rng.randrange(1, d + 1)
        if rng.randrange(2) and q ** (d + d2) <= MAX_TORSION_DEGREE:
            factors.append(rng.choice(irr[d2]))
        job["factors"] = ",".join(poly_text(f, q) for f in factors)
    elif command.startswith(("drinfeld", "vsheaf")):
        job["wp"] = poly_text(wp, q)
        job["a1"] = poly_text(rand_poly(rng, q, d - 1, nonzero=False), q)
        job["a2"] = poly_text(rand_poly(rng, q, d - 1), q)
        if command == "vsheaf points":
            job["u"] = "tau^d"
        elif command.startswith("vsheaf"):
            job["u"] = rng.choice(("wp", "tau^d"))
    elif command.startswith("tate"):
        job["wp"] = poly_text(wp, q)
        job["f"] = "t" if q == 2 and rng.random() < 0.25 else "1"
        job["prec"] = rng.randrange(max(q, 6), 17)
    elif command == "forms hasse":
        # prec < q makes a2 vanish to precision, which the engine reports
        # as a violated identity (exit 2) rather than a precision error
        job["wp"] = poly_text(wp, q)
        job["prec"] = rng.randrange(max(q, 6), 17)
    elif command == "forms audit":
        job["wp"] = poly_text(wp, q)
        alpha, beta, f1 = monomial(rng, q)
        job["prec"] = rng.randrange(max(8, (q - 1) * beta + 2 * q), 17)
        l = rng.randrange(2)
        job.update({"f1": f1, "f2": "%s*g^%d" % (f1, p ** l),
                    "max_n": p ** l + 2})
    elif command == "forms limit":
        job["wp"] = poly_text(wp, q)
        alpha, beta, text = monomial(rng, q)
        job["prec"] = rng.randrange(max(8, (q - 1) * beta + 2 * q), 17)
        k = (q - 1) * alpha + (q * q - 1) * beta
        job.update({"monomial": text, "steps": rng.randrange(2, 5),
                    "chi": "%d,%d" % (k % (q ** d - 1), k + rng.randrange(7))})
    return job


def run_job(job):
    """(seconds, record) for one suite or tate job in this process."""
    from drinfeld import cli
    params = {k: v for k, v in job.items() if k != "command"}
    start = time.perf_counter()
    result = cli.HANDLERS[job["command"]](params)
    text = json.dumps(result, sort_keys=True)
    return time.perf_counter() - start, {"result": result, "text": text}


def record_job(workload, job, rec, digests):
    bad = identity_failures(job, rec["result"])
    if bad:
        raise SystemExit("identity flags fail on %s: %s" % (job, bad))
    digests[digest_key(workload, job)] = sha256(output_text(workload, rec))


def quota(jobs, costs):
    """Draws per cell.  Cheap cells get two draws from all their variants,
    so some configurations repeat; an expensive cell keeps one variant, so
    the seed cannot change how much work the draw holds."""
    cost = max(costs)
    if cost < CHEAP_S:
        return {"quota": 2, "jobs": jobs}
    if cost < DEAR_S:
        return {"quota": 1, "jobs": jobs}
    return {"quota": 1, "jobs": jobs[:1]}


def suite_cells(digests, sizes):
    from drinfeld.errors import DomainError
    rng = random.Random(GENERATOR_SEED)
    cells = []
    for q in SUITE_QS:
        irr = {d: irreducibles(q, d) for d in (1, 2, 3)}
        for d in (1, 2, 3):
            for command in COMMANDS:
                if (command, q, d) in SKIPPED_CELLS:
                    continue
                jobs, costs = [], []
                for _ in range(VARIANTS):
                    job = candidate(rng, command, q, d, irr)
                    if job is None or job in jobs:
                        continue
                    try:
                        cost, rec = run_job(job)
                    except DomainError as exc:
                        print("left out %s: %s" % (job, exc), file=sys.stderr)
                        continue
                    if cost > COST_CAP_S:
                        print("left out %s: %.2f s" % (job, cost),
                              file=sys.stderr)
                        continue
                    record_job("suite-mix", job, rec, digests)
                    jobs.append(job)
                    costs.append(cost)
                if jobs:
                    name = "%s|q=%d|d=%d" % (command, q, d)
                    cells.append(dict(cell=name, cost_s=[round(c, 4) for c in costs],
                                      **quota(jobs, costs)))
                    if sizes:
                        print("%-32s %s" % (name, " ".join(
                            "%.3f" % c for c in costs)), flush=True)
    return cells


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", action="store_true",
                        help="print the cost of every candidate")
    args = parser.parse_args(argv)
    digests = {}
    manifest = acceptance_manifest()
    for job in manifest:
        record_job("suite-mix", job, run_job(job)[1], digests)
    for job in TATE:
        cost, rec = run_job(job)
        record_job("tate-deep", job, rec, digests)
        if args.sizes:
            print("tate-deep %s %.3f" % (job, cost), flush=True)
    forms = []
    for cfg in FORMS:
        job = dict(cfg, negatives=[])
        rec = run_forms([job])[0]
        if "error" in rec:
            raise SystemExit("forms harness failed on %s: %s" % (cfg, rec["error"]))
        record_job("forms-sweep", job, rec, digests)
        pool = [a[:3] for a in rec["result"]["audits"] if a[2] >= 1]
        forms.append(dict(cfg, negative_pool=pool))
        if args.sizes:
            print("forms-sweep q=%d audits=%d pool=%d" % (
                cfg["q"], len(rec["result"]["audits"]), len(pool)), flush=True)
    cells = suite_cells(digests, args.sizes)
    sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                         text=True, cwd=HERE).stdout.strip()
    cat = {"recorded_at": {"git_sha": sha, "python": sys.version.split()[0]},
           "tate": TATE, "forms": forms,
           "suite": {"manifest": manifest, "cells": cells},
           "digests": digests}
    with open(CATALOGUE, "w") as fh:
        json.dump(cat, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print("wrote %s: %d digests, %d suite cells" % (
        CATALOGUE, len(digests), len(cells)))


if __name__ == "__main__":
    main()
