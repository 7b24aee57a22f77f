#!/usr/bin/env python3
"""Time the Tate-Drinfeld engine against x-precision N, in one process.

For each N it builds TateDrinfeld(q, wp, f, N), then times on that
instance, in the order ``tate canonical`` needs them, the canonical isogeny
Psi, verify_tdquot(t), the residuals of Psi's defining identity
(``expp_residuals``), ``ordinarity`` (which builds Phi_wp over A and sets
the peak memory at large deg wp) and ``rho_tau`` (the right division
Phi_wp = rho Psi).  It prints one JSON line: the build, Psi,
verify_tdquot, expp_residuals, ordinarity and rho_tau seconds (wall clock,
single runs), i_max, the verify_tdquot verdict and peak_rss_mb, the peak
resident memory of the process so far (``resource.getrusage``; ru_maxrss
is in KiB on Linux).
Example, from the repository root:

    PYTHONPATH=src python3 scripts/n_table.py --q 2 --wp t --N 64,96,128
"""

import argparse
import json
import resource
import sys
import time

from drinfeld.fields import fq, parse_apoly, polyring
from drinfeld.tate import TateDrinfeld


def timed(func, *args):
    start = time.perf_counter()
    out = func(*args)
    return out, round(time.perf_counter() - start, 3)


def peak_rss_mb():
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--q", type=int, default=2)
    parser.add_argument("--wp", default="t")
    parser.add_argument("--f", default="1")
    parser.add_argument("--N", default="64,96,128",
                        help="comma-separated x-precisions")
    args = parser.parse_args(argv)

    field = fq(args.q)
    A = polyring(field)
    wp = parse_apoly(A, args.wp)
    f = parse_apoly(A, args.f)
    for N in (int(n) for n in args.N.split(",")):
        td, build_s = timed(TateDrinfeld, field, wp, f, N)
        _, psi_s = timed(td.canonical_isogeny)
        ok, verify_s = timed(td.verify_tdquot, A.gen)
        _, expp_s = timed(td.expp_residuals)
        _, ordinarity_s = timed(td.ordinarity)
        _, rho_s = timed(td.rho_tau)
        print(json.dumps({"q": args.q, "wp": args.wp, "f": args.f, "N": N,
                          "build_s": build_s, "psi_s": psi_s,
                          "verify_tdquot_s": verify_s, "expp_s": expp_s,
                          "ordinarity_s": ordinarity_s, "rho_s": rho_s,
                          "i_max": td.i_max,
                          "tdquot_ok": ok, "peak_rss_mb": peak_rss_mb()}),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
