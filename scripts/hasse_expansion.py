#!/usr/bin/env python3
"""Print the Hasse-invariant lift alpha_d for a few primes and certify its
defining congruence alpha_d = 1 mod wp coefficient by coefficient."""

import argparse
import sys

from drinfeld.fields import fq, parse_apoly, poly_to_tstring, polyring, wp_valuation
from drinfeld.forms import hasse_lift_expansion


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=int, default=2)
    parser.add_argument("--wp", default="t")
    parser.add_argument("--prec", type=int, default=16)
    args = parser.parse_args(argv)

    field = fq(args.q)
    A = polyring(field)
    wp = parse_apoly(A, args.wp)
    g = hasse_lift_expansion(field, wp, args.prec)
    print("q = %d, wp = %s, weight = %d, type = %d"
          % (args.q, poly_to_tstring(wp), g.weight, g.type_m))
    print("alpha_d(x) through x^%d:" % (args.prec - 1))
    diff_vals = []
    for k in range(args.prec):
        c = g.series.coeff(k)
        diff = c - A.one if k == 0 else c
        if diff:
            diff_vals.append(wp_valuation(diff, wp))
        if k == 0 or c:
            marker = "== 1 mod wp" if k == 0 else "val_wp = %d" % diff_vals[-1]
            print("  x^%-3d  %-30s %s" % (k, poly_to_tstring(c), marker))
    print("min val_wp(alpha_d - 1) over the window: %s"
          % (min(diff_vals) if diff_vals else "infinite"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
