#!/usr/bin/env python3
"""Time the A/(m) layer at fixed sizes, in one process.

K = A/(m) with m the first monic irreducible of degree d over F_q, in the
order of ``PolyRing.monic_polys``, built by ``residue_field_with_theta`` as
the commands build their fields: at or below ``fields._MAX_LOG_ORDER`` its
products, inverses and p-th powers are discrete-log table lookups, and the
setup products build its tables before any timing starts.  For each d it prints one JSON
line per operation, with the median microseconds per call over five
batches of --reps calls on fixed pseudorandom operands:

* ``residue_mul``, ``residue_inv`` and ``residue_pth_power`` (k = 1):
  ``AResidue`` product, inverse and p-th power in K;
* ``poly_divmod``: a polynomial of degree 2d - 2 divided by m;
* ``mat_mul``: an r x r matrix product over K, for each r of --r;
* ``tau_mul`` and ``tau_rdivmod``: ``TauPoly`` product and right division
  over K, of tau-degree --tau-degree, the divisor with a unit leading
  coefficient;
* ``series_mul`` and ``difference_valuation``: the product of two series
  over K of x-precision --prec, and the m-adic valuation (cap 8) of the
  difference of two that agree on their first --prec / 2 orders.

The two series rows are printed once more over A/(t^12) (``deg`` 12),
valued t-adically: the view forms-sweep audits in.

Over F_p, p prime, these run on the elements' bytes rows, and series on
one bytes block each; over F_q with q = p^e, e > 1, on field elements.  Example, from the repository root:

    PYTHONPATH=src python3 scripts/residue_table.py --q 3 --deg 2,4,8
"""

import argparse
import json
import random
import statistics
import sys
import time

from drinfeld import forms
from drinfeld.fields import (AResidue, ResidueRing, fq, is_irreducible,
                             polyring, residue_field_with_theta)
from drinfeld.series import TruncSeries
from drinfeld.sheaves import mat_mul
from drinfeld.tau import TauPoly


def per_call_us(func, reps):
    """Median over five batches of reps calls, in microseconds per call."""
    batches = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(reps):
            func()
        batches.append((time.perf_counter() - start) / reps)
    return round(statistics.median(batches) * 1e6, 2)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--q", type=int, default=3)
    parser.add_argument("--deg", default="2,4,8",
                        help="comma-separated degrees of m")
    parser.add_argument("--r", default="2,4,6",
                        help="comma-separated matrix sizes")
    parser.add_argument("--tau-degree", type=int, default=6)
    parser.add_argument("--prec", type=int, default=24,
                        help="x-precision of the series rows")
    parser.add_argument("--reps", type=int, default=200)
    args = parser.parse_args(argv)

    field = fq(args.q)
    A = polyring(field)
    rng = random.Random(0)

    def coeffs(n):
        return [rng.choice(field.elements()) for _ in range(n)]

    def series_rows(R, wp):
        """The series rows over R: f g, and the wp-adic valuation of
        f - f2, f2 agreeing with f below x-order prec / 2."""
        def series():
            return TruncSeries(R, 0, [R.one] + [
                AResidue(R, coeffs(R.degree)) for _ in range(args.prec - 1)],
                args.prec)

        f, g = series(), series()
        f2 = f + g.shift(args.prec // 2)
        size = {"modulus": str(R.modulus), "prec": args.prec}
        return [("series_mul", size, lambda: f * g),
                ("difference_valuation", size,
                 lambda: forms._difference_wp_valuation(f, f2, wp, 8))]

    def emit(d, rows):
        for op, size, func in rows:
            print(json.dumps(dict({"op": op, "q": args.q, "deg": d}, **size,
                                  us=per_call_us(func, args.reps))),
                  flush=True)

    for d in (int(x) for x in args.deg.split(",")):
        m = next(f for f in A.monic_polys(d) if is_irreducible(f))
        K = residue_field_with_theta(m)

        def element():
            return AResidue(K, coeffs(d))

        def unit():
            x = element()
            return x if x else K.one

        x, y = unit(), unit()
        a = A.poly(coeffs(2 * d - 2) + [field.one])
        f = TauPoly(K, [element() for _ in range(args.tau_degree)] + [unit()])
        g = TauPoly(K, [element() for _ in range(args.tau_degree)] + [unit()])
        fg = f * g
        rows = [("residue_mul", {}, lambda: x * y),
                ("residue_inv", {}, lambda: x.inv()),
                ("residue_pth_power", {}, lambda: x.pth_power(1)),
                ("poly_divmod", {}, lambda: divmod(a, m))]
        for r in (int(n) for n in args.r.split(",")):
            M = tuple(tuple(element() for _ in range(r)) for _ in range(r))
            rows.append(("mat_mul", {"r": r},
                         lambda M=M: mat_mul(M, M)))
        rows += [("tau_mul", {"tau_degree": args.tau_degree}, lambda: f * g),
                 ("tau_rdivmod", {"tau_degree": args.tau_degree},
                  lambda: fg.rdivmod(g))]
        emit(d, rows + series_rows(K, m))
    emit(12, series_rows(ResidueRing(A.gen ** 12), A.gen))
    return 0


if __name__ == "__main__":
    sys.exit(main())
