#!/usr/bin/env python3
"""Time the A/(m) layer at fixed sizes, in one process.

K = A/(m) with m the first monic irreducible of degree d over F_q, in the
order of ``PolyRing.monic_polys``.  For each d it prints one JSON line per
operation, with the median microseconds per call over five batches of
--reps calls on fixed pseudorandom operands:

* ``residue_mul`` and ``residue_pth_power`` (k = 1): ``AResidue`` product
  and p-th power in K;
* ``poly_divmod``: a polynomial of degree 2d - 2 divided by m;
* ``mat_mul``: an r x r matrix product over K, for each r of --r;
* ``tau_mul`` and ``tau_rdivmod``: ``TauPoly`` product and right division
  over K, of tau-degree --tau-degree, the divisor with a unit leading
  coefficient.

Over F_p, p prime, these run on the elements' bytes rows; over F_q with
q = p^e, e > 1, on field elements.  Example, from the repository root:

    PYTHONPATH=src python3 scripts/residue_table.py --q 3 --deg 2,4,8
"""

import argparse
import json
import random
import statistics
import sys
import time

from drinfeld.fields import AResidue, ResidueRing, fq, is_irreducible, polyring
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
    parser.add_argument("--reps", type=int, default=200)
    args = parser.parse_args(argv)

    field = fq(args.q)
    A = polyring(field)
    rng = random.Random(0)

    def coeffs(n):
        return [rng.choice(field.elements()) for _ in range(n)]

    for d in (int(x) for x in args.deg.split(",")):
        m = next(f for f in A.monic_polys(d) if is_irreducible(f))
        K = ResidueRing(m)

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
                ("residue_pth_power", {}, lambda: x.pth_power(1)),
                ("poly_divmod", {}, lambda: divmod(a, m))]
        for r in (int(n) for n in args.r.split(",")):
            M = tuple(tuple(element() for _ in range(r)) for _ in range(r))
            rows.append(("mat_mul", {"r": r},
                         lambda M=M: mat_mul(M, M)))
        rows += [("tau_mul", {"tau_degree": args.tau_degree}, lambda: f * g),
                 ("tau_rdivmod", {"tau_degree": args.tau_degree},
                  lambda: fg.rdivmod(g))]
        for op, size, func in rows:
            print(json.dumps(dict({"op": op, "q": args.q, "deg": d}, **size,
                                  us=per_call_us(func, args.reps))),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
