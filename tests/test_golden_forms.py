"""Golden output of the forms layer in the residue views A/(wp^n).

Each line of `tests/golden/forms_residue.jsonl` is the key-sorted JSON of
one x-expansion computed in a view A/(wp^n) with a non-monomial modulus,
where reducing a product is a real division and not a truncation: a few
products a1^alpha * a2^beta * g^(p^l) (g the Hasse lift) and one
`padic_limit_sequence`.  A change to the series products over A/(m) or to
the residue arithmetic that alters a single coefficient shows here.  After
an intended change of output, regenerate the file with
`PYTHONPATH=src python tests/test_golden_forms.py > tests/golden/forms_residue.jsonl`.
"""

import json
from pathlib import Path

import pytest

from drinfeld.fields import ResidueRing, fq, parse_apoly, polyring
from drinfeld.forms import (FormExpansion, WeightChar, hasse_lift_expansion,
                            padic_limit_sequence, reduce_mod_wp)
from drinfeld.tate import td_instance

GOLDEN = Path(__file__).resolve().parent / "golden" / "forms_residue.jsonl"

# (q, wp, n, x-precision, [(alpha, beta, l), ...], limit (alpha, beta, shift, steps))
VIEWS = [
    (2, "t^2+t+1", 4, 16, [(1, 0, 0), (2, 1, 1), (3, 1, 2), (0, 2, 3)],
     (1, 1, 2, 5)),
    (3, "t+1", 6, 16, [(1, 0, 0), (2, 1, 1), (0, 2, 1), (4, 1, 2)],
     (2, 0, 8, 5)),
]


def _expansion(series):
    return {"val": series.val, "prec": series.prec,
            "coeffs": [[x.idx for x in c.value.coeffs] for c in series.coeffs]}


def records(view):
    q, wp_s, n, prec, products, limit = view
    field = fq(q)
    A = polyring(field)
    wp = parse_apoly(A, wp_s)
    p = field.p
    R = ResidueRing(wp ** n)
    td = td_instance(field, wp, A.one, prec)
    a1 = td.a1.map_coeffs(R.reduce, R)
    a2 = td.a2.map_coeffs(R.reduce, R)
    g = reduce_mod_wp(hasse_lift_expansion(field, wp, prec), R, n)
    tag = {"q": q, "wp": wp_s, "n": n}
    out = []
    for alpha, beta, l in products:
        f = FormExpansion((q - 1) * alpha + (q * q - 1) * beta, 0,
                          a1 ** alpha * a2 ** beta, n)
        h = f * g.pow(p ** l)
        out.append(dict(tag, product=[alpha, beta, l], weight=h.weight,
                        **_expansion(h.series)))
    alpha, beta, shift, steps = limit
    f = FormExpansion((q - 1) * alpha + (q * q - 1) * beta, 0,
                      a1 ** alpha * a2 ** beta, n)
    qd1 = q ** wp.degree - 1
    chi = WeightChar(f.weight % qd1, f.weight + shift, qd1, p, 12)
    seq = padic_limit_sequence(f, chi, wp, steps, g)
    out.append(dict(tag, limit=[alpha, beta, shift, steps],
                    weights=[k for k, _ in seq],
                    expansions=[_expansion(h.series) for _, h in seq]))
    return [json.dumps(r, sort_keys=True) for r in out]


@pytest.mark.parametrize("index", range(len(VIEWS)),
                         ids=["q%d-%s-n%d" % v[:3] for v in VIEWS])
def test_forms_view_matches_golden(index):
    lines = GOLDEN.read_text().splitlines()
    start = sum(len(v[4]) + 1 for v in VIEWS[:index])
    got = records(VIEWS[index])
    assert got == lines[start:start + len(got)]


if __name__ == "__main__":
    for view in VIEWS:
        print("\n".join(records(view)))
