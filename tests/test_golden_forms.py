"""Golden output of the forms layer in the residue views A/(wp^n).

Each line of `tests/golden/forms_residue.jsonl` is the key-sorted JSON of
one x-expansion computed in a view A/(wp^n): a few products
a1^alpha * a2^beta * g^(p^l) (g the Hasse lift) and one
`padic_limit_sequence`.  The first two views have a non-monomial modulus,
where reducing a product is a real division and not a truncation; the last
two are the views of the forms-sweep benchmark, A/(t^12) at q = 2 and 3,
and also record weight-congruence audit verdicts (passed, vacuous, depth,
modulus) of f against f g^(p^l), with a negative control whose weight is
off by p^(l - 1).  A change to the series products over A/(m), to the
residue arithmetic or to the wp-valuations that alters a single
coefficient or verdict shows here.  After
an intended change of output, regenerate the file with
`PYTHONPATH=src python tests/test_golden_forms.py > tests/golden/forms_residue.jsonl`.
"""

import json
from pathlib import Path

import pytest

from drinfeld.fields import ResidueRing, fq, parse_apoly, polyring
from drinfeld.forms import (FormExpansion, WeightChar, hasse_lift_expansion,
                            padic_limit_sequence, reduce_mod_wp,
                            weight_congruence_audit)
from drinfeld.tate import td_instance

GOLDEN = Path(__file__).resolve().parent / "golden" / "forms_residue.jsonl"

# (q, wp, n, x-precision, [(alpha, beta, l), ...], limit (alpha, beta, shift,
# steps), audits [(alpha, beta, l, negative control), ...])
VIEWS = [
    (2, "t^2+t+1", 4, 16, [(1, 0, 0), (2, 1, 1), (3, 1, 2), (0, 2, 3)],
     (1, 1, 2, 5), []),
    (3, "t+1", 6, 16, [(1, 0, 0), (2, 1, 1), (0, 2, 1), (4, 1, 2)],
     (2, 0, 8, 5), []),
    (2, "t", 12, 24, [(1, 0, 0), (2, 1, 1), (3, 1, 3), (0, 2, 2)],
     (2, 1, 2, 4),
     [(1, 0, 0, False), (2, 1, 1, True), (5, 0, 2, False), (0, 1, 3, True),
      (3, 2, 3, False)]),
    (3, "t", 12, 27, [(1, 0, 0), (2, 1, 1), (0, 2, 2)], (2, 1, 3, 4),
     [(1, 0, 0, False), (4, 1, 1, True), (2, 2, 2, False), (0, 1, 2, True)]),
]


def _expansion(series):
    return {"val": series.val, "prec": series.prec,
            "coeffs": [[x.idx for x in c.value.coeffs] for c in series.coeffs]}


def records(view):
    q, wp_s, n, prec, products, limit, audits = view
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
    if audits:
        out.append(dict(tag, audits=[_audit(q, p, wp, n, a1, a2, g, *audit)
                                     for audit in audits]))
    return [json.dumps(r, sort_keys=True) for r in out]


def _audit(q, p, wp, n, a1, a2, g, alpha, beta, l, negative):
    """[alpha, beta, l, negative, passed, vacuous, depth, modulus] of the
    audit of f = a1^alpha a2^beta against f g^(p^l) at max_n = p^l + 2, as
    forms-sweep runs it; a negative control shifts the second weight by
    p^(l - 1)."""
    f = FormExpansion((q - 1) * alpha + (q * q - 1) * beta, 0,
                      a1 ** alpha * a2 ** beta, n)
    f2 = f * g.pow(p ** l)
    if negative:
        f2 = FormExpansion(f2.weight + p ** (l - 1), f2.type_m, f2.series)
    v = weight_congruence_audit(f, f2, wp, p ** l + 2)
    return [alpha, beta, l, negative, v.passed, v.vacuous, v.depth,
            v.modulus]


def _line_count(view):
    return len(view[4]) + 1 + (1 if view[6] else 0)


@pytest.mark.parametrize("index", range(len(VIEWS)),
                         ids=["q%d-%s-n%d" % v[:3] for v in VIEWS])
def test_forms_view_matches_golden(index):
    lines = GOLDEN.read_text().splitlines()
    start = sum(_line_count(v) for v in VIEWS[:index])
    got = records(VIEWS[index])
    assert got == lines[start:start + len(got)]


if __name__ == "__main__":
    for view in VIEWS:
        print("\n".join(records(view)))
