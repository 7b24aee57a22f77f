"""Command-line front end with deterministic JSON output.

Exit codes: 0 success, 1 domain error, 2 violated internal identity,
64 malformed usage.  All output is key-sorted JSON so repeated runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .carlitz import carlitz_cyclotomic, carlitz_phi, check_eisenstein
from .errors import DomainError, InternalConsistencyError
from .fields import (fq, parse_apoly, poly_to_bracket, polyring,
                     residue_field_with_theta)
from .forms import (FormExpansion, WeightChar, coefficient_monomial,
                    congruence_depth, hasse_lift_expansion,
                    padic_limit_sequence, weight_congruence_audit)
from .modules import DrinfeldRank2, classify_reduction, wp_factorize
from .sheaves import dual_points, kernel_sheaf, taguchi_dual_sheaf, vsheaf_validate
from .tate import td_instance
from .tau import TauPoly

USAGE_EXIT = 64


class CliParser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_EXIT, "%s: error: %s\n" % (self.prog, message))


def series_json(s):
    return {"val": s.val if s.coeffs else None,
            "prec": s.prec,
            "coeffs": [poly_to_bracket(c) for c in s.coeffs]}


def residue_json(r):
    return poly_to_bracket(r.value)


def sheaf_json(S):
    return {
        "rank": S.rank,
        "P": [[residue_json(x) for x in row] for row in S.P],
        "Psi": [[residue_json(x) for x in row] for row in S.Psi],
        "V": [[residue_json(x) for x in row] for row in S.V],
        "base": _base_json(S.ring),
    }


def _field(params):
    q = _int_param(params, "q")
    modulus = _int_list_param(params, "q_modulus")
    if modulus is None:
        return fq(q)
    base = fq(q)
    text = ",".join(map(str, modulus))
    if len(modulus) != base.e + 1 or modulus[-1] % base.p != 1:
        raise DomainError(
            "--q-modulus for q = %d must be %d integers (monic of degree "
            "%d, low first), got %s" % (q, base.e + 1, base.e, text))
    try:
        return fq(q, modulus)
    except DomainError:
        # q, the length and the leading coefficient are valid by now, so
        # irreducibility is the only check left to fail
        raise DomainError("--q-modulus %s is reducible over F_%d"
                          % (text, base.p)) from None


def _apoly(field, s):
    return parse_apoly(polyring(field), str(s))


def _require(params, *names):
    for n in names:
        if params.get(n) is None:
            raise DomainError("missing required parameter --%s" % n.replace("_", "-"))


def _int_param(params, name, minimum=None, default=None):
    """params[name] as an int, or ``default`` when it is absent.

    A JSON int (not a bool) or a decimal string is accepted; anything else,
    or a value below ``minimum``, raises DomainError naming the option.
    """
    value = params.get(name)
    if value is None:
        return default
    flag = "--" + name.replace("_", "-")
    if isinstance(value, bool) or not (
            isinstance(value, int)
            or isinstance(value, str) and re.fullmatch(r"[+-]?[0-9]+", value)):
        raise DomainError("%s must be an integer, got %r" % (flag, value))
    value = int(value)
    if minimum is not None and value < minimum:
        raise DomainError("%s must be at least %d, got %d" % (flag, minimum, value))
    return value


def _int_list_param(params, name):
    """params[name] as a tuple of ints, or None when it is absent.

    A JSON list, or comma-separated text optionally in brackets; every entry
    must be what ``_int_param`` accepts, else DomainError names the option.
    """
    value = params.get(name)
    if value is None:
        return None
    items = value
    if not isinstance(items, list):
        text = str(value).strip().removeprefix("[").removesuffix("]")
        items = [c.strip() for c in text.split(",")]
    try:
        return tuple(_int_param({name: c}, name) for c in items)
    except DomainError:
        raise DomainError("--%s must be comma-separated integers, got %r"
                          % (name.replace("_", "-"), value)) from None


# -- handlers: params dict -> result dict ----------------------------------

def run_carlitz_eisenstein(params):
    _require(params, "q", "wp")
    field = _field(params)
    wp = _apoly(field, params["wp"])
    ok, witness = check_eisenstein(field, wp)
    return {"eisenstein": ok, "reduction": witness["reduction"],
            "witness": witness}


def run_carlitz_phi(params):
    _require(params, "q", "a")
    field = _field(params)
    a = _apoly(field, params["a"])
    phi = carlitz_phi(polyring(field), a)
    return {"tau_coeffs": [poly_to_bracket(c) for c in phi.coeffs]}


def run_carlitz_cyclotomic(params):
    _require(params, "q", "factors")
    field = _field(params)
    factors = [_apoly(field, part) for part in str(params["factors"]).split(",")]
    w = carlitz_cyclotomic(field, factors)
    return {"degree": w.degree,
            "coeffs": [poly_to_bracket(c) for c in w.coeffs]}


def _module_over_char_wp(params):
    _require(params, "q", "wp", "a1", "a2")
    field = _field(params)
    wp = _apoly(field, params["wp"])
    ext = _int_param(params, "ext", 1, default=1)
    K = residue_field_with_theta(wp, ext)
    a1 = K.reduce(_apoly(field, params["a1"]))
    a2 = K.reduce(_apoly(field, params["a2"]))
    return field, wp, K, DrinfeldRank2(K, a1, a2)


def _base_json(K):
    return {"q": K.q, "modulus": poly_to_bracket(K.modulus),
            "theta": residue_json(K.theta)}


def run_drinfeld_dual(params):
    field, wp, K, E = _module_over_char_wp(params)
    D = E.taguchi_dual()
    return {"base": _base_json(K), "theta": residue_json(K.theta),
            "a1": residue_json(E.a1), "a2": residue_json(E.a2),
            "dual_a1": residue_json(D.a1), "dual_a2": residue_json(D.a2),
            "j": residue_json(E.j_invariant()),
            "j_dual": residue_json(D.j_invariant())}


def run_drinfeld_classify(params):
    field, wp, K, E = _module_over_char_wp(params)
    kind = classify_reduction(E, wp)
    fact = wp_factorize(E, wp)
    return {"base": _base_json(K),
            "class": kind,
            "alphas": [residue_json(a) for a in fact.alphas],
            "dual_class": classify_reduction(E.taguchi_dual(), wp)}


def _kernel_from_params(params):
    field, wp, K, E = _module_over_char_wp(params)
    spec = str(params.get("u", "wp"))
    if spec == "wp":
        u = E.phi(wp)
    elif spec == "tau^d":
        u = TauPoly.tau(K, wp.degree)
    else:
        a = _apoly(field, spec)
        u = E.phi(a)
    return kernel_sheaf(u, E.phi_t(), K)


def run_vsheaf_kernel(params):
    S = _kernel_from_params(params)
    ok, violations = vsheaf_validate(S)
    out = sheaf_json(S)
    out["valid"] = ok
    out["violations"] = violations
    return out


def run_vsheaf_dual(params):
    S = _kernel_from_params(params)
    D = taguchi_dual_sheaf(S)
    out = sheaf_json(D)
    out["double_dual_is_identity"] = taguchi_dual_sheaf(D) == S
    return out


def run_vsheaf_points(params):
    S = _kernel_from_params(params)
    m = _int_param(params, "ext_degree", 1, default=1)
    K, _, pts = dual_points(S, m)
    return {"count": len(pts),
            "field_order": K.order,
            "points": [[residue_json(x) for x in pt] for pt in pts]}


def _td(params):
    _require(params, "q", "wp", "prec")
    field = _field(params)
    wp = _apoly(field, params["wp"])
    f = _apoly(field, params.get("f", "1") or "1")
    return td_instance(field, wp, f, _int_param(params, "prec", 1))


def run_tate_expand(params):
    td = _td(params)
    yj = td.descended_j()
    a1_diff = td.a1 - td.S.one
    checks = {
        "a1_in_one_plus_x": td.a1.coeff(0) == td.A.one
                            and (a1_diff.is_zero() or a1_diff.order() >= 1),
        "a2_valuation": td.a2.order(),
        "a2_valuation_expected": td.a2_valuation,
        "a2_unit": td.a2.leading().degree == 0,
        "coeffs_in_q_minus_1_subring": td.a1.in_subring(td.q - 1)
                                       and td.a2.in_subring(td.q - 1),
        "y_times_j_unit": bool(yj) and yj.order() == 0
                          and yj.coeff(0).degree == 0,
        "functional_equation_ok": all(r.is_zero() for r in
                                      td.functional_equation_residuals()),
    }
    return {"e": [series_json(td.exp_coeff(i)) for i in range(td.i_max + 1)],
            "a1": series_json(td.a1),
            "a2": series_json(td.a2),
            "j": series_json(td.module.j_invariant()),
            "j_y": series_json(yj),
            "checks": checks}


def run_tate_canonical(params):
    td = _td(params)
    psi = td.canonical_isogeny()
    ordinary, points, hull = td.ordinarity()
    low_ok, top_unit = td.psi_mod_wp_shape()
    t = td.A.gen
    return {"psi": [series_json(c) for c in psi],
            "c0_is_wp": psi[0].coeffs == (td.wp,) and psi[0].val == 0,
            "expp_residuals_vanish": all(r.is_zero() for r in td.expp_residuals()),
            "tdquot_ok": td.verify_tdquot(t),
            "rho_exists": bool(td.rho_tau()),
            "psi_low_divisible_by_wp": low_ok,
            "psi_top_unit_mod_wp": top_unit,
            "ordinary": ordinary,
            "newton": {"points": points, "hull": hull}}


def run_tate_ks(params):
    td = _td(params)
    l = td.ks_factor()
    return {"l": series_json(l), "val": l.order(),
            "residue": poly_to_bracket(l.coeff(-1))}


def _parse_monomial(field, wp, prec, spec):
    """a1^alpha * a2^beta * g^gamma; each exponent is optional and must be
    a non-negative decimal integer."""
    alpha = beta = gamma = 0
    for part in str(spec).split("*"):
        part = part.strip()
        if not part:
            continue
        name, caret, exp = part.partition("^")
        if caret and not (exp.isascii() and exp.isdigit()):
            raise DomainError("monomial exponent must be a non-negative "
                              "integer, got %r" % part)
        e = int(exp) if caret else 1
        if name == "a1":
            alpha += e
        elif name == "a2":
            beta += e
        elif name == "g":
            gamma += e
        else:
            raise DomainError("unknown monomial factor %r" % name)
    form = coefficient_monomial(field, wp, prec, alpha, beta)
    if gamma:
        form = form * hasse_lift_expansion(field, wp, prec).pow(gamma)
    return form


def run_forms_hasse(params):
    _require(params, "q", "wp", "prec")
    field = _field(params)
    wp = _apoly(field, params["wp"])
    g = hasse_lift_expansion(field, wp, _int_param(params, "prec", 1))
    return {"weight": g.weight, "type": g.type_m,
            "series": series_json(g.series),
            "congruent_one_mod_wp": True}


def run_forms_audit(params):
    _require(params, "q", "wp", "prec", "f1", "f2")
    field = _field(params)
    wp = _apoly(field, params["wp"])
    prec = _int_param(params, "prec", 1)
    k1 = _int_param(params, "k1")
    k2 = _int_param(params, "k2")
    max_n = _int_param(params, "max_n", 1, default=8)
    f1 = _parse_monomial(field, wp, prec, params["f1"])
    f2 = _parse_monomial(field, wp, prec, params["f2"])
    if k1 is not None:
        f1 = FormExpansion(k1, f1.type_m, f1.series)
    if k2 is not None:
        f2 = FormExpansion(k2, f2.type_m, f2.series)
    v = weight_congruence_audit(f1, f2, wp, max_n)
    return {"depth": v.depth, "modulus": v.modulus, "delta_k": v.delta_k,
            "pass": v.passed, "vacuous": v.vacuous}


def run_forms_limit(params):
    _require(params, "q", "wp", "prec", "chi", "steps")
    field = _field(params)
    wp = _apoly(field, params["wp"])
    prec = _int_param(params, "prec", 1)
    steps = _int_param(params, "steps", 1)
    d = wp.degree
    chi = _int_list_param(params, "chi")
    if len(chi) != 2:
        raise DomainError("--chi must be two integers s0,s1, got %r"
                          % params["chi"])
    chi = WeightChar(*chi, field.q ** d - 1, field.p, 12)
    g = hasse_lift_expansion(field, wp, prec)
    f = _parse_monomial(field, wp, prec, params.get("monomial", "g"))
    seq = padic_limit_sequence(f, chi, wp, steps, g)
    depths = []
    for i in range(1, len(seq)):
        res = congruence_depth(seq[i][1], seq[i - 1][1], wp, i + 1)
        depths.append(res.depth if not (res.not_congruent or
                                        res.congruent_to_zero) else None)
    return {"weights": [k for k, _ in seq],
            "successive_depths": depths,
            "expansions": [series_json(h.series) for _, h in seq]}


HANDLERS = {
    "carlitz eisenstein": run_carlitz_eisenstein,
    "carlitz phi": run_carlitz_phi,
    "carlitz cyclotomic": run_carlitz_cyclotomic,
    "drinfeld dual": run_drinfeld_dual,
    "drinfeld classify": run_drinfeld_classify,
    "vsheaf kernel": run_vsheaf_kernel,
    "vsheaf dual": run_vsheaf_dual,
    "vsheaf points": run_vsheaf_points,
    "tate expand": run_tate_expand,
    "tate canonical": run_tate_canonical,
    "tate ks": run_tate_ks,
    "forms hasse": run_forms_hasse,
    "forms audit": run_forms_audit,
    "forms limit": run_forms_limit,
}


def run_suite(params):
    _require(params, "manifest")
    with open(params["manifest"]) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise DomainError("a manifest must be a JSON object")
    jobs = manifest.get("jobs", [])
    if not (isinstance(jobs, list) and all(isinstance(j, dict) for j in jobs)):
        raise DomainError("manifest jobs must be a list of JSON objects")
    _int_param(params, "threads")  # accepted and ignored: jobs run in order

    def run_one(idx_job):
        idx, job = idx_job
        command = job.get("command")
        handler = HANDLERS.get(command) if isinstance(command, str) else None
        if handler is None:
            return {"index": idx, "ok": False, "code": 1,
                    "error": "unknown command %r" % (command,)}
        try:
            return {"index": idx, "ok": True, "result": handler(job)}
        except InternalConsistencyError as exc:
            return {"index": idx, "ok": False, "code": 2, "error": str(exc)}
        except (ValueError, TypeError) as exc:
            return {"index": idx, "ok": False, "code": 1, "error": str(exc)}

    results = [run_one(ij) for ij in enumerate(jobs)]
    passed = sum(1 for r in results if r["ok"])
    out = {"jobs": results, "passed": passed, "failed": len(results) - passed}
    codes = [r.get("code", 0) for r in results if not r["ok"]]
    out["exit_code"] = 2 if 2 in codes else (1 if codes else 0)
    target = manifest.get("output")
    if target:
        with open(target, "w") as fh:
            fh.write(json.dumps(out, sort_keys=True) + "\n")
    return out


def build_parser():
    parser = CliParser(prog="drinfeld")
    sub = parser.add_subparsers(dest="group", required=True)

    def add(group, name, *flags):
        p = group.add_parser(name)
        for flag, kw in flags:
            p.add_argument(flag, **kw)
        return p

    common = [("--q", {"required": True}),
              ("--q-modulus", {"dest": "q_modulus"})]

    wp_flags = [("--wp", {}), ("--p-poly", {"dest": "wp"})]

    g_car = sub.add_parser("carlitz")
    s_car = g_car.add_subparsers(dest="op", required=True)
    add(s_car, "eisenstein", *common, *wp_flags)
    add(s_car, "phi", *common, ("--a", {"required": True}))
    add(s_car, "cyclotomic", *common, ("--factors", {"required": True}))

    g_dr = sub.add_parser("drinfeld")
    s_dr = g_dr.add_subparsers(dest="op", required=True)
    mod_flags = common + [("--wp", {"required": True}),
                          ("--ext", {}),
                          ("--a1", {"required": True}),
                          ("--a2", {"required": True})]
    add(s_dr, "dual", *mod_flags)
    add(s_dr, "classify", *mod_flags)

    g_vs = sub.add_parser("vsheaf")
    s_vs = g_vs.add_subparsers(dest="op", required=True)
    vs_flags = mod_flags + [("--u", {})]
    add(s_vs, "kernel", *vs_flags)
    add(s_vs, "dual", *vs_flags)
    add(s_vs, "points", *vs_flags, ("--ext-degree", {"dest": "ext_degree"}))

    g_ta = sub.add_parser("tate")
    s_ta = g_ta.add_subparsers(dest="op", required=True)
    ta_flags = common + wp_flags + [("--f", {}), ("--prec", {"required": True})]
    add(s_ta, "expand", *ta_flags)
    add(s_ta, "canonical", *ta_flags)
    add(s_ta, "ks", *ta_flags)

    g_fo = sub.add_parser("forms")
    s_fo = g_fo.add_subparsers(dest="op", required=True)
    fo_base = common + [("--wp", {"required": True}),
                        ("--prec", {"required": True})]
    add(s_fo, "hasse", *fo_base)
    add(s_fo, "audit", *(fo_base + [("--f1", {"required": True}),
                                    ("--f2", {"required": True}),
                                    ("--k1", {}), ("--k2", {}),
                                    ("--max-n", {"dest": "max_n"})]))
    add(s_fo, "limit", *(fo_base + [("--chi", {"required": True}),
                                    ("--steps", {"required": True}),
                                    ("--monomial", {})]))

    g_su = sub.add_parser("suite")
    g_su.add_argument("--manifest", required=True)
    g_su.add_argument("--threads")
    return parser


def main(argv=None):
    parser = build_parser()
    ns = parser.parse_args(argv)
    params = {k: v for k, v in vars(ns).items() if v is not None}
    group = params.pop("group")
    if group == "suite":
        handler = run_suite
    else:
        handler = HANDLERS["%s %s" % (group, params.pop("op"))]
    try:
        result = handler(params)
    except InternalConsistencyError as exc:
        print(json.dumps({"error": str(exc), "kind": "internal-consistency"},
                         sort_keys=True), file=sys.stderr)
        return 2
    except (ValueError, TypeError, OSError) as exc:
        # DomainError and json.JSONDecodeError are ValueErrors
        print(json.dumps({"error": str(exc), "kind": "domain"},
                         sort_keys=True), file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return result["exit_code"] if group == "suite" else 0


if __name__ == "__main__":
    sys.exit(main())
