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
from .fields import (fq, is_irreducible, parse_apoly, poly_to_bracket,
                     polyring, residue_field_with_theta)
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


def _wp(field, params):
    """--wp as a prime of A: monic, of positive degree and irreducible over
    F_q; anything else raises DomainError naming the option and its value."""
    text = str(params["wp"])
    wp = _apoly(field, text)
    if wp.degree < 1:
        raise DomainError("--wp must have positive degree, got %s" % text)
    if not wp.is_monic():
        raise DomainError("--wp must be monic, got %s" % text)
    if not is_irreducible(wp):
        raise DomainError("--wp %s is reducible over F_%d" % (text, field.q))
    return wp


def _flag(name):
    return "--" + name.replace("_", "-")


def _int_param(params, name, minimum=None, default=None):
    """params[name] as an int, or ``default`` when it is absent.

    A JSON int (not a bool) or a decimal string is accepted; anything else,
    or a value below ``minimum``, raises DomainError naming the option.
    """
    value = params.get(name)
    if value is None:
        return default
    flag = _flag(name)
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
        raise DomainError("%s must be comma-separated integers, got %r"
                          % (_flag(name), value)) from None


# -- handlers: params dict -> result dict ----------------------------------

def run_carlitz_eisenstein(params):
    field = _field(params)
    wp = _wp(field, params)
    ok, witness = check_eisenstein(field, wp)
    return {"eisenstein": ok, "reduction": witness["reduction"],
            "witness": witness}


def run_carlitz_phi(params):
    field = _field(params)
    a = _apoly(field, params["a"])
    phi = carlitz_phi(polyring(field), a)
    return {"tau_coeffs": [poly_to_bracket(c) for c in phi.coeffs]}


def run_carlitz_cyclotomic(params):
    field = _field(params)
    # bracket form holds commas of its own: split only outside brackets
    factors = [_apoly(field, part) for part in
               re.split(r",(?![^\[]*\])", str(params["factors"]))]
    w = carlitz_cyclotomic(field, factors)
    return {"degree": w.degree,
            "coeffs": [poly_to_bracket(c) for c in w.coeffs]}


def _module_over_char_wp(params):
    field = _field(params)
    wp = _wp(field, params)
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
    spec = params.get("u")
    spec = "wp" if spec is None else str(spec)
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
    field = _field(params)
    wp = _wp(field, params)
    f = params.get("f")
    f = _apoly(field, "1" if f is None else f)
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
    a non-negative decimal integer.  No factor may be empty, so neither may
    the monomial: the constant form is a1^0."""
    alpha = beta = gamma = 0
    for part in str(spec).split("*"):
        part = part.strip()
        if not part:
            raise DomainError("monomial %r has an empty factor" % spec)
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
    field = _field(params)
    wp = _wp(field, params)
    g = hasse_lift_expansion(field, wp, _int_param(params, "prec", 1))
    return {"weight": g.weight, "type": g.type_m,
            "series": series_json(g.series),
            "congruent_one_mod_wp": True}


def run_forms_audit(params):
    field = _field(params)
    wp = _wp(field, params)
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
    field = _field(params)
    wp = _wp(field, params)
    prec = _int_param(params, "prec", 1)
    steps = _int_param(params, "steps", 1)
    d = wp.degree
    chi = _int_list_param(params, "chi")
    if len(chi) != 2:
        raise DomainError("--chi must be two integers s0,s1, got %r"
                          % params["chi"])
    chi = WeightChar(*chi, field.q ** d - 1, field.p, 12)
    g = hasse_lift_expansion(field, wp, prec)
    monomial = params.get("monomial")
    f = _parse_monomial(field, wp, prec, "g" if monomial is None else monomial)
    seq = padic_limit_sequence(f, chi, wp, steps, g)
    depths = []
    for i in range(1, len(seq)):
        res = congruence_depth(seq[i][1], seq[i - 1][1], wp, i + 1)
        depths.append(res.depth if not (res.not_congruent or
                                        res.congruent_to_zero) else None)
    return {"weights": [k for k, _ in seq],
            "successive_depths": depths,
            "expansions": [series_json(h.series) for _, h in seq]}


def run_suite(params):
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
            check_params(command, job)
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


# command -> (handler, required parameters, optional parameters).  The
# parser makes one flag per parameter, "_" written "-"; every command but
# suite also takes --q-modulus, and --p-poly is the other spelling of --wp
# on the P_POLY_COMMANDS.
_MODULE = ("q", "wp", "a1", "a2")
_SERIES = ("q", "wp", "prec")
COMMANDS = {
    "carlitz eisenstein": (run_carlitz_eisenstein, ("q", "wp"), ()),
    "carlitz phi": (run_carlitz_phi, ("q", "a"), ()),
    "carlitz cyclotomic": (run_carlitz_cyclotomic, ("q", "factors"), ()),
    "drinfeld dual": (run_drinfeld_dual, _MODULE, ("ext",)),
    "drinfeld classify": (run_drinfeld_classify, _MODULE, ("ext",)),
    "vsheaf kernel": (run_vsheaf_kernel, _MODULE, ("ext", "u")),
    "vsheaf dual": (run_vsheaf_dual, _MODULE, ("ext", "u")),
    "vsheaf points": (run_vsheaf_points, _MODULE, ("ext", "u", "ext_degree")),
    "tate expand": (run_tate_expand, _SERIES, ("f",)),
    "tate canonical": (run_tate_canonical, _SERIES, ("f",)),
    "tate ks": (run_tate_ks, _SERIES, ("f",)),
    "forms hasse": (run_forms_hasse, _SERIES, ()),
    "forms audit": (run_forms_audit, _SERIES + ("f1", "f2"),
                    ("k1", "k2", "max_n")),
    "forms limit": (run_forms_limit, _SERIES + ("chi", "steps"),
                    ("monomial",)),
    "suite": (run_suite, ("manifest",), ("threads",)),
}
P_POLY_COMMANDS = ("carlitz eisenstein", "tate expand", "tate canonical",
                   "tate ks")
# the job handlers; run_suite and the benchmark tracer look them up here
HANDLERS = {c: row[0] for c, row in COMMANDS.items() if c != "suite"}


def check_params(command, params):
    """Refuse a missing required parameter or a key ``command`` does not
    take; ``command`` itself and q_modulus are always allowed."""
    _, required, optional = COMMANDS[command]
    for name in required:
        if params.get(name) is None:
            raise DomainError("missing required parameter %s" % _flag(name))
    unknown = sorted(set(params).difference(required, optional,
                                            ("command", "q_modulus")))
    if unknown:
        raise DomainError("%s takes no parameter %s"
                          % (command, ", ".join(map(repr, unknown))))


def build_parser():
    parser = CliParser(prog="drinfeld")
    sub = parser.add_subparsers(dest="group", required=True)
    groups = {}
    for command, (_, required, optional) in COMMANDS.items():
        group, _, op = command.partition(" ")
        if not op:
            p = sub.add_parser(group)
        else:
            if group not in groups:
                groups[group] = sub.add_parser(group).add_subparsers(
                    dest="op", required=True)
            p = groups[group].add_parser(op)
        alias = command in P_POLY_COMMANDS
        q_modulus = ("q_modulus",) if command in HANDLERS else ()
        for name in required + optional + q_modulus:
            # with --p-poly, a missing --wp is left to check_params (exit 1)
            p.add_argument(_flag(name), required=name in required
                           and not (alias and name == "wp"))
        if alias:
            p.add_argument("--p-poly", dest="wp")
    return parser


def main(argv=None):
    ns = build_parser().parse_args(argv)
    params = {k: v for k, v in vars(ns).items() if v is not None}
    command = " ".join(params.pop(k) for k in ("group", "op") if k in params)
    try:
        check_params(command, params)
        handler = run_suite if command == "suite" else HANDLERS[command]
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
    return result["exit_code"] if command == "suite" else 0


if __name__ == "__main__":
    sys.exit(main())
