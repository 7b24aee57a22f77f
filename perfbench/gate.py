"""Output checks, run after the timed window of each repetition.

A job fails when it raised, when its key-sorted JSON output differs from
the sha256 digest recorded at the recording commit, or when an identity
flag in its output is false.  On tate-deep, a2 is also compared against
Gekeler's product formula (Invent. Math. 93, 1988), which uses only Carlitz
polynomials and series arithmetic, never the lattice exponential.
"""

import hashlib
import json

from workloads import digest_key


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _all_true(result, keys):
    return [k for k in keys if result.get(k) is not True]


def identity_failures(job, result):
    """Names of the identity flags that do not hold in one job's output."""
    command = job.get("command")
    if command == "tate expand":
        checks = result["checks"]
        bad = _all_true(checks, ("a1_in_one_plus_x", "a2_unit",
                                 "coeffs_in_q_minus_1_subring",
                                 "y_times_j_unit", "functional_equation_ok"))
        if checks["a2_valuation"] != checks["a2_valuation_expected"]:
            bad.append("a2_valuation")
        return bad
    if command == "tate canonical":
        return _all_true(result, ("c0_is_wp", "expp_residuals_vanish",
                                  "tdquot_ok", "rho_exists",
                                  "psi_low_divisible_by_wp",
                                  "psi_top_unit_mod_wp"))
    if command == "tate ks":
        if str(job.get("f", "1")) == "1" and (result["val"] != -1 or
                                               result["residue"] != "[1]"):
            return ["ks_simple_pole_residue_one"]
        return []
    if command == "carlitz eisenstein":
        bad = _all_true(result["witness"], ("monic", "nonleading_divisible",
                                            "linear_coefficient_is_wp"))
        return bad + _all_true(result, ("eisenstein",))
    if command == "vsheaf kernel":
        bad = _all_true(result, ("valid",))
        return bad + (["violations"] if result["violations"] else [])
    if command == "vsheaf dual":
        return _all_true(result, ("double_dual_is_identity",))
    if command == "forms hasse":
        return _all_true(result, ("congruent_one_mod_wp",))
    if command == "forms audit":
        return ["vacuous"] if result["vacuous"] else []
    if command == "forms limit":
        return ["successive_depth_%d" % i
                for i, dep in enumerate(result["successive_depths"], 1)
                if dep is None or dep < i]
    if "audits" in result:  # forms-sweep harness
        bad = ["audit %r" % a[:3] for a in result["audits"]
               if not a[3] or a[4]]
        bad += ["control %r" % c[:3] for c in result["controls"]
                if c[3] or c[4]]
        if len(result["controls"]) != len(job["negatives"]):
            bad.append("controls_missing")
        bad += ["limit_depth_%d" % i
                for i, dep in enumerate(result["limit"]["depths"], 1)
                if dep < i]
        return bad
    return []


def output_text(workload, record):
    if workload == "forms-sweep":
        result = {k: v for k, v in record["result"].items() if k != "controls"}
        return json.dumps(result, sort_keys=True)
    return record["text"]


def check(workload, jobs, records, digests):
    """One list of failure strings per job; an empty list is a pass."""
    out = []
    for job, rec in zip(jobs, records):
        if "error" in rec:
            out.append([rec["error"]])
            continue
        fails = []
        want = digests.get(digest_key(workload, job))
        if want is None:
            fails.append("no recorded digest")
        elif sha256(output_text(workload, rec)) != want:
            fails.append("digest mismatch")
        fails += ["identity flag %s" % n for n in identity_failures(job, rec["result"])]
        out.append(fails)
    if len(records) != len(jobs):
        out.append(["%d records for %d jobs" % (len(records), len(jobs))])
    if workload == "tate-deep":
        bad = gekeler_failures(jobs)
        for job, fails in zip(jobs, out):
            if (job["q"], job["prec"]) in bad:
                fails.append(bad[(job["q"], job["prec"])])
    return out


def gekeler_a2(field, prec):
    """a2 = -x^(q-1) prod_{a monic} f_a(x)^((q^2-1)(q-1)), where
    f_a(x) = x^(q^deg a) Phi^C_a(1/x) = 1 + O(x^(q^r - q^(r-1)))."""
    from drinfeld.carlitz import carlitz_phi
    from drinfeld.fields import polyring
    from drinfeld.series import TruncSeries

    A = polyring(field)
    q = field.q
    M = prec - (q - 1)
    exponent = (q * q - 1) * (q - 1)
    prod = TruncSeries.one(A, M)
    r = 1
    while q ** r - q ** (r - 1) < M:
        for a in A.monic_polys(r):
            coeffs = [A.zero] * (q ** r + 1)
            for j, c in enumerate(carlitz_phi(A, a).coeffs):
                coeffs[q ** r - q ** j] = c
            prod = prod * TruncSeries(A, 0, coeffs, M) ** exponent
        r += 1
    return -(prod.shift(q - 1))


def gekeler_failures(jobs):
    """Compare td.a2 with Gekeler's product on every f = 1 configuration;
    returns {(q, prec): reason} for the configurations that disagree."""
    from drinfeld.fields import fq, parse_apoly, polyring
    from drinfeld.tate import td_instance

    bad = {}
    seen = set()
    for job in jobs:
        key = (job["q"], job["prec"])
        if str(job.get("f", "1")) != "1" or key in seen:
            continue
        seen.add(key)
        field = fq(job["q"])
        A = polyring(field)
        try:
            td = td_instance(field, parse_apoly(A, str(job["wp"])), A.one,
                             job["prec"])
            G = gekeler_a2(field, job["prec"])
            ok = G.prec >= job["prec"] and (td.a2 - G).truncate(job["prec"]).is_zero()
        except Exception as exc:
            bad[key] = "gekeler check raised %s: %s" % (type(exc).__name__, exc)
            continue
        if not ok:
            bad[key] = "a2 differs from Gekeler's product at q=%d N=%d" % key
    return bad
