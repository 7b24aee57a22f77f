"""The three workloads: job lists made from the seed, and the code that runs
one repetition of a job list inside a child process.

Job lists are pure data drawn from `catalogue.json`, so the parent never
imports the program.  Every job in the catalogue was run once at the
recording commit (see `record.py`) and has a sha256 digest of its output.

* tate-deep   fixed set of distinct high-N Tate-Drinfeld configurations, run
              through the `tate canonical`, `tate expand` and `tate ks`
              handlers.  The seed only orders the jobs: the set is fixed
              because cost grows steeply with N and with wp, so a seeded
              choice of configurations would swamp machine noise.
* forms-sweep the weight-congruence harness of acceptance criterion 7 in the
              A/(wp^n) view, then `padic_limit_sequence`.  The seed picks
              which generators also get a negative control (a fixed count).
* suite-mix   the acceptance manifest, then a seeded draw over all 14
              commands, run through `run_suite` as `drinfeld suite` does.
              The draw is stratified: each catalogue cell (command, q,
              deg wp) gets a fixed quota, so every seed does similar work.
"""

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
CATALOGUE = os.path.join(HERE, "catalogue.json")

WORKLOADS = ("tate-deep", "forms-sweep", "suite-mix")


def job_key(job):
    """Canonical text of a job's inputs; the digest table is keyed by it."""
    return json.dumps(job, sort_keys=True, separators=(",", ":"))


def load_catalogue(path=CATALOGUE):
    with open(path) as fh:
        return json.load(fh)


def make_jobs(workload, seed, cat):
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "tate-deep":
        jobs = [dict(j) for j in cat["tate"]]
        rng.shuffle(jobs)
        return jobs
    if workload == "forms-sweep":
        jobs = []
        for cfg in cat["forms"]:
            job = dict(cfg)
            eligible = cfg["negative_pool"]
            job.pop("negative_pool")
            job["negatives"] = sorted(rng.sample(eligible, cfg["negative_count"]))
            jobs.append(job)
        return jobs
    if workload == "suite-mix":
        drawn = []
        for cell in cat["suite"]["cells"]:
            for _ in range(cell["quota"]):
                drawn.append(dict(rng.choice(cell["jobs"])))
        rng.shuffle(drawn)
        return [dict(j) for j in cat["suite"]["manifest"]] + drawn
    raise ValueError("unknown workload %r" % workload)


def digest_key(workload, job):
    """forms-sweep negatives are seeded and checked by rule, not by digest."""
    if workload == "forms-sweep":
        job = {k: v for k, v in job.items() if k not in ("negatives", "negative_count")}
    return job_key(job)


# -- child side: one repetition ------------------------------------------
#
# Each runner returns one record per job: {"result": ..., "text": ...} on
# success or {"error": ...}.  Everything a CLI user would wait for is inside
# the runner; the output checks in gate.py run after it returns.


def run_tate(jobs):
    from drinfeld import cli
    records = []
    for job in jobs:
        params = {k: v for k, v in job.items() if k != "command"}
        try:
            result = cli.HANDLERS[job["command"]](params)
            records.append({"result": result,
                            "text": json.dumps(result, sort_keys=True)})
        except Exception as exc:  # a failed job is counted, the run goes on
            records.append({"error": "%s: %s" % (type(exc).__name__, exc)})
    return records


def run_suite(jobs, workdir, threads):
    from drinfeld import cli
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, "manifest-%d.json" % os.getpid())
    with open(path, "w") as fh:
        json.dump({"jobs": jobs}, fh, sort_keys=True)
    try:
        return _run_manifest(cli, path, threads, len(jobs))
    finally:
        os.remove(path)


def _run_manifest(cli, path, threads, count):
    try:
        out = cli.run_suite({"manifest": path, "threads": threads})
        json.dumps(out, sort_keys=True)
    except Exception as exc:
        return [{"error": "suite: %s: %s" % (type(exc).__name__, exc)}] * count
    records = []
    for entry in out["jobs"]:
        if entry.get("ok"):
            records.append({"result": entry["result"],
                            "text": json.dumps(entry["result"], sort_keys=True)})
        else:
            records.append({"error": "code %s: %s" % (entry.get("code"),
                                                       entry.get("error"))})
    return records


def run_forms(jobs):
    records = []
    for job in jobs:
        try:
            records.append(_forms_harness(job))
        except Exception as exc:
            records.append({"error": "%s: %s" % (type(exc).__name__, exc)})
    return records


def _forms_harness(job):
    """Criterion 7 generalised: audit every generator a1^alpha a2^beta of
    weight <= bound against itself times g^(p^l), in A/(wp^cap), plus the
    seeded negative controls, then build a wp-adic limit sequence."""
    from drinfeld.fields import ResidueRing, fq, parse_apoly, polyring
    from drinfeld.forms import (FormExpansion, WeightChar, congruence_depth,
                                hasse_lift_expansion, padic_limit_sequence,
                                reduce_mod_wp, series_wp_valuation,
                                weight_congruence_audit)
    from drinfeld.series import TruncSeries
    from drinfeld.tate import td_instance

    q, prec, cap = job["q"], job["prec"], job["wp_cap"]
    field = fq(q)
    A = polyring(field)
    wp = parse_apoly(A, job["wp"])
    p = field.p
    d = wp.degree
    R = ResidueRing(wp ** cap)
    td = td_instance(field, wp, A.one, prec)
    a1 = td.a1.map_coeffs(R.reduce, R)
    a2 = td.a2.map_coeffs(R.reduce, R)
    g = reduce_mod_wp(hasse_lift_expansion(field, wp, prec), R, cap)
    gpow = [g.pow(p ** l) for l in range(job["l_max"] + 1)]
    negatives = set(tuple(n) for n in job.get("negatives", ()))
    bound = job["weight_bound"]
    audits, controls = [], []
    a2_power = TruncSeries.one(R, prec)
    beta = 0
    while (q * q - 1) * beta <= bound:
        series = a2_power
        alpha = 0
        while (q - 1) * alpha + (q * q - 1) * beta <= bound:
            f = FormExpansion((q - 1) * alpha + (q * q - 1) * beta, 0, series, cap)
            if series_wp_valuation(f.series, wp, 2) == 0:
                for l in range(job["l_max"] + 1):
                    f2 = f * gpow[l]
                    v = weight_congruence_audit(f, f2, wp, p ** l + 2)
                    audits.append([alpha, beta, l, v.passed, v.vacuous,
                                   v.depth, v.modulus])
                    if (alpha, beta, l) in negatives:
                        bad = FormExpansion(f2.weight + p ** (l - 1),
                                            f2.type_m, f2.series)
                        vb = weight_congruence_audit(f, bad, wp, p ** l + 2)
                        controls.append([alpha, beta, l, vb.passed, vb.vacuous])
            alpha += 1
            series = series * a1
        a2_power = a2_power * a2
        beta += 1
    lim = job["limit"]
    alpha, beta = lim["monomial"]
    mono = TruncSeries.one(R, prec)
    if alpha:
        mono = mono * a1 ** alpha
    if beta:
        mono = mono * a2 ** beta
    f = FormExpansion((q - 1) * alpha + (q * q - 1) * beta, 0, mono, cap)
    qd1 = q ** d - 1
    chi = WeightChar(f.weight % max(1, qd1), f.weight + lim["shift"], qd1, p, 12)
    seq = padic_limit_sequence(f, chi, wp, lim["steps"], g)
    depths = [congruence_depth(seq[i][1], seq[i - 1][1], wp, i).depth
              for i in range(1, len(seq))]
    result = {"audits": audits, "controls": controls,
              "limit": {"weights": [k for k, _ in seq], "depths": depths,
                        "expansions": [[[[x.idx for x in c.value.coeffs]
                                         for c in h.series.coeffs],
                                        h.series.val, h.series.prec]
                                       for _, h in seq]}}
    return {"result": result}
