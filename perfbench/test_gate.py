"""The benchmark's own tests: its output gate must count a corrupted output
as an error, and its tracer must give the same counts on every run.

    python3 -m pytest perfbench/test_gate.py -q

They live outside the repository's test suite on purpose: the benchmark is
not part of Tier-1.
"""

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gate  # noqa: E402
import workloads  # noqa: E402
from run import run_child  # noqa: E402

CAT = workloads.load_catalogue()
TATE_JOB = {"command": "tate canonical", "q": 2, "wp": "t", "f": "1", "prec": 8}


def digests_for(workload, jobs):
    return {workloads.digest_key(workload, j): CAT["digests"][workloads.digest_key(workload, j)]
            for j in jobs}


def test_recorded_output_passes_and_corrupted_output_fails():
    jobs = [TATE_JOB]
    records = workloads.run_tate(jobs)
    digests = digests_for("suite-mix", jobs)
    assert gate.check("suite-mix", jobs, records, digests) == [[]]
    bad = copy.deepcopy(records)
    bad[0]["text"] = bad[0]["text"].replace("[1]", "[0,1]", 1)
    assert gate.check("suite-mix", jobs, bad, digests) == [["digest mismatch"]]


def test_false_identity_flag_and_raised_job_fail():
    result = workloads.run_tate([TATE_JOB])[0]["result"]
    assert gate.identity_failures(TATE_JOB, result) == []
    result = dict(result, tdquot_ok=False)
    assert gate.identity_failures(TATE_JOB, result) == ["tdquot_ok"]
    fails = gate.check("suite-mix", [TATE_JOB], [{"error": "DomainError: x"}], {})
    assert fails == [["DomainError: x"]]


def test_gekeler_product_matches_and_catches_a_wrong_a2():
    from drinfeld.fields import fq, polyring
    from drinfeld.tate import td_instance
    field = fq(2)
    A = polyring(field)
    td = td_instance(field, A.gen, A.one, 16)
    G = gate.gekeler_a2(field, 16)
    assert (td.a2 - G).truncate(16).is_zero()
    wrong = G + G.shift(5)
    assert not (td.a2 - wrong).truncate(16).is_zero()
    job = dict(TATE_JOB, prec=16)
    assert gate.gekeler_failures([job]) == {}


def test_child_counts_a_corrupted_digest_as_a_failed_job():
    jobs = [dict(j) for j in CAT["suite"]["manifest"][:3]]
    digests = digests_for("suite-mix", jobs)
    key = workloads.digest_key("suite-mix", jobs[1])
    digests[key] = "0" * 64
    request = {"workload": "suite-mix", "jobs": jobs, "digests": digests,
               "threads": 1, "trace": 0,
               "workdir": os.path.join(ROOT, ".bench_build", "perfbench")}
    rep = run_child(ROOT, request)
    assert rep["attempted"] == 3
    assert rep["failures"] == [[1, ["digest mismatch"]]]


def test_job_lists_depend_only_on_the_seed():
    for w in workloads.WORKLOADS:
        a = workloads.make_jobs(w, 5, CAT)
        assert a == workloads.make_jobs(w, 5, CAT)
        assert all(workloads.digest_key(w, j) in CAT["digests"] for j in a)
    suite = workloads.make_jobs("suite-mix", 5, CAT)
    assert suite != workloads.make_jobs("suite-mix", 6, CAT)
    assert json.dumps(suite[:19]) == json.dumps(CAT["suite"]["manifest"])
    tate = workloads.make_jobs("tate-deep", 5, CAT)
    assert len({workloads.job_key(dict(j, command="")) for j in tate}) == len(tate)


def test_traced_counts_repeat_exactly():
    jobs = [TATE_JOB, dict(TATE_JOB, command="tate expand", q=3)]
    request = {"workload": "tate-deep", "jobs": jobs,
               "digests": digests_for("suite-mix", jobs), "threads": 1,
               "trace": 1, "workdir": ""}
    counts = []
    for _ in range(2):
        rep = run_child(ROOT, request)
        assert rep["failures"] == []
        layers = rep["layers"]
        assert abs(layers["trace.self_coverage"] - 1.0) < 0.05
        counts.append({k: v for k, v in layers.items()
                       if not k.endswith(("_s", "_ms", "coverage"))})
    assert counts[0] == counts[1]
    assert counts[0]["cli.jobs"] == 2 and counts[0]["tate.build.calls"] == 2
