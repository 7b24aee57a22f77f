"""Every catalogued benchmark job still prints its recorded bytes.

``perfbench/catalogue.json`` keeps, for each tate and suite job the
benchmark can draw, the sha256 of the key-sorted JSON result at the commit
it was recorded on.  Its key is the job's JSON with sorted keys and no
spaces.  The file is read as data, without importing the benchmark code;
forms-sweep jobs are left out, since their digests cover a harness result
rather than one command's output.
"""

import hashlib
import json
from pathlib import Path

from drinfeld import cli

CATALOGUE = Path(__file__).resolve().parents[1] / "perfbench" / "catalogue.json"


def job_key(job):
    return json.dumps(job, sort_keys=True, separators=(",", ":"))


def catalogued_jobs(cat):
    suite = cat["suite"]
    jobs = cat["tate"] + suite["manifest"]
    jobs += [job for cell in suite["cells"] for job in cell["jobs"]]
    return list({job_key(job): job for job in jobs}.values())


def test_every_catalogued_job_matches_its_digest():
    cat = json.loads(CATALOGUE.read_text())
    jobs = catalogued_jobs(cat)
    assert len(jobs) >= 775
    mismatched = []
    for job in jobs:
        command = job["command"]
        cli.check_params(command, job)
        params = {k: v for k, v in job.items() if k != "command"}
        text = json.dumps(cli.HANDLERS[command](params), sort_keys=True)
        if hashlib.sha256(text.encode()).hexdigest() != cat["digests"][job_key(job)]:
            mismatched.append(job)
    assert mismatched == []
