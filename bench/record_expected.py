"""Record the stdout digests that the benchmark's fixed jobs are checked
against, by running every such job once on the current sources:

    python3 bench/record_expected.py

Run it only on a commit whose output is known to be right; the file it
writes (``bench/expected_stdout.json``) is the reference for every later
commit.  Jobs on seeded inputs are not recorded: they have references that
do not depend on the seed.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    env = run.child_env()
    recorded = {}
    work = Path(tempfile.mkdtemp(dir=run.BENCH, prefix=".record-"))
    try:
        for name in sorted(workloads.BUILDERS):
            w = workloads.build(name, 0, work, expected={})
            for job in w.jobs:
                if job.key not in w.recorded or job.key in recorded:
                    continue
                result = run.run_job(job, work, env)
                if result.error and not result.error.startswith("no recorded"):
                    print(f"{job.key}: {result.error}", file=sys.stderr)
                    return 1
                recorded[job.key] = workloads.digest(result.stdout)
                print(f"{job.key}: {recorded[job.key][:16]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.EXPECTED_FILE.write_text(
        json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
