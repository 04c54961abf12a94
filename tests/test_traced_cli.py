"""The benchmark's traced runner still drives the library.

``bench/traced_cli.py`` wraps library functions and classes by name, so a
library edit that renames or deletes one of them breaks the traced runs.
Each argv here must print the same stdout with the same exit code traced
as through ``python -m displab.cli``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def smoke_argvs():
    """The argv of every smoke job of ``bench/workloads.py``."""
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    w = workloads.Workload("smoke", {})
    workloads.add_smoke(w)
    return [job.argv for job in w.jobs]


ARGVS = [*smoke_argvs(), ("count", "--family", "star:15"), ("paper-tables",)]


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_traced_run_prints_what_the_cli_prints(argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    trace = tmp_path / "trace.json"
    traced = subprocess.run(
        [sys.executable, str(BENCH / "traced_cli.py"), str(trace), *argv],
        env=env, capture_output=True, text=True, timeout=60)
    plain = subprocess.run([sys.executable, "-m", "displab.cli", *argv],
                           env=env, capture_output=True, text=True,
                           timeout=60)
    assert traced.returncode == plain.returncode, traced.stderr
    assert traced.stdout == plain.stdout
    assert "counters" in json.loads(trace.read_text())
