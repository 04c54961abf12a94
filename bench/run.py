"""displab benchmark: fresh-process CLI jobs, checked, timed and traced.

    python3 bench/run.py --workload {count,poly,nonstrict} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is the ``displab``
package under ``src/``.  A closed loop with one client runs the workload's
fixed job list, each job a fresh ``python -m displab.cli ...`` process,
in whole passes until the time is up (at least three passes), and checks every
job's stdout.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it alternates plain and traced passes and prints the
per-layer metrics.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the machine, every metric with its unit and sample count, and any
failed check.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3
MIN_PASSES = 3
JOB_TIMEOUT_S = 30
# however slow the program, the run ends after this many times --seconds
HARD_STOP = 4
TAIL_BEYOND = 10


@dataclass
class JobResult:
    key: str
    wall_s: float
    cpu_s: float
    rss_kb: int
    error: str | None
    stdout: str


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "DISPLAB_"))}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_process(argv: list[str], env: dict[str, str],
                stderr_path: Path) -> tuple[float, object, int, str]:
    """Run argv from src/ and wait for it; returns (wall seconds, rusage,
    exit code, stdout).  A process still running after JOB_TIMEOUT_S is
    killed."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=SRC, env=env, stdout=subprocess.PIPE,
                                stderr=err, stdin=subprocess.DEVNULL)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, proc.returncode, out.decode("utf-8", "replace")


def run_job(job: workloads.Job, work: Path, env: dict[str, str],
            trace_path: Path | None = None) -> JobResult:
    if trace_path is None:
        argv = [sys.executable, "-m", "displab.cli", *job.argv]
    else:
        trace_path.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "traced_cli.py"), str(trace_path),
                *job.argv]
    stderr_path = work / "stderr.txt"
    wall, usage, code, out = run_process(argv, env, stderr_path)
    if code != 0:
        tail = stderr_path.read_text(errors="replace").strip()[-300:]
        error = f"exit code {code}: {tail}"
    else:
        try:
            error = job.check(out)
        except (ValueError, KeyError, TypeError) as exc:
            error = f"unreadable output: {exc}: {out[:120]!r}"
    return JobResult(job.key, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss, error, out)


def run_pass(w: workloads.Workload, work: Path, env: dict[str, str],
             traced: bool) -> tuple[list[JobResult], Counter]:
    """Every job once, in list order, then the cross-job checks.  Returns
    the results and, for a traced pass, the summed per-layer metrics."""
    results = []
    layers: Counter = Counter()
    for job in w.jobs:
        trace_path = work / "trace.json" if traced else None
        results.append(run_job(job, work, env, trace_path))
        if traced and results[-1].error is None:
            layers.update(tracer.job_metrics(
                json.loads(trace_path.read_text())))
    by_key = {r.key: r for r in results}
    for keys, check in w.cross_checks:
        if all(by_key[k].error is None for k in keys):
            err = check({k: by_key[k].stdout for k in keys})
            if err:
                for k in keys:
                    by_key[k].error = f"cross-check: {err}"
    return results, layers


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q percent
    of the values at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def machine() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(),
            "implementation": platform.python_implementation()}


def build_program(env: dict[str, str]) -> None:
    """Byte-compile the package so every timed process starts warm."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "displab"],
                   cwd=SRC, env=env, check=True, stdout=subprocess.DEVNULL)


def setup_probes(work: Path, env: dict[str, str]) -> list[JobResult]:
    """SETUP_PROBES back-to-back runs of a trivial subcommand in a fresh
    process: interpreter start, package import and parser build."""
    probe = workloads.Job("setup", workloads.SETUP_ARGV,
                          workloads.families_check)
    return [run_job(probe, work, env) for _ in range(SETUP_PROBES)]


def metric(name: str, value: float, unit: str, note: str,
           out: dict) -> None:
    out[name] = {"value": value, "unit": unit}
    print(f"{name} = {value:.6g} {unit}  ({note})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its job and removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "displab" / "cli.py").is_file():
        print(f"error: no displab sources under {SRC}", file=sys.stderr)
        return 2
    expected = workloads.load_expected()
    if not expected:
        print(f"error: missing {workloads.EXPECTED_FILE}", file=sys.stderr)
        return 2

    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, work, expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path, expected: dict[str, str]) -> int:
    env = child_env()
    print("machine: " + json.dumps(machine(), sort_keys=True))
    print(f"workload: {args.workload}  seed: {args.seed}  "
          f"seconds: {args.seconds:g}  trace: {args.trace}")

    t0 = time.perf_counter()
    build_program(env)
    w = workloads.build(args.workload, args.seed, work, expected)
    probes = [setup_probes(work, env)]
    print(f"set-up: {time.perf_counter() - t0:.2f} s, "
          f"{len(w.jobs)} jobs per pass")

    passes: list[list[JobResult]] = []
    traced_passes: list[tuple[list[JobResult], Counter]] = []
    start = time.perf_counter()
    while True:
        # start-up probes before every pass spread them over the run
        probes.append(setup_probes(work, env))
        passes.append(run_pass(w, work, env, traced=False)[0])
        if args.trace:
            traced_passes.append(run_pass(w, work, env, traced=True))
        elapsed = time.perf_counter() - start
        next_end = elapsed + elapsed / len(passes)
        if next_end > args.seconds and (len(passes) >= MIN_PASSES
                                        or next_end > HARD_STOP * args.seconds):
            break

    results = [r for p in probes + passes for r in p]
    results += [r for p, _ in traced_passes for r in p]
    failed = [r for r in results if r.error]
    for r in failed:
        print(f"FAILED {r.key}: {r.error}")
    metrics: dict = {}
    if args.trace:
        report_layers(passes, traced_passes, metrics)
    else:
        report_end_to_end(passes, probes, metrics)
    print(f"failed_frac = {len(failed) / len(results):.6g}  ({len(failed)} "
          f"of {len(results)} jobs; in the JSON as failed/attempted)")
    print(json.dumps({"correct": not failed, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def best_per_job(passes: list[list[JobResult]], field: str) -> list[float]:
    """Each job's lowest value over the passes, in job-list order.

    Load from other processes on a shared machine only ever adds time, in
    bursts that last from seconds to minutes; a job's fastest pass is the
    one least disturbed, so the minimum keeps the bursts out.
    """
    return [min(getattr(p[j], field) for p in passes)
            for j in range(len(passes[0]))]


def tail_percentile(jobs: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND jobs above it."""
    return (100 * (jobs - TAIL_BEYOND)) // jobs


def report_end_to_end(passes, probes, metrics) -> None:
    walls = best_per_job(passes, "wall_s")
    q = tail_percentile(len(walls))
    n = f"{len(walls)} jobs, each its fastest of {len(passes)} passes"
    metric("setup_s", statistics.median(min(r.wall_s for r in p)
                                        for p in probes), "s",
           f"median over {len(probes)} samples, each the fastest of "
           f"{SETUP_PROBES} fresh 'families --spec path:1'", metrics)
    metric("jobs_per_s", len(walls) / sum(walls), "1/s", n, metrics)
    metric("cpu_s", sum(best_per_job(passes, "cpu_s")), "s",
           f"child user+system CPU for the job list; {n}", metrics)
    metric("job_p50_s", statistics.median(walls), "s", n, metrics)
    metric("job_tail_s", percentile(walls, q), "s", f"p{q}; {n}", metrics)
    metric("peak_rss_mb", max(r.rss_kb for p in passes for r in p) / 1024,
           "MB", "largest child max-RSS", metrics)


def report_layers(passes, traced_passes, metrics) -> None:
    traced = [p for p, _ in traced_passes]
    overhead = (sum(best_per_job(traced, "wall_s"))
                / sum(best_per_job(passes, "wall_s")) - 1)
    per_pass = [layers for _, layers in traced_passes]
    note = f"per pass, median of {len(per_pass)} traced passes"
    for name in tracer.PER_LAYER:
        unit = "s" if name.endswith("_s") else "count"
        metric(name, statistics.median(layers[name] for layers in per_pass),
               unit, note, metrics)
    metric("trace.overhead_frac", overhead, "ratio",
           f"traced over plain job time, fastest of {len(passes)} passes "
           "each", metrics)


if __name__ == "__main__":
    sys.exit(main())
