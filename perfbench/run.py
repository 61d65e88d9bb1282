"""homlie benchmark: one workload, timed end to end or traced per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cohomology-ladder, deformation-chain, cli-batch (see README.md).
With --trace 0 the workload runs in a fresh process after a few set-up-only
processes, and the end-to-end metrics are printed; with --trace 1 the worker
wraps the public functions of each homlie module and the per-layer metrics
are printed.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Needs only the standard library and the package sources under src/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracer import metric_names

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("cohomology-ladder", "deformation-chain", "cli-batch")
SETUP_PROBES = 4  # set-up-only processes before the measured one
TIMEOUT_S = 170
# setup_s is reported at the machine speed where the reference loop takes
# this long, so that it stays comparable while the machine's speed drifts.
NOMINAL_REFERENCE_S = 0.002


def start_worker(args, workdir, extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", workdir, *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    speed = proc.stdout.readline().split()
    if line.strip() != "READY" or len(speed) != 2 or speed[0] != "SPEED":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start: {line.strip() or 'no output'}")
    return proc, (ready, float(speed[1]))


def finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def tail_percentile(samples):
    """p90 when there are at least 100 samples, otherwise the highest whole
    percentile with ten samples above it (at least the median)."""
    n = len(samples)
    q = 90 if n >= 100 else max(50, int(100 * (n - 10) / n))
    return q, statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def timings(jobs, passes, scale):
    """Pass, largest-job and per-job figures for one way of reading a job's
    time: `scale(job, k)` gives the job's time in pass k.  Percentiles are
    taken over the jobs' median times, which interpolate smoothly where the
    job sizes leave gaps."""
    per_job = [statistics.median(scale(job, k) for k in range(passes)) for job in jobs]
    # Most unknowns; ties go to more structure-constant nonzeros, then to the later job.
    largest = max(reversed(range(len(jobs))),
                  key=lambda i: (jobs[i]["sizes"]["unknowns"], jobs[i]["sizes"]["nonzeros"]))
    q, tail = tail_percentile(per_job)
    return {
        "wall": statistics.median(sum(scale(job, k) for job in jobs) for k in range(passes)),
        "largest": per_job[largest],
        "p50": statistics.median(per_job),
        "tail": tail,
        "q": q,
        "largest_name": jobs[largest]["name"],
    }


def end_to_end(summary, setups, attempted, failed):
    jobs, passes = summary["jobs"], summary["passes"]
    ref = timings(jobs, passes, lambda job, k: job["times"][k] / job["yardsticks"][k])
    raw = timings(jobs, passes, lambda job, k: job["times"][k])
    print(f"passes: {passes}  jobs: {len(jobs)}  largest job: {ref['largest_name']}")
    print(f"job_p90 figures are p{ref['q']} of the {len(jobs)} per-job medians")
    print(f"seconds as measured: wall_s {raw['wall']:.4f}  largest_job_s {raw['largest']:.4f}  "
          f"job_p50_ms {1000 * raw['p50']:.3f}  job_p90_ms {1000 * raw['tail']:.3f}")
    raw_setup = statistics.median(ready for ready, _ in setups)
    print(f"set-up seconds as measured: {raw_setup:.4f}")
    return {
        "setup_s": (statistics.median(ready / speed for ready, speed in setups)
                    * NOMINAL_REFERENCE_S, "s"),
        "wall_ref": (ref["wall"], "ref"),
        "largest_job_ref": (ref["largest"], "ref"),
        "job_p50_ref": (ref["p50"], "ref"),
        "job_p90_ref": (ref["tail"], "ref"),
        "peak_rss_mb": (summary["rss_mb"], "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + TIMEOUT_S
    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    results = os.path.join(OUT, f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json")

    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_PROBES):
                proc, setup = start_worker(args, workdir, ["--setup-only"])
                finish(proc, deadline)
                setups.append(setup)
        proc, setup = start_worker(
            args, workdir,
            ["--seconds", str(args.seconds), "--trace", str(args.trace), "--out", results])
        setups.append(setup)
        summary = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    jobs = summary["jobs"]
    attempted = sum(len(job["times"]) for job in jobs)
    failed = sum(job["failures"] for job in jobs)
    # A wrong output makes the run incorrect; a job that raised is counted
    # in `failed` only.
    correct = not any(job["wrong"] for job in jobs)
    for job in jobs:
        for problem in job["problems"]:
            print(f"FAILED {job['name']}: {problem}")
    print(f"results: {os.path.relpath(results, ROOT)}")

    if args.trace:
        metrics = {name: (summary["layers"][name], unit) for name, unit in metric_names().items()}
    else:
        metrics = end_to_end(summary, setups, attempted, failed)
    for name, (value, unit) in metrics.items():
        print(f"{name:60s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
