"""One workload in one fresh process; started by run.py.

Protocol on stdout: the line READY once the inputs are built (run.py times
process start to this line as set-up), then SPEED with the seconds per
reference loop, then, unless --setup-only, one JSON line with the per-pass
and per-job measurements.  Per-job sizes, times and
check results also go to the results file named by --out.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import homlie  # noqa: E402

if not os.path.abspath(homlie.__file__).startswith(SRC + os.sep):
    sys.exit(f"homlie was imported from {homlie.__file__}, not from {SRC}")

import tracer as T  # noqa: E402
import workloads as W  # noqa: E402


def reference_loop():
    """Fixed exact-rational work, about 2 ms: the machine-speed yardstick."""
    total = Fraction(0)
    for i in range(1, 501):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return total


def reference_block(reps: int) -> float:
    """Median time of `reps` back-to-back runs of the reference loop."""
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def block_sizes(previous, count):
    """Reference runs in each of the count + 1 blocks around the jobs: about
    2 % of the longer neighbouring job's time in the previous pass, 1 to 16."""
    if previous is None:
        return [1] * (count + 1)
    sizes = []
    for b in range(count + 1):
        longest = max(previous[max(b - 1, 0):b + 1])
        sizes.append(min(16, max(1, round(0.02 * longest / 0.002))))
    return sizes


def yardstick(blocks, k, start, end):
    """Seconds per reference loop for the job between blocks k and k + 1: the
    mean of those two blocks and of every other block within half the job's
    length of it, so a long job is compared with the machine's speed over a
    span like its own."""
    half = (end - start) / 2
    chosen = [value for i, (when, value) in enumerate(blocks)
              if i in (k, k + 1) or start - half <= when <= end + half]
    return statistics.mean(chosen)


def run_pass(jobs, previous=None, tracer=None):
    """Run every job once, with a block of reference-loop runs timed before
    each job and after the last; checks run after the timed pass.  `previous`
    holds the job times of the last pass and sizes the blocks."""
    outputs, times, spans, errors = {}, [], [], {}
    blocks = []  # (midpoint, seconds per reference loop)

    def block(reps):
        t = time.perf_counter()
        value = reference_block(reps)
        blocks.append(((t + time.perf_counter()) / 2, value))

    gc.collect()
    sizes = block_sizes(previous, len(jobs))
    block(sizes[0])
    for k, job in enumerate(jobs):
        t = time.perf_counter()
        try:
            outputs[job.name] = job.run()
        except Exception as exc:  # a failed job is counted, not fatal
            errors[job.name] = f"{type(exc).__name__}: {str(exc)[:200]}"
        end = time.perf_counter()
        times.append(end - t)
        spans.append((t, end))
        block(sizes[k + 1])
    yardsticks = [yardstick(blocks, k, start, end) for k, (start, end) in enumerate(spans)]
    if tracer is not None:
        tracer.end_pass()
    wrong = {}
    seen = {}
    for job in jobs:
        if job.name in outputs:
            problem = job.check(outputs[job.name], seen)
            if problem:
                wrong[job.name] = problem
            seen[job.name] = outputs[job.name]
    return times, yardsticks, errors, wrong


def _reference_units(one_pass):
    times, yardsticks = one_pass[0], one_pass[1]
    return sum(t / y for t, y in zip(times, yardsticks))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        expected = json.load(handle).get(args.workload, {})
    jobs = W.WORKLOADS[args.workload](random.Random(args.seed), expected, args.workdir)
    print("READY", flush=True)
    # Seconds per reference loop right after set-up, to scale the set-up time.
    print(f"SPEED {reference_block(8)}", flush=True)
    if args.setup_only:
        return

    start = time.perf_counter()
    passes, lengths = [], []
    previous = None
    tracer = None
    untraced = None
    if args.trace:
        # One untraced pass as the baseline for the tracing overhead.
        untraced = run_pass(jobs)
        previous = untraced[0]
        tracer = T.Tracer()
        tracer.install()
    # Whole passes; another starts only if it should end within --seconds.
    while True:
        t = time.perf_counter()
        passes.append(run_pass(jobs, previous, tracer))
        previous = passes[-1][0]
        lengths.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(lengths) > args.seconds:
            break

    measured = ([untraced] if untraced else []) + passes
    summary = {
        "passes": len(measured),
        "jobs": [
            {
                "name": job.name,
                "sizes": job.sizes,
                "times": [p[0][k] for p in measured],
                "yardsticks": [p[1][k] for p in measured],
                "failures": sum(job.name in p[2] or job.name in p[3] for p in measured),
                "wrong": any(job.name in p[3] for p in measured),
                "problems": sorted({p[2].get(job.name) or p[3].get(job.name)
                                    for p in measured if job.name in p[2] or job.name in p[3]}),
            }
            for k, job in enumerate(jobs)
        ],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        layers = tracer.metrics(len(passes))
        layers["trace.overhead_ratio"] = (
            statistics.median(_reference_units(p) for p in passes) / _reference_units(untraced))
        summary["layers"] = layers
        tracer.write(os.path.join(args.workdir, "spans.json.gz"))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                       **summary}, handle, indent=1)
    print(json.dumps(summary), flush=True)


if __name__ == "__main__":
    main()
