#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 benchmark/run.py --workload fig10 --seed 1 --seconds 20 --trace 0

Builds the `suprenum-benchmark` package (release, offline), then starts a
fresh process per repetition until `--seconds` have been measured, so the
analyzer's process-wide verdict caches start empty in every repetition.
With `--trace 0` each repetition runs the workload untraced through
`harness::run_sweep`, between two timings of a fixed pure-Python loop
that measure the host's speed at that moment (see `reference_s`). With
`--trace 1` each repetition is an untraced process followed by a
traced replay process, and the per-layer metrics are the medians over the
replays. The last line of stdout is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. Any error exits non-zero
without printing a result.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fig10", "scaling", "sched-faults")
# Measured repetitions made even when they overrun --seconds: a
# median of fewer is not worth reporting.
MIN_REPS = 3
PROCESS_TIMEOUT_S = 150
# Spans must account for at least this share of each replayed job.
MIN_SPAN_COVERAGE = 0.95

# Iterations of the reference loop; about 0.2 s on a 2-vCPU Xeon guest.
REFERENCE_ITERATIONS = 1_200_000
# Nearest-rank percentile of the peak memory over repetitions. Peak memory
# has a few modes set by allocation order; this stays on the common high one.
RSS_PERCENTILE = 90

END_TO_END_UNITS = {
    "wall_rel": "x",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics the replay reports, with units. Counts and the ratios
# derived from counts are deterministic and must repeat exactly.
SPAN_UNITS = {
    "analyzer.preflight_ms": "ms",
    "analyzer.token_ms": "ms",
    "analyzer.protocol_ms": "ms",
    "analyzer.structural_ms": "ms",
    "analyzer.flow_ms": "ms",
    "analyzer.sched_ms": "ms",
    "analyzer.race_ms": "ms",
    "analyzer.rate_ms": "ms",
    "suprenum.build_ms": "ms",
    "suprenum.run_ms": "ms",
    "suprenum.ns_per_event": "ns",
    "zm4.observe_ms": "ms",
    "pipeline.to_simple_ms": "ms",
    "pipeline.harvest_ms": "ms",
    "simple.metrics_ms": "ms",
    "harness.digest_ms": "ms",
}
COUNTER_UNITS = {
    "analyzer.flow_states": "count",
    "analyzer.flow_budget_hit": "count",
    "analyzer.findings": "count",
    "suprenum.events": "count",
    "suprenum.ctx_switches": "count",
    "suprenum.preemptions": "count",
    "suprenum.display_writes": "count",
    "suprenum.engine_epochs": "count",
    "suprenum.events_per_window": "ev/window",
    "zm4.samples_per_event": "samples/ev",
    "zm4.recorded": "count",
    "zm4.lost": "count",
    "zm4.fifo_high_water": "count",
    "zm4.detector_resyncs": "count",
}
TRACE_UNITS = {"trace.overhead_ms": "ms", "trace.span_coverage": "ratio"}


class BenchError(Exception):
    """A failure that leaves no result to report."""


def build():
    """Builds the benchmark binary and returns its path."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
    except OSError as e:
        raise BenchError(f"cannot run cargo: {e}") from e
    if done.returncode != 0:
        raise BenchError(f"build failed with exit code {done.returncode}")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or HERE / "target")
    binary = target / "release" / "suprenum-benchmark"
    if not binary.is_file():
        raise BenchError(f"build left no binary at {binary}")
    return binary


def spawn(binary, mode, workload, seed):
    """Runs one benchmark process; returns its JSON result and start time."""
    spawn_ns = time.time_ns()
    try:
        done = subprocess.run(
            [str(binary), mode, workload, str(seed)],
            capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{mode} {workload} exceeded {PROCESS_TIMEOUT_S} s") from e
    if done.returncode != 0:
        raise BenchError(
            f"{mode} {workload} exited {done.returncode}: {done.stderr.strip()[-2000:]}"
        )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} {workload} printed no result")
    result = json.loads(lines[-1])
    result["spawn_ns"] = spawn_ns
    return result


def reference_s():
    """Seconds a fixed pure-Python loop takes: the host's speed right now.

    On a shared host the same process runs up to 1.6 times as fast in
    spells of seconds to minutes. The loop slows and speeds with the
    benchmark, and it is the same code in every commit."""
    started = time.perf_counter()
    total, table = 0, {}
    for i in range(REFERENCE_ITERATIONS):
        total += i * i
        table[i & 4095] = total
    return time.perf_counter() - started


def between_references(once):
    """Wraps `once` so that each result carries `reference_s`, the mean of
    the reference loop timed just before and just after it."""
    before = [reference_s()]

    def timed():
        run = once()
        after = reference_s()
        run["reference_s"] = (before[0] + after) / 2
        before[0] = after
        return run

    return timed


def repeat(seconds, once):
    """Calls `once` until `seconds` are used (at least MIN_REPS times),
    never starting a repetition the median one says would overrun."""
    start = time.monotonic()
    reps, lengths = [], []
    while True:
        began = time.monotonic()
        reps.append(once())
        lengths.append(time.monotonic() - began)
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed + statistics.median(lengths) > seconds:
            return reps


def wall_s(run):
    """Seconds from starting the process to its last result being checked."""
    return (run["end_ns"] - run["spawn_ns"]) / 1e9


def setup_s(run):
    """Seconds from starting the process to its jobs being built, plus the
    machine set-up of every job."""
    return (run["built_ns"] - run["spawn_ns"]) / 1e9 + run["launch_s"]


def percentile(values, pct):
    """The nearest-rank `pct`-th percentile: a value that was measured."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end_metrics(runs):
    """The end-to-end metrics over the untraced processes of one run."""
    return {
        "wall_rel": statistics.median(wall_s(r) / r["reference_s"] for r in runs),
        "peak_rss_mb": percentile([r["peak_rss_mb"] for r in runs], RSS_PERCENTILE),
        "setup_s": statistics.median(setup_s(r) for r in runs),
    }


def job_failures(runs, reference):
    """Counts the failed jobs of every process: those its own check
    reported (messages start with the job's label) and those whose digest
    differs from the first untraced run's."""
    failed, notes = 0, []
    for run in runs:
        labels = {message.split(":", 1)[0] for message in run["failures"]}
        notes.extend(run["failures"])
        for label, digest in reference.items():
            if run["digests"].get(label) != digest:
                labels.add(label)
                notes.append(f"{run['mode']} {label}: digest {run['digests'].get(label)} != {digest}")
        failed += len(labels)
    return failed, notes


def measure(binary, workload, seed, seconds, traced):
    """Runs the workload and returns the result object."""
    if not traced:
        runs = repeat(seconds, between_references(lambda: spawn(binary, "run", workload, seed)))
        replays = []
    else:
        pairs = repeat(seconds, lambda: (
            spawn(binary, "run", workload, seed),
            spawn(binary, "trace", workload, seed),
        ))
        runs = [p[0] for p in pairs]
        replays = [p[1] for p in pairs]

    reference = runs[0]["digests"]
    failed, notes = job_failures(runs + replays, reference)
    attempted = sum(r["jobs"] for r in runs + replays)
    correct = failed == 0

    if len({r["events"] for r in runs}) != 1:
        correct = False
        notes.append(f"kernel events did not repeat: {[r['events'] for r in runs]}")

    if not traced:
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in end_to_end_metrics(runs).items()
        }
        walls = [wall_s(r) for r in runs]
        print(f"{len(runs)} repetitions: wall median {statistics.median(walls):.3f} s, "
              f"90th percentile {percentile(walls, 90):.3f} s; reference loop median "
              f"{statistics.median(r['reference_s'] for r in runs):.4f} s", file=sys.stderr)
    else:
        metrics = {}
        for name, unit in {**SPAN_UNITS, **COUNTER_UNITS}.items():
            values = [r["metrics"][name] for r in replays]
            if name in COUNTER_UNITS and len(set(values)) != 1:
                correct = False
                notes.append(f"counter {name} did not repeat: {values}")
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        untraced_s = statistics.median(wall_s(r) for r in runs)
        traced_s = statistics.median((r["end_ns"] - r["spawn_ns"]) / 1e9 for r in replays)
        coverage = min(r["min_coverage"] for r in replays)
        if coverage < MIN_SPAN_COVERAGE:
            correct = False
            notes.append(f"spans cover only {coverage:.3f} of a replayed job")
        for name, value in (("trace.overhead_ms", (traced_s - untraced_s) * 1e3),
                            ("trace.span_coverage", coverage)):
            metrics[name] = {"value": value, "unit": TRACE_UNITS[name]}

    for note in notes:
        print(f"check failed: {note}", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds positive")
    try:
        binary = build()
        result = measure(binary, args.workload, args.seed, args.seconds, args.trace == 1)
    except BenchError as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
