"""Benchmark runner for hvectors.

One run measures one workload for about ``--seconds`` seconds as a closed
loop with a single client: it starts fresh single-threaded Python
processes (``child.py``) one after another; each imports ``hvectors`` and
runs the workload's fixed list of CLI commands back to back.  Every report
is checked, and the last line of stdout is one JSON object with the
medians over those processes.

    python3 bench/run.py --workload codim5-modp --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced processes and reports the per-layer metrics; the spans
are written to ``.bench_out/``.  ``--workload all`` runs every workload in
both modes and prints one table.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = json.loads((BENCH_DIR / "workloads.json").read_text())

# Fewest processes a run makes, whatever --seconds says: the traced run
# needs two traced processes for the exact-count check and one untraced.
MIN_PROCESSES = 3
# Set-up-only processes (import, then exit) started after each measured one,
# so that setup_s is a median over several times more samples.
SETUP_ONLY_PROCESSES = 3
# A run must end within this many seconds, however slow the program is.
RUN_DEADLINE_S = 170.0
# child.py's calibration kernel time on an idle core of the reference host
# (Intel Xeon, 2-vCPU virtual machine).  Every time is reported as measured
# times REFERENCE_CALIBRATION_S / (kernel time measured alongside it in the
# same process): seconds at the reference host's speed.  On a shared host
# the speed of a core swings by up to 2x for tens of seconds; the scaling
# takes that out.
REFERENCE_CALIBRATION_S = 0.00085

# End-to-end metrics taken from the measured processes; setup_s also uses
# the set-up-only ones.
PROCESS_METRICS = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"))
# Layers made of several spans.  A layer reports its busy time (the summed
# self time of its spans) and each span its share of that, so that every
# time metric is nonzero on every workload; counts may be zero.
SAMPLING = ("exact.sample_scalars", "inverse_systems.codim5_generators",
            "inverse_systems.contraction_power",
            "inverse_systems.linear_combination")
RANK = ("exact.rank.qq", "exact.rank.word_prime", "exact.rank.big_prime")


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a wrong result)."""


def _child_env() -> dict:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(p for p in paths if p),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )


def _spawn(commands, trace_path, run_id, deadline) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(commands)]
    if trace_path:
        argv += [str(trace_path), run_id]
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, env=_child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError("a measured process ran past the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"measured process exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-4000:]}")
    sample = json.loads(proc.stdout.splitlines()[-1])
    # Both clocks are CLOCK_MONOTONIC, which is system-wide.
    sample["setup_s"] = sample.pop("setup_done") - started
    sample["traced"] = bool(trace_path)
    sample["raw_wall_s"] = sample["wall_s"]
    sample["setup_s"] *= REFERENCE_CALIBRATION_S / sample["setup_calibration_s"]
    scale = REFERENCE_CALIBRATION_S / sample["calibration_s"]
    sample["wall_s"] *= scale
    sample["cpu_s"] *= scale
    for layer in sample.get("layers", {}).values():
        layer["self_s"] *= scale
    return sample


def _collect(workload: str, seed: int, seconds: float,
             trace: bool) -> tuple[list, list]:
    """Measured processes and set-up times, until ``seconds`` would pass."""
    commands = [argv + ["--seed", str(seed)]
                for argv in WORKLOADS["workloads"][workload]["commands"]]
    trace_path = None
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl"
        trace_path.unlink(missing_ok=True)
    begin = time.monotonic()
    deadline = begin + RUN_DEADLINE_S
    samples, setups = [], []
    while True:
        traced = trace and len(samples) % 2 == 0
        run_id = f"{workload}:{seed}:{len(samples)}"
        samples.append(_spawn(commands, trace_path if traced else None,
                              run_id, deadline))
        setups.append(samples[-1]["setup_s"])
        for _ in range(0 if trace else SETUP_ONLY_PROCESSES):
            setups.append(_spawn([], None, run_id, deadline)["setup_s"])
        elapsed = time.monotonic() - begin
        if (len(samples) >= MIN_PROCESSES
                and elapsed * (len(samples) + 1) / len(samples) > seconds):
            return samples, setups


def _failed_jobs(samples) -> tuple[int, int]:
    """(attempted, failed); a job also fails when its report bytes differ
    from the first process of the run, or when it is missing or extra."""
    reference = [job["digest"] for job in samples[0]["jobs"]]
    attempted = failed = 0
    for sample in samples:
        jobs = sample["jobs"]
        attempted += max(len(jobs), len(reference))
        failed += abs(len(jobs) - len(reference))
        for job, digest in zip(jobs, reference):
            reason = job["failure"]
            if reason is None and job["digest"] != digest:
                reason = "report bytes differ from the first process"
            if reason is not None:
                failed += 1
                print(f"job failed: {job.get('job', '?')}: {reason}",
                      file=sys.stderr)
    return attempted, failed


def _counts(sample) -> dict:
    """Everything a traced process counted: all but the times."""
    counts = {name: {key: value for key, value in layer.items()
                     if key != "self_s"}
              for name, layer in sample["layers"].items()}
    counts["report_bytes"] = sample["report_bytes"]
    return counts


def _end_to_end(samples, setups) -> dict:
    metrics = {"setup_s": (median(setups), "s", len(setups))}
    for name, unit in PROCESS_METRICS:
        metrics[name] = (median([s[name] for s in samples]), unit,
                         len(samples))
    return metrics


def _per_layer(samples) -> dict:
    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not s["traced"]]
    n = len(traced)
    first = traced[0]["layers"]

    def busy(*names):
        """Median over traced processes of the spans' summed self time."""
        return median([sum(s["layers"].get(name, {}).get("self_s", 0.0)
                            for name in names) for s in traced])

    def count(name, key):
        return first.get(name, {}).get(key, 0)

    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit, n)

    put("exact.sample_scalars.calls", count(SAMPLING[0], "calls"), "count")
    put("exact.sample_scalars.scalars", count(SAMPLING[0], "scalars"), "count")
    put("exact.sample_scalars.busy_s", busy(SAMPLING[0]), "s")
    put("inverse_systems.sampling.busy_s", busy(*SAMPLING), "s")
    for name in SAMPLING[1:]:
        put(f"{name}.calls", count(name, "calls"), "count")
        put(f"{name}.busy_share", busy(name) / busy(*SAMPLING), "ratio")
    matrix = "inverse_systems.contraction_matrix"
    put(f"{matrix}.busy_s", busy(matrix), "s")
    for key in ("calls", "rows", "cells", "max_cells"):
        put(f"{matrix}.{key}", count(matrix, key), "count")
    put("exact.rank.busy_s", busy(*RANK), "s")
    for name in RANK:
        put(f"{name}.calls", count(name, "calls"), "count")
        put(f"{name}.cells", count(name, "cells"), "count")
        put(f"{name}.busy_share", busy(name) / busy(*RANK), "ratio")
    rows = sum(count(name, "rows") for name in RANK)
    put("exact.rank.useful_row_ratio",
        sum(count(name, "rank") for name in RANK) / rows, "ratio")
    put("inverse_systems.verify_construction.self_s",
        busy("inverse_systems.verify_construction"), "s")
    put("cli.main.self_s", busy("cli.main"), "s")
    put("cli.report_bytes", traced[0]["report_bytes"], "bytes")
    metrics["trace.overhead_s"] = (
        median([s["wall_s"] for s in traced])
        - median([s["wall_s"] for s in plain]), "s", len(samples))
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: the result object plus the samples behind it."""
    samples, setups = _collect(workload, seed, seconds, trace)
    for sample in samples:
        if not Path(sample["module"]).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"measured {sample['module']}, not this checkout")
    attempted, failed = _failed_jobs(samples)
    correct = failed == 0
    if trace:
        traced = [s for s in samples if s["traced"]]
        if any(_counts(s) != _counts(traced[0]) for s in traced[1:]):
            print("exact counts differ between traced processes with one seed",
                  file=sys.stderr)
            correct = False
        metrics = _per_layer(samples)
    else:
        metrics = _end_to_end(samples, setups)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "samples": samples}


def _print_table(workload: str, result: dict, trace: bool) -> None:
    mode = "traced, per layer" if trace else "end to end"
    samples = result["samples"]
    share = result["attempted"] and result["failed"] / result["attempted"]
    print(f"== {workload} ({mode}): jobs_failed_share "
          f"{result['failed']}/{result['attempted']} = {share:g}; "
          f"unscaled wall_s median "
          f"{median([s['raw_wall_s'] for s in samples]):.4g} s, "
          f"calibration median "
          f"{median([s['calibration_s'] for s in samples]):.4g} s")
    wall = None
    if trace:
        wall = median([s["wall_s"] for s in samples if s["traced"]])
    for name, (value, unit, count) in result["metrics"].items():
        text = f"  {name:<48} {value:>14.6g} {unit:<6} n={count}"
        if wall and unit == "s" and name != "trace.overhead_s":
            text += f"  share {value / wall:6.1%}"
        print(text)


def _result_line(result: dict) -> dict:
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in result["metrics"].items()},
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=WORKLOADS["default_seed"])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "hvectors").is_dir():
        print("run.py: no src/hvectors in this checkout; nothing to measure",
              file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace))
            _print_table(args.workload, result, bool(args.trace))
            print(json.dumps(_result_line(result)))
            return 0
        summary = {}
        for workload in WORKLOADS["workloads"]:
            for trace in (False, True):
                result = measure(workload, args.seed, args.seconds, trace)
                _print_table(workload, result, trace)
                summary[f"{workload}/trace{int(trace)}"] = _result_line(result)
        print(json.dumps(summary))
        return 0 if all(r["correct"] for r in summary.values()) else 1
    except BenchError as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
