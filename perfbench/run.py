"""Benchmark of the ``repbal`` command line: one workload per process.

    python3 perfbench/run.py --workload profile --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run sets up ``SETUPS`` times (fresh import, seeded inputs,
one warm-up job), then runs passes over the workload's fixed job list, one job
at a time, for about ``--seconds``.  Every output is checked by an
independent oracle off the clock.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics, including ``trace.overhead_frac`` and the ladder slopes.
All times are rate-normalised (see ``harness``); the lines before the JSON
also give the raw wall times.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

from harness import Job, JobRun, Ledger, RateClock, call_cli, run_pass
from oracles import CHECK_IDS
from tracing import Tracer, ladder, layer_metrics, run_traced_pass, slopes
from workloads import WORKLOADS, make_jobs

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "small_job_ms": "ms",
    "large_job_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "repfn.profile_s": "s",
    "repfn.profile_calls": "count",
    "repfn.sums": "count",
    "repfn.word_ops": "count",
    "repfn.ns_per_sum": "ns",
    "repfn.slope": "exponent",
    "repfn.oracle_s": "s",
    "solver.extend_s": "s",
    "solver.steps": "count",
    "solver.ns_per_step": "ns",
    "solver.slope": "exponent",
    "solver.completed": "count",
    "solver.contradicted": "count",
    "solver.frontier_ratio": "ratio",
    "solver.match_s": "s",
    "intset.progression_set_s": "s",
    "intset.from_text_s": "s",
    "intset.elements_s": "s",
    "intset.elements_iterated": "count",
    "intset.chi_calls": "count",
    "builders.build_s": "s",
    "builders.bits_built": "count",
    "cli.self_s": "s",
    "cli.stdout_bytes": "B",
    **{f"verify.{check}_s": "s" for check in CHECK_IDS},
    **{f"verify.{check}_instances": "count" for check in CHECK_IDS},
    "trace.overhead_frac": "ratio",
    "host.ref_ms": "ms",
}


def set_up(
    workload: str, seed: int, workdir: Path, per_check: bool
) -> tuple[tuple[float, float], Callable[[list[str]], int], list[Job]]:
    """Fresh import of the package, seeded inputs, and one warm-up job.

    Returns the set-up's (start, end), ``repbal.cli.main`` and the job list.
    """
    t0 = time.perf_counter()
    for name in [n for n in sys.modules if n == "repbal" or n.startswith("repbal.")]:
        del sys.modules[name]
    main = importlib.import_module("repbal.cli").main
    jobs = make_jobs(workload, seed, workdir, per_check)
    warm_up = min((job for job in jobs if job.tier == "small"), key=lambda job: job.argv)
    call_cli(main, warm_up.argv)
    return (t0, time.perf_counter()), main, jobs


def measure(seconds: float, run_once: Callable[[], None]) -> None:
    """Repeat run_once while another round is expected to end within
    ``seconds`` of the start; at least once."""
    start = time.perf_counter()
    rounds = 0
    while True:
        run_once()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return


def end_to_end(
    setups: list[tuple[float, float]], passes: list[list[JobRun]], clock: RateClock
) -> dict[str, float]:
    def tier_ms(tier: str) -> float:
        """Geometric mean over the tier's distinct jobs of each one's median
        time.  A tier mixes sizes, and a median over all its jobs would hop
        between the size clusters from run to run."""
        by_argv: dict[tuple[str, ...], list[float]] = {}
        for run in (run for runs in passes for run in runs if run.job.tier == tier):
            by_argv.setdefault(run.job.argv, []).append(clock.normalise(run.t0, run.t1))
        return 1000 * statistics.geometric_mean(statistics.median(t) for t in by_argv.values())

    return {
        "setup_s": statistics.median(clock.normalise(t0, t1) for t0, t1 in setups),
        "wall_s": statistics.median(sum(clock.normalise(r.t0, r.t1) for r in runs) for runs in passes),
        "small_job_ms": tier_ms("small"),
        "large_job_ms": tier_ms("large"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(
    untraced: list[list[JobRun]], traced: list[dict[str, float]], slopes: dict[str, float], clock: RateClock
) -> dict[str, float]:
    """Medians over the traced passes for times, the first pass for counts
    (every pass runs the same jobs, so counts repeat exactly)."""
    first = traced[0]
    metrics: dict[str, float] = {}
    for name in PER_LAYER:
        if name in first:
            if name.endswith("_s"):
                metrics[name] = statistics.median(m.get(name, 0.0) for m in traced)
            else:
                metrics[name] = first[name]
        else:
            metrics[name] = 0.0 if name.endswith("_s") else 0
    sums, steps = first["repfn.sums"], first["solver.steps"]
    metrics["repfn.ns_per_sum"] = 1e9 * metrics["repfn.profile_s"] / sums if sums else 0.0
    metrics["solver.ns_per_step"] = 1e9 * metrics["solver.extend_s"] / steps if steps else 0.0
    bound = first["solver.bound"]
    metrics["solver.frontier_ratio"] = first["solver.frontier"] / bound if bound else 0.0
    metrics.update(slopes)
    untraced_s = statistics.median(sum(clock.normalise(r.t0, r.t1) for r in runs) for runs in untraced)
    metrics["trace.overhead_frac"] = statistics.median(m["pass_s"] for m in traced) / untraced_s - 1
    metrics["host.ref_ms"] = 1000 * clock.median_ref_s()
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    clock = RateClock()
    ledger = Ledger()
    untraced: list[list[JobRun]] = []
    traced: list[tuple[list, Tracer]] = []
    with clock.ticking():
        setups = [set_up(workload, seed, workdir, trace) for _ in range(SETUPS)]
        _, main, jobs = setups[-1]

        def untraced_pass() -> None:
            untraced.append(run_pass(main, jobs, ledger))

        def traced_pair() -> None:
            untraced_pass()
            tracer = Tracer()
            traced.append((run_traced_pass(main, jobs, ledger, tracer), tracer))

        measure(seconds, traced_pair if trace else untraced_pass)
        rungs = ladder(seed) if trace else []
    if trace:
        layers = [layer_metrics(runs, tracer.spans, clock) for runs, tracer in traced]
        metrics = per_layer(untraced, layers, slopes(rungs, clock), clock)
        units = PER_LAYER
    else:
        metrics = end_to_end([interval for interval, _, _ in setups], untraced, clock)
        units = END_TO_END

    failures = ledger.failures
    raw_wall = statistics.median(sum(r.t1 - r.t0 for r in runs) for runs in untraced)
    print(f"workload {workload}: {len(untraced)} untraced and {len(traced)} traced passes of {len(jobs)} jobs")
    print(f"raw wall per pass {raw_wall:.4f} s; calibration loop median {1000 * clock.median_ref_s():.4f} ms")
    print(f"failed_frac {len(failures) / ledger.attempted:.6f} ({len(failures)} of {ledger.attempted} jobs)")
    for run in failures[:5]:
        print(f"FAILED {' '.join(run.job.argv)}: {run.error}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    return {
        "correct": not failures,
        "attempted": ledger.attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the repbal command line.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "repbal" / "cli.py").is_file():
        print(f"perfbench: no repbal sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
