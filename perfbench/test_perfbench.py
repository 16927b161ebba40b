"""Tests of the benchmark itself: failure accounting, oracles on two seeds,
exact repeat of count metrics, and refusal to run without the sources."""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
from harness import Job, Ledger, RateClock, run_job  # noqa: E402
from tracing import Tracer, layer_metrics, loglog_slope, run_traced_pass  # noqa: E402
from workloads import make_jobs  # noqa: E402

from repbal import cli, solver  # noqa: E402


def corrupting(main):
    """A main whose stdout has its first "completed" turned into "contradiction"."""

    def corrupted_main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        print(buf.getvalue().replace("completed", "contradiction", 1), end="")
        return code

    return corrupted_main


def raising_main(argv):
    raise RuntimeError("boom")


def test_failures_are_counted_and_the_run_goes_on():
    grid = Job(("classify", "--m-max", "5", "--bound", "64"), "small", oracles.check_grid(5))
    # Known defect: this grid reaches r + 2 > bound and dies with a traceback
    # today; once fixed it exits 1.  Either way the job fails.
    crash = Job(("classify", "--m-max", "9", "--bound", "4"), "small", oracles.check_grid(9))
    ledger = Ledger()
    for main, job in ((cli.main, grid), (corrupting(cli.main), grid), (cli.main, crash),
                      (raising_main, grid), (cli.main, grid)):
        run_job(main, job, ledger)
    errors = [run.error for run in ledger.runs]
    assert ledger.attempted == 5 and len(ledger.failures) == 3
    assert errors[0] is None and errors[4] is None
    assert errors[1].startswith("oracle mismatch")
    assert errors[2].startswith(("uncaught exception", "exit code 1"))
    assert errors[3] == "uncaught exception: RuntimeError: boom"


def test_oracles_pass_on_two_seeds(tmp_path):
    fixtures = {}
    for seed in (1, 2):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        jobs = make_jobs("profile", seed, workdir)
        again = make_jobs("profile", seed, tmp_path)
        assert [job.argv[-1].split("/")[-1] for job in jobs] == [
            job.argv[-1].split("/")[-1] for job in again
        ]
        fixtures[seed] = {p.name: p.read_text() for p in workdir.iterdir()}
        assert fixtures[seed] == {p.name: p.read_text() for p in tmp_path.glob("*.txt")}
        small = [job for job in jobs if job.argv[-1] == "4096" or "set-12-" in job.argv[-1]]
        for name in ("sweep", "extend", "suite"):
            first_small = next(job for job in make_jobs(name, seed, tmp_path) if job.tier == "small")
            small.append(first_small)
        ledger = Ledger()
        for job in small:
            run_job(cli.main, job, ledger)
        assert ledger.attempted == 19 + 3 and not ledger.failures, ledger.failures
    assert fixtures[1].keys() == fixtures[2].keys() and fixtures[1] != fixtures[2]


def _small_jobs() -> list[Job]:
    return [
        Job(("solve", "--r", "2", "--m", "3", "--bound", "512", "--emit", "json"), "small",
            oracles.check_solution("s1t1", 1, 512)),
        Job(("classify", "--m-max", "9", "--bound", "256"), "small", oracles.check_grid(9)),
        Job(("repfn", "--family", "s2t2:2", "--bound", "512"), "small",
            oracles.check_family_profile("s2t2:2", 512, [0, 100, 511])),
        Job(("verify", "--lemma", "family-complement", "--bound-profile", "quick"), "small",
            oracles.check_suite("quick", "family-complement")),
    ]


def test_count_metrics_repeat_exactly_and_self_times_partition_the_pass():
    passes = []
    for _ in range(2):
        ledger, clock, tracer = Ledger(), RateClock(), Tracer()
        with clock.ticking():
            runs = run_traced_pass(cli.main, _small_jobs(), ledger, tracer)
            time.sleep(0.2)  # the pass may end before the first tick
        assert not ledger.failures and clock.samples
        passes.append(layer_metrics(runs, tracer.spans, clock))
    counts = [{k: v for k, v in m.items() if not k.endswith("_s")} for m in passes]
    assert counts[0] == counts[1]
    first = passes[0]
    assert first["solver.completed"] >= 2 and first["solver.contradicted"] > 0
    assert first["intset.chi_calls"] == 12 * 2048 * 3
    assert first["verify.family-complement_instances"] == 12
    assert first["repfn.profile_calls"] == 2 and first["repfn.sums"] == 1024
    check_times = {f"verify.{check}_s" for check in oracles.CHECK_IDS}  # children included
    self_times = sum(v for k, v in first.items() if k.endswith("_s") and "." in k and k not in check_times)
    assert math.isclose(self_times, first["pass_s"], rel_tol=1e-6)
    # The tracer put every original back.
    assert cli.forced_extend is solver.forced_extend
    assert cli.forced_extend.__module__ == "repbal.solver"


def test_loglog_slope_recovers_the_exponent():
    sizes = [1 << e for e in range(12, 17)]
    assert math.isclose(loglog_slope(sizes, [3e-9 * n**2 for n in sizes]), 2.0)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
