"""Closed-loop job runner and host-rate calibration.

A job is one ``repbal`` command line, run in-process through
``repbal.cli.main(argv)`` with stdout and stderr captured.  Jobs run one at a
time; the next starts only after the previous one has returned and its output
has been checked.  A job fails on a nonzero exit, an uncaught exception, or an
oracle mismatch, and a failure never stops the run.

The host this benchmark was written on changes speed by up to 2x within
seconds (other tenants share its cores; CPU time tracks wall time, so it is
the instruction rate that moves, not scheduling).  Every reported time is
therefore rate-normalised.  While a ``RateClock`` ticks, an interval timer runs
a short calibration loop, which shares no code with ``repbal``, every
``TICK_S`` -- between jobs and inside them, since a signal handler runs
between any two bytecodes.  A span of work is charged its wall time minus the
calibration time inside it, scaled by ``NOMINAL_REF_S`` over the loop's mean
time during the span (around it, for a span too short to hold enough ticks):
it reads "seconds on a host where the calibration loop takes ``NOMINAL_REF_S``".
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import signal
import statistics
import time
import traceback
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Iterator

NOMINAL_REF_S = 0.001
TICK_S = 0.05  # one calibration per tick: about 2% of the time
MIN_TICKS = 5  # a span holding this many ticks is calibrated by them alone
REF_WINDOW_S = 0.5  # a shorter span by the ticks this close to it


class OracleError(Exception):
    """A job's output disagrees with the independent oracle."""


_REF_BITS = 1 << 14
_REF_MASK = int("001" * (_REF_BITS // 3), 2)
_REF_REV = _REF_MASK ^ ((1 << _REF_BITS) - 1)


def reference_loop() -> int:
    """Fixed work in the two shapes repbal spends time on: word-parallel
    big-integer shift/AND/popcount, and interpreted loops over dicts and
    strings.  Returns a checksum so nothing can be skipped."""
    acc = 0
    for k in range(380):
        acc += (_REF_MASK & (_REF_REV >> k)).bit_count()
    table: dict[int, int] = {}
    for i in range(1900):
        table[i & 255] = table.get(i & 255, 0) + (i * 7) % 13
    acc += len(",".join(str(i) for i in range(1300)))
    return acc + sum(table.values())


class RateClock:
    """Samples the calibration loop from a timer and rescales spans of work."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, end), in order
        self._starts: list[float] = []
        self._spent: list[float] = [0.0]  # calibration time in samples[:i]

    def _tick(self, signum: int, frame: object) -> None:
        start = time.perf_counter()
        reference_loop()
        self.samples.append((start, time.perf_counter()))

    @contextlib.contextmanager
    def ticking(self) -> Iterator[None]:
        """Calibrate every ``TICK_S`` until the block ends (main thread only)."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _between(self, t0: float, t1: float) -> tuple[int, int]:
        """Index range of the samples that lie within [t0, t1].

        A sample never straddles a timestamp taken outside the handler, so
        every sample is wholly inside or wholly outside such an interval.
        """
        if len(self._starts) != len(self.samples):
            samples = list(self.samples)  # one C call: no tick can land inside it
            self._starts = [start for start, _ in samples]
            self._spent = [0.0, *accumulate(end - start for start, end in samples)]
        return bisect.bisect_left(self._starts, t0), bisect.bisect_left(self._starts, t1)

    def busy(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1] minus the calibration time inside it."""
        lo, hi = self._between(t0, t1)
        return t1 - t0 - (self._spent[hi] - self._spent[lo])

    def ref_seconds(self, t0: float, t1: float) -> float:
        """Mean loop time over the ticks inside [t0, t1], or, if there are
        fewer than ``MIN_TICKS``, over those within ``REF_WINDOW_S`` of it."""
        lo, hi = self._between(t0, t1)
        if hi - lo < MIN_TICKS:
            lo, hi = self._between(t0 - REF_WINDOW_S, t1 + REF_WINDOW_S)
        if hi > lo:
            return (self._spent[hi] - self._spent[lo]) / (hi - lo)
        start, end = self.samples[min(lo, len(self.samples) - 1)]  # the nearest one
        return end - start

    def normalise(self, t0: float, t1: float) -> float:
        """Busy time of [t0, t1] rescaled to the nominal calibration rate."""
        return self.busy(t0, t1) * NOMINAL_REF_S / self.ref_seconds(t0, t1)

    def median_ref_s(self) -> float:
        return statistics.median(end - start for start, end in self.samples)


@dataclass(frozen=True)
class Job:
    """One command line, its size tier, and the oracle for its stdout."""

    argv: tuple[str, ...]
    tier: str  # "small" | "large"
    check: Callable[[str], None]  # raises OracleError on a wrong output


@dataclass
class JobRun:
    job: Job
    t0: float
    t1: float
    stdout_bytes: int
    error: str | None  # why the job failed, or None


@dataclass
class Ledger:
    """Every job attempted in a run, and each distinct output already checked."""

    runs: list[JobRun] = field(default_factory=list)
    verified: dict[tuple[tuple[str, ...], str], str | None] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.runs)

    @property
    def failures(self) -> list[JobRun]:
        return [run for run in self.runs if run.error is not None]


def call_cli(main: Callable[[list[str]], int], argv: tuple[str, ...]) -> tuple[int | None, str, str]:
    """Run main(argv) with captured streams; the exit code is None when main raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse exits on usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the harness must survive a crashing job
            err.write(traceback.format_exc(limit=3))
            code = None
    return code, out.getvalue(), err.getvalue()


def run_job(main: Callable[[list[str]], int], job: Job, ledger: Ledger) -> JobRun:
    """Run one job on the clock, then check its output off the clock.

    Outputs are deterministic, so each distinct (argv, output) pair is checked
    by the oracle once and later repeats are matched by digest.
    """
    t0 = time.perf_counter()
    code, out, err = call_cli(main, job.argv)
    t1 = time.perf_counter()
    if code is None:
        error = "uncaught exception: " + err.strip().splitlines()[-1]
    elif code != 0:
        error = f"exit code {code}: {err.strip()[:200]}"
    else:
        key = (job.argv, hashlib.sha256(out.encode()).hexdigest())
        if key not in ledger.verified:
            try:
                job.check(out)
                ledger.verified[key] = None
            except OracleError as exc:
                ledger.verified[key] = f"oracle mismatch: {exc}"
            except (ValueError, IndexError, KeyError) as exc:  # output would not parse
                ledger.verified[key] = f"malformed output: {exc!r}"
        error = ledger.verified[key]
    run = JobRun(job, t0, t1, len(out.encode()), error)
    ledger.runs.append(run)
    return run


def run_pass(main: Callable[[list[str]], int], jobs: list[Job], ledger: Ledger) -> list[JobRun]:
    """Run the whole job list once, in order."""
    return [run_job(main, job, ledger) for job in jobs]
