"""Per-layer spans recorded from outside the program, and the size ladder.

While a ``Tracer`` is installed, every module of the ``repbal`` package sees
wrapped versions of the public names it looks up (``repbal.cli.r2_profile``,
``repbal.verify.forced_extend``, ``repbal.solver.progression_set``, ...) and
of three ``BoundedSet`` methods.  A wrapper records a span -- name, start,
end, and the span it was called from -- plus the counts its layer's metrics
need, taken from the arguments and result.  Nothing inside ``repbal`` changes.

Spans stay in memory.  A span belongs to the job whose [start, end] window
holds it, so calls the oracles make off the clock are ignored.  A layer's self
time is its spans' durations minus the time covered by their child spans; the
job's own remainder is ``cli`` self time.  Durations exclude the calibration
loop's ticks and are rate-normalised with the job's factor (see ``harness``).
"""

from __future__ import annotations

import math
import random
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from harness import NOMINAL_REF_S, Job, JobRun, Ledger, RateClock, run_job
from oracles import CHECK_IDS

# (module, name, span) for every function wrapped wherever repbal looks it up.
FUNCTION_SPANS = (
    ("repbal.intset", "progression_set", "intset.progression_set"),
    ("repbal.builders", "build_family", "builders.build"),
    ("repbal.builders", "build_evil_odious", "builders.build"),
    ("repbal.builders", "build_ef", "builders.build"),
    ("repbal.builders", "build_xy", "builders.build"),
    ("repbal.builders", "build_parity_sets", "builders.build"),
    ("repbal.repfn", "r1_profile", "repfn.profile"),
    ("repbal.repfn", "r2_profile", "repfn.profile"),
    ("repbal.repfn", "r3_profile", "repfn.profile"),
    ("repbal.repfn", "r2_profile_naive", "repfn.oracle"),
    ("repbal.solver", "forced_extend", "solver.extend"),
    ("repbal.solver", "match_family", "solver.match"),
    ("repbal.solver", "classify_grid", "solver.classify"),
    ("repbal.verify", "run_suite", "verify.run_suite"),
)

COUNTS = (
    "repfn.profile_calls",
    "repfn.sums",
    "repfn.word_ops",
    "solver.steps",
    "solver.completed",
    "solver.contradicted",
    "solver.frontier",
    "solver.bound",
    "intset.elements_iterated",
    "intset.chi_calls",
    "builders.bits_built",
    "cli.stdout_bytes",
) + tuple(f"verify.{check}_instances" for check in CHECK_IDS)

LADDER_EXPONENTS = range(12, 17)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)
    check: str | None = None  # the check a verify.run_suite span ran alone


def _sets_in(result: Any) -> list[Any]:
    items = result if isinstance(result, tuple) else vars(result).values()
    return [s for s in items if hasattr(s, "bound") and hasattr(s, "mask")]


def _span_counts(name: str, args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    if name == "repfn.profile":
        width = kwargs.get("n_max", args[1] if len(args) > 1 else None) + 1
        return {"repfn.profile_calls": 1, "repfn.sums": width, "repfn.word_ops": width * width // 64}
    if name == "solver.extend":
        completed = result.status == "completed"
        return {
            "solver.steps": result.a.bound - result.anchor - 1,
            "solver.completed": int(completed),
            "solver.contradicted": int(not completed),
            "solver.frontier": result.a.bound,
            "solver.bound": kwargs.get("bound", args[1] if len(args) > 1 else None),
        }
    if name == "builders.build":
        return {"builders.bits_built": sum(s.bound for s in _sets_in(result))}
    if name == "intset.elements":
        return {"intset.elements_iterated": len(result)}
    if name == "verify.run_suite":
        return {f"verify.{r.check_id}_instances": r.instances for r in result.results}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.chi_calls = 0
        self._stack: list[int] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = Span(name, 0.0, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.counts = _span_counts(name, args, kwargs, result)
            if name == "verify.run_suite":
                span.check = kwargs.get("only")
            return result

        return traced

    def _iter_wrapper(self, iterate: Callable) -> Callable:
        """``BoundedSet.__iter__`` is a generator: the span covers producing
        every element, which is what callers of ``elements()`` and loops pay."""
        timed = self._wrap("intset.elements", lambda s: list(iterate(s)))

        def traced_iter(s: Any) -> Iterator[int]:
            return iter(timed(s))

        return traced_iter

    def _chi_wrapper(self, chi: Callable) -> Callable:
        def counted_chi(s: Any, t: int) -> int:
            self.chi_calls += 1
            return chi(s, t)

        return counted_chi

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every target in every loaded repbal module; restore on exit."""
        modules = [m for n, m in sys.modules.items() if n == "repbal" or n.startswith("repbal.")]
        undo: list[tuple[Any, str, Any]] = []

        def replace_everywhere(original: Any, replacement: Any) -> None:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, value))
                        setattr(module, attr, replacement)

        for module_name, attr, span in FUNCTION_SPANS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is not None:
                replace_everywhere(original, self._wrap(span, original))
        bounded_set = sys.modules["repbal.intset"].BoundedSet
        methods = {
            "from_text": classmethod(self._wrap("intset.from_text", bounded_set.from_text.__func__)),
            "__iter__": self._iter_wrapper(bounded_set.__iter__),
            "chi": self._chi_wrapper(bounded_set.chi),
        }
        for attr, replacement in methods.items():
            undo.append((bounded_set, attr, vars(bounded_set)[attr]))
            setattr(bounded_set, attr, replacement)
        try:
            yield
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)


def run_traced_pass(
    main: Callable, jobs: list[Job], ledger: Ledger, tracer: Tracer
) -> list[tuple[JobRun, int]]:
    """One pass under the tracer; each run is paired with its chi() call count."""
    runs = []
    with tracer.installed():
        for job in jobs:
            before = tracer.chi_calls
            run = run_job(main, job, ledger)
            runs.append((run, tracer.chi_calls - before))
    return runs


def layer_metrics(runs: list[tuple[JobRun, int]], spans: list[Span], clock: RateClock) -> dict[str, float]:
    """Self times (normalised seconds) and counts of one traced pass."""
    times: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
    busy = [clock.busy(span.start, span.end) for span in spans]
    child_time: dict[int, float] = defaultdict(float)
    for index, span in enumerate(spans):
        if span.parent is not None:
            child_time[span.parent] += busy[index]
    ordered = sorted(range(len(spans)), key=lambda i: spans[i].start)
    cursor = 0
    for run, chi_calls in runs:
        scale = NOMINAL_REF_S / clock.ref_seconds(run.t0, run.t1)
        top_level = 0.0
        while cursor < len(ordered) and spans[ordered[cursor]].start < run.t0:
            cursor += 1  # spans the oracles caused between jobs
        while cursor < len(ordered) and spans[ordered[cursor]].end <= run.t1:
            index = ordered[cursor]
            span = spans[index]
            duration = busy[index]
            times[span.name] += (duration - child_time[index]) * scale
            if span.check is not None:
                times[f"verify.{span.check}"] += duration * scale
            if span.parent is None:
                top_level += duration
            for key, value in span.counts.items():
                if key == "builders.bits_built" and span.parent is not None:
                    if spans[span.parent].name == "builders.build":
                        continue  # counted by the outermost builder call
                counts[key] += value
            cursor += 1
        times["cli.self"] += (clock.busy(run.t0, run.t1) - top_level) * scale
        counts["intset.chi_calls"] += chi_calls
        counts["cli.stdout_bytes"] += run.stdout_bytes
    metrics: dict[str, float] = {f"{key}_s": value for key, value in times.items()}
    metrics.update(counts)
    metrics["pass_s"] = sum(clock.normalise(run.t0, run.t1) for run, _ in runs)
    return metrics


def loglog_slope(sizes: list[int], seconds: list[float]) -> float:
    """Least-squares slope of log(seconds) against log(size)."""
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in seconds]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def ladder(seed: int) -> list[tuple[str, int, list[tuple[float, float]]]]:
    """Scaling of the two O(N^2/w) kernels over N = 2^12 .. 2^16: one random
    set (density 1/2) per size through ``r2_profile``, and the completed cell
    (r, m) = (2, 3) through ``forced_extend``.  2^18 .. 2^20 would take about
    5 s and 80 s per profile with today's kernel, so they wait for a faster one.

    Returns (slope metric, N, [(start, end) of each repetition]) rungs."""
    from repbal.intset import BoundedSet, ProgressionSpec
    from repbal.repfn import r2_profile
    from repbal.solver import forced_extend

    rng = random.Random(f"ladder:{seed}")

    def timed(call: Callable[[], Any], reps: int) -> list[tuple[float, float]]:
        intervals = []
        for _ in range(reps):
            t0 = time.perf_counter()
            call()
            intervals.append((t0, time.perf_counter()))
        return intervals

    rungs = []
    for exponent in LADDER_EXPONENTS:
        n = 1 << exponent
        s = BoundedSet(n, rng.getrandbits(n))
        reps = 3 if exponent <= 14 else 1
        rungs.append(("repfn.slope", n, timed(lambda: r2_profile(s, n - 1), reps)))
        rungs.append(("solver.slope", n, timed(lambda: forced_extend(ProgressionSpec(2, 3), n), reps)))
    return rungs


def slopes(rungs: list[tuple[str, int, list[tuple[float, float]]]], clock: RateClock) -> dict[str, float]:
    """Log-log slope per kernel over the ladder's median normalised times."""
    points: dict[str, tuple[list[int], list[float]]] = defaultdict(lambda: ([], []))
    for name, n, intervals in rungs:
        sizes, seconds = points[name]
        sizes.append(n)
        seconds.append(statistics.median(clock.normalise(t0, t1) for t0, t1 in intervals))
    return {name: loglog_slope(sizes, seconds) for name, (sizes, seconds) in points.items()}
