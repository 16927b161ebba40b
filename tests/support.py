"""Helpers that more than one test module needs, each written once.  Pytest's default prepend
import mode puts this directory, which has no ``__init__.py``, on ``sys.path``."""

import contextlib
import io
import tracemalloc
from typing import NamedTuple

from hypothesis import strategies as st

from repbal import cli
from repbal.intset import BoundedSet
from repbal.solver import STATUS_COMPLETED, match_family


def call_main(argv, main=cli.main):
    """(exit code, stdout, stderr, usage) of one in-process run of ``main``; usage says
    argparse exited through SystemExit, as its usage errors do through ``_Parser.error``."""
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code, usage = main(list(argv)), False
        except SystemExit as exc:
            code, usage = exc.code, True
    return code, out.getvalue(), err.getvalue(), usage


def peak_of(fn, *args):
    """(fn(*args), the peak of the memory tracemalloc traced while it ran)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def never(what):
    """A stub for code the test must not reach: any call fails the test, saying what ran."""

    def refuse(*args, **kwargs):
        raise AssertionError(what)

    return refuse


def random_set(rng, bound, density, low=0):
    """The set of each x in [low, bound) for which ``rng.random() < density``: one draw per x,
    in ascending order, so a seed and these arguments name one set."""
    return BoundedSet.from_elements([x for x in range(low, bound) if rng.random() < density], bound)


def small_sets(max_bound):
    """Bounded sets of every window from 1 to max_bound, with any mask."""
    return st.integers(1, max_bound).flatmap(
        lambda bound: st.builds(BoundedSet, bound=st.just(bound), mask=st.integers(0, (1 << bound) - 1))
    )


class Row(NamedTuple):
    """One grid cell as classify writes it."""

    r: int
    m: int
    status: str
    family: str | None
    l: int | None
    contradiction_at: int | None
    forced_value: int | None


def cell_rows(runs):
    """The runs expanded to one row per cell; a completed run is one cell, matched on its spec."""
    rows = []
    for r, m_lo, m_hi, out in runs:
        match = match_family(out) if out.status == STATUS_COMPLETED else None
        family, l = match or (None, None)
        for m in range(m_lo, m_hi + 1):
            rows.append(Row(r, m, out.status, family, l, out.contradiction_at, out.forced_value))
    return rows
