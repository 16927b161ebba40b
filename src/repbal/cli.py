"""Command-line front door: build sets, emit count profiles, solve and
classify excluded progressions, and run the verification suite.

Exit codes: 0 on success, 1 on usage or domain errors, 2 when the
verification suite found a counterexample.  Output is byte-deterministic
for a given argument vector and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import operator
import sys
from pathlib import Path

from .builders import (
    FAMILIES,
    build_ef,
    build_evil_odious,
    build_family,
    build_xy,
)
from .intset import MAX_BOUND, BoundedSet, ProgressionSpec, check_bound
from .repfn import r1_profile, r2_profile, strict_counts
from .solver import (
    GRID_R_MAX_FACTOR,
    STATUS_COMPLETED,
    STATUS_CONTRADICTION,
    classify_grid,
    forced_extend,
    grid_cells,
    match_family,
)
from .verify import CHECK_IDS, DEFAULT_SEED, PROFILES, run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COUNTEREXAMPLE = 2

# Subcommand defaults; all randomness is seeded, never timed.
DEFAULT_BOUND = 4096
DEFAULT_M_MAX = 33
DEFAULT_GRID_BOUND = 2048

GRID_HEADER = "r,m,status,family,l,contradiction_at,forced_value\n"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags by default; 2 is reserved for counterexamples."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@contextlib.contextmanager
def _output(path: str | None, what: str):
    """The stream a command writes to: stdout, or the --out file, noted on stderr once written."""
    if path is None:
        yield sys.stdout
        return
    with open(path, "w") as stream:
        yield stream
    print(f"wrote {what} to {Path(path)}", file=sys.stderr)


def _set_braces(s: BoundedSet) -> str:
    return "{" + ",".join(map(str, s)) + "}"


def _json_text(node, depth: int = 0) -> str:
    """Exactly ``json.dumps(node, sort_keys=True, indent=2)``, on the precondition that
    a list whose first item is an int holds ints only (and every key is a string).

    ``indent`` runs the pure-Python encoder, one step per element, so this recurses over
    dicts and other lists and joins an int list in one C loop.  ``depth`` is the recursion's own.
    """
    if not node or not isinstance(node, (dict, list)):
        return json.dumps(node)
    pad = "\n" + "  " * (depth + 1)
    sep, end = "," + pad, "\n" + "  " * depth
    if isinstance(node, dict):
        items = [f"{json.dumps(key)}: {_json_text(node[key], depth + 1)}" for key in sorted(node)]
        return f"{{{pad}{sep.join(items)}{end}}}"
    items = map(str, node) if type(node[0]) is int else (_json_text(x, depth + 1) for x in node)
    return f"[{pad}{sep.join(items)}{end}]"  # one copy of the joined body, not one per +


def _parse_family_token(token: str) -> tuple[str, int | None]:
    if token in ("xy", "uv"):
        return token, None
    name, sep, arg = token.partition(":")
    if sep and arg.isdigit() and (name in FAMILIES or name == "ef"):
        return name, int(arg)
    raise ValueError(
        f"unknown family {token!r}; expected s1t1:<l>, s2t2:<l>, s1t1+1:<l>, ef:<u>, xy or uv"
    )


def _build_sets(token: str, bound: int | None) -> list[tuple[str, BoundedSet]]:
    name, param = _parse_family_token(token)
    if name == "ef":
        if bound is not None:
            raise ValueError("ef:<u> fixes its own bound; drop --bound")
        if param >= MAX_BOUND.bit_length():  # over the limit without building 3 * 2^u + 2
            raise ValueError(f"bound 3*2^{param}+2 exceeds {MAX_BOUND}")
        check_bound(3 * (1 << param) + 2)
        e, f = build_ef(param)
        return [("E", e), ("F", f)]
    bound = check_bound(DEFAULT_BOUND if bound is None else bound)
    if bound < 4:
        raise ValueError(f"bound must be >= 4, got {bound}")
    if name == "uv":
        u, v = build_evil_odious(bound)
        return [("U", u), ("V", v)]
    if name == "xy":
        x, y = build_xy(bound)
        return [("X", x), ("Y", y)]
    a, b, t = build_family(name, param, bound)
    return [("A", a), ("B", b), ("T", t)]


def cmd_build(args: argparse.Namespace) -> int:
    labeled = _build_sets(args.family, args.bound)
    if args.format == "json":
        payload = {
            label: {"bound": s.bound, "elements": s.elements()} for label, s in labeled
        }
        print(_json_text(payload))
    else:
        blocks = [f"{label}:\n{s.to_text()}" for label, s in labeled]
        print("\n".join(blocks), end="")
    return EXIT_OK


def cmd_repfn(args: argparse.Namespace) -> int:
    if (args.family is None) == (args.input is None):
        raise ValueError("give exactly one of --family or --input")
    if args.input is not None and args.bound is not None:
        raise ValueError("a fixture fixes its own bound; drop --bound")
    if args.family is not None:
        sets = [s for _, s in _build_sets(args.family, args.bound)[:2]]
    else:
        sets = [BoundedSet.from_text(Path(args.input).read_text())]
    bound = sets[0].bound
    n_max = check_bound(args.n_max) if args.n_max is not None else bound - 1
    if args.family is not None:
        pa = r2_profile(sets[0], n_max)
        pb = r2_profile(sets[1], n_max)
        header, columns = "n,R2_A,R2_B,equal", (pa, pb, map(operator.eq, pa, pb))
    else:
        p1 = r1_profile(sets[0], n_max)
        p2 = strict_counts(p1, sets[0].mask)  # R3 = R1 - R2
        header, columns = "n,R1,R2,R3", (p1, p2, map(operator.sub, p1, p2))
    # One format over the flattened rows; %d prints a bool as 0 or 1.
    width = n_max + 1
    rows = tuple(itertools.chain.from_iterable(zip(range(width), *columns)))
    with _output(args.out, f"{width} rows") as stream:
        stream.write((header + "\n" + "%d,%d,%d,%d\n" * width) % rows)
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    spec = ProgressionSpec(args.r, args.m)
    out = forced_extend(spec, check_bound(args.bound))
    if args.emit == "json":
        payload = {
            "status": out.status,
            "r": spec.r,
            "m": spec.m,
            "bound": args.bound,
            "anchor": out.anchor,
            "a": out.a.elements(),
            "b": out.b.elements(),
            "excluded": list(range(spec.r, len(out.sides), spec.m)),
            "contradiction_at": out.contradiction_at,
            "forced_value": out.forced_value,
        }
        print(_json_text(payload))
        return EXIT_OK
    if out.status != STATUS_COMPLETED:
        print(f"contradiction: sum={out.contradiction_at} forced={out.forced_value}")
    print(f"A={_set_braces(out.a)}")
    print(f"B={_set_braces(out.b)}")
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    if args.m_max < 2 or args.bound < 4 or args.r_max_factor < 0:
        raise ValueError("need m-max >= 2, bound >= 4, r-max-factor >= 0")
    runs = classify_grid(args.m_max, args.r_max_factor, check_bound(args.bound))
    with _output(args.out, f"{grid_cells(args.m_max, args.r_max_factor)} records") as stream:
        stream.write(GRID_HEADER)
        for r, m_lo, m_hi, out in runs:
            if out.status == STATUS_COMPLETED:  # one cell, matched against its own spec
                family, l = match_family(out) or ("", "")
                stream.write(f"{r},{m_lo},{STATUS_COMPLETED},{family},{l},,\n")
            else:  # the rows differ in m alone
                tail = f",{STATUS_CONTRADICTION},,,{out.contradiction_at},{out.forced_value}\n"
                stream.write(f"{r}," + f"{tail}{r},".join(map(str, range(m_lo, m_hi + 1))) + tail)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    only = None if args.lemma == "all" else args.lemma
    # the report file is opened first, so a bad --out path exits 1 before any check line
    sink = contextlib.nullcontext() if args.out is None else _output(args.out, "report")
    with sink as stream:
        report = run_suite(args.bound_profile, seed=args.seed, only=only)
        for res in report.results:
            line = f"{'PASS' if res.ok else 'FAIL'} {res.check_id} ({res.passed}/{res.instances})"
            if res.first_failure is not None:
                line += f" first failure: {json.dumps(res.first_failure, sort_keys=True)}"
            print(line)
        if stream is not None:
            stream.write(_json_text(report.to_json_dict()) + "\n")
    if report.all_passed:
        print("suite: PASS")
        return EXIT_OK
    print("suite: FAIL")
    return EXIT_COUNTEREXAMPLE


@functools.cache  # argparse reads stdout, stderr and the help width as it prints, not here
def build_parser() -> _Parser:
    parser = _Parser(prog="repbal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a named set family")
    p_build.add_argument("family", help="s1t1:<l> | s2t2:<l> | s1t1+1:<l> | ef:<u> | xy | uv")
    p_build.add_argument("--bound", type=int, default=None, help=f"window size (default {DEFAULT_BOUND})")
    p_build.add_argument("--format", choices=("text", "json"), default="text")
    p_build.set_defaults(handler=cmd_build)

    p_repfn = sub.add_parser("repfn", help="emit representation-count CSV")
    p_repfn.add_argument("--family", default=None, help="pair comparison for a built family")
    p_repfn.add_argument("--input", default=None, help="set fixture file for a single-set profile")
    p_repfn.add_argument("--bound", type=int, default=None)
    p_repfn.add_argument("--n-max", type=int, default=None)
    p_repfn.add_argument("--out", default=None)
    p_repfn.set_defaults(handler=cmd_repfn)

    p_solve = sub.add_parser("solve", help="force-extend the partition for one (r, m)")
    p_solve.add_argument("--r", type=int, required=True)
    p_solve.add_argument("--m", type=int, required=True)
    p_solve.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    p_solve.add_argument("--emit", choices=("sets", "json"), default="sets")
    p_solve.set_defaults(handler=cmd_solve)

    p_classify = sub.add_parser("classify", help="sweep an (r, m) grid")
    p_classify.add_argument("--m-max", type=int, default=DEFAULT_M_MAX)
    p_classify.add_argument("--r-max-factor", type=int, default=GRID_R_MAX_FACTOR)
    p_classify.add_argument("--bound", type=int, default=DEFAULT_GRID_BOUND)
    p_classify.add_argument("--out", default=None)
    p_classify.set_defaults(handler=cmd_classify)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--lemma", default="all", choices=("all",) + CHECK_IDS)
    p_verify.add_argument("--bound-profile", default="quick", choices=tuple(PROFILES))
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(handler=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; every domain error leaves here as one line on stderr and exit 1.

    Only ValueError and OSError are domain errors.  Anything else, such as the
    kernel's RuntimeError, is an internal fault and keeps its traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"repbal {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
