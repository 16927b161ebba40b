"""Source-level rules for the library package.

A rule that says where a construct may appear is one row of ``RULES``, which names its two
tests: a placement test per file in scope, and a test on the code the rule was written against.
"""

import ast
import functools
import importlib
import types
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

import repbal

SRC = Path(__file__).resolve().parent.parent / "src" / "repbal"
SOURCES = sorted(SRC.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)


@functools.cache
def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _sites(node, match, enclosing=()):
    """(enclosing def names, outermost first; node) for every node under node that match accepts."""
    if isinstance(node, FUNCTIONS):
        enclosing += (node.name,)
    if match(node):
        yield enclosing, node
    for child in ast.iter_child_nodes(node):
        yield from _sites(child, match, enclosing)


def _lines(tree, match):
    """(enclosing defs, line) of every site of match in tree."""
    return [(enclosing, node.lineno) for enclosing, node in _sites(tree, match)]


def _is_and_popcount(node):
    """A ``(... & ...).bit_count()`` call, shifted or not: a hand-rolled pair count."""
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "bit_count"
        and isinstance(getattr(node.func.value, "op", None), ast.BitAnd)
    )


def _is_reversing_slice(node):
    """A ``[::-1]`` slice."""
    return (
        isinstance(node, ast.Slice)
        and node.lower is node.upper is None
        and node.step is not None
        and ast.unparse(node.step) == "-1"
    )


DECIMAL_MODULES = {"decimal", "_decimal", "_pydecimal"}


def _imports_decimal(node):
    """An import of the decimal module, under any of its names."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] in DECIMAL_MODULES for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in DECIMAL_MODULES


FAMILY_NAMES = {"S1T1", "S2T2", "S1T1_SHIFTED"}


def _names_a_family(node):
    """A family constant as a bare name, an attribute or an import."""
    if isinstance(node, ast.Name):
        return node.id in FAMILY_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in FAMILY_NAMES
    return isinstance(node, (ast.Import, ast.ImportFrom)) and any(a.name in FAMILY_NAMES for a in node.names)


def _writes_a_file(node):
    """An ``open(...)``, ``.open(...)``, ``.write_text(...)`` or ``.write_bytes(...)`` call."""
    return isinstance(node, ast.Call) and (
        ast.unparse(node.func) == "open" or getattr(node.func, "attr", None) in ("open", "write_text", "write_bytes")
    )


def _calls(*callees):
    """A call whose callee reads as one of callees."""
    return lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) in callees


def _parses_a_numeral(node):
    """A base-2 ``int(..., 2)`` call."""
    return _calls("int")(node) and len(node.args) == 2 and ast.unparse(node.args[1]) == "2"


def _replaces_a_spec(node):
    """A ``replace(..., spec=...)`` call, plain or as ``dataclasses.replace``."""
    return (
        isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "replace"
        and any(kw.arg == "spec" for kw in node.keywords)
    )


def _packs_lanes(node):
    """An ``int.from_bytes`` or ``.to_bytes`` call, or an ``array("I", ...)`` of native 32-bit lanes."""
    if not isinstance(node, ast.Call):
        return False
    if ast.unparse(node.func) == "int.from_bytes" or getattr(node.func, "attr", None) == "to_bytes":
        return True
    return (
        ast.unparse(node.func) in ("array", "array.array")
        and bool(node.args)
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == "I"
    )


class Rule(NamedTuple):
    test: str  # the placement test, per file in scope
    reason: str
    files: list
    match: Callable
    places: list  # (file name, exact def chain) once per site there, or (file name, None): any in the file
    selftest: str  # the test on parent, the code the rule was written against
    parent: str
    parent_as: str  # the file parent is checked as
    flags: list  # the (def chain, line) sites the rule must flag in parent


HAND_PARSED_NUMERALS = """
def _side_set(digits, table):
    return BoundedSet(len(digits), int(digits.translate(table), 2))


def progression_set(spec, bound):
    digits = bytearray(b"0") * bound
    if spec.r < bound:
        digits[bound - 1 - spec.r::-spec.m] = b"1" * len(range(spec.r, bound, spec.m))
    return BoundedSet(bound, int(digits, 2) if digits else 0)
"""

SECOND_SINK = """
def cmd_dump(args, text):
    Path(args.out).write_text(text)


def cmd_save(args, data):
    with open(args.out, "wb") as f:
        f.write(data)
"""

SECOND_JSON_WRITER = """
def cmd_verify(args, report):
    text = json.dumps(report, sort_keys=True, indent=2) + "\\n"
    with _output(args.out, "report") as stream:
        stream.write(text)
"""

SECOND_CELL_RULE = """
def _grid_runs(m_max, r_max_factor, bound):
    def cell(r, m, resume):
        return forced_extend(ProgressionSpec(r, m), bound, resume)

    top = None
    for r in range(r_max_factor * m_max + 1):
        top = cell(r, m_max, top)
        for m in range(2, m_max):
            out = forced_extend(ProgressionSpec(r, m), bound + 1, top)
            yield r, m, m, out
"""

PARENT_CLASSIFY = """
def cmd_classify(args):
    for r, m_lo, m_hi, out in runs:
        if out.status == STATUS_COMPLETED:
            for m in range(m_lo, m_hi + 1):
                family, l = match_family(replace(out, spec=ProgressionSpec(r, m))) or ("", "")
                match = match_family(dataclasses.replace(out, spec=ProgressionSpec(r, m)))
"""

PARENT_MOVED_DOWN = """
def _grid_runs(m_max, r_max_factor, bound):
    def cell(r, m, resume):
        if m == r + 1:
            return _moved_down(row0[m], r)
        return forced_extend(ProgressionSpec(r, m), bound, resume)


def _moved_down(outcome, r):
    died = outcome.contradiction_at
    return ExtensionOutcome(
        ProgressionSpec(r, r + 1),
        outcome.sides[1:],
        None if died is None else died - 2,
        outcome.forced_value,
    )


def _renamed(outcome, spec):
    return dataclasses.replace(outcome, spec=spec), spec.name.replace("_", "-")
"""

PARENT_PEAKS = """
class TestSolve:
    def test_huge_modulus_allocates_by_the_bound(self, capsys):
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "solve", "--r", "2", "--m", "1000000000000", "--bound", "64")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()


class TestClassify:
    def test_out_file_peak_is_a_few_runs(self, capsys, tmp_path):
        out_file = tmp_path / "grid.csv"
        tracemalloc.start()
        try:
            code, _, err = run(
                capsys, "classify", "--m-max", "300", "--bound", "1024", "--out", str(out_file)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
"""

PARENT_CAPTURES = """
class TestParserBuiltOnce:
    @staticmethod
    def _call(argv):
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()


class TestArgumentVectors:
    def test_exit_one_is_one_line_and_nothing_written(self, argv):
        with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
            with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
                try:
                    code, usage = main(argv), False
                except SystemExit as exc:
                    code, usage = exc.code, True
"""

LANE_R3 = """
def cmd_repfn(args):
    p1 = r1_profile(sets[0], n_max)
    p2 = strict_counts(p1, sets[0].mask)
    r1 = int.from_bytes(array.array("I", p1), sys.byteorder)
    r3 = r1 - int.from_bytes(array("I", p2), sys.byteorder)
    p3 = array.array("I", r3.to_bytes(4 * (n_max + 1), sys.byteorder))
    side = array("b", bytes(3))
    side.frombytes(side.tobytes())
"""

SOLVER = "solver.py"

RULES = [
    Rule(
        "test_no_assert_statements", "python -O strips assert statements, so library checks must raise explicitly",
        files=SOURCES, match=lambda node: isinstance(node, ast.Assert), places=[],
        selftest="test_assert_rule_sees_a_checked_argument",
        parent="def check(x):\n    assert x > 0", parent_as="verify.py", flags=[(("check",), 2)],
    ),
    Rule(
        "test_pair_counting_only_in_repfn", "repfn.pairs_at is the one place a faster kernel plugs in",
        files=SOURCES, match=_is_and_popcount, places=[("repfn.py", None)],
        # a pair count over a mask reversed elsewhere needs no shift at the popcount
        selftest="test_pair_counting_rule_sees_an_unshifted_count",
        parent="def f(x, y):\n    return (x & y).bit_count()\n", parent_as="verify.py", flags=[(("f",), 2)],
    ),
    Rule(
        "test_reversing_slices_only_in_repfn", "repfn.pairs_at is the one place a faster kernel plugs in",
        files=SOURCES, match=_is_reversing_slice, places=[("repfn.py", None)],
        selftest="test_reversal_rule_sees_a_second_reversed_mask",
        parent="def ordered_counts(mask, width):\n"
        '    rev = int(format(mask, f"0{width}b")[::-1], 2)\n'
        "    return [(mask & (rev >> (width - 1 - n))).bit_count() for n in range(width)]\n",
        parent_as="verify.py", flags=[(("ordered_counts",), 2)],
    ),
    Rule(
        "test_decimal_only_in_repfn",
        "the packed decimal products, the profile square and the balance product, live in repfn alone",
        files=SOURCES, match=_imports_decimal, places=[("repfn.py", None)],
        selftest="test_decimal_rule_sees_an_import_beside_the_kernel",
        parent="import decimal\nfrom _pydecimal import Context\n\n\n"
        "def first_r2_difference(s, t, n_max):\n    exact = decimal.Context(prec=decimal.MAX_PREC)\n",
        parent_as="verify.py", flags=[((), 1), ((), 2)],
    ),
    Rule(
        "test_family_names_only_in_builders",
        "which progression a family leaves uncovered is answered in builders alone",
        files=SOURCES, match=_names_a_family, places=[("builders.py", None)],
        selftest="test_family_rule_sees_a_family_named_in_verify",
        parent="from .builders import FAMILIES, S1T1_SHIFTED\n\n\ndef _family_balance(p, seed):\n"
        "    for family in FAMILIES:\n        anchor = 1 if family == S1T1_SHIFTED else 0\n",
        parent_as="verify.py", flags=[((), 1), (("_family_balance",), 6)],
    ),
    Rule(
        "test_one_error_boundary_in_cli",
        "a domain error leaves the command line through cli.main's one handler, never a cmd_* of its own",
        files=[SRC / "cli.py"], match=lambda node: isinstance(node, (ast.Try, getattr(ast, "TryStar", ast.Try))),
        places=[("cli.py", ("main",))], selftest="test_error_boundary_rule_sees_every_try",
        parent="def cmd_x(args):\n    try:\n        pass\n    except ValueError:\n        pass\n",
        parent_as="cli.py", flags=[(("cmd_x",), 2)],
    ),
    Rule(
        "test_binary_numeral_parsed_once",
        "BoundedSet.from_digits alone knows a numeral reads its highest position first; "
        "repfn.pairs_at's reversed numeral belongs to the pair-counting rule",
        files=SOURCES, match=_parses_a_numeral,
        places=[("intset.py", ("from_digits",)), ("repfn.py", ("pairs_at",))],
        selftest="test_numeral_rule_sees_a_hand_parsed_numeral", parent=HAND_PARSED_NUMERALS,
        parent_as="intset.py", flags=[(("_side_set",), 3), (("progression_set",), 10)],
    ),
    Rule(
        "test_one_output_sink", "every --out file is opened by cli._output, which notes it on stderr once written",
        files=SOURCES, match=_writes_a_file, places=[("cli.py", ("_output",))],
        selftest="test_sink_rule_sees_a_write_text", parent=SECOND_SINK,
        parent_as="cli.py", flags=[(("cmd_dump",), 3), (("cmd_save",), 7)],
    ),
    Rule(
        "test_indented_json_only_through_json_text",
        "cli._json_text writes every indented JSON document; json.dumps(..., indent=) is its test reference",
        files=SOURCES, places=[], selftest="test_indent_rule_sees_an_indented_dump", parent=SECOND_JSON_WRITER,
        match=lambda node: isinstance(node, ast.Call) and any(kw.arg == "indent" for kw in node.keywords),
        parent_as="cli.py", flags=[(("cmd_verify",), 3)],
    ),
    Rule(
        "test_every_grid_extension_runs_in_one_cell_rule",
        "_grid_runs' cell decides how a grid cell gets its outcome: stepped, cut or moved down; the one "
        "exception, a completed top's shared cells, takes the top's sides in the loop body, unextended",
        files=[SRC / SOLVER], match=_calls("forced_extend"),
        places=[(SOLVER, ("_grid_runs", "cell"))] * 2,
        selftest="test_cell_rule_sees_an_extension_in_the_loop_body", parent=SECOND_CELL_RULE,
        parent_as=SOLVER, flags=[(("_grid_runs",), 10)],
    ),
    Rule(
        "test_outcome_spec_set_only_in_solver",
        "a completed grid run is one cell whose outcome carries its own spec, so nothing rebuilds one",
        files=SOURCES + TESTS, match=_replaces_a_spec, places=[(SOLVER, None)],
        selftest="test_spec_rule_sees_a_rebuilt_spec", parent=PARENT_CLASSIFY,
        parent_as="cli.py", flags=[(("cmd_classify",), 6), (("cmd_classify",), 7)],
    ),
    Rule(
        "test_outcomes_are_made_by_the_extension_and_the_grid",
        "forced_extend makes the outcome it steps, _grid_runs each one it cuts, moves or shares; "
        "an outcome made anywhere else would be a second rule for what a cell decides",
        files=SOURCES, match=_calls("ExtensionOutcome", "solver.ExtensionOutcome", "replace", "dataclasses.replace"),
        places=[(SOLVER, ("forced_extend",)), (SOLVER, ("_grid_runs",))] + [(SOLVER, ("_grid_runs", "cell"))] * 2,
        # the shift coded outside cell and a replace of an outcome; a string's replace is not one
        selftest="test_outcome_rule_sees_a_helper_beside_the_grid", parent=PARENT_MOVED_DOWN,
        parent_as=SOLVER, flags=[(("_moved_down",), 11), (("_renamed",), 20)],
    ),
    Rule(
        "test_lane_layout_only_in_repfn",
        "repfn alone knows how counts sit in the 32-bit lanes of one integer; elsewhere a profile is a tuple",
        files=SOURCES, match=_packs_lanes, places=[("repfn.py", None)],
        # R3 = R1 - R2 by lane subtraction; solver's signed bytes, tobytes and frombytes are no lanes
        selftest="test_lane_rule_sees_a_lane_subtraction_in_cli", parent=LANE_R3, parent_as="cli.py",
        flags=[(("cmd_repfn",), line) for line in (5, 5, 6, 6, 7, 7)],
    ),
    Rule(
        "test_peak_traced_only_in_peak_of", "support.peak_of is the one tracemalloc block the tests write",
        files=TESTS, match=_calls("tracemalloc.start"), places=[("support.py", ("peak_of",))],
        selftest="test_peak_rule_sees_a_hand_written_block", parent=PARENT_PEAKS, parent_as="test_cli.py",
        flags=[(("test_huge_modulus_allocates_by_the_bound",), 4), (("test_out_file_peak_is_a_few_runs",), 15)],
    ),
    Rule(
        "test_stderr_captured_only_in_call_main", "support.call_main is the one in-process capture of cli.main",
        files=TESTS, match=_calls("contextlib.redirect_stderr"), places=[("support.py", ("call_main",))],
        selftest="test_capture_rule_sees_a_hand_written_capture", parent=PARENT_CAPTURES, parent_as="test_cli.py",
        flags=[(("_call",), 5), (("test_exit_one_is_one_line_and_nothing_written",), 16)],
    ),
]


def _misplaced(rule, name, sites):
    """The sites in file name that no place of rule admits, and rule's places there that hold none."""
    if (name, None) in rule.places:
        return [], [] if sites else [(name, None)]
    left = [chain for file, chain in rule.places if file == name]
    flagged = []
    for chain, line in sites:
        if chain in left:
            left.remove(chain)
        else:
            flagged.append((chain, line))
    return flagged, left


def _placement_test(rule):
    def test(path):
        flagged, idle = _misplaced(rule, path.name, _lines(_tree(path), rule.match))
        assert flagged == [], f"{path.name} at {flagged}: {rule.reason}"
        assert idle == [], f"{path.name}: no site at {idle}, so {rule.test} guards nothing"

    if len(rule.files) == 1:  # a rule over one file is one test
        return lambda: test(rule.files[0])
    one_dir = len({p.parent for p in rule.files}) == 1
    ids = [p.name if one_dir else f"{p.parent.name}/{p.name}" for p in rule.files]
    return pytest.mark.parametrize("path", rule.files, ids=ids)(test)


def _parent_test(rule):
    def test():  # the rule must flag the code it was written against, or it guards nothing
        assert _misplaced(rule, rule.parent_as, _lines(ast.parse(rule.parent), rule.match))[0] == rule.flags

    return test


# each row's tests are module-level names, so the suite reports them as the rule's own
for _rule in RULES:
    globals()[_rule.test] = _placement_test(_rule)
    globals()[_rule.selftest] = _parent_test(_rule)


def test_every_rule_row_can_fail():
    # a place outside the row's scope is never checked, and a parent that flags nothing shows nothing
    for rule in RULES:
        assert {name for name, _ in rule.places} | {rule.parent_as} <= {p.name for p in rule.files}, rule.test
        assert rule.flags, rule.test
    names = [name for rule in RULES for name in (rule.test, rule.selftest)]
    assert len(names) == len(set(names)), "two rows name one test"


def _is_packing(node):
    return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "create_decimal"


def _is_field_width(node):
    return _calls("len")(node) and len(node.args) == 1 and _calls("str")(node.args[0])


def _kronecker_sites(tree):
    """Lines of ``create_decimal`` calls (packings) and of ``len(str(...))`` calls (field widths)."""
    return tuple(sorted(line for _, line in _lines(tree, match)) for match in (_is_packing, _is_field_width))


def test_kronecker_substitution_written_once():
    # the profile square and the balance product pack indicators by one rule, in one place; a count,
    # not a placement, since a second packing inside repfn._packed is a second rule all the same
    packings, field_widths = _kronecker_sites(_tree(SRC / "repfn.py"))
    assert len(packings) == 1, f"repfn.py packs indicators at lines {packings}; use repfn._packed"
    assert len(field_widths) == 1, f"repfn.py picks field widths at lines {field_widths}; use repfn._packed"


TWO_PACKINGS = """
def _ordered_counts(s, n_max):
    d = len(str(n_max + 1))
    packed = _EXACT.create_decimal(("0" * (d - 1)).join(format(s.mask, "b")))
def first_r2_difference(s, t, n_max):
    d = len(str(n_max + 1))
    s1 = _EXACT.create_decimal(("0" * (d - 1)).join(format(s.mask, "b")))
"""


TWO_PACKINGS_IN_PACKED = """
def _packed(mask, width, doubled=False):
    d = len(str(width))
    packed = _EXACT.create_decimal(("0" * (d - 1)).join(format(mask, "b")))
    d = len(str(width))
    return _EXACT.create_decimal(("0" * (d - 1)).join(format(mask, "b"))), d
"""


def test_kronecker_rule_sees_the_kernel():
    # the rule must see each packing and each field width, or it counts nothing; a second pair
    # inside repfn._packed sits at the one place a placement would allow, so only a count sees it
    assert _kronecker_sites(ast.parse(TWO_PACKINGS)) == ([4, 7], [3, 6])
    assert _kronecker_sites(ast.parse(TWO_PACKINGS_IN_PACKED)) == ([4, 6], [3, 5])


def _is_named_call(node):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name)


def _pair_builder_faults(tree):
    """(builder, fault) for every public build_* but build_parity_sets that skips
    _balanced_pair or calls another public build_*."""
    faults = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef) or not node.name.startswith("build_"):
            continue
        if node.name == "build_parity_sets":
            continue
        calls = {call.func.id for _, call in _sites(node, _is_named_call)}
        if "_balanced_pair" not in calls:
            faults.append((node.name, "no _balanced_pair"))
        faults += [(node.name, name) for name in sorted(calls) if name.startswith("build_")]
    return faults


def test_every_pair_builder_is_one_parity_split():
    # each named pair is the parity split of one weight list, not assembled from other pairs
    faults = _pair_builder_faults(_tree(SRC / "builders.py"))
    assert faults == [], f"builders.py: {faults}; build each pair with _balanced_pair of its weights"


TRANSLATE_EF = """
def build_ef(u):
    if u < 0:
        raise ValueError(f"window parameter must be >= 0, got {u}")
    block = 1 << u
    bound = 3 * block + 2
    evil, odious = build_evil_odious(block)
    evil = evil.widen(bound)
    odious = odious.widen(bound)
    e, f = evil, odious
    for offset in (block + 1, 2 * block + 1):
        moved_odious, dropped_o = odious.shift(offset)
        moved_evil, dropped_e = evil.shift(offset)
        if dropped_o or dropped_e:
            raise RuntimeError(f"translate by {offset} left the window of size {bound}")
        e = e | moved_odious
        f = f | moved_evil
    f = f | BoundedSet.from_elements([bound - 1], bound)
    return e, f
"""


def test_parity_split_rule_sees_a_translate_builder():
    # the rule must flag a pair assembled from another pair's translates, or it guards nothing
    assert _pair_builder_faults(ast.parse(TRANSLATE_EF)) == [
        ("build_ef", "no _balanced_pair"),
        ("build_ef", "build_evil_odious"),
    ]
    tree = _tree(SRC / "builders.py")
    builders = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)]
    assert {"build_ef", "build_evil_odious", "build_family", "build_xy"} <= set(builders)


def _is_load(node):
    return isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)


def _public_names_without_caller(sources):
    """``module.name`` of every public module-level def or class, and ``module.Class.method``
    of every public method of a public class, that no module references.

    ``sources`` maps module names to source text.  A reference to a name is a
    loaded ``Name`` or ``Attribute`` outside the name's own definition; one to
    a method is a loaded ``Attribute`` outside the method's own body.  A
    string in ``__all__`` is not one.  Dunders and private names are exempt.
    """
    defined, referenced, called = [], set(), set()
    for module, text in sources.items():
        for node in ast.parse(text).body:
            owner = node.name if isinstance(node, DEFINITIONS) else None
            if owner is not None and not owner.startswith("_"):
                defined.append((f"{module}.{owner}", owner, referenced))
                if isinstance(node, ast.ClassDef):
                    defined += [
                        (f"{module}.{owner}.{sub.name}", sub.name, called)
                        for sub in node.body
                        if isinstance(sub, FUNCTIONS) and not sub.name.startswith("_")
                    ]
            for enclosing, load in _sites(node, _is_load):
                is_attribute = isinstance(load, ast.Attribute)
                name = load.attr if is_attribute else load.id
                if name != owner:
                    referenced.add(name)
                if is_attribute and name not in enclosing:
                    called.add(name)
    return [label for label, name, references in defined if name not in references]


def test_every_public_name_has_a_caller_in_the_library():
    # no library surface without a caller: a public name only tests or __all__ use is deleted
    sources = {p.stem: p.read_text() for p in SOURCES if p.name != "__init__.py"}
    unused = _public_names_without_caller(sources)
    assert unused == [], f"{unused} have no caller in src/repbal; delete them or make them private"


SPARE_DEF = {
    "kernel": "__all__ = ['square', 'spare']\n\n"
    "def square(x):\n    return x * x\n\n"
    "def spare(x):\n    return spare(x - 1) if x else 0\n",
    "front": "from . import kernel\n\nprint(kernel.square(3))\n",
}


def test_caller_rule_sees_an_unreferenced_def():
    # __all__ and a call inside its own body do not count as callers
    assert _public_names_without_caller(SPARE_DEF) == ["kernel.spare"]


SPARE_METHOD = {
    "kernel": "__all__ = ['Window']\n\n"
    "class Window:\n"
    "    def size(self):\n        return 1\n\n"
    "    def spare(self, n):\n        return self.spare(n - 1) if n else self.size()\n\n"
    "    def __len__(self):\n        return 0\n\n"
    "class _Hidden:\n"
    "    def lonely(self):\n        return 0\n",
    "front": "from .kernel import Window, _Hidden\n\nprint(Window, _Hidden)\n",
}


def test_caller_rule_sees_a_method_only_its_own_body_calls():
    # a method called from a sibling has a caller; dunders and private classes are exempt
    assert _public_names_without_caller(SPARE_METHOD) == ["kernel.Window.spare"]


def _unread_helpers(sources):
    """``module.name`` of every module-level def, class or assigned name that no module reads,
    pytest's ``test_*`` functions and ``Test*`` classes aside.

    ``sources`` maps module names to source text.  A read is a loaded ``Name`` or
    ``Attribute`` outside the name's own definition, or a parameter of that name:
    pytest hands a fixture to the parameter that names it.  An import is not a read.
    """
    defined, read = [], set()
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, DEFINITIONS):
                names = [node.name]
            else:
                names = [t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)]
            defined += [(f"{module}.{name}", name) for name in names if not name.startswith(("test_", "Test"))]
            for _, site in _sites(node, lambda n: _is_load(n) or isinstance(n, ast.arg)):
                name = site.arg if isinstance(site, ast.arg) else getattr(site, "attr", None) or site.id
                if name not in names:
                    read.add(name)
    return [label for label, name in defined if name not in read]


def test_every_test_helper_has_a_reader():
    # the test-side twin of the library's caller rule: a deleted test takes its helpers with it
    unread = _unread_helpers({p.stem: p.read_text() for p in TESTS})
    assert unread == [], f"{unread} are read by no test module; delete them with the tests they served"


LEFT_HELPERS = {
    "support": "def never(what):\n    return what\n\n\ndef small_sets(max_bound):\n    return max_bound\n",
    "test_repfn": "from support import never, small_sets\n\n"
    "WIDTHS = [1, 2]\nSPARE = WIDTHS\n\n\n"
    "def ordered_from_oracle(s, n_max):\n"
    "    return ordered_from_oracle(s, n_max - 1) + [s.mask >> n_max & 1] if n_max else []\n\n\n"
    "@pytest.fixture\ndef no_pairs_at(monkeypatch):\n    monkeypatch.setattr(repfn, 'pairs_at', never('a loop'))\n\n\n"
    "class TestSquarePath:\n    def test_wide(self, no_pairs_at):\n        assert WIDTHS\n",
}


def test_helper_rule_sees_what_deleted_tests_left():
    # an import and a call inside its own body do not count as readers; a fixture's parameter does
    assert _unread_helpers(LEFT_HELPERS) == ["support.small_sets", "test_repfn.SPARE", "test_repfn.ordered_from_oracle"]


def _all_mismatches(text):
    """Names in ``__all__`` the module does not define, then public module-level
    defs and classes missing from it; None for a module without ``__all__``.

    A module defines a name by a def, a class or an assignment, not by an import.
    """
    listed, defined, public = None, set(), []
    for node in ast.parse(text).body:
        if isinstance(node, DEFINITIONS):
            defined.add(node.name)
            if not node.name.startswith("_"):
                public.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    defined.add(target.id)
                    if target.id == "__all__":
                        listed = ast.literal_eval(node.value)
    if listed is None:
        return None
    return [name for name in listed if name not in defined], [name for name in public if name not in listed]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_all_matches_the_module(path):
    # a rename must reach __all__, and a new public def must be exported or made private
    mismatches = _all_mismatches(path.read_text())
    assert mismatches in (None, ([], [])), f"{path.name}: (stale in __all__, unlisted) = {mismatches}"


STALE_ALL = (
    "from .intset import BoundedSet\n\n"
    "__all__ = ['LIMIT', 'square', 'cube', 'BoundedSet']\n\n"
    "LIMIT = 3\n\n"
    "def square(x):\n    return x * x\n\n"
    "def spare(x):\n    return x\n\n"
    "def _helper(x):\n    return x\n"
)


def test_all_rule_sees_a_stale_name():
    # a renamed def leaves its old name in __all__ and its new one unlisted; imports define nothing
    assert _all_mismatches(STALE_ALL) == (["cube", "BoundedSet"], ["spare"])
    assert _all_mismatches("def f():\n    pass\n") is None
    assert _all_mismatches((SRC / "verify.py").read_text()) is not None


def _unused_imports(text):
    """(line, name) of every name the module imports and never reads.

    A read is a loaded ``Name`` anywhere in the module, or the name listed in its
    ``__all__``.  ``from __future__`` and star imports bind nothing to read.
    """
    tree = ast.parse(text)
    imported, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name) for alias in node.names if alias.name != "*"]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in read]


def test_no_unused_import():
    # a deleted test or helper takes its imports with it
    unused = [
        (f"{path.parent.name}/{path.name}", line, name)
        for path in SOURCES + TESTS
        for line, name in _unused_imports(path.read_text())
    ]
    assert unused == [], f"(file, line, name) of imports nothing reads: {unused}"


LEFT_BEHIND = """
from __future__ import annotations

import json
import os.path

from repbal.cli import EXIT_OK, main
from repbal.verify import *
from support import call_main, peak_of as peak

__all__ = ["peak"]


def test_sets_output_matches_contract():
    code, out, _, _ = call_main(["solve", "--r", "2", "--m", "3", "--bound", "14"])
    assert (code, out) == (EXIT_OK, "A={0,4,7,9,13}\\nB={1,3,6,10,12}\\n")
"""


def test_import_rule_sees_what_a_deleted_runner_left():
    # the imports a deleted runner leaves, with a dotted import; __all__, future and star imports count as used
    assert _unused_imports(LEFT_BEHIND) == [(4, "json"), (5, "os"), (7, "main")]


EXPORTING_MODULES = ("builders", "intset", "repfn", "solver", "verify")


def test_package_namespace_is_the_modules_all():
    # repbal re-exports each module's __all__, so no second list of names is kept by hand
    exported = [
        name
        for module in EXPORTING_MODULES
        for name in importlib.import_module(f"repbal.{module}").__all__
    ]
    assert len(exported) == len(set(exported)), "two modules export one name"
    public = {
        name
        for name, value in vars(repbal).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(exported)


REACH_MESSAGE = "must reach past the first excluded value"


def test_reach_refusal_written_once():
    # forced_extend and classify_grid refuse an unreachable r through one check, solver._check_reach
    counts = [(path.name, path.read_text().count(REACH_MESSAGE)) for path in SOURCES]
    sites = [(name, count) for name, count in counts if count]
    assert sites == [("solver.py", 1)], f"reach message written at {sites}; raise it through _check_reach"
