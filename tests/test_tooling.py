"""Source-level rules for the library package."""

import ast
import importlib
import types
from pathlib import Path

import pytest

import repbal

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "repbal").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so library checks must raise explicitly
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))
    assert lines == [], f"{path.name} uses assert at lines {lines}"


def _and_popcounts(tree):
    """Lines of ``(... & ...).bit_count()`` calls, shifted or not: a hand-rolled pair count."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "bit_count"
        and isinstance(node.func.value, ast.BinOp)
        and isinstance(node.func.value.op, ast.BitAnd)
    ]


def _reversing_slices(tree):
    """Lines of ``[::-1]`` slices."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Slice)
        and node.lower is None
        and node.upper is None
        and isinstance(node.step, ast.UnaryOp)
        and isinstance(node.step.op, ast.USub)
        and isinstance(node.step.operand, ast.Constant)
        and node.step.operand.value == 1
    ]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "repfn.py"], ids=lambda p: p.name)
def test_pair_counting_only_in_repfn(path):
    # repfn.pairs_at is the one place a faster kernel plugs in
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _and_popcounts(tree) == [], f"{path.name} counts pairs by hand; use repfn.pairs_at"
    assert _reversing_slices(tree) == [], f"{path.name} reverses a sequence; use repfn.pairs_at"


def test_pair_counting_rule_sees_the_primitive():
    # the rule must match the code it protects, or it guards nothing
    tree = ast.parse((SOURCES[0].parent / "repfn.py").read_text())
    assert _and_popcounts(tree) and _reversing_slices(tree)


def test_pair_counting_rule_sees_an_unshifted_count():
    # a pair count over a mask reversed elsewhere needs no shift at the popcount
    assert _and_popcounts(ast.parse("def f(x, y):\n    return (x & y).bit_count()\n")) == [2]


DECIMAL_MODULES = {"decimal", "_decimal", "_pydecimal"}


def _decimal_imports(tree):
    """Lines that import the decimal module, under any of its names."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            lines += [node.lineno for alias in node.names if alias.name.split(".")[0] in DECIMAL_MODULES]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in DECIMAL_MODULES:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "repfn.py"], ids=lambda p: p.name)
def test_decimal_only_in_repfn(path):
    # the packed decimal products, the profile square and the balance product, live in repfn alone
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = _decimal_imports(tree)
    assert lines == [], f"{path.name} imports decimal at lines {lines}; use repfn's profiles"


def test_decimal_rule_sees_the_kernel():
    tree = ast.parse((SOURCES[0].parent / "repfn.py").read_text())
    assert _decimal_imports(tree)


def _kronecker_sites(tree):
    """Lines of ``create_decimal`` calls (packings) and of ``len(str(...))`` calls (field widths)."""
    packings, field_widths = [], []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute) and node.func.attr == "create_decimal":
            packings.append(node.lineno)
        elif (
            isinstance(node.func, ast.Name)
            and node.func.id == "len"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Call)
            and isinstance(node.args[0].func, ast.Name)
            and node.args[0].func.id == "str"
        ):
            field_widths.append(node.lineno)
    return sorted(packings), sorted(field_widths)


def test_kronecker_substitution_written_once():
    # the profile square and the balance product pack indicators by one rule, in one place
    packings, field_widths = _kronecker_sites(ast.parse((SOURCES[0].parent / "repfn.py").read_text()))
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


def test_kronecker_rule_sees_the_kernel():
    # the rule must see each packing and each field width, or it counts nothing
    assert _kronecker_sites(ast.parse(TWO_PACKINGS)) == ([4, 7], [3, 6])


FAMILY_NAMES = {"S1T1", "S2T2", "S1T1_SHIFTED"}


def _family_name_uses(tree):
    """Lines that name a family constant: a bare name, an attribute or an import."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in FAMILY_NAMES:
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in FAMILY_NAMES:
            lines.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            lines += [node.lineno for alias in node.names if alias.name in FAMILY_NAMES]
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "builders.py"], ids=lambda p: p.name)
def test_family_names_only_in_builders(path):
    # which progression a family leaves uncovered is answered in builders alone
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = _family_name_uses(tree)
    assert lines == [], f"{path.name} names a family at lines {lines}; use builders.family_cells or family_of"


def test_family_rule_sees_builders():
    tree = ast.parse((SOURCES[0].parent / "builders.py").read_text())
    assert _family_name_uses(tree)


TRY_NODES = (ast.Try, ast.TryStar) if hasattr(ast, "TryStar") else (ast.Try,)


def _try_owners(tree):
    """(innermost enclosing function, line) of every try statement; None outside any function."""
    owners = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, TRY_NODES):
            owners.append((owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return owners


def test_one_error_boundary_in_cli():
    # a domain error leaves the command line through cli.main's one handler, never a cmd_* of its own
    tree = ast.parse((SOURCES[0].parent / "cli.py").read_text())
    owners = [owner for owner, _ in _try_owners(tree)]
    assert owners == ["main"], f"cli.py has try statements in {owners}; let cli.main handle errors"


def test_error_boundary_rule_sees_every_try():
    # the rule must see main's try, and one in a handler, or it guards nothing
    tree = ast.parse((SOURCES[0].parent / "cli.py").read_text())
    assert "main" in [owner for owner, _ in _try_owners(tree)]
    handler = "def cmd_x(args):\n    try:\n        pass\n    except ValueError:\n        pass\n"
    assert _try_owners(ast.parse(handler)) == [("cmd_x", 2)]


def _pair_builder_faults(tree):
    """(builder, fault) for every public build_* but build_parity_sets that skips
    _balanced_pair or calls another public build_*."""
    faults = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef) or not node.name.startswith("build_"):
            continue
        if node.name == "build_parity_sets":
            continue
        calls = {
            call.func.id
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        }
        if "_balanced_pair" not in calls:
            faults.append((node.name, "no _balanced_pair"))
        faults += [(node.name, name) for name in sorted(calls) if name.startswith("build_")]
    return faults


def test_every_pair_builder_is_one_parity_split():
    # each named pair is the parity split of one weight list, not assembled from other pairs
    source = (SOURCES[0].parent / "builders.py").read_text()
    faults = _pair_builder_faults(ast.parse(source))
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
    tree = ast.parse((SOURCES[0].parent / "builders.py").read_text())
    builders = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)]
    assert {"build_ef", "build_evil_odious", "build_family", "build_xy"} <= set(builders)


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)


def _loads(node, enclosing=()):
    """(name, is an attribute, names of the enclosing defs) of every loaded ``Name`` or
    ``Attribute`` under node."""
    if isinstance(node, FUNCTIONS):
        enclosing += (node.name,)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id, False, enclosing
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr, True, enclosing
    for child in ast.iter_child_nodes(node):
        yield from _loads(child, enclosing)


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
            for name, is_attribute, enclosing in _loads(node):
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
    assert _all_mismatches((SOURCES[0].parent / "verify.py").read_text()) is not None


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
