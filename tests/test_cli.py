"""Command-line behavior: output shapes, exit codes, determinism, round-trips."""

import contextlib
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repbal import cli, solver, verify
from repbal.cli import EXIT_COUNTEREXAMPLE, EXIT_OK, EXIT_USAGE
from repbal.intset import BoundedSet
from repbal.repfn import r1_profile, r2_profile, strict_counts
from repbal.verify import CHECK_IDS, SuiteReport
from support import call_main, never, peak_of, random_set


class TestSolve:
    def test_sets_output_matches_contract(self):
        code, out, _, _ = call_main(["solve", "--r", "2", "--m", "3", "--bound", "14"])
        assert code == EXIT_OK
        assert out == "A={0,4,7,9,13}\nB={1,3,6,10,12}\n"

    def test_contradiction_reported(self):
        code, out, _, _ = call_main(["solve", "--r", "1", "--m", "4", "--bound", "64"])
        assert code == EXIT_OK
        assert out.startswith("contradiction: sum=5 forced=1\n")

    def test_json_emission(self):
        code, out, _, _ = call_main(["solve", "--r", "2", "--m", "3", "--bound", "14", "--emit", "json"])
        payload = json.loads(out)
        assert payload["status"] == "completed"
        assert payload["a"] == [0, 4, 7, 9, 13]
        assert payload["anchor"] == 0

    def test_huge_modulus_allocates_by_the_bound(self):
        (code, out, _, _), peak = peak_of(call_main, ["solve", "--r", "2", "--m", "1000000000000", "--bound", "64"])
        assert code == EXIT_OK
        assert out == "contradiction: sum=8 forced=2\nA={0,4,6}\nB={1,3,5,7}\n"
        assert peak < 1 << 20

    def test_contradiction_json_cuts_excluded_at_the_frontier(self):
        # (1, 4) dies at position 5, so excluded runs over [0, 5), not over the bound
        code, out, _, _ = call_main(["solve", "--r", "1", "--m", "4", "--bound", "64", "--emit", "json"])
        payload = {
            "a": [0],
            "anchor": 0,
            "b": [2, 3, 4],
            "bound": 64,
            "contradiction_at": 5,
            "excluded": [1],
            "forced_value": 1,
            "m": 4,
            "r": 1,
            "status": "contradiction",
        }
        assert (code, out) == (EXIT_OK, json.dumps(payload, sort_keys=True, indent=2) + "\n")

    def test_huge_modulus_json_excludes_r_alone(self):
        argv = ("solve", "--r", "2", "--m", "1000000000000", "--bound", "64", "--emit", "json")
        code, out, _, _ = call_main(argv)
        assert code == EXIT_OK
        assert json.loads(out)["excluded"] == [2]


class TestBuild:
    def test_family_text_blocks(self):
        code, out, _, _ = call_main(["build", "s1t1:1", "--bound", "14"])
        assert code == EXIT_OK
        assert "A:\nbound=14\n0,4,7,9,13\n" in out
        assert "T:\nbound=14\n2,5,8,11\n" in out

    def test_uv_and_xy(self):
        code, out, _, _ = call_main(["build", "uv", "--bound", "8"])
        assert code == EXIT_OK and "U:\nbound=8\n0,3,5,6\n" in out
        code, out, _, _ = call_main(["build", "xy", "--bound", "8", "--format", "json"])
        assert json.loads(out)["X"]["elements"] == [0, 5, 6, 7]

    def test_ef_fixes_its_own_bound(self):
        code, out, _, _ = call_main(["build", "ef:1"])
        assert code == EXIT_OK and "E:\nbound=8\n0,4,6\n" in out

    def test_huge_family_parameter_builds_the_capped_family(self):
        # 2^(10^13) would take over a terabyte; at bound 64 every l >= 8 builds the same sets
        expected = call_main(["build", "s1t1:8", "--bound", "64"])
        result, peak = peak_of(call_main, ["build", "s1t1:10000000000000", "--bound", "64"])
        assert result == expected == (EXIT_OK, expected[1], "", False)
        assert peak < 1 << 20
        expected = call_main(["repfn", "--family", "s2t2:8", "--bound", "64"])
        result = call_main(["repfn", "--family", "s2t2:10000000000000", "--bound", "64"])
        assert result == expected == (EXIT_OK, expected[1], "", False)


def _indented(text):
    """The same JSON as dumped by ``json.dumps(..., sort_keys=True, indent=2)`` alone."""
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


_int_lists = st.lists(st.integers(-(10**12), 10**12), max_size=5)
_leaves = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6), st.integers(), st.floats(), _int_lists
)


def _containers(children):
    """Dicts of the children, and lists of such dicts: the shape of the verify report's checks."""
    objects = st.dictionaries(st.text(max_size=4), children, max_size=4)
    return objects | st.lists(objects, max_size=3)


_nodes = st.recursive(_leaves, _containers, max_leaves=24)  # containers nest well past depth 3


class TestJsonText:
    @given(st.dictionaries(st.text(max_size=4), _nodes, max_size=5))
    @example({})
    @example({"a": [], "b": [0], "c": {"elements": [1, 2], "none": None}})
    @example({"a": {"b": {}, "c": [], "d": {"e": {"f": [], "g": {}}}}})  # empties below the top
    @example({'"': 1, "\\": [2], "é": {"\u2603\n": "ü"}})  # keys and strings that need escapes
    @example({"t": True, "f": False, "n": None, "d": {"t": True, "f": False, "n": None}})
    @example({"profile": "quick", "all_passed": False, "checks": [  # a failing report entry
        {"lemma": "classification-grid", "instances": 96, "passed": 95, "first_failure": {
            "inputs": {"r": 3, "m": 2}, "lhs": "contradiction", "rhs": "completed"}},
        {"lemma": "kernel-oracle", "instances": 25, "passed": 25, "first_failure": None},
    ]})
    @example({"profile": "deep", "all_passed": True, "checks": []})  # a suite of no checks
    @example({"flags": [True, False], "mixed": [None, 1, "a"]})  # lists that start with no int
    def test_equals_the_indented_dump(self, payload):
        assert cli._json_text(payload) == json.dumps(payload, sort_keys=True, indent=2)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 1 << 12).flatmap(  # forced_extend needs bound >= r + 2
        lambda bound: st.tuples(st.integers(0, bound - 2), st.integers(2, 40), st.just(bound))
    ))
    @example(cell=(3, 2, 5))  # contradicted, nothing excluded below the frontier
    @example(cell=(0, 2, 3))  # completed with an empty b
    @example(cell=(2, 3, 1 << 12))
    def test_solve_json_is_the_indented_dump(self, cell):
        r, m, bound = cell
        code, out, _, _ = call_main(["solve", "--r", str(r), "--m", str(m), "--bound", str(bound), "--emit", "json"])
        assert code == EXIT_OK and out == _indented(out)

    @settings(max_examples=25, deadline=None)
    @given(st.one_of(
        st.tuples(
            st.sampled_from(("s1t1", "s2t2", "s1t1+1")).flatmap(
                lambda family: st.integers(0, 6).map(lambda l: f"{family}:{l}")
            ),
            st.integers(4, 1 << 10),
        ),
        st.tuples(st.sampled_from(("xy", "uv")), st.integers(4, 1 << 10)),
        st.tuples(st.integers(0, 8).map(lambda u: f"ef:{u}"), st.none()),
    ))
    @example(case=("ef:0", None))
    def test_build_json_is_the_indented_dump(self, case):
        token, bound = case
        argv = ("build", token, "--format", "json") + (() if bound is None else ("--bound", str(bound)))
        code, out, _, _ = call_main(argv)
        assert code == EXIT_OK and out == _indented(out)


def pair_rows(pa, pb):
    """The reference for repfn --family: one f-string per row."""
    lines = ["n,R2_A,R2_B,equal"]
    lines += [f"{n},{pa[n]},{pb[n]},{1 if pa[n] == pb[n] else 0}" for n in range(len(pa))]
    return "\n".join(lines) + "\n"


def single_rows(p1, p2):
    """The reference for repfn --input: one f-string per row."""
    lines = ["n,R1,R2,R3"]
    lines += [f"{n},{p1[n]},{p2[n]},{p1[n] - p2[n]}" for n in range(len(p1))]
    return "\n".join(lines) + "\n"


class TestRepfn:
    def test_pair_csv(self):
        code, out, _, _ = call_main(["repfn", "--family", "s1t1:1", "--bound", "14"])
        lines = out.splitlines()
        assert code == EXIT_OK
        assert lines[0] == "n,R2_A,R2_B,equal"
        assert len(lines) == 15
        assert all(line.endswith(",1") for line in lines[1:])

    def test_single_set_csv(self, tmp_path):
        fixture = tmp_path / "set.txt"
        fixture.write_text("bound=8\n0,1,2,3\n")
        code, out, _, _ = call_main(["repfn", "--input", str(fixture), "--n-max", "3"])
        assert code == EXIT_OK
        assert out.splitlines() == ["n,R1,R2,R3", "0,1,0,1", "1,2,1,1", "2,3,1,2", "3,4,2,2"]

    @pytest.mark.parametrize("token, bound, n_max", [
        ("s1t1:1", 14, None),
        ("s2t2:2", 300, 100),
        ("s1t1+1:3", 1000, None),
        ("xy", 513, 0),
        ("uv", 64, 63),
        ("ef:4", None, 20),
    ])
    def test_family_rows_match_one_fstring_per_row(self, token, bound, n_max):
        sets = [s for _, s in cli._build_sets(token, bound)[:2]]
        last = sets[0].bound - 1 if n_max is None else n_max
        argv = ["repfn", "--family", token] + ([] if bound is None else ["--bound", str(bound)])
        argv += [] if n_max is None else ["--n-max", str(n_max)]
        code, out, _, _ = call_main(argv)
        assert code == EXIT_OK
        assert out == pair_rows(*(r2_profile(s, last) for s in sets))

    def test_unequal_family_rows_match_one_fstring_per_row(self, monkeypatch, tmp_path):
        # a family's profiles balance, so B's profile is perturbed to print equal = 0 rows
        profiles = []

        def perturbed(s, n_max):
            p = r2_profile(s, n_max)
            if profiles:
                p = tuple(count + (n in (0, 5)) for n, count in enumerate(p))
            profiles.append(p)
            return p

        monkeypatch.setattr(cli, "r2_profile", perturbed)
        out_file = tmp_path / "rows.csv"
        result = call_main(["repfn", "--family", "s2t2:2", "--bound", "64", "--out", str(out_file)])
        assert result == (EXIT_OK, "", f"wrote 64 rows to {out_file}\n", False)
        text = out_file.read_text()
        assert text == pair_rows(*profiles)
        assert [line[-1] for line in text.splitlines()[1:8]] == list("0111101")

    @pytest.mark.parametrize("bound, density, n_max", [
        (1, 1.0, None), (10, 0.5, None), (100, 0.3, 57), (4096, 0.02, None), (10000, 1.0, 9998),
    ])
    def test_single_set_rows_match_one_fstring_per_row(self, tmp_path, bound, density, n_max):
        s = random_set(random.Random(bound), bound, density)
        fixture = tmp_path / "set.txt"
        fixture.write_text(s.to_text())
        argv = ["repfn", "--input", str(fixture)] + ([] if n_max is None else ["--n-max", str(n_max)])
        code, out, _, _ = call_main(argv)
        p1 = r1_profile(s, bound - 1 if n_max is None else n_max)
        assert code == EXIT_OK
        assert out == single_rows(p1, strict_counts(p1, s.mask))

    def test_single_set_peak_at_2_16(self, tmp_path):
        # tracemalloc read 12.9 MiB before the lane read-out of the strict counts and 12.6 MiB
        # after (Python 3.11), most of it the flattened rows and the 1.3 MB of captured CSV; the
        # bound leaves about 1 MiB, four of the read-out's 256 KiB whole-window integers
        fixture = tmp_path / "set.txt"
        fixture.write_text(random_set(random.Random(1 << 16), 1 << 16, 0.5).to_text())
        (code, out, _, _), peak = peak_of(call_main, ["repfn", "--input", str(fixture)])
        assert (code, out.count("\n")) == (EXIT_OK, (1 << 16) + 1)
        assert peak < 14 << 20


CSV_HEADER = "r,m,status,family,l,contradiction_at,forced_value"


class TestClassify:
    def test_csv_header_is_pinned(self):
        # a renamed or reordered column would change classify's stdout
        code, out, _, _ = call_main(["classify", "--m-max", "2", "--bound", "64"])
        assert code == EXIT_OK
        assert out.splitlines()[0] == CSV_HEADER

    def test_record_values_are_in_header_order(self):
        # a completed cell and a contradicted one, each read back by its header's column names
        code, out, _, _ = call_main(["classify", "--m-max", "5", "--bound", "128"])
        lines = out.splitlines()
        rows = {tuple(line.split(",")[:2]): dict(zip(CSV_HEADER.split(","), line.split(",")))
                for line in lines[1:]}
        assert code == EXIT_OK and len(rows) == len(lines) - 1 == 32
        assert rows["2", "3"] == {
            "r": "2", "m": "3", "status": "completed", "family": "s1t1", "l": "1",
            "contradiction_at": "", "forced_value": "",
        }
        assert rows["1", "4"] == {
            "r": "1", "m": "4", "status": "contradiction", "family": "", "l": "",
            "contradiction_at": "5", "forced_value": "1",
        }

    def test_csv_round_trip(self, tmp_path):
        # the --out file holds exactly the bytes classify prints without --out
        out_file = tmp_path / "grid.csv"
        result = call_main(["classify", "--m-max", "5", "--bound", "128", "--out", str(out_file)])
        assert result == (EXIT_OK, "", f"wrote 32 records to {out_file}\n", False)
        code, out, _, _ = call_main(["classify", "--m-max", "5", "--bound", "128"])
        assert code == EXIT_OK
        assert out_file.read_bytes() == out.encode()

    def test_completed_rows_match_prediction(self):
        code, out, _, _ = call_main(["classify", "--m-max", "9", "--bound", "1024"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        rows = [line.split(",") for line in lines[1:]]
        completed = {(int(r), int(m)) for r, m, status, *_ in rows if status == "completed"}
        assert completed == {
            (1, 2), (0, 2), (2, 3), (0, 3), (1, 3),
            (4, 5), (0, 5), (2, 5), (8, 9), (0, 9), (4, 9),
        }

    def test_out_of_reach_grid_is_refused_before_any_record(self):
        # runs come out r-major, so without an up-front check every r below 3 would
        # first write about three million rows
        result, peak = peak_of(call_main, ["classify", "--m-max", "3000000", "--bound", "4"])
        message = "repbal classify: bound 4 must reach past the first excluded value 3\n"
        assert result == (EXIT_USAGE, "", message, False)
        assert peak < 8 << 20

    def test_over_cap_grid_is_refused_before_any_extension(self, monkeypatch):
        # 1,212,197 cells fit under the bound, but the cap bounds the rows one grid writes
        monkeypatch.setattr(solver, "forced_extend", never("ran an extension"))
        result, peak = peak_of(call_main, ["classify", "--m-max", "1100", "--bound", "4096"])
        assert result == (EXIT_USAGE, "", f"repbal classify: grid of 1212197 cells exceeds {1 << 20}\n", False)
        assert peak < 8 << 20

    def test_byte_determinism(self):
        args = ("classify", "--m-max", "4", "--bound", "128")
        first = call_main(args)
        assert first == call_main(args) == (EXIT_OK, first[1], "", False)


HUGE = 1 << 40  # a mask this wide would take 128 GiB


class TestBoundGuard:
    """An absurd window exits 1 with one line before any set or profile is built."""

    # one case per subcommand's --bound; the rest of this class's refusals are REFUSALS rows
    @pytest.mark.parametrize("argv", [
        ("solve", "--r", "2", "--m", "3", "--bound", str(HUGE)),
        ("classify", "--m-max", "9", "--bound", str(HUGE)),
        ("build", "s1t1:2", "--bound", str(HUGE)),
        ("build", "uv", "--bound", str(HUGE)),
        ("repfn", "--family", "xy", "--bound", str(HUGE)),
    ])
    def test_bound_flag(self, monkeypatch, tmp_path, argv):
        _check_refusal(monkeypatch, tmp_path, argv, None, f"bound {HUGE} exceeds 16777216", NOTHING_BUILT)

    def test_largest_window_is_accepted(self, monkeypatch):
        monkeypatch.setattr(cli, "build_xy", lambda bound: (BoundedSet(bound), BoundedSet(bound)))
        code, _, _, _ = call_main(["build", "xy", "--bound", str(cli.MAX_BOUND)])
        assert code == EXIT_OK


class TestVerify:
    def test_quick_suite_exits_zero(self, tmp_path):
        report_file = tmp_path / "report.json"
        code, out, _, _ = call_main(
            ["verify", "--lemma", "all", "--bound-profile", "quick", "--out", str(report_file)]
        )
        assert code == EXIT_OK
        assert "suite: PASS" in out
        payload = json.loads(report_file.read_text())
        assert payload["all_passed"] is True
        assert {entry["lemma"] for entry in payload["checks"]} >= {
            "family-balance", "classification-grid", "kernel-oracle",
        }

    def test_single_lemma(self):
        code, out, _, _ = call_main(["verify", "--lemma", "skip-one-partition"])
        assert code == EXIT_OK
        assert out.splitlines()[0].startswith("PASS skip-one-partition")

    def test_counterexample_exits_two(self, monkeypatch, tmp_path):
        # x and y each lose or gain 5, so their pair counts part at n = 5
        build_xy = verify.build_xy

        def flipped(bound):
            return tuple(BoundedSet(s.bound, s.mask ^ 1 << 5) for s in build_xy(bound))

        monkeypatch.setattr(verify, "build_xy", flipped)
        report_file = tmp_path / "report.json"
        code, out, _, _ = call_main(["verify", "--lemma", "skip-one-partition", "--out", str(report_file)])
        assert code == EXIT_COUNTEREXAMPLE
        assert out == (
            'FAIL skip-one-partition (1/2) first failure: {"inputs": {"n": 5}, "lhs": 0, "rhs": 1}\n'
            "suite: FAIL\n"
        )
        failure = {"inputs": {"n": 5}, "lhs": 0, "rhs": 1}
        payload = json.loads(report_file.read_text())
        assert payload["all_passed"] is False
        assert payload["checks"] == [
            {"lemma": "skip-one-partition", "instances": 2, "passed": 1, "first_failure": failure}
        ]

    def test_every_profile_is_a_choice(self, monkeypatch):
        # a profile added to verify.PROFILES reaches run_suite with no edit to the parser;
        # the parser is built once per process, so it is rebuilt around the patched PROFILES
        monkeypatch.setattr(cli, "PROFILES", {**cli.PROFILES, "deep": None})
        seen = []

        def stub_suite(profile, **kwargs):
            seen.append(profile)
            return SuiteReport(profile, [])

        monkeypatch.setattr(cli, "run_suite", stub_suite)
        cli.build_parser.cache_clear()
        try:
            code, out, _, _ = call_main(["verify", "--bound-profile", "deep"])
        finally:
            cli.build_parser.cache_clear()
        assert (code, out, seen) == (EXIT_OK, "suite: PASS\n", ["deep"])


class TestParserBuiltOnce:
    """One parser serves every call in a process, and prints what a fresh one prints."""

    def test_reused_parser_prints_what_a_fresh_one_prints(self):
        calls = (
            ("solve", "--r", "1"),  # a usage error, through _Parser.error
            ("solve", "--r", "2", "--m", "3", "--bound", "14"),
            ("verify", "--lemma", "skip-one-partition"),
        )
        cli.build_parser.cache_clear()
        reused = [call_main(argv) for argv in calls]
        assert cli.build_parser.cache_info().misses == 1
        fresh = []
        for argv in calls:
            cli.build_parser.cache_clear()
            fresh.append(call_main(argv))
        assert reused == fresh
        assert [code for code, *_ in reused] == [EXIT_USAGE, EXIT_OK, EXIT_OK]
        assert reused[0][2].startswith("usage: repbal solve")
        assert reused[1][1] == "A={0,4,7,9,13}\nB={1,3,6,10,12}\n"


class TestOutIntoAMissingDirectory:
    """A failed --out write exits 1 with one line, like a failed --input read."""

    @pytest.mark.parametrize("argv", [
        ("repfn", "--family", "s1t1:2", "--bound", "64"),
        ("classify", "--m-max", "5", "--bound", "64"),
        ("verify", "--lemma", "skip-one-partition"),
    ])
    def test_one_line_and_exit_one(self, tmp_path, argv):
        # the --out file is opened before any output, so stdout stays empty
        missing = tmp_path / "no" / "such" / "x.out"
        code, out, err, usage = call_main([*argv, "--out", str(missing)])
        assert (code, out, usage) == (EXIT_USAGE, "", False)
        assert err.startswith(f"repbal {argv[0]}: ") and err.count("\n") == 1
        assert str(missing) in err and "Traceback" not in err


class TestOnlyVerifyReadsChi:
    """No command but verify reads membership one value at a time, so chi's cost stays in the suite."""

    @pytest.mark.parametrize("argv", [
        ("solve", "--r", "2", "--m", "3", "--bound", "64"),
        ("solve", "--r", "1", "--m", "4", "--bound", "64", "--emit", "json"),
        ("classify", "--m-max", "9", "--bound", "64"),
        ("repfn", "--family", "s1t1:2", "--bound", "64"),
        ("repfn", "--input", "set.txt"),
        ("build", "s2t2:2", "--bound", "64", "--format", "json"),
        ("build", "ef:2"),
    ])
    def test_never_calls_chi(self, monkeypatch, tmp_path, argv):
        (tmp_path / "set.txt").write_text("bound=64\n0,3,5,17,40,63\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("repbal.intset.BoundedSet.chi", never(f"{' '.join(argv)} read chi"))
        code, out, _, _ = call_main(argv)
        assert code == EXIT_OK and out


class TestErrorBoundary:
    """cli.main alone turns a ValueError or OSError into one line and exit 1; other faults propagate."""

    CALLS = [
        (("build", "s1t1:1", "--bound", "14"), "_build_sets"),
        (("repfn", "--family", "s1t1:1", "--bound", "14"), "r2_profile"),
        (("solve", "--r", "2", "--m", "3", "--bound", "14"), "forced_extend"),
        (("classify", "--m-max", "3", "--bound", "64"), "classify_grid"),
        (("verify", "--lemma", "skip-one-partition"), "run_suite"),
    ]

    @pytest.mark.parametrize("error", [ValueError, OSError])
    @pytest.mark.parametrize("argv,call", CALLS, ids=[argv[0] for argv, _ in CALLS])
    def test_domain_error_is_one_line(self, monkeypatch, argv, call, error):
        def fail(*args, **kwargs):
            raise error("boom")

        monkeypatch.setattr(cli, call, fail)
        assert call_main(argv) == (EXIT_USAGE, "", f"repbal {argv[0]}: boom\n", False)

    @pytest.mark.parametrize("argv,call", CALLS, ids=[argv[0] for argv, _ in CALLS])
    def test_internal_fault_propagates(self, monkeypatch, argv, call):
        def fail(*args, **kwargs):
            raise RuntimeError("odd pair count")

        monkeypatch.setattr(cli, call, fail)
        with pytest.raises(RuntimeError, match="odd pair count"):
            call_main(argv)


class TestUsage:
    def test_counterexample_exit_code_is_reserved(self):
        assert EXIT_COUNTEREXAMPLE == 2
        assert EXIT_USAGE == 1


# Argument vectors for every subcommand: small, zero, negative and oversized numbers, every
# family-token form and some malformed ones, every check id and one bad one, and flags in any
# order or missing.  Paths are relative to a directory that holds the fixtures and, at first,
# nothing else
NUMBERS = st.one_of(st.integers(-3, 64), st.sampled_from([(1 << 24) + 1, 10**30])).map(str)
FAMILY_TOKENS = st.one_of(
    st.builds("{}:{}".format, st.sampled_from(["s1t1", "s2t2", "s1t1+1", "ef"]), st.integers(-2, 6)),
    st.sampled_from([
        "xy", "uv", "ef:24", "ef:" + "9" * 30, "s2t2:" + "9" * 30, "s1t1", "s1t1:", "s1t1:x",
        "s1t1:+1", "nope:3", "",
    ]),
)
FIXTURES = [
    "bound=16\n1,3,5\n", "bound=16\n5,3\n", "bound=16\n1,x\n", "bound=4\n1,9\n", "bound=-1\n\n",
    f"bound={(1 << 24) + 1}\n1\n", "bound=16\n1," + "9" * 5000 + "\n", "no header\n",
]
FLAGS = {
    "build": {"--bound": NUMBERS, "--format": st.sampled_from(["text", "json", "csv"])},
    "solve": {
        "--r": NUMBERS, "--m": NUMBERS, "--bound": NUMBERS, "--emit": st.sampled_from(["sets", "json"])
    },
    "classify": {"--m-max": NUMBERS, "--r-max-factor": NUMBERS, "--bound": NUMBERS, "--out": st.just("out.txt")},
    "repfn": {
        "--family": FAMILY_TOKENS,
        # the last one is missing
        "--input": st.integers(0, len(FIXTURES)).map("fixture{}.txt".format),
        "--bound": NUMBERS,
        "--n-max": NUMBERS,
        "--out": st.just("out.txt"),
    },
    "verify": {
        "--lemma": st.sampled_from(("all", "nope") + CHECK_IDS),
        "--bound-profile": st.sampled_from(["quick", "nope"]),  # never full, about a second a run
        "--seed": NUMBERS,
        "--out": st.just("out.txt"),
    },
}


@st.composite
def argument_vectors(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    if command == "build" and draw(st.booleans()):
        argv.append(draw(FAMILY_TOKENS))
    flags = FLAGS[command]
    for flag in draw(st.permutations(sorted(flags))):
        if draw(st.integers(0, 3)):  # each flag in three vectors of four
            argv += [flag, draw(flags[flag])]
    if draw(st.integers(0, 9)) == 0:
        argv.append("--bogus")
    return argv


class TestArgumentVectors:
    """Every argument vector succeeds, or exits 1 with one line and no output at all."""

    @settings(deadline=None)
    @example(argv=["repfn", "--input", f"fixture{len(FIXTURES) - 2}.txt"])  # a 5,000-digit element
    @example(argv=["classify", "--m-max", "64", "--bound", "64", "--out", "out.txt"])  # out of reach
    @example(argv=["repfn", "--family", "ef:3", "--n-max", "-3", "--out", "out.txt"])
    @given(argument_vectors())
    def test_exit_one_is_one_line_and_nothing_written(self, argv):
        with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
            for i, text in enumerate(FIXTURES):
                Path(f"fixture{i}.txt").write_text(text)
            code, out, err, usage = call_main(argv)
            written = Path("out.txt").exists()
        assert code in (EXIT_OK, EXIT_USAGE)
        if code == EXIT_OK:
            return
        lines = err.splitlines()
        if usage:
            assert lines[-1].startswith("repbal") and ": error: " in lines[-1]
        else:
            assert len(lines) == 1 and lines[0].startswith(f"repbal {argv[0]}: ")
        assert out == "" and not written


# Refusals, argparse's among them, and memory gates are table rows.  Each row names the test
# that checks it, as Class::name, so a new refusal or gate is one row.  A test checks its rows in
# turn, each in an empty directory of its own and with its stubs undone after it.

# The builders and kernels under cli that a refusal must come before
NOTHING_BUILT = ("forced_extend", "classify_grid", "build_family", "build_ef", "build_evil_odious", "build_xy",
                 "r1_profile", "r2_profile")

# (test, argv, the text of set.txt or None, the exact message or None for argparse's own, names
# under cli that must not run)
REFUSALS = [
    # forced_extend refuses the offset itself
    ("TestSolve::test_domain_error_exits_one", ("solve", "--r", "9", "--m", "2", "--bound", "5"), None,
     "bound 5 must reach past the first excluded value 9", ()),
    ("TestBuild::test_unknown_family_exits_one", ("build", "s9t9:1"), None,
     "unknown family 's9t9:1'; expected s1t1:<l>, s2t2:<l>, s1t1+1:<l>, ef:<u>, xy or uv", NOTHING_BUILT),
    ("TestBuild::test_ef_refuses_a_bound", ("build", "ef:1", "--bound", "32"), None,
     "ef:<u> fixes its own bound; drop --bound", NOTHING_BUILT),
    ("TestRepfn::test_negative_fixture_bound_exits_one", ("repfn", "--input", "set.txt"), "bound=-20\n3\n",
     "bound must be >= 0, got -20", NOTHING_BUILT),
    # two lines, the first no bound=<N>; golden.tsv's one-line no_header.txt takes the line-count branch
    ("TestRepfn::test_fixture_without_a_bound_header_exits_one", ("repfn", "--input", "set.txt"), "size=8\n1\n",
     "expected two lines: 'bound=<N>' then the elements", NOTHING_BUILT),
    # the fixture's own bound=8 line fixes the window, as ef:<u> fixes its own
    ("TestRepfn::test_fixture_refuses_bound", ("repfn", "--input", "set.txt", "--bound", "3"), "bound=8\n0,1,2,3\n",
     "a fixture fixes its own bound; drop --bound", NOTHING_BUILT),
    # int() refuses a 5,000-digit field; the message shows its head and length, not the field
    ("TestRepfn::test_huge_fixture_element_is_one_short_line", ("repfn", "--input", "set.txt"),
     "bound=16\n1," + "9" * 5000 + "\n", "element '99999999999999999999'… (5000 characters) is out of"
     " range: expected 'bound=<N>' then comma-separated integers", NOTHING_BUILT),
    # r1_profile refuses the sum itself
    ("TestRepfn::test_sum_past_the_fixture_bound_exits_one", ("repfn", "--input", "set.txt", "--n-max", "600"),
     "bound=512\n0,3,5,6\n", "sum index 600 outside the materialized window [0, 512); build the set with a"
     " larger bound", ()),
    ("TestRepfn::test_requires_exactly_one_source", ("repfn",), None,
     "give exactly one of --family or --input", NOTHING_BUILT),
    ("TestRepfn::test_requires_exactly_one_source", ("repfn", "--family", "xy", "--input", "x.txt"), None,
     "give exactly one of --family or --input", NOTHING_BUILT),
    # classify_grid refuses the grid itself, before --out is opened
    ("TestClassify::test_refused_grid_creates_no_out_file", ("classify", "--m-max", "9", "--bound", "4", "--out",
     "grid.csv"), None, "bound 4 must reach past the first excluded value 3", ()),
    # r runs up to 2m, and forced_extend needs bound >= r + 2: cell (3, 2) is the first to fail
    ("TestClassify::test_grid_reaching_past_the_bound_exits_one", ("classify", "--m-max", "9", "--bound", "4"),
     None, "bound 4 must reach past the first excluded value 3", ()),
    ("TestClassify::test_bad_grid_shape_exits_one", ("classify", "--m-max", "1"), None,
     "need m-max >= 2, bound >= 4, r-max-factor >= 0", NOTHING_BUILT),
    # ef:<u> builds [0, 3 * 2^u + 2); from u = 25 on the bound is written, never computed
    ("TestBoundGuard::test_window_pair_parameter", ("repfn", "--family", "ef:23"), None,
     "bound 25165826 exceeds 16777216", NOTHING_BUILT),
    ("TestBoundGuard::test_window_pair_parameter", ("build", "ef:1000000000000"), None,
     "bound 3*2^1000000000000+2 exceeds 16777216", NOTHING_BUILT),
    ("TestBoundGuard::test_fixture_bound_and_n_max", ("repfn", "--input", "set.txt"), f"bound={HUGE}\n0,3\n",
     f"bound {HUGE} exceeds 16777216", NOTHING_BUILT),
    ("TestBoundGuard::test_fixture_bound_and_n_max", ("repfn", "--input", "set.txt", "--n-max", str(HUGE)),
     "bound=64\n0,3\n", f"bound {HUGE} exceeds 16777216", NOTHING_BUILT),
    ("TestBoundGuard::test_fixture_bound_is_checked_before_any_mask", ("repfn", "--input", "set.txt"),
     "bound=134217728\n0,134217727\n", "bound 134217728 exceeds 16777216",
     NOTHING_BUILT + ("BoundedSet.from_elements",)),
    ("TestUsage::test_unknown_subcommand_exits_one", ("bogus",), None, None, NOTHING_BUILT),
    ("TestUsage::test_missing_required_flag_exits_one", ("solve", "--m", "3"), None, None, NOTHING_BUILT),
    ("TestVerify::test_unknown_lemma_exits_one", ("verify", "--lemma", "nope"), None, None, ("run_suite",)),
]


def _check_refusal(monkeypatch, directory, argv, fixture, message, unreached):
    if fixture is not None:
        (directory / "set.txt").write_text(fixture)
    monkeypatch.chdir(directory)
    for name in unreached:
        monkeypatch.setattr(f"repbal.cli.{name}", never(f"{' '.join(argv)} reached {name}"))
    code, out, err, usage = call_main(argv)
    if message is None:  # exit 1, not argparse's 2; argparse words the line differently across versions
        assert (code, out, usage) == (EXIT_USAGE, "", True)
        assert err.splitlines()[-1].startswith("repbal") and ": error: " in err.splitlines()[-1]
    else:
        assert (code, out, err, usage) == (EXIT_USAGE, "", f"repbal {argv[0]}: {message}\n", False)
    assert sorted(p.name for p in directory.iterdir()) == ([] if fixture is None else ["set.txt"])


# (test, m_max, bound, records written, traced peak limit) of classify --out
MEMORY_GATES = [
    # nothing per cell is held: no row list, no list of CSV lines and no whole text
    ("TestClassify::test_out_file_is_written_row_by_row", 129, 8192, 16_896, 3 << 20),
    # 90,597 cells in 1,862 runs: the peak holds an outcome, a run's rows and row 0's kept
    # runs of one, not a row per cell
    ("TestClassify::test_out_file_peak_is_a_few_runs", 300, 1024, 90_597, 1 << 20),
    # row 0's top completes, so each of its cells is a run of its own, kept over the
    # bound + 1 until row m - 1 moves it down to the diagonal cell (m - 1, m)
    ("TestClassify::test_out_file_peak_holds_row_0_until_its_diagonals", 257, 1024, 66_560, 1 << 20),
]


def _check_peak(monkeypatch, directory, m_max, bound, records, limit):
    out_file = directory / "grid.csv"
    argv = ["classify", "--m-max", str(m_max), "--bound", str(bound), "--out", str(out_file)]
    result, peak = peak_of(call_main, argv)
    assert result == (EXIT_OK, "", f"wrote {records} records to {out_file}\n", False)
    assert peak < limit


def _rows_test(rows, check):
    def test(self, monkeypatch, tmp_path):
        for i, row in enumerate(rows):
            (tmp_path / str(i)).mkdir()
            with monkeypatch.context() as patch:
                check(patch, tmp_path / str(i), *row)

    return test


for _table, _check in [(REFUSALS, _check_refusal), (MEMORY_GATES, _check_peak)]:
    for _name in dict.fromkeys(row[0] for row in _table):
        _cls, _test = _name.split("::")
        assert not hasattr(globals()[_cls], _test), f"{_name} is written out; a row may not replace it"
        setattr(globals()[_cls], _test, _rows_test([row[1:] for row in _table if row[0] == _name], _check))
