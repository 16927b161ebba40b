"""Golden-output corpus: the exit code, stdout, stderr and --out file of every subcommand, pinned.

Each line of golden.tsv holds an argument vector (as JSON), its exit code, and the
sha256 of its stdout, of its stderr and of its --out file ("-" when it leaves none).
The replay runs every vector in-process through ``cli.main``, inside a scratch
directory that holds the --input fixtures, with relative --out paths, so no output
depends on where the test runs.  An argparse usage error keeps only its exit code
and final ``error:`` line: the usage block above that line follows the terminal
width and the Python version.

Rewrite the manifest, on purpose only, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

import pytest

from repbal import cli
from repbal.verify import CHECK_IDS
from support import call_main, random_set

MANIFEST = Path(__file__).resolve().parent / "golden.tsv"
SUBCOMMANDS = ("build", "solve", "repfn", "classify", "verify")

FIXTURES = {
    "half.txt": random_set(random.Random(20), 512, 0.5).to_text(),  # a fixed half-density set
    "empty.txt": "bound=64\n\n",
    "unsorted.txt": "bound=16\n3,1\n",
    "outside.txt": "bound=16\n3,16\n",
    "no_header.txt": "0,1,2\n",
    "not_a_number.txt": "bound=16\n1,x\n",
    "negative.txt": "bound=-1\n\n",
    "huge.txt": f"bound={1 << 40}\n0,3\n",
}

TOKENS = ("s1t1:0", "s1t1:3", "s2t2:2", "s1t1+1:1", "xy", "uv")

VECTORS = [
    # build: every token kind, text and JSON
    *[("build", token, "--bound", "64", "--format", fmt) for token in TOKENS for fmt in ("text", "json")],
    *[("build", token, "--format", fmt) for token in ("ef:0", "ef:3") for fmt in ("text", "json")],
    ("build", "s1t1:2"),
    ("build", "s1t1:9999999999", "--bound", "32"),
    ("build", "s3t3:1"),
    ("build", "s1t1:x"),
    ("build", "ef:2", "--bound", "64"),
    ("build", "ef:1000000000000"),
    ("build", "xy", "--bound", "3"),
    ("build", "uv", "--bound", str(1 << 40)),
    # solve: completed and contradicting cells, sets and JSON, and the r + 2 = bound edge
    *[("solve", "--r", r, "--m", m, "--bound", bound, "--emit", emit)
      for r, m, bound in (("2", "3", "14"), ("0", "2", "4096"), ("1", "4", "64"), ("4", "9", "4096"),
                          ("10", "3", "12"), ("2", "1000000000000", "64"))
      for emit in ("sets", "json")],
    ("solve", "--r", "7", "--m", "5"),
    ("solve", "--r", "11", "--m", "3", "--bound", "12"),
    ("solve", "--r", "2", "--m", "3", "--bound", str(1 << 40)),
    # repfn: --family and --input, with --n-max and --out
    ("repfn", "--family", "s1t1:2", "--bound", "64"),
    ("repfn", "--family", "xy", "--bound", "256", "--n-max", "100"),
    ("repfn", "--family", "uv", "--bound", "128", "--out", "rows.csv"),
    ("repfn", "--family", "s2t2:1", "--bound", "64", "--n-max", "200"),
    ("repfn", "--family", "ef:3"),
    ("repfn", "--input", "half.txt"),
    ("repfn", "--input", "half.txt", "--n-max", "50"),
    ("repfn", "--input", "half.txt", "--out", "half.csv"),
    ("repfn", "--input", "empty.txt"),
    ("repfn",),
    ("repfn", "--family", "xy", "--input", "half.txt"),
    ("repfn", "--input", "half.txt", "--bound", "512"),
    ("repfn", "--input", "missing.txt"),
    *[("repfn", "--input", name) for name in (
        "unsorted.txt", "outside.txt", "no_header.txt", "not_a_number.txt", "negative.txt", "huge.txt"
    )],
    ("repfn", "--input", "half.txt", "--n-max", str(1 << 40)),
    ("repfn", "--family", "ef:23"),
    ("repfn", "--family", "s1t1:2", "--bound", "64", "--out", "no/such/rows.csv"),
    # classify: the default grid, a small one, an r = 0 grid past the bound, and --out
    ("classify",),
    ("classify", "--m-max", "9", "--bound", "1024"),
    # grids whose diagonal cells (r, r + 1) are row 0's moved down: a diagonal top (m_max = 2^4 + 1)
    # and diagonal one-cell runs
    ("classify", "--m-max", "129", "--bound", "8192"),
    ("classify", "--m-max", "17", "--r-max-factor", "1", "--bound", "256"),
    ("classify", "--m-max", "17", "--r-max-factor", "3", "--bound", "256", "--out", "grid.csv"),
    ("classify", "--m-max", "40", "--r-max-factor", "0", "--bound", "12"),
    ("classify", "--m-max", "5", "--bound", "128", "--out", "grid.csv"),
    ("classify", "--m-max", "9", "--bound", "4"),
    ("classify", "--m-max", "9", "--bound", "4", "--out", "refused.csv"),
    ("classify", "--m-max", "1"),
    ("classify", "--m-max", "1100", "--bound", "4096"),
    ("classify", "--m-max", "9", "--bound", str(1 << 40)),
    ("classify", "--m-max", "5", "--bound", "64", "--out", "no/such/grid.csv"),
    # verify: the quick profile, whole and per lemma, at two seeds, and --out
    *[("verify", "--bound-profile", "quick", "--seed", seed) for seed in ("1729", "7")],
    *[("verify", "--lemma", lemma, "--seed", seed) for lemma in CHECK_IDS for seed in ("1729", "7")],
    ("verify", "--seed", "7", "--out", "report.json"),
    ("verify", "--lemma", "skip-one-partition", "--out", "no/such/report.json"),
    # argparse usage errors
    ("solve", "--r", "1"),
    ("build",),
    ("classify", "--m-max", "x"),
    ("verify", "--seed", "1.5"),
]


def _sha(data):
    """sha256 of a str or bytes, or "-" for None."""
    if data is None:
        return "-"
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def _record(main, argv):
    """One manifest row: the vector, its exit code and the hashes of what it wrote."""
    code, out, err, usage = call_main(argv, main)
    if usage:
        err = err.splitlines()[-1]
    out_path = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    out_file = None
    if out_path is not None and out_path.exists():
        out_file = out_path.read_bytes()
        out_path.unlink()
    return [json.dumps(list(argv)), str(code), _sha(out), _sha(err), _sha(out_file)]


def replay(main, directory):
    """Every vector's manifest row, run by ``main`` inside ``directory``."""
    for name, text in FIXTURES.items():
        (Path(directory) / name).write_text(text)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        return [_record(main, argv) for argv in VECTORS]
    finally:
        os.chdir(cwd)


def _manifest():
    return [line.split("\t") for line in MANIFEST.read_text().splitlines()]


def mismatches(main, directory):
    """The vectors whose row differs from the manifest's."""
    expected = _manifest()
    if [row[0] for row in expected] != [json.dumps(list(argv)) for argv in VECTORS]:
        raise AssertionError("golden.tsv lists other vectors than VECTORS; rewrite it on purpose")
    rows = replay(main, directory)
    return [argv for argv, row, want in zip(VECTORS, rows, expected) if row != want]


def test_every_subcommand_has_vectors():
    assert {argv[0] for argv in VECTORS} >= set(SUBCOMMANDS)


def test_corpus_replays_byte_identically(tmp_path):
    assert mismatches(cli.main, tmp_path) == []


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_corpus_sees_one_altered_stdout_byte(tmp_path, command):
    # a main that changes one byte of one subcommand's stdout fails exactly that subcommand's vectors
    def altered(argv):
        inner = io.StringIO()
        try:
            with contextlib.redirect_stdout(inner):
                return cli.main(argv)
        finally:
            text = inner.getvalue()
            if argv[0] == command:
                text = chr(ord(text[0]) ^ 1) + text[1:] if text else "\n"
            sys.stdout.write(text)

    assert mismatches(altered, tmp_path) == [argv for argv in VECTORS if argv[0] == command]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        rows = replay(cli.main, directory)
    MANIFEST.write_text("".join("\t".join(row) + "\n" for row in rows))
    print(f"wrote {len(rows)} vectors to {MANIFEST}")
