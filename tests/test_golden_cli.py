"""Golden data sections of every subcommand, compared byte for byte.

Each case runs the CLI in process on a small fixed argv and compares the
CSV header and data rows with ``tests/golden/<case>.csv``; a JSON case
compares the ``"data"`` member of ``--format json`` with
``tests/golden/<case>.json``.  The metadata is left out: it carries the wall
time.  A refactor that must not
change any output proves it by leaving these files untouched; a change that
means to move numbers rewrites them with

    PYTHONPATH=src python tests/test_golden_cli.py

which prints, for each file it rewrites, the number of cells that changed
and the largest relative move in each column; the diff shows every cell.
The script writes nothing unless every case succeeds.  The bytes are those
of the libm and numpy the files were written with.
"""
import io
import json
import math
import pathlib
import sys
from contextlib import redirect_stdout

import pytest

from lorentzbath.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = {
    "evolve-analytic": ["evolve", "--xi", "2", "--tau-max", "3", "--steps", "31"],
    "evolve-lindblad": [
        "evolve", "--xi", "0.7", "--method", "lindblad", "--tau-max", "2", "--steps", "21",
    ],
    "evolve-multimode": [
        "evolve", "--xi", "2", "--method", "multimode", "--n-modes", "201",
        "--window", "20", "--tau-max", "1", "--steps", "11",
    ],
    "heatmap": [
        "heatmap", "--xi-min", "0.1", "--xi-max", "10", "--xi-steps", "7",
        "--tau-max", "2", "--tau-steps", "11",
    ],
    "heatmap-lindblad": [
        "heatmap", "--method", "lindblad", "--xi-scale", "linear", "--xi-min", "0.5",
        "--xi-max", "4", "--xi-steps", "4", "--tau-max", "2", "--tau-steps", "21",
    ],
    "heatmap-multimode": [
        "heatmap", "--method", "multimode", "--xi-min", "0.5", "--xi-max", "2", "--xi-steps", "3",
        "--tau-max", "1", "--tau-steps", "11", "--n-modes", "201", "--window", "10",
    ],
    "cmax": ["cmax", "--xi-min", "0.01", "--xi-max", "100", "--steps", "25"],
    "sideband": [
        "sideband", "--g", "2.5", "--kappa", "5", "--nu", "1.3", "--n", "1", "--target-xi", "1",
    ],
    "verify-quick": ["verify", "--quick"],
}
# the JSON encoder classifies each column by its cells' type: strings, ints,
# floats and a non-finite float (verify's mutation check measures inf)
JSON_CASES = {
    "sideband": CASES["sideband"],
    "sideband-forward": [
        "sideband", "--g", "2.5", "--kappa", "5", "--nu", "1.3", "--n", "1", "--epsilon", "1.5",
    ],
    "verify-quick": CASES["verify-quick"],
    "heatmap": CASES["heatmap"],
    "heatmap-lindblad": CASES["heatmap-lindblad"],
    "heatmap-multimode": CASES["heatmap-multimode"],
}


def data_section(argv) -> str:
    """Header and data rows of a CSV run, or the ``"data"`` member of a JSON one."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    assert code == 0
    text = out.getvalue()
    if argv[-1] == "json":
        return text[text.index('\n  "data": ') + 1:]
    lines = text.splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith("# "))


@pytest.mark.parametrize("case", sorted(CASES))
def test_data_bytes_match_golden(case):
    expected = (GOLDEN / f"{case}.csv").read_bytes()
    assert data_section(CASES[case]).encode() == expected


@pytest.mark.parametrize("case", sorted(JSON_CASES))
def test_json_data_bytes_match_golden(case):
    expected = (GOLDEN / f"{case}.json").read_bytes()
    assert data_section([*JSON_CASES[case], "--format", "json"]).encode() == expected


def _cells(name: str, text: str) -> tuple[list, list]:
    """Column names and rows of cells of one golden data section."""
    if name.endswith(".json"):
        rows = json.loads("{" + text)["data"]
        return [f"column {i}" for i in range(len(rows[0]) if rows else 0)], rows
    header, *lines = text.splitlines()
    return header.split(","), [line.split(",") for line in lines]


def moves(name: str, old: str, new: str) -> str:
    """One line: the changed cells of a rewritten file, and per column their
    count and largest relative move (inf from a zero, nan for text)."""
    (names, before), (new_names, after) = _cells(name, old), _cells(name, new)
    if new_names != names or len(after) != len(before):
        return f"{name}: columns or row count changed"
    moved = {}
    for old_row, new_row in zip(before, after):
        for column, a, b in zip(names, old_row, new_row):
            if a != b:
                try:
                    rel = abs(float(b) - float(a)) / abs(float(a)) if float(a) else math.inf
                except ValueError:
                    rel = math.nan
                count, worst = moved.get(column, (0, 0.0))
                moved[column] = count + 1, max(worst, rel)
    total = sum(count for count, _ in moved.values())
    parts = [f"{column} {count} (max rel {worst:.2g})" for column, (count, worst) in moved.items()]
    return f"{name}: {total} cells changed: " + "; ".join(parts)


if __name__ == "__main__":
    # every case runs before any file is written: a failing case leaves the set as it was
    sections = {f"{case}.csv": data_section(argv) for case, argv in CASES.items()}
    sections.update({f"{case}.json": data_section([*argv, "--format", "json"])
                     for case, argv in JSON_CASES.items()})
    GOLDEN.mkdir(exist_ok=True)
    for name, text in sections.items():
        path = GOLDEN / name
        old = path.read_text() if path.exists() else None
        if old == text:
            continue
        path.write_bytes(text.encode())
        print(moves(name, old, text) if old is not None else f"{name}: new file", file=sys.stderr)
