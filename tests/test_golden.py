"""The shipped configs against their stored outputs in ``tests/golden/``.

Each config in ``configs/`` runs into a temporary directory, on two worker
processes, and every file it writes is compared with the stored one: the
file list, headers, labels, errors and empty cells exactly, numbers to
1e-10 relative.  The output directory reads ``OUT`` in the stored
summaries.  A change that moves a table on purpose stores the new outputs
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import csv
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from polariton.cli import main
from helpers import SHIPPED, SHIPPED_COMMANDS

GOLDEN = Path(__file__).resolve().parent / "golden"
MASK = "OUT"
RTOL = 1e-10


def run_config(name: str, out: Path) -> dict[str, str]:
    """The text of each file the shipped config ``name`` writes into
    ``out``, by file name, with ``out`` masked."""
    command = SHIPPED_COMMANDS[name]
    threads = [] if command == "spectrum" else ["--threads", "2"]  # spectrum runs no pool
    assert main([command, "--config", str(SHIPPED / name), "--out", str(out), *threads]) == 0
    return {p.name: p.read_text().replace(str(out), MASK) for p in sorted(out.iterdir())}


def _cell(text: str):
    try:
        return float(text)
    except ValueError:  # a label, an error or an empty cell
        return text


def assert_same(got, want, where: str):
    """Floats within RTOL relative, everything else equal, recursively."""
    if isinstance(want, float) or isinstance(got, float):
        assert got == pytest.approx(want, rel=RTOL, abs=0), where
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    else:
        assert got == want, where


@pytest.mark.parametrize("name", sorted(SHIPPED_COMMANDS))
def test_shipped_config_matches_its_stored_outputs(tmp_path, name):
    got = run_config(name, tmp_path / "out")
    want = {p.name: p.read_text() for p in sorted((GOLDEN / Path(name).stem).iterdir())}
    assert sorted(got) == sorted(want)
    for file, text in want.items():
        if file.endswith(".json"):
            assert_same(json.loads(got[file]), json.loads(text), file)
            continue
        got_rows = list(csv.reader(got[file].splitlines()))
        want_rows = list(csv.reader(text.splitlines()))
        assert got_rows[0] == want_rows[0], file
        assert len(got_rows) == len(want_rows), file
        for i, (g, w) in enumerate(zip(got_rows[1:], want_rows[1:])):
            assert_same([_cell(c) for c in g], [_cell(c) for c in w], f"{file} row {i}")


if __name__ == "__main__":
    for name in sorted(SHIPPED_COMMANDS):
        with tempfile.TemporaryDirectory() as scratch:
            files = run_config(name, Path(scratch) / "out")
        target = GOLDEN / Path(name).stem
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for file, text in files.items():
            (target / file).write_text(text)
        print(f"{target}: {len(files)} files", file=sys.stderr)
