"""The benchmark's checks accept the program's outputs and reject perturbed ones.

The Liouvillian workloads run at reduced Fock cutoffs where that keeps
their physics (cutoff 4 for g2sweep, 3 for g2tau) so the suite stays fast;
the checks compare against the reference physics at the same cutoff.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from run import ROOT, _call, run_workload  # noqa: E402
from workloads import G2Tau, GSweep, OracleSweep, Spectrum  # noqa: E402


def _run(wl):
    from polariton import cli
    wl.prepare()
    assert all(_call(cli, argv) for argv in wl.commands())
    return wl


def _perturb(path: Path, row: int, column: str, factor: float = 1 + 1e-4):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[row][column] = f"{float(rows[row][column]) * factor:.11e}"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize("make, file, row, column", [
    (lambda d: GSweep(ROOT, d, cutoff=4), "gsweep.csv", 2, "g3_d"),
    (lambda d: OracleSweep(ROOT, d), "oracle.csv", 40, "oracle_g2_b"),
    (lambda d: G2Tau(ROOT, d, cutoff=3), "a3_p1.csv", 0, "g2_c"),
    (lambda d: Spectrum(ROOT, d), "manifolds.csv", 7, "m1_2"),
    (lambda d: Spectrum(ROOT, d), "distances.csv", 300, "d1"),
])
def test_check_rejects_one_perturbed_value(tmp_path, make, file, row, column):
    wl = _run(make(tmp_path))
    assert wl.failed([True] * len(wl.configs)) == 0
    if hasattr(wl, "verified"):
        wl.verified = wl.points()  # verify every point, so any row is examined
    assert wl.check(np.random.default_rng(0)) == []
    _perturb(wl.out / file, row, column)
    assert wl.check(np.random.default_rng(0))


def test_dynamics_label_is_checked(tmp_path):
    wl = _run(G2Tau(ROOT, tmp_path, cutoff=3))
    path = wl.out / "a3.summary.json"
    summary = json.loads(path.read_text())
    summary["points"][3]["dynamics_b"]["case"] = "II"  # g = 7.7 realises case IV
    path.write_text(json.dumps(summary))
    assert any("dynamics case" in p for p in wl.check(np.random.default_rng(0)))


class _DriveSweep(GSweep):
    """Drive-strength sweep whose undriven point has no defined correlation."""

    values = (0.0, 0.5)
    sweep_variable = "eta_b"
    cutoff = 4


def test_failed_point_is_counted_and_run_continues(tmp_path):
    result, notes = run_workload(_DriveSweep(ROOT, tmp_path), 0.0, False,
                                 np.random.default_rng(0))
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert result["metrics"]["points_per_s"]["value"] > 0
    assert not any("reference" in n for n in notes)  # the surviving point verifies
