import csv
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polariton import (ConfigError, TruncationConfig, g_k_zero, preset_params, solve_point,
                       tau_to_us)
from polariton.cli import load_config, main
from helpers import fresh_env


def write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


SWEEP_CFG = """
preset: A2
overrides: {{g: 4.5}}
truncation: {{n_a_max: 3, n_b_max: 3}}
sweep: {{variable: delta_smr, start: -1.0, stop: 1.0, count: 5, resonant: true}}
output: {{directory: {out}, basename: sweep}}
"""


def test_g2sweep_row_count_and_schema(tmp_path):
    cfg = write(tmp_path / "cfg.yaml", SWEEP_CFG.format(out=tmp_path / "out"))
    assert main(["g2sweep", "--config", cfg]) == 0
    csv_path = tmp_path / "out" / "sweep.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == ("sweep_var,g2_a,g2_b,g2_c,g2_d,g3_a,g3_b,g3_c,g3_d,"
                       "g4_a,g4_b,g4_c,g4_d,case,boundary,g234_a,g234_b,g234_c,error")
    assert len(lines) == 1 + 5
    summary = json.loads((tmp_path / "out" / "sweep.summary.json").read_text())
    assert summary["schema"] == "g2sweep-v1"
    assert summary["warnings"] == []
    assert summary["config"]["preset"] == "A2"


def test_g2sweep_golden_determinism(tmp_path):
    cfg1 = write(tmp_path / "c1.yaml", SWEEP_CFG.format(out=tmp_path / "o1"))
    cfg2 = write(tmp_path / "c2.yaml", SWEEP_CFG.format(out=tmp_path / "o2"))
    assert main(["g2sweep", "--config", cfg1, "--threads", "1"]) == 0
    assert main(["g2sweep", "--config", cfg2, "--threads", "2"]) == 0
    b1 = (tmp_path / "o1" / "sweep.csv").read_bytes()
    b2 = (tmp_path / "o2" / "sweep.csv").read_bytes()
    assert b1 == b2


def test_malformed_config_no_partial_file(tmp_path):
    out = tmp_path / "out"
    cfg = write(tmp_path / "bad.yaml", f"""
preset: A2
sweep: {{variable: delta_smr, start: -1.0, stop: 1.0, count: 5}}
unknown_section: 1
output: {{directory: {out}, basename: bad}}
""")
    assert main(["g2sweep", "--config", cfg]) == 1
    assert not out.exists()


def test_unknown_preset_and_bad_yaml(tmp_path):
    cfg = write(tmp_path / "p.yaml", "preset: A9\nsweep: {variable: g, start: 0, stop: 1, count: 3}\n")
    assert main(["g2sweep", "--config", cfg]) == 1
    cfg = write(tmp_path / "y.yaml", "preset: [unclosed\n")
    assert main(["g2sweep", "--config", cfg]) == 1


def test_cli_overrides_and_json_format(tmp_path):
    cfg = write(tmp_path / "cfg.yaml", SWEEP_CFG.format(out=tmp_path / "out"))
    assert main(["g2sweep", "--config", cfg, "--override", "g=5.0",
                 "--override", "sweep.count=3", "--format", "json",
                 "--out", str(tmp_path / "alt")]) == 0
    data = json.loads((tmp_path / "alt" / "sweep.json").read_text())
    assert len(data["rows"]) == 3
    summary = json.loads((tmp_path / "alt" / "sweep.summary.json").read_text())
    assert summary["config"]["overrides"]["g"] == 5.0


def test_all_points_failing_exits_two(tmp_path):
    cfg = write(tmp_path / "cfg.yaml", f"""
params: {{kappa_a: 1.0, kappa_b: 1.0, gamma: 1.0}}
truncation: {{n_a_max: 2, n_b_max: 2}}
sweep: {{variable: g, start: 0.2, stop: 0.6, count: 2}}
output: {{directory: {tmp_path / 'out2'}, basename: dead}}
""")
    assert main(["g2sweep", "--config", cfg]) == 2


G_CFG = """
truncation: {{n_a_max: 3, n_b_max: 3}}
sweep: {{variable: g, values: [4.5]}}
orders: [2, 3]
output: {{directory: {out}, basename: drive}}
"""


def test_g2sweep_drives_the_photon_mode_of_a2(tmp_path):
    cfg = write(tmp_path / "cfg.yaml", G_CFG.format(out=tmp_path / "out"))
    assert main(["g2sweep", "--config", cfg, "--preset", "A2",
                 "--override", "eta_a=0.5", "--override", "eta_b=0"]) == 0
    lines = (tmp_path / "out" / "drive.csv").read_text().strip().splitlines()
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    p = preset_params("A2", g=4.5, eta_a=0.5, eta_b=0.0)
    rho, _ = solve_point(p, TruncationConfig(3, 3))
    assert row["g2_a"] == f"{g_k_zero(rho, 'a'):.11e}"
    assert row["error"] == ""


def test_g2sweep_leaves_negative_moments_empty(tmp_path):
    """At the weakest drives the four-boson moments lie below the steady
    state's accuracy and come out negative; those cells stay empty and are
    named in the row's error, and the stronger drives keep every cell."""
    cfg = write(tmp_path / "cfg.yaml", "preset: A2\noverrides: {g: 4.5}\n"
                "sweep: {variable: eta_b, values: [0.001, 0.003, 0.01, 0.03, 0.1]}\n"
                f"output: {{directory: {tmp_path}, basename: weak}}\n")
    assert main(["g2sweep", "--config", cfg, "--threads", "1"]) == 0
    with open(tmp_path / "weak.csv") as fh:
        rows = list(csv.DictReader(fh))
    cells = [f"g{k}_{m}" for k in (2, 3, 4) for m in "abcd"]
    for row in rows:
        assert all(float(row[c]) >= 0.0 for c in cells if row[c])
        assert all(f"{c}: " in row["error"] for c in cells if not row[c])
    for row in rows[:2]:
        assert row["g4_c"] == row["g4_d"] == ""
    for row in rows[2:]:
        assert all(row[c] for c in cells) and row["error"] == ""


def test_g2sweep_rejects_two_drives_at_every_point(tmp_path, capsys):
    cfg = write(tmp_path / "cfg.yaml", G_CFG.format(out=tmp_path / "out"))
    assert main(["g2sweep", "--config", cfg, "--preset", "A1",
                 "--override", "eta_b=0.3"]) == 2
    assert "ParameterError" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_g2tau_point_driving_the_photon_mode_of_a2(tmp_path):
    out = tmp_path / "out"
    cfg = write(tmp_path / "cfg.yaml", f"""
preset: A2
overrides: {{g: 4.5}}
truncation: {{n_a_max: 3, n_b_max: 3}}
points: [{{eta_a: 0.5, eta_b: 0.0}}]
tau: {{stop: 0.2, count: 21}}
output: {{directory: {out}, basename: tau}}
""")
    assert main(["g2tau", "--config", cfg]) == 0
    summary = json.loads((out / "tau.summary.json").read_text())
    assert summary["warnings"] == []
    lines = (out / "tau_p0.csv").read_text().strip().splitlines()
    first = dict(zip(lines[0].split(","), lines[1].split(",")))
    rho, _ = solve_point(preset_params("A2", g=4.5, eta_a=0.5, eta_b=0.0),
                         TruncationConfig(3, 3))
    assert float(first["g2_a"]) == pytest.approx(g_k_zero(rho, "a"), rel=1e-10)


def test_g2tau_tables_identical_for_one_and_two_workers(tmp_path):
    # four points, the last of which drives both modes and fails in its worker
    out = tmp_path / "out"
    cfg = write(tmp_path / "cfg.yaml", f"""
preset: A3
points: [{{g: 10.5}}, {{g: 7.35}}, {{g: 13.3}}, {{g: 7.7, eta_a: 0.1}}]
truncation: {{n_a_max: 2, n_b_max: 2}}
tau: {{stop: 0.3, count: 31}}
modes: [a, b, c, d]
output: {{directory: {out}, basename: tau}}
""")
    runs = []
    for threads in ("1", "2"):
        assert main(["g2tau", "--config", cfg, "--threads", threads]) == 0
        summary = json.loads((out / "tau.summary.json").read_text())
        assert summary["config"]["threads"] == int(threads)
        tables = [(out / f"tau_p{i}.csv").read_bytes() for i in range(3)]
        runs.append((tables, json.dumps(summary["points"])))
        for path in out.iterdir():
            path.unlink()
    assert runs[0] == runs[1]
    assert "error" in json.loads(runs[0][1])[3]


@pytest.mark.parametrize("command,body", [
    ("g2tau", "preset: A3\npoints: [{g: 10.5}, {g: 7.35}, {g: 13.3}]\n"
              "tau: {stop: 0.3, count: 31}\nmodes: [a, b]\n"),
    ("g2sweep", "preset: A2\nsweep: {variable: g, values: [4.0, 4.5, 5.0]}\n"),
    ("oracle-compare", "preset: A2\noverrides: {g: 4.5, kappa_a: 6.0, kappa_b: 6.0}\n"
                       "sweep: {variable: delta_smr, start: -1.0, stop: 1.0, count: 3, "
                       "resonant: true}\n"),
], ids=["g2tau", "g2sweep", "oracle-compare"])
def test_summary_records_workers_used(tmp_path, command, body):
    """Three points: unset threads run min(usable cores, 3) workers,
    --threads 1 one; the tables and the summary's results do not depend on
    the count."""
    out = tmp_path / "out"
    cfg = write(tmp_path / "cfg.yaml", body + "truncation: {n_a_max: 2, n_b_max: 2}\n"
                f"output: {{directory: {out}, basename: run}}\n")
    runs = []
    for flags, workers in (([], min(len(os.sched_getaffinity(0)), 3)), (["--threads", "1"], 1)):
        assert main([command, "--config", cfg] + flags) == 0
        summary = json.loads((out / "run.summary.json").read_text())
        assert summary["workers"] == workers
        runs.append(({p.name: p.read_bytes() for p in out.glob("*.csv")},
                     json.dumps({k: v for k, v in summary.items()
                                 if k not in ("config", "workers")})))
        for path in out.iterdir():
            path.unlink()
    assert runs[0] == runs[1]
    assert len(runs[0][0]) == (3 if command == "g2tau" else 1)


def test_g2tau_first_value_matches_g2_zero(tmp_path):
    out = tmp_path / "out"
    cfg = write(tmp_path / "cfg.yaml", f"""
preset: A2
overrides: {{g: 4.5}}
truncation: {{n_a_max: 3, n_b_max: 3}}
points: [{{}}]
tau: {{stop: 0.5, count: 51, unit: inv_gamma}}
modes: [a, b, c]
output: {{directory: {out}, basename: tau}}
""")
    assert main(["g2tau", "--config", cfg]) == 0
    lines = (out / "tau_p0.csv").read_text().strip().splitlines()
    assert lines[0] == "tau,g2_a,g2_b,g2_c"
    first = dict(zip(lines[0].split(","), lines[1].split(",")))
    rho, _ = solve_point(preset_params("A2", g=4.5), TruncationConfig(3, 3))
    assert float(first["tau"]) == 0.0
    for mode in ("a", "b", "c"):
        assert float(first[f"g2_{mode}"]) == pytest.approx(
            g_k_zero(rho, mode, 2), rel=1e-10)
    summary = json.loads((out / "tau.summary.json").read_text())
    assert summary["schema"] == "g2tau-v1"
    assert summary["points"][0]["dynamics_b"] is not None


def test_g2tau_in_microseconds_matches_inverse_gamma(tmp_path):
    """The same delays given in microseconds: the table keeps the
    microsecond grid, the curves and labels do not change, and each period
    is the 1/gamma one in microseconds."""
    stop, count = 3.0, 301
    runs = {}
    for unit, unit_stop in (("inv_gamma", stop), ("us", tau_to_us(stop))):
        cfg = write(tmp_path / f"{unit}.yaml", f"""
preset: A1
points: [{{f: 5.5, g: 1.2}}, {{g: 7.5}}]
truncation: {{n_a_max: 3, n_b_max: 3}}
tau: {{stop: {unit_stop!r}, count: {count}, unit: {unit}}}
modes: [a, b, c, d]
output: {{directory: {tmp_path / unit}, basename: tau}}
""")
        assert main(["g2tau", "--config", cfg, "--threads", "1"]) == 0
        summary = json.loads((tmp_path / unit / "tau.summary.json").read_text())
        tables = []
        for i in range(2):
            with open(tmp_path / unit / f"tau_p{i}.csv") as fh:
                tables.append(list(csv.DictReader(fh)))
        runs[unit] = summary["points"], tables
    us_grid = [f"{t:.11e}" for t in np.linspace(0.0, tau_to_us(stop), count)]
    (points_g, tables_g), (points_us, tables_us) = runs["inv_gamma"], runs["us"]
    for point_g, table_g, point_us, table_us in zip(points_g, tables_g, points_us, tables_us):
        assert [row["tau"] for row in table_us] == us_grid
        for row_g, row_us in zip(table_g, table_us):
            for m in "abcd":  # the CSV carries 12 significant digits
                assert float(row_us[f"g2_{m}"]) == pytest.approx(float(row_g[f"g2_{m}"]),
                                                                 rel=1e-11)
        for m in "abcd":
            assert point_us[f"dynamics_{m}"] == point_g[f"dynamics_{m}"]
            period_g, period_us = point_g[f"dominant_period_{m}"], point_us[f"dominant_period_{m}"]
            if period_g is None or period_us is None:
                assert period_g is period_us is None
            else:
                assert period_us == pytest.approx(tau_to_us(period_g), rel=1e-9)


def test_spectrum_manifolds_resonant_offsets(tmp_path):
    out = tmp_path / "out"
    cfg = write(tmp_path / "cfg.yaml", f"""
preset: A1
spectrum:
  kind: manifolds
  g: 7.5
  manifolds: [1, 2]
  frequencies: [1560.0, 1560.0]
  sweep: {{start: 1560.0, stop: 1561.0, count: 2}}
output: {{directory: {out}, basename: spec}}
""")
    assert main(["spectrum", "--config", cfg]) == 0
    lines = (out / "spec.csv").read_text().strip().splitlines()
    assert lines[0] == "sweep_var,m1_1,m1_2,m1_3,m2_1,m2_2,m2_3,m2_4,m2_5"
    row = [float(v) for v in lines[1].split(",")]
    m2 = np.array(row[4:]) - 2 * 1560.0
    assert np.allclose(m2, [-16.11725, -5.82965, 0.0, 5.82965, 16.11725], atol=1e-4)
    summary = json.loads((out / "spec.summary.json").read_text())
    assert summary["min_gaps"]["1"] > 0.0


def test_spectrum_distances_zero_touch(tmp_path):
    out = tmp_path / "out"
    cfg = write(tmp_path / "cfg.yaml", f"""
preset: A1
spectrum:
  kind: distances
  g: 7.58
  sweep: {{start: 5.0, stop: 15.0, count: 201}}
output: {{directory: {out}, basename: dist}}
""")
    assert main(["spectrum", "--config", cfg]) == 0
    lines = (out / "dist.csv").read_text().strip().splitlines()
    assert lines[0] == "sweep_var,d1,d2,d3,error"
    rows = [list(map(float, ln.split(",")[:4])) for ln in lines[1:]]
    d1 = np.array([r[1] for r in rows])
    grid = np.array([r[0] for r in rows])
    assert abs(grid[np.argmin(d1)] - 10.0) < 0.5
    assert d1.min() < 0.05


def test_oracle_compare_unequal_kappa(tmp_path):
    out = tmp_path / "out"
    cfg = write(tmp_path / "cfg.yaml", f"""
preset: A2
overrides: {{g: 4.5}}
truncation: {{n_a_max: 3, n_b_max: 3}}
sweep: {{variable: delta_smr, start: 1.0, stop: 2.0, count: 3, resonant: true}}
output: {{directory: {out}, basename: oc}}
""")
    assert main(["oracle-compare", "--config", cfg]) == 0
    lines = (out / "oc.csv").read_text().strip().splitlines()
    assert lines[0] == ("sweep_var,me_g2_a,me_g2_b,me_g2_c,"
                       "oracle_g2_a,oracle_g2_b,oracle_g2_c,me_error,oracle_error")
    for ln in lines[1:]:
        cells = ln.split(",")
        assert cells[1] != ""          # master-equation column intact
        assert "kappa" in ln           # oracle precondition error recorded
    summary = json.loads((out / "oc.summary.json").read_text())
    assert "extrema" in summary and summary["warnings"]


def test_gnuplot_helper(tmp_path):
    out = tmp_path / "out"
    cfg = write(tmp_path / "cfg.yaml", f"""
preset: A2
overrides: {{g: 4.5}}
truncation: {{n_a_max: 2, n_b_max: 2}}
sweep: {{variable: delta_smr, start: 0.0, stop: 1.0, count: 2, resonant: true}}
output: {{directory: {out}, basename: gp, gnuplot: true}}
""")
    assert main(["g2sweep", "--config", cfg]) == 0
    dat = (out / "gp.dat").read_text().splitlines()
    assert dat[0].startswith("# sweep_var")
    assert len(dat) == 3


G2TAU_BASE = "preset: A3\npoints: [{g: 10.5}]\ntruncation: {n_a_max: 2, n_b_max: 2}\n"
SPECTRUM_BASE = "preset: A1\nspectrum: {kind: distances, g: 7.5, sweep: "
G_SWEEP_BASE = "preset: A2\nsweep: {variable: g, values: [4.0, 4.5]}\n"
MANIFOLDS_BASE = ("preset: A1\nspectrum: {kind: manifolds, g: 7.5, "
                  "sweep: {start: 1560.0, stop: 1561.0, count: 2}, manifolds: ")


@pytest.mark.parametrize("command,body", [
    ("g2tau", G2TAU_BASE + "tau: {stop: 0.3, count: x}"),
    ("g2tau", G2TAU_BASE + "tau: {count: 4}"),
    ("g2tau", G2TAU_BASE + "tau: {stop: 0.3, count: 2.7}"),
    ("g2tau", G2TAU_BASE + "tau: {stop: -0.3, count: 4}"),
    ("g2tau", G2TAU_BASE + "tau: {stop: 0.3, count: 0}"),
    ("g2sweep", "preset: A2\nsweep: {variable: g, start: 0.2, stop: 1.0, count: x}"),
    ("spectrum", SPECTRUM_BASE + "{start: -1.0, stop: 1.0, count: x}}"),
    ("g2sweep", G_SWEEP_BASE + "truncation: {n_a_max: 1}"),
    ("g2sweep", G_SWEEP_BASE + "truncation: {n_a_max: five}"),
    ("g2sweep", G_SWEEP_BASE + "orders: 2"),
    ("g2sweep", G_SWEEP_BASE + "modes: 5"),
    ("g2tau", "preset: A3\npoints: [{g: x}]\ntau: {stop: 0.3, count: 4}"),
    ("g2sweep", "preset: A2\nsweep: {variable: g, values: [a, b]}"),
    ("g2sweep", "preset: A2\nsweep: {variable: omega_m, values: [1560.0, 1561.0]}"),
    ("g2sweep", "params: {kappa_a: -1}\nsweep: {variable: g, values: [4.0, 4.5]}"),
    ("oracle-compare", "params: {kappa_a: -1}\nsweep: {variable: g, values: [4.0, 4.5]}"),
    ("g2tau", G2TAU_BASE + "overrides: {kappa_b: -1.0}\ntau: {stop: 0.3, count: 4}"),
    ("g2tau", "preset: A3\npoints: [{kappa_a: -1.0}]\ntau: {stop: 0.3, count: 4}"),
    ("g2sweep", G_SWEEP_BASE + "output: {directory: 5}"),
    ("g2sweep", G_SWEEP_BASE + "output: {directory: OUT, basename: 5}"),
    ("g2sweep", "preset: A2\nsweep: {variable: g, stop: 1.0, count: 3}"),
    ("g2sweep --threads 0", G_SWEEP_BASE),
    ("g2sweep --threads -3", G_SWEEP_BASE),
    ("g2sweep", G_SWEEP_BASE + "threads: 0"),
    ("g2sweep", G_SWEEP_BASE + "output: {directory: OUT, gnuplot: 'no'}"),
    ("g2tau", G2TAU_BASE + "tau: {stop: 0.3, count: 4, unit: ms}"),
    ("spectrum", MANIFOLDS_BASE + "[]}"),
    ("spectrum", MANIFOLDS_BASE + "[0]}"),
    ("spectrum", MANIFOLDS_BASE + "[0, 1]}"),
    ("spectrum", MANIFOLDS_BASE + "[1, 1]}"),
    ("spectrum", SPECTRUM_BASE + "{start: -1.0, stop: 1.0, count: 3}, frequencies: [1500, 1600]}"),
    ("spectrum", SPECTRUM_BASE + "{start: -1.0, stop: 1.0, count: 3}, manifolds: [1, 2, 3]}"),
    ('g2sweep --override sweep.resonant="false"', G_SWEEP_BASE),
    ("g2sweep --override sweep.resonant=maybe", G_SWEEP_BASE),
    ("g2sweep --override sweep.resonant=[1]", G_SWEEP_BASE),
    ("g2tau", G2TAU_BASE + "tau: {stop: 0.3, count: 4}\nmodes: [a, a]"),
    ("g2sweep", G_SWEEP_BASE + "orders: [2, 2]"),
    ("spectrum", MANIFOLDS_BASE + "[1]}\nthreads: 3"),
    ("g2tau", "preset: A3\npoints: [{g: .nan}, {g: 10.5}]\ntau: {stop: 0.3, count: 4}"),
    ("g2sweep", "preset: A2\nsweep: {variable: g, values: [.nan, 4.0]}"),
    ("g2sweep --override g=.inf", G_SWEEP_BASE),
], ids=["tau.count=x", "no-tau.stop", "tau.count=2.7", "tau.stop<0", "tau.count=0",
        "sweep.count=x", "spectrum.sweep.count=x", "truncation.n_a_max=1",
        "truncation.n_a_max=five", "orders=2", "modes=5", "points.g=x", "sweep.values=[a,b]",
        "sweep.variable=omega_m", "params.kappa_a<0", "oracle.params.kappa_a<0",
        "overrides.kappa_b<0", "points.kappa_a<0", "output.directory=5", "output.basename=5",
        "sweep.start-missing", "--threads=0", "--threads=-3", "threads=0",
        "output.gnuplot=no", "tau.unit=ms", "spectrum.manifolds=[]",
        "spectrum.manifolds=[0]", "spectrum.manifolds=[0,1]", "spectrum.manifolds=[1,1]",
        "distances.frequencies", "distances.manifolds", 'sweep.resonant="false"',
        "sweep.resonant=maybe", "sweep.resonant=[1]", "modes=[a,a]", "orders=[2,2]",
        "spectrum.threads=3", "points.g=nan", "sweep.values=[nan,4]", "--override=g=inf"])
def test_bad_counts_and_tau_stop_are_config_errors(tmp_path, capsys, command, body):
    """``command`` is the subcommand and any flags before ``--config``."""
    out = tmp_path / "out"
    if "output:" not in body:  # a case with its own output section writes OUT for the directory
        body += "\noutput: {directory: OUT}"
    cfg = write(tmp_path / "cfg.yaml", body.replace("OUT", str(out)) + "\n")
    assert main(command.split() + ["--config", cfg]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_takes_no_threads_flag(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write(tmp_path / "cfg.yaml", MANIFOLDS_BASE + f"[1]}}\noutput: {{directory: {out}}}\n")
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--config", cfg, "--threads", "3"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


SHIPPED = Path(__file__).resolve().parents[1] / "configs"
SHIPPED_COMMANDS = {
    "dynamics_cases.yaml": "g2tau",
    "eight_cases_a2.yaml": "g2sweep",
    "hybrid_blockade_gsweep.yaml": "g2sweep",
    "manifold_spectra.yaml": "spectrum",
    "oracle_compare.yaml": "oracle-compare",
    "resonance_distances.yaml": "spectrum",
}


@pytest.mark.parametrize("name", sorted(p.name for p in SHIPPED.iterdir()))
def test_shipped_config_validates(name):
    """Every file in configs/ validates against its command's schema; a file
    missing from the table fails here."""
    assert load_config(str(SHIPPED / name), SHIPPED_COMMANDS[name], [], None)


def test_load_config_rejects_tau_unit(tmp_path):
    cfg = write(tmp_path / "cfg.yaml", G2TAU_BASE + "tau: {stop: 0.3, count: 4, unit: ms}\n")
    with pytest.raises(ConfigError, match="tau.unit"):
        load_config(cfg, "g2tau", [], None)


def _fresh_run(code: str) -> tuple[set, str]:
    """The scipy modules a fresh interpreter has loaded after running
    ``code``, and its standard error."""
    code += "\nimport sys\nprint(*sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split()), done.stderr


def test_import_spectrum_and_jump_free_sweeps_load_no_scipy(tmp_path):
    assert not _fresh_run("import polariton.cli")[0]
    run = "from polariton.cli import main\nassert main({!r}) == 0"
    spectrum = write(tmp_path / "spectrum.yaml",
                     MANIFOLDS_BASE + f"[1, 2]}}\noutput: {{directory: {tmp_path}}}\n")
    assert not _fresh_run(run.format(["spectrum", "--config", spectrum]))[0]
    sweep = write(tmp_path / "sweep.yaml", G_SWEEP_BASE + "truncation: {n_a_max: 2, n_b_max: 2}\n"
                  f"output: {{directory: {tmp_path}}}\n")
    for command in ("g2sweep", "oracle-compare"):
        loaded, log = _fresh_run("import logging\nlogging.basicConfig(level=logging.DEBUG)\n"
                                 + run.format([command, "--threads", "1", "--config", sweep]))
        assert "steady state via jump-free" in log and "via LU" not in log
        assert not loaded, (command, loaded)


def test_g2tau_run_loads_scipy_sparse_only(tmp_path):
    config = write(tmp_path / "tau.yaml", G2TAU_BASE + "tau: {stop: 0.3, count: 4}\n"
                   f"output: {{directory: {tmp_path}}}\n")
    loaded, log = _fresh_run("import logging\nlogging.basicConfig(level=logging.DEBUG)\n"
                             "from polariton.cli import main\nassert main({!r}) == 0".format(
                                 ["g2tau", "--threads", "1", "--config", config]))
    assert "steady state via jump-free" in log and "via LU" not in log
    assert "propagated 4 samples on the real form" in log
    assert "scipy.sparse" in loaded
    assert not [m for m in loaded if m.startswith(("scipy.integrate", "scipy.linalg",
                                                   "scipy.sparse.linalg", "scipy.optimize"))]


def test_every_traced_name_resolves():
    """bench/spans.py times these functions by name: a name that no longer
    resolves would leave its layer's spans at zero."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    import polariton.cli  # noqa: F401  loads every traced module
    missing = []
    for module, attribute, _ in spans.TRACED:
        owner = sys.modules[module]
        try:
            for part in attribute.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            missing.append(f"{module}.{attribute}")
    assert spans.TRACED and not missing, missing
