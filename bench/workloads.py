"""The four workloads: their inputs, how their points are counted, and the
checks of their outputs against the reference physics in ``physics``.

Each workload writes its run configurations (derived from the shipped
``configs/``) into a run directory; a round runs every command of the
workload once through ``polariton.cli.main``.  Checks read the files the
last round wrote and return a list of problems (empty when correct); they
examine only points that did not fail.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import yaml

import physics as ph

#: Relative tolerance for zero-delay correlations against the reference state.
G_RTOL = 1e-6
#: Tolerance for g2(tau) against the reference propagation, |diff| / max(1, |g2|).
TAU_TOL = 1e-5
#: Relative tolerance for the oracle's g2_b against the closed forms.
ORACLE_RTOL = 1e-9

#: (g2_a, g2_b, g2_c) sign pattern -> case number (1 = all sub-Poissonian).
_CASES = {(-1, -1, -1): 1, (-1, -1, 1): 2, (-1, 1, -1): 3, (1, -1, -1): 4,
          (-1, 1, 1): 5, (1, -1, 1): 6, (1, 1, -1): 7, (1, 1, 1): 8}


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _rel(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)


class Workload:
    """Inputs, accounting and checks of one workload."""

    name = ""
    cutoff = 5
    #: Pool workers of the sweep commands (the base of parallel_efficiency).
    workers = 1

    def __init__(self, root: Path, rundir: Path, cutoff: int | None = None):
        self.root = root
        self.rundir = rundir
        self.out = rundir / "out"
        if cutoff is not None:
            self.cutoff = cutoff
        self.configs: list[tuple[str, Path]] = []

    def shipped(self, name: str) -> dict:
        return yaml.safe_load((self.root / "configs" / name).read_text())

    def add_config(self, command: str, basename: str, config: dict):
        config["output"] = {"directory": str(self.out), "basename": basename}
        path = self.rundir / f"{basename}.yaml"
        path.write_text(yaml.safe_dump(config, sort_keys=False))
        self.configs.append((command, path))

    def truncation(self) -> dict:
        return {"n_a_max": self.cutoff, "n_b_max": self.cutoff}

    def commands(self) -> list[list[str]]:
        return [[command, "--config", str(path)] for command, path in self.configs]

    def prepare(self):
        """Write the run configurations into the run directory."""
        raise NotImplementedError

    def points(self) -> int:
        """Operating points one round attempts."""
        raise NotImplementedError

    def failed(self, ok: list[bool]) -> int:
        """Points of the last round that failed; ``ok[i]``: command i exited 0."""
        raise NotImplementedError

    def check(self, rng: np.random.Generator) -> list[str]:
        raise NotImplementedError

    def check_state(self, system: ph.System, where: str) -> tuple[np.ndarray | None, list[str]]:
        """Reference steady state of ``system`` and any problems certifying it."""
        try:
            rho = system.steady_state()
        except RuntimeError as exc:
            return None, [f"{where}: reference steady state: {exc}"]
        return rho, [f"{where}: reference state {p}" for p in system.certify(rho)]


class Sweep(Workload):
    """Shared accounting of the one-command sweeps (one CSV row per point)."""

    basename = ""
    error_columns: tuple[str, ...] = ()

    def grid(self) -> np.ndarray:
        raise NotImplementedError

    def points(self) -> int:
        return len(self.grid())

    def rows(self) -> list[dict]:
        path = self.out / f"{self.basename}.csv"
        return read_rows(path) if path.exists() else []

    def good_rows(self) -> list[dict]:
        return [r for r in self.rows() if not any(r[c] for c in self.error_columns)]

    def failed(self, ok: list[bool]) -> int:
        if not ok[0]:
            return self.points()
        return self.points() - len(self.good_rows())

    def grid_problems(self, rows: list[dict]) -> list[str]:
        xs = np.array([float(r["sweep_var"]) for r in rows])
        if len(xs) != len(self.grid()) or not np.allclose(xs, np.sort(self.grid()), atol=1e-12):
            return [f"rows cover {len(xs)} points, not the {len(self.grid())}-point grid in order"]
        return []


class GSweep(Sweep):
    """g2sweep of the A2 coupling window across the case-7 / case-4 boundary."""

    name = "gsweep-c5"
    workers = 2
    basename = "gsweep"
    error_columns = ("error",)
    #: Sub-grid of the shipped g grid: five case-7 points, then three case-4.
    values = (2.6, 3.4, 4.2, 5.0, 5.6, 5.8, 6.6, 7.4)
    sweep_variable = "g"
    #: Points whose correlations are recomputed, drawn by the seed.
    verified = 4

    def prepare(self):
        config = self.shipped("hybrid_blockade_gsweep.yaml")
        config["sweep"] = {"variable": self.sweep_variable, "values": list(self.values)}
        config["truncation"] = self.truncation()
        self.base = ph.params(config["preset"], **config.get("overrides", {}))
        self.modes, self.orders = config["modes"], config["orders"]
        self.add_config("g2sweep", self.basename, config)

    def grid(self) -> np.ndarray:
        return np.array(self.values)

    def check(self, rng):
        rows = self.rows()
        problems = self.grid_problems(rows)
        good = [r for r in rows if not r["error"]]
        for r in good:
            signs = tuple(int(np.sign(float(r[f"g2_{m}"]) - 1.0)) for m in "abc")
            if r["case"] != str(_CASES.get(signs, "")):
                problems.append(f"g={r['sweep_var']}: case {r['case']!r} but signs {signs}")
        if len(good) == len(self.grid()):
            cases = [r["case"] for r in good]
            window = [i for i, c in enumerate(cases) if c == "7"]
            beyond = [i for i, c in enumerate(cases) if c == "4"]
            if len(window) < 2 or not beyond or max(window) > min(beyond):
                problems.append(f"no case-7 window followed by case 4 along g: {cases}")
        for i in sorted(rng.choice(len(good), size=min(self.verified, len(good)), replace=False)):
            r = good[i]
            where = f"g={r['sweep_var']}"
            system = ph.System({**self.base, self.sweep_variable: float(r["sweep_var"])},
                               self.cutoff)
            rho, found = self.check_state(system, where)
            problems += found
            if rho is None:
                continue
            for m in self.modes:
                for k in self.orders:
                    ref = system.g_k(rho, m, k)
                    if _rel(float(r[f"g{k}_{m}"]), ref) > G_RTOL:
                        problems.append(f"{where}: g{k}_{m} {r[f'g{k}_{m}']} != reference {ref:.12e}")
        return problems


class OracleSweep(Sweep):
    """oracle-compare of the equal-decay A2 detuning sweep at a low cutoff."""

    name = "oracle-c3"
    cutoff = 3
    workers = 2
    basename = "oracle"
    error_columns = ("me_error", "oracle_error")
    #: Points whose master-equation columns are recomputed, drawn by the seed.
    verified = 12

    def prepare(self):
        config = self.shipped("oracle_compare.yaml")
        config["truncation"] = self.truncation()
        self.sweep = config["sweep"]
        self.base = ph.params(config["preset"], **config.get("overrides", {}))
        self.add_config("oracle-compare", self.basename, config)

    def grid(self) -> np.ndarray:
        return np.linspace(self.sweep["start"], self.sweep["stop"], self.sweep["count"])

    def at(self, x: float) -> dict:
        return {**self.base, "delta_a": x, "delta_b": x, "delta_q": x}

    def check(self, rng):
        rows = self.rows()
        problems = self.grid_problems(rows)
        for r in rows:
            if r["oracle_error"]:
                continue
            ref = ph.closed_form_g2_b(self.at(float(r["sweep_var"])))
            if _rel(float(r["oracle_g2_b"]), ref) > ORACLE_RTOL:
                problems.append(f"x={r['sweep_var']}: oracle_g2_b {r['oracle_g2_b']} "
                                f"!= closed form {ref:.12e}")
        good = self.good_rows()
        if len(good) == len(self.grid()):
            xs = np.array([float(r["sweep_var"]) for r in good])
            step = float(xs[1] - xs[0])
            for side in (1.0, -1.0):
                lo, hi = sorted((side * step, side * float(np.abs(xs).max())))
                dip = ph.closed_form_dip(self.base, lo, hi)
                mask = (xs >= lo) & (xs <= hi)
                for key in ("me_g2_b", "oracle_g2_b"):
                    ys = np.array([float(r[key]) for r in good])[mask]
                    found = xs[mask][int(np.argmin(ys))]
                    if abs(found - dip) > step * (1 + 1e-9):
                        problems.append(f"{key} dip at {found} is more than one step "
                                        f"from the closed-form dip {dip:.5f}")
        for i in sorted(rng.choice(len(good), size=min(self.verified, len(good)), replace=False)):
            r = good[i]
            where = f"x={r['sweep_var']}"
            system = ph.System(self.at(float(r["sweep_var"])), self.cutoff)
            rho, found = self.check_state(system, where)
            problems += found
            if rho is None:
                continue
            for m in "abc":
                ref = system.g_k(rho, m, 2)
                if _rel(float(r[f"me_g2_{m}"]), ref) > G_RTOL:
                    problems.append(f"{where}: me_g2_{m} {r[f'me_g2_{m}']} != reference {ref:.12e}")
        return problems


class G2Tau(Workload):
    """g2tau at the four A3 dynamics-case couplings and the A1 oscillation point."""

    name = "g2tau-c5"
    tau = {"stop": 6.0, "count": 1201, "unit": "inv_gamma"}
    modes = ["a", "b", "c", "d"]
    #: Phonon-mode dynamics case each A3 coupling realises (its bundle's name).
    a3_cases = {10.5: "I", 7.35: "II", 13.3: "III", 7.7: "IV"}
    a1_point = {"f": 5.5, "g": 1.2}

    def prepare(self):
        a3 = self.shipped("dynamics_cases.yaml")
        a1 = {"preset": "A1", "points": [dict(self.a1_point)]}
        self.runs = []
        for basename, config in (("a3", a3), ("a1", a1)):
            config.update(tau=dict(self.tau), modes=list(self.modes), truncation=self.truncation())
            self.runs.append((basename, config["preset"], config.get("overrides", {}),
                              config["points"]))
            self.add_config("g2tau", basename, config)

    def points(self) -> int:
        return sum(len(points) for _, _, _, points in self.runs)

    def summary(self, basename: str) -> dict | None:
        """Summary of a g2tau command; the CLI writes none when it fails."""
        path = self.out / f"{basename}.summary.json"
        return json.loads(path.read_text()) if path.exists() else None

    def failed(self, ok):
        del ok  # a command that fails writes no summary
        failed = 0
        for basename, _, _, points in self.runs:
            summary = self.summary(basename)
            failed += len(points) if summary is None else sum("error" in p for p in summary["points"])
        return failed

    def check(self, rng):
        problems = []
        grid = np.linspace(0.0, self.tau["stop"], self.tau["count"])
        for basename, preset, overrides, points in self.runs:
            summary = self.summary(basename)
            if summary is None:
                continue
            for i, (point, info) in enumerate(zip(points, summary["points"])):
                if "error" in info:
                    continue
                where = f"{basename} point {i}"
                if preset == "A3":
                    label = (info.get("dynamics_b") or {}).get("case")
                    expected = self.a3_cases.get(point.get("g"))
                    if label != expected:
                        problems.append(f"{where}: phonon dynamics case {label}, expected {expected}")
                rows = read_rows(self.out / f"{basename}_p{i}.csv")
                taus = np.array([float(r["tau"]) for r in rows])
                if len(taus) != len(grid) or not np.allclose(taus, grid, atol=1e-12):
                    problems.append(f"{where}: tau grid differs from [0, {self.tau['stop']}]")
                    continue
                system = ph.System(ph.params(preset, **overrides, **point), self.cutoff)
                rho, found = self.check_state(system, where)
                problems += found
                if rho is None:
                    continue
                for m in self.modes:
                    ref = system.g_k(rho, m, 2)
                    if _rel(float(rows[0][f"g2_{m}"]), ref) > G_RTOL:
                        problems.append(f"{where}: g2_{m}(0) {rows[0][f'g2_{m}']} != {ref:.12e}")
                mode = str(rng.choice(self.modes))
                picks = np.sort(rng.choice(np.arange(1, len(grid)), size=3, replace=False))
                refs = system.g2_tau(rho, mode, grid[picks])
                for j, ref in zip(picks, refs):
                    value = float(rows[j][f"g2_{mode}"])
                    if abs(value - ref) > TAU_TOL * max(1.0, abs(ref)):
                        problems.append(f"{where}: g2_{mode}({grid[j]:.4g}) {value} "
                                        f"!= propagated {ref:.10e}")
        return problems


class Spectrum(Workload):
    """Both spectrum sweeps of the photon-driven A1 system (no Liouvillian)."""

    name = "spectrum"

    def prepare(self):
        self.manifolds = self.shipped("manifold_spectra.yaml")
        self.distances = self.shipped("resonance_distances.yaml")
        self.add_config("spectrum", "manifolds", self.manifolds)
        self.add_config("spectrum", "distances", self.distances)

    def points(self) -> int:
        return sum(c["spectrum"]["sweep"]["count"] for c in (self.manifolds, self.distances))

    def failed(self, ok):
        failed = 0 if ok[0] else self.manifolds["spectrum"]["sweep"]["count"]
        if not ok[1]:
            return failed + self.distances["spectrum"]["sweep"]["count"]
        return failed + sum(1 for r in read_rows(self.out / "distances.csv") if r["error"])

    def lines(self, config: dict, omega_m: float | None = None) -> np.ndarray:
        p, (omega_smr, preset_m, omega_q) = ph.PRESETS[config["preset"]]
        if "frequencies" in config["spectrum"]:
            omega_smr, omega_q = config["spectrum"]["frequencies"]
        return ph.single_excitation_lines(omega_smr, preset_m if omega_m is None else omega_m,
                                          omega_q, config["spectrum"]["g"], p["f"])

    def check(self, rng):
        del rng  # both sweeps are cheap enough to verify at every point
        problems = []
        if (self.out / "manifolds.csv").exists():
            for r in read_rows(self.out / "manifolds.csv"):
                ref = self.lines(self.manifolds, float(r["sweep_var"]))
                got = np.array([float(r[f"m1_{i}"]) for i in (1, 2, 3)])
                if np.any(np.abs(got - ref) > 1e-10 * np.abs(ref)):
                    problems.append(f"omega_m={r['sweep_var']}: manifold 1 {got} != {ref}")
            gaps = json.loads((self.out / "manifolds.summary.json").read_text())["min_gaps"]
            if not gaps or min(gaps.values()) <= 0:
                problems.append(f"min_gaps not all positive: {gaps}")
        if (self.out / "distances.csv").exists():
            ref_lines = self.lines(self.distances)
            omega_smr = ph.PRESETS[self.distances["preset"]][1][0]
            for r in read_rows(self.out / "distances.csv"):
                if r["error"]:
                    continue
                omega_p = omega_smr - float(r["sweep_var"])
                ref = float(np.min(np.abs(omega_p - ref_lines)))
                if abs(math.sqrt(float(r["d1"])) - ref) > 1e-7:
                    problems.append(f"delta={r['sweep_var']}: d1 {r['d1']} != {ref ** 2:.12e}")
        return problems


WORKLOADS = {w.name: w for w in (GSweep, OracleSweep, G2Tau, Spectrum)}
