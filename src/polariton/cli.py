"""Command-line front end: validated run configs, CSV data, JSON summaries.

Subcommands map one-to-one onto the analysis pipelines:

    g2sweep         zero-delay correlations and case labels along a sweep
    g2tau           delay-time curves + dynamics labels per operating point
    spectrum        manifold frequencies or pump-resonance distances
    oracle-compare  master equation vs weak-drive oracle along a sweep

Configs are YAML (or JSON) mappings validated against an explicit schema;
unknown keys are rejected before any computation starts.  Data files are
CSV with values in scientific notation at 12 significant digits; each run
also writes ``<basename>.summary.json`` carrying the schema tag, the fully
resolved configuration, the package version, and any warnings.  Exit codes:
0 success (also success-with-warnings), 1 config error, 2 numerical failure
affecting every point.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import __version__
from .correlations import dominant_period, sign_pattern
from .errors import ConfigError, InsufficientDataError, ParameterError, PolaritonError
from .hilbert import TruncationConfig
from .model import MODES, SystemParams, tau_to_us
from .scenarios import (DEFAULT_ORDERS, PRESETS, SweepSpec, check_one_drive, compare_oracle,
                        pool_workers, resonance_distance_sweep, run_g2tau, run_sweep,
                        spectrum_sweep)
from .spectrum import minimum_gap

_PARAM_FIELDS = tuple(f.name for f in dataclasses.fields(SystemParams))

_SWEEP_KEYS = {"variable", "start", "stop", "count", "values", "resonant"}
_SCHEMAS = {
    "g2sweep": {"preset", "params", "overrides", "truncation", "sweep", "modes",
                "orders", "output", "threads"},
    "g2tau": {"preset", "params", "overrides", "truncation", "points", "tau",
              "modes", "output", "threads"},
    "spectrum": {"preset", "spectrum", "output"},
    "oracle-compare": {"preset", "params", "overrides", "truncation", "sweep",
                       "output", "threads"},
}
_OUTPUT_KEYS = {"directory", "basename", "format", "gnuplot"}
_TRUNCATION_KEYS = {"n_a_max", "n_b_max"}
_TAU_KEYS = {"stop", "count", "unit"}
_SPECTRUM_KEYS = {"kind", "g", "manifolds", "sweep", "frequencies"}


def _fmt(value) -> str:
    """Fixed scientific notation, 12 significant digits; empty for missing."""
    if isinstance(value, float):  # the common cell, np.float64 included
        return f"{value:.11e}" if math.isfinite(value) else ""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return _fmt(float(value))


def _check_keys(mapping: dict, allowed: set, where: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(mapping).__name__}")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")


def _check_number(value, where: str) -> float:
    # NaN fails the comparison, and an integer is compared exactly
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _check_count(value, where: str, minimum: int = 1):
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{where}: expected an integer >= {minimum}, got {value!r}")


def _check_list(value, where: str, check=None) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list, got {value!r}")
    for i, item in enumerate(value if check else []):
        check(item, f"{where}[{i}]")
    return value


def _check_nonempty_unique(items: list, where: str):
    if not items:
        raise ConfigError(f"{where}: expected a non-empty list")
    if len(set(items)) != len(items):
        raise ConfigError(f"{where}: duplicate entries in {items}")


def _check_numbers(mapping: dict, allowed: set, where: str):
    _check_keys(mapping, allowed, where)
    for key, val in mapping.items():
        _check_number(val, f"{where}.{key}")


def load_config(path: Optional[str], command: str, cli_overrides: list[str],
                preset: Optional[str]) -> dict:
    """Read, merge, and schema-validate a run configuration."""
    config: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        try:
            loaded = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config {path} is not valid YAML/JSON: {exc}")
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {path} must be a mapping at top level")
        config = loaded
    if preset is not None:
        config["preset"] = preset
    for item in cli_overrides:
        if "=" not in item:
            raise ConfigError(f"--override needs KEY=VALUE, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError:
            value = raw
        target = config
        parts = key.split(".") if "." in key else ["overrides", key]
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ConfigError(f"--override path {key!r} collides with a scalar")
        target[parts[-1]] = value
    _validate(config, command)
    return config


def _validate(config: dict, command: str):
    _check_keys(config, _SCHEMAS[command], command)
    if "preset" in config and "params" in config:
        raise ConfigError("give either preset or params, not both")
    if "preset" in config:
        if config["preset"] not in PRESETS:
            raise ConfigError(f"unknown preset {config['preset']!r}; "
                              f"available: {sorted(PRESETS)}")
    elif command == "spectrum":
        raise ConfigError("spectrum requires a preset (for the lab-frame frequencies)")
    elif "params" not in config:
        raise ConfigError("config needs a preset or explicit params")
    if "params" in config:
        _check_numbers(config["params"], set(_PARAM_FIELDS), "params")
    if "overrides" in config:
        _check_numbers(config["overrides"], set(_PARAM_FIELDS), "overrides")
    if "truncation" in config:
        _check_keys(config["truncation"], _TRUNCATION_KEYS, "truncation")
        for key, val in config["truncation"].items():
            _check_count(val, f"truncation.{key}", minimum=2)
    if "sweep" in config:
        sweep = config["sweep"]
        _check_keys(sweep, _SWEEP_KEYS, "sweep")
        if "variable" not in sweep:
            raise ConfigError("sweep.variable is required")
        if "values" in sweep:  # the grid is either the values or a range
            if sweep.keys() & {"start", "stop", "count"}:
                raise ConfigError("sweep: give either values or start, stop and count, not both")
            _check_list(sweep["values"], "sweep.values", _check_number)
        else:
            for key in ("start", "stop", "count"):
                if key not in sweep:
                    raise ConfigError(f"sweep.{key} is required when no explicit values are given")
            _check_number(sweep["start"], "sweep.start")
            _check_number(sweep["stop"], "sweep.stop")
            _check_count(sweep["count"], "sweep.count", minimum=2)
        if not isinstance(sweep.get("resonant", False), bool):
            raise ConfigError("sweep.resonant must be true or false")
    elif command in ("g2sweep", "oracle-compare"):
        raise ConfigError(f"{command} requires a sweep section")
    if "tau" in config:
        _check_keys(config["tau"], _TAU_KEYS, "tau")
        stop = _check_number(config["tau"].get("stop"), "tau.stop")
        if not 0 < stop < np.inf:
            raise ConfigError(f"tau.stop: expected a finite number > 0, got {stop!r}")
        _check_count(config["tau"].get("count"), "tau.count", minimum=2)
        if config["tau"].get("unit", "inv_gamma") not in ("inv_gamma", "us"):
            raise ConfigError(f"tau.unit must be inv_gamma or us, got {config['tau']['unit']!r}")
    elif command == "g2tau":
        raise ConfigError("g2tau requires a tau section ({stop, count, unit})")
    if command == "g2tau" and not config.get("points"):
        raise ConfigError("g2tau requires a non-empty points list")
    _check_list(config.get("points", []), "points",
                lambda point, where: _check_numbers(point, set(_PARAM_FIELDS), where))
    if "spectrum" in config:
        spec = config["spectrum"]
        _check_keys(spec, _SPECTRUM_KEYS, "spectrum")
        _check_number(spec.get("g", 0.0), "spectrum.g")
        if spec.get("kind") not in ("manifolds", "distances"):
            raise ConfigError("spectrum.kind must be 'manifolds' or 'distances'")
        if spec["kind"] == "distances":  # the distances use manifolds 1-3 at preset frequencies
            _check_keys(spec, _SPECTRUM_KEYS - {"manifolds", "frequencies"},
                        "spectrum with kind 'distances'")
        sweep = spec.get("sweep", {})
        _check_keys(sweep, {"start", "stop", "count"}, "spectrum.sweep")
        for key in ("start", "stop"):
            _check_number(sweep.get(key), f"spectrum.sweep.{key}")
        _check_count(sweep.get("count"), "spectrum.sweep.count")
        _check_nonempty_unique(_check_list(spec.get("manifolds", [1, 2, 3]), "spectrum.manifolds",
                                           _check_count), "spectrum.manifolds")
        freqs = spec.get("frequencies", [0.0, 0.0])
        if len(_check_list(freqs, "spectrum.frequencies", _check_number)) != 2:
            raise ConfigError("spectrum.frequencies must be [omega_smr, omega_q]")
    elif command == "spectrum":
        raise ConfigError("spectrum requires a spectrum section")
    if "output" in config:
        _check_keys(config["output"], _OUTPUT_KEYS, "output")
        if not all(isinstance(config["output"].get(k, ""), str) for k in ("directory", "basename")):
            raise ConfigError("output.directory and output.basename must be strings")
        fmt = config["output"].get("format", "csv")
        if fmt not in ("csv", "json"):
            raise ConfigError(f"output.format must be csv or json, got {fmt!r}")
        if not isinstance(config["output"].get("gnuplot", False), bool):
            raise ConfigError("output.gnuplot must be true or false")
    # the g2sweep-v1 table has columns for these modes and orders only
    for key, allowed in (("modes", MODES), ("orders", DEFAULT_ORDERS)):
        if key in config:
            bad = [v for v in _check_list(config[key], key)
                   if type(v) is not type(allowed[0]) or v not in allowed]
            if bad:
                raise ConfigError(f"{key} {bad} outside the allowed set {list(allowed)}")
            _check_nonempty_unique(config[key], key)
    _check_count(config.get("threads", 1), "threads")


def _base_params(config: dict) -> SystemParams:
    """The preset's parameters, or else the explicit params, with the overrides applied."""
    base = (PRESETS[config["preset"]].params if "preset" in config
            else SystemParams(**config["params"]))
    return base.with_(**config.get("overrides", {}))


def _sweep_spec(config: dict) -> SweepSpec:
    s = config["sweep"]
    grid = s["values"] if "values" in s else np.linspace(
        float(s["start"]), float(s["stop"]), s["count"]).tolist()
    try:
        return SweepSpec(swept=str(s["variable"]), grid=tuple(float(x) for x in grid),
                         base=_base_params(config), resonant=s.get("resonant", False),
                         truncation=TruncationConfig(**config.get("truncation", {})),
                         modes=tuple(config.get("modes", MODES)),
                         orders=tuple(config.get("orders", DEFAULT_ORDERS)))
    except ParameterError as exc:
        raise ConfigError(str(exc))


class _OutputWriter:
    """Writes tables as CSV/JSON (+ optional gnuplot .dat) files, and the summary."""

    def __init__(self, config: dict, default_basename: str):
        out = config.get("output", {})
        self.directory = Path(out.get("directory", "."))
        self.basename = out.get("basename", default_basename)
        self.format = out.get("format", "csv")
        self.gnuplot = out.get("gnuplot", False)
        self.written: list[str] = []

    def path(self, suffix: str) -> Path:
        return self.directory / f"{self.basename}{suffix}"

    def write_table(self, header: list[str], rows: list[list], suffix: str = ""):
        """Write ``rows``, each a list of cells in ``header`` order."""
        self.directory.mkdir(parents=True, exist_ok=True)
        cells = [[_fmt(value) for value in row] for row in rows]
        if self.format == "csv":
            buffer = io.StringIO()
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(cells)
            path = self.path(suffix + ".csv")
            path.write_text(buffer.getvalue())
        else:
            path = self.path(suffix + ".json")
            path.write_text(json.dumps(
                {"columns": header, "rows": cells}, indent=1) + "\n")
        self.written.append(str(path))
        if self.gnuplot:
            # whitespace-separated numeric columns; free-text cells collapse
            # to single tokens so the column count stays stable
            def token(cell: str) -> str:
                if not cell:
                    return "nan"
                return "_".join(cell.split()).replace(",", ";")

            dat = "# " + " ".join(header) + "\n" + "\n".join(
                " ".join(token(c) for c in r) for r in cells) + "\n"
            gp = self.path(suffix + ".dat")
            gp.write_text(dat)
            self.written.append(str(gp))

    def write_summary(self, schema: str, config: dict, warnings: list[str], extra: dict):
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": schema,
            "version": __version__,
            "config": config,
            "warnings": warnings,
            "files": self.written,
        }
        payload.update(extra)
        path = self.path(".summary.json")
        path.write_text(json.dumps(payload, indent=1, default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serialisable: {type(obj)}")


_G2SWEEP_HEADER = (["sweep_var"]
                   + [f"g{k}_{m}" for k in DEFAULT_ORDERS for m in MODES]
                   + ["case", "boundary", "g234_a", "g234_b", "g234_c", "error"])


def _cmd_g2sweep(config: dict) -> int:
    spec = _sweep_spec(config)
    result = run_sweep(spec, config.get("threads"))
    writer = _OutputWriter(config, "g2sweep")
    failed = int(result.failed.sum())
    if failed == len(result.x):
        print(f"error: every sweep point failed; first error: {result.errors[0]}",
              file=sys.stderr)
        return 2
    rows = []
    for x, g, stat, error in zip(result.x.tolist(), result.g, result.statistics(),
                                 result.errors):
        g234 = [sign_pattern(v)[1] if np.isfinite(v).all() else None
                for v in g[:, :3].T.tolist()]  # modes a, b, c
        label = (None, None) if stat is None else (stat.case, stat.boundary)
        rows.append([x, *g.ravel().tolist(), *label, *g234, error])
    writer.write_table(_G2SWEEP_HEADER, rows)
    warnings = [f"{failed} of {len(rows)} points failed"] if failed else []
    writer.write_summary("g2sweep-v1", config, warnings, {
        "cases_found": sorted(result.cases()),
        "n_rows": len(rows),
        "workers": result.workers,
    })
    return 0


def _cmd_g2tau(config: dict) -> int:
    unit = config["tau"].get("unit", "inv_gamma")
    grid = np.linspace(0.0, float(config["tau"]["stop"]), config["tau"]["count"])
    # the library works in 1/gamma; the table and the periods keep the config's unit
    grid_inv_gamma = grid if unit == "inv_gamma" else grid * (1.0 / tau_to_us(1.0))
    modes = tuple(config.get("modes", ("a", "b", "c")))
    try:
        base = _base_params(config)
        points = [base.with_(**point) for point in config["points"]]
        for p in points:
            check_one_drive(p)
    except ParameterError as exc:
        raise ConfigError(str(exc))
    results = run_g2tau(points, TruncationConfig(**config.get("truncation", {})), grid_inv_gamma,
                        modes, config.get("threads"))
    writer = _OutputWriter(config, "g2tau")
    summary_points = []
    warnings: list[str] = []
    for i, (point, result) in enumerate(zip(config["points"], results)):
        if isinstance(result, PolaritonError):
            warnings.append(f"point {i} failed: {type(result).__name__}: {result}")
            summary_points.append({"point": point, "error": str(result)})
            continue
        curves, labels = result
        writer.write_table(["tau"] + [f"g2_{m}" for m in modes],
                           np.column_stack([grid, curves.T]).tolist(), suffix=f"_p{i}")
        info: dict = {"point": point, "file": writer.written[-1]}
        for m, curve, label in zip(modes, curves, labels):
            info[f"dynamics_{m}"] = dataclasses.asdict(label) if label else None
            try:
                info[f"dominant_period_{m}"] = dominant_period(grid, curve)
            except InsufficientDataError:
                info[f"dominant_period_{m}"] = None
        summary_points.append(info)
    if len(warnings) == len(results):
        print(f"error: every operating point failed; first: {warnings[0]}", file=sys.stderr)
        return 2
    writer.write_summary("g2tau-v1", config, warnings, {
        "points": summary_points, "tau_unit": unit,
        "workers": pool_workers(config.get("threads"), len(points))})
    return 0


def _cmd_spectrum(config: dict) -> int:
    s = config["spectrum"]
    sweep = s["sweep"]
    grid = np.linspace(float(sweep["start"]), float(sweep["stop"]), sweep["count"])
    g = float(s.get("g", 0.0))
    writer = _OutputWriter(config, "spectrum")
    if s["kind"] == "manifolds":
        manifolds = tuple(int(n) for n in s.get("manifolds", (1, 2, 3)))
        freqs = s.get("frequencies")
        spectra = spectrum_sweep(config["preset"], g, grid, manifolds,
                                 frequencies=tuple(map(float, freqs)) if freqs else None)
        header = ["sweep_var"] + [f"m{n}_{i + 1}" for n in manifolds
                                  for i in range(spectra[n].shape[1])]
        table = np.column_stack([grid] + [spectra[n] for n in manifolds])
        writer.write_table(header, table.tolist())
        writer.write_summary("spectrum-manifolds-v1", config, [], {
            "min_gaps": {str(n): minimum_gap(spectra[n]) for n in manifolds}})
    else:
        d = resonance_distance_sweep(config["preset"], g, grid)
        writer.write_table(["sweep_var", "d1", "d2", "d3", "error"],
                           [row + [""] for row in np.column_stack([grid, d.T]).tolist()])
        writer.write_summary("spectrum-distances-v1", config, [], {
            "d1_min_at": float(grid[np.argmin(d[0])])})
    return 0


def _cmd_oracle_compare(config: dict) -> int:
    spec = _sweep_spec(config)
    result = compare_oracle(spec, config.get("threads"))
    sweep = result.sweep
    writer = _OutputWriter(config, "oracle_compare")
    me_failed = int(sweep.failed.sum())
    oracle_failed = sum(1 for error in result.oracle_errors if error)  # all three values or none
    if me_failed == oracle_failed == len(sweep.x):
        print("error: both methods failed at every point; first master-equation error: "
              f"{sweep.errors[0]}; first oracle error: {result.oracle_errors[0]}",
              file=sys.stderr)
        return 2
    header = (["sweep_var"] + [f"me_g2_{m}" for m in "abc"]
              + [f"oracle_g2_{m}" for m in "abc"] + ["me_error", "oracle_error"])
    points = zip(sweep.x.tolist(), sweep.g[:, 0, :3].tolist(), result.oracle.tolist(),
                 sweep.errors, result.oracle_errors)
    writer.write_table(header, [[x, *me, *oracle, *errors] for x, me, oracle, *errors in points])
    warnings = []
    if me_failed:
        warnings.append(f"{me_failed} master-equation points failed")
    if oracle_failed:
        warnings.append(f"{oracle_failed} oracle points failed")
    writer.write_summary("oracle-compare-v1", config, warnings, {
        "extrema": result.summary,
        "workers": sweep.workers})
    return 0


_COMMANDS = {
    "g2sweep": _cmd_g2sweep,
    "g2tau": _cmd_g2tau,
    "spectrum": _cmd_spectrum,
    "oracle-compare": _cmd_oracle_compare,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polariton",
        description="Steady-state and correlation analysis of the driven "
                    "qubit-photon-phonon system")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("g2sweep", "zero-delay correlations and case labels along a sweep"),
            ("g2tau", "delay-time g2 curves and dynamics classification"),
            ("spectrum", "manifold frequencies / pump-resonance distances"),
            ("oracle-compare", "master equation vs weak-drive oracle")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="YAML/JSON run configuration")
        cmd.add_argument("--preset", help="preset name (A1, A2, A3)")
        cmd.add_argument("--override", action="append", default=[],
                         metavar="KEY=VALUE",
                         help="parameter override (bare keys; not for spectrum) "
                              "or dotted config path")
        cmd.add_argument("--out", help="output directory")
        if name != "spectrum":  # spectrum runs no worker pool
            cmd.add_argument("--threads", type=int, default=None,
                             help="worker processes (default: the config's threads, "
                                  "or one per usable core, at most one per point)")
        cmd.add_argument("--format", choices=("csv", "json"), default=None,
                         help="data file format (default csv)")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.command, args.override, args.preset)
        if args.out is not None:
            config.setdefault("output", {})["directory"] = args.out
        if args.format is not None:
            config.setdefault("output", {})["format"] = args.format
        if getattr(args, "threads", None) is not None:
            _check_count(args.threads, "--threads")
            config["threads"] = args.threads
        return _COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except PolaritonError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
