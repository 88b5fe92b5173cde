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
import sys
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import __version__
from .correlations import dominant_period
from .errors import (ConfigError, DimensionError, InsufficientDataError, ParameterError,
                     PolaritonError)
from .hilbert import TruncationConfig
from .model import MODES, SystemParams, tau_to_us
from .scenarios import (DEFAULT_ORDERS, PRESETS, SweepSpec, compare_oracle,
                        pool_workers, resolve_params, resonance_distance_sweep, run_g2tau,
                        run_sweep, spectrum_sweep)

_PARAM_FIELDS = tuple(f.name for f in dataclasses.fields(SystemParams))

_SWEEP_KEYS = {"variable", "start", "stop", "count", "values", "resonant"}
_SCHEMAS = {
    "g2sweep": {"preset", "params", "overrides", "truncation", "sweep", "modes",
                "orders", "output", "threads"},
    "g2tau": {"preset", "params", "overrides", "truncation", "points", "tau",
              "modes", "output", "threads"},
    "spectrum": {"preset", "overrides", "spectrum", "output"},
    "oracle-compare": {"preset", "params", "overrides", "truncation", "sweep",
                       "output", "threads"},
}
_OUTPUT_KEYS = {"directory", "basename", "format", "gnuplot"}
_TRUNCATION_KEYS = {"n_a_max", "n_b_max"}
_TAU_KEYS = {"stop", "count", "unit"}
_SPECTRUM_KEYS = {"kind", "g", "manifolds", "sweep", "frequencies"}


def _fmt(value) -> str:
    """Fixed scientific notation, 12 significant digits; empty for missing."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    v = float(value)
    if not np.isfinite(v):
        return ""
    return f"{v:.11e}"


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


def _check_unique(items: list, where: str):
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
        allowed = set(_PARAM_FIELDS) if command != "spectrum" else {"g"}
        _check_numbers(config["overrides"], allowed, "overrides")
    if "truncation" in config:
        _check_keys(config["truncation"], _TRUNCATION_KEYS, "truncation")
        for key, val in config["truncation"].items():
            _check_count(val, f"truncation.{key}")
    if "sweep" in config:
        sweep = config["sweep"]
        _check_keys(sweep, _SWEEP_KEYS, "sweep")
        if "variable" not in sweep:
            raise ConfigError("sweep.variable is required")
        for key, check in (("start", _check_number), ("stop", _check_number),
                           ("count", _check_count)):
            if key in sweep:
                check(sweep[key], f"sweep.{key}")
            elif sweep.get("values") is None:
                raise ConfigError(f"sweep.{key} is required when no explicit values are given")
        if sweep.get("values") is not None:
            _check_list(sweep["values"], "sweep.values", _check_number)
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
        manifolds = _check_list(spec.get("manifolds", [1, 2, 3]), "spectrum.manifolds",
                                _check_count)
        if not manifolds:
            raise ConfigError("spectrum.manifolds: expected a non-empty list")
        _check_unique(manifolds, "spectrum.manifolds")
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
    if "modes" in config:
        bad = [m for m in _check_list(config["modes"], "modes") if m not in MODES]
        if bad:
            raise ConfigError(f"unknown modes {bad}")
        _check_unique(config["modes"], "modes")
    if "orders" in config:
        _check_list(config["orders"], "orders", lambda k, where: _check_count(k, where, minimum=2))
        _check_unique(config["orders"], "orders")
    _check_count(config.get("threads", 1), "threads")


def _truncation(config: dict) -> TruncationConfig:
    try:
        return TruncationConfig(**config.get("truncation", {}))
    except DimensionError as exc:
        raise ConfigError(f"truncation: {exc}")


def _sweep_spec(config: dict) -> SweepSpec:
    s = config["sweep"]
    values = s.get("values")
    try:
        kwargs = dict(
            swept=str(s["variable"]),
            resonant=s.get("resonant", False),
            truncation=_truncation(config),
            overrides=dict(config.get("overrides", {})),
            modes=tuple(config.get("modes", MODES)),
            orders=tuple(config.get("orders", DEFAULT_ORDERS)),
            preset=config.get("preset"),
            params=SystemParams(**config["params"]) if "params" in config else None,
        )
        if values is not None:
            kwargs["values"] = tuple(float(v) for v in values)
        else:
            kwargs.update(start=float(s["start"]), stop=float(s["stop"]), count=s["count"])
        return SweepSpec(**kwargs)
    except ParameterError as exc:
        raise ConfigError(str(exc))


class _OutputWriter:
    """Collects rows, then writes CSV/JSON (+ optional gnuplot .dat) files."""

    def __init__(self, config: dict, default_basename: str):
        out = config.get("output", {})
        self.directory = Path(out.get("directory", "."))
        self.basename = out.get("basename", default_basename)
        self.format = out.get("format", "csv")
        self.gnuplot = out.get("gnuplot", False)
        self.written: list[str] = []

    def path(self, suffix: str) -> Path:
        return self.directory / f"{self.basename}{suffix}"

    def write_table(self, header: list[str], rows: list[dict], suffix: str = ""):
        self.directory.mkdir(parents=True, exist_ok=True)
        cells = [[_fmt(row.get(col)) for col in header] for row in rows]
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
    failed = result.failed_rows
    if len(failed) == len(result.rows):
        print("error: every sweep point failed; first error: "
              f"{failed[0]['error']}", file=sys.stderr)
        return 2
    writer.write_table(_G2SWEEP_HEADER, result.rows)
    warnings = [f"{len(failed)} of {len(result.rows)} points failed"] if failed else []
    writer.write_summary("g2sweep-v1", config, warnings, {
        "cases_found": sorted(result.cases()),
        "n_rows": len(result.rows),
        "workers": pool_workers(config.get("threads"), len(result.rows)),
    })
    return 0


def _cmd_g2tau(config: dict) -> int:
    unit = config["tau"].get("unit", "inv_gamma")
    grid = np.linspace(0.0, float(config["tau"]["stop"]), config["tau"]["count"])
    # the library works in 1/gamma; the table and the periods keep the config's unit
    grid_inv_gamma = grid if unit == "inv_gamma" else grid * (1.0 / tau_to_us(1.0))
    modes = tuple(config.get("modes", ("a", "b", "c")))
    try:
        params = SystemParams(**config["params"]) if "params" in config else None
        base = resolve_params(config.get("preset"), params, config.get("overrides", {}))
        points = [base.with_(**point) for point in config["points"]]
    except ParameterError as exc:
        raise ConfigError(str(exc))
    results = run_g2tau(points, _truncation(config), grid_inv_gamma, modes, config.get("threads"))
    writer = _OutputWriter(config, "g2tau")
    summary_points = []
    warnings: list[str] = []
    for i, (point, curves) in enumerate(zip(config["points"], results)):
        if isinstance(curves, PolaritonError):
            warnings.append(f"point {i} failed: {type(curves).__name__}: {curves}")
            summary_points.append({"point": point, "error": str(curves)})
            continue
        rows = [{"tau": float(tau), **{f"g2_{m}": float(curves[m]["curve"][j])
                                       for m in modes}} for j, tau in enumerate(grid)]
        writer.write_table(["tau"] + [f"g2_{m}" for m in modes], rows, suffix=f"_p{i}")
        info: dict = {"point": point, "file": writer.written[-1]}
        for m in modes:
            dyn = curves[m]["dynamics"]
            info[f"dynamics_{m}"] = dataclasses.asdict(dyn) if dyn else None
            try:
                info[f"dominant_period_{m}"] = dominant_period(grid, curves[m]["curve"])
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
    g = _check_number(s.get("g", config.get("overrides", {}).get("g", 0.0)), "spectrum.g")
    writer = _OutputWriter(config, "spectrum")
    if s["kind"] == "manifolds":
        manifolds = tuple(int(n) for n in s.get("manifolds", (1, 2, 3)))
        freqs = s.get("frequencies")
        result = spectrum_sweep(config["preset"], g, grid, manifolds,
                                frequencies=tuple(map(float, freqs)) if freqs else None)
        header = ["sweep_var"]
        for n in manifolds:
            header += [f"m{n}_{i + 1}" for i in range(result.manifold_rows[n].shape[1])]
        rows = []
        for i, x in enumerate(result.sweep_values):
            row = {"sweep_var": float(x)}
            for n in manifolds:
                for j, freq in enumerate(result.manifold_rows[n][i]):
                    row[f"m{n}_{j + 1}"] = float(freq)
            rows.append(row)
        writer.write_table(header, rows)
        writer.write_summary("spectrum-manifolds-v1", config, [], {
            "min_gaps": {str(n): result.min_gaps[n] for n in manifolds}})
    else:
        rows = resonance_distance_sweep(config["preset"], g, grid)
        writer.write_table(["sweep_var", "d1", "d2", "d3", "error"], rows)
        d1 = np.array([r["d1"] for r in rows])
        writer.write_summary("spectrum-distances-v1", config, [], {
            "d1_min_at": float(grid[int(np.argmin(d1))])})
    return 0


def _cmd_oracle_compare(config: dict) -> int:
    spec = _sweep_spec(config)
    result = compare_oracle(spec, config.get("threads"))
    writer = _OutputWriter(config, "oracle_compare")
    me_failed = [r for r in result.rows if r.get("me_error")]
    oracle_failed = [r for r in result.rows if r.get("oracle_error")]
    if len(me_failed) == len(result.rows) and len(oracle_failed) == len(result.rows):
        print("error: both methods failed at every point", file=sys.stderr)
        return 2
    header = (["sweep_var"] + [f"me_g2_{m}" for m in "abc"]
              + [f"oracle_g2_{m}" for m in "abc"] + ["me_error", "oracle_error"])
    writer.write_table(header, result.rows)
    warnings = []
    if me_failed:
        warnings.append(f"{len(me_failed)} master-equation points failed")
    if oracle_failed:
        warnings.append(f"{len(oracle_failed)} oracle points failed")
    writer.write_summary("oracle-compare-v1", config, warnings, {
        "extrema": result.summary,
        "workers": pool_workers(config.get("threads"), len(result.rows))})
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
                         help="parameter override (bare keys) or dotted config path")
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
