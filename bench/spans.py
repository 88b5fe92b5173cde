"""Spans around calls into the program's public functions, recorded from outside.

``Tracer.install`` rebinds each traced function, wherever a ``polariton``
module holds a reference to it, to a wrapper that times the call.  Nothing
inside ``src/`` changes.  Pool workers are forked from the traced process,
so they inherit the wrappers; each worker appends its spans to a file of its
own when its outermost span ends, and ``collect`` merges them.  A call
nested inside another call of the same layer (``_oracle_point`` calling
``_sweep_point``) is not counted again.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from pathlib import Path

#: (module, attribute, layer) of every traced function.
TRACED = (
    ("polariton.model", "hamiltonian_qd_driven", "model.hamiltonian"),
    ("polariton.model", "hamiltonian_smr_driven", "model.hamiltonian"),
    ("polariton.model", "hamiltonian_undriven", "model.hamiltonian"),
    ("polariton.lindblad", "build_liouvillian", "lindblad.liouvillian"),
    ("polariton.lindblad", "steady_state", "lindblad.steady_state"),
    ("polariton.correlations", "g_k_zero", "correlations.g_k_zero"),
    ("polariton.correlations", "g2_tau", "correlations.g2_tau"),
    ("polariton.weakdrive", "steady_amplitudes", "weakdrive.oracle"),
    ("polariton.weakdrive", "oracle_g2", "weakdrive.oracle"),
    ("polariton.spectrum", "manifold_spectrum", "spectrum.manifold"),
    ("polariton.spectrum", "resonance_distances", "spectrum.distances"),
    ("polariton.scenarios", "run_sweep", "scenarios.sweep"),
    ("polariton.scenarios", "compare_oracle", "scenarios.sweep"),
    ("polariton.scenarios", "spectrum_sweep", "scenarios.sweep"),
    ("polariton.scenarios", "resonance_distance_sweep", "scenarios.sweep"),
    # the per-point functions the sweeps hand to their worker pool
    ("polariton.scenarios", "_sweep_point", "scenarios.point"),
    ("polariton.scenarios", "_oracle_point", "scenarios.point"),
    ("polariton.scenarios", "g2tau_point", "scenarios.point"),
    ("polariton.cli", "load_config", "cli.config"),
    ("polariton.cli", "_OutputWriter.write_table", "cli.output"),
    ("polariton.cli", "_OutputWriter.write_summary", "cli.output"),
)

#: Per-layer metric names and units, in report order.
METRICS = {
    "model.hamiltonian_s": "s", "model.hamiltonian_calls": "count",
    "lindblad.liouvillian_s": "s", "lindblad.liouvillian_calls": "count",
    "lindblad.liouvillian_nnz": "count",
    "lindblad.steady_state_s": "s", "lindblad.steady_state_calls": "count",
    "lindblad.steady_state_p50_ms": "ms", "lindblad.steady_state_max_ms": "ms",
    "correlations.g_k_zero_s": "s", "correlations.g_k_zero_calls": "count",
    "correlations.g2_tau_s": "s", "correlations.g2_tau_calls": "count",
    "weakdrive.oracle_s": "s", "weakdrive.oracle_calls": "count",
    "spectrum.manifold_s": "s", "spectrum.manifold_calls": "count",
    "spectrum.distances_s": "s",
    "scenarios.sweep_s": "s", "scenarios.point_s": "s",
    "scenarios.parallel_efficiency": "ratio",
    "cli.config_s": "s", "cli.output_s": "s", "cli.output_bytes": "bytes",
}


class Tracer:
    """Records (layer, seconds, nnz) per outermost call of each layer."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.directory.mkdir(parents=True, exist_ok=True)
        self.parent = self.pid = os.getpid()
        self.spans: list[tuple[str, float, int]] = []
        self.stack: list[str] = []
        self.missing: list[str] = []

    def wrap(self, fn, layer: str):
        tracer = self

        @functools.wraps(fn)  # keeps the qualified name, so pool tasks still pickle
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:  # first call in a forked pool worker
                tracer.pid, tracer.spans, tracer.stack = os.getpid(), [], []
            outer = layer not in tracer.stack
            tracer.stack.append(layer)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                tracer.stack.pop()
            if outer:
                nnz = getattr(getattr(result, "matrix", None), "nnz", 0)
                tracer.spans.append((layer, seconds, int(nnz)))
            if not tracer.stack and tracer.pid != tracer.parent:
                tracer.flush()
            return result

        return traced

    def flush(self):
        with open(self.directory / f"{self.pid}.jsonl", "a") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in self.spans)
        self.spans = []

    def install(self):
        """Rebind every traced function in the loaded polariton modules."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "polariton" or name.startswith("polariton."))]
        for module_name, attribute, layer in TRACED:
            owner = sys.modules.get(module_name)
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, name, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attribute}")
                continue
            wrapped = self.wrap(fn, layer)
            if path:
                setattr(owner, name, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapped)

    def collect(self) -> list[tuple[str, float, int]]:
        spans = list(self.spans)
        for path in sorted(self.directory.glob("*.jsonl")):
            spans += [tuple(json.loads(line)) for line in path.read_text().splitlines()]
        return spans


def layer_metrics(spans, rounds: int, workers: int, output_bytes: float) -> dict:
    """Per-layer metrics per round from the collected spans.

    ``parallel_efficiency`` is point_s / (workers x sweep_s): the share of
    the pool's capacity during the sweep calls that per-point work used.
    It is 0 where a workload has no sweep call or no per-point call.
    """
    seconds: dict[str, list[float]] = {}
    nnz = 0
    for layer, duration, count in spans:
        seconds.setdefault(layer, []).append(duration)
        nnz = max(nnz, count) if layer == "lindblad.liouvillian" else nnz

    def total(layer):
        return sum(seconds.get(layer, [])) / rounds

    def calls(layer):
        return len(seconds.get(layer, [])) / rounds

    solves = [1e3 * s for s in seconds.get("lindblad.steady_state", [])]
    sweep, point = total("scenarios.sweep"), total("scenarios.point")
    out = {
        "model.hamiltonian_s": total("model.hamiltonian"),
        "model.hamiltonian_calls": calls("model.hamiltonian"),
        "lindblad.liouvillian_s": total("lindblad.liouvillian"),
        "lindblad.liouvillian_calls": calls("lindblad.liouvillian"),
        "lindblad.liouvillian_nnz": nnz,
        "lindblad.steady_state_s": total("lindblad.steady_state"),
        "lindblad.steady_state_calls": calls("lindblad.steady_state"),
        "lindblad.steady_state_p50_ms": statistics.median(solves) if solves else 0.0,
        "lindblad.steady_state_max_ms": max(solves, default=0.0),
        "correlations.g_k_zero_s": total("correlations.g_k_zero"),
        "correlations.g_k_zero_calls": calls("correlations.g_k_zero"),
        "correlations.g2_tau_s": total("correlations.g2_tau"),
        "correlations.g2_tau_calls": calls("correlations.g2_tau"),
        "weakdrive.oracle_s": total("weakdrive.oracle"),
        "weakdrive.oracle_calls": calls("weakdrive.oracle"),
        "spectrum.manifold_s": total("spectrum.manifold"),
        "spectrum.manifold_calls": calls("spectrum.manifold"),
        "spectrum.distances_s": total("spectrum.distances"),
        "scenarios.sweep_s": sweep,
        "scenarios.point_s": point,
        "scenarios.parallel_efficiency": point / (workers * sweep) if sweep and point else 0.0,
        "cli.config_s": total("cli.config"),
        "cli.output_s": total("cli.output"),
        "cli.output_bytes": output_bytes,
    }
    return {name: {"value": out[name], "unit": unit} for name, unit in METRICS.items()}
