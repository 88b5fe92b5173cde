"""Named operating points, parameter sweeps, and analysis pipelines.

The three shipped presets drive either the photon mode (A1, ``eta_a``) or
the phonon mode (A2 and A3, ``eta_b``); the Hamiltonian follows whichever
drive is nonzero.  Each documented operating point on top of them is
encoded once as a named override bundle so numbers are defined in a single
place.  Absolute mode frequencies (units of gamma) are recorded per
preset for the lab-frame spectrum diagnostics; rotating-frame solvers
depend only on the detunings.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from multiprocessing import Pool
from typing import Callable, Optional, Sequence

import numpy as np

from .correlations import (classify_dynamics, classify_statistics, g2_tau, g_k_zero,
                           sign_pattern)
from .errors import ParameterError, PolaritonError
from .hilbert import TruncationConfig
from .lindblad import build_liouvillian, steady_state
from .model import (MODES, SystemParams, hamiltonian_qd_driven, hamiltonian_smr_driven,
                    hamiltonian_undriven)
from .spectrum import manifold_spectrum, minimum_gap, resonance_distances
from .weakdrive import oracle_g2, steady_amplitudes

SWEEP_VARIABLES = ("g", "delta_smr", "eta_a", "eta_b")
DEFAULT_ORDERS = (2, 3, 4)
_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Preset:
    """A parameter set with its absolute mode frequencies."""

    params: SystemParams
    frequencies: tuple[float, float, float]  # (omega_smr, omega_m, omega_q), units of gamma


PRESETS: dict[str, Preset] = {
    "A1": Preset(
        params=SystemParams(delta_a=-3.0, delta_b=3.0, delta_q=-6.0, f=5.0,
                            eta_a=0.7, eta_b=0.0, kappa_a=1.5, kappa_b=6.0),
        frequencies=(1554.0, 1560.0, 1551.0),
    ),
    "A2": Preset(
        params=SystemParams(delta_a=5.0, delta_b=-5.0, delta_q=3.0, f=7.0,
                            eta_a=0.0, eta_b=0.5, kappa_a=7.5, kappa_b=6.0),
        frequencies=(1570.0, 1560.0, 1568.0),
    ),
    "A3": Preset(
        params=SystemParams(delta_a=4.0, delta_b=-4.0, delta_q=7.0, f=6.4,
                            eta_a=0.0, eta_b=0.22, kappa_a=3.5, kappa_b=0.002),
        frequencies=(1568.0, 1560.0, 1571.0),
    ),
}

#: Named parameter variations used by the analysis pipelines; each pins the
#: exact operating point of one documented effect.
OVERRIDE_BUNDLES: dict[str, tuple[str, dict[str, float]]] = {
    # A2 qubit-coupling sweep window where the hybrid mode alone is blockaded
    "hybrid-blockade-gsweep": ("A2", {}),
    # resonant detuning sweeps jointly exhibiting all eight sign patterns
    "eight-case-a2": ("A2", {"g": 4.5}),
    "eight-case-a3": ("A3", {"g": 9.5}),
    # equal-decay configuration for the weak-drive oracle comparison
    "oracle-comparison": ("A2", {"g": 4.5, "kappa_a": 6.0, "kappa_b": 6.0}),
    # four qubit-coupling values realising the dynamics cases I..IV (mode b)
    "dynamics-case-i": ("A3", {"g": 10.5}),
    "dynamics-case-ii": ("A3", {"g": 7.35}),
    "dynamics-case-iii": ("A3", {"g": 13.3}),
    "dynamics-case-iv": ("A3", {"g": 7.7}),
    # weak-coupling point with hopping-dominated oscillations
    "weak-coupling-oscillation": ("A1", {"f": 5.5, "g": 1.2}),
    # strong-coupling photon-driven points for spectra and detuning sweeps
    "strong-coupling-a1": ("A1", {"g": 7.5}),
    "resonance-diagnostics": ("A1", {"g": 7.58}),
}


def preset_params(name: str, **overrides) -> SystemParams:
    """Parameters of a preset with field overrides applied."""
    if name not in PRESETS:
        raise ParameterError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return PRESETS[name].params.with_(**overrides)


def bundle_params(bundle: str) -> SystemParams:
    """Resolved parameters of a named override bundle."""
    if bundle not in OVERRIDE_BUNDLES:
        raise ParameterError(f"unknown bundle {bundle!r}; available: {sorted(OVERRIDE_BUNDLES)}")
    preset, overrides = OVERRIDE_BUNDLES[bundle]
    return preset_params(preset, **overrides)


def resolve_params(preset: Optional[str], params: Optional[SystemParams],
                   overrides: dict) -> SystemParams:
    """Parameters of a preset, or else of explicit params, with overrides applied."""
    if preset is not None:
        return preset_params(preset, **overrides)
    return params.with_(**overrides)


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional parameter sweep over a preset or explicit parameters.

    ``swept`` selects the variable; a detuning sweep moves all three
    detunings together when ``resonant`` and preserves the preset's
    detuning offsets otherwise.  Either a (start, stop, count >= 2) range
    or an explicit ``values`` list defines the grid.
    """

    swept: str
    start: float = 0.0
    stop: float = 0.0
    count: int = 0
    values: Optional[tuple[float, ...]] = None
    preset: Optional[str] = None
    params: Optional[SystemParams] = None
    overrides: dict = field(default_factory=dict)
    resonant: bool = False
    truncation: TruncationConfig = TruncationConfig()
    modes: tuple[str, ...] = MODES
    orders: tuple[int, ...] = DEFAULT_ORDERS

    def __post_init__(self):
        if self.swept not in SWEEP_VARIABLES:
            raise ParameterError(f"swept must be one of {SWEEP_VARIABLES}, got {self.swept!r}")
        if (self.preset is None) == (self.params is None):
            raise ParameterError("exactly one of preset or params must be given")
        if self.values is None and self.count < 2:
            raise ParameterError("grid count must be >= 2 (or pass explicit values)")
        if self.values is not None and len(self.values) == 0:
            raise ParameterError("explicit values list must be non-empty")
        if min(self.orders, default=2) < 2:
            raise ParameterError("correlation orders must all be >= 2")
        base = self.base_params()
        if self.swept == "eta_a" and base.eta_b != 0.0:
            raise ParameterError("cannot sweep eta_a while the preset drives the phonon mode")
        if self.swept == "eta_b" and base.eta_a != 0.0:
            raise ParameterError("cannot sweep eta_b while the preset drives the photon mode")

    def base_params(self) -> SystemParams:
        return resolve_params(self.preset, self.params, self.overrides)

    def grid(self) -> np.ndarray:
        if self.values is not None:
            return np.asarray(self.values, dtype=float)
        return np.linspace(self.start, self.stop, self.count)

    def point_params(self, x: float) -> SystemParams:
        base = self.base_params()
        if self.swept != "delta_smr":
            return base.with_(**{self.swept: x})
        if self.resonant:
            return base.with_(delta_a=x, delta_b=x, delta_q=x)
        return base.with_(delta_a=x,
                          delta_b=x + (base.delta_b - base.delta_a),
                          delta_q=x + (base.delta_q - base.delta_a))


def build_hamiltonian(p: SystemParams, cfg: TruncationConfig) -> np.ndarray:
    """Rotating-frame Hamiltonian with the photon mode driven when eta_a is
    nonzero and the phonon mode driven otherwise; driving both is rejected."""
    if p.eta_a != 0.0 and p.eta_b != 0.0:
        raise ParameterError(
            f"drive one mode only: eta_a = {p.eta_a} and eta_b = {p.eta_b} are both nonzero")
    if p.eta_a != 0.0:
        return hamiltonian_smr_driven(p, cfg)
    return hamiltonian_qd_driven(p, cfg)


def solve_point(p: SystemParams, cfg: TruncationConfig):
    """Steady state and Liouvillian for one operating point."""
    L = build_liouvillian(build_hamiltonian(p, cfg), p, cfg)
    return steady_state(L), L


def _sweep_point(x: float, p: SystemParams, cfg: TruncationConfig,
                 modes: Sequence[str], orders: Sequence[int]) -> dict:
    row: dict = {"sweep_var": x, "error": ""}
    try:
        rho, _ = solve_point(p, cfg)
    except PolaritonError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    values: dict[tuple[int, str], float] = {}
    cell_errors = []
    for mode in modes:
        for k in orders:
            try:
                values[(k, mode)] = row[f"g{k}_{mode}"] = g_k_zero(rho, mode, k)
            except PolaritonError as exc:
                # undefined cell (occupancy floor, truncation, negative moment); leave it empty
                cell_errors.append(f"g{k}_{mode}: {exc}")
    if all((2, m) in values for m in ("a", "b", "c")):
        stat = classify_statistics(values[(2, "a")], values[(2, "b")], values[(2, "c")])
        row["case"] = stat.case
        row["boundary"] = stat.boundary
    for mode in ("a", "b", "c"):
        if mode in modes and all((k, mode) in values for k in (2, 3, 4)):
            _, row[f"g234_{mode}"] = sign_pattern([values[(k, mode)] for k in (2, 3, 4)])
    if cell_errors:
        row["error"] = "; ".join(cell_errors)
    return row


def _openblas_thread_controls() -> list[tuple]:
    """The (get, set) thread-count functions of every OpenBLAS library
    mapped into this process; empty where /proc/self/maps does not exist."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:
        return []
    found = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:  # a mapping whose file is gone
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            get = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(handle, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return found


def _cap_blas_threads() -> Callable[[], None]:
    """Cap BLAS at one thread, through OPENBLAS_NUM_THREADS also for an OpenBLAS
    first loaded under the cap (scipy's, imported inside a point); return a
    function that restores the previous counts and OPENBLAS_NUM_THREADS."""
    env = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import threadpoolctl
    except ImportError:
        controls = _openblas_thread_controls()
        before = [get() for get, _ in controls]
        for _, set_threads in controls:
            set_threads(1)

        def restore_libraries():
            for (_, set_threads), n in zip(controls, before):
                set_threads(n)
    else:
        restore_libraries = threadpoolctl.threadpool_limits(1).restore_original_limits

    def restore():
        restore_libraries()
        os.environ.pop("OPENBLAS_NUM_THREADS", None)
        if env is not None:
            os.environ["OPENBLAS_NUM_THREADS"] = env
    return restore


def _openblas_thread_counts() -> list[int]:
    return [get() for get, _ in _openblas_thread_controls()]


def pool_workers(threads: Optional[int], points: int) -> int:
    """Worker processes that run ``points`` operating points: ``threads``
    when it is set, else the usable cores, and never more than the points.
    Tables do not depend on the count, so it is sized from the machine."""
    if threads is None:
        try:
            threads = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity call on this platform
            threads = os.cpu_count() or 1
    return max(1, min(threads, points))


def _map_points(worker, work_items: list, threads: Optional[int]) -> list:
    """``worker(*item)`` for every item, in order, on :func:`pool_workers`
    processes.  Each point runs on one BLAS thread: more only spin, and
    nearly double a point's CPU time."""
    workers = pool_workers(threads, len(work_items))
    debug = "%d points on %d worker(s); OpenBLAS threads after the cap: %s"
    if workers == 1:
        restore_blas_threads = _cap_blas_threads()
        try:
            if _log.isEnabledFor(logging.DEBUG):
                _log.debug(debug, len(work_items), 1, _openblas_thread_counts())
            return [worker(*item) for item in work_items]
        finally:
            restore_blas_threads()
    with Pool(processes=workers, initializer=_cap_blas_threads) as pool:
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug(debug, len(work_items), workers, pool.apply(_openblas_thread_counts))
        return pool.starmap(worker, work_items)


@dataclass
class SweepResult:
    spec: SweepSpec
    rows: list[dict]

    @property
    def failed_rows(self) -> list[dict]:
        """Rows that carry an error and no correlation data at all."""
        return [r for r in self.rows
                if r.get("error") and not any(k.startswith("g") for k in r)]

    def cases(self) -> set[int]:
        return {r["case"] for r in self.rows if r.get("case") is not None}


def _work_items(spec: SweepSpec) -> list[tuple]:
    """One (x, params, truncation, modes, orders) task per grid point."""
    return [(float(x), spec.point_params(float(x)), spec.truncation, spec.modes, spec.orders)
            for x in spec.grid()]


def run_sweep(spec: SweepSpec, threads: Optional[int] = None) -> SweepResult:
    """Steady-state correlation quantities along a parameter grid.

    One row per grid point; per-point solver failures are recorded in the
    row's ``error`` field and do not abort the sweep.  Rows are computed
    independently, so the table is invariant under grid reordering.
    """
    rows = _map_points(_sweep_point, _work_items(spec), threads)
    rows.sort(key=lambda r: r["sweep_var"])
    return SweepResult(spec, rows)


def _oracle_point(x: float, p: SystemParams, cfg: TruncationConfig, *_modes_orders) -> dict:
    row = _sweep_point(x, p, cfg, ("a", "b", "c"), (2,))
    for key in ("g2_a", "g2_b", "g2_c"):
        if key in row:
            row["me_" + key] = row.pop(key)
    row["me_error"] = row.pop("error")
    row.pop("case", None)
    row.pop("boundary", None)
    row["oracle_error"] = ""
    try:
        est = oracle_g2(steady_amplitudes(p))
        row.update(oracle_g2_a=est.g2_a, oracle_g2_b=est.g2_b, oracle_g2_c=est.g2_c)
    except PolaritonError as exc:
        row["oracle_error"] = f"{type(exc).__name__}: {exc}"
    return row


def _extrema(xs: np.ndarray, ys: np.ndarray) -> dict:
    """Global and local extremum locations of a sampled curve (NaN = missing).

    Values rank as the CSV prints them, at 12 significant digits; ties go
    to the smaller |x|, then the smaller x.  Mirror-image twins that differ
    only in their last bits thus rank the same way on every build.
    """
    points = [(float(x), float(y)) for x, y in zip(xs, ys)]
    finite = [t for t in points if np.isfinite(t[1])]
    if not finite:
        return {}

    def lowest(t):
        return float(f"{t[1]:.11e}"), abs(t[0]), t[0]

    def highest(t):
        return -float(f"{t[1]:.11e}"), abs(t[0]), t[0]

    minima, maxima = [], []
    for i in range(1, len(ys) - 1):
        if np.isnan(ys[i - 1]) or np.isnan(ys[i]) or np.isnan(ys[i + 1]):
            continue
        if ys[i] < ys[i - 1] and ys[i] < ys[i + 1]:
            minima.append(points[i])
        elif ys[i] > ys[i - 1] and ys[i] > ys[i + 1]:
            maxima.append(points[i])
    return {"global_min_at": min(finite, key=lowest)[0],
            "global_max_at": min(finite, key=highest)[0],
            "local_minima": sorted(minima, key=lowest),
            "local_maxima": sorted(maxima, key=highest)}


@dataclass
class OracleComparison:
    spec: SweepSpec
    rows: list[dict]
    summary: dict


def compare_oracle(spec: SweepSpec, threads: Optional[int] = None) -> OracleComparison:
    """Master-equation vs weak-drive-oracle g2 along a sweep.

    Every row carries both values plus independent error fields; the
    summary locates the extrema of each mode's curve for both methods
    (grid-resolution locations, deepest/highest first).
    """
    rows = _map_points(_oracle_point, _work_items(spec), threads)
    rows.sort(key=lambda r: r["sweep_var"])
    xs = np.array([r["sweep_var"] for r in rows])
    summary: dict = {"grid_step": float(xs[1] - xs[0]) if len(xs) > 1 else 0.0}
    for method in ("me", "oracle"):
        err_key = f"{method}_error"
        for mode in ("a", "b", "c"):
            key = f"{method}_g2_{mode}"
            ys = np.array([r.get(key, np.nan) if not r.get(err_key) else np.nan for r in rows],
                          dtype=float)
            summary[key] = _extrema(xs, ys)
    return OracleComparison(spec, rows, summary)


def g2tau_point(p: SystemParams, cfg: TruncationConfig, tau_grid: Sequence[float],
                modes: Sequence[str] = ("a", "b", "c")) -> dict[str, dict]:
    """Delay-time curves, on a grid in units of 1/gamma, and dynamics labels
    for one operating point."""
    out: dict[str, dict] = {}
    rho, L = solve_point(p, cfg)
    for mode in modes:
        curve = g2_tau(rho, L, mode, tau_grid)
        try:
            label = classify_dynamics(tau_grid, curve, p)
        except PolaritonError:
            label = None
        out[mode] = {"curve": curve, "dynamics": label}
    return out


def _g2tau_point_or_error(*args):
    try:
        return g2tau_point(*args)
    except PolaritonError as exc:
        return exc


def run_g2tau(points: Sequence[SystemParams], cfg: TruncationConfig, tau_grid: Sequence[float],
              modes: Sequence[str], threads: Optional[int] = None) -> list:
    """:func:`g2tau_point` at every operating point, in order; a point that
    fails gives its :class:`PolaritonError` and does not stop the others."""
    return _map_points(_g2tau_point_or_error,
                       [(p, cfg, tau_grid, modes) for p in points], threads)


@dataclass
class SpectrumResult:
    sweep_values: np.ndarray
    manifold_rows: dict[int, np.ndarray]  # n -> (len(grid), manifold_dim) frequencies
    min_gaps: dict[int, float]


def spectrum_sweep(preset: str, g: float, omega_m_grid: Sequence[float],
                   manifolds: Sequence[int] = (1, 2, 3),
                   frequencies: Optional[tuple[float, float]] = None) -> SpectrumResult:
    """Lab-frame manifold frequencies of H(+) versus the mechanical frequency.

    The photon and qubit frequencies come from the preset's absolute
    values unless ``frequencies`` = (omega_smr, omega_q) overrides them;
    drives are zeroed (the undriven Hamiltonian conserves the polariton
    number).
    """
    pre = PRESETS[preset]
    omega_smr, _, omega_q = pre.frequencies
    if frequencies is not None:
        omega_smr, omega_q = frequencies
    base = pre.params.with_(eta_a=0.0, eta_b=0.0, g=g,
                            delta_a=omega_smr, delta_q=omega_q)
    cfg = TruncationConfig(n_a_max=max(3, max(manifolds)), n_b_max=max(3, max(manifolds)))
    grid = np.asarray(omega_m_grid, dtype=float)
    rows: dict[int, list] = {n: [] for n in manifolds}
    for omega_m in grid:
        H = hamiltonian_undriven(base.with_(delta_b=float(omega_m)), +1, cfg)
        for n in manifolds:
            rows[n].append(manifold_spectrum(H, n, cfg).frequencies)
    stacked = {n: np.vstack(v) for n, v in rows.items()}
    gaps = {n: minimum_gap(list(v)) for n, v in stacked.items()}
    return SpectrumResult(grid, stacked, gaps)


def resonance_distance_sweep(preset: str, g: float, delta_smr_grid: Sequence[float]) -> list[dict]:
    """D_kPR of H(+) versus the photon-pump detuning, in the preset's lab frame."""
    pre = PRESETS[preset]
    omega_smr, omega_m, omega_q = pre.frequencies
    base = pre.params.with_(eta_a=0.0, eta_b=0.0, g=g, delta_a=omega_smr,
                            delta_b=omega_m, delta_q=omega_q)
    cfg = TruncationConfig(n_a_max=3, n_b_max=3)
    H = hamiltonian_undriven(base, +1, cfg)
    spectra = [manifold_spectrum(H, n, cfg) for n in (1, 2, 3)]
    rows = []
    for delta in np.asarray(delta_smr_grid, dtype=float):
        omega_p = omega_smr - float(delta)
        d = resonance_distances(omega_p, spectra)
        rows.append({"sweep_var": float(delta), "d1": d.d1, "d2": d.d2, "d3": d.d3,
                     "error": ""})
    return rows
