"""Named operating points, parameter sweeps, and analysis pipelines.

The three shipped presets drive either the photon mode (A1, ``eta_a``) or
the phonon mode (A2 and A3, ``eta_b``); the Hamiltonian follows whichever
drive is nonzero.  Each documented operating point on top of them is
encoded once as a named override bundle so numbers are defined in a single
place.  Absolute mode frequencies (units of gamma) are recorded per
preset for the lab-frame spectrum diagnostics; rotating-frame solvers
depend only on the detunings.

Sweeps run their points on a worker pool, one task per point, except that
a resonant detuning sweep is mirror-symmetric.  Negating all three
detunings at fixed g, f, drive and rates maps the steady state to
U rho* U', with U a parity (see :func:`_mirror_parity`), so one task solves
a point x > 0 and reads the grid value nearest -x from the mirrored state
too, once that state passes the steady-state certificate against its own
Liouvillian; if it does not, that point is solved directly.  The values
of a pair agree with direct solves to the certificate's tolerance,
g^(k)_a and g^(k)_b being even in the detuning and g^(k)_c(-x) equal to
g^(k)_d(x).  Other sweeps, including detuning sweeps that keep the
base's detuning offsets, are not mirrored.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .correlations import (DynamicsLabel, StatisticsCase, classify_dynamics,
                           classify_statistics, g2_tau, g_k_zero)
from .errors import ParameterError, PolaritonError, SteadyStateError
from .hilbert import TruncationConfig, occupations
from .lindblad import DensityMatrix, build_liouvillian, certify, steady_state
from .model import (MODES, SystemParams, hamiltonian_qd_driven, hamiltonian_smr_driven,
                    hamiltonian_undriven)
from .spectrum import manifold_blocks, manifold_spectrum, resonance_distances
from .weakdrive import oracle_g2, steady_amplitudes

SWEEP_VARIABLES = ("g", "delta_smr", "eta_a", "eta_b")
DEFAULT_ORDERS = (2, 3, 4)
#: A grid value pairs with a mirror at -x when they differ by at most this
#: fraction of max(1, |x|): linspace grids symmetric about 0 miss exact
#: mirrors by up to a few ulps.
MIRROR_RTOL = 1e-12
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


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional parameter sweep around the operating point ``base``.

    ``swept`` selects the variable and ``grid`` its values, in any order.
    A detuning sweep moves all three detunings together when ``resonant``
    and preserves the base's detuning offsets otherwise; ``resonant``
    applies to a ``delta_smr`` sweep only.
    """

    swept: str
    grid: tuple[float, ...]
    base: SystemParams
    resonant: bool = False
    truncation: TruncationConfig = TruncationConfig()
    modes: tuple[str, ...] = MODES
    orders: tuple[int, ...] = DEFAULT_ORDERS

    def __post_init__(self):
        if self.swept not in SWEEP_VARIABLES:
            raise ParameterError(f"swept must be one of {SWEEP_VARIABLES}, got {self.swept!r}")
        if self.resonant and self.swept != "delta_smr":
            raise ParameterError(f"resonant applies to a delta_smr sweep only, not to {self.swept}")
        if not self.grid:
            raise ParameterError("the sweep grid must be non-empty")
        # a point's (3, 4) array of g^(k) has cells for these modes and orders only
        if not (self.modes and set(self.modes) <= set(MODES)
                and self.orders and set(self.orders) <= set(DEFAULT_ORDERS)):
            raise ParameterError(f"modes {self.modes} and orders {self.orders} must be "
                                 f"non-empty subsets of {MODES} and {DEFAULT_ORDERS}")
        check_one_drive(self.base)
        if self.swept == "eta_a" and self.base.eta_b != 0.0:
            raise ParameterError("cannot sweep eta_a while the base drives the phonon mode")
        if self.swept == "eta_b" and self.base.eta_a != 0.0:
            raise ParameterError("cannot sweep eta_b while the base drives the photon mode")

    def point_params(self, x: float) -> SystemParams:
        base = self.base
        if self.swept != "delta_smr":
            return base.with_(**{self.swept: x})
        if self.resonant:
            return base.with_(delta_a=x, delta_b=x, delta_q=x)
        return base.with_(delta_a=x,
                          delta_b=x + (base.delta_b - base.delta_a),
                          delta_q=x + (base.delta_q - base.delta_a))


def check_one_drive(p: SystemParams) -> None:
    """Reject parameters that drive both the photon and the phonon mode."""
    if p.eta_a != 0.0 and p.eta_b != 0.0:
        raise ParameterError(
            f"drive one mode only: eta_a = {p.eta_a} and eta_b = {p.eta_b} are both nonzero")


def build_hamiltonian(p: SystemParams, cfg: TruncationConfig) -> np.ndarray:
    """Rotating-frame Hamiltonian with the photon mode driven when eta_a is
    nonzero and the phonon mode driven otherwise; driving both is rejected."""
    check_one_drive(p)
    if p.eta_a != 0.0:
        return hamiltonian_smr_driven(p, cfg)
    return hamiltonian_qd_driven(p, cfg)


def solve_point(p: SystemParams, cfg: TruncationConfig):
    """Steady state and Liouvillian for one operating point."""
    L = build_liouvillian(build_hamiltonian(p, cfg), p, cfg)
    return steady_state(L), L


def _mirror_parity(p: SystemParams, cfg: TruncationConfig) -> np.ndarray:
    """Diagonal of the parity U with U H(Delta) U' = -H(-Delta) for the
    Hamiltonian of :func:`build_hamiltonian`, all three detunings negated:
    (-1)^n_a when the photon mode is driven, (-1)^(n_b + q) otherwise."""
    n_a, n_b, q = occupations(cfg)
    return (-1.0) ** (n_a if p.eta_a != 0.0 else n_b + q)


def _mirrored_state(rho: DensityMatrix, p: SystemParams,
                    cfg: TruncationConfig) -> Optional[DensityMatrix]:
    """U rho* U' for the steady state rho at the negated detunings of ``p``,
    if it passes :func:`certify` against the Liouvillian of ``p``; else None.

    H is real and U maps each real jump operator to plus or minus itself,
    so L(p)[U X* U'] = U (L(-p)[X])* U': the mirror of a steady state is
    one.  The certificate still decides, as for every solve.
    """
    u = _mirror_parity(p, cfg)
    L = build_liouvillian(build_hamiltonian(p, cfg), p, cfg)
    try:
        return certify(L, np.outer(u, u) * rho.matrix.conj())[0]
    except SteadyStateError:
        return None


def _solve(p: SystemParams, cfg: TruncationConfig) -> Union[DensityMatrix, PolaritonError]:
    try:
        return solve_point(p, cfg)[0]
    except PolaritonError as exc:
        return exc


def _values(rho: Union[DensityMatrix, PolaritonError], modes: Sequence[str],
            orders: Sequence[int]) -> tuple[np.ndarray, str]:
    """g^(k) of a point in the (3, 4) layout DEFAULT_ORDERS x MODES, NaN
    where a cell was not asked for or is undefined, and the point's error:
    the solve's, or one entry per undefined cell ("" when there is none)."""
    g = np.full((len(DEFAULT_ORDERS), len(MODES)), np.nan)
    if isinstance(rho, PolaritonError):
        return g, f"{type(rho).__name__}: {rho}"
    cell_errors = []
    for mode in modes:
        for k in orders:
            try:
                g[DEFAULT_ORDERS.index(k), MODES.index(mode)] = g_k_zero(rho, mode, k)
            except PolaritonError as exc:
                # undefined cell (occupancy floor, truncation, negative moment); leave it NaN
                cell_errors.append(f"g{k}_{mode}: {exc}")
    return g, "; ".join(cell_errors)


def _sweep_point(x: float, p: SystemParams, cfg: TruncationConfig, modes: Sequence[str],
                 orders: Sequence[int], mirror: Optional[tuple[float, SystemParams]] = None
                 ) -> list[tuple[str, float, np.ndarray, str]]:
    """(how, x, g, error) of grid point x, with g and error from
    :func:`_values`, then, given ``mirror`` = (x', params at x'), those of
    its mirror point x'.  ``how`` tells how the state was found: "solved",
    "mirrored" (:func:`_mirrored_state` of x's state) or "fallback" (solved
    after the mirrored state failed its certificate).  x' is solved
    directly also when x's solve failed."""
    rho = _solve(p, cfg)
    points = [("solved", x, *_values(rho, modes, orders))]
    if mirror is not None:
        x_m, p_m = mirror
        how, rho_m = "solved", None
        if isinstance(rho, DensityMatrix):
            rho_m = _mirrored_state(rho, p_m, cfg)
            how = "fallback" if rho_m is None else "mirrored"
        if rho_m is None:
            rho_m = _solve(p_m, cfg)
        points.append((how, x_m, *_values(rho_m, modes, orders)))
    return points


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
    controls = _openblas_thread_controls()
    before = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(1)

    def restore():
        for (_, set_threads), n in zip(controls, before):
            set_threads(n)
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
    processes.  Each task runs on one BLAS thread: more only spin, and
    nearly double a point's CPU time.  The cap is taken here, before the
    pool forks, so its workers start under it."""
    workers = pool_workers(threads, len(work_items))
    restore_blas_threads = _cap_blas_threads()
    try:
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("%d tasks on %d worker(s); OpenBLAS threads after the cap: %s",
                       len(work_items), workers, _openblas_thread_counts())
        if workers == 1:
            return [worker(*item) for item in work_items]
        with Pool(processes=workers) as pool:
            return pool.starmap(worker, work_items)
    finally:
        restore_blas_threads()


@dataclass
class SweepResult:
    """The points of a sweep in ascending ``x``, as arrays: ``g[i]`` and
    ``errors[i]`` are point i's (3, 4) array and error (:func:`_values`)."""

    spec: SweepSpec
    x: np.ndarray
    g: np.ndarray
    errors: list[str]
    #: Worker processes that ran the sweep's pool tasks.
    workers: int

    @property
    def failed(self) -> np.ndarray:
        """Points with no g^(k) value; each names its error, as modes and
        orders are never empty.  Some undefined cells are no failure."""
        return np.isnan(self.g).all(axis=(1, 2))

    def statistics(self) -> list[Optional[StatisticsCase]]:
        """Classification of each point's (g2_a, g2_b, g2_c); None where
        one of them is undefined."""
        return [classify_statistics(*g2) if np.isfinite(g2).all() else None
                for g2 in self.g[:, 0, :3].tolist()]

    def cases(self) -> set[int]:
        return {s.case for s in self.statistics() if s is not None and s.case is not None}


def _mirror_partners(ranked: np.ndarray) -> dict[int, int]:
    """For each positive value x of the ascending array ``ranked``, smallest
    first, the index of the unused value <= 0 nearest -x, when one lies
    within MIRROR_RTOL * max(1, x); the lower index wins a tie."""
    free = ranked <= 0
    partners = {}
    for i in np.flatnonzero(ranked > 0):
        gap = np.where(free, np.abs(ranked + ranked[i]), np.inf)
        j = int(np.argmin(gap))
        if gap[j] <= MIRROR_RTOL * max(1.0, ranked[i]):
            free[j] = False
            partners[int(i)] = j
    return partners


def _work_items(spec: SweepSpec) -> list[tuple]:
    """The (x, params, truncation, modes, orders, mirror) pool tasks of a
    sweep, in ascending x.  In a resonant detuning sweep each x > 0 takes
    the grid value x' paired with it by :func:`_mirror_partners` as
    mirror = (x', params at x'), and x' has no task of its own; every other
    task has mirror None."""
    ranked = np.sort(spec.grid)
    partners = _mirror_partners(ranked) if spec.resonant else {}  # a delta_smr sweep
    paired = set(partners.values())
    items = []
    for i, x in enumerate(ranked.tolist()):
        if i in paired:
            continue
        mirror = None
        if i in partners:
            x_m = float(ranked[partners[i]])
            mirror = (x_m, spec.point_params(x_m))
        items.append((x, spec.point_params(x), spec.truncation, spec.modes, spec.orders, mirror))
    return items


def _sorted_points(tasks: list[list[tuple]], caller: str) -> list[tuple]:
    """The columns (x, g, error, ...) of the pool tasks' points, ordered by
    x, after one debug line: rows written, steady-state solves run, rows
    taken from a mirrored state and mirrored states that failed their
    certificate."""
    points = sorted((point for task in tasks for point in task), key=lambda point: point[1])
    hows = [point[0] for point in points]
    _log.debug("%s: %d rows, %d steady-state solves, %d rows from a mirrored state, "
               "%d certificate fallbacks", caller, len(points),
               hows.count("solved") + hows.count("fallback"), hows.count("mirrored"),
               hows.count("fallback"))
    return list(zip(*points))[1:]


def run_sweep(spec: SweepSpec, threads: Optional[int] = None) -> SweepResult:
    """Steady-state correlation quantities along a parameter grid.

    One point per grid value; a point's solver failure is recorded as its
    error and does not abort the sweep.  A resonant detuning sweep solves
    one point of each mirror pair and takes the other point's state from
    the mirror (see :func:`_work_items`); every point's correlations are
    read from its own state, and the result does not depend on the grid's
    order.
    """
    items = _work_items(spec)
    x, g, errors = _sorted_points(_map_points(_sweep_point, items, threads), "run_sweep")
    return SweepResult(spec, np.array(x), np.array(g), list(errors),
                       pool_workers(threads, len(items)))


def _oracle_point(x: float, p: SystemParams, cfg: TruncationConfig, _modes, _orders,
                  mirror: Optional[tuple[float, SystemParams]] = None) -> list[tuple]:
    """:func:`_sweep_point` points for modes a, b, c at k = 2, each followed
    by the weak-drive oracle's (g2_a, g2_b, g2_c) at its own parameters,
    NaN where the oracle fails, and the oracle's error ("" when none)."""
    points = []
    for point, q in zip(_sweep_point(x, p, cfg, ("a", "b", "c"), (2,), mirror),
                        [p] if mirror is None else [p, mirror[1]]):
        try:
            points.append(point + (oracle_g2(steady_amplitudes(q)), ""))
        except PolaritonError as exc:
            points.append(point + (np.full(3, np.nan), f"{type(exc).__name__}: {exc}"))
    return points


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
    """Master equation (``sweep.g[:, 0, :3]``, g2 of modes a, b, c) against
    the weak-drive oracle (``oracle[i]``, (g2_a, g2_b, g2_c) at point i, NaN
    where ``oracle_errors[i]`` names its failure) along one sweep."""

    sweep: SweepResult
    oracle: np.ndarray
    oracle_errors: list[str]
    summary: dict


def compare_oracle(spec: SweepSpec, threads: Optional[int] = None) -> OracleComparison:
    """Master-equation vs weak-drive-oracle g2 along a sweep.

    Every point carries both methods' values and errors, and the oracle
    runs at every point's own parameters; a resonant detuning sweep pairs
    its points as :func:`run_sweep` does.  The summary locates the extrema
    of each mode's curve for both methods (grid-resolution locations,
    deepest/highest first).
    """
    items = _work_items(spec)
    x, g, errors, oracle, oracle_errors = _sorted_points(
        _map_points(_oracle_point, items, threads), "compare_oracle")
    sweep = SweepResult(spec, np.array(x), np.array(g), list(errors),
                        pool_workers(threads, len(items)))
    oracle = np.array(oracle)
    summary: dict = {"grid_step": float(sweep.x[1] - sweep.x[0]) if len(sweep.x) > 1 else 0.0}
    for method, values in (("me", sweep.g[:, 0, :3]), ("oracle", oracle)):
        for i, mode in enumerate("abc"):  # NaN exactly where a value is undefined
            summary[f"{method}_g2_{mode}"] = _extrema(sweep.x, values[:, i])
    return OracleComparison(sweep, oracle, list(oracle_errors), summary)


def g2tau_point(p: SystemParams, cfg: TruncationConfig, tau_grid: Sequence[float],
                modes: Sequence[str] = ("a", "b", "c")
                ) -> tuple[np.ndarray, list[Optional[DynamicsLabel]]]:
    """Delay-time curves of one operating point, one row per mode, on a grid
    in units of 1/gamma, and each curve's dynamics label (None where it
    cannot be classified)."""
    rho, L = solve_point(p, cfg)
    curves = np.array([g2_tau(rho, L, mode, tau_grid) for mode in modes])
    labels = []
    for curve in curves:
        try:
            labels.append(classify_dynamics(tau_grid, curve, p))
        except PolaritonError:
            labels.append(None)
    return curves, labels


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


def spectrum_sweep(preset: str, g: float, omega_m_grid: Sequence[float],
                   manifolds: Sequence[int] = (1, 2, 3),
                   frequencies: Optional[tuple[float, float]] = None) -> dict[int, np.ndarray]:
    """Lab-frame manifold frequencies of H(+) versus the mechanical frequency:
    for each manifold n, the (grid points, dimension of n) array of its
    ascending frequencies.

    The photon and qubit frequencies come from the preset's absolute
    values unless ``frequencies`` = (omega_smr, omega_q) overrides them;
    drives are zeroed, so H(+) conserves the polariton number and each
    manifold's blocks along the grid take one batched eigvalsh.
    """
    pre = PRESETS[preset]
    omega_smr, _, omega_q = pre.frequencies
    if frequencies is not None:
        omega_smr, omega_q = frequencies
    base = pre.params.with_(eta_a=0.0, eta_b=0.0, g=g,
                            delta_a=omega_smr, delta_q=omega_q)
    cfg = TruncationConfig(n_a_max=max(3, max(manifolds)), n_b_max=max(3, max(manifolds)))
    grid = np.asarray(omega_m_grid, dtype=float)
    start = time.perf_counter()
    blocks = [manifold_blocks(hamiltonian_undriven(base.with_(delta_b=omega_m), +1, cfg),
                              manifolds, cfg) for omega_m in grid.tolist()]
    rows = {n: np.linalg.eigvalsh(np.stack([b[k] for b in blocks]))
            for k, n in enumerate(manifolds)}
    _log.debug("spectrum_sweep: %d grid points, manifolds %s, dimension %d, %.4f s",
               len(grid), list(manifolds), cfg.dim, time.perf_counter() - start)
    return rows


def resonance_distance_sweep(preset: str, g: float, delta_smr_grid: Sequence[float]
                             ) -> np.ndarray:
    """(D_1PR, D_2PR, D_3PR) of H(+) versus the photon-pump detuning, in the
    preset's lab frame: a (3, grid points) array."""
    pre = PRESETS[preset]
    omega_smr, omega_m, omega_q = pre.frequencies
    base = pre.params.with_(eta_a=0.0, eta_b=0.0, g=g, delta_a=omega_smr,
                            delta_b=omega_m, delta_q=omega_q)
    cfg = TruncationConfig(n_a_max=3, n_b_max=3)
    grid = np.asarray(delta_smr_grid, dtype=float)
    start = time.perf_counter()
    H = hamiltonian_undriven(base, +1, cfg)
    d = resonance_distances(omega_smr - grid, [manifold_spectrum(H, n, cfg) for n in (1, 2, 3)])
    _log.debug("resonance_distance_sweep: %d grid points, manifolds [1, 2, 3], dimension %d, "
               "%.4f s", len(grid), cfg.dim, time.perf_counter() - start)
    return d
