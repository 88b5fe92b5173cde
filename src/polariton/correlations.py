"""Boson-number correlation functions and case classifications.

Zero-delay correlations g^(k)(0) = <z'^k z^k> / <z'z>^k are evaluated for
the bare modes a, b and the balanced hybrid modes c, d.  Hybrid-mode
moments are always computed by expanding the mode operator in a and b
first, so only annihilation products act on the truncated space and no
cutoff-boundary commutations occur.  A mode is named by a letter of
:data:`polariton.model.MODES`, whose operators are cached per truncation and
read from the state's ``cfg``, or given as a custom annihilation operator: a
d x d array on the same composite space, whose side is checked against it.

Delay-time curves g^(2)(tau) follow from the quantum regression theorem:
the operator-dressed steady state z rho z' is propagated under the same
Liouvillian and its occupation read out along the grid.  The dressed state
is Hermitian, so it is propagated on its real form R = Re X + Im X (see
:mod:`polariton.lindblad`) by Chebyshev steps on an ellipse around the
Liouvillian's spectrum (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967
(1984)), and read out as c . vec R(tau) with c = vec(Re n + Im n) for
n = z'z from each step's terms, so memory does not grow with the delays.
The modes of one call share the steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (ClassificationError, InsufficientDataError,
                     UndefinedCorrelationError)
from .hilbert import TruncationConfig
from .lindblad import DensityMatrix, Liouvillian, _propagate, _real_form
from .model import SystemParams, hybrid_mode_operator, mode_moment

#: Mean occupations, and the weak-drive oracle's |C|^2 denominators, at or
#: below this make g^(k) undefined (0/0 guard).
OCCUPANCY_FLOOR = 1e-12
#: |g2 - 1| within this band is reported as Poissonian / boundary.
POISSONIAN_BAND = 1e-2
#: Bunching comparisons must exceed this absolute band to count.
UNBUNCHED_BAND = 1e-3
#: dominant_period ignores lines slower than this many full cycles per window.
MIN_CYCLES = 4.0

ModeLike = Union[str, np.ndarray]


@dataclass(frozen=True)
class StatisticsCase:
    """Sign-pattern classification of (g2_a, g2_b, g2_c).

    ``case`` is the 1..8 pattern number, or None when some value sits
    exactly at the Poissonian point.  ``boundary`` flags any value inside
    the Poissonian band; the strict signs are always recorded.
    """

    case: Optional[int]
    signs: tuple[int, int, int]
    boundary: bool


@dataclass(frozen=True)
class DynamicsLabel:
    """Joint single-time / two-time classification of a g2(tau) curve.

    ``case`` is 'I'..'IV' when both the statistics (sub/super) and the
    bunching comparison are strict, otherwise None (Poissonian statistics
    or an unbunched curve).
    """

    case: Optional[str]
    statistics: str  # 'sub' | 'super' | 'poissonian'
    bunching: str    # 'antibunched' | 'bunched' | 'unbunched'


_SIGN_TO_CASE = {
    (-1, -1, -1): 1, (-1, -1, +1): 2, (-1, +1, -1): 3, (+1, -1, -1): 4,
    (-1, +1, +1): 5, (+1, -1, +1): 6, (+1, +1, -1): 7, (+1, +1, +1): 8,
}


def _resolve_mode(mode: ModeLike, cfg: TruncationConfig,
                  k: int) -> tuple[str, np.ndarray, np.ndarray, np.ndarray]:
    """Name, operator z, number operator z'z and moment z'^k z^k of a mode;
    cached per truncation for the named modes, built per call for a custom one."""
    if isinstance(mode, np.ndarray):
        cfg.check_operator(mode, "mode operator")
        zk = np.linalg.matrix_power(mode, k)
        return "custom", mode, mode.conj().T @ mode, zk.conj().T @ zk
    return (mode, hybrid_mode_operator(mode, cfg), mode_moment(mode, cfg, 1),
            mode_moment(mode, cfg, k))


def _mean_occupation(rho: DensityMatrix, name: str, n_op: np.ndarray, k: int) -> float:
    """<z'z> of a mode in ``rho``; raises :class:`UndefinedCorrelationError`,
    as g^(k) is undefined, when it is at or below the occupancy floor."""
    n_mean = float(np.einsum("ij,ji->", rho.matrix, n_op).real)
    if n_mean <= OCCUPANCY_FLOOR:
        raise UndefinedCorrelationError(
            f"mode {name}: mean occupation {n_mean:.3e} is at or below the floor "
            f"{OCCUPANCY_FLOOR:.0e}; g^({k})(0) is undefined")
    return n_mean


def g_k_zero(rho: DensityMatrix, mode: ModeLike, k: int = 2) -> float:
    """k-th order zero-delay intensity correlation of the selected mode.

    Raises :class:`UndefinedCorrelationError` when the mean occupation is
    at or below the occupancy floor, or when the k-th moment is negative,
    which no state allows: it then carries the steady state's solve error.
    """
    if k < 2:
        raise ValueError(f"correlation order must be >= 2, got {k}")
    name, _, n_op, moment = _resolve_mode(mode, rho.cfg, k)
    n_mean = _mean_occupation(rho, name, n_op, k)
    if not moment.any():  # z'^k z^k vanishes exactly when z^k does
        raise UndefinedCorrelationError(
            f"mode {name}: the k={k} moment is identically zero at this truncation; "
            "raise the Fock cutoffs to represent it")
    num = float(np.einsum("ij,ji->", rho.matrix, moment).real)
    if num < 0.0:
        raise UndefinedCorrelationError(
            f"mode {name}: the k={k} moment {num:.3e} is negative; the steady state "
            "does not resolve it")
    return num / n_mean**k


def g2_tau(rho_ss: DensityMatrix, L: Liouvillian, modes: Sequence[ModeLike],
           tau_grid: Sequence[float]) -> np.ndarray:
    """Delay-time g^(2)(tau) of each mode, a (modes, delays) array on a grid
    in units of 1/gamma, via the quantum regression theorem.

    ``modes`` is a sequence of modes, each a letter of MODES or an operator;
    a string such as "abcd" names one mode per letter.  Their curves are
    propagated in lockstep.  ``rho_ss`` must be the steady state of ``L``.
    The grid must start at tau = 0 so the zero-delay consistency invariant
    is meaningful.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.size == 0 or tau_grid[0] != 0.0:
        raise InsufficientDataError("tau_grid must start at 0")
    resolved = [_resolve_mode(mode, rho_ss.cfg, 1) for mode in modes]
    n_means = np.array([_mean_occupation(rho_ss, name, n_op, 2) for name, _, n_op, _ in resolved])
    dressed = np.array([z @ rho_ss.matrix @ z.conj().T for _, z, _, _ in resolved])
    # Tr(n X) = c . vec R(X) for Hermitian n and X, with c = vec R(n).  The
    # dressed states are propagated unnormalised, so that _propagate rejects a
    # non-finite one before anything divides by its trace
    readouts = np.array([_real_form(n_op).reshape(-1) for _, _, n_op, _ in resolved])
    return _propagate(dressed, L, tau_grid, readouts) / n_means[:, None] ** 2


def classify_statistics(g2_a: float, g2_b: float, g2_c: float) -> StatisticsCase:
    """Map the (a, b, c) sign triple onto the eight blockade/tunnelling cases."""
    vals = (g2_a, g2_b, g2_c)
    if not all(np.isfinite(v) for v in vals):
        raise ClassificationError(f"cannot classify non-finite values {vals}")
    signs, _ = sign_pattern(vals)
    boundary = any(abs(v - 1.0) <= POISSONIAN_BAND for v in vals)
    return StatisticsCase(_SIGN_TO_CASE.get(signs), signs, boundary)


def classify_dynamics(taus: Sequence[float], values: Sequence[float],
                      p: SystemParams) -> DynamicsLabel:
    """Classify a g2(tau) curve, sampled at delays ``taus`` in units of
    1/gamma, into a blockade/tunnelling dynamics case.

    The comparison window is tau_w = 1/max(kappa_a, kappa_b, gamma).
    Within (0, tau_w] the curve's dominant deviation from g2(0) decides
    between antibunched (upward) and bunched (downward);
    deviations within the unbunched band on both sides give 'unbunched'.
    Cases I..IV require strict sub/super statistics as well.
    """
    tau_w = 1.0 / p.kappa_max
    taus, vals = np.asarray(taus, dtype=float), np.asarray(values, dtype=float)
    if taus[-1] < tau_w * (1.0 - 1e-9):
        raise InsufficientDataError(
            f"curve covers tau <= {taus[-1]:.4g} but the window is {tau_w:.4g}")
    in_window = (taus > 0.0) & (taus <= tau_w * (1.0 + 1e-9))
    if np.count_nonzero(in_window) < 4:
        raise InsufficientDataError("fewer than 4 samples inside the bunching window")
    g2_0 = float(vals[0])
    windowed = vals[in_window]
    dev_up = float(windowed.max() - g2_0)
    dev_dn = float(g2_0 - windowed.min())
    if dev_up <= UNBUNCHED_BAND and dev_dn <= UNBUNCHED_BAND:
        bunching = "unbunched"
    elif dev_up > dev_dn:
        bunching = "antibunched"
    elif dev_dn > dev_up:
        bunching = "bunched"
    else:
        bunching = "unbunched"
    if abs(g2_0 - 1.0) <= POISSONIAN_BAND:
        statistics = "poissonian"
    else:
        statistics = "sub" if g2_0 < 1.0 else "super"
    case = {
        ("sub", "antibunched"): "I",
        ("super", "bunched"): "II",
        ("super", "antibunched"): "III",
        ("sub", "bunched"): "IV",
    }.get((statistics, bunching))
    return DynamicsLabel(case, statistics, bunching)


def sign_pattern(values: Sequence[float]) -> tuple[tuple[int, ...], str]:
    """Signs of log g for each correlation value g, and their '+'/'-'/'0' string."""
    signs = tuple(int(np.sign(v - 1.0)) for v in values)
    return signs, "".join("+" if s > 0 else "-" if s < 0 else "0" for s in signs)


def hybrid_moments_from_local(rho: DensityMatrix) -> tuple[float, float]:
    """Hybrid-mode moments <c'c> and <c'^2 c^2> from photon/phonon moments.

    Evaluates the detection identities that reconstruct the hybrid-mode
    occupation from four local moments and the two-boson moment from nine,
    using f_kl = a'^k a^l and g_mn = b'^m b^n.  Both identities are exact.
    Every product is normally ordered, its lowering operators applied first.
    """
    a = hybrid_mode_operator("a", rho.cfg)
    b = hybrid_mode_operator("b", rho.cfg)
    ad, bd = a.conj().T, b.conj().T

    def ev(mat: np.ndarray) -> complex:
        return complex(np.einsum("ij,ji->", rho.matrix, mat))

    f11, g11 = ad @ a, bd @ b
    first = 0.5 * (ev(f11) + ev(g11) + ev(bd @ a) + ev(ad @ b))
    f22 = ad @ ad @ a @ a
    g22 = bd @ bd @ b @ b
    second = 0.25 * (
        ev(f22)
        + 4.0 * ev(ad @ bd @ a @ b)
        + ev(g22)
        + 2.0 * ev(bd @ bd @ a @ b)
        + 2.0 * ev(ad @ bd @ b @ b)
        + ev(ad @ ad @ b @ b)
        + ev(bd @ bd @ a @ a)
        + 2.0 * ev(ad @ ad @ a @ b)
        + 2.0 * ev(ad @ bd @ a @ a)
    )
    return float(first.real), float(second.real)


def dominant_period(tau: Sequence[float], values: Sequence[float]) -> float:
    """Dominant oscillation period of a sampled curve.

    Removes a cubic trend, applies a Hann window, and locates the largest
    spectral line of the zero-padded FFT (with parabolic interpolation),
    ignoring frequencies slower than ``MIN_CYCLES`` full cycles per window.
    Raises :class:`InsufficientDataError` when the refined line falls below
    that band, i.e. the spectrum peaks at the band's lower edge.
    """
    tau = np.asarray(tau, dtype=float)
    values = np.asarray(values, dtype=float)
    if tau.size < 16:
        raise InsufficientDataError("need at least 16 samples to estimate a period")
    dt = tau[1] - tau[0]
    if not np.allclose(np.diff(tau), dt, rtol=1e-9, atol=1e-12):
        raise InsufficientDataError("period estimation requires a uniform grid")
    detrended = values - np.polyval(np.polyfit(tau, values, 3), tau)
    windowed = detrended * np.hanning(len(detrended))
    n_fft = 8 * len(windowed)
    spectrum = np.abs(np.fft.rfft(windowed, n=n_fft))
    freqs = np.fft.rfftfreq(n_fft, dt)
    span = tau[-1] - tau[0]
    k_min = int(np.searchsorted(freqs, MIN_CYCLES / span))
    k_min = max(k_min, 1)
    if k_min >= len(spectrum) - 1:
        raise InsufficientDataError("window too short for the requested minimum frequency")
    k = k_min + int(np.argmax(spectrum[k_min:]))
    if 0 < k < len(spectrum) - 1:  # parabolic refinement on the linear amplitude spectrum
        y0, y1, y2 = spectrum[k - 1], spectrum[k], spectrum[k + 1]
        denom = y0 - 2 * y1 + y2
        shift = 0.5 * (y0 - y2) / denom if denom != 0 else 0.0
    else:
        shift = 0.0
    f_star = freqs[k] + shift * (freqs[1] - freqs[0])
    if f_star <= 0 or f_star * span < MIN_CYCLES:
        raise InsufficientDataError("no spectral line inside the band")
    return float(1.0 / f_star)
