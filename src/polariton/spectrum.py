"""Manifold-resolved eigenanalysis of the undriven Hamiltonians.

The undriven H(+/-) conserves the polariton number, so it is block
diagonal over the manifolds of fixed total excitation; each block is
diagonalised directly from its Fock-label enumeration.  Closed forms for
the first two manifolds at a common detuning and the dressed-doublet
ladder of the bare qubit-photon model provide independent cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ParameterError
from .hilbert import TruncationConfig
from .model import SystemParams


@dataclass(frozen=True)
class ManifoldSpectrum:
    """Sorted eigenfrequencies of one fixed-excitation manifold."""

    n: int
    frequencies: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frequencies", np.asarray(self.frequencies, dtype=float))


@dataclass(frozen=True)
class ResonanceDistances:
    """Squared detunings of k pump quanta from the nearest k-th manifold level."""

    d1: float
    d2: float
    d3: float


def manifold_spectrum(H: np.ndarray, n: int, cfg: TruncationConfig) -> ManifoldSpectrum:
    """Eigenvalues of H, on the space of ``cfg``, restricted to the
    n-polariton manifold, ascending.

    Requires H to conserve the polariton number; any matrix element
    between different manifolds raises a precondition error.  Degenerate
    eigenvalues keep the deterministic LAPACK ascending order, with basis
    states enumerated by canonical index.
    """
    cfg.check_operator(H, "Hamiltonian")
    excitations = np.array([lab.excitations for lab in cfg.labels()])
    mask = excitations[:, None] != excitations[None, :]
    off_block = np.abs(H[mask])
    if off_block.size and off_block.max() > 1e-14 * max(1.0, np.linalg.norm(H)):
        raise ParameterError(
            "Hamiltonian does not conserve the polariton number "
            f"(off-manifold weight {off_block.max():.2e}); was it built with a drive?")
    idx = np.flatnonzero(excitations == n)
    if idx.size == 0:
        raise ParameterError(f"manifold n={n} is empty within truncation {cfg.dims}")
    return ManifoldSpectrum(n, np.linalg.eigvalsh(H[np.ix_(idx, idx)]))


def _common_detuning(p: SystemParams) -> float:
    if not (math.isclose(p.delta_a, p.delta_b, rel_tol=0, abs_tol=1e-12 * max(1, abs(p.delta_a)))
            and math.isclose(p.delta_a, p.delta_q, rel_tol=0, abs_tol=1e-12 * max(1, abs(p.delta_a)))):
        raise ParameterError(
            f"analytic manifolds need a common detuning, got "
            f"({p.delta_a}, {p.delta_b}, {p.delta_q})")
    return p.delta_a


def analytic_manifolds(p: SystemParams) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Closed-form eigenvalues of the first two manifolds at common detuning.

    First manifold: Delta and Delta -/+ sqrt(g^2 + f^2).  Second manifold:
    2 Delta and 2 Delta +/- (1/2) sqrt(2 (3 g^2 + 5 f^2 -/+ f1)) with
    f1 = sqrt(3 f^2 (10 g^2 + 3 f^2) + g^4).  Both tuples are ascending.
    """
    delta = _common_detuning(p)
    g, f = p.g, p.f
    split1 = math.sqrt(g * g + f * f)
    e1 = (delta - split1, delta, delta + split1)
    f1 = math.sqrt(3 * f * f * (10 * g * g + 3 * f * f) + g**4)
    base = 3 * g * g + 5 * f * f
    outer = 0.5 * math.sqrt(2 * (base + f1))
    inner = 0.5 * math.sqrt(2 * (base - f1))
    e2 = (2 * delta - outer, 2 * delta - inner, 2 * delta, 2 * delta + inner, 2 * delta + outer)
    return e1, e2


@dataclass(frozen=True)
class JCDoublet:
    """Dressed-state doublet of the qubit-photon ladder (no phonon hopping).

    Energies are relative to the mean single-excitation frequency
    (omega + omega_q)/2 per ladder rung, i.e. the numeric manifold n+1 of
    the full Hamiltonian with f = 0 contains e_plus/e_minus shifted by
    that constant.
    """

    n: int
    e_plus: float
    e_minus: float
    rabi: float
    mixing_angle: Optional[float]
    resonant: bool


def jc_spectrum(n: int, p: SystemParams) -> JCDoublet:
    """Dressed doublet E_n(+/-) = n w (+/-) sqrt(D1^2 + O_n^2)/2 with O_n = 2g sqrt(n+1).

    ``w`` is the photon frequency (delta_a in the caller's frame) and
    D1 = delta_q - delta_a.  At D1 = 0 the mixing angle is reported as a
    resonant-limit flag instead of a division by zero.
    """
    if n < 0:
        raise ParameterError(f"ladder index must be >= 0, got {n}")
    omega = p.delta_a
    delta1 = p.delta_q - p.delta_a
    rabi = 2.0 * p.g * math.sqrt(n + 1.0)
    half_split = 0.5 * math.sqrt(delta1 * delta1 + rabi * rabi)
    resonant = delta1 == 0.0
    angle = None if resonant else rabi / delta1
    return JCDoublet(n, n * omega + half_split, n * omega - half_split, rabi, angle, resonant)


def resonance_distances(omega_p: float, spectra: Sequence[ManifoldSpectrum]) -> ResonanceDistances:
    """D_kPR = min_i |k omega_p - w_i^(k)|^2 for k = 1, 2, 3.

    ``spectra`` must contain the manifolds n = 1, 2, 3 (any order); the
    frequencies are interpreted in the same frame as omega_p (lab frame
    for pump-resonance diagnostics).
    """
    by_n = {s.n: s for s in spectra}
    dists = []
    for k in (1, 2, 3):
        if k not in by_n:
            raise ParameterError(f"missing manifold n={k} for resonance distances")
        freqs = by_n[k].frequencies
        if freqs.size == 0:
            raise ParameterError(f"manifold n={k} is empty")
        dists.append(float(np.min(np.abs(k * omega_p - freqs) ** 2)))
    return ResonanceDistances(*dists)


def minimum_gap(frequency_rows: Sequence[np.ndarray]) -> float:
    """Smallest adjacent-level gap across a sweep of sorted manifold spectra.

    A strictly positive result over an anti-crossing window certifies that
    the levels repel rather than cross.
    """
    gaps = [np.diff(np.asarray(row, dtype=float)).min() for row in frequency_rows
            if len(row) >= 2]
    if not gaps:
        raise ParameterError("need at least one spectrum with two levels")
    return float(min(gaps))
