"""Manifold-resolved eigenanalysis of the undriven Hamiltonians.

The undriven H(+/-) conserves the polariton number, so it is block
diagonal over the manifolds of fixed total excitation; each block is
diagonalised directly, its states picked by their excitation numbers.
Closed forms for the first two manifolds at a common detuning and the
dressed-doublet ladder of the bare qubit-photon model provide independent
cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ParameterError
from .hilbert import TruncationConfig, excitation_numbers
from .model import SystemParams


def manifold_blocks(H: np.ndarray, manifolds: Sequence[int],
                    cfg: TruncationConfig) -> list[np.ndarray]:
    """H's blocks on the n-polariton manifolds ``manifolds``, in that order,
    basis states in canonical order.  H, on the space of ``cfg``, must
    conserve the polariton number: one check for all blocks raises a
    precondition error on any element between different manifolds."""
    cfg.check_operator(H, "Hamiltonian")
    excitations = excitation_numbers(cfg)
    mask = excitations[:, None] != excitations[None, :]
    off_block = np.abs(H[mask])
    if off_block.size and off_block.max() > 1e-14 * max(1.0, np.linalg.norm(H)):
        raise ParameterError(
            "Hamiltonian does not conserve the polariton number "
            f"(off-manifold weight {off_block.max():.2e}); was it built with a drive?")
    blocks = []
    for n in manifolds:
        idx = np.flatnonzero(excitations == n)
        if idx.size == 0:
            raise ParameterError(f"manifold n={n} is empty within truncation {cfg.dims}")
        blocks.append(H[idx[:, None], idx])
    return blocks


def manifold_spectrum(H: np.ndarray, n: int, cfg: TruncationConfig) -> np.ndarray:
    """Eigenvalues of H's block on the n-polariton manifold, ascending;
    degenerate ones keep the deterministic LAPACK order."""
    return np.linalg.eigvalsh(manifold_blocks(H, (n,), cfg)[0])


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


def resonance_distances(omega_p, spectra: Sequence[np.ndarray]) -> np.ndarray:
    """D_kPR = min_i |k omega_p - w_i^(k)|^2 for k = 1, 2, 3, as an array of
    shape (3,) + shape(omega_p).

    ``spectra`` holds the frequencies of the manifolds n = 1, 2, 3, in that
    order, in the same frame as omega_p (lab frame for pump-resonance
    diagnostics).
    """
    if len(spectra) < 3:
        raise ParameterError(f"missing manifold n={len(spectra) + 1} for resonance distances")
    omega_p = np.asarray(omega_p, dtype=float)[..., None]
    dists = []
    for k, freqs in zip((1, 2, 3), spectra):
        if np.size(freqs) == 0:
            raise ParameterError(f"manifold n={k} is empty")
        dists.append(np.min(np.abs(k * omega_p - freqs) ** 2, axis=-1))
    return np.array(dists)


def minimum_gap(frequency_rows) -> float:
    """Smallest adjacent-level gap across a sweep of sorted manifold
    spectra, given as a (points, levels) array.

    A strictly positive result over an anti-crossing window certifies that
    the levels repel rather than cross.
    """
    rows = np.asarray(frequency_rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] < 2:
        raise ParameterError("need at least one spectrum with two levels")
    return float(np.diff(rows, axis=1).min())
