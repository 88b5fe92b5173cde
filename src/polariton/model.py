"""System parameters, rotating-frame Hamiltonians, and mode transformations.

All frequencies and rates are expressed in units of the qubit decay rate
``gamma`` (numerically 1).  Physical times follow from gamma = 10*pi rad/us,
so a dimensionless delay tau corresponds to tau / (10*pi) microseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import ParameterError
from .hilbert import TruncationConfig, _read_only, lowering

#: Qubit decay rate in angular frequency units, rad / microsecond.
GAMMA_RAD_PER_US = 10.0 * math.pi


def tau_to_us(tau: float) -> float:
    """Convert a delay in units of 1/gamma to microseconds."""
    return tau / GAMMA_RAD_PER_US


@dataclass(frozen=True)
class SystemParams:
    """Detunings, couplings, drives and decay rates, in units of gamma.

    ``delta_a``/``delta_b``/``delta_q`` are the photon (SMR), phonon (QD)
    and qubit detunings from the pump; for lab-frame constructions the same
    fields hold absolute frequencies.  ``g`` couples qubit and photon,
    ``f`` hops excitations between photon and phonon, ``eta_a``/``eta_b``
    drive the photon/phonon mode.  Driving both modes at once is rejected
    at the scenario level, not here.
    """

    delta_a: float = 0.0
    delta_b: float = 0.0
    delta_q: float = 0.0
    g: float = 0.0
    f: float = 0.0
    eta_a: float = 0.0
    eta_b: float = 0.0
    kappa_a: float = 0.0
    kappa_b: float = 0.0
    gamma: float = 1.0

    def __post_init__(self):
        for name in ("kappa_a", "kappa_b", "gamma"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0, got {getattr(self, name)}")

    def with_(self, **changes) -> "SystemParams":
        """Copy with the given fields replaced."""
        return replace(self, **changes)

    @property
    def kappa_max(self) -> float:
        """Largest decay rate max(kappa_a, kappa_b, gamma)."""
        return max(self.kappa_a, self.kappa_b, self.gamma)


#: Bare photon/phonon modes a, b and their balanced hybrid combinations
#: c = (a + b)/sqrt(2), d = (a - b)/sqrt(2).
MODES = ("a", "b", "c", "d")


def _hermitian_pair(op: np.ndarray) -> np.ndarray:
    # T + T' built from one matrix so Hermiticity holds exactly in floats
    return _read_only(op + op.conj().T)


@lru_cache(maxsize=8)
def _hamiltonian_terms(cfg: TruncationConfig) -> dict[str, np.ndarray]:
    """The fixed operator of each Hamiltonian term (read-only, cached per config)."""
    a, b, sm = lowering(cfg)
    ad, bd = a.conj().T, b.conj().T
    hop = a @ bd
    return {
        "n_a": _read_only(ad @ a),
        "n_b": _read_only(bd @ b),
        "n_q": _read_only(sm.conj().T @ sm),
        "qubit_photon": _hermitian_pair(ad @ sm),
        "hop_plus": _hermitian_pair(hop),
        # H_-: the hopping enters through the anti-Hermitian combination
        # i*(a'b - a b') with real f, which keeps H exactly Hermitian.  This
        # phase choice is the one under which photon/phonon number
        # correlations match H_+ with the hybrid mode taken as (-i a + b)/sqrt2.
        "hop_minus": _read_only(hop.conj().T - hop),
        "drive_a": _hermitian_pair(a),
        "drive_b": _hermitian_pair(b),
    }


def _assemble(p: SystemParams, cfg: TruncationConfig, drive: str, sign: int) -> np.ndarray:
    t = _hamiltonian_terms(cfg)
    H = (p.delta_a * t["n_a"] + p.delta_b * t["n_b"] + p.delta_q * t["n_q"]
         + p.g * t["qubit_photon"])
    H = H + (p.f * t["hop_plus"] if sign > 0 else 1j * p.f * t["hop_minus"])
    if drive == "a":
        H = H + p.eta_a * t["drive_a"]
    elif drive == "b":
        H = H + p.eta_b * t["drive_b"]
    return H


def hamiltonian_smr_driven(p: SystemParams, cfg: TruncationConfig) -> np.ndarray:
    """Rotating-frame Hamiltonian with the photon (SMR) mode driven.

    H' = d_a a'a + d_b b'b + d_q s+s- + g(a's- + a s+) + f(a'b + a b')
         + eta_a (a + a').
    """
    return _assemble(p, cfg, drive="a", sign=+1)


def hamiltonian_qd_driven(p: SystemParams, cfg: TruncationConfig) -> np.ndarray:
    """Rotating-frame Hamiltonian with the phonon (QD) mode driven.

    Identical to the SMR-driven form except the drive term is
    eta_b (b + b').
    """
    return _assemble(p, cfg, drive="b", sign=+1)


def hamiltonian_undriven(p: SystemParams, sign: int, cfg: TruncationConfig) -> np.ndarray:
    """Undriven Hamiltonian H(+/-) with photon-phonon hopping of either sign.

    Requires both drives to vanish.  The delta fields serve as the free
    frequencies of the caller's frame (detunings or absolute values).
    """
    if p.eta_a != 0.0 or p.eta_b != 0.0:
        raise ParameterError("hamiltonian_undriven requires eta_a = eta_b = 0")
    if sign not in (+1, -1):
        raise ParameterError(f"sign must be +1 or -1, got {sign}")
    return _assemble(p, cfg, drive="", sign=sign)


@lru_cache(maxsize=16)
def hybrid_mode_operator(mode: str, cfg: TruncationConfig) -> np.ndarray:
    """Annihilation operator of a mode in :data:`MODES` on the composite space.

    Modes c and d are the balanced combinations (a +/- b)/sqrt(2), the
    outputs of :func:`linear_coupler` at theta = pi/4.  Read-only, cached
    per mode and cutoffs.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; use one of {MODES}")
    if mode in ("c", "d"):
        c, d = linear_coupler(math.pi / 4, cfg)
        return c if mode == "c" else d
    a, b, _ = lowering(cfg)
    return a if mode == "a" else b


@lru_cache(maxsize=64)
def mode_moment(mode: str, cfg: TruncationConfig, k: int = 1) -> np.ndarray:
    """z'^k z^k of a bare or hybrid mode z: its number operator at k = 1
    (read-only, cached per mode, order and cutoffs)."""
    zk = np.linalg.matrix_power(hybrid_mode_operator(mode, cfg), k)
    return _read_only(zk.conj().T @ zk)


def linear_coupler(theta: float, cfg: TruncationConfig) -> tuple[np.ndarray, np.ndarray]:
    """General linear-coupler (beam-splitter) output modes.

    Returns (c(theta), d(theta)) with c = a sin(theta) + b cos(theta) and
    d = a cos(theta) - b sin(theta).  theta = pi/4 defines the balanced
    hybrid modes c and d of :func:`hybrid_mode_operator`; theta = pi/2 acts
    as a multi-level SWAP (a, -b), and theta = 0 relabels the modes as (b, a).
    Both are read-only.
    """
    a, b, _ = lowering(cfg)
    s, c = math.sin(theta), math.cos(theta)
    return _read_only(s * a + c * b), _read_only(c * a - s * b)
