"""System parameters, rotating-frame Hamiltonians, and mode transformations.

All frequencies and rates are expressed in units of the qubit decay rate
``gamma`` (numerically 1).  Physical times follow from gamma = 10*pi rad/us,
so a dimensionless delay tau corresponds to tau / (10*pi) microseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import ParameterError, TruncationError
from .hilbert import QOperator, TruncationConfig, annihilation, embed, qubit_lowering

#: Qubit decay rate in angular frequency units, rad / microsecond.
GAMMA_RAD_PER_US = 10.0 * math.pi


def tau_to_us(tau: float) -> float:
    """Convert a delay in units of 1/gamma to microseconds."""
    return tau / GAMMA_RAD_PER_US


def us_to_tau(t_us: float) -> float:
    """Convert a delay in microseconds to units of 1/gamma."""
    return t_us * GAMMA_RAD_PER_US


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


class ModeSelector(str, Enum):
    """Bare photon/phonon modes and their balanced hybrid combinations."""

    A = "a"
    B = "b"
    C = "c"  # (a + b) / sqrt(2)
    D = "d"  # (a - b) / sqrt(2)


@lru_cache(maxsize=8)
def _bare_ops(cfg: TruncationConfig) -> tuple[QOperator, QOperator, QOperator]:
    """Composite-space a, b, sigma_- operators (immutable, cached per config)."""
    a = embed(annihilation(cfg.n_a_max + 1), "photon", cfg)
    b = embed(annihilation(cfg.n_b_max + 1), "phonon", cfg)
    sm = embed(qubit_lowering(), "qubit", cfg)
    return a, b, sm


def polariton_number(cfg: TruncationConfig) -> QOperator:
    """Total excitation number a'a + b'b + sigma_+ sigma_-.

    Built from the basis-label enumeration so the diagonal holds exact
    integers; conservation identities then hold bitwise rather than to
    rounding error (sqrt(n)^2 is not exactly n in floats).
    """
    diag = np.array([lab.excitations for lab in cfg.labels()], dtype=float)
    return QOperator(np.diag(diag), cfg.dims)


def _hermitian_pair(op: QOperator) -> QOperator:
    # T + T' built from one matrix so Hermiticity holds exactly in floats
    return QOperator(op.matrix + op.matrix.conj().T, op.dims)


def _assemble(p: SystemParams, cfg: TruncationConfig, drive: str, sign: int) -> QOperator:
    a, b, sm = _bare_ops(cfg)
    H = (p.delta_a * (a.dag() @ a)
         + p.delta_b * (b.dag() @ b)
         + p.delta_q * (sm.dag() @ sm)
         + p.g * _hermitian_pair(a.dag() @ sm))
    hop = a @ b.dag()
    if sign > 0:
        H = H + p.f * _hermitian_pair(hop)
    else:
        # H_-: the hopping enters through the anti-Hermitian combination
        # i*(a'b - a b') with real f, which keeps H exactly Hermitian.  This
        # phase choice is the one under which photon/phonon number
        # correlations match H_+ with the hybrid mode taken as (-i a + b)/sqrt2.
        H = H + QOperator(1j * p.f * (hop.matrix.conj().T - hop.matrix), hop.dims)
    if drive == "a":
        H = H + p.eta_a * _hermitian_pair(a)
    elif drive == "b":
        H = H + p.eta_b * _hermitian_pair(b)
    return H


def hamiltonian_smr_driven(p: SystemParams, cfg: TruncationConfig) -> QOperator:
    """Rotating-frame Hamiltonian with the photon (SMR) mode driven.

    H' = d_a a'a + d_b b'b + d_q s+s- + g(a's- + a s+) + f(a'b + a b')
         + eta_a (a + a').
    """
    return _assemble(p, cfg, drive="a", sign=+1)


def hamiltonian_qd_driven(p: SystemParams, cfg: TruncationConfig) -> QOperator:
    """Rotating-frame Hamiltonian with the phonon (QD) mode driven.

    Identical to the SMR-driven form except the drive term is
    eta_b (b + b').
    """
    return _assemble(p, cfg, drive="b", sign=+1)


def hamiltonian_undriven(p: SystemParams, sign: int, cfg: TruncationConfig) -> QOperator:
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
def hybrid_mode_operator(sel: Union[ModeSelector, str], cfg: TruncationConfig) -> QOperator:
    """Annihilation operator of a bare or hybrid mode on the composite space.

    Modes c and d are the balanced combinations (a +/- b)/sqrt(2), the
    outputs of :func:`linear_coupler` at theta = pi/4.  Cached per mode and cutoffs.
    """
    sel = ModeSelector(sel)
    if sel in (ModeSelector.C, ModeSelector.D):
        c, d = linear_coupler(math.pi / 4, cfg)
        return c if sel is ModeSelector.C else d
    a, b, _ = _bare_ops(cfg)
    return a if sel is ModeSelector.A else b


def linear_coupler(theta: float, cfg: TruncationConfig) -> tuple[QOperator, QOperator]:
    """General linear-coupler (beam-splitter) output modes.

    Returns (c(theta), d(theta)) with c = a sin(theta) + b cos(theta) and
    d = a cos(theta) - b sin(theta).  theta = pi/4 defines the balanced
    hybrid modes c and d of :func:`hybrid_mode_operator`; theta = pi/2 acts
    as a multi-level SWAP (a, -b), and theta = 0 relabels the modes as (b, a).
    """
    a, b, _ = _bare_ops(cfg)
    s, c = math.sin(theta), math.cos(theta)
    return (s * a + c * b, c * a - s * b)


def hamiltonian_smr_driven_bs(p: SystemParams, cfg: TruncationConfig) -> QOperator:
    """SMR-driven Hamiltonian written in terms of the hybrid modes c, d.

    Algebraically identical to :func:`hamiltonian_smr_driven`; exposed so
    the hybrid-mode picture (qubit coupled to both c and d with strength
    g/sqrt(2), detunings (d_a + d_b)/2 +/- f, residual c-d coupling
    (d_a - d_b)/2) can be inspected and tested directly.
    """
    _, _, sm = _bare_ops(cfg)
    c, d = linear_coupler(math.pi / 4, cfg)
    delta_mean = 0.5 * (p.delta_a + p.delta_b)
    delta_cd = 0.5 * (p.delta_a - p.delta_b)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    H = ((delta_mean + p.f) * (c.dag() @ c)
         + (delta_mean - p.f) * (d.dag() @ d)
         + p.delta_q * (sm.dag() @ sm)
         + delta_cd * _hermitian_pair(c.dag() @ d)
         + inv_sqrt2 * p.g * (_hermitian_pair(c.dag() @ sm) + _hermitian_pair(d.dag() @ sm))
         + inv_sqrt2 * p.eta_a * (_hermitian_pair(c) + _hermitian_pair(d)))
    return H


@lru_cache(maxsize=8)
def _bs_unitary(cfg: TruncationConfig) -> np.ndarray:
    # a'b - b'a conserves n_a + n_b, so expm is block-diagonal in the total
    # quanta, and every block with n_a + n_b <= min(cutoffs) is exact
    import scipy.linalg
    a, b, _ = _bare_ops(cfg)
    return scipy.linalg.expm(math.pi / 4 * (a.dag() @ b - b.dag() @ a).matrix)


def bs_fock_map(state: np.ndarray, cfg: TruncationConfig) -> np.ndarray:
    """Apply the balanced coupler exp(pi/4 (a'b - b'a)) to the two bosonic modes.

    The qubit factor is untouched.  Defined on the sector with at most two
    bosonic quanta in total; support outside that sector raises
    :class:`TruncationError`.  |1,0> maps to (|1,0> - |0,1>)/sqrt(2): the
    second output is -d, the opposite sign to :func:`hybrid_mode_operator`'s
    d, so the (n_c, n_d) amplitude is (-1)^n_d times the (n_c, n_d) component.
    """
    state = np.asarray(state, dtype=complex)
    if state.shape != (cfg.dim,):
        raise TruncationError(f"state length {state.shape} does not match dim {cfg.dim}")
    outside = sum(abs(state[cfg.index_of(lab)]) ** 2
                  for lab in cfg.labels() if lab.n_a + lab.n_b > 2)
    if outside > 1e-24:
        raise TruncationError(
            f"state has weight {outside:.3e} on >2 bosonic quanta; the balanced-coupler "
            "map is defined on the two-excitation sector only")
    return _bs_unitary(cfg) @ state
