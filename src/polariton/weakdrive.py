"""Analytic weak-drive oracle: steady-state amplitudes without quantum jumps.

For the phonon-driven system at a common detuning with equal resonator
decay rates, the steady state truncated at two total excitations is fixed
by small linear systems over the basis amplitudes C_{n_a n_b q}.  The
resulting approximations

    g2_a ~ 2 |C20g|^2 / |C10g|^4,   g2_b ~ 2 |C02g|^2 / |C01g|^4,

and, after the balanced-coupler transform of the amplitudes,
g2_c ~ 2 |C'20g|^2 / |C'10g|^4, serve as a jump-free cross-check of the
master-equation results.  The defining linear systems are ground truth
here; the equivalent closed-form expressions are kept as cross-checks (they
carry a global sign inherited from the opposite drive-phase convention,
which cancels in every observable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ResonanceSingularityError, UndefinedCorrelationError
from .model import SystemParams

#: |C|^2 denominators at or below this make the oracle g2 undefined.
OCCUPANCY_FLOOR = 1e-12

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class AmplitudeSet:
    """Steady-state amplitudes of the weak-drive expansion, C00g fixed at 1."""

    c10g: complex
    c01g: complex
    c00e: complex
    c11g: complex
    c20g: complex
    c02g: complex
    c10e: complex
    c01e: complex
    c00g: complex = 1.0


@dataclass(frozen=True)
class HybridAmplitudeSet:
    """Amplitudes in the hybrid-mode basis (balanced-coupler images)."""

    c10g: complex
    c01g: complex
    c10e: complex
    c01e: complex
    c11g: complex
    c20g: complex
    c02g: complex


@dataclass(frozen=True)
class OracleG2:
    """Weak-drive estimates of the three second-order correlations."""

    g2_a: float
    g2_b: float
    g2_c: float


def _oracle_context(p: SystemParams) -> tuple[float, float, float, complex, complex]:
    """Validate the oracle preconditions and return (f, g, eta, D_kappa, D_gamma)."""
    scale = max(1.0, abs(p.delta_a))
    if abs(p.delta_a - p.delta_b) > 1e-12 * scale or abs(p.delta_a - p.delta_q) > 1e-12 * scale:
        raise ParameterError(
            "the weak-drive oracle requires a common detuning "
            f"(got {p.delta_a}, {p.delta_b}, {p.delta_q})")
    if abs(p.kappa_a - p.kappa_b) > 1e-12 * max(1.0, p.kappa_a):
        raise ParameterError(
            f"the weak-drive oracle assumes kappa_a = kappa_b (got {p.kappa_a} "
            f"and {p.kappa_b}); use the master-equation path for unequal rates")
    if p.eta_a != 0.0:
        raise ParameterError("the oracle covers the phonon-driven case only (eta_a must be 0)")
    delta = p.delta_a
    d_kappa = delta - 0.5j * p.kappa_a
    d_gamma = delta - 0.5j * p.gamma
    return p.f, p.g, p.eta_b, d_kappa, d_gamma


def solve_single_excitation(p: SystemParams) -> tuple[complex, complex, complex]:
    """Solve the single-excitation amplitude system; returns (C01g, C10g, C00e).

    The equations (with C00g = 1, D_k = Delta - i kappa/2, D_g = Delta - i gamma/2):

        D_k C01g + f C10g + eta        = 0
        D_k C10g + f C01g + g C00e     = 0
        D_g C00e + g C10g              = 0
    """
    f, g, eta, d_kappa, d_gamma = _oracle_context(p)
    A = np.array([[d_kappa, f, 0.0],
                  [f, d_kappa, g],
                  [0.0, g, d_gamma]], dtype=complex)
    rhs = np.array([-eta, 0.0, 0.0], dtype=complex)
    try:
        c01g, c10g, c00e = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise ResonanceSingularityError(f"single-excitation system is singular: {exc}")
    return complex(c01g), complex(c10g), complex(c00e)


def solve_double_excitation(
        p: SystemParams,
        singles: tuple[complex, complex, complex]) -> tuple[complex, complex, complex, complex, complex]:
    """Solve the two-excitation system; returns (C11g, C20g, C02g, C10e, C01e).

    ``singles`` is the (C01g, C10g, C00e) triple feeding the drive terms:

        2 D_k C11g + s2 f C20g + s2 f C02g + g C01e = -eta C10g
        (D_k + D_g) C10e + f C01e + s2 g C20g       = 0
        (D_k + D_g) C01e + f C10e + g C11g          = -eta C00e
        2 D_k C20g + s2 f C11g + s2 g C10e          = 0
        2 D_k C02g + s2 f C11g                      = -s2 eta C01g
    """
    f, g, eta, d_kappa, d_gamma = _oracle_context(p)
    c01g, c10g, c00e = singles
    dk2 = 2.0 * d_kappa
    dkg = d_kappa + d_gamma
    A = np.array([
        [dk2, _SQRT2 * f, _SQRT2 * f, 0.0, g],
        [0.0, _SQRT2 * g, 0.0, dkg, f],
        [g, 0.0, 0.0, f, dkg],
        [_SQRT2 * f, dk2, 0.0, _SQRT2 * g, 0.0],
        [_SQRT2 * f, 0.0, dk2, 0.0, 0.0],
    ], dtype=complex)
    rhs = np.array([-eta * c10g, 0.0, -eta * c00e, 0.0, -_SQRT2 * eta * c01g], dtype=complex)
    try:
        c11g, c20g, c02g, c10e, c01e = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise ResonanceSingularityError(f"two-excitation system is singular: {exc}")
    return complex(c11g), complex(c20g), complex(c02g), complex(c10e), complex(c01e)


def steady_amplitudes(p: SystemParams) -> AmplitudeSet:
    """Full amplitude set from the two linear solves."""
    singles = solve_single_excitation(p)
    c11g, c20g, c02g, c10e, c01e = solve_double_excitation(p, singles)
    c01g, c10g, c00e = singles
    return AmplitudeSet(c10g=c10g, c01g=c01g, c00e=c00e, c11g=c11g,
                        c20g=c20g, c02g=c02g, c10e=c10e, c01e=c01e)


def bs_transform_amplitudes(amps: AmplitudeSet) -> HybridAmplitudeSet:
    """Balanced-coupler images of the amplitudes (hybrid-mode basis).

    Each (n_c, n_d) amplitude is the coefficient of |n_c, n_d> in the Fock
    basis of c, d = (a +/- b)/sqrt(2): the outputs of ``linear_coupler`` at
    theta = pi/4, which ``hybrid_mode_operator`` names c and d.  The signs
    follow from a' = (c' + d')/sqrt(2) and b' = (c' - d')/sqrt(2): a term
    changes sign once for each d quantum that comes from a b'.
    """
    return HybridAmplitudeSet(
        c10g=(amps.c10g + amps.c01g) / _SQRT2,
        c01g=(amps.c10g - amps.c01g) / _SQRT2,
        c10e=(amps.c10e + amps.c01e) / _SQRT2,
        c01e=(amps.c10e - amps.c01e) / _SQRT2,
        c11g=(amps.c20g - amps.c02g) / _SQRT2,
        c20g=(amps.c20g + _SQRT2 * amps.c11g + amps.c02g) / 2.0,
        c02g=(amps.c20g - _SQRT2 * amps.c11g + amps.c02g) / 2.0,
    )


def oracle_g2(amps: AmplitudeSet) -> OracleG2:
    """Weak-drive g2 estimates for the photon, phonon, and hybrid-c modes."""
    hybrid = bs_transform_amplitudes(amps)
    out = []
    for label, c2, c1 in (("a", amps.c20g, amps.c10g),
                          ("b", amps.c02g, amps.c01g),
                          ("c", hybrid.c20g, hybrid.c10g)):
        occ = abs(c1) ** 2
        if occ <= OCCUPANCY_FLOOR:
            raise UndefinedCorrelationError(
                f"oracle mode {label}: occupation {occ:.3e} at or below the floor")
        out.append(2.0 * abs(c2) ** 2 / occ ** 2)
    return OracleG2(*out)


def closed_form_single(p: SystemParams) -> tuple[complex, complex]:
    """Closed-form expressions for (C01g, C10g).

    These evaluate the sign convention of the source derivation, which is
    the global negative of :func:`solve_single_excitation`; magnitudes and
    every g2 built from them agree identically.
    """
    f, g, eta, d_kappa, d_gamma = _oracle_context(p)
    x5 = d_kappa**2 * d_gamma - d_gamma * f * f - d_kappa * g * g
    c01g = (d_kappa * d_gamma - g * g) * eta / x5
    c10g = -d_gamma * f * eta / x5
    return complex(c01g), complex(c10g)


def closed_form_double(p: SystemParams) -> tuple[complex, complex, complex]:
    """Closed-form expressions for (C02g, C20g, C11g); same sign convention
    as :func:`closed_form_single`."""
    f, g, eta, d_kappa, d_gamma = _oracle_context(p)
    dk, dg = d_kappa, d_gamma
    dkg = dk + dg
    x1 = dkg**2 - f * f
    x2 = dkg * (2 * dk + 5 * dg) - 4 * f * f
    x3 = 2 * dk * (dk * dk - f * f) * x1
    x4 = (3 * dk * dk * dkg + (dk - dg) * f * f) * g * g - dk * g**4
    x5 = dk * dk * dg - dg * f * f - dk * g * g
    x6 = 3 * dk * dk + 4 * dk * dg + f * f
    x7 = dk * (2 * f * f - 3 * dg * dkg)
    denom = _SQRT2 * x5 * (x3 - x4)
    c02g = eta**2 * (-2 * dk**3 * dg * x1 + dk * dk * x2 * g * g - x6 * g**4 + g**6) / denom
    c20g = -eta**2 * f * f * (2 * dk * dg * x1 + (2 * dk - dg) * dkg * g * g - g**4) / denom
    c11g = eta**2 * f * (2 * dk * dk * dg * x1 + x7 * g * g + dg * g**4) / (x5 * (x3 - x4))
    return complex(c02g), complex(c20g), complex(c11g)
