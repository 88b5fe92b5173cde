import functools
import logging
import re

import numpy as np
import pytest

from polariton import (DensityMatrix, DimensionError, InsufficientDataError, IntegrationError,
                       ClassificationError, SystemParams, TruncationConfig,
                       UndefinedCorrelationError,
                       build_liouvillian, bundle_params, classify_dynamics,
                       classify_statistics,
                       dominant_period, g2_tau, g_k_zero,
                       hybrid_moments_from_local,
                       hybrid_mode_operator, preset_params,
                       steady_state, solve_point)
from polariton import correlations
from polariton.correlations import POISSONIAN_BAND, sign_pattern
from polariton.hilbert import lowering
from polariton.lindblad import _propagate
from polariton.model import mode_moment
from polariton.scenarios import _mirror_parity
from helpers import (FockLabel, basis_state, coherent_vector, kron_parity,
                     random_composite_density)

CFG = TruncationConfig(2, 2)


def fock_density(n_a, n_b, q, cfg):
    vec = basis_state(FockLabel(n_a, n_b, q), cfg)
    return DensityMatrix(np.outer(vec, vec.conj()), cfg)


def test_fock_state_law_exact():
    cfg = TruncationConfig(5, 2)
    for n in range(1, 5):
        rho = fock_density(n, 0, "g", cfg)
        val = g_k_zero(rho, "a", 2)
        assert abs(val - (1.0 - 1.0 / n)) < 1e-12
    cfg_b = TruncationConfig(2, 5)
    for n in range(1, 5):
        rho = fock_density(0, n, "g", cfg_b)
        assert abs(g_k_zero(rho, "b", 2) - (1.0 - 1.0 / n)) < 1e-12


def test_two_photon_fock_gives_half():
    rho = fock_density(2, 0, "g", TruncationConfig(3, 2))
    assert g_k_zero(rho, "a", 2) == pytest.approx(0.5, abs=1e-14)


def test_vacuum_undefined():
    rho = fock_density(0, 0, "g", CFG)
    with pytest.raises(UndefinedCorrelationError):
        g_k_zero(rho, "a", 2)


def test_order_below_two_rejected():
    rho = fock_density(1, 0, "g", CFG)
    with pytest.raises(ValueError):
        g_k_zero(rho, "a", 1)


def test_order_beyond_truncation_rejected():
    rho = fock_density(1, 0, "g", CFG)
    with pytest.raises(UndefinedCorrelationError):
        g_k_zero(rho, "a", 3)  # a^3 is identically zero at n_a_max = 2


def test_coherent_state_poissonian():
    cfg = TruncationConfig(9, 2)
    alpha = 0.4
    vec = np.kron(np.kron(coherent_vector(alpha, 10), [1, 0, 0]), [1, 0])
    rho = DensityMatrix(np.outer(vec, vec.conj()), cfg)
    assert g_k_zero(rho, "a", 2) == pytest.approx(1.0, abs=1e-6)


def test_g2_tau_zero_delay_consistency_and_long_time_factorisation():
    p = preset_params("A2", g=4.5)
    cfg = TruncationConfig(3, 3)
    rho, L = solve_point(p, cfg)
    grid = np.linspace(0.0, 20.0, 41)
    for mode, curve in zip("abcd", g2_tau(rho, L, "abcd", grid)):
        ref = g_k_zero(rho, mode, 2)
        assert abs(curve[0] - ref) <= 1e-8 * abs(ref)
        assert abs(curve[-1] - 1.0) <= 1e-3  # ergodic factorisation


def test_g2_tau_grid_must_start_at_zero():
    p = preset_params("A2", g=4.5)
    rho, L = solve_point(p, CFG)
    with pytest.raises(InsufficientDataError):
        g2_tau(rho, L, "b", [0.1, 0.2])


def test_g2_tau_rejects_a_state_of_another_truncation():
    # (4, 3) and (3, 4) spaces share the side d = 40 but not the layout: the
    # mixed pair gave g2_a = 2.081, 3.364, 4.062 at tau = 0, 0.1, 0.2 where
    # the matched pair gives 2.081, 0.880, 0.256
    p = preset_params("A3", g=10.5)
    rho, _ = solve_point(p, TruncationConfig(4, 3))
    _, L = solve_point(p, TruncationConfig(3, 4))
    with pytest.raises(DimensionError, match="Liouvillian on"):
        g2_tau(rho, L, "a", np.linspace(0.0, 1.0, 11))


def test_g2_tau_vacuum_undefined():
    p = SystemParams(kappa_a=1.0, kappa_b=1.0, gamma=1.0)
    rho, L = solve_point(p, CFG)
    with pytest.raises(UndefinedCorrelationError):
        g2_tau(rho, L, "a", [0.0, 0.1])


def test_classify_statistics_all_cases():
    lo, hi = 0.5, 2.0
    expected = {(-1, -1, -1): 1, (-1, -1, 1): 2, (-1, 1, -1): 3, (1, -1, -1): 4,
                (-1, 1, 1): 5, (1, -1, 1): 6, (1, 1, -1): 7, (1, 1, 1): 8}
    for signs, case in expected.items():
        vals = [hi if s > 0 else lo for s in signs]
        result = classify_statistics(*vals)
        assert result.case == case
        assert result.signs == signs
        assert not result.boundary


def test_classify_statistics_boundary():
    result = classify_statistics(1.0, 1.0, 1.0)
    assert result.case is None
    assert result.boundary
    near = classify_statistics(1.005, 0.5, 2.0)
    assert near.case == 6  # strict signs still recorded
    assert near.boundary
    with pytest.raises(ClassificationError):
        classify_statistics(np.nan, 1.0, 1.0)


def _curve(values, tau_max=1.0):
    taus = np.linspace(0.0, tau_max, len(values))
    return taus, np.asarray(values)


def test_negative_moment_is_undefined():
    """At g = 0 the driven modes are coherent, so every g^(k) is 1.  At this
    weak drive the four-boson moments lie below the steady state's accuracy
    and come out negative: g^(4) is undefined, not a negative number."""
    rho, _ = solve_point(preset_params("A2", g=0.0, eta_b=0.003), TruncationConfig())
    for mode in ("a", "b", "c", "d"):
        assert g_k_zero(rho, mode, 2) == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(UndefinedCorrelationError, match="negative"):
            g_k_zero(rho, mode, 4)


def test_classify_dynamics_four_cases():
    p = SystemParams(kappa_a=1.0, kappa_b=0.5, gamma=1.0)  # tau_w = 1
    taus = np.linspace(0.0, 1.0, 51)
    rising_sub = _curve(0.5 + 0.4 * taus)
    assert classify_dynamics(*rising_sub, p).case == "I"
    falling_super = _curve(1.5 - 0.4 * taus)
    assert classify_dynamics(*falling_super, p).case == "II"
    rising_super = _curve(1.5 + 0.4 * taus)
    assert classify_dynamics(*rising_super, p).case == "III"
    falling_sub = _curve(0.5 - 0.3 * taus)  # monotone decreasing from 0.5
    label = classify_dynamics(*falling_sub, p)
    assert label.case == "IV" and label.statistics == "sub" and label.bunching == "bunched"


def test_classify_dynamics_unbunched_and_poissonian():
    p = SystemParams(kappa_a=1.0, kappa_b=0.5, gamma=1.0)
    flat = _curve(np.full(51, 0.7))
    label = classify_dynamics(*flat, p)
    assert label.case is None and label.bunching == "unbunched"
    poissonian = _curve(1.0 + 0.3 * np.linspace(0, 1, 51))
    label = classify_dynamics(*poissonian, p)
    assert label.case is None and label.statistics == "poissonian"


def test_classify_dynamics_window_errors():
    p = SystemParams(kappa_a=0.5, kappa_b=0.5, gamma=1.0)  # tau_w = 1
    short = _curve(np.linspace(0.5, 0.6, 21), tau_max=0.5)
    with pytest.raises(InsufficientDataError):
        classify_dynamics(*short, p)


def g234_signature(rho, mode):
    """Signs of log g^(k)(0) for k = 2, 3, 4 and their Poissonian-band flags."""
    values = [g_k_zero(rho, mode, k) for k in (2, 3, 4)]
    signs, _ = sign_pattern(values)
    return signs, [abs(v - 1.0) <= POISSONIAN_BAND for v in values]


def test_g234_signatures():
    # Fock |1>: all orders sub-Poissonian (true single-excitation blockade)
    cfg = TruncationConfig(5, 2)
    rho = fock_density(1, 0, "g", cfg)
    signs, _ = g234_signature(rho, "a")
    assert signs == (-1, -1, -1)
    # thermal state: g^(k) = k!, strongly super-Poissonian at every order
    nbar = 0.4
    probs = (nbar / (1 + nbar)) ** np.arange(6) / (1 + nbar)
    diag = np.kron(np.kron(probs / probs.sum(), [1, 0, 0]), [1, 0])
    rho_th = DensityMatrix(np.diag(diag), cfg)
    signs, _ = g234_signature(rho_th, "a")
    assert signs == (+1, +1, +1)
    # coherent state: boundary triple
    vec = np.kron(np.kron(coherent_vector(0.35, 6), [1, 0, 0]), [1, 0])
    rho_coh = DensityMatrix(np.outer(vec, vec.conj()), cfg)
    _, boundary = g234_signature(rho_coh, "a")
    assert all(boundary)


def test_sign_pattern_string():
    # the g234_<mode> column of sweep tables
    assert sign_pattern([0.5, 1.0, 2.0]) == ((-1, 0, 1), "-0+")
    assert sign_pattern([3.0, 0.9, 1.1]) == ((1, -1, 1), "+-+")


def test_hybrid_moments_identities_random_states():
    rng = np.random.default_rng(42)
    cfg = TruncationConfig(3, 3)
    c = hybrid_mode_operator("c", cfg)
    cd = c.conj().T
    n_c = cd @ c
    n2_c = cd @ cd @ c @ c
    for _ in range(25):
        rho = random_composite_density(rng, cfg)
        first, second = hybrid_moments_from_local(rho)
        direct1 = np.einsum("ij,ji->", rho.matrix, n_c).real
        direct2 = np.einsum("ij,ji->", rho.matrix, n2_c).real
        assert abs(first - direct1) < 1e-12
        assert abs(second - direct2) < 1e-12


def test_hybrid_moments_product_coherent_state():
    cfg = TruncationConfig(7, 7)
    vec = np.kron(np.kron(coherent_vector(0.3, 8), coherent_vector(-0.2 + 0.1j, 8)), [1, 0])
    rho = DensityMatrix(np.outer(vec, vec.conj()), cfg)
    c = hybrid_mode_operator("c", cfg)
    cd = c.conj().T
    first, second = hybrid_moments_from_local(rho)
    assert first == pytest.approx(np.einsum("ij,ji->", rho.matrix, cd @ c).real, abs=1e-12)
    assert second == pytest.approx(
        np.einsum("ij,ji->", rho.matrix, cd @ cd @ c @ c).real, abs=1e-12)


def test_hybrid_moments_vacuum():
    rho = fock_density(0, 0, "g", CFG)
    assert hybrid_moments_from_local(rho) == (0.0, 0.0)


def test_exchange_symmetry_against_mirrored_construction():
    # swapping the (a) and (b) parameter sets is a relabeling of the model
    # only if the qubit moves with the photon mode; build that mirrored
    # Hamiltonian directly and compare correlations
    cfg = TruncationConfig(3, 3)
    p = SystemParams(delta_a=1.0, delta_b=-2.0, delta_q=0.7, g=1.8, f=2.5,
                     eta_b=0.4, kappa_a=2.0, kappa_b=1.2, gamma=1.0)
    rho, _ = solve_point(p, cfg)

    a, b, sm = lowering(cfg)
    swapped = p.with_(delta_a=p.delta_b, delta_b=p.delta_a,
                      kappa_a=p.kappa_b, kappa_b=p.kappa_a,
                      eta_a=p.eta_b, eta_b=0.0)
    ad, bd = a.conj().T, b.conj().T
    H = (swapped.delta_a * (ad @ a) + swapped.delta_b * (bd @ b)
         + swapped.delta_q * (sm.conj().T @ sm))
    jc = bd @ sm  # the qubit now couples to the second mode
    hop = a @ bd
    drv = a  # and the drive moved with the relabeled mode
    for term, coeff in ((jc, p.g), (hop, p.f), (drv, p.eta_b)):
        H = H + coeff * (term + term.conj().T)
    L = build_liouvillian(H, swapped, cfg)
    rho_sw = steady_state(L)

    for mode, partner in (("a", "b"), ("b", "a"), ("c", "c")):
        v1 = g_k_zero(rho, mode, 2)
        v2 = g_k_zero(rho_sw, partner, 2)
        assert v1 == pytest.approx(v2, rel=1e-9)


def test_dominant_period_damped_cosine():
    t = np.linspace(0.0, 12.0, 1200)
    period = 0.9
    vals = 1.0 + 0.2 * np.exp(-t / 5.0) * np.cos(2 * np.pi * t / period) + 0.05 * t / 12.0
    est = dominant_period(t, vals)
    assert est == pytest.approx(period, rel=0.01)
    with pytest.raises(InsufficientDataError):
        dominant_period(t[:8], vals[:8])


def test_dominant_period_rejects_line_below_band():
    # one cycle per window: the band (>= 4 cycles) admits periods <= 0.25 only,
    # and the spectrum peaks at its lower edge rather than at a line inside it
    t = np.linspace(0.0, 1.0, 200)
    with pytest.raises(InsufficientDataError, match="no spectral line inside the band"):
        dominant_period(t, np.cos(2 * np.pi * t))


@pytest.mark.parametrize("bundle", ["oracle-comparison", "strong-coupling-a1"])
@pytest.mark.parametrize("cutoffs", [(3, 3), (4, 2)])
def test_mirror_parity_is_the_kronecker_parity(bundle, cutoffs):
    cfg = TruncationConfig(*cutoffs)
    p = bundle_params(bundle)
    assert np.array_equal(_mirror_parity(p, cfg), kron_parity(p, cfg).diagonal())


@pytest.mark.parametrize("bundle", ["oracle-comparison", "eight-case-a3", "strong-coupling-a1",
                                    "weak-coupling-oscillation"])
@pytest.mark.parametrize("cutoff", [3, 4])
def test_negated_detunings_mirror_the_steady_state(bundle, cutoff):
    """Negating all three detunings maps rho to U rho* U', U = (-1)^n_a for
    the photon drive and (-1)^(n_b + q) for the phonon drive, so g^(k)_a and
    g^(k)_b are even and g^(k)_c(-delta) = g^(k)_d(delta).  Direct solves at
    both signs; measured: g^(k) within 8.6e-14 relative, rho within 1.2e-16
    of its largest entry (A1 and A3 bundles, cutoffs 3 and 4)."""
    cfg = TruncationConfig(cutoff, cutoff)
    p = bundle_params(bundle)
    U = kron_parity(p, cfg).toarray()
    for delta in (0.7, 3.1, 5.12):
        plus, _ = solve_point(p.with_(delta_a=delta, delta_b=delta, delta_q=delta), cfg)
        minus, _ = solve_point(p.with_(delta_a=-delta, delta_b=-delta, delta_q=-delta), cfg)
        mirrored = U @ plus.matrix.conj() @ U.conj().T
        assert np.abs(mirrored - minus.matrix).max() <= 1e-14 * np.abs(minus.matrix).max()
        for k in (2, 3):
            for mode, twin in (("a", "a"), ("b", "b"), ("c", "d"), ("d", "c")):
                assert g_k_zero(minus, mode, k) == pytest.approx(g_k_zero(plus, twin, k),
                                                                 rel=1e-12, abs=0)


@pytest.mark.parametrize("bundle", ["dynamics-case-i", "dynamics-case-ii", "dynamics-case-iii",
                                    "dynamics-case-iv", "weak-coupling-oscillation"])
def test_dressed_states_are_linear_in_the_modes(bundle):
    """c rho c' + d rho d' = a rho a' + b rho b', so the d-dressed state
    evolves as X_a + X_b - X_c, and g2_tau rebuilds g2_d(tau) from three
    propagations.  Here the three starts are read on n_d by _propagate
    itself and compared with the one-mode curve, which propagates X_d;
    measured (cutoff 5, tau <= 6/gamma, 1201 samples): 3.1e-15 to 4.0e-14 of
    its largest value.  The identity itself holds to 1.3e-16 of the largest
    entry."""
    cfg = TruncationConfig(5, 5)
    rho, L = solve_point(bundle_params(bundle), cfg)
    ops = {m: hybrid_mode_operator(m, cfg) for m in "abcd"}
    dressed = {m: z @ rho.matrix @ z.conj().T for m, z in ops.items()}
    both = dressed["a"] + dressed["b"]
    assert np.abs(dressed["c"] + dressed["d"] - both).max() <= 1e-13 * np.abs(both).max()
    grid = np.linspace(0.0, 6.0, 1201)
    n_d = mode_moment("d", cfg, 1)
    read = _propagate(np.array([dressed[m] for m in "abc"]), L, grid, [n_d])[:, 0]
    rebuilt = (read[0] + read[1] - read[2]) / np.einsum("ij,ji->", rho.matrix, n_d).real ** 2
    direct = g2_tau(rho, L, "d", grid)[0]
    assert np.abs(rebuilt - direct).max() <= 1e-12 * np.abs(direct).max()


DYNAMICS_BUNDLES = ["dynamics-case-i", "dynamics-case-ii", "dynamics-case-iii",
                    "dynamics-case-iv", "weak-coupling-oscillation"]
DYNAMICS_GRID = np.linspace(0.0, 6.0, 1201)


@functools.lru_cache(maxsize=len(DYNAMICS_BUNDLES))
def dynamics_point(bundle):
    """Steady state and Liouvillian of a dynamics bundle at cutoff 3."""
    return solve_point(bundle_params(bundle), TruncationConfig(3, 3))


def logged_g2_tau(caplog, bundle, modes):
    """g2_tau at a dynamics bundle, with its propagation's debug line."""
    rho, L = dynamics_point(bundle)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="polariton.lindblad"):
        curves = g2_tau(rho, L, modes, DYNAMICS_GRID)
    (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("propagated")]
    return curves, line


@pytest.mark.parametrize("bundle", DYNAMICS_BUNDLES)
def test_rebuilt_d_row_matches_its_own_propagation(bundle, caplog):
    four, four_line = logged_g2_tau(caplog, bundle, "abcd")
    three, three_line = logged_g2_tau(caplog, bundle, "abc")
    alone, alone_line = logged_g2_tau(caplog, bundle, "d")
    assert "3 starts on 4 readouts" in four_line and "1 start on 1 readouts" in alone_line
    # d takes no products of its own
    products = [re.search(r"(\d+) matrix-vector products", line)[1]
                for line in (four_line, three_line)]
    assert products[0] == products[1]
    assert np.abs(four[3] - alone[0]).max() <= 1e-12 * np.abs(alone[0]).max()


@pytest.mark.parametrize("bundle", DYNAMICS_BUNDLES)
def test_g2_tau_rows_do_not_depend_on_the_order_asked(bundle, caplog):
    backward, _ = logged_g2_tau(caplog, bundle, "dcba")
    shuffled, _ = logged_g2_tau(caplog, bundle, "bdac")
    assert np.array_equal(backward[[3, 2, 1, 0]], shuffled[[2, 0, 3, 1]])


@pytest.mark.parametrize("bundle", DYNAMICS_BUNDLES)
def test_custom_operator_keeps_its_own_start(bundle, caplog):
    d = hybrid_mode_operator("d", TruncationConfig(3, 3))
    curves, line = logged_g2_tau(caplog, bundle, ["a", "b", "c", "d", d])
    assert "4 starts on 5 readouts" in line
    assert np.abs(curves[4] - curves[3]).max() <= 1e-12 * np.abs(curves[3]).max()


def test_g2_tau_checks_each_zero_delay_sample(monkeypatch):
    # a first sample off by 1e-10 of g2_d(0), only on the rebuilt row
    rho, L = dynamics_point("dynamics-case-i")
    propagate = correlations._propagate

    def nudged(*args):
        read = propagate(*args)
        read[:, 3, 0] *= 1 + 1e-10
        return read
    monkeypatch.setattr(correlations, "_propagate", nudged)
    with pytest.raises(IntegrationError, match="mode d: g2"):
        g2_tau(rho, L, "abcd", DYNAMICS_GRID)


def test_g2_tau_of_a_mode_without_a_two_boson_moment():
    # sigma_- squares to zero, so g2(0) = 0 and the zero-delay check holds
    # where g_k_zero raises
    rho, L = dynamics_point("dynamics-case-i")
    sm = lowering(rho.cfg)[2]
    with pytest.raises(UndefinedCorrelationError):
        g_k_zero(rho, sm, 2)
    curve = g2_tau(rho, L, [sm], DYNAMICS_GRID)[0]
    assert abs(curve[0]) <= 1e-12
