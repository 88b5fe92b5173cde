import numpy as np
import pytest

from polariton import (ParameterError, ResonanceSingularityError, SystemParams,
                       TruncationConfig, UndefinedCorrelationError,
                       bs_transform_amplitudes, closed_form_double, closed_form_single,
                       hybrid_mode_operator, oracle_g2, solve_double_excitation,
                       solve_single_excitation, steady_amplitudes)
from polariton.hilbert import excitation_numbers
from helpers import closed_form_g2_b_dip


def resonant(delta, f, g, kappa, eta, gamma=1.0):
    return SystemParams(delta_a=delta, delta_b=delta, delta_q=delta, f=f, g=g,
                        eta_b=eta, kappa_a=kappa, kappa_b=kappa, gamma=gamma)


def test_decoupled_driven_mode():
    p = resonant(1.4, 0.0, 0.0, 0.8, 0.3)
    c01g, c10g, c00e = solve_single_excitation(p)
    assert c01g == pytest.approx(-0.3 / (1.4 - 0.4j), abs=1e-14)
    assert c10g == 0.0 and c00e == 0.0


def test_linearity_in_drive():
    p1 = resonant(0.9, 2.0, 1.5, 1.2, 0.2)
    p2 = p1.with_(eta_b=0.4)
    s1 = np.array(solve_single_excitation(p1))
    s2 = np.array(solve_single_excitation(p2))
    assert np.allclose(s2, 2.0 * s1, rtol=1e-13)
    d1 = np.array(solve_double_excitation(p1, tuple(s1)))
    d2 = np.array(solve_double_excitation(p2, tuple(s2)))
    assert np.allclose(d2, 4.0 * d1, rtol=1e-12)


def test_no_drive_no_excitation():
    p = resonant(0.9, 2.0, 1.5, 1.2, 0.0)
    singles = solve_single_excitation(p)
    assert all(abs(c) == 0.0 for c in singles)
    doubles = solve_double_excitation(p, singles)
    assert all(abs(c) == 0.0 for c in doubles)


def test_closed_forms_match_solves_up_to_global_sign():
    # the closed-form expressions satisfy the defining systems with the
    # drive phase reversed: they equal minus the linear-solve amplitudes
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(200):
        delta, f, g, kappa, eta = rng.uniform(0.3, 8.0, 5)
        p = resonant(delta, f, g, kappa, eta)
        c01g, c10g, c00e = solve_single_excitation(p)
        c11g, c20g, c02g, _, _ = solve_double_excitation(p, (c01g, c10g, c00e))
        cf01, cf10 = closed_form_single(p)
        cf02, cf20, cf11 = closed_form_double(p)
        for closed, solved in ((cf01, c01g), (cf10, c10g), (cf02, c02g),
                               (cf20, c20g), (cf11, c11g)):
            scale = max(abs(solved), 1e-300)
            worst = max(worst, abs(closed + solved) / scale)
    assert worst < 1e-10


def test_c02g_identity():
    p = resonant(1.7, 2.5, 1.9, 2.2, 0.35)
    c01g, c10g, c00e = solve_single_excitation(p)
    c11g, c20g, c02g, _, _ = solve_double_excitation(p, (c01g, c10g, c00e))
    d_kappa = p.delta_a - 0.5j * p.kappa_a
    rhs = -(np.sqrt(2) * p.f * c11g + np.sqrt(2) * p.eta_b * c01g) / (2 * d_kappa)
    assert abs(c02g - rhs) < 1e-12 * max(1.0, abs(c02g))


def test_amplitude_layout():
    # C[n_a, n_b, q] and its image C'[n_c, n_d, q] share the layout of
    # TruncationConfig(2, 2), with nothing above two excitations
    C = steady_amplitudes(resonant(0.8, 2.0, 1.1, 1.5, 0.3))
    above_two = excitation_numbers(TruncationConfig(2, 2)).reshape(3, 3, 2) > 2
    for amps in (C, bs_transform_amplitudes(C)):
        assert amps.shape == (3, 3, 2) and amps.dtype == complex
        assert amps[0, 0, 0] == 1.0
        assert not amps[above_two].any()


def test_bs_transform_symmetry_and_norms():
    amps = steady_amplitudes(resonant(0.8, 2.0, 1.1, 1.5, 0.3))
    sym = np.zeros((3, 3, 2), dtype=complex)
    sym[0, 0] = 1.0, 0.05
    sym[1, 0] = sym[0, 1] = 0.3 + 0.1j, 0.01
    sym[2, 0, 0] = sym[0, 2, 0] = 0.02 - 0.01j
    hyb = bs_transform_amplitudes(sym)
    assert hyb[0, 1, 0] == 0.0
    assert hyb[2, 0, 0] == pytest.approx(hyb[0, 2, 0])
    # norms of the sectors of fixed n_a + n_b and q preserved (the coupler is passive)
    hyb2 = bs_transform_amplitudes(amps)
    n_a, n_b, q = np.indices(amps.shape)
    for bosons, qubit in ((1, 0), (2, 0), (1, 1)):
        sector = (n_a + n_b == bosons) & (q == qubit)
        assert (np.sum(np.abs(hyb2[sector]) ** 2)
                == pytest.approx(np.sum(np.abs(amps[sector]) ** 2), rel=1e-12))


def test_bs_transform_consistent_with_fock_map():
    # the balanced-coupler unitary applied to the state C.ravel() gives the
    # transformed amplitudes on all 18 entries; the components with an odd
    # number of quanta in the second output mode carry the opposite sign
    cfg = TruncationConfig(2, 2)
    C = steady_amplitudes(resonant(0.8, 2.0, 1.1, 1.5, 0.3))
    # a'b - b'a conserves n_a + n_b, so at cutoffs 2 the exponential is exact
    # on the sector of at most two quanta
    from scipy.linalg import expm
    a = hybrid_mode_operator("a", cfg)
    b = hybrid_mode_operator("b", cfg)
    out = (expm(np.pi / 4 * (a.conj().T @ b - b.conj().T @ a)) @ C.ravel()).reshape(C.shape)
    n_d = np.indices(C.shape)[1]
    assert np.allclose(out, bs_transform_amplitudes(C) * (-1.0) ** n_d, rtol=0, atol=1e-14)


def test_oracle_g2_drive_invariance():
    p = resonant(1.1, 2.3, 1.4, 1.8, 0.1)
    est1 = oracle_g2(steady_amplitudes(p))
    est2 = oracle_g2(steady_amplitudes(p.with_(eta_b=0.7)))
    assert est1.shape == (3,)
    for g2_1, g2_2 in zip(est1, est2):  # g2_a, g2_b, g2_c
        assert g2_1 == pytest.approx(g2_2, rel=1e-10)


def test_oracle_linear_limit_is_poissonian():
    # g -> 0 makes the driven mode linear: the phonon statistics become
    # exactly Poissonian within the weak-drive algebra
    p = resonant(1.3, 2.6, 0.0, 1.7, 0.25)
    _, g2_b, _ = oracle_g2(steady_amplitudes(p))
    assert g2_b == pytest.approx(1.0, abs=1e-12)
    for g_small in (1e-4, 1e-2):
        _, g2_b, _ = oracle_g2(steady_amplitudes(p.with_(g=g_small)))
        assert g2_b == pytest.approx(1.0, abs=1e-3)


def test_oracle_preconditions():
    base = resonant(1.0, 2.0, 1.0, 1.5, 0.3)
    with pytest.raises(ParameterError, match="master-equation"):
        solve_single_excitation(base.with_(kappa_b=2.5))
    with pytest.raises(ParameterError):
        solve_single_excitation(base.with_(delta_q=0.0))
    with pytest.raises(ParameterError):
        solve_single_excitation(base.with_(eta_a=0.1))


def test_singular_system_raises():
    p = SystemParams(delta_a=0.0, delta_b=0.0, delta_q=0.0, f=0.0, g=0.0,
                     eta_b=0.1, kappa_a=0.0, kappa_b=0.0, gamma=0.0)
    with pytest.raises(ResonanceSingularityError):
        solve_single_excitation(p)


def test_oracle_occupancy_floor():
    p = resonant(1.0, 2.0, 1.0, 1.5, 0.0)
    with pytest.raises(UndefinedCorrelationError):
        oracle_g2(steady_amplitudes(p))


def test_hierarchy_ratios_at_validated_point():
    p = resonant(5.4, 7.0, 4.5, 6.0, 0.5)  # oracle-comparison configuration
    amps = steady_amplitudes(p)
    n = excitation_numbers(TruncationConfig(2, 2)).reshape(amps.shape)
    # (first/ground, second/first) amplitude magnitude ratios
    first = np.abs(amps[n == 1]).max() / abs(amps[0, 0, 0])
    second = np.abs(amps[n == 2]).max() / first
    assert first < 0.3
    assert second < 0.3


def test_master_equation_converges_to_oracle_with_weak_drive():
    # at the deepest phonon-mode dip of the equal-decay configuration, the
    # master-equation g2_b approaches the jump-free estimate as the drive
    # weakens (monotone shrinking discrepancy)
    from polariton import TruncationConfig as TC, g_k_zero, solve_point
    delta = closed_form_g2_b_dip(resonant(0.0, 7.0, 4.5, 6.0, 0.5), 0.0, 7.5)
    cfg = TC(4, 4)
    deviations = []
    for eta in (0.5, 0.25, 0.1):
        p = resonant(delta, 7.0, 4.5, 6.0, eta)
        rho, _ = solve_point(p, cfg)
        me = g_k_zero(rho, "b", 2)
        _, est, _ = oracle_g2(steady_amplitudes(p))
        deviations.append(abs(me - est))
    assert deviations[0] > deviations[1] > deviations[2]
