import numpy as np
import pytest

from polariton import (ParameterError, ResonanceSingularityError, SystemParams,
                       TruncationConfig, UndefinedCorrelationError,
                       bs_transform_amplitudes, closed_form_double, closed_form_single,
                       hybrid_mode_operator, oracle_g2, solve_double_excitation,
                       solve_single_excitation, steady_amplitudes)
from helpers import FockLabel, closed_form_g2_b_dip, index_of


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


def test_bs_transform_symmetry_and_norms():
    amps = steady_amplitudes(resonant(0.8, 2.0, 1.1, 1.5, 0.3))
    sym = type(amps)(c10g=0.3 + 0.1j, c01g=0.3 + 0.1j, c00e=0.05,
                     c11g=0.0, c20g=0.02 - 0.01j, c02g=0.02 - 0.01j,
                     c10e=0.01, c01e=0.01)
    hyb = bs_transform_amplitudes(sym)
    assert hyb.c01g == 0.0
    assert hyb.c20g == pytest.approx(hyb.c02g)
    # sector norms preserved (the coupler is passive)
    hyb2 = bs_transform_amplitudes(amps)
    ones = abs(amps.c10g) ** 2 + abs(amps.c01g) ** 2
    assert abs(hyb2.c10g) ** 2 + abs(hyb2.c01g) ** 2 == pytest.approx(ones, rel=1e-12)
    twos = abs(amps.c11g) ** 2 + abs(amps.c20g) ** 2 + abs(amps.c02g) ** 2
    assert (abs(hyb2.c11g) ** 2 + abs(hyb2.c20g) ** 2 + abs(hyb2.c02g) ** 2
            == pytest.approx(twos, rel=1e-12))
    es = abs(amps.c10e) ** 2 + abs(amps.c01e) ** 2
    assert abs(hyb2.c10e) ** 2 + abs(hyb2.c01e) ** 2 == pytest.approx(es, rel=1e-12)


def test_bs_transform_consistent_with_fock_map():
    # assembling the amplitudes into a state and applying the balanced-coupler
    # unitary reproduces the transformed amplitudes; the components involving
    # the second output mode carry the opposite sign convention
    cfg = TruncationConfig(2, 2)
    amps = steady_amplitudes(resonant(0.8, 2.0, 1.1, 1.5, 0.3))
    vec = np.zeros(cfg.dim, dtype=complex)
    entries = {(0, 0, "g"): amps.c00g, (1, 0, "g"): amps.c10g, (0, 1, "g"): amps.c01g,
               (0, 0, "e"): amps.c00e, (1, 1, "g"): amps.c11g, (2, 0, "g"): amps.c20g,
               (0, 2, "g"): amps.c02g, (1, 0, "e"): amps.c10e, (0, 1, "e"): amps.c01e}
    for (na, nb, q), c in entries.items():
        vec[index_of(cfg, FockLabel(na, nb, q))] = c
    # a'b - b'a conserves n_a + n_b, so at cutoffs 2 the exponential is exact
    # on the sector of at most two quanta
    from scipy.linalg import expm
    a = hybrid_mode_operator("a", cfg)
    b = hybrid_mode_operator("b", cfg)
    out = expm(np.pi / 4 * (a.conj().T @ b - b.conj().T @ a)) @ vec
    hyb = bs_transform_amplitudes(amps)

    def comp(na, nb, q):
        return out[index_of(cfg, FockLabel(na, nb, q))]

    assert comp(1, 0, "g") == pytest.approx(hyb.c10g, abs=1e-14)
    assert comp(2, 0, "g") == pytest.approx(hyb.c20g, abs=1e-14)
    assert comp(0, 2, "g") == pytest.approx(hyb.c02g, abs=1e-14)
    assert comp(1, 0, "e") == pytest.approx(hyb.c10e, abs=1e-14)
    assert comp(0, 1, "g") == pytest.approx(-hyb.c01g, abs=1e-14)
    assert comp(1, 1, "g") == pytest.approx(-hyb.c11g, abs=1e-14)
    assert comp(0, 1, "e") == pytest.approx(-hyb.c01e, abs=1e-14)


def test_oracle_g2_drive_invariance():
    p = resonant(1.1, 2.3, 1.4, 1.8, 0.1)
    est1 = oracle_g2(steady_amplitudes(p))
    est2 = oracle_g2(steady_amplitudes(p.with_(eta_b=0.7)))
    assert est1.g2_a == pytest.approx(est2.g2_a, rel=1e-10)
    assert est1.g2_b == pytest.approx(est2.g2_b, rel=1e-10)
    assert est1.g2_c == pytest.approx(est2.g2_c, rel=1e-10)


def test_oracle_linear_limit_is_poissonian():
    # g -> 0 makes the driven mode linear: the phonon statistics become
    # exactly Poissonian within the weak-drive algebra
    p = resonant(1.3, 2.6, 0.0, 1.7, 0.25)
    est = oracle_g2(steady_amplitudes(p))
    assert est.g2_b == pytest.approx(1.0, abs=1e-12)
    for g_small in (1e-4, 1e-2):
        est = oracle_g2(steady_amplitudes(p.with_(g=g_small)))
        assert est.g2_b == pytest.approx(1.0, abs=1e-3)


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
    # (first/ground, second/first) amplitude magnitude ratios
    first = max(abs(amps.c10g), abs(amps.c01g), abs(amps.c00e)) / abs(amps.c00g)
    second = max(abs(amps.c11g), abs(amps.c20g), abs(amps.c02g),
                 abs(amps.c10e), abs(amps.c01e)) / first
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
        est = oracle_g2(steady_amplitudes(p)).g2_b
        deviations.append(abs(me - est))
    assert deviations[0] > deviations[1] > deviations[2]
