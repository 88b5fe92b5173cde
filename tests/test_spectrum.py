import numpy as np
import pytest

from polariton import (ParameterError, SystemParams,
                       TruncationConfig, analytic_manifolds, hamiltonian_qd_driven,
                       hamiltonian_undriven, jc_spectrum, manifold_spectrum,
                       minimum_gap, resonance_distances)
from polariton.scenarios import resonance_distance_sweep, spectrum_sweep

CFG = TruncationConfig(3, 3)


def resonant_params(delta, g, f):
    return SystemParams(delta_a=delta, delta_b=delta, delta_q=delta, g=g, f=f)


def test_manifold_dimensions():
    H = hamiltonian_undriven(resonant_params(0.5, 1.0, 2.0), +1, CFG)
    assert manifold_spectrum(H, 0, CFG).frequencies.shape == (1,)
    assert manifold_spectrum(H, 1, CFG).frequencies.shape == (3,)
    assert manifold_spectrum(H, 2, CFG).frequencies.shape == (5,)


def test_ground_manifold_is_zero():
    H = hamiltonian_undriven(resonant_params(1.2, 2.0, 1.0), +1, CFG)
    assert manifold_spectrum(H, 0, CFG).frequencies[0] == 0.0


def test_driven_hamiltonian_rejected():
    p = SystemParams(delta_a=1.0, eta_a=0.3)
    H = hamiltonian_qd_driven(p.with_(eta_a=0.0, eta_b=0.3), CFG)
    with pytest.raises(ParameterError):
        manifold_spectrum(H, 1, CFG)


def test_quoted_eigenvalues():
    delta = 2.0
    p = resonant_params(delta, 7.5, 5.0)
    H = hamiltonian_undriven(p, +1, CFG)
    m1 = manifold_spectrum(H, 1, CFG).frequencies - delta
    m2 = manifold_spectrum(H, 2, CFG).frequencies - 2 * delta
    assert np.allclose(m1, [-9.01388, 0.0, 9.01388], atol=1e-4)
    assert np.allclose(m2, [-16.11725, -5.82965, 0.0, 5.82965, 16.11725], atol=1e-4)


def test_analytic_numeric_agreement_on_grid():
    rng = np.random.default_rng(4)
    for _ in range(20):
        delta = rng.uniform(-3, 3)
        g, f = rng.uniform(0.2, 9, 2)
        p = resonant_params(delta, g, f)
        H = hamiltonian_undriven(p, +1, CFG)
        e1, e2 = analytic_manifolds(p)
        assert np.allclose(manifold_spectrum(H, 1, CFG).frequencies, e1, atol=1e-9)
        assert np.allclose(manifold_spectrum(H, 2, CFG).frequencies, e2, atol=1e-9)
    # the minus-sign Hamiltonian shares the manifold spectra
    p = resonant_params(0.7, 3.0, 4.0)
    Hm = hamiltonian_undriven(p, -1, CFG)
    e1, e2 = analytic_manifolds(p)
    assert np.allclose(manifold_spectrum(Hm, 1, CFG).frequencies, e1, atol=1e-9)
    assert np.allclose(manifold_spectrum(Hm, 2, CFG).frequencies, e2, atol=1e-9)


def test_analytic_manifolds_uncoupled_degenerate():
    p = resonant_params(1.5, 0.0, 0.0)
    e1, e2 = analytic_manifolds(p)
    assert np.allclose(e1, [1.5, 1.5, 1.5])
    assert np.allclose(e2, [3.0, 3.0, 3.0, 3.0, 3.0])
    with pytest.raises(ParameterError):
        analytic_manifolds(SystemParams(delta_a=1.0, delta_b=2.0, delta_q=1.0))


def test_jc_spectrum_resonant_and_ratios():
    p = SystemParams(delta_a=0.0, delta_q=0.0, g=1.3)
    d0 = jc_spectrum(0, p)
    assert d0.resonant and d0.mixing_angle is None
    assert d0.e_plus == pytest.approx(1.3) and d0.e_minus == pytest.approx(-1.3)
    d1 = jc_spectrum(1, p)
    assert d1.rabi / d0.rabi == pytest.approx(np.sqrt(2.0))


def test_jc_spectrum_matches_numeric_manifolds():
    # f = 0 decouples the phonon mode; the JC doublets appear inside the
    # (n+1)-polariton manifolds shifted by the mean single-excitation energy
    p = SystemParams(delta_a=1.0, delta_b=57.0, delta_q=1.8, g=2.1, f=0.0)
    cfg = TruncationConfig(4, 4)
    H = hamiltonian_undriven(p, +1, cfg)
    offset = 0.5 * (p.delta_a + p.delta_q)
    for n in (0, 1, 2):
        doublet = jc_spectrum(n, p)
        freqs = manifold_spectrum(H, n + 1, cfg).frequencies
        for target in (doublet.e_minus + offset, doublet.e_plus + offset):
            assert np.min(np.abs(freqs - target)) < 1e-10


def test_resonance_distances_direct():
    delta = 0.0
    H = hamiltonian_undriven(resonant_params(delta, 2.0, 1.0), +1, CFG)
    spectra = [manifold_spectrum(H, n, CFG) for n in (1, 2, 3)]
    omega_hit = spectra[0].frequencies[1]
    d = resonance_distances(omega_hit, spectra)
    assert d.d1 == pytest.approx(0.0, abs=1e-20)
    with pytest.raises(ParameterError):
        resonance_distances(1.0, spectra[:2])


def test_resonance_distance_sweep_dips():
    grid = np.round(np.arange(-15.0, 15.0001, 0.05), 6)
    rows = resonance_distance_sweep("A1", 7.58, grid)
    d1 = np.array([r["d1"] for r in rows])
    d2 = np.array([r["d2"] for r in rows])
    # single-photon resonance dip near +10 explains the blockade point there
    assert abs(grid[np.argmin(d1)] - 10.0) <= 0.5
    # two-photon resonance dip inside (-2, 0): tunnelling shoulder
    win = (grid > -2.0) & (grid < 0.0)
    assert d2[win].min() < 0.01
    assert d2[win].min() < d2[np.argmin(np.abs(grid + 2))] < d2[np.argmin(np.abs(grid))]


def test_spectrum_sweep_anticrossing_and_continuity():
    grid = np.linspace(1544.0, 1564.0, 41)
    result = spectrum_sweep("A1", 7.5, grid, manifolds=(1, 2))
    for n in (1, 2):
        rows = result.manifold_rows[n]
        assert result.min_gaps[n] > 0.0
        # eigenvalue curves move at most n * d(omega_m) between grid points
        step = grid[1] - grid[0]
        assert np.max(np.abs(np.diff(rows, axis=0))) <= n * step + 1e-9


def test_minimum_gap_validation():
    with pytest.raises(ParameterError):
        minimum_gap([np.array([1.0])])
    assert minimum_gap([np.array([0.0, 0.5, 2.0])]) == pytest.approx(0.5)


def test_degenerate_sorting_deterministic():
    p = resonant_params(1.0, 0.0, 0.0)
    H = hamiltonian_undriven(p, +1, CFG)
    s1 = manifold_spectrum(H, 2, CFG)
    s2 = manifold_spectrum(H, 2, CFG)
    assert np.array_equal(s1.frequencies, s2.frequencies)
