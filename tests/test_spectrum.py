import logging
import tracemalloc

import numpy as np
import pytest

from polariton import (PRESETS, ParameterError, SystemParams,
                       TruncationConfig, analytic_manifolds, hamiltonian_qd_driven,
                       hamiltonian_undriven, jc_spectrum, manifold_blocks, manifold_spectrum,
                       minimum_gap, resonance_distances)
from polariton.model import _assemble
from polariton.scenarios import resonance_distance_sweep, spectrum_sweep

CFG = TruncationConfig(3, 3)


def resonant_params(delta, g, f):
    return SystemParams(delta_a=delta, delta_b=delta, delta_q=delta, g=g, f=f)


def test_manifold_dimensions():
    H = hamiltonian_undriven(resonant_params(0.5, 1.0, 2.0), +1, CFG)
    assert manifold_spectrum(H, 0, CFG).shape == (1,)
    assert manifold_spectrum(H, 1, CFG).shape == (3,)
    assert manifold_spectrum(H, 2, CFG).shape == (5,)


def test_ground_manifold_is_zero():
    H = hamiltonian_undriven(resonant_params(1.2, 2.0, 1.0), +1, CFG)
    assert manifold_spectrum(H, 0, CFG)[0] == 0.0


def test_driven_hamiltonian_rejected():
    p = SystemParams(delta_a=1.0, eta_a=0.3)
    H = hamiltonian_qd_driven(p.with_(eta_a=0.0, eta_b=0.3), CFG)
    with pytest.raises(ParameterError):
        manifold_spectrum(H, 1, CFG)


def test_manifold_blocks_checks_and_order():
    p = SystemParams(delta_a=1.0, eta_b=0.3)
    with pytest.raises(ParameterError, match="does not conserve the polariton number"):
        manifold_blocks(hamiltonian_qd_driven(p, CFG), (1, 2, 3), CFG)
    H = hamiltonian_undriven(resonant_params(0.5, 1.0, 2.0), +1, CFG)
    with pytest.raises(ParameterError, match="manifold n=9 is empty"):
        manifold_blocks(H, (1, 9), CFG)
    blocks = manifold_blocks(H, (2, 1), CFG)
    assert [b.shape for b in blocks] == [(5, 5), (3, 3)]
    assert np.array_equal(np.linalg.eigvalsh(blocks[0]), manifold_spectrum(H, 2, CFG))


def test_quoted_eigenvalues():
    delta = 2.0
    p = resonant_params(delta, 7.5, 5.0)
    H = hamiltonian_undriven(p, +1, CFG)
    m1 = manifold_spectrum(H, 1, CFG) - delta
    m2 = manifold_spectrum(H, 2, CFG) - 2 * delta
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
        assert np.allclose(manifold_spectrum(H, 1, CFG), e1, atol=1e-9)
        assert np.allclose(manifold_spectrum(H, 2, CFG), e2, atol=1e-9)
    # the minus-sign Hamiltonian shares the manifold spectra
    p = resonant_params(0.7, 3.0, 4.0)
    Hm = hamiltonian_undriven(p, -1, CFG)
    e1, e2 = analytic_manifolds(p)
    assert np.allclose(manifold_spectrum(Hm, 1, CFG), e1, atol=1e-9)
    assert np.allclose(manifold_spectrum(Hm, 2, CFG), e2, atol=1e-9)


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
        freqs = manifold_spectrum(H, n + 1, cfg)
        for target in (doublet.e_minus + offset, doublet.e_plus + offset):
            assert np.min(np.abs(freqs - target)) < 1e-10


def test_resonance_distances_direct():
    delta = 0.0
    H = hamiltonian_undriven(resonant_params(delta, 2.0, 1.0), +1, CFG)
    spectra = [manifold_spectrum(H, n, CFG) for n in (1, 2, 3)]
    omega_hit = spectra[0][1]
    d = resonance_distances(omega_hit, spectra)
    assert d.shape == (3,)
    assert d[0] == pytest.approx(0.0, abs=1e-20)
    with pytest.raises(ParameterError, match="missing manifold n=3"):
        resonance_distances(1.0, spectra[:2])
    with pytest.raises(ParameterError, match="manifold n=2 is empty"):
        resonance_distances(1.0, [spectra[0], np.array([]), spectra[2]])


def test_resonance_distance_sweep_dips():
    grid = np.round(np.arange(-15.0, 15.0001, 0.05), 6)
    d1, d2, _ = resonance_distance_sweep("A1", 7.58, grid)
    # single-photon resonance dip near +10 explains the blockade point there
    assert abs(grid[np.argmin(d1)] - 10.0) <= 0.5
    # two-photon resonance dip inside (-2, 0): tunnelling shoulder
    win = (grid > -2.0) & (grid < 0.0)
    assert d2[win].min() < 0.01
    assert d2[win].min() < d2[np.argmin(np.abs(grid + 2))] < d2[np.argmin(np.abs(grid))]


def test_spectrum_sweep_anticrossing_and_continuity():
    grid = np.linspace(1544.0, 1564.0, 41)
    result = spectrum_sweep("A1", 7.5, grid, manifolds=(1, 2))
    assert sorted(result) == [1, 2]
    for n in (1, 2):
        rows = result[n]
        assert minimum_gap(rows) > 0.0
        # eigenvalue curves move at most n * d(omega_m) between grid points
        step = grid[1] - grid[0]
        assert np.max(np.abs(np.diff(rows, axis=0))) <= n * step + 1e-9


SHIPPED_OMEGA_M = np.linspace(1544.0, 1564.0, 101)  # configs/manifold_spectra.yaml


@pytest.mark.parametrize("manifolds, frequencies", [((1, 2, 3), None), ((1, 4), None),
                                                    ((1, 2, 3), (1552.0, 1557.5))])
def test_spectrum_sweep_equals_per_point_manifold_spectra(manifolds, frequencies):
    result = spectrum_sweep("A1", 7.5, SHIPPED_OMEGA_M, manifolds, frequencies)
    omega_smr, _, omega_q = PRESETS["A1"].frequencies
    if frequencies is not None:
        omega_smr, omega_q = frequencies
    base = PRESETS["A1"].params.with_(eta_a=0.0, eta_b=0.0, g=7.5,
                                      delta_a=omega_smr, delta_q=omega_q)
    cfg = TruncationConfig(max(3, *manifolds), max(3, *manifolds))
    for n in manifolds:
        rows = np.array([manifold_spectrum(hamiltonian_undriven(base.with_(delta_b=float(x)), +1,
                                                                cfg), n, cfg)
                         for x in SHIPPED_OMEGA_M])
        assert np.array_equal(result[n], rows)
        assert minimum_gap(result[n]) == min(np.diff(row).min() for row in rows)


def test_spectrum_sweep_memory_stays_per_point():
    spectrum_sweep("A1", 7.5, SHIPPED_OMEGA_M[:2])  # caches filled outside the window
    tracemalloc.start()
    try:
        spectrum_sweep("A1", 7.5, SHIPPED_OMEGA_M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_spectrum_sweep_assembles_once_per_manifold(monkeypatch):
    """The terms are summed once per manifold, over the whole grid, never
    into a Hamiltonian per grid point."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _assemble(*args, **kwargs)
    for target in ("polariton.model._assemble", "polariton.scenarios._assemble"):
        monkeypatch.setattr(target, counted)
    counts = []
    for grid in (SHIPPED_OMEGA_M[:4], SHIPPED_OMEGA_M):
        calls.clear()
        spectrum_sweep("A1", 7.5, grid, manifolds=(1, 2, 3))
        counts.append(len(calls))
    assert counts == [3, 3]


def test_resonance_distances_array_equals_scalar_calls():
    omega_smr, omega_m, omega_q = PRESETS["A1"].frequencies
    base = PRESETS["A1"].params.with_(eta_a=0.0, g=7.58, delta_a=omega_smr,
                                      delta_b=omega_m, delta_q=omega_q)
    H = hamiltonian_undriven(base, +1, CFG)
    spectra = [manifold_spectrum(H, n, CFG) for n in (1, 2, 3)]
    grid = np.linspace(-15.0, 15.0, 601)  # configs/resonance_distances.yaml
    batch = resonance_distances(omega_smr - grid, spectra)
    assert batch.shape == (3, 601)
    assert np.array_equal(resonance_distance_sweep("A1", 7.58, grid), batch)
    for i, delta in enumerate(grid):
        one = resonance_distances(omega_smr - float(delta), spectra)
        assert one.shape == (3,)
        assert np.array_equal(batch[:, i], one)


def test_spectrum_sweeps_log_one_debug_line_each(caplog):
    with caplog.at_level(logging.DEBUG, logger="polariton.scenarios"):
        spectrum_sweep("A1", 7.5, SHIPPED_OMEGA_M[:4], manifolds=(1, 4))
        resonance_distance_sweep("A1", 7.58, np.linspace(-1.0, 1.0, 5))
    lines = [r.getMessage() for r in caplog.records if r.name == "polariton.scenarios"]
    assert len(lines) == 2
    assert lines[0].startswith("spectrum_sweep: 4 grid points, manifolds [1, 4], dimension 50, ")
    assert lines[1].startswith("resonance_distance_sweep: 5 grid points, manifolds [1, 2, 3], "
                               "dimension 32, ")
    assert all(line.endswith(" s") for line in lines)


def test_minimum_gap_validation():
    with pytest.raises(ParameterError):
        minimum_gap([np.array([1.0])])
    assert minimum_gap([np.array([0.0, 0.5, 2.0])]) == pytest.approx(0.5)


def test_degenerate_sorting_deterministic():
    p = resonant_params(1.0, 0.0, 0.0)
    H = hamiltonian_undriven(p, +1, CFG)
    assert np.array_equal(manifold_spectrum(H, 2, CFG), manifold_spectrum(H, 2, CFG))
