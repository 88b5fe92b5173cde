import gc
import logging
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import DOP853, solve_ivp
from scipy.sparse.linalg import splu

from polariton import (OVERRIDE_BUNDLES, DensityMatrix, FockLabel, IntegrationError,
                       NonUniqueSteadyStateError, ParameterError, QOperator,
                       SteadyStateError, SystemParams, TruncationConfig, basis_state,
                       build_liouvillian, bundle_params, g2_tau, g_k_zero,
                       hamiltonian_qd_driven, hamiltonian_smr_driven,
                       hybrid_mode_operator, preset_params, solve_point, steady_state)
from polariton.lindblad import (Liouvillian, _lu_steady_state, _propagate, _real_form,
                                _real_generator, _sum_jump_orders)
from polariton.scenarios import build_hamiltonian
from helpers import evolve, kron_liouvillian, random_composite_density, random_params

CFG = TruncationConfig(2, 2)


def make_L(p, cfg=CFG, driven="a"):
    builder = hamiltonian_smr_driven if driven == "a" else hamiltonian_qd_driven
    return build_liouvillian(builder(p, cfg), p)


def density_from_label(n_a, n_b, q, cfg=CFG):
    vec = basis_state(FockLabel(n_a, n_b, q), cfg)
    return DensityMatrix(np.outer(vec, vec.conj()), cfg.dims)


def test_vacuum_is_dark():
    p = SystemParams(kappa_a=1.0, kappa_b=2.0, gamma=1.0)
    L = make_L(p)
    rho0 = density_from_label(0, 0, "g")
    assert np.linalg.norm(L.apply(rho0.matrix)) < 1e-14


def test_trace_annihilation_on_random_states():
    rng = np.random.default_rng(21)
    p = random_params(rng, driven="b")
    L = make_L(p, driven="b")
    for _ in range(10):
        rho = random_composite_density(rng, CFG)
        assert abs(np.trace(L.apply(rho.matrix))) < 1e-12 * L.norm


def test_pure_decay_rate():
    kappa = 0.73
    p = SystemParams(kappa_a=kappa, gamma=0.0)
    L = make_L(p)
    rho1 = density_from_label(1, 0, "g")
    n_op = hybrid_mode_operator("a", CFG)
    drho = L.apply(rho1.matrix)
    dn_dt = np.einsum("ij,ji->", drho, (n_op.dag() @ n_op).matrix).real
    assert dn_dt == pytest.approx(-kappa, rel=1e-12)


def test_negative_rate_rejected():
    with pytest.raises(ParameterError):
        SystemParams(kappa_a=-0.1)


LIOUVILLIAN_CASES = {
    **{bundle: bundle_params(bundle) for bundle in OVERRIDE_BUNDLES},
    "gamma=0": preset_params("A2", g=4.5).with_(gamma=0.0),
    "kappa_a=0": preset_params("A1", g=7.5).with_(kappa_a=0.0),
}


@pytest.mark.parametrize("case", sorted(LIOUVILLIAN_CASES))
def test_liouvillian_matches_kron_reference(case):
    p = LIOUVILLIAN_CASES[case]
    H = build_hamiltonian(p, TruncationConfig(3, 3))
    L = build_liouvillian(H, p)
    ref = kron_liouvillian(H, p)
    assert L.matrix.nnz == ref.nnz
    assert abs(L.matrix - ref).max() <= 1e-13 * L.norm


def test_non_hermitian_hamiltonian_rejected():
    p = SystemParams(kappa_a=1.0)
    H = hamiltonian_smr_driven(p, CFG)
    bad = QOperator(H.matrix + 1e-6 * 1j * np.eye(CFG.dim), H.dims)
    with pytest.raises(ParameterError):
        build_liouvillian(bad, p)


def test_undriven_steady_state_is_ground(caplog):
    p = SystemParams(delta_a=1.0, delta_b=-1.0, delta_q=2.0, g=1.5, f=2.0,
                     kappa_a=1.0, kappa_b=0.5, gamma=1.0)
    # the dark vacuum is an undamped eigenstate of H_eff: the LU fallback runs
    with caplog.at_level(logging.DEBUG, logger="polariton.lindblad"):
        rho = steady_state(make_L(p))
    assert "via LU (undamped pair" in caplog.text
    expected = density_from_label(0, 0, "g")
    assert np.linalg.norm(rho.matrix - expected.matrix) < 1e-10


@pytest.mark.parametrize("bundle", sorted(OVERRIDE_BUNDLES))
def test_jump_free_path_matches_lu(bundle, caplog):
    p = bundle_params(bundle)
    L = build_liouvillian(build_hamiltonian(p, TruncationConfig(3, 3)), p)
    with caplog.at_level(logging.DEBUG, logger="polariton.lindblad"):
        rho = steady_state(L)
    assert "via jump-free" in caplog.text
    lu, _ = _lu_steady_state(L)
    assert np.linalg.norm(rho.matrix - lu.matrix) <= 1e-10 * np.linalg.norm(lu.matrix)
    for mode in "abcd":
        assert g_k_zero(rho, mode, 2).value == pytest.approx(
            g_k_zero(lu, mode, 2).value, rel=1e-10)


def refined_lu_state(L: Liouvillian) -> np.ndarray:
    """Sparse LU of L with the trace row, plus two steps of iterative
    refinement, which give the smallest populations their relative accuracy."""
    d = L.dim
    M = L.matrix.tolil()
    M[0, :] = 0.0
    M[0, np.arange(d) * (d + 1)] = 1.0
    M = M.tocsc()
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    lu = splu(M)
    x = lu.solve(rhs)
    for _ in range(2):
        x = x - lu.solve(M @ x - rhs)
    return x.reshape(d, d)


def test_jump_free_resolves_four_boson_moments():
    # A2 at g = 1, cutoff 4: without the defect correction the sum leaves an
    # error near machine epsilon on every entry, and g4 is off by 3e-9
    p = preset_params("A2", g=1.0)
    L = make_L(p, TruncationConfig(4, 4), driven="b")
    rho = steady_state(L)
    ref = DensityMatrix(refined_lu_state(L), L.dims)
    for mode in "abcd":
        for k in (2, 3, 4):
            assert g_k_zero(rho, mode, k).value == pytest.approx(
                g_k_zero(ref, mode, k).value, rel=1e-10)


def test_lu_fallback_resolves_four_boson_moments():
    # a single complex LU leaves g^(k) off by up to 3e-7 relative here;
    # iterative refinement with the same factor removes that error
    p = bundle_params("hybrid-blockade-gsweep")
    L = make_L(p, TruncationConfig(4, 4), driven="b")
    rho = steady_state(L)
    lu, _ = _lu_steady_state(L)
    for mode in "abcd":
        for k in (2, 3, 4):
            assert g_k_zero(lu, mode, k).value == pytest.approx(
                g_k_zero(rho, mode, k).value, rel=1e-10)


def test_linear_cavity_closed_form():
    # driven damped cavity: coherent steady state
    delta, kappa, eta = 0.8, 1.3, 0.25
    p = SystemParams(delta_a=delta, kappa_a=kappa, eta_a=eta, kappa_b=1.0, gamma=1.0)
    cfg = TruncationConfig(7, 2)
    rho = steady_state(build_liouvillian(hamiltonian_smr_driven(p, cfg), p))
    a = hybrid_mode_operator("a", cfg)
    alpha = -eta / (delta - 0.5j * kappa)
    assert abs(rho.expect(a) - alpha) < 1e-9
    n_mean = rho.expect(a.dag() @ a).real
    assert n_mean == pytest.approx(abs(alpha) ** 2, rel=1e-8)
    assert g_k_zero(rho, "a", 2).value == pytest.approx(1.0, abs=1e-6)


def test_steady_state_validates():
    p = SystemParams(delta_a=2.0, delta_b=-2.0, delta_q=1.0, g=2.0, f=3.0,
                     eta_b=0.4, kappa_a=2.0, kappa_b=1.0, gamma=1.0)
    L = make_L(p, driven="b")
    rho = steady_state(L)
    rho.validate()
    assert np.linalg.norm(L.apply(rho.matrix)) <= 1e-10 * L.norm


def test_degenerate_steady_state_detected(capfd):
    # qubit decoupled (g = 0) and undamped (gamma = 0): its populations are
    # conserved, so the null space is at least two-dimensional
    p = SystemParams(delta_a=1.0, delta_b=2.0, g=0.0, f=1.0,
                     kappa_a=1.0, kappa_b=1.0, gamma=0.0)
    L = make_L(p)
    assert _sum_jump_orders(L)[3] == "undamped pair of H_eff eigenstates"
    with pytest.raises(NonUniqueSteadyStateError):
        steady_state(L)
    assert "illegal value" not in capfd.readouterr().out


def test_driven_degenerate_steady_state_detected():
    # as above with the photon driven: every pair of H_eff eigenstates is
    # damped, so only the second start of the jump-order sum shows that the
    # qubit populations are conserved
    p = SystemParams(delta_a=1.0, delta_b=2.0, g=0.0, f=1.0, eta_a=0.5,
                     kappa_a=1.0, kappa_b=1.0, gamma=0.0)
    L = make_L(p)
    assert _sum_jump_orders(L)[3] == "starts reach different steady states"
    with pytest.raises(NonUniqueSteadyStateError):
        steady_state(L)


def test_no_zero_mode_raises_convergence_error():
    import scipy.sparse as sp
    p = SystemParams(kappa_a=1.0, kappa_b=1.0, gamma=1.0)
    L = make_L(p)
    shifted = Liouvillian(
        (L.matrix + 0.3 * sp.identity(L.matrix.shape[0], dtype=complex, format="csr")).tocsr(),
        L.dims, L.hamiltonian, L.collapse_ops)
    with pytest.raises(SteadyStateError):
        steady_state(shifted)


def test_evolve_fixes_steady_state():
    p = SystemParams(delta_a=1.0, delta_b=0.5, delta_q=-0.5, g=1.0, f=2.0,
                     eta_b=0.3, kappa_a=1.5, kappa_b=0.8, gamma=1.0)
    L = make_L(p, driven="b")
    rho_ss = steady_state(L)
    for rho_t in evolve(rho_ss, L, [0.0, 1.0, 5.0]):
        assert np.linalg.norm(rho_t.matrix - rho_ss.matrix) < 1e-7


def test_cavity_decay_oracle(caplog):
    kappa = 0.9
    p = SystemParams(kappa_a=kappa, gamma=0.0)
    L = make_L(p)
    rho0 = density_from_label(1, 0, "g")
    times = np.linspace(0.0, 4.0, 9)
    n_op = hybrid_mode_operator("a", CFG)
    num = (n_op.dag() @ n_op).matrix
    with caplog.at_level(logging.DEBUG, logger="polariton.lindblad"):
        states = evolve(rho0, L, times)
    assert f"propagated 9 samples on the real form: G nnz {_real_generator(L).nnz}," in caplog.text
    for t, rho_t in zip(times, states):
        n_mean = np.einsum("ij,ji->", rho_t.matrix, num).real
        assert n_mean == pytest.approx(np.exp(-kappa * t), abs=1e-8)


def test_vacuum_rabi_period():
    g = 1.7
    p = SystemParams(g=g, kappa_a=0.0, kappa_b=0.0, gamma=0.0)
    L = make_L(p)
    rho0 = density_from_label(0, 0, "e")
    times = np.linspace(0.0, np.pi / g, 13)
    proj_e = density_from_label(0, 0, "e").matrix
    for t, rho_t in zip(times, evolve(rho0, L, times)):
        pop = np.einsum("ij,ji->", rho_t.matrix, proj_e).real
        assert pop == pytest.approx(np.cos(g * t) ** 2, abs=1e-8)
    # full revival after one period pi/g
    final = evolve(rho0, L, [0.0, np.pi / g])[-1]
    assert np.einsum("ij,ji->", final.matrix, proj_e).real == pytest.approx(1.0, abs=1e-8)


def test_trace_preservation_and_positivity_over_horizon():
    rng = np.random.default_rng(17)
    p = random_params(rng, driven="b")
    L = make_L(p, driven="b")
    rho0 = random_composite_density(rng, CFG)
    times = np.linspace(0.0, 20.0, 11)
    for t, rho_t in zip(times, evolve(rho0, L, times)):
        assert abs(rho_t.trace() - 1.0) <= 1e-9 * (1.0 + p.gamma * t)
        assert rho_t.min_eigenvalue() >= -1e-8
        assert rho_t.hermiticity_defect() < 1e-12


@pytest.mark.parametrize("preset_name,g", [("A1", 7.5), ("A2", 4.5)])
def test_steady_state_equals_long_time_evolution(preset_name, g):
    p = preset_params(preset_name, g=g)
    L = build_liouvillian(build_hamiltonian(p, CFG), p)
    rho_ss = steady_state(L)
    horizon = 20.0 / min(p.kappa_a, p.kappa_b, p.gamma)
    rho0 = density_from_label(0, 0, "g")
    rho_T = evolve(rho0, L, [0.0, horizon])[-1]
    assert np.linalg.norm(rho_T.matrix - rho_ss.matrix) <= 1e-6


def test_steady_state_equals_long_time_evolution_a3():
    # kappa_b = 0.002 gamma puts the horizon at 10^4 / gamma, where stepping
    # the propagator takes tens of seconds; at d = 18 the dense exponential
    # of L gives rho(T) directly, independent of _propagate and steady_state
    from scipy.linalg import expm
    p = preset_params("A3", g=9.5)
    L = make_L(p, driven="b")
    rho_ss = steady_state(L)
    horizon = 20.0 / min(p.kappa_a, p.kappa_b, p.gamma)
    rho0 = density_from_label(0, 0, "g")
    rho_T = (expm(L.matrix.toarray() * horizon) @ rho0.matrix.reshape(-1)).reshape(L.dim, L.dim)
    assert np.linalg.norm(rho_T - rho_ss.matrix) <= 1e-6


def test_evolve_grid_validation():
    p = SystemParams(kappa_a=1.0)
    L = make_L(p)
    rho0 = density_from_label(0, 0, "g")
    with pytest.raises(IntegrationError):
        evolve(rho0, L, [1.0, 0.5])
    with pytest.raises(IntegrationError):
        evolve(rho0, L, [-1.0, 0.5])
    only_zero = evolve(rho0, L, [0.0])
    assert np.allclose(only_zero[0].matrix, rho0.matrix)


@pytest.mark.parametrize("bundle", sorted(OVERRIDE_BUNDLES))
def test_real_generator_maps_real_forms(bundle):
    p = bundle_params(bundle)
    L = build_liouvillian(build_hamiltonian(p, TruncationConfig(3, 3)), p)
    G = _real_generator(L)
    rng = np.random.default_rng(5)
    A = rng.normal(size=(L.dim, L.dim)) + 1j * rng.normal(size=(L.dim, L.dim))
    X = A + A.conj().T
    expected = _real_form(L.apply(X)).reshape(-1)
    got = G @ _real_form(X).reshape(-1)
    assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


def test_evolve_rejects_non_hermitian_start():
    L = make_L(SystemParams(kappa_a=1.0))
    vec_g = basis_state(FockLabel(0, 0, "g"), CFG)
    vec_e = basis_state(FockLabel(0, 0, "e"), CFG)
    coherence = DensityMatrix(np.outer(vec_g, vec_e.conj()), CFG.dims)
    with pytest.raises(IntegrationError):
        evolve(coherence, L, [0.0, 1.0])


@pytest.mark.parametrize("preset_name,point", [("A3", {"g": 10.5}), ("A1", {"f": 5.5, "g": 1.2})])
def test_g2_tau_matches_tight_complex_reference(preset_name, point):
    # reference: the quantum regression theorem integrated on the complex
    # vec(X) with L.matrix, at a thousand times the tolerance of g2_tau
    cfg = TruncationConfig(3, 3)
    rho, L = solve_point(preset_params(preset_name, **point), cfg)
    grid = np.linspace(0.0, 6.0, 1201)
    Lm = L.matrix
    for mode in "abcd":
        z = hybrid_mode_operator(mode, cfg).matrix
        n_op = z.conj().T @ z
        n_mean = np.trace(rho.matrix @ n_op).real
        x0 = (z @ rho.matrix @ z.conj().T).reshape(-1) / n_mean
        sol = solve_ivp(lambda t, y: Lm @ y, (0.0, grid[-1]), x0, t_eval=grid,
                        method="DOP853", rtol=1e-12, atol=1e-14)
        ref = np.einsum("ij,jik->k", n_op, sol.y.reshape(L.dim, L.dim, -1)).real / n_mean
        values = g2_tau(rho, L, mode, grid).values
        assert np.abs(values - ref).max() <= 1e-6 * np.abs(ref).max()


@pytest.mark.parametrize("preset_name,point", [("A3", {"g": 10.5}), ("A1", {"f": 5.5, "g": 1.2})])
def test_streamed_readout_matches_solve_ivp_trajectory(preset_name, point, caplog):
    # the same DOP853 run as solve_ivp with t_eval, read out on c: equal
    # right-hand side calls and the same curve up to rounding; a scipy
    # release that changes the interpolant's data breaks this
    cfg = TruncationConfig(3, 3)
    rho, L = solve_point(preset_params(preset_name, **point), cfg)
    G = _real_generator(L)
    grid = np.linspace(0.0, 6.0, 1201)
    for mode in "abcd":
        z = hybrid_mode_operator(mode, cfg).matrix
        X = z @ rho.matrix @ z.conj().T
        c = _real_form(z.conj().T @ z).reshape(1, -1)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="polariton.lindblad"):
            curve = _propagate(X, L, grid, c)
        y0 = _real_form(X).reshape(-1)
        ref = solve_ivp(lambda t, y: G @ y, (0.0, grid[-1]), y0, t_eval=grid,
                        method="DOP853", rtol=1e-9, atol=1e-12)
        ref_curve = c @ ref.y
        assert curve.shape == ref_curve.shape
        assert np.abs(curve - ref_curve).max() <= 1e-13 * np.abs(ref_curve).max()
        calls, accepted, rejected = map(int, re.search(
            r"(\d+) right-hand side calls, (\d+) accepted and (\d+) rejected steps",
            caplog.text).groups())
        assert calls == ref.nfev
        # without samples the solver makes 2 calls to choose its first step
        # and 12 per attempted step
        steps = solve_ivp(lambda t, y: G @ y, (0.0, grid[-1]), y0, method="DOP853",
                          rtol=1e-9, atol=1e-12)
        assert accepted == steps.t.size - 1
        assert steps.nfev == 2 + 12 * (accepted + rejected)


def test_g2_tau_leaves_no_solver_for_the_cyclic_collector():
    cfg = TruncationConfig(2, 2)
    rho, L = solve_point(preset_params("A3", g=10.5), cfg)
    gc.collect()
    gc.disable()
    try:
        for mode in "abcd":
            g2_tau(rho, L, mode, np.linspace(0.0, 1.0, 11))
        alive = [obj for obj in gc.get_objects() if isinstance(obj, DOP853)]
    finally:
        gc.enable()
    assert not alive


def test_g2_tau_memory_does_not_hold_the_trajectory():
    cfg = TruncationConfig(4, 4)
    rho, L = solve_point(preset_params("A3", g=10.5), cfg)
    grid = np.linspace(0.0, 6.0, 1201)
    tracemalloc.start()
    try:
        g2_tau(rho, L, "c", grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < L.dim ** 2 * grid.size * 8 / 10
