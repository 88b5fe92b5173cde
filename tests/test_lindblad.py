import functools
import gc
import logging
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import DOP853, solve_ivp
from scipy.sparse.linalg import splu

from polariton import (OVERRIDE_BUNDLES, DensityMatrix, FockLabel, IntegrationError,
                       NonUniqueSteadyStateError, ParameterError,
                       SteadyStateError, SystemParams, TruncationConfig,
                       build_liouvillian, bundle_params, g2_tau, g_k_zero,
                       hamiltonian_qd_driven, hamiltonian_smr_driven,
                       hybrid_mode_operator, preset_params, solve_point, steady_state)
from polariton.lindblad import (Liouvillian, _lu_steady_state, _propagate, _real_form,
                                _real_generator, _sum_jump_orders)
from polariton.scenarios import build_hamiltonian
from helpers import (basis_state, evolve, expect, fresh_env, hermiticity_defect,
                     kron_liouvillian, random_composite_density, random_params, trace,
                     validate)

CFG = TruncationConfig(2, 2)


def make_L(p, cfg=CFG, driven="a"):
    builder = hamiltonian_smr_driven if driven == "a" else hamiltonian_qd_driven
    return build_liouvillian(builder(p, cfg), p, cfg)


def density_from_label(n_a, n_b, q, cfg=CFG):
    vec = basis_state(FockLabel(n_a, n_b, q), cfg)
    return DensityMatrix(np.outer(vec, vec.conj()), cfg)


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
    dn_dt = np.einsum("ij,ji->", drho, n_op.conj().T @ n_op).real
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
    cfg = TruncationConfig(3, 3)
    H = build_hamiltonian(p, cfg)
    L = build_liouvillian(H, p, cfg)
    ref = kron_liouvillian(H, p, cfg)
    assert L.matrix.nnz == ref.nnz
    assert abs(L.matrix - ref).max() <= 1e-13 * L.norm


def bundle_liouvillian(bundle: str) -> Liouvillian:
    p = bundle_params(bundle)
    cfg = TruncationConfig(3, 3)
    return build_liouvillian(build_hamiltonian(p, cfg), p, cfg)


@pytest.mark.parametrize("bundle", sorted(OVERRIDE_BUNDLES))
def test_apply_matches_the_assembled_matrix(bundle):
    L = bundle_liouvillian(bundle)
    rho = random_composite_density(np.random.default_rng(3), TruncationConfig(3, 3)).matrix
    expected = (L.matrix @ rho.reshape(-1)).reshape(L.cfg.dim, L.cfg.dim)
    assert np.linalg.norm(L.apply(rho) - expected) <= 1e-14 * np.linalg.norm(expected)


@pytest.mark.parametrize("bundle", sorted(OVERRIDE_BUNDLES))
def test_norm_is_the_frobenius_norm_of_the_assembled_matrix(bundle):
    L = bundle_liouvillian(bundle)
    # squares summed exactly, so the reference carries one rounding per entry
    data = L.matrix.data
    fro = math.sqrt(math.fsum(data.real ** 2) + math.fsum(data.imag ** 2))
    assert abs(L.norm - fro) <= 1e-14 * fro


def test_jump_free_steady_state_assembles_no_matrix(caplog):
    L = bundle_liouvillian("hybrid-blockade-gsweep")
    with caplog.at_level(logging.DEBUG, logger="polariton.lindblad"):
        steady_state(L)
    assert "via jump-free" in caplog.text
    assert "matrix" not in vars(L)
    assert "real_generator" not in vars(L)


def test_g2_tau_builds_the_real_generator_once(monkeypatch):
    rho, L = solve_point(preset_params("A3", g=10.5), CFG)
    built = []
    real_generator = _real_generator

    def counted(L):
        built.append(L)
        return real_generator(L)
    monkeypatch.setattr("polariton.lindblad._real_generator", counted)
    for mode in "abcd":
        g2_tau(rho, L, mode, np.linspace(0.0, 1.0, 11))
    assert built == [L]


def test_non_hermitian_hamiltonian_rejected():
    p = SystemParams(kappa_a=1.0)
    H = hamiltonian_smr_driven(p, CFG)
    bad = H + 1e-6 * 1j * np.eye(CFG.dim)
    with pytest.raises(ParameterError):
        build_liouvillian(bad, p, CFG)


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
    cfg = TruncationConfig(3, 3)
    L = build_liouvillian(build_hamiltonian(p, cfg), p, cfg)
    with caplog.at_level(logging.DEBUG, logger="polariton.lindblad"):
        rho = steady_state(L)
    assert "via jump-free" in caplog.text
    lu, _ = _lu_steady_state(L)
    assert np.linalg.norm(rho.matrix - lu.matrix) <= 1e-10 * np.linalg.norm(lu.matrix)
    for mode in "abcd":
        # a^4 and b^4 vanish at cutoff 3
        for k in (2, 3, 4) if mode in "cd" else (2, 3):
            assert g_k_zero(rho, mode, k) == pytest.approx(
                g_k_zero(lu, mode, k), rel=1e-10)


def test_graded_starts_converge_in_few_sweeps():
    # flat starts put O(1) weight on the top manifold (11 excitations at
    # cutoff 5) and need 18 sweeps here, the first ones only draining it
    p = bundle_params("oracle-comparison")
    cfg = TruncationConfig(5, 5)
    L = build_liouvillian(build_hamiltonian(p, cfg), p, cfg)
    _, sweeps, _, reason, _ = _sum_jump_orders(L)
    assert reason == ""
    assert sweeps <= 10


def refined_lu_state(L: Liouvillian) -> np.ndarray:
    """Sparse LU of L with the trace row, plus two steps of iterative
    refinement, which give the smallest populations their relative accuracy."""
    d = L.cfg.dim
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
    ref = DensityMatrix(refined_lu_state(L), L.cfg)
    for mode in "abcd":
        for k in (2, 3, 4):
            assert g_k_zero(rho, mode, k) == pytest.approx(
                g_k_zero(ref, mode, k), rel=1e-10)


def test_lu_fallback_resolves_four_boson_moments():
    # a single complex LU leaves g^(k) off by up to 3e-7 relative here;
    # iterative refinement with the same factor removes that error
    p = bundle_params("hybrid-blockade-gsweep")
    L = make_L(p, TruncationConfig(4, 4), driven="b")
    rho = steady_state(L)
    lu, _ = _lu_steady_state(L)
    for mode in "abcd":
        for k in (2, 3, 4):
            assert g_k_zero(lu, mode, k) == pytest.approx(
                g_k_zero(rho, mode, k), rel=1e-10)


def test_linear_cavity_closed_form():
    # driven damped cavity: coherent steady state
    delta, kappa, eta = 0.8, 1.3, 0.25
    p = SystemParams(delta_a=delta, kappa_a=kappa, eta_a=eta, kappa_b=1.0, gamma=1.0)
    cfg = TruncationConfig(7, 2)
    rho = steady_state(build_liouvillian(hamiltonian_smr_driven(p, cfg), p, cfg))
    a = hybrid_mode_operator("a", cfg)
    alpha = -eta / (delta - 0.5j * kappa)
    assert abs(expect(rho, a) - alpha) < 1e-9
    n_mean = expect(rho, a.conj().T @ a).real
    assert n_mean == pytest.approx(abs(alpha) ** 2, rel=1e-8)
    assert g_k_zero(rho, "a", 2) == pytest.approx(1.0, abs=1e-6)


def test_steady_state_validates():
    p = SystemParams(delta_a=2.0, delta_b=-2.0, delta_q=1.0, g=2.0, f=3.0,
                     eta_b=0.4, kappa_a=2.0, kappa_b=1.0, gamma=1.0)
    L = make_L(p, driven="b")
    rho = steady_state(L)
    validate(rho)
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


#: Conserved sectors whose lowest state holds one excitation: an undamped,
#: decoupled qubit, phonon, or photon-qubit pair, beside a driven damped mode.
DEGENERATE = {
    "qubit": (SystemParams(delta_a=1.0, delta_b=2.0, g=0.0, f=1.0, eta_a=0.5,
                           kappa_a=1.0, kappa_b=1.0, gamma=0.0), "a"),
    "phonon": (SystemParams(delta_a=1.0, delta_b=2.0, delta_q=0.5, g=1.0, f=0.0, eta_a=0.5,
                            kappa_a=1.0, kappa_b=0.0, gamma=1.0), "a"),
    "photon-qubit": (SystemParams(delta_a=1.0, delta_b=2.0, delta_q=0.5, g=1.0, f=0.0,
                                  eta_b=0.5, kappa_a=0.0, kappa_b=1.0, gamma=0.0), "b"),
}


@pytest.mark.parametrize("cutoff", [3, 5])
@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_graded_starts_detect_degenerate_steady_states(case, cutoff):
    # the graded starts enter a sector whose lowest state holds m
    # excitations at 1e-3^m; with m = 1 the two limits still disagree
    p, driven = DEGENERATE[case]
    L = make_L(p, TruncationConfig(cutoff, cutoff), driven)
    assert _sum_jump_orders(L)[3] == "starts reach different steady states"
    with pytest.raises(NonUniqueSteadyStateError):
        steady_state(L)


@pytest.mark.parametrize("case, cutoff", [("phonon", 5), ("phonon", 6), ("qubit", 6)])
def test_lu_fallback_detects_degenerate_steady_states(case, cutoff):
    # smallest-to-largest LU pivot ratios are 3.1e-12 to 1.1e-10 here, so a
    # count triggered only by pivots near 1e-12 returns one of many states
    p, driven = DEGENERATE[case]
    L = make_L(p, TruncationConfig(cutoff, cutoff), driven)
    with pytest.raises(NonUniqueSteadyStateError):
        _lu_steady_state(L)
    with pytest.raises(NonUniqueSteadyStateError):
        steady_state(L)


def test_lu_fallback_counts_zero_modes_when_the_starts_disagree(monkeypatch):
    # with no pivot small enough to trigger the count, the jump-order sum's
    # report of two steady states still does
    monkeypatch.setattr("polariton.lindblad.LU_PIVOT_RTOL", 0.0)
    p, driven = DEGENERATE["phonon"]
    L = make_L(p, TruncationConfig(5, 5), driven)
    _lu_steady_state(L)  # no pivot triggers the count
    with pytest.raises(NonUniqueSteadyStateError):
        steady_state(L)


def test_jump_order_sweeps_reuse_their_work_arrays():
    # at cutoff 5 (d = 72) the sweep stacks lie above glibc's mmap
    # threshold: arrays made per sweep were mapped afresh every time, at
    # 7900-8400 minor page faults a call against 580-800 with work arrays
    # allocated once per call.  It runs in a fresh interpreter, because a
    # large array freed earlier in this process raises the threshold and
    # hides the faults.
    pytest.importorskip("resource")
    code = """if True:
        import resource
        from polariton import TruncationConfig, build_liouvillian, bundle_params
        from polariton.lindblad import _sum_jump_orders
        from polariton.scenarios import build_hamiltonian
        p = bundle_params("oracle-comparison")
        cfg = TruncationConfig(5, 5)
        L = build_liouvillian(build_hamiltonian(p, cfg), p, cfg)
        _sum_jump_orders(L)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert _sum_jump_orders(L)[3] == ""
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """
    done = subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 2000


def test_jump_order_sum_keeps_no_state_between_solves():
    L1, L2 = (make_L(preset_params("A2", g=g), TruncationConfig(3, 3), driven="b")
              for g in (1.0, 4.5))
    first = _sum_jump_orders(L1)
    other = _sum_jump_orders(L2)
    again = _sum_jump_orders(L1)
    assert not np.array_equal(first[0], other[0])
    assert np.array_equal(first[0], again[0])
    assert first[1:] == again[1:]


def test_debug_line_counts_correction_sweeps(caplog):
    L = bundle_liouvillian("oracle-comparison")
    corrections = _sum_jump_orders(L)[4]
    assert corrections >= 1
    with caplog.at_level(logging.DEBUG, logger="polariton.lindblad"):
        steady_state(L)
    assert re.search(rf"via jump-free: \d+ sweeps, {corrections} correction sweeps,",
                     caplog.text)


def test_no_zero_mode_raises_convergence_error():
    import scipy.sparse as sp
    # driven, so that the vacuum, which the shift leaves a solution of the
    # LU's rows, is not the steady state of L
    p = SystemParams(eta_a=0.5, kappa_a=1.0, kappa_b=1.0, gamma=1.0)
    L = make_L(p)
    # no H and jumps give this matrix, so it replaces the assembled one and
    # goes to the LU fallback directly
    L.matrix = (L.matrix + 0.3 * sp.identity(L.matrix.shape[0], dtype=complex,
                                             format="csr")).tocsr()
    with pytest.raises(SteadyStateError, match="no eigenvalue below the zero-mode tolerance"):
        _lu_steady_state(L)


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
    num = n_op.conj().T @ n_op
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
        assert abs(trace(rho_t) - 1.0) <= 1e-9 * (1.0 + p.gamma * t)
        assert rho_t.min_eigenvalue() >= -1e-8
        assert hermiticity_defect(rho_t) < 1e-12


@pytest.mark.parametrize("preset_name,g", [("A1", 7.5), ("A2", 4.5)])
def test_steady_state_equals_long_time_evolution(preset_name, g):
    p = preset_params(preset_name, g=g)
    L = build_liouvillian(build_hamiltonian(p, CFG), p, CFG)
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
    d = L.cfg.dim
    rho_T = (expm(L.matrix.toarray() * horizon) @ rho0.matrix.reshape(-1)).reshape(d, d)
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
    cfg = TruncationConfig(3, 3)
    L = build_liouvillian(build_hamiltonian(p, cfg), p, cfg)
    G = _real_generator(L)
    rng = np.random.default_rng(5)
    A = rng.normal(size=(cfg.dim, cfg.dim)) + 1j * rng.normal(size=(cfg.dim, cfg.dim))
    X = A + A.conj().T
    expected = _real_form(L.apply(X)).reshape(-1)
    got = G @ _real_form(X).reshape(-1)
    assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


def test_evolve_rejects_non_hermitian_start():
    L = make_L(SystemParams(kappa_a=1.0))
    vec_g = basis_state(FockLabel(0, 0, "g"), CFG)
    vec_e = basis_state(FockLabel(0, 0, "e"), CFG)
    coherence = DensityMatrix(np.outer(vec_g, vec_e.conj()), CFG)
    with pytest.raises(IntegrationError):
        evolve(coherence, L, [0.0, 1.0])


TIGHT_POINTS = [("A3", {"g": 10.5}), ("A1", {"f": 5.5, "g": 1.2})]
TIGHT_GRID = np.linspace(0.0, 6.0, 1201)


@functools.lru_cache(maxsize=2)
def tight_reference(preset_name, point_items):
    """Steady state, L and the reference curves of modes a-d at cutoff 3:
    the quantum regression theorem integrated on the complex vec(X) with
    L.matrix by DOP853 at rtol 1e-12, a different method from g2_tau's."""
    cfg = TruncationConfig(3, 3)
    rho, L = solve_point(preset_params(preset_name, **dict(point_items)), cfg)
    Lm = L.matrix
    refs = []
    for mode in "abcd":
        z = hybrid_mode_operator(mode, cfg)
        n_op = z.conj().T @ z
        n_mean = np.trace(rho.matrix @ n_op).real
        x0 = (z @ rho.matrix @ z.conj().T).reshape(-1) / n_mean
        sol = solve_ivp(lambda t, y: Lm @ y, (0.0, TIGHT_GRID[-1]), x0, t_eval=TIGHT_GRID,
                        method="DOP853", rtol=1e-12, atol=1e-14)
        refs.append(np.einsum("ij,jik->k", n_op, sol.y.reshape(cfg.dim, cfg.dim, -1)).real / n_mean)
    return rho, L, refs


@pytest.mark.parametrize("preset_name,point", TIGHT_POINTS)
def test_g2_tau_matches_tight_complex_reference(preset_name, point):
    rho, L, refs = tight_reference(preset_name, tuple(point.items()))
    for mode, ref in zip("abcd", refs):
        values = g2_tau(rho, L, mode, TIGHT_GRID)
        assert np.abs(values - ref).max() <= 1e-6 * np.abs(ref).max()


@pytest.mark.parametrize("preset_name,point", TIGHT_POINTS)
def test_g2_tau_matches_tight_taylor_bound(preset_name, point):
    # each Taylor step is accurate to 1e-12 of the state; against an
    # rtol-1e-13 run of the reference these curves lie within 6.3e-12
    rho, L, refs = tight_reference(preset_name, tuple(point.items()))
    for mode, ref in zip("abcd", refs):
        values = g2_tau(rho, L, mode, TIGHT_GRID)
        assert np.abs(values - ref).max() <= 1e-9 * np.abs(ref).max()


@pytest.mark.parametrize("preset_name,point", TIGHT_POINTS)
def test_streamed_readout_matches_the_full_trajectory(preset_name, point, caplog):
    # the curve is projected onto c term by term before the Horner sums;
    # the same call without a readout returns the whole trajectory, whose
    # projection must agree up to rounding, over the same steps
    cfg = TruncationConfig(3, 3)
    rho, L = solve_point(preset_params(preset_name, **point), cfg)
    for mode in "abcd":
        z = hybrid_mode_operator(mode, cfg)
        X = z @ rho.matrix @ z.conj().T
        c = _real_form(z.conj().T @ z).reshape(1, -1)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="polariton.lindblad"):
            curve = _propagate(X, L, TIGHT_GRID, c)
            trajectory = _propagate(X, L, TIGHT_GRID)
        steps = re.findall(r"(\d+) matrix-vector products, (\d+) accepted and (\d+) rejected",
                           caplog.text)
        assert len(steps) == 2 and steps[0] == steps[1]
        ref = c @ trajectory
        assert curve.shape == ref.shape == (1, TIGHT_GRID.size)
        assert np.abs(curve - ref).max() <= 1e-13 * np.abs(ref).max()


def test_propagate_rejects_non_finite_generator():
    L = make_L(SystemParams(kappa_a=1.0))
    L.matrix.data[0] = np.nan
    with pytest.raises(IntegrationError, match="no step size"):
        _propagate(density_from_label(0, 0, "g").matrix, L, [0.0, 1.0])


def test_g2_tau_rejects_non_finite_start_at_once(caplog):
    rho, L = solve_point(preset_params("A3", g=10.5), CFG)
    mat = rho.matrix.copy()
    mat[0, 0] = np.nan
    with caplog.at_level(logging.DEBUG, logger="polariton.lindblad"):
        with pytest.raises(IntegrationError, match="non-finite"):
            g2_tau(DensityMatrix(mat, rho.cfg), L, "a", np.linspace(0.0, 1.0, 11))
    assert "propagated" not in caplog.text


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
    L.matrix  # propagation needs the matrix; it is assembled outside the traced window
    tracemalloc.start()
    try:
        g2_tau(rho, L, "c", grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cfg.dim ** 2 * grid.size * 8 / 10
