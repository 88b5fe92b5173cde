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
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import splu

from polariton import (OVERRIDE_BUNDLES, DensityMatrix, IntegrationError,
                       NonUniqueSteadyStateError, ParameterError,
                       SteadyStateError, SystemParams, TruncationConfig,
                       build_liouvillian, bundle_params, g2_tau, g_k_zero,
                       hamiltonian_qd_driven, hamiltonian_smr_driven,
                       hybrid_mode_operator, preset_params, solve_point, steady_state)
from polariton.lindblad import (MAX_EIGENBASIS_COND, ZERO_MODE_RTOL, Liouvillian,
                                _bessel_series, _count_zero_modes, _lu_steady_state,
                                _propagate, _real_form, _sum_jump_orders)
from polariton.hilbert import lowering
from polariton.scenarios import build_hamiltonian, g2tau_point
from helpers import (FockLabel, basis_state, evolve, expect, fresh_env,
                     hermiticity_defect, kron_liouvillian, random_composite_density,
                     random_params, trace, validate)

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
    build = Liouvillian.real_generator.func

    def counted(L):
        built.append(L)
        return build(L)
    counted_property = functools.cached_property(counted)
    counted_property.__set_name__(Liouvillian, "real_generator")
    monkeypatch.setattr(Liouvillian, "real_generator", counted_property)
    for mode in "abcd":
        g2_tau(rho, L, mode, np.linspace(0.0, 1.0, 11))
    assert built == [L]


def test_g2tau_point_diagonalises_h_eff_once(monkeypatch):
    # the steady state's eigendecomposition also gives the propagation enclosure
    calls = []

    def counting(name):
        original = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return counted
    for name in ("eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    g2tau_point(preset_params("A3", g=10.5), TruncationConfig(3, 3), np.linspace(0.0, 1.0, 11),
                "abcd")
    assert calls == ["eig"]


@pytest.mark.parametrize("cutoff", [3, 5])
@pytest.mark.parametrize("bundle", sorted(OVERRIDE_BUNDLES))
def test_enclosure_centre_is_half_the_largest_decay_rate(bundle, cutoff):
    # Gamma_max is read off the diagonal of H_eff; a Hamiltonian with an
    # imaginary diagonal would move it away from the jumps' own decay rates
    p = bundle_params(bundle)
    cfg = TruncationConfig(cutoff, cutoff)
    L = build_liouvillian(build_hamiltonian(p, cfg), p, cfg)
    loss = sum(rate * np.diag(J.conj().T @ J).real
               for rate, J in zip((p.kappa_a, p.kappa_b, p.gamma), lowering(cfg)))
    expected = -0.5 * loss.max()
    assert abs(L.real_generator[1] - expected) <= 1e-15 * abs(expected)


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
    _, sweeps, _, reason, *_ = _sum_jump_orders(L)
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


def test_debug_line_counts_starts(caplog):
    # every channel damped: one start; an undamped phonon, here coupled to
    # the photon so that the steady state is still unique: two
    undamped_phonon = DEGENERATE["phonon"][0].with_(f=3.0)
    for L, starts in ((bundle_liouvillian("oracle-comparison"), "1 start"),
                      (make_L(undamped_phonon, TruncationConfig(3, 3)), "2 starts")):
        assert _sum_jump_orders(L)[5] == int(starts[0])
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="polariton.lindblad"):
            steady_state(L)
        assert re.search(rf"via jump-free: .*, relative residual \S+, {starts}$", caplog.text,
                         re.MULTILINE), caplog.text


@pytest.mark.parametrize("rates, unique", [((1.0, 0.5, 1.0), True), ((0.0, 0.5, 1.0), False),
                                           ((1.0, 0.0, 1.0), False), ((1.0, 0.5, 0.0), False)])
def test_one_start_only_where_every_channel_is_damped(rates, unique):
    p = SystemParams(g=1.0, f=1.0, eta_a=0.5, kappa_a=rates[0], kappa_b=rates[1], gamma=rates[2])
    L = make_L(p)
    assert L.unique_steady_state is unique
    # built directly, the same channels are not known to be a, b and sigma_-
    direct = Liouvillian(hamiltonian_smr_driven(p, CFG), [(rate, J) for rate, J, _ in L._jumps],
                         CFG)
    assert not direct.unique_steady_state


@pytest.mark.parametrize("bundle", sorted(OVERRIDE_BUNDLES))
def test_damped_bundles_have_one_zero_mode(bundle):
    L = bundle_liouvillian(bundle)
    assert L.unique_steady_state
    assert _count_zero_modes(L) == 1


def random_damped_params(rng: np.random.Generator) -> tuple[SystemParams, str]:
    """Every rate log-uniform in [1e-3, 10]; each detuning, g and f zero with
    probability 0.3; the photon or the phonon driven."""
    kappa_a, kappa_b, gamma = np.exp(rng.uniform(math.log(1e-3), math.log(10.0), 3))
    values = {name: 0.0 if rng.random() < 0.3 else rng.uniform(lo, hi)
              for name, lo, hi in (("delta_a", -8, 8), ("delta_b", -8, 8), ("delta_q", -8, 8),
                                   ("g", 0, 6), ("f", 0, 8))}
    driven = "a" if rng.random() < 0.5 else "b"
    values[f"eta_{driven}"] = rng.uniform(0.05, 0.8)
    return SystemParams(kappa_a=kappa_a, kappa_b=kappa_b, gamma=gamma, **values), driven


def test_damped_channels_leave_one_zero_mode():
    # over 1200 such draws the second-smallest |eigenvalue| of L was at least
    # 1.6e-6 ||L||; the bound below keeps a factor 16 from that and a factor
    # 10 from the zero-mode tolerance
    rng = np.random.default_rng(20)
    for _ in range(20):
        p, driven = random_damped_params(rng)
        L = make_L(p, driven=driven)
        assert L.unique_steady_state
        mags = np.sort(np.abs(np.linalg.eigvals(L.matrix.toarray()))) / L.norm
        assert mags[0] < ZERO_MODE_RTOL, p
        assert mags[1] >= 1e-7, p


def exceptional_point_L(eta_a: float) -> Liouvillian:
    """At g = (kappa_a - gamma)/4 the undriven photon-qubit pair of H_eff is
    at an exceptional point, where its eigenvectors coalesce; a photon drive
    eta_a moves H_eff off it, and cond(V) falls as 1/eta_a."""
    p = SystemParams(delta_b=2.0, g=1.25, eta_a=eta_a, kappa_a=6.0, kappa_b=1.0, gamma=1.0)
    return make_L(p, TruncationConfig(3, 3))


def eigenbasis_conditions(L: Liouvillian) -> tuple[float, float]:
    """||V||_F ||V^-1||_F and cond_2(V) of the H_eff eigenvector matrix."""
    _, V = np.linalg.eig(L.h_eff)
    return np.linalg.norm(V) * np.linalg.norm(np.linalg.inv(V)), np.linalg.cond(V)


def test_ill_conditioned_eigenbasis_takes_the_lu(caplog):
    L = exceptional_point_L(3e-4)
    assert eigenbasis_conditions(L)[1] > MAX_EIGENBASIS_COND  # 1.8e4
    assert _sum_jump_orders(L)[3] == "ill-conditioned H_eff eigenbasis"
    with caplog.at_level(logging.DEBUG, logger="polariton.lindblad"):
        rho = steady_state(L)
    assert re.search(r"via LU \(ill-conditioned H_eff eigenbasis\): 0 sweeps, .*, 0 starts$",
                     caplog.text, re.MULTILINE), caplog.text
    validate(rho)


def test_frobenius_bound_above_the_limit_defers_to_the_svd(caplog):
    # the bound (4.4e4) exceeds the limit, cond_2 (5.4e3) does not
    L = exceptional_point_L(1e-3)
    bound, cond = eigenbasis_conditions(L)
    assert cond <= MAX_EIGENBASIS_COND < bound
    with caplog.at_level(logging.DEBUG, logger="polariton.lindblad"):
        steady_state(L)
    assert "via jump-free" in caplog.text


def test_undamped_pair_is_found_before_the_eigenbasis_condition():
    # closer to the exceptional point the driven vacuum's damping, of order
    # eta_a^2, falls below the undamped-pair tolerance first
    L = exceptional_point_L(5e-5)
    assert eigenbasis_conditions(L)[1] > MAX_EIGENBASIS_COND
    assert _sum_jump_orders(L)[3] == "undamped pair of H_eff eigenstates"


def test_well_conditioned_eigenbasis_runs_no_svd(monkeypatch):
    L = bundle_liouvillian("oracle-comparison")

    def no_svd(*args, **kwargs):
        raise AssertionError("cond_2 computed")
    monkeypatch.setattr(np.linalg, "cond", no_svd)
    assert _sum_jump_orders(L)[3] == ""


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
    assert f"propagated 9 samples on the real form: G nnz {L.real_generator[0].nnz}," in caplog.text
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
    W, centre, focal = L.real_generator
    rng = np.random.default_rng(5)
    A = rng.normal(size=(cfg.dim, cfg.dim)) + 1j * rng.normal(size=(cfg.dim, cfg.dim))
    X = A + A.conj().T
    expected = _real_form(L.apply(X)).reshape(-1)
    R = _real_form(X).reshape(-1)
    got = focal / 2 * (W @ R) + centre * R  # G = c + (f/2) W
    assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


def test_evolve_rejects_non_hermitian_start():
    L = make_L(SystemParams(kappa_a=1.0))
    vec_g = basis_state(FockLabel(0, 0, "g"), CFG)
    vec_e = basis_state(FockLabel(0, 0, "e"), CFG)
    coherence = DensityMatrix(np.outer(vec_g, vec_e.conj()), CFG)
    with pytest.raises(IntegrationError):
        evolve(coherence, L, [0.0, 1.0])


TIGHT_POINTS = [("A3", {"g": 10.5}), ("A1", {"f": 5.5, "g": 1.2})]
# Points where the enclosure is tested hardest: the first two steady states
# take the LU path, and at the first L's real extent reaches -40.3 where
# that of the coherence frequencies D_ij of H_eff reaches only -30.3; the
# third has an undamped phonon; the fourth a strong phonon drive.
STRESS_POINTS = [("A2", {"g": 4.5, "eta_b": 10.0}), ("A1", {"g": 7.5, "eta_a": 5.0}),
                 ("A2", {"g": 4.5, "kappa_b": 0.0}), ("A2", {"g": 4.5, "eta_b": 3.0})]
TIGHT_GRID = np.linspace(0.0, 6.0, 1201)


@functools.lru_cache(maxsize=len(TIGHT_POINTS) + len(STRESS_POINTS))
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
    for values, ref in zip(g2_tau(rho, L, "abcd", TIGHT_GRID), refs):
        assert np.abs(values - ref).max() <= 1e-6 * np.abs(ref).max()


@pytest.mark.parametrize("preset_name,point", TIGHT_POINTS + STRESS_POINTS)
def test_g2_tau_matches_tight_chebyshev_bound(preset_name, point):
    # each Chebyshev step stops at terms below 1e-12 of the state; against a
    # dense-exponential reference these curves lie within 1.3e-12 of their
    # largest value at all six points
    rho, L, refs = tight_reference(preset_name, tuple(point.items()))
    for values, ref in zip(g2_tau(rho, L, "abcd", TIGHT_GRID), refs):
        assert np.abs(values - ref).max() <= 1e-9 * np.abs(ref).max()


def test_bessel_recurrence_matches_scipy():
    from scipy.special import jv
    x = np.array([0.0, 0.5, 10.0, 160.0, 300.0])
    table = _bessel_series(x, 401)
    assert np.abs(table - jv(np.arange(401), x[:, None])).max() <= 1e-13
    # the sums taken on the way down are the table's products
    terms = np.random.default_rng(7).normal(size=(401, 3))
    sums = _bessel_series(x, 401, terms)
    assert np.abs(sums - table @ terms).max() <= 1e-13 * np.abs(terms).max()


def test_chebyshev_steps_take_fewer_products_than_taylor_steps(caplog):
    # A3 g = 10.5 at cutoff 3, tau <= 6/gamma at 1201 samples: Taylor steps
    # took 1197-1403 products a curve, these take 699 a propagated start; the
    # four curves take three, since d is rebuilt from a, b and c
    rho, L, _ = tight_reference("A3", (("g", 10.5),))
    with caplog.at_level(logging.DEBUG, logger="polariton.lindblad"):
        g2_tau(rho, L, "abcd", TIGHT_GRID)
    assert "3 starts on 4 readouts" in caplog.text
    products = int(re.search(r"(\d+) matrix-vector products", caplog.text)[1])
    assert products / 3 <= 900


def test_guard_halves_steps_when_the_enclosure_misses_eigenvalues(monkeypatch, caplog):
    # an ellipse of half the height leaves L's fastest eigenvalues outside;
    # the guard halves the steps until their terms stay small, and the curves
    # keep their accuracy
    _, _, refs = tight_reference("A3", (("g", 10.5),))
    rho, L = solve_point(preset_params("A3", g=10.5), TruncationConfig(3, 3))
    monkeypatch.setattr("polariton.lindblad.ENCLOSURE_MARGIN", 0.5)
    with caplog.at_level(logging.DEBUG, logger="polariton.lindblad"):
        curves = g2_tau(rho, L, "abcd", TIGHT_GRID)
    rejected = int(re.search(r"(\d+) rejected steps", caplog.text)[1])
    assert rejected > 0
    for values, ref in zip(curves, refs):
        assert np.abs(values - ref).max() <= 1e-9 * np.abs(ref).max()


@pytest.mark.parametrize("preset_name,point", TIGHT_POINTS)
def test_streamed_readout_matches_the_full_trajectory(preset_name, point, caplog):
    # every start is projected onto the real form of every readout n = z'z
    # term by term, before the Bessel sums over each step's samples; the same
    # call without readouts returns the whole trajectories, whose projections
    # must agree up to rounding, over the same steps
    cfg = TruncationConfig(3, 3)
    rho, L = solve_point(preset_params(preset_name, **point), cfg)
    ops = [hybrid_mode_operator(mode, cfg) for mode in "abcd"]
    X = np.array([z @ rho.matrix @ z.conj().T for z in ops])
    n = [z.conj().T @ z for z in ops]
    with caplog.at_level(logging.DEBUG, logger="polariton.lindblad"):
        curves = _propagate(X, L, TIGHT_GRID, n)
        trajectories = _propagate(X, L, TIGHT_GRID)
    steps = re.findall(r"(\d+) matrix-vector products, (\d+) accepted and (\d+) rejected",
                       caplog.text)
    assert len(steps) == 2 and steps[0] == steps[1]
    ref = np.einsum("rk,jks->jrs", np.array([_real_form(m).ravel() for m in n]), trajectories)
    assert curves.shape == ref.shape == (4, 4, TIGHT_GRID.size)
    assert np.abs(curves - ref).max() <= 1e-13 * np.abs(ref).max()


def test_propagate_rejects_non_finite_generator():
    L = make_L(SystemParams(kappa_a=1.0))
    L.matrix.data[0] = np.nan
    with pytest.raises(IntegrationError, match="no step size"):
        _propagate(density_from_label(0, 0, "g").matrix[None], L, [0.0, 1.0])


def test_propagation_certifies_the_trace(monkeypatch, caplog):
    # L preserves the trace, and each start is read on the identity: the
    # trace drifts by about the truncation of a step's sum, 1.2e-12 at the
    # shipped tolerance, 9.5e-11 at 1e-10 and 1.6e-8 at 1e-8, against a bound
    # of 1e-10 a step (3 steps here)
    rho, L, _ = tight_reference("A3", (("g", 10.5),))
    with caplog.at_level(logging.DEBUG, logger="polariton.lindblad"):
        g2_tau(rho, L, "abc", TIGHT_GRID)
    assert 0 < float(re.search(r"trace drift ([-+.e\d]+),", caplog.text)[1]) <= 1e-11
    monkeypatch.setattr("polariton.lindblad.PROPAGATION_RTOL", 1e-8)
    with pytest.raises(IntegrationError, match="lost the trace"):
        g2_tau(rho, L, "abc", TIGHT_GRID)
    with pytest.raises(IntegrationError, match="lost the trace"):
        evolve(rho, L, TIGHT_GRID[::100])


def test_g2_tau_rejects_non_finite_start_at_once(caplog):
    rho, L = solve_point(preset_params("A3", g=10.5), CFG)
    mat = rho.matrix.copy()
    mat[0, 0] = np.nan
    with caplog.at_level(logging.DEBUG, logger="polariton.lindblad"):
        with pytest.raises(IntegrationError, match="non-finite"):
            g2_tau(DensityMatrix(mat, rho.cfg), L, "a", np.linspace(0.0, 1.0, 11))
    assert "propagated" not in caplog.text


def test_g2_tau_leaves_nothing_for_the_cyclic_collector():
    cfg = TruncationConfig(2, 2)
    rho, L = solve_point(preset_params("A3", g=10.5), cfg)
    grid = np.linspace(0.0, 1.0, 11)
    gc.collect()
    gc.disable()
    try:
        g2_tau(rho, L, "a", grid)
        g2_tau(rho, L, "abcd", grid)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def test_g2_tau_memory_does_not_hold_the_trajectory():
    cfg = TruncationConfig(4, 4)
    grid = np.linspace(0.0, 6.0, 1201)
    for modes in ("c", "abcd"):  # each on a fresh Liouvillian, so each builds its generator
        rho, L = solve_point(preset_params("A3", g=10.5), cfg)
        L.matrix  # propagation needs the matrix; it is assembled outside the traced window
        tracemalloc.start()
        try:
            g2_tau(rho, L, modes, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cfg.dim ** 2 * grid.size * 8 / 10
