"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  The sweeps use two worker processes; set
POLARITON_THREADS to change that.
"""

import os

import numpy as np

from polariton import (DensityMatrix, SweepSpec, SystemParams,
                       TruncationConfig, analytic_manifolds,
                       build_liouvillian, bundle_params, classify_dynamics,
                       compare_oracle, dominant_period, g2_tau, g_k_zero,
                       hamiltonian_qd_driven, hamiltonian_smr_driven,
                       hamiltonian_undriven, hybrid_mode_operator,
                       hybrid_moments_from_local, manifold_spectrum,
                       preset_params, run_sweep, solve_point, steady_state,
                       tau_to_us)
from helpers import (FockLabel, basis_state, closed_form_g2_b_dip, evolve, expect,
                     hermiticity_defect, random_composite_density, random_params,
                     range_grid, trace)

THREADS = int(os.environ.get("POLARITON_THREADS", "2"))
CUTOFF5 = TruncationConfig(5, 5)


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"\n[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)


def test_criterion_1_manifold_eigenvalues():
    delta, f, g = 1.0, 5.0, 7.5
    p = SystemParams(delta_a=delta, delta_b=delta, delta_q=delta, f=f, g=g)
    H = hamiltonian_undriven(p, +1, TruncationConfig(3, 3))
    m1 = manifold_spectrum(H, 1, TruncationConfig(3, 3))
    m2 = manifold_spectrum(H, 2, TruncationConfig(3, 3))
    quoted1 = delta + np.array([-9.01388, 0.0, 9.01388])
    quoted2 = 2 * delta + np.array([-16.11725, -5.82965, 0.0, 5.82965, 16.11725])
    e1, e2 = analytic_manifolds(p)
    dev_quoted = max(np.max(np.abs(m1 - quoted1)), np.max(np.abs(m2 - quoted2)))
    dev_closed = max(np.max(np.abs(m1 - np.array(e1))), np.max(np.abs(m2 - np.array(e2))))
    ok = dev_quoted <= 1e-4 and dev_closed <= 1e-9
    _report(1, "manifold eigenvalues",
            ok, f"max dev vs quoted {dev_quoted:.2e} (tol 1e-4), "
                f"vs closed forms {dev_closed:.2e} (tol 1e-9)")
    assert ok


def test_criterion_2_hybrid_blockade_region():
    kappa_max = preset_params("A2").kappa_max  # 7.5 gamma
    spec = SweepSpec(swept="g", grid=range_grid(0.2, 1.2 * kappa_max, 45),
                     base=preset_params("A2"), truncation=CUTOFF5, modes=("a", "b", "c"),
                     orders=(2,))
    result = run_sweep(spec, threads=THREADS)
    cases = [None if stat is None else stat.case for stat in result.statistics()]
    best_run, current = 0, 0
    for c in cases:
        current = current + 1 if c == 7 else 0
        best_run = max(best_run, current)
    g_values = [x for x, c in zip(result.x.tolist(), cases) if c == 7]
    ok = best_run >= 3
    _report(2, "contiguous hybrid-blockade (case 7) region",
            ok, f"longest run {best_run} of {len(cases)} points; case-7 g range "
                f"[{min(g_values, default=float('nan')):.2f}, "
                f"{max(g_values, default=float('nan')):.2f}] gamma")
    assert ok


def test_criterion_3_eight_case_coverage():
    found = set()
    for preset, g in (("A2", 4.5), ("A3", 9.5)):
        # step ~0.89 gamma: every sign-pattern region is at least 1.2 gamma
        # wide in one of the two sweeps, so each case lands on a grid point
        spec = SweepSpec(swept="delta_smr", grid=range_grid(-16.0, 16.0, 37),
                         base=preset_params(preset, g=g), resonant=True,
                         truncation=CUTOFF5, modes=("a", "b", "c"), orders=(2,))
        found |= run_sweep(spec, threads=THREADS).cases()
    ok = found == set(range(1, 9))
    _report(3, "eight-case coverage on joint resonant sweeps",
            ok, f"cases found {sorted(found)}")
    assert ok


def test_criterion_4_oracle_agreement():
    step = 0.05
    spec = SweepSpec(swept="delta_smr", grid=range_grid(-7.5, 7.5, 301),
                     base=preset_params("A2", g=4.5, kappa_a=6.0, kappa_b=6.0), resonant=True,
                     truncation=CUTOFF5, modes=("a", "b", "c"), orders=(2,))
    result = compare_oracle(spec, threads=THREADS)
    tol = step + 1e-9
    problems = []
    detail = []

    def deepest_pair(method):
        minima = result.summary[f"{method}_g2_b"]["local_minima"]
        neg = [loc for loc, _ in minima if loc < 0]
        pos = [loc for loc, _ in minima if loc > 0]
        return (neg[0] if neg else np.nan), (pos[0] if pos else np.nan)

    me_neg, me_pos = deepest_pair("me")
    or_neg, or_pos = deepest_pair("oracle")
    detail.append(f"g2_b minima: ME ({me_neg:.2f}, {me_pos:.2f}), "
                  f"oracle ({or_neg:.2f}, {or_pos:.2f}) [gamma units]")
    if not (abs(me_neg - or_neg) <= tol and abs(me_pos - or_pos) <= tol):
        problems.append("g2_b minima of the two methods disagree")
    # the closed-form weak-drive amplitudes fix the dip location off the grid
    p = bundle_params("oracle-comparison")
    dip_neg = closed_form_g2_b_dip(p, spec.grid[0], 0.0)
    dip_pos = closed_form_g2_b_dip(p, 0.0, spec.grid[-1])
    quoted = 1.2 * p.g
    detail.append(f"closed-form dips x* = ({dip_neg:+.4f}, {dip_pos:+.4f}) "
                  f"= ({dip_neg / p.g:+.4f}, {dip_pos / p.g:+.4f}) g; quoted +/-1.2 g "
                  f"= +/-{quoted:.2f} is {quoted - dip_pos:.4f} "
                  f"({(quoted - dip_pos) / step:.1f} grid steps) beyond x*")
    for loc, dip in ((me_neg, dip_neg), (me_pos, dip_pos), (or_neg, dip_neg), (or_pos, dip_pos)):
        if not abs(loc - dip) <= tol:
            problems.append(
                f"minimum at {loc:.2f} is {abs(loc - dip) / step:.1f} "
                f"grid steps from the closed-form {dip:+.4f}")
    for mode in ("a", "c"):
        for kind in ("global_min_at", "global_max_at"):
            me_loc = result.summary[f"me_g2_{mode}"][kind]
            or_loc = result.summary[f"oracle_g2_{mode}"][kind]
            detail.append(f"g2_{mode} {kind}: ME {me_loc:.2f} vs oracle {or_loc:.2f}")
            if abs(me_loc - or_loc) > tol:
                problems.append(f"g2_{mode} {kind} disagrees by more than one step")
    ok = not problems
    _report(4, "oracle vs master-equation extremum locations",
            ok, "; ".join(detail + problems))
    assert ok, problems


def test_criterion_5_dynamics_cases():
    p3 = preset_params("A3")
    tau_w = 1.0 / p3.kappa_max
    grid = np.linspace(0.0, tau_w, 121)
    outcomes = {}
    for ratio, expected in ((3.0, "I"), (2.1, "II"), (3.8, "III"), (2.2, "IV")):
        p = p3.with_(g=ratio * p3.kappa_a)
        rho, L = solve_point(p, CUTOFF5)
        curve = g2_tau(rho, L, "b", grid)
        label = classify_dynamics(grid, curve, p)
        outcomes[ratio] = (label.case, expected)
    ok = all(case == expected for case, expected in outcomes.values())
    _report(5, "dynamics cases I..IV for the phonon mode",
            ok, ", ".join(f"g/kappa_a={r}: got {c} want {e}"
                          for r, (c, e) in outcomes.items()))
    assert ok


def test_criterion_6_oscillation_period():
    p = bundle_params("weak-coupling-oscillation")
    rho, L = solve_point(p, CUTOFF5)
    grid = np.linspace(0.0, 6.0, 1201)
    curve = g2_tau(rho, L, "c", grid)
    period = dominant_period(grid, curve)
    period_us = tau_to_us(period)
    target_us = tau_to_us(2 * np.pi / p.f)
    rel = abs(period_us - target_us) / target_us
    ok = rel <= 0.05
    # single-excitation lines of the undriven Hamiltonian attribute the period
    H0 = hamiltonian_undriven(p.with_(eta_a=0.0, eta_b=0.0), +1, CUTOFF5)
    lines = manifold_spectrum(H0, 1, CUTOFF5)
    measured = 2 * np.pi / period
    nearest = abs(lines[np.argmin(np.abs(np.abs(lines) - measured))])
    _report(6, "hybrid-mode oscillation period",
            ok, f"dominant period {period_us * 1e3:.2f} ns vs 2*pi/f = "
                f"{target_us * 1e3:.2f} ns (rel dev {rel:.1%}, tol 5%); "
                f"single-excitation lines ({', '.join(f'{w:+.2f}' for w in lines)}) gamma, "
                f"nearest to the measured {measured:.2f} gamma is {nearest:.2f} gamma "
                f"(period {tau_to_us(2 * np.pi / nearest) * 1e3:.1f} ns)")
    assert ok


def test_criterion_7_property_suite():
    failures = []
    rng = np.random.default_rng(2024)

    # trace / Hermiticity / positivity on 100 random evolutions
    cfg2 = TruncationConfig(2, 2)
    for i in range(100):
        p = random_params(rng, driven=rng.choice(["a", "b"]))
        builder = hamiltonian_smr_driven if p.eta_a else hamiltonian_qd_driven
        L = build_liouvillian(builder(p, cfg2), p, cfg2)
        rho0 = random_composite_density(rng, cfg2)
        times = [0.0, 0.7, 1.9, 3.0]
        for t, rho_t in zip(times, evolve(rho0, L, times)):
            if abs(trace(rho_t) - 1.0) > 1e-9 * (1.0 + p.gamma * t):
                failures.append(f"trace drift at draw {i}")
            if rho_t.min_eigenvalue() < -1e-8:
                failures.append(f"negative eigenvalue at draw {i}")
            if hermiticity_defect(rho_t) > 1e-12:
                failures.append(f"hermiticity defect at draw {i}")

    # Fock-state law g2 = 1 - 1/n, exact
    cfg_f = TruncationConfig(5, 2)
    for n in range(1, 5):
        vec = basis_state(FockLabel(n, 0, "g"), cfg_f)
        rho = DensityMatrix(np.outer(vec, vec.conj()), cfg_f)
        if abs(g_k_zero(rho, "a", 2) - (1.0 - 1.0 / n)) > 1e-12:
            failures.append(f"Fock law violated at n={n}")

    # hybrid-moment identities on 100 random density matrices
    cfg3 = TruncationConfig(3, 3)
    c_op = hybrid_mode_operator("c", cfg3)
    c_dag = c_op.conj().T
    n_c = c_dag @ c_op
    n2_c = c_dag @ c_dag @ c_op @ c_op
    for i in range(100):
        rho = random_composite_density(rng, cfg3)
        first, second = hybrid_moments_from_local(rho)
        if abs(first - np.einsum("ij,ji->", rho.matrix, n_c).real) > 1e-12:
            failures.append(f"first-moment identity at draw {i}")
        if abs(second - np.einsum("ij,ji->", rho.matrix, n2_c).real) > 1e-12:
            failures.append(f"second-moment identity at draw {i}")

    # regression-theorem zero-delay consistency on all presets and modes
    for preset, g in (("A1", 7.5), ("A2", 4.5), ("A3", 9.5)):
        p = preset_params(preset, g=g)
        rho, L = solve_point(p, CUTOFF5)
        for mode in ("a", "b", "c", "d"):
            curve = g2_tau(rho, L, mode, [0.0, 0.02, 0.05])
            ref = g_k_zero(rho, mode, 2)
            if abs(curve[0] - ref) > 1e-8 * abs(ref):
                failures.append(f"regression consistency {preset}/{mode}")

    # H+/H- number-correlation equivalence
    cfg4 = TruncationConfig(4, 4)
    p_drive = preset_params("A2", g=4.5)
    H_plus = hamiltonian_qd_driven(p_drive, cfg4)
    rho_p = steady_state(build_liouvillian(H_plus, p_drive, cfg4))
    hop = hybrid_mode_operator("a", cfg4) @ hybrid_mode_operator("b", cfg4).conj().T
    H_minus = (H_plus - p_drive.f * (hop + hop.conj().T)
               + 1j * p_drive.f * (hop.conj().T - hop))
    rho_m = steady_state(build_liouvillian(H_minus, p_drive, cfg4))
    a_op = hybrid_mode_operator("a", cfg4)
    b_op = hybrid_mode_operator("b", cfg4)
    c_plus = (a_op + b_op) * (1 / np.sqrt(2))
    c_minus = ((-1j) * a_op + b_op) * (1 / np.sqrt(2))
    for mode_p, mode_m, name in ((a_op, a_op, "a"), (b_op, b_op, "b"),
                                 (c_plus, c_minus, "c")):
        v_p = g_k_zero(rho_p, mode_p, 2)
        v_m = g_k_zero(rho_m, mode_m, 2)
        if abs(v_p - v_m) > 1e-8 * abs(v_p):
            failures.append(f"H+/H- equivalence mode {name}: {v_p} vs {v_m}")

    # truncation convergence of g2 from cutoff 5 to 7 on the presets
    cfg7 = TruncationConfig(7, 7)
    worst = 0.0
    for preset, g in (("A1", 7.5), ("A2", 4.5), ("A3", 9.5)):
        p = preset_params(preset, g=g)
        rho5, _ = solve_point(p, CUTOFF5)
        rho7, _ = solve_point(p, cfg7)
        for mode in ("a", "b", "c"):
            v5 = g_k_zero(rho5, mode, 2)
            v7 = g_k_zero(rho7, mode, 2)
            rel = abs(v5 - v7) / abs(v7)
            worst = max(worst, rel)
            if rel >= 1e-3:
                failures.append(f"truncation convergence {preset}/{mode}: {rel:.2e}")

    ok = not failures
    _report(7, "property suite",
            ok, f"worst truncation change {worst:.2e} (tol 1e-3); "
                + ("all invariants hold" if ok else "; ".join(failures[:5])))
    assert ok, failures


def test_criterion_8_linear_cavity_oracle():
    delta, kappa, eta = 0.8, 1.3, 0.25
    p = SystemParams(delta_a=delta, kappa_a=kappa, eta_a=eta, kappa_b=1.0, gamma=1.0)
    cfg = TruncationConfig(7, 2)
    rho = steady_state(build_liouvillian(hamiltonian_smr_driven(p, cfg), p, cfg))
    a = hybrid_mode_operator("a", cfg)
    n_expected = abs(-eta / (delta - 0.5j * kappa)) ** 2
    n_mean = expect(rho, a.conj().T @ a).real
    g2 = g_k_zero(rho, "a", 2)
    dev_n = abs(n_mean - n_expected) / n_expected
    dev_g2 = abs(g2 - 1.0)
    ok = dev_n <= 1e-8 and dev_g2 <= 1e-6
    _report(8, "linear-cavity closed-form oracle",
            ok, f"occupation rel dev {dev_n:.2e} (tol 1e-8), g2 dev {dev_g2:.2e} (tol 1e-6)")
    assert ok
