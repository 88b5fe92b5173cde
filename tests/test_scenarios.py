import json
import os
import subprocess
import sys

import numpy as np
import pytest

from polariton import (OVERRIDE_BUNDLES, PRESETS, ParameterError, SteadyStateError,
                       SweepSpec, SystemParams, TruncationConfig, bundle_params,
                       compare_oracle, g_k_zero, hamiltonian_qd_driven,
                       hamiltonian_smr_driven, oracle_g2, preset_params, run_sweep,
                       solve_point, steady_amplitudes)
from polariton import scenarios
from polariton.scenarios import (_extrema, _map_points, _openblas_thread_controls,
                                 _openblas_thread_counts, build_hamiltonian, run_g2tau)
from helpers import fresh_env, range_grid

CFG3 = TruncationConfig(3, 3)


def test_preset_values():
    a1 = PRESETS["A1"].params
    assert (a1.delta_a, a1.delta_b, a1.delta_q) == (-3.0, 3.0, -6.0)
    assert (a1.f, a1.eta_a, a1.eta_b) == (5.0, 0.7, 0.0)
    assert (a1.kappa_a, a1.kappa_b, a1.gamma) == (1.5, 6.0, 1.0)
    a2 = PRESETS["A2"].params
    assert (a2.delta_a, a2.delta_b, a2.delta_q) == (5.0, -5.0, 3.0)
    assert (a2.f, a2.eta_b, a2.kappa_a, a2.kappa_b) == (7.0, 0.5, 7.5, 6.0)
    a3 = PRESETS["A3"].params
    assert (a3.delta_a, a3.delta_b, a3.delta_q) == (4.0, -4.0, 7.0)
    assert (a3.f, a3.eta_b, a3.kappa_a, a3.kappa_b) == (6.4, 0.22, 3.5, 0.002)
    # each preset drives exactly one mode
    for preset in PRESETS.values():
        assert (preset.params.eta_a == 0.0) or (preset.params.eta_b == 0.0)


def test_bundles_resolve():
    p = bundle_params("oracle-comparison")
    assert (p.g, p.kappa_a, p.kappa_b) == (4.5, 6.0, 6.0)
    for name in OVERRIDE_BUNDLES:
        bundle_params(name)
    with pytest.raises(ParameterError):
        bundle_params("nonexistent")


def test_hamiltonian_follows_the_nonzero_drive():
    photon = preset_params("A2", eta_a=0.5, eta_b=0.0)
    assert np.array_equal(build_hamiltonian(photon, CFG3), hamiltonian_smr_driven(photon, CFG3))
    for p in (preset_params("A2"), preset_params("A1", eta_a=0.0)):
        assert np.array_equal(build_hamiltonian(p, CFG3), hamiltonian_qd_driven(p, CFG3))
    with pytest.raises(ParameterError, match="eta_a"):
        build_hamiltonian(preset_params("A1", eta_b=0.3), CFG3)


def test_sweepspec_validation():
    """Grid counts and the preset-or-params choice are config checks (test_cli)."""
    grid = range_grid(0, 1, 5)
    with pytest.raises(ParameterError):
        SweepSpec(swept="eta_a", grid=grid, base=preset_params("A2"))  # QD-driven preset
    with pytest.raises(ParameterError, match="drive one mode only"):
        SweepSpec(swept="g", grid=grid, base=preset_params("A2", eta_a=0.5))
    with pytest.raises(ParameterError):
        SweepSpec(swept="nothing", grid=grid, base=preset_params("A2"))
    with pytest.raises(ParameterError):
        SweepSpec(swept="g", grid=(), base=preset_params("A2"))
    with pytest.raises(ParameterError, match="delta_smr sweep only"):
        SweepSpec(swept="g", grid=(4.5, 5.0), base=preset_params("A2"), resonant=True)


@pytest.mark.parametrize("changes", [{"orders": (2, 5)}, {"orders": (1,)}, {"orders": ()},
                                     {"modes": ("a", "e")}, {"modes": ()}],
                         ids=["order-5", "order-1", "no-orders", "mode-e", "no-modes"])
def test_sweepspec_rejects_modes_and_orders_outside_the_layout(changes):
    """A point's g^(k) array has cells for orders 2-4 and modes a-d only."""
    with pytest.raises(ParameterError, match="non-empty subsets"):
        SweepSpec(swept="g", grid=(4.5,), base=preset_params("A2"), **changes)


def test_single_point_sweep_matches_direct_calls():
    spec = SweepSpec(swept="g", grid=(4.5,), base=preset_params("A2"), truncation=CFG3,
                     modes=("a", "b", "c"), orders=(2,))
    result = run_sweep(spec)
    assert result.x.tolist() == [4.5] and result.g.shape == (1, 3, 4)
    rho, _ = solve_point(preset_params("A2", g=4.5), CFG3)
    for i, mode in enumerate(("a", "b", "c")):
        assert result.g[0, 0, i] == g_k_zero(rho, mode, 2)
    assert np.isnan(result.g[0, 0, 3]) and np.isnan(result.g[0, 1:]).all()
    assert result.errors == [""]
    assert result.statistics()[0].case == 7


def test_point_values_land_in_the_fixed_layout():
    spec = SweepSpec(swept="g", grid=(4.5,), base=preset_params("A2"), truncation=CFG3,
                     modes=("d", "b"), orders=(3,))
    g = run_sweep(spec, threads=1).g[0]
    rho, _ = solve_point(preset_params("A2", g=4.5), CFG3)
    assert (g[1, 1], g[1, 3]) == (g_k_zero(rho, "b", 3), g_k_zero(rho, "d", 3))
    g[1, [1, 3]] = np.nan
    assert np.isnan(g).all()


def assert_same_points(result, reference):
    """Same grid values and errors, and g^(k) bitwise equal, NaN included."""
    assert np.array_equal(result.x, reference.x)
    assert np.array_equal(result.g, reference.g, equal_nan=True)
    assert result.errors == reference.errors


def test_determinism_and_row_independence():
    values = (3.0, 5.0, 4.0, 4.5)
    spec = SweepSpec(swept="g", grid=values, base=preset_params("A2"), truncation=CFG3,
                     modes=("a", "b"), orders=(2,))
    r1 = run_sweep(spec)
    r2 = run_sweep(spec)
    assert_same_points(r1, r2)
    sorted_spec = SweepSpec(swept="g", grid=tuple(sorted(values)), base=preset_params("A2"),
                            truncation=CFG3, modes=("a", "b"), orders=(2,))
    r3 = run_sweep(sorted_spec)
    assert_same_points(r1, r3)  # shuffled grid, same sorted points


def test_threaded_sweep_matches_serial():
    spec = SweepSpec(swept="g", grid=(4.0, 4.5, 5.0), base=preset_params("A2"),
                     truncation=CFG3, modes=("a", "c"), orders=(2,))
    serial = run_sweep(spec, threads=1)
    threaded = run_sweep(spec, threads=2)
    assert_same_points(serial, threaded)


def test_sweep_records_point_errors_without_aborting():
    # zero drive: the steady state is vacuum, so every correlation cell is
    # below the occupancy floor
    params = SystemParams(kappa_a=1.0, kappa_b=1.0, gamma=1.0)
    spec = SweepSpec(swept="g", grid=(0.5, 1.0), base=params,
                     truncation=TruncationConfig(2, 2), modes=("a",), orders=(2,))
    result = run_sweep(spec)
    assert len(result.x) == 2
    assert all(result.errors)
    assert result.failed.tolist() == [True, True]


def test_resonant_and_offset_detuning_sweeps():
    spec = SweepSpec(swept="delta_smr", grid=(1.0,), base=preset_params("A2"), resonant=True)
    p = spec.point_params(1.0)
    assert (p.delta_a, p.delta_b, p.delta_q) == (1.0, 1.0, 1.0)
    spec = SweepSpec(swept="delta_smr", grid=(1.0,), base=preset_params("A2"), resonant=False)
    p = spec.point_params(1.0)
    assert (p.delta_a, p.delta_b, p.delta_q) == (1.0, -9.0, -1.0)


def test_compare_oracle_linear_limit():
    # g = 0 sweep: both methods give Poissonian phonons
    spec = SweepSpec(swept="delta_smr", grid=(1.5, 2.5),
                     base=preset_params("A2", g=0.0, kappa_a=6.0, kappa_b=6.0),
                     resonant=True, truncation=TruncationConfig(5, 5))
    result = compare_oracle(spec)
    assert result.sweep.errors == result.oracle_errors == ["", ""]
    for me, oracle in zip(result.sweep.g[:, 0, :3], result.oracle):
        assert me[1] == pytest.approx(1.0, abs=1e-6)
        assert oracle[1] == pytest.approx(1.0, abs=1e-6)


def test_compare_oracle_reports_precondition_violations_per_point():
    spec = SweepSpec(swept="delta_smr", grid=(1.0, 2.0),
                     base=preset_params("A2", g=4.5), resonant=True, truncation=CFG3)
    result = compare_oracle(spec)  # A2 has unequal kappas: oracle must refuse
    assert np.isnan(result.oracle).all()
    for oracle_error, me_error, me in zip(result.oracle_errors, result.sweep.errors,
                                          result.sweep.g[:, 0, :3]):
        assert oracle_error and "kappa" in oracle_error
        assert not me_error
        assert np.isfinite(me[1])


def test_compare_oracle_extrema_summary():
    spec = SweepSpec(swept="delta_smr", grid=range_grid(4.6, 5.6, 21),
                     base=preset_params("A2", g=4.5, kappa_a=6.0, kappa_b=6.0, eta_b=0.1),
                     resonant=True, truncation=CFG3)
    result = compare_oracle(spec, threads=2)
    assert result.summary["grid_step"] == pytest.approx(0.05)
    me_min = result.summary["me_g2_b"]["local_minima"]
    or_min = result.summary["oracle_g2_b"]["local_minima"]
    assert me_min and or_min
    assert abs(me_min[0][0] - or_min[0][0]) <= 0.05 + 1e-12


def test_empty_grid_rejected():
    with pytest.raises(ParameterError):
        SweepSpec(swept="delta_smr", grid=(), base=preset_params("A2"), resonant=True)


def test_run_sweep_rejects_omega_m():
    with pytest.raises(ParameterError):
        spec = SweepSpec(swept="omega_m", grid=(1560.0, 1561.0), base=preset_params("A1"))
        run_sweep(spec)


def _blas_and_os_threads(_) -> tuple[list[int], int]:
    """A task's OpenBLAS thread counts and its process's OS threads (0 where
    /proc/self/task does not exist)."""
    try:
        os_threads = len(os.listdir("/proc/self/task"))
    except OSError:
        os_threads = 0
    return _openblas_thread_counts(), os_threads


def test_pool_workers_run_one_blas_thread():
    """Workers start under the runner's cap, so no worker restarts OpenBLAS's
    thread server: each task sees every OpenBLAS at one thread, and one OS
    thread in its process."""
    seen = _map_points(_blas_and_os_threads, [(i,) for i in range(4)], threads=2)
    if not any(counts or os_threads for counts, os_threads in seen):
        pytest.skip("neither OpenBLAS thread counts nor /proc/self/task can be read")
    for counts, os_threads in seen:
        assert all(n == 1 for n in counts), seen
        assert os_threads in (0, 1), seen


def test_g2tau_point_runs_one_blas_thread(monkeypatch):
    import scipy.integrate  # noqa: F401  map scipy's OpenBLAS first, as the LU fallback would
    controls = _openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS library is mapped into this process")
    original = _openblas_thread_counts()
    seen = []
    real_g2_tau = scenarios.g2_tau

    def spy(*args, **kwargs):
        seen.append(_openblas_thread_counts())
        return real_g2_tau(*args, **kwargs)

    monkeypatch.setattr(scenarios, "g2_tau", spy)
    try:
        for _, set_threads in controls:
            set_threads(2)
        run_g2tau([preset_params("A2", g=4.5)], TruncationConfig(2, 2), [0.0, 0.5],
                  ("a", "b"), threads=1)
        assert seen == [[1] * len(controls)] * 2
        assert _openblas_thread_counts() == [2] * len(controls)
    finally:
        for (_, set_threads), n in zip(controls, original):
            set_threads(n)


@pytest.mark.parametrize("direction", [-1.0, 1.0])
def test_extrema_of_mirror_twins_do_not_depend_on_last_bits(direction):
    # mirror-symmetric curve: twin minima at +/-1.1, twin maxima at +/-1.9
    xs = np.arange(-30, 31) / 10
    ys = np.cos(np.pi * xs) * np.exp(-(np.abs(xs) - 1.5) ** 2)
    ys = 0.5 * (ys + ys[::-1])
    exact = _extrema(xs, ys)
    assert (exact["global_min_at"], exact["global_max_at"]) == (-1.1, -1.9)
    assert [x for x, _ in exact["local_minima"][:2]] == [-1.1, 1.1]
    assert [x for x, _ in exact["local_maxima"][:2]] == [-1.9, 1.9]
    for i in np.flatnonzero(np.isin(np.abs(xs), (1.1, 1.9))):  # each twin, one ulp off
        nudged = ys.copy()
        nudged[i] = np.nextafter(ys[i], ys[i] + direction)
        got = _extrema(xs, nudged)
        assert got["global_min_at"] == exact["global_min_at"]
        assert got["global_max_at"] == exact["global_max_at"]
        for key in ("local_minima", "local_maxima"):
            assert [x for x, _ in got[key]] == [x for x, _ in exact[key]]


BLAS_PROBE = """
import json, os
from polariton import TruncationConfig, preset_params, scenarios
from polariton.scenarios import _openblas_thread_controls, _openblas_thread_counts, run_g2tau

real_g2tau_point = scenarios.g2tau_point


def counts_after_point(*args):
    real_g2tau_point(*args)
    return _openblas_thread_counts()


scenarios.g2tau_point = counts_after_point  # module level: spawned workers patch it too
if __name__ == "__main__":
    controls, env = _openblas_thread_controls(), os.environ.get("OPENBLAS_NUM_THREADS")
    before = [get() for get, _ in controls]
    args = TruncationConfig(2, 2), [0.0, 0.5], ("a",)
    pooled = run_g2tau([preset_params("A2", g=4.5)] * 2, *args, threads=2)
    serial = run_g2tau([preset_params("A2", g=4.5)], *args, threads=1)
    print(json.dumps({"before": before, "pooled": pooled, "serial": serial, "env": env,
                      "after": [get() for get, _ in controls],
                      "env_after": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


def test_fresh_interpreter_runs_g2tau_points_on_one_blas_thread(tmp_path):
    """In a fresh interpreter every OpenBLAS mapped inside a point, pooled
    or serial, runs on one thread, and the runner restores the counts and
    the variable afterwards.  A g2tau point maps no scipy OpenBLAS unless a
    steady state falls back to the LU, whose scipy.sparse.linalg loads it
    under the cap, so it starts on one thread too."""
    (tmp_path / "probe.py").write_text(BLAS_PROBE)
    done = subprocess.run([sys.executable, str(tmp_path / "probe.py")],
                          env=fresh_env(OPENBLAS_NUM_THREADS="2"), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    if not seen["before"]:
        pytest.skip("no OpenBLAS library is mapped into a fresh interpreter")
    for counts in seen["pooled"] + seen["serial"]:
        assert counts and all(n == 1 for n in counts), seen
    assert seen["after"] == seen["before"]
    assert seen["env_after"] == seen["env"] == "2"


A2_RESONANT = dict(swept="delta_smr", base=preset_params("A2", g=4.5), resonant=True,
                   truncation=CFG3, modes=("a", "b", "c", "d"), orders=(2, 3))


def direct_points(spec: SweepSpec) -> scenarios.SweepResult:
    """Every grid point from its own solve, in ascending order."""
    xs = sorted(spec.grid)
    values = [scenarios._values(scenarios._solve(spec.point_params(x), spec.truncation),
                                spec.modes, spec.orders) for x in xs]
    return scenarios.SweepResult(spec, np.array(xs), np.array([g for g, _ in values]),
                                 [error for _, error in values], 1)


def assert_points_close(result, reference):
    """Same grid values, NaN cells, errors, labels and signs of log g^(k);
    g^(k) within 1e-10 relative."""
    assert np.array_equal(result.x, reference.x)
    assert np.array_equal(np.isnan(result.g), np.isnan(reference.g))
    np.testing.assert_allclose(result.g, reference.g, rtol=1e-10, atol=0)
    assert result.errors == reference.errors
    assert result.statistics() == reference.statistics()
    assert np.array_equal(np.sign(result.g - 1.0), np.sign(reference.g - 1.0), equal_nan=True)


def mirrors(spec: SweepSpec) -> list[tuple]:
    """(x, mirror x' or None) of each pool task."""
    return [(x, mirror and mirror[0]) for x, *_, mirror in scenarios._work_items(spec)]


def test_mirror_pairs_take_values_a_few_ulps_off(caplog):
    spec = SweepSpec(grid=(3.0, -0.7, 2.0, 0.7000000000000001, -2.0000000000000004),
                     **A2_RESONANT)
    assert mirrors(spec) == [(0.7000000000000001, -0.7), (2.0, -2.0000000000000004), (3.0, None)]
    with caplog.at_level("DEBUG", logger="polariton.scenarios"):
        result = run_sweep(spec)
    assert ("run_sweep: 5 rows, 3 steady-state solves, 2 rows from a mirrored state, "
            "0 certificate fallbacks") in caplog.text
    assert_points_close(result, direct_points(spec))


def test_mirror_partners_match_a_loop_over_every_pair():
    """Repeated values and gaps around the tolerance: each x > 0, smallest
    first, takes the nearest unused value <= 0 within MIRROR_RTOL."""
    def reference(ranked):
        used, partners = set(), {}
        for i in [i for i, x in enumerate(ranked) if x > 0]:
            tol = scenarios.MIRROR_RTOL * max(1.0, abs(ranked[i]))
            near = [j for j, y in enumerate(ranked)
                    if y <= 0 and j not in used and abs(y + ranked[i]) <= tol]
            if near:
                j = min(near, key=lambda j: (abs(ranked[j] + ranked[i]), j))
                used.add(j)
                partners[i] = j
        return partners

    rng = np.random.default_rng(7)
    for _ in range(500):
        base = rng.choice([-1e5, -2.0, -0.5, -1e-13, 0.0, 1e-13, 0.5, 2.0, 3.0, 1e5],
                          size=rng.integers(1, 12))
        jitter = rng.choice([0.0, 1e-15, 5e-13, 1e-12, 2e-12], size=base.size)
        ranked = np.sort(base + rng.choice([-1, 1], size=base.size) * jitter
                         * np.maximum(1.0, np.abs(base)))
        assert scenarios._mirror_partners(ranked) == reference(ranked.tolist()), ranked


def test_odd_mirrored_grid_solves_zero_alone():
    spec = SweepSpec(grid=range_grid(-1.0, 1.0, 5), **A2_RESONANT)
    assert mirrors(spec) == [(0.0, None), (0.5, -0.5), (1.0, -1.0)]
    result, reference = run_sweep(spec), direct_points(spec)
    assert np.array_equal(result.g[2], reference.g[2], equal_nan=True)
    assert result.errors[2] == reference.errors[2]
    assert_points_close(result, reference)


@pytest.mark.parametrize("changes", [
    {"grid": (-1.3, 0.4, 2.2)},  # resonant, but no value has a mirror
    {"grid": (-1.0, 1.0), "resonant": False},  # keeps A2's detuning offsets
    {"grid": (-1.0, 1.0), "swept": "g", "resonant": False},
], ids=["asymmetric", "offset-detunings", "g"])
def test_sweeps_without_mirrors_solve_every_point(changes):
    spec = SweepSpec(**{**A2_RESONANT, **changes})
    assert all(mirror is None for _, mirror in mirrors(spec))
    assert_same_points(run_sweep(spec), direct_points(spec))


def test_failed_solve_leaves_the_mirror_point_its_own_solve(monkeypatch, caplog):
    spec = SweepSpec(grid=(-1.0, 1.0), **A2_RESONANT)
    reference = direct_points(spec)
    real_solve_point = scenarios.solve_point

    def fail_above_zero(p, cfg):
        if p.delta_a > 0:
            raise SteadyStateError("no steady state here")
        return real_solve_point(p, cfg)

    monkeypatch.setattr(scenarios, "solve_point", fail_above_zero)
    with caplog.at_level("DEBUG", logger="polariton.scenarios"):
        result = run_sweep(spec, threads=1)
    assert "2 rows, 2 steady-state solves, 0 rows from a mirrored state" in caplog.text
    assert result.x.tolist() == [-1.0, 1.0]
    assert np.array_equal(result.g[0], reference.g[0], equal_nan=True)
    assert result.errors[0] == reference.errors[0]
    assert np.isnan(result.g[1]).all()
    assert result.errors[1] == "SteadyStateError: no steady state here"


def test_failed_certificate_falls_back_to_a_direct_solve(monkeypatch, caplog):
    spec = SweepSpec(grid=(-1.0, 1.0), **A2_RESONANT)

    def reject(L, mat):
        raise SteadyStateError("rejected")

    monkeypatch.setattr(scenarios, "certify", reject)
    with caplog.at_level("DEBUG", logger="polariton.scenarios"):
        result = run_sweep(spec, threads=1)
    assert ("2 rows, 2 steady-state solves, 0 rows from a mirrored state, "
            "1 certificate fallbacks") in caplog.text
    assert_same_points(result, direct_points(spec))


def test_compare_oracle_runs_the_oracle_at_each_mirrored_row():
    spec = SweepSpec(swept="delta_smr", grid=(-1.5, -0.5, 0.5, 1.5),
                     base=preset_params("A2", g=4.5, kappa_a=6.0, kappa_b=6.0), resonant=True,
                     truncation=CFG3)
    assert mirrors(spec) == [(0.5, -0.5), (1.5, -1.5)]
    result = compare_oracle(spec)
    assert result.sweep.workers == min(2, len(os.sched_getaffinity(0)))
    assert result.sweep.x.tolist() == [-1.5, -0.5, 0.5, 1.5]
    for x, me, oracle in zip(result.sweep.x.tolist(), result.sweep.g[:, 0, :3], result.oracle):
        p = spec.point_params(x)
        rho, _ = solve_point(p, CFG3)
        assert oracle.tolist() == oracle_g2(steady_amplitudes(p)).tolist()
        for i, mode in enumerate("abc"):
            assert me[i] == pytest.approx(g_k_zero(rho, mode, 2), rel=1e-10, abs=0)
    assert result.sweep.errors == result.oracle_errors == [""] * 4
