import json
import subprocess
import sys
from multiprocessing import Pool

import numpy as np
import pytest

from polariton import (OVERRIDE_BUNDLES, PRESETS, ParameterError, SweepSpec,
                       SystemParams, TruncationConfig, bundle_params,
                       compare_oracle, g_k_zero, hamiltonian_qd_driven,
                       hamiltonian_smr_driven, preset_params, run_sweep,
                       solve_point)
from polariton import scenarios
from polariton.scenarios import (_cap_blas_threads, _extrema, _openblas_thread_controls,
                                 _openblas_thread_counts, build_hamiltonian, run_g2tau)
from helpers import fresh_env

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
    with pytest.raises(ParameterError):
        SweepSpec(swept="g", preset="A2", start=0, stop=1, count=1)
    with pytest.raises(ParameterError):
        SweepSpec(swept="g", start=0, stop=1, count=5)  # no preset/params
    with pytest.raises(ParameterError):
        SweepSpec(swept="g", preset="A2", params=SystemParams(), start=0, stop=1, count=5)
    with pytest.raises(ParameterError):
        SweepSpec(swept="eta_a", preset="A2", start=0, stop=1, count=5)  # QD-driven preset
    with pytest.raises(ParameterError):
        SweepSpec(swept="nothing", preset="A2", start=0, stop=1, count=5)
    with pytest.raises(ParameterError):
        SweepSpec(swept="g", preset="A2", values=())


def test_single_point_sweep_matches_direct_calls():
    spec = SweepSpec(swept="g", preset="A2", values=(4.5,), truncation=CFG3,
                     modes=("a", "b", "c"), orders=(2,))
    result = run_sweep(spec)
    assert len(result.rows) == 1
    row = result.rows[0]
    rho, _ = solve_point(preset_params("A2", g=4.5), CFG3)
    for mode in ("a", "b", "c"):
        assert row[f"g2_{mode}"] == g_k_zero(rho, mode, 2)
    assert row["case"] == 7


def test_determinism_and_row_independence():
    values = (3.0, 5.0, 4.0, 4.5)
    spec = SweepSpec(swept="g", preset="A2", values=values, truncation=CFG3,
                     modes=("a", "b"), orders=(2,))
    r1 = run_sweep(spec)
    r2 = run_sweep(spec)
    assert r1.rows == r2.rows  # bitwise identical floats
    sorted_spec = SweepSpec(swept="g", preset="A2", values=tuple(sorted(values)),
                            truncation=CFG3, modes=("a", "b"), orders=(2,))
    r3 = run_sweep(sorted_spec)
    assert r1.rows == r3.rows  # shuffled grid, same sorted table


def test_threaded_sweep_matches_serial():
    spec = SweepSpec(swept="g", preset="A2", values=(4.0, 4.5, 5.0), truncation=CFG3,
                     modes=("a", "c"), orders=(2,))
    serial = run_sweep(spec, threads=1)
    threaded = run_sweep(spec, threads=2)
    assert serial.rows == threaded.rows


def test_sweep_records_point_errors_without_aborting():
    # zero drive: the steady state is vacuum, so every correlation cell is
    # below the occupancy floor
    params = SystemParams(kappa_a=1.0, kappa_b=1.0, gamma=1.0)
    spec = SweepSpec(swept="g", params=params, values=(0.5, 1.0),
                     truncation=TruncationConfig(2, 2), modes=("a",), orders=(2,))
    result = run_sweep(spec)
    assert len(result.rows) == 2
    assert all(row["error"] for row in result.rows)
    assert len(result.failed_rows) == 2


def test_resonant_and_offset_detuning_sweeps():
    spec = SweepSpec(swept="delta_smr", preset="A2", values=(1.0,), resonant=True)
    p = spec.point_params(1.0)
    assert (p.delta_a, p.delta_b, p.delta_q) == (1.0, 1.0, 1.0)
    spec = SweepSpec(swept="delta_smr", preset="A2", values=(1.0,), resonant=False)
    p = spec.point_params(1.0)
    assert (p.delta_a, p.delta_b, p.delta_q) == (1.0, -9.0, -1.0)


def test_compare_oracle_linear_limit():
    # g = 0 sweep: both methods give Poissonian phonons
    spec = SweepSpec(swept="delta_smr", preset="A2", values=(1.5, 2.5),
                     overrides={"g": 0.0, "kappa_a": 6.0, "kappa_b": 6.0},
                     resonant=True, truncation=TruncationConfig(5, 5))
    result = compare_oracle(spec)
    for row in result.rows:
        assert not row["me_error"] and not row["oracle_error"]
        assert row["me_g2_b"] == pytest.approx(1.0, abs=1e-6)
        assert row["oracle_g2_b"] == pytest.approx(1.0, abs=1e-6)


def test_compare_oracle_reports_precondition_violations_per_point():
    spec = SweepSpec(swept="delta_smr", preset="A2", values=(1.0, 2.0),
                     overrides={"g": 4.5}, resonant=True, truncation=CFG3)
    result = compare_oracle(spec)  # A2 has unequal kappas: oracle must refuse
    for row in result.rows:
        assert row["oracle_error"] and "kappa" in row["oracle_error"]
        assert not row["me_error"]
        assert np.isfinite(row["me_g2_b"])


def test_compare_oracle_extrema_summary():
    spec = SweepSpec(swept="delta_smr", preset="A2", start=4.6, stop=5.6, count=21,
                     overrides={"g": 4.5, "kappa_a": 6.0, "kappa_b": 6.0, "eta_b": 0.1},
                     resonant=True, truncation=CFG3)
    result = compare_oracle(spec, threads=2)
    assert result.summary["grid_step"] == pytest.approx(0.05)
    me_min = result.summary["me_g2_b"]["local_minima"]
    or_min = result.summary["oracle_g2_b"]["local_minima"]
    assert me_min and or_min
    assert abs(me_min[0][0] - or_min[0][0]) <= 0.05 + 1e-12


def test_empty_grid_rejected():
    with pytest.raises(ParameterError):
        SweepSpec(swept="delta_smr", preset="A2", values=(), resonant=True)


def test_run_sweep_rejects_omega_m():
    with pytest.raises(ParameterError):
        spec = SweepSpec(swept="omega_m", preset="A1", values=(1560.0, 1561.0))
        run_sweep(spec)


def test_pool_workers_run_one_blas_thread():
    if not _openblas_thread_counts():
        pytest.skip("no OpenBLAS library is mapped into this process")
    with Pool(processes=1, initializer=_cap_blas_threads) as pool:
        counts = pool.apply(_openblas_thread_counts)
    assert counts and all(n == 1 for n in counts)


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
