import numpy as np
import pytest

from polariton import (FockLabel, ParameterError, QOperator, SystemParams,
                       TruncationConfig, basis_state, embed, hamiltonian_qd_driven,
                       hamiltonian_smr_driven, hamiltonian_undriven,
                       hybrid_mode_operator, linear_coupler, qubit_lowering, tau_to_us)
from helpers import random_params

CFG = TruncationConfig(3, 3)


def ket(n_a, n_b, q, cfg=CFG):
    return basis_state(FockLabel(n_a, n_b, q), cfg)


def test_zero_params_zero_hamiltonian():
    H = hamiltonian_smr_driven(SystemParams(), CFG)
    assert not H.matrix.any()


def test_pure_drive_term():
    p = SystemParams(eta_a=0.37)
    H = hamiltonian_smr_driven(p, CFG)
    a = hybrid_mode_operator("a", CFG)
    assert np.array_equal(H.matrix, 0.37 * (a.matrix + a.matrix.conj().T))


def test_jc_matrix_element():
    p = SystemParams(g=2.3)
    H = hamiltonian_smr_driven(p, CFG)
    assert abs(np.vdot(ket(1, 0, "g"), H.matrix @ ket(0, 0, "e")) - 2.3) < 1e-15


def test_qd_driven_matches_smr_driven_without_drives():
    p = SystemParams(delta_a=1.0, delta_b=-2.0, delta_q=0.5, g=1.1, f=2.2)
    assert np.array_equal(hamiltonian_qd_driven(p, CFG).matrix,
                          hamiltonian_smr_driven(p, CFG).matrix)


def test_qd_drive_element():
    p = SystemParams(eta_b=0.81)
    H = hamiltonian_qd_driven(p, CFG)
    assert abs(np.vdot(ket(0, 1, "g"), H.matrix @ ket(0, 0, "g")) - 0.81) < 1e-15


def test_preset_a2_matrix_elements():
    p = SystemParams(delta_a=5.0, delta_b=-5.0, delta_q=3.0, f=7.0, eta_b=0.5,
                     kappa_a=7.5, kappa_b=6.0)
    H = hamiltonian_qd_driven(p, CFG).matrix
    assert np.vdot(ket(1, 0, "g"), H @ ket(1, 0, "g")) == 5.0
    assert np.vdot(ket(0, 1, "g"), H @ ket(0, 1, "g")) == -5.0
    assert np.vdot(ket(0, 0, "e"), H @ ket(0, 0, "e")) == 3.0
    assert np.vdot(ket(1, 0, "g"), H @ ket(0, 1, "g")) == 7.0
    assert np.vdot(ket(0, 1, "g"), H @ ket(0, 0, "g")) == 0.5
    assert np.vdot(ket(0, 2, "g"), H @ ket(0, 1, "g")) == pytest.approx(0.5 * np.sqrt(2), abs=1e-15)


def test_exact_hermiticity():
    rng = np.random.default_rng(5)
    for _ in range(15):
        p = random_params(rng, driven=rng.choice(["a", "b"]))
        for H in (hamiltonian_smr_driven(p, CFG), hamiltonian_qd_driven(p, CFG)):
            assert np.array_equal(H.matrix, H.matrix.conj().T)
        pu = p.with_(eta_a=0.0, eta_b=0.0)
        for sign in (+1, -1):
            H = hamiltonian_undriven(pu, sign, CFG)
            assert np.array_equal(H.matrix, H.matrix.conj().T)


def test_polariton_conservation_and_drive_breaking():
    rng = np.random.default_rng(6)
    # exact integers on the diagonal, so the commutator vanishes bitwise
    N = np.diag([float(lab.excitations) for lab in CFG.labels()])
    for sign in (+1, -1):
        for _ in range(5):
            p = random_params(rng).with_(eta_a=0.0, eta_b=0.0)
            H = hamiltonian_undriven(p, sign, CFG).matrix
            assert not (H @ N - N @ H).any()
    p = random_params(rng, driven="a")
    H = hamiltonian_smr_driven(p, CFG).matrix
    assert np.linalg.norm(H @ N - N @ H) > 0


def test_undriven_preconditions():
    with pytest.raises(ParameterError):
        hamiltonian_undriven(SystemParams(eta_a=0.1), +1, CFG)
    with pytest.raises(ParameterError):
        hamiltonian_undriven(SystemParams(), 2, CFG)


def test_undriven_diagonal_when_uncoupled():
    p = SystemParams(delta_a=1.5, delta_b=2.5, delta_q=-0.5)
    H = hamiltonian_undriven(p, +1, CFG).matrix
    assert np.allclose(H, np.diag(np.diag(H)))


def test_first_manifold_eigenvalues_at_resonance():
    delta, g, f = 1.3, 7.5, 5.0
    p = SystemParams(delta_a=delta, delta_b=delta, delta_q=delta, g=g, f=f)
    H = hamiltonian_undriven(p, +1, CFG)
    labels = list(CFG.labels())
    idx = [i for i, lab in enumerate(labels) if lab.excitations == 1]
    evals = np.linalg.eigvalsh(H.matrix[np.ix_(idx, idx)])
    split = np.sqrt(g * g + f * f)
    assert np.allclose(evals, [delta - split, delta, delta + split], atol=1e-12)


def test_hybrid_mode_commutators_defect_confined_to_boundary():
    c = hybrid_mode_operator("c", CFG)
    d = hybrid_mode_operator("d", CFG)
    eye = np.eye(CFG.dim)
    for op, target in (((c @ c.dag() - c.dag() @ c).matrix, eye),
                       ((c @ d.dag() - d.dag() @ c).matrix, 0 * eye)):
        defect = op - target
        for i, lab_i in enumerate(CFG.labels()):
            for j, lab_j in enumerate(CFG.labels()):
                boundary = (lab_i.n_a == CFG.n_a_max or lab_i.n_b == CFG.n_b_max
                            or lab_j.n_a == CFG.n_a_max or lab_j.n_b == CFG.n_b_max)
                if not boundary:
                    assert abs(defect[i, j]) < 1e-14


def test_hybrid_mode_action():
    c = hybrid_mode_operator("c", CFG)
    out = c.matrix @ ket(1, 0, "g")
    assert np.allclose(out, ket(0, 0, "g") / np.sqrt(2))


def test_linear_coupler_special_angles():
    c, d = linear_coupler(np.pi / 2, CFG)
    a = hybrid_mode_operator("a", CFG)
    b = hybrid_mode_operator("b", CFG)
    assert np.allclose(c.matrix, a.matrix, atol=1e-15)
    assert np.allclose(d.matrix, -b.matrix, atol=1e-15)
    c0, d0 = linear_coupler(0.0, CFG)
    assert np.allclose(c0.matrix, b.matrix)
    assert np.allclose(d0.matrix, a.matrix)
    c4, d4 = linear_coupler(np.pi / 4, CFG)
    assert np.allclose(c4.matrix, hybrid_mode_operator("c", CFG).matrix)
    assert np.allclose(d4.matrix, hybrid_mode_operator("d", CFG).matrix)


def test_linear_coupler_conserves_excitation():
    a = hybrid_mode_operator("a", CFG)
    b = hybrid_mode_operator("b", CFG)
    total = a.dag() @ a + b.dag() @ b
    for theta in (0.3, 1.1, 2.0):
        c, d = linear_coupler(theta, CFG)
        combo = c.dag() @ c + d.dag() @ d
        assert np.allclose(combo.matrix, total.matrix, atol=1e-14)


def hamiltonian_smr_driven_bs(p, cfg):
    """The SMR-driven Hamiltonian written in the hybrid modes c, d: the qubit
    couples to both with g/sqrt(2), at detunings (d_a + d_b)/2 +/- f, with a
    residual c-d coupling (d_a - d_b)/2."""
    def pair(op):
        return QOperator(op.matrix + op.matrix.conj().T, op.dims)

    sm = embed(qubit_lowering(), "qubit", cfg)
    c, d = linear_coupler(np.pi / 4, cfg)
    delta_mean = 0.5 * (p.delta_a + p.delta_b)
    delta_cd = 0.5 * (p.delta_a - p.delta_b)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    return ((delta_mean + p.f) * (c.dag() @ c)
            + (delta_mean - p.f) * (d.dag() @ d)
            + p.delta_q * (sm.dag() @ sm)
            + delta_cd * pair(c.dag() @ d)
            + inv_sqrt2 * p.g * (pair(c.dag() @ sm) + pair(d.dag() @ sm))
            + inv_sqrt2 * p.eta_a * (pair(c) + pair(d)))


def test_bs_hamiltonian_identity():
    rng = np.random.default_rng(9)
    for _ in range(5):
        p = random_params(rng, driven="a")
        H1 = hamiltonian_smr_driven(p, CFG)
        H2 = hamiltonian_smr_driven_bs(p, CFG)
        assert np.allclose(H1.matrix, H2.matrix, atol=1e-13 * max(1.0, H1.norm()))


def test_time_unit_conversion():
    assert tau_to_us(2 * np.pi / 5.5) == pytest.approx(0.036360, abs=5e-6)
