import numpy as np
import pytest

from polariton import (OVERRIDE_BUNDLES, ParameterError, SystemParams,
                       TruncationConfig, bundle_params, hamiltonian_qd_driven,
                       hamiltonian_smr_driven, hamiltonian_undriven,
                       hybrid_mode_operator, linear_coupler, tau_to_us)
from polariton.hilbert import lowering, occupations
from polariton.model import _hamiltonian_terms, mode_moment
from polariton.scenarios import build_hamiltonian
from helpers import FockLabel, basis_state, labels, random_params

CFG = TruncationConfig(3, 3)


def ket(n_a, n_b, q, cfg=CFG):
    return basis_state(FockLabel(n_a, n_b, q), cfg)


def test_zero_params_zero_hamiltonian():
    H = hamiltonian_smr_driven(SystemParams(), CFG)
    assert not H.any()


def test_pure_drive_term():
    p = SystemParams(eta_a=0.37)
    H = hamiltonian_smr_driven(p, CFG)
    a = hybrid_mode_operator("a", CFG)
    assert np.array_equal(H, 0.37 * (a + a.conj().T))


def test_jc_matrix_element():
    p = SystemParams(g=2.3)
    H = hamiltonian_smr_driven(p, CFG)
    assert abs(np.vdot(ket(1, 0, "g"), H @ ket(0, 0, "e")) - 2.3) < 1e-15


def test_qd_driven_matches_smr_driven_without_drives():
    p = SystemParams(delta_a=1.0, delta_b=-2.0, delta_q=0.5, g=1.1, f=2.2)
    assert np.array_equal(hamiltonian_qd_driven(p, CFG), hamiltonian_smr_driven(p, CFG))


def test_qd_drive_element():
    p = SystemParams(eta_b=0.81)
    H = hamiltonian_qd_driven(p, CFG)
    assert abs(np.vdot(ket(0, 1, "g"), H @ ket(0, 0, "g")) - 0.81) < 1e-15


def test_preset_a2_matrix_elements():
    p = SystemParams(delta_a=5.0, delta_b=-5.0, delta_q=3.0, f=7.0, eta_b=0.5,
                     kappa_a=7.5, kappa_b=6.0)
    H = hamiltonian_qd_driven(p, CFG)
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
            assert np.array_equal(H, H.conj().T)
        pu = p.with_(eta_a=0.0, eta_b=0.0)
        for sign in (+1, -1):
            H = hamiltonian_undriven(pu, sign, CFG)
            assert np.array_equal(H, H.conj().T)


def fresh_hamiltonian(p, cfg, drive, sign):
    """The Hamiltonian summed term by term from fresh products of the bare
    operators, in the order the cached terms are summed."""
    def pair(op):
        return op + op.conj().T

    a, b, sm = lowering(cfg)
    hop = a @ b.conj().T
    H = (p.delta_a * (a.conj().T @ a) + p.delta_b * (b.conj().T @ b)
         + p.delta_q * (sm.conj().T @ sm) + p.g * pair(a.conj().T @ sm))
    if sign > 0:
        H = H + p.f * pair(hop)
    else:
        H = H + 1j * p.f * (hop.conj().T - hop)
    if drive == "a":
        H = H + p.eta_a * pair(a)
    elif drive == "b":
        H = H + p.eta_b * pair(b)
    return H


def test_cached_terms_give_the_fresh_hamiltonian_bitwise():
    rng = np.random.default_rng(12)
    for _ in range(5):
        p = random_params(rng).with_(eta_a=rng.uniform(0.05, 0.8))
        assert np.array_equal(hamiltonian_smr_driven(p, CFG),
                              fresh_hamiltonian(p, CFG, "a", +1))
        assert np.array_equal(hamiltonian_qd_driven(p, CFG),
                              fresh_hamiltonian(p, CFG, "b", +1))
        pu = p.with_(eta_a=0.0, eta_b=0.0)
        for sign in (+1, -1):
            assert np.array_equal(hamiltonian_undriven(pu, sign, CFG),
                                  fresh_hamiltonian(pu, CFG, "", sign))


def test_cached_operators_are_read_only():
    arrays = list(_hamiltonian_terms(CFG).values()) + list(lowering(CFG))
    arrays += [hybrid_mode_operator(mode, CFG) for mode in "abcd"]
    arrays += [mode_moment(mode, CFG, k) for mode in "abcd" for k in (1, 2, 3, 4)]
    arrays.append(occupations(CFG))
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


def test_mode_moments_match_fresh_powers():
    for mode in "abcd":
        z = hybrid_mode_operator(mode, CFG)
        for k in (1, 2, 3, 4):
            zk = np.linalg.matrix_power(z, k)
            assert np.array_equal(mode_moment(mode, CFG, k), zk.conj().T @ zk)


def test_polariton_conservation_and_drive_breaking():
    rng = np.random.default_rng(6)
    # exact integers on the diagonal, so the commutator vanishes bitwise
    N = np.diag([float(lab.excitations) for lab in labels(CFG)])
    for sign in (+1, -1):
        for _ in range(5):
            p = random_params(rng).with_(eta_a=0.0, eta_b=0.0)
            H = hamiltonian_undriven(p, sign, CFG)
            assert not (H @ N - N @ H).any()
    p = random_params(rng, driven="a")
    H = hamiltonian_smr_driven(p, CFG)
    assert np.linalg.norm(H @ N - N @ H) > 0


def test_undriven_preconditions():
    with pytest.raises(ParameterError):
        hamiltonian_undriven(SystemParams(eta_a=0.1), +1, CFG)
    with pytest.raises(ParameterError):
        hamiltonian_undriven(SystemParams(), 2, CFG)


def test_undriven_diagonal_when_uncoupled():
    p = SystemParams(delta_a=1.5, delta_b=2.5, delta_q=-0.5)
    H = hamiltonian_undriven(p, +1, CFG)
    assert np.allclose(H, np.diag(np.diag(H)))


def test_first_manifold_eigenvalues_at_resonance():
    delta, g, f = 1.3, 7.5, 5.0
    p = SystemParams(delta_a=delta, delta_b=delta, delta_q=delta, g=g, f=f)
    H = hamiltonian_undriven(p, +1, CFG)
    idx = [i for i, lab in enumerate(labels(CFG)) if lab.excitations == 1]
    evals = np.linalg.eigvalsh(H[np.ix_(idx, idx)])
    split = np.sqrt(g * g + f * f)
    assert np.allclose(evals, [delta - split, delta, delta + split], atol=1e-12)


def test_hybrid_mode_commutators_defect_confined_to_boundary():
    c = hybrid_mode_operator("c", CFG)
    d = hybrid_mode_operator("d", CFG)
    eye = np.eye(CFG.dim)
    for op, target in ((c @ c.conj().T - c.conj().T @ c, eye),
                       (c @ d.conj().T - d.conj().T @ c, 0 * eye)):
        defect = op - target
        for i, lab_i in enumerate(labels(CFG)):
            for j, lab_j in enumerate(labels(CFG)):
                boundary = (lab_i.n_a == CFG.n_a_max or lab_i.n_b == CFG.n_b_max
                            or lab_j.n_a == CFG.n_a_max or lab_j.n_b == CFG.n_b_max)
                if not boundary:
                    assert abs(defect[i, j]) < 1e-14


def test_hybrid_mode_action():
    c = hybrid_mode_operator("c", CFG)
    out = c @ ket(1, 0, "g")
    assert np.allclose(out, ket(0, 0, "g") / np.sqrt(2))


def test_linear_coupler_special_angles():
    c, d = linear_coupler(np.pi / 2, CFG)
    a = hybrid_mode_operator("a", CFG)
    b = hybrid_mode_operator("b", CFG)
    assert np.allclose(c, a, atol=1e-15)
    assert np.allclose(d, -b, atol=1e-15)
    c0, d0 = linear_coupler(0.0, CFG)
    assert np.allclose(c0, b)
    assert np.allclose(d0, a)
    c4, d4 = linear_coupler(np.pi / 4, CFG)
    assert np.allclose(c4, hybrid_mode_operator("c", CFG))
    assert np.allclose(d4, hybrid_mode_operator("d", CFG))


def test_linear_coupler_conserves_excitation():
    a = hybrid_mode_operator("a", CFG)
    b = hybrid_mode_operator("b", CFG)
    total = a.conj().T @ a + b.conj().T @ b
    for theta in (0.3, 1.1, 2.0):
        c, d = linear_coupler(theta, CFG)
        combo = c.conj().T @ c + d.conj().T @ d
        assert np.allclose(combo, total, atol=1e-14)


def hamiltonian_smr_driven_bs(p, cfg):
    """The SMR-driven Hamiltonian written in the hybrid modes c, d: the qubit
    couples to both with g/sqrt(2), at detunings (d_a + d_b)/2 +/- f, with a
    residual c-d coupling (d_a - d_b)/2."""
    def pair(op):
        return op + op.conj().T

    sm = lowering(cfg)[2]
    c, d = linear_coupler(np.pi / 4, cfg)
    cd, dd = c.conj().T, d.conj().T
    delta_mean = 0.5 * (p.delta_a + p.delta_b)
    delta_cd = 0.5 * (p.delta_a - p.delta_b)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    return ((delta_mean + p.f) * (cd @ c)
            + (delta_mean - p.f) * (dd @ d)
            + p.delta_q * (sm.conj().T @ sm)
            + delta_cd * pair(cd @ d)
            + inv_sqrt2 * p.g * (pair(cd @ sm) + pair(dd @ sm))
            + inv_sqrt2 * p.eta_a * (pair(c) + pair(d)))


def test_bs_hamiltonian_identity():
    rng = np.random.default_rng(9)
    for _ in range(5):
        p = random_params(rng, driven="a")
        H1 = hamiltonian_smr_driven(p, CFG)
        H2 = hamiltonian_smr_driven_bs(p, CFG)
        assert np.allclose(H1, H2, atol=1e-13 * max(1.0, np.linalg.norm(H1)))


def test_time_unit_conversion():
    assert tau_to_us(2 * np.pi / 5.5) == pytest.approx(0.036360, abs=5e-6)


def _raise_first_terms(cfg: TruncationConfig) -> dict:
    """The Hamiltonian terms with the hopping written raise-first, a b'."""
    terms = dict(_hamiltonian_terms(cfg))
    a, b, _ = lowering(cfg)
    hop = a @ b.conj().T
    terms["hop_plus"] = hop + hop.conj().T
    terms["hop_minus"] = hop.conj().T - hop
    return terms


@pytest.mark.parametrize("cutoff", [3, 5])
def test_lowering_first_terms_build_the_same_hamiltonians(monkeypatch, cutoff):
    # a and b' act on different modes, so a b' = b'a; inside the box the two
    # orders must give the same bytes, driven and undriven H(+/-) alike
    cfg = TruncationConfig(cutoff, cutoff)

    def hamiltonians():
        out = []
        for bundle in sorted(OVERRIDE_BUNDLES):
            p = bundle_params(bundle)
            undriven = p.with_(eta_a=0.0, eta_b=0.0)
            out += [build_hamiltonian(p, cfg), hamiltonian_undriven(undriven, +1, cfg),
                    hamiltonian_undriven(undriven, -1, cfg)]
        return out
    lowered = hamiltonians()
    monkeypatch.setattr("polariton.model._hamiltonian_terms", _raise_first_terms)
    raised = hamiltonians()
    assert len(lowered) == 3 * len(OVERRIDE_BUNDLES) == 33
    assert all(x.tobytes() == y.tobytes() for x, y in zip(lowered, raised))
