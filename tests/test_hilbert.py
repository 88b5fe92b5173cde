import numpy as np
import pytest

from polariton import (DimensionError, FockLabel, TruncationConfig, annihilation, embed,
                       qubit_lowering)
from helpers import basis_state, index_of


def test_annihilation_ladder_entries():
    a = annihilation(6)
    e = np.eye(6, dtype=complex)
    assert np.allclose(a @ e[:, 1], e[:, 0])          # a|1> = |0>
    assert np.allclose(a @ e[:, 4], 2.0 * e[:, 3])    # a|4> = 2|3>
    num = a.conj().T @ a
    assert np.allclose(num, np.diag(np.arange(6.0)))


def test_annihilation_rejects_dim_below_two():
    with pytest.raises(DimensionError):
        annihilation(1)


def test_qubit_lowering():
    sm = qubit_lowering()
    g = np.array([1, 0], dtype=complex)
    e = np.array([0, 1], dtype=complex)
    assert np.allclose(sm @ e, g)
    assert np.allclose(sm @ g, 0.0)
    assert np.allclose(sm.conj().T @ sm, np.diag([0.0, 1.0]))


def test_truncation_config_invariants():
    cfg = TruncationConfig(3, 4)
    assert cfg.dims == (4, 5, 2)
    assert cfg.dim == 4 * 5 * 2
    with pytest.raises(DimensionError):
        TruncationConfig(1, 5)


def test_canonical_index_formula():
    cfg = TruncationConfig(3, 4)
    for lab in cfg.labels():
        q = 0 if lab.q == "g" else 1
        assert index_of(cfg, lab) == (lab.n_a * (cfg.n_b_max + 1) + lab.n_b) * 2 + q
    # enumeration order matches index order
    indices = [index_of(cfg, lab) for lab in cfg.labels()]
    assert indices == list(range(cfg.dim))


def test_basis_state():
    cfg = TruncationConfig(2, 2)
    v0 = basis_state(FockLabel(0, 0, "g"), cfg)
    assert v0[0] == 1.0 and np.count_nonzero(v0) == 1
    for lab in cfg.labels():
        assert np.linalg.norm(basis_state(lab, cfg)) == 1.0
    a_dag = embed(annihilation(3), "photon", cfg).conj().T
    bra = basis_state(FockLabel(1, 0, "g"), cfg)
    ket = basis_state(FockLabel(0, 0, "g"), cfg)
    assert abs(np.vdot(bra, a_dag @ ket) - 1.0) < 1e-15
    with pytest.raises(DimensionError):
        basis_state(FockLabel(3, 0, "g"), cfg)


def test_embed_actions_and_commutation():
    cfg = TruncationConfig(2, 2)
    a = embed(annihilation(3), "photon", cfg)
    b = embed(annihilation(3), "phonon", cfg)
    sm = embed(qubit_lowering(), "qubit", cfg)
    assert np.allclose(a @ basis_state(FockLabel(1, 0, "g"), cfg),
                       basis_state(FockLabel(0, 0, "g"), cfg))
    assert np.allclose(sm @ basis_state(FockLabel(0, 0, "e"), cfg),
                       basis_state(FockLabel(0, 0, "g"), cfg))
    # disjoint subsystems commute exactly
    comm = a @ b.conj().T - b.conj().T @ a
    assert not comm.any()


def test_embed_errors():
    cfg = TruncationConfig(2, 2)
    with pytest.raises(DimensionError):
        embed(annihilation(4), "photon", cfg)  # wrong dim for slot
    with pytest.raises(DimensionError):
        embed(annihilation(3), "nowhere", cfg)
    with pytest.raises(DimensionError):
        embed(annihilation(3), 5, cfg)


def test_truncated_commutator_identity_off_boundary():
    dim = 6
    a = annihilation(dim)
    comm = a @ a.conj().T - a.conj().T @ a
    # identity everywhere except the top Fock level
    assert np.allclose(comm[:-1, :-1], np.eye(dim - 1))
    assert comm[-1, -1] == pytest.approx(-(dim - 1), rel=1e-14)


def test_embed_preserves_spectrum_with_multiplicity():
    cfg = TruncationConfig(2, 2)
    rng = np.random.default_rng(11)
    mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    op = mat + mat.conj().T
    embedded = embed(op, "phonon", cfg)
    base = np.sort(np.linalg.eigvalsh(op))
    full = np.sort(np.linalg.eigvalsh(embedded))
    codim = cfg.dim // 3
    assert np.allclose(full, np.sort(np.repeat(base, codim)))


def test_wrong_side_raises_dimension_error():
    from polariton import (DensityMatrix, SystemParams, build_liouvillian, g_k_zero,
                           hamiltonian_undriven, manifold_spectrum)
    cfg = TruncationConfig(5, 5)
    flat = np.eye(70) / 70  # one side short of cutoff (5, 5), which needs 72
    with pytest.raises(DimensionError):
        DensityMatrix(flat, cfg)
    with pytest.raises(DimensionError):
        g_k_zero(DensityMatrix(np.eye(72) / 72, cfg), flat)  # a custom mode of the wrong side
    with pytest.raises(DimensionError):
        build_liouvillian(flat, SystemParams(kappa_a=1.0), cfg)
    with pytest.raises(DimensionError):
        manifold_spectrum(flat, 1, cfg)
    # an operator built at other cutoffs does not fit either
    H = hamiltonian_undriven(SystemParams(g=1.0), +1, TruncationConfig(5, 4))
    with pytest.raises(DimensionError):
        build_liouvillian(H, SystemParams(kappa_a=1.0), cfg)
    with pytest.raises(DimensionError):
        manifold_spectrum(H, 1, cfg)
    with pytest.raises(DimensionError):
        embed(np.zeros((3, 4)), "photon", TruncationConfig(2, 2))  # does not fit its slot
    with pytest.raises(DimensionError):
        DensityMatrix(np.ones((2, 3)), cfg)  # one shape check for operators and states
