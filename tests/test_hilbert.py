import numpy as np
import pytest

from polariton import DimensionError, TruncationConfig
from polariton.hilbert import excitation_numbers, lowering, occupations
from helpers import FockLabel, basis_state, index_of, kron_lowering, labels

CUTOFFS = [(2, 2), (3, 3), (5, 5), (3, 6), (7, 2)]


@pytest.mark.parametrize("cutoffs", CUTOFFS)
def test_lowering_equals_the_kronecker_construction(cutoffs):
    cfg = TruncationConfig(*cutoffs)
    ops = lowering(cfg)
    for op, ref in zip(ops, kron_lowering(cfg)):
        assert op.dtype == complex and not op.flags.writeable
        assert np.array_equal(op, ref.toarray())
    assert lowering(TruncationConfig(*cutoffs)) is ops


def test_annihilation_ladder_entries():
    cfg = TruncationConfig(5, 2)
    a = lowering(cfg)[0]

    def ket(n):
        return basis_state(FockLabel(n, 1, "e"), cfg)

    assert np.allclose(a @ ket(1), ket(0))           # a|1> = |0>
    assert np.allclose(a @ ket(4), 2.0 * ket(3))     # a|4> = 2|3>
    assert not (a @ ket(0)).any()
    assert np.allclose(a.conj().T @ a, np.diag(occupations(cfg)[0]))  # a'a = diag(0..n)


def test_qubit_lowering():
    cfg = TruncationConfig(2, 2)
    sm = lowering(cfg)[2]
    g = basis_state(FockLabel(1, 2, "g"), cfg)
    e = basis_state(FockLabel(1, 2, "e"), cfg)
    assert np.allclose(sm @ e, g)
    assert not (sm @ g).any()
    assert np.allclose(sm.conj().T @ sm, np.diag(occupations(cfg)[2]))


def test_truncation_config_invariants():
    cfg = TruncationConfig(3, 4)
    assert cfg.dims == (4, 5, 2)
    assert cfg.dim == 4 * 5 * 2
    with pytest.raises(DimensionError):
        TruncationConfig(1, 5)


def test_canonical_index_formula():
    cfg = TruncationConfig(3, 4)
    for lab in labels(cfg):
        q = 0 if lab.q == "g" else 1
        assert index_of(cfg, lab) == (lab.n_a * (cfg.n_b_max + 1) + lab.n_b) * 2 + q
    # enumeration order matches index order
    indices = [index_of(cfg, lab) for lab in labels(cfg)]
    assert indices == list(range(cfg.dim))


def test_occupations_follow_the_labels():
    cfg = TruncationConfig(3, 4)
    occ = occupations(cfg)
    q = {"g": 0, "e": 1}
    assert occ.T.tolist() == [[lab.n_a, lab.n_b, q[lab.q]] for lab in labels(cfg)]
    assert occ.shape == (3, cfg.dim) and not occ.flags.writeable
    assert occupations(TruncationConfig(3, 4)) is occ


def test_excitation_numbers_follow_the_labels():
    cfg = TruncationConfig(3, 4)
    n = excitation_numbers(cfg)
    assert n.tolist() == [lab.excitations for lab in labels(cfg)]
    assert np.array_equal(n, occupations(cfg).sum(0))
    assert not n.flags.writeable
    assert excitation_numbers(TruncationConfig(3, 4)) is n


def test_basis_state():
    cfg = TruncationConfig(2, 2)
    v0 = basis_state(FockLabel(0, 0, "g"), cfg)
    assert v0[0] == 1.0 and np.count_nonzero(v0) == 1
    for lab in labels(cfg):
        assert np.linalg.norm(basis_state(lab, cfg)) == 1.0
    a_dag = lowering(cfg)[0].conj().T
    bra = basis_state(FockLabel(1, 0, "g"), cfg)
    ket = basis_state(FockLabel(0, 0, "g"), cfg)
    assert abs(np.vdot(bra, a_dag @ ket) - 1.0) < 1e-15
    with pytest.raises(DimensionError):
        basis_state(FockLabel(3, 0, "g"), cfg)


def test_lowering_actions_and_commutation():
    cfg = TruncationConfig(2, 2)
    a, b, sm = lowering(cfg)
    assert np.allclose(a @ basis_state(FockLabel(1, 0, "g"), cfg),
                       basis_state(FockLabel(0, 0, "g"), cfg))
    assert np.allclose(b @ basis_state(FockLabel(0, 2, "e"), cfg),
                       np.sqrt(2.0) * basis_state(FockLabel(0, 1, "e"), cfg))
    assert np.allclose(sm @ basis_state(FockLabel(0, 0, "e"), cfg),
                       basis_state(FockLabel(0, 0, "g"), cfg))
    # disjoint subsystems commute exactly
    for x, y in ((a, b), (a, sm), (b, sm)):
        for y_ in (y, y.conj().T):
            assert not (x @ y_ - y_ @ x).any()


def test_truncated_commutator_identity_off_boundary():
    cfg = TruncationConfig(5, 3)
    for slot in (0, 1):
        z = lowering(cfg)[slot]
        n, top = occupations(cfg)[slot], cfg.dims[slot] - 1
        comm = z @ z.conj().T - z.conj().T @ z
        # diagonal; the identity everywhere except the top Fock level
        assert np.array_equal(comm, np.diag(comm.diagonal()))
        assert np.allclose(comm.diagonal()[n < top], 1.0)
        assert comm.diagonal()[n == top] == pytest.approx(-top, rel=1e-14)


def test_number_operator_spectrum_has_multiplicity():
    cfg = TruncationConfig(2, 3)
    b = lowering(cfg)[1]
    full = np.sort(np.linalg.eigvalsh(b.conj().T @ b))
    codim = cfg.dim // 4
    assert np.allclose(full, np.repeat(np.arange(4.0), codim))


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
        DensityMatrix(np.ones((2, 3)), cfg)  # one shape check for operators and states
