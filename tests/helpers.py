"""Shared test utilities."""

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize_scalar

import polariton
from polariton import (DensityMatrix, DimensionError, Liouvillian,
                       SteadyStateError, SystemParams, TruncationConfig, closed_form_double,
                       closed_form_single)
from polariton.lindblad import _propagate


@dataclass(frozen=True)
class FockLabel:
    """Basis ket |n_a, n_b, q> with q in {'g', 'e'}."""

    n_a: int
    n_b: int
    q: str

    def __post_init__(self):
        if self.n_a < 0 or self.n_b < 0:
            raise DimensionError(f"negative occupation in {self}")
        if self.q not in ("g", "e"):
            raise DimensionError(f"qubit state must be 'g' or 'e', got {self.q!r}")

    @property
    def excitations(self) -> int:
        """Total excitation number n_a + n_b + (q == 'e')."""
        return self.n_a + self.n_b + (1 if self.q == "e" else 0)


def labels(cfg: TruncationConfig) -> Iterator[FockLabel]:
    """All Fock labels of ``cfg`` in canonical index order."""
    for n_a in range(cfg.n_a_max + 1):
        for n_b in range(cfg.n_b_max + 1):
            for q in ("g", "e"):
                yield FockLabel(n_a, n_b, q)


def index_of(cfg: TruncationConfig, label: FockLabel) -> int:
    """Canonical basis index of a Fock label (pure function, stable)."""
    if not (0 <= label.n_a <= cfg.n_a_max and 0 <= label.n_b <= cfg.n_b_max):
        raise DimensionError(f"label {label} exceeds cutoffs {cfg.n_a_max}, {cfg.n_b_max}")
    q = 0 if label.q == "g" else 1
    return (label.n_a * (cfg.n_b_max + 1) + label.n_b) * 2 + q


def basis_state(label: FockLabel, cfg: TruncationConfig) -> np.ndarray:
    """Unit column vector for |n_a, n_b, q> at the canonical index."""
    vec = np.zeros(cfg.dim, dtype=complex)
    vec[index_of(cfg, label)] = 1.0
    return vec


def trace(rho: DensityMatrix) -> float:
    return float(np.trace(rho.matrix).real)


def expect(rho: DensityMatrix, op: np.ndarray) -> complex:
    return complex(np.einsum("ij,ji->", rho.matrix, op))


def hermiticity_defect(rho: DensityMatrix) -> float:
    """Relative Frobenius distance from the Hermitian part."""
    scale = max(1.0, float(np.linalg.norm(rho.matrix)))
    return float(np.linalg.norm(rho.matrix - rho.matrix.conj().T)) / scale


def validate(rho: DensityMatrix, psd_tol: float = 1e-10, trace_tol: float = 1e-12,
             herm_tol: float = 1e-12) -> DensityMatrix:
    """Check Hermiticity, unit trace and numerical positivity; return rho."""
    if hermiticity_defect(rho) > herm_tol:
        raise SteadyStateError(f"not Hermitian: defect {hermiticity_defect(rho):.2e}")
    if abs(trace(rho) - 1.0) > trace_tol:
        raise SteadyStateError(f"trace {trace(rho)!r} differs from 1")
    mineig = rho.min_eigenvalue()
    if mineig < -psd_tol:
        raise SteadyStateError(f"minimum eigenvalue {mineig:.2e} below -{psd_tol:.0e}")
    return rho


def random_composite_density(rng: np.random.Generator, cfg: TruncationConfig) -> DensityMatrix:
    """A random full-rank density matrix (Wishart construction)."""
    A = rng.normal(size=(cfg.dim, cfg.dim)) + 1j * rng.normal(size=(cfg.dim, cfg.dim))
    rho = A @ A.conj().T
    rho /= np.trace(rho).real
    return DensityMatrix(rho, cfg)


def evolve(rho0: DensityMatrix, L: Liouvillian, t_grid) -> list[DensityMatrix]:
    """States on ``t_grid`` from the propagator that g2_tau uses, not re-normalised."""
    d = L.cfg.dim
    Rs = _propagate(rho0.matrix[None], L, t_grid)[0].T.reshape(-1, d, d)
    return [DensityMatrix(0.5 * (R + R.T) + 0.5j * (R - R.T), L.cfg) for R in Rs]


def lowering(n: int) -> sp.csr_matrix:
    """Single-mode lowering operator on n levels, <k-1|a|k> = sqrt(k)."""
    return sp.diags(np.sqrt(np.arange(1.0, n)), 1, format="csr")


def composite(photon, phonon, qubit) -> sp.csr_matrix:
    """photon (x) phonon (x) qubit, the canonical subsystem order."""
    return sp.kron(sp.kron(photon, phonon), qubit, format="csr")


def kron_lowering(cfg: TruncationConfig) -> tuple[sp.csr_matrix, ...]:
    """Reference photon, phonon and qubit lowering operators, each a
    Kronecker product with the identities of the other subsystems."""
    da, db, dq = cfg.dims
    Ia, Ib, Iq = sp.identity(da), sp.identity(db), sp.identity(dq)
    return (composite(lowering(da), Ib, Iq), composite(Ia, lowering(db), Iq),
            composite(Ia, Ib, lowering(dq)))


def kron_parity(p: SystemParams, cfg: TruncationConfig) -> sp.csr_matrix:
    """Reference mirror parity for negated detunings, from Kronecker
    products: (-1)^n_a when the photon mode is driven, (-1)^(n_b + q)
    otherwise."""
    da, db, dq = cfg.dims

    def parity(n: int) -> sp.csr_matrix:
        return sp.diags((-1.0) ** np.arange(n), format="csr")

    if p.eta_a != 0.0:
        return composite(parity(da), sp.identity(db), sp.identity(dq))
    return composite(sp.identity(da), parity(db), parity(dq))


def kron_liouvillian(H: np.ndarray, p: SystemParams, cfg: TruncationConfig) -> sp.csr_matrix:
    """Reference Lindblad superoperator from the textbook kron construction.

    -i(H (x) I - I (x) H^T) + kappa D[J] for each channel, with
    D[J] = J (x) J* - (J'J (x) I + I (x) (J'J)^T)/2 under the row-major vec,
    and the lowering operators of :func:`kron_lowering`.
    """
    channels = zip((p.kappa_a, p.kappa_b, p.gamma), kron_lowering(cfg))
    I = sp.identity(cfg.dim, format="csr")
    Hs = sp.csr_matrix(H)
    L = -1j * (sp.kron(Hs, I) - sp.kron(I, Hs.T))
    for rate, J in channels:
        if rate > 0:
            JdJ = (J.conj().T @ J).tocsr()
            L = L + rate * (sp.kron(J, J.conj()) - 0.5 * (sp.kron(JdJ, I) + sp.kron(I, JdJ.T)))
    L = L.tocsr()
    L.eliminate_zeros()
    return L


def random_params(rng: np.random.Generator, driven: str = "b") -> SystemParams:
    """Physically shaped random parameters with one drive active."""
    vals = dict(
        delta_a=rng.uniform(-8, 8), delta_b=rng.uniform(-8, 8), delta_q=rng.uniform(-8, 8),
        g=rng.uniform(0, 6), f=rng.uniform(0, 8),
        kappa_a=rng.uniform(0.1, 8), kappa_b=rng.uniform(0.1, 8), gamma=1.0,
        eta_a=0.0, eta_b=0.0,
    )
    if driven == "a":
        vals["eta_a"] = rng.uniform(0.05, 0.8)
    elif driven == "b":
        vals["eta_b"] = rng.uniform(0.05, 0.8)
    return SystemParams(**vals)


def coherent_vector(alpha: complex, dim: int) -> np.ndarray:
    """Truncated coherent-state amplitudes, re-normalised."""
    n = np.arange(dim)
    from scipy.special import gammaln
    log_amp = n * np.log(np.abs(alpha) + 1e-300) - 0.5 * gammaln(n + 1.0)
    vec = np.exp(log_amp - 0.5 * abs(alpha) ** 2) * np.exp(1j * n * np.angle(alpha))
    return vec / np.linalg.norm(vec)


def closed_form_g2_b_dip(p: SystemParams, lo: float, hi: float) -> float:
    """Common detuning of the deepest weak-drive g2_b dip in [lo, hi].

    g2_b = 2 |C02g|^2 / |C01g|^4 is evaluated from the closed forms with all
    three detunings of ``p`` set to the scanned value.  A uniform scan
    brackets the deepest sample; a bounded scalar minimisation between its
    neighbours refines the location to better than 1e-6 gamma, so the
    result does not depend on any sweep grid.
    """
    def g2_b(x: float) -> float:
        q = p.with_(delta_a=x, delta_b=x, delta_q=x)
        c01g, _ = closed_form_single(q)
        c02g, _, _ = closed_form_double(q)
        return 2.0 * abs(c02g) ** 2 / abs(c01g) ** 4

    xs = np.linspace(lo, hi, 1501)
    k = int(np.argmin([g2_b(x) for x in xs]))
    bracket = (xs[max(k - 1, 0)], xs[min(k + 1, len(xs) - 1)])
    res = minimize_scalar(g2_b, bounds=bracket, method="bounded", options={"xatol": 1e-9})
    return float(res.x)


def range_grid(start: float, stop: float, count: int) -> tuple[float, ...]:
    """The sweep grid of a ``start``/``stop``/``count`` range, built as the CLI builds it."""
    return tuple(np.linspace(float(start), float(stop), count).tolist())


def fresh_env(**variables: str) -> dict:
    """Environment for a fresh interpreter that imports the polariton under
    test, with ``variables`` set."""
    src = str(Path(polariton.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **variables)


SHIPPED = Path(__file__).resolve().parents[1] / "configs"
#: The subcommand of each shipped config.
SHIPPED_COMMANDS = {
    "dynamics_cases.yaml": "g2tau",
    "eight_cases_a2.yaml": "g2sweep",
    "hybrid_blockade_gsweep.yaml": "g2sweep",
    "manifold_spectra.yaml": "spectrum",
    "oracle_compare.yaml": "oracle-compare",
    "resonance_distances.yaml": "spectrum",
}
