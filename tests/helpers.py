"""Shared test utilities."""

import os
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize_scalar

import polariton
from polariton import (DensityMatrix, Liouvillian, QOperator, SystemParams,
                       TruncationConfig, closed_form_double, closed_form_single)
from polariton.lindblad import _propagate


def random_density(rng: np.random.Generator, dim: int,
                   dims: tuple[int, ...] = ()) -> DensityMatrix:
    """A random full-rank density matrix (Wishart construction)."""
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = A @ A.conj().T
    rho /= np.trace(rho).real
    return DensityMatrix(rho, dims or (dim,))


def random_composite_density(rng: np.random.Generator, cfg: TruncationConfig) -> DensityMatrix:
    return random_density(rng, cfg.dim, cfg.dims)


def evolve(rho0: DensityMatrix, L: Liouvillian, t_grid) -> list[DensityMatrix]:
    """States on ``t_grid`` from the propagator that g2_tau uses, not re-normalised."""
    Rs = _propagate(rho0.matrix, L, t_grid).T.reshape(-1, L.dim, L.dim)
    return [DensityMatrix(0.5 * (R + R.T) + 0.5j * (R - R.T), L.dims) for R in Rs]


def kron_liouvillian(H: QOperator, p: SystemParams) -> sp.csr_matrix:
    """Reference Lindblad superoperator from the textbook kron construction.

    -i(H (x) I - I (x) H^T) + kappa D[J] for each channel, with
    D[J] = J (x) J* - (J'J (x) I + I (x) (J'J)^T)/2 under the row-major vec,
    and the photon, phonon and qubit lowering operators built here.
    """
    da, db, dq = H.dims

    def lowering(n: int) -> sp.csr_matrix:
        return sp.diags(np.sqrt(np.arange(1.0, n)), 1, format="csr")

    def composite(photon, phonon, qubit) -> sp.csr_matrix:
        return sp.kron(sp.kron(photon, phonon), qubit, format="csr")

    Ia, Ib, Iq = sp.identity(da), sp.identity(db), sp.identity(dq)
    channels = ((p.kappa_a, composite(lowering(da), Ib, Iq)),
                (p.kappa_b, composite(Ia, lowering(db), Iq)),
                (p.gamma, composite(Ia, Ib, lowering(dq))))
    I = sp.identity(H.dim, format="csr")
    Hs = sp.csr_matrix(H.matrix)
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


def fresh_env(**variables: str) -> dict:
    """Environment for a fresh interpreter that imports the polariton under
    test, with ``variables`` set."""
    src = str(Path(polariton.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **variables)
