"""Liouvillian construction, steady states, and master-equation propagation.

The master equation is

    drho/dt = -i[H, rho] + kappa_a D[a]rho + kappa_b D[b]rho + gamma D[s-]rho,

with D[O]rho = (2 O rho O' - rho O'O - O'O rho)/2.  Density matrices are
vectorised row-major, so  vec(A rho B) = (A kron B^T) vec(rho).

Steady states are sums over quantum-jump orders.  Split L = S + J into the
jump-free evolution S(X) = -i(H_eff X - X H_eff') under the non-Hermitian
H_eff = H - (i/2) sum_k kappa_k J_k'J_k and the jumps
J(X) = sum_k kappa_k J_k X J_k'.  Then L[rho] = 0 reads rho = -S^-1 J[rho],
and each sweep of that map adds one jump order.  The weak-drive oracle
solves the same jump-free problem up to two excitations; here it is carried
to all orders.  S is diagonal in the eigenbasis of H_eff, so S^-1 is an
entrywise division there and a sweep costs a few dense d x d products.
Where the sum is unsafe (an undamped pair of H_eff eigenstates, an
ill-conditioned eigenbasis, slow or no convergence, or a failed residual
check) the solve falls back to a sparse LU of the vectorised Liouvillian
with one row replaced by the trace constraint, refined twice with its own
factor.

Propagation integrates Hermitian states on their real form.  A Hermitian
X = S + iK (S symmetric, K antisymmetric, both real) has d^2 real
parameters, collected in R = S + K; L keeps X Hermitian, so dR/dt = G R
with a real d^2 x d^2 generator G built once per call from L.  DOP853 on
vec R carries half the numbers of the complex vec X, read out step by step.
scipy is imported inside the functions that call it, so that importing the
package costs no scipy start-up and the spectrum command never loads it.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (IntegrationError, NonUniqueSteadyStateError, ParameterError,
                     SteadyStateError)
from .hilbert import QOperator, TruncationConfig, _freeze_matrix
from .model import SystemParams, _bare_ops

#: Relative residual bound for accepted steady states, ||L rho|| <= RTOL ||L||.
STEADY_RTOL = 1e-10
#: Singular values of L below this fraction of the norm scale count as zero modes.
ZERO_MODE_RTOL = 1e-8
#: Limits of the jump-order sum; outside them the solve falls back to the LU.
#: |lam_i - conj(lam_j)| at or below this fraction of max |lam| is an undamped pair.
UNDAMPED_RTOL = 1e-9
#: Largest accepted condition number of the H_eff eigenvector matrix.
MAX_EIGENBASIS_COND = 1e4
#: Largest accepted ratio of the last two sweep changes.
MAX_CONTRACTION = 0.5
#: The sum has converged when a sweep changes no entry by more than this
#: fraction of the largest one.
SWEEP_RTOL = 1e-14
#: Sweeps after which an unconverged sum gives way to the LU.
MAX_SWEEPS = 100
#: Convergence of the defect correction, relative to its own largest entry.
CORRECTION_RTOL = 1e-6

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state of the composite system.

    Construction stores the matrix as given (read-only); solver routines
    hermitise before constructing.  :meth:`validate` checks the numerical
    invariants explicitly.
    """

    matrix: np.ndarray
    dims: tuple[int, ...] = field(default=())

    __post_init__ = _freeze_matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def expect(self, op: QOperator) -> complex:
        return complex(np.einsum("ij,ji->", self.matrix, op.matrix))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T))[0])

    def hermiticity_defect(self) -> float:
        """Relative Frobenius distance from the Hermitian part."""
        scale = max(1.0, float(np.linalg.norm(self.matrix)))
        return float(np.linalg.norm(self.matrix - self.matrix.conj().T)) / scale

    def validate(self, psd_tol: float = 1e-10, trace_tol: float = 1e-12,
                 herm_tol: float = 1e-12) -> "DensityMatrix":
        """Check Hermiticity, unit trace and numerical positivity; return self."""
        if self.hermiticity_defect() > herm_tol:
            raise SteadyStateError(f"not Hermitian: defect {self.hermiticity_defect():.2e}")
        if abs(self.trace() - 1.0) > trace_tol:
            raise SteadyStateError(f"trace {self.trace()!r} differs from 1")
        mineig = self.min_eigenvalue()
        if mineig < -psd_tol:
            raise SteadyStateError(f"minimum eigenvalue {mineig:.2e} below -{psd_tol:.0e}")
        return self


@dataclass
class Liouvillian:
    """Sparse superoperator of the master equation on a dim^2 space."""

    matrix: "scipy.sparse.csr_matrix"
    dims: tuple[int, ...]
    hamiltonian: QOperator
    collapse_ops: tuple[tuple[float, QOperator], ...]

    def __post_init__(self):
        self._fro = float(np.linalg.norm(self.matrix.data)) if self.matrix.nnz else 0.0

    @property
    def dim(self) -> int:
        """Hilbert-space dimension (the superoperator has side dim^2)."""
        return self.hamiltonian.dim

    @property
    def norm(self) -> float:
        """Frobenius norm of the superoperator matrix."""
        return self._fro

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """L[rho] for a Hilbert-space matrix rho."""
        d = self.dim
        return (self.matrix @ np.asarray(rho, dtype=complex).reshape(-1)).reshape(d, d)


def _effective_hamiltonian(H: QOperator,
                           collapse_ops: Sequence[tuple[float, QOperator]]) -> np.ndarray:
    """H_eff = H - (i/2) sum_k kappa_k J_k'J_k, the generator of jump-free evolution."""
    return H.matrix - 0.5j * sum(rate * J.matrix.conj().T @ J.matrix
                                 for rate, J in collapse_ops if rate > 0)


def _kron_entries(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of the nonzeros of kron(A, B), B square."""
    ai, aj = np.nonzero(A)
    bi, bj = np.nonzero(B)
    d = B.shape[0]
    return ((ai[:, None] * d + bi).ravel(), (aj[:, None] * d + bj).ravel(),
            np.outer(A[ai, aj], B[bi, bj]).ravel())


def build_liouvillian(H: QOperator, p: SystemParams) -> Liouvillian:
    """Assemble the Lindblad superoperator for H with decay channels
    sqrt(kappa_a) a, sqrt(kappa_b) b, sqrt(gamma) sigma_-.

    The matrix is written in one pass as
    L = -i(H_eff (x) I - I (x) H_eff*) + sum_k kappa_k J_k (x) J_k*,
    from the nonzeros of H_eff and of each J_k; coinciding entries are summed.
    """
    import scipy.sparse as sp
    herm_defect = np.linalg.norm(H.matrix - H.matrix.conj().T)
    if herm_defect > 1e-12 * max(1.0, H.norm()):
        raise ParameterError(f"Hamiltonian is not Hermitian (defect {herm_defect:.2e})")
    a, b, sm = _bare_ops(TruncationConfig.from_dims(H.dims))
    collapse = []
    for rate, op in ((p.kappa_a, a), (p.kappa_b, b), (p.gamma, sm)):
        if rate < 0:
            raise ParameterError(f"negative decay rate {rate}")
        collapse.append((float(rate), op))
    H_eff = _effective_hamiltonian(H, collapse)
    eye = np.eye(H.dim)
    terms = [_kron_entries(-1j * H_eff, eye), _kron_entries(eye, 1j * H_eff.conj())]
    terms += [_kron_entries(rate * J.matrix, J.matrix.conj()) for rate, J in collapse if rate > 0]
    rows, cols, vals = (np.concatenate(parts) for parts in zip(*terms))
    L = sp.csr_matrix((vals, (rows, cols)), shape=(H.dim ** 2,) * 2)
    L.eliminate_zeros()
    return Liouvillian(L, H.dims, H, tuple(collapse))


def _count_zero_modes(L: Liouvillian, k: int = 2) -> tuple[int, np.ndarray]:
    """Count eigenvalues of L with magnitude below the zero-mode tolerance."""
    import scipy.sparse.linalg as spla
    scale = max(L.norm, 1e-300)
    sigma = 1e-6 * scale / L.dim  # small positive shift; L has no eigenvalue there
    try:
        vals = spla.eigs(L.matrix, k=k, sigma=sigma, which="LM",
                         return_eigenvectors=False)
    except Exception:  # ARPACK failure on tiny/degenerate problems
        vals = np.linalg.eigvals(L.matrix.toarray())
        vals = vals[np.argsort(np.abs(vals))][:k]
    n_zero = int(np.sum(np.abs(vals) < ZERO_MODE_RTOL * scale))
    return n_zero, np.asarray(vals)


def _sum_jump_orders(L: Liouvillian) -> tuple[Optional[np.ndarray], int, float, str]:
    """Steady state of L summed over quantum-jump orders.

    In the eigenbasis H_eff = V diag(lam) V^-1 the sweep rho <- -S^-1 J[rho]
    reads Y <- -(sum_k K_k Y K_k') / D with K_k = sqrt(kappa_k) V^-1 J_k V,
    D_ij = -i(lam_i - conj(lam_j)) and rho = V Y V'.  Each sweep is
    hermitised and trace-normalised.  A second start, diag(1, ..., d), runs
    beside I/d: a degenerate null space makes the two limits differ.  A
    defect correction follows the sweeps.  Returns (rho or None, sweeps,
    last contraction ratio, reason for None).
    """
    jumps = [(rate, op.matrix) for rate, op in L.collapse_ops if rate > 0]
    H_eff = _effective_hamiltonian(L.hamiltonian, L.collapse_ops)
    try:
        lam, V = np.linalg.eig(H_eff)
        V_inv = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        return None, 0, np.nan, "H_eff not diagonalisable"
    denom = -1j * (lam[:, None] - lam.conj()[None, :])
    if np.abs(denom).min() <= UNDAMPED_RTOL * np.abs(lam).max():
        return None, 0, np.nan, "undamped pair of H_eff eigenstates"
    if np.linalg.cond(V) > MAX_EIGENBASIS_COND:
        return None, 0, np.nan, "ill-conditioned H_eff eigenbasis"
    K = np.array([np.sqrt(rate) * (V_inv @ J @ V) for rate, J in jumps])[:, None]
    K_h = K.conj().swapaxes(-1, -2)
    gram = V.conj().T @ V  # Tr(V Y V') = Tr(gram Y)

    def one_jump(Y: np.ndarray) -> np.ndarray:  # -S^-1 J[Y], a stack in the eigenbasis
        return -(K @ Y @ K_h).sum(axis=0) / denom

    def trace(Y: np.ndarray) -> np.ndarray:
        return np.einsum("ij,nji->n", gram, Y)[:, None, None]

    d = L.dim
    starts = np.array([np.eye(d), np.diag(np.arange(1.0, d + 1))], dtype=complex)
    Y = V_inv @ starts @ V_inv.conj().T
    change, ratio = np.inf, np.nan
    for sweep in range(1, MAX_SWEEPS + 1):
        new = one_jump(Y)
        new = 0.5 * (new + new.conj().swapaxes(-1, -2))
        new /= trace(new).real
        prev, change = change, np.abs(new - Y).max() / np.abs(new).max()
        ratio = change / prev
        Y = new
        if change <= SWEEP_RTOL:
            break
    else:
        return None, MAX_SWEEPS, ratio, "jump-order sum did not converge"
    if ratio > MAX_CONTRACTION:
        return None, sweep, ratio, "slow contraction"
    if np.abs(Y[-1] - Y[0]).max() > STEADY_RTOL * np.abs(Y[0]).max():
        return None, sweep, ratio, "starts reach different steady states"
    # The dense transforms leave an error near machine epsilon on every
    # entry, which swamps the smallest populations: without a correction,
    # four-boson moments are off by up to 3e-8 relative.  One defect
    # correction restores them: the residual L[rho] is sparse in the Fock
    # basis and keeps their scale, and the same sweeps solve
    # L[delta] = -L[rho] with Tr delta = 0.
    Y = Y[:1]
    rho = V @ Y[0] @ V.conj().T
    source = -(V_inv @ L.apply(rho) @ V_inv.conj().T) / denom
    delta = source[None]
    for _ in range(MAX_SWEEPS):
        new = source + one_jump(delta)
        new -= trace(new) * Y
        done = np.abs(new - delta).max() <= CORRECTION_RTOL * np.abs(new).max()
        delta = new
        if done:
            return rho + V @ delta[0] @ V.conj().T, sweep, ratio, ""
    return None, sweep, ratio, "defect correction did not converge"


def _accept(L: Liouvillian, mat: np.ndarray) -> Optional[tuple[DensityMatrix, float]]:
    """Hermitised, unit-trace state and its relative residual, if the
    residual against the assembled L is below STEADY_RTOL."""
    mat = 0.5 * (mat + mat.conj().T)
    tr = np.trace(mat).real
    if abs(tr) < 1e-300:
        return None
    mat = mat / tr
    residual = np.linalg.norm(L.matrix @ mat.reshape(-1)) / max(L.norm, 1.0)
    if residual > STEADY_RTOL:
        return None
    return DensityMatrix(mat, L.dims), float(residual)


def _lu_steady_state(L: Liouvillian) -> tuple[DensityMatrix, float]:
    """Sparse LU of L with its first row replaced by the trace constraint.

    Two steps of iterative refinement with the same factor give the
    smallest populations their relative accuracy.  A zero column (an
    undamped coherence that nothing feeds), a tiny pivot or a failed solve
    triggers an explicit count of near-zero modes, so a degenerate null
    space raises NonUniqueSteadyStateError.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    d = L.dim
    trace_row = sp.csr_matrix((np.ones(d), (np.zeros(d, dtype=int), np.arange(d) * (d + 1))),
                              shape=(1, d * d))
    M = sp.vstack([trace_row, L.matrix[1:]], format="csc")
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    suspicious, result = True, None
    # a zero column makes M exactly singular, and SuperLU prints BLAS
    # argument errors to stdout on its way to saying so: do not factor it
    if np.diff(M.indptr).min() > 0:
        try:
            lu = spla.splu(M)
            udiag = np.abs(lu.U.diagonal())
            suspicious = udiag.min() <= 1e-12 * udiag.max()
            x = lu.solve(rhs)
            for _ in range(2):
                x -= lu.solve(M @ x - rhs)
            result = _accept(L, x.reshape(d, d))
        except RuntimeError:
            suspicious = True
    if result is None or suspicious:
        n_zero, _ = _count_zero_modes(L)
        if n_zero >= 2:
            raise NonUniqueSteadyStateError(
                f"{n_zero} near-zero modes: the steady state is not unique")
        if n_zero == 0:
            raise SteadyStateError(
                "no eigenvalue below the zero-mode tolerance; cannot converge "
                "to a steady state")
    if result is None:
        raise SteadyStateError("steady-state residual check failed for the LU solve")
    return result


def steady_state(L: Liouvillian) -> DensityMatrix:
    """Solve L[rho] = 0 with Tr rho = 1.

    Sums quantum-jump orders (see the module docstring) and falls back to
    the sparse LU when that is unsafe.  Either result must pass the
    residual check against the assembled L and be positive.  A degenerate
    null space raises :class:`NonUniqueSteadyStateError` instead of
    returning one of many steady states.  One debug line on this module's
    logger names the path taken, the sweeps, the last contraction ratio and
    the relative residual.
    """
    mat, sweeps, ratio, reason = _sum_jump_orders(L)
    result = _accept(L, mat) if mat is not None else None
    path = "jump-free"
    if result is None:
        path = f"LU ({reason or 'jump-free residual check failed'})"
        result = _lu_steady_state(L)
    rho, residual = result
    mineig = rho.min_eigenvalue()
    if mineig < -1e-10:
        raise SteadyStateError(f"steady state not positive: min eigenvalue {mineig:.2e}")
    _log.debug("steady state via %s: %d sweeps, contraction ratio %.3g, relative residual %.2e",
               path, sweeps, ratio, residual)
    return rho


def _real_form(X: np.ndarray) -> np.ndarray:
    """R = Re X + Im X: for Hermitian X its symmetric part is Re X and its
    antisymmetric part Im X, so X = (R + R^T)/2 + i(R - R^T)/2."""
    return X.real + X.imag


def _real_generator(L: Liouvillian) -> "scipy.sparse.csr_matrix":
    """The real d^2 x d^2 generator G of the real form, dR/dt = G R.

    With vec X = A vec R for A = (I + P)/2 + i(I - P)/2 and P the
    transposition of row-major vec, G = Re(L A) + Im(L A) = Re L + (Im L) P.
    """
    import scipy.sparse as sp
    d = L.dim
    M = L.matrix.tocoo()
    swap = np.arange(d * d).reshape(d, d).T.ravel()
    G = sp.csr_matrix((np.concatenate([M.data.real, M.data.imag]),
                       (np.concatenate([M.row, M.row]), np.concatenate([M.col, swap[M.col]]))),
                      shape=M.shape)
    G.eliminate_zeros()
    return G


def _propagate(mat0: np.ndarray, L: Liouvillian, t_grid: Sequence[float],
               readout: Optional[np.ndarray] = None) -> np.ndarray:
    """Integrate dX/dt = L[X] from t=0 for a Hermitian X on its real form.

    Returns readout @ vec R(t) on the grid (R = :func:`_real_form` of X), or
    vec R(t) itself without a readout.  One debug line on this module's logger
    gives G's nonzeros, samples, calls, accepted and rejected steps and time.
    """
    from scipy.integrate import DOP853
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise IntegrationError("t_grid must be a non-empty 1-d sequence")
    if t_grid[0] < 0 or np.any(np.diff(t_grid) <= 0):
        raise IntegrationError("t_grid must be increasing and start at t >= 0")
    mat0 = np.asarray(mat0, dtype=complex)
    defect = np.abs(mat0 - mat0.conj().T).max()
    if defect > 1e-12 * np.abs(mat0).max():
        raise IntegrationError(f"start state is not Hermitian (defect {defect:.2e})")
    y0 = _real_form(mat0).reshape(-1)
    project = (lambda v: v) if readout is None else (lambda v: v @ readout.T)
    if t_grid[-1] == 0.0:
        return project(y0)[:, None]
    start = time.perf_counter()
    G = _real_generator(L)
    solver = DOP853(lambda t, y: G @ y, 0.0, y0, float(t_grid[-1]), rtol=1e-9, atol=1e-12)
    out = np.empty((project(y0).size, t_grid.size))
    done = steps = rejected = 0
    try:
        while solver.status == "running":
            calls, message = solver.nfev, solver.step()
            if solver.status == "failed":
                raise IntegrationError(f"master-equation propagation failed: {message}")
            steps += 1
            rejected += (solver.nfev - calls) // solver.n_stages - 1  # n_stages calls an attempt
            upto = int(np.searchsorted(t_grid, solver.t, side="right"))
            if upto > done:  # scipy's Dop853DenseOutput; it is linear in F and y_old
                step = solver.dense_output()
                x, y = ((t_grid[done:upto] - step.t_old) / step.h)[:, None], 0.0
                for i, f in enumerate(project(step.F)[::-1]):
                    y = (y + f) * (x if i % 2 == 0 else 1 - x)
                out[:, done:upto], done = (y + project(step.y_old)).T, upto
        _log.debug("propagated %d samples on the real form: G nnz %d, %d right-hand side calls, "
                   "%d accepted and %d rejected steps, %.3f s", t_grid.size, G.nnz, solver.nfev,
                   steps, rejected, time.perf_counter() - start)
    finally:
        vars(solver).clear()  # its rhs wrappers close over it: free it now, not at the next gc
    return out
