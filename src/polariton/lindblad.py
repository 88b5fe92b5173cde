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
Each sweep moves weight one excitation down, so weight on the top manifold
(11 excitations at cutoff 5) takes about 11 sweeps to drain.  The sum
therefore starts from states graded by excitation number, with weight x^n
on a Fock state of n excitations, and the shipped operating points
converge in 7-13 sweeps.  Two such starts run side by side; a degenerate
null space whose sector starts at m <= 3 excitations makes them disagree,
and the LU fallback then counts the zero modes.
The sweeps write into work arrays allocated once per solve: at cutoff 5
arrays made per sweep lie above glibc's mmap threshold and would be
mapped, and page-faulted, afresh on every sweep.  Where the sum is unsafe
(an undamped pair of H_eff eigenstates, an ill-conditioned eigenbasis,
slow or no convergence, or a failed residual check) the solve falls back
to a sparse LU of the vectorised Liouvillian with one row replaced by the
trace constraint, refined twice with its own factor.

Operators are plain complex arrays.  A :class:`Liouvillian` and a
:class:`DensityMatrix` each carry the :class:`TruncationConfig` of their
space, so a state names the layout its mode operators are built on.  A
:class:`Liouvillian` holds H_eff and the jump operators.  It applies
L[X] by d x d products and takes its Frobenius norm from d x d inner
products, since <A (x) B, C (x) D> = <A, C><B, D>; so the residual check
of a steady state, relative to ||L||, needs no superoperator.  The sparse
d^2 x d^2 matrix is assembled on its first use, by the LU fallback, the
zero-mode count or propagation, and kept; a jump-free steady state never
builds it.

Propagation integrates Hermitian states on their real form.  A Hermitian
X = S + iK (S symmetric, K antisymmetric, both real) has d^2 real
parameters, collected in R = S + K; L keeps X Hermitian, so dR/dt = G R
with a real d^2 x d^2 generator G built once per Liouvillian.  G is
constant, so each step applies the Taylor series of e^{hG} (Al-Mohy and
Higham, SIAM J. Sci. Comput. 33, 488 (2011)), and the samples inside the
step are read from its terms.  scipy is imported inside the functions that
call it, so that importing the package costs no scipy start-up, and the
spectrum command and jump-free sweeps never load it.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import (IntegrationError, NonUniqueSteadyStateError, ParameterError,
                     SteadyStateError)
from .hilbert import TruncationConfig
from .model import SystemParams, _bare_ops

#: Relative residual bound for accepted steady states, ||L rho|| <= RTOL ||L||.
STEADY_RTOL = 1e-10
#: Singular values of L below this fraction of the norm scale count as zero modes.
ZERO_MODE_RTOL = 1e-8
#: An LU pivot at or below this fraction of the largest one triggers a zero-mode
#: count.  Measured smallest-to-largest pivot ratios at cutoffs 3 to 6: 1e-17
#: to 1.1e-10 with a degenerate null space, 5.9e-3 and above without.
LU_PIVOT_RTOL = 1e-6
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
#: Weight x per excitation of the jump-order sum's starts.  It sets which
#: degenerate null spaces the start-agreement check sees (sectors from m <= 3
#: excitations, see _sum_jump_orders); a smaller x needs that bound re-derived.
START_GRADING = 1e-3
#: Why the jump-order sum gives way to the LU when its two starts disagree.
TWO_STEADY_STATES = "starts reach different steady states"
#: Sweeps after which an unconverged sum gives way to the LU.
MAX_SWEEPS = 100
#: Convergence of the defect correction, relative to its own largest entry.
CORRECTION_RTOL = 1e-6
#: A propagation step stops its Taylor series after two consecutive terms
#: below this fraction of the largest entry of the state at the step's start.
TAYLOR_RTOL = 1e-12
#: Terms a propagation step aims for; the step size is moved toward it.
TAYLOR_TERMS = 16
#: A step that needs more terms than this is retried at half the size.
MAX_TAYLOR_TERMS = 40

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state of the composite system.

    Construction stores a read-only complex copy of the matrix as given,
    after checking its side against ``cfg``; solver routines hermitise
    before constructing.  The state names its truncation so that the mode
    operators read from it match its layout.
    """

    matrix: np.ndarray
    cfg: TruncationConfig

    def __post_init__(self):
        self.cfg.check_operator(self.matrix, "density matrix")
        mat = np.array(self.matrix, dtype=complex)
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T))[0])


class Liouvillian:
    """Lindblad generator of the master equation on the composite space of
    ``cfg``, held as H_eff and the jump operators; the sparse d^2 x d^2
    matrix is assembled on first use."""

    def __init__(self, hamiltonian: np.ndarray, collapse_ops: Sequence[tuple[float, np.ndarray]],
                 cfg: TruncationConfig):
        self.cfg = cfg
        #: (kappa_k, J_k, J_k') of each channel with a nonzero rate.
        self._jumps = [(rate, J, J.conj().T) for rate, J in collapse_ops if rate > 0]
        #: H_eff = H - (i/2) sum_k kappa_k J_k'J_k, the generator of jump-free evolution.
        self.h_eff = hamiltonian - 0.5j * sum(rate * J_h @ J for rate, J, J_h in self._jumps)

    def _kron_terms(self, H_eff: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """The pairs (A_m, B_m) of L = sum_m A_m (x) B_m =
        -i(H_eff (x) I - I (x) H_eff*) + sum_k kappa_k J_k (x) J_k*."""
        eye = np.eye(self.cfg.dim)
        return ([(-1j * H_eff, eye), (eye, 1j * H_eff.conj())]
                + [(rate * J, J.conj()) for rate, J, _ in self._jumps])

    @cached_property
    def norm(self) -> float:
        """Frobenius norm of the superoperator, from d x d inner products:
        ||sum_m A_m (x) B_m||^2 = sum_mn <A_m, A_n><B_m, B_n>.  H_eff enters
        less its mean real diagonal, which leaves L unchanged and keeps the
        commutator's cross term from cancelling against its squares."""
        d = self.cfg.dim
        terms = self._kron_terms(self.h_eff - np.trace(self.h_eff).real / d * np.eye(d))
        A = np.array([a.ravel() for a, _ in terms])
        B = np.array([b.ravel() for _, b in terms])
        return float(np.sqrt(np.sum((A.conj() @ A.T) * (B.conj() @ B.T)).real))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """L[rho] = -i(H_eff rho - rho H_eff') + sum_k kappa_k J_k rho J_k'."""
        rho = np.asarray(rho, dtype=complex)
        out = -1j * (self.h_eff @ rho - rho @ self.h_eff.conj().T)
        for rate, J, J_h in self._jumps:
            out += rate * (J @ rho @ J_h)
        return out

    @cached_property
    def matrix(self) -> "scipy.sparse.csr_matrix":
        """The superoperator on row-major vec rho, written in one pass from the
        nonzeros of each :meth:`_kron_terms` factor; coinciding entries are summed."""
        import scipy.sparse as sp
        rows, cols, vals = (np.concatenate(parts) for parts in
                            zip(*(_kron_entries(a, b) for a, b in self._kron_terms(self.h_eff))))
        L = sp.csr_matrix((vals, (rows, cols)), shape=(self.cfg.dim ** 2,) * 2)
        L.eliminate_zeros()
        return L

    @cached_property
    def real_generator(self) -> "scipy.sparse.csr_matrix":
        """:func:`_real_generator` of this Liouvillian, built once."""
        return _real_generator(self)


def _kron_entries(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of the nonzeros of kron(A, B), B square."""
    ai, aj = np.nonzero(A)
    bi, bj = np.nonzero(B)
    d = B.shape[0]
    return ((ai[:, None] * d + bi).ravel(), (aj[:, None] * d + bj).ravel(),
            np.outer(A[ai, aj], B[bi, bj]).ravel())


def build_liouvillian(H: np.ndarray, p: SystemParams, cfg: TruncationConfig) -> Liouvillian:
    """Lindblad generator for H on the space of ``cfg`` with decay channels
    sqrt(kappa_a) a, sqrt(kappa_b) b, sqrt(gamma) sigma_-; its matrix is
    assembled on first use."""
    cfg.check_operator(H, "Hamiltonian")
    herm_defect = np.linalg.norm(H - H.conj().T)
    if herm_defect > 1e-12 * max(1.0, np.linalg.norm(H)):
        raise ParameterError(f"Hamiltonian is not Hermitian (defect {herm_defect:.2e})")
    a, b, sm = _bare_ops(cfg)
    return Liouvillian(H, [(float(p.kappa_a), a), (float(p.kappa_b), b), (float(p.gamma), sm)],
                       cfg)


def _count_zero_modes(L: Liouvillian, k: int = 2) -> tuple[int, np.ndarray]:
    """Count eigenvalues of L with magnitude below the zero-mode tolerance."""
    import scipy.sparse.linalg as spla
    scale = max(L.norm, 1e-300)
    sigma = 1e-6 * scale / L.cfg.dim  # small positive shift; L has no eigenvalue there
    try:
        vals = spla.eigs(L.matrix, k=k, sigma=sigma, which="LM",
                         return_eigenvectors=False)
    except Exception:  # ARPACK failure on tiny/degenerate problems
        vals = np.linalg.eigvals(L.matrix.toarray())
        vals = vals[np.argsort(np.abs(vals))][:k]
    n_zero = int(np.sum(np.abs(vals) < ZERO_MODE_RTOL * scale))
    return n_zero, np.asarray(vals)


def _sum_jump_orders(L: Liouvillian) -> tuple[Optional[np.ndarray], int, float, str, int]:
    """Steady state of L summed over quantum-jump orders.

    In the eigenbasis H_eff = V diag(lam) V^-1 the sweep rho <- -S^-1 J[rho]
    reads Y <- -(sum_k K_k Y K_k') / D with K_k = sqrt(kappa_k) V^-1 J_k V,
    D_ij = -i(lam_i - conj(lam_j)) and rho = V Y V'.  Each sweep is
    hermitised and trace-normalised.  The sum starts from diag(w), with
    w = x^n for a Fock state of n excitations and x = START_GRADING, since
    each sweep lowers the excitation number by one and weight put on the
    top manifold takes as many sweeps to drain.  A second start,
    diag(w * (1, ..., d)), runs beside it: a degenerate null space makes the
    two limits differ.  A steady state confined to a conserved sector whose
    lowest state holds m excitations enters both starts at about x^m, so the
    check (to STEADY_RTOL) sees it for m <= 3 at x = 1e-3; every degeneracy
    these parameters can build has such a sector at m = 1 (an undamped,
    decoupled qubit, phonon, or photon-qubit pair).  A defect correction
    follows the sweeps.  Both loops write into work arrays allocated once
    per call.  Returns (rho or None, sweeps, last contraction ratio, reason
    for None, defect-correction sweeps).
    """
    try:
        lam, V = np.linalg.eig(L.h_eff)
        V_inv = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        return None, 0, np.nan, "H_eff not diagonalisable", 0
    denom = -1j * (lam[:, None] - lam.conj()[None, :])
    if np.abs(denom).min() <= UNDAMPED_RTOL * np.abs(lam).max():
        return None, 0, np.nan, "undamped pair of H_eff eigenstates", 0
    if np.linalg.cond(V) > MAX_EIGENBASIS_COND:
        return None, 0, np.nan, "ill-conditioned H_eff eigenbasis", 0
    K = np.array([np.sqrt(rate) * (V_inv @ J @ V) for rate, J, _ in L._jumps])[:, None]
    K_h = K.conj().swapaxes(-1, -2)
    gram = V.conj().T @ V  # Tr(V Y V') = Tr(gram Y)
    d = L.cfg.dim
    KY, KYK = np.empty((2, len(K), 2, d, d), dtype=complex)  # K Y and K Y K' per jump and start

    def one_jump(Y: np.ndarray, out: np.ndarray) -> None:  # out = -S^-1 J[Y], in the eigenbasis
        n = len(Y)
        np.matmul(K, Y, out=KY[:, :n])
        np.matmul(KY[:, :n], K_h, out=KYK[:, :n])
        np.sum(KYK[:, :n], axis=0, out=out)
        np.negative(out, out=out)
        out /= denom

    def trace(Y: np.ndarray) -> np.ndarray:
        return np.einsum("ij,nji->n", gram, Y)[:, None, None]

    w = START_GRADING ** np.array([label.excitations for label in L.cfg.labels()], dtype=float)
    starts = np.array([np.diag(w), np.diag(w * np.arange(1.0, d + 1))], dtype=complex)
    Y = V_inv @ starts @ V_inv.conj().T
    new, scratch = np.empty_like(Y), np.empty_like(Y)
    change, ratio = np.inf, np.nan
    for sweep in range(1, MAX_SWEEPS + 1):
        one_jump(Y, new)
        np.conjugate(new.swapaxes(-1, -2), out=scratch)
        new += scratch
        new *= 0.5
        new /= trace(new).real
        np.subtract(new, Y, out=scratch)
        prev, change = change, np.abs(scratch).max() / np.abs(new).max()
        ratio = change / prev
        Y, new = new, Y
        if change <= SWEEP_RTOL:
            break
    else:
        return None, MAX_SWEEPS, ratio, "jump-order sum did not converge", 0
    if ratio > MAX_CONTRACTION:
        return None, sweep, ratio, "slow contraction", 0
    if np.abs(Y[-1] - Y[0]).max() > STEADY_RTOL * np.abs(Y[0]).max():
        return None, sweep, ratio, TWO_STEADY_STATES, 0
    # The dense transforms leave an error near machine epsilon on every
    # entry, which swamps the smallest populations: without a correction,
    # four-boson moments are off by up to 3e-8 relative.  One defect
    # correction restores them: the residual L[rho] is sparse in the Fock
    # basis and keeps their scale, and the same sweeps solve
    # L[delta] = -L[rho] with Tr delta = 0.
    Y = Y[:1]
    rho = V @ Y[0] @ V.conj().T
    source = -(V_inv @ L.apply(rho) @ V_inv.conj().T) / denom
    delta, new, spare, scratch = source[None], new[:1], new[1:], scratch[:1]
    for correction in range(1, MAX_SWEEPS + 1):
        one_jump(delta, new)
        new += source
        np.multiply(trace(new), Y, out=scratch)
        new -= scratch
        np.subtract(new, delta, out=scratch)
        done = np.abs(scratch).max() <= CORRECTION_RTOL * np.abs(new).max()
        delta, new, spare = new, spare, new
        if done:
            return rho + V @ delta[0] @ V.conj().T, sweep, ratio, "", correction
    return None, sweep, ratio, "defect correction did not converge", MAX_SWEEPS


def _accept(L: Liouvillian, mat: np.ndarray) -> Optional[tuple[DensityMatrix, float]]:
    """Hermitised, unit-trace state and its relative residual ||L[rho]|| / ||L||,
    from d x d products, if it is below STEADY_RTOL."""
    mat = 0.5 * (mat + mat.conj().T)
    tr = np.trace(mat).real
    if abs(tr) < 1e-300:
        return None
    mat = mat / tr
    residual = np.linalg.norm(L.apply(mat)) / max(L.norm, 1.0)
    if residual > STEADY_RTOL:
        return None
    return DensityMatrix(mat, L.cfg), float(residual)


def _lu_steady_state(L: Liouvillian, suspect: bool = False) -> tuple[DensityMatrix, float]:
    """Sparse LU of L with its first row replaced by the trace constraint.

    Two steps of iterative refinement with the same factor give the
    smallest populations their relative accuracy.  A zero column (an
    undamped coherence that nothing feeds), a small pivot, a failed solve
    or ``suspect`` (the jump-order sum found two steady states) triggers an
    explicit count of near-zero modes, so a degenerate null space raises
    NonUniqueSteadyStateError: its residual check cannot, since every state
    in the null space passes it.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    d = L.cfg.dim
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
            suspicious = suspect or udiag.min() <= LU_PIVOT_RTOL * udiag.max()
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
    residual check against L and be positive.  A degenerate
    null space raises :class:`NonUniqueSteadyStateError` instead of
    returning one of many steady states.  One debug line on this module's
    logger names the path taken, the sweeps, the defect-correction sweeps,
    the last contraction ratio and the relative residual.
    """
    mat, sweeps, ratio, reason, corrections = _sum_jump_orders(L)
    result = _accept(L, mat) if mat is not None else None
    path = "jump-free"
    if result is None:
        path = f"LU ({reason or 'jump-free residual check failed'})"
        result = _lu_steady_state(L, suspect=reason == TWO_STEADY_STATES)
    rho, residual = result
    mineig = rho.min_eigenvalue()
    if mineig < -1e-10:
        raise SteadyStateError(f"steady state not positive: min eigenvalue {mineig:.2e}")
    _log.debug("steady state via %s: %d sweeps, %d correction sweeps, contraction ratio %.3g, "
               "relative residual %.2e", path, sweeps, corrections, ratio, residual)
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
    d = L.cfg.dim
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

    A step sums R(t + h) = e^{hG} R(t) as v_0 = R(t), v_k = (h/k) G v_{k-1}.
    Inside it the series is the polynomial sum_k theta^k v_k in
    theta = (tau - t)/h, so its samples cost no products: they are Horner
    sums of the terms, projected onto the readout first.

    Returns readout @ vec R(t) on the grid (R = :func:`_real_form` of X), or
    vec R(t) itself without a readout.  One debug line on this module's logger
    gives G's nonzeros, samples, products, accepted and rejected steps and time.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise IntegrationError("t_grid must be a non-empty 1-d sequence")
    if t_grid[0] < 0 or np.any(np.diff(t_grid) <= 0):
        raise IntegrationError("t_grid must be increasing and start at t >= 0")
    mat0 = np.asarray(mat0, dtype=complex)
    if not np.isfinite(mat0).all():
        raise IntegrationError("start state has non-finite entries")
    defect = np.abs(mat0 - mat0.conj().T).max()
    if defect > 1e-12 * np.abs(mat0).max():
        raise IntegrationError(f"start state is not Hermitian (defect {defect:.2e})")
    y = _real_form(mat0).reshape(-1)
    project = (lambda v: v) if readout is None else (lambda v: readout @ v)
    if t_grid[-1] == 0.0:
        return project(y)[:, None]
    start = time.perf_counter()
    G = L.real_generator
    out = np.empty((project(y).size, t_grid.size))
    h = 1.0 / max(float(abs(G).sum(axis=1).max()), 1e-300)  # 1/||G||_inf
    t = done = products = steps = rejected = 0
    while done < t_grid.size:
        step = min(h, t_grid[-1] - t)
        if not t + step > t:  # underflow, or a non-finite G
            raise IntegrationError(f"master-equation propagation found no step size at t = {t}")
        tol = TAYLOR_RTOL * np.abs(y).max()
        v, end, terms, small = y, y.copy(), [project(y)], 0
        for k in range(1, MAX_TAYLOR_TERMS + 1):
            v = G @ v
            v *= step / k
            end += v
            terms.append(project(v))
            small = small + 1 if np.abs(v).max() <= tol else 0
            if small == 2:
                break
        products += k
        if small < 2:
            rejected += 1
            h = step / 2
            continue
        steps += 1
        t_next = t + step if step < t_grid[-1] - t else t_grid[-1]
        upto = int(np.searchsorted(t_grid, t_next, side="right"))
        if upto > done:
            theta, value = (t_grid[done:upto] - t) / step, 0.0
            for term in reversed(terms):
                value = value * theta + term[:, None]
            out[:, done:upto], done = value, upto
        y, t, h = end, t_next, step * min(2.0, max(0.5, TAYLOR_TERMS / k))
    _log.debug("propagated %d samples on the real form: G nnz %d, %d matrix-vector products, "
               "%d accepted and %d rejected steps, %.3f s", t_grid.size, G.nnz, products,
               steps, rejected, time.perf_counter() - start)
    return out
