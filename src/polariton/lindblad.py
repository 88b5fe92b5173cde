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
converge in 7-13 sweeps.  When kappa_a, kappa_b and gamma are all positive
the steady state is unique (see :func:`build_liouvillian`) and one start
suffices.  When a channel is undamped a second start runs beside the
first; a degenerate null space whose sector starts at m <= 3 excitations
makes them disagree, and the LU fallback then counts the zero modes.
The sweeps write into work arrays allocated once per solve: at cutoff 5
arrays made per sweep lie above glibc's mmap threshold and would be
mapped, and page-faulted, afresh on every sweep.  Where the sum is unsafe
(an undamped pair of H_eff eigenstates, an ill-conditioned eigenbasis,
slow or no convergence, or a state that fails :func:`certify`, the
residual and positivity checks) the solve falls back to a sparse LU of
the vectorised Liouvillian with one row replaced by the trace
constraint, refined twice with its own factor.

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
with a real d^2 x d^2 generator G that has the spectrum of L.  That
spectrum is a thin strip: its imaginary extent is about the largest
coherence frequency |Im D_ij| of H_eff, while its real part lies in
[-Gamma_max, 0], with Gamma_max the largest diagonal entry of
sum_k kappa_k J_k'J_k.  An ellipse around the strip, with centre c and
foci c +/- i f, turns e^{hG} into a Chebyshev series in (G - c)/f whose
coefficients are Bessel functions J_k(hf) (Tal-Ezer and Kosloff, J. Chem.
Phys. 81, 3967 (1984)).  A step takes about hf products, plus a tail of
about 60 at hf = 250; a Taylor series, whose steps must cover a disk
around the strip, took 1.5 times as many on the shipped g2(tau) points.
The samples inside a step are read from the same terms, and several start
states share the steps.  scipy is imported inside the functions that call
it, so that importing the package costs no scipy start-up, and the
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
from .hilbert import TruncationConfig, excitation_numbers, lowering
from .model import SystemParams

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
#: A propagation step stops its Chebyshev sum, past k = h f, after two
#: consecutive terms below this fraction of the largest entry of the state at
#: the step's start.
PROPAGATION_RTOL = 1e-12
#: h f of a full propagation step, the argument of its last Bessel
#: coefficient.  Terms grow with it where eigenvalues of L lie near the
#: ellipse: at 400 the guard below halved steps of the A2 preset at g = 4.5,
#: cutoffs 4 and 5; at 250 the largest term of the shipped g2(tau) points at
#: cutoff 5 is 0.14 of the state's largest entry.
CHEBYSHEV_STEP = 250.0
#: A step is halved, for the rest of the run, when a term exceeds this multiple
#: of the largest entry of its start state: the terms then cancel, and the sum
#: loses their digits.  Only an eigenvalue of L outside the ellipse, or close
#: to its edge, makes them grow so.
CHEBYSHEV_GUARD = 1e3
#: The ellipse's imaginary half-height is this multiple of max |Im D_ij|; at
#: the points measured, L's eigenvalues reach up to 2.9% beyond max |Im D_ij|.
ENCLOSURE_MARGIN = 1.05
#: Orders of the Bessel functions that a sum over a step's terms takes at once.
BESSEL_BLOCK = 32

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
                 cfg: TruncationConfig, unique_steady_state: bool = False):
        self.cfg = cfg
        #: True when the steady state is known to be unique, so that the
        #: jump-order sum runs one start; :func:`build_liouvillian` decides it.
        self.unique_steady_state = unique_steady_state
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
    def real_generator(self) -> tuple["scipy.sparse.csr_matrix", float, float]:
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
    assembled on first use.

    With all three rates positive the steady state is unique, whatever the
    Hermitian H.  The support of a steady state is an enclosure, a subspace
    that the dynamics keeps invariant, and an enclosure is invariant under
    every damped jump operator.  a, b and sigma_- commute and are nilpotent
    on the truncated space, so every such subspace holds a common null
    vector of all three, and the only one is |0, 0, g>.  Two orthogonal
    enclosures therefore cannot exist, while a degenerate null space would
    have them (Baumgartner and Narnhofer, J. Phys. A 41, 395303 (2008)).
    """
    cfg.check_operator(H, "Hamiltonian")
    herm_defect = np.linalg.norm(H - H.conj().T)
    if herm_defect > 1e-12 * max(1.0, np.linalg.norm(H)):
        raise ParameterError(f"Hamiltonian is not Hermitian (defect {herm_defect:.2e})")
    rates = (float(p.kappa_a), float(p.kappa_b), float(p.gamma))
    return Liouvillian(H, list(zip(rates, lowering(cfg))), cfg,
                       unique_steady_state=min(rates) > 0)


def _count_zero_modes(L: Liouvillian) -> int:
    """Count the eigenvalues of L, of the two nearest zero, with magnitude
    below the zero-mode tolerance."""
    import scipy.sparse.linalg as spla
    scale = max(L.norm, 1e-300)
    sigma = 1e-6 * scale / L.cfg.dim  # small positive shift; L has no eigenvalue there
    try:
        vals = spla.eigs(L.matrix, k=2, sigma=sigma, which="LM",
                         return_eigenvectors=False)
    except Exception:  # ARPACK failure on tiny/degenerate problems
        vals = np.linalg.eigvals(L.matrix.toarray())
        vals = vals[np.argsort(np.abs(vals))][:2]
    return int(np.sum(np.abs(vals) < ZERO_MODE_RTOL * scale))


def _sum_jump_orders(L: Liouvillian) -> tuple[Optional[np.ndarray], int, float, str, int, int]:
    """Steady state of L summed over quantum-jump orders.

    In the eigenbasis H_eff = V diag(lam) V^-1 the sweep rho <- -S^-1 J[rho]
    reads Y <- -(sum_k K_k Y K_k') / D with K_k = sqrt(kappa_k) V^-1 J_k V,
    D_ij = -i(lam_i - conj(lam_j)) and rho = V Y V'; -1/D is formed once.
    Each sweep is hermitised and trace-normalised by one scale.  The sum
    starts from diag(w), with w = x^n for a Fock state of n excitations and
    x = START_GRADING, since each sweep lowers the excitation number by one
    and weight put on the top manifold takes as many sweeps to drain.

    Where ``L.unique_steady_state`` holds (every channel damped, see
    :func:`build_liouvillian`) that one start is all.  Otherwise a second
    start, diag(w * (1, ..., d)), runs beside it: a degenerate null space
    makes the two limits differ.  A steady state confined to a conserved
    sector whose lowest state holds m excitations enters both starts at
    about x^m, so the check (to STEADY_RTOL) sees it for m <= 3 at
    x = 1e-3; every degeneracy these parameters can build has such a sector
    at m = 1 (an undamped, decoupled qubit, phonon, or photon-qubit pair).

    The eigenbasis is rejected when cond_2(V) > MAX_EIGENBASIS_COND; the
    SVD behind cond_2 runs only when the bound ||V||_F ||V^-1||_F >= cond_2
    exceeds that limit.  A defect correction follows the sweeps.  Both
    loops write into work arrays allocated once per call.  Returns (rho or
    None, sweeps, last contraction ratio, reason for None, defect-correction
    sweeps, starts run), with no start run when it gives way before sweeping.
    """
    try:
        lam, V = np.linalg.eig(L.h_eff)
        V_inv = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        return None, 0, np.nan, "H_eff not diagonalisable", 0, 0
    denom = -1j * (lam[:, None] - lam.conj()[None, :])
    if np.abs(denom).min() <= UNDAMPED_RTOL * np.abs(lam).max():
        return None, 0, np.nan, "undamped pair of H_eff eigenstates", 0, 0
    if (np.linalg.norm(V) * np.linalg.norm(V_inv) > MAX_EIGENBASIS_COND
            and np.linalg.cond(V) > MAX_EIGENBASIS_COND):
        return None, 0, np.nan, "ill-conditioned H_eff eigenbasis", 0, 0
    neg_inv_denom = -1.0 / denom
    K = np.array([np.sqrt(rate) * (V_inv @ J @ V) for rate, J, _ in L._jumps])[:, None]
    K_h = K.conj().swapaxes(-1, -2)
    gram = V.conj().T @ V  # Tr(V Y V') = Tr(gram Y)
    d = L.cfg.dim
    w = START_GRADING ** excitation_numbers(L.cfg)
    starts = [np.diag(w)]
    if not L.unique_steady_state:
        starts.append(np.diag(w * np.arange(1, d + 1)))
    # K Y and K Y K' per jump and start
    KY, KYK = np.empty((2, len(K), len(starts), d, d), dtype=complex)

    def one_jump(Y: np.ndarray, out: np.ndarray) -> None:  # out = -S^-1 J[Y], in the eigenbasis
        n = len(Y)
        np.matmul(K, Y, out=KY[:, :n])
        np.matmul(KY[:, :n], K_h, out=KYK[:, :n])
        np.sum(KYK[:, :n], axis=0, out=out)
        out *= neg_inv_denom

    def trace(Y: np.ndarray) -> np.ndarray:
        return np.einsum("ij,nji->n", gram, Y)[:, None, None]

    Y = V_inv @ np.array(starts, dtype=complex) @ V_inv.conj().T
    new, scratch = np.empty_like(Y), np.empty_like(Y)
    change, ratio = np.inf, np.nan
    for sweep in range(1, MAX_SWEEPS + 1):
        one_jump(Y, new)
        # Tr of the Hermitian part (N + N')/2 is Re Tr N, as gram is Hermitian
        scale = 0.5 / trace(new).real
        np.conjugate(new.swapaxes(-1, -2), out=scratch)
        new += scratch
        new *= scale
        np.subtract(new, Y, out=scratch)
        prev, change = change, np.abs(scratch).max() / np.abs(new).max()
        ratio = change / prev
        Y, new = new, Y
        if change <= SWEEP_RTOL:
            break
    else:
        return None, MAX_SWEEPS, ratio, "jump-order sum did not converge", 0, len(starts)
    if ratio > MAX_CONTRACTION:
        return None, sweep, ratio, "slow contraction", 0, len(starts)
    if len(starts) > 1 and np.abs(Y[-1] - Y[0]).max() > STEADY_RTOL * np.abs(Y[0]).max():
        return None, sweep, ratio, TWO_STEADY_STATES, 0, len(starts)
    # The dense transforms leave an error near machine epsilon on every
    # entry, which swamps the smallest populations: without a correction,
    # four-boson moments are off by up to 3e-8 relative.  One defect
    # correction restores them: the residual L[rho] is sparse in the Fock
    # basis and keeps their scale, and the same sweeps solve
    # L[delta] = -L[rho] with Tr delta = 0.
    Y = Y[:1]
    rho = V @ Y[0] @ V.conj().T
    source = (V_inv @ L.apply(rho) @ V_inv.conj().T)[None]
    source *= neg_inv_denom
    delta, new, spare, scratch = source, new[:1], np.empty_like(source), scratch[:1]
    for correction in range(1, MAX_SWEEPS + 1):
        one_jump(delta, new)
        new += source
        np.multiply(trace(new), Y, out=scratch)
        new -= scratch
        np.subtract(new, delta, out=scratch)
        done = np.abs(scratch).max() <= CORRECTION_RTOL * np.abs(new).max()
        delta, new, spare = new, spare, new
        if done:
            return rho + V @ delta[0] @ V.conj().T, sweep, ratio, "", correction, len(starts)
    return None, sweep, ratio, "defect correction did not converge", MAX_SWEEPS, len(starts)


def certify(L: Liouvillian, mat: np.ndarray) -> tuple[DensityMatrix, float]:
    """The hermitised, unit-trace state of ``mat`` and its relative residual
    ||L[rho]|| / ||L||, from d x d products.

    Raises :class:`SteadyStateError` unless the residual is at most
    STEADY_RTOL and the state is positive, its least eigenvalue at or above
    -1e-10.  Every steady state the package returns passes it, whichever
    way it was found.
    """
    mat = 0.5 * (mat + mat.conj().T)
    tr = np.trace(mat).real
    if abs(tr) < 1e-300:
        raise SteadyStateError("state has zero trace")
    mat = mat / tr
    residual = float(np.linalg.norm(L.apply(mat)) / max(L.norm, 1.0))
    if not residual <= STEADY_RTOL:
        raise SteadyStateError(f"relative residual {residual:.2e} above {STEADY_RTOL:.0e}")
    rho = DensityMatrix(mat, L.cfg)
    mineig = rho.min_eigenvalue()
    if mineig < -1e-10:
        raise SteadyStateError(f"steady state not positive: min eigenvalue {mineig:.2e}")
    return rho, residual


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
    suspicious, result, failure = True, None, "the LU solve failed"
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
            result = certify(L, x.reshape(d, d))
        except RuntimeError:
            suspicious = True
        except SteadyStateError as exc:
            failure = f"the LU solve failed its certificate: {exc}"
    if result is None or suspicious:
        n_zero = _count_zero_modes(L)
        if n_zero >= 2:
            raise NonUniqueSteadyStateError(
                f"{n_zero} near-zero modes: the steady state is not unique")
        if n_zero == 0:
            raise SteadyStateError(
                "no eigenvalue below the zero-mode tolerance; cannot converge "
                "to a steady state")
    if result is None:
        raise SteadyStateError(failure)
    return result


def steady_state(L: Liouvillian) -> DensityMatrix:
    """Solve L[rho] = 0 with Tr rho = 1.

    Sums quantum-jump orders (see the module docstring) and falls back to
    the sparse LU when that is unsafe or its state fails :func:`certify`;
    the LU's state must pass it too.  A degenerate
    null space raises :class:`NonUniqueSteadyStateError` instead of
    returning one of many steady states.  One debug line on this module's
    logger names the path taken, the sweeps, the defect-correction sweeps,
    the last contraction ratio, the relative residual and the number of
    starts the jump-order sum ran (0 when it gave way before sweeping).
    """
    mat, sweeps, ratio, reason, corrections, starts = _sum_jump_orders(L)
    result, path = None, f"LU ({reason})"
    if mat is not None:
        try:
            result, path = certify(L, mat), "jump-free"
        except SteadyStateError as exc:
            path = f"LU (jump-free {exc})"
    if result is None:
        result = _lu_steady_state(L, suspect=reason == TWO_STEADY_STATES)
    rho, residual = result
    _log.debug("steady state via %s: %d sweeps, %d correction sweeps, contraction ratio %.3g, "
               "relative residual %.2e, %d start%s", path, sweeps, corrections, ratio, residual,
               starts, "" if starts == 1 else "s")
    return rho


def _real_form(X: np.ndarray) -> np.ndarray:
    """R = Re X + Im X: for Hermitian X its symmetric part is Re X and its
    antisymmetric part Im X, so X = (R + R^T)/2 + i(R - R^T)/2."""
    return X.real + X.imag


def _real_generator(L: Liouvillian) -> tuple["scipy.sparse.csr_matrix", float, float]:
    """The real form's generator G, dR/dt = G R, as (W, c, f) with
    W = 2(G - c)/f, the operator of the Chebyshev recurrence in
    :func:`_propagate`.

    With vec X = A vec R for A = (I + P)/2 + i(I - P)/2 and P the
    transposition of row-major vec, G = Re(L A) + Im(L A) = Re L + (Im L) P.
    Its spectrum, that of L, lies in the rectangle [-Gamma_max, 0] x [-F, F],
    with F = ENCLOSURE_MARGIN max |Im D_ij|.  The ellipse around it passes
    through the rectangle's corners with real semi-axis Gamma_max, twice the
    rectangle's, so its imaginary semi-axis is 2F / sqrt(3), its centre
    c = -Gamma_max / 2 and its foci c +/- i f with f^2 = 4F^2/3 - Gamma_max^2.
    A wider ellipse costs more products per unit time; on the shipped
    bundles a narrower one lets slow, fast-rotating eigenvalues of L escape
    it and sets off the step guard of :func:`_propagate`.  Where damping
    outweighs the coherent frequencies, F is raised to Gamma_max, which keeps
    the foci on the imaginary axis.  W is written in one pass, with no G
    beside it.
    """
    import scipy.sparse as sp
    d = L.cfg.dim
    lam = np.linalg.eigvals(L.h_eff)
    loss = np.zeros(d)  # the diagonal of sum_k kappa_k J_k'J_k
    for rate, J, _ in L._jumps:
        loss += rate * np.einsum("ij,ij->j", J.conj(), J).real
    gamma_max = float(loss.max())
    # D_ij = -i(lam_i - conj(lam_j)) has imaginary part Re lam_j - Re lam_i
    half_height = max(ENCLOSURE_MARGIN * float(np.ptp(lam.real)), gamma_max, 1e-12)
    centre = -gamma_max / 2
    focal = float(np.sqrt(4 * half_height ** 2 / 3 - gamma_max ** 2))
    M = L.matrix.tocoo()
    diag = np.arange(d * d, dtype=M.col.dtype)
    swap = diag.reshape(d, d).T.ravel()
    data = np.concatenate([M.data.real, M.data.imag, np.full(d * d, -centre)])
    data *= 2 / focal
    W = sp.csr_matrix((data, (np.concatenate([M.row, M.row, diag]),
                              np.concatenate([M.col, swap[M.col], diag]))), shape=M.shape)
    W.eliminate_zeros()
    return W, centre, focal


def _bessel_series(x: np.ndarray, n_terms: int, terms: Optional[np.ndarray] = None) -> np.ndarray:
    """J_k(x_s) for k < n_terms and each x_s >= 0, a (len(x), n_terms) table,
    or with ``terms`` (n_terms rows) the sums sum_k J_k(x_s) terms[k], a
    (len(x),) + terms.shape[1:] array.

    Miller's backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1} starts at
    zero past both the last order and x, and J_0 + 2 sum_k J_2k = 1
    normalises it.  The sums are taken on the way down, BESSEL_BLOCK orders
    at a time, so that no table of all orders is held.  A row that grows
    past 1e200 is scaled back with its partial sums.
    """
    x = np.asarray(x, dtype=float)
    tiny = x < 1e-100  # J_k(x) = [k == 0] to within x^2
    inv = 2.0 / np.where(tiny, 1.0, x)
    x_max = float(x.max())
    top = int(max(n_terms, x_max + 10 * x_max ** (1 / 3))) + 30
    later, current = np.zeros(x.size), np.where(tiny, 0.0, 1e-30)  # J_{k+1}, J_k at k = top
    norm = np.zeros(x.size)
    if terms is None:
        table, width = np.zeros((x.size, n_terms)), n_terms
    else:
        flat = terms.reshape(n_terms, -1)
        table, width = np.empty((x.size, BESSEL_BLOCK)), BESSEL_BLOCK
        sums = np.zeros((x.size, flat.shape[1]))
    for k in range(top, -1, -1):
        if k < n_terms:
            table[:, k % width] = current
            if terms is not None and k % width == 0:  # orders k to k + width - 1 are in
                n = min(width, n_terms - k)
                sums += table[:, :n] @ flat[k:k + n]
        if k % 2 == 0:
            norm += current if k == 0 else 2 * current
        if k:
            later, current = current, k * inv * current - later
            if np.abs(current).max() > 1e200:
                big = np.abs(current) > 1e200
                for arr in (later, current, norm, table) + (() if terms is None else (sums,)):
                    arr[big] *= 1e-200
    scale = 1.0 / np.where(tiny, 1.0, norm)
    if terms is None:
        table *= scale[:, None]
        table[tiny, 0] = 1.0  # the recurrence left these rows at zero
        return table
    sums *= scale[:, None]
    sums[tiny] = flat[0]
    return sums.reshape((x.size,) + terms.shape[1:])


def _propagate(starts: np.ndarray, L: Liouvillian, t_grid: Sequence[float],
               readouts: Optional[np.ndarray] = None) -> np.ndarray:
    """Integrate dX/dt = L[X] from t=0 for a stack of Hermitian X, in lockstep,
    on their real form.

    With G = c + (f/2) W from :func:`_real_generator`, a step of length h
    sums e^{hG} v = e^{hc} [J_0(hf) v + sum_{k>=1} J_k(hf) Q_k] with Q_0 = 2v,
    Q_1 = Wv and Q_{k+1} = W Q_k + Q_{k-1} (Tal-Ezer and Kosloff).  The
    starts share the steps and the Bessel coefficients; each takes one
    product per term.  Past k = hf the sum stops once two consecutive terms
    e^{hc} |J_k(hf)| max|Q_k| fall below PROPAGATION_RTOL of max|v|, and a
    term above CHEBYSHEV_GUARD max|v| halves the step, for good.  A sample
    at t + s inside the step is e^{sc} [J_0(sf) v + sum_k J_k(sf) Q_k], read
    from the terms projected onto each start's readout
    (:func:`_bessel_series`), so memory does not grow with the grid.

    Returns the (starts, samples) array readouts[j] . vec R_j(t), with R_j
    the :func:`_real_form` of X_j, or without readouts the (starts, d^2,
    samples) array vec R_j(t), for which the step's unprojected terms are
    held.  One debug line on this module's logger gives the nonzeros of W,
    samples, products, accepted and rejected steps and time.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise IntegrationError("t_grid must be a non-empty 1-d sequence")
    if t_grid[0] < 0 or np.any(np.diff(t_grid) <= 0):
        raise IntegrationError("t_grid must be increasing and start at t >= 0")
    # built first, so that its temporaries do not stack on the arrays below
    W, centre, focal = L.real_generator
    starts = np.asarray(starts, dtype=complex)
    if not np.isfinite(starts).all():
        raise IntegrationError("start state has non-finite entries")
    defect = np.abs(starts - starts.conj().swapaxes(-1, -2)).max(axis=(-1, -2))
    if np.any(defect > 1e-12 * np.abs(starts).max(axis=(-1, -2))):
        raise IntegrationError(f"start state is not Hermitian (defect {defect.max():.2e})")
    # columns are the starts, so one sparse product serves all of them
    y = np.ascontiguousarray(_real_form(starts).reshape(len(starts), -1).T)
    if readouts is None:
        project = lambda v: v  # noqa: E731
    else:  # a number operator's real form has about one nonzero per basis state
        readouts = np.asarray(readouts, dtype=float)
        rows = np.flatnonzero(readouts.any(axis=0))
        weights = np.ascontiguousarray(readouts[:, rows].T)
        project = lambda v: (weights * v[rows]).sum(axis=0)  # noqa: E731
    out = np.empty(project(y).shape + (t_grid.size,))
    if t_grid[-1] == 0.0:
        out[..., 0] = project(y)
        return np.moveaxis(out, 0, -2) if readouts is None else out
    if not np.isfinite(W.data).all():
        raise IntegrationError("master-equation propagation found no step size: "
                               "the generator has non-finite entries")
    start = time.perf_counter()
    h = CHEBYSHEV_STEP / focal
    coefs, coefs_step, scratch, scale = None, None, np.empty_like(y), np.ones(y.shape[1])
    t = done = products = steps = rejected = 0
    while done < t_grid.size:
        step = min(h, t_grid[-1] - t)
        if not t + step > t:  # underflow
            raise IntegrationError(f"master-equation propagation found no step size at t = {t}")
        if step != coefs_step:
            n_max = int(step * focal + 10 * (step * focal) ** (1 / 3) + 40)
            coefs = np.exp(step * centre) * _bessel_series(np.array([step * focal]), n_max + 1)[0]
            coefs_step = step
        # each start is held at a largest entry of 1, its scale apart, so that
        # one maximum over the block tests every start's terms against its own
        size = np.abs(y).max(axis=0)
        size[size == 0] = 1.0
        y /= size
        scale *= size
        end, terms, small = coefs[0] * y, [project(y)], 0
        older, newer = 2 * y, W @ y
        for k in range(1, len(coefs)):
            if k > 1:
                following = W @ newer
                following += older
                older, newer = newer, following
            term = abs(coefs[k]) * max(newer.max(), -newer.min())
            if not term <= CHEBYSHEV_GUARD:
                break
            np.multiply(newer, coefs[k], out=scratch)
            end += scratch
            terms.append(project(newer))
            small = small + 1 if k > step * focal and term <= PROPAGATION_RTOL else 0
            if small == 2:
                break
        products += k * y.shape[1]
        if small < 2:
            rejected += 1
            h = step / 2
            continue
        steps += 1
        t_next = t + step if step < t_grid[-1] - t else t_grid[-1]
        upto = int(np.searchsorted(t_grid, t_next, side="right"))
        if upto > done:
            s = t_grid[done:upto] - t
            values = _bessel_series(s * focal, len(terms), np.array(terms) * scale)
            values *= np.exp(s * centre).reshape((-1,) + (1,) * (values.ndim - 1))
            out[..., done:upto], done = np.moveaxis(values, 0, -1), upto
        y, t = end, t_next
    _log.debug("propagated %d samples on the real form: G nnz %d, %d matrix-vector products, "
               "%d accepted and %d rejected steps, %.3f s", t_grid.size, W.nnz, products,
               steps, rejected, time.perf_counter() - start)
    return np.moveaxis(out, 0, -2) if readouts is None else out
