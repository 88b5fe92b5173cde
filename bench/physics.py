"""Reference physics built apart from the program under test.

Everything here is constructed from the paper's definitions with numpy and
scipy only; nothing is imported from ``polariton``.  The checks compare the
CLI's output files against these computations.

Basis: photon (x) phonon (x) qubit, qubit fastest, ``|g> -> 0``, ``|e> -> 1``.
Rates and frequencies are in units of the qubit decay rate gamma = 1.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize_scalar
from scipy.sparse.linalg import expm_multiply

#: Preset parameters (rotating frame) and lab-frame frequencies
#: (omega_smr, omega_m, omega_q) of the paper's three operating regimes.
PRESETS = {
    "A1": (dict(delta_a=-3.0, delta_b=3.0, delta_q=-6.0, f=5.0, g=0.0, eta_a=0.7,
                eta_b=0.0, kappa_a=1.5, kappa_b=6.0, gamma=1.0), (1554.0, 1560.0, 1551.0)),
    "A2": (dict(delta_a=5.0, delta_b=-5.0, delta_q=3.0, f=7.0, g=0.0, eta_a=0.0,
                eta_b=0.5, kappa_a=7.5, kappa_b=6.0, gamma=1.0), (1570.0, 1560.0, 1568.0)),
    "A3": (dict(delta_a=4.0, delta_b=-4.0, delta_q=7.0, f=6.4, g=0.0, eta_a=0.0,
                eta_b=0.22, kappa_a=3.5, kappa_b=0.002, gamma=1.0), (1568.0, 1560.0, 1571.0)),
}


def params(preset: str, **overrides) -> dict:
    """Preset parameters with field overrides applied."""
    return {**PRESETS[preset][0], **overrides}


class System:
    """Operators, Hamiltonian and collapse channels at one Fock cutoff."""

    def __init__(self, p: dict, cutoff: int):
        n = cutoff + 1
        lower = np.diag(np.sqrt(np.arange(1.0, n)), 1)
        eye, eye2 = np.eye(n), np.eye(2)
        sigma = np.array([[0.0, 1.0], [0.0, 0.0]])  # |g><e|
        self.a = np.kron(np.kron(lower, eye), eye2).astype(complex)
        self.b = np.kron(np.kron(eye, lower), eye2).astype(complex)
        self.sm = np.kron(np.kron(eye, eye), sigma).astype(complex)
        a, b, sm = self.a, self.b, self.sm
        ad, bd, sp_ = a.conj().T, b.conj().T, sm.conj().T
        self.H = (p["delta_a"] * ad @ a + p["delta_b"] * bd @ b + p["delta_q"] * sp_ @ sm
                  + p["g"] * (ad @ sm + a @ sp_) + p["f"] * (ad @ b + a @ bd)
                  + p["eta_a"] * (a + ad) + p["eta_b"] * (b + bd))
        self.channels = [(p["kappa_a"], a), (p["kappa_b"], b), (p["gamma"], sm)]
        self.dim = self.H.shape[0]

    def mode(self, name: str) -> np.ndarray:
        """Annihilation operator of mode a, b or the balanced hybrids c, d."""
        return {"a": self.a, "b": self.b,
                "c": (self.a + self.b) / math.sqrt(2.0),
                "d": (self.a - self.b) / math.sqrt(2.0)}[name]

    def lindblad(self, rho: np.ndarray) -> np.ndarray:
        """Right-hand side of the master equation on a d x d matrix."""
        out = -1j * (self.H @ rho - rho @ self.H)
        for rate, J in self.channels:
            JdJ = J.conj().T @ J
            out += rate * (J @ rho @ J.conj().T - 0.5 * (JdJ @ rho + rho @ JdJ))
        return out

    def steady_state(self, tol: float = 1e-14, max_iter: int = 500) -> np.ndarray:
        """Steady state by summing quantum-jump orders.

        With H_eff = H - (i/2) sum_k kappa_k J'J, the no-jump part of the
        Liouvillian S(X) = -i(H_eff X - X H_eff') is inverted entrywise in
        the eigenbasis of H_eff, and rho <- -S^-1(sum_k kappa_k J rho J')
        adds one jump order per sweep (normalised to unit trace).  This is a
        different algorithm from the program's factorisation of the
        vectorised Liouvillian.
        """
        Heff = self.H - 0.5j * sum(rate * J.conj().T @ J for rate, J in self.channels)
        lam, V = np.linalg.eig(Heff)
        Vinv = np.linalg.inv(V)
        denom = -1j * (lam[:, None] - lam.conj()[None, :])
        if np.abs(denom).min() < 1e-9:
            raise RuntimeError("undamped pair of H_eff eigenstates; jump-order sum undefined")
        rho = np.eye(self.dim, dtype=complex) / self.dim
        for _ in range(max_iter):
            jumps = sum(rate * J @ rho @ J.conj().T for rate, J in self.channels)
            new = V @ ((Vinv @ (-jumps) @ Vinv.conj().T) / denom) @ V.conj().T
            new = 0.5 * (new + new.conj().T)
            new /= np.trace(new).real
            converged = np.abs(new - rho).max() < tol
            rho = new
            if converged:
                return rho
        raise RuntimeError(f"jump-order sum did not converge in {max_iter} sweeps")

    def certify(self, rho: np.ndarray) -> list[str]:
        """Problems with rho as the steady state: trace, Hermiticity, PSD, residual."""
        problems = []
        if abs(np.trace(rho) - 1.0) > 1e-12:
            problems.append(f"trace {np.trace(rho):.3e} != 1")
        if np.abs(rho - rho.conj().T).max() > 1e-14:
            problems.append("not Hermitian")
        mineig = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0]
        if mineig < -1e-12:
            problems.append(f"not PSD: min eigenvalue {mineig:.2e}")
        scale = np.linalg.norm(self.H) + sum(rate * np.linalg.norm(J) ** 2
                                             for rate, J in self.channels)
        residual = np.linalg.norm(self.lindblad(rho)) / scale
        if residual > 1e-12:
            problems.append(f"Lindblad residual {residual:.2e}")
        return problems

    def g_k(self, rho: np.ndarray, mode: str, k: int) -> float:
        """Zero-delay k-th order correlation <z'^k z^k> / <z'z>^k."""
        z = self.mode(mode)
        zk = np.linalg.matrix_power(z, k)
        n = np.trace(rho @ z.conj().T @ z).real
        return float(np.trace(rho @ zk.conj().T @ zk).real / n ** k)

    def superoperator(self) -> sp.csr_matrix:
        """Sparse Liouvillian on row-major vec(rho): vec(A X B) = (A kron B^T) vec X."""
        eye = sp.identity(self.dim, format="csr", dtype=complex)
        H = sp.csr_matrix(self.H)
        L = -1j * (sp.kron(H, eye) - sp.kron(eye, H.T))
        for rate, J in self.channels:
            J = sp.csr_matrix(J)
            JdJ = (J.conj().T @ J).tocsr()
            L = L + rate * (sp.kron(J, J.conj()) - 0.5 * (sp.kron(JdJ, eye) + sp.kron(eye, JdJ.T)))
        return L.tocsr()

    def g2_tau(self, rho: np.ndarray, mode: str, taus) -> np.ndarray:
        """g2(tau) by the regression theorem, propagated with expm_multiply."""
        z = self.mode(mode)
        n_op = z.conj().T @ z
        n = np.trace(rho @ n_op).real
        L = self.superoperator()
        x = (z @ rho @ z.conj().T / n).reshape(-1)
        values, t_prev = [], 0.0
        for tau in sorted(taus):
            x = expm_multiply(L * (tau - t_prev), x) if tau > t_prev else x
            t_prev = tau
            values.append(np.trace(n_op @ x.reshape(self.dim, self.dim)).real / n)
        return np.array(values)


def closed_form_g2_b(p: dict) -> float:
    """Weak-drive g2_b = 2|C02g|^2 / |C01g|^4 from the paper's closed forms.

    Valid at a common detuning Delta with kappa_a = kappa_b = kappa; with
    D_k = Delta - i kappa/2 and D_g = Delta - i gamma/2.
    """
    f, g, eta = p["f"], p["g"], p["eta_b"]
    dk = p["delta_a"] - 0.5j * p["kappa_a"]
    dg = p["delta_a"] - 0.5j * p["gamma"]
    dkg = dk + dg
    x1 = dkg ** 2 - f * f
    x2 = dkg * (2 * dk + 5 * dg) - 4 * f * f
    x3 = 2 * dk * (dk * dk - f * f) * x1
    x4 = (3 * dk * dk * dkg + (dk - dg) * f * f) * g * g - dk * g ** 4
    x5 = dk * dk * dg - dg * f * f - dk * g * g
    x6 = 3 * dk * dk + 4 * dk * dg + f * f
    c01g = (dk * dg - g * g) * eta / x5
    c02g = (eta ** 2 * (-2 * dk ** 3 * dg * x1 + dk * dk * x2 * g * g - x6 * g ** 4 + g ** 6)
            / (math.sqrt(2.0) * x5 * (x3 - x4)))
    return 2.0 * abs(c02g) ** 2 / abs(c01g) ** 4


def closed_form_dip(p: dict, lo: float, hi: float) -> float:
    """Common detuning in [lo, hi] where the closed-form g2_b is smallest."""
    def g2_b(x: float) -> float:
        return closed_form_g2_b({**p, "delta_a": x, "delta_b": x, "delta_q": x})

    xs = np.linspace(lo, hi, 1001)
    k = int(np.argmin([g2_b(x) for x in xs]))
    bracket = (xs[max(k - 1, 0)], xs[min(k + 1, len(xs) - 1)])
    return float(minimize_scalar(g2_b, bounds=bracket, method="bounded",
                                 options={"xatol": 1e-9}).x)


def single_excitation_lines(omega_smr: float, omega_m: float, omega_q: float,
                            g: float, f: float) -> np.ndarray:
    """Lab-frame eigenfrequencies of the |1,0,g>, |0,1,g>, |0,0,e> block."""
    block = np.array([[omega_smr, f, g], [f, omega_m, 0.0], [g, 0.0, omega_q]])
    return np.linalg.eigvalsh(block)
