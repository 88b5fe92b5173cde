"""Truncated Fock spaces, the qubit space, and composite-space operators.

The composite Hilbert space is photon (x) phonon (x) qubit, in that fixed
order.  A Fock label (n_a, n_b, q) maps to the canonical basis index

    index = (n_a * (n_b_max + 1) + n_b) * 2 + q,      q: g -> 0, e -> 1,

i.e. the qubit index varies fastest and the photon index slowest.  Every
operator in the package is a complex ``np.ndarray`` in this basis; the
cached ones are read-only.  The :class:`TruncationConfig` is the one record
of the layout: objects that cross module boundaries carry it, and a matrix
is checked against its side where it enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DimensionError

SLOT_NAMES = ("photon", "phonon", "qubit")


@dataclass(frozen=True)
class TruncationConfig:
    """Fock cutoffs fixing all operator dimensions.

    Photon Fock states run 0..n_a_max and phonon states 0..n_b_max; the
    qubit is exactly two-level.  Cutoffs below 2 are rejected because
    two-excitation physics must be representable.
    """

    n_a_max: int = 5
    n_b_max: int = 5

    def __post_init__(self):
        if self.n_a_max < 2 or self.n_b_max < 2:
            raise DimensionError(
                f"cutoffs must be >= 2, got n_a_max={self.n_a_max}, n_b_max={self.n_b_max}")

    @property
    def dims(self) -> tuple[int, int, int]:
        """Subsystem dimensions [photon, phonon, qubit]."""
        return (self.n_a_max + 1, self.n_b_max + 1, 2)

    @property
    def dim(self) -> int:
        """Composite Hilbert-space dimension."""
        da, db, dq = self.dims
        return da * db * dq

    def check_operator(self, mat: np.ndarray, what: str) -> None:
        """Raise :class:`DimensionError` unless ``mat`` is dim x dim."""
        if np.shape(mat) != (self.dim, self.dim):
            raise DimensionError(f"{what} has shape {np.shape(mat)}; cutoffs "
                                 f"({self.n_a_max}, {self.n_b_max}) need side {self.dim}")

    def labels(self) -> Iterator["FockLabel"]:
        """All Fock labels in canonical index order."""
        for n_a in range(self.n_a_max + 1):
            for n_b in range(self.n_b_max + 1):
                for q in ("g", "e"):
                    yield FockLabel(n_a, n_b, q)


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


def annihilation(dim: int) -> np.ndarray:
    """Single-mode bosonic annihilation operator, <n-1|a|n> = sqrt(n).

    Parameters
    ----------
    dim : int
        Number of retained Fock states (>= 2).
    """
    if dim < 2:
        raise DimensionError(f"annihilation needs dim >= 2, got {dim}")
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1).astype(complex)


def qubit_lowering() -> np.ndarray:
    """Qubit lowering operator sigma_- = |g><e| in the {|g>, |e>} basis."""
    mat = np.zeros((2, 2), dtype=complex)
    mat[0, 1] = 1.0
    return mat


def embed(op: np.ndarray, slot: str, cfg: TruncationConfig) -> np.ndarray:
    """Embed a single-subsystem operator into the composite space.

    Returns I (x) ... (x) op (x) ... (x) I, read-only, with the fixed
    subsystem order [photon, phonon, qubit]; ``slot`` names one of them.
    """
    if slot not in SLOT_NAMES:
        raise DimensionError(f"unknown slot {slot!r}; use one of {SLOT_NAMES}")
    k_slot = SLOT_NAMES.index(slot)
    dims = cfg.dims
    if np.shape(op) != (dims[k_slot],) * 2:
        raise DimensionError(f"operator shape {np.shape(op)} does not fit slot {slot} "
                             f"of dim {dims[k_slot]}")
    mat = np.eye(1, dtype=complex)
    for k, d in enumerate(dims):
        mat = np.kron(mat, op if k == k_slot else np.eye(d, dtype=complex))
    mat.flags.writeable = False
    return mat
