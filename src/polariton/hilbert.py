"""Truncated Fock spaces, the qubit space, and composite-space operators.

The composite Hilbert space is photon (x) phonon (x) qubit, in that fixed
order.  A Fock label (n_a, n_b, q) maps to the canonical basis index

    index = (n_a * (n_b_max + 1) + n_b) * 2 + q,      q: g -> 0, e -> 1,

i.e. the qubit index varies fastest and the photon index slowest.  Every
operator in the package is expressed in this basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

    @classmethod
    def from_dims(cls, dims: tuple[int, ...]) -> "TruncationConfig":
        """Cutoffs of a composite space with subsystem dims (photon, phonon, qubit)."""
        if len(dims) != 3 or dims[2] != 2:
            raise DimensionError(f"expected composite dims (photon, phonon, qubit), got {dims}")
        return cls(n_a_max=dims[0] - 1, n_b_max=dims[1] - 1)

    @property
    def dims(self) -> tuple[int, int, int]:
        """Subsystem dimensions [photon, phonon, qubit]."""
        return (self.n_a_max + 1, self.n_b_max + 1, 2)

    @property
    def dim(self) -> int:
        """Composite Hilbert-space dimension."""
        da, db, dq = self.dims
        return da * db * dq

    def index_of(self, label: "FockLabel") -> int:
        """Canonical basis index of a Fock label (pure function, stable)."""
        if not (0 <= label.n_a <= self.n_a_max and 0 <= label.n_b <= self.n_b_max):
            raise DimensionError(f"label {label} exceeds cutoffs {self.n_a_max}, {self.n_b_max}")
        q = 0 if label.q == "g" else 1
        return (label.n_a * (self.n_b_max + 1) + label.n_b) * 2 + q

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


def _freeze_matrix(obj) -> None:
    """``__post_init__`` of the frozen square-matrix classes: store a
    read-only complex copy of ``obj.matrix`` and ``obj.dims`` as a tuple
    (default: the matrix side), after checking that they agree."""
    mat = np.asarray(obj.matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"{type(obj).__name__} matrix must be square, got shape {mat.shape}")
    dims = tuple(obj.dims) if obj.dims else (mat.shape[0],)
    if int(np.prod(dims)) != mat.shape[0]:
        raise DimensionError(f"dims {dims} do not match matrix side {mat.shape[0]}")
    mat = mat.copy()
    mat.flags.writeable = False
    object.__setattr__(obj, "matrix", mat)
    object.__setattr__(obj, "dims", dims)


@dataclass(frozen=True)
class QOperator:
    """A complex matrix on a (possibly composite) Hilbert space.

    ``dims`` records the ordered subsystem dimensions; arithmetic between
    operators requires identical ``dims``.  Instances are immutable: the
    wrapped array is marked read-only.
    """

    matrix: np.ndarray
    dims: tuple[int, ...] = field(default=())

    __post_init__ = _freeze_matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def dag(self) -> "QOperator":
        """Hermitian adjoint."""
        return QOperator(self.matrix.conj().T, self.dims)

    def _check_dims(self, other: "QOperator"):
        if self.dims != other.dims:
            raise DimensionError(f"dims mismatch: {self.dims} vs {other.dims}")

    def __add__(self, other: "QOperator") -> "QOperator":
        self._check_dims(other)
        return QOperator(self.matrix + other.matrix, self.dims)

    def __sub__(self, other: "QOperator") -> "QOperator":
        self._check_dims(other)
        return QOperator(self.matrix - other.matrix, self.dims)

    def __neg__(self) -> "QOperator":
        return QOperator(-self.matrix, self.dims)

    def __mul__(self, scalar: complex) -> "QOperator":
        return QOperator(self.matrix * scalar, self.dims)

    __rmul__ = __mul__

    def __matmul__(self, other: "QOperator") -> "QOperator":
        self._check_dims(other)
        return QOperator(self.matrix @ other.matrix, self.dims)

    def norm(self) -> float:
        """Frobenius norm."""
        return float(np.linalg.norm(self.matrix))


def annihilation(dim: int) -> QOperator:
    """Single-mode bosonic annihilation operator, <n-1|a|n> = sqrt(n).

    Parameters
    ----------
    dim : int
        Number of retained Fock states (>= 2).
    """
    if dim < 2:
        raise DimensionError(f"annihilation needs dim >= 2, got {dim}")
    return QOperator(np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1), (dim,))


def qubit_lowering() -> QOperator:
    """Qubit lowering operator sigma_- = |g><e| in the {|g>, |e>} basis."""
    mat = np.zeros((2, 2), dtype=complex)
    mat[0, 1] = 1.0
    return QOperator(mat, (2,))


def embed(op: QOperator, slot: str, cfg: TruncationConfig) -> QOperator:
    """Embed a single-subsystem operator into the composite space.

    Returns I (x) ... (x) op (x) ... (x) I with the fixed subsystem order
    [photon, phonon, qubit]; ``slot`` names one of them.
    """
    if slot not in SLOT_NAMES:
        raise DimensionError(f"unknown slot {slot!r}; use one of {SLOT_NAMES}")
    k_slot = SLOT_NAMES.index(slot)
    dims = cfg.dims
    if op.dim != dims[k_slot]:
        raise DimensionError(f"operator dim {op.dim} does not match slot {slot} dim {dims[k_slot]}")
    mat = np.eye(1, dtype=complex)
    for k, d in enumerate(dims):
        mat = np.kron(mat, op.matrix if k == k_slot else np.eye(d, dtype=complex))
    return QOperator(mat, dims)


def basis_state(label: FockLabel, cfg: TruncationConfig) -> np.ndarray:
    """Unit column vector for |n_a, n_b, q> at the canonical index."""
    vec = np.zeros(cfg.dim, dtype=complex)
    vec[cfg.index_of(label)] = 1.0
    return vec
