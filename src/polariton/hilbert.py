"""Truncated Fock spaces, the qubit space, and composite-space operators.

The composite Hilbert space is photon (x) phonon (x) qubit, in that fixed
order.  A Fock label (n_a, n_b, q) maps to the canonical basis index

    index = (n_a * (n_b_max + 1) + n_b) * 2 + q,      q: g -> 0, e -> 1,

i.e. the qubit index varies fastest and the photon index slowest, as
:func:`occupations` tabulates; everything else reads that table.  Every
operator in the package is a complex ``np.ndarray`` in this basis; the
cached ones are read-only.  The :class:`TruncationConfig` is the one record
of the truncation: objects that cross module boundaries carry it, and a
matrix is checked against its side where it enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import numpy as np

from .errors import DimensionError


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
        """Composite Hilbert-space dimension: the number of basis states."""
        return occupations(self).shape[1]

    def check_operator(self, mat: np.ndarray, what: str) -> None:
        """Raise :class:`DimensionError` unless ``mat`` is dim x dim."""
        if np.shape(mat) != (self.dim, self.dim):
            raise DimensionError(f"{what} has shape {np.shape(mat)}; cutoffs "
                                 f"({self.n_a_max}, {self.n_b_max}) need side {self.dim}")


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=8)
def occupations(cfg: TruncationConfig) -> np.ndarray:
    """The (3, dim) table of (n_a, n_b, q) of each basis state, in canonical
    index order (read-only, cached per config)."""
    return _read_only(np.indices(cfg.dims).reshape(3, -1))


@lru_cache(maxsize=8)
def excitation_numbers(cfg: TruncationConfig) -> np.ndarray:
    """Excitation number n_a + n_b + (q == 'e') of each basis state, in
    canonical index order (read-only, cached per config)."""
    return _read_only(occupations(cfg).sum(axis=0))


@lru_cache(maxsize=8)
def lowering(cfg: TruncationConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Photon, phonon and qubit lowering operators a, b and sigma_- on the
    composite space (complex, read-only, cached per config).

    Each is read off :func:`occupations`: lowering slot s of a state with
    n > 0 there gives sqrt(n) times the state with n - 1 there, so sqrt(n)
    goes at (row of the lowered state, column of the state).  The row is
    found by the states' keys in the box, so any canonical-order set of
    states closed under lowering works alike.
    """
    occ = occupations(cfg)
    keys = np.ravel_multi_index(occ, cfg.dims)
    ops = []
    for slot in range(3):
        cols = np.flatnonzero(occ[slot])
        lowered = occ[:, cols] - (np.arange(3) == slot)[:, None]
        rows = np.searchsorted(keys, np.ravel_multi_index(lowered, cfg.dims))
        mat = np.zeros((keys.size, keys.size), dtype=complex)
        mat[rows, cols] = np.sqrt(occ[slot, cols])
        ops.append(_read_only(mat))
    return tuple(ops)
