"""Coordinate-form state algebra for large bosonic layouts.

The scalar scenario states occupy only O(cutoff^2) of the up-to ~10^8 joint
occupation basis states once the truncation cutoff grows, so the dense
:mod:`accelpair.fock` objects become wasteful long before they become wrong.
This module mirrors the dense operations on a coordinate representation
(occupation tuples plus amplitudes):

* reduced density matrices as scipy.sparse Gram products,
* partial transposition as an index permutation of sparse coordinates,
* Hermitian eigenvalues sector by sector over a conserved integer charge
  that the caller supplies, with tridiagonal sectors solved in one call.

Every function here is cross-checked against the dense pipeline in the test
suite; results agree to machine precision on layouts where both run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigvalsh_tridiagonal

from .errors import DomainError, LayoutError
from .fock import DEFAULT_AMPLITUDE_LIMIT, Ket, SubsystemLayout

__all__ = [
    "CoordKet",
    "normalize_coords",
    "reduced_gram",
    "partial_transpose_sparse",
    "hermitian_block_eigenvalues",
    "schmidt_weights",
]

_NORM_TOL = 1e-12
_HERMITICITY_TOL = 1e-10


@dataclass(frozen=True)
class CoordKet:
    """Pure state stored as distinct occupation tuples with their amplitudes."""

    layout: SubsystemLayout
    occupations: np.ndarray  # (nnz, n_modes) integer occupation tuples, unique rows
    values: np.ndarray  # (nnz,) complex amplitudes

    def __post_init__(self) -> None:
        occ = np.asarray(self.occupations, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.complex128).reshape(-1)
        object.__setattr__(self, "occupations", occ)
        object.__setattr__(self, "values", val)
        dims = self.layout.dims
        if occ.ndim != 2 or occ.shape[1] != len(dims):
            raise LayoutError(f"occupation array shape {occ.shape} does not match layout")
        if occ.shape[0] != val.shape[0]:
            raise LayoutError("occupations and values disagree on entry count")
        if occ.size and (occ.min() < 0 or np.any(occ >= np.asarray(dims))):
            raise LayoutError("occupation out of range for its sub-mode dimension")
        if not (np.all(np.isfinite(val.real)) and np.all(np.isfinite(val.imag))):
            raise DomainError("ket amplitudes must be finite")
        if self.norm_squared() > 1.0 + _NORM_TOL:
            raise DomainError("ket norm exceeds 1 beyond tolerance")

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2))

    def to_ket(self, dense_limit: int = DEFAULT_AMPLITUDE_LIMIT) -> Ket:
        """Densify; refuses layouts beyond ``dense_limit`` amplitudes."""
        n = self.layout.total_dim
        if n > dense_limit:
            raise LayoutError(f"refusing to densify {n} amplitudes (limit {dense_limit})")
        amps = np.zeros(n, dtype=np.complex128)
        amps[self._ravel(range(len(self.layout.dims)))] = self.values
        return Ket(self.layout, amps)

    def _ravel(self, positions: Sequence[int]) -> np.ndarray:
        dims = [self.layout.dims[p] for p in positions]
        cols = [self.occupations[:, p] for p in positions]
        return np.ravel_multi_index(cols, dims) if cols else np.zeros(len(self.values), np.int64)


def normalize_coords(k: CoordKet) -> tuple[CoordKet, float]:
    """Unit-norm copy plus the norm deficit, as :func:`accelpair.fock.normalize`."""
    n2 = k.norm_squared()
    if n2 <= 0.0:
        raise DomainError("cannot normalize a zero ket")
    return CoordKet(k.layout, k.occupations, k.values / math.sqrt(n2)), 1.0 - n2


def reduced_gram(
    k: CoordKet, keep: Iterable[str]
) -> tuple[sp.csr_matrix, tuple[int, ...], tuple[str, ...]]:
    """Reduced density matrix over ``keep`` as a sparse Gram product.

    Tracing the complement of ``keep`` out of |k><k| is the Gram matrix
    B B^dagger of the amplitude matrix B[kept index, traced index]; the huge
    outer product is never formed.  Returns (rho, kept dims, kept labels),
    kept sub-modes in layout order.
    """
    keep_set = set(keep)
    if not keep_set:
        raise LayoutError("reduced_gram requires a non-empty set of kept labels")
    layout = k.layout
    keep_pos = sorted(layout.position(lbl) for lbl in keep_set)
    traced_pos = [i for i in range(len(layout.dims)) if i not in keep_pos]
    kept_dims = tuple(layout.dims[p] for p in keep_pos)
    kept_labels = tuple(layout.labels[p] for p in keep_pos)
    rows = k._ravel(keep_pos)
    cols = k._ravel(traced_pos)
    n_keep = math.prod(kept_dims)
    n_traced = math.prod(layout.dims[p] for p in traced_pos) if traced_pos else 1
    b = sp.coo_matrix((k.values, (rows, cols)), shape=(n_keep, n_traced)).tocsr()
    rho = (b @ b.conj().T).tocsr()
    rho.sum_duplicates()
    return rho, kept_dims, kept_labels


def partial_transpose_sparse(
    rho: sp.spmatrix, kept_dims: Sequence[int], a_positions: Sequence[int]
) -> sp.coo_matrix:
    """Partial transpose by permuting coordinates; a bijection on entries."""
    coo = rho.tocoo()
    row_occ = np.array(np.unravel_index(coo.row, kept_dims))
    col_occ = np.array(np.unravel_index(coo.col, kept_dims))
    for p in a_positions:
        row_occ[p], col_occ[p] = col_occ[p].copy(), row_occ[p].copy()
    rows = np.ravel_multi_index(tuple(row_occ), kept_dims)
    cols = np.ravel_multi_index(tuple(col_occ), kept_dims)
    return sp.coo_matrix((coo.data, (rows, cols)), shape=rho.shape)


def hermitian_block_eigenvalues(mat: sp.spmatrix, charge: Sequence[int]) -> np.ndarray:
    """All eigenvalues, ascending, of a sparse Hermitian matrix conserving ``charge``.

    ``charge`` holds one integer per state; an entry coupling two charges is a
    DomainError.  If the charge-sorted matrix is tridiagonal, all sectors go
    to one real tridiagonal solve (|e| is a diagonal unitary similarity);
    otherwise each sector is solved densely over the states it touches.
    """
    m = mat.tocsr()
    m.sum_duplicates()
    n = m.shape[0]
    charge = np.asarray(charge)
    if charge.shape != (n,):
        raise LayoutError(f"expected {n} charges, got shape {charge.shape}")
    if m.nnz == 0:
        return np.zeros(n)
    scale = max(1.0, float(np.abs(m).max()))
    defect = float(np.abs(m - m.getH()).max())
    if defect > _HERMITICITY_TOL * scale:
        raise DomainError(f"matrix is not Hermitian: defect {defect:.3e} exceeds tolerance")
    m = ((m + m.getH()) * 0.5).tocoo()

    order = np.argsort(charge, kind="stable")
    place = np.empty(n, dtype=np.int64)
    place[order] = np.arange(n)
    rows, cols, vals = place[m.row], place[m.col], m.data
    sector = charge[order]
    if np.any(sector[rows] != sector[cols]):
        raise DomainError("matrix couples states of different charge")

    if np.all(np.abs(rows - cols) <= 1):
        d = np.zeros(n)
        e = np.zeros(n - 1)
        on = rows == cols
        d[rows[on]] = vals[on].real
        above = cols == rows + 1
        e[rows[above]] = np.abs(vals[above])
        return eigvalsh_tridiagonal(d, e, lapack_driver="sterf")

    sorted_m = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    touched = np.unique(rows)  # Hermitian storage: every touched column is a touched row
    eigs = [np.zeros(n - touched.size)]  # untouched states are zero rows and columns
    for q in np.unique(sector[touched]):
        states = touched[sector[touched] == q]
        eigs.append(np.linalg.eigvalsh(sorted_m[states][:, states].toarray()))
    return np.sort(np.concatenate(eigs))


def schmidt_weights(k: CoordKet, party_a: Iterable[str], charge: Sequence[int]) -> np.ndarray:
    """Eigenvalues of rho over ``party_a`` (one ``charge`` per state), descending, >= 0."""
    rho_a, _, _ = reduced_gram(k, party_a)
    lam = hermitian_block_eigenvalues(rho_a, charge)
    return np.clip(lam, 0.0, None)[::-1]
