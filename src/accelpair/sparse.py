"""Coordinate-form state algebra for large bosonic layouts.

The scalar scenario states occupy only O(cutoff^2) of the up-to ~10^8 joint
occupation basis states once the truncation cutoff grows, so the dense
:mod:`accelpair.fock` objects become wasteful long before they become wrong.
This module mirrors the dense operations on a coordinate representation
(occupation tuples plus amplitudes):

* reduced density matrices as Gram products on (row, col, value) arrays,
* partial transposition as an index permutation of those coordinates,
* Hermitian eigenvalues sector by sector over a conserved integer charge
  that the caller supplies, with tridiagonal sectors solved in one call,
* Schmidt spectra from the charge blocks of the amplitude matrix.

Every function here is cross-checked against the dense pipeline in the test
suite; results agree to machine precision on layouts where both run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .errors import DomainError, LayoutError
from .fock import DEFAULT_AMPLITUDE_LIMIT, Ket, SubsystemLayout

__all__ = [
    "CoordKet",
    "CoordMatrix",
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


@dataclass(frozen=True)
class CoordMatrix:
    """Matrix stored as unique (row, col) entries; absent entries are zero."""

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.vals.dtype)
        out[self.rows, self.cols] = self.vals
        return out


def _key_groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort order of ``keys`` and the start of each run of equal keys in it."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return order, np.flatnonzero(first)


def normalize_coords(k: CoordKet) -> tuple[CoordKet, float]:
    """Unit-norm copy plus the norm deficit, as :func:`accelpair.fock.normalize`."""
    n2 = k.norm_squared()
    if n2 <= 0.0:
        raise DomainError("cannot normalize a zero ket")
    return CoordKet(k.layout, k.occupations, k.values / math.sqrt(n2)), 1.0 - n2


def reduced_gram(
    k: CoordKet, keep: Iterable[str]
) -> tuple[CoordMatrix, tuple[int, ...], tuple[str, ...]]:
    """Reduced density matrix over ``keep`` as a coordinate Gram product.

    Tracing the complement of ``keep`` out of |k><k| is the Gram matrix
    B B^dagger of the amplitude matrix B[kept index, traced index]; the huge
    outer product is never formed.  Each entry of B is paired with every
    entry sharing its traced index, and the products are summed per
    (row, col) in ascending traced index.  Returns (rho, kept dims, kept
    labels), kept sub-modes in layout order.
    """
    keep_set = set(keep)
    if not keep_set:
        raise LayoutError("reduced_gram requires a non-empty set of kept labels")
    layout = k.layout
    keep_pos = sorted(layout.position(lbl) for lbl in keep_set)
    traced_pos = [i for i in range(len(layout.dims)) if i not in keep_pos]
    kept_dims = tuple(layout.dims[p] for p in keep_pos)
    kept_labels = tuple(layout.labels[p] for p in keep_pos)
    n_keep = math.prod(kept_dims)
    order, starts = _key_groups(k._ravel(traced_pos))
    rows, vals = k._ravel(keep_pos)[order], k.values[order]
    size = np.diff(starts, append=rows.size)
    reps = np.repeat(size, size)  # per entry, the size of its traced group
    left = np.repeat(np.arange(rows.size), reps)
    # Pair t of entry e has right = group start + (t - first pair of e).
    right = np.arange(left.size) - np.repeat(np.cumsum(reps) - reps - np.repeat(starts, size), reps)
    keys = rows[left] * n_keep + rows[right]
    prods = vals[left] * vals[right].conj()
    del left, right
    order, starts = _key_groups(keys)
    sums = np.add.reduceat(prods[order], starts)
    gram_rows, gram_cols = np.divmod(keys[order[starts]], n_keep)
    return CoordMatrix((n_keep, n_keep), gram_rows, gram_cols, sums), kept_dims, kept_labels


def partial_transpose_sparse(
    rho: CoordMatrix, kept_dims: Sequence[int], a_positions: Sequence[int]
) -> CoordMatrix:
    """Partial transpose by permuting coordinates; a bijection on entries."""
    row_occ = np.array(np.unravel_index(rho.rows, kept_dims))
    col_occ = np.array(np.unravel_index(rho.cols, kept_dims))
    for p in a_positions:
        row_occ[p], col_occ[p] = col_occ[p].copy(), row_occ[p].copy()
    rows = np.ravel_multi_index(tuple(row_occ), kept_dims)
    cols = np.ravel_multi_index(tuple(col_occ), kept_dims)
    return CoordMatrix(rho.shape, rows, cols, rho.vals)


def hermitian_block_eigenvalues(mat: CoordMatrix, charge: Sequence[int]) -> np.ndarray:
    """All eigenvalues, ascending, of a Hermitian coordinate matrix conserving ``charge``.

    ``charge`` holds one integer per state; an entry coupling two charges is a
    DomainError.  If the charge-sorted matrix is tridiagonal, all sectors go
    to one real tridiagonal solve (|e| is a diagonal unitary similarity);
    otherwise each sector is solved densely over the states it touches.
    """
    n = mat.shape[0]
    charge = np.asarray(charge)
    if charge.shape != (n,):
        raise LayoutError(f"expected {n} charges, got shape {charge.shape}")
    # Entries of M and of M^H sorted together: per (row, col) the sum of the
    # two halves is M + M^H, their difference M - M^H.
    scale = max(1.0, float(np.abs(mat.vals).max(initial=0.0)))
    keys = np.concatenate([mat.rows * n + mat.cols, mat.cols * n + mat.rows])
    order, starts = _key_groups(keys)
    both = np.concatenate([mat.vals, mat.vals.conj()])[order]
    total = np.add.reduceat(both, starts)
    np.negative(both, out=both, where=order >= mat.vals.size)
    defect = float(np.abs(np.add.reduceat(both, starts)).max(initial=0.0))
    if defect > _HERMITICITY_TOL * scale:
        raise DomainError(f"matrix is not Hermitian: defect {defect:.3e} exceeds tolerance")
    stored = total != 0
    rows, cols = np.divmod(keys[order[starts[stored]]], n)
    vals = total[stored] * 0.5

    order = np.argsort(charge, kind="stable")
    place = np.empty(n, dtype=np.int64)
    place[order] = np.arange(n)
    rows, cols = place[rows], place[cols]
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

    touched = np.unique(rows)  # Hermitian storage: every touched column is a touched row
    eigs = [np.zeros(n - touched.size)]  # untouched states are zero rows and columns
    for q in np.unique(sector[touched]):
        states = touched[sector[touched] == q]
        in_q = sector[rows] == q
        block = np.zeros((states.size, states.size), dtype=vals.dtype)
        block[np.searchsorted(states, rows[in_q]), np.searchsorted(states, cols[in_q])] = vals[in_q]
        eigs.append(np.linalg.eigvalsh(block))
    return np.sort(np.concatenate(eigs))


def schmidt_weights(k: CoordKet, party_a: Iterable[str], charge: Sequence[int]) -> np.ndarray:
    """Eigenvalues of rho over ``party_a``, descending, >= 0, one per party-A state.

    ``charge`` holds one integer per party-A state.  The amplitude matrix
    B[party-A index, party-B index] is split by party-A charge, and each
    sector's weights are the eigenvalues of the smaller Gram matrix of its
    dense block; the rest of the spectrum is zero.  A party-B state that
    meets two charges would couple sectors of rho: a DomainError.
    """
    layout = k.layout
    a_pos = sorted(layout.position(lbl) for lbl in set(party_a))
    b_pos = [i for i in range(len(layout.dims)) if i not in a_pos]
    dim_a = math.prod(layout.dims[p] for p in a_pos)
    charge = np.asarray(charge)
    if charge.shape != (dim_a,):
        raise LayoutError(f"expected {dim_a} charges, got shape {charge.shape}")
    rows, cols = k._ravel(a_pos), k._ravel(b_pos)
    q = charge[rows]
    order, starts = _key_groups(cols)
    q_by_b = q[order]
    if np.any(np.maximum.reduceat(q_by_b, starts) != np.minimum.reduceat(q_by_b, starts)):
        raise DomainError("a party-B state couples two party-A charges")
    eigs = []
    for sector in np.unique(q):
        in_q = q == sector
        a_states, a_idx = np.unique(rows[in_q], return_inverse=True)
        b_states, b_idx = np.unique(cols[in_q], return_inverse=True)
        block = np.zeros((a_states.size, b_states.size), dtype=np.complex128)
        block[a_idx, b_idx] = k.values[in_q]
        small = block @ block.conj().T if a_states.size <= b_states.size else block.conj().T @ block
        eigs.append(np.linalg.eigvalsh(small))
    eigs.append(np.zeros(dim_a - sum(e.size for e in eigs)))
    return np.clip(np.sort(np.concatenate(eigs)), 0.0, None)[::-1]
