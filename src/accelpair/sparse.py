"""Two-branch coordinate algebra for the scenario states.

Every scenario state is (vacuum branch + one-particle branch)/sqrt(2), each
branch a product over modes.  A :class:`CoordKet` stores the populated
occupation tuples with their amplitudes and branches; nothing dense is
formed.  A traced system's reduced density matrix is a diagonal plus one
cross term a0 conj(a1) per traced index that both branches populate, so it is
Hermitian by construction, and its partial transpose permutes the cross terms
only.  Sorted by a conserved charge, every sector is a chain, and one LAPACK
``dsterf`` call solves them all.  The untraced system's Schmidt weights are
the two branch norms.  Input outside this structure is a DomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg.lapack import dsterf

from .errors import DomainError, LayoutError
from .fock import DEFAULT_AMPLITUDE_LIMIT, Ket, SubsystemLayout

__all__ = [
    "CoordKet",
    "HermitianCoords",
    "normalize_coords",
    "reduced_gram",
    "partial_transpose_sparse",
    "hermitian_block_eigenvalues",
    "schmidt_weights",
]

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class CoordKet:
    """Pure state stored as distinct occupation tuples, amplitudes and branches.

    ``branch`` is 0 (vacuum branch) or 1 (one-particle branch) per entry; the
    state is the sum of all entries.
    """

    layout: SubsystemLayout
    occupations: np.ndarray  # (nnz, n_modes) integer occupation tuples, unique rows
    values: np.ndarray  # (nnz,) complex amplitudes
    branch: np.ndarray  # (nnz,) 0 or 1

    def __post_init__(self) -> None:
        occ = np.asarray(self.occupations, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.complex128).reshape(-1)
        branch = np.asarray(self.branch, dtype=np.int64).reshape(-1)
        object.__setattr__(self, "occupations", occ)
        object.__setattr__(self, "values", val)
        object.__setattr__(self, "branch", branch)
        dims = self.layout.dims
        if occ.ndim != 2 or occ.shape[1] != len(dims):
            raise LayoutError(f"occupation array shape {occ.shape} does not match layout")
        if not occ.shape[0] == val.shape[0] == branch.shape[0]:
            raise LayoutError("occupations, values and branches disagree on entry count")
        if occ.size and (occ.min() < 0 or np.any(occ >= np.asarray(dims))):
            raise LayoutError("occupation out of range for its sub-mode dimension")
        if np.any((branch != 0) & (branch != 1)):
            raise LayoutError("every entry's branch must be 0 or 1")
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
        np.add.at(amps, self._ravel(range(len(self.layout.dims))), self.values)
        return Ket(self.layout, amps)

    def _ravel(self, positions: Sequence[int]) -> np.ndarray:
        dims = self.layout.dims
        cols = [self.occupations[:, p] for p in positions]
        if not cols:
            return np.zeros(len(self.values), np.int64)
        return np.ravel_multi_index(cols, [dims[p] for p in positions])


@dataclass(frozen=True)
class HermitianCoords:
    """Hermitian matrix diag(diag) + C + C^H, C's entries stored off the diagonal.

    C is the list of (row, col, val) cross terms; entries at one position add.
    """

    diag: np.ndarray  # (n,) real
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.diag.size, self.diag.size)

    def toarray(self) -> np.ndarray:
        out = np.diag(self.diag).astype(np.complex128)
        np.add.at(out, (self.rows, self.cols), self.vals)
        np.add.at(out, (self.cols, self.rows), self.vals.conj())
        return out


def normalize_coords(k: CoordKet) -> tuple[CoordKet, float]:
    """Unit-norm copy plus the norm deficit, as :func:`accelpair.fock.normalize`."""
    n2 = k.norm_squared()
    if n2 <= 0.0:
        raise DomainError("cannot normalize a zero ket")
    return CoordKet(k.layout, k.occupations, k.values / math.sqrt(n2), k.branch), 1.0 - n2


def _entry_at(k: CoordKet, traced: np.ndarray, branch: int, size: int) -> np.ndarray:
    """Per traced index, the branch's entry there (-1 where absent); DomainError on two."""
    entries = np.flatnonzero(k.branch == branch)
    slot = np.full(size, -1, dtype=np.int64)
    slot[traced[entries]] = entries
    if (slot[traced[entries]] != entries).any():
        raise DomainError(f"branch {branch} has two entries at one traced index")
    return slot


def reduced_gram(
    k: CoordKet, keep: Iterable[str]
) -> tuple[HermitianCoords, tuple[int, ...], tuple[str, ...]]:
    """Reduced density matrix over ``keep``, built from the ket's two branches.

    With at most one entry per branch at each traced index, tracing the
    complement of ``keep`` out of |k><k| leaves each entry's a conj(a) on the
    diagonal at its kept index, and a0 conj(a1) at (k0, k1) wherever both
    branches populate a traced index.  Returns (rho, kept dims, kept labels),
    kept sub-modes in layout order.
    """
    keep_set = set(keep)
    if not keep_set:
        raise LayoutError("reduced_gram requires a non-empty set of kept labels")
    layout, dims = k.layout, k.layout.dims
    keep_pos = sorted(layout.position(lbl) for lbl in keep_set)
    traced_pos = [i for i in range(len(dims)) if i not in keep_pos]
    kept_dims = tuple(dims[p] for p in keep_pos)
    kept_labels = tuple(layout.labels[p] for p in keep_pos)
    rows, traced, vals = k._ravel(keep_pos), k._ravel(traced_pos), k.values
    diag = np.bincount(rows, (vals * vals.conj()).real, math.prod(kept_dims))
    size = math.prod(dims[p] for p in traced_pos)
    slot0, slot1 = _entry_at(k, traced, 0, size), _entry_at(k, traced, 1, size)
    both = (slot0 >= 0) & (slot1 >= 0)
    first, second = slot0[both], slot1[both]
    if (rows[first] == rows[second]).any():
        raise DomainError("the two branches share an occupation tuple")
    rho = HermitianCoords(diag, rows[first], rows[second], vals[first] * vals[second].conj())
    return rho, kept_dims, kept_labels


def partial_transpose_sparse(
    rho: HermitianCoords, kept_dims: Sequence[int], a_positions: Sequence[int]
) -> HermitianCoords:
    """Partial transpose: the diagonal stays, the cross terms swap party A's coordinates."""
    row_occ = np.array(np.unravel_index(rho.rows, kept_dims))
    col_occ = np.array(np.unravel_index(rho.cols, kept_dims))
    for p in a_positions:
        row_occ[p], col_occ[p] = col_occ[p].copy(), row_occ[p].copy()
    rows = np.ravel_multi_index(tuple(row_occ), kept_dims)
    cols = np.ravel_multi_index(tuple(col_occ), kept_dims)
    return HermitianCoords(rho.diag, rows, cols, rho.vals)


def hermitian_block_eigenvalues(mat: HermitianCoords, charge: Sequence[int]) -> np.ndarray:
    """All eigenvalues, ascending, of a Hermitian matrix whose charge sectors are chains.

    ``charge`` holds one integer per state.  States are stable-sorted by
    charge; every cross term must then couple two neighbouring states of one
    sector, else DomainError.  The sorted matrix is tridiagonal, and |e| (a
    diagonal unitary similarity) goes with the diagonal to one ``dsterf``.
    """
    n = mat.shape[0]
    charge = np.asarray(charge)
    if charge.shape != (n,):
        raise LayoutError(f"expected {n} charges, got shape {charge.shape}")
    order = np.argsort(charge, kind="stable")
    place = np.empty(n, dtype=np.int64)
    place[order] = np.arange(n)
    rows, cols = place[mat.rows], place[mat.cols]
    sector = charge[order]
    if (sector[rows] != sector[cols]).any():
        raise DomainError("matrix couples states of different charge")
    if (np.abs(rows - cols) != 1).any():
        raise DomainError("a charge sector is not a chain")
    if n == 1:
        return mat.diag.astype(float)
    upper = np.zeros(n - 1, dtype=np.complex128)
    np.add.at(upper, np.minimum(rows, cols), np.where(rows < cols, mat.vals, mat.vals.conj()))
    eigs, info = dsterf(mat.diag[order], np.abs(upper), overwrite_d=1, overwrite_e=1)
    if info != 0:
        raise DomainError(f"dsterf failed to converge (info {info})")
    return eigs


def schmidt_weights(k: CoordKet, party_a: Iterable[str]) -> np.ndarray:
    """Nonzero eigenvalues of rho over ``party_a``: the two branch norms, descending.

    Each branch must be a product across the cut, as every scenario branch
    is; then the branches, which share no state on either side of the cut,
    are the two Schmidt terms and the rest of the spectrum is zero.  A state
    that both branches populate on one side is a DomainError.
    """
    layout = k.layout
    a_pos = sorted(layout.position(lbl) for lbl in set(party_a))
    b_pos = [i for i in range(len(layout.dims)) if i not in a_pos]
    one = k.branch == 1
    for pos in (a_pos, b_pos):
        side = k._ravel(pos)
        seen = np.zeros(math.prod(layout.dims[p] for p in pos), dtype=bool)
        seen[side[~one]] = True
        if seen[side[one]].any():
            raise DomainError("the two branches share a state on one side of the cut")
    weights = np.bincount(k.branch, np.abs(k.values) ** 2, 2)
    return np.sort(weights)[::-1]
