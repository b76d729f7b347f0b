"""Two-branch coordinate algebra for the scenario states.

Every scenario state is (vacuum branch + one-particle branch)/sqrt(2), each
branch a product over modes.  A :class:`CoordKet` stores the populated
occupation tuples with their amplitudes and branches, and a
:class:`HermitianCoords` a matrix's diagonal and cross terms; neither has a
dense form.  A traced system's reduced density matrix is a diagonal plus one
cross term a0 conj(a1) per traced index that both branches populate, so it is
Hermitian by construction, and its partial transpose permutes the cross terms
only.  Sorted by a conserved charge, every sector is a chain: the matrix is
one symmetric tridiagonal (d, |e|).  The untraced system's Schmidt weights
are the two branch norms.  Input outside this structure is a DomainError.

A :class:`ChainPlan` holds this index structure for one traced system on one
support, from the state's shift rule in closed form, with no sort
(:func:`accelpair.states.traced_plan`): for the (points x support) rows of a
sweep's amplitudes, :meth:`ChainPlan.entries` is one bincount and one gather,
and nothing is checked.  The per-state functions are the reference route:
they find the structure from the occupation tuples and check it on every
call, and the tests hold the plans to them with ``==``.
Their cross terms are never sorted or hashed: the partial transpose swaps
party A's digits by stride arithmetic on the flat indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, LayoutError
from .fock import SubsystemLayout, check_dense, label_names

__all__ = [
    "CoordKet",
    "HermitianCoords",
    "ChainPlan",
    "norm_squared",
    "stacked",
    "reduced_gram",
    "partial_transpose_sparse",
    "tridiagonal",
    "hermitian_block_eigenvalues",
    "schmidt_weights",
]

_NORM_TOL = 1e-12
_PRODUCT_TOL = 1e-12  # of the largest entry squared, per 2x2 minor through it


def norm_squared(values: np.ndarray) -> np.ndarray:
    """Squared norm of each row of (points x support) ``values`` over its nonzero
    amplitudes, in order: zeros would regroup the pairwise ``np.sum``, so a row
    holding one is summed alone; DomainError if non-finite or above 1."""
    if not np.isfinite(values).all():
        raise DomainError("ket amplitudes must be finite")
    squares = np.abs(values) ** 2
    n2 = squares.sum(axis=1)
    if np.count_nonzero(values) < values.size:
        for i in (values == 0.0).any(axis=1).nonzero()[0]:
            n2[i] = np.sum(squares[i][values[i] != 0.0])
    if n2.max() > 1.0 + _NORM_TOL:
        raise DomainError("ket norm exceeds 1 beyond tolerance")
    return n2


def stacked(index: np.ndarray, step: int, count: int) -> np.ndarray:
    """``index`` once per point, point p's copy plus p * step, flat and int32 (itself
    for one point): the bins of one bincount over all points' rows."""
    rows = np.arange(count, dtype=np.int32)[:, None]
    return index if count == 1 else (index + step * rows).ravel()


def _ravel(occupations: np.ndarray, dims: Sequence[int], positions: Sequence[int]) -> np.ndarray:
    cols = [occupations[:, p] for p in positions]
    if not cols:
        return np.zeros(len(occupations), np.int64)
    return np.ravel_multi_index(cols, [dims[p] for p in positions])


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
        norm_squared(val[None])


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


def _entry_at(traced: np.ndarray, branch: np.ndarray, which: int, size: int) -> np.ndarray:
    """Per traced index, the branch's entry there (-1 where absent); DomainError on two."""
    entries = np.flatnonzero(branch == which)
    slot = np.full(size, -1, dtype=np.int64)
    slot[traced[entries]] = entries
    if (slot[traced[entries]] != entries).any():
        raise DomainError(f"branch {which} has two entries at one traced index")
    return slot


def _cross_terms(layout, occupations, branch, keep) -> tuple:
    """(kept layout, each entry's kept index, the entry pairs of the cross terms)."""
    keep = set(label_names(keep))
    kept, (keep_pos, traced_pos) = layout.restricted(keep), layout.split(keep)
    rows = _ravel(occupations, layout.dims, keep_pos)
    traced = _ravel(occupations, layout.dims, traced_pos)
    size = math.prod(layout.dims[p] for p in traced_pos)
    slot0, slot1 = _entry_at(traced, branch, 0, size), _entry_at(traced, branch, 1, size)
    both = (slot0 >= 0) & (slot1 >= 0)
    first, second = slot0[both], slot1[both]
    if (rows[first] == rows[second]).any():
        raise DomainError("the two branches share an occupation tuple")
    return kept, rows, first, second


def _swap(rows, cols, kept_dims: Sequence[int], a_positions: Sequence[int]):
    """Row and column indices with party A's coordinates exchanged: each index
    loses its own party-A digits (C order, distinct ``a_positions``) and gains
    its partner's.  LayoutError if an index lies outside ``kept_dims``."""
    rows, cols, size = np.asarray(rows), np.asarray(cols), math.prod(kept_dims)
    if any(i.size and (i.min() < 0 or i.max() >= size) for i in (rows, cols)):
        raise LayoutError(f"index out of range for kept dims {tuple(kept_dims)}")
    shift = np.zeros_like(rows)  # partner's party-A digits minus one's own, in place value
    for p in a_positions:
        stride = math.prod(kept_dims[p:][1:])
        shift += (cols // stride % kept_dims[p] - rows // stride % kept_dims[p]) * stride
    return rows + shift, cols - shift


def _chain(charge: Sequence[int], n: int, rows, cols) -> tuple[np.ndarray, ...]:
    """Stable charge order of the n states, each state's place in it, and the
    couplings' places; DomainError unless each joins neighbours of one sector."""
    charge = np.asarray(charge)
    if charge.shape != (n,):
        raise LayoutError(f"expected {n} charges, got shape {charge.shape}")
    order = np.argsort(charge, kind="stable")
    place = np.empty(n, dtype=np.int64)
    place[order] = np.arange(n)
    rows, cols = place[rows], place[cols]
    sector = charge[order]
    if (sector[rows] != sector[cols]).any():
        raise DomainError("matrix couples states of different charge")
    if (np.abs(rows - cols) != 1).any():
        raise DomainError("a charge sector is not a chain")
    return order, place, rows, cols


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
    kept, rows, first, second = _cross_terms(k.layout, k.occupations, k.branch, keep)
    vals = k.values
    diag = np.bincount(rows, (vals * vals.conj()).real, kept.total_dim)
    rho = HermitianCoords(diag, rows[first], rows[second], vals[first] * vals[second].conj())
    return rho, kept.dims, kept.labels


def partial_transpose_sparse(
    rho: HermitianCoords, kept_dims: Sequence[int], a_positions: Sequence[int]
) -> HermitianCoords:
    """Partial transpose: the diagonal stays, the cross terms swap party A's coordinates."""
    return HermitianCoords(rho.diag, *_swap(rho.rows, rho.cols, kept_dims, a_positions), rho.vals)


def tridiagonal(mat: HermitianCoords, charge: Sequence[int]) -> tuple[np.ndarray, ...]:
    """(d, |e|, edges) of a Hermitian matrix whose charge sectors are chains.

    ``charge`` holds one integer per state.  States are stable-sorted by
    charge; every cross term must then couple two neighbouring states of one
    sector, else DomainError.  The sorted matrix is tridiagonal, and |e| (a
    diagonal unitary similarity) is its off-diagonal, with ``edges`` each
    cross term's place there.
    """
    n = mat.shape[0]
    order, _, rows, cols = _chain(charge, n, mat.rows, mat.cols)
    edges = np.minimum(rows, cols)
    upper = np.zeros(max(n - 1, 1), dtype=np.complex128)  # dsterf wants one even for n = 1
    np.add.at(upper, edges, np.where(rows < cols, mat.vals, mat.vals.conj()))
    return mat.diag[order].astype(float), np.abs(upper), edges


def hermitian_block_eigenvalues(mat: HermitianCoords, charge: Sequence[int]) -> np.ndarray:
    """All eigenvalues, ascending, of :func:`tridiagonal`'s (d, |e|), from one ``dsterf``.
    It squares the couplings, and a subnormal square moves the spectrum (1e-159 beside
    2/19 moved it by 1.4e-9), so couplings below sqrt(tiny) are zeroed (Weyl: <= 3e-154)."""
    from scipy.linalg.lapack import dsterf  # the reference route only: sweeps never load it

    d, e = tridiagonal(mat, charge)[:2]
    e[e < math.sqrt(np.finfo(float).tiny)] = 0.0
    eigs, info = dsterf(d, e, overwrite_d=1, overwrite_e=1)
    if info != 0:
        raise DomainError(f"dsterf failed to converge (info {info})")
    return eigs


@dataclass(frozen=True)
class ChainPlan:
    """Partial-transpose structure of one traced system on a fixed support: per
    entry, its state's place in charge order (``bins``); per cross term, in
    ``edge`` order, its entry pair (``first``, ``second``) and its place on the
    sorted chains' off-diagonal (``edge``); the system's state count (``size``).
    The index arrays are int32 and read-only."""

    bins: np.ndarray
    first: np.ndarray
    second: np.ndarray
    edge: np.ndarray
    size: int

    def __post_init__(self) -> None:
        for name in ("bins", "first", "second", "edge"):
            index = np.asarray(getattr(self, name), dtype=np.int32)  # owns int32 input, no copy
            index.flags.writeable = False
            object.__setattr__(self, name, index)

    def entries(self, weights: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, ...]:
        """(d, edge, |e| on it) of each of the (points x support) rows ``values``, as
        (points x states), the edges and (points x cross terms); ``weights`` is
        (values conj(values)).real.  Each row is bit for bit the per-state route:
        zeros add nothing, |z| = |conj(z)|."""
        n = len(values)
        d = np.bincount(stacked(self.bins, self.size, n), weights.reshape(-1), self.size * n)
        e = np.abs(values.take(self.first, axis=1) * values.take(self.second, axis=1).conj())
        return d.reshape(n, self.size), self.edge, e


def schmidt_weights(k: CoordKet, party_a: Iterable[str]) -> np.ndarray:
    """Nonzero eigenvalues of rho over ``party_a``: the two branch norms, descending.

    Each branch must be a product across the cut (rank one to 1e-12 of its
    largest entry squared, missing entries zero), as every scenario branch
    is, and the branches must share no state on either side; then they are
    the two Schmidt terms.  Anything else is a DomainError.
    """
    one, sides = k.branch == 1, []
    for pos in k.layout.split(party_a):
        sides.append(_ravel(k.occupations, k.layout.dims, pos))
        seen = np.zeros(math.prod(k.layout.dims[p] for p in pos), dtype=bool)
        seen[sides[-1][~one]] = True
        if seen[sides[-1][one]].any():
            raise DomainError("the two branches share a state on one side of the cut")
    side_a, side_b = sides
    for which in np.unique(k.branch):
        mine = k.branch == which
        rows, ia = np.unique(side_a[mine], return_inverse=True)
        cols, ib = np.unique(side_b[mine], return_inverse=True)
        check_dense(rows.size * cols.size)
        m = np.zeros((rows.size, cols.size), dtype=np.complex128)
        np.add.at(m, (ia, ib), k.values[mine])
        i, j = np.unravel_index(np.argmax(np.abs(m)), m.shape)
        if np.max(np.abs(m * m[i, j] - np.outer(m[:, j], m[i]))) > _PRODUCT_TOL * abs(m[i, j]) ** 2:
            raise DomainError(f"branch {which} is not a product across the cut")
    return np.sort(np.bincount(k.branch, np.abs(k.values) ** 2, 2))[::-1]
