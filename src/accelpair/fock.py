"""Finite-dimensional multi-mode Fock layouts and the dense reference records.

States live on an ordered sequence of sub-modes (particle or antiparticle
species of a named field mode), each given by a label and a local dimension,
which :class:`SubsystemLayout` holds side by side: a bosonic sub-mode
truncated at occupation N has dimension N+1, a fermionic sub-mode
dimension 2.  Joint occupation numbers are flattened row-major in
layout order by ``np.ravel_multi_index``, the one basis convention of every
operation in the package.
:class:`Ket` and :class:`DensityMatrix` are the dense records of the
reference route (:func:`accelpair.states.build_final_state`, the sweep state
made dense, and :func:`accelpair.entanglement.reduced_density`).  Dense
amplitude vectors are refused where they are made (:func:`check_dense`), not
when a layout is described: a layout only names its modes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, LayoutError

__all__ = [
    "DEFAULT_AMPLITUDE_LIMIT",
    "check_dense",
    "label_names",
    "SubsystemLayout",
    "Ket",
    "DensityMatrix",
    "hermitian_eigenvalues",
]

# Dense amplitude vectors larger than this are refused where they are made;
# the coordinate route never makes one, whatever the layout's dimension.
DEFAULT_AMPLITUDE_LIMIT = 1 << 20

_NORM_TOL = 1e-12
_UNIT_TRACE_TOL = 1e-10
_HERMITICITY_TOL = 1e-10


def check_dense(n: int) -> None:
    """LayoutError if ``n`` dense amplitudes exceed the limit; call before allocating."""
    if n > DEFAULT_AMPLITUDE_LIMIT:
        raise LayoutError(f"refusing to allocate {n} dense amplitudes (limit {DEFAULT_AMPLITUDE_LIMIT})")


def label_names(labels: Iterable[str]) -> Iterable[str]:
    """``labels`` itself; LayoutError on a bare ``str``, one label per character."""
    if isinstance(labels, str):
        raise LayoutError(f"sub-mode labels must be a sequence of names, got {labels!r}")
    return labels


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered sub-modes, each a unique non-empty label and an integer dimension
    >= 2, defining the row-major joint occupation basis.  The one place that maps
    labels to positions (:meth:`split`)."""

    labels: tuple[str, ...]
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(label_names(self.labels)))
        object.__setattr__(self, "dims", tuple(self.dims))
        if not self.labels:
            raise LayoutError("layout needs at least one sub-mode")
        if len(self.labels) != len(self.dims):
            raise LayoutError(f"{len(self.labels)} labels but {len(self.dims)} dims in layout")
        for label, dim in zip(self.labels, self.dims):
            if not (isinstance(label, str) and label):
                raise LayoutError(f"sub-mode label must be a non-empty string, got {label!r}")
            if not isinstance(dim, numbers.Integral):
                raise LayoutError(f"sub-mode {label!r} dimension must be an integer, got {dim!r}")
            if dim < 2:
                raise LayoutError(f"sub-mode {label!r} needs dimension >= 2, got {dim}")
        if len(set(self.labels)) != len(self.labels):
            raise LayoutError(f"duplicate sub-mode labels in layout: {list(self.labels)}")

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def split(self, labels: Iterable[str]) -> tuple[list[int], list[int]]:
        """Positions of ``labels``, in layout order, and of the other sub-modes;
        LayoutError on a label the layout lacks or on a bare ``str``."""
        wanted = set(label_names(labels))
        if unknown := wanted.difference(self.labels):
            names = ", ".join(sorted(map(repr, unknown)))
            raise LayoutError(f"unknown sub-mode labels {names} in layout {self.labels}")
        pos = [i for i, label in enumerate(self.labels) if label in wanted]
        return pos, [i for i, label in enumerate(self.labels) if label not in wanted]

    def restricted(self, labels: Iterable[str]) -> SubsystemLayout:
        """Sub-layout of the given labels, preserving this layout's order."""
        pos = self.split(labels)[0]
        return SubsystemLayout([self.labels[p] for p in pos], [self.dims[p] for p in pos])


@dataclass(frozen=True)
class Ket:
    """Pure state: complex amplitudes over the layout's joint occupation basis."""

    layout: SubsystemLayout
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        check_dense(self.layout.total_dim)
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape[0] != self.layout.total_dim:
            raise LayoutError(
                f"amplitude vector length {amps.shape[0]} does not match layout "
                f"dimension {self.layout.total_dim}"
            )
        if not (np.all(np.isfinite(amps.real)) and np.all(np.isfinite(amps.imag))):
            raise DomainError("ket amplitudes must be finite")
        if self.norm() > 1.0 + _NORM_TOL:
            raise DomainError(f"ket norm {self.norm()} exceeds 1 beyond tolerance")

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def amplitude(self, occupations: Sequence[int]) -> complex:
        return complex(self.amplitudes[np.ravel_multi_index(occupations, self.layout.dims)])


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace operator on a layout's joint basis."""

    layout: SubsystemLayout
    entries: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.entries, dtype=np.complex128)
        object.__setattr__(self, "entries", mat)
        n = self.layout.total_dim
        if mat.shape != (n, n):
            raise LayoutError(f"entries shape {mat.shape} does not match layout dimension {n}")
        scale = max(1.0, float(np.max(np.abs(mat))) if mat.size else 0.0)
        if float(np.max(np.abs(mat - mat.conj().T))) > 1e-12 * scale:
            raise DomainError("density matrix is not Hermitian within tolerance")
        if abs(complex(np.trace(mat)).real - 1.0) > _UNIT_TRACE_TOL:
            raise DomainError(f"density matrix trace {np.trace(mat)} is not 1 within tolerance")


def hermitian_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a (numerically) Hermitian matrix, real and ascending.

    The input is gated on its Hermiticity defect and symmetrized as
    (M + M^dagger)/2 before solving, so accumulated round-off cannot silently
    leak into eigenvalue signs.
    """
    mat = np.asarray(matrix, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {mat.shape}")
    scale = max(1.0, float(np.max(np.abs(mat))) if mat.size else 0.0)
    defect = float(np.max(np.abs(mat - mat.conj().T))) if mat.size else 0.0
    if defect > _HERMITICITY_TOL * scale:
        raise DomainError(f"matrix is not Hermitian: defect {defect:.3e} exceeds tolerance")
    sym = (mat + mat.conj().T) / 2.0
    return np.linalg.eigvalsh(sym)
