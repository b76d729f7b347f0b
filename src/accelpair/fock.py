"""Finite-dimensional multi-mode Fock algebra.

States live on an ordered sequence of sub-modes (particle or antiparticle
species of a named field mode).  A bosonic sub-mode truncated at occupation N
has local dimension N+1; a fermionic sub-mode always has dimension 2.  Joint
occupation numbers are flattened row-major in layout order by
``np.ravel_multi_index``, the one basis convention of every operation in the
package.
Dense amplitude vectors are refused where they are made (:func:`check_dense`),
not when a layout is described: a layout only names its modes.
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
    "SubModeSpec",
    "boson_mode",
    "fermion_mode",
    "SubsystemLayout",
    "Ket",
    "DensityMatrix",
    "tensor",
    "normalize",
    "outer_product",
    "partial_trace",
    "hermitian_eigenvalues",
]

# Dense amplitude vectors larger than this are refused where they are made;
# the coordinate route never makes one, whatever the layout's dimension.
DEFAULT_AMPLITUDE_LIMIT = 1 << 20

_NORM_TOL = 1e-12
_UNIT_TRACE_TOL = 1e-10
_HERMITICITY_TOL = 1e-10


@dataclass(frozen=True)
class SubModeSpec:
    """One sub-mode: a unique label, its statistics, and its local dimension."""

    label: str
    statistics: str
    dim: int

    def __post_init__(self) -> None:
        if not self.label:
            raise LayoutError("sub-mode label must be a non-empty string")
        if not isinstance(self.dim, numbers.Integral):
            raise LayoutError(f"sub-mode {self.label!r} dimension must be an integer, got {self.dim!r}")
        if self.statistics == "fermion":
            if self.dim != 2:
                raise LayoutError(f"fermionic sub-mode {self.label!r} must have dimension 2")
        elif self.statistics == "boson":
            if self.dim < 2:
                raise LayoutError(f"bosonic sub-mode {self.label!r} needs cutoff >= 1 (dim >= 2)")
        else:
            raise LayoutError(f"unknown statistics {self.statistics!r}")


def check_dense(n: int) -> None:
    """LayoutError if ``n`` dense amplitudes exceed the limit; call before allocating."""
    if n > DEFAULT_AMPLITUDE_LIMIT:
        raise LayoutError(f"refusing to allocate {n} dense amplitudes (limit {DEFAULT_AMPLITUDE_LIMIT})")


def boson_mode(label: str, cutoff: int) -> SubModeSpec:
    return SubModeSpec(label, "boson", cutoff + 1)


def fermion_mode(label: str) -> SubModeSpec:
    return SubModeSpec(label, "fermion", 2)


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered sub-modes defining the row-major joint occupation basis."""

    modes: tuple[SubModeSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "modes", tuple(self.modes))
        if not self.modes:
            raise LayoutError("layout needs at least one sub-mode")
        labels = [m.label for m in self.modes]
        if len(set(labels)) != len(labels):
            raise LayoutError(f"duplicate sub-mode labels in layout: {labels}")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(m.dim for m in self.modes)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(m.label for m in self.modes)

    @property
    def total_dim(self) -> int:
        return math.prod(m.dim for m in self.modes)

    def position(self, label: str) -> int:
        for i, m in enumerate(self.modes):
            if m.label == label:
                return i
        raise LayoutError(f"unknown sub-mode label {label!r}; layout has {self.labels}")

    def restricted(self, labels: Iterable[str]) -> "SubsystemLayout":
        """Sub-layout of the given labels, preserving this layout's order."""
        wanted = set(labels)
        for lbl in wanted:
            self.position(lbl)  # raises on unknown labels
        kept = tuple(m for m in self.modes if m.label in wanted)
        return SubsystemLayout(kept)


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

    @staticmethod
    def basis_state(layout: SubsystemLayout, occupations: Sequence[int]) -> "Ket":
        check_dense(layout.total_dim)
        amps = np.zeros(layout.total_dim, dtype=np.complex128)
        amps[np.ravel_multi_index(occupations, layout.dims)] = 1.0
        return Ket(layout, amps)


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


def tensor(a: Ket, b: Ket) -> Ket:
    """Tensor product; layouts concatenate, norms multiply."""
    overlap = set(a.layout.labels) & set(b.layout.labels)
    if overlap:
        raise LayoutError(f"tensor factors share sub-mode labels {sorted(overlap)}")
    layout = SubsystemLayout(a.layout.modes + b.layout.modes)
    check_dense(layout.total_dim)
    return Ket(layout, np.kron(a.amplitudes, b.amplitudes))


def normalize(k: Ket) -> tuple[Ket, float]:
    """Unit-norm copy plus the norm deficit 1 - <k|k> (truncation diagnostic)."""
    n2 = k.norm_squared()
    if n2 <= 0.0:
        raise DomainError("cannot normalize a zero ket")
    deficit = 1.0 - n2
    return Ket(k.layout, k.amplitudes / math.sqrt(n2)), deficit


def outer_product(k: Ket) -> DensityMatrix:
    """Rank-1 density matrix |k><k| of a unit-norm ket."""
    if abs(k.norm_squared() - 1.0) > _UNIT_TRACE_TOL:
        raise DomainError("outer_product requires a unit-norm ket; normalize first")
    return DensityMatrix(k.layout, np.outer(k.amplitudes, k.amplitudes.conj()))


def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Reduce to the sub-modes in ``keep`` (layout order preserved)."""
    keep_set = set(keep)
    if not keep_set:
        raise LayoutError("partial_trace requires a non-empty set of kept labels")
    layout = rho.layout
    keep_pos = sorted(layout.position(lbl) for lbl in keep_set)
    traced_pos = [i for i in range(len(layout.modes)) if i not in keep_pos]
    if not traced_pos:
        return DensityMatrix(layout, rho.entries.copy())
    dims = layout.dims
    n_modes = len(dims)
    t = rho.entries.reshape(dims + dims)
    perm = (
        keep_pos
        + traced_pos
        + [n_modes + p for p in keep_pos]
        + [n_modes + p for p in traced_pos]
    )
    keep_dim = math.prod(dims[p] for p in keep_pos)
    traced_dim = math.prod(dims[p] for p in traced_pos)
    t = t.transpose(perm).reshape(keep_dim, traced_dim, keep_dim, traced_dim)
    reduced = np.einsum("atbt->ab", t)
    return DensityMatrix(layout.restricted(keep_set), reduced)


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
