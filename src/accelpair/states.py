"""Out-basis expansions of the in-states and the four scenario states.

An accelerated mode's in-vacuum and one-particle states become, in the out
basis, correlated particle/antiparticle expansions controlled by a squeezing
parameter:

* scalar vacuum:       sum_n tanh(r)^n / cosh(r) |n_p, n_a>
* scalar one-particle: sum_n sqrt(n+1) tanh(r)^n / cosh(r)^2 |(n+1)_p, n_a>
* fermion vacuum:      cos(r_f) e^{-i phi} |0_p, 0_a> - sin(r_f) |1_p, 1_a>
* fermion one-particle: |1_p, 0_a>

A scenario starts from the maximally entangled combination
(|0_s 0_w> + |1_s 1_w>)/sqrt(2) and substitutes the out expansion for every
accelerated mode; an unaccelerated mode stays a bare two-level particle
sub-mode.  Bosonic expansions are truncated at a cutoff, renormalized, and
the norm deficit is reported; fermionic states are exact.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fock import (
    DEFAULT_AMPLITUDE_LIMIT,
    Ket,
    SubsystemLayout,
    boson_mode,
    fermion_mode,
    normalize,
    tensor,
)
from .sparse import CoordKet, norm_squared

__all__ = [
    "Scenario",
    "scenario_layout",
    "scalar_out_vacuum",
    "scalar_out_one",
    "fermion_out_vacuum",
    "fermion_out_one",
    "build_final_state",
    "build_final_state_coords",
    "scenario_support",
    "scenario_amplitudes",
    "CHARGE_SIGNS",
    "kept_charges",
]

_HALF_PI = math.pi / 2.0

# Every scenario state obeys the selection rule (s_p - s_a) = (w_p - w_a):
# the charge sum(sign * occupation) vanishes on each populated tuple.
CHARGE_SIGNS = {"s_p": 1, "s_a": -1, "w_p": -1, "w_a": 1}


@dataclass(frozen=True)
class Scenario:
    """Which statistics, how many accelerated modes, and how strongly.

    ``squeeze`` is r for scalars (any value >= 0) or r_f in [0, pi/2] for
    fermions.  ``phase`` enters only the fermionic vacuum expansion and must
    not affect any entanglement result.  ``cutoff`` is the bosonic truncation;
    fermions ignore it.
    """

    statistics: str  # "scalar" | "fermion"
    accelerated: str  # "one" | "both"
    squeeze: float
    phase: float = 0.0
    cutoff: int = 30

    def __post_init__(self) -> None:
        if self.statistics not in ("scalar", "fermion"):
            raise DomainError(f"statistics must be 'scalar' or 'fermion', got {self.statistics!r}")
        if self.accelerated not in ("one", "both"):
            raise DomainError(f"accelerated must be 'one' or 'both', got {self.accelerated!r}")
        if not math.isfinite(self.squeeze) or self.squeeze < 0.0:
            raise DomainError(f"squeeze must be finite and >= 0, got {self.squeeze}")
        if self.statistics == "fermion" and self.squeeze > _HALF_PI:
            raise DomainError(f"fermion squeeze must be <= pi/2, got {self.squeeze}")
        if not math.isfinite(self.phase):
            raise DomainError("phase must be finite")
        if self.statistics == "scalar":
            if self.cutoff < 4:
                raise DomainError(f"scalar scenarios need cutoff >= 4, got {self.cutoff}")
            _cosh_squared(self.squeeze)  # DomainError where the weights would overflow

    @property
    def is_fermion(self) -> bool:
        return self.statistics == "fermion"


def _pair_layout(mode: str, cutoff: int, statistics: str) -> SubsystemLayout:
    # One-particle bosonic amplitudes reach occupation cutoff+1, so the
    # particle sub-mode gets one extra level; sharing the layout between the
    # vacuum and one-particle expansions keeps them superposable.
    if statistics == "fermion":
        modes = (fermion_mode(f"{mode}_p"), fermion_mode(f"{mode}_a"))
    else:
        modes = (boson_mode(f"{mode}_p", cutoff + 1), boson_mode(f"{mode}_a", cutoff))
    return SubsystemLayout(modes)


def scenario_layout(sc: Scenario, max_amplitudes: int | None = None) -> SubsystemLayout:
    """Canonical layout (s_p, s_a, w_p, w_a), omitting absent sub-modes."""
    modes: list = []
    for mode in ("s", "w"):
        if sc.accelerated == "both" or mode == "w":
            pair = _pair_layout(mode, sc.cutoff, sc.statistics)
            modes.extend(pair.modes)
        else:
            # Unaccelerated mode: bare two-level particle sub-mode, no
            # antiparticle partner is ever populated.
            modes.append(
                fermion_mode(f"{mode}_p") if sc.is_fermion else boson_mode(f"{mode}_p", 1)
            )
    if max_amplitudes is None:
        max_amplitudes = DEFAULT_AMPLITUDE_LIMIT
    return SubsystemLayout(tuple(modes), max_amplitudes=max_amplitudes)


def _vacuum_weights(r: float, cutoff: int) -> np.ndarray:
    n = np.arange(cutoff + 1)
    return np.tanh(r) ** n / math.cosh(r)


def _cosh_squared(r: float) -> float:
    """cosh(r)^2; DomainError where it overflows (r above ~355)."""
    try:
        return math.cosh(r) ** 2
    except OverflowError:
        raise DomainError(f"squeeze r = {r} overflows cosh(r)^2") from None


def _one_particle_weights(r: float, cutoff: int) -> np.ndarray:
    n = np.arange(cutoff + 1)
    return np.sqrt(n + 1.0) * np.tanh(r) ** n / _cosh_squared(r)


def _check_scalar_args(r: float, cutoff: int) -> None:
    if not math.isfinite(r) or r < 0.0:
        raise DomainError(f"squeeze parameter must be finite and >= 0, got {r}")
    if cutoff < 1:
        raise DomainError(f"cutoff must be >= 1, got {cutoff}")
    _cosh_squared(r)


def _scalar_pair_array(weights: np.ndarray, cutoff: int, particle_shift: int) -> np.ndarray:
    arr = np.zeros((cutoff + 2, cutoff + 1), dtype=np.complex128)
    n = np.arange(cutoff + 1)
    arr[n + particle_shift, n] = weights
    return arr


def scalar_out_vacuum(r: float, cutoff: int, mode: str = "w") -> tuple[Ket, float]:
    """Truncated two-mode squeezed vacuum |n_p, n_a>, renormalized.

    The reported deficit equals the geometric tail tanh(r)^(2(cutoff+1)).
    """
    _check_scalar_args(r, cutoff)
    raw = _scalar_pair_array(_vacuum_weights(r, cutoff), cutoff, 0)
    return normalize(Ket(_pair_layout(mode, cutoff, "scalar"), raw.ravel()))


def scalar_out_one(r: float, cutoff: int, mode: str = "w") -> tuple[Ket, float]:
    """Truncated one-particle expansion |(n+1)_p, n_a>, renormalized with deficit."""
    _check_scalar_args(r, cutoff)
    raw = _scalar_pair_array(_one_particle_weights(r, cutoff), cutoff, 1)
    return normalize(Ket(_pair_layout(mode, cutoff, "scalar"), raw.ravel()))


def fermion_out_vacuum(r_f: float, phase: float = 0.0, mode: str = "w") -> Ket:
    """Fermionic vacuum in the out basis: cos(r_f) e^{-i phase}|0,0> - sin(r_f)|1,1>."""
    if not 0.0 <= r_f <= _HALF_PI:
        raise DomainError(f"r_f must lie in [0, pi/2], got {r_f}")
    amps = np.zeros(4, dtype=np.complex128)
    amps[0] = math.cos(r_f) * np.exp(-1j * phase)
    amps[3] = -math.sin(r_f)
    return Ket(_pair_layout(mode, 1, "fermion"), amps)


def fermion_out_one(mode: str = "w") -> Ket:
    """Fermionic one-particle state in the out basis: exactly |1_p, 0_a>."""
    return Ket.basis_state(_pair_layout(mode, 1, "fermion"), (1, 0))


def build_final_state(sc: Scenario, max_amplitudes: int | None = None) -> tuple[Ket, float]:
    """Scenario state on the canonical layout, renormalized, with norm deficit.

    Fermionic states are exactly unit norm (deficit 0); truncated scalar
    states are renormalized and the truncation deficit is returned.  Use
    :func:`build_final_state_coords` for scalar layouts too large to hold
    densely.
    """
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    if sc.is_fermion:
        if sc.accelerated == "one":
            s_layout = SubsystemLayout((fermion_mode("s_p"),))
            branch0 = tensor(Ket.basis_state(s_layout, (0,)), fermion_out_vacuum(sc.squeeze, sc.phase, "w"))
            branch1 = tensor(Ket.basis_state(s_layout, (1,)), fermion_out_one("w"))
        else:
            branch0 = tensor(
                fermion_out_vacuum(sc.squeeze, sc.phase, "s"),
                fermion_out_vacuum(sc.squeeze, sc.phase, "w"),
            )
            branch1 = tensor(fermion_out_one("s"), fermion_out_one("w"))
        amps = (branch0.amplitudes + branch1.amplitudes) * inv_sqrt2
        return Ket(branch0.layout, amps), 0.0

    layout = scenario_layout(sc, max_amplitudes)
    vac = _scalar_pair_array(_vacuum_weights(sc.squeeze, sc.cutoff), sc.cutoff, 0).ravel()
    one = _scalar_pair_array(_one_particle_weights(sc.squeeze, sc.cutoff), sc.cutoff, 1).ravel()
    if sc.accelerated == "one":
        q0 = np.array([1.0, 0.0], dtype=np.complex128)
        q1 = np.array([0.0, 1.0], dtype=np.complex128)
        raw = (np.kron(q0, vac) + np.kron(q1, one)) * inv_sqrt2
    else:
        raw = (np.kron(vac, vac) + np.kron(one, one)) * inv_sqrt2
    return normalize(Ket(layout, raw))


def scenario_support(sc: Scenario) -> tuple[SubsystemLayout, np.ndarray, np.ndarray]:
    """Layout, tuples and branches (int32, read-only) of every entry a state of
    ``sc``'s statistics, accelerated modes and cutoff can hold, at any squeeze."""
    # per accelerated mode: vacuum entries |n_p, n_a>, one-particle entries |(n+1)_p, n_a>
    n_vac, n_one = (2, 1) if sc.is_fermion else (sc.cutoff + 1, sc.cutoff + 1)
    nc, nd = np.arange(n_vac, dtype=np.int32), np.arange(n_one, dtype=np.int32)
    # The amplitude limit guards dense allocations, which this form never makes.
    layout = scenario_layout(sc, max_amplitudes=sys.maxsize)
    if sc.accelerated == "one":
        vac = np.stack([np.zeros_like(nc), nc, nc], axis=1)  # |0_s> (x) vacuum
        one = np.stack([np.ones_like(nd), nd + 1, nd], axis=1)  # |1_s> (x) one particle
    else:
        cs, cw = np.divmod(np.arange(nc.size**2, dtype=np.int32), nc.size)  # row-major (s, w)
        ds, dw = np.divmod(np.arange(nd.size**2, dtype=np.int32), nd.size)
        vac, one = np.stack([cs, cs, cw, cw], axis=1), np.stack([ds + 1, ds, dw + 1, dw], axis=1)
    occ = np.concatenate([vac, one])
    branch = np.repeat(np.array([0, 1], dtype=np.int32), [len(vac), len(one)])
    occ.flags.writeable = branch.flags.writeable = False
    return layout, occ, branch


def scenario_amplitudes(sc: Scenario) -> tuple[np.ndarray, float]:
    """Amplitudes on :func:`scenario_support` (zeros where a weight vanishes or
    underflows), with the deficit; scalars renormalized, fermions exact."""
    # vacuum weights c_n of |n_p, n_a>, one-particle weights d_n of |(n+1)_p, n_a>
    if sc.is_fermion:
        c = np.array([math.cos(sc.squeeze) * np.exp(-1j * sc.phase), -math.sin(sc.squeeze)])
        d = np.ones(1)
    else:
        c, d = _vacuum_weights(sc.squeeze, sc.cutoff), _one_particle_weights(sc.squeeze, sc.cutoff)
    if sc.accelerated == "both":
        c, d = np.outer(c, c).ravel(), np.outer(d, d).ravel()
    val = np.concatenate([c, d]) * (1.0 / math.sqrt(2.0))
    n2 = norm_squared(val)
    if sc.is_fermion:
        return val, 0.0
    if n2 <= 0.0:
        raise DomainError("cannot normalize a zero ket")
    return val / math.sqrt(n2), 1.0 - n2


def build_final_state_coords(sc: Scenario) -> tuple[CoordKet, float]:
    """Scenario state in coordinate form, vacuum branch 0 and one-particle branch 1.

    Holds only the populated occupation tuples (O(cutoff^2) for scalars), so
    arbitrary truncation cutoffs stay cheap.  Amplitudes and deficit match
    :func:`build_final_state` where both can run: scalar states are
    renormalized, fermionic states are exact and keep deficit 0.
    """
    layout, occ, branch = scenario_support(sc)
    val, deficit = scenario_amplitudes(sc)
    populated = val != 0.0  # keep the stored support tight (r = 0, underflow)
    return CoordKet(layout, occ[populated], val[populated], branch[populated]), deficit


def kept_charges(dims: tuple[int, ...], labels: tuple[str, ...], flipped=frozenset()) -> np.ndarray:
    """Charge of each kept occupation tuple, row-major, with ``flipped`` signs reversed.

    Reduced density matrices of scenario states conserve it; their partial
    transposes over party A conserve it with party A flipped.
    """
    charge = np.zeros((), dtype=np.int64)
    for dim, label in zip(dims, labels):
        sign = -CHARGE_SIGNS[label] if label in flipped else CHARGE_SIGNS[label]
        charge = np.add.outer(charge, sign * np.arange(dim))
    return charge.ravel()
