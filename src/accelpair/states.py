"""Out-basis expansions of the in-states and the four scenario states.

Both statistics share one two-mode form: an accelerated mode's in-vacuum
becomes sum_n c_n |n_p, n_a> and its one-particle state sum_n d_n
|(n+1)_p, n_a> in the out basis, with

* scalar:  c_n = tanh(r)^n / cosh(r),  d_n = sqrt(n+1) tanh(r)^n / cosh(r)^2
* fermion: c = (cos(r_f) e^{-i phi}, -sin(r_f)),  d = (1)

:func:`_expansion` is the one statement of these weights; the dense and the
coordinate route both read them, and :func:`_pair_ket` is the dense route's
one placement of a pair.  A scenario starts from the maximally entangled
combination (|0_s 0_w> + |1_s 1_w>)/sqrt(2) and substitutes the out expansion
for every accelerated mode; an unaccelerated mode stays a bare two-level
particle sub-mode.  Bosonic expansions are truncated at a cutoff,
renormalized, and the norm deficit is reported; fermionic states are exact.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fock import Ket, SubsystemLayout, boson_mode, check_dense, fermion_mode, normalize
from .sparse import CoordKet, norm_squared

__all__ = [
    "Scenario",
    "scenario_layout",
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
            if not isinstance(self.cutoff, numbers.Integral):
                raise DomainError(f"cutoff must be an integer, got {self.cutoff!r}")
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


def scenario_layout(sc: Scenario) -> SubsystemLayout:
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
    return SubsystemLayout(tuple(modes))


def _cosh_squared(r: float) -> float:
    """cosh(r)^2; DomainError where it overflows (r above ~355)."""
    try:
        return math.cosh(r) ** 2
    except OverflowError:
        raise DomainError(f"squeeze r = {r} overflows cosh(r)^2") from None


def _expansion(statistics: str, r: float, phase: float, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights c_n of |n_p, n_a> (vacuum) and d_n of |(n+1)_p, n_a> (one particle)."""
    if statistics == "fermion":
        return np.array([math.cos(r) * np.exp(-1j * phase), -math.sin(r)]), np.ones(1)
    n = np.arange(cutoff + 1)
    return np.tanh(r) ** n / math.cosh(r), np.sqrt(n + 1.0) * np.tanh(r) ** n / _cosh_squared(r)


def _pair_ket(pair_layout: SubsystemLayout, weights: np.ndarray, shift: int) -> Ket:
    """Dense pair state with weight n at |(n + shift)_p, n_a>."""
    amps = np.zeros(pair_layout.dims, dtype=np.complex128)
    n = np.arange(len(weights))
    amps[n + shift, n] = weights
    return Ket(pair_layout, amps)


def build_final_state(sc: Scenario) -> tuple[Ket, float]:
    """Scenario state on the canonical layout, renormalized, with norm deficit.

    Fermionic states are exactly unit norm (deficit 0); truncated scalar
    states are renormalized and the truncation deficit is returned.  Use
    :func:`build_final_state_coords` for scalar layouts too large to hold
    densely.
    """
    layout = scenario_layout(sc)
    check_dense(layout.total_dim)
    c, d = _expansion(sc.statistics, sc.squeeze, sc.phase, sc.cutoff)
    pair = _pair_layout("w", sc.cutoff, sc.statistics)
    vac, one = _pair_ket(pair, c, 0).amplitudes, _pair_ket(pair, d, 1).amplitudes
    if sc.accelerated == "both":
        s0, s1 = vac, one  # the s pair carries the same expansion as w
    else:
        s0, s1 = np.eye(2, dtype=np.complex128)  # bare |0_s>, |1_s>
    ket = Ket(layout, (np.kron(s0, vac) + np.kron(s1, one)) * (1.0 / math.sqrt(2.0)))
    return (ket, 0.0) if sc.is_fermion else normalize(ket)


def scenario_support(sc: Scenario) -> tuple[SubsystemLayout, np.ndarray, np.ndarray]:
    """Layout, tuples and branches (int32, read-only) of every entry a state of
    ``sc``'s statistics, accelerated modes and cutoff can hold, at any squeeze."""
    # per accelerated mode: vacuum entries |n_p, n_a>, one-particle entries |(n+1)_p, n_a>
    n_vac, n_one = (2, 1) if sc.is_fermion else (sc.cutoff + 1, sc.cutoff + 1)
    nc, nd = np.arange(n_vac, dtype=np.int32), np.arange(n_one, dtype=np.int32)
    layout = scenario_layout(sc)
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
    c, d = _expansion(sc.statistics, sc.squeeze, sc.phase, sc.cutoff)
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
