"""Out-basis expansions of the in-states and the four scenario states.

Both statistics share one two-mode form: an accelerated mode's in-vacuum
becomes sum_n c_n |n_p, n_a> and its one-particle state sum_n d_n
|(n+1)_p, n_a> in the out basis, with

* scalar:  c_n = tanh(r)^n / cosh(r),  d_n = sqrt(n+1) tanh(r)^n / cosh(r)^2
* fermion: c = (cos(r_f) e^{-i phi}, -sin(r_f)),  d = (1)

:func:`scenario_amplitudes` states these weights once, for the points of a
:class:`Rung` at once: fermions by column (``math.cos`` and ``math.sin`` per
value, one ``np.exp`` of the phases), scalars one ``np.tanh`` power per point.  A
scenario starts from the maximally entangled combination (|0_s 0_w> +
|1_s 1_w>)/sqrt(2) and substitutes the out expansion for every accelerated
mode; an unaccelerated mode stays a bare two-level particle sub-mode.  Each
state is built once, in coordinates (:func:`scenario_support`,
:func:`scenario_amplitudes`); :func:`build_final_state` is that state made
dense.  Bosonic expansions are truncated at a cutoff, renormalized, and the
norm deficit is reported; fermionic states are exact.

The support is two grids over the modes (s, w), the vacuum block row-major
and then the one-particle block, an unaccelerated s mode being a one-point
grid.  Its shift rule, a particle sub-mode's occupation g on the vacuum
block and j + 1 on the one-particle block (an antiparticle's g and j), fixes
every traced system's partial transpose.  Its charge sectors are diagonals of
the kept grid, so :func:`traced_plan` writes its
:class:`~accelpair.sparse.ChainPlan` down in closed form, with no sort."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fock import Ket, SubsystemLayout, check_dense
from .sparse import ChainPlan, CoordKet, norm_squared

__all__ = [
    "Scenario",
    "Rung",
    "scenario_layout",
    "build_final_state",
    "build_final_state_coords",
    "scenario_branch",
    "scenario_support",
    "scenario_amplitudes",
    "traced_plan",
]

_HALF_PI = math.pi / 2.0


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


@dataclass(frozen=True, eq=False)
class Rung:
    """Points of one statistics, accelerated modes and cutoff, by column: read-only
    1-D float arrays of squeezes and phases (0 if not given) of one shape, checked
    once, as each point's :class:`Scenario` would be: the error is the first failing point's."""

    statistics: str
    accelerated: str
    squeezes: np.ndarray
    cutoff: int = 30
    phases: np.ndarray | None = None

    def __post_init__(self) -> None:
        r = np.array(self.squeezes, float)
        phase = np.zeros_like(r) if self.phases is None else np.array(self.phases, float)
        for name, column in (("squeezes", r), ("phases", phase)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if r.ndim != 1 or phase.shape != r.shape:
            shapes = f"squeezes {r.shape} and phases {phase.shape}"
            raise DomainError(f"a rung needs 1-D squeezes and phases of their shape, got {shapes}")
        if not r.size:
            raise DomainError("a rung needs at least one point")
        fermion = self.statistics == "fermion"
        ok = np.isfinite(r) & (r >= 0.0) & np.isfinite(phase) & ~(fermion & (r > _HALF_PI))
        first = r.size if ok.all() else int(ok.argmin())
        for i in sorted({0, first} - {r.size}):  # point 0 checks the shared fields too
            Scenario(self.statistics, self.accelerated, float(r[i]), float(phase[i]), self.cutoff)
            for x in [] if i or fermion else r[:first].tolist():
                _cosh_squared(x)  # DomainError at the first squeeze whose weights overflow


def _rung(sc: Scenario) -> Rung:
    """A scenario as the one-point rung of its kind."""
    return Rung(sc.statistics, sc.accelerated, [sc.squeeze], sc.cutoff, [sc.phase])


def scenario_layout(sc: Scenario) -> SubsystemLayout:
    """Canonical layout (s_p, s_a, w_p, w_a), omitting absent sub-modes."""
    # An unaccelerated s mode is a bare two-level particle sub-mode with no
    # antiparticle partner.  Scalar one-particle amplitudes reach occupation
    # cutoff+1, so a scalar particle sub-mode gets one extra level.
    pair = (2, 2) if sc.statistics == "fermion" else (sc.cutoff + 2, sc.cutoff + 1)
    if sc.accelerated == "one":
        return SubsystemLayout(("s_p", "w_p", "w_a"), (2, *pair))
    return SubsystemLayout(("s_p", "s_a", "w_p", "w_a"), pair * 2)


def _cosh_squared(r: float) -> float:
    """cosh(r)^2; DomainError where it overflows (r above ~355)."""
    try:
        return math.cosh(r) ** 2
    except OverflowError:
        raise DomainError(f"squeeze r = {r} overflows cosh(r)^2") from None


def build_final_state(sc: Scenario) -> tuple[Ket, float]:
    """:func:`build_final_state_coords`'s state and deficit, with the state made dense.

    LayoutError before anything is allocated where the dense vector would
    exceed the amplitude limit; the coordinate form has no such limit.
    """
    layout = scenario_layout(sc)
    check_dense(layout.total_dim)
    coords, deficit = build_final_state_coords(sc)
    amps = np.zeros(layout.total_dim, dtype=np.complex128)
    amps[np.ravel_multi_index(coords.occupations.T, layout.dims)] = coords.values
    return Ket(layout, amps), deficit


def _grids(sc: Scenario) -> tuple[tuple[int, int], tuple[int, int]]:
    """Shapes over the modes (s, w) of the vacuum block and the one-particle
    block; an unaccelerated s mode is a one-point grid."""
    n_vac, n_one = (2, 1) if sc.statistics == "fermion" else (sc.cutoff + 1, sc.cutoff + 1)
    s = (1, 1) if sc.accelerated == "one" else (n_vac, n_one)
    return (s[0], n_vac), (s[1], n_one)


def scenario_branch(sc: Scenario) -> np.ndarray:
    """Branch of each :func:`scenario_support` entry (int32, read-only): 0 on
    the vacuum block, then 1 on the one-particle block."""
    branch = np.repeat(np.array([0, 1], np.int32), [math.prod(g) for g in _grids(sc)])
    branch.flags.writeable = False
    return branch


def scenario_support(sc: Scenario) -> tuple[SubsystemLayout, np.ndarray, np.ndarray]:
    """Layout, tuples and branches (int32, read-only) of every entry a state of
    ``sc``'s statistics, accelerated modes and cutoff can hold, at any squeeze."""
    layout = scenario_layout(sc)
    g, j = (np.indices(shape, np.int32).reshape(2, -1) for shape in _grids(sc))
    modes = (("sw".index(label[0]), label.endswith("_p")) for label in layout.labels)
    occ = np.stack([np.concatenate([g[i], j[i] + p]) for i, p in modes], axis=1)
    occ.flags.writeable = False
    return layout, occ, scenario_branch(sc)


def traced_plan(sc: Scenario, party_a: str, party_b: str) -> ChainPlan:
    """Plan of the partial transpose over ``party_a`` (an s sub-mode) of rho over
    it and ``party_b`` (a w sub-mode), on :func:`scenario_support`, by the shift rule.

    With p = 1 for a particle sub-mode, the vacuum entry at grid point g sits
    at kept index g and the one-particle entry at j at j + p; the two meet at
    one traced index where j = g - (1 - p) in each mode, and transposing
    party A exchanges their kept A-coordinates.  The flipped charge (sign -1
    for a particle, +1 for an antiparticle) is constant on the kept grid's
    diagonals u + b = k, u = a for equal p and d_A - 1 - a otherwise.  States
    go by ascending charge (descending k where B is a particle), then by a,
    so a place is its sector's offset plus a - min(a); the distinct edges are
    ordered by one scatter.  Nothing is sorted or gathered over the support.
    The reference route (:func:`~accelpair.sparse.reduced_gram`,
    :func:`~accelpair.sparse.tridiagonal`) gives the same (d, edges, |e|).
    """
    (vac, one), p = _grids(sc), [int(label.endswith("_p")) for label in (party_a, party_b)]
    (da, db), q = (max(v, o + x) for v, o, x in zip(vac, one, p)), 1 - 2 * (p[0] != p[1])
    k, flip = np.arange(da + db - 1, dtype=np.int32), slice(None, None, 1 - 2 * p[1])
    top, low = np.minimum(k, da - 1), np.maximum(k - db + 1, 0)  # u's range in sector k
    size = (top - low + 1)[flip]
    base = (np.cumsum(size, dtype=np.int32) - size)[flip] - (low if q > 0 else da - 1 - top)
    place = np.lib.stride_tricks.sliding_window_view(base, db)[::q] + k[:da, None]
    bins = place[: vac[0], : vac[1]], place[p[0] : p[0] + one[0], p[1] : p[1] + one[1]]
    m = [min(v - 1 + x, o) for v, o, x in zip(vac, one, p)]  # the cross terms' j grid
    swapped = (place[x : x + m[0], 1 - y : 1 - y + m[1]] for x, y in (p, [1 - x for x in p]))
    slot = np.full(da * db, -1, np.int32)
    slot[np.minimum(*swapped).ravel()] = np.arange(m[0] * m[1], dtype=np.int32)  # party A's swap
    edge = np.flatnonzero(slot >= 0)
    js, jw = divmod(slot[edge], m[1])
    first = (js + 1 - p[0]) * vac[1] + jw + 1 - p[1]
    second = math.prod(vac) + js * one[1] + jw
    return ChainPlan(np.concatenate(bins, axis=None), first, second, edge, da * db)


def scenario_amplitudes(rung: Rung, part: slice = slice(None)) -> tuple:
    """Amplitudes on :func:`scenario_support` (zeros where a weight vanishes or
    underflows) and deficits of a rung's points ``part``, as (points x support)
    rows and a column; scalars renormalized, fermions exact."""
    r, fermion = rung.squeezes[part].tolist(), rung.statistics == "fermion"
    # the weights c_n of |n_p, n_a> (vacuum) and d_n of |(n+1)_p, n_a> (one particle)
    if fermion:  # math.cos and math.sin per value, the rest per column
        cos, sin = (np.array(list(map(f, r))) for f in (math.cos, math.sin))
        c, d = np.stack([cos * np.exp(-1j * rung.phases[part]), -sin], 1), np.ones((len(r), 1))
    else:
        n = np.arange(rung.cutoff + 1)
        t_n = np.array([np.tanh(x) ** n for x in r])
        cosh = np.array([[math.cosh(x), _cosh_squared(x)] for x in r])
        c, d = t_n / cosh[:, :1], np.sqrt(n + 1.0) * t_n / cosh[:, 1:]
    if rung.accelerated == "both":  # the outer products of all points at once
        c, d = (w[:, :, None] * w[:, None, :] for w in (c, d))
    val = np.concatenate([c.reshape(len(r), -1), d.reshape(len(r), -1)], axis=1)
    val = val * (1.0 / math.sqrt(2.0))
    n2, deficits = norm_squared(val), np.zeros(len(r))
    if not fermion:
        if (n2 == 0.0).any():  # the first point whose every amplitude underflows
            state = f"{rung.statistics}-{rung.accelerated} state at r = {r[np.argmin(n2)]}"
            raise DomainError(f"every amplitude of the {state} underflows to 0")
        val, deficits = val / np.sqrt(n2)[:, None], 1.0 - n2
    return val, deficits


def build_final_state_coords(sc: Scenario) -> tuple[CoordKet, float]:
    """Scenario state in coordinate form, vacuum branch 0 and one-particle branch 1.

    Holds only the populated occupation tuples (O(cutoff^2) for scalars), so
    arbitrary truncation cutoffs stay cheap.  Scalar states are renormalized,
    fermionic states are exact and keep deficit 0.
    """
    layout, occ, branch = scenario_support(sc)
    (val,), (deficit,) = scenario_amplitudes(_rung(sc))
    populated = val != 0.0  # keep the stored support tight (r = 0, underflow)
    return CoordKet(layout, occ[populated], val[populated], branch[populated]), float(deficit)
