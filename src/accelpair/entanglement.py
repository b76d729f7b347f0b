"""Negativity and logarithmic negativity over bipartitions of scenario states.

The negativity N is the absolute sum of the partial transpose's negative
eigenvalues, (trace norm - 1)/2, and LN = log2(2 N + 1).  Eigenvalues above
-1e-12 count as zero, so round-off never masquerades as entanglement; at
r in {0.3, 0.9, 1.2} that drops 1.0-2.6e-12 of genuine negativity from
scalar-one "s,p" and 2.0-5.2e-12 from scalar-both "p,p" (up to 1.5e-11 of
LN).  The scalar antiparticle systems need no threshold: their smallest
partial-transpose eigenvalue is >= 0 (exactly so for "s,a").

:func:`evaluate_scenario` runs all four scenarios through the two-branch
pipeline of :mod:`accelpair.sparse`, a rung of points by column (one scenario
as a record), on a :class:`SweepPlan`: the squeeze-independent index
structure that the state's shift rule gives (:func:`accelpair.states.traced_plan`).
Only the negative eigenvalues are computed.  A plan is pairs or chains: the
traced systems of fermions and scalar-one are 2-state pairs, solved in closed
form for all points at once (:func:`pair_spectra`); scalar-both's are longer
chains, one bisection each (:func:`chain_spectrum`).  It is the package's one LN route;
the per-state functions of :mod:`accelpair.sparse` and the dense
:func:`reduced_density` and :func:`partial_transpose` here are the reference
routes it is tested against.  Reduced systems carry conventional names: "s,p"
pairs the inert s mode with the w particles, "p,p" the particles of both
accelerated modes, and so on; "full" keeps every sub-mode, s side vs w side.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from .errors import DomainError, LayoutError
from .fock import DensityMatrix, Ket, label_names
from .sparse import ChainPlan, stacked
from .states import Rung, Scenario, _rung, scenario_amplitudes, scenario_branch, traced_plan

__all__ = [
    "NEGATIVE_EIGENVALUE_TOL",
    "Bipartition",
    "reduced_density",
    "partial_transpose",
    "closed_form_ln",
    "named_bipartitions",
    "SystemResult",
    "ScenarioResult",
    "pair_spectra",
    "chain_spectrum",
    "SweepPlan",
    "sweep_plan",
    "evaluate_scenario",
]

# Partial-transpose eigenvalues in [-1e-12, 0) are treated as zero; a chain
# with none at or below -1e-14 is certified PPT.
NEGATIVE_EIGENVALUE_TOL = 1e-12
_CERTIFIED_TOL = 1e-14
_TINY = np.finfo(float).tiny

# Schmidt weights below this are discarded before taking square roots, so the
# sqrt of eigensolver noise cannot accumulate across large layouts.
_SCHMIDT_WEIGHT_TOL = 1e-12

_UNIT_NORM_TOL = 1e-10
_ENTRIES = 1 << 13  # support entries per pass of evaluate_scenario: bounds the arrays a pass holds


@dataclass(frozen=True)
class Bipartition:
    """Party A, party B, and the traced-out remainder of a layout's labels."""

    party_a: frozenset[str]
    party_b: frozenset[str]
    traced: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        for side in ("party_a", "party_b", "traced"):
            object.__setattr__(self, side, frozenset(label_names(getattr(self, side))))
        if not self.party_a or not self.party_b:
            raise LayoutError("both parties of a bipartition must be non-empty")
        if self.party_a & self.party_b or self.kept & self.traced:
            raise LayoutError("bipartition sets must be pairwise disjoint")

    @property
    def kept(self) -> frozenset[str]:
        return self.party_a | self.party_b

    def check_layout(self, labels: Iterable[str]) -> None:
        labels = set(labels)
        if self.kept | self.traced != labels:
            raise LayoutError(
                f"bipartition {sorted(self.kept | self.traced)} does not cover layout "
                f"labels {sorted(labels)}"
            )


def reduced_density(state: Ket, bp: Bipartition) -> DensityMatrix:
    """Density matrix of the kept sub-modes: |state><state| traced over bp.traced.

    Computed as a Gram contraction of the amplitude tensor, which agrees with
    outer product followed by partial trace without materializing the full
    outer product.
    """
    bp.check_layout(state.layout.labels)
    if abs(state.norm_squared() - 1.0) > _UNIT_NORM_TOL:
        raise DomainError("reduced_density requires a unit-norm state; normalize first")
    layout = state.layout
    keep_pos, traced_pos = layout.split(bp.kept)
    dims = layout.dims
    keep_dim = math.prod(dims[p] for p in keep_pos)
    block = state.amplitudes.reshape(dims).transpose(keep_pos + traced_pos)
    block = block.reshape(keep_dim, -1)
    return DensityMatrix(layout.restricted(bp.kept), block @ block.conj().T)


def partial_transpose(rho: DensityMatrix, party_a: Iterable[str]) -> np.ndarray:
    """Transpose the party-A sub-mode indices between rows and columns.

    Involutive and trace-preserving; Hermiticity of the input is preserved.
    The result is generally not positive semidefinite, so a plain matrix is
    returned rather than a DensityMatrix.
    """
    dims = rho.layout.dims
    n_modes = len(dims)
    t = rho.entries.reshape(dims + dims)
    for p in rho.layout.split(party_a)[0]:
        t = np.swapaxes(t, p, n_modes + p)
    return np.ascontiguousarray(t.reshape(rho.entries.shape))


def _schmidt_spectra(norms: np.ndarray) -> tuple[np.ndarray, ...]:
    """Negativity, smallest eigenvalue and count below -1e-12 of pure states with
    Schmidt weights the (points x 2) ``norms``: the partial transpose's spectrum is
    {w0, w1, +-sqrt(w0 w1)}, so the trace norm is (sqrt(w0) + sqrt(w1))^2."""
    r = np.where(norms > _SCHMIDT_WEIGHT_TOL, np.sqrt(norms), 0.0)
    total, min_eig = r[:, 0] + r[:, 1], 0.0 - r[:, 0] * r[:, 1]  # +0.0 where a weight is dropped
    neg = np.maximum((total * total - 1.0) / 2.0, 0.0)
    return neg, min_eig, (min_eig < -NEGATIVE_EIGENVALUE_TOL).astype(int)


# the argument of log2 in each closed form, of c2 = cos(r_f)^2 and s2 = sin(r_f)^2
_CLOSED_FORMS = {
    "fermion-one": {
        "full": lambda c2, s2: np.full_like(c2, 2.0),
        "s,p": lambda c2, s2: 1.0 + c2,
        "s,a": lambda c2, s2: 1.0 + s2,
    },
    "fermion-both": {
        "full": lambda c2, s2: np.full_like(c2, 2.0),
        "p,p": lambda c2, s2: 1.0 + c2 * c2,
        "a,a": lambda c2, s2: 1.0 + s2 * s2,
        # LN(a,p) = LN(p,a) by the particle/antiparticle exchange symmetry.
        "p,a": lambda c2, s2: 1.0 + c2 * s2,
        "a,p": lambda c2, s2: 1.0 + c2 * s2,
    },
}


def _closed_form_row(scenario: str, systems: Iterable[str]) -> Callable[..., list[list[float]]]:
    """The closed forms of the named reduced systems, checked once, as one function
    of a list of r_f giving one column per system."""
    forms = _CLOSED_FORMS.get(scenario)
    if forms is None:
        raise DomainError(f"closed forms exist for fermion-one and fermion-both, got {scenario!r}")
    row = []
    for system in systems:
        if system not in forms:
            raise DomainError(f"unknown reduced system {system!r} for {scenario}: {sorted(forms)}")
        row.append(forms[system])

    def at(r_f: list[float]) -> list[list[float]]:
        c2, s2 = (np.array([f(r) ** 2 for r in r_f]) for f in (math.cos, math.sin))
        return [list(map(math.log2, form(c2, s2).tolist())) for form in row]

    return at


def closed_form_ln(scenario: str, system: str, r_f: float) -> float:
    """Closed-form fermionic logarithmic negativity for a named reduced system."""
    if not 0.0 <= r_f <= math.pi / 2.0:
        raise DomainError(f"r_f must lie in [0, pi/2], got {r_f}")
    return _closed_form_row(scenario, [system])([r_f])[0][0]


def named_bipartitions(sc: Scenario) -> dict[str, Bipartition]:
    """The reduced systems studied for a scenario, in canonical order."""
    if sc.accelerated == "one":
        return {
            "full": Bipartition({"s_p"}, {"w_p", "w_a"}),
            "s,p": Bipartition({"s_p"}, {"w_p"}, {"w_a"}),
            "s,a": Bipartition({"s_p"}, {"w_a"}, {"w_p"}),
        }
    return {
        "full": Bipartition({"s_p", "s_a"}, {"w_p", "w_a"}),
        "p,p": Bipartition({"s_p"}, {"w_p"}, {"s_a", "w_a"}),
        "p,a": Bipartition({"s_p"}, {"w_a"}, {"s_a", "w_p"}),
        "a,p": Bipartition({"s_a"}, {"w_p"}, {"s_p", "w_a"}),
        "a,a": Bipartition({"s_a"}, {"w_a"}, {"s_p", "w_p"}),
    }


@dataclass(frozen=True, slots=True)
class SystemResult:
    """Entanglement figures for one named reduced system.

    ``negative_count`` counts the partial-transpose eigenvalues below -1e-12.
    ``min_pt_eigenvalue`` is the smallest, exactly, for "full" and for pairs.
    For longer chains it is the smallest below -1e-14, or 0.0 to certify that
    none lies there (a PPT chain has thousands within 1e-14 of zero).
    """

    log_negativity: float
    negativity: float
    min_pt_eigenvalue: float
    negative_count: int


@dataclass(frozen=True, slots=True)
class ScenarioResult:
    """LN of every named bipartition of a scenario state, plus its deficit."""

    scenario: Scenario
    deficit: float
    systems: Mapping[str, SystemResult]


_FIGURES = SystemResult.__match_args__  # its fields, a rung's (points x systems) columns


def pair_spectra(d, lo, c) -> tuple[np.ndarray, ...]:
    """Negativity, smallest eigenvalue and count below -1e-12 of each row of
    symmetric tridiagonals, (points x states) ``d`` >= 0 with (points x pairs)
    couplings ``c`` >= 0 at (lo, lo + 1), whose couplings join disjoint pairs of
    states.  A row's negativity adds its pairs in order from +0.0, as it would alone."""
    a, b = d.take(lo, axis=1), d.take(lo + 1, axis=1)
    plus = (a + b) / 2 + np.hypot((a - b) / 2, c)
    # det / plus has none of (a + b)/2 - hypot's cancellation; plus < tiny only
    # where a, b, c < tiny, and there det underflows to 0
    minus = (a * b - c * c) / np.maximum(plus, _TINY)
    low = d.copy()
    low[:, lo] = np.minimum(a, minus)
    neg, rows = minus < -NEGATIVE_EIGENVALUE_TOL, np.repeat(np.arange(len(d)), lo.size)
    negativity = np.bincount(rows, (-minus * neg).ravel(), len(d))  # -0.0 terms add nothing
    return negativity, low.min(axis=1), neg.sum(axis=1)


@functools.cache
def _dstebz():
    """LAPACK ``dstebz``, loaded from scipy's ``_flapack`` extension alone.

    ``from scipy.linalg.lapack import dstebz`` runs all of
    ``scipy/linalg/__init__.py`` to reach this one routine: 0.18-0.34 s and
    ~24 MB of RSS, a third of a fresh scalar-both sweep.  The extension alone
    loads in 3-9 ms; the ``sys.modules`` entry it makes is dropped, so a later
    ``import scipy.linalg`` binds its own ``_flapack``, with this same ``dstebz``.
    Falls back to that import when the file is missing or fails to load.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name].dstebz
    scipy = importlib.util.find_spec("scipy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES if scipy else ():
        path = os.path.join(scipy.submodule_search_locations[0], "linalg", "_flapack" + suffix)
        if os.path.isfile(path):
            try:
                spec = importlib.util.spec_from_file_location(name, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                return module.dstebz
            except (ImportError, OSError):
                break
            finally:
                sys.modules.pop(name, None)
    from scipy.linalg.lapack import dstebz

    return dstebz


def chain_spectrum(d, lo, c) -> tuple[float, float, int]:
    """Negativity, smallest eigenvalue as :class:`SystemResult` certifies it,
    and count below -1e-12 of one symmetric tridiagonal (d, couplings c >= 0
    at (lo, lo + 1)).  One LAPACK ``dstebz`` (:func:`_dstebz`, without the
    ``scipy.linalg`` import) bisects for the eigenvalues in (Gershgorin bound,
    -1e-14], if any can lie there."""
    pad = np.zeros(d.size + 1)
    pad[lo + 1] = c
    bound = float(np.min(d - pad[:-1] - pad[1:]))
    if bound >= -_CERTIFIED_TOL:  # also keeps LAPACK from an empty interval
        return 0.0, 0.0, 0
    m, w, _, _, info = _dstebz()(d, pad[1:-1], 1, 2 * bound, -_CERTIFIED_TOL, 0, 0, 0.0, b"E")
    if info != 0:
        raise DomainError(f"dstebz failed (info {info})")
    w = w[:m]
    neg = w[w < -NEGATIVE_EIGENVALUE_TOL]
    return float(np.abs(neg).sum()), float(w.min(initial=0.0)), neg.size


class SweepPlan(NamedTuple):
    """Index structure of one (statistics, accelerated, cutoff), from the shift
    rule alone.  "full" needs only each support entry's ``branch``; ``plans``
    holds each traced system's :class:`~accelpair.sparse.ChainPlan`, in the order
    of ``names``, and ``paired`` says that every chain of them is a 2-state pair."""

    key: tuple[str, str, int | None]
    branch: np.ndarray
    names: tuple[str, ...]
    plans: tuple[ChainPlan, ...]
    paired: bool


def _plan_key(sc: Scenario | Rung) -> tuple[str, str, int | None]:
    return sc.statistics, sc.accelerated, None if sc.statistics == "fermion" else sc.cutoff


def sweep_plan(sc: Scenario | Rung) -> SweepPlan:
    """The plan of every scenario with ``sc``'s statistics, accelerated modes and
    cutoff, by :func:`~accelpair.states.traced_plan`'s shift rule.  A chain lies on
    a diagonal of the kept grid, so it has at most as many states as party A (an s
    sub-mode) has levels: pairs for fermions and scalar-one, longer for scalar-both."""
    traced = {name: bp for name, bp in named_bipartitions(sc).items() if bp.traced}
    plans = tuple(traced_plan(sc, *bp.party_a, *bp.party_b) for bp in traced.values())
    paired = sc.statistics == "fermion" or sc.accelerated == "one"
    return SweepPlan(_plan_key(sc), scenario_branch(sc), tuple(traced), plans, paired)


def evaluate_scenario(points: Scenario | Rung, plan: SweepPlan | None = None):
    """LN of each named bipartition of one scenario state or, by column, of each
    point of a :class:`~accelpair.states.Rung`.

    A rung gives a dict: ``systems`` (the names), ``deficit`` per point, and a
    (points x systems) array per :class:`SystemResult` field.  A scenario gives
    one :class:`ScenarioResult`, made from the columns of its one-point rung.
    ``plan`` is their :func:`sweep_plan` (built if not given; the tests hold it
    to the reference route, which checks the structure).  Per point, the
    amplitudes are checked (finite, norm at most 1 + 1e-12) and renormalized.
    Up to 8192 support entries of points (at least one) are the rows of one
    array, and only elementwise arithmetic and in-order reductions are shared:
    each point gets what it gets alone.
    """
    if isinstance(points, Scenario):
        return _results([points], evaluate_scenario(_rung(points), plan))[0]
    if not isinstance(points, Rung):
        raise TypeError(f"expected a Scenario or a Rung, got {type(points).__name__}")
    plan = sweep_plan(points) if plan is None else plan
    if _plan_key(points) != plan.key:
        raise DomainError(f"plan for {plan.key} does not fit the rung, {_plan_key(points)}")
    passes, step = [], max(1, _ENTRIES // plan.branch.size)
    for at in range(0, points.squeezes.size, step):
        val, deficits = scenario_amplitudes(points, slice(at, at + step))
        weights, n = (val * val.conj()).real, len(val)
        entries = [c.entries(weights, val) for c in plan.plans]  # per system, every point
        norms = np.bincount(stacked(plan.branch, 2, n), (np.abs(val) ** 2).ravel(), 2 * n)
        full = _schmidt_spectra(norms.reshape(n, 2))  # one negative, -sqrt(w0 w1)
        if plan.paired:  # one call per system, on all its points' rows
            spectra = [np.column_stack(s) for s in zip(*(pair_spectra(*e) for e in entries))]
        else:  # point by point, each point's systems in turn
            chains = (chain_spectrum(d[p], lo, c[p]) for p in range(n) for d, lo, c in entries)
            spectra = [np.array(s).reshape(n, -1) for s in zip(*chains)]
        figures = [np.column_stack([f, s]) for f, s in zip(full, spectra)]
        ln = list(map(math.log2, (2.0 * figures[0] + 1.0).ravel().tolist()))
        passes.append((deficits, np.array(ln).reshape(n, -1), *figures))
    columns = (np.concatenate(c) for c in zip(*passes))
    return {"systems": ("full", *plan.names), **dict(zip(("deficit", *_FIGURES), columns))}


def _results(scenarios: list[Scenario], columns: dict) -> list[ScenarioResult]:
    """One :class:`ScenarioResult` per scenario, made from its point of a rung's columns."""
    names, figures = columns["systems"], zip(*(columns[f].tolist() for f in _FIGURES))
    return [
        ScenarioResult(sc, deficit, {name: SystemResult(*f) for name, *f in zip(names, *point)})
        for sc, deficit, point in zip(scenarios, columns["deficit"].tolist(), figures)
    ]
