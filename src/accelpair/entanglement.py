"""Negativity and logarithmic negativity over bipartitions of scenario states.

The negativity N is the absolute sum of the partial transpose's negative
eigenvalues, (trace norm - 1)/2, and LN = log2(2 N + 1).  Eigenvalues above
-1e-12 count as zero, so round-off never masquerades as entanglement; at
r in {0.3, 0.9, 1.2} that drops 1.0-2.6e-12 of genuine negativity from
scalar-one "s,p" and 2.0-5.2e-12 from scalar-both "p,p" (up to 1.5e-11 of
LN).  The scalar antiparticle systems need no threshold: their smallest
partial-transpose eigenvalue is >= 0 (exactly so for "s,a").

:func:`evaluate_scenario` runs all four scenarios through the two-branch
pipeline of :mod:`accelpair.sparse`, on a :class:`SweepPlan` that holds the
squeeze-independent index structure (its docstring says which checks run
when the plan is built and which per point).  Only the negative eigenvalues
are computed: in closed form where a system's chains are 2-state pairs
(:func:`pair_spectra`), by bisection otherwise (:func:`chain_spectrum`).  The
per-state functions of :mod:`accelpair.sparse` and the dense functions here
are the reference routes it is tested against.  Reduced systems carry
conventional names: "s,p" pairs the inert s mode with the w particles, "p,p"
pairs the particles of both accelerated modes, and so on; "full" keeps every
sub-mode, split s side vs w side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import DomainError, LayoutError
from .fock import DensityMatrix, Ket, hermitian_eigenvalues
from .sparse import ChainPlan, cut_sides, plan_chain
from .states import Scenario, kept_charges, scenario_amplitudes, scenario_support

__all__ = [
    "NEGATIVE_EIGENVALUE_TOL",
    "Bipartition",
    "reduced_density",
    "partial_transpose",
    "negativity",
    "log_negativity",
    "log_negativity_pure",
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


@dataclass(frozen=True)
class Bipartition:
    """Party A, party B, and the traced-out remainder of a layout's labels."""

    party_a: frozenset[str]
    party_b: frozenset[str]
    traced: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "party_a", frozenset(self.party_a))
        object.__setattr__(self, "party_b", frozenset(self.party_b))
        object.__setattr__(self, "traced", frozenset(self.traced))
        if not self.party_a or not self.party_b:
            raise LayoutError("both parties of a bipartition must be non-empty")
        if (
            self.party_a & self.party_b
            or self.party_a & self.traced
            or self.party_b & self.traced
        ):
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
    keep_pos = sorted(layout.position(lbl) for lbl in bp.kept)
    traced_pos = [i for i in range(len(layout.dims)) if i not in keep_pos]
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
    labels = set(party_a)
    layout = rho.layout
    positions = sorted(layout.position(lbl) for lbl in labels)
    dims = layout.dims
    n_modes = len(dims)
    t = rho.entries.reshape(dims + dims)
    for p in positions:
        t = np.swapaxes(t, p, n_modes + p)
    return np.ascontiguousarray(t.reshape(rho.entries.shape))


def negativity(rho: DensityMatrix, party_a: Iterable[str]) -> float:
    """Absolute sum of the negative partial-transpose eigenvalues.

    Equals (||rho^{T_A}||_1 - 1)/2 for unit-trace input.
    """
    eigs = hermitian_eigenvalues(partial_transpose(rho, party_a))
    # abs, not negation: an empty sum must give 0.0, never -0.0
    return float(np.abs(eigs[eigs < -NEGATIVE_EIGENVALUE_TOL]).sum())


def log_negativity(rho: DensityMatrix, party_a: Iterable[str]) -> float:
    """LN = log2(2 N + 1); zero for PPT (in particular, product) states."""
    return math.log2(2.0 * negativity(rho, party_a) + 1.0)


def _ln_from_schmidt(weights: np.ndarray) -> tuple[float, float, float]:
    """(LN, negativity, min PT eigenvalue) of a pure state from its Schmidt weights.

    For a pure state the partial-transpose spectrum is {w_i} plus
    {+-sqrt(w_i w_j)}, so the trace norm is (sum_i sqrt(w_i))^2.
    """
    w = weights[weights > _SCHMIDT_WEIGHT_TOL]
    roots = np.sqrt(w)
    total = float(roots.sum())
    neg = (total * total - 1.0) / 2.0
    neg = max(neg, 0.0)
    min_eig = -float(roots[0] * roots[1]) if roots.size >= 2 else 0.0
    return math.log2(2.0 * neg + 1.0), neg, min_eig


def log_negativity_pure(state: Ket, party_a: Iterable[str]) -> float:
    """LN across party_a | rest for a pure state, via its Schmidt spectrum."""
    if abs(state.norm_squared() - 1.0) > _UNIT_NORM_TOL:
        raise DomainError("log_negativity_pure requires a unit-norm state")
    layout = state.layout
    a_pos = sorted(layout.position(lbl) for lbl in set(party_a))
    if len(a_pos) == len(layout.dims):
        raise LayoutError("party A must be a proper subset of the layout")
    b_pos = [i for i in range(len(layout.dims)) if i not in a_pos]
    dims = layout.dims
    dim_a = math.prod(dims[p] for p in a_pos)
    x = state.amplitudes.reshape(dims).transpose(a_pos + b_pos).reshape(dim_a, -1)
    gram = x @ x.conj().T if dim_a <= x.shape[1] else x.conj().T @ x
    weights = np.clip(np.linalg.eigvalsh(gram), 0.0, None)[::-1]
    return _ln_from_schmidt(weights)[0]


_CLOSED_FORMS = {
    "fermion-one": {
        "full": lambda c2, s2: 1.0,
        "s,p": lambda c2, s2: math.log2(1.0 + c2),
        "s,a": lambda c2, s2: math.log2(1.0 + s2),
    },
    "fermion-both": {
        "full": lambda c2, s2: 1.0,
        "p,p": lambda c2, s2: math.log2(1.0 + c2 * c2),
        "a,a": lambda c2, s2: math.log2(1.0 + s2 * s2),
        # LN(a,p) = LN(p,a) by the particle/antiparticle exchange symmetry.
        "p,a": lambda c2, s2: math.log2(1.0 + c2 * s2),
        "a,p": lambda c2, s2: math.log2(1.0 + c2 * s2),
    },
}


def closed_form_ln(scenario: str, system: str, r_f: float) -> float:
    """Closed-form fermionic logarithmic negativity for a named reduced system."""
    try:
        forms = _CLOSED_FORMS[scenario]
    except KeyError:
        raise DomainError(
            f"closed forms exist for 'fermion-one' and 'fermion-both', got {scenario!r}"
        ) from None
    if system not in forms:
        raise DomainError(f"unknown reduced system {system!r} for {scenario}: {sorted(forms)}")
    if not 0.0 <= r_f <= math.pi / 2.0:
        raise DomainError(f"r_f must lie in [0, pi/2], got {r_f}")
    c2 = math.cos(r_f) ** 2
    s2 = math.sin(r_f) ** 2
    return forms[system](c2, s2)


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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ScenarioResult:
    """LN of every named bipartition of a scenario state, plus its deficit."""

    scenario: Scenario
    deficit: float
    systems: Mapping[str, SystemResult]


def _system_result(negativity, min_pt, count) -> SystemResult:
    neg = float(negativity)
    return SystemResult(math.log2(2.0 * neg + 1.0), neg, float(min_pt), int(count))


def pair_spectra(d, lo, c, system, starts) -> tuple[np.ndarray, ...]:
    """Negativity, smallest eigenvalue and count below -1e-12 per system of
    symmetric tridiagonals (d >= 0, couplings c >= 0 at (lo, lo + 1)) whose
    couplings join disjoint pairs of states.  System i is
    d[starts[i]:starts[i + 1]] with the pairs marked i in ``system``."""
    a, b = d.take(lo), d[1:].take(lo)
    plus = (a + b) / 2 + np.hypot((a - b) / 2, c)
    # det / plus has none of (a + b)/2 - hypot's cancellation; plus < tiny only
    # where a, b, c < tiny, and there det underflows to 0
    minus = (a * b - c * c) / np.maximum(plus, _TINY)
    low = d.copy()
    low.put(lo, np.minimum(a, minus))
    neg, n = minus < -NEGATIVE_EIGENVALUE_TOL, starts.size - 1
    negativity = np.bincount(system, -minus * neg, n)  # -0.0 terms add nothing
    return negativity, np.minimum.reduceat(low, starts[:-1]), np.bincount(system, neg, n)


def chain_spectrum(d, lo, c) -> tuple[float, float, int]:
    """Negativity, smallest eigenvalue as :class:`SystemResult` certifies it,
    and count below -1e-12 of one symmetric tridiagonal (d, couplings c >= 0
    at (lo, lo + 1)).  One LAPACK ``dstebz`` bisects for the eigenvalues in
    (Gershgorin bound, -1e-14], if any can lie there."""
    pad = np.zeros(d.size + 1)
    pad[lo + 1] = c
    bound = float(np.min(d - pad[:-1] - pad[1:]))
    if bound >= -_CERTIFIED_TOL:  # also keeps LAPACK from an empty interval
        return 0.0, 0.0, 0
    from scipy.linalg.lapack import dstebz  # only chains load scipy.linalg (~270 ms)

    m, w, _, _, info = dstebz(d, pad[1:-1], 1, 2 * bound, -_CERTIFIED_TOL, 0, 0, 0.0, b"E")
    if info != 0:
        raise DomainError(f"dstebz failed (info {info})")
    w = w[:m]
    neg = w[w < -NEGATIVE_EIGENVALUE_TOL]
    return float(np.abs(neg).sum()), float(w.min(initial=0.0)), neg.size


@dataclass(frozen=True)
class SweepPlan:
    """Index structure of one (statistics, accelerated, cutoff): each system's
    :class:`~accelpair.sparse.ChainPlan`, None for the untraced "full" system,
    whose Schmidt weights are the norms of the branches in ``branch``.  The
    systems whose chains are all 2-state ``pairs`` are also joined, in order,
    into one plan, ``batch``; each point solves them together."""

    key: tuple[str, str, int | None]
    branch: np.ndarray
    systems: Mapping[str, ChainPlan | None]
    pairs: tuple[str, ...]
    batch: ChainPlan | None


def _plan_key(sc: Scenario) -> tuple[str, str, int | None]:
    return sc.statistics, sc.accelerated, None if sc.is_fermion else sc.cutoff


def sweep_plan(sc: Scenario) -> SweepPlan:
    """The plan of every scenario with ``sc``'s statistics, accelerated modes and cutoff."""
    layout, occ, branch = scenario_support(sc)
    systems: dict[str, ChainPlan | None] = {}
    for name, bp in named_bipartitions(sc).items():
        bp.check_layout(layout.labels)
        if not bp.traced:
            cut_sides(layout, occ, branch, bp.party_a)
            systems[name] = None
            continue
        kept = layout.restricted(bp.kept)
        charge = kept_charges(kept.dims, kept.labels, bp.party_a)
        systems[name] = plan_chain(layout, occ, branch, bp.kept, bp.party_a, charge)
    pairs = tuple(n for n, p in systems.items() if p is not None and (np.diff(p.edge) > 1).all())
    if not pairs:
        return SweepPlan(_plan_key(sc), branch, systems, pairs, None)
    # one plan for the pairs: each system's bins run over the support once more
    starts = np.cumsum([0] + [systems[n].starts[-1] for n in pairs])
    parts = zip((systems[n] for n in pairs), starts, range(len(pairs)))
    joined = [(p.bins + s, p.first, p.second, p.edge + s, p.system + i) for p, s, i in parts]
    batch = ChainPlan(*map(np.concatenate, zip(*joined)), starts)
    return SweepPlan(_plan_key(sc), branch, systems, pairs, batch)


def evaluate_scenario(sc: Scenario, plan: SweepPlan | None = None) -> ScenarioResult:
    """Compute LN for each named bipartition of the scenario state.

    ``plan`` is :func:`sweep_plan` of ``sc`` (built here if not given); a
    sweep builds one per cutoff.  Its build runs every structural check once,
    on the whole support: a branch with two entries at one traced index,
    branches sharing a tuple, a cross term coupling two charges, a sector
    that is not a chain, two cross terms on one chain edge, branches sharing
    a state on one side of the "full" cut.  Per point, the amplitudes are
    checked (finite, norm at most 1 + 1e-12) and renormalized, the norm
    summed over the nonzero entries only; zero entries stay in the support
    and change no sum.  The systems of pairs then take one ``bincount``, one
    gather and :func:`pair_spectra` together, each longer-chained system one
    ``bincount``, one gather and :func:`chain_spectrum`, and "full" the two
    branch norms.
    """
    if plan is None:
        plan = sweep_plan(sc)
    elif plan.key != _plan_key(sc):
        raise DomainError(f"plan for {plan.key} does not fit scenario {_plan_key(sc)}")
    val, deficit = scenario_amplitudes(sc)
    weights = (val * val.conj()).real
    paired, batch = {}, plan.batch
    if batch is not None:
        tiled = np.concatenate([weights] * len(plan.pairs))
        spectra = pair_spectra(*batch.entries(tiled, val), batch.system, batch.starts)
        paired = dict(zip(plan.pairs, map(_system_result, *spectra)))
    results: dict[str, SystemResult] = {}
    for name, chain in plan.systems.items():
        if chain is None:
            norms = np.sort(np.bincount(plan.branch, np.abs(val) ** 2, 2))[::-1]
            ln, neg, low = _ln_from_schmidt(norms)  # of two weights: one negative, -sqrt(w0 w1)
            results[name] = SystemResult(ln, neg, low, int(low < -NEGATIVE_EIGENVALUE_TOL))
        elif name in paired:
            results[name] = paired[name]
        else:
            results[name] = _system_result(*chain_spectrum(*chain.entries(weights, val)))
    return ScenarioResult(sc, deficit, results)
