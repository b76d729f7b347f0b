"""Sweep plans: the squeeze-independent index structure against the per-point route."""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelpair import DomainError, Scenario, evaluate_scenario, named_bipartitions
from accelpair import entanglement
from accelpair.cli import CUTOFF_CAP
from accelpair.entanglement import (
    SystemResult,
    _ln_from_schmidt,
    _system_result,
    chain_spectrum,
    pair_spectra,
    sweep_plan,
)
from accelpair.fock import SubsystemLayout, boson_mode, fermion_mode
from accelpair.sparse import (
    CoordKet,
    cut_sides,
    partial_transpose_sparse,
    plan_chain,
    reduced_gram,
    schmidt_weights,
    tridiagonal,
)
from accelpair.states import (
    build_final_state_coords,
    kept_charges,
    scenario_layout,
    scenario_support,
)

SCENARIOS = [(stat, acc) for stat in ("scalar", "fermion") for acc in ("one", "both")]


def traced_tridiagonals(ck, sc):
    """(d, |e|, edges) of each traced system's partial transpose, per-point route."""
    out = {}
    for name, bp in named_bipartitions(sc).items():
        if bp.traced:
            rho, kept_dims, kept_labels = reduced_gram(ck, bp.kept)
            a_pos = [i for i, lbl in enumerate(kept_labels) if lbl in bp.party_a]
            pt = partial_transpose_sparse(rho, kept_dims, a_pos)
            out[name] = tridiagonal(pt, kept_charges(kept_dims, kept_labels, bp.party_a))
    return out


def reference_result(sc):
    """(deficit, systems) of sc through the per-point coordinate route.

    The chain edges, and so pairs or chains, are read off the support at
    r = 0.5, where no amplitude vanishes: a plan keeps zero amplitudes.  The
    systems of pairs are joined into one batch, in order, as a plan joins them.
    """
    ck, deficit = build_final_state_coords(sc)
    generic = dataclasses.replace(sc, squeeze=0.5)
    structure = traced_tridiagonals(build_final_state_coords(generic)[0], generic)
    lo = {name: np.sort(edges) for name, (_, _, edges) in structure.items()}
    pairs = [name for name, at in lo.items() if (np.diff(at) > 1).all()]
    traced = traced_tridiagonals(ck, sc)
    systems = {}
    if pairs:
        starts = np.cumsum([0] + [traced[name][0].size for name in pairs])
        spectra = pair_spectra(
            np.concatenate([traced[name][0] for name in pairs]),
            np.concatenate([lo[name] + s for name, s in zip(pairs, starts)]),
            np.concatenate([traced[name][1][lo[name]] for name in pairs]),
            np.repeat(np.arange(len(pairs)), [lo[name].size for name in pairs]),
            starts,
        )
        systems.update(zip(pairs, map(_system_result, *spectra)))
    for name, (d, e, _) in traced.items():
        if name not in systems:
            systems[name] = _system_result(*chain_spectrum(d, lo[name], e[lo[name]]))
    ln, neg, low = _ln_from_schmidt(schmidt_weights(ck, named_bipartitions(sc)["full"].party_a))
    systems["full"] = SystemResult(ln, neg, low, int(low < -1e-12))
    return deficit, {name: systems[name] for name in named_bipartitions(sc)}


squeezes = st.one_of(
    st.sampled_from([0.0, 1e-3, 1e-200]), st.floats(0.0, math.pi / 2, allow_subnormal=False)
)


@given(
    st.sampled_from(SCENARIOS),
    st.sampled_from([4, 5, 30]),
    st.sampled_from([0.0, 0.7]),
    squeezes,
)
@settings(max_examples=120, deadline=None)
def test_plan_route_equals_per_point_route_exactly(kind, cutoff, phase, squeeze):
    assert_plan_route_equals_reference(Scenario(*kind, squeeze, phase=phase, cutoff=cutoff))


@pytest.mark.parametrize("r", [0.3, 1.2])
@pytest.mark.parametrize("cutoff", [60, 120, CUTOFF_CAP])
@pytest.mark.parametrize("accelerated", ["one", "both"])
def test_plan_route_equals_per_point_route_at_ladder_cutoffs(accelerated, cutoff, r):
    # the cutoffs a scalar row's ladder really reaches from the default start of 30
    assert_plan_route_equals_reference(Scenario("scalar", accelerated, r, cutoff=cutoff))


def assert_plan_route_equals_reference(sc):
    deficit, systems = reference_result(sc)
    res = evaluate_scenario(sc, sweep_plan(sc))
    assert res.deficit == deficit
    assert list(res.systems) == list(systems)
    for name, ref in systems.items():
        assert res.systems[name] == ref, name


@pytest.mark.parametrize("kind", SCENARIOS)
def test_shuffled_grid_through_one_plan_matches_fresh_plans(kind):
    grid = [0.0, 1e-200, 1e-3, 0.2, 0.6, 0.9, 1.2, 1.5]
    random.Random(5).shuffle(grid)
    plan = sweep_plan(Scenario(*kind, 0.4, cutoff=12))
    for r in grid:
        sc = Scenario(*kind, r, phase=0.7, cutoff=12)
        shared, fresh = evaluate_scenario(sc, plan), evaluate_scenario(sc)
        assert shared.deficit == fresh.deficit
        assert shared.systems == fresh.systems


@pytest.mark.parametrize("kind", SCENARIOS)
def test_plan_arrays_are_read_only_int32(kind):
    plan = sweep_plan(Scenario(*kind, 0.3, cutoff=6))
    arrays = [plan.branch, *scenario_support(Scenario(*kind, 0.3, cutoff=6))[1:]]
    for chain in [*plan.systems.values(), plan.batch]:
        if chain is not None:
            arrays += [chain.bins, chain.first, chain.second, chain.edge, chain.system, chain.starts]
    for a in arrays:
        assert a.dtype == np.int32
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[:1] = 0


def test_plan_of_another_cutoff_or_scenario_is_rejected():
    plan = sweep_plan(Scenario("scalar", "one", 0.3, cutoff=8))
    with pytest.raises(DomainError, match="does not fit"):
        evaluate_scenario(Scenario("scalar", "one", 0.3, cutoff=9), plan)
    with pytest.raises(DomainError, match="does not fit"):
        evaluate_scenario(Scenario("scalar", "both", 0.3, cutoff=8), plan)
    # fermions ignore the cutoff, and so do their plans
    fermion = sweep_plan(Scenario("fermion", "both", 0.3, cutoff=8))
    assert evaluate_scenario(Scenario("fermion", "both", 0.5, cutoff=30), fermion).systems == (
        evaluate_scenario(Scenario("fermion", "both", 0.5)).systems
    )


# Three kept or traced three-level modes; keep (a, b), trace t, transpose a.
TRIPLE = SubsystemLayout((boson_mode("a", 2), boson_mode("b", 2), boson_mode("t", 2)))
SUM_CHARGE = np.add.outer(np.arange(3), np.arange(3)).ravel()  # a + b: (1, 0) and (0, 1) meet


@pytest.mark.parametrize(
    "occ, branch, charge, message",
    [
        ([[0, 0, 0], [1, 0, 0]], [0, 0], SUM_CHARGE, "branch 0 has two entries"),
        ([[0, 0, 0], [0, 0, 0]], [0, 1], SUM_CHARGE, "share an occupation tuple"),
        ([[0, 0, 0], [1, 1, 0]], [0, 1], np.arange(9), "different charge"),
        ([[0, 0, 0], [1, 1, 0]], [0, 1], np.zeros(9, int), "not a chain"),
        ([[0, 0, 0], [1, 1, 0], [0, 0, 1], [1, 1, 1]], [0, 1, 0, 1], SUM_CHARGE, "one chain edge"),
    ],
)
def test_chain_plan_build_runs_the_structural_checks(occ, branch, charge, message):
    occ, branch = np.array(occ), np.array(branch)
    with pytest.raises(DomainError, match=message):
        plan_chain(TRIPLE, occ, branch, ("a", "b"), ("a",), charge)


def test_chain_plan_matches_reference_on_a_valid_support():
    occ, branch = np.array([[0, 0, 0], [1, 1, 0], [2, 0, 1]]), np.array([0, 1, 0])
    plan = plan_chain(TRIPLE, occ, branch, ("a", "b"), ("a",), SUM_CHARGE)
    values = np.array([0.6, 0.48j, -0.64]).astype(complex)
    ck = CoordKet(TRIPLE, occ, values, branch)
    rho, kept_dims, _ = reduced_gram(ck, ("a", "b"))
    d, e, edges = tridiagonal(partial_transpose_sparse(rho, kept_dims, [0]), SUM_CHARGE)
    ours = plan.entries((values * values.conj()).real, values)
    assert not plan.system.any() and np.array_equal(plan.starts, [0, 9])  # one system
    assert np.array_equal(ours[0], d)
    assert np.array_equal(ours[1], np.sort(edges)) and np.array_equal(ours[2], e[ours[1]])


def test_cut_check_rejects_branches_sharing_a_state():
    layout = SubsystemLayout((fermion_mode("a"), fermion_mode("b")))
    with pytest.raises(DomainError, match="share a state"):
        cut_sides(layout, np.array([[0, 0], [1, 0]]), np.array([0, 1]), ("a",))


def test_sweep_plan_raises_at_build_on_a_bad_support(monkeypatch):
    sc = Scenario("scalar", "one", 0.3, cutoff=4)
    layout = scenario_layout(sc)
    # (s_p, w_p, w_a): "s,p" gets the cross term (0,0)-(1,1) from traced w_a = 0 and w_a = 1
    occ = np.array([[0, 0, 0], [0, 0, 1], [1, 1, 0], [1, 1, 1]])
    monkeypatch.setattr(
        entanglement, "scenario_support", lambda _: (layout, occ, np.array([0, 0, 1, 1]))
    )
    with pytest.raises(DomainError, match="one chain edge"):
        sweep_plan(sc)
    # the same tuple in both branches fails the "full" cut first
    monkeypatch.setattr(
        entanglement, "scenario_support", lambda _: (layout, occ[[0, 0]], np.array([0, 1]))
    )
    with pytest.raises(DomainError, match="share a state"):
        sweep_plan(sc)
