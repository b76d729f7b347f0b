"""Sweep plans: the squeeze-independent index structure against the per-point route."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelpair import (
    DomainError,
    Scenario,
    SubsystemLayout,
    boson_mode,
    build_final_state_coords,
    evaluate_scenario,
    fermion_mode,
    named_bipartitions,
)
from accelpair import entanglement
from accelpair.entanglement import (
    SystemResult,
    _ln_from_schmidt,
    _result_from_eigenvalues,
    sweep_plan,
)
from accelpair.sparse import (
    CoordKet,
    cut_sides,
    hermitian_block_eigenvalues,
    partial_transpose_sparse,
    plan_chain,
    reduced_gram,
    schmidt_weights,
)
from accelpair.states import kept_charges, scenario_layout, scenario_support

SCENARIOS = [(stat, acc) for stat in ("scalar", "fermion") for acc in ("one", "both")]


def reference_result(sc):
    """(deficit, systems) of sc through the per-point coordinate route."""
    ck, deficit = build_final_state_coords(sc)
    systems = {}
    for name, bp in named_bipartitions(sc).items():
        if not bp.traced:
            systems[name] = SystemResult(*_ln_from_schmidt(schmidt_weights(ck, bp.party_a)))
            continue
        rho, kept_dims, kept_labels = reduced_gram(ck, bp.kept)
        a_pos = [i for i, lbl in enumerate(kept_labels) if lbl in bp.party_a]
        eigs = hermitian_block_eigenvalues(
            partial_transpose_sparse(rho, kept_dims, a_pos),
            kept_charges(kept_dims, kept_labels, bp.party_a),
        )
        systems[name] = _result_from_eigenvalues(eigs)
    return deficit, systems


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
    sc = Scenario(*kind, squeeze, phase=phase, cutoff=cutoff)
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
    for chain in plan.systems.values():
        if chain is not None:
            arrays += [chain.bins, chain.first, chain.second, chain.edge]
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
    ref = hermitian_block_eigenvalues(partial_transpose_sparse(rho, kept_dims, [0]), SUM_CHARGE)
    ours = plan.eigenvalues((values * values.conj()).real, values)
    assert np.array_equal(ours, ref)


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
