"""Sweep plans: the squeeze-independent index structure against the per-point route."""

import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelpair import DomainError, LayoutError, Scenario, evaluate_scenario, named_bipartitions
from accelpair import entanglement, sparse
from accelpair.cli import CUTOFF_CAP, main
from accelpair.entanglement import (
    SystemResult,
    _results,
    _schmidt_spectra,
    chain_spectrum,
    pair_spectra,
    sweep_plan,
)
from accelpair.fock import SubsystemLayout
from accelpair.sparse import (
    ChainPlan,
    CoordKet,
    _swap,
    norm_squared,
    partial_transpose_sparse,
    reduced_gram,
    schmidt_weights,
    tridiagonal,
)
from accelpair.states import (
    Rung,
    _grids,
    _rung,
    build_final_state_coords,
    scenario_amplitudes,
    scenario_support,
    traced_plan,
)

from oracles import kept_charges
from test_golden import CASES, GOLDEN

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


def system_results(negativity, min_pt, count):
    """A :class:`SystemResult` per value of (negativity, min_pt, count) columns,
    LN by ``math.log2`` per value."""
    columns = zip(negativity.tolist(), min_pt.tolist(), count.tolist())
    return [SystemResult(math.log2(2.0 * n + 1.0), n, m, c) for n, m, c in columns]


ONE_PAIR = np.zeros(1, np.int32)  # the one coupling of a 2-state system


def reference_result(sc):
    """(deficit, systems) of sc through the per-point coordinate route.

    The chain edges, and so pairs or chains, are read off the support at
    r = 0.5, where no amplitude vanishes: a plan keeps zero amplitudes.  A system
    of pairs is one ``pair_spectra`` row, its negativity each pair's alone added
    in pair order from +0.0.
    """
    ck, deficit = build_final_state_coords(sc)
    generic = dataclasses.replace(sc, squeeze=0.5)
    structure = traced_tridiagonals(build_final_state_coords(generic)[0], generic)
    lo = {name: np.sort(edges) for name, (_, _, edges) in structure.items()}
    pairs = [name for name, at in lo.items() if (np.diff(at) > 1).all()]
    traced = traced_tridiagonals(ck, sc)
    systems = {}
    for name, (d, e, _) in traced.items():
        if name in pairs:
            _, low, count = pair_spectra(d[None], lo[name], e[lo[name]][None])
            alone = [pair_spectra(d[None, [i, i + 1]], ONE_PAIR, e[None, [i]]) for i in lo[name]]
            negativity = np.array([sum((each[0][0] for each in alone), 0.0)])
            systems[name] = system_results(negativity, low, count)[0]
        else:
            spectrum = chain_spectrum(d, lo[name], e[lo[name]])
            systems[name] = system_results(*map(np.array, zip(spectrum)))[0]
    weights = schmidt_weights(ck, named_bipartitions(sc)["full"].party_a)
    systems["full"] = system_results(*_schmidt_spectra(weights[None, :]))[0]
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


# the cutoffs a scalar row's ladder really reaches from the default start of 30, and
# scalar-both at cutoff 240 and large r, where long chains carry many cross terms
LADDER_CASES = [
    *itertools.product(["both", "one"], [60, 120, CUTOFF_CAP], [0.3, 1.2]),
    ("both", 240, 2.0),
]


@pytest.mark.parametrize("accelerated, cutoff, r", LADDER_CASES)
def test_plan_route_equals_per_point_route_at_ladder_cutoffs(accelerated, cutoff, r):
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
    for chain in plan.plans:
        arrays += [chain.bins, chain.first, chain.second, chain.edge]
    for a in arrays:
        assert a.dtype == np.int32
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[:1] = 0


@pytest.mark.parametrize("cutoff", [6, 30, 120, 480])
@pytest.mark.parametrize("kind", SCENARIOS)
def test_plan_edges_strictly_increase(kind, cutoff):
    plan = sweep_plan(Scenario(*kind, 0.3, cutoff=cutoff))
    for chain in plan.plans:
        assert (np.diff(chain.edge) > 0).all()


def traced_plan_by_sorting(sc, party_a, party_b):
    """:func:`~accelpair.states.traced_plan` by the sorting route it replaced, kept as
    its oracle: places from a stable argsort of the flipped charge over the kept
    grid, gathered per support entry, and the cross terms in argsort order of edge."""
    (vac, one), (layout, occ, _) = _grids(sc), scenario_support(sc)
    p = np.array([label.endswith("_p") for label in (party_a, party_b)], dtype=np.int64)
    dims = [max(v, o + x) for v, o, x in zip(vac, one, p)]
    a, b = (occ[:, layout.labels.index(label)] for label in (party_a, party_b))
    charge = np.add.outer(*((1 - 2 * x) * np.arange(dim) for x, dim in zip(p, dims))).ravel()
    place = np.empty(charge.size, np.int64)
    place[np.argsort(charge, kind="stable")] = np.arange(charge.size)
    lo = 1 - p  # the one-particle grid point j meets the vacuum's g = j + lo
    j = np.indices([min(v - x, o) for v, o, x in zip(vac, one, lo)]).reshape(2, -1)
    first = np.ravel_multi_index(j + lo[:, None], vac)
    second = math.prod(vac) + np.ravel_multi_index(j, one)
    swapped = a[second] * dims[1] + b[first], a[first] * dims[1] + b[second]  # party A's swap
    edge = np.minimum(*(place[i] for i in swapped))
    by = np.argsort(edge)
    bins = place[a * dims[1] + b]
    return ChainPlan(bins, first[by], second[by], edge[by], charge.size)


# fermions ignore the cutoff; 241 is an odd cutoff above 200
CLOSED_FORM_CASES = [
    *itertools.product(["scalar"], ["one", "both"], [4, 5, 30, 60, 120, CUTOFF_CAP, 241, 480]),
    *itertools.product(["fermion"], ["one", "both"], [4]),
]


@pytest.mark.parametrize("statistics, accelerated, cutoff", CLOSED_FORM_CASES)
def test_closed_form_plan_equals_the_sorting_route(statistics, accelerated, cutoff):
    sc = Scenario(statistics, accelerated, 0.3, cutoff=cutoff)
    traced = [bp for bp in named_bipartitions(sc).values() if bp.traced]
    assert len(traced) == (4 if accelerated == "both" else 2)
    for bp in traced:
        ours = traced_plan(sc, *bp.party_a, *bp.party_b)
        oracle = traced_plan_by_sorting(sc, *bp.party_a, *bp.party_b)
        assert type(ours.size) is int and ours.size == oracle.size, bp
        for name in ("bins", "first", "second", "edge"):
            got, want = getattr(ours, name), getattr(oracle, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), (bp, name)


@pytest.mark.parametrize("cutoff", [4, 5, 30])
def test_scalar_both_sectors_are_the_kept_grids_diagonals(cutoff):
    # written from the physics alone: p,p conserves n_s + n_w and transposing s_p
    # flips its sign, so its sectors are the anti-diagonals a + b = L of the
    # (N+2)^2 grid, in descending L (ascending flipped charge -L), each by
    # ascending a; p,a's are the diagonals b - a, in ascending b - a
    n = cutoff
    sc = Scenario("scalar", "both", 0.3, cutoff=n)
    plan = sweep_plan(sc)
    layout, occ, _ = scenario_support(sc)
    sizes = {}
    for name, party_b, dim_b, key in [
        ("p,p", "w_p", n + 2, lambda a, b: -(a + b)),
        ("p,a", "w_a", n + 1, lambda a, b: b - a),
    ]:
        kept = [(a, b) for a in range(n + 2) for b in range(dim_b)]
        order = sorted(kept, key=lambda ab: (key(*ab), ab[0]))
        place = {ab: i for i, ab in enumerate(order)}
        sectors = [key(*ab) for ab in order]
        sizes[name] = [sectors.count(k) for k in sorted(set(sectors))]
        chain = plan.plans[plan.names.index(name)]
        a, b = (occ[:, layout.labels.index(label)] for label in ("s_p", party_b))
        assert chain.size == len(kept)
        assert chain.bins.tolist() == [place[ab] for ab in zip(a.tolist(), b.tolist())]
        for e, i, k in zip(chain.edge.tolist(), chain.first.tolist(), chain.second.tolist()):
            # the cross term |a_i b_i><a_k b_k| couples (a_k, b_i) and (a_i, b_k)
            pair = sorted([place[a[k], b[i]], place[a[i], b[k]]])
            assert pair == [e, e + 1] and sectors[e] == sectors[e + 1]
        assert sum(sizes[name]) == len(kept)
    assert len(sizes["p,p"]) == 2 * n + 3
    assert sizes["p,p"] == [min(L, 2 * n + 2 - L) + 1 for L in range(2 * n + 2, -1, -1)]
    assert len(sizes["p,a"]) == 2 * n + 2


def row_entries(chain, values):
    """``chain``'s (d, edge, |e| on it) at the one point of the support ``values``."""
    d, edge, e = chain.entries((values * values.conj()).real[None], values[None])
    assert d.shape == (1, chain.size) and e.shape == (1, edge.size)
    return d[0], edge, e[0]


def system_entries(plan, values):
    """Each traced system's (d, edge, |e| on it) from its plan in ``plan``."""
    return {name: row_entries(chain, values) for name, chain in zip(plan.names, plan.plans)}


@pytest.mark.parametrize("cutoff", [4, 30, 60, 120, CUTOFF_CAP, 480])
@pytest.mark.parametrize("kind", SCENARIOS)
def test_plan_entries_equal_the_reference_route(kind, cutoff):
    # the shift rule's plan against the structure the reference route finds and
    # checks: every system's diagonal, sorted edges and |e| on them, with ==
    sc = Scenario(*kind, 2.0 if kind[0] == "scalar" else 1.2, phase=0.7, cutoff=cutoff)
    values = scenario_amplitudes(_rung(sc))[0][0]
    ck = build_final_state_coords(sc)[0]
    assert ck.values.size == values.size  # nothing underflows: the reference sees every entry
    reference, ours = traced_tridiagonals(ck, sc), system_entries(sweep_plan(sc), values)
    assert list(ours) == list(reference)
    for name, (d, e, edges) in reference.items():
        lo = np.sort(edges)
        assert np.array_equal(ours[name][0], d), name
        assert np.array_equal(ours[name][1], lo), name
        assert np.array_equal(ours[name][2], e[lo]), name


@pytest.mark.parametrize("kind", SCENARIOS)
def test_plan_build_sorts_nothing(kind, monkeypatch):
    def sort(*args, **kwargs):
        raise AssertionError("the plan build sorted")

    for name in ("sort", "argsort", "lexsort"):
        monkeypatch.setattr(np, name, sort)
    sweep_plan(Scenario(*kind, 0.3, cutoff=30))


def test_sweeps_never_discover_structure(monkeypatch, tmp_path):
    def discover(*args):
        raise AssertionError("a sweep discovered the plan's structure")

    for name in ("_cross_terms", "_swap", "_chain", "_entry_at"):
        monkeypatch.setattr(sparse, name, discover)
    for case in ("fermion-one", "fermion-both", "scalar-one", "scalar-both"):
        args, code = CASES[case]
        csv_path = tmp_path / f"{case}.csv"
        assert main(["sweep", *args, "--csv", str(csv_path)]) == code == 0
        assert csv_path.read_bytes() == (GOLDEN / f"{case}.csv").read_bytes(), case


def swap_by_round_trip(rows, cols, dims, a_positions):
    """_swap's reference: unravel both indices, exchange party A's digits, ravel back."""
    row_occ = np.array(np.unravel_index(rows, dims))
    col_occ = np.array(np.unravel_index(cols, dims))
    for p in a_positions:
        row_occ[p], col_occ[p] = col_occ[p].copy(), row_occ[p].copy()
    return np.ravel_multi_index(row_occ, dims), np.ravel_multi_index(col_occ, dims)


@st.composite
def swap_inputs(draw):
    dims = draw(st.lists(st.integers(1, 7), min_size=1, max_size=5))
    a_positions = draw(st.sets(st.integers(0, len(dims) - 1)))
    size, n = math.prod(dims), draw(st.integers(0, 40))
    index = st.lists(st.integers(0, size - 1), min_size=n, max_size=n).map(np.array)
    return draw(index).astype(np.int64), draw(index).astype(np.int64), dims, sorted(a_positions)


@given(swap_inputs())
@settings(max_examples=150, deadline=None)
def test_swap_equals_the_unravel_round_trip(case):
    rows, cols, dims, a_positions = case
    ours, ref = _swap(rows, cols, dims, a_positions), swap_by_round_trip(*case)
    for got, want in zip(ours, ref):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("bad", [-1, 12])
@pytest.mark.parametrize("side", [0, 1])
def test_swap_rejects_out_of_range_indices(side, bad):
    index = [np.array([0, 5]), np.array([11, 3])]
    index[side] = np.array([3, bad])
    with pytest.raises(ValueError):
        swap_by_round_trip(*index, (3, 4), [0])
    with pytest.raises(LayoutError, match="out of range"):
        _swap(*index, (3, 4), [0])


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
TRIPLE = SubsystemLayout(("a", "b", "t"), (3, 3, 3))
SUM_CHARGE = np.add.outer(np.arange(3), np.arange(3)).ravel()  # a + b: (1, 0) and (0, 1) meet


@pytest.mark.parametrize(
    "occ, branch, charge, message",
    [
        ([[0, 0, 0], [1, 0, 0]], [0, 0], SUM_CHARGE, "branch 0 has two entries"),
        ([[0, 0, 0], [0, 0, 0]], [0, 1], SUM_CHARGE, "share an occupation tuple"),
        ([[0, 0, 0], [1, 1, 0]], [0, 1], np.arange(9), "different charge"),
        ([[0, 0, 0], [1, 1, 0]], [0, 1], np.zeros(9, int), "not a chain"),
    ],
)
def test_chain_plan_build_runs_the_structural_checks(occ, branch, charge, message):
    # the checks a plan's structure passes, run by the reference route it is tested against
    ck = CoordKet(TRIPLE, np.array(occ), [0.6, 0.8], np.array(branch))
    with pytest.raises(DomainError, match=message):
        rho, kept_dims, _ = reduced_gram(ck, ("a", "b"))
        tridiagonal(partial_transpose_sparse(rho, kept_dims, [0]), charge)


def test_chain_plan_matches_reference_on_a_valid_support():
    occ, branch = np.array([[0, 0, 0], [1, 1, 0], [2, 0, 1]]), np.array([0, 1, 0])
    # worked by hand: the kept states (0,0), (1,1), (2,0) take places 0, 4, 5 in
    # charge order; the cross term at t = 0 swaps to (1,0)-(0,1), places 2 and 1
    plan = ChainPlan([0, 4, 5], [0], [1], [1], 9)
    values = np.array([0.6, 0.48j, -0.64]).astype(complex)
    ck = CoordKet(TRIPLE, occ, values, branch)
    rho, kept_dims, _ = reduced_gram(ck, ("a", "b"))
    d, e, edges = tridiagonal(partial_transpose_sparse(rho, kept_dims, [0]), SUM_CHARGE)
    ours = row_entries(plan, values)
    assert np.array_equal(ours[0], d)
    assert np.array_equal(ours[1], np.sort(edges)) and np.array_equal(ours[2], e[ours[1]])


def test_cut_check_rejects_branches_sharing_a_state():
    layout = SubsystemLayout(("a", "b"), (2, 2))
    ck = CoordKet(layout, np.array([[0, 0], [1, 0]]), [0.6, 0.8], np.array([0, 1]))
    with pytest.raises(DomainError, match="share a state"):
        schmidt_weights(ck, ("a",))


# --- lists of points as one rung: one pass, bit for bit the single evaluations -----


def points_of(rung):
    """The :class:`Scenario` of each point of ``rung``, in order."""
    points = zip(rung.squeezes.tolist(), rung.phases.tolist())
    return [Scenario(rung.statistics, rung.accelerated, r, ph, rung.cutoff) for r, ph in points]


def assert_rung_equals_points(rung, plan=None):
    """evaluate_scenario of the rung == each point evaluated alone, with no tolerance:
    the records made from its columns are equal and ``repr``-equal (-0.0 is not 0.0)."""
    columns = evaluate_scenario(rung, plan)
    scenarios, single_plan = points_of(rung), sweep_plan(rung) if plan is None else plan
    records = _results(scenarios, columns)
    assert len(records) == len(scenarios) == len(columns["deficit"])
    for res, sc in zip(records, scenarios):
        alone = evaluate_scenario(sc, single_plan)
        assert res == alone and repr(res) == repr(alone)
    return columns


grid_squeezes = st.one_of(
    st.sampled_from([0.0, 1e-200, 1e-3, math.pi / 2]),
    st.floats(0.0, math.pi / 2, allow_subnormal=False),
)


@given(
    st.sampled_from(SCENARIOS),
    st.sampled_from([4, 5, 30]),
    st.lists(st.tuples(grid_squeezes, st.sampled_from([0.0, 0.7])), min_size=1, max_size=50),
)
@settings(max_examples=60, deadline=None)
def test_list_equals_per_point_evaluations(kind, cutoff, points):
    squeezes, phases = zip(*points)
    assert_rung_equals_points(Rung(*kind, squeezes, cutoff, phases))


@pytest.mark.parametrize("accelerated", ["one", "both"])
def test_scalar_list_with_zero_rows_at_cutoff_120(accelerated):
    rung = Rung("scalar", accelerated, [0.0, 0.3, 0.0, 1.2, 1e-200, 0.9, 0.0], 120)
    columns = assert_rung_equals_points(rung)
    val, deficits = scenario_amplitudes(rung)
    assert (val[1] != 0.0).all() and deficits.tolist() == columns["deficit"].tolist()
    # the r = 0 rows hold zeros, and each is normed over its nonzero entries alone
    c = d = np.eye(1, 121)[0]  # tanh(r)^n / cosh(r), sqrt(n + 1) tanh(r)^n / cosh(r)^2 at r = 0
    if accelerated == "both":
        c, d = np.outer(c, c).ravel(), np.outer(d, d).ravel()
    raw = np.concatenate([c, d]) * (1.0 / math.sqrt(2.0))
    for i in (0, 2, 6):
        assert (val[i] == 0.0).any()
        assert columns["deficit"][i] == 1.0 - np.sum(np.abs(raw[raw != 0.0]) ** 2)


def test_norm_of_a_row_holding_zeros_sums_its_nonzero_entries_alone():
    rng = np.random.default_rng(7)
    rows = rng.uniform(0.0, 0.05, (64, 40)) * np.exp(1j * rng.uniform(0, 6, (64, 40)))
    rows[::2, rng.integers(0, 40, 12)] = 0.0  # every other row holds zeros
    regrouped = 0
    for i, row in enumerate(rows):
        alone = np.sum(np.abs(row[row != 0.0]) ** 2)
        assert norm_squared(rows)[i] == alone
        regrouped += np.sum(np.abs(row) ** 2) != alone
    assert regrouped  # summing the zeros in would have moved some norms


@pytest.mark.parametrize("kind", SCENARIOS)
def test_list_results_hold_python_numbers(kind):
    rung = Rung(*kind, [0.0, 0.4, 1.1], 6)
    for res in _results(points_of(rung), evaluate_scenario(rung)):
        assert type(res.deficit) is float
        for system in res.systems.values():
            for field in dataclasses.fields(system):
                want = int if field.name == "negative_count" else float
                assert type(getattr(system, field.name)) is want, field.name


def test_rung_without_a_plan_builds_its_own():
    rung = Rung("scalar", "both", [0.5, 0.0, 1.0], 10)
    built, given_plan = evaluate_scenario(rung), evaluate_scenario(rung, sweep_plan(rung))
    assert built.keys() == given_plan.keys() and built["systems"] == given_plan["systems"]
    for key in built.keys() - {"systems"}:
        assert np.array_equal(built[key], given_plan[key]), key
    with pytest.raises(DomainError, match=r"does not fit the rung, \('scalar', 'both', 10\)"):
        evaluate_scenario(rung, sweep_plan(Scenario("scalar", "both", 0.5, cutoff=12)))


@pytest.mark.parametrize("points", [[Scenario("fermion", "one", 0.1)], (), 0.3])
def test_evaluate_scenario_takes_a_scenario_or_a_rung(points):
    with pytest.raises(TypeError, match="a Scenario or a Rung"):
        evaluate_scenario(points)


def test_fermion_cutoffs_share_one_plan_in_a_list():
    plan = sweep_plan(Rung("fermion", "both", [0.3], 4))
    rungs = [Rung("fermion", "both", [0.3, 1.1, 0.3], n) for n in (4, 30, 90)]
    columns = [assert_rung_equals_points(rung, plan) for rung in rungs]
    for key in columns[0].keys() - {"systems"}:  # a fermion rung's cutoff changes nothing
        assert all(np.array_equal(c[key], columns[0][key]) for c in columns), key


@pytest.mark.parametrize("kind", SCENARIOS)
def test_list_longer_than_one_pass_is_split_exactly(kind, monkeypatch):
    rung = Rung(*kind, np.linspace(0, 1.5, 11), 5)
    entries = sweep_plan(rung).branch.size  # per point
    monkeypatch.setattr(entanglement, "_ENTRIES", 3 * entries + 1)  # room for 3 points
    passes, amplitudes = [], entanglement.scenario_amplitudes

    def counted(rung, part):  # a pass: the amplitudes of its points
        val, deficits = amplitudes(rung, part)
        passes.append(len(val))
        return val, deficits

    monkeypatch.setattr(entanglement, "scenario_amplitudes", counted)
    assert_rung_equals_points(rung)
    assert passes == [3, 3, 3, 2] + [1] * 11  # the rung's passes, then each point alone
    monkeypatch.setattr(entanglement, "_ENTRIES", entries - 1)  # a point over the bound
    passes.clear()
    evaluate_scenario(rung)
    assert passes == [1] * 11


@pytest.mark.parametrize("points", [1, 2, 3, 7])
@pytest.mark.parametrize("kind", SCENARIOS)
def test_rows_of_chain_plan_entries_equal_each_row_alone(kind, points):
    # one system's plan serves every point of a pass: n rows at once is each row alone, ==
    values = scenario_amplitudes(Rung(*kind, np.linspace(0.0, 1.5, points), cutoff=6))[0]
    weights = (values * values.conj()).real
    for chain in sweep_plan(Scenario(*kind, 0.3, cutoff=6)).plans:
        d, edge, e = chain.entries(weights, values)
        assert d.shape == (points, chain.size) and e.shape == (points, edge.size)
        assert edge is chain.edge
        for k in range(points):
            alone = row_entries(chain, values[k])
            assert all(map(np.array_equal, (d[k], edge, e[k]), alone)), k
        offsets = sparse.stacked(chain.bins, chain.size, points)  # where each row's weights go
        assert offsets.dtype == np.int32
        rows = np.arange(points)[:, None] * chain.size
        assert np.array_equal(offsets, (chain.bins + rows).ravel())
        if points == 1:  # one row bins by the plan itself, with no copy
            assert offsets is chain.bins
