import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelpair import (
    DomainError,
    LayoutError,
    Scenario,
    closed_form_ln,
    evaluate_scenario,
    named_bipartitions,
)
from accelpair.entanglement import (
    NEGATIVE_EIGENVALUE_TOL,
    Bipartition,
    _closed_form_row,
    partial_transpose,
    reduced_density,
)
from accelpair.fock import (
    DensityMatrix,
    Ket,
    SubsystemLayout,
    hermitian_eigenvalues,
)
from accelpair.entanglement import sweep_plan
from accelpair.states import Rung, build_final_state, scenario_amplitudes

from oracles import (
    EULER_GOMPERTZ,
    partial_trace,
    random_pure_amplitudes,
    scalar_both_aa_sector,
    scalar_both_pp_negativity,
    scalar_full_ln,
    scalar_one_sp_large_r,
    scalar_one_sp_negativity,
    trace_norm_negativity,
)

HALF_PI = math.pi / 2


def bell_state():
    layout = SubsystemLayout(("a", "b"), (2, 2))
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1.0 / math.sqrt(2.0)
    return Ket(layout, amps)


def pure(k):
    """|k><k| of a ket on modes a and b: its reduced density with nothing traced."""
    return reduced_density(k, Bipartition({"a"}, {"b"}))


def negativity(rho, party_a):
    """Absolute sum of the partial-transpose eigenvalues below -1e-12: the dense LN route."""
    eigs = hermitian_eigenvalues(partial_transpose(rho, party_a))
    return float(np.abs(eigs[eigs < -NEGATIVE_EIGENVALUE_TOL]).sum())


def log_negativity(rho, party_a):
    return math.log2(2.0 * negativity(rho, party_a) + 1.0)


def test_bipartition_validation():
    with pytest.raises(LayoutError):
        Bipartition(set(), {"b"})
    with pytest.raises(LayoutError):
        Bipartition({"a"}, {"a"})
    with pytest.raises(LayoutError):
        Bipartition({"a"}, {"b"}, {"a"})
    # a bare str would be one label per character: "ab" the party {"a", "b"}
    for parties in [("ab", {"c"}), ({"a"}, "b"), ({"a"}, {"b"}, "c"), ("s_p", "w_p")]:
        with pytest.raises(LayoutError, match="sequence of names, got '"):
            Bipartition(*parties)
    bp = Bipartition({"a"}, {"b"})
    with pytest.raises(LayoutError):
        bp.check_layout(("a", "b", "c"))


def test_reduced_density_without_tracing_is_outer_product():
    k = bell_state()
    rho = reduced_density(k, Bipartition({"a"}, {"b"}))
    assert np.max(np.abs(rho.entries - np.outer(k.amplitudes, k.amplitudes.conj()))) < 1e-15


def test_reduced_density_agrees_with_partial_trace_route():
    rng = np.random.default_rng(41)
    layout = SubsystemLayout(("a", "b", "c"), (2, 2, 3))
    for _ in range(8):
        k = Ket(layout, random_pure_amplitudes(rng, layout.total_dim))
        bp = Bipartition({"a"}, {"c"}, {"b"})
        direct = reduced_density(k, bp)
        via_trace = partial_trace(np.outer(k.amplitudes, k.amplitudes.conj()), layout.dims, (0, 2))
        assert np.max(np.abs(direct.entries - via_trace)) < 1e-12


def test_reduced_densities_are_positive_semidefinite():
    rng = np.random.default_rng(61)
    layout = SubsystemLayout(("a", "b", "c"), (2, 2, 3))
    for _ in range(6):
        k = Ket(layout, random_pure_amplitudes(rng, layout.total_dim))
        rho = reduced_density(k, Bipartition({"a"}, {"b"}, {"c"}))
        assert hermitian_eigenvalues(rho.entries)[0] >= -1e-10


def test_reduced_density_requires_unit_norm():
    k = bell_state()
    shrunk = Ket(k.layout, k.amplitudes * 0.9)
    with pytest.raises(DomainError):
        reduced_density(shrunk, Bipartition({"a"}, {"b"}))


def test_partial_transpose_empty_party_is_identity():
    rho = pure(bell_state())
    assert np.array_equal(partial_transpose(rho, ()), rho.entries)


def test_partial_transpose_is_involutive():
    rng = np.random.default_rng(43)
    layout = SubsystemLayout(("a", "b"), (2, 3))
    rho = pure(Ket(layout, random_pure_amplitudes(rng, layout.total_dim)))
    once = partial_transpose(rho, ("a",))
    twice = partial_transpose(DensityMatrix(rho.layout, once), ("a",))
    assert np.array_equal(twice, rho.entries)


def test_partial_transpose_bell_minimum_eigenvalue():
    pt = partial_transpose(pure(bell_state()), ("a",))
    eigs = hermitian_eigenvalues(pt)
    assert eigs[0] == pytest.approx(-0.5, abs=1e-14)
    assert np.allclose(np.sort(eigs), [-0.5, 0.5, 0.5, 0.5], atol=1e-14)


def test_partial_transpose_unknown_label():
    with pytest.raises(LayoutError):
        partial_transpose(pure(bell_state()), ("zz",))


def test_negativity_of_product_state_is_zero():
    layout = SubsystemLayout(("a", "b"), (2, 2))
    rho = pure(Ket(layout, np.kron([0.0, 1.0], [1.0, 0.0])))  # |1_a> (x) |0_b>
    assert negativity(rho, ("a",)) == 0.0
    assert log_negativity(rho, ("a",)) == 0.0


def test_negativity_of_bell_state():
    rho = pure(bell_state())
    assert negativity(rho, ("a",)) == pytest.approx(0.5, abs=1e-14)
    assert log_negativity(rho, ("a",)) == pytest.approx(1.0, abs=1e-14)


def test_negativity_matches_trace_norm_definition():
    rng = np.random.default_rng(47)
    layout = SubsystemLayout(("a", "b", "c"), (2, 3, 2))
    for _ in range(10):
        k = Ket(layout, random_pure_amplitudes(rng, layout.total_dim))
        bp = Bipartition({"a"}, {"b"}, {"c"})
        rho = reduced_density(k, bp)
        pt = partial_transpose(rho, bp.party_a)
        assert negativity(rho, bp.party_a) == pytest.approx(
            trace_norm_negativity(pt), abs=1e-10
        )


# --- named systems and closed forms ------------------------------------------


def test_named_bipartitions_cover_layouts():
    for acc in ("one", "both"):
        sc = Scenario("fermion", acc, 0.4)
        systems = named_bipartitions(sc)
        assert list(systems)[0] == "full"
        labels = ("s_p", "w_p", "w_a") if acc == "one" else ("s_p", "s_a", "w_p", "w_a")
        for bp in systems.values():
            bp.check_layout(labels)


def test_closed_form_values():
    assert closed_form_ln("fermion-one", "s,p", 0.0) == 1.0
    assert closed_form_ln("fermion-one", "s,a", HALF_PI) == pytest.approx(1.0, abs=1e-14)
    assert closed_form_ln("fermion-one", "full", 1.2) == 1.0
    assert closed_form_ln("fermion-both", "p,a", math.pi / 4) == pytest.approx(
        0.32192809488736235, abs=1e-14
    )
    assert closed_form_ln("fermion-both", "a,p", 0.9) == closed_form_ln(
        "fermion-both", "p,a", 0.9
    )


def test_closed_form_domain_errors():
    with pytest.raises(DomainError):
        closed_form_ln("scalar-one", "s,p", 0.3)
    with pytest.raises(DomainError):
        closed_form_ln("fermion-one", "p,p", 0.3)
    with pytest.raises(DomainError):
        closed_form_ln("fermion-one", "s,p", 2.0)
    with pytest.raises(DomainError, match="'p,p'"):  # every system of a row is checked
        _closed_form_row("fermion-one", ["full", "s,p", "p,p"])


@pytest.mark.parametrize("scenario", ["fermion-one", "fermion-both"])
def test_closed_forms_of_a_row_equal_each_closed_form(scenario):
    systems = list(named_bipartitions(Scenario(*scenario.split("-"), 0.0)))
    for r_f in np.linspace(0.0, HALF_PI, 17):
        each = [closed_form_ln(scenario, name, float(r_f)) for name in systems]
        assert _closed_form_row(scenario, iter(systems))([float(r_f)]) == [[ln] for ln in each]


def test_one_accelerated_particle_reduction_via_partial_trace():
    # the (s particle | w particle) reduction of the one-accelerated state
    r_f = 0.7
    ket, _ = build_final_state(Scenario("fermion", "one", r_f))
    full = np.outer(ket.amplitudes, ket.amplitudes.conj())
    kept = ket.layout.restricted(("s_p", "w_p"))  # positions 0 and 1 of (s_p, w_p, w_a)
    rho = DensityMatrix(kept, partial_trace(full, ket.layout.dims, (0, 1)))
    assert log_negativity(rho, ("s_p",)) == pytest.approx(
        math.log2(1.0 + math.cos(r_f) ** 2), abs=1e-12
    )


def test_one_accelerated_antiparticle_negativity_value():
    r_f = 0.9
    ket, _ = build_final_state(Scenario("fermion", "one", r_f))
    rho = reduced_density(ket, Bipartition({"s_p"}, {"w_a"}, {"w_p"}))
    assert negativity(rho, ("s_p",)) == pytest.approx(math.sin(r_f) ** 2 / 2.0, abs=1e-12)


# --- scenario pipelines -------------------------------------------------------


def test_fermion_pipeline_matches_closed_forms_on_grid():
    for acc in ("one", "both"):
        for i in range(33):
            r_f = HALF_PI * i / 32.0
            res = evaluate_scenario(Scenario("fermion", acc, r_f))
            for name, sr in res.systems.items():
                expected = closed_form_ln(f"fermion-{acc}", name, r_f)
                assert abs(sr.log_negativity - expected) < 1e-10, (acc, name, r_f)


def test_fermion_particle_antiparticle_symmetry():
    for r_f in np.linspace(0, HALF_PI, 17):
        res = evaluate_scenario(Scenario("fermion", "both", float(r_f)))
        assert abs(
            res.systems["p,a"].log_negativity - res.systems["a,p"].log_negativity
        ) < 1e-12


def test_full_bipartition_invariance():
    for acc in ("one", "both"):
        for r_f in np.linspace(0, HALF_PI, 9):
            res = evaluate_scenario(Scenario("fermion", acc, float(r_f)))
            assert abs(res.systems["full"].log_negativity - 1.0) < 1e-10
        for r in np.linspace(0, 1.0, 6):
            res = evaluate_scenario(Scenario("scalar", acc, float(r), cutoff=40))
            tol = max(1e-6, 10.0 * abs(res.deficit))
            assert abs(res.systems["full"].log_negativity - 1.0) < tol


def test_phase_never_changes_fermionic_ln():
    rng = np.random.default_rng(59)
    for acc in ("one", "both"):
        for r_f in (0.3, 1.1):
            base = evaluate_scenario(Scenario("fermion", acc, r_f, phase=0.0))
            for phi in rng.uniform(-math.pi, math.pi, size=4):
                shifted = evaluate_scenario(Scenario("fermion", acc, r_f, phase=float(phi)))
                for name in base.systems:
                    assert abs(
                        base.systems[name].log_negativity
                        - shifted.systems[name].log_negativity
                    ) < 1e-12


# --- where the entanglement goes: the fermion pair negativities sum to N(full) ----


def pair_sum_gaps(columns):
    """|N(full) - the sum of the pair systems' negativities| at each point of a rung,
    without and with each pair's eigenvalue in [-1e-12, 0), which counts as zero,
    added back: a fermion system has at most one negative eigenvalue, and a pair
    system reports its smallest exactly."""
    negativity, low = columns["negativity"], columns["min_pt_eigenvalue"]
    assert columns["systems"][0] == "full" and columns["negative_count"].max() <= 1
    every = -np.minimum(low[:, 1:], 0.0)  # each pair's negative eigenvalue, counted or not
    counted = np.abs(negativity[:, 0] - negativity[:, 1:].sum(axis=1))
    return counted, np.abs(negativity[:, 0] - every.sum(axis=1))


@pytest.mark.parametrize("accelerated", ["one", "both"])
def test_fermion_pair_negativities_sum_to_full_on_the_default_grid(accelerated):
    # one: c^2/2 + s^2/2; both: (c^4 + 2 c^2 s^2 + s^4)/2; N(full) = 1/2 throughout
    columns = evaluate_scenario(Rung("fermion", accelerated, np.linspace(0.0, HALF_PI, 1001)))
    counted, every = pair_sum_gaps(columns)
    assert counted.max() <= 1e-15 and np.array_equal(counted, every)  # nothing is dropped
    assert np.abs(columns["negativity"][:, 0] - 0.5).max() <= 1e-15


@given(
    st.sampled_from(["one", "both"]),
    st.lists(st.tuples(st.floats(0.0, HALF_PI), st.floats(-10.0, 10.0)), min_size=1, max_size=20),
)
@settings(max_examples=100, deadline=None)
def test_fermion_pair_negativities_sum_to_full(accelerated, points):
    squeezes, phases = zip(*points)
    columns = evaluate_scenario(Rung("fermion", accelerated, squeezes, phases=phases))
    counted, every = pair_sum_gaps(columns)
    assert every.max() <= 1e-15
    # near r_f = 0 and pi/2 some pair negativities fall below the 1e-12 threshold
    assert counted.max() <= 1e-15 + (len(columns["systems"]) - 1) * NEGATIVE_EIGENVALUE_TOL


def test_scalar_antiparticle_systems_are_ppt():
    res = evaluate_scenario(Scenario("scalar", "both", 0.5, cutoff=25))
    for name in ("p,a", "a,p", "a,a"):
        assert res.systems[name].log_negativity == 0.0
        assert res.systems[name].min_pt_eigenvalue >= -1e-10
    res = evaluate_scenario(Scenario("scalar", "one", 0.5, cutoff=25))
    assert res.systems["s,a"].log_negativity == 0.0
    assert res.systems["s,a"].min_pt_eigenvalue >= -1e-10


@pytest.mark.parametrize("r", [0.3, 0.9, 1.2])
def test_scalar_one_matches_infinite_cutoff_series(r):
    series = scalar_one_sp_negativity(r)
    at = {n: evaluate_scenario(Scenario("scalar", "one", r, cutoff=n)).systems for n in (30, 60, 120)}
    assert abs(at[120]["s,p"].negativity - series) < 1e-15
    if r == 1.2:  # the truncation shows at cutoff 30, so the check has teeth
        assert abs(at[30]["s,p"].negativity - series) > 1e-6
    # s,a is PPT at every cutoff: each 2x2 block's determinant is >= 0
    for systems in at.values():
        assert systems["s,a"].min_pt_eigenvalue >= 0.0
        assert systems["s,a"].negativity == 0.0


@pytest.mark.parametrize("r", [0.9, 1.2])
def test_scalar_both_matches_untruncated_sector_series(r):
    # the p,p sectors of the untruncated state against the plan at cutoff 120
    series = scalar_both_pp_negativity(r)
    pp = evaluate_scenario(Scenario("scalar", "both", r, cutoff=120)).systems["p,p"]
    assert abs(pp.negativity - series) < 1e-15
    assert abs(scalar_both_pp_negativity(r, threshold=0.0) - series) > 1e-13  # it has teeth


def test_euler_gompertz_constant_is_e_times_e1_of_1():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        assert abs(EULER_GOMPERTZ - float(mpmath.e * mpmath.e1(1))) < 1e-16


# The law's c2 = 1 - 3G/2 is derived (scalar_one_sp_large_r).  The remainder bound was
# pinned from the next term, ~0.013 / cosh^6 r at r = 2-6, before r = 3.5, 4.5 and 5.5
# were looked at; without the threshold, every block counts whatever its size.
@pytest.mark.parametrize("r", [3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0])
def test_scalar_one_negativity_follows_the_euler_gompertz_law(r):
    c2 = math.cosh(r) ** 2
    series = scalar_one_sp_negativity(r, terms=int(60 * c2), threshold=0.0)
    assert abs(series - scalar_one_sp_large_r(r)) * c2**3 < 0.02
    assert abs(series * c2 - EULER_GOMPERTZ / 2) * c2 > 0.1  # c2's term is there


def test_threshold_breaks_the_euler_gompertz_law_at_large_r():
    # with the package's 1e-12 threshold whole blocks fall below it: at r = 5
    # N cosh^2 r lies below G/2, where the law puts it above by c2 / cosh^2 r
    r, c2 = 5.0, math.cosh(5.0) ** 2
    counted = scalar_one_sp_negativity(r, terms=int(60 * c2), threshold=NEGATIVE_EIGENVALUE_TOL)
    assert counted * c2 - EULER_GOMPERTZ / 2 < 0.0 < scalar_one_sp_large_r(r) * c2 - EULER_GOMPERTZ / 2


def test_scalar_both_aa_sectors_are_strictly_diagonally_dominant():
    # the certificate of scalar_both_aa_sector, checked: each row of M_L beats its
    # couplings by at least u^2 (L + 2) / 2, so a,a is PPT at every acceleration
    r = np.linspace(0.0, 3.0, 31)
    u = 1.0 / np.cosh(r) ** 2
    for L in range(401):
        alpha, diag, off = scalar_both_aa_sector(r, L)
        couplings = np.zeros_like(diag)
        couplings[:, 1:] += off
        couplings[:, :-1] += off
        assert ((diag - couplings).min(axis=1) >= u * u * (L + 2) / 2).all(), L
        assert (alpha >= 0.0).all() and (diag > 0.0).all()


def test_scalar_both_aa_sectors_match_the_plan_chains():
    # every sector the cutoff leaves whole, L <= 60, against the cutoff-60 plan's
    # a,a chains (ascending L), eigenvalue by eigenvalue; tolerance pinned beforehand
    from scipy.linalg import eigh_tridiagonal

    r, cutoff = 0.9, 60
    plan = sweep_plan(Rung("scalar", "both", [r], cutoff))
    values = scenario_amplitudes(Rung("scalar", "both", [r], cutoff))[0]
    chain = plan.plans[plan.names.index("a,a")]
    (d,), lo, (e,) = chain.entries((values * values.conj()).real, values)
    ends = np.append(np.setdiff1d(np.arange(chain.size - 1), lo) + 1, chain.size)
    starts = np.append(0, ends[:-1])
    for L in range(cutoff + 1):
        lo_at, hi = starts[L], ends[L]
        assert hi - lo_at == L + 1, L
        inside = (lo >= lo_at) & (lo < hi - 1)
        ours = eigh_tridiagonal(d[lo_at:hi], e[inside], eigvals_only=True)
        alpha, diag, off = scalar_both_aa_sector(r, L)
        want = alpha[0] * eigh_tridiagonal(diag[0], off[0], eigvals_only=True)
        assert np.abs(ours - want).max() <= 1e-15, L
        assert want.min() > 0.0 or alpha[0] == 0.0


@pytest.mark.parametrize("accelerated", ["one", "both"])
@pytest.mark.parametrize("cutoff", [4, 30, 60])
@pytest.mark.parametrize("r", [0.3, 0.9, 1.2, 2.0])
def test_scalar_full_ln_matches_branch_norm_closed_form(accelerated, cutoff, r):
    res = evaluate_scenario(Scenario("scalar", accelerated, r, cutoff=cutoff))
    expected = scalar_full_ln(accelerated, r, cutoff)
    assert abs(res.systems["full"].log_negativity - expected) < 1e-13
    if (accelerated, cutoff, r) == ("both", 4, 2.0):  # truncation shows, so the check has teeth
        assert expected < 0.5


def test_ppt_negativity_is_positive_zero():
    # an empty sum of negative eigenvalues must not come back as -0.0
    res = evaluate_scenario(Scenario("scalar", "both", 0.5, cutoff=10))
    for value in [res.systems[name].negativity for name in ("p,a", "a,p", "a,a")]:
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_scalar_particle_entanglement_decreases():
    values = [
        evaluate_scenario(Scenario("scalar", "both", r, cutoff=30)).systems["p,p"].log_negativity
        for r in (0.0, 0.3, 0.6, 0.9)
    ]
    assert values[0] == pytest.approx(1.0, abs=1e-10)
    assert all(b < a - 1e-9 for a, b in zip(values, values[1:]))


def test_scenario_results_report_deficit():
    # both branches truncate: vacuum tail is geometric, the one-particle tail
    # follows from the derivative series; the state deficit combines them
    r, cutoff = 1.0, 20
    x = math.tanh(r) ** 2
    vac_tail = x ** (cutoff + 1)
    one_kept = (1.0 - x) ** 2 * sum((n + 1) * x**n for n in range(cutoff + 1))
    expected = 1.0 - ((1.0 - vac_tail) ** 2 + one_kept**2) / 2.0
    res = evaluate_scenario(Scenario("scalar", "both", r, cutoff=cutoff))
    assert res.deficit == pytest.approx(expected, rel=1e-9)
