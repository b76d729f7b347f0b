import math

import numpy as np
import pytest

from accelpair import (
    DomainError,
    LayoutError,
    Scenario,
    closed_form_ln,
    evaluate_scenario,
    named_bipartitions,
)
from accelpair.entanglement import (
    Bipartition,
    log_negativity,
    log_negativity_pure,
    negativity,
    partial_transpose,
    reduced_density,
)
from accelpair.fock import (
    DensityMatrix,
    Ket,
    SubsystemLayout,
    boson_mode,
    fermion_mode,
    hermitian_eigenvalues,
    outer_product,
    partial_trace,
    tensor,
)
from accelpair.states import build_final_state

from oracles import (
    random_pure_amplitudes,
    scalar_full_ln,
    scalar_one_sp_negativity,
    trace_norm_negativity,
)

HALF_PI = math.pi / 2


def bell_state():
    layout = SubsystemLayout((fermion_mode("a"), fermion_mode("b")))
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1.0 / math.sqrt(2.0)
    return Ket(layout, amps)


def test_bipartition_validation():
    with pytest.raises(LayoutError):
        Bipartition(set(), {"b"})
    with pytest.raises(LayoutError):
        Bipartition({"a"}, {"a"})
    with pytest.raises(LayoutError):
        Bipartition({"a"}, {"b"}, {"a"})
    bp = Bipartition({"a"}, {"b"})
    with pytest.raises(LayoutError):
        bp.check_layout(("a", "b", "c"))


def test_reduced_density_without_tracing_is_outer_product():
    k = bell_state()
    rho = reduced_density(k, Bipartition({"a"}, {"b"}))
    assert np.max(np.abs(rho.entries - outer_product(k).entries)) < 1e-15


def test_reduced_density_agrees_with_partial_trace_route():
    rng = np.random.default_rng(41)
    layout = SubsystemLayout((boson_mode("a", 1), fermion_mode("b"), boson_mode("c", 2)))
    for _ in range(8):
        k = Ket(layout, random_pure_amplitudes(rng, layout.total_dim))
        bp = Bipartition({"a"}, {"c"}, {"b"})
        direct = reduced_density(k, bp)
        via_trace = partial_trace(outer_product(k), ("a", "c"))
        assert np.max(np.abs(direct.entries - via_trace.entries)) < 1e-12


def test_reduced_densities_are_positive_semidefinite():
    rng = np.random.default_rng(61)
    layout = SubsystemLayout((boson_mode("a", 1), fermion_mode("b"), boson_mode("c", 2)))
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
    rho = outer_product(bell_state())
    assert np.array_equal(partial_transpose(rho, ()), rho.entries)


def test_partial_transpose_is_involutive():
    rng = np.random.default_rng(43)
    layout = SubsystemLayout((fermion_mode("a"), boson_mode("b", 2)))
    rho = outer_product(Ket(layout, random_pure_amplitudes(rng, layout.total_dim)))
    once = partial_transpose(rho, ("a",))
    twice = partial_transpose(DensityMatrix(rho.layout, once), ("a",))
    assert np.array_equal(twice, rho.entries)


def test_partial_transpose_bell_minimum_eigenvalue():
    pt = partial_transpose(outer_product(bell_state()), ("a",))
    eigs = hermitian_eigenvalues(pt)
    assert eigs[0] == pytest.approx(-0.5, abs=1e-14)
    assert np.allclose(np.sort(eigs), [-0.5, 0.5, 0.5, 0.5], atol=1e-14)


def test_partial_transpose_unknown_label():
    with pytest.raises(LayoutError):
        partial_transpose(outer_product(bell_state()), ("zz",))


def test_negativity_of_product_state_is_zero():
    a = Ket.basis_state(SubsystemLayout((fermion_mode("a"),)), (1,))
    b = Ket.basis_state(SubsystemLayout((fermion_mode("b"),)), (0,))
    rho = outer_product(tensor(a, b))
    assert negativity(rho, ("a",)) == 0.0
    assert log_negativity(rho, ("a",)) == 0.0


def test_negativity_of_bell_state():
    rho = outer_product(bell_state())
    assert negativity(rho, ("a",)) == pytest.approx(0.5, abs=1e-14)
    assert log_negativity(rho, ("a",)) == pytest.approx(1.0, abs=1e-14)


def test_negativity_matches_trace_norm_definition():
    rng = np.random.default_rng(47)
    layout = SubsystemLayout((fermion_mode("a"), boson_mode("b", 2), fermion_mode("c")))
    for _ in range(10):
        k = Ket(layout, random_pure_amplitudes(rng, layout.total_dim))
        bp = Bipartition({"a"}, {"b"}, {"c"})
        rho = reduced_density(k, bp)
        pt = partial_transpose(rho, bp.party_a)
        assert negativity(rho, bp.party_a) == pytest.approx(
            trace_norm_negativity(pt), abs=1e-10
        )


def test_log_negativity_pure_agrees_with_partial_transpose_route():
    rng = np.random.default_rng(53)
    layout = SubsystemLayout((fermion_mode("a"), boson_mode("b", 2), fermion_mode("c")))
    for _ in range(6):
        k = Ket(layout, random_pure_amplitudes(rng, layout.total_dim))
        rho = outer_product(k)
        for party in [("a",), ("a", "b"), ("b", "c")]:
            assert log_negativity_pure(k, party) == pytest.approx(
                log_negativity(rho, party), abs=1e-12
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


def test_one_accelerated_particle_reduction_via_partial_trace():
    # the (s particle | w particle) reduction of the one-accelerated state
    r_f = 0.7
    ket, _ = build_final_state(Scenario("fermion", "one", r_f))
    rho = partial_trace(outer_product(ket), ("s_p", "w_p"))
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
    a = Ket.basis_state(SubsystemLayout((fermion_mode("a"),)), (1,))
    b = Ket.basis_state(SubsystemLayout((fermion_mode("b"),)), (0,))
    values = [negativity(outer_product(tensor(a, b)), ("a",))]
    res = evaluate_scenario(Scenario("scalar", "both", 0.5, cutoff=10))
    values += [res.systems[name].negativity for name in ("p,a", "a,p", "a,a")]
    for value in values:
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
