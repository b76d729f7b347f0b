import math

import numpy as np
import pytest

from accelpair import DomainError, Scenario
from accelpair.states import (
    build_final_state,
    build_final_state_coords,
    kept_charges,
    scenario_amplitudes,
    scenario_layout,
    scenario_support,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def sweep_amplitude(sc, occ):
    """Amplitude of :func:`scenario_amplitudes` at one occupation tuple, with the deficit."""
    _, support, _ = scenario_support(sc)
    val, deficit = scenario_amplitudes(sc)
    (i,) = np.flatnonzero((support == occ).all(axis=1))
    return val[i], deficit


def branch_tuples(support, branch, which):
    return {tuple(t) for t in support[branch == which]}


def tail_deficit(accelerated, r, cutoff):
    """1 - (A + B)/2 with A = sum_{n<=N} c_n^2 and B = sum_{n<=N} d_n^2, squared
    when both modes are accelerated; x = tanh(r)^2, N = cutoff."""
    x, n = math.tanh(r) ** 2, cutoff
    a = 1.0 - x ** (n + 1)
    b = 1.0 - (n + 2) * x ** (n + 1) + (n + 1) * x ** (n + 2)
    if accelerated == "both":
        a, b = a * a, b * b
    return 1.0 - (a + b) / 2.0


# --- scalar expansions ------------------------------------------------------


def test_scalar_vacuum_at_zero_squeeze_is_ground_state():
    # at r = 0 the sweep's vacuum branch is c_0 = 1 on |0_p, 0_a> and nothing
    # else, weighted exactly as the one-particle branch's d_0 = 1
    for acc in ("one", "both"):
        sc = Scenario("scalar", acc, 0.0, cutoff=8)
        _, _, branch = scenario_support(sc)
        val, deficit = scenario_amplitudes(sc)
        assert deficit == pytest.approx(0.0, abs=1e-15)
        vac = val[branch == 0]
        assert vac[0] == val[branch == 1][0] == pytest.approx(INV_SQRT2, abs=1e-15)
        assert np.count_nonzero(vac) == 1


def test_scalar_vacuum_term_value():
    # raw n = 2 weight c_2 = tanh(0.5)^2 / cosh(0.5), frozen from direct evaluation
    sc = Scenario("scalar", "one", 0.5, cutoff=10)
    ket, deficit = build_final_state(sc)
    val, sweep_deficit = sweep_amplitude(sc, (0, 2, 2))
    for amp, dfc in ((ket.amplitude((0, 2, 2)), deficit), (val, sweep_deficit)):
        raw = amp.real * math.sqrt(2.0) * math.sqrt(1.0 - dfc)
        assert raw == pytest.approx(0.18938218312043545, abs=1e-15)


@pytest.mark.parametrize("cutoff", [5, 10, 20])
def test_scalar_vacuum_deficit_is_geometric_tail(cutoff):
    for acc in ("one", "both"):
        for r in (0.5, 1.2):
            sc = Scenario("scalar", acc, r, cutoff=cutoff)
            expected = tail_deficit(acc, r, cutoff)
            assert abs(build_final_state(sc)[1] - expected) < 1e-14
            assert abs(scenario_amplitudes(sc)[1] - expected) < 1e-14


def test_scalar_vacuum_deficit_vanishes_with_cutoff():
    _, deficit = build_final_state(Scenario("scalar", "one", 0.5, cutoff=40))
    assert abs(deficit) < 1e-12


def test_scalar_one_at_zero_squeeze():
    # at r = 0 the sweep's one-particle branch is d_0 = 1 on |1_p, 0_a> and nothing else
    for acc in ("one", "both"):
        sc = Scenario("scalar", acc, 0.0, cutoff=8)
        _, support, branch = scenario_support(sc)
        val, _ = scenario_amplitudes(sc)
        one = val[branch == 1]
        assert one[0] == pytest.approx(INV_SQRT2, abs=1e-15) and np.count_nonzero(one) == 1
        assert tuple(support[branch == 1][0]) == tuple(
            1 if lbl.endswith("_p") else 0 for lbl in scenario_layout(sc).labels
        )


def test_scalar_one_term_value():
    # raw n = 1 weight d_1 = sqrt(2) tanh(0.5) / cosh(0.5)^2
    sc = Scenario("scalar", "one", 0.5, cutoff=10)
    ket, deficit = build_final_state(sc)
    val, sweep_deficit = sweep_amplitude(sc, (1, 2, 1))
    for amp, dfc in ((ket.amplitude((1, 2, 1)), deficit), (val, sweep_deficit)):
        raw = amp.real * math.sqrt(2.0) * math.sqrt(1.0 - dfc)
        assert raw == pytest.approx(0.5139690360230247, abs=1e-15)


def test_scalar_expansions_are_orthogonal():
    # the vacuum and one-particle branches share no occupation tuple
    for acc in ("one", "both"):
        _, support, branch = scenario_support(Scenario("scalar", acc, 0.8, cutoff=12))
        vac, one = branch_tuples(support, branch, 0), branch_tuples(support, branch, 1)
        assert len(vac) + len(one) == len(support)  # no tuple repeats within a branch
        assert not vac & one


# --- fermion expansions -----------------------------------------------------


def check_fermion_one_amplitudes(r_f):
    # (0_s, 0_p, 0_a) = cos r e^{-i phi}/sqrt 2, (0_s, 1_p, 1_a) = -sin r/sqrt 2,
    # (1_s, 1_p, 0_a) = 1/sqrt 2, on the dense and the sweep route
    for phi in (0.0, 0.83):
        sc = Scenario("fermion", "one", r_f, phase=phi)
        ket, _ = build_final_state(sc)
        expected = {
            (0, 0, 0): math.cos(r_f) * np.exp(-1j * phi) * INV_SQRT2,
            (0, 1, 1): -math.sin(r_f) * INV_SQRT2,
            (1, 1, 0): INV_SQRT2,
        }
        for occ, amp in expected.items():
            assert abs(ket.amplitude(occ) - amp) < 1e-15
            assert abs(sweep_amplitude(sc, occ)[0] - amp) < 1e-15


def test_fermion_vacuum_endpoints():
    check_fermion_one_amplitudes(0.0)
    check_fermion_one_amplitudes(math.pi / 2)


def test_fermion_vacuum_balanced_point():
    check_fermion_one_amplitudes(math.pi / 4)
    ket, _ = build_final_state(Scenario("fermion", "one", math.pi / 4))
    assert ket.norm() == pytest.approx(1.0, abs=1e-15)


def test_fermion_vacuum_carries_phase():
    phi = 0.83
    val, _ = sweep_amplitude(Scenario("fermion", "both", 0.6, phase=phi), (0, 0, 0, 0))
    assert abs(val - (math.cos(0.6) * np.exp(-1j * phi)) ** 2 * INV_SQRT2) < 1e-15


def test_fermion_vacuum_rejects_out_of_range():
    for acc in ("one", "both"):
        with pytest.raises(DomainError):
            Scenario("fermion", acc, -0.01)
        with pytest.raises(DomainError):
            Scenario("fermion", acc, math.pi / 2 + 0.01)


def test_fermion_one_particle_state():
    # branch 1 is one w particle and no w antiparticle, on tuples branch 0 never holds
    for acc in ("one", "both"):
        for r_f in np.linspace(0, math.pi / 2, 7):
            sc = Scenario("fermion", acc, float(r_f))
            layout, support, branch = scenario_support(sc)
            val, _ = scenario_amplitudes(sc)
            w_p, w_a = (layout.labels.index(lbl) for lbl in ("w_p", "w_a"))
            assert np.all(support[branch == 1, w_p] - support[branch == 1, w_a] == 1)
            assert np.sum(np.abs(val[branch == 1]) ** 2) == pytest.approx(0.5, abs=1e-15)
            assert not branch_tuples(support, branch, 0) & branch_tuples(support, branch, 1)


# --- scenario states ---------------------------------------------------------


def test_scenario_validation():
    with pytest.raises(DomainError):
        Scenario("spinor", "one", 0.1)
    with pytest.raises(DomainError):
        Scenario("fermion", "all", 0.1)
    with pytest.raises(DomainError):
        Scenario("fermion", "one", math.pi / 2 + 0.1)
    with pytest.raises(DomainError):
        Scenario("scalar", "one", -0.2)
    with pytest.raises(DomainError):
        Scenario("scalar", "one", 0.2, cutoff=3)
    with pytest.raises(DomainError, match="integer"):
        Scenario("scalar", "one", 0.5, cutoff=30.0)
    assert Scenario("scalar", "one", 0.5, cutoff=np.int64(30)).cutoff == 30


def test_scenario_layout_order():
    assert scenario_layout(Scenario("fermion", "one", 0.3)).labels == ("s_p", "w_p", "w_a")
    assert scenario_layout(Scenario("fermion", "both", 0.3)).labels == (
        "s_p",
        "s_a",
        "w_p",
        "w_a",
    )
    layout = scenario_layout(Scenario("scalar", "both", 0.3, cutoff=10))
    assert layout.dims == (12, 11, 12, 11)


def test_scenario_layout_of_any_cutoff_is_only_modes():
    # far past the dense amplitude limit; the coordinate route never densifies it
    layout = scenario_layout(Scenario("scalar", "both", 0.3, cutoff=120))
    assert layout.dims == (122, 121, 122, 121)
    assert layout.total_dim == 217_916_644
    assert scenario_support(Scenario("scalar", "both", 0.3, cutoff=120))[0] == layout


@pytest.mark.parametrize("statistics", ["fermion", "scalar"])
@pytest.mark.parametrize("accelerated", ["one", "both"])
def test_zero_squeeze_reduces_to_bell_with_vacuum_ancillas(statistics, accelerated):
    ket, deficit = build_final_state(Scenario(statistics, accelerated, 0.0, cutoff=5))
    assert deficit == pytest.approx(0.0, abs=1e-15)
    ground = tuple(0 for _ in ket.layout.dims)
    excited = tuple(1 if lbl.endswith("_p") else 0 for lbl in ket.layout.labels)
    assert ket.amplitude(ground) == pytest.approx(INV_SQRT2, abs=1e-15)
    assert ket.amplitude(excited) == pytest.approx(INV_SQRT2, abs=1e-15)
    assert np.count_nonzero(ket.amplitudes) == 2


def test_fermion_both_state_matches_hand_expansion_at_balanced_squeeze():
    # hand-expanded product of two balanced vacuum expansions plus the
    # one-particle branch; all amplitudes are +-1/(2 sqrt 2) and 1/sqrt 2
    ket, _ = build_final_state(Scenario("fermion", "both", math.pi / 4))
    quarter = 1.0 / (2.0 * math.sqrt(2.0))
    expected = {
        (0, 0, 0, 0): quarter,
        (0, 0, 1, 1): -quarter,
        (1, 1, 0, 0): -quarter,
        (1, 1, 1, 1): quarter,
        (1, 0, 1, 0): INV_SQRT2,
    }
    for occ, val in expected.items():
        assert ket.amplitude(occ).real == pytest.approx(val, abs=1e-15)
    assert ket.norm() == pytest.approx(1.0, abs=1e-15)


def test_fermion_both_product_branch_built_by_tensor():
    # both accelerated: vacuum (x) vacuum + one (x) one; one accelerated: the
    # bare s particle's basis states stand in for the s expansions.  Pair
    # vectors are row-major over (p, a): |00>, |01>, |10>, |11>.
    r_f = math.pi / 4
    one = np.array([0.0, 0.0, 1.0, 0.0])
    for acc in ("one", "both"):
        for phase in (0.0, 0.7):
            vac = np.array([math.cos(r_f) * np.exp(-1j * phase), 0.0, 0.0, -math.sin(r_f)])
            vac_s, one_s = (vac, one) if acc == "both" else (np.array([1, 0]), np.array([0, 1]))
            expected = (np.kron(vac_s, vac) + np.kron(one_s, one)) * INV_SQRT2
            ket, _ = build_final_state(Scenario("fermion", acc, r_f, phase=phase))
            assert ket.layout.dims == (2,) * (4 if acc == "both" else 3)
            assert np.max(np.abs(ket.amplitudes.ravel() - expected)) < 1e-15


def test_fermion_states_are_exactly_unit_norm():
    for acc in ("one", "both"):
        for r_f in np.linspace(0, math.pi / 2, 9):
            ket, deficit = build_final_state(Scenario("fermion", acc, float(r_f), phase=1.1))
            assert deficit == 0.0
            assert ket.norm() == pytest.approx(1.0, abs=1e-15)


def test_scalar_state_deficit_is_truncation_tail_only():
    ket, deficit = build_final_state(Scenario("scalar", "both", 0.4, cutoff=30))
    assert abs(deficit) < 1e-15
    assert ket.norm() == pytest.approx(1.0, abs=1e-14)


def test_coordinate_states_match_dense_states():
    for acc in ("one", "both"):
        for r in (0.0, 0.3, 0.9):
            sc = Scenario("scalar", acc, r, cutoff=6)
            dense, d_deficit = build_final_state(sc)
            coords, c_deficit = build_final_state_coords(sc)
            assert c_deficit == pytest.approx(d_deficit, abs=1e-15)
            assert np.max(np.abs(coords.to_ket().amplitudes - dense.amplitudes)) < 1e-15


def test_coordinate_fermion_states_match_dense_states():
    for acc in ("one", "both"):
        for r_f in (0.0, 0.4, math.pi / 2):
            for phase in (0.0, 0.7):
                sc = Scenario("fermion", acc, r_f, phase=phase)
                dense, _ = build_final_state(sc)
                coords, deficit = build_final_state_coords(sc)
                assert deficit == 0.0
                assert np.max(np.abs(coords.to_ket().amplitudes - dense.amplitudes)) < 1e-15
                # branch 1 holds the s mode's extra particle
                occ = coords.occupations
                excess = occ[:, 0] - occ[:, 1] if acc == "both" else occ[:, 0]
                assert np.array_equal(excess, coords.branch)


def test_scalar_squeeze_overflowing_cosh_squared_is_a_domain_error():
    Scenario("scalar", "one", 350.0)  # cosh(r)^2 ~ 1e304 is still finite
    for r in (356.0, 400.0, 800.0):
        with pytest.raises(DomainError, match="overflows"):
            Scenario("scalar", "one", r)


@pytest.mark.parametrize("accelerated", ["one", "both"])
def test_coordinate_states_carry_zero_charge(accelerated):
    ck, _ = build_final_state_coords(Scenario("scalar", accelerated, 0.8, cutoff=6))
    dims, labels = ck.layout.dims, ck.layout.labels
    charge = kept_charges(dims, labels)
    assert np.all(charge[np.ravel_multi_index(ck.occupations.T, dims)] == 0)
    # flipping a label reverses its sign: s_p alone carries +n, flipped -n
    assert kept_charges((3,), ("s_p",)).tolist() == [0, 1, 2]
    assert kept_charges((3,), ("s_p",), {"s_p"}).tolist() == [0, -1, -2]
