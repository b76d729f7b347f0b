import math

import numpy as np
import pytest

from accelpair import (
    DomainError,
    Ket,
    Scenario,
    SubsystemLayout,
    build_final_state,
    build_final_state_coords,
    fermion_mode,
    fermion_out_one,
    fermion_out_vacuum,
    scalar_out_one,
    scalar_out_vacuum,
    scenario_layout,
    tensor,
)
from accelpair.states import kept_charges

INV_SQRT2 = 1.0 / math.sqrt(2.0)


# --- scalar expansions ------------------------------------------------------


def test_scalar_vacuum_at_zero_squeeze_is_ground_state():
    ket, deficit = scalar_out_vacuum(0.0, 8)
    assert deficit == 0.0
    assert ket.amplitude((0, 0)) == 1.0
    assert np.count_nonzero(ket.amplitudes) == 1


def test_scalar_vacuum_term_value():
    # raw n = 2 weight is tanh(0.5)^2 / cosh(0.5), frozen from direct evaluation
    ket, deficit = scalar_out_vacuum(0.5, 10)
    raw = ket.amplitude((2, 2)).real * math.sqrt(1.0 - deficit)
    assert raw == pytest.approx(0.18938218312043545, abs=1e-15)


@pytest.mark.parametrize("cutoff", [5, 10, 20])
def test_scalar_vacuum_deficit_is_geometric_tail(cutoff):
    _, deficit = scalar_out_vacuum(0.5, cutoff)
    assert abs(deficit - math.tanh(0.5) ** (2 * (cutoff + 1))) < 1e-14


def test_scalar_vacuum_deficit_vanishes_with_cutoff():
    _, deficit = scalar_out_vacuum(0.5, 40)
    assert abs(deficit) < 1e-12


def test_scalar_one_at_zero_squeeze():
    ket, deficit = scalar_out_one(0.0, 8)
    assert deficit == pytest.approx(0.0, abs=1e-15)
    assert ket.amplitude((1, 0)) == 1.0


def test_scalar_one_term_value():
    # raw n = 1 weight is sqrt(2) tanh(0.5) / cosh(0.5)^2
    ket, deficit = scalar_out_one(0.5, 10)
    raw = ket.amplitude((2, 1)).real * math.sqrt(1.0 - deficit)
    assert raw == pytest.approx(0.5139690360230247, abs=1e-15)


def test_scalar_expansions_are_orthogonal():
    vac, _ = scalar_out_vacuum(0.8, 12)
    one, _ = scalar_out_one(0.8, 12)
    assert np.vdot(vac.amplitudes, one.amplitudes) == 0.0


@pytest.mark.parametrize("builder", [scalar_out_vacuum, scalar_out_one])
def test_scalar_builders_reject_bad_args(builder):
    with pytest.raises(DomainError):
        builder(-0.1, 8)
    with pytest.raises(DomainError):
        builder(0.5, 0)
    with pytest.raises(DomainError, match="integer"):
        builder(0.5, 4.5)


# --- fermion expansions -----------------------------------------------------


def test_fermion_vacuum_endpoints():
    k0 = fermion_out_vacuum(0.0)
    assert k0.amplitude((0, 0)) == 1.0
    k1 = fermion_out_vacuum(math.pi / 2)
    assert k1.amplitude((1, 1)) == pytest.approx(-1.0, abs=1e-15)
    assert abs(k1.amplitude((0, 0))) < 1e-15


def test_fermion_vacuum_balanced_point():
    k = fermion_out_vacuum(math.pi / 4)
    assert k.amplitude((0, 0)).real == pytest.approx(INV_SQRT2, abs=1e-15)
    assert k.amplitude((1, 1)).real == pytest.approx(-INV_SQRT2, abs=1e-15)
    assert k.norm() == pytest.approx(1.0, abs=1e-15)


def test_fermion_vacuum_carries_phase():
    phi = 0.83
    k = fermion_out_vacuum(0.6, phase=phi)
    assert k.amplitude((0, 0)) == pytest.approx(math.cos(0.6) * np.exp(-1j * phi), abs=1e-15)


def test_fermion_vacuum_rejects_out_of_range():
    with pytest.raises(DomainError):
        fermion_out_vacuum(-0.01)
    with pytest.raises(DomainError):
        fermion_out_vacuum(math.pi / 2 + 0.01)


def test_fermion_one_particle_state():
    one = fermion_out_one()
    assert one.norm() == 1.0
    basis = [(0, 0), (0, 1), (1, 0), (1, 1)]
    occupation = sum(abs(one.amplitudes[i]) ** 2 * occ[0] for i, occ in enumerate(basis))
    assert occupation == 1.0
    for r_f in np.linspace(0, math.pi / 2, 7):
        vac = fermion_out_vacuum(float(r_f))
        assert np.vdot(vac.amplitudes, one.amplitudes) == 0.0


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
    # bare s particle's basis states stand in for the s expansions
    s_layout = SubsystemLayout((fermion_mode("s_p"),))
    for acc in ("one", "both"):
        for phase in (0.0, 0.7):
            vac_w, one_w = fermion_out_vacuum(math.pi / 4, phase, "w"), fermion_out_one("w")
            if acc == "both":
                vac_s, one_s = fermion_out_vacuum(math.pi / 4, phase, "s"), fermion_out_one("s")
            else:
                vac_s, one_s = Ket.basis_state(s_layout, (0,)), Ket.basis_state(s_layout, (1,))
            vac_product, one_product = tensor(vac_s, vac_w), tensor(one_s, one_w)
            ket, _ = build_final_state(Scenario("fermion", acc, math.pi / 4, phase=phase))
            assert ket.layout == vac_product.layout
            rebuilt = (vac_product.amplitudes + one_product.amplitudes) * INV_SQRT2
            assert np.max(np.abs(ket.amplitudes - rebuilt)) < 1e-15


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
        with pytest.raises(DomainError, match="overflows"):
            scalar_out_one(r, 4)
        with pytest.raises(DomainError, match="overflows"):
            scalar_out_vacuum(r, 4)


@pytest.mark.parametrize("accelerated", ["one", "both"])
def test_coordinate_states_carry_zero_charge(accelerated):
    ck, _ = build_final_state_coords(Scenario("scalar", accelerated, 0.8, cutoff=6))
    dims, labels = ck.layout.dims, ck.layout.labels
    charge = kept_charges(dims, labels)
    assert np.all(charge[np.ravel_multi_index(ck.occupations.T, dims)] == 0)
    # flipping a label reverses its sign: s_p alone carries +n, flipped -n
    assert kept_charges((3,), ("s_p",)).tolist() == [0, 1, 2]
    assert kept_charges((3,), ("s_p",), {"s_p"}).tolist() == [0, -1, -2]
