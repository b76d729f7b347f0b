import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelpair import DomainError, LayoutError
from accelpair.fock import (
    DensityMatrix,
    Ket,
    SubsystemLayout,
    boson_mode,
    fermion_mode,
    hermitian_eigenvalues,
    normalize,
    outer_product,
    partial_trace,
    tensor,
)
from accelpair.sparse import CoordKet
from accelpair.states import Scenario, build_final_state

from oracles import jacobi_hermitian_eigenvalues, random_pure_amplitudes


def two_qubits():
    return SubsystemLayout((fermion_mode("a"), fermion_mode("b")))


def bell_ket():
    layout = two_qubits()
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1.0 / math.sqrt(2.0)
    return Ket(layout, amps)


# --- layout and indexing -------------------------------------------------


def test_mode_spec_validation():
    from accelpair.fock import SubModeSpec

    with pytest.raises(LayoutError):
        boson_mode("x", 0)  # cutoff must be >= 1
    with pytest.raises(LayoutError):
        SubModeSpec("x", "fermion", 3)
    with pytest.raises(LayoutError):
        SubModeSpec("x", "majorana", 2)
    with pytest.raises(LayoutError, match="integer"):
        SubModeSpec("x", "boson", 2.5)
    assert SubModeSpec("x", "boson", np.int64(3)).dim == 3


def test_layout_rejects_duplicates_and_oversize():
    with pytest.raises(LayoutError):
        SubsystemLayout((fermion_mode("a"), fermion_mode("a")))
    # a layout only describes modes; its dense vector is refused where it is made
    big = SubsystemLayout((boson_mode("a", 2000), boson_mode("b", 2000)))
    assert big.total_dim == 2001 * 2001
    with pytest.raises(LayoutError):
        Ket.basis_state(big, (0, 0))


def big_square():
    return SubsystemLayout((boson_mode("a", 2000), boson_mode("b", 2000)))


def level_ket(label, levels):
    return Ket.basis_state(SubsystemLayout((boson_mode(label, levels - 1),)), (0,))


@pytest.mark.parametrize(
    "make_args, densify",
    [
        (lambda: (big_square(),), lambda layout: Ket.basis_state(layout, (0, 0))),
        # 1101^2 = 1,212,201 amplitudes
        (lambda: (level_ket("a", 1101), level_ket("b", 1101)), tensor),
        (lambda: (CoordKet(big_square(), [[0, 0]], [1.0], [0]),), CoordKet.to_ket),
        # 33 * 32 * 33 * 32 = 1,115,136 states
        (lambda: (Scenario("scalar", "both", 0.5, cutoff=31),), build_final_state),
    ],
    ids=["basis_state", "tensor", "to_ket", "build_final_state"],
)
def test_dense_guard_refuses_before_allocating(make_args, densify):
    args = make_args()
    tracemalloc.start()
    try:
        with pytest.raises(LayoutError, match="refusing to allocate"):
            densify(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # bytes; the refused vectors would take 17-64 MB


def test_dense_guard_admits_the_limit():
    # cutoff 30: 32 * 31 * 32 * 31 = 984,064 states, under 2^20
    ket, deficit = build_final_state(Scenario("scalar", "both", 0.5, cutoff=30))
    assert ket.amplitudes.size == 984_064
    assert ket.norm() == pytest.approx(1.0, abs=1e-12)
    assert abs(deficit) < 1e-6


def row_major_index(occupations, dims):
    idx = 0
    for occ, dim in zip(occupations, dims):
        idx = idx * dim + occ
    return idx


def test_basis_index_examples():
    layout = two_qubits()
    assert Ket.basis_state(layout, (0, 0)).amplitudes[0] == 1.0
    assert Ket.basis_state(layout, (1, 0)).amplitudes[2] == 1.0
    assert bell_ket().amplitude((1, 1)) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert bell_ket().amplitude((0, 1)) == 0.0


def test_basis_index_round_trip_exhaustive():
    # itertools.product enumerates occupations in row-major order by definition
    layout = SubsystemLayout((boson_mode("a", 2), fermion_mode("b"), boson_mode("c", 3)))
    occs = list(itertools.product(*(range(d) for d in layout.dims)))
    assert len(occs) == layout.total_dim
    for idx, occ in enumerate(occs):
        ket = Ket.basis_state(layout, occ)
        assert np.flatnonzero(ket.amplitudes).tolist() == [idx]
        assert ket.amplitude(occ) == 1.0


def test_basis_index_errors():
    # out of range, too short, too long, and negative (which must not wrap)
    layout = two_qubits()
    for occ in [(0, 2), (0,), (0, 0, 0), (-1, 0)]:
        with pytest.raises(ValueError):
            Ket.basis_state(layout, occ)
        with pytest.raises(ValueError):
            bell_ket().amplitude(occ)


@given(st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=4), st.data())
@settings(max_examples=50, deadline=None)
def test_basis_index_bijection_property(dims, data):
    layout = SubsystemLayout(tuple(boson_mode(f"m{i}", d - 1) for i, d in enumerate(dims)))
    occ = tuple(data.draw(st.integers(min_value=0, max_value=d - 1)) for d in dims)
    ket = Ket.basis_state(layout, occ)
    assert np.flatnonzero(ket.amplitudes).tolist() == [row_major_index(occ, dims)]


# --- kets, tensor, normalize ---------------------------------------------


def test_ket_validation():
    layout = two_qubits()
    with pytest.raises(LayoutError):
        Ket(layout, np.zeros(3, dtype=complex))
    with pytest.raises(DomainError):
        Ket(layout, np.array([np.nan, 0, 0, 0], dtype=complex))
    with pytest.raises(DomainError):
        Ket(layout, np.array([1.1, 0, 0, 0], dtype=complex))


def test_tensor_of_ground_states():
    a = Ket.basis_state(SubsystemLayout((fermion_mode("a"),)), (0,))
    b = Ket.basis_state(SubsystemLayout((fermion_mode("b"),)), (0,))
    joint = tensor(a, b)
    assert joint.amplitude((0, 0)) == 1.0
    assert joint.norm() == pytest.approx(1.0, abs=1e-15)


def test_tensor_norm_multiplies():
    rng = np.random.default_rng(3)
    la = SubsystemLayout((boson_mode("a", 2),))
    lb = SubsystemLayout((fermion_mode("b"), boson_mode("c", 1)))
    ka = Ket(la, 0.7 * random_pure_amplitudes(rng, la.total_dim))
    kb = Ket(lb, 0.9 * random_pure_amplitudes(rng, lb.total_dim))
    assert tensor(ka, kb).norm() == pytest.approx(ka.norm() * kb.norm(), abs=1e-12)


def test_tensor_rejects_label_collision():
    a = Ket.basis_state(SubsystemLayout((fermion_mode("a"),)), (0,))
    with pytest.raises(LayoutError):
        tensor(a, a)


def test_normalize_unit_and_scaled():
    k = bell_ket()
    normed, deficit = normalize(k)
    assert deficit == pytest.approx(0.0, abs=1e-15)
    half, deficit = normalize(Ket(k.layout, k.amplitudes / 2.0))
    assert deficit == pytest.approx(0.75, abs=1e-15)
    assert half.norm() == pytest.approx(1.0, abs=1e-15)


def test_normalize_rejects_zero_ket():
    with pytest.raises(DomainError):
        normalize(Ket(two_qubits(), np.zeros(4, dtype=complex)))


# --- density matrices -----------------------------------------------------


def test_outer_product_ground_state():
    k = Ket.basis_state(SubsystemLayout((fermion_mode("a"),)), (0,))
    rho = outer_product(k)
    assert rho.entries[0, 0] == 1.0
    assert np.count_nonzero(rho.entries) == 1


def test_outer_product_bell_corners():
    rho = outer_product(bell_ket()).entries
    for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        assert rho[i, j] == pytest.approx(0.5, abs=1e-15)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)


def test_outer_product_rejects_unnormalized():
    k = bell_ket()
    with pytest.raises(DomainError):
        outer_product(Ket(k.layout, k.amplitudes * 0.9))


def test_density_matrix_validation():
    layout = SubsystemLayout((fermion_mode("a"),))
    with pytest.raises(DomainError):
        DensityMatrix(layout, np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex))
    with pytest.raises(DomainError):
        DensityMatrix(layout, np.array([[0.9, 0.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(LayoutError):
        DensityMatrix(layout, np.eye(3, dtype=complex))


def test_partial_trace_keep_everything_is_identity():
    rho = outer_product(bell_ket())
    same = partial_trace(rho, ("a", "b"))
    assert np.array_equal(same.entries, rho.entries)


def test_partial_trace_bell_gives_maximally_mixed():
    rho = outer_product(bell_ket())
    red = partial_trace(rho, ("a",))
    assert np.allclose(red.entries, np.eye(2) / 2.0, atol=1e-14)


def test_partial_trace_factorizes_product_states():
    rng = np.random.default_rng(11)
    la = SubsystemLayout((boson_mode("a", 2), fermion_mode("x")))
    lb = SubsystemLayout((boson_mode("b", 1),))
    ka = Ket(la, random_pure_amplitudes(rng, la.total_dim))
    kb = Ket(lb, random_pure_amplitudes(rng, lb.total_dim))
    joint = outer_product(tensor(ka, kb))
    red = partial_trace(joint, ("a", "x"))
    assert np.max(np.abs(red.entries - outer_product(ka).entries)) < 1e-12


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(5)
    layout = SubsystemLayout((boson_mode("a", 2), boson_mode("b", 1), fermion_mode("c")))
    for _ in range(10):
        rho = outer_product(Ket(layout, random_pure_amplitudes(rng, layout.total_dim)))
        red = partial_trace(rho, ("b", "c")).entries
        assert abs(np.trace(red).real - 1.0) < 1e-12
        assert np.max(np.abs(red - red.conj().T)) < 1e-12


def test_partial_trace_errors():
    rho = outer_product(bell_ket())
    with pytest.raises(LayoutError):
        partial_trace(rho, ("nope",))
    with pytest.raises(LayoutError):
        partial_trace(rho, ())


# --- eigenvalues ----------------------------------------------------------


def test_hermitian_eigenvalues_known_matrices():
    assert np.allclose(hermitian_eigenvalues(np.eye(3, dtype=complex)), [1, 1, 1])
    assert np.allclose(hermitian_eigenvalues(np.diag([-1.0, 2.0]).astype(complex)), [-1, 2])


def test_hermitian_eigenvalues_against_jacobi_oracle():
    rng = np.random.default_rng(17)
    for _ in range(8):
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = (m + m.conj().T) / 2.0
        ours = hermitian_eigenvalues(h)
        oracle = jacobi_hermitian_eigenvalues(h)
        assert np.max(np.abs(ours - oracle)) < 1e-8
        assert ours.sum() == pytest.approx(np.trace(h).real, abs=1e-10)
        assert len(ours) == 6


def test_hermitian_eigenvalues_rejects_bad_input():
    with pytest.raises(DomainError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DomainError):
        hermitian_eigenvalues(np.zeros((2, 3)))
