import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelpair import DomainError, LayoutError
from accelpair.entanglement import Bipartition, partial_transpose, reduced_density
from accelpair.fock import (
    DensityMatrix,
    Ket,
    SubsystemLayout,
    hermitian_eigenvalues,
)
from accelpair.sparse import CoordKet, reduced_gram, schmidt_weights
from accelpair.states import Scenario, build_final_state

from oracles import jacobi_hermitian_eigenvalues, random_pure_amplitudes


def two_qubits():
    return SubsystemLayout(("a", "b"), (2, 2))


def bell_ket():
    layout = two_qubits()
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1.0 / math.sqrt(2.0)
    return Ket(layout, amps)


# --- layout and indexing -------------------------------------------------


def test_mode_spec_validation():
    # every sub-mode's label and dimension, checked by the layout that holds them
    with pytest.raises(LayoutError, match="dimension >= 2"):
        SubsystemLayout(("x",), (1,))
    for label in ("", 1, None):
        with pytest.raises(LayoutError, match="non-empty string"):
            SubsystemLayout(("x", label), (2, 2))
    with pytest.raises(LayoutError, match="integer"):
        SubsystemLayout(("x",), (2.5,))
    assert SubsystemLayout(("x",), (np.int64(3),)).dims == (3,)
    with pytest.raises(LayoutError, match="at least one"):
        SubsystemLayout((), ())
    with pytest.raises(LayoutError, match="2 labels but 1 dims"):
        SubsystemLayout(("a", "b"), (2,))
    with pytest.raises(LayoutError, match="1 labels but 2 dims"):
        SubsystemLayout(("a",), (2, 2))
    with pytest.raises(LayoutError, match="sequence of names, got 'ab'"):
        SubsystemLayout("ab", (2, 2))


def test_layout_rejects_duplicates_and_oversize():
    with pytest.raises(LayoutError, match="duplicate"):
        SubsystemLayout(("a", "a"), (2, 2))
    # a layout only describes modes; its dense vector is refused where it is made
    big = big_square()
    assert big.total_dim == 2001 * 2001
    with pytest.raises(LayoutError):
        Ket(big, [1.0])


def big_square():
    return SubsystemLayout(("a", "b"), (2001, 2001))


def test_layout_split_and_restricted():
    layout = SubsystemLayout(("a", "b", "c", "d"), (2, 3, 4, 5))
    assert layout.split(("d", "b", "d")) == ([1, 3], [0, 2])
    assert layout.split(()) == ([], [0, 1, 2, 3])
    assert layout.restricted({"d", "b"}) == SubsystemLayout(("b", "d"), (3, 5))
    assert layout.restricted(iter(("a",))) == SubsystemLayout(("a",), (2,))
    for lookup in (layout.split, layout.restricted):
        with pytest.raises(LayoutError, match="unknown sub-mode labels 'zz' in layout"):
            lookup(("a", "zz"))
        with pytest.raises(LayoutError, match="labels 'zz', 1 in layout"):
            lookup(("a", "zz", 1))
    # a bare str is not read one label per character ("ab" as {"a", "b"}), by any lookup
    abc = SubsystemLayout(("a", "b", "c"), (2, 2, 2))
    ck = CoordKet(abc, np.array([[0, 0, 0], [1, 1, 1]]), [0.6, 0.8], np.array([0, 1]))
    rho = DensityMatrix(abc, np.eye(8) / 8)
    for bare in [
        lambda: abc.split("ab"),
        lambda: abc.restricted("ab"),
        lambda: partial_transpose(rho, "ab"),
        lambda: schmidt_weights(ck, "ab"),
        lambda: reduced_gram(ck, "ab"),
    ]:
        with pytest.raises(LayoutError, match="sequence of names, got 'a"):
            bare()


@pytest.mark.parametrize(
    "make_args, densify",
    [
        # the layout is checked before the amplitudes are read
        (lambda: (big_square(), [1.0]), Ket),
        # 33 * 32 * 33 * 32 = 1,115,136 states
        (lambda: (Scenario("scalar", "both", 0.5, cutoff=31),), build_final_state),
    ],
    ids=["ket", "build_final_state"],
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


def one_hot(layout, index):
    amps = np.zeros(layout.total_dim, dtype=complex)
    amps[index] = 1.0
    return Ket(layout, amps)


def test_basis_index_examples():
    layout = two_qubits()
    assert one_hot(layout, 0).amplitude((0, 0)) == 1.0
    assert one_hot(layout, 2).amplitude((1, 0)) == 1.0
    assert bell_ket().amplitude((1, 1)) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert bell_ket().amplitude((0, 1)) == 0.0


def test_basis_index_round_trip_exhaustive():
    # itertools.product enumerates occupations in row-major order by definition
    layout = SubsystemLayout(("a", "b", "c"), (3, 2, 4))
    occs = list(itertools.product(*(range(d) for d in layout.dims)))
    assert len(occs) == layout.total_dim
    ket = Ket(layout, np.arange(len(occs)) / len(occs) ** 1.5)  # amplitude idx / n^1.5 at idx
    for idx, occ in enumerate(occs):
        assert ket.amplitude(occ) == ket.amplitudes[idx]


def test_basis_index_errors():
    # out of range, too short, too long, and negative (which must not wrap)
    for occ in [(0, 2), (0,), (0, 0, 0), (-1, 0)]:
        with pytest.raises(ValueError):
            bell_ket().amplitude(occ)


@given(st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=4), st.data())
@settings(max_examples=50, deadline=None)
def test_basis_index_bijection_property(dims, data):
    layout = SubsystemLayout([f"m{i}" for i in range(len(dims))], dims)
    occ = tuple(data.draw(st.integers(min_value=0, max_value=d - 1)) for d in dims)
    assert one_hot(layout, row_major_index(occ, dims)).amplitude(occ) == 1.0


# --- kets ------------------------------------------------------------------


def test_ket_validation():
    layout = two_qubits()
    with pytest.raises(LayoutError):
        Ket(layout, np.zeros(3, dtype=complex))
    with pytest.raises(DomainError):
        Ket(layout, np.array([np.nan, 0, 0, 0], dtype=complex))
    with pytest.raises(DomainError):
        Ket(layout, np.array([1.1, 0, 0, 0], dtype=complex))


# --- density matrices -----------------------------------------------------


def test_density_matrix_validation():
    layout = SubsystemLayout(("a",), (2,))
    with pytest.raises(DomainError):
        DensityMatrix(layout, np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex))
    with pytest.raises(DomainError):
        DensityMatrix(layout, np.array([[0.9, 0.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(LayoutError):
        DensityMatrix(layout, np.eye(3, dtype=complex))


# --- partial traces: entanglement.reduced_density ------------------------


def test_partial_trace_bell_gives_maximally_mixed():
    layout = SubsystemLayout(("a", "b", "c"), (2, 2, 2))
    ket = Ket(layout, np.kron(bell_ket().amplitudes, [1.0, 0.0]))  # Bell pair (x) |0_c>
    red = reduced_density(ket, Bipartition({"a"}, {"c"}, {"b"}))
    assert np.allclose(red.entries, np.kron(np.eye(2) / 2.0, np.diag([1.0, 0.0])), atol=1e-14)


def test_partial_trace_factorizes_product_states():
    rng = np.random.default_rng(11)
    la = SubsystemLayout(("a", "x"), (3, 2))
    lb = SubsystemLayout(("b",), (2,))
    ka = random_pure_amplitudes(rng, la.total_dim)
    kb = random_pure_amplitudes(rng, lb.total_dim)
    joint = Ket(SubsystemLayout(la.labels + lb.labels, la.dims + lb.dims), np.kron(ka, kb))
    red = reduced_density(joint, Bipartition({"a"}, {"x"}, {"b"}))
    assert np.max(np.abs(red.entries - np.outer(ka, ka.conj()))) < 1e-12


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(5)
    layout = SubsystemLayout(("a", "b", "c"), (3, 2, 2))
    for _ in range(10):
        ket = Ket(layout, random_pure_amplitudes(rng, layout.total_dim))
        red = reduced_density(ket, Bipartition({"b"}, {"c"}, {"a"})).entries
        assert abs(np.trace(red).real - 1.0) < 1e-12
        assert np.max(np.abs(red - red.conj().T)) < 1e-12


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
