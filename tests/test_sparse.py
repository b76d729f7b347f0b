import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from accelpair import (
    Bipartition,
    DomainError,
    LayoutError,
    Scenario,
    SubsystemLayout,
    boson_mode,
    build_final_state,
    build_final_state_coords,
    fermion_mode,
    partial_transpose,
    reduced_density,
)
from accelpair.sparse import (
    CoordKet,
    hermitian_block_eigenvalues,
    partial_transpose_sparse,
    reduced_gram,
    schmidt_weights,
)
from accelpair.states import kept_charges

from oracles import coord_matrix, graph_block_eigenvalues


def random_coord_ket(rng, n_entries=10):
    layout = SubsystemLayout(
        (boson_mode("a", 2), fermion_mode("b"), boson_mode("c", 2), fermion_mode("d"))
    )
    flat = rng.choice(layout.total_dim, size=n_entries, replace=False)
    occ = np.array([np.unravel_index(i, layout.dims) for i in flat])
    val = rng.normal(size=n_entries) + 1j * rng.normal(size=n_entries)
    val /= np.linalg.norm(val)
    return CoordKet(layout, occ, val)


def test_coord_ket_validation():
    layout = SubsystemLayout((fermion_mode("a"), fermion_mode("b")))
    with pytest.raises(LayoutError):
        CoordKet(layout, np.array([[0, 2]]), np.array([1.0]))
    with pytest.raises(LayoutError):
        CoordKet(layout, np.array([[0, 0, 0]]), np.array([1.0]))
    with pytest.raises(DomainError):
        CoordKet(layout, np.array([[0, 0]]), np.array([2.0]))


def test_to_ket_round_trip_and_dense_guard():
    rng = np.random.default_rng(2)
    ck = random_coord_ket(rng)
    dense = ck.to_ket()
    for occ, val in zip(ck.occupations, ck.values):
        assert dense.amplitude(tuple(occ)) == val
    big = SubsystemLayout(
        (boson_mode("a", 2000), boson_mode("b", 2000)), max_amplitudes=1 << 24
    )
    tiny = CoordKet(big, np.array([[0, 0]]), np.array([1.0]))
    with pytest.raises(LayoutError):
        tiny.to_ket()


def test_reduced_gram_matches_dense_reduced_density():
    rng = np.random.default_rng(23)
    for _ in range(6):
        ck = random_coord_ket(rng)
        dense = ck.to_ket()
        for keep in [("a", "b"), ("b", "d"), ("a", "c"), ("a", "b", "c")]:
            rho, kept_dims, kept_labels = reduced_gram(ck, keep)
            rest = [lbl for lbl in ck.layout.labels if lbl not in keep]
            bp = Bipartition({kept_labels[0]}, set(kept_labels[1:]), set(rest))
            ref = reduced_density(dense, bp)
            assert kept_labels == ref.layout.labels
            assert np.max(np.abs(rho.toarray() - ref.entries)) < 1e-14


@given(st.integers(0, 2**32 - 1), st.integers(1, 16), st.sets(st.sampled_from("abcd"), min_size=2))
@settings(max_examples=200, deadline=None)
def test_coordinate_gram_matches_dense_on_large_traced_groups(seed, n_entries, keep):
    # 16 basis states: with two or three labels kept, traced groups hold up to 4 or 8 entries
    ck = random_coord_ket(np.random.default_rng(seed), n_entries)
    rho, kept_dims, kept_labels = reduced_gram(ck, keep)
    rest = [lbl for lbl in ck.layout.labels if lbl not in keep]
    ref = reduced_density(ck.to_ket(), Bipartition({kept_labels[0]}, set(kept_labels[1:]), set(rest)))
    assert rho.shape == ref.entries.shape
    assert np.max(np.abs(rho.toarray() - ref.entries)) < 1e-14


def test_partial_transpose_sparse_matches_dense():
    rng = np.random.default_rng(29)
    ck = random_coord_ket(rng)
    dense = ck.to_ket()
    rho, kept_dims, kept_labels = reduced_gram(ck, ("a", "b", "c"))
    ref = reduced_density(dense, Bipartition({"a"}, {"b", "c"}, {"d"}))
    for party in [("a",), ("b",), ("a", "c")]:
        a_pos = [i for i, lbl in enumerate(kept_labels) if lbl in party]
        ours = partial_transpose_sparse(rho, kept_dims, a_pos).toarray()
        theirs = partial_transpose(ref, party)
        # the reduced matrices come from different summation orders, so the
        # transposed results agree to round-off, not bit-for-bit
        assert np.max(np.abs(ours - theirs)) < 1e-14
        # on identical input data the two transposes are the same permutation
        same_input = partial_transpose_sparse(coord_matrix(ref.entries), kept_dims, a_pos)
        assert np.array_equal(same_input.toarray(), theirs)


def test_block_eigenvalues_match_dense_solver():
    rng = np.random.default_rng(31)
    # random block-diagonal Hermitian under a random permutation
    blocks = [rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)) for k in (3, 1, 4, 2)]
    blocks = [b + b.conj().T for b in blocks]
    full = np.zeros((10, 10), dtype=complex)
    at = 0
    for b in blocks:
        k = b.shape[0]
        full[at : at + k, at : at + k] = b
        at += k
    perm = rng.permutation(10)
    full = full[np.ix_(perm, perm)]
    ours = hermitian_block_eigenvalues(coord_matrix(full), np.zeros(10, dtype=int))
    assert np.max(np.abs(ours - np.linalg.eigvalsh(full))) < 1e-12
    assert np.max(np.abs(ours - graph_block_eigenvalues(sp.csr_matrix(full)))) < 1e-12
    assert len(ours) == 10
    assert ours.sum() == pytest.approx(np.trace(full).real, abs=1e-12)


def test_block_eigenvalues_keep_purely_imaginary_couplings():
    # a coupling with zero real part must still bind its block together
    m = coord_matrix(np.array([[0.0, 1j], [-1j, 0.0]]))
    assert np.allclose(hermitian_block_eigenvalues(m, np.zeros(2)), [-1.0, 1.0], atol=1e-14)


def test_block_eigenvalues_count_isolated_states():
    m = coord_matrix(np.zeros((5, 5), dtype=complex))
    assert np.array_equal(hermitian_block_eigenvalues(m, np.zeros(5)), np.zeros(5))
    m = coord_matrix(np.diag([0.25, 0.0, 0.75]).astype(complex))
    assert np.allclose(hermitian_block_eigenvalues(m, np.zeros(3)), [0.0, 0.25, 0.75])


def test_block_eigenvalues_reject_non_hermitian():
    m = coord_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DomainError):
        hermitian_block_eigenvalues(m, np.zeros(2))


def test_hermiticity_gate_on_entry_without_transposed_partner():
    # (0, 1) is stored and (1, 0) is not, so the defect there is the entry itself
    tiny = coord_matrix(np.array([[1.0, 1e-11], [0.0, 1.0]]))
    ours = hermitian_block_eigenvalues(tiny, np.zeros(2))
    assert np.allclose(ours, [1.0 - 5e-12, 1.0 + 5e-12], rtol=0.0, atol=1e-15)
    with pytest.raises(DomainError):
        hermitian_block_eigenvalues(coord_matrix(np.array([[1.0, 1e-9], [0.0, 1.0]])), np.zeros(2))


def random_charge_conserving(rng, n, chain):
    """Random Hermitian matrix, its charges, block-diagonal over charge sectors.

    With ``chain`` each sector couples only neighbours in stable charge order
    (tridiagonal after sorting); otherwise sectors are dense.  Couplings are
    complex, and some entries are dropped so sectors split and states go
    untouched.
    """
    charge = rng.integers(-2, 3, size=n)
    place = np.empty(n, dtype=int)
    place[np.argsort(charge, kind="stable")] = np.arange(n)
    same = charge[:, None] == charge[None, :]
    allowed = np.abs(place[:, None] - place[None, :]) <= 1 if chain else np.ones((n, n), bool)
    keep = rng.random((n, n)) < 0.7
    keep = keep & keep.T
    mat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    mat = np.where(same & allowed & keep, mat + mat.conj().T, 0.0)
    return mat, charge


@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.booleans())
@settings(max_examples=200, deadline=None)
def test_charge_sectors_match_graph_oracle_and_dense(seed, n, chain):
    mat, charge = random_charge_conserving(np.random.default_rng(seed), n, chain)
    ours = hermitian_block_eigenvalues(coord_matrix(mat), charge)
    assert ours.shape == (n,)
    assert np.max(np.abs(ours - graph_block_eigenvalues(sp.csr_matrix(mat)))) < 1e-12
    assert np.max(np.abs(ours - np.linalg.eigvalsh(mat))) < 1e-12


def test_block_eigenvalues_reject_coupling_across_sectors():
    m = coord_matrix(np.array([[0.5, 0.1j, 0.0], [-0.1j, 0.5, 0.0], [0.0, 0.0, 0.0]]))
    assert np.allclose(hermitian_block_eigenvalues(m, [1, 1, 0]), [0.0, 0.4, 0.6])
    with pytest.raises(DomainError):
        hermitian_block_eigenvalues(m, [1, 0, 1])
    with pytest.raises(LayoutError):
        hermitian_block_eigenvalues(m, [1, 1])


def test_schmidt_weights_of_bell_pair():
    layout = SubsystemLayout((fermion_mode("a"), fermion_mode("b")))
    ck = CoordKet(
        layout, np.array([[0, 0], [1, 1]]), np.array([1.0, 1.0]) / math.sqrt(2.0)
    )
    assert np.allclose(schmidt_weights(ck, ("a",), np.zeros(2))[:2], [0.5, 0.5], atol=1e-15)


def test_schmidt_weights_reject_party_b_state_in_two_sectors():
    layout = SubsystemLayout((fermion_mode("a"), fermion_mode("b")))
    ck = CoordKet(layout, np.array([[0, 0], [1, 0]]), np.array([0.6, 0.8]))
    assert np.allclose(schmidt_weights(ck, ("a",), [0, 0]), [1.0, 0.0], atol=1e-15)
    with pytest.raises(DomainError):
        schmidt_weights(ck, ("a",), [0, 1])
    with pytest.raises(LayoutError):
        schmidt_weights(ck, ("a",), [0])


@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_sector_schmidt_weights_match_dense_eigvalsh(seed, n_party_a):
    rng = np.random.default_rng(seed)
    layout = SubsystemLayout(
        (boson_mode("a", 3), fermion_mode("b"), boson_mode("c", 3), fermion_mode("d"))
    )
    dims = layout.dims
    a_pos = sorted(rng.choice(len(dims), size=n_party_a, replace=False).tolist())
    b_pos = [i for i in range(len(dims)) if i not in a_pos]
    dim_a = math.prod(dims[p] for p in a_pos)
    dim_b = math.prod(dims[p] for p in b_pos)
    # populate only (A, B) pairs of equal charge, so every B state sees one A charge
    charge_a = rng.integers(0, 3, size=dim_a)
    charge_b = rng.integers(0, 3, size=dim_b)
    pairs = np.argwhere((charge_a[:, None] == charge_b[None, :]) & (rng.random((dim_a, dim_b)) < 0.6))
    assume(len(pairs) > 0)
    occ = np.zeros((len(pairs), len(dims)), dtype=int)
    occ[:, a_pos] = np.array(np.unravel_index(pairs[:, 0], [dims[p] for p in a_pos])).T
    occ[:, b_pos] = np.array(np.unravel_index(pairs[:, 1], [dims[p] for p in b_pos])).T
    val = rng.normal(size=len(pairs)) + 1j * rng.normal(size=len(pairs))
    ck = CoordKet(layout, occ, val / np.linalg.norm(val))
    x = ck.to_ket().amplitudes.reshape(dims).transpose(a_pos + b_pos).reshape(dim_a, dim_b)
    ref = np.clip(np.linalg.eigvalsh(x @ x.conj().T), 0.0, None)[::-1]
    ours = schmidt_weights(ck, [layout.labels[p] for p in a_pos], charge_a)
    assert ours.shape == (dim_a,)
    assert np.max(np.abs(ours - ref)) < 1e-14


def test_scenario_pipeline_sparse_equals_dense():
    """The coordinate pipeline must reproduce the dense pipeline number-for-number."""
    from accelpair.entanglement import named_bipartitions
    from accelpair.fock import hermitian_eigenvalues

    for acc in ("one", "both"):
        for r in (0.2, 0.7):
            sc = Scenario("scalar", acc, r, cutoff=8)
            dense, _ = build_final_state(sc)
            ck, _ = build_final_state_coords(sc)
            for name, bp in named_bipartitions(sc).items():
                if not bp.traced:
                    continue
                ref = reduced_density(dense, bp)
                ref_eigs = hermitian_eigenvalues(partial_transpose(ref, bp.party_a))
                rho, kept_dims, kept_labels = reduced_gram(ck, bp.kept)
                a_pos = [i for i, lbl in enumerate(kept_labels) if lbl in bp.party_a]
                ours = hermitian_block_eigenvalues(
                    partial_transpose_sparse(rho, kept_dims, a_pos),
                    kept_charges(kept_dims, kept_labels, bp.party_a),
                )
                assert np.max(np.abs(ours - ref_eigs)) < 1e-12
