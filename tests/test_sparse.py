import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from accelpair import DomainError, LayoutError, Scenario, evaluate_scenario, named_bipartitions
from accelpair.entanglement import (
    NEGATIVE_EIGENVALUE_TOL,
    Bipartition,
    log_negativity,
    log_negativity_pure,
    partial_transpose,
    reduced_density,
    sweep_plan,
)
from accelpair.fock import SubsystemLayout, boson_mode, fermion_mode, hermitian_eigenvalues
from accelpair.sparse import (
    CoordKet,
    HermitianCoords,
    hermitian_block_eigenvalues,
    partial_transpose_sparse,
    reduced_gram,
    schmidt_weights,
)
from accelpair.states import build_final_state, build_final_state_coords, kept_charges

from oracles import brute_force_partial_transpose, graph_block_eigenvalues, sparse_pt_eigenvalues

LAYOUT = SubsystemLayout(
    (boson_mode("a", 2), fermion_mode("b"), boson_mode("c", 2), fermion_mode("d"))
)


def hermitian_coords(dense):
    """A dense Hermitian matrix as its diagonal plus its upper-triangle cross terms."""
    dense = np.asarray(dense)
    rows, cols = np.nonzero(np.triu(dense, 1))
    return HermitianCoords(dense.diagonal().real.copy(), rows, cols, dense[rows, cols])


def random_two_branch_ket(rng, keep, n_entries=10):
    """Random unit ket on distinct tuples of LAYOUT, at most one entry per branch
    at each index traced out of ``keep``."""
    dims = LAYOUT.dims
    flat = rng.choice(LAYOUT.total_dim, size=n_entries, replace=False)
    occ = np.array(np.unravel_index(flat, dims)).T
    branch = rng.integers(0, 2, size=n_entries)
    traced = [i for i, lbl in enumerate(LAYOUT.labels) if lbl not in keep]
    t = np.ravel_multi_index(occ[:, traced].T, [dims[p] for p in traced])
    _, first = np.unique(branch * LAYOUT.total_dim + t, return_index=True)
    val = rng.normal(size=first.size) + 1j * rng.normal(size=first.size)
    return CoordKet(LAYOUT, occ[first], val / np.linalg.norm(val), branch[first])


def dense_reference(ck, keep):
    rest = [lbl for lbl in ck.layout.labels if lbl not in keep]
    kept = [lbl for lbl in ck.layout.labels if lbl in keep]
    return reduced_density(ck.to_ket(), Bipartition({kept[0]}, set(kept[1:]), set(rest)))


def test_coord_ket_validation():
    layout = SubsystemLayout((fermion_mode("a"), fermion_mode("b")))
    with pytest.raises(LayoutError):
        CoordKet(layout, np.array([[0, 2]]), np.array([1.0]), [0])
    with pytest.raises(LayoutError):
        CoordKet(layout, np.array([[0, 0, 0]]), np.array([1.0]), [0])
    with pytest.raises(DomainError):
        CoordKet(layout, np.array([[0, 0]]), np.array([2.0]), [0])
    with pytest.raises(LayoutError):
        CoordKet(layout, np.array([[0, 0]]), np.array([1.0]), [2])
    with pytest.raises(LayoutError):
        CoordKet(layout, np.array([[0, 0]]), np.array([1.0]), [0, 1])


def test_to_ket_round_trip_and_dense_guard():
    ck = random_two_branch_ket(np.random.default_rng(2), ("a", "b"))
    dense = ck.to_ket()
    for occ, val in zip(ck.occupations, ck.values):
        assert dense.amplitude(tuple(occ)) == val
    assert np.count_nonzero(dense.amplitudes) == len(ck.values)
    big = SubsystemLayout((boson_mode("a", 2000), boson_mode("b", 2000)))
    tiny = CoordKet(big, np.array([[0, 0]]), np.array([1.0]), [0])
    with pytest.raises(LayoutError):
        tiny.to_ket()


def test_reduced_gram_matches_dense_reduced_density():
    rng = np.random.default_rng(23)
    for _ in range(6):
        for keep in [("a", "b"), ("b", "d"), ("a", "c"), ("a", "b", "c")]:
            ck = random_two_branch_ket(rng, keep)
            rho, kept_dims, kept_labels = reduced_gram(ck, keep)
            ref = dense_reference(ck, keep)
            assert kept_labels == ref.layout.labels
            assert np.max(np.abs(rho.toarray() - ref.entries)) < 1e-14


@given(st.integers(0, 2**32 - 1), st.integers(1, 24), st.sets(st.sampled_from("abcd"), min_size=2, max_size=3))
@settings(max_examples=200, deadline=None)
def test_coordinate_gram_matches_dense_on_two_branch_states(seed, n_entries, keep):
    ck = random_two_branch_ket(np.random.default_rng(seed), keep, n_entries)
    rho, kept_dims, kept_labels = reduced_gram(ck, keep)
    ref = dense_reference(ck, keep)
    assert rho.shape == ref.entries.shape
    assert np.max(np.abs(rho.toarray() - ref.entries)) < 1e-14


def test_reduced_gram_rejects_input_outside_two_branches():
    layout = SubsystemLayout((fermion_mode("a"), fermion_mode("b")))
    occ = np.array([[0, 0], [1, 0]])
    val = np.array([0.6, 0.8])
    # two branch-0 entries at traced b = 0
    with pytest.raises(DomainError, match="branch 0 has two entries"):
        reduced_gram(CoordKet(layout, occ, val, [0, 0]), ("a",))
    # one entry per branch there is a two-branch state
    rho, _, _ = reduced_gram(CoordKet(layout, occ, val, [0, 1]), ("a",))
    assert np.allclose(rho.toarray(), [[0.36, 0.48], [0.48, 0.64]], atol=1e-15)
    # one tuple in both branches
    with pytest.raises(DomainError, match="share an occupation tuple"):
        reduced_gram(CoordKet(layout, occ[[0, 0]], val, [0, 1]), ("a",))


def test_partial_transpose_sparse_matches_dense():
    ck = random_two_branch_ket(np.random.default_rng(29), ("a", "b", "c"), 16)
    rho, kept_dims, kept_labels = reduced_gram(ck, ("a", "b", "c"))
    ref = dense_reference(ck, ("a", "b", "c"))
    herm = (ref.entries + ref.entries.conj().T) / 2.0
    for party in [("a",), ("b",), ("a", "c")]:
        a_pos = [i for i, lbl in enumerate(kept_labels) if lbl in party]
        ours = partial_transpose_sparse(rho, kept_dims, a_pos).toarray()
        theirs = partial_transpose(ref, party)
        # different summation orders: the transposed results agree to round-off
        assert np.max(np.abs(ours - theirs)) < 1e-14
        # on identical input data the two transposes are the same permutation
        same_input = partial_transpose_sparse(hermitian_coords(herm), kept_dims, a_pos)
        assert np.array_equal(same_input.toarray(), brute_force_partial_transpose(herm, kept_dims, a_pos))


def random_chains(rng, n):
    """Random Hermitian matrix whose charge sectors are chains, and its charges.

    Each sector couples only neighbours in stable charge order, with complex
    couplings; some couplings are dropped, so chains split and states go
    untouched.
    """
    charge = rng.integers(-2, 3, size=n)
    order = np.argsort(charge, kind="stable")
    mat = np.zeros((n, n), dtype=complex)
    mat[order, order] = rng.normal(size=n) * (rng.random(n) < 0.8)
    for i, j in zip(order[:-1], order[1:]):
        if charge[i] == charge[j] and rng.random() < 0.7:
            mat[i, j] = rng.normal() + 1j * rng.normal()
            mat[j, i] = np.conj(mat[i, j])
    return mat, charge


def test_block_eigenvalues_match_dense_solver():
    rng = np.random.default_rng(31)
    full, charge = random_chains(rng, 10)
    ours = hermitian_block_eigenvalues(hermitian_coords(full), charge)
    assert np.max(np.abs(ours - np.linalg.eigvalsh(full))) < 1e-12
    assert np.max(np.abs(ours - graph_block_eigenvalues(sp.csr_matrix(full)))) < 1e-12
    assert len(ours) == 10
    assert ours.sum() == pytest.approx(np.trace(full).real, abs=1e-12)


def test_block_eigenvalues_keep_purely_imaginary_couplings():
    # a coupling with zero real part must still bind its chain together
    m = HermitianCoords(np.zeros(2), np.array([0]), np.array([1]), np.array([1j]))
    assert np.allclose(hermitian_block_eigenvalues(m, np.zeros(2)), [-1.0, 1.0], atol=1e-14)


def test_block_eigenvalues_survive_a_subnormal_squared_coupling():
    # dsterf squares couplings; 1e-159 squared is subnormal and moved 2/19 by 1.4e-9
    diag = np.array([0.0, 0.0, 0.0, 1.0])
    m = HermitianCoords(diag, np.array([0, 1]), np.array([1, 2]), np.array([1e-159, 2 / 19]))
    eigs = hermitian_block_eigenvalues(m, np.zeros(4))
    assert np.max(np.abs(eigs - [-2 / 19, 0.0, 2 / 19, 1.0])) < 1e-15


def test_block_eigenvalues_count_isolated_states():
    m = hermitian_coords(np.zeros((5, 5), dtype=complex))
    assert np.array_equal(hermitian_block_eigenvalues(m, np.zeros(5)), np.zeros(5))
    m = hermitian_coords(np.diag([0.25, 0.0, 0.75]).astype(complex))
    assert np.allclose(hermitian_block_eigenvalues(m, np.zeros(3)), [0.0, 0.25, 0.75])


@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_charge_sectors_match_graph_oracle_and_dense(seed, n):
    mat, charge = random_chains(np.random.default_rng(seed), n)
    ours = hermitian_block_eigenvalues(hermitian_coords(mat), charge)
    assert ours.shape == (n,)
    assert np.max(np.abs(ours - graph_block_eigenvalues(sp.csr_matrix(mat)))) < 1e-12
    assert np.max(np.abs(ours - np.linalg.eigvalsh(mat))) < 1e-12


def test_block_eigenvalues_add_cross_terms_at_one_position():
    # (0, 1) stored twice, once as its conjugate at (1, 0): they add up
    m = HermitianCoords(np.zeros(2), np.array([0, 1]), np.array([1, 0]), np.array([0.25j, -0.5j]))
    assert np.allclose(m.toarray(), [[0.0, 0.75j], [-0.75j, 0.0]], atol=1e-15)
    assert np.allclose(hermitian_block_eigenvalues(m, np.zeros(2)), [-0.75, 0.75], atol=1e-15)


def test_block_eigenvalues_reject_coupling_across_sectors():
    m = hermitian_coords(np.array([[0.5, 0.1j, 0.0], [-0.1j, 0.5, 0.0], [0.0, 0.0, 0.0]]))
    assert np.allclose(hermitian_block_eigenvalues(m, [1, 1, 0]), [0.0, 0.4, 0.6])
    with pytest.raises(DomainError, match="different charge"):
        hermitian_block_eigenvalues(m, [1, 0, 1])
    with pytest.raises(LayoutError):
        hermitian_block_eigenvalues(m, [1, 1])


def test_block_eigenvalues_reject_sector_that_is_not_a_chain():
    ring = np.ones((3, 3)) - np.eye(3)  # three states, each coupled to both others
    with pytest.raises(DomainError, match="not a chain"):
        hermitian_block_eigenvalues(hermitian_coords(ring), np.zeros(3))
    # the same couplings split over sectors in a different order are chains
    path = np.diag([1.0, 1.0], 1) + np.diag([1.0, 1.0], -1)
    assert np.allclose(
        hermitian_block_eigenvalues(hermitian_coords(path), np.zeros(3)),
        [-math.sqrt(2.0), 0.0, math.sqrt(2.0)],
        atol=1e-15,
    )


def test_schmidt_weights_of_bell_pair():
    layout = SubsystemLayout((fermion_mode("a"), fermion_mode("b")))
    ck = CoordKet(
        layout, np.array([[0, 0], [1, 1]]), np.array([1.0, 1.0]) / math.sqrt(2.0), [0, 1]
    )
    assert np.allclose(schmidt_weights(ck, ("a",)), [0.5, 0.5], atol=1e-15)


def test_schmidt_weights_reject_branches_sharing_a_state():
    layout = SubsystemLayout((fermion_mode("a"), fermion_mode("b")))
    ck = CoordKet(layout, np.array([[0, 0], [1, 0]]), np.array([0.6, 0.8]), [0, 0])
    assert np.allclose(schmidt_weights(ck, ("a",)), [1.0, 0.0], atol=1e-15)
    with pytest.raises(DomainError):  # party-B state 0 in both branches
        schmidt_weights(CoordKet(layout, ck.occupations, ck.values, [0, 1]), ("a",))
    with pytest.raises(DomainError):  # party-A state 0 in both branches
        schmidt_weights(CoordKet(layout, ck.occupations, ck.values, [0, 1]), ("b",))


def test_schmidt_weights_reject_a_branch_that_is_not_a_product():
    layout = SubsystemLayout((fermion_mode("a"), fermion_mode("b")))
    ck = CoordKet(layout, np.array([[0, 0], [1, 1]]), np.array([0.6, 0.8]), [0, 0])
    # rho_a has eigenvalues (0.36, 0.64); the branch norms would claim (0, 1)
    x = ck.to_ket().amplitudes.reshape(2, 2)
    assert np.allclose(np.linalg.eigvalsh(x @ x.conj().T), [0.36, 0.64], atol=1e-15)
    with pytest.raises(DomainError, match="not a product"):
        schmidt_weights(ck, ("a",))


@pytest.mark.parametrize(
    "sc",
    [Scenario("scalar", acc, r, cutoff=30) for acc in ("one", "both") for r in (0.0, 1e-3, 0.9)]
    + [Scenario("fermion", acc, r_f) for acc in ("one", "both") for r_f in (0.0, math.pi / 4)],
)
def test_scenario_branches_are_products_across_the_full_cut(sc):
    ck, _ = build_final_state_coords(sc)
    weights = schmidt_weights(ck, named_bipartitions(sc)["full"].party_a)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


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
    # each branch a random product u_b (x) v_b, the two on disjoint states of each side
    side_a = rng.integers(0, 3, size=dim_a)  # 2 = in neither branch
    side_b = rng.integers(0, 3, size=dim_b)
    assume(all(np.any(side_a == b) == np.any(side_b == b) for b in (0, 1)))
    occ, val, branch = [], [], []
    for b in (0, 1):
        a_states, b_states = np.flatnonzero(side_a == b), np.flatnonzero(side_b == b)
        u = rng.normal(size=a_states.size) + 1j * rng.normal(size=a_states.size)
        v = rng.normal(size=b_states.size) + 1j * rng.normal(size=b_states.size)
        ia, ib = np.meshgrid(np.arange(a_states.size), np.arange(b_states.size), indexing="ij")
        tup = np.zeros((ia.size, len(dims)), dtype=int)
        tup[:, a_pos] = np.array(np.unravel_index(a_states[ia.ravel()], [dims[p] for p in a_pos])).T
        tup[:, b_pos] = np.array(np.unravel_index(b_states[ib.ravel()], [dims[p] for p in b_pos])).T
        occ.append(tup)
        val.append(u[ia.ravel()] * v[ib.ravel()] * rng.normal())
        branch.append(np.full(ia.size, b))
    val = np.concatenate(val)
    assume(val.size > 0)
    ck = CoordKet(layout, np.concatenate(occ), val / np.linalg.norm(val), np.concatenate(branch))
    x = ck.to_ket().amplitudes.reshape(dims).transpose(a_pos + b_pos).reshape(dim_a, dim_b)
    ref = np.clip(np.linalg.eigvalsh(x @ x.conj().T), 0.0, None)[::-1]
    ours = schmidt_weights(ck, [layout.labels[p] for p in a_pos])
    assert ours.shape == (2,)
    assert np.max(np.abs(ours - ref[:2])) < 1e-14
    assert np.max(np.abs(ref[2:]), initial=0.0) < 1e-14


def test_scenario_pipeline_sparse_equals_dense():
    """The coordinate pipeline must reproduce the dense pipeline number-for-number."""
    scenarios = [Scenario("scalar", acc, r, cutoff=8) for acc in ("one", "both") for r in (0.2, 0.7)]
    scenarios += [
        Scenario("fermion", acc, r_f, phase=phase)
        for acc in ("one", "both")
        for r_f in (0.0, 0.3, 0.9, math.pi / 4, math.pi / 2)
        for phase in (0.0, 0.7)
    ]
    for sc in scenarios:
        dense, _ = build_final_state(sc)
        ck, _ = build_final_state_coords(sc)
        result = evaluate_scenario(sc)
        for name, bp in named_bipartitions(sc).items():
            ours_ln = result.systems[name].log_negativity
            if not bp.traced:
                assert ours_ln == pytest.approx(log_negativity_pure(dense, bp.party_a), abs=1e-12)
                continue
            ref = reduced_density(dense, bp)
            assert ours_ln == pytest.approx(log_negativity(ref, bp.party_a), abs=1e-12)
            ref_eigs = hermitian_eigenvalues(partial_transpose(ref, bp.party_a))
            rho, kept_dims, kept_labels = reduced_gram(ck, bp.kept)
            a_pos = [i for i, lbl in enumerate(kept_labels) if lbl in bp.party_a]
            ours = hermitian_block_eigenvalues(
                partial_transpose_sparse(rho, kept_dims, a_pos),
                kept_charges(kept_dims, kept_labels, bp.party_a),
            )
            assert np.max(np.abs(ours - ref_eigs)) < 1e-12, (sc, name)


@pytest.mark.parametrize("accelerated", ["one", "both"])
def test_traced_scalar_systems_match_sparse_oracle_at_cutoff_120(accelerated):
    # dense cannot run here: p,p alone has 14,884 states
    sc = Scenario("scalar", accelerated, 1.1, cutoff=120)
    ck, _ = build_final_state_coords(sc)
    planned = evaluate_scenario(sc, sweep_plan(sc))  # the route a sweep runs
    for name, bp in named_bipartitions(sc).items():
        if not bp.traced:
            continue
        rho, kept_dims, kept_labels = reduced_gram(ck, bp.kept)
        a_pos = [i for i, lbl in enumerate(kept_labels) if lbl in bp.party_a]
        ours = hermitian_block_eigenvalues(
            partial_transpose_sparse(rho, kept_dims, a_pos),
            kept_charges(kept_dims, kept_labels, bp.party_a),
        )
        keep = sorted(ck.layout.position(lbl) for lbl in bp.kept)
        ref = sparse_pt_eigenvalues(ck.occupations, ck.values, ck.layout.dims, keep, a_pos)
        assert np.max(np.abs(ours - ref)) < 1e-12, name
        ref_negativity = -ref[ref < -NEGATIVE_EIGENVALUE_TOL].sum()
        assert abs(planned.systems[name].negativity - ref_negativity) < 1e-12, name
        assert abs(planned.systems[name].min_pt_eigenvalue - ref[0]) < 1e-12, name
