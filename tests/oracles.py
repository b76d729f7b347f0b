"""Independent test-time implementations used to cross-check the library.

Nothing here may call into accelpair's numerical kernels: the point is a
second route to the same numbers.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from accelpair.sparse import CoordMatrix


def coord_matrix(dense):
    """The nonzero entries of a dense matrix as a CoordMatrix."""
    dense = np.asarray(dense)
    rows, cols = np.nonzero(dense)
    return CoordMatrix(dense.shape, rows, cols, dense[rows, cols])


def jacobi_hermitian_eigenvalues(mat, sweeps=100, tol=1e-14):
    """Eigenvalues of a complex Hermitian matrix by cyclic Jacobi rotations.

    Self-validating construction: each pivot removes phase by a diagonal
    unitary, then applies a real rotation; the accumulated transform V is
    checked for unitarity and for diagonalizing the input before returning.
    """
    a = np.array(mat, dtype=complex)
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    for _ in range(sweeps):
        scale = max(1.0, float(np.max(np.abs(np.diag(a)))))
        off = max(
            (abs(a[p, q]) for p in range(n - 1) for q in range(p + 1, n)), default=0.0
        )
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= tol * scale * 1e-2:
                    continue
                u = apq / abs(apq)
                a[:, q] *= np.conj(u)
                a[q, :] *= u
                v[:, q] *= np.conj(u)
                bpq = a[p, q].real
                tau = (a[q, q].real - a[p, p].real) / (2.0 * bpq)
                t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                col_p = c * a[:, p] - s * a[:, q]
                col_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = col_p, col_q
                row_p = c * a[p, :] - s * a[q, :]
                row_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = row_p, row_q
                vec_p = c * v[:, p] - s * v[:, q]
                vec_q = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = vec_p, vec_q
    # internal consistency, independent of any library eigensolver
    original = np.array(mat, dtype=complex)
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-11
    resid = v.conj().T @ original @ v
    assert np.max(np.abs(resid - np.diag(np.diag(resid)))) < 1e-11 * max(
        1.0, float(np.max(np.abs(original)))
    )
    return np.sort(np.diag(a).real)


def graph_block_eigenvalues(mat):
    """Eigenvalues of a sparse Hermitian matrix, ascending, by graph discovery.

    Splits the sparsity graph into connected components and solves each one
    densely; needs no charge, so it checks a charge-sector solver from a
    second route.
    """
    m = mat.tocsr()
    m.sum_duplicates()
    n = m.shape[0]
    if m.nnz == 0:
        return np.zeros(n)
    m = ((m + m.getH()) * 0.5).tocoo()
    # Connectivity comes from the storage pattern, not the (complex) values:
    # csgraph casts to real and would drop purely imaginary couplings.
    pattern = sp.csr_matrix((np.ones(m.nnz), (m.row, m.col)), shape=m.shape)
    n_comp, labels = connected_components(pattern, directed=False)
    m = m.tocsr()
    eigs = []
    for c in range(n_comp):
        members = np.flatnonzero(labels == c)
        block = m[members][:, members].toarray()
        eigs.extend(np.linalg.eigvalsh(block))
    return np.sort(np.array(eigs))


def brute_force_partial_transpose(entries, dims, a_positions):
    """Element-by-element partial transpose over the given mode positions."""
    dims = list(dims)
    total = math.prod(dims)
    out = np.empty_like(np.asarray(entries))

    def decode(idx):
        occ = []
        for d in reversed(dims):
            idx, o = divmod(idx, d)
            occ.append(o)
        return list(reversed(occ))

    def encode(occ):
        idx = 0
        for o, d in zip(occ, dims):
            idx = idx * d + o
        return idx

    for i in range(total):
        for j in range(total):
            io, jo = decode(i), decode(j)
            for p in a_positions:
                io[p], jo[p] = jo[p], io[p]
            out[i, j] = entries[encode(io), encode(jo)]
    return out


def trace_norm_negativity(pt_matrix):
    """(||M||_1 - 1)/2 with the trace norm from singular values."""
    return (float(np.linalg.svd(pt_matrix, compute_uv=False).sum()) - 1.0) / 2.0


def random_pure_amplitudes(rng, dim):
    amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amp / np.linalg.norm(amp)
