"""Independent test-time implementations used to cross-check the library.

Nothing here may call into accelpair's numerical kernels: the point is a
second route to the same numbers.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

# Every scenario state obeys the selection rule (s_p - s_a) = (w_p - w_a):
# the charge sum(sign * occupation) vanishes on each populated tuple.
CHARGE_SIGNS = {"s_p": 1, "s_a": -1, "w_p": -1, "w_a": 1}


def kept_charges(dims, labels, flipped=frozenset()):
    """Charge of each kept occupation tuple, row-major, with ``flipped`` signs reversed.

    Reduced density matrices of scenario states conserve it; their partial
    transposes over party A conserve it with party A flipped.
    """
    charge = np.zeros((), dtype=np.int64)
    for dim, label in zip(dims, labels):
        sign = -CHARGE_SIGNS[label] if label in flipped else CHARGE_SIGNS[label]
        charge = np.add.outer(charge, sign * np.arange(dim))
    return charge.ravel()


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


def sparse_pt_eigenvalues(occupations, values, dims, keep, party_a):
    """Partial-transpose spectrum of a traced pure state, by scipy.sparse.

    ``occupations`` and ``values`` are the populated tuples of the state over
    ``dims``; ``keep`` lists the kept positions in layout order and
    ``party_a`` the positions, within ``keep``, of party A.  rho = B B^H with
    B[kept index, traced index], the partial transpose swaps party A's
    coordinates of every stored entry, and graph_block_eigenvalues solves it.
    """
    occ = np.asarray(occupations)
    traced = [p for p in range(len(dims)) if p not in keep]
    kept_dims = [dims[p] for p in keep]
    traced_dims = [dims[p] for p in traced]
    b = sp.csr_matrix(
        (values, (np.ravel_multi_index(occ[:, keep].T, kept_dims),
                  np.ravel_multi_index(occ[:, traced].T, traced_dims))),
        shape=(math.prod(kept_dims), math.prod(traced_dims)),
    )  # fmt: skip
    rho = (b @ b.conj().T).tocoo()
    row_occ = np.array(np.unravel_index(rho.row, kept_dims))
    col_occ = np.array(np.unravel_index(rho.col, kept_dims))
    row_occ[party_a], col_occ[party_a] = col_occ[party_a], row_occ[party_a]
    rows = np.ravel_multi_index(tuple(row_occ), kept_dims)
    cols = np.ravel_multi_index(tuple(col_occ), kept_dims)
    return graph_block_eigenvalues(sp.coo_matrix((rho.data, (rows, cols)), shape=rho.shape))


def kronecker_scenario_state(statistics, accelerated, r, phase=0.0, cutoff=30):
    """Dense scenario state and norm deficit, built by Kronecker products.

    (|0_s> (x) vac_w + |1_s> (x) one_w)/sqrt 2 on (s_p, s_a, w_p, w_a), where
    an accelerated mode's vacuum is sum_n c_n |n_p, n_a> and its one particle
    sum_n d_n |(n+1)_p, n_a> (Fuentes-Schuller & Mann, PRL 95, 120404 (2005)):
    scalar c_n = tanh^n r / cosh r and d_n = sqrt(n+1) tanh^n r / cosh^2 r for
    n <= cutoff, fermion c = (cos r e^{-i phase}, -sin r) and d = (1).  With
    one mode accelerated, s is a bare two-level particle (|0_s>, |1_s>) and
    s_a is absent.  Returns the amplitudes shaped by the layout's dims; a
    scalar state is normalised over the dense vector and its deficit is
    1 - <psi|psi>, a fermion state is exact with deficit 0.
    """
    if statistics == "fermion":
        c, d = np.array([math.cos(r) * np.exp(-1j * phase), -math.sin(r)]), np.ones(1)
        pair = (2, 2)
    else:
        n = np.arange(cutoff + 1)
        c = np.tanh(r) ** n / math.cosh(r)
        d = np.sqrt(n + 1.0) * np.tanh(r) ** n / math.cosh(r) ** 2
        pair = (cutoff + 2, cutoff + 1)
    vac, one = np.zeros(pair, dtype=complex), np.zeros(pair, dtype=complex)
    for k, weight in enumerate(c):
        vac[k, k] = weight
    for k, weight in enumerate(d):
        one[k + 1, k] = weight
    if accelerated == "both":
        s0, s1, dims = vac.ravel(), one.ravel(), pair + pair
    else:
        s0, s1, dims = np.array([1.0, 0.0]), np.array([0.0, 1.0]), (2,) + pair
    psi = (np.kron(s0, vac.ravel()) + np.kron(s1, one.ravel())) / math.sqrt(2.0)
    if statistics == "fermion":
        return psi.reshape(dims), 0.0
    n2 = float(np.vdot(psi, psi).real)
    return (psi / math.sqrt(n2)).reshape(dims), 1.0 - n2


def scalar_one_sp_negativity(r, terms=4000, threshold=1e-12):
    """N(s,p) of the untruncated scalar-one state, summed over 2x2 blocks.

    With c_n = tanh^n r / cosh r and d_n = sqrt(n+1) tanh^n r / cosh^2 r,
    block n of rho^{T_s} couples (1, n) and (0, n+1): diagonal d_{n-1}^2/2
    and c_{n+1}^2/2, coupling c_n d_n / 2, determinant -tanh^{4n} r /
    (4 cosh^6 r) (Fuentes-Schuller & Mann, PRL 95, 120404 (2005)).  As in
    the library, a block's negative eigenvalue above -threshold counts as 0.
    """
    n = np.arange(terms + 1)
    t, ch = math.tanh(r), math.cosh(r)
    c = t**n / ch
    d = np.sqrt(n + 1.0) * t**n / ch**2
    a = np.concatenate([[0.0], d[: terms - 1]]) ** 2 / 2.0
    b = c[1:] ** 2 / 2.0
    upper = (a + b) / 2.0 + np.hypot((a - b) / 2.0, c[:terms] * d[:terms] / 2.0)
    det = -(t ** (4.0 * n[:terms])) / (4.0 * ch**6)
    lower = np.divide(det, upper, out=np.zeros(terms), where=upper > 0.0)  # 0/0 past underflow
    return float(-lower[lower < -threshold].sum())


# The Euler-Gompertz constant G = e E_1(1) = int_0^inf e^-y / (1 + y) dy (OEIS A073003)
EULER_GOMPERTZ = 0.596347362323194074341078499369


def scalar_one_sp_large_r(r):
    """The first two terms of N(s,p) of the untruncated scalar-one state as r grows:
    G u / 2 + (1 - 3G/2) u^2, with u = 1 / cosh^2 r and G the Euler-Gompertz constant.

    Derivation.  With x = tanh^2 r = 1 - u, block n of
    :func:`scalar_one_sp_negativity` has a = n x^(n-1) u^2 / 2, b = x^(n+1) u / 2,
    c^2 = (n+1) x^(2n) u^3 / 4 and det = -x^(2n) u^3 / 4, so its negative
    eigenvalue det / l+ has magnitude u^2 x^n / (2 L_n), where L_n = (A + B)/2 +
    sqrt(((A - B)/2)^2 + (n + 1) u) with A = n u / x and B = x.  Write y = n u.
    Then x^n = e^-y (1 - y u / 2 + O(u^2)) and L_n = (1 + y) + u y^2 / (1 + y)
    + O(u^2), so N = u sum_n u F(n u) with

        F(y) = e^-y / (2 (1 + y)) * (1 - u (y/2 + y^2 / (1 + y)^2)) + O(u^2).

    Euler-Maclaurin gives sum_n u F(n u) = int_0^inf F dy + u F(0) / 2 + O(u^2),
    and F(0) = 1/2 + O(u).  Let J_k = int_0^inf e^-y (1 + y)^-k dy: J_0 = 1,
    J_1 = G, and by parts J_k = (1 - J_(k-1)) / (k - 1), so J_2 = 1 - G and
    J_3 = G/2.  As y / (1 + y) = 1 - 1/(1 + y) and y^2 / (1 + y)^3 = 1/(1 + y) -
    2/(1 + y)^2 + 1/(1 + y)^3, int F dy = J_1 / 2 - u ((J_0 - J_1) / 4 + (J_1 -
    2 J_2 + J_3) / 2) + O(u^2) = G/2 - u (3G/2 - 3/4) + O(u^2).  Adding u F(0) / 2
    = u / 4 gives N / u = G/2 + u (1 - 3G/2) + O(u^2).  The leading term sums the
    blocks' negative eigenvalues, ~ -e^-y / (2 cosh^4 r (1 + y)) at n = y cosh^2 r.
    """
    u, g = 1.0 / math.cosh(r) ** 2, EULER_GOMPERTZ
    return g * u / 2.0 + (1.0 - 1.5 * g) * u * u


def scalar_both_aa_sector(r, L):
    """(alpha_L, diagonal, off-diagonal) of sector L = n_s + n_w of the a,a partial
    transpose of the untruncated scalar-both state: alpha_L M_L on the states
    (s_a, w_a) = (a, L - a), a = 0..L, in ascending a.  One row per squeeze of
    ``r``, a number or a 1-D array.

    With t = tanh r, C = cosh r and u = 1 / C^2, alpha_L = t^(2L) / (2 C^4) and
    M_L = I + u^2 diag((a + 1)(L + 1 - a)) + u offdiag(sqrt(n (L + 1 - n))),
    n = 1..L coupling states n - 1 and n: the vacuum branch puts c_a^2 c_(L-a)^2 / 2
    and the one-particle branch d_a^2 d_(L-a)^2 / 2 on each state, and the cross
    term c_(j+1) c_(k+1) d_j d_k / 2 of the traced pair (j + 1, k + 1) = (j, k) + 1
    moves, transposed over s_a, to (j, k + 1)-(j + 1, k).

    Certificate that a,a is PPT for every r.  By AM-GM, u sqrt(X) <= (1 + u^2 X) / 2
    for every coupling, so row a's couplings add up to at most 1 + u^2 (a (L + 1 - a)
    + (a + 1)(L - a)) / 2 = 1 + u^2 (a L - a^2 + L/2), and its diagonal 1 + u^2
    (a L - a^2 + L + 1) exceeds that by at least u^2 (L + 2) / 2 > 0.  So M_L is
    strictly diagonally dominant with a positive diagonal: by Gershgorin it is
    positive definite, every eigenvalue of alpha_L M_L is >= 0 (> 0 where alpha_L
    does not underflow), and N(a,a) = 0 at every acceleration.
    """
    r = np.atleast_1d(np.asarray(r, float))[:, None]
    t, c2 = np.tanh(r), np.cosh(r) ** 2
    a, u = np.arange(L + 1.0), 1.0 / c2
    alpha = t[:, 0] ** (2 * L) / (2.0 * c2[:, 0] ** 2)
    return alpha, 1.0 + u * u * (a + 1.0) * (L + 1.0 - a), u * np.sqrt(a[1:] * (L + 1.0 - a[1:]))


def scalar_both_pp_negativity(r, threshold=1e-12, tail=1e-18):
    """N(p,p) of the untruncated scalar-both state, summed over sectors L = n_s + n_w.

    With t = tanh r, C = cosh r and s = 1 / sinh^2 r, the partial transpose
    is the direct sum over L of alpha_L M_L, alpha_L = t^(2L) / (2 C^4), where
    M_L is the (L+1)-square tridiagonal I + s^2 diag(a (L - a)) +
    s offdiag(sqrt((a + 1) (L - a))), a = 0..L: a Lipkin-Meshkov-Glick-type
    matrix, from the per-mode expansions of Fuentes-Schuller & Mann, PRL 95,
    120404 (2005).  As in the library, an eigenvalue alpha_L lambda above
    -threshold counts as 0.  Every eigenvalue of M_L is >= 1 - s L (the
    diagonal term is >= 0 and the coupling has norm s L), so sector L adds at
    most u_L = alpha_L (L + 1) s L.  From L on, u shrinks by rho =
    t^2 (L + 2) / L or more per sector, so once rho < 1 the sum stops when
    u_L / (1 - rho) < ``tail``: the result is within ``tail`` of the whole
    series.  At r = 0 only the Bell pair is left: 1/2.
    """
    from scipy.linalg import eigh_tridiagonal

    if r == 0.0:
        return 0.5
    x, c4, s = math.tanh(r) ** 2, math.cosh(r) ** 4, 1.0 / math.sinh(r) ** 2
    total, n = 0.0, 0
    while True:
        alpha = x**n / (2.0 * c4)
        rho = x * (n + 2) / n if n else math.inf
        if rho < 1.0 and alpha * (n + 1) * s * n / (1.0 - rho) < tail:
            return total
        if alpha * (s * n - 1.0) > threshold:  # else no eigenvalue can pass the threshold
            a = np.arange(n + 1.0)
            diag, off = 1.0 + s * s * a * (n - a), s * np.sqrt((a[:-1] + 1.0) * (n - a[:-1]))
            scaled = alpha * eigh_tridiagonal(diag, off, eigvals_only=True)
            total -= float(scaled[scaled < -threshold].sum())
        n += 1


def scalar_full_ln(accelerated, r, cutoff):
    """LN(full) of a scalar scenario truncated at ``cutoff``, from its branch norms.

    With x = tanh^2 r, the vacuum branch keeps A = sum_{n<=N} c_n^2 = 1 - x^(N+1)
    and the one-particle branch B = sum_{n<=N} d_n^2 = 1 - (N+2) x^(N+1) + (N+1)
    x^(N+2); with both modes accelerated each norm is squared.  The branches are
    orthogonal on both sides of the cut, so the Schmidt weights are A/(A+B) and
    B/(A+B), and LN = log2(1 + 2 sqrt(AB) / (A+B)).
    """
    x, n = math.tanh(r) ** 2, cutoff
    a = 1.0 - x ** (n + 1)
    b = 1.0 - (n + 2) * x ** (n + 1) + (n + 1) * x ** (n + 2)
    if accelerated == "both":
        a, b = a * a, b * b
    return math.log2(1.0 + 2.0 * math.sqrt(a * b) / (a + b))


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


def partial_trace(entries, dims, keep):
    """Dense density matrix over ``dims`` reduced to the positions in ``keep``
    (ascending), by one einsum that repeats each traced position's letter."""
    rows = [chr(ord("a") + p) for p in range(len(dims))]
    cols = [chr(ord("A") + p) if p in keep else rows[p] for p in range(len(dims))]
    kept = "".join(rows[p] for p in keep) + "".join(cols[p] for p in keep)
    reduced = np.einsum(f"{''.join(rows + cols)}->{kept}", np.reshape(entries, (*dims, *dims)))
    side = math.prod(dims[p] for p in keep)
    return reduced.reshape(side, side)


def dense_amplitudes(occupations, values, dims):
    """Row-major amplitude vector over ``dims`` of the populated tuples
    ``occupations`` (one row each) with their ``values``; repeated tuples add."""
    amps = np.zeros(math.prod(dims), dtype=complex)
    np.add.at(amps, np.ravel_multi_index(np.asarray(occupations).T, dims), values)
    return amps


def dense_hermitian(diag, rows, cols, vals):
    """diag(diag) + C + C^H, C holding ``vals`` at (``rows``, ``cols``); entries
    at one position add."""
    out = np.diag(diag).astype(complex)
    np.add.at(out, (rows, cols), vals)
    np.add.at(out, (cols, rows), np.conj(vals))
    return out


def pure_state_log_negativity(amplitudes, dims, a_positions):
    """LN of a pure state across ``a_positions`` | rest: the trace norm of its
    partial transpose is the squared sum of its Schmidt coefficients, here the
    singular values of the amplitudes as a (party A x rest) matrix."""
    rest = [p for p in range(len(dims)) if p not in a_positions]
    side = math.prod(dims[p] for p in a_positions)
    x = np.reshape(amplitudes, dims).transpose(list(a_positions) + rest).reshape(side, -1)
    return 2.0 * math.log2(float(np.linalg.svd(x, compute_uv=False).sum()))


def trace_norm_negativity(pt_matrix):
    """(||M||_1 - 1)/2 with the trace norm from singular values."""
    return (float(np.linalg.svd(pt_matrix, compute_uv=False).sum()) - 1.0) / 2.0


def random_pure_amplitudes(rng, dim):
    amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amp / np.linalg.norm(amp)


# The argument of log2 in each fermionic closed form, less 1, of c2 = cos(r_f)^2 and
# s2 = sin(r_f)^2; no system name is shared by fermion-one and fermion-both but "full".
CLOSED_FORM_ARGS = {
    "full": lambda c2, s2: 1.0,
    "s,p": lambda c2, s2: c2,
    "s,a": lambda c2, s2: s2,
    "p,p": lambda c2, s2: c2 * c2,
    "a,a": lambda c2, s2: s2 * s2,
    "p,a": lambda c2, s2: c2 * s2,
    "a,p": lambda c2, s2: c2 * s2,
}


def closed_form_per_value(system, r_f):
    """Closed-form fermionic LN of one reduced system at one r_f, in Python floats."""
    c2, s2 = math.cos(r_f) ** 2, math.sin(r_f) ** 2
    return math.log2(1 + CLOSED_FORM_ARGS[system](c2, s2))


def csv_per_value(table):
    """The bytes of ``emit_csv`` for a sweep table, one ``"%.12g"`` per value and
    one ``",".join`` per row, as the per-row writer made them."""
    cfg = table.config
    fermion, systems = cfg.statistics == "fermion", table.systems
    keys = [system.replace(",", "") for system in systems]
    header = (["mu2", "r"] if cfg.mu2_grid else ["r"]) + [f"ln_{k}" for k in keys]
    header += [f"cf_{k}" for k in keys] if fermion else []
    lines = [",".join(header + ["deficit", "cutoff", "converged"]) + "\n"]
    for row in table.rows:
        res = row.result
        squeeze = res.scenario.squeeze
        values = [row.param, squeeze] if cfg.mu2_grid else [squeeze]
        values += [res.systems[s].log_negativity for s in systems]
        if fermion:
            values += [closed_form_per_value(s, squeeze) for s in systems]
        values.append(res.deficit)
        cutoff = 0 if fermion else res.scenario.cutoff
        flag = "true" if row.converged else "false"
        lines.append(",".join([*["%.12g" % v for v in values], "%d" % cutoff, flag]) + "\n")
    return "".join(lines).encode("utf-8")


def polylines_per_point(x, curves):
    """The ``points`` attribute of each (label, y, dash) curve's polyline over ``x`` in
    ``render_line_plot``'s frame (720 x 480, margins 64/16/40/52), one
    ``"%.2f,%.2f" % to_px(x, y)`` per point."""
    ys = [v for _, y, _ in curves for v in y]
    x_lo, x_hi = min(x), max(x)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    y_lo, y_hi = 0.0, max(1.0, max(ys)) * 1.06
    px_w, px_h = 720 - 64 - 16, 480 - 40 - 52

    def to_px(x, y):
        fx = 64 + (x - x_lo) / (x_hi - x_lo) * px_w
        fy = 40 + (1.0 - (y - y_lo) / (y_hi - y_lo)) * px_h
        return fx, fy

    return [" ".join(["%.2f,%.2f" % to_px(*p) for p in zip(x, y)]) for _, y, _ in curves]
