"""Hodge Laplacian spectra on cochains with exact kernel accounting.

Only up-Laplacians (d^T M_{q+1} d, M_q) are solved, as generalized symmetric
eigenproblems: by the Hodge decomposition the positive down-spectrum in degree
q is the positive up-spectrum in degree q-1.  Kernel dimensions come from
the exact ranks of the boundary maps, read from the invariant factors that
`homology` memoises per complex, never from thresholding floats.

The stiffness d^T M_{q+1} d is assembled once, as COO triplets from the
blocks of M_{q+1} (_stiffness), summed in key order like every matrix built
from blocks (whitney._summed), and read as one exactly symmetric mirrored
mean (_stiffness_sums): the dense A of up_pencil and the dense eigensolve,
and the sparse degree-0 gap's CSR array.  `lambda1_split` is the dense
full-spectrum oracle, numpy only: M_q = L L^T by Cholesky and the
eigenvalues of L^-1 A L^-T.  `coexact_gap` finds only lambda_1^* and, above
_DENSE_MAX cells, never forms a dense matrix: in degree dim - 1 it solves
the dual pencil on (q+1)-cochains through one factored saddle-point matrix
(the mixed form of Arnold, Falk and Winther, Acta Numerica 2006), in degree
0 the shifted up-pencil itself.
`charpoly_gap_bound` is exact: tr(A^+), A = d d^T, from one elimination of
the smaller integer Gram bordered by a basis Z of its kernel (_reciprocal_sum),
its rows in reverse Cuthill-McKee order; each diagonal entry of the inverse is
one back-substitution stopped at its pivot, summed in integers over one lcm.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple

import numpy as np

from .complexes import ComplexError, SimplicialComplex, SparseIntMatrix
from .homology import boundary_factors
from .ratlinalg import _back_substitute, echelon, sparse_rows
from .whitney import InnerProduct, _scatter, _sparse, _summed


_DENSE_MAX = 400     # coexact_gap takes the dense path up to this many q-cells
_BLOCK = 64          # rows per matrix product in the forward substitution


class SpectralError(ValueError):
    pass


def _check_products(K: SimplicialComplex, ips: dict[int, InnerProduct],
                    q: int, r_down: int, r_up: int) -> None:
    """Raise SpectralError unless ips holds a product of the right size in
    every degree the degree-q spectra read: q, q+1 for the up-pencil when
    d_q != 0 (rank r_up), q-1 for the down part when d_{q-1} != 0."""
    for k in [q] + [q + 1] * (r_up > 0) + [q - 1] * (r_down > 0):
        ip = ips.get(k)
        if ip is None:
            raise SpectralError(f"no inner product in degree {k}")
        if ip.size != K.n_cells(k):
            raise SpectralError(f"inner product dimension mismatch in degree "
                                f"{k}: {ip.size} rows, {K.n_cells(k)} cells")


def _coboundary(K: SimplicialComplex, q: int):
    """d_q: C^q -> C^{q+1} as a float scipy CSR array, from the face table:
    a (q+1)-cell has (-1)^(q+1-k) at its face k, which drops vertex q+1-k."""
    faces = K._tables[q + 1][2]
    return _sparse(len(faces), K.n_cells(q), *_summed(
        K.n_cells(q), np.arange(len(faces))[:, None], faces,
        (-1.0) ** np.arange(q + 1, -1, -1)))


def _stiffness(K: SimplicialComplex, q: int, ip_up: InnerProduct) -> tuple:
    """COO triplets (rows, cols, vals) of A = d_q^T M_{q+1} d_q, straight from
    the blocks of M_{q+1}, duplicates not yet summed: block B_t on the
    (q+1)-cells glob[t] adds s_k B_t[a, b] s_l at (face k of cell a, face l
    of cell b), where face k drops vertex q+1-k and s_k = (-1)^(q+1-k).
    Whitney tops (T > 1 blocks of m > 1 cells, one face layout) add D^T B_t D
    instead, D[a, u] the sum of s_k over faces k of cell a that are face u:
    9, not 36, triplets per triangle at q = 0.  Symmetric up to rounding."""
    glob, B = ip_up._blocks
    T, m = glob.shape
    faces = K._tables[q + 1][2][glob].reshape(T, -1)   # slots (a, k)
    s = (-1.0) ** np.arange(q + 1, -1, -1)
    first = (faces[0][:, None] == faces[0]).argmax(1) if T > 1 < m else None
    if first is not None and (faces[:, first] == faces).all():
        local = np.flatnonzero(np.bincount(first))
        D = np.kron(np.eye(m), s) @ (first[:, None] == local)
        faces, vals = faces[:, local], D.T @ B @ D
    else:
        vals = np.einsum("k,tab,l->takbl", s, B, s)
    rows, cols = np.broadcast_arrays(faces[:, :, None], faces[:, None, :])
    return rows.ravel(), cols.ravel(), vals.ravel()


def _stiffness_sums(K: SimplicialComplex, q: int, ip_up: InnerProduct):
    """(keys, sums) of A = d_q^T M_{q+1} d_q, exactly symmetric: the sums u
    of the mirrored triplets of _stiffness, as (u_ij + u_ji) / 2."""
    n = K.n_cells(q)
    keys, u = _summed(n, *_stiffness(K, q, ip_up))
    return keys, (u + u[np.searchsorted(keys, keys % n * n + keys // n)]) / 2


def up_pencil(K: SimplicialComplex, q: int, ip_q: InnerProduct,
              ip_up: InnerProduct) -> tuple:
    """(A, M) with A = d^T M_{q+1} d the up-Laplacian stiffness on q-cochains,
    the sums of _stiffness_sums scattered once into one zeroed n x n array
    (numpy only, no dense temporaries), and M = M_q, the InnerProduct ip_q
    itself, whose dense view is never built here.  The degree follows
    check_degree, and SpectralError unless ip_q and, below dim, ip_up have
    the sizes of degrees q and q + 1."""
    K.check_degree(q)
    _check_products(K, {q: ip_q, q + 1: ip_up}, q, 0, int(q < K.dim))
    n = K.n_cells(q)
    if q == K.dim:
        return np.zeros((n, n)), ip_q
    return _scatter(n, *_stiffness_sums(K, q, ip_up)), ip_q


@dataclass
class SpectralSplit:
    """Spectrum of the full Hodge Laplacian in one degree, with the smallest
    positive eigenvalues of its exact (down) and coexact (up) parts."""

    degree: int
    spectrum: np.ndarray      # full Laplacian eigenvalues, ascending
    kernel_dim: int           # harmonic dimension (betti number)
    lambda1: float | None     # smallest positive full-Laplacian eigenvalue
    lambda1_d: float | None       # smallest positive down-Laplacian eigenvalue
    lambda1_dstar: float | None   # smallest positive up-Laplacian eigenvalue


def _forward(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """L^-1 B for a lower triangular L, by forward substitution: row by row
    within each block of _BLOCK rows, after one matrix product with the rows
    already solved."""
    X = np.empty_like(B)
    for s in range(0, len(L), _BLOCK):
        R = B[s:s + _BLOCK] - L[s:s + _BLOCK, :s] @ X[:s]
        for i in range(s, min(s + _BLOCK, len(L))):
            X[i] = (R[i - s] - L[i, s:i] @ X[s:i]) / L[i, i]
    return X


def _positive_up(K: SimplicialComplex, q: int, ips: dict[int, InnerProduct],
                 rank: int) -> np.ndarray:
    """The positive eigenvalues of the degree-q up-pencil (A, M) of exact rank
    `rank`, numpy only: A's exactly symmetric sums (_stiffness_sums),
    M = L L^T by Cholesky, and the ascending eigenvalues of L^-1 A L^-T,
    the reduction of LAPACK's sygv, from two forward substitutions."""
    if rank == 0:
        return np.zeros(0)
    n = K.n_cells(q)
    A = _scatter(n, *_stiffness_sums(K, q, ips[q + 1]))
    L = np.linalg.cholesky(ips[q].matrix)
    return np.linalg.eigvalsh(_forward(L, _forward(L, A).T))[n - rank:]


def lambda1_split(K: SimplicialComplex, q: int,
                  inner_products: dict[int, InnerProduct]) -> SpectralSplit:
    """Eigenvalues of the degree-q Hodge Laplacian and its exact/coexact split.

    `inner_products` must supply degrees q-1, q, q+1 as applicable.  The
    spectrum is the exact kernel as zeros, the positive up-spectrum of degree
    q (coexact part) and that of degree q-1 (exact part)."""
    K.check_degree(q)
    n = K.n_cells(q)
    r_down = len(boundary_factors(K, q))      # rank of boundary leaving q
    r_up = len(boundary_factors(K, q + 1))    # rank of boundary entering q
    kernel_dim = n - r_down - r_up
    _check_products(K, inner_products, q, r_down, r_up)

    up = _positive_up(K, q, inner_products, r_up)
    down = _positive_up(K, q - 1, inner_products, r_down)
    spectrum = np.sort(np.concatenate([np.zeros(kernel_dim), up, down]))
    first = [float(e[0]) if len(e) else None
             for e in (spectrum[kernel_dim:], down, up)]
    return SpectralSplit(q, spectrum, kernel_dim, *first)


class CoexactGap(NamedTuple):
    """The smallest positive up-Laplacian eigenvalue lambda_1^* in one degree
    (None when d_q = 0), and the margin: eigenvalues at or below it count as
    zero, and exactly the exact-homology number of them must."""

    lambda1: float | None
    margin: float | None


def coexact_gap(K: SimplicialComplex, q: int,
                inner_products: dict[int, InnerProduct]) -> CoexactGap:
    """lambda_1^* of the degree-q up-pencil (d^T M_{q+1} d, M_q).

    Up to _DENSE_MAX q-cells, and in degrees other than 0 and dim - 1, it is
    lambda1_split's value, from the same dense eigenvalues.  Otherwise it is
    the (b+1)-th eigenvalue of a pencil whose zero block b is known exactly:
    - q = dim - 1: the dual pencil (M_{q+1} d M_q^{-1} d^T M_{q+1}, M_{q+1})
      on (q+1)-cochains, with the same positive spectrum and b = b_{q+1};
      (P - sigma M_{q+1})^{-1} is one solve with the saddle-point matrix
      [[M_q, d^T M_{q+1}], [M_{q+1} d, sigma M_{q+1}]]
    - q = 0: the up-pencil itself, b = b_0, through A - sigma M_0.
    The matrix is factored once (splu, COLAMD) and shift-inverted Lanczos
    (eigsh, seeded) finds the b + 1 eigenvalues nearest the shift
    sigma = -1e-9 s, s = min diag M_{q+1} / max diag M_q the scale of the
    spectrum.  Exactly b of them must lie at or below the margin 1e-12 s,
    else SpectralError: rounding leaves the zeros near 1e-16 s, while
    lambda_1^* of a degree-d cyclic cover of genus2 falls like 1/d^2
    (3.7e-4 s at d = 101, 3.7e-6 s at d = 1009).  The dense path splits at
    the exact rank alone and reports the same margin."""
    K.check_degree(q)
    r_up = len(boundary_factors(K, q + 1))
    _check_products(K, inner_products, q, 0, r_up)
    if r_up == 0:
        return CoexactGap(None, None)
    ip_q, ip_up = inner_products[q], inner_products[q + 1]
    scale = float(ip_up.diagonal().min() / ip_q.diagonal().max())
    margin = 1e-12 * scale
    side = q + 1 if q == K.dim - 1 else q
    n = K.n_cells(side)
    b = n - r_up
    if K.n_cells(q) <= _DENSE_MAX or q not in (0, K.dim - 1) or b + 1 >= n:
        return CoexactGap(float(_positive_up(K, q, inner_products, r_up)[0]),
                          margin)
    from scipy.sparse import bmat
    from scipy.sparse.linalg import (ArpackError, LinearOperator, eigsh,
                                     splu)
    sigma = -1e-9 * scale
    M = ip_q._csr()
    if side == q:
        A = _sparse(n, n, *_stiffness_sums(K, q, ip_up))
        solve = splu((A - sigma * M).tocsc(), permc_spec="COLAMD").solve
        B = M
    else:
        # K [x; y] = [0; r] gives (P - sigma M_up) y = -r; ARPACK's
        # shift-invert mode applies only this solve and M_up, never A
        M_up = ip_up._csr()
        Md = M_up @ _coboundary(K, q)
        lu = splu(bmat([[M, Md.T], [Md, sigma * M_up]], format="csc"),
                  permc_spec="COLAMD")
        pad = np.zeros(K.n_cells(q))
        A, B = LinearOperator((n, n), matvec=None, dtype=float), M_up

        def solve(r):
            return -lu.solve(np.concatenate([pad, r]))[len(pad):]
    rng = np.random.default_rng(0)     # also any restart vectors
    try:
        vals = np.sort(eigsh(A, k=b + 1, M=B, sigma=sigma, which="LM",
                             OPinv=LinearOperator((n, n), solve, dtype=float),
                             v0=rng.standard_normal(n), rng=rng,
                             return_eigenvectors=False))
    except ArpackError as exc:
        raise SpectralError(f"Lanczos for the degree-{q} gap failed: {exc}")
    zeros = int(np.sum(vals <= margin))
    if zeros != b:
        raise SpectralError(f"{zeros} eigenvalues at or below the margin "
                            f"{margin:.3g}, but b = {b} from exact homology")
    return CoexactGap(float(vals[b]), margin)


def _reverse_cuthill_mckee(rows: list[dict[int, int]]) -> list[int]:
    """The rows of a structurally symmetric sparse matrix in reverse
    Cuthill-McKee order: breadth-first through its graph, each component
    from a row of least degree and each row's new neighbours by ascending
    degree, ties by index, the whole order then reversed."""
    degree = [len(row) for row in rows]
    seen = [False] * len(rows)
    order = []
    for start in sorted(range(len(rows)), key=degree.__getitem__):
        if seen[start]:
            continue
        seen[start] = True
        k = len(order)
        order.append(start)
        while k < len(order):
            new = sorted((w for w in rows[order[k]] if not seen[w]),
                         key=degree.__getitem__)
            for w in new:
                seen[w] = True
            order += new
            k += 1
    return order[::-1]


def _reciprocal_sum(b: SparseIntMatrix) -> Fraction:
    """tr((b b^T)^+) for a nonzero integer b with n rows.  The rows of b are
    first renumbered in reverse Cuthill-McKee order through b b^T, which
    keeps the fill-in of the eliminations below small and leaves the trace
    as it is.  With Z an integer basis of ker b b^T = ker b^T (one
    back-substitution per free column of b^T), B = [[b b^T, Z], [Z^T, 0]]
    is nonsingular and the top-left n x n block of B^-1 is (b b^T)^+
    (Ben-Israel and Greville 2003): one elimination of the sparse [B | I_n],
    one back-substitution per i < n, summed in integers."""
    n = b.rows
    gram, _ = sparse_rows(b.matmul(b.transpose()))
    order = _reverse_cuthill_mckee(gram)
    new = {old: i for i, old in enumerate(order)}
    bt = SparseIntMatrix._trusted(b.cols, n, tuple((c, new[r], v)
                                                   for r, c, v in b.entries))
    pivots, _ = echelon(sparse_rows(bt)[0])
    rows = sorted(pivots.items(), reverse=True)
    Z = [_back_substitute(rows, {f: 1})[0] for f in range(n)
         if f not in pivots]
    N = n + len(Z)
    rows = [{new[j]: v for j, v in gram[old].items()} for old in order]
    for i, row in enumerate(rows):          # the rows [b b^T | Z | I_n] of B
        row |= {n + j: z[i] for j, z in enumerate(Z) if i in z} | {N + i: 1}
    # the kernel vector that is 1 at column N + i is -(B^-1)_ii at column
    # i; B's pivots are the columns N - 1, ..., 0, and those below i only
    # rescale x and den together, so the back-substitution stops at i
    rows = sorted(echelon(rows + Z)[0].items(), reverse=True)
    xs = [_back_substitute(rows[:N - i], {N + i: 1}) for i in range(n)]
    den = lcm(*(d for _, d in xs))
    return Fraction(-sum(x.get(i, 0) * (den // d)
                         for i, (x, d) in enumerate(xs)), den)


def charpoly_gap_bound(K: SimplicialComplex, q: int) -> Fraction:
    """Exact upper bound on 1/lambda_1 of the integer up-Laplacian in degree q.

    With A = d d^T the integer matrix of d* d on q-chains (d the boundary map
    entering degree q), the bound is tr(A^+) >= 1/lambda_1, the sum of the
    reciprocals of the nonzero eigenvalues.  It equals |a_{k+1}| / |a_k| for
    the characteristic polynomial sum_i a_i x^i, a_k its last nonzero one.

    d d^T and d^T d have the same nonzero spectrum, so the trace is read from
    the sparse bordered system of the one with fewer rows (_reciprocal_sum).
    ComplexError unless q is an integer, not a bool, in 0..dim - 1.
    """
    K.check_degree(q)
    if q == K.dim:
        raise ComplexError(f"degree {q} is out of range 0..{K.dim - 1} for "
                           "an up-Laplacian")
    b = K.boundary_matrix(q + 1)
    if not b.entries:
        raise SpectralError("up-Laplacian is zero; no positive eigenvalues")
    return _reciprocal_sum(b.transpose() if b.rows > b.cols else b)
