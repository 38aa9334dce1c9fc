"""Hodge Laplacian spectra on cochains with exact kernel accounting.

Only up-Laplacians (d^T M_{q+1} d, M_q) are solved, as generalized symmetric
eigenproblems: by the Hodge decomposition the positive down-spectrum in degree
q is the positive up-spectrum in degree q-1.  Kernel dimensions come from
the exact ranks of the boundary maps, read from the invariant factors that
`homology` memoises per complex, never from thresholding floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .complexes import SimplicialComplex, SparseIntMatrix
from .homology import boundary_factors
from .ratlinalg import _rref, echelon, sparse_rows
from .whitney import InnerProduct


class SpectralError(ValueError):
    pass


def up_pencil(K: SimplicialComplex, q: int, ip_q: InnerProduct,
              ip_up: InnerProduct) -> tuple[np.ndarray, np.ndarray]:
    """(A, M) with A = d^T M_{q+1} d the up-Laplacian stiffness on q-cochains.

    A is one sparse triple product, symmetrized while still sparse and made
    dense only at the end: O(nnz) work, and no dense temporaries beyond A."""
    n = K.n_cells(q)
    if q >= K.dim:
        return np.zeros((n, n)), ip_q.matrix
    from scipy.sparse import csr_array
    face, cell, sign = np.array(K.boundary_matrix(q + 1).entries).T
    d = csr_array((sign.astype(float), (cell, face)),
                  shape=(K.n_cells(q + 1), n))
    A = d.T @ ip_up._csr() @ d
    return ((A + A.T) / 2).toarray(), ip_q.matrix


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


def _positive_up(K: SimplicialComplex, q: int, ips: dict[int, InnerProduct],
                 rank: int) -> np.ndarray:
    """The positive eigenvalues of the degree-q up-pencil of exact rank `rank`."""
    if rank == 0:
        return np.zeros(0)
    from scipy.linalg import eigh
    A, M = up_pencil(K, q, ips[q], ips[q + 1])
    return eigh(A, M, eigvals_only=True)[K.n_cells(q) - rank:]


def lambda1_split(K: SimplicialComplex, q: int,
                  inner_products: dict[int, InnerProduct]) -> SpectralSplit:
    """Eigenvalues of the degree-q Hodge Laplacian and its exact/coexact split.

    `inner_products` must supply degrees q-1, q, q+1 as applicable.  The
    spectrum is the exact kernel as zeros, the positive up-spectrum of degree
    q (coexact part) and that of degree q-1 (exact part)."""
    if not 0 <= q <= K.dim:
        raise SpectralError(f"degree {q} out of range")
    n = K.n_cells(q)
    if inner_products[q].matrix.shape != (n, n):
        raise SpectralError("inner product dimension mismatch")

    r_down = len(boundary_factors(K, q))      # rank of boundary leaving q
    r_up = len(boundary_factors(K, q + 1))    # rank of boundary entering q
    kernel_dim = n - r_down - r_up

    up = _positive_up(K, q, inner_products, r_up)
    down = _positive_up(K, q - 1, inner_products, r_down)
    spectrum = np.sort(np.concatenate([np.zeros(kernel_dim), up, down]))
    first = [float(e[0]) if len(e) else None
             for e in (spectrum[kernel_dim:], down, up)]
    return SpectralSplit(q, spectrum, kernel_dim, *first)


def harmonic_projection(K: SimplicialComplex, q: int,
                        inner_products: dict[int, InnerProduct]) -> np.ndarray:
    """Orthogonal projector (w.r.t. the degree-q inner product) onto the
    harmonic subspace, as a matrix acting on cochain coordinates.

    It is (Z Z^T - Y Y^T) M_q, with M-orthonormal bases Z of ker d_q (zero
    block of the degree-q up-pencil) and Y = d U mu^{-1/2} of im d_{q-1}
    (positive part mu, U of the degree-(q-1) up-pencil)."""
    from scipy.linalg import eigh
    M = inner_products[q].matrix
    n = K.n_cells(q)
    r_down, r_up = (len(boundary_factors(K, k)) for k in (q, q + 1))
    if n - r_down - r_up == 0:
        return np.zeros((n, n))
    P = np.eye(n)               # ker d_q is everything when r_up = 0
    if r_up:
        _, V = eigh(*up_pencil(K, q, inner_products[q], inner_products[q + 1]))
        Z = V[:, :n - r_up]
        P = Z @ Z.T @ M
    if r_down:
        mu, U = eigh(*up_pencil(K, q - 1, inner_products[q - 1],
                                inner_products[q]))
        k = K.n_cells(q - 1) - r_down
        Y = K.coboundary_matrix(q - 1).to_float() @ U[:, k:] / np.sqrt(mu[k:])
        P = P - Y @ Y.T @ M
    return P


def charpoly_gap_bound(K: SimplicialComplex, q: int) -> Fraction:
    """Exact upper bound on 1/lambda_1 of the integer up-Laplacian in degree q.

    With A = d d^T the integer matrix of d* d on q-chains (d the boundary map
    entering degree q), the bound is tr(A^+) >= 1/lambda_1, the sum of the
    reciprocals of the nonzero eigenvalues.  It equals |a_{k+1}| / |a_k| for
    the characteristic polynomial sum_i a_i x^i, a_k its last nonzero one.

    It is computed as tr((C^T C)^{-1} A[S,S]) by one exact solve with |S|
    right-hand sides, where S is the set of pivot columns the elimination
    kernel finds in A and C = A[:, S]: A is symmetric positive semidefinite
    of rank |S|, so A = C A[S,S]^{-1} C^T with C of full column rank.
    """
    if not 0 <= q < K.dim:
        raise SpectralError(f"degree {q} out of range for an up-Laplacian")
    n = K.n_cells(q)
    b = K.boundary_matrix(q + 1)
    A = b.matmul(b.transpose())
    rows, _ = sparse_rows(A)
    S = sorted(echelon(rows)[0])
    r = len(S)
    if r == 0:
        raise SpectralError("up-Laplacian is zero; no positive eigenvalues")
    index = {c: i for i, c in enumerate(S)}
    C = SparseIntMatrix(n, r, tuple((i, index[c], v) for i, c, v in A.entries
                                    if c in index))
    G = C.transpose().matmul(C)
    # [C^T C | A[S,S]] reduces to [I | (C^T C)^{-1} A[S,S]]; row i of the
    # integer RREF is d_i [e_i | ...], so diagonal entry i is R[i][r+i] / d_i
    aug = SparseIntMatrix(r, 2 * r, G.entries + tuple(
        (index[i], r + j, v) for i, j, v in C.entries if i in index))
    R, _ = _rref(aug)
    return sum((Fraction(R[i].get(r + i, 0), R[i][i]) for i in range(r)),
               Fraction(0))
