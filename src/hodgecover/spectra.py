"""Hodge Laplacian spectra on cochains with exact kernel accounting.

The up and down Laplacians are solved as generalized symmetric eigenproblems
against the chosen cochain inner product.  Kernel dimensions are determined
by exact rational ranks of the boundary maps, never by thresholding floats,
and the smallest positive eigenvalues are read off by index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import eigh

from .complexes import SimplicialComplex, SparseIntMatrix
from .ratlinalg import echelon, rat_rank, rat_rref, sparse_rows
from .whitney import InnerProduct


class SpectralError(ValueError):
    pass


def up_pencil(K: SimplicialComplex, q: int, ip_q: InnerProduct,
              ip_up: InnerProduct) -> tuple[np.ndarray, np.ndarray]:
    """(A, M) with A = d^T M_{q+1} d the up-Laplacian stiffness on q-cochains."""
    if q >= K.dim:
        n = K.n_cells(q)
        return np.zeros((n, n)), ip_q.matrix
    d = K.coboundary_matrix(q).to_float()
    A = d.T @ ip_up.matrix @ d
    return (A + A.T) / 2, ip_q.matrix


def down_pencil(K: SimplicialComplex, q: int, ip_q: InnerProduct,
                ip_down: InnerProduct) -> tuple[np.ndarray, np.ndarray]:
    """(B, M) whose eigenvalues are those of the down-Laplacian d d* on
    q-cochains; B = M d M_down^{-1} d^T M is symmetric."""
    n = K.n_cells(q)
    if q == 0:
        return np.zeros((n, n)), ip_q.matrix
    d = K.coboundary_matrix(q - 1).to_float()  # (q-1)-cochains -> q-cochains
    S = ip_q.matrix @ d
    B = S @ ip_down.solve(S.T)
    return (B + B.T) / 2, ip_q.matrix


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


def _rank(K: SimplicialComplex, q: int) -> int:
    if not 1 <= q <= K.dim:
        return 0
    return rat_rank(K.boundary_matrix(q))


def lambda1_split(K: SimplicialComplex, q: int,
                  inner_products: dict[int, InnerProduct]) -> SpectralSplit:
    """Eigenvalues of the degree-q Hodge Laplacian and its exact/coexact split.

    `inner_products` must supply degrees q-1, q, q+1 as applicable.  The
    positive part of the up (resp. down) spectrum starts at index
    n_q - rank(boundary_{q+1}) (resp. n_q - rank(boundary_q)) of the sorted
    pencil eigenvalues; those indices are computed exactly.
    """
    if not 0 <= q <= K.dim:
        raise SpectralError(f"degree {q} out of range")
    ip_q = inner_products[q]
    n = K.n_cells(q)
    if ip_q.matrix.shape != (n, n):
        raise SpectralError("inner product dimension mismatch")

    r_down = _rank(K, q)        # rank of boundary leaving degree q
    r_up = _rank(K, q + 1)      # rank of boundary entering degree q
    kernel_dim = n - r_down - r_up

    A_up, M = up_pencil(K, q, ip_q, inner_products[q + 1]) if q < K.dim \
        else (np.zeros((n, n)), ip_q.matrix)
    B_down, _ = down_pencil(K, q, ip_q, inner_products[q - 1]) if q > 0 \
        else (np.zeros((n, n)), ip_q.matrix)

    up_eigs = eigh(A_up, M, eigvals_only=True)
    down_eigs = eigh(B_down, M, eigvals_only=True)
    full_eigs = eigh(A_up + B_down, M, eigvals_only=True)

    def first_positive(eigs, zero_dim):
        if zero_dim >= len(eigs):
            return None
        return float(eigs[zero_dim])

    lam_up = first_positive(up_eigs, n - r_up)
    lam_down = first_positive(down_eigs, n - r_down)
    lam_full = first_positive(full_eigs, kernel_dim)
    return SpectralSplit(q, np.asarray(full_eigs), kernel_dim,
                         lam_full, lam_down, lam_up)


def harmonic_projection(K: SimplicialComplex, q: int,
                        inner_products: dict[int, InnerProduct]) -> np.ndarray:
    """Orthogonal projector (w.r.t. the degree-q inner product) onto the
    harmonic subspace, as a matrix acting on cochain coordinates."""
    ip_q = inner_products[q]
    n = K.n_cells(q)
    r_down = _rank(K, q)
    r_up = _rank(K, q + 1)
    kernel_dim = n - r_down - r_up
    if kernel_dim == 0:
        return np.zeros((n, n))
    A_up, M = up_pencil(K, q, ip_q, inner_products[q + 1]) if q < K.dim \
        else (np.zeros((n, n)), ip_q.matrix)
    B_down, _ = down_pencil(K, q, ip_q, inner_products[q - 1]) if q > 0 \
        else (np.zeros((n, n)), ip_q.matrix)
    w, vecs = eigh(A_up + B_down, M)
    H = vecs[:, :kernel_dim]  # M-orthonormal columns spanning the kernel
    return H @ H.T @ M


def charpoly_gap_bound(K: SimplicialComplex, q: int,
                       size_limit: int = 60) -> Fraction:
    """Exact upper bound on 1/lambda_1 of the integer up-Laplacian in degree q.

    With A = d d^T the integer matrix of d* d on q-chains (d the boundary map
    entering degree q), the bound is the sum of the reciprocals of the
    nonzero eigenvalues, tr(A^+), which dominates 1/lambda_1.  It equals
    |a_{k+1}| / |a_k| for the characteristic polynomial
    x^n + a_{n-1} x^{n-1} + ... + a_0 with a_k its last nonzero coefficient.

    It is computed as tr(A^+) = tr((C^T C)^{-1} A[S,S]), where S is the set of
    pivot columns the elimination kernel finds in A and C = A[:, S]: A is
    symmetric positive semidefinite of rank |S|, so A = C A[S,S]^{-1} C^T
    with C of full column rank.  That is one exact solve with |S| right-hand
    sides.
    """
    if not 0 <= q < K.dim:
        raise SpectralError(f"degree {q} out of range for an up-Laplacian")
    n = K.n_cells(q)
    if n > size_limit:
        raise SpectralError(
            f"{n} cells exceeds the exact-charpoly size limit {size_limit}")
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
    # [C^T C | A[S,S]] reduces to [I | (C^T C)^{-1} A[S,S]]
    aug = SparseIntMatrix(r, 2 * r, G.entries + tuple(
        (index[i], r + j, v) for i, j, v in C.entries if i in index))
    R, _ = rat_rref(aug)
    return sum((R[i][r + i] for i in range(r)), Fraction(0))
