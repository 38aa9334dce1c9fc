"""Hodge Laplacian spectra on cochains with exact kernel accounting.

Only up-Laplacians (d^T M_{q+1} d, M_q) are solved, as generalized symmetric
eigenproblems: by the Hodge decomposition the positive down-spectrum in degree
q is the positive up-spectrum in degree q-1.  Kernel dimensions come from
the exact ranks of the boundary maps, read from the invariant factors that
`homology` memoises per complex, never from thresholding floats.

`lambda1_split` is the dense full-spectrum oracle.  `coexact_gap` finds only
lambda_1^* and, above _DENSE_MAX cells, never forms a dense matrix: in degree
dim - 1 it solves the dual pencil on (q+1)-cochains through one factored
saddle-point matrix (the mixed form of Arnold, Falk and Winther, Acta
Numerica 2006), in degree 0 the shifted up-pencil itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .complexes import ComplexError, SimplicialComplex, SparseIntMatrix
from .homology import boundary_factors
from .ratlinalg import _rref, echelon, sparse_rows
from .whitney import InnerProduct


_DENSE_MAX = 400     # coexact_gap takes the dense path up to this many q-cells


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
    """d_q: C^q -> C^{q+1} as a float scipy CSR array."""
    from scipy.sparse import csr_array
    face, cell, sign = np.array(K.boundary_matrix(q + 1).entries).T
    return csr_array((sign.astype(float), (cell, face)),
                     shape=(K.n_cells(q + 1), K.n_cells(q)))


def _stiffness(d, M_up):
    """d^T M_up d as a scipy CSR array, symmetrized while still sparse."""
    A = d.T @ M_up @ d
    return (A + A.T) / 2


def up_pencil(K: SimplicialComplex, q: int, ip_q: InnerProduct,
              ip_up: InnerProduct) -> tuple:
    """(A, M) with A = d^T M_{q+1} d the up-Laplacian stiffness on q-cochains,
    a dense ndarray, and M = M_q as a scipy CSR array.

    A is one sparse triple product, symmetrized while still sparse and made
    dense only at the end: O(nnz) work, and no dense temporaries beyond A.
    M comes from the product's blocks, so its dense view is never built."""
    n = K.n_cells(q)
    if q >= K.dim:
        return np.zeros((n, n)), ip_q._csr()
    return _stiffness(_coboundary(K, q), ip_up._csr()).toarray(), ip_q._csr()


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
    A, _ = up_pencil(K, q, ips[q], ips[q + 1])
    return eigh(A, ips[q].matrix, eigvals_only=True)[K.n_cells(q) - rank:]


def lambda1_split(K: SimplicialComplex, q: int,
                  inner_products: dict[int, InnerProduct]) -> SpectralSplit:
    """Eigenvalues of the degree-q Hodge Laplacian and its exact/coexact split.

    `inner_products` must supply degrees q-1, q, q+1 as applicable.  The
    spectrum is the exact kernel as zeros, the positive up-spectrum of degree
    q (coexact part) and that of degree q-1 (exact part)."""
    if not 0 <= q <= K.dim:
        raise ComplexError(f"degree {q} is out of range 0..{K.dim}")
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
    lambda1_split's value, from the same dense eigh.  Otherwise it is the
    (b+1)-th eigenvalue of a pencil whose zero block b is known exactly:
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
    if not 0 <= q <= K.dim:
        raise ComplexError(f"degree {q} is out of range 0..{K.dim}")
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
    d, M, M_up = _coboundary(K, q), ip_q._csr(), ip_up._csr()
    if side == q:
        A = _stiffness(d, M_up)
        solve = splu((A - sigma * M).tocsc(), permc_spec="COLAMD").solve
        B = M
    else:
        # K [x; y] = [0; r] gives (P - sigma M_up) y = -r; ARPACK's
        # shift-invert mode applies only this solve and M_up, never A
        Md = M_up @ d
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
        raise ComplexError(f"degree {q} is out of range 0..{K.dim - 1} for "
                           "an up-Laplacian")
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
