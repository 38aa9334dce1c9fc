"""Whitney-form mass matrices and the combinatorial / Whitney norm families.

On a flat n-simplex with barycentric coordinates l_0..l_n, the Whitney form
of a q-face sigma is W_sigma = q! sum_k (-1)^k l_{sigma_k} dl_{sigma - sigma_k}
(Arnold, Falk and Winther, "Finite element exterior calculus", Acta Numerica
2006), so W_sigma = sum X[sigma, (I, v)] l_v dl_I with a fixed table X of
+-q! entries.  With H the Gram of the barycentric gradients, the pointwise
product <l_v dl_I, l_w dl_J> is l_v l_w C[I, J], C[I, J] = det H[I, J] the
q-th compound of H, and the integral of l_v l_w is
E[v, w] = vol (1 + [v = w]) / ((n+1)(n+2)).  Hence the local mass matrix is
the one expression X (C kron E) X^T, and the pointwise norm of a cochain's
form at l is w^T C w with w = (x^T X reshaped to rows I) l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import NamedTuple

import numpy as np

from .complexes import SimplicialComplex
from .hypgeom import GeometryError, SimplexMetric

_DENSE_MAX = 400     # norm_equivalence_constants goes dense up to this size


@dataclass
class InnerProduct:
    """SPD Gram matrix on the q-cochain group."""

    degree: int
    matrix: np.ndarray
    _blocks = None      # (glob, B) of _mass_blocks when assembled from them

    def __post_init__(self):
        M = self.matrix
        if not np.isfinite(M).all():
            raise GeometryError("Gram matrix not finite")
        if M.size and np.max(np.abs(M - M.T)) > 1e-12 * max(1.0, np.max(np.abs(M))):
            raise GeometryError("Gram matrix not symmetric")
        self.matrix = (M + M.T) / 2
        if M.size:
            np.linalg.cholesky(self.matrix)  # raises if not positive definite

    @classmethod
    def _certified(cls, degree: int, matrix: np.ndarray, blocks=None):
        """Wrap a matrix already known to be symmetric positive definite,
        without the checks above."""
        ip = object.__new__(cls)
        ip.degree, ip.matrix, ip._blocks = degree, matrix, blocks
        return ip

    def _csr(self):
        """The matrix as a scipy CSR array, from its blocks if it has them."""
        from scipy.sparse import csr_array
        return csr_array(self.matrix) if self._blocks is None else \
            _block_csr(*self._blocks, len(self.matrix))

    @staticmethod
    def identity(degree: int, n: int) -> "InnerProduct":
        return InnerProduct._certified(degree, np.eye(n))

    def solve(self, c: np.ndarray) -> np.ndarray:
        from scipy.linalg import cho_factor, cho_solve
        return cho_solve(cho_factor(self.matrix), c)


@dataclass(frozen=True)
class NormSpec:
    family: str        # "comb" | "whitney"
    p: float           # 1, 2, or inf
    side: str = "cochain"  # "cochain" | "chain"

    def __post_init__(self):
        if self.family not in ("comb", "whitney"):
            raise ValueError(f"unknown norm family {self.family}")
        if self.p not in (1, 2, math.inf):
            raise ValueError("p must be 1, 2, or inf")
        if self.side not in ("cochain", "chain"):
            raise ValueError("side must be cochain or chain")


class ComplexGeometry:
    """Edge-length table for every edge of a complex, one flat metric per
    top simplex.  Per-top tables must agree on shared edges to 1e-9."""

    def __init__(self, K: SimplicialComplex, edge_lengths: dict):
        self.K = K
        self.edge_lengths: dict[tuple[int, int], float] = {}
        for (u, v), l in edge_lengths.items():
            if u > v:
                u, v = v, u
            self.edge_lengths[(u, v)] = float(l)
        for e in K.cells[1]:
            if e not in self.edge_lengths:
                raise GeometryError(f"no length for edge {e}")

    @staticmethod
    def uniform(K: SimplicialComplex, length: float = 1.0) -> "ComplexGeometry":
        return ComplexGeometry(K, {e: length for e in K.cells[1]})

    @staticmethod
    def from_per_top_tables(K: SimplicialComplex, tables: dict,
                            tol: float = 1e-9) -> "ComplexGeometry":
        merged: dict[tuple[int, int], float] = {}
        for top, table in tables.items():
            for (u, v), l in table.items():
                key = (min(u, v), max(u, v))
                if key in merged and abs(merged[key] - float(l)) > tol:
                    raise GeometryError(
                        f"edge {key} has inconsistent lengths across shared faces")
                merged[key] = float(l)
        return ComplexGeometry(K, merged)

    def top_metric(self, top_cell: tuple[int, ...]) -> SimplexMetric:
        table = {}
        for a, b in combinations(range(len(top_cell)), 2):
            table[(a, b)] = self.edge_lengths[(top_cell[a], top_cell[b])]
        return SimplexMetric.from_dict(len(top_cell), table)

    def total_volume(self) -> float:
        from .hypgeom import simplex_volume
        return sum(simplex_volume(self.top_metric(t))
                   for t in self.K.cells[self.K.dim])


class _Tops(NamedTuple):
    """Every top simplex of a complex at once, for one form degree q."""

    glob: np.ndarray    # (T, m) global indices of the local q-faces sigma
    X: np.ndarray       # (m, s (n+1)) W_sigma in the products l_v dl_I
    C: np.ndarray       # (T, s, s) q-th compounds of the gradient Grams
    vol: np.ndarray     # (T,) volumes


def _gradient_grams(G: np.ndarray) -> np.ndarray:
    """(T, n+1, n+1) Grams of barycentric gradients from the (T, n, n)
    edge-vector Grams."""
    T, n, _ = G.shape
    Ginv = np.linalg.inv(G)
    H = np.empty((T, n + 1, n + 1))
    H[:, 1:, 1:] = Ginv
    H[:, 0, 1:] = -Ginv.sum(axis=1)
    H[:, 1:, 0] = -Ginv.sum(axis=2)
    H[:, 0, 0] = Ginv.sum(axis=(1, 2))
    return H


def _whitney_tops(K: SimplicialComplex, geometry: ComplexGeometry,
                  q: int) -> _Tops:
    """Stacked Whitney data of every top simplex of K in degree q.

    Row sigma of X holds W_sigma in the products l_v dl_I (columns (I, v), I a
    q-subset of the local vertices), C[t, I, J] = det H_t[I, J] with H_t the
    barycentric-gradient Gram of top t, built from the edge-vector Gram G_t
    of the law of cosines.  Raises GeometryError unless every edge length is
    positive and every G_t is finite, of finite determinant and nondegenerate
    by simplex_gram's test."""
    if not 0 <= q <= K.dim:
        raise GeometryError(f"degree {q} out of range")
    n = K.dim
    tops = K._rows(n)
    pairs = np.array(list(combinations(range(n + 1), 2)))
    lengths = np.array([geometry.edge_lengths[e] for e in K.cells[1]])
    edges = K._index(1, tops[:, pairs])
    L = lengths[edges]
    bad = ~(L > 0)
    if bad.any():
        t, p = np.argwhere(bad)[0]
        raise GeometryError(f"edge {K.cells[1][edges[t, p]]} has "
                            f"length {L[t, p]}; lengths must be positive")
    L2 = np.zeros((len(tops), n + 1, n + 1))
    with np.errstate(over="ignore", invalid="ignore"):    # tested below
        L2[:, pairs[:, 0], pairs[:, 1]] = L2[:, pairs[:, 1], pairs[:, 0]] = \
            L ** 2
        a = L2[:, 0, 1:]
        G = (a[:, :, None] + a[:, None, :] - L2[:, 1:, 1:]) / 2
        det = np.linalg.det(G)
    huge = ~(np.isfinite(G).all(axis=(1, 2)) & np.isfinite(det))
    if huge.any():
        raise GeometryError(
            f"edge-vector Gram of top cell {K.cells[n][np.argmax(huge)]} "
            "is not finite: its entries or determinant overflow")
    eigs = np.linalg.eigvalsh(G)
    flat = eigs[:, 0] <= 1e-12 * np.maximum(1.0, eigs[:, -1])
    if flat.any():
        raise GeometryError(
            f"edge lengths of top cell {K.cells[n][np.argmax(flat)]} do not "
            "embed as a nondegenerate simplex")
    H = _gradient_grams(G)
    faces = list(combinations(range(n + 1), q + 1))
    subsets = list(combinations(range(n + 1), q))
    X = np.zeros((len(faces), len(subsets), n + 1))
    for a, f in enumerate(faces):
        for k, v in enumerate(f):
            X[a, subsets.index(f[:k] + f[k + 1:]), v] = \
                (-1) ** k * math.factorial(q)
    S = np.array(subsets, dtype=int).reshape(len(subsets), q)
    C = np.linalg.det(H[:, S[:, None, :, None], S[None, :, None, :]])
    vol = np.sqrt(det) / math.factorial(n)
    glob = K._index(q, tops[:, faces])
    return _Tops(glob, X.reshape(len(faces), -1), C, vol)


def _mass_blocks(K: SimplicialComplex, geometry: ComplexGeometry,
                 q: int) -> tuple[np.ndarray, np.ndarray]:
    """(glob, B): the local mass matrices B[t] = X (C_t kron E_t) X^T of every
    top, symmetrized, E_t[v, w] the integral of l_v l_w over top t.

    They certify the assembled matrix: a sum of positive definite blocks is
    positive definite once every q-cell lies in some block.  A block that is
    not positive definite, or a q-cell in no top, raises LinAlgError."""
    tops = _whitney_tops(K, geometry, q)
    n = K.dim
    E = tops.vol[:, None, None] * (1 + np.eye(n + 1)) / ((n + 1) * (n + 2))
    T, s, _ = tops.C.shape
    CE = np.einsum("tij,tvw->tivjw", tops.C, E).reshape(
        T, s * (n + 1), s * (n + 1))
    B = tops.X @ CE @ tops.X.T
    B = (B + B.transpose(0, 2, 1)) / 2
    np.linalg.cholesky(B)
    covered = np.zeros(K.n_cells(q), dtype=bool)
    covered[tops.glob] = True
    if not covered.all():
        raise np.linalg.LinAlgError(
            f"{q}-cell {K.cells[q][np.argmin(covered)]} lies in no top cell, "
            "so the mass matrix is singular")
    return tops.glob, B


def _assemble(glob: np.ndarray, B: np.ndarray, size: int) -> np.ndarray:
    """The dense sum of the blocks B[t] placed at rows and columns glob[t]."""
    M = np.zeros((size, size))
    np.add.at(M, (glob[:, :, None], glob[:, None, :]), B)
    return M


def _block_csr(glob: np.ndarray, B: np.ndarray, size: int):
    """The same sum as a scipy CSR array: COO triplets, duplicates summed."""
    from scipy.sparse import csr_array
    ij = np.broadcast_arrays(glob[:, :, None], glob[:, None, :])
    return csr_array((B.ravel(), [a.ravel() for a in ij]), shape=(size, size))


def whitney_mass_matrix(K: SimplicialComplex, geometry: ComplexGeometry,
                        q: int) -> InnerProduct:
    """Assemble the global Whitney q-form Gram matrix over all top simplices:
    each top adds X (C kron E) X^T, E[v, w] the integral of l_v l_w."""
    blocks = _mass_blocks(K, geometry, q)
    return InnerProduct._certified(q, _assemble(*blocks, K.n_cells(q)), blocks)


def whitney_pointwise_norm(K: SimplicialComplex, geometry: ComplexGeometry,
                           q: int, x: np.ndarray,
                           grid_denominator: int = 4) -> float:
    """Lower estimate of the sup-norm of the Whitney form of cochain x,
    sampling barycentric points with the given denominator on each top cell:
    at l the form is sum_I w_I dl_I with w = Y l, Y the (I, v) matrix of
    x^T X, and its squared norm is w^T C w."""
    x = np.asarray(x, dtype=float)
    grid = np.array(list(_barycentric_grid(K.dim + 1, grid_denominator)))
    tops = _whitney_tops(K, geometry, q)
    T, s, _ = tops.C.shape
    Y = (x[tops.glob] @ tops.X).reshape(T, s, -1)
    W = grid @ Y.transpose(0, 2, 1)
    sq = np.einsum("tpi,tij,tpj->tp", W, tops.C, W)
    return math.sqrt(max(sq.max(), 0.0))


def _barycentric_grid(n_coords: int, denom: int):
    for c in product(range(denom + 1), repeat=n_coords - 1):
        if sum(c) <= denom:
            rest = denom - sum(c)
            yield tuple(v / denom for v in c) + (rest / denom,)


def cochain_norm(x, spec: NormSpec, ip: InnerProduct | None = None,
                 sampler=None) -> float:
    """Norm of a cochain vector under the requested norm family."""
    x = np.asarray(x, dtype=float)
    if spec.side != "cochain":
        raise ValueError("use chain_dual_norm for chain-side norms")
    if spec.family == "comb":
        if spec.p == math.inf:
            return float(np.max(np.abs(x))) if x.size else 0.0
        return float(np.sum(np.abs(x) ** spec.p) ** (1 / spec.p))
    if spec.p == 2:
        if ip is None:
            raise ValueError("whitney-2 norm needs an InnerProduct")
        return float(math.sqrt(max(x @ ip.matrix @ x, 0.0)))
    if spec.p == math.inf:
        if sampler is None:
            raise ValueError("whitney-inf norm needs a (K, geometry, q) sampler")
        K, geometry, q = sampler
        return whitney_pointwise_norm(K, geometry, q, x)
    raise ValueError("whitney-1 cochain norm not provided")


def chain_dual_norm(c, spec: NormSpec, ip: InnerProduct | None = None) -> float:
    """Dual norm on chains induced by the evaluation pairing."""
    c = np.asarray(c, dtype=float)
    if spec.family == "comb":
        # dual of the comb-p cochain norm is the entrywise p' norm
        if spec.p == math.inf:
            return float(np.sum(np.abs(c)))
        if spec.p == 1:
            return float(np.max(np.abs(c))) if c.size else 0.0
        return float(np.linalg.norm(c))
    if spec.p != 2:
        raise ValueError("whitney chain norms provided for p = 2 only")
    if ip is None:
        raise ValueError("whitney-2 dual norm needs an InnerProduct")
    return float(math.sqrt(max(c @ ip.solve(c), 0.0)))


def norm_equivalence_constants(K: SimplicialComplex, geometry: ComplexGeometry,
                               q: int) -> tuple[float, float]:
    """(c_min, c_max) with c_min <= |x|_whitney2 / |x|_comb2 <= c_max for all x:
    the square roots of the extreme eigenvalues of the mass matrix M, by dense
    eigvalsh up to _DENSE_MAX rows (no scipy; on one BLAS thread ARPACK costs
    as much near 400 rows), else by Lanczos on M assembled sparse.  Its bottom,
    a tight cluster on covers, is shift-inverted (Ericsson and Ruhe 1980) at
    sigma = (1 - 2^-8) min_e sum_{t ∋ e} lambda_min(B_t) < lambda_min, as M
    dominates that diagonal (Wathen 1987); its top, of multiplicity about n/3
    on unit lengths, is not.  Start and restart vectors are seeded."""
    glob, B = _mass_blocks(K, geometry, q)
    n = K.n_cells(q)
    if n <= _DENSE_MAX:
        eigs = np.linalg.eigvalsh(_assemble(glob, B, n))
        return math.sqrt(max(eigs[0], 0.0)), math.sqrt(eigs[-1])
    from scipy.sparse import eye_array
    from scipy.sparse.linalg import LinearOperator, eigsh, splu
    M = _block_csr(glob, B, n)
    sigma = (1 - 2 ** -8) * np.bincount(glob.ravel(), np.repeat(
        np.linalg.eigvalsh(B)[:, 0], glob.shape[1]), n).min()
    lu = splu((M - sigma * eye_array(n)).tocsc(), permc_spec="MMD_AT_PLUS_A")
    rng = np.random.default_rng(0)     # also any restart vectors
    lo, hi = (eigsh(M, k=1, tol=0, v0=rng.standard_normal(n), rng=rng,
                    return_eigenvectors=False, **how)[0] for how in (
        dict(sigma=sigma, which="LM", OPinv=LinearOperator((n, n), lu.solve)),
        dict(which="LA")))
    return math.sqrt(lo), math.sqrt(hi)
