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

import numpy as np

from .complexes import SimplicialComplex
from .hypgeom import GeometryError, SimplexMetric, simplex_gram


@dataclass
class InnerProduct:
    """SPD Gram matrix on the q-cochain group."""

    degree: int
    matrix: np.ndarray

    def __post_init__(self):
        M = self.matrix
        if M.size and np.max(np.abs(M - M.T)) > 1e-12 * max(1.0, np.max(np.abs(M))):
            raise GeometryError("Gram matrix not symmetric")
        self.matrix = (M + M.T) / 2
        if M.size:
            np.linalg.cholesky(self.matrix)  # raises if not positive definite

    @staticmethod
    def identity(degree: int, n: int) -> "InnerProduct":
        return InnerProduct(degree, np.eye(n))

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


def _gradient_gram(G: np.ndarray) -> np.ndarray:
    """(n+1)x(n+1) Gram of barycentric gradients from the edge-vector Gram."""
    n = G.shape[0]
    Ginv = np.linalg.inv(G)
    H = np.zeros((n + 1, n + 1))
    H[1:, 1:] = Ginv
    H[0, 1:] = -Ginv.sum(axis=0)
    H[1:, 0] = -Ginv.sum(axis=1)
    H[0, 0] = Ginv.sum()
    return H


def _whitney_tops(K: SimplicialComplex, geometry: ComplexGeometry, q: int):
    """Yield (glob, X, C, G) for each top simplex of K.

    glob lists the global indices of its local q-faces sigma, and row sigma
    of X holds W_sigma in the products l_v dl_I (columns (I, v), I a q-subset
    of the local vertices).  C[I, J] = det H[I, J] is the q-th compound of the
    barycentric-gradient Gram H, and G is the edge-vector Gram."""
    n = K.dim
    faces = list(combinations(range(n + 1), q + 1))
    subsets = list(combinations(range(n + 1), q))
    X = np.zeros((len(faces), len(subsets), n + 1))
    for a, f in enumerate(faces):
        for k, v in enumerate(f):
            X[a, subsets.index(f[:k] + f[k + 1:]), v] = \
                (-1) ** k * math.factorial(q)
    X = X.reshape(len(faces), -1)
    S = np.array(subsets, dtype=int).reshape(len(subsets), q)
    for top in K.cells[n]:
        G = simplex_gram(geometry.top_metric(top))
        H = _gradient_gram(G)
        C = np.linalg.det(H[S[:, None, :, None], S[None, :, None, :]])
        glob = [K.cell_index[q][tuple(top[i] for i in f)] for f in faces]
        yield glob, X, C, G


def whitney_mass_matrix(K: SimplicialComplex, geometry: ComplexGeometry,
                        q: int) -> InnerProduct:
    """Assemble the global Whitney q-form Gram matrix over all top simplices:
    each top adds X (C kron E) X^T, E[v, w] the integral of l_v l_w."""
    if not 0 <= q <= K.dim:
        raise GeometryError(f"degree {q} out of range")
    n = K.dim
    nq = K.n_cells(q)
    M = np.zeros((nq, nq))
    for glob, X, C, G in _whitney_tops(K, geometry, q):
        vol = math.sqrt(np.linalg.det(G)) / math.factorial(n)
        E = vol * (1 + np.eye(n + 1)) / ((n + 1) * (n + 2))
        M[np.ix_(glob, glob)] += X @ np.kron(C, E) @ X.T
    return InnerProduct(q, M)


def whitney_pointwise_norm(K: SimplicialComplex, geometry: ComplexGeometry,
                           q: int, x: np.ndarray,
                           grid_denominator: int = 4) -> float:
    """Lower estimate of the sup-norm of the Whitney form of cochain x,
    sampling barycentric points with the given denominator on each top cell:
    at l the form is sum_I w_I dl_I with w = Y l, Y the (I, v) matrix of
    x^T X, and its squared norm is w^T C w."""
    x = np.asarray(x, dtype=float)
    grid = np.array(list(_barycentric_grid(K.dim + 1, grid_denominator)))
    best = 0.0
    for glob, X, C, _ in _whitney_tops(K, geometry, q):
        W = grid @ (x[glob] @ X).reshape(len(C), -1).T
        sq = np.einsum("pi,ij,pj->p", W, C, W)
        best = max(best, math.sqrt(max(sq.max(), 0.0)))
    return best


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
    """(c_min, c_max) with c_min <= |x|_whitney2 / |x|_comb2 <= c_max for all x."""
    from scipy.linalg import eigh
    ip = whitney_mass_matrix(K, geometry, q)
    eigs = eigh(ip.matrix, eigvals_only=True)
    return math.sqrt(max(eigs[0], 0.0)), math.sqrt(eigs[-1])
