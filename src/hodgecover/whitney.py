"""Whitney-form mass matrices and the combinatorial / Whitney norm families.

Local mass matrices are exact polynomials in the barycentric-gradient Gram
matrix: the pointwise inner product of two Whitney q-forms is a quadratic in
the barycentric coordinates, and integrals of barycentric monomials over a
flat simplex have closed form.
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


def _pointwise_kernel(H: np.ndarray, sigma: tuple[int, ...],
                      tau: tuple[int, ...]) -> np.ndarray:
    """Matrix P with <W_sigma, W_tau>(lambda) = (q!)^2 sum_kl P[k,l] l_sk l_tl."""
    q = len(sigma) - 1
    P = np.empty((q + 1, q + 1))
    for k in range(q + 1):
        rows = [v for i, v in enumerate(sigma) if i != k]
        for l in range(q + 1):
            cols = [v for i, v in enumerate(tau) if i != l]
            minor = H[np.ix_(rows, cols)]
            det = np.linalg.det(minor) if q > 0 else 1.0
            P[k, l] = (-1) ** (k + l) * det
    return P


def _local_mass(metric: SimplexMetric, q: int,
                local_faces: list[tuple[int, ...]]) -> np.ndarray:
    """Mass matrix of the Whitney q-forms of one flat top simplex."""
    n = metric.n_vertices - 1
    G = simplex_gram(metric)
    H = _gradient_gram(G)
    vol = math.sqrt(np.linalg.det(G)) / math.factorial(n)
    # integral of l_a * l_b over the simplex
    base = vol / ((n + 1) * (n + 2))
    fac = math.factorial(q) ** 2
    m = len(local_faces)
    M = np.empty((m, m))
    for a in range(m):
        for b in range(a, m):
            P = _pointwise_kernel(H, local_faces[a], local_faces[b])
            acc = 0.0
            for k, vk in enumerate(local_faces[a]):
                for l, vl in enumerate(local_faces[b]):
                    acc += P[k, l] * base * (2.0 if vk == vl else 1.0)
            M[a, b] = M[b, a] = fac * acc
    return M


def whitney_mass_matrix(K: SimplicialComplex, geometry: ComplexGeometry,
                        q: int) -> InnerProduct:
    """Assemble the global Whitney q-form Gram matrix over all top simplices."""
    if not 0 <= q <= K.dim:
        raise GeometryError(f"degree {q} out of range")
    nq = K.n_cells(q)
    M = np.zeros((nq, nq))
    for top in K.cells[K.dim]:
        metric = geometry.top_metric(top)
        local_faces = list(combinations(range(len(top)), q + 1))
        Mloc = _local_mass(metric, q, local_faces)
        glob = [K.cell_index[q][tuple(top[i] for i in f)] for f in local_faces]
        for a, ga in enumerate(glob):
            for b, gb in enumerate(glob):
                M[ga, gb] += Mloc[a, b]
    return InnerProduct(q, M)


def whitney_pointwise_norm(K: SimplicialComplex, geometry: ComplexGeometry,
                           q: int, x: np.ndarray,
                           grid_denominator: int = 4) -> float:
    """Lower estimate of the sup-norm of the Whitney form of cochain x,
    sampling barycentric points with the given denominator on each top cell."""
    x = np.asarray(x, dtype=float)
    best = 0.0
    for top in K.cells[K.dim]:
        n = len(top) - 1
        metric = geometry.top_metric(top)
        H = _gradient_gram(simplex_gram(metric))
        local_faces = list(combinations(range(len(top)), q + 1))
        coeffs = np.array([x[K.cell_index[q][tuple(top[i] for i in f)]]
                           for f in local_faces])
        kernels = [[_pointwise_kernel(H, fa, fb) for fb in local_faces]
                   for fa in local_faces]
        fac = math.factorial(q) ** 2
        for point in _barycentric_grid(n + 1, grid_denominator):
            acc = 0.0
            for a, fa in enumerate(local_faces):
                if coeffs[a] == 0:
                    continue
                for b, fb in enumerate(local_faces):
                    if coeffs[b] == 0:
                        continue
                    P = kernels[a][b]
                    s = 0.0
                    for k, vk in enumerate(fa):
                        for l, vl in enumerate(fb):
                            s += P[k, l] * point[vk] * point[vl]
                    acc += coeffs[a] * coeffs[b] * fac * s
            best = max(best, math.sqrt(max(acc, 0.0)))
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
