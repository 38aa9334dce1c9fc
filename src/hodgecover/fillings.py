"""Rational fillings of edge cycles and the resulting complexity bounds.

A certified filling is a rational 2-chain g with boundary exactly a given
1-cycle f, with small norm relative to the coexact spectral gap.  Clearing
denominators gives an integral chain m*g whose 1-norm bounds the Euler
characteristic of a simplicial surface bounding m*f, since a triangulated
surface has 3F >= V and 3F >= E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .complexes import SimplicialComplex
from .covers import Cover, CoverError
from .ratlinalg import (bareiss_det, rat_nullspace, rat_solve,
                        rat_solve_and_kernel)
from .whitney import ComplexGeometry, InnerProduct


class FillingError(ValueError):
    pass


@dataclass(frozen=True)
class EdgeCycle:
    """Integer 1-chain with exactly zero boundary."""

    complex: SimplicialComplex
    coefficients: tuple[int, ...]

    def __post_init__(self):
        K = self.complex
        if len(self.coefficients) != K.n_cells(1):
            raise FillingError("coefficient vector has wrong length")
        if any(K.boundary_matrix(1).apply(self.coefficients)):
            raise FillingError("chain has nonzero boundary")

    def length(self, geometry: ComplexGeometry | None = None) -> float:
        """Riemannian length when edge lengths are present, else edge count."""
        if geometry is None:
            return float(sum(abs(c) for c in self.coefficients))
        return sum(abs(c) * geometry.edge_lengths[e]
                   for c, e in zip(self.coefficients, self.complex.cells[1]))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def scale(self, k: int) -> "EdgeCycle":
        return EdgeCycle(self.complex, tuple(k * c for c in self.coefficients))


def cycle_from_word(cover: Cover, word, base_vertex: int | None = None,
                    sheet: int = 0) -> EdgeCycle:
    """Closed edge path in a cover's 1-skeleton tracing a tile-adjacency word.

    Each letter crosses one facet of the tiling; the path visits one gate
    vertex per crossing (the lift of `base_vertex` when it lies on the facet,
    else the smallest lifted vertex) and joins consecutive gates by a single
    edge of the tile they share.  The word must return to its starting tile
    and sheet; otherwise the open endpoints are reported.
    """
    K = cover.complex
    word = [tuple(w) for w in word]
    if not word:
        return EdgeCycle(K, (0,) * K.n_cells(1))
    base = cover.spec.base
    for (a, b), (c, _d) in zip(word, word[1:]):
        if b != c:
            raise FillingError(f"word letters ({a},{b}) and ({c},{_d}) do not compose")
    if word[-1][1] != word[0][0]:
        raise FillingError(
            f"open path: word starts at top cell {word[0][0]} "
            f"and ends at top cell {word[-1][1]}")
    s = sheet
    for lab in word:
        s = cover.spec.perms[lab][s]
    if s != sheet:
        raise CoverError(
            f"open path: sheet action sends sheet {sheet} to sheet {s}")

    gates = []
    s = sheet
    for (a, b) in word:
        facet = cover.spec.adjacencies[(a, b)]
        if base_vertex is not None and base_vertex in facet:
            v = base_vertex
        else:
            v = min(facet)
        vi = base.cell_index[0][(v,)]
        gates.append(K.cells[0][cover.lift_cell(0, vi, a, s)][0])
        s = cover.spec.perms[(a, b)][s]
    coeffs = [0] * K.n_cells(1)
    for u, v in zip(gates, gates[1:] + gates[:1]):
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        if e not in K.cell_index[1]:
            raise FillingError(f"gate vertices {u},{v} not joined by an edge")
        coeffs[K.cell_index[1][e]] += 1 if u < v else -1
    return EdgeCycle(K, tuple(coeffs))


def rationally_null(f: EdgeCycle):
    """(True, rational 2-chain x with boundary x = f) when f bounds over the
    rationals, else (False, certificate functional y with y.d2 = 0, <y,f> != 0)."""
    K = f.complex
    b = list(f.coefficients)
    if K.dim < 2:
        if not any(b):
            return True, []
        i = next(i for i, c in enumerate(b) if c != 0)
        y = [Fraction(int(i == j)) for j in range(len(b))]
        return False, y
    A = K.boundary_matrix(2)
    x = rat_solve(A, b)
    if x is not None:
        return True, x
    # certificate: functional vanishing on the image of the 2-boundary
    for y in rat_nullspace(A.transpose()):
        pairing = sum(yi * bi for yi, bi in zip(y, b))
        if pairing != 0:
            return False, y
    raise FillingError("no certificate found for a non-null cycle")


def free_part_coefficients(A, b) -> list[int]:
    """Solve A n = b exactly; A must be integer with det = +-1, so the
    solution is unique and integral."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise FillingError("matrix must be square")
    d = bareiss_det(A)
    if d not in (1, -1):
        raise FillingError(f"basis pairing matrix has determinant {d}, not +-1")
    return [int(x) for x in rat_solve(A, b)]


@dataclass
class FillingCertificate:
    f: EdgeCycle
    g: tuple[Fraction, ...]   # rational 2-chain with boundary g = f
    m: int                    # smallest integer with m*g integral
    one_norm: Fraction        # |m*g|_1
    chi_bound: Fraction       # 4 * one_norm
    inner: str                # "comb" | "whitney" | "l1"
    delta: float              # norm slack achieved vs the floating minimizer
    norm_g: float             # norm of g in the chosen inner product

    def integral_chain(self) -> list[int]:
        out = [c * self.m for c in self.g]
        if any(c.denominator != 1 for c in out):
            raise FillingError(f"m = {self.m} does not clear the denominators")
        return [int(c) for c in out]


def _certify(f: EdgeCycle, g: list[Fraction], inner: str, delta: float,
             norm_g: float) -> FillingCertificate:
    if f.complex.boundary_matrix(2).apply(g) != list(f.coefficients):
        raise FillingError("chain does not bound the cycle exactly")
    m = 1
    for c in g:
        m = m * c.denominator // math.gcd(m, c.denominator)
    one_norm = sum(abs(c) * m for c in g)
    return FillingCertificate(f, tuple(g), m, one_norm, 4 * one_norm,
                              inner, delta, norm_g)


def _particular_and_kernel(A, b) -> tuple[list[Fraction], list]:
    """An exact solution g0 of A g = b and a basis of the kernel of A."""
    g0, kernel = rat_solve_and_kernel(A, b)
    if g0 is None:
        raise FillingError("cycle is not rationally null")
    return g0, kernel


def _rounded_chain(g0, kernel, coeffs, denom: int) -> list[Fraction]:
    """g0 + sum_k c_k kernel[k], each c_k rounded to a multiple of 1/denom."""
    cr = [Fraction(round(c * denom), denom) for c in coeffs]
    return [g0[j] + sum(ck * v[j] for ck, v in zip(cr, kernel))
            for j in range(len(g0))]


def least_norm_filling(f: EdgeCycle, inner: str = "comb",
                       ip: InnerProduct | None = None,
                       delta: float = 1e-6,
                       denominators=(10 ** 6, 10 ** 9)) -> FillingCertificate:
    """Small-norm rational 2-chain g with boundary g = f, certified exactly.

    Combinatorial inner product: the Euclidean minimizer is g = d2^T y with
    (d2 d2^T) y = f; it is rational because the boundary map is integral, so
    no slack is needed.  Whitney inner product: the solutions are g0 + N c, g0
    exact and N an exact kernel basis; the minimizing c is rounded to rationals
    and the norm increase is verified against delta.
    """
    K = f.complex
    if K.dim < 2:
        raise FillingError("filling needs 2-cells")
    A = K.boundary_matrix(2)  # n1 x n2
    b = list(f.coefficients)

    if inner == "comb":
        At = A.transpose()
        y = rat_solve(A.matmul(At), b)
        if y is None:
            raise FillingError("cycle is not rationally null")
        g = At.apply(y)
        norm_g = math.sqrt(float(sum(c * c for c in g)))
        return _certify(f, g, "comb", 0.0, norm_g)

    if inner != "whitney":
        raise FillingError(f"unknown inner product family {inner}")
    if ip is None:
        raise FillingError("whitney filling needs the degree-2 InnerProduct")

    g0, kernel = _particular_and_kernel(A, b)
    M = ip.matrix
    g0f = np.array([float(c) for c in g0])
    if not kernel:
        return _certify(f, g0, "whitney", 0.0,
                        math.sqrt(max(g0f @ M @ g0f, 0.0)))
    # the M-least-norm g0 + N c: (N^T M N) c = -N^T M g0, k x k and SPD
    N = np.array([[float(x) for x in v] for v in kernel], dtype=float).T
    MN = M @ N
    c = np.linalg.solve(N.T @ MN, -(MN.T @ g0f))
    g_float = g0f + N @ c
    norm_float = math.sqrt(max(g_float @ M @ g_float, 0.0))
    for denom in denominators:
        g = _rounded_chain(g0, kernel, c, denom)
        gf = np.array([float(x) for x in g])
        norm_g = math.sqrt(max(gf @ M @ gf, 0.0))
        if norm_g <= (1.0 + delta) * norm_float or norm_float == 0.0:
            return _certify(f, g, "whitney", delta, norm_g)
    raise FillingError(
        "rounded filling exceeds the allowed norm slack at every denominator")


def l1_filling(f: EdgeCycle, denominator: int = 10 ** 6) -> FillingCertificate:
    """1-norm minimizing rational filling via linear programming.

    Often gives tighter chi bounds than the least-squares route; the LP
    solution is rounded to the given denominator and corrected back onto the
    affine solution set with an exact particular solution.
    """
    from scipy.optimize import linprog

    K = f.complex
    if K.dim < 2:
        raise FillingError("filling needs 2-cells")
    A = K.boundary_matrix(2)
    n2 = K.n_cells(2)
    b = list(f.coefficients)
    g0, kernel = _particular_and_kernel(A, b)
    if not kernel:
        gf = np.array([float(c) for c in g0])
        return _certify(f, g0, "l1", 0.0, float(np.sum(np.abs(gf))))
    # minimize |g0 + N c|_1 over c: variables (c, t), t >= +-(g0 + N c)
    N = np.array([[float(x) for x in v] for v in kernel], dtype=float).T
    k = N.shape[1]
    g0f = np.array([float(x) for x in g0])
    A_ub = np.block([[N, -np.eye(n2)], [-N, -np.eye(n2)]])
    b_ub = np.concatenate([-g0f, g0f])
    cost = np.concatenate([np.zeros(k), np.ones(n2)])
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * (k + n2),
                  method="highs")
    if not res.success:
        raise FillingError(f"linear program failed: {res.message}")
    g = _rounded_chain(g0, kernel, res.x[:k], denominator)
    norm_g = float(sum(abs(float(x)) for x in g))
    return _certify(f, g, "l1", 0.0, norm_g)


def scl_report(cert: FillingCertificate, geometry: ComplexGeometry,
               lambda1_dstar: float) -> dict:
    """Compare the squared normalized complexity of the certified filling
    against vol / lambda1 of the coexact gap; reports the empirical ratio
    instead of asserting an inequality with an unknown leading constant."""
    f = cert.f
    length = f.length(geometry)
    if length == 0:
        raise FillingError("cycle has zero length")
    if lambda1_dstar is None or lambda1_dstar <= 0:
        raise FillingError("coexact gap must be positive")
    vol = geometry.total_volume()
    lhs = (float(cert.chi_bound) / cert.m / length) ** 2
    rhs_core = vol / lambda1_dstar
    return {
        "chi_bound": str(cert.chi_bound),
        "m": cert.m,
        "length": length,
        "normalized_complexity": float(cert.chi_bound) / cert.m / length,
        "lhs": lhs,
        "volume": vol,
        "lambda1_dstar": lambda1_dstar,
        "rhs_core": rhs_core,
        "empirical_constant": lhs / rhs_core,
    }
