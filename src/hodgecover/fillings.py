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
from functools import cached_property

import numpy as np

from .complexes import SimplicialComplex, _integer
from .covers import Cover, CoverError
from .homology import invariant_factors
from .ratlinalg import first_kernel_vector, rat_solve, rat_solve_and_kernel
from .whitney import ComplexGeometry, InnerProduct

_SLACK = 1e-6                         # Whitney rounding: allowed norm increase
_DENOMINATORS = (10 ** 6, 10 ** 9)    # tried in turn to round the Whitney c


class FillingError(ValueError):
    pass


@dataclass(frozen=True)
class EdgeCycle:
    """Integer 1-chain with exactly zero boundary.  The coefficients, a list
    or tuple with one entry per edge, are integers that are not bools, or
    floats of integral value, kept as a tuple of ints; anything else raises
    FillingError."""

    complex: SimplicialComplex
    coefficients: tuple[int, ...]

    def __post_init__(self):
        K = self.complex
        if not isinstance(self.coefficients, (list, tuple)):
            raise FillingError("cycle coefficients must be a list")
        coefficients = tuple(_integer(c, "cycle coefficient", FillingError)
                             for c in self.coefficients)
        object.__setattr__(self, "coefficients", coefficients)
        if len(coefficients) != K.n_cells(1):
            raise FillingError(f"cycle has {len(coefficients)} coefficients, "
                               f"complex has {K.n_cells(1)} edges")
        if any(K.boundary_matrix(1).apply(coefficients)):
            raise FillingError("chain has nonzero boundary")

    def length(self, geometry: ComplexGeometry | None = None) -> float:
        """Riemannian length when edge lengths are present, else edge count."""
        if geometry is None:
            return float(sum(abs(c) for c in self.coefficients))
        return sum(abs(c) * geometry.edge_lengths[e]
                   for c, e in zip(self.coefficients, self.complex.cells[1]))

    @cached_property
    def solution_space(self) -> tuple[list[Fraction] | None,
                                      list[list[Fraction]]]:
        """(g0, N): an exact solution g0 of d2 g = f (None when f does not
        bound over the rationals) and a basis N of ker d2, from one
        elimination of [d2 | f] kept on this cycle; the complex needs 2-cells.
        """
        return rat_solve_and_kernel(self.complex.boundary_matrix(2),
                                    list(self.coefficients))


def cycle_from_word(cover: Cover, word) -> EdgeCycle:
    """Closed edge path in a cover's 1-skeleton tracing a tile-adjacency word
    from sheet 0.

    Each letter crosses one facet of the tiling; the path visits one gate
    vertex per crossing, the lift of the facet's smallest vertex, and joins
    consecutive gates by a single edge of the tile they share.  The word must
    return to its starting tile and sheet; otherwise the open endpoints are
    reported.
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
    gates, s = [], 0
    for (a, b) in word:
        vi = base.cell_index[0][(min(cover.spec.adjacencies[(a, b)]),)]
        gates.append(K.cells[0][cover.lift_cell(0, vi, a, s)][0])
        s = cover.spec.perms[(a, b)][s]
    if s != 0:
        raise CoverError(f"open path: sheet action sends sheet 0 to sheet {s}")
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
    g0, _ = f.solution_space
    if g0 is not None:
        return True, list(g0)
    # certificate: functional vanishing on the image of the 2-boundary
    y = first_kernel_vector(K.boundary_matrix(2).transpose(), b)
    if y is None:
        raise FillingError("no certificate found for a non-null cycle")
    return False, y


def free_part_coefficients(A, b) -> list[int]:
    """Solve A n = b exactly; A must be integer with det = +-1, so the
    solution is unique and integral.  |det A| is the product of the
    invariant factors, so A is unimodular when they are n ones."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise FillingError("matrix must be square")
    factors = invariant_factors(A)
    if factors != [1] * n:
        d = math.prod(factors) if len(factors) == n else 0
        raise FillingError(f"basis pairing matrix has |determinant| {d}, "
                           "not 1")
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


def _certify(f: EdgeCycle, g: list[Fraction], inner: str, delta: float,
             norm_g: float) -> FillingCertificate:
    m = math.lcm(*(c.denominator for c in g))
    mg = [c.numerator * (m // c.denominator) for c in g]
    # d2 g = f exactly, checked in integers on the chain m g
    if f.complex.boundary_matrix(2).apply(mg) != \
            [m * c for c in f.coefficients]:
        raise FillingError("chain does not bound the cycle exactly")
    one_norm = Fraction(sum(abs(c) for c in mg))
    return FillingCertificate(f, tuple(g), m, one_norm, 4 * one_norm,
                              inner, delta, norm_g)


def _particular_and_kernel(f: EdgeCycle) -> tuple[list[Fraction], list]:
    """f's memoised solution space (g0, N); g0 must exist."""
    g0, kernel = f.solution_space
    if g0 is None:
        raise FillingError("cycle is not rationally null")
    return g0, kernel


def _dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v) if a and b), Fraction(0))


def _mass_norm(ip: InnerProduct, x: np.ndarray) -> float:
    return math.sqrt(max(x @ ip.apply(x), 0.0))


def _rounded_chain(g0, kernel, coeffs, denom: int) -> list[Fraction]:
    """g0 + sum_k c_k kernel[k], each c_k rounded to a multiple of 1/denom."""
    cr = [Fraction(round(c * denom), denom) for c in coeffs]
    return [g0[j] + sum(ck * v[j] for ck, v in zip(cr, kernel))
            for j in range(len(g0))]


def least_norm_filling(f: EdgeCycle, inner: str = "comb",
                       ip: InnerProduct | None = None) -> FillingCertificate:
    """Small-norm rational 2-chain g with boundary g = f, certified exactly.

    Both read f's solution space: the solutions are g0 + N c, g0 exact and N
    an exact basis of ker d2.  Combinatorial inner product: the Euclidean
    minimizer, c from the exact k x k system (N^T N) c = -N^T g0 (k = dim ker
    d2), so no slack is needed.  Whitney inner product: c minimizes the mass
    norm in floats, (N^T M N) c = -N^T M g0, and is rounded to rationals at
    each of _DENOMINATORS in turn until the norm grows by at most _SLACK.
    """
    if f.complex.dim < 2:
        raise FillingError("filling needs 2-cells")
    if inner not in ("comb", "whitney"):
        raise FillingError(f"unknown inner product family {inner}")
    if inner == "whitney" and ip is None:
        raise FillingError("whitney filling needs the degree-2 InnerProduct")
    g0, kernel = _particular_and_kernel(f)

    if inner == "comb":
        g = g0
        if kernel:
            c = rat_solve([[_dot(u, v) for v in kernel] for u in kernel],
                          [-_dot(u, g0) for u in kernel])
            g = [g0[j] + sum(ck * v[j] for ck, v in zip(c, kernel) if v[j])
                 for j in range(len(g0))]
        norm_g = math.sqrt(float(sum(c * c for c in g)))
        return _certify(f, g, "comb", 0.0, norm_g)

    g0f = np.array([float(c) for c in g0])
    if not kernel:
        return _certify(f, g0, "whitney", 0.0, _mass_norm(ip, g0f))
    # the M-least-norm g0 + N c: (N^T M N) c = -N^T M g0, k x k and SPD
    N = np.array([[float(x) for x in v] for v in kernel], dtype=float).T
    MN = ip.apply(N)
    c = np.linalg.solve(N.T @ MN, -(MN.T @ g0f))
    norm_float = _mass_norm(ip, g0f + N @ c)
    for denom in _DENOMINATORS:
        g = _rounded_chain(g0, kernel, c, denom)
        norm_g = _mass_norm(ip, np.array([float(x) for x in g]))
        if norm_g <= (1.0 + _SLACK) * norm_float or norm_float == 0.0:
            return _certify(f, g, "whitney", _SLACK, norm_g)
    raise FillingError(
        "rounded filling exceeds the allowed norm slack at every denominator")


def l1_filling(f: EdgeCycle) -> FillingCertificate:
    """1-norm minimizing rational filling via linear programming.

    Often gives tighter chi bounds than the least-squares route; the LP
    solution is rounded to multiples of 10^-6 and corrected back onto the
    affine solution set with an exact particular solution.  The constraint
    matrix is sparse: 2 (nnz N + n2) entries.
    """
    if f.complex.dim < 2:
        raise FillingError("filling needs 2-cells")
    g0, kernel = _particular_and_kernel(f)
    if not kernel:
        gf = np.array([float(c) for c in g0])
        return _certify(f, g0, "l1", 0.0, float(np.sum(np.abs(gf))))
    from scipy.optimize import linprog
    from scipy.sparse import csr_array
    # minimize |g0 + N c|_1 over c: variables (c, t), t >= +-(g0 + N c),
    # A_ub = [[N, -I], [-N, -I]].  The LP is homogeneous in (g0, c, t), so
    # it is solved for g0 / 2^e with 2^e >= max |g0|, which keeps b_ub within
    # the solver's range, and c is scaled back exactly.
    n2, k = len(g0), len(kernel)
    N = np.array([[float(x) for x in v] for v in kernel], dtype=float).T
    scale = 2 ** max(math.ceil(max(map(abs, g0))) - 1, 0).bit_length()
    g0f = np.array([float(x / scale) for x in g0])
    i, j = np.nonzero(N)
    cells = np.arange(n2)
    A_ub = csr_array((
        np.concatenate([N[i, j], -N[i, j], -np.ones(2 * n2)]),
        (np.concatenate([i, i + n2, cells, cells + n2]),
         np.concatenate([j, j, cells + k, cells + k]))),
        shape=(2 * n2, k + n2))
    b_ub = np.concatenate([-g0f, g0f])
    cost = np.concatenate([np.zeros(k), np.ones(n2)])
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * (k + n2),
                  method="highs")
    if not res.success:
        raise FillingError(f"linear program failed: {res.message}")
    g = _rounded_chain(g0, kernel, res.x[:k] * scale, 10 ** 6)
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
