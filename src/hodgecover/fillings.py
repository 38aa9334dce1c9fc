"""Rational fillings of edge cycles and the resulting complexity bounds.

A certified filling is a rational 2-chain g with boundary exactly a given
1-cycle f, with small norm relative to the coexact spectral gap.  Clearing
denominators gives an integral chain m*g whose 1-norm bounds the Euler
characteristic of a simplicial surface bounding m*f, since a triangulated
surface has 3F >= V and 3F >= E.  Every exact vector here is integers over
one positive denominator, (nums, den); only a public result holds Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import mul

import numpy as np

from .complexes import SimplicialComplex, _integer
from .covers import Cover
from .ratlinalg import _fractions, _solve_and_kernel, first_kernel_vector
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

    def length(self, geometry: ComplexGeometry) -> float:
        """Riemannian length: each |coefficient| times its edge's length."""
        return sum(abs(c) * geometry.edge_lengths[e]
                   for c, e in zip(self.coefficients, self.complex.cells[1]))

    @cached_property
    def solution_space(self) -> tuple:
        """(g0, N): an exact solution g0 of d2 g = f (None when f does not
        bound over the rationals) and a basis N of ker d2, each vector as
        integers over one positive denominator, (nums, den), from one
        elimination of [d2 | f] kept on this cycle; the complex needs 2-cells.
        """
        return _solve_and_kernel(self.complex.boundary_matrix(2),
                                 list(self.coefficients))


def cycle_from_word(cover: Cover, word) -> EdgeCycle:
    """Closed edge path in a cover's 1-skeleton tracing a tile-adjacency word
    from sheet 0.

    Each letter crosses one facet of the tiling; the path visits one gate
    vertex per crossing, the lift of the facet's smallest vertex, and joins
    consecutive gates by a single edge of the tile they share.  The word must
    return to its starting tile and sheet; otherwise the open endpoints are
    reported.  A letter that is not a pair of top cells of the base, or no
    adjacency of the dual graph, raises FillingError.
    """
    K, base = cover.complex, cover.spec.base
    T = base.n_cells(base.dim)
    for w in word:
        if not (isinstance(w, (list, tuple)) and len(w) == 2 and all(
                isinstance(x, (int, np.integer)) and not isinstance(x, bool)
                and 0 <= x < T for x in w)):
            raise FillingError(f"word letter {w!r} is not a pair of top cells "
                               f"in 0..{T - 1}")
    word = [tuple(w) for w in word]
    if not word:
        return EdgeCycle(K, (0,) * K.n_cells(1))
    for (a, b), (c, _d) in zip(word, word[1:]):
        if b != c:
            raise FillingError(f"word letters ({a},{b}) and ({c},{_d}) do not compose")
    if word[-1][1] != word[0][0]:
        raise FillingError(
            f"open path: word starts at top cell {word[0][0]} "
            f"and ends at top cell {word[-1][1]}")
    gates, s = [], 0
    for (a, b) in word:
        if (a, b) not in cover.spec.adjacencies:
            raise FillingError(f"word letter ({a},{b}) is not a dual-graph "
                               "adjacency")
        vi = base.cell_index[0][(min(cover.spec.adjacencies[(a, b)]),)]
        gates.append(K.cells[0][cover.lift_cell(0, vi, a, s)][0])
        s = cover.spec.perms[(a, b)][s]
    if s != 0:
        raise FillingError(f"open path: sheet action sends sheet 0 to sheet "
                           f"{s}")
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
    if K.dim < 2:           # only 0 bounds; y picks f's first nonzero entry
        i = next((i for i, c in enumerate(b) if c != 0), None)
        return (True, []) if i is None else \
            (False, _fractions(([int(i == j) for j in range(len(b))], 1)))
    g0, _ = f.solution_space
    if g0 is not None:
        return True, _fractions(g0)
    # certificate: functional vanishing on the image of the 2-boundary
    y = first_kernel_vector(K.boundary_matrix(2).transpose(), b)
    if y is None:
        raise FillingError("no certificate found for a non-null cycle")
    return False, y


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


def _certify(f: EdgeCycle, g: tuple[list[int], int], inner: str,
             delta: float, norm_g: float) -> FillingCertificate:
    """The certificate of the chain g = nums / den: m = den / gcd(den, nums)
    clears its denominators."""
    nums, den = g
    s = math.gcd(den, *nums)
    mg = [a // s for a in nums]
    # d2 g = f exactly, checked in integers on the chain m g
    if f.complex.boundary_matrix(2).apply(mg) != \
            [den // s * c for c in f.coefficients]:
        raise FillingError("chain does not bound the cycle exactly")
    one_norm = Fraction(sum(map(abs, mg)))
    return FillingCertificate(f, tuple(_fractions(g)), den // s, one_norm,
                              4 * one_norm, inner, delta, norm_g)


def _particular_and_kernel(f: EdgeCycle) -> tuple:
    """f's memoised solution space (g0, N); g0 must exist."""
    if f.solution_space[0] is None:
        raise FillingError("cycle is not rationally null")
    return f.solution_space


def _floats(v: tuple[list[int], int]) -> np.ndarray:
    """nums / den, each correctly rounded, as float(Fraction) rounds it."""
    return np.array([a / v[1] for a in v[0]], dtype=float)


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


def _mass_norm(ip: InnerProduct, x: np.ndarray) -> float:
    return math.sqrt(max(x @ ip.apply(x), 0.0))


def _combination(g0, kernel, r, denom: int) -> tuple[list[int], int]:
    """g0 + sum_k (r_k / denom) kernel[k] for integers r_k, as integers over
    one lcm of g0's denominator and denom times each kernel vector's."""
    nums, d0 = g0
    den = math.lcm(d0, *(denom * e for _, e in kernel))
    g = [a * (den // d0) for a in nums]
    for rk, (v, e) in zip(r, kernel):
        if w := rk * (den // (denom * e)):
            g = [a + w * x for a, x in zip(g, v)]
    return g, den


def least_norm_filling(f: EdgeCycle, inner: str,
                       ip: InnerProduct | None = None) -> FillingCertificate:
    """Small-norm rational 2-chain g with boundary g = f, certified exactly.

    Both read f's solution space: the solutions are g0 + N c, g0 exact and N
    an exact basis of ker d2.  Combinatorial inner product: the Euclidean
    minimizer, c from the exact k x k system (N^T N) c = -N^T g0 (k = dim ker
    d2) with integer Gram and right side, so no slack is needed.  Whitney
    inner product: c minimizes the mass norm in floats, (N^T M N) c =
    -N^T M g0, and is rounded to rationals at each of _DENOMINATORS in turn
    until the norm grows by at most _SLACK; ip must be a product on the
    2-cells of f's complex, else FillingError.  g is rebuilt over one lcm.
    """
    if f.complex.dim < 2:
        raise FillingError("filling needs 2-cells")
    if inner not in ("comb", "whitney"):
        raise FillingError(f"unknown inner product family {inner}")
    if inner == "whitney" and (ip is None
                               or ip.size != f.complex.n_cells(2)):
        raise FillingError("whitney filling needs the degree-2 InnerProduct, "
                           f"of {f.complex.n_cells(2)} rows")
    g0, kernel = _particular_and_kernel(f)

    if inner == "comb":
        g = g0
        if kernel:
            # (V^T V) y = -V^T a, V N's integer directions and a = d0 g0
            (a, d0), V = g0, [v for v, _ in kernel]
            y, den = _solve_and_kernel([[_dot(u, v) for v in V] for u in V],
                                       [-_dot(u, a) for u in V])[0]
            g = _combination(g0, [(v, 1) for v in V], y, den * d0)
        norm_g = math.sqrt(_dot(g[0], g[0]) / g[1] ** 2)
        return _certify(f, g, "comb", 0.0, norm_g)

    g0f = _floats(g0)
    if not kernel:
        return _certify(f, g0, "whitney", 0.0, _mass_norm(ip, g0f))
    # the M-least-norm g0 + N c: (N^T M N) c = -N^T M g0, k x k and SPD
    N = np.array([_floats(v) for v in kernel]).T
    MN = ip.apply(N)
    c = np.linalg.solve(N.T @ MN, -(MN.T @ g0f))
    norm_float = _mass_norm(ip, g0f + N @ c)
    for denom in _DENOMINATORS:
        g = _combination(g0, kernel, [round(x * denom) for x in c], denom)
        norm_g = _mass_norm(ip, _floats(g))
        if norm_g <= (1.0 + _SLACK) * norm_float or norm_float == 0.0:
            return _certify(f, g, "whitney", _SLACK, norm_g)
    raise FillingError(
        "rounded filling exceeds the allowed norm slack at every denominator")


def _weighted_median(a: list[int], v: list[int]) -> tuple[int, int]:
    """(p, L): the least c = p / L minimizing |a + c v|_1 = sum_i |v_i|
    |c + a_i / v_i| + const, exactly: the lower median of the points
    -a_i / v_i (v_i != 0) with weights |v_i| (Bloomfield and Steiger, Least
    Absolute Deviations, 1983), sorted as the integer keys -a_i (L / v_i),
    L = lcm |v_i|.  At exactly half the weight every c up to the next point
    is a minimizer too."""
    L = math.lcm(*(x for x in v if x))
    keys, weights = zip(*sorted((-x * (L // y), abs(y))
                                for x, y in zip(a, v) if y))
    total = sum(weights)
    return next(p for p, seen in zip(keys, accumulate(weights))
                if 2 * seen >= total), L


def l1_filling(f: EdgeCycle) -> FillingCertificate:
    """1-norm minimizing rational filling g0 + N c.

    Often gives tighter chi bounds than the least-squares route.  With one
    kernel vector (k = dim ker d2 = 1, as on every closed connected oriented
    surface and its covers) the optimal c is the exact weighted median of
    _weighted_median on integer keys, no LP; for k >= 2 from a linear program
    (HiGHS), whose constraint matrix is sparse: 2 (nnz N + n2) entries.
    Either c is rounded to multiples of 10^-6 and g rebuilt exactly from the
    particular solution g0, so g bounds f exactly.
    """
    if f.complex.dim < 2:
        raise FillingError("filling needs 2-cells")
    g0, kernel = _particular_and_kernel(f)
    if not kernel:
        return _certify(f, g0, "l1", 0.0, float(np.sum(np.abs(_floats(g0)))))
    if len(kernel) == 1:
        # |g0 + c v / e|_1 = |a + c' v|_1 / d0 with a = d0 g0, c' = c d0 / e
        (a, d0), [(v, e)] = g0, kernel
        p, L = _weighted_median(a, v)
        # round(c 10^6) exactly, ties to even, as round(Fraction) rounds
        n, rest = divmod(p * e * 10 ** 6, L * d0)
        r = [n + (2 * rest > L * d0 or 2 * rest == L * d0 and n % 2)]
    else:
        r = [round(x * 10 ** 6) for x in _l1_coefficients(g0, kernel)]
    g = _combination(g0, kernel, r, 10 ** 6)
    return _certify(f, g, "l1", 0.0, sum(abs(a / g[1]) for a in g[0]))


def _l1_coefficients(g0, kernel) -> np.ndarray:
    """The float c minimizing |g0 + N c|_1, by HiGHS: variables (c, t),
    t >= +-(g0 + N c), A_ub = [[N, -I], [-N, -I]].  The LP is homogeneous in
    (g0, c, t), so it is solved for g0 / 2^e with 2^e >= max |g0|, which
    keeps b_ub within the solver's range, and c is scaled back exactly."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_array
    (a, d0), n2, k = g0, len(g0[0]), len(kernel)
    N = np.array([_floats(v) for v in kernel]).T
    scale = 2 ** max(-(-max(map(abs, a)) // d0) - 1, 0).bit_length()
    g0f = _floats((a, d0 * scale))
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
    return res.x[:k] * scale


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
