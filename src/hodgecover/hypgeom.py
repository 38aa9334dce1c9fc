"""Hyperbolic-space numerics and the explicit analytic constants.

Hyperboloid model only: points are (n+1)-vectors with Minkowski square -1
and positive time coordinate.  Ball volumes come from a recurrence; the
Sobolev and sup-norm iteration constants are evaluated from their closed
forms with a rigorous truncation tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# hyperboloid model


def minkowski_inner(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(-x[0] * y[0] + np.dot(x[1:], y[1:]))


class HypPoint:
    """Point on the upper hyperboloid sheet; normalized on construction."""

    def __init__(self, coordinates):
        x = np.asarray(coordinates, dtype=float)
        if not np.all(np.isfinite(x)):
            raise GeometryError("coordinates must be finite")
        if x[0] <= 0:
            raise GeometryError("time coordinate must be positive")
        q = minkowski_inner(x, x)
        if q >= 0:
            raise GeometryError("coordinates are not timelike")
        self.x = x / math.sqrt(-q)
        if abs(minkowski_inner(self.x, self.x) + 1.0) >= 1e-12:
            raise GeometryError("coordinates are too close to the light cone "
                                "to normalize")

    @staticmethod
    def basepoint(n: int) -> "HypPoint":
        x = np.zeros(n + 1)
        x[0] = 1.0
        return HypPoint(x)

    def exp(self, v, t: float) -> "HypPoint":
        """Geodesic from self with unit tangent v (Minkowski-orthogonal to x)."""
        v = np.asarray(v, dtype=float)
        nv = math.sqrt(minkowski_inner(v, v))
        v = v / nv
        return HypPoint(math.cosh(t) * self.x + math.sinh(t) * v)


def hyp_distance(x: HypPoint, y: HypPoint) -> float:
    # clamp against rounding: the inner product is <= -1 for points on the sheet
    ip = min(minkowski_inner(x.x, y.x), -1.0)
    return math.acosh(-ip)


def right_triangle_area(a: float, b: float) -> float:
    """Area of the hyperbolic right triangle with legs a and b.

    Equal to the angle defect; the half-angle form tan(area/2) =
    tanh(a/2) tanh(b/2) avoids cancellation for small triangles.
    """
    if a < 0 or b < 0:
        raise GeometryError("leg lengths must be nonnegative")
    return 2 * math.atan(math.tanh(a / 2) * math.tanh(b / 2))


def sphere_volume(n: int) -> float:
    """Riemannian volume of the round unit n-sphere."""
    return 2 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)


def ball_volume(n: int, r: float, K: float = 1.0) -> float:
    """Volume of a geodesic r-ball in the hyperbolic n-space of curvature -K:
    vol(S^{n-1}) J_{n-1}, J_k = int_0^r (sinh(s t) / s)^k dt with s = sqrt(K).
    For s r >= 1, J_k = (u^{k-1} cosh(s r) - (k-1) J_{k-2}) / (k K) with
    u = sinh(s r) / s, J_0 = r and J_1 = 2 sinh^2(s r / 2) / K, on R_k =
    J_k / u^{k-1}.  Below that the recurrence cancels, and Gauss-Legendre
    nodes give J_{n-1} instead.  Logarithms keep a large n finite, or 0.0."""
    if not (math.isfinite(r) and math.isfinite(K)):
        raise GeometryError("radius and curvature must be finite")
    if n < 2:
        raise GeometryError("dimension must be >= 2")
    if r < 0:
        raise GeometryError("radius must be >= 0")
    if K <= 0:
        raise GeometryError("curvature magnitude must be > 0")
    if r == 0:
        return 0.0
    m, x = n - 1, math.sqrt(K) * r
    try:
        if x < 1:       # n + 8 nodes are exact on the leading t^m part
            t, w = np.polynomial.legendre.leggauss(n + 8)
            f = np.sinh(x * (t + 1) / 2) / math.sqrt(K)
            log_j = m * math.log(f.max()) + math.log(
                r / 2 * float(w @ (f / f.max()) ** m))
        else:
            u, c = math.sinh(x) / math.sqrt(K), math.cosh(x)
            R = [r * u, 2 * math.sinh(x / 2) ** 2 / K]
            for k in range(2, n):
                R.append((c - (k - 1) * R[k - 2] / u / u) / (k * K))
            log_j = (m - 1) * math.log(u) + math.log(R[m])
        return math.exp(math.log(2) + n / 2 * math.log(math.pi)
                        - math.lgamma(n / 2) + log_j)
    except OverflowError:
        raise GeometryError(f"ball volume overflows a float at r = {r}")


def kappa(n: int) -> float:
    """Sobolev constant n(n-2) vol(S^n)^(2/n) / 4."""
    if n < 3:
        raise GeometryError("the Sobolev constant needs n >= 3")
    return n * (n - 2) * sphere_volume(n) ** (2 / n) / 4


@dataclass
class MoserConstant:
    value: float
    terms: int
    tail_bound: float  # rigorous bound on |log(true/value)|


def moser_constant(n: int, q: int, L: float, lam: float,
                   tail_tol: float = 1e-12) -> MoserConstant:
    """Sup-norm iteration constant: infinite product of per-step gains.

    Factor k is kappa_n^(-1/g^k) * ((q(n-q)+lam) g^k + 4^(k+1)/L^2)^(1/g^k)
    with g = n/(n-2).  The product is truncated once a rigorous bound on the
    remaining multiplicative tail drops below tail_tol.
    """
    if not (math.isfinite(L) and math.isfinite(lam)):
        raise GeometryError("need finite L and lam")
    if n < 3:
        raise GeometryError("need n >= 3")
    if L <= 0:
        raise GeometryError("need L > 0")
    if lam < 0:
        raise GeometryError("need lam >= 0")
    g = n / (n - 2)
    kap = kappa(n)
    amp = q * (n - q) + lam
    invl2 = 4.0 / (L * L)
    # bracket k = amp g^k + invl2 4^k is then positive for every k: as
    # g <= 3 < 4, it is at least min(amp, 0) 4^k + invl2 4^k
    if amp + invl2 <= 0:
        raise GeometryError("need q(n-q) + lam + 4/L^2 > 0")

    # |log B_k - log kappa| <= a + b*k:  B_k is squeezed between the constant
    # max(amp, 4/L^2) and (amp + 4/L^2) * 4^k
    lo = max(amp, invl2) if amp > 0 else invl2
    a = max(abs(math.log(amp + invl2)), abs(math.log(lo))) + abs(math.log(kap))
    b = math.log(4.0)

    def tail(kstart: int) -> float:
        x = 1.0 / g
        geo = x ** kstart / (1 - x)
        lin = x ** kstart * (kstart - (kstart - 1) * x) / (1 - x) ** 2
        return a * geo + b * lin

    log_c = 0.0
    k = 0
    while True:
        bracket = amp * g ** k + invl2 * 4.0 ** k
        log_c += (math.log(bracket) - math.log(kap)) / g ** k
        k += 1
        if tail(k) < tail_tol:
            break
        if k > 100000:
            raise GeometryError("product truncation did not converge")
    return MoserConstant(math.exp(log_c), k, tail(k))


# ---------------------------------------------------------------------------
# flat simplices from edge lengths


@dataclass(frozen=True)
class SimplexMetric:
    """Edge lengths of a simplex, keyed by local vertex index pairs."""

    n_vertices: int
    lengths: tuple  # ((i, j), l) pairs with i < j

    @staticmethod
    def from_dict(n_vertices: int, table: dict) -> "SimplexMetric":
        items = []
        for (i, j), l in sorted(table.items()):
            if i > j:
                i, j = j, i
            if l <= 0:
                raise GeometryError(f"edge length l[{i},{j}] must be positive")
            items.append(((i, j), float(l)))
        need = n_vertices * (n_vertices - 1) // 2
        if len(items) != need:
            raise GeometryError(f"expected {need} edge lengths, got {len(items)}")
        return SimplexMetric(n_vertices, tuple(items))

    def length(self, i: int, j: int) -> float:
        if i > j:
            i, j = j, i
        return dict(self.lengths)[(i, j)]


def simplex_gram(metric: SimplexMetric) -> np.ndarray:
    """Gram matrix of the edge vectors out of vertex 0, from the law of cosines."""
    m = metric.n_vertices - 1
    G = np.empty((m, m))
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if i == j:
                G[i - 1][j - 1] = metric.length(0, i) ** 2
            else:
                G[i - 1][j - 1] = (metric.length(0, i) ** 2
                                   + metric.length(0, j) ** 2
                                   - metric.length(i, j) ** 2) / 2
    eigs = np.linalg.eigvalsh(G)
    if eigs[0] <= 1e-12 * max(1.0, eigs[-1]):
        raise GeometryError("edge lengths do not embed as a nondegenerate simplex")
    return G


def simplex_volume(metric: SimplexMetric) -> float:
    m = metric.n_vertices - 1
    G = simplex_gram(metric)
    return math.sqrt(np.linalg.det(G)) / math.factorial(m)
