"""Hyperbolic-space numerics and the explicit analytic constants.

Ball volumes come from a recurrence; the Sobolev and sup-norm iteration
constants are evaluated from their closed forms with a rigorous truncation
tail.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

_MAX_DIMENSION = 1000   # ball_volume's n: its work grows as n (recurrence)
                        # or n^3 (Gauss-Legendre nodes)
_TAIL_TOL = 1e-12       # moser_constant's bound on |log(true/value)|


class GeometryError(ValueError):
    """A non-finite argument, a result beyond a float or work beyond a bound."""


class DomainError(ValueError):
    """An argument outside the domain of the function it is passed to."""


def sphere_volume(n: int) -> float:
    """Riemannian volume of the round unit n-sphere."""
    return 2 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)


def ball_volume(n: int, r: float, K: float) -> float:
    """Volume of a geodesic r-ball in the hyperbolic n-space of curvature -K:
    vol(S^{n-1}) J_{n-1}, J_k = int_0^r (sinh(s t) / s)^k dt with s = sqrt(K).
    For s r >= 1, J_k = (u^{k-1} cosh(s r) - (k-1) J_{k-2}) / (k K) with
    u = sinh(s r) / s, J_0 = r and J_1 = 2 sinh^2(s r / 2) / K, on R_k =
    J_k / u^{k-1}.  Below that the recurrence cancels, and Gauss-Legendre
    nodes give J_{n-1} instead.  Logarithms keep a large n finite, or 0.0;
    n is at most _MAX_DIMENSION."""
    if not (math.isfinite(r) and math.isfinite(K)):
        raise GeometryError("radius and curvature must be finite")
    if n < 2:
        raise DomainError("dimension must be >= 2")
    if n > _MAX_DIMENSION:
        raise GeometryError(f"dimension must be <= {_MAX_DIMENSION}")
    if r < 0:
        raise DomainError("radius must be >= 0")
    if K <= 0:
        raise DomainError("curvature magnitude must be > 0")
    if r == 0:
        return 0.0
    m, x = n - 1, math.sqrt(K) * r
    try:
        if x == 0:      # s r below a float: the flat limit J_m = r^n / n
            log_j = n * math.log(r) - math.log(n)
        elif x < 1:     # n + 8 nodes are exact on the leading t^m part
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
        raise DomainError("the Sobolev constant needs n >= 3")
    return n * (n - 2) * sphere_volume(n) ** (2 / n) / 4


@dataclass
class MoserConstant:
    value: float
    terms: int
    tail_bound: float  # rigorous bound on |log(true/value)|: tail and rounding


def moser_constant(n: int, q: int, L: float, lam: float) -> MoserConstant:
    """Sup-norm iteration constant: infinite product of per-step gains.

    Factor k is kappa_n^(-1/g^k) * ((q(n-q)+lam) g^k + 4^(k+1)/L^2)^(1/g^k)
    with g = n/(n-2).  The product is summed in logarithms, its bracket k as
    k log 4 + log(4/L^2 + (q(n-q)+lam) (g/4)^k), by math.fsum, and truncated
    once a rigorous bound on the remaining multiplicative tail drops below
    _TAIL_TOL.  tail_bound adds to that tail a first-order bound on the float
    rounding, doubled: the rounded g puts k + 1 units of roundoff into g^k
    and (g/4)^k, which dominates from n = 20 on.  A constant beyond a float's
    range raises GeometryError.
    """
    if not (math.isfinite(L) and math.isfinite(lam)):
        raise GeometryError("need finite L and lam")
    if n < 3:
        raise DomainError("need n >= 3")
    if L <= 0:
        raise DomainError("need L > 0")
    if lam < 0:
        raise DomainError("need lam >= 0")
    try:
        g = n / (n - 2)
        log_kap = math.log(kappa(n))
        amp = q * (n - q) + lam
        invl2 = 4.0 / (L * L)
        # bracket k = amp g^k + invl2 4^k is then positive for every k: as
        # g <= 3 < 4, it is at least min(amp, 0) 4^k + invl2 4^k
        if amp + invl2 <= 0:
            raise DomainError("need q(n-q) + lam + 4/L^2 > 0")
        if not math.isfinite(amp + invl2):     # 4/L^2 overflowed
            raise OverflowError

        # |log B_k - log kappa| <= a + b*k:  B_k is squeezed between the
        # constant max(amp, 4/L^2) and (amp + 4/L^2) * 4^k
        lo = max(amp, invl2) if amp > 0 else invl2
        a = max(abs(math.log(amp + invl2)), abs(math.log(lo))) + abs(log_kap)
        b = math.log(4.0)

        def tail(kstart: int) -> float:
            x = 1.0 / g
            geo = x ** kstart / (1 - x)
            lin = x ** kstart * (kstart - (kstart - 1) * x) / (1 - x) ** 2
            return a * geo + b * lin

        # the rounding of log_c in units u of roundoff, to first order: term
        # k is off by at most (k + 14) u (k b + |log B_k| + |log kappa| +
        # the condition (|amp| p + invl2) / B_k of its bracket) / g^k, fsum
        # adds u |log_c| and exp u; epsilon = 2u covers the higher orders
        terms, units = [], 1.0
        k = 0
        while True:
            p = (g / 4) ** k
            br = invl2 + amp * p
            log_br = math.log(br)
            terms.append((k * b + log_br - log_kap) / g ** k)
            units += (k + 14) * (k * b + abs(log_br) + abs(log_kap)
                                 + (abs(amp) * p + invl2) / br) / g ** k
            k += 1
            if tail(k) < _TAIL_TOL:
                break
            if k > 100000:
                raise GeometryError("product truncation did not converge")
        log_c = math.fsum(terms)
        units += abs(log_c)
        return MoserConstant(math.exp(log_c), k, tail(k)
                             + sys.float_info.epsilon * units)
    except (OverflowError, ZeroDivisionError):
        raise GeometryError("moser constant overflows a float") from None
