import math
import random
import sys

import mpmath as mp
import numpy as np
import pytest

from hodgecover import (ComplexError, ComplexGeometry, DomainError,
                        GeometryError, ball_volume, kappa, load_complex,
                        moser_constant, sphere_volume,
                        whitney_mass_matrix)
from hodgecover.hypgeom import _TAIL_TOL
from hodgecover.whitney import _top_grams

from helpers import moser_oracle, reference_gram


class TestBallVolume:
    def test_closed_forms_dim_2_3(self):
        for r in (0.5, 1.0, 2.0):
            assert abs(ball_volume(2, r, 1)
                       - 2 * math.pi * (math.cosh(r) - 1)) < 1e-10
            assert abs(ball_volume(3, r, 1)
                       - math.pi * (math.sinh(2 * r) - 2 * r)) < 1e-10

    def test_curvature_scaling(self):
        # scaling the metric by 1/sqrt(K) maps curvature -K to -1
        for n in (2, 3, 4):
            for K in (0.25, 2.0, 4.0):
                r = 1.3
                assert abs(ball_volume(n, r, K)
                           - K ** (-n / 2) * ball_volume(n, r * math.sqrt(K), 1)
                           ) < 1e-9 * ball_volume(n, r, K)

    def test_against_mpmath_quadrature(self):
        # the oracle integrates (sinh(x u) / x)^(n-1) over [0, 1] with
        # x = sqrt(K) r, so that its integrand is of order one at every
        # radius; at K = 1 the radii lie on both sides of the switch from
        # Gauss-Legendre nodes to the recurrence
        radii = [10.0 ** k for k in range(-8, 2)] + [0.999999, 1.000001,
                                                     2.0, 20.0, 50.0]
        with mp.workdps(30):
            for n in range(2, 9):
                for K in (0.25, 1.0, 2.0):
                    for r in radii:
                        x = mp.sqrt(K) * r
                        exact = (2 * mp.pi ** (mp.mpf(n) / 2)
                                 / mp.gamma(mp.mpf(n) / 2) * mp.mpf(r) ** n
                                 * mp.quad(lambda u: (mp.sinh(x * u) / x)
                                           ** (n - 1), [0, 1]))
                        assert abs(ball_volume(n, r, K) - exact) \
                            <= 1e-12 * exact, (n, K, r)

    @pytest.mark.parametrize("n", [50, 200, 1000])
    def test_high_dimension_against_mpmath(self, n):
        # vol(S^{n-1}) alone overflows a float from n = 344 on, while the
        # ball volume is finite, underflows or overflows with the radius
        with mp.workdps(40):
            for K in (0.25, 1.0, 2.0):
                for r in (0.05, 0.5, 0.99, 1.5, 3.0, 5.0):
                    x = mp.sqrt(K) * r
                    exact = (2 * mp.pi ** (mp.mpf(n) / 2)
                             / mp.gamma(mp.mpf(n) / 2) * mp.mpf(r) ** n
                             * mp.quad(lambda u: (mp.sinh(x * u) / x)
                                       ** (n - 1),
                                       [0, 0.5, 0.9, 0.99, 0.999, 1]))
                    if exact > sys.float_info.max:
                        with pytest.raises(GeometryError, match="overflows"):
                            ball_volume(n, r, K)
                    elif exact < sys.float_info.min * sys.float_info.epsilon:
                        assert ball_volume(n, r, K) == 0.0, (K, r)
                    elif exact > sys.float_info.min:
                        assert ball_volume(n, r, K) == pytest.approx(
                            float(exact), rel=1e-12), (K, r)

    @pytest.mark.parametrize("n, r, K, volume", [(2, 1e-300, 1e-160, 0.0),
                                                 (3, 1e-300, 1e-160, 0.0),
                                                 (2, 1e-162, 5e-324, 5e-324),
                                                 (3, 1e-200, 1e-300, 0.0)])
    def test_flat_limit_when_s_r_underflows(self, n, r, K, volume):
        # sqrt(K) r rounds to 0, so the ball is flat to every digit: its
        # volume vol(S^(n-1)) r^n / n, r < 2e-162, is 0.0 or the least
        # subnormal (pi 1e-324 rounds up); this used to raise on log(0)
        assert math.sqrt(K) * r == 0
        assert ball_volume(n, r, K) == volume

    def test_monotone_in_radius(self):
        vols = [ball_volume(3, r, 1) for r in (0.1, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(vols, vols[1:]))

    def test_validation(self):
        with pytest.raises(DomainError):
            ball_volume(1, 1.0, 1.0)
        with pytest.raises(DomainError):
            ball_volume(3, -1.0, 1.0)
        with pytest.raises(DomainError):
            ball_volume(3, 1.0, 0.0)
        assert ball_volume(3, 0.0, 1.0) == 0.0
        # the recurrence loops n times and the nodes cost n^3: n is bounded,
        # with n = 1000 (the mpmath ladder) inside the bound
        for n in (1001, int(1e308)):
            for r in (0.5, 1.0, 1e308):
                with pytest.raises(GeometryError, match="dimension must be"):
                    ball_volume(n, r, 1.0)


class TestSphereVolumeKappa:
    def test_sphere_volumes(self):
        assert abs(sphere_volume(1) - 2 * math.pi) < 1e-12
        assert abs(sphere_volume(2) - 4 * math.pi) < 1e-12
        assert abs(sphere_volume(3) - 2 * math.pi ** 2) < 1e-12

    def test_kappa_closed_forms(self):
        assert abs(kappa(3) - 3 / 4 * (2 * math.pi ** 2) ** (2 / 3)) < 1e-12
        assert abs(kappa(4) - 2 * (8 * math.pi ** 2 / 3) ** 0.5) < 1e-12
        with pytest.raises(DomainError):
            kappa(2)


class TestMoserConstant:
    def test_pinned_oracle_value(self):
        mc = moser_constant(3, 1, 1.0, 1.0)
        assert abs(mc.value - moser_oracle(3, 1, 1.0, 1.0)) < 1e-9

    def test_oracle_grid(self):
        for n, q, L, lam in [(3, 1, 0.5, 0.1), (4, 1, 2.0, 1.0),
                             (5, 2, 1.0, 0.5), (3, 1, 1.0, 0.0)]:
            mc = moser_constant(n, q, L, lam)
            assert abs(mc.value - moser_oracle(n, q, L, lam)) < \
                1e-9 * max(1.0, mc.value)

    def test_monotonicity_grid(self):
        Ls = [0.5, 1.0, 1.5, 2.0, 2.5]
        lams = [0.0, 0.5, 1.0, 1.5, 2.0]
        vals = [[moser_constant(3, 1, L, lam).value for L in Ls]
                for lam in lams]
        for row in vals:  # non-increasing in L
            assert all(a >= b - 1e-12 for a, b in zip(row, row[1:]))
        for col in zip(*vals):  # non-decreasing in lam
            assert all(a <= b + 1e-12 for a, b in zip(col, col[1:]))

    def test_tail_bound_by_term_doubling(self):
        mc = moser_constant(3, 1, 1.0, 1.0)
        doubled = moser_oracle(3, 1, 1.0, 1.0, terms=2 * mc.terms)
        assert abs(math.log(mc.value) - math.log(doubled)) <= mc.tail_bound

    @pytest.mark.parametrize("args", [
        (20, 1, 1.0, 1.0), (30, 1, 1.0, 1.0), (45, 1, 1.0, 1.0),
        (20, 5, 0.7, 0.1), (45, 3, 0.3, 2.0)])
    def test_tail_bound_covers_rounding(self, args):
        # from n = 20 on, the float rounding of the terms is as large as the
        # truncated tail; the bound must hold against twice the terms
        mc = moser_constant(*args)
        doubled = moser_oracle(*args, terms=2 * mc.terms)
        assert abs(math.log(mc.value) - math.log(doubled)) <= mc.tail_bound
        assert mc.tail_bound < 20 * _TAIL_TOL

    @pytest.mark.parametrize("n", [30, 45])
    def test_high_dimension_sums_in_logs(self, n):
        # 4.0 ** k overflows a float from k = 512 on, before these products
        # reach their tail bound
        mc = moser_constant(n, 1, 1.0, 1.0)
        assert mc.terms > 512
        assert mc.value == pytest.approx(
            moser_oracle(n, 1, 1.0, 1.0, terms=2 * mc.terms), rel=1e-10)

    @pytest.mark.parametrize("args", [
        (50, 1, 1.0, 1.0), (400, 1, 1.0, 1.0), (int(1e308), 1, 1.0, 1.0),
        (3, 1, 1e-300, 1.0), (3, 1, 1e-160, 1.0), (3, int(1e300), 1.0, 1.0)])
    def test_overflow_is_a_geometry_error(self, args):
        with pytest.raises(GeometryError, match="overflows a float"):
            moser_constant(*args)

    def test_validation(self):
        with pytest.raises(DomainError):
            moser_constant(2, 1, 1.0, 1.0)
        with pytest.raises(DomainError):
            moser_constant(3, 1, 0.0, 1.0)
        with pytest.raises(DomainError):
            moser_constant(3, 1, 1.0, -1.0)
        with pytest.raises(DomainError):   # first bracket 5(3-5) + 4 < 0
            moser_constant(3, 5, 1.0, 0.0)
        assert not issubclass(DomainError, GeometryError)


def one_simplex(lengths):
    """The complex of one simplex and its geometry from {(i, j): length}."""
    n = max(j for _, j in lengths)
    K = load_complex([tuple(range(n + 1))])
    return K, ComplexGeometry(K, lengths)


class TestSimplexMetric:
    """The flat metric of one simplex from its edge lengths, read through
    ComplexGeometry.total_volume and the Whitney mass matrices."""

    def test_equilateral_triangle(self):
        _, geo = one_simplex({(0, 1): 1, (0, 2): 1, (1, 2): 1})
        assert abs(geo.total_volume() - math.sqrt(3) / 4) < 1e-14

    def test_right_triangle_345(self):
        _, geo = one_simplex({(0, 1): 3, (0, 2): 4, (1, 2): 5})
        assert abs(geo.total_volume() - 6.0) < 1e-12

    def test_regular_tetrahedron(self):
        _, geo = one_simplex({(i, j): 1.0 for i in range(4)
                              for j in range(i + 1, 4)})
        assert abs(geo.total_volume() - 1 / (6 * math.sqrt(2))) < 1e-14

    def test_gram_positive_definite(self):
        K, geo = one_simplex({(0, 1): 2, (0, 2): 3, (1, 2): 2.5})
        (G,), vol = _top_grams(K, geo)
        assert np.array_equal(G, reference_gram(geo, (0, 1, 2)))
        assert np.all(np.linalg.eigvalsh(G) > 0)
        assert vol[0] == math.sqrt(np.linalg.det(G)) / 2

    def test_degenerate_rejected(self):
        K, geo = one_simplex({(0, 1): 1, (0, 2): 2, (1, 2): 3})
        with pytest.raises(GeometryError, match="nondegenerate"):
            geo.total_volume()
        for q in range(3):
            with pytest.raises(GeometryError, match="nondegenerate"):
                whitney_mass_matrix(K, geo, q)
        # a negative or missing length is bad input, rejected on its way in
        with pytest.raises(ComplexError, match="finite and positive"):
            one_simplex({(0, 1): -1, (0, 2): 1, (1, 2): 1})
        with pytest.raises(ComplexError, match="no length for edge"):
            one_simplex({(0, 1): 1, (0, 2): 1})
