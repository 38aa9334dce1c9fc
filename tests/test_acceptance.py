"""Acceptance gate: one criterion per test, one printed verdict line each.

The conftest hook prints the verdict outside pytest's capture so it always
appears in the run log, e.g.  ACCEPTANCE 4: PASS - supersymmetry of spectra.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy
from scipy.linalg import eigh
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from hodgecover import (EdgeCycle, InnerProduct, PermutationCoverSpec,
                        ball_volume, build_cover,
                        charpoly_gap_bound, evaluate_bound, graph_diameter,
                        lambda1_split, least_norm_filling, moser_constant,
                        invariant_factors, shortest_path_tree)
from hodgecover.cli import main as cli_main
from hodgecover.ratlinalg import rat_solve
from hodgecover.surfaces import FIXTURES, circle, tetrahedron_boundary, torus7
from hodgecover.whitney import ComplexGeometry, whitney_mass_matrix

from helpers import (adjacency, betti_numbers, brute_force_diameter,
                     dense_pencil, down_pencil, is_transitive, moser_oracle,
                     random_cover_specs, random_cyclic_cover, rat_nullspace,
                     to_float, to_pylists, torsion_invariants)


CRITERIA = {
    1: "boundary-of-boundary vanishes on fixtures and random covers",
    2: "homology oracles and random Smith invariant factors",
    3: "harmonic kernel dimension equals the betti number",
    4: "supersymmetry of up/down spectra across degrees",
    5: "Euler characteristic multiplicativity and connectivity law",
    6: "tree diameter at most twice the graph diameter",
    7: "iteration constant: oracle value, monotonicity, tail bound",
    8: "ball volumes against closed forms",
    9: "certified fillings on random null cycles of every surface",
    10: "exact characteristic-polynomial gap bounds",
    11: "exact integer solves for unimodular pairing matrices",
    12: "bounds catalogue evaluates with hand-checked values",
    13: "byte-identical catalogue reports on repeated runs",
}


def criterion(number, description):
    assert CRITERIA[number] == description

    def deco(f):
        return f
    return deco


def comb_products(K):
    return {q: InnerProduct.identity(K.n_cells(q))
            for q in range(K.dim + 1)}


def whitney_products(K):
    geo = ComplexGeometry.uniform(K)
    return {q: whitney_mass_matrix(K, geo, q) for q in range(K.dim + 1)}


@criterion(1, "boundary-of-boundary vanishes on fixtures and random covers")
def test_criterion_1():
    start = time.perf_counter()
    complexes = [fn() for fn in FIXTURES.values()]
    rng = random.Random(0)
    for base in (torus7(), tetrahedron_boundary(), torus7()):
        complexes.append(build_cover(random_cyclic_cover(base, 3, rng)).complex)
    for K in complexes:
        for q in range(2, K.dim + 1):
            A = to_pylists(K.boundary_matrix(q - 1))
            B = to_pylists(K.boundary_matrix(q))
            n = len(B[0]) if B else 0
            for i in range(len(A)):
                for j in range(n):
                    assert sum(A[i][k] * B[k][j]
                               for k in range(len(B))) == 0
    assert time.perf_counter() - start < 1.0


@criterion(2, "homology oracles and random Smith invariant factors")
def test_criterion_2():
    start = time.perf_counter()
    expect = {
        "sphere": ([1, 0, 1], [[], []]),
        "projective_plane": ([1, 0, 0], [[], [2]]),
        "torus": ([1, 2, 1], [[], []]),
        "klein_bottle": ([1, 1, 0], [[], [2]]),
        "genus2": ([1, 4, 1], [[], []]),
        "circle": ([1, 1], [[]]),
    }
    for name, (betti, torsion) in expect.items():
        K = FIXTURES[name]()
        assert betti_numbers(K) == betti
        assert torsion_invariants(K) == torsion + [[]]     # H_dim is free
    rng = random.Random(1)
    for _ in range(200):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        A = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        factors = invariant_factors(A)
        # sympy's Smith form is the oracle; the factors form a chain
        assert factors == [abs(int(d)) for d in
                           sympy_snf(sympy.Matrix(A)).diagonal() if d != 0]
        assert all(d > 0 for d in factors)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
    assert time.perf_counter() - start < 10.0


@criterion(3, "harmonic kernel dimension equals the betti number")
def test_criterion_3():
    for fn in FIXTURES.values():
        K = fn()
        betti = betti_numbers(K)
        for products in (comb_products(K), whitney_products(K)):
            for q in range(K.dim + 1):
                assert lambda1_split(K, q, products).kernel_dim == betti[q]


@criterion(4, "supersymmetry of up/down spectra across degrees")
def test_criterion_4():
    for fn in FIXTURES.values():
        K = fn()
        for products in (comb_products(K), whitney_products(K)):
            for q in range(K.dim):
                eu = eigh(*dense_pencil(K, q, products[q], products[q + 1]),
                          eigvals_only=True)
                ed = eigh(*down_pencil(K, q + 1, products[q + 1],
                                       products[q]), eigvals_only=True)
                nu = sorted(x for x in eu if x > 1e-8)
                nd = sorted(x for x in ed if x > 1e-8)
                assert len(nu) == len(nd)
                assert np.allclose(nu, nd, rtol=1e-9, atol=1e-9)


@criterion(5, "Euler characteristic multiplicativity and connectivity law")
def test_criterion_5():
    seen = set()
    for spec in random_cover_specs(20, seed=5):
        assert spec.degree <= 5
        cov = build_cover(spec)
        assert cov.complex.euler_characteristic() == \
            spec.degree * spec.base.euler_characteristic()
        assert cov.connected == is_transitive(spec)
        seen.add(cov.connected)
    assert seen == {True, False}


@criterion(6, "tree diameter at most twice the graph diameter")
def test_criterion_6():
    from test_covers import random_connected_graph
    rng = random.Random(6)
    for _ in range(100):
        g = random_connected_graph(rng, max_n=40)
        diam = brute_force_diameter(adjacency(g))
        assert graph_diameter(g) == diam
        tree = shortest_path_tree(g, rng.randrange(g.n))
        assert tree.diameter() <= 2 * diam


@criterion(7, "iteration constant: oracle value, monotonicity, tail bound")
def test_criterion_7():
    mc = moser_constant(3, 1, 1.0, 1.0)
    assert abs(mc.value - moser_oracle(3, 1, 1.0, 1.0, terms=500)) < 1e-9
    Ls = [0.5, 1.0, 1.5, 2.0, 2.5]
    lams = [0.0, 0.5, 1.0, 1.5, 2.0]
    grid = [[moser_constant(3, 1, L, lam).value for L in Ls] for lam in lams]
    for row in grid:
        assert all(a >= b - 1e-12 for a, b in zip(row, row[1:]))
    for col in zip(*grid):
        assert all(a <= b + 1e-12 for a, b in zip(col, col[1:]))
    doubled = moser_oracle(3, 1, 1.0, 1.0, terms=2 * mc.terms)
    assert abs(math.log(mc.value) - math.log(doubled)) <= mc.tail_bound


@criterion(8, "ball volumes against closed forms")
def test_criterion_8():
    for r in (0.5, 1.0, 2.0):
        assert abs(ball_volume(2, r, 1)
                   - 2 * math.pi * (math.cosh(r) - 1)) < 1e-10
        assert abs(ball_volume(3, r, 1)
                   - math.pi * (math.sinh(2 * r) - 2 * r)) < 1e-10
    for n in (2, 3, 4):
        for Kc in (0.25, 2.0, 4.0):
            r = 1.3
            v = ball_volume(n, r, Kc)
            assert abs(v - Kc ** (-n / 2)
                       * ball_volume(n, r * math.sqrt(Kc), 1)) < 1e-9 * v


@criterion(9, "certified fillings on random null cycles of every surface")
def test_criterion_9():
    start = time.perf_counter()
    for name in ("sphere", "projective_plane", "torus", "klein_bottle",
                 "genus2"):
        K = FIXTURES[name]()
        split = lambda1_split(K, 1, comb_products(K))
        bd = to_pylists(K.boundary_matrix(2))
        kernel = rat_nullspace(bd)
        rng = random.Random(hash(name) % 2 ** 31)
        n2 = K.n_cells(2)
        for _ in range(10):
            x = [rng.randint(-3, 3) for _ in range(n2)]
            f = EdgeCycle(K, tuple(sum(row[j] * x[j] for j in range(n2))
                                   for row in bd))
            cert = least_norm_filling(f, "comb")
            for row, target in zip(bd, f.coefficients):
                assert sum(Fraction(a) * g for a, g in zip(row, cert.g)) \
                    == target
            for v in kernel:
                assert sum(a * b for a, b in zip(cert.g, v)) == 0
            if any(f.coefficients) and split.lambda1_dstar is not None:
                lhs = float(sum(c * c for c in cert.g))
                rhs = sum(c * c for c in f.coefficients) / split.lambda1_dstar
                assert lhs <= rhs * (1 + 1e-9)
            assert cert.chi_bound == 4 * sum(abs(c) * cert.m for c in cert.g)
    assert time.perf_counter() - start < 30.0


@criterion(10, "exact characteristic-polynomial gap bounds")
def test_criterion_10():
    assert charpoly_gap_bound(circle(3), 0) == Fraction(2, 3)
    for K, q in ((circle(3), 0), (tetrahedron_boundary(), 0),
                 (tetrahedron_boundary(), 1)):
        bound = charpoly_gap_bound(K, q)
        d = to_float(K.boundary_matrix(q + 1)).T
        eigs = np.linalg.eigvalsh(d.T @ d)
        recip = sum(1 / x for x in eigs if x > 1e-8)
        assert abs(float(bound) - recip) < 1e-9
        lam1 = min(x for x in eigs if x > 1e-8)
        assert 1 / lam1 <= float(bound) + 1e-9
    assert charpoly_gap_bound(tetrahedron_boundary(), 1) == Fraction(3, 4)


@criterion(11, "exact integer solves for unimodular pairing matrices")
def test_criterion_11():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 6)
        A = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(3 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                k = rng.randint(-3, 3)
                for c in range(n):
                    A[i][c] += k * A[j][c]
        b = [rng.randint(-9, 9) for _ in range(n)]
        assert invariant_factors(A) == [1] * n      # |det A| = 1
        sol = rat_solve(A, b)
        assert all(x.denominator == 1 for x in sol)
        for i in range(n):
            assert sum(A[i][j] * sol[j] for j in range(n)) == b[i]
    assert invariant_factors([[2, 0], [0, 1]]) == [1, 2]


@criterion(12, "bounds catalogue evaluates with hand-checked values")
def test_criterion_12():
    from test_bounds import SYNTHETIC
    for bid, params in SYNTHETIC.items():
        rep = evaluate_bound(bid, params)
        assert rep.verdict in ("holds", "fails", "marginal", "not-applicable")
    assert evaluate_bound("dirichlet_diam", dict(lhs=3.0, diam=2.0)).rhs == 4.0
    assert evaluate_bound("tree_area", dict(
        lhs=1.0, vol_boundary_base=10.0, vol=6.0, vol_base=1.0)).rhs == 60.0
    assert evaluate_bound("tree_diam", dict(
        lhs=1.0, diam_base_domain=3.0, diam_tree=4)).rhs == 15.0
    assert evaluate_bound("tree_diam", dict(
        lhs=15.0, diam_base_domain=3.0, diam_tree=4)).verdict == "marginal"


@criterion(13, "byte-identical catalogue reports on repeated runs")
def test_criterion_13(tmp_path):
    texts = []
    for k in range(2):
        out = tmp_path / f"run{k}.json"
        assert cli_main(["bounds", "all", "--attach", "torus",
                         "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
