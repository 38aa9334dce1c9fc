import json
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import hodgecover
from hodgecover import (CoverError, EdgeCycle, FillingError, InnerProduct,
                        PermutationCoverSpec, betti_numbers, build_cover,
                        cycle_from_word, free_part_coefficients, l1_filling,
                        least_norm_filling, lambda1_split, rationally_null,
                        scl_report)
from hodgecover.surfaces import (circle, genus2_surface, load_complex,
                                 tetrahedron_boundary, torus7)
from hodgecover.whitney import ComplexGeometry, whitney_mass_matrix

from helpers import bareiss_det, rat_nullspace, to_pylists


def cell_boundary(K, j):
    bd = to_pylists(K.boundary_matrix(2))
    return EdgeCycle(K, tuple(row[j] for row in bd))


def scaled(f, k):
    return EdgeCycle(f.complex, tuple(k * c for c in f.coefficients))


def random_null_cycle(K, rng):
    bd = to_pylists(K.boundary_matrix(2))
    n2 = K.n_cells(2)
    x = [rng.randint(-3, 3) for _ in range(n2)]
    return EdgeCycle(K, tuple(sum(row[j] * x[j] for j in range(n2))
                              for row in bd))


class TestEdgeCycle:
    def test_nonzero_boundary_rejected(self):
        K = torus7()
        coeffs = [0] * K.n_cells(1)
        coeffs[0] = 1
        with pytest.raises(FillingError):
            EdgeCycle(K, tuple(coeffs))

    def test_coefficients_follow_the_integer_rule(self):
        column = cell_boundary(torus7(), 0).coefficients
        for bad in ([1.5 * c for c in column],
                    [True if c == 1 else c for c in column],
                    [str(c) for c in column], [None] * len(column)):
            with pytest.raises(FillingError, match="must be an integer"):
                EdgeCycle(torus7(), bad)
        for bad in (None, 5, {"coefficients": column}):
            with pytest.raises(FillingError, match="must be a list"):
                EdgeCycle(torus7(), bad)
        with pytest.raises(FillingError, match="has 20 coefficients"):
            EdgeCycle(torus7(), column[1:])

    def test_integral_float_coefficients_read_as_ints(self):
        f = cell_boundary(torus7(), 0)
        g = EdgeCycle(f.complex, [float(c) for c in f.coefficients])
        assert g == f and all(type(c) is int for c in g.coefficients)

    def test_length_comb_and_riemannian(self):
        K = torus7()
        f = cell_boundary(K, 0)
        assert f.length() == 3.0
        geo = ComplexGeometry.uniform(K)
        assert f.length(geo) == pytest.approx(3.0)


def cyclic_circle_cover(n=3, d=3):
    K = circle(n)
    ident = tuple(range(d))
    shift = tuple((s + 1) % d for s in range(d))
    edges = sorted(e for e in K.facet_adjacencies() if e[0] < e[1])
    perms = {e: (shift if k == 0 else ident) for k, e in enumerate(edges)}
    return build_cover(PermutationCoverSpec(K, d, perms))


class TestCycleFromWord:
    def test_empty_word_zero_chain(self):
        cov = cyclic_circle_cover()
        f = cycle_from_word(cov, [])
        assert not any(f.coefficients)

    def test_cyclic_cover_full_cycle(self):
        cov = cyclic_circle_cover()
        # base loop around the circle, lifted three times
        base_loop = [(0, 1), (1, 2), (2, 0)]
        f = cycle_from_word(cov, base_loop * 3)
        assert sorted(abs(c) for c in f.coefficients) == [1] * 9

    def test_single_loop_does_not_close(self):
        cov = cyclic_circle_cover()
        with pytest.raises(CoverError, match="open path"):
            cycle_from_word(cov, [(0, 1), (1, 2), (2, 0)])

    def test_word_must_compose(self):
        cov = cyclic_circle_cover()
        with pytest.raises(FillingError):
            cycle_from_word(cov, [(0, 1), (0, 2), (2, 0), (0, 0)])

    def test_open_tile_path_reports_endpoints(self):
        cov = cyclic_circle_cover()
        with pytest.raises(FillingError, match="starts at top cell 0"):
            cycle_from_word(cov, [(0, 1), (1, 2)])

    def test_contractible_tile_loop_on_torus_cover(self):
        K = torus7()
        edges = sorted(e for e in K.facet_adjacencies() if e[0] < e[1])
        spec = PermutationCoverSpec(K, 1, {e: (0,) for e in edges})
        cov = build_cover(spec)
        # loop of tiles around the star of vertex 1: consecutive tiles share
        # an edge through that vertex, so the word is contractible
        star = [j for j, c in enumerate(K.cells[2]) if 1 in c]
        order = [star.pop()]
        while star:
            cur = set(K.cells[2][order[-1]])
            nxt = next(j for j in star
                       if len(cur & set(K.cells[2][j]) - {1}) == 1
                       and 1 in cur & set(K.cells[2][j]))
            star.remove(nxt)
            order.append(nxt)
        word = list(zip(order, order[1:] + order[:1]))
        f = cycle_from_word(cov, word)
        null, _w = rationally_null(f)
        assert null  # bounds the star region


class TestRationallyNull:
    def test_cell_boundary_is_null(self):
        K = torus7()
        null, witness = rationally_null(cell_boundary(K, 0))
        assert null
        bd = to_pylists(K.boundary_matrix(2))
        for i, row in enumerate(bd):
            assert sum(Fraction(a) * x for a, x in zip(row, witness)) \
                == cell_boundary(K, 0).coefficients[i]

    def test_generator_cycle_not_null_with_certificate(self):
        K = torus7()
        found = False
        for v in rat_nullspace(to_pylists(K.boundary_matrix(1))):
            den = 1
            for x in v:
                den = den * x.denominator // math.gcd(den, x.denominator)
            f = EdgeCycle(K, tuple(int(x * den) for x in v))
            null, witness = rationally_null(f)
            if null:
                continue
            found = True
            # certificate pairs nontrivially with f but kills all boundaries
            assert sum(w * c for w, c in
                       zip(witness, f.coefficients)) != 0
            bd = to_pylists(K.boundary_matrix(2))
            n2 = K.n_cells(2)
            for j in range(n2):
                assert sum(witness[i] * bd[i][j]
                           for i in range(len(bd))) == 0
        assert found

    def test_scaled_null_cycle(self):
        K = torus7()
        f = cell_boundary(K, 0)
        null1, w1 = rationally_null(f)
        null3, w3 = rationally_null(scaled(f, 3))
        assert null1 and null3

    def test_circle_cycle_not_null(self):
        K = circle(3)
        f = EdgeCycle(K, (1, -1, 1))
        null, witness = rationally_null(f)
        assert not null and any(witness)


class TestFreePartCoefficients:
    def test_identity(self):
        assert free_part_coefficients([[1, 0], [0, 1]], [5, -3]) == [5, -3]

    def test_hand_oracle_2x2(self):
        # det [[2,1],[3,1]] = -1; det of column-replaced matrices by hand
        assert free_part_coefficients([[1, 1], [0, 1]], [2, 3]) == [-1, 3]

    def test_non_unimodular_rejected(self):
        with pytest.raises(FillingError):
            free_part_coefficients([[2, 0], [0, 1]], [1, 1])
        with pytest.raises(FillingError):
            free_part_coefficients([[1, 0, 0], [0, 1, 0]], [1, 1])

    def test_random_unimodular_exact(self):
        rng = random.Random(7)
        checked = 0
        while checked < 100:
            n = rng.randint(1, 6)
            # random unimodular: product of elementary integer matrices
            A = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(3 * n):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    k = rng.randint(-3, 3)
                    for c in range(n):
                        A[i][c] += k * A[j][c]
            assert bareiss_det(A) in (1, -1)
            b = [rng.randint(-9, 9) for _ in range(n)]
            sol = free_part_coefficients(A, b)
            for i in range(n):
                assert sum(A[i][j] * sol[j] for j in range(n)) == b[i]
            checked += 1
        # random square matrices: rejected exactly when det != +-1
        unimodular = 0
        for _ in range(300):
            n = rng.randint(1, 5)
            A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            b = [rng.randint(-9, 9) for _ in range(n)]
            d = bareiss_det(A)
            if d not in (1, -1):
                with pytest.raises(FillingError,
                                   match=rf"\|determinant\| {abs(d)},"):
                    free_part_coefficients(A, b)
                continue
            sol = free_part_coefficients(A, b)
            assert all(type(x) is int for x in sol)
            for i in range(n):
                assert sum(A[i][j] * sol[j] for j in range(n)) == b[i]
            unimodular += 1
        assert unimodular >= 10


class TestCombFilling:
    def test_single_cell_on_disc(self):
        K = load_complex([(0, 1, 2)])
        f = cell_boundary(K, 0)
        cert = least_norm_filling(f, "comb")
        assert cert.g == (Fraction(1),)
        assert cert.m == 1 and cert.chi_bound == 4

    def test_two_cell_disc_norm(self):
        K = load_complex([(0, 1, 2), (1, 2, 3)])
        bd = to_pylists(K.boundary_matrix(2))
        f = EdgeCycle(K, tuple(row[0] + row[1] for row in bd))
        cert = least_norm_filling(f, "comb")
        norm = math.sqrt(float(sum(c * c for c in cert.g)))
        assert norm <= math.sqrt(2) + 1e-12
        assert cert.g == (Fraction(1), Fraction(1))

    def test_exact_boundary_and_minimality(self):
        K = torus7()
        rng = random.Random(0)
        kernel = rat_nullspace(to_pylists(K.boundary_matrix(2)))
        for _ in range(10):
            f = random_null_cycle(K, rng)
            cert = least_norm_filling(f, "comb")
            # boundary is exact by certificate construction; check kernel
            # orthogonality and minimality against random kernel noise
            for v in kernel:
                assert sum(a * b for a, b in zip(cert.g, v)) == 0
            base = sum(Fraction(c) ** 2 for c in cert.g)
            for _ in range(10):
                z = [Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                     for _ in kernel]
                pert = [g + sum(zk * vk[j] for zk, vk in zip(z, kernel))
                        for j, g in enumerate(cert.g)]
                assert base <= sum(c * c for c in pert)

    def test_scale_equivariance(self):
        K = torus7()
        f = cell_boundary(K, 3)
        g1 = least_norm_filling(f, "comb").g
        g5 = least_norm_filling(scaled(f, 5), "comb").g
        assert all(5 * a == b for a, b in zip(g1, g5))

    def test_gap_inequality_exact(self):
        K = torus7()
        split = lambda1_split(K, 1, {
            q: InnerProduct.identity(q, K.n_cells(q)) for q in range(3)})
        rng = random.Random(1)
        for _ in range(10):
            f = random_null_cycle(K, rng)
            if not any(f.coefficients):
                continue
            cert = least_norm_filling(f, "comb")
            lhs = float(sum(c * c for c in cert.g))
            rhs = sum(c * c for c in f.coefficients) / split.lambda1_dstar
            assert lhs <= rhs * (1 + 1e-9)

    def test_not_null_rejected(self):
        K = circle(3)
        f = EdgeCycle(K, (1, -1, 1))
        with pytest.raises(FillingError):
            least_norm_filling(f, "comb")


class TestWhitneyFilling:
    def test_certificate_valid_and_slack_respected(self):
        K = torus7()
        geo = ComplexGeometry.uniform(K)
        ip = whitney_mass_matrix(K, geo, 2)
        f = cell_boundary(K, 0)
        cert = least_norm_filling(f, "whitney", ip)
        bd = to_pylists(K.boundary_matrix(2))
        for row, target in zip(bd, f.coefficients):
            assert sum(Fraction(a) * x for a, x in zip(row, cert.g)) == target
        assert cert.m >= 1
        assert cert.chi_bound == 4 * sum(abs(c) * cert.m for c in cert.g)

    def test_rounding_failure_raises(self, monkeypatch):
        K = torus7()
        geo = ComplexGeometry.uniform(K)
        ip = whitney_mass_matrix(K, geo, 2)
        f = cell_boundary(K, 0)
        monkeypatch.setattr(hodgecover.fillings, "_SLACK", 1e-12)
        monkeypatch.setattr(hodgecover.fillings, "_DENOMINATORS", (1,))
        with pytest.raises(FillingError):
            least_norm_filling(f, "whitney", ip)

    def test_missing_inner_product(self):
        K = torus7()
        with pytest.raises(FillingError):
            least_norm_filling(cell_boundary(K, 0), "whitney")


def _whitney_filling_complexes():
    from helpers import random_cyclic_cover
    from hodgecover.surfaces import FIXTURES
    out = {name: make() for name, make in FIXTURES.items()
           if make().dim == 2}
    g2 = FIXTURES["genus2"]()
    for d in (2, 3, 5, 7, 11):
        for seed in (1, 2):
            out[f"genus2_d{d}_s{seed}"] = build_cover(
                random_cyclic_cover(g2, d, random.Random(seed))).complex
    tet = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    out["two_tetrahedra"] = load_complex(       # kernel dimension 2
        tet + [tuple(v + 4 for v in c) for c in tet])
    out["boundary_4_simplex"] = load_complex(   # kernel dimension 4
        list(combinations(range(5), 4)))
    return out


WHITNEY_FILLING_COMPLEXES = _whitney_filling_complexes()


@pytest.mark.parametrize("perturbed", [False, True], ids=["unit", "perturbed"])
@pytest.mark.parametrize("name", WHITNEY_FILLING_COMPLEXES)
def test_whitney_filling_matches_normal_equations(name, perturbed):
    """The minimizer in kernel coordinates gives the chain, denominator, norm
    and slack of the dense normal-equations route."""
    from helpers import reference_whitney_filling
    K = WHITNEY_FILLING_COMPLEXES[name]
    rng = random.Random(name)
    geo = ComplexGeometry(K, {e: rng.uniform(0.9, 1.1) if perturbed else 1.0
                              for e in K.cells[1]})
    ip = whitney_mass_matrix(K, geo, 2)
    for f in (cell_boundary(K, 0), random_null_cycle(K, rng)):
        got = least_norm_filling(f, "whitney", ip)
        want = reference_whitney_filling(f, ip)
        assert (got.g, got.m, repr(got.norm_g), got.delta) == \
            (want.g, want.m, repr(want.norm_g), want.delta)


def test_whitney_filling_needs_no_dense_solves(monkeypatch):
    import scipy.linalg

    def refuse(*args, **kwargs):
        raise AssertionError("dense solve called")

    K = WHITNEY_FILLING_COMPLEXES["boundary_4_simplex"]
    ip = whitney_mass_matrix(K, ComplexGeometry.uniform(K), 2)
    monkeypatch.setattr(scipy.linalg, "cho_solve", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    cert = least_norm_filling(cell_boundary(K, 0), "whitney", ip)
    assert cert.m == 5 and cert.delta == 1e-6


def dual_loop_words(K):
    """One closed tile word per edge of the dual graph outside a BFS tree
    from top cell 0: down the tree to one end, across, and back up."""
    adj = K.facet_adjacencies()
    parent, queue = {0: None}, [0]
    for a in queue:
        for b in sorted(b for (x, b) in adj if x == a):
            if b not in parent:
                parent[b] = a
                queue.append(b)

    def path(t):          # tile word from top cell 0 to t
        word = []
        while parent[t] is not None:
            word.append((parent[t], t))
            t = parent[t]
        return word[::-1]

    return [path(a) + [(a, b)] + [(y, x) for x, y in path(b)[::-1]]
            for (a, b) in sorted(adj) if a < b
            and parent[a] != b and parent[b] != a]


def _integer_cycles(K):
    """A basis of the rational 1-cycles, each scaled to integers."""
    out = []
    for v in rat_nullspace(to_pylists(K.boundary_matrix(1))):
        den = math.lcm(*(x.denominator for x in v))
        out.append(EdgeCycle(K, tuple(int(x * den) for x in v)))
    return out


def _oracle_cases():
    """Null and non-null cycles on every 2-dimensional fixture, the kernel
    dimension 2 and 4 complexes, and seeded genus2 covers of degree <= 7,
    whose non-null cycles are lifts of dual loops."""
    from helpers import random_cyclic_cover
    cases = {}
    for name, K in WHITNEY_FILLING_COMPLEXES.items():
        if name.startswith("genus2_d"):
            continue
        rng = random.Random(name)
        cases[name] = (K, [cell_boundary(K, 0), random_null_cycle(K, rng),
                           *_integer_cycles(K)])
    g2 = genus2_surface()
    words = dual_loop_words(g2)[:6]
    for d in (2, 3, 5, 7):
        for seed in (1, 2):
            cover = build_cover(random_cyclic_cover(g2, d, random.Random(seed)))
            K = cover.complex
            rng = random.Random(seed)
            cases[f"genus2_d{d}_s{seed}"] = (K, [
                random_null_cycle(K, rng),
                *(cycle_from_word(cover, w * d) for w in words)])
    return cases


ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_comb_filling_and_certificate_match_the_oracles(name):
    """The comb filling in kernel coordinates is the normal-equations chain,
    and the certificate read from the RREF of d2^T is the first vector of the
    whole kernel basis that pairs nonzero with the cycle."""
    from helpers import reference_certificate, reference_comb_filling
    K, cycles = ORACLE_CASES[name]
    kinds = set()
    for f in cycles:
        null, x = rationally_null(f)
        want_y = reference_certificate(f)
        kinds.add(null)
        if not null:
            assert x == want_y and all(type(c) is Fraction for c in x)
            continue
        assert want_y is None
        got, want = least_norm_filling(f, "comb"), reference_comb_filling(f)
        assert (got.g, got.m, repr(got.norm_g), got.one_norm) == \
            (want.g, want.m, repr(want.norm_g), want.one_norm)
    assert True in kinds
    assert (False in kinds) == (betti_numbers(K)[1] > 0)


def test_one_elimination_per_cycle(monkeypatch):
    """[d2 | f] is eliminated once for rationally_null and all three
    fillings of one cycle, and the l1 constraint matrix is never dense."""
    from hodgecover import ratlinalg
    K = ORACLE_CASES["genus2_d3_s1"][0]
    n1, n2 = K.n_cells(1), K.n_cells(2)
    ip = whitney_mass_matrix(K, ComplexGeometry.uniform(K), 2)
    f = random_null_cycle(K, random.Random(3))
    rows = []
    echelon = ratlinalg.echelon

    def counting(r, *args, **kwargs):
        rows.append(len(r))
        return echelon(r, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("dense constraint matrix")

    monkeypatch.setattr(ratlinalg, "echelon", counting)
    assert rationally_null(f)[0]
    least_norm_filling(f, "comb")
    least_norm_filling(f, "whitney", ip)
    with monkeypatch.context() as m:
        m.setattr(np, "block", refuse)
        m.setattr(np, "eye", refuse)
        l1_filling(f)
    assert rows == [n1, 1]      # [d2 | f], then the comb's 1 x 1 system
    h = next(h for h in ORACLE_CASES["genus2_d3_s1"][1]
             if not rationally_null(h)[0])
    h = EdgeCycle(K, h.coefficients)      # a new cycle, with an empty cache
    rows.clear()
    assert not rationally_null(h)[0]
    assert rows == [n1, n2]     # [d2 | h], then d2^T for the certificate


def test_whitney_filling_builds_no_dense_mass():
    # beyond the chains themselves the filling allocates O(n2 k) floats; the
    # dense degree-2 mass matrix alone would be n2^2 doubles
    import tracemalloc
    from helpers import random_cyclic_cover
    K = build_cover(random_cyclic_cover(genus2_surface(), 23,
                                        random.Random(23))).complex
    rng = random.Random(23)
    geo = ComplexGeometry(K, {e: rng.uniform(0.9, 1.1) for e in K.cells[1]})
    ip = whitney_mass_matrix(K, geo, 2)
    f = random_null_cycle(K, rng)
    f.solution_space                  # the exact elimination, traced apart
    n = K.n_cells(2)
    tracemalloc.start()
    try:
        cert = least_norm_filling(f, "whitney", ip)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ip._dense is None
    assert peak < 0.1 * n * n * 8
    assert cert.norm_g == pytest.approx(
        math.sqrt(sum(float(c) ** 2 * m for c, m in
                      zip(cert.g, ip.diagonal()))), rel=1e-12)


class TestL1Filling:
    def test_single_cell(self):
        K = torus7()
        f = cell_boundary(K, 0)
        cert = l1_filling(f)
        assert cert.chi_bound / cert.m <= 4 * 14  # at most every cell once
        bd = to_pylists(K.boundary_matrix(2))
        for row, target in zip(bd, f.coefficients):
            assert sum(Fraction(a) * x for a, x in zip(row, cert.g)) == target

    def test_tighter_than_least_squares_on_disc_cycle(self):
        K = torus7()
        # boundary of the 6-triangle star of a vertex
        star = [j for j, c in enumerate(K.cells[2]) if 1 in c]
        assert len(star) == 6
        bd = to_pylists(K.boundary_matrix(2))
        f = EdgeCycle(K, tuple(sum(row[j] for j in star) for row in bd))
        cert = l1_filling(f)
        assert float(cert.chi_bound) / cert.m >= 1.0  # |chi(disc)| = 1
        ls = least_norm_filling(f, "comb")
        assert float(cert.one_norm) / cert.m <= float(ls.one_norm) / ls.m + 1e-9


class TestSclReport:
    def setup_method(self):
        self.K = torus7()
        self.geo = ComplexGeometry.uniform(self.K)
        ips = {q: whitney_mass_matrix(self.K, self.geo, q) for q in range(3)}
        self.lam = lambda1_split(self.K, 1, ips).lambda1_dstar

    def test_well_posed(self):
        cert = least_norm_filling(cell_boundary(self.K, 0), "comb")
        rep = scl_report(cert, self.geo, self.lam)
        assert rep["lhs"] > 0 and rep["rhs_core"] > 0
        assert rep["empirical_constant"] == pytest.approx(
            rep["lhs"] / rep["rhs_core"])

    def test_deterministic(self):
        reps = []
        for _ in range(2):
            cert = least_norm_filling(cell_boundary(self.K, 0), "comb")
            reps.append(json.dumps(scl_report(cert, self.geo, self.lam),
                                   sort_keys=True))
        assert reps[0] == reps[1]

    def test_doubling_invariance(self):
        f = cell_boundary(self.K, 0)
        r1 = scl_report(least_norm_filling(f, "comb"), self.geo, self.lam)
        r2 = scl_report(least_norm_filling(scaled(f, 2), "comb"),
                        self.geo, self.lam)
        assert r1["normalized_complexity"] == pytest.approx(
            r2["normalized_complexity"], rel=1e-9)

    def test_zero_length_rejected(self):
        f = EdgeCycle(self.K, (0,) * self.K.n_cells(1))
        cert = least_norm_filling(f, "comb")
        with pytest.raises(FillingError):
            scl_report(cert, self.geo, self.lam)


def test_exactness_checks_survive_python_O():
    """The exact checks behind a certificate raise, so `python -O` keeps them."""
    code = textwrap.dedent("""
        from fractions import Fraction
        from hodgecover import FillingError
        from hodgecover.fillings import EdgeCycle, _certify
        from hodgecover.surfaces import genus2_surface
        print(__debug__)
        K = genus2_surface()
        col = [0] * K.n_cells(1)
        for r, c, v in K.boundary_matrix(2).entries:
            if c == 0:
                col[r] = v
        f = EdgeCycle(K, tuple(col))
        try:
            _certify(f, [Fraction(0)] * K.n_cells(2), "comb", 0.0, 0.0)
        except FillingError:
            print("zero filling rejected")
        try:
            EdgeCycle(K, (1,) + (0,) * (K.n_cells(1) - 1))
        except FillingError:
            print("non-cycle rejected")
        """)
    src = Path(hodgecover.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "False", "zero filling rejected", "non-cycle rejected"]
