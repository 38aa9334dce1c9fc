import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from scipy.linalg import eigh
from scipy.sparse import csr_array, diags_array
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from hodgecover import (ComplexError, SpectralError, build_cover,
                        charpoly_gap_bound, coexact_gap, lambda1_split,
                        homology, load_complex, spectra, up_pencil)
from hodgecover.cli import main
from hodgecover.surfaces import (FIXTURES, circle, genus2_surface,
                                 tetrahedron_boundary, torus7, torus_grid)
from hodgecover.whitney import (ComplexGeometry, InnerProduct, _sparse,
                                whitney_mass_matrix)

from helpers import (bench_tower_covers, betti_numbers, dense_pencil,
                     down_gram, down_pencil, one_block, random_cyclic_cover,
                     to_float, to_pylists)


def genus2_cover(d):
    """The seeded degree-d cyclic cover of genus2 the oracle tests share."""
    return build_cover(random_cyclic_cover(genus2_surface(), d,
                                           random.Random(d))).complex


def charpoly_ratio(K, q):
    """|a_{k+1}| / |a_k| of the characteristic polynomial sum_i a_i x^i of
    d d^T on q-chains, a_k its last nonzero coefficient, from sympy over
    the integers: the reciprocal sum of the nonzero eigenvalues."""
    b = K.boundary_matrix(q + 1)
    A = DomainMatrix(to_pylists(b.matmul(b.transpose())), (b.rows, b.rows),
                     ZZ)
    tail = [int(c) for c in A.charpoly()[::-1]]
    k = next(i for i, c in enumerate(tail) if c != 0)
    return Fraction(abs(tail[k + 1]), abs(tail[k]))


def comb_products(K):
    return {q: InnerProduct.identity(K.n_cells(q))
            for q in range(K.dim + 1)}


def whitney_products(K):
    geo = ComplexGeometry.uniform(K)
    return {q: whitney_mass_matrix(K, geo, q) for q in range(K.dim + 1)}


def spectral_cases():
    """(K, q, products) for every fixture and seeded degree-2 and degree-3
    covers of genus2, both inner products, every degree."""
    covers = [build_cover(random_cyclic_cover(genus2_surface(), d,
                                              random.Random(d))).complex
              for d in (2, 3)]
    for K in [fn() for fn in FIXTURES.values()] + covers:
        for products in (comb_products(K), whitney_products(K)):
            for q in range(K.dim + 1):
                yield K, q, products


def full_pencil(K, q, products):
    """(A_up + B_down, M): the whole Hodge Laplacian, down part included."""
    A, _ = up_pencil(K, q, products[q], products.get(q + 1))
    B, M = down_pencil(K, q, products[q], products.get(q - 1))
    return A + B, M


def dense_up(K, q, M_up):
    d = to_float(K.boundary_matrix(q + 1)).T
    A = d.T @ M_up @ d
    return (A + A.T) / 2


def scipy_up(K, q, ip_up):
    """d^T M_{q+1} d densified from scipy's sums of the triplets of
    _stiffness, in key order, and its (A + A^T) / 2 taken while sparse."""
    rows, cols, vals = spectra._stiffness(K, q, ip_up)
    n = K.n_cells(q)
    order = np.argsort(rows * n + cols, kind="stable")
    A = csr_array((vals[order], (rows[order], cols[order])), shape=(n, n))
    return ((A + A.T) / 2).toarray()


def random_spd_products(K, seed):
    rng = np.random.default_rng(seed)
    out = {}
    for q in range(K.dim + 1):
        R = rng.standard_normal((K.n_cells(q), K.n_cells(q)))
        out[q] = one_block(R @ R.T + np.eye(K.n_cells(q)))
    return out


def perturbed_whitney_products(K, seed):
    rng = random.Random(seed)
    geo = ComplexGeometry(K, {e: rng.uniform(0.9, 1.1) for e in K.cells[1]})
    return {q: whitney_mass_matrix(K, geo, q) for q in range(K.dim + 1)}


def genus2_cover(degree):
    return build_cover(random_cyclic_cover(genus2_surface(), degree,
                                           random.Random(degree))).complex


class TestUpPencil:
    def cases(self):
        yield from spectral_cases()
        # q-cells with 0, 1 and 3 cofaces: (2, 5) and (1, 2) and (0, 1)
        book = load_complex([(0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 5)])
        for K in (book,
                  load_complex([(0, 1, 2, 3), (1, 2, 3, 4), (0, 2, 3, 5)]),
                  load_complex([(0, 1, 2, 3)]), torus7(), genus2_cover(5)):
            products = [comb_products(K), random_spd_products(K, 0)]
            if K is not book:      # Whitney forms need every cell in a top
                products += [whitney_products(K),
                             perturbed_whitney_products(K, 1)]
            for ips in products:
                for q in range(K.dim + 1):
                    yield K, q, ips

    def test_matches_dense_product(self):
        for K, q, products in self.cases():
            viewed = products[q]._dense is not None
            A, M = up_pencil(K, q, products[q], products.get(q + 1))
            assert type(A) is np.ndarray and M is products[q]
            # M is the product itself: up_pencil builds no dense view
            assert (products[q]._dense is not None) == viewed
            if q == K.dim:
                assert np.array_equal(A, np.zeros((K.n_cells(q),) * 2))
                continue
            d = to_float(K.boundary_matrix(q + 1)).T
            expect = d.T @ products[q + 1].matrix @ d
            assert np.array_equal(A, A.T)
            assert np.max(np.abs(A - expect)) <= 1e-13 * np.max(np.abs(expect))

    def test_bitwise_below_the_top_degree(self):
        # the top-degree Whitney mass matrix is diagonal, so every entry of
        # d^T M d is a sum of at most two products, whatever the order
        for K, q, products in spectral_cases():
            if q == K.dim - 1 and K.dim == 2:
                A, _ = up_pencil(K, q, products[q], products[q + 1])
                assert np.array_equal(A, dense_up(K, q,
                                                  products[q + 1].matrix))

    def perturbed_covers(self):
        for d in (23, 53):
            K = genus2_cover(d)
            ips = perturbed_whitney_products(K, d)
            for q in range(K.dim + 1):
                yield K, q, ips

    def test_bitwise_against_scipy_sums(self):
        # the reference sums the same triplets in scipy CSR, then (A + A^T)/2;
        # they go in stably sorted by key, since scipy's own index sort is
        # unstable and leaves the order of the summands in a long row open
        for K, q, products in itertools.chain(self.cases(),
                                              self.perturbed_covers()):
            A, _ = up_pencil(K, q, products[q], products.get(q + 1))
            assert np.array_equal(A, A.T)
            if q < K.dim:
                assert np.array_equal(A, scipy_up(K, q, products[q + 1]))

    def test_sparse_stiffness_is_the_dense_one(self):
        # coexact_gap's degree-0 CSR and up_pencil's dense A read the same
        # key-order sums, so they agree bit for bit, and the CSR comes
        # canonical with one stored entry per key: scipy sums nothing
        def covers():
            for d in (23, 53):
                K = genus2_cover(d)
                yield K, 0, perturbed_whitney_products(K, d)
        seen = 0
        for K, q, products in itertools.chain(self.cases(), covers()):
            if q != 0 or K.dim == 0:
                continue
            n = K.n_cells(0)
            keys, sums = spectra._stiffness_sums(K, 0, products[1])
            A = _sparse(n, n, keys, sums)
            assert A.has_canonical_format and A.nnz == len(keys)
            dense, _ = up_pencil(K, 0, products[0], products[1])
            assert np.array_equal(A.toarray(), dense)
            seen += 1
        assert seen > 20

    def test_dense_eigensolve_reduces_this_stiffness(self, monkeypatch):
        # _positive_up (lambda1_split, coexact_gap's dense path) reduces
        # up_pencil's A bit for bit: one exactly symmetric stiffness, the one
        # the sparse degree-0 gap reads too; the reduction stops at its first
        # forward substitution, which receives that A
        class Reduced(Exception):
            pass

        def forward(L, B):
            raise Reduced(B)
        monkeypatch.setattr(spectra, "_forward", forward)
        seen = 0
        for K, q, products in itertools.chain(self.cases(),
                                              self.perturbed_covers()):
            rank = len(homology.boundary_factors(K, q + 1))
            if rank == 0:
                continue
            with pytest.raises(Reduced) as reduced:
                spectra._positive_up(K, q, products, rank)
            A, _ = up_pencil(K, q, products[q], products[q + 1])
            assert np.array_equal(reduced.value.args[0], A)
            assert np.array_equal(A, A.T)
            seen += 1
        assert seen > 60

    def test_no_dense_temporaries(self):
        # the traced peak is the dense output A and sparse work beside it;
        # a dense gather of d^T M, a dense (A + A^T) / 2 or a dense M_1
        # would exceed it
        K = genus2_cover(23)
        ips = perturbed_whitney_products(K, 23)
        n = K.n_cells(1)
        tracemalloc.start()
        try:
            up_pencil(K, 1, ips[1], ips[2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8


class TestDensePencilEigenvalues:
    """The numpy reduction L^-1 A L^-T of _positive_up against scipy's
    generalized eigh(A, M), with A the dense product d^T M_{q+1} d."""

    def cases(self):
        fixtures = [fn() for fn in FIXTURES.values()]
        for i, K in enumerate(fixtures + [genus2_cover(d)
                                          for d in (2, 3, 5, 11, 23)]):
            for products in (comb_products(K), whitney_products(K),
                             perturbed_whitney_products(K, i)):
                for q in range(K.dim + 1):
                    yield K, q, products

    def test_against_scipy_eigh(self):
        seen = 0
        for K, q, products in self.cases():
            n = K.n_cells(q)
            rank = len(homology.boundary_factors(K, q + 1))
            got = spectra._positive_up(K, q, products, rank)
            if rank == 0:
                assert got.shape == (0,)
                continue
            want = eigh(dense_up(K, q, products[q + 1].matrix),
                        products[q].matrix, eigvals_only=True)
            tol = 1e-12 * want[-1]
            assert got.shape == (rank,)
            assert np.max(np.abs(got - want[n - rank:])) <= tol
            assert np.max(np.abs(want[:n - rank])) <= tol  # the exact zeros
            seen += 1
        assert seen == 3 * (sum(fn().dim for fn in FIXTURES.values()) + 5 * 2)


class TestGraphSpectra:
    def test_cycle_c3(self):
        K = circle(3)
        s = lambda1_split(K, 0, comb_products(K))
        assert np.allclose(np.sort(s.spectrum), [0.0, 3.0, 3.0], atol=1e-9)
        assert s.lambda1 == pytest.approx(3.0)
        assert s.kernel_dim == 1

    def test_cycle_c4(self):
        K = circle(4)
        s = lambda1_split(K, 0, comb_products(K))
        assert np.allclose(np.sort(s.spectrum), [0.0, 2.0, 2.0, 4.0],
                           atol=1e-9)
        assert s.lambda1 == pytest.approx(2.0)

    def test_circle_spectrum_closed_form(self):
        # cycle graph eigenvalues 2 - 2 cos(2 pi k / n)
        n = 7
        K = circle(n)
        s = lambda1_split(K, 0, comb_products(K))
        expect = sorted(2 - 2 * math.cos(2 * math.pi * k / n)
                        for k in range(n))
        assert np.allclose(np.sort(s.spectrum), expect, atol=1e-9)


class TestHodgeTheorem:
    def test_kernel_dim_is_betti_all_fixtures(self):
        for fn in FIXTURES.values():
            K = fn()
            betti = betti_numbers(K)
            for products in (comb_products(K), whitney_products(K)):
                for q in range(K.dim + 1):
                    s = lambda1_split(K, q, products)
                    assert s.kernel_dim == betti[q]
                    if s.lambda1 is not None:
                        assert s.lambda1 > 1e-10
                # the float up-spectra really split at the exact ranks
                for q in range(K.dim):
                    eigs = eigh(*dense_pencil(K, q, products[q],
                                              products[q + 1]),
                                eigvals_only=True)
                    k = K.n_cells(q) - sympy.Matrix(
                        to_pylists(K.boundary_matrix(q + 1))).rank()
                    if k:
                        assert abs(eigs[k - 1]) < 1e-8
                    if k < len(eigs):
                        assert eigs[k] > 1e-8


class TestUpPencilsOnly:
    def test_spectrum_matches_full_pencil(self):
        for K, q, products in spectral_cases():
            s = lambda1_split(K, q, products)
            L, M = full_pencil(K, q, products)
            assert np.allclose(s.spectrum, eigh(L, M, eigvals_only=True),
                               rtol=1e-9, atol=1e-9)
            for lam, pencil in (
                    (s.lambda1_dstar, dense_pencil(K, q, products[q],
                                                   products.get(q + 1))),
                    (s.lambda1_d, down_pencil(K, q, products[q],
                                              products.get(q - 1)))):
                positive = [x for x in eigh(*pencil, eigvals_only=True)
                            if x > 1e-8]
                if positive:
                    assert lam == pytest.approx(positive[0], rel=1e-9)
                else:
                    assert lam is None

    def test_projection_matches_full_pencil_kernel(self):
        for K, q, products in spectral_cases():
            k = lambda1_split(K, q, products).kernel_dim
            eigs = eigh(*full_pencil(K, q, products), eigvals_only=True)
            assert np.sum(eigs < 1e-8) == k

    def test_harmonic_zeros_are_exact(self, capsys):
        for fn in FIXTURES.values():
            K = fn()
            for products in (comb_products(K), whitney_products(K)):
                for q in range(K.dim + 1):
                    s = lambda1_split(K, q, products)
                    zeros = s.spectrum[:s.kernel_dim]
                    assert np.all(zeros == 0.0)
                    assert not np.any(np.signbit(zeros))
        assert main(["spectrum", "genus2", "--degree", "1"]) == 0
        assert "-0.0" not in capsys.readouterr().out


class TestSupersymmetry:
    def test_up_down_nonzero_spectra_agree(self):
        for fn in FIXTURES.values():
            K = fn()
            for products in (comb_products(K), whitney_products(K)):
                for q in range(K.dim):
                    eu = eigh(*dense_pencil(K, q, products[q],
                                            products[q + 1]),
                              eigvals_only=True)
                    ed = eigh(*down_pencil(K, q + 1, products[q + 1],
                                           products[q]),
                              eigvals_only=True)
                    nu = sorted(x for x in eu if x > 1e-8)
                    nd = sorted(x for x in ed if x > 1e-8)
                    assert len(nu) == len(nd)
                    assert np.allclose(nu, nd, rtol=1e-9, atol=1e-9)

    def test_lambda1_pairing_across_degrees(self):
        K = torus7()
        products = comb_products(K)
        s0 = lambda1_split(K, 0, products)
        s1 = lambda1_split(K, 1, products)
        assert s1.lambda1_d == pytest.approx(s0.lambda1_dstar, rel=1e-9)


class TestCharpolyGapBound:
    def test_c3_exact_value(self):
        K = circle(3)
        assert charpoly_gap_bound(K, 0) == Fraction(2, 3)

    def test_reciprocal_sum_matches_float_spectrum(self):
        for K, q in ((circle(3), 0), (tetrahedron_boundary(), 0),
                     (tetrahedron_boundary(), 1), (torus7(), 0)):
            bound = charpoly_gap_bound(K, q)
            d = to_float(K.boundary_matrix(q + 1)).T
            eigs = np.linalg.eigvalsh(d.T @ d)
            recip = sum(1 / x for x in eigs if x > 1e-8)
            assert abs(float(bound) - recip) < 1e-9
            lam1 = min(x for x in eigs if x > 1e-8)
            assert 1 / lam1 <= float(bound) + 1e-9

    def test_equals_charpoly_coefficient_ratio(self):
        # every fixture at q = 0, 1: projective_plane and klein_bottle carry
        # torsion; at q = 1 the covers' d_2 has more rows than columns, so
        # the trace is read from d_2^T d_2, bordered by the one 2-cycle
        covers = [genus2_cover(d) for d in (2, 3)]
        cases = [(fn(), q) for fn in FIXTURES.values() for q in range(2)]
        cases += [(K, q) for K in covers for q in range(2)]
        cases += [(torus_grid(5, 5), 1)]
        for K, q in cases:
            if q >= K.dim:
                continue
            assert charpoly_gap_bound(K, q) == charpoly_ratio(K, q)

    @pytest.mark.parametrize("name", ["torus", "projective_plane", "circle"])
    def test_two_components(self, name):
        """Two disjoint copies: b_0 = 2, so Z has two columns at q = 0 (and
        b_2 = 2 on the torus pair at q = 1, none on the projective planes);
        the spectrum doubles, and with it the reciprocal sum."""
        K = FIXTURES[name]()
        shift = max(v for (v,) in K.cells[0]) + 1
        tops = [list(c) for c in K.cells[K.dim]]
        pair = load_complex(tops + [[v + shift for v in c] for c in tops])
        assert betti_numbers(pair) == [2 * b for b in betti_numbers(K)]
        for q in range(K.dim):
            bound = charpoly_gap_bound(pair, q)
            assert bound == charpoly_ratio(pair, q)
            assert bound == 2 * charpoly_gap_bound(K, q)

    @pytest.mark.parametrize("d", [2, 3])
    def test_both_grams_give_one_trace(self, d):
        """tr((b b^T)^+) = tr((b^T b)^+), whichever side the bordered system
        is built on: b_0 kernel columns on one side, n_1 - rank on the
        other at q = 0."""
        K = genus2_cover(d)
        for q in range(K.dim):
            b = K.boundary_matrix(q + 1)
            assert spectra._reciprocal_sum(b) == \
                spectra._reciprocal_sum(b.transpose()) == \
                charpoly_gap_bound(K, q)

    @pytest.mark.parametrize("d", [2, 3])
    def test_benchmark_tower_covers(self, d):
        """The benchmark tower's seed-1 covers: both orientations of b give
        sympy's exact tr(A^+) in degrees 0 and 1."""
        K = bench_tower_covers(1)[d]
        for q in range(2):
            b = K.boundary_matrix(q + 1)
            assert spectra._reciprocal_sum(b) == \
                spectra._reciprocal_sum(b.transpose()) == \
                charpoly_gap_bound(K, q) == charpoly_ratio(K, q)

    def test_size_limit_and_degree_checks(self):
        K = torus7()
        with pytest.raises(ComplexError, match="out of range"):
            charpoly_gap_bound(K, 2)

    @pytest.mark.parametrize("q", [True, 1.0, 0.5, -1, 3])
    def test_degree_follows_the_integer_rule(self, q):
        # True returned the q = 1 bound 223/42; 1.0 and 0.5 a TypeError
        with pytest.raises(ComplexError):
            charpoly_gap_bound(torus7(), q)


class TestValidation:
    @pytest.mark.parametrize("q", [True, -1, 3, 0.5])
    def test_up_pencil_checks_its_degree(self, q):
        # True and -1 ended in an IndexError, 0.5 in a TypeError
        K = torus7()
        ips = comb_products(K)
        with pytest.raises(ComplexError):
            up_pencil(K, q, ips[1], ips[2])

    def test_up_pencil_checks_its_products(self):
        # a degree-0 product on the edges returned a 21 x 21 A beside a
        # 7 x 7 M
        K = torus7()
        ips = comb_products(K)
        for ip_q, ip_up in ((ips[0], ips[2]), (ips[1], ips[1]),
                            (ips[1], None)):
            with pytest.raises(SpectralError):
                up_pencil(K, 1, ip_q, ip_up)
        A, M = up_pencil(K, 2, ips[2], None)   # the top degree reads no ip_up
        assert A.shape == (14, 14) and M is ips[2] and M._dense is None

    def test_degree_out_of_range(self):
        K = circle(3)
        for f in (lambda1_split, coexact_gap):
            for q in (-1, 5):
                with pytest.raises(ComplexError, match="out of range"):
                    f(K, q, comb_products(K))

    @pytest.mark.parametrize("degree, size", [(0, 3), (1, 5), (2, 5), (2, 3)])
    def test_every_read_degree_is_checked(self, degree, size):
        # q = 1 on genus2 reads degrees 0, 1 and 2
        K = genus2_surface()
        for products in (comb_products(K), whitney_products(K)):
            products[degree] = InnerProduct.identity(size)
            for f in (lambda1_split,) + ((coexact_gap,) if degree else ()):
                with pytest.raises(SpectralError, match="mismatch"):
                    f(K, 1, products)

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_missing_degree_raises(self, degree):
        K = genus2_surface()
        products = comb_products(K)
        del products[degree]
        for f in (lambda1_split,) + ((coexact_gap,) if degree else ()):
            with pytest.raises(SpectralError, match="no inner product"):
                f(K, 1, products)

    def test_unread_degrees_are_not_needed(self):
        # d_0 = 0 on three isolated points: q = 0 reads only degree 0
        K = load_complex([(0,), (1,), (2,)])
        products = {0: InnerProduct.identity(3)}
        assert lambda1_split(K, 0, products).lambda1 is None
        assert coexact_gap(K, 0, products) == (None, None)

    def test_dimension_mismatch(self):
        K = circle(3)
        bad = {0: InnerProduct.identity(2),
               1: InnerProduct.identity(3)}
        with pytest.raises(SpectralError):
            lambda1_split(K, 0, bad)


@pytest.fixture
def sparse_gap(monkeypatch):
    """coexact_gap forced past its dense cutoff; records each eigsh call."""
    import scipy.sparse.linalg
    calls = []
    real = scipy.sparse.linalg.eigsh

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", recording)
    monkeypatch.setattr(spectra, "_DENSE_MAX", 0)
    return calls


def dense_dual_gap(K, q, products):
    """lambda_1^* in degree q = dim - 1 from the dense down-pencil (B, D) on
    (q+1)-cochains (helpers.down_pencil), whose positive spectrum is the
    degree-q up-spectrum: its eigenvalue number b_{q+1} from the bottom.
    The top-degree mass D is diagonal, so the pencil is the standard
    eigenproblem of D^{-1/2} B D^{-1/2}, helpers.down_gram with R = D^{1/2}."""
    D = products[q + 1]._csr()
    assert D.count_nonzero() == np.count_nonzero(D.diagonal())
    S = down_gram(K, q + 1, diags_array(np.sqrt(D.diagonal())), products[q])
    b = betti_numbers(K)[q + 1]
    return eigh(S, eigvals_only=True, subset_by_index=[b, b])[0]


class TestCoexactGap:
    def test_dense_path_is_lambda1_split(self):
        # below the cutoff the value is lambda1_split's, bit for bit
        for K, q, products in spectral_cases():
            assert K.n_cells(q) <= spectra._DENSE_MAX
            gap = coexact_gap(K, q, products)
            assert gap.lambda1 == lambda1_split(K, q, products).lambda1_dstar
            assert (gap.margin is None) == (gap.lambda1 is None)

    def test_sparse_path_on_fixtures(self, sparse_gap):
        for fn in FIXTURES.values():
            K = fn()
            for products in (comb_products(K), whitney_products(K)):
                for q in range(K.dim + 1):
                    sparse_gap.clear()
                    gap = coexact_gap(K, q, products)
                    expect = lambda1_split(K, q, products).lambda1_dstar
                    if expect is None:
                        assert gap == (None, None)
                        continue
                    assert gap.lambda1 == pytest.approx(expect, rel=1e-10)
                    assert 0 < gap.margin < 1e-9 * gap.lambda1
                    sparse = q in (0, K.dim - 1)
                    assert len(sparse_gap) == sparse
                    if sparse:
                        assert sparse_gap[0]["sigma"] == \
                            pytest.approx(-1e3 * gap.margin, rel=1e-15)

    @pytest.mark.parametrize("d", [5, 23, 53, 101])
    def test_sparse_path_on_covers(self, d, sparse_gap):
        K = genus2_cover(d)
        for products in (comb_products(K), whitney_products(K),
                         perturbed_whitney_products(K, d)):
            for q in (0, 1):
                gap = coexact_gap(K, q, products)
                if q == 1 and d == 101:       # a dense eigh of 3,939 rows
                    expect = dense_dual_gap(K, q, products)
                else:
                    expect = lambda1_split(K, q, products).lambda1_dstar
                assert gap.lambda1 == pytest.approx(expect, rel=1e-10)
        assert len(sparse_gap) == 6

    @pytest.mark.parametrize("change", [-1, 1])
    def test_zero_count_must_match_homology(self, change, monkeypatch):
        # eigsh returning b - 1 or b + 1 values at or below the margin
        import scipy.sparse.linalg
        real = scipy.sparse.linalg.eigsh

        def miscounted(*args, **kwargs):
            vals = np.sort(real(*args, **kwargs))
            b = kwargs["k"] - 1
            if change > 0:
                vals[b] = 0.0
            else:
                vals[b - 1] = vals[b]
            return vals

        monkeypatch.setattr(spectra, "_DENSE_MAX", 0)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", miscounted)
        for K, q in ((genus2_surface(), 1), (genus2_surface(), 0),
                     (torus7(), 1), (circle(5), 0)):
            for products in (comb_products(K), whitney_products(K)):
                with pytest.raises(SpectralError, match="margin"):
                    coexact_gap(K, q, products)

    def test_lanczos_failure_is_a_spectral_error(self, monkeypatch):
        import scipy.sparse.linalg
        from scipy.sparse.linalg import ArpackNoConvergence

        def stuck(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(spectra, "_DENSE_MAX", 0)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stuck)
        K = genus2_surface()
        with pytest.raises(SpectralError, match="Lanczos"):
            coexact_gap(K, 1, whitney_products(K))

    def test_never_reads_a_dense_matrix(self, sparse_gap):
        K = genus2_cover(23)
        for products in (comb_products(K), perturbed_whitney_products(K, 23)):
            for q in (0, 1):
                coexact_gap(K, q, products)
            assert all(ip._dense is None for ip in products.values())

    def test_seeded_and_repeatable(self):
        K = genus2_cover(53)
        products = perturbed_whitney_products(K, 53)
        assert coexact_gap(K, 1, products) == coexact_gap(K, 1, products)
