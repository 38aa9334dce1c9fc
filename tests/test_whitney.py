import math
import os
import random
import re
import subprocess
import sys
import textwrap
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh

import hodgecover
from hodgecover import ComplexError, GeometryError, build_cover, load_complex
from hodgecover import whitney
from hodgecover.surfaces import (FIXTURES, genus2_surface,
                                 tetrahedron_boundary, torus7, torus_grid)
from hodgecover.whitney import (ComplexGeometry, InnerProduct,
                                norm_equivalence_constants,
                                whitney_mass_matrix)

from helpers import (exact_mass_blocks, one_block, random_cyclic_cover,
                     reference_gram, reference_mass_blocks,
                     reference_mass_matrix)


# ---------------------------------------------------------------------------
# quadrature oracle: embed the simplex, expand Whitney forms in coordinate
# wedge components, integrate with a rule exact for quadratics


def embed(geometry, top):
    G = reference_gram(geometry, top)
    return np.linalg.cholesky(G)  # rows: edge vectors from vertex 0


def degree2_rule(n):
    """(barycentric points, weight fractions) exact for quadratics."""
    if n == 2:
        pts = [(0.5, 0.5, 0.0), (0.5, 0.0, 0.5), (0.0, 0.5, 0.5)]
        return pts, [1 / 3] * 3
    if n == 3:
        a = (5 + 3 * math.sqrt(5)) / 20
        b = (5 - math.sqrt(5)) / 20
        pts = []
        for k in range(4):
            p = [b] * 4
            p[k] = a
            pts.append(tuple(p))
        return pts, [1 / 4] * 4
    raise NotImplementedError


def local_mass_oracle(geometry, top, q):
    n = len(top) - 1
    E = embed(geometry, top)  # n x n, row i-1 = vertex i - vertex 0
    grads = np.zeros((n + 1, n))
    inv = np.linalg.inv(E.T)  # P^{-1} with P columns the edge vectors
    for i in range(1, n + 1):
        grads[i] = inv[i - 1, :]
    grads[0] = -grads[1:].sum(axis=0)
    vol = abs(np.linalg.det(E)) / math.factorial(n)
    faces = list(combinations(range(n + 1), q + 1))
    axes = list(combinations(range(n), q))
    pts, wts = degree2_rule(n)

    def components(face, lam):
        out = np.zeros(len(axes))
        for k, vk in enumerate(face):
            rest = [v for v in face if v != vk]
            Gm = grads[rest]  # q x n
            for s, ax in enumerate(axes):
                sub = Gm[:, ax]
                d = np.linalg.det(sub) if q else 1.0
                out[s] += (-1) ** k * lam[vk] * d
        return math.factorial(q) * out

    m = len(faces)
    M = np.zeros((m, m))
    for lam, w in zip(pts, wts):
        vals = [components(f, lam) for f in faces]
        for a in range(m):
            for b in range(m):
                M[a, b] += w * vol * vals[a] @ vals[b]
    return M


def assemble_oracle(K, geometry, q):
    nq = K.n_cells(q)
    M = np.zeros((nq, nq))
    for top in K.cells[K.dim]:
        faces = list(combinations(range(len(top)), q + 1))
        Mloc = local_mass_oracle(geometry, top, q)
        idx = [K.cell_index[q][tuple(top[i] for i in f)] for f in faces]
        for a, ga in enumerate(idx):
            for b, gb in enumerate(idx):
                M[ga, gb] += Mloc[a, b]
    return M


def random_triangle_geometry(K, rng):
    """Lengths a, b, c of a triangle: c lies 0.1 inside |a - b| < c < a + b."""
    a, b = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    c = rng.uniform(abs(a - b) + 0.1, a + b - 0.1)
    return ComplexGeometry(K, {(0, 1): a, (0, 2): b, (1, 2): c})


class TestMassMatrices:
    def test_vertex_mass_closed_form_triangle(self):
        K = load_complex([(0, 1, 2)])
        geo = ComplexGeometry.uniform(K, 1.0)
        area = math.sqrt(3) / 4
        expect = area / 12 * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
        got = whitney_mass_matrix(K, geo, 0).matrix
        assert np.allclose(got, expect, atol=1e-14)

    def test_top_mass_is_inverse_volume(self):
        K = load_complex([(0, 1, 2)])
        geo = ComplexGeometry.uniform(K, 2.0)
        area = math.sqrt(3)
        assert np.allclose(whitney_mass_matrix(K, geo, 2).matrix,
                           [[1 / area]], atol=1e-12)

    def test_against_quadrature_oracle_triangles(self):
        rng = random.Random(0)
        K = load_complex([(0, 1, 2)])
        for _ in range(10):
            geo = random_triangle_geometry(K, rng)
            for q in range(3):
                got = whitney_mass_matrix(K, geo, q).matrix
                expect = local_mass_oracle(geo, (0, 1, 2), q)
                assert np.allclose(got, expect, rtol=1e-10, atol=1e-12)

    def test_against_quadrature_oracle_tetrahedron(self):
        K = load_complex([(0, 1, 2, 3)])
        rng = np.random.default_rng(3)
        geos = [ComplexGeometry.uniform(K, 1.0)]
        for _ in range(4):
            P = rng.uniform(-1.0, 1.0, (4, 3))
            geos.append(ComplexGeometry(
                K, {(i, j): float(np.linalg.norm(P[i] - P[j]))
                    for i, j in combinations(range(4), 2)}))
        for geo in geos:
            for q in range(4):
                got = whitney_mass_matrix(K, geo, q).matrix
                expect = local_mass_oracle(geo, (0, 1, 2, 3), q)
                assert np.allclose(got, expect, rtol=1e-10, atol=1e-12)

    def test_assembled_surface_against_oracle(self):
        K = torus7()
        geo = ComplexGeometry.uniform(K)
        for q in range(3):
            got = whitney_mass_matrix(K, geo, q).matrix
            expect = assemble_oracle(K, geo, q)
            assert np.allclose(got, expect, rtol=1e-10, atol=1e-12)

    def test_spd_on_fixtures(self):
        for K in (tetrahedron_boundary(), torus7()):
            geo = ComplexGeometry.uniform(K)
            for q in range(K.dim + 1):
                M = whitney_mass_matrix(K, geo, q).matrix
                assert np.allclose(M, M.T)
                assert np.min(np.linalg.eigvalsh(M)) > 0


class TestInnerProduct:
    def test_rejects_asymmetric(self):
        with pytest.raises(GeometryError, match="not symmetric"):
            one_block([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(GeometryError, match="not symmetric"):
            InnerProduct(2, [[0, 1], [1, 0]],
                         [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.5], [0.0, 1.0]]])

    def test_rejects_indefinite(self):
        with pytest.raises(np.linalg.LinAlgError):
            one_block([[1.0, 0.0], [0.0, -1.0]])
        # each block is certified, not only their sum, which is 1 here
        with pytest.raises(np.linalg.LinAlgError):
            InnerProduct(1, [[0], [0]], [[[2.0]], [[-1.0]]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(GeometryError, match="not finite"):
            one_block([[bad]])
        with pytest.raises(GeometryError, match="not finite"):
            one_block([[1.0, bad], [bad, 1.0]])
        with pytest.raises(GeometryError, match="not finite"):
            InnerProduct(2, [[0], [1]], [[[1.0]], [[bad]]])

    @pytest.mark.parametrize("glob, B", [
        (np.arange(2), np.ones((2, 1, 1))),
        (np.zeros((1, 2), dtype=int), np.eye(2)),
        (np.zeros((1, 2), dtype=int), np.ones((1, 2, 3))),
        (np.zeros((2, 1), dtype=int), np.ones((1, 1, 1))),
        (np.zeros((1, 1)), np.ones((1, 1, 1)))],
        ids=["flat_cells", "flat_blocks", "oblong", "counts_differ",
             "float_cells"])
    def test_rejects_bad_shapes(self, glob, B):
        with pytest.raises(GeometryError, match="must be \\(T, m, m\\)"):
            InnerProduct(1, glob, B)

    @pytest.mark.parametrize("cell", [-1, 2, 2 ** 40])
    def test_rejects_a_cell_out_of_range(self, cell):
        with pytest.raises(GeometryError, match="must lie in 0..1"):
            InnerProduct(2, [[0], [1], [cell]], np.ones((3, 1, 1)))

    def test_rejects_a_cell_in_no_block(self):
        with pytest.raises(GeometryError, match="cell 1 lies in no block"):
            InnerProduct(3, [[0], [2]], np.ones((2, 1, 1)))
        with pytest.raises(GeometryError, match="cell 0 lies in no block"):
            InnerProduct(1, np.zeros((0, 1), dtype=int), np.ones((0, 1, 1)))


class TestGeometry:
    def test_missing_edge_rejected(self):
        K = torus7()
        with pytest.raises(ComplexError, match="no length for edge"):
            ComplexGeometry(K, {(1, 2): 1.0})

    @pytest.mark.parametrize("key", [(0, 99), (99, 0), (1, 1), (1, 2, 3),
                                     "1,2"])
    def test_key_naming_no_edge_rejected(self, key):
        K = torus7()
        table = {e: 1.0 for e in K.cells[1]} | {key: 5.0}
        with pytest.raises(ComplexError, match="names no edge"):
            ComplexGeometry(K, table)

    @pytest.mark.parametrize("length", [
        math.nan, math.inf, -math.inf, 0.0, -1.0, 0, True, "1.0", None,
        10 ** 400], ids=["nan", "inf", "minus_inf", "zero", "negative",
                         "zero_int", "bool", "string", "none", "huge_int"])
    def test_length_not_finite_and_positive_rejected(self, length):
        K = torus7()
        table = {e: 1.0 for e in K.cells[1]} | {(2, 1): length}
        with pytest.raises(ComplexError, match="edge \\(1, 2\\) has length"):
            ComplexGeometry(K, table)

    @pytest.mark.parametrize("K", [torus7(), torus_grid(3, 3)],
                             ids=["same_edge_labels", "other_edges"])
    def test_geometry_of_another_complex_rejected(self, K):
        # torus7's edges are labelled as some of genus2's, so a product
        # would read genus2's lengths; torus_grid(3, 3) has edges it lacks
        geo = ComplexGeometry.uniform(genus2_surface())
        for q in range(3):
            with pytest.raises(ComplexError, match="another complex"):
                whitney_mass_matrix(K, geo, q)

    def test_geometry_of_an_equal_complex_accepted(self):
        # equal cells, not the same object: a geometry made on one build of
        # a cover serves another build of the same spec
        spec = random_cyclic_cover(genus2_surface(), 3, random.Random(3))
        first, second = (build_cover(spec).complex for _ in range(2))
        geo = ComplexGeometry.uniform(first)
        assert np.array_equal(whitney_mass_matrix(second, geo, 1).matrix,
                              whitney_mass_matrix(first, geo, 1).matrix)

    def test_table_in_edge_order_from_either_key_order(self):
        K = torus7()
        geo = ComplexGeometry(K, {(v, u): k + 1 for k, (u, v)
                                  in enumerate(reversed(K.cells[1]))})
        assert list(geo.edge_lengths) == K.cells[1]
        assert list(geo.edge_lengths.values()) == \
            [float(x) for x in range(len(K.cells[1]), 0, -1)]

    def test_total_volume(self):
        K = torus7()
        geo = ComplexGeometry.uniform(K)
        assert abs(geo.total_volume() - 14 * math.sqrt(3) / 4) < 1e-12

    def test_zero_dimensional_complex(self):
        # no edges, so no simplex geometry: one ComplexError for both
        K = load_complex([(0,), (1,)])
        geo = ComplexGeometry.uniform(K)
        with pytest.raises(ComplexError, match="dimension >= 1"):
            geo.total_volume()
        with pytest.raises(ComplexError, match="dimension >= 1"):
            whitney_mass_matrix(K, geo, 0)


def whitney_norm(x, ip):
    """sqrt(x^T M x) through the blocks, without the dense matrix."""
    return math.sqrt(x @ ip.apply(x))


class TestNorms:
    def test_equivalence_constants_sandwich(self):
        K = torus7()
        geo = ComplexGeometry.uniform(K)
        lo, hi = norm_equivalence_constants(K, geo, 1)
        assert 0 < lo < hi
        ip = whitney_mass_matrix(K, geo, 1)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal(K.n_cells(1))
            w, e = whitney_norm(x, ip), np.linalg.norm(x)
            assert lo * e - 1e-9 <= w <= hi * e + 1e-9

    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_whitney_norm_reads_no_dense_matrix(self, q):
        K = genus2_surface()
        geo = perturbed_geometry(K, 7)
        ip = whitney_mass_matrix(K, geo, q)
        M = whitney_mass_matrix(K, geo, q).matrix
        x = np.random.default_rng(q).standard_normal(K.n_cells(q))
        w = whitney_norm(x, ip)
        assert w ** 2 == pytest.approx(x @ M @ x, rel=1e-12)
        assert ip._dense is None


# ---------------------------------------------------------------------------
# batched assembly against the top-by-top reference


def perturbed_geometry(K, seed):
    rng = random.Random(seed)
    return ComplexGeometry(K, {e: rng.uniform(0.9, 1.1) for e in K.cells[1]})


def geometry_cases():
    """(name, K, geometry): every fixture with unit and perturbed lengths,
    random embedded tetrahedra (one and two sharing a face), and seeded
    degree-2 and degree-3 covers of genus2."""
    for name, build in sorted(FIXTURES.items()):
        K = build()
        yield name, K, ComplexGeometry.uniform(K)
        yield name + "/perturbed", K, perturbed_geometry(K, len(name))
    rng = np.random.default_rng(5)
    for cells in ([(0, 1, 2, 3)], [(0, 1, 2, 3), (1, 2, 3, 4)]):
        K = load_complex(cells)
        for k in range(4):
            P = rng.uniform(-1.0, 1.0, (K.n_cells(0), 3))
            yield f"tetrahedra{len(cells)}/{k}", K, ComplexGeometry(
                K, {(i, j): float(np.linalg.norm(P[i] - P[j]))
                    for i, j in K.cells[1]})
    base = genus2_surface()
    for d in (2, 3):
        K = build_cover(random_cyclic_cover(base, d, random.Random(d))).complex
        yield f"genus2/{d}", K, ComplexGeometry.uniform(K)
        yield f"genus2/{d}/perturbed", K, perturbed_geometry(K, d)


GEOMETRY_CASES = list(geometry_cases())


@pytest.mark.parametrize("name, K, geo", GEOMETRY_CASES,
                         ids=[c[0] for c in GEOMETRY_CASES])
def test_mass_matrix_matches_reference_assembly(name, K, geo):
    for q in range(K.dim + 1):
        got = whitney_mass_matrix(K, geo, q).matrix
        expect = reference_mass_matrix(K, geo, q)
        assert type(got) is np.ndarray and got.shape == expect.shape
        assert np.array_equal(got, got.T)
        assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))


def block_errors(B, expect):
    """The largest entry error of each block, relative to the block."""
    assert B.shape == expect.shape
    return np.abs(B - expect).max(axis=(1, 2)) / np.abs(expect).max(axis=(1, 2))


@pytest.mark.parametrize("name, K, geo", GEOMETRY_CASES,
                         ids=[c[0] for c in GEOMETRY_CASES])
def test_blocks_match_the_batched_lapack_assembly(name, K, geo):
    G, vol = whitney._top_grams(K, geo)
    for q in range(K.dim + 1):
        got = whitney._assemble(K, q, G, vol)._blocks[1]
        assert block_errors(got, reference_mass_blocks(K, q, G, vol)).max() \
            <= 1e-14, q


@pytest.mark.parametrize("seed", range(10))
def test_blocks_on_random_tetrahedra_as_accurate_as_lapack(seed):
    # three tetrahedra on uniform points of a cube, many of them thin (cond
    # G up to 4e9 here): against 50-digit blocks from the same G and vol,
    # every degree is as accurate as the batched LAPACK assembly, which a
    # Leibniz sum of the 3x3 minors of H is not (1e-11 against 8e-14)
    rng = np.random.default_rng(100 + seed)
    K = load_complex([(0, 1, 2, 3), (1, 2, 3, 4), (0, 1, 2, 5)])
    P = rng.uniform(-1.0, 1.0, (K.n_cells(0), 3))
    geo = ComplexGeometry(K, {(i, j): float(np.linalg.norm(P[i] - P[j]))
                              for i, j in K.cells[1]})
    G, vol = whitney._top_grams(K, geo)
    for q in range(4):
        exact = exact_mass_blocks(K, q, G, vol)
        got = block_errors(whitney._assemble(K, q, G, vol)._blocks[1], exact)
        lapack = block_errors(reference_mass_blocks(K, q, G, vol), exact)
        assert got.max() <= 4 * lapack.max() + 1e-15, (q, got, lapack)


@pytest.mark.parametrize("name, K, geo", GEOMETRY_CASES,
                         ids=[c[0] for c in GEOMETRY_CASES])
def test_total_volume_is_the_top_by_top_sum(name, K, geo):
    # sqrt(det G) / n! of each top's law-of-cosines Gram, summed in top order
    n, expect = K.dim, 0.0
    for top in K.cells[n]:
        expect += math.sqrt(np.linalg.det(reference_gram(geo, top))) \
            / math.factorial(n)
    assert geo.total_volume() == expect


@pytest.mark.parametrize("name, K, geo", GEOMETRY_CASES,
                         ids=[c[0] for c in GEOMETRY_CASES])
def test_norm_constants_match_dense_extremes(name, K, geo):
    for q in range(K.dim + 1):
        eigs = eigh(reference_mass_matrix(K, geo, q), eigvals_only=True)
        lo, hi = norm_equivalence_constants(K, geo, q)
        assert lo == pytest.approx(math.sqrt(eigs[0]), rel=1e-12)
        assert hi == pytest.approx(math.sqrt(eigs[-1]), rel=1e-12)
        assert norm_equivalence_constants(K, geo, q) == (lo, hi)


def test_norm_constants_on_degree_23_cover():
    K = build_cover(random_cyclic_cover(genus2_surface(), 23,
                                        random.Random(23))).complex
    geo = perturbed_geometry(K, 23)
    eigs = eigh(reference_mass_matrix(K, geo, 1), eigvals_only=True)
    lo, hi = norm_equivalence_constants(K, geo, 1)
    assert lo == pytest.approx(math.sqrt(eigs[0]), rel=1e-12)
    assert hi == pytest.approx(math.sqrt(eigs[-1]), rel=1e-12)
    assert norm_equivalence_constants(K, geo, 1) == (lo, hi)


@pytest.mark.parametrize("d, q", [(23, 1), (23, 2), (53, 0)])
def test_sparse_norm_constants_match_dense_eigvalsh(d, q):
    K = build_cover(random_cyclic_cover(genus2_surface(), d,
                                        random.Random(d))).complex
    assert K.n_cells(q) > whitney._DENSE_MAX
    for geo in (ComplexGeometry.uniform(K), perturbed_geometry(K, d)):
        eigs = np.linalg.eigvalsh(reference_mass_matrix(K, geo, q))
        lo, hi = norm_equivalence_constants(K, geo, q)
        assert lo == pytest.approx(math.sqrt(eigs[0]), rel=1e-13)
        assert hi == pytest.approx(math.sqrt(eigs[-1]), rel=1e-13)


BIG_TORUS = torus_grid(32, 32)     # above the dense crossover in every degree


@pytest.mark.parametrize("name", ["sphere", "torus_grid"])
def test_norm_constants_find_extremes_orthogonal_to_ones(name):
    # on these vertex-transitive complexes the all-ones vector is an
    # eigenvector of the vertex mass matrix, so a Lanczos run started from
    # it would never see the smallest eigenvalue; the torus has more vertices
    # than whitney._DENSE_MAX, so it takes the Lanczos path
    K = tetrahedron_boundary() if name == "sphere" else BIG_TORUS
    geo = ComplexGeometry.uniform(K)
    eigs, V = eigh(reference_mass_matrix(K, geo, 0))
    assert (K.n_cells(0) > whitney._DENSE_MAX) == (name == "torus_grid")
    assert abs(np.ones(K.n_cells(0)) @ V[:, 0]) < 1e-12
    lo, hi = norm_equivalence_constants(K, geo, 0)
    assert lo == pytest.approx(math.sqrt(eigs[0]), rel=1e-12)
    assert hi == pytest.approx(math.sqrt(eigs[-1]), rel=1e-12)


def test_norm_constants_on_a_degenerate_top_cluster():
    # on unit lengths lambda_max has multiplicity about n/3 in degree 1
    K = BIG_TORUS
    geo = ComplexGeometry.uniform(K)
    for q in range(3):
        assert K.n_cells(q) > whitney._DENSE_MAX
        eigs = eigh(reference_mass_matrix(K, geo, q), eigvals_only=True)
        lo, hi = norm_equivalence_constants(K, geo, q)
        assert lo == pytest.approx(math.sqrt(eigs[0]), rel=1e-12)
        assert hi == pytest.approx(math.sqrt(eigs[-1]), rel=1e-12)
        assert norm_equivalence_constants(K, geo, q) == (lo, hi)


@pytest.mark.parametrize("extra", [0, 1])
def test_norm_constants_at_the_dense_crossover(extra):
    # a strip of triangles (i, i+1, i+2) with _DENSE_MAX + extra vertices
    n = whitney._DENSE_MAX + extra
    K = load_complex([(i, i + 1, i + 2) for i in range(n - 2)])
    geo = perturbed_geometry(K, n)
    assert K.n_cells(0) == n
    eigs = eigh(reference_mass_matrix(K, geo, 0), eigvals_only=True)
    lo, hi = norm_equivalence_constants(K, geo, 0)
    assert lo == pytest.approx(math.sqrt(eigs[0]), rel=1e-12)
    assert hi == pytest.approx(math.sqrt(eigs[-1]), rel=1e-12)


@pytest.fixture
def sparse_path(monkeypatch):
    """Send norm_equivalence_constants down its Lanczos path from two rows,
    the least ARPACK takes; the list collects the shifts it passes to eigsh."""
    import scipy.sparse.linalg
    eigsh, shifts = scipy.sparse.linalg.eigsh, []

    def recording(*args, **kwargs):
        if "sigma" in kwargs:
            shifts.append(kwargs["sigma"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", recording)
    monkeypatch.setattr(whitney, "_DENSE_MAX", 1)
    return shifts


def shift_and_constants(K, geo, q, shifts):
    """The one shift of a Lanczos-path call, checked to lie below the
    spectrum of the mass matrix, and the call's constants."""
    shifts.clear()
    lo, hi = norm_equivalence_constants(K, geo, q)
    M = whitney_mass_matrix(K, geo, q).matrix
    (sigma,) = shifts
    assert sigma > 0
    np.linalg.cholesky(M - sigma * np.eye(len(M)))  # iff sigma < lambda_min
    return M, lo, hi


@pytest.mark.parametrize("name, K, geo", GEOMETRY_CASES,
                         ids=[c[0] for c in GEOMETRY_CASES])
def test_lanczos_path_shift_and_constants(name, K, geo, sparse_path):
    for q in range(K.dim + 1):
        if K.n_cells(q) < 2:        # ARPACK needs two rows
            continue
        M, lo, hi = shift_and_constants(K, geo, q, sparse_path)
        eigs = np.linalg.eigvalsh(M)
        assert lo == pytest.approx(math.sqrt(eigs[0]), rel=1e-12)
        assert hi == pytest.approx(math.sqrt(eigs[-1]), rel=1e-12)


@pytest.mark.parametrize("d", [23, 53, 101])
def test_certified_shift_on_large_covers(d, sparse_path):
    K = build_cover(random_cyclic_cover(genus2_surface(), d,
                                        random.Random(d))).complex
    for geo in (ComplexGeometry.uniform(K), perturbed_geometry(K, d)):
        for q in range(3):
            shift_and_constants(K, geo, q, sparse_path)


@pytest.mark.parametrize("q", [1, 2])
def test_shift_stays_below_an_attained_block_bound(q, sparse_path):
    # on unit lengths the least eigenvalue of M_1 and M_2 is the block bound
    # itself, so the shift lies only 2^-20 of it below lambda_min
    K = build_cover(random_cyclic_cover(genus2_surface(), 23,
                                        random.Random(23))).complex
    M, lo, _ = shift_and_constants(K, ComplexGeometry.uniform(K), q,
                                   sparse_path)
    least = np.linalg.eigvalsh(M)[0]
    (sigma,) = sparse_path
    assert sigma / (1 - 2 ** -20) == pytest.approx(least, rel=1e-14)
    assert sigma < least and lo == pytest.approx(math.sqrt(least), rel=1e-13)


@pytest.mark.parametrize("end", ["bottom", "top"])
def test_lanczos_failure_is_a_numerical_failure(end, monkeypatch, tmp_path,
                                                capsys):
    """An ARPACK failure at either end of the mass spectrum of
    torus_grid(16, 16) (768 edges, past _DENSE_MAX) names that end, and the
    CLI reports it as a numerical failure (exit 3)."""
    import scipy.sparse.linalg
    from scipy.sparse.linalg import ArpackNoConvergence

    from hodgecover.cli import main
    eigsh = scipy.sparse.linalg.eigsh

    def stuck(*args, **kwargs):
        if ("sigma" in kwargs) == (end == "bottom"):
            raise ArpackNoConvergence("no convergence", [], [])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stuck)
    K = torus_grid(16, 16)
    assert K.n_cells(1) > whitney._DENSE_MAX
    with pytest.raises(np.linalg.LinAlgError,
                       match=f"Lanczos for the {end} of the degree-1 mass"):
        norm_equivalence_constants(K, ComplexGeometry.uniform(K), 1)
    path = tmp_path / "grid.json"
    path.write_text(str([list(c) for c in K.cells[2]]))
    assert main(["norms", "constants", str(path), "--degree", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"numerical failure: Lanczos for the {end}")


def test_mass_matrix_certificate_needs_every_cell_in_a_top():
    K = load_complex([(0, 1, 2), (3, 4)])
    geo = ComplexGeometry.uniform(K, 1.0)
    for q in (0, 1):
        with pytest.raises(ComplexError, match="lies in no top cell"):
            whitney_mass_matrix(K, geo, q)
    assert whitney_mass_matrix(K, geo, 2).matrix.shape == (1, 1)


BAD_TRIANGLES = {"degenerate": (1.0, 1.0, 2.0), "zero": (1.0, 1.0, 0.0),
                 "negative": (1.0, 1.0, -1.0)}


@pytest.mark.parametrize("name", BAD_TRIANGLES)
def test_bad_lengths_raise_geometry_error(name):
    K = load_complex([(0, 1, 2), (1, 2, 3)])
    table = {(0, 1): 1.0, (1, 3): 1.0, (2, 3): 1.0}
    table.update(zip([(0, 2), (1, 2), (0, 1)], BAD_TRIANGLES[name]))
    if name != "degenerate":    # bad input: no geometry is made of it
        with pytest.raises(ComplexError, match="finite and positive"):
            ComplexGeometry(K, table)
        return
    geo = ComplexGeometry(K, table)
    for q in range(3):
        for f in (whitney_mass_matrix, norm_equivalence_constants):
            with pytest.raises(GeometryError, match="nondegenerate"):
                f(K, geo, q)
    with pytest.raises(GeometryError, match="nondegenerate"):
        geo.total_volume()


@pytest.mark.parametrize("shift", [2 ** 70, -2 ** 70], ids=["plus", "minus"])
def test_any_integer_labels(shift):
    K = torus7()
    L = load_complex([[v + shift for v in c] for c in K.cells[2]])
    lengths = perturbed_geometry(K, 3).edge_lengths
    geo = ComplexGeometry(L, {(u + shift, v + shift): x
                              for (u, v), x in lengths.items()})
    for q in range(3):
        assert np.array_equal(whitney_mass_matrix(L, geo, q).matrix,
                              whitney_mass_matrix(K, perturbed_geometry(K, 3),
                                                  q).matrix)
    u, v = L.cells[1][0]
    with pytest.raises(TypeError):      # the checked table is read-only
        geo.edge_lengths[(u, v)] = 0.0
    with pytest.raises(ComplexError) as exc:
        ComplexGeometry(L, dict(geo.edge_lengths) | {(v, u): 0.0})
    assert str(exc.value) == \
        f"edge {(u, v)} has length 0.0; lengths must be finite and positive"


def test_mass_matrix_certificate_rejects_an_indefinite_block(monkeypatch):
    grams = whitney._top_grams

    def flipped(*args):       # a negative volume makes one block negative
        G, vol = grams(*args)
        return G, vol * np.where(np.arange(len(vol)), 1, -1)

    monkeypatch.setattr(whitney, "_top_grams", flipped)
    K = torus7()
    geo = ComplexGeometry.uniform(K)
    for q in range(3):
        with pytest.raises(np.linalg.LinAlgError):
            whitney_mass_matrix(K, geo, q)
    with pytest.raises(np.linalg.LinAlgError):
        whitney.whitney_products(K, geo)


def test_bad_lengths_raise_under_python_O():
    code = textwrap.dedent(f"""
        from hodgecover import (ComplexError, ComplexGeometry, GeometryError,
                                load_complex)
        from hodgecover.whitney import whitney_mass_matrix
        print(__debug__)
        K = load_complex([(0, 1, 2)])
        for lengths in {list(BAD_TRIANGLES.values())!r}:
            try:
                geo = ComplexGeometry(K, dict(zip([(0, 1), (0, 2), (1, 2)],
                                                  lengths)))
                whitney_mass_matrix(K, geo, 1)
            except (ComplexError, GeometryError):
                print("rejected")
        """)
    src = Path(hodgecover.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["False"] + ["rejected"] * 3


@pytest.mark.parametrize("length, where", [
    (math.inf, "one"), (1e200, "one"), (1e100, "all"), (1e160, "all")],
    ids=["inf", "square_overflows", "determinant_overflows", "all_huge"])
def test_overflowing_lengths_name_the_top_without_warnings(length, where):
    """An infinite edge length is rejected as input.  A finite one whose
    square, or a Gram whose determinant, overflows raises GeometryError
    naming the first such top, and numpy warns nothing (the test run turns
    RuntimeWarning into an error)."""
    K = torus7()
    table = {e: length if where == "all" or e == K.cells[1][0] else 1.0
             for e in K.cells[1]}
    if length == math.inf:      # not finite: no geometry is made of it
        with pytest.raises(ComplexError, match="finite and positive"):
            ComplexGeometry(K, table)
        return
    geo = ComplexGeometry(K, table)
    first = next(t for t in K.cells[2] if where == "all"
                 or set(K.cells[1][0]) <= set(t))
    match = re.escape(f"edge-vector Gram of top cell {first} is not finite")
    for q in range(3):
        for f in (whitney_mass_matrix, norm_equivalence_constants):
            with pytest.raises(GeometryError, match=match):
                f(K, geo, q)


# ---------------------------------------------------------------------------
# the dense view: built on first read, from the blocks or as the unit matrix


def traced_peak(fn):
    import tracemalloc
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_no_dense_matrix_until_read():
    # beyond the local blocks, whose O(tops) work is the same either way,
    # the mass matrix allocates next to nothing until .matrix is read
    K = build_cover(random_cyclic_cover(genus2_surface(), 23,
                                        random.Random(23))).complex
    geo = perturbed_geometry(K, 23)
    whitney_mass_matrix(K, geo, 1)      # warm the complex's index tables
    for q in range(3):
        n = K.n_cells(q)
        _, blocks = traced_peak(
            lambda: whitney._assemble(K, q, *whitney._top_grams(K, geo)))
        ip, peak = traced_peak(lambda: whitney_mass_matrix(K, geo, q))
        assert peak - blocks < 0.1 * n * n * 8, q
        assert ip._dense is None
        M, peak = traced_peak(lambda: ip.matrix)
        assert peak >= n * n * 8 and ip._dense is M
    ip, peak = traced_peak(lambda: InnerProduct.identity(897))
    assert peak < 0.1 * 897 * 897 * 8
    assert ip.size == 897 and ip._dense is None
    assert ip._csr().nnz == 897 and ip._dense is None
    assert np.array_equal(ip.diagonal(), np.ones(897)) and ip._dense is None
    assert np.array_equal(ip.matrix, np.eye(897))


@pytest.mark.parametrize("name, K, geo", GEOMETRY_CASES,
                         ids=[c[0] for c in GEOMETRY_CASES])
def test_dense_view_is_the_assembly_read_once(name, K, geo):
    for q in range(K.dim + 1):
        n = K.n_cells(q)
        ip = whitney_mass_matrix(K, geo, q)
        assert ip.size == n and ip._dense is None
        M = ip.matrix
        glob, B = ip._blocks
        assert glob.shape == (K.n_cells(K.dim), math.comb(K.dim + 1, q + 1))
        expect = np.zeros((n, n))
        np.add.at(expect, (glob[:, :, None], glob[:, None, :]), B)
        assert np.array_equal(M, expect)
        assert ip.matrix is M
        assert np.array_equal(ip._csr().toarray(), M)
        assert np.array_equal(ip.diagonal(), np.diag(M))
    top = whitney_mass_matrix(K, geo, K.dim)._csr()
    n = K.n_cells(K.dim)
    assert top.nnz == n
    assert np.array_equal(top.tocoo().row, top.tocoo().col)


def test_checked_matrix_keeps_its_symmetrized_copy():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    ip = one_block(A)
    assert ip.size == 2 and ip._dense is None and ip.matrix is ip.matrix
    assert np.array_equal(ip.matrix, A) and ip.matrix is not A
    assert np.array_equal(ip._csr().toarray(), A)
    assert np.array_equal(ip.diagonal(), [2.0, 3.0])
    near = one_block([[1.0, 1e-13], [0.0, 1.0]])     # within 1e-12
    assert np.array_equal(near.matrix, [[1.0, 5e-14], [5e-14, 1.0]])
    assert one_block(np.zeros((0, 0))).matrix.shape == (0, 0)
    for bad in (np.ones(3), np.ones((2, 3))):
        with pytest.raises(GeometryError, match="must be"):
            one_block(bad)


@pytest.mark.parametrize("name, K, geo", GEOMETRY_CASES,
                         ids=[c[0] for c in GEOMETRY_CASES])
def test_products_are_the_mass_matrices_bit_for_bit(name, K, geo):
    products = whitney.whitney_products(K, geo)
    assert list(products) == list(range(K.dim + 1))
    for q, ip in products.items():
        one = whitney_mass_matrix(K, geo, q)
        assert ip.size == one.size == K.n_cells(q)
        for a, b in zip(ip._blocks, one._blocks):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
