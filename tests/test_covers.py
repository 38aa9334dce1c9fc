import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hodgecover.covers
from hodgecover import (CoverError, Graph, PermutationCoverSpec, betti_numbers,
                        build_cover, dual_graph, graph_diameter,
                        shortest_path_tree, tree_fundamental_domain)
from hodgecover.covers import _orbit_sources
from hodgecover.surfaces import (FIXTURES, circle, genus2_surface,
                                 tetrahedron_boundary, torus7)

from helpers import (adjacency, brute_force_diameter, composite_cover,
                     edge_labels, edge_set, figure_eight, is_transitive,
                     permutation_schreier_graph, random_cover_specs,
                     random_cyclic_cover, reference_build_cover,
                     reference_graph_diameter, reference_shortest_path_tree,
                     word_sheet_action, word_tile_action)


def cyclic_circle_spec(n=3, d=3):
    K = circle(n)
    ident = tuple(range(d))
    shift = tuple((s + 1) % d for s in range(d))
    perms = {}
    for k, (i, j) in enumerate(sorted(e for e in K.facet_adjacencies()
                                      if e[0] < e[1])):
        perms[(i, j)] = shift if k == 0 else ident
    return PermutationCoverSpec(K, d, perms)


class TestSpecValidation:
    def test_bad_permutation_rejected(self):
        K = circle(3)
        with pytest.raises(CoverError):
            PermutationCoverSpec(K, 3, {(0, 1): (0, 0, 1),
                                        (0, 2): (0, 1, 2),
                                        (1, 2): (0, 1, 2)})

    def test_missing_adjacency_rejected(self):
        K = circle(3)
        with pytest.raises(CoverError):
            PermutationCoverSpec(K, 2, {(0, 1): (1, 0)})

    def test_non_inverse_reverse_rejected(self):
        K = circle(3)
        with pytest.raises(CoverError):
            PermutationCoverSpec(K, 3, {(0, 1): (1, 2, 0), (1, 0): (1, 2, 0),
                                        (0, 2): (0, 1, 2), (1, 2): (0, 1, 2)})

    def test_reverse_filled_with_inverse(self):
        spec = cyclic_circle_spec()
        for (i, j), p in spec.perms.items():
            q = spec.perms[(j, i)]
            assert all(q[p[s]] == s for s in range(3))

    def test_integral_floats_read_as_ints(self):
        K = circle(3)
        for degree, swap in ((2, (1.0, 0.0)), (2.0, (1, 0))):
            spec = PermutationCoverSpec(K, degree, {(0, 1): swap,
                                                    (0, 2): (0, 1),
                                                    (1, 2): (0, 1)})
            assert type(spec.degree) is int and spec.perms[(0, 1)] == (1, 0)
            assert all(type(x) is int for p in spec.perms.values() for x in p)
            cover = build_cover(spec)
            assert cover.connected and cover.complex.n_cells(1) == 6

    @pytest.mark.parametrize("degree, swap", [
        (2, (1.5, 0)), (2.5, (1, 0)), (True, (0,)), ("2", (1, 0)),
        (None, (1, 0)), (2, (1, "0")), (2, (True, False)), (2, 10)],
        ids=["fractional_entry", "fractional_degree", "bool_degree",
             "string_degree", "no_degree", "string_entry", "bool_entries",
             "not_a_list"])
    def test_non_integers_rejected(self, degree, swap):
        with pytest.raises(CoverError, match="must be"):
            PermutationCoverSpec(circle(3), degree, {(0, 1): swap,
                                                     (0, 2): (0, 1),
                                                     (1, 2): (0, 1)})

    def test_nonadjacent_pair_rejected(self):
        K = circle(4)
        with pytest.raises(CoverError):
            PermutationCoverSpec(K, 2, {(0, 3): (1, 0)})


class TestBuildCover:
    def test_trivial_cover_isomorphic(self):
        K = torus7()
        adj = K.facet_adjacencies()
        spec = PermutationCoverSpec(K, 1, {e: (0,) for e in adj if e[0] < e[1]})
        cov = build_cover(spec)
        assert [cov.complex.n_cells(q) for q in range(3)] == \
            [K.n_cells(q) for q in range(3)]
        assert cov.complex.euler_characteristic() == K.euler_characteristic()

    def test_cyclic_circle_cover_is_long_circle(self):
        cov = build_cover(cyclic_circle_spec(3, 3))
        assert cov.complex.n_cells(0) == 9 and cov.complex.n_cells(1) == 9
        assert betti_numbers(cov.complex) == [1, 1]
        assert cov.connected

    def test_chi_multiplicative_and_connectivity_random(self):
        seen = set()
        for spec in random_cover_specs(20, seed=11):
            cov = build_cover(spec)
            assert cov.complex.euler_characteristic() == \
                spec.degree * spec.base.euler_characteristic()
            assert cov.connected == is_transitive(spec)
            seen.add(cov.connected)
        assert seen == {True, False}  # both directions exercised

    @pytest.mark.parametrize("name", ["klein_bottle", "projective_plane"])
    def test_random_cyclic_covers_of_every_degree(self, name):
        # the cocycle is solved over Z and reduced mod d, so composite d
        # works on non-orientable bases too
        K = FIXTURES[name]()
        for d in range(2, 13):
            spec = random_cyclic_cover(K, d, random.Random(d))
            assert all(sorted(p) == list(range(d))
                       for p in spec.perms.values())
            cov = build_cover(spec)
            assert cov.complex.euler_characteristic() == \
                d * K.euler_characteristic()

    def test_cell_counts_multiply(self):
        rng = random.Random(1)
        spec = random_cyclic_cover(tetrahedron_boundary(), 3, rng)
        cov = build_cover(spec)
        for q in range(3):
            assert cov.complex.n_cells(q) == 3 * spec.base.n_cells(q)

    def test_projection_well_defined(self):
        cov = build_cover(cyclic_circle_spec(3, 3))
        for q in range(2):
            for i, cell in enumerate(cov.complex.cells[q]):
                base_cell = cov.spec.base.cells[q][cov.projection[q][i]]
                assert len(base_cell) == len(cell)

    def test_torus_double_cover_along_generator(self):
        # transpositions exactly on dual edges crossing a homology generator
        rng = random.Random(0)
        for _ in range(20):
            spec = random_cyclic_cover(torus7(), 2, rng)
            if any(p != (0, 1) for p in spec.perms.values()):
                break
        cov = build_cover(spec)
        assert cov.complex.euler_characteristic() == 0
        if cov.connected:
            assert betti_numbers(cov.complex) == [1, 2, 1]


class TestSchreierGraph:
    def test_degree_one_is_dual_graph(self):
        K = tetrahedron_boundary()
        adj = K.facet_adjacencies()
        spec = PermutationCoverSpec(K, 1, {e: (0,) for e in adj if e[0] < e[1]})
        g = build_cover(spec).schreier_graph()
        assert g.n == 4 and len(edge_set(g)) == 6

    def test_cyclic_circle_cover_graph(self):
        g = build_cover(cyclic_circle_spec(3, 3)).schreier_graph()
        assert g.n == 9 and len(edge_set(g)) == 9
        assert graph_diameter(g) == 4

    def test_degree_one_tiles_are_dual_graph(self):
        surfaces = [make() for make in FIXTURES.values()]
        surfaces = [K for K in surfaces if K.dim == 2]
        assert len(surfaces) == 6
        for K in surfaces:
            spec = PermutationCoverSpec(K, 1, {e: (0,) for e in
                                               K.facet_adjacencies()})
            cov = build_cover(spec)
            g = cov.schreier_graph()
            base = [t for t, _s in cov.top_of]
            d = dual_graph(K)
            assert g.n == d.n
            assert {tuple(sorted((base[u], base[v])))
                    for u, v in edge_set(g)} == edge_set(d)
            assert edge_labels(d) == {e: e for e in K.facet_adjacencies()}
            assert {(base[u], base[v]): label
                    for (u, v), label in edge_labels(g).items()} \
                == edge_labels(d)

    def test_tetrahedron_transposition_cover_connected(self):
        rng = random.Random(2)
        found = False
        for _ in range(50):
            spec = random_cyclic_cover(tetrahedron_boundary(), 2, rng)
            g = build_cover(spec).schreier_graph()
            assert g.n == 8
            found = found or not g.is_connected()
        assert found  # sphere has no connected double cover


@st.composite
def connected_graphs(draw, sizes=st.integers(1, 140)):
    """A random spanning tree (each vertex joined to an earlier one) plus
    random extra edges, on randomly permuted vertices."""
    n = draw(sizes)
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if n > 1:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges |= {(min(a, b), max(a, b))
                  for a, b in draw(st.lists(pair, max_size=2 * n)) if a != b}
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[a], perm[b]) for a, b in edges])


def as_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(edge_set(g))
    return h


class TestTrees:
    def test_path_graph_tree_is_path(self):
        g = Graph(5, [(i, i + 1) for i in range(4)])
        t = shortest_path_tree(g, 0)
        assert t.diameter() == graph_diameter(g) == 4

    def test_cycle_tree_diameter(self):
        g = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        t = shortest_path_tree(g, 0)
        assert graph_diameter(g) == 3
        assert t.diameter() <= 6

    def test_tree_distance_equals_graph_distance(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_connected_graph(rng)
            root = rng.randrange(g.n)
            t = shortest_path_tree(g, root)
            dist = nx.single_source_shortest_path_length(as_networkx(g), root)
            for v in range(g.n):
                assert t.depth[v] == dist[v]

    def test_tree_diameter_law_random(self):
        rng = random.Random(4)
        for _ in range(100):
            g = random_connected_graph(rng)
            diam = brute_force_diameter(adjacency(g))
            assert graph_diameter(g) == diam
            t = shortest_path_tree(g, rng.randrange(g.n))
            assert t.diameter() <= 2 * diam
            tree_adj = [[] for _ in range(g.n)]
            for u, v in t.tree_edges:
                tree_adj[u].append(v)
                tree_adj[v].append(u)
            assert t.diameter() == brute_force_diameter(tree_adj)

    def test_disconnected_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(CoverError):
            shortest_path_tree(g, 0)
        with pytest.raises(CoverError):
            graph_diameter(g)

    def test_complete_graph_diameter(self):
        g = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert graph_diameter(g) == 1

    def test_parent_is_the_first_dequeued_neighbour(self):
        # 5 is first reached from 4, which leaves the queue before 3
        g = Graph(6, [(0, 1), (0, 2), (1, 4), (2, 3), (3, 5), (4, 5)])
        t = shortest_path_tree(g, 0)
        assert t.parent[5] == 4 and t.depth[5] == 3
        assert t.parent[0] == -1

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(connected_graphs(), st.data())
    def test_matches_reference_tree(self, g, data):
        assert_tree_matches_reference(g, data.draw(st.integers(0, g.n - 1)))

    @pytest.mark.parametrize("name", ["genus2", "torus"])
    @pytest.mark.parametrize("d", [1, 2, 5, 12, 23])
    def test_cyclic_covers_match_reference_tree(self, name, d):
        cov = build_cover(random_cyclic_cover(FIXTURES[name](), d,
                                              random.Random(d)))
        if cov.connected:
            assert_tree_matches_reference(cov.schreier_graph(), 0)


def assert_tree_matches_reference(g, root):
    t = shortest_path_tree(g, root)
    parent, depth, words = reference_shortest_path_tree(g, root)
    assert {v: (None if p < 0 else p) for v, p in
            enumerate(t.parent.tolist())} == parent
    assert dict(enumerate(t.depth.tolist())) == depth
    assert list(t.words.items()) == list(words.items())


class TestBitsetDiameter:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(connected_graphs())
    def test_matches_networkx(self, g):
        assert graph_diameter(g) == nx.diameter(as_networkx(g))

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(connected_graphs(st.sampled_from([1, 2, 63, 64, 65, 127, 128,
                                             129])))
    def test_word_boundaries(self, g):
        assert graph_diameter(g) == nx.diameter(as_networkx(g))

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129])
    def test_paths_and_stars(self, n):
        path = Graph(n, [(i, i + 1) for i in range(n - 1)])
        star = Graph(n, [(0, i) for i in range(1, n)])
        assert graph_diameter(path) == n - 1
        assert graph_diameter(star) == min(n - 1, 2)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(connected_graphs(st.integers(1, 200)))
    def test_one_word_batches(self, g):
        old = hodgecover.covers._BITSET_WORDS
        hodgecover.covers._BITSET_WORDS = 1
        try:
            assert graph_diameter(g) == nx.diameter(as_networkx(g))
        finally:
            hodgecover.covers._BITSET_WORDS = old

    @pytest.mark.parametrize("n, edges", [
        (2, []), (65, [(i, i + 1) for i in range(63)]),
        (130, [(i, i + 1) for i in range(129) if i != 70])],
        ids=["two_points", "isolated_last_vertex", "two_paths"])
    def test_disconnected_rejected(self, n, edges):
        with pytest.raises(CoverError):
            graph_diameter(Graph(n, edges))

    def test_empty_graph(self):
        assert graph_diameter(Graph(0)) == 0


LETTERS = [("a", "b"), ("b", "a"), ("c", "c")]


def diameter_or_error(diameter, g):
    try:
        return diameter(g)
    except CoverError as exc:
        return str(exc)


def labelled_cycle(n, *extra):
    """The n-cycle with every edge i -> i + 1 labelled ("s", "t"): its
    rotations preserve the labels and act transitively.  Extra edges
    (u, v, label) follow the cycle's."""
    edges = [(i, (i + 1) % n, ("s", "t")) for i in range(n)] + list(extra)
    return labelled_graph(n, edges)


def labelled_graph(n, edges):
    """The graph of the edges (u, v, label)."""
    return Graph(n, [e[:2] for e in edges], [e[2] for e in edges])


def subsets_action(pi):
    """A permutation of 0..3 acting on the six 2-subsets, in sorted order."""
    pairs = list(combinations(range(4), 2))
    return tuple(pairs.index(tuple(sorted((pi[a], pi[b])))) for a, b in pairs)


class TestOrbitDiameter:
    """graph_diameter runs one BFS per orbit of the label-preserving
    automorphisms; the all-sources BFS it replaced is the reference."""

    @pytest.mark.parametrize("name", ["genus2", "torus"])
    @pytest.mark.parametrize("d", range(2, 54))
    def test_cyclic_covers_match_reference(self, name, d):
        cov = build_cover(random_cyclic_cover(FIXTURES[name](), d,
                                              random.Random(d)))
        g = cov.schreier_graph()
        assert diameter_or_error(graph_diameter, g) == \
            diameter_or_error(reference_graph_diameter, g)

    def test_degree_101_cover_matches_reference(self):
        cov = build_cover(random_cyclic_cover(genus2_surface(), 101,
                                              random.Random(1)))
        g = cov.schreier_graph()
        assert len(_orbit_sources(g)) == 26
        assert graph_diameter(g) == reference_graph_diameter(g)

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_dual_graphs_match_reference(self, name):
        g = dual_graph(FIXTURES[name]())
        assert graph_diameter(g) == reference_graph_diameter(g)
        assert list(_orbit_sources(g)) == list(range(g.n))

    @pytest.mark.parametrize("m", [6, 12])
    def test_large_dual_graph_takes_every_vertex(self, m):
        g = dual_graph(FIXTURES["torus_grid"](m, m))
        assert list(_orbit_sources(g)) == list(range(g.n))
        assert graph_diameter(g) == reference_graph_diameter(g)

    @pytest.mark.parametrize("degree, perms, orbits", [
        (3, {(5, 6): (1, 0, 2), (25, 26): (1, 2, 0)}, 117),
        (6, {(5, 6): subsets_action((1, 0, 2, 3)),
             (25, 26): subsets_action((1, 2, 3, 0))}, 117)],
        ids=["S3_on_points", "S4_on_2_subsets"])
    def test_non_regular_schreier_graphs(self, degree, perms, orbits):
        # S3 on 3 points has no deck transformation; S4 on 2-subsets has
        # one, of order 2, against a fibre of 6 points
        g = permutation_schreier_graph(figure_eight(20), perms, degree)
        assert len(_orbit_sources(g)) == orbits
        assert graph_diameter(g) == reference_graph_diameter(g)

    @pytest.mark.parametrize("seed", range(4))
    def test_composite_cover_matches_reference(self, seed):
        cov = build_cover(composite_cover(genus2_surface(),
                                          random.Random(seed)))
        g = cov.schreier_graph()
        assert len(_orbit_sources(g)) in (26, 52, 78, 156)
        assert diameter_or_error(graph_diameter, g) == \
            diameter_or_error(reference_graph_diameter, g)

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13, 23, 53])
    def test_prime_cyclic_covers_have_one_orbit_per_tile(self, d):
        for seed in range(3):
            cov = build_cover(random_cyclic_cover(genus2_surface(), d,
                                                  random.Random(seed)))
            if cov.connected:
                g = cov.schreier_graph()
                orbits = _orbit_sources(g)
                assert len(orbits) == 26
                assert sorted({cov.top_of[v][0] for v in orbits}) == \
                    list(range(26))

    def test_labelled_cycle_is_one_orbit(self):
        assert list(_orbit_sources(labelled_cycle(80))) == [0]
        assert graph_diameter(labelled_cycle(80)) == 40

    @pytest.mark.parametrize("n, edges", [
        # 0 -> 3 would send the edge 2 -> 4 ("g", "h") to 5, which has none
        (6, [(0, 1, "ab"), (0, 2, "cd"), (3, 4, "ab"), (3, 5, "cd"),
             (2, 4, "gh")]),
        # the reflection 0 -> 3 is a bijection onto edges, but it turns the
        # middle edge's label ("c", "d") into ("d", "c")
        (4, [(0, 1, "ab"), (1, 2, "cd"), (2, 3, "ba")]),
        # 0 -> 2 is a bijection, but it would send the edge 2 -> 3
        # ("c", "d") to 4 -> 1, and 4 and 1 are not joined
        (5, [(0, 1, "ab"), (0, 2, "ba"), (0, 4, "cd"), (1, 3, "ab"),
             (2, 3, "cd"), (2, 4, "ba")])],
        ids=["leaves_the_graph", "flips_a_label", "breaks_an_edge"])
    def test_failed_candidate_falls_back(self, n, edges):
        g = labelled_graph(n, [(u, v, tuple(x)) for u, v, x in edges])
        assert list(_orbit_sources(g)) == list(range(n))
        assert graph_diameter(g) == reference_graph_diameter(g)

    def test_unlabelled_edge_falls_back(self):
        g = labelled_cycle(80, (0, 40, None))
        assert list(_orbit_sources(g)) == list(range(80))
        assert graph_diameter(g) == reference_graph_diameter(g) == 40

    def test_repeated_label_falls_back(self):
        g = labelled_cycle(80, (0, 40, ("s", "t")))
        assert list(_orbit_sources(g)) == list(range(80))
        assert graph_diameter(g) == reference_graph_diameter(g) == 40
        # the path 3 - 0 - 1 - 2 has a label-preserving reflection, but no
        # single image of 0 fixes it once ("a", "a") repeats at 0
        g = Graph(4, [(0, 1), (0, 3), (1, 2)], [("a", "a")] * 3)
        assert list(_orbit_sources(g)) == list(range(4))

    def test_bijection_that_moves_an_edge_falls_back(self):
        # S3 on 3 points over two 5-cycles: one candidate image keeps every
        # label and is a bijection, but sends an edge off the graph's edges
        g = permutation_schreier_graph(
            figure_eight(5), {(3, 4): (2, 0, 1), (5, 6): (0, 2, 1)}, 3)
        assert list(_orbit_sources(g)) == list(range(g.n))
        assert graph_diameter(g) == reference_graph_diameter(g)

    def test_disconnected_labelled_graph_rejected(self):
        # two disjoint copies of the labelled 80-cycle
        h = labelled_graph(160, [(u + c, (u + 1) % 80 + c, ("s", "t"))
                                 for c in (0, 80) for u in range(80)])
        assert list(_orbit_sources(h)) == list(range(160))
        with pytest.raises(CoverError, match="disconnected"):
            graph_diameter(h)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(65, 200), st.data())
    def test_random_labelled_graphs_match_reference(self, n, data):
        # labels drawn from a small alphabet make candidates common, and
        # most of them fail somewhere along the BFS
        g = labelled_graph(n, [(data.draw(st.integers(0, v - 1)), v,
                                data.draw(st.sampled_from(LETTERS)))
                               for v in range(1, n)])
        assert graph_diameter(g) == reference_graph_diameter(g)

    @pytest.mark.parametrize("d", [4, 9, 101])
    def test_one_candidate_batches(self, d, monkeypatch):
        monkeypatch.setattr(hodgecover.covers, "_BITSET_WORDS", 1)
        g = build_cover(random_cyclic_cover(genus2_surface(), d,
                                            random.Random(d))).schreier_graph()
        assert graph_diameter(g) == reference_graph_diameter(g)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 60), st.lists(st.tuples(
        st.integers(0, 59), st.integers(0, 59),
        st.none() | st.sampled_from(LETTERS))))
    def test_graph_arrays_match_edge_list(self, n, edges):
        # neighbours in increasing order; a repeated edge, in either
        # direction, keeps its first occurrence's label both ways
        edges = [(u % n, v % n, x) for u, v, x in edges]
        if any(u == v for u, v, _ in edges):
            with pytest.raises(CoverError, match="loops"):
                labelled_graph(n, edges)
            return
        g = labelled_graph(n, edges)
        nbrs, labels = [set() for _ in range(n)], {}
        for u, v, x in edges:
            if v not in nbrs[u] and x is not None:
                labels[(u, v)], labels[(v, u)] = x, x[::-1]
            nbrs[u].add(v)
            nbrs[v].add(u)
        assert adjacency(g) == [sorted(s) for s in nbrs]
        assert edge_labels(g) == labels

    @pytest.mark.parametrize("edges", [[(0, 3)], [(-1, 2)], [(1, 2), (4, 0)]])
    def test_vertex_out_of_range_rejected(self, edges):
        with pytest.raises(CoverError, match=r"outside 0\.\.2"):
            Graph(3, edges)

    def test_graph_is_read_only(self):
        g = labelled_cycle(5)
        for name in ("start", "head", "label"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(g, name)[0] = 1
        assert not hasattr(g, "add_edge")


def random_connected_graph(rng, max_n=40):
    n = rng.randint(2, max_n)
    edges = {(i - 1, i) for i in range(1, n)}
    extra = rng.randint(0, n)
    for _ in range(extra):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[a], perm[b]) for a, b in edges])


class TestFundamentalDomain:
    def test_cyclic_circle_cover_one_pairing(self):
        cov = build_cover(cyclic_circle_spec(3, 3))
        g = cov.schreier_graph()
        tree = shortest_path_tree(g, 0)
        words, pairings = tree_fundamental_domain(cov, tree)
        assert len(pairings) == len(edge_set(g)) - (g.n - 1) == 1
        faces = [f for p in pairings.pairings for f in (p.face, p.paired_face)]
        assert len(set(faces)) == 2 * len(pairings)

    def test_pairing_words_close_up(self):
        rng = random.Random(6)
        for spec in [cyclic_circle_spec(4, 3),
                     random_cyclic_cover(torus7(), 3, rng),
                     *random_cover_specs(40, seed=3)]:
            cov = build_cover(spec)
            if not cov.connected:
                continue
            g = cov.schreier_graph()
            tree = shortest_path_tree(g, 0)
            words, pairings = tree_fundamental_domain(cov, tree)
            assert len(pairings) == len(edge_set(g)) - (g.n - 1)
            n, cells = cov.complex.dim, cov.complex.cells
            for p in pairings.pairings:
                # both tiles hold the one facet their pairing crosses
                (u, facet), (w, paired) = p.face, p.paired_face
                assert facet == paired
                assert set(cells[n - 1][facet]) <= \
                    set(cells[n][u]) & set(cells[n][w])
                # loop at the root tile: out along the tree, across, back
                assert word_tile_action(cov, p.word, tree.root) == tree.root
                _t, s0 = cov.top_of[tree.root]
                assert word_sheet_action(cov.spec, p.word, s0) == s0

    def test_words_reach_their_tiles(self):
        cov = build_cover(cyclic_circle_spec(3, 3))
        tree = shortest_path_tree(cov.schreier_graph(), 0)
        words, _ = tree_fundamental_domain(cov, tree)
        for tile, word in words.items():
            assert word_tile_action(cov, word, tree.root) == tile


# ---------------------------------------------------------------------------
# array gluing against the tuple union-find oracle


def outcome(build, spec):
    """Every field of the built cover, or the CoverError message."""
    try:
        cov = build(spec)
    except CoverError as exc:
        return str(exc)
    return (cov.complex.cells, cov.projection, cov.top_index, cov.top_of,
            cov.lift, cov.connected)


def assert_same_as_reference(spec):
    got = outcome(build_cover, spec)
    assert got == outcome(reference_build_cover, spec)
    return got


def random_perms(K, d, rng):
    return {e: tuple(rng.sample(range(d), d))
            for e in K.facet_adjacencies() if e[0] < e[1]}


def product_spec(first, second):
    """The fibre product of two covers of one base: sheets (s, t) as s e + t."""
    e = second.degree
    perms = {key: tuple(p[s] * e + second.perms[key][t]
                        for s in range(first.degree) for t in range(e))
             for key, p in first.perms.items() if key[0] < key[1]}
    return PermutationCoverSpec(first.base, first.degree * e, perms)


def regauged(spec, rng):
    """The same cover with the sheets over each top renamed at random, so
    its permutations are no longer cyclic shifts."""
    d = spec.degree
    rename = [rng.sample(range(d), d) for _ in spec.base.cells[spec.base.dim]]
    perms = {}
    for (a, b), p in spec.perms.items():
        if a < b:
            back = {r: s for s, r in enumerate(rename[a])}
            perms[(a, b)] = tuple(rename[b][p[back[r]]] for r in range(d))
    return PermutationCoverSpec(spec.base, d, perms)


def unbranched_spec(K, d, rng):
    """A connected-or-not unbranched cover of a closed surface of degree d,
    from cyclic covers of prime degree and their fibre products."""
    if d == 1:
        return PermutationCoverSpec(K, 1, {e: (0,) for e in
                                           K.facet_adjacencies()})
    for p in (2, 3, 5, 7):
        if d % p == 0 and d > p:
            return product_spec(random_cyclic_cover(K, p, rng),
                                unbranched_spec(K, d // p, rng))
    return random_cyclic_cover(K, d, rng)


class TestArrayGluing:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    @pytest.mark.parametrize("d", range(1, 8))
    def test_random_permutations_match_reference(self, name, d):
        K = FIXTURES[name]()
        rng = random.Random(f"{name}-{d}")
        results = [assert_same_as_reference(
            PermutationCoverSpec(K, d, random_perms(K, d, rng)))
            for _ in range(4)]
        if name == "circle" or d == 1:
            assert all(not isinstance(r, str) for r in results)

    @pytest.mark.parametrize("name", sorted(set(FIXTURES) - {"circle"}))
    @pytest.mark.parametrize("d", range(2, 8))
    def test_unbranched_covers_match_reference(self, name, d):
        rng = random.Random(f"{name}-{d}")
        spec = regauged(unbranched_spec(FIXTURES[name](), d, rng), rng)
        got = assert_same_as_reference(spec)
        assert not isinstance(got, str)
        assert len(got[0][2]) == d * spec.base.n_cells(2)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(FIXTURES)), st.integers(1, 7), st.randoms())
    def test_hypothesis_specs_match_reference(self, name, d, rng):
        K = FIXTURES[name]()
        spec = PermutationCoverSpec(K, d, random_perms(K, d, rng))
        assert_same_as_reference(spec)
        if name != "circle":
            assert_same_as_reference(regauged(unbranched_spec(K, d, rng), rng))

    def test_degree_23_genus2_matches_reference(self):
        rng = random.Random(23)
        spec = random_cyclic_cover(FIXTURES["genus2"](), 23, rng)
        for s in (spec, regauged(spec, rng)):
            cells = assert_same_as_reference(s)[0]
            assert [len(c) for c in cells] == [253, 897, 598]

    def test_branched_cover_names_the_smallest_class(self):
        # one swap across the facet (u, w): both vertex classes fail, and
        # the smallest representative is vertex u over the first top at u
        K = torus7()
        (a, b), (u, w) = min((e, f) for e, f in K.facet_adjacencies().items()
                             if e[0] < e[1])
        perms = {e: (0, 1) for e in K.facet_adjacencies() if e[0] < e[1]}
        perms[(a, b)] = (1, 0)
        top = min(t for t, c in enumerate(K.cells[2]) if u in c)
        message = (f"inconsistent identifications on cell ({u},): sheets 0 "
                   f"and 1 of top cell {top} coincide")
        spec = PermutationCoverSpec(K, 2, perms)
        assert outcome(build_cover, spec) == message
        assert outcome(reference_build_cover, spec) == message

    def test_schreier_graph_built_once(self, monkeypatch):
        cov = build_cover(random_cyclic_cover(torus7(), 3, random.Random(0)))
        built = []
        monkeypatch.setattr(hodgecover.covers.Graph, "_store",
                            lambda *args, **kw: built.append(args))
        g = cov.schreier_graph()
        assert g is cov.schreier_graph()
        tree_fundamental_domain(cov, shortest_path_tree(g, 0))
        assert built == []

    def test_inverted_words_reverse_and_flip_labels(self):
        cov = build_cover(random_cyclic_cover(FIXTURES["genus2"](), 5,
                                              random.Random(5)))
        tree = shortest_path_tree(cov.schreier_graph(), 0)
        rev = {(a, b): (b, a) for (a, b) in cov.spec.perms}
        for word in tree.words.values():
            assert hodgecover.covers._invert_word(word, rev) == \
                tuple((b, a) for (a, b) in reversed(word))
