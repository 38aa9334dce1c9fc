import inspect
import random
import re

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

import hodgecover
from hodgecover import (ComplexError, InnerProduct, PermutationCoverSpec,
                        boundary_factors, build_cover,
                        homology_table, lambda1_split, whitney_mass_matrix)
from hodgecover import homology, ratlinalg, spectra
from hodgecover.cli import main
from hodgecover.homology import invariant_factors
from hodgecover.ratlinalg import echelon, sparse_rows
from hodgecover.surfaces import (FIXTURES, circle, genus2_surface,
                                 klein_bottle, projective_plane,
                                 tetrahedron_boundary, torus7, torus_grid)
from hodgecover.whitney import ComplexGeometry

from helpers import (betti_numbers, random_cyclic_cover, to_pylists,
                     torsion_invariants)


def random_matrix(rng, rows, cols):
    return [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]


def check_snf(A):
    """The invariant factors of A: positive, each dividing the next, and
    equal to the nonzero diagonal of sympy's Smith normal form."""
    nz = invariant_factors(A)
    assert all(d > 0 for d in nz)
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    assert nz == sympy_factors(A)
    return nz


def test_snf_random_invariant_factors():
    rng = random.Random(5)
    for _ in range(200):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        check_snf(random_matrix(rng, rows, cols))


def test_snf_edge_cases():
    assert check_snf([[0, 0], [0, 0]]) == []
    assert check_snf([[4]]) == [4]
    assert check_snf([[2, 4], [6, 8]]) == [2, 4]


def sympy_factors(A):
    return [abs(int(d)) for d in sympy_snf(sympy.Matrix(A)).diagonal()
            if d != 0]


def test_invariant_factors_against_sympy():
    rng = random.Random(6)
    for k in range(150):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        # unit-rich sparse matrices exercise the sparse pivots, unit-free
        # ones leave everything to the Smith loop on the residual block
        values = [-1, 0, 0, 0, 1, 2] if k % 2 else [-4, -2, 0, 2, 3, 6]
        A = [[rng.choice(values) for _ in range(cols)] for _ in range(rows)]
        assert invariant_factors(A) == sympy_factors(A)
    for fn in FIXTURES.values():
        K = fn()
        for q in range(1, K.dim + 1):
            B = K.boundary_matrix(q)
            assert invariant_factors(B) == sympy_factors(to_pylists(B))


def test_betti_oracles():
    assert betti_numbers(tetrahedron_boundary()) == [1, 0, 1]
    assert betti_numbers(torus7()) == [1, 2, 1]
    assert betti_numbers(torus_grid(4, 3)) == [1, 2, 1]
    assert betti_numbers(projective_plane()) == [1, 0, 0]
    assert betti_numbers(klein_bottle()) == [1, 1, 0]
    assert betti_numbers(genus2_surface()) == [1, 4, 1]
    assert betti_numbers(circle(5)) == [1, 1]


def test_torsion_oracles():
    assert torsion_invariants(projective_plane()) == [[], [2], []]
    assert torsion_invariants(klein_bottle()) == [[], [2], []]
    assert torsion_invariants(torus7()) == [[], [], []]
    assert torsion_invariants(tetrahedron_boundary()) == [[], [], []]
    assert homology_table(projective_plane())[1]["torsion_order"] == 2


def test_torsion_degree_range():
    # H_dim is free, so its torsion order is 1, and so is H_0's
    assert [row["torsion_order"] for row in homology_table(klein_bottle())] \
        == [1, 2, 1]
    assert [row["torsion_order"] for row in homology_table(torus7())] == \
        [1, 1, 1]


def degree_entry_points():
    """The exported functions and the public methods of every exported class
    with a degree parameter q, by qualified name, found by inspection.
    moser_constant is the one exception: its q is the degree of a form in
    hyperbolic n-space, not a degree of a complex."""
    found = {}
    for obj in vars(hodgecover).values():
        if inspect.isclass(obj):
            found.update((fn.__qualname__, fn) for name, fn in vars(obj).items()
                         if not name.startswith("_") and inspect.isfunction(fn))
        elif inspect.isfunction(obj):
            found[obj.__qualname__] = obj
    found = {name: fn for name, fn in found.items()
             if "q" in inspect.signature(fn).parameters}
    assert "moser_constant" in found
    del found["moser_constant"]
    return found


@pytest.mark.parametrize("degree", [True, False, 0.5, 1.0, "1", None])
def test_degree_must_be_an_integer(degree):
    # a bool used to pass as 0 or 1, and a float ended in a TypeError, in
    # an IndexError or in an empty factor list
    K = klein_bottle()
    geo = ComplexGeometry.uniform(K)
    ips = {q: whitney_mass_matrix(K, geo, q) for q in range(K.dim + 1)}
    cover = build_cover(PermutationCoverSpec(
        K, 1, {e: (0,) for e in K.facet_adjacencies()}))
    args = {"K": K, "SimplicialComplex": K, "Cover": cover, "geometry": geo,
            "inner_products": ips, "ip_q": ips[1], "ip_up": ips[2],
            "base_cell": 0, "top": 0, "sheet": 0}
    calls = degree_entry_points()
    assert {"lambda1_split", "coexact_gap",
            "whitney_mass_matrix", "charpoly_gap_bound", "up_pencil",
            "boundary_factors", "SimplicialComplex.boundary_matrix",
            "SimplicialComplex.n_cells", "SimplicialComplex.uncovered_cell",
            "Cover.lift_cell"} <= set(calls)
    message = f"degree must be an integer, not {degree!r}"
    for name, fn in calls.items():
        # self is an instance of the class that the qualified name names
        kw = {p: args[name.split(".")[0] if p == "self" else p]
              for p, v in inspect.signature(fn).parameters.items()
              if p != "q" and v.default is v.empty}
        with pytest.raises(ComplexError, match=re.escape(message)):
            fn(q=degree, **kw)


def test_integer_degree_ranges_are_unchanged():
    # the integer ranges stay as documented: boundary_factors is () outside
    # 1..dim, boundary_matrix raises outside it, n_cells is 0 outside 0..dim
    # and uncovered_cell raises outside it
    K = klein_bottle()
    assert [boundary_factors(K, q) == () for q in (-1, 0, 3)] == [True] * 3
    assert [K.n_cells(q) for q in (-1, 3)] == [0, 0]
    for q in (0, 3):
        with pytest.raises(ComplexError, match=r"out of range \[1, 2\]"):
            K.boundary_matrix(q)
    for q in (-1, 3, 5):
        with pytest.raises(ComplexError, match=f"degree {q} is out of range"):
            torus7().uncovered_cell(q)


def test_homology_table_consistent():
    table = homology_table(klein_bottle())
    assert [row["betti"] for row in table] == [1, 1, 0]
    assert table[1]["torsion"] == [2]
    assert table[1]["torsion_order"] == 2


def test_euler_characteristic_matches_betti():
    for fn in FIXTURES.values():
        K = fn()
        betti = betti_numbers(K)
        assert K.euler_characteristic() == sum(
            (-1) ** q * b for q, b in enumerate(betti))


def test_degree23_cyclic_cover_homology():
    K = build_cover(random_cyclic_cover(genus2_surface(), 23,
                                        random.Random(23))).complex
    # independent oracle: a cover of a closed orientable surface is one, so
    # b0 = b2 = number of components, b1 = 2 b0 - chi, and H_1 is free
    parent = {v: v for (v,) in K.cells[0]}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in K.cells[1]:
        parent[find(u)] = find(v)
    b0 = len({find(v) for (v,) in K.cells[0]})
    chi = K.euler_characteristic()
    assert chi == 23 * genus2_surface().euler_characteristic()
    table = homology_table(K)
    assert [row["betti"] for row in table] == [b0, 2 * b0 - chi, b0]
    assert [row["torsion"] for row in table] == [[], [], []]
    assert betti_numbers(K) == [b0, 2 * b0 - chi, b0]


@pytest.fixture
def echelon_calls(monkeypatch):
    """Every call of the elimination kernel, as a copy of its input rows;
    `echelon` is patched in each module that imports it."""
    calls = []

    def spy(rows, *args, **kwargs):
        calls.append([dict(row) for row in rows])
        return echelon(rows, *args, **kwargs)

    for module in (ratlinalg, homology, spectra):
        monkeypatch.setattr(module, "echelon", spy)
    return calls


def test_each_boundary_map_is_eliminated_once(echelon_calls):
    for fn in FIXTURES.values():
        K = fn()
        geo = ComplexGeometry.uniform(K)
        products = [{q: InnerProduct.identity(K.n_cells(q))
                     for q in range(K.dim + 1)},
                    {q: whitney_mass_matrix(K, geo, q)
                     for q in range(K.dim + 1)}]
        echelon_calls.clear()
        homology_table(K)
        for q in range(K.dim + 1):
            for ips in products:
                lambda1_split(K, q, ips)
        boundaries = [sparse_rows(K.boundary_matrix(q))[0]
                      for q in range(1, K.dim + 1)]
        assert len(echelon_calls) == K.dim
        assert all(rows in echelon_calls for rows in boundaries)


def test_bounds_all_eliminates_each_boundary_once(echelon_calls, capsys):
    assert main(["bounds", "all", "--attach", "genus2"]) == 0
    capsys.readouterr()
    assert len(echelon_calls) == 2
