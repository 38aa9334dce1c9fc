from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from hodgecover import (ComplexError, SimplicialComplex, SparseIntMatrix,
                        load_complex, load_complex_report)
from hodgecover.surfaces import FIXTURES, tetrahedron_boundary, torus7

from helpers import from_dense, to_pylists


def test_boundary_squares_to_zero_on_fixtures():
    for fn in FIXTURES.values():
        K = fn()
        for q in range(2, K.dim + 1):
            product = K.boundary_matrix(q - 1).matmul(K.boundary_matrix(q))
            assert product.entries == ()


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_trusted_matrices_pass_the_public_check(name):
    # boundary matrices and transposes skip the constructor's check; their
    # entries must pass it
    K = FIXTURES[name]()
    for q in range(1, K.dim + 1):
        for B in (K.boundary_matrix(q), K.boundary_matrix(q).transpose()):
            assert SparseIntMatrix(B.rows, B.cols, B.entries) == B


def test_boundary_matrix_triangle():
    K = load_complex([(0, 1, 2)])
    # edges sorted: (0,1), (0,2), (1,2); boundary of (0,1,2) = (1,2)-(0,2)+(0,1)
    assert to_pylists(K.boundary_matrix(2)) == [[1], [-1], [1]]
    assert to_pylists(K.boundary_matrix(1)) == [
        [-1, -1, 0], [1, 0, -1], [0, 1, 1]]


def test_downward_closure_reported():
    rep = load_complex_report([(0, 1, 2)])
    assert rep.complex.n_cells(1) == 3 and rep.complex.n_cells(0) == 3
    assert (0, 1) in rep.added_faces and (2,) in rep.added_faces


def test_closure_idempotent_when_faces_listed():
    K = torus7()
    rep = load_complex_report({"dim": 2,
                               "cells": [[list(c) for c in cs]
                                         for cs in K.cells]})
    assert rep.added_faces == []
    assert rep.complex == K


def test_invalid_cells_rejected():
    with pytest.raises(ComplexError):
        load_complex([(0, 0, 1)])
    with pytest.raises(ComplexError):
        load_complex([(0, 1), (1, 0)])


def test_missing_face_rejected_in_direct_constructor():
    with pytest.raises(ComplexError):
        SimplicialComplex([[(0,), (1,)], [(0, 1), (1, 2)]])


def test_euler_characteristic():
    assert tetrahedron_boundary().euler_characteristic() == 2
    assert torus7().euler_characteristic() == 0


def test_facet_adjacencies_symmetric_and_closed_surface():
    K = torus7()
    adj = K.facet_adjacencies()
    # closed surface: 21 edges, each shared by exactly two triangles
    assert len(adj) == 42
    for (a, b), facet in adj.items():
        assert adj[(b, a)] == facet
        assert set(facet) <= set(K.cells[2][a])


def test_facet_shared_three_times_rejected():
    with pytest.raises(ComplexError):
        load_complex([(0, 1, 2), (0, 1, 3), (0, 1, 4)]).facet_adjacencies()


def test_serialization_roundtrip():
    for fn in FIXTURES.values():
        K = fn()
        assert load_complex(K.to_dict()) == K


def test_sparse_matrix_validation_and_matmul():
    with pytest.raises(ComplexError):
        SparseIntMatrix(2, 2, ((0, 0, 1), (0, 0, 2)))
    with pytest.raises(ComplexError):
        SparseIntMatrix(2, 2, ((0, 0, 0),))
    a = from_dense([[1, 2], [3, 4]])
    b = from_dense([[0, 1], [1, 0]])
    assert to_pylists(a.matmul(b)) == [[2, 1], [4, 3]]
    assert to_pylists(a.transpose()) == [[1, 3], [2, 4]]
    assert a.apply([Fraction(1, 2), 1]) == [Fraction(5, 2), Fraction(11, 2)]
    with pytest.raises(ComplexError):
        a.apply([1])


def test_coboundary_is_transpose():
    K = torus7()
    b = to_pylists(K.boundary_matrix(2))
    c = to_pylists(K.boundary_matrix(2).transpose())
    assert [list(r) for r in zip(*b)] == c


# ---------------------------------------------------------------------------
# integer cell tables: vertex ranks, keys, index lookups


def _all_complexes():
    return [make() for make in FIXTURES.values()] + [
        load_complex([list(range(13))]),                         # a 12-simplex
        load_complex([(-7, -2, 5), (-2, 5, 2 ** 70), (5, 9, 2 ** 70)]),
    ]


@pytest.mark.parametrize("K", _all_complexes(), ids=repr)
def test_keys_increase_and_index_inverts_rows(K):
    n0 = K.n_cells(0)
    for q in range(K.dim + 1):
        rows, keys = K._rows(q), K._keys(q)
        assert rows.shape == (K.n_cells(q), q + 1)
        assert [tuple(K.cells[0][r][0] for r in row) for row in rows.tolist()] \
            == K.cells[q]
        assert (np.diff(keys) > 0).all()
        assert 0 <= keys.min() and keys.max() < max(1, K.n_cells(q - 1)) * n0
        assert np.array_equal(K._index(q, rows), np.arange(K.n_cells(q)))


def test_index_is_minus_one_off_the_cells():
    K = load_complex([(0, 1, 2), (1, 2, 3)])          # no edge (0, 3)
    rank = {v: i for i, (v,) in enumerate(K.cells[0])}
    probe = [(0, 3), (2, 1), (0, 0), (-1, 2), (0, 1), (3, 3), (0, 5), (1, 4)]
    got = K._index(1, [[rank.get(v, v) for v in e] for e in probe])
    assert got.tolist() == [-1, -1, -1, -1, K.cell_index[1][(0, 1)], -1, -1,
                            -1]       # ranks 4 and 5 are beyond the vertices
    assert K._index(0, [[3], [4], [-1]]).tolist() == [3, -1, -1]
    tris = np.array([[0, 1, 3], [0, 2, 3], [1, 2, 3], [0, 1, 2], [-1, 1, 2]])
    assert K._index(2, tris).tolist() == [-1, -1, 1, 0, -1]
    assert K._index(2, tris.reshape(5, 1, 3)).shape == (5, 1)


def test_twelve_simplex_tables():
    K = load_complex([list(range(13))])
    assert [K.n_cells(q) for q in range(13)] == \
        [len(list(combinations(range(13), q + 1))) for q in range(13)]
    assert K._keys(12).tolist() == [12]     # prefix (0, ..., 11) is first
    assert K._index(12, [list(range(13))]).tolist() == [0]
    assert K._index(6, K._rows(6)[::-1]).tolist() == \
        list(range(K.n_cells(6)))[::-1]


@pytest.mark.parametrize("cells, message", [
    ([[(0,), (1,)], [(0, 1), (0,)]], "cell (0,) has wrong dimension for q=1"),
    ([[(0,), (1, 2)]], "cell (1, 2) has wrong dimension for q=0"),
    ([[(0,), (1,)], [(1, 0)]], "cell (1, 0) not strictly increasing"),
    ([[(0,), (1,)], [(2, 1), (3,)]], "cell (2, 1) not strictly increasing"),
    ([[(0,), (1,), (2,)], [(0, 1), (1, 2)], [(0, 1, 2)]],
     "missing face (0, 2) of (0, 1, 2)"),
    ([[(0,), (1,)], [(0, 1), (1, 5)]], "missing face (5,) of (1, 5)"),
    ([[(0,), (1,)], [(0, 1), (5, 1)]], "cell (5, 1) not strictly increasing"),
    ([[(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2), (2, 0)], [(0, 1, 3)]],
     "cell (2, 0) not strictly increasing"),
    ([[(0,), (1,), (2,)], [], [(0, 1, 2)]], "missing face (0, 1) of (0, 1, 2)"),
], ids=["wrong_dimension", "wrong_dimension_vertex", "not_increasing",
        "not_increasing_before_wrong_dimension", "missing_face",
        "missing_vertex", "unknown_vertex_not_increasing",
        "first_fault_named", "empty_degree_below"])
def test_malformed_cells_name_the_first_fault(cells, message):
    with pytest.raises(ComplexError) as exc:
        SimplicialComplex(cells)
    assert str(exc.value) == message


def test_tables_are_read_only():
    K = torus7()
    with pytest.raises(ValueError):
        K._rows(1)[0, 0] = 5
    with pytest.raises(ValueError):
        K._keys(1)[0] = 5


def _seeded_covers():
    from helpers import random_cover_specs
    from hodgecover import build_cover
    return [build_cover(spec).complex for spec in random_cover_specs(8, seed=3)]


@pytest.mark.parametrize("K", _all_complexes()[:-2] + _seeded_covers() + [
    load_complex(list(combinations(range(5), 4))),
    load_complex([(-7, -2, 5), (-2, 5, 2 ** 70), (5, 9, 2 ** 70)])],
    ids=repr)
def test_boundary_matrix_matches_reference(K):
    from helpers import reference_boundary_matrix
    for q in range(1, K.dim + 1):
        assert K.boundary_matrix(q) == reference_boundary_matrix(K, q)
        assert all(type(x) is int for e in K.boundary_matrix(q).entries
                   for x in e)


@pytest.mark.parametrize("cells, expect", [
    ([(0, 1, 2), (1, 2, 3)], [None, None, None]),
    ([(0, 1, 2), (3, 4)], [(3,), (3, 4), None]),
    ([(0, 1, 2, 3), (2, 3, 4), (5,)], [(4,), (2, 4), (2, 3, 4), None]),
    ([(0, 1)], [None, None]),
    ([(0,)], [None]),
], ids=["pure", "stray_edge", "stray_triangle", "edge", "point"])
def test_uncovered_cell_is_the_first_in_no_top(cells, expect):
    K = load_complex(cells)
    assert [K.uncovered_cell(q) for q in range(K.dim + 1)] == expect
