import json
from fractions import Fraction

import numpy as np
import pytest

from hodgecover import (ComplexError, SimplicialComplex, SparseIntMatrix,
                        dump_complex, load_complex, load_complex_report,
                        read_complex)
from hodgecover.surfaces import FIXTURES, tetrahedron_boundary, torus7


def test_boundary_squares_to_zero_on_fixtures():
    for fn in FIXTURES.values():
        K = fn()
        for q in range(2, K.dim + 1):
            assert K.boundary_matrix(q - 1).matmul(K.boundary_matrix(q)).is_zero()


def test_boundary_matrix_triangle():
    K = load_complex([(0, 1, 2)])
    # edges sorted: (0,1), (0,2), (1,2); boundary of (0,1,2) = (1,2)-(0,2)+(0,1)
    assert K.boundary_matrix(2).to_pylists() == [[1], [-1], [1]]
    assert K.boundary_matrix(1).to_pylists() == [
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


def test_serialization_roundtrip(tmp_path):
    K = torus7()
    path = tmp_path / "t.json"
    dump_complex(K, path)
    assert read_complex(path) == K
    # byte-identical on rewrite
    text = path.read_text()
    dump_complex(K, path)
    assert path.read_text() == text


def test_sparse_matrix_validation_and_matmul():
    with pytest.raises(ComplexError):
        SparseIntMatrix(2, 2, ((0, 0, 1), (0, 0, 2)))
    with pytest.raises(ComplexError):
        SparseIntMatrix(2, 2, ((0, 0, 0),))
    a = SparseIntMatrix.from_dense([[1, 2], [3, 4]])
    b = SparseIntMatrix.from_dense([[0, 1], [1, 0]])
    assert a.matmul(b).to_pylists() == [[2, 1], [4, 3]]
    assert a.transpose().to_pylists() == [[1, 3], [2, 4]]
    assert a.apply([Fraction(1, 2), 1]) == [Fraction(5, 2), Fraction(11, 2)]
    with pytest.raises(ComplexError):
        a.apply([1])
    assert np.array_equal(a.to_float(), [[1.0, 2.0], [3.0, 4.0]])


def test_coboundary_is_transpose():
    K = torus7()
    b = K.boundary_matrix(2).to_pylists()
    c = K.coboundary_matrix(1).to_pylists()
    assert [list(r) for r in zip(*b)] == c
