import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bareiss_det, rat_nullspace, to_pylists
from hodgecover.complexes import SparseIntMatrix
from hodgecover.homology import invariant_factors
from hodgecover.ratlinalg import (echelon, first_kernel_vector, rat_solve,
                                  rat_solve_and_kernel, sparse_rows)

ORACLE = settings(max_examples=150, deadline=None, derandomize=True)


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_rank_against_sympy():
    rng = random.Random(0)
    for _ in range(50):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        A = random_matrix(rng, m, n)
        assert len(invariant_factors(A)) == sympy.Matrix(A).rank()


def test_solve_and_nullspace():
    rng = random.Random(2)
    for _ in range(40):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        A = random_matrix(rng, m, n)
        x0 = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
              for _ in range(n)]
        b = [sum(A[i][j] * x0[j] for j in range(n)) for i in range(m)]
        x = rat_solve(A, b)
        assert x is not None
        for i in range(m):
            assert sum(A[i][j] * x[j] for j in range(n)) == b[i]
        basis = rat_nullspace(A)
        assert len(basis) == n - sympy.Matrix(A).rank()
        for v in basis:
            for i in range(m):
                assert sum(A[i][j] * v[j] for j in range(n)) == 0


def test_solve_inconsistent_returns_none():
    assert rat_solve([[1, 1], [1, 1]], [1, 2]) is None


def test_solve_rejects_wrong_length_rhs():
    with pytest.raises(ValueError):
        rat_solve([[1, 0], [0, 1]], [1])


@st.composite
def sparse_matrices(draw, max_dim=7):
    """Sparse integer matrices, empty shapes and zero rows/columns included."""
    m = draw(st.integers(0, max_dim))
    n = draw(st.integers(0, max_dim))
    cells = st.tuples(st.integers(0, max(m - 1, 0)), st.integers(0, max(n - 1, 0)))
    values = st.integers(-6, 6).filter(bool)
    entries = draw(st.dictionaries(cells, values, max_size=m * n))
    return SparseIntMatrix(m, n, tuple(sorted((r, c, v) for (r, c), v in
                                              entries.items())))


def as_sympy(A: SparseIntMatrix) -> sympy.Matrix:
    M = sympy.zeros(A.rows, A.cols)
    for r, c, v in A.entries:
        M[r, c] = v
    return M


def as_fractions(M) -> list[list[Fraction]]:
    return [[Fraction(int(M[i, j].p), int(M[i, j].q)) for j in range(M.cols)]
            for i in range(M.rows)]


@ORACLE
@given(sparse_matrices())
def test_rref_and_nullspace_match_sympy(A):
    M = as_sympy(A)
    pivots = sorted(echelon(sparse_rows(A)[0])[0])
    assert pivots == list(M.rref()[1])
    assert len(invariant_factors(A)) == M.rank()
    basis = rat_nullspace(A)
    assert basis == [[x[0] for x in as_fractions(v)] for v in M.nullspace()]
    if A.rows and A.cols:
        assert sorted(echelon(sparse_rows(to_pylists(A))[0])[0]) == pivots
        assert rat_nullspace(to_pylists(A)) == basis


@ORACLE
@given(sparse_matrices(), st.data())
def test_solve_with_rational_rhs_matches_sympy(A, data):
    b = data.draw(st.lists(st.fractions(-5, 5, max_denominator=6),
                           min_size=A.rows, max_size=A.rows))
    if data.draw(st.booleans()):
        # force a consistent system
        x0 = [Fraction(k, 3) for k in
              data.draw(st.lists(st.integers(-4, 4), min_size=A.cols,
                                 max_size=A.cols))]
        b = A.apply(x0)
    aug, pivots = as_sympy(A).row_join(sympy.Matrix(A.rows, 1, b)).rref()
    if A.cols in pivots:
        expect = None
    else:
        expect = [Fraction(0)] * A.cols
        for i, c in enumerate(pivots):
            expect[c] = as_fractions(aug)[i][A.cols]
    x = rat_solve(A, b)
    assert x == expect
    if x is not None:
        assert A.apply(x) == b
        assert all(type(v) is Fraction for v in x)


@ORACLE
@given(sparse_matrices(), st.data())
def test_solve_and_kernel_matches_solve_and_nullspace(A, data):
    b = data.draw(st.lists(st.fractions(-5, 5, max_denominator=6),
                           min_size=A.rows, max_size=A.rows))
    if data.draw(st.booleans()):
        b = A.apply([Fraction(k, 3) for k in
                     data.draw(st.lists(st.integers(-4, 4), min_size=A.cols,
                                        max_size=A.cols))])
    x, kernel = rat_solve_and_kernel(A, b)
    assert x == rat_solve(A, b)
    assert kernel == rat_nullspace(A)
    assert kernel == [[c[0] for c in as_fractions(v)]
                      for v in as_sympy(A).nullspace()]
    assert all(type(c) is Fraction for v in [x or []] + kernel for c in v)


@ORACLE
@given(sparse_matrices(), st.data())
def test_first_kernel_vector_matches_sympy(A, data):
    """The first sympy nullspace vector, in free-column order, that pairs
    nonzero with b, or None."""
    b = data.draw(st.lists(st.sampled_from([0, 0, 1, -2, Fraction(1, 3)]),
                           min_size=A.cols, max_size=A.cols))
    expect = next((v for v in ([x[0] for x in as_fractions(u)]
                               for u in as_sympy(A).nullspace())
                   if sum(x * y for x, y in zip(v, b))), None)
    y = first_kernel_vector(A, b)
    assert y == expect
    assert y is None or all(type(c) is Fraction for c in y)


def shuffled(A: SparseIntMatrix, order: list[int]) -> SparseIntMatrix:
    """A with row order[i] moved to row i."""
    where = {r: i for i, r in enumerate(order)}
    return SparseIntMatrix(A.rows, A.cols, tuple(sorted(
        (where[r], c, v) for r, c, v in A.entries)))


@ORACLE
@given(sparse_matrices(), st.data())
def test_results_do_not_depend_on_row_order(A, data):
    """The elimination takes the rows in its own order; every exact result
    must be the same for any order of the input rows."""
    order = data.draw(st.permutations(range(A.rows)))
    b = data.draw(st.lists(st.integers(-3, 3), min_size=A.rows,
                           max_size=A.rows))
    c = data.draw(st.lists(st.integers(-2, 2), min_size=A.cols,
                           max_size=A.cols))
    B, b_order = shuffled(A, order), [b[r] for r in order]
    assert rat_solve(B, b_order) == rat_solve(A, b)
    assert rat_solve_and_kernel(B, b_order) == rat_solve_and_kernel(A, b)
    assert first_kernel_vector(B, c) == first_kernel_vector(A, c)
    assert invariant_factors(B) == invariant_factors(A)


def test_bareiss_det_against_sympy():
    """The determinant oracle in helpers (used by the fillings and acceptance
    tests) against sympy."""
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 7)
        A = random_matrix(rng, n, n)
        assert bareiss_det(A) == sympy.Matrix(A).det()
    assert bareiss_det([]) == 1
