"""Exact linear algebra over the integers and rationals.

One sparse, fraction-free elimination kernel answers every exact question in
the package: rational solve and kernel basis here, the Smith diagonal (and
with it every boundary rank) in `homology`, and the reciprocal-sum gap bound
in `spectra` (after Dumas, Heckenbach, Saunders and Welker, "Computing
simplicial homology based on efficient Smith normal form algorithms", 2003).

A matrix enters as a list of sparse integer rows, each a ``{col: value}`` dict
of its nonzeros (`sparse_rows`).  `echelon` reduces each row against the pivot
row keyed by its leading column, cross-multiplying so that no fraction ever
appears, until the leading column is free; the row then becomes that column's
pivot.  The pivot is always the leading column in natural order, so the pivot
set is the matrix's whatever the order of its rows.  The echelon rows are the
only factor: a solution or a kernel vector is one integer back-substitution
through them, highest pivot first, over one common denominator.  An exact
vector stays integers over one positive denominator, (nums, den), for the
callers in the package; it becomes Fractions only in the public results
(`_fractions`).  Work and storage follow the nonzeros and fill-in, not the
matrix shape.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .complexes import SparseIntMatrix


def sparse_rows(A, rhs=()) -> tuple[list[dict[int, int]], int]:
    """Sparse integer rows of A and its column count.

    A is a SparseIntMatrix or a dense list of rows of ints or Fractions.  Each
    vector in `rhs` is appended as one more column.  A row with rational
    entries is scaled by the lcm of its denominators, which changes neither its
    row space nor the solutions of its equation.
    """
    if isinstance(A, SparseIntMatrix):
        ncols = A.cols
        rows: list[dict] = [{} for _ in range(A.rows)]
        for r, c, v in A.entries:
            rows[r][c] = v
    else:
        ncols = len(A[0]) if A else 0
        rows = [{j: x for j, x in enumerate(row) if x} for row in A]
    for k, b in enumerate(rhs):
        if len(b) != len(rows):
            raise ValueError(f"right-hand side of length {len(b)} for "
                             f"{len(rows)} equations")
        for row, x in zip(rows, b):
            if x:
                row[ncols + k] = x
    for i, row in enumerate(rows):
        if any(not isinstance(x, int) for x in row.values()):
            den = lcm(*(int(x.denominator) for x in row.values()))
            rows[i] = {j: int(x.numerator) * (den // int(x.denominator))
                       for j, x in row.items()}
    return rows, ncols


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    return row if g == 1 else {k: v // g for k, v in row.items()}


def _eliminate(row: dict[int, int], p: dict[int, int], c: int,
               primitive: bool = True) -> dict[int, int]:
    """(b/g) row - (a/g) p with a = row[c], b = p[c], g = gcd(a, b): the
    integer combination that clears column c."""
    a, b = row[c], p[c]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = {k: b * v for k, v in row.items()} if b != 1 else dict(row)
    for k, v in p.items():
        w = out.get(k, 0) - a * v
        if w:
            out[k] = w
        else:
            del out[k]
    return _primitive(out) if primitive and out else out


def _reduce(row: dict[int, int], pivots: dict[int, dict[int, int]],
            primitive: bool) -> dict[int, int]:
    """row cleared in every pivot column, lowest first."""
    while (c := min((k for k in row if k in pivots), default=None)) \
            is not None:
        row = _eliminate(row, pivots[c], c, primitive)
    return row


def echelon(rows, unimodular: bool = False
            ) -> tuple[dict[int, dict[int, int]], list[dict[int, int]]]:
    """Row echelon form of sparse integer rows: (pivots, residual).

    The rows are taken by descending (max column, min column), which keeps
    the fill-in of a boundary map small; neither the pivot columns nor the
    invariant factors below depend on the order.

    `pivots` maps each pivot column to the row whose leading entry sits there.
    Over the rationals (the default) every nonzero row ends up a pivot, with
    content 1, and `residual` is empty.

    With `unimodular`, every operation is a unimodular integer row operation
    and only +-1 leading entries become pivots.  A row whose leading entry is
    not a unit and has no pivot to reduce against goes to `residual`, which is
    then cleared in every pivot column.  Column operations against the pivots
    finish the job, so the Smith invariant factors of the input are one 1 per
    pivot followed by those of the residual rows.
    """
    pivots: dict[int, dict[int, int]] = {}
    residual = []
    for row in sorted(filter(None, rows), key=lambda r: (max(r), min(r)),
                      reverse=True):
        while row:
            c = min(row)
            p = pivots.get(c)
            if p is not None:
                row = _eliminate(row, p, c, not unimodular)
            elif not unimodular:
                pivots[c] = _primitive(row)
                break
            elif abs(row[c]) == 1:
                pivots[c] = row
                break
            else:
                residual.append(row)
                break
    return pivots, [_reduce(row, pivots, False) for row in residual]


def _back_substitute(rows: list, free: dict[int, int]
                     ) -> tuple[dict[int, int], int]:
    """(x, den): the vector x / den that the echelon rows send to 0, with
    the integer values `free` at the free columns it names, 0 at the other
    free columns, and each pivot column solved from its row in the order of
    `rows`, (pivot column, row) pairs highest first, as sorted once per
    elimination.  x holds only nonzero integers; den > 0 grows only when a
    leading entry does not divide its row's sum."""
    x, den = dict(free), 1
    for c, row in rows:
        s = sum(v * x[k] for k, v in row.items() if k in x)
        if s:
            g = gcd(s, row[c])
            if (m := abs(row[c]) // g) != 1:
                x = {k: m * v for k, v in x.items()}
                den *= m
            x[c] = -s // g if row[c] > 0 else s // g
    return x, den


def _kernel_vector(rows: list, ncols: int,
                   free: dict[int, int]) -> tuple[list[int], int]:
    """(v, den): the first ncols entries of _back_substitute(rows, free), a
    dense list of integers over den > 0."""
    x, den = _back_substitute(rows, free)
    return [x.get(k, 0) for k in range(ncols)], den


def _fractions(v: tuple[list[int], int] | None) -> list[Fraction] | None:
    """The rationals of integers over one denominator, (nums, den), or None:
    the only place an exact vector becomes Fractions, for a public result."""
    return None if v is None else [Fraction(a, v[1]) for a in v[0]]


def _solve_and_kernel(A, b) -> tuple:
    """rat_solve_and_kernel(A, b), each vector as integers over one
    denominator, (nums, den).  The solution is the kernel vector of [A | b]
    that is -1 at b's column, ncols; None if that column is a pivot."""
    rows, ncols = sparse_rows(A, [b])
    pivots, _ = echelon(rows)
    order = sorted(pivots.items(), reverse=True)
    return (None if ncols in pivots else
            _kernel_vector(order, ncols, {ncols: -1}),
            [_kernel_vector(order, ncols, {f: 1}) for f in range(ncols)
             if f not in pivots])


def rat_solve(A, b) -> list[Fraction] | None:
    """One exact solution of A x = b, free variables 0; None if inconsistent."""
    return _fractions(_solve_and_kernel(A, b)[0])


def rat_solve_and_kernel(A, b) -> tuple[list[Fraction] | None,
                                        list[list[Fraction]]]:
    """(rat_solve(A, b), a basis of the rational kernel of A, as column
    vectors) from one elimination of [A | b]; kernel vector f is 1 at free
    column f and 0 at the other free columns."""
    x, kernel = _solve_and_kernel(A, b)
    return _fractions(x), list(map(_fractions, kernel))


def first_kernel_vector(A, b) -> list[Fraction] | None:
    """The first kernel basis vector of A, in free-column order, whose dot
    product with b is nonzero; None if there is none.  Reduced against the
    echelon rows of A, b keeps at each free column a nonzero multiple of
    that column's pairing, since the row space is orthogonal to the kernel:
    one reduction finds the column, and only its vector is built."""
    rows, ncols = sparse_rows(A)
    pivots, _ = echelon(rows)
    (b,), _ = sparse_rows([b])     # b as one integer row
    f = min((k for k in _reduce(b, pivots, True) if k < ncols), default=None)
    return None if f is None else _fractions(_kernel_vector(
        sorted(pivots.items(), reverse=True), ncols, {f: 1}))
