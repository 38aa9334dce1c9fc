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
set is exactly the RREF's, and a back-substitution over the integers gives
the RREF as primitive integer rows, from which solutions and kernel vectors
are read with one division per entry.  Work and storage follow the nonzeros
and fill-in, not the matrix shape.
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
            row = {j: Fraction(x) for j, x in row.items()}
            den = lcm(*(x.denominator for x in row.values()))
            rows[i] = {j: int(x * den) for j, x in row.items()}
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


def echelon(rows, unimodular: bool = False
            ) -> tuple[dict[int, dict[int, int]], list[dict[int, int]]]:
    """Row echelon form of sparse integer rows: (pivots, residual).

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
    for row in rows:
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
    for i, row in enumerate(residual):
        while (c := min((k for k in row if k in pivots), default=None)) \
                is not None:
            row = _eliminate(row, pivots[c], c, False)
        residual[i] = row
    return pivots, residual


def _rref(A, rhs=()) -> tuple[dict[int, dict[int, int]], int]:
    """RREF of A (with rhs columns appended) as primitive integer rows keyed
    by pivot column; each row's only pivot-column entry is its own.  Returns
    (rows, number of columns of A)."""
    rows, ncols = sparse_rows(A, rhs)
    pivots, _ = echelon(rows)
    done: dict[int, dict[int, int]] = {}
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        # the rows in `done` carry no other pivot column, so this list of
        # columns to clear is complete before the first elimination
        for k in [k for k in row if k != c and k in done]:
            row = _eliminate(row, done[k], k)
        done[c] = row
    return done, ncols


def _solution(R: dict[int, dict[int, int]], ncols: int) -> list[Fraction] | None:
    """The solution with free variables 0 read from the RREF of [A | b]
    (rhs in column ncols); None if column ncols is a pivot."""
    if ncols in R:
        return None
    x = [Fraction(0)] * ncols
    for c, row in R.items():
        x[c] = Fraction(row.get(ncols, 0), row[c])
    return x


def _kernel_vector(R: dict[int, dict[int, int]], ncols: int,
                   f: int) -> list[Fraction]:
    """The kernel vector of free column f read from the RREF of A (or of
    [A | rhs]): 1 at f, 0 at the other free columns, and minus the RREF's
    column f at the pivots."""
    v = [Fraction(0)] * ncols
    v[f] = Fraction(1)
    for c, row in R.items():
        if f in row:
            v[c] = Fraction(-row[f], row[c])
    return v


def _kernel(R: dict[int, dict[int, int]], ncols: int) -> list[list[Fraction]]:
    """The kernel basis of A, one vector per free column below ncols."""
    return [_kernel_vector(R, ncols, f) for f in range(ncols) if f not in R]


def rat_solve(A, b) -> list[Fraction] | None:
    """One exact solution of A x = b, free variables 0; None if inconsistent."""
    R, ncols = _rref(A, [b])
    return _solution(R, ncols)


def rat_solve_and_kernel(A, b) -> tuple[list[Fraction] | None,
                                        list[list[Fraction]]]:
    """(rat_solve(A, b), a basis of the rational kernel of A, as column
    vectors) from one elimination of [A | b]."""
    R, ncols = _rref(A, [b])
    return _solution(R, ncols), _kernel(R, ncols)


def first_kernel_vector(A, b) -> list[Fraction] | None:
    """The first kernel basis vector of A, in free-column order, whose dot
    product with b is nonzero; None if there is none.  Each pairing reads
    the RREF entries on b's support only, and only the returned vector is
    built."""
    R, ncols = _rref(A)
    support = [(j, x) for j, x in enumerate(b) if x]
    for f in range(ncols):
        if f in R:
            continue
        pairing = Fraction(0)
        for j, x in support:
            if j == f:
                pairing += x
            elif j in R and f in R[j]:
                pairing -= Fraction(R[j][f] * x, R[j][j])
        if pairing:
            return _kernel_vector(R, ncols, f)
    return None
