"""Exact integral homology from one sparse elimination per boundary map.

Each boundary matrix is reduced once by the unimodular mode of the
`ratlinalg` elimination kernel: +-1 pivots are eliminated sparsely, which
leaves the Smith invariant factors unchanged, and the smallest-magnitude
Smith loop runs on the small residual block that remains.  The number of
nonzero invariant factors of the boundary leaving degree q is its rank, which
gives the Betti numbers and the harmonic dimensions in `spectra`; the factors
> 1 of the boundary entering degree q are the torsion of H_q.  Each complex
memoises its factor lists (`boundary_factors`), so every caller shares one
elimination per boundary map.  All arithmetic uses Python big integers.
"""

from __future__ import annotations

from math import prod

from .complexes import SimplicialComplex, _check_integer_degree
from .ratlinalg import echelon, sparse_rows


def _smith(D: list[list[int]]) -> None:
    """Bring the dense integer matrix D to Smith normal form in place, by
    smallest-magnitude pivoting."""
    m = len(D)
    n = len(D[0]) if m else 0
    t = 0
    while True:
        # move the smallest-magnitude entry of the block to the pivot slot;
        # re-searched after every reduction pass so entries stay moderate
        entries = [(abs(D[i][j]), i, j) for i in range(t, m)
                   for j in range(t, n) if D[i][j]]
        if not entries:
            break
        _, pi, pj = min(entries)    # the first least one in row order
        D[t], D[pi] = D[pi], D[t]
        for row in D:
            row[t], row[pj] = row[pj], row[t]
        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]

        # one reduction pass; any nonzero remainder triggers a re-search
        for i in range(t + 1, m):
            if D[i][t] != 0:
                k = D[i][t] // D[t][t]
                D[i] = [x - k * y for x, y in zip(D[i], D[t])]
        if any(D[i][t] != 0 for i in range(t + 1, m)):
            continue
        for j in range(t + 1, n):
            if D[t][j] != 0:
                k = D[t][j] // D[t][t]
                for row in D:
                    row[j] -= k * row[t]
        if any(D[t][j] != 0 for j in range(t + 1, n)):
            continue

        # pivot must divide the rest of the block; if not, fold the offending
        # row into row t and start over
        offender = next((i for i in range(t + 1, m) if any(
            D[i][j] % D[t][t] for j in range(t + 1, n))), None)
        if offender is not None:
            D[t] = [x + y for x, y in zip(D[t], D[offender])]
            continue
        t += 1


def invariant_factors(A) -> list[int]:
    """Nonzero Smith invariant factors d1 | d2 | ... of an integer matrix
    (SparseIntMatrix or dense rows); their number is its rank.

    The +-1 pivots are eliminated sparsely, contributing one factor 1 each;
    the Smith loop, without transforms, reduces the residual block.
    """
    rows, _ = sparse_rows(A)
    pivots, residual = echelon(rows, unimodular=True)
    residual = [row for row in residual if row]
    where = {c: j for j, c in enumerate(sorted({c for row in residual
                                                for c in row}))}
    D = [[0] * len(where) for _ in residual]
    for i, row in enumerate(residual):
        for c, v in row.items():
            D[i][where[c]] = v
    _smith(D)
    diagonal = [D[i][i] for i in range(min(len(D), len(where)))]
    return [1] * len(pivots) + [d for d in diagonal if d != 0]


def boundary_factors(K: SimplicialComplex, q: int) -> tuple[int, ...]:
    """Nonzero invariant factors of the boundary map leaving degree q, () for
    q outside 1..dim; their number is its rank.  ComplexError unless q is an
    integer, not a bool.  Each map is eliminated once per complex: the
    factors are memoised on K, which is immutable."""
    _check_integer_degree(q)
    if not 1 <= q <= K.dim:
        return ()
    if q not in K._factor_cache:
        K._factor_cache[q] = tuple(invariant_factors(K.boundary_matrix(q)))
    return K._factor_cache[q]


def homology_table(K: SimplicialComplex) -> list[dict]:
    """Per-degree summary: betti number, invariant factors, torsion order;
    one elimination of each boundary map gives both rank and torsion."""
    table = []
    for q in range(K.dim + 1):
        leaving, entering = boundary_factors(K, q), boundary_factors(K, q + 1)
        inv = [d for d in entering if d > 1]
        table.append({"q": q,
                      "betti": K.n_cells(q) - len(leaving) - len(entering),
                      "torsion": inv, "torsion_order": prod(inv)})
    return table
