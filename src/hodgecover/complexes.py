"""Oriented simplicial complexes with integer boundary operators.

Cells are stored as strictly increasing vertex tuples; the boundary sign of
the face obtained by deleting the i-th vertex is (-1)**i.  This convention
makes the boundary-of-boundary identity hold in exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations, count, repeat
from numbers import Integral

import numpy as np


class ComplexError(ValueError):
    """Raised for malformed input on a complex: its cells and vertices, its
    edge lengths, or a degree or cell that a computation cannot take."""


def _integer(x, what: str, error: type) -> int:
    """x as an int by the one integer rule of every input: an integer that
    is not a bool, or a float of integral value; else raise error."""
    if type(x) is int or isinstance(x, Integral) and not isinstance(x, bool):
        return int(x)
    if isinstance(x, float) and x.is_integer():
        return int(x)
    raise error(f"{what} must be an integer, not {x!r}")


def _check_integer_degree(q) -> None:
    """Raise ComplexError unless the degree q is an integer, not a bool."""
    if not isinstance(q, Integral) or isinstance(q, bool):
        raise ComplexError(f"degree must be an integer, not {q!r}")


@dataclass(frozen=True)
class SparseIntMatrix:
    """Integer matrix in coordinate form; no duplicate positions, no zeros."""

    rows: int
    cols: int
    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        seen = set()
        for r, c, v in self.entries:
            if (r, c) in seen:
                raise ComplexError(f"duplicate entry at ({r},{c})")
            if v == 0:
                raise ComplexError(f"stored zero at ({r},{c})")
            seen.add((r, c))

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries: tuple):
        """Wrap entries already known to hold no repeated position and no
        zero, without the check above."""
        m = object.__new__(cls)
        vars(m).update(rows=rows, cols=cols, entries=entries)
        return m

    def transpose(self) -> "SparseIntMatrix":
        return SparseIntMatrix._trusted(self.cols, self.rows, tuple(
            sorted((c, r, v) for r, c, v in self.entries)))

    def apply(self, x) -> list:
        """The exact product A x for a vector of ints or Fractions."""
        if len(x) != self.cols:
            raise ComplexError("dimension mismatch")
        out = [0] * self.rows
        for r, c, v in self.entries:
            out[r] += v * x[c]
        return out

    def matmul(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.cols != other.rows:
            raise ComplexError("dimension mismatch")
        acc: dict[tuple[int, int], int] = {}
        by_row: dict[int, list[tuple[int, int]]] = {}
        for r, c, v in other.entries:
            by_row.setdefault(r, []).append((c, v))
        for r, k, v in self.entries:
            for c, w in by_row.get(k, ()):
                acc[(r, c)] = acc.get((r, c), 0) + v * w
        entries = tuple((r, c, v) for (r, c), v in sorted(acc.items()) if v != 0)
        return SparseIntMatrix(self.rows, other.cols, entries)


class SimplicialComplex:
    """Finite oriented simplicial complex, immutable after construction.

    cells[q] is the sorted list of q-cells; cell_index[q] maps a cell tuple
    to its position, which fixes the basis of C_q once and for all.  The
    validation also keeps integer tables of each degree (_rows, _keys), so
    array code finds cells with one searchsorted per degree (_index).
    """

    def __init__(self, cells_by_dim: list[list[tuple[int, ...]]]):
        self.cells: list[list[tuple[int, ...]]] = [
            sorted(set(cs)) for cs in cells_by_dim
        ]
        while self.cells and not self.cells[-1]:
            self.cells.pop()
        if not self.cells:
            raise ComplexError("empty complex")
        self.dim = len(self.cells) - 1
        self.cell_index: list[dict[tuple[int, ...], int]] = [
            {c: i for i, c in enumerate(cs)} for cs in self.cells
        ]
        self._boundary_cache: dict[int, SparseIntMatrix] = {}
        self._factor_cache: dict[int, tuple[int, ...]] = {}  # by homology
        self._validate()

    def _validate(self):
        """Build the integer tables of every degree and check them: each
        q-cell has q + 1 strictly increasing vertices and all its faces are
        cells.  The first cell that fails, by degree and then position, is
        checked again on its own to name its fault."""
        rank = dict(zip(chain.from_iterable(self.cells[0]), count()))
        n0 = len(self.cells[0])
        self._tables: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for q, cs in enumerate(self.cells):
            m = len(cs)
            if set(map(len, cs)) - {q + 1}:
                m = next(i for i, c in enumerate(cs) if len(c) != q + 1)
            rows = np.fromiter(map(rank.get, chain.from_iterable(cs[:m]),
                                   repeat(-1)), np.intp, m * (q + 1))
            rows = rows.reshape(m, q + 1)
            keys, faces = rows[:, 0], np.empty((m, 0), np.intp)
            if q:       # faces c[:-1], ..., c[1:]
                faces = self._index(q - 1, rows[:, np.array(list(
                    combinations(range(q + 1), q)))])
                bad = (faces < 0).any(1) | (rows[:, 1:] <= rows[:, :-1]).any(1)
                keys = faces[:, 0] * n0 + rows[:, -1]
                if bad.any():
                    m = bad.argmax()
            if m < len(cs):
                self._raise_fault(q, cs[m])
            # keys end in a sentinel above every key of a row of ranks
            keys = np.concatenate((keys, [len(self.cells[q - 1]) * n0
                                          if q else n0]))
            for a in (rows, keys, faces):
                a.flags.writeable = False
            self._tables.append((rows, keys, faces))

    def _raise_fault(self, q: int, c: tuple):
        """Raise the ComplexError naming what is wrong with q-cell c."""
        if len(c) != q + 1:
            raise ComplexError(f"cell {c} has wrong dimension for q={q}")
        if any(c[i] >= c[i + 1] for i in range(len(c) - 1)):
            raise ComplexError(f"cell {c} not strictly increasing")
        face = next(f for f in combinations(c, q)
                    if f not in self.cell_index[q - 1])
        raise ComplexError(f"missing face {face} of {c}")

    def _rows(self, q: int) -> np.ndarray:
        """(N_q, q + 1) vertex ranks of the q-cells: positions in cells[0],
        never labels, so any integer labels fit."""
        return self._tables[q][0]

    def _keys(self, q: int) -> np.ndarray:
        """key(c) = index(c[:-1]) n_0 + rank(c[-1]) of each q-cell: strictly
        increasing in the sorted cell order and below N_(q-1) n_0."""
        return self._tables[q][1][:-1]

    def _index(self, q: int, rows) -> np.ndarray:
        """Positions in cells[q] of rows of q + 1 vertex ranks, -1 for a
        row that is no q-cell: one searchsorted per degree up to q."""
        rows = np.asarray(rows, dtype=np.intp)
        n0 = len(self.cells[0])
        if rows.size and not 0 <= rows.min() <= rows.max() < n0:
            rows = np.where(((rows < 0) | (rows >= n0)).any(
                axis=-1, keepdims=True), -1, rows)  # its keys are all < 0
        idx = rows[..., 0]
        for k in range(1, q + 1):
            keys = self._tables[k][1]
            key = idx * n0 + rows[..., k]
            pos = keys.searchsorted(key)
            idx = np.where(keys[pos] == key, pos, -1)
        return idx

    def n_cells(self, q: int) -> int:
        """The number of q-cells, 0 for an integer q outside 0..dim;
        ComplexError unless q is an integer, not a bool."""
        _check_integer_degree(q)
        return len(self.cells[q]) if 0 <= q <= self.dim else 0

    def check_degree(self, q: int) -> None:
        """Raise ComplexError unless q is an integer, not a bool, with
        0 <= q <= dim."""
        _check_integer_degree(q)
        if not 0 <= q <= self.dim:
            raise ComplexError(f"degree {q} is out of range 0..{self.dim}")

    def uncovered_cell(self, q: int) -> tuple[int, ...] | None:
        """The first q-cell that is a face of no top cell, or None;
        ComplexError unless q is an integer, not a bool, in 0..dim."""
        self.check_degree(q)
        local = list(combinations(range(self.dim + 1), q + 1))
        covered = np.zeros(self.n_cells(q), dtype=bool)
        covered[self._index(q, self._rows(self.dim)[:, local])] = True
        return None if covered.all() else self.cells[q][covered.argmin()]

    def boundary_matrix(self, q: int) -> SparseIntMatrix:
        """Matrix of the boundary map from q-chains to (q-1)-chains;
        ComplexError unless q is an integer, not a bool, in 1..dim."""
        _check_integer_degree(q)
        if not 1 <= q <= self.dim:
            raise ComplexError(f"degree {q} out of range [1, {self.dim}]")
        if q not in self._boundary_cache:
            faces = self._tables[q][2]   # column k drops vertex q - k
            cols = np.broadcast_to(np.arange(len(faces))[:, None], faces.shape)
            signs = np.broadcast_to((-1) ** np.arange(q, -1, -1), faces.shape)
            order = np.lexsort((cols.ravel(), faces.ravel()))
            self._boundary_cache[q] = SparseIntMatrix._trusted(
                self.n_cells(q - 1), self.n_cells(q), tuple(zip(*(
                    a.ravel()[order].tolist() for a in (faces, cols, signs)))))
        return self._boundary_cache[q]

    def euler_characteristic(self) -> int:
        return sum((-1) ** q * len(cs) for q, cs in enumerate(self.cells))

    def facet_adjacencies(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Ordered pairs of top-cell indices sharing a facet, keyed to that facet.

        Requires the complex to look like a pseudo-manifold: every
        codimension-1 cell lies in at most two top cells.  A 0-dimensional
        complex has no facets.
        """
        n = self.dim
        if n == 0:
            return {}
        by_facet: dict[tuple[int, ...], list[int]] = {}
        for j, cell in enumerate(self.cells[n]):
            for facet in combinations(cell, n):
                by_facet.setdefault(facet, []).append(j)
        adj: dict[tuple[int, int], tuple[int, ...]] = {}
        for facet, tops in by_facet.items():
            if len(tops) > 2:
                raise ComplexError(
                    f"facet {facet} shared by {len(tops)} top cells; "
                    "cover machinery needs at most two")
            if len(tops) == 2:
                a, b = tops
                adj[(a, b)] = facet
                adj[(b, a)] = facet
        return adj

    def to_dict(self) -> dict:
        return {"dim": self.dim,
                "cells": [[list(c) for c in cs] for cs in self.cells]}

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self.cells == other.cells

    def __repr__(self):
        counts = ",".join(str(len(cs)) for cs in self.cells)
        return f"SimplicialComplex(dim={self.dim}, cells=[{counts}])"


@dataclass
class LoadReport:
    complex: SimplicialComplex
    added_faces: list[tuple[int, ...]] = field(default_factory=list)


def load_complex(description) -> SimplicialComplex:
    return load_complex_report(description).complex


def load_complex_report(description) -> LoadReport:
    """Build a validated complex from the complex format, completing
    downward closure; added faces are reported rather than rejected.

    `description` is a list of cells, or an object whose "cells" is a list of
    groups of cells (its other keys are not read).  A cell is a list or
    tuple of vertices, each an integer that is not a bool or a float of
    integral value.  Any other shape or vertex raises ComplexError.
    """
    groups = description.get("cells", []) if isinstance(description, dict) \
        else [description]
    seq = (list, tuple)
    if not (isinstance(groups, seq) and all(isinstance(g, seq) for g in groups)
            and all(isinstance(c, seq) for g in groups for c in g)):
        raise ComplexError('a complex must be a list of cells, or an object '
                           'whose "cells" is a list of lists of cells')
    listed = [tuple(_integer(v, "vertex", ComplexError) for v in c)
              for g in groups for c in g]

    max_dim = 0
    canonical: set[tuple[int, ...]] = set()
    for c in listed:
        if len(set(c)) != len(c):
            raise ComplexError(f"repeated vertex in cell {c}")
        cell = tuple(sorted(c))
        if cell in canonical:
            raise ComplexError(f"duplicate cell {cell}")
        canonical.add(cell)
        max_dim = max(max_dim, len(cell) - 1)

    closure: set[tuple[int, ...]] = set()
    for cell in canonical:
        for k in range(1, len(cell) + 1):
            closure.update(combinations(cell, k))
    added = sorted(closure - canonical, key=lambda c: (len(c), c))

    cells_by_dim: list[list[tuple[int, ...]]] = [[] for _ in range(max_dim + 1)]
    for cell in closure:
        cells_by_dim[len(cell) - 1].append(cell)
    return LoadReport(SimplicialComplex(cells_by_dim), added)
