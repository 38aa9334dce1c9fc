"""Output checks that do not reuse the code they check.

Each function returns a list of failure messages; an empty list means the
output is right.  Boundaries, coboundaries, volumes, graph Laplacians and
word actions are recomputed here from cell tuples and edge lengths.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def _fail(ok: bool, message: str) -> list[str]:
    return [] if ok else [message]


def cover_shape(K, d: int, base_cells=(11, 39, 26)) -> list[str]:
    cells = tuple(len(c) for c in K.cells)
    chi = cells[0] - cells[1] + cells[2]
    base_chi = base_cells[0] - base_cells[1] + base_cells[2]
    return (_fail(cells == tuple(d * n for n in base_cells),
                  f"degree {d}: cells {cells}")
            + _fail(chi == d * base_chi, f"degree {d}: chi {chi}"))


def homology(table, d: int) -> list[str]:
    betti = [row["betti"] for row in table]
    torsion = [t for row in table for t in row["torsion"]]
    return (_fail(betti == [1, 2 + 2 * d, 1], f"degree {d}: betti {betti}")
            + _fail(not torsion, f"degree {d}: torsion {torsion}"))


def _boundary_rational(K, g) -> list[Fraction]:
    """Boundary of a rational 2-chain, summed term by term."""
    index = {e: i for i, e in enumerate(K.cells[1])}
    out = [Fraction(0)] * len(K.cells[1])
    for c, (a, b, v) in zip(g, K.cells[2]):
        if c:
            out[index[(b, v)]] += c
            out[index[(a, v)]] -= c
            out[index[(a, b)]] += c
    return out


def filling(K, f: list[int], g, m: int, label: str) -> list[str]:
    """The chain g bounds f exactly and m clears its denominators."""
    g = [Fraction(c) for c in g]
    return (_fail(_boundary_rational(K, g) == [Fraction(c) for c in f],
                  f"{label} filling: boundary differs from the cycle")
            + _fail(all((c * m).denominator == 1 for c in g),
                    f"{label} filling: m*g not integral"))


def null_solution(K, f: list[int], result) -> list[str]:
    ok, x = result
    if not ok:
        return ["null cycle reported as not rationally null"]
    return _fail(_boundary_rational(K, [Fraction(c) for c in x])
                 == [Fraction(c) for c in f],
                 "rationally_null solution does not bound the cycle")


def non_null_certificate(K, f: list[int], result) -> list[str]:
    """y kills every triangle boundary and pairs nontrivially with f."""
    ok, y = result
    if ok:
        return ["non-null cycle reported as rationally null"]
    y = [Fraction(c) for c in y]
    index = {e: i for i, e in enumerate(K.cells[1])}
    kills = all(y[index[(b, v)]] - y[index[(a, v)]] + y[index[(a, b)]] == 0
                for a, b, v in K.cells[2])
    pairing = sum(yi * fi for yi, fi in zip(y, f))
    return (_fail(kills, "certificate does not vanish on the 2-boundary")
            + _fail(pairing != 0, "certificate pairs to zero with the cycle"))


def graph_laplacian(K) -> np.ndarray:
    n = len(K.cells[0])
    index = {c[0]: i for i, c in enumerate(K.cells[0])}
    L = np.zeros((n, n))
    for u, v in K.cells[1]:
        i, j = index[u], index[v]
        L[i, i] += 1
        L[j, j] += 1
        L[i, j] -= 1
        L[j, i] -= 1
    return L


def charpoly_bound(K, bound: Fraction) -> list[str]:
    """The exact reciprocal-sum bound dominates 1/lambda_1 of the graph
    Laplacian, and equals the sum of 1/lambda over its nonzero spectrum."""
    eigs = np.linalg.eigvalsh(graph_laplacian(K))
    positive = eigs[eigs > 1e-9]
    recip = float(np.sum(1.0 / positive))
    return (_fail(float(bound) >= 1.0 / positive[0] * (1 - 1e-9),
                  f"charpoly bound {float(bound)} < 1/lambda1")
            + _fail(math.isclose(float(bound), recip, rel_tol=1e-8),
                    f"charpoly bound {float(bound)} != reciprocal sum {recip}"))


def spectral_split(kernel_dim: int, lam, betti1: int, lambda_base: float
                   ) -> list[str]:
    """The harmonic dimension is b_1 and the coexact gap is positive and no
    larger than the base's, whose eigenforms pull back to every cover."""
    out = _fail(kernel_dim == betti1, f"kernel_dim {kernel_dim} != b1 {betti1}")
    if lam is None or not lam > 0:
        return out + [f"coexact gap {lam} not positive"]
    return out + _fail(lam <= lambda_base * (1 + 1e-9),
                       f"gap {lam} exceeds the base gap {lambda_base}")


def heron_volume(K, lengths: dict | None) -> float:
    total = 0.0
    for a, b, c in K.cells[2]:
        if lengths is None:
            x = y = z = 1.0
        else:
            x, y, z = lengths[(a, b)], lengths[(a, c)], lengths[(b, c)]
        s = (x + y + z) / 2
        total += math.sqrt(s * (s - x) * (s - y) * (s - z))
    return total


def mass0_volume(M0: np.ndarray, volume: float) -> list[str]:
    total = float(M0.sum())
    return _fail(math.isclose(total, volume, rel_tol=1e-9),
                 f"1^T M0 1 = {total}, volume {volume}")


def up_pencil_kills_exact(K, A: np.ndarray, rng) -> list[str]:
    """The degree-1 up-Laplacian stiffness vanishes on coboundaries."""
    index = {c[0]: i for i, c in enumerate(K.cells[0])}
    x = np.array([rng.uniform(-1, 1) for _ in K.cells[0]])
    dx = np.array([x[index[v]] - x[index[u]] for u, v in K.cells[1]])
    residual = float(np.linalg.norm(A @ dx))
    scale = float(np.linalg.norm(A, ord=1)) * float(np.linalg.norm(dx))
    return _fail(residual <= 1e-9 * scale,
                 f"up pencil leaves exact residual {residual}")


def norm_constants(lo: float, hi: float) -> list[str]:
    return _fail(0 < lo <= hi and math.isfinite(hi),
                 f"norm constants ({lo}, {hi}) out of order")


def boundary_matrix(K, q: int, B) -> list[str]:
    """Every entry matches the face-sign rule, and no other entry is stored."""
    index = {c: i for i, c in enumerate(K.cells[q - 1])}
    expect = sorted((index[cell[:i] + cell[i + 1:]], j, (-1) ** i)
                    for j, cell in enumerate(K.cells[q]) for i in range(q + 1))
    return _fail(sorted(B.entries) == expect,
                 f"boundary matrix in degree {q} differs from the face rule")


def tile_graph(cover, d: int, gdiam: int, tdiam: int, pairings, spec_perms
               ) -> list[str]:
    """Diameters bracket each other, the pairing count is 13d+1, and every
    pairing word returns the root tile to itself."""
    out = _fail(gdiam <= tdiam <= 2 * gdiam,
                f"diameters graph {gdiam}, tree {tdiam}")
    out += _fail(len(pairings) == 13 * d + 1,
                 f"{len(pairings)} pairings, expected {13 * d + 1}")
    top, sheet = cover.top_of[0]
    for p in pairings.pairings:
        t, s = top, sheet
        for a, b in p.word:
            if a != t:
                return out + [f"pairing word leaves the tile path at {(a, b)}"]
            s = spec_perms[(a, b)][s] if a < b else \
                spec_perms[(b, a)].index(s)
            t = b
        if (t, s) != (top, sheet):
            return out + ["pairing word does not fix the root tile"]
    return out
