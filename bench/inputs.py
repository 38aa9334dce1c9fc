"""Seeded benchmark inputs, built without the package's own generators.

Everything here is derived from a `random.Random(seed)`, so one seed gives
one set of inputs.  Cyclic covers come from a mod-d cocycle on the dual
graph of the base, solved here with a small elimination mod d; cycles and
boundaries use the (-1)**i face-sign convention directly on cell tuples.
"""

from __future__ import annotations

import math
import random
from collections import deque
from itertools import combinations


# ---------------------------------------------------------------------------
# dual graph of a closed surface and its vertex-star loops


def dual_edges(K) -> dict[tuple[int, int], tuple[int, int]]:
    """Undirected dual edges (a, b), a < b, of the top cells, keyed to the
    primal edge they cross."""
    by_edge: dict[tuple[int, int], list[int]] = {}
    for t, tri in enumerate(K.cells[2]):
        for e in combinations(tri, 2):
            by_edge.setdefault(e, []).append(t)
    out = {}
    for e, tops in by_edge.items():
        if len(tops) != 2:
            raise ValueError(f"edge {e} is not interior to a closed surface")
        out[(min(tops), max(tops))] = e
    return out


def star_loops(K) -> list[list[int]]:
    """For every vertex, the cyclic sequence of triangles around it."""
    loops = []
    for (v,) in K.cells[0]:
        tris = [t for t, tri in enumerate(K.cells[2]) if v in tri]
        nbr: dict[int, list[int]] = {t: [] for t in tris}
        for a, b in combinations(tris, 2):
            if len(set(K.cells[2][a]) & set(K.cells[2][b])) == 2:
                nbr[a].append(b)
                nbr[b].append(a)
        loop, prev = [tris[0]], None
        while True:
            nxt = nbr[loop[-1]][0] if nbr[loop[-1]][0] != prev \
                else nbr[loop[-1]][1]
            prev = loop[-1]
            loop.append(nxt)
            if nxt == loop[0]:
                break
        loops.append(loop)
    return loops


def _kernel_mod_p(rows: list[dict[int, int]], ncols: int, p: int
                  ) -> list[dict[int, int]]:
    """Basis of {x : rows . x = 0 mod p}, p prime, as sparse vectors."""
    pivots: dict[int, dict[int, int]] = {}   # pivot column -> reduced row
    for row in rows:
        r = {c: v % p for c, v in row.items() if v % p}
        for c in sorted(r):
            if c in pivots and r.get(c):
                f = r[c]
                for cc, vv in pivots[c].items():
                    r[cc] = (r.get(cc, 0) - f * vv) % p
                r = {cc: vv for cc, vv in r.items() if vv}
        if not r:
            continue
        c0 = min(r)
        inv = pow(r[c0], -1, p)
        r = {cc: vv * inv % p for cc, vv in r.items()}
        for pr in pivots.values():          # keep pivots fully reduced
            f = pr.get(c0)
            if f:
                for cc, vv in r.items():
                    pr[cc] = (pr.get(cc, 0) - f * vv) % p
                for cc in [cc for cc, vv in pr.items() if not vv]:
                    del pr[cc]
        pivots[c0] = r
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = {fc: 1}
        for pc, pr in pivots.items():
            if pr.get(fc):
                v[pc] = (-pr[fc]) % p
        basis.append(v)
    return basis


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % k for k in range(2, int(n ** 0.5) + 1))


def cyclic_cover_perms(K, d: int, rng: random.Random
                       ) -> dict[tuple[int, int], tuple[int, ...]]:
    """Sheet permutations of a connected degree-d cyclic cover of K.

    A value x_e in Z/d on every dual edge, with every vertex-star loop summing
    to zero, is exactly a consistent cyclic cover, and its cohomology class
    fixes the cover up to isomorphism.  The class is fixed per degree; the
    seed adds the coboundary of a random relabelling of the sheets over each
    tile, which renumbers the cover but keeps its shape.
    """
    edges = sorted(dual_edges(K))
    if d == 1:
        return {e: (0,) for e in edges}
    x = _fixed_class(K, d, edges)
    h = [rng.randrange(d) for _ in K.cells[2]]
    return {(a, b): tuple((s + x[k] + h[b] - h[a]) % d for s in range(d))
            for k, (a, b) in enumerate(edges)}


def _fixed_class(K, d: int, edges) -> list[int]:
    """The first basis cocycle of those vanishing on a BFS tree of the dual
    graph (one per cohomology class); for prime d its cover is connected."""
    if not _is_prime(d):
        raise ValueError(f"cyclic covers are generated for prime degrees, not {d}")
    col = {e: k for k, e in enumerate(edges)}
    rows = []
    for loop in star_loops(K):
        row: dict[int, int] = {}
        for a, b in zip(loop, loop[1:]):
            k = col[(min(a, b), max(a, b))]
            row[k] = row.get(k, 0) + (1 if a < b else -1)
        rows.append(row)
    rows += [{col[e]: 1} for e in dual_tree(K)[1]]
    x = [0] * len(edges)
    for k, val in _kernel_mod_p(rows, len(edges), d)[0].items():
        x[k] = val
    if not _tiles_connected(len(K.cells[2]), d, edges, x):
        raise RuntimeError(f"degree-{d} cover of the first class is disconnected")
    return x


def _tiles_connected(n_top, d, edges, x) -> bool:
    adj: dict[int, list[tuple[int, int]]] = {t: [] for t in range(n_top)}
    for k, (a, b) in enumerate(edges):
        adj[a].append((b, x[k]))
        adj[b].append((a, -x[k]))
    seen = {(0, 0)}
    todo = deque(seen)
    while todo:
        t, s = todo.popleft()
        for u, shift in adj[t]:
            nxt = (u, (s + shift) % d)
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return len(seen) == n_top * d


def spec_json(d: int, perms) -> dict:
    """Cover spec in the CLI's file format."""
    return {"degree": d,
            "perms": {f"{a},{b}": list(p) for (a, b), p in sorted(perms.items())}}


# ---------------------------------------------------------------------------
# chains


def boundary2(K, chain2: list[int]) -> list[int]:
    """Integer boundary of a 2-chain, by the face-sign rule on tuples."""
    index = {e: i for i, e in enumerate(K.cells[1])}
    out = [0] * len(K.cells[1])
    for c, (a, b, v) in zip(chain2, K.cells[2]):
        if c:
            out[index[(b, v)]] += c
            out[index[(a, v)]] -= c
            out[index[(a, b)]] += c
    return out


def null_cycle(K, rng: random.Random) -> list[int]:
    """Boundary of a random nonzero integer 2-chain: a cycle that bounds."""
    while True:
        chain = [rng.choice((-2, -1, 1, 2)) if rng.random() < 0.3 else 0
                 for _ in K.cells[2]]
        f = boundary2(K, chain)
        if any(f):
            return f


def dual_tree(K) -> tuple[dict[int, list[tuple[int, int]]], set]:
    """BFS tree of the dual graph from top cell 0: the dual word from 0 to
    every top cell, and the tree's undirected edges."""
    adj: dict[int, list[int]] = {t: [] for t in range(len(K.cells[2]))}
    for a, b in dual_edges(K):
        adj[a].append(b)
        adj[b].append(a)
    path = {0: []}
    todo = deque([0])
    while todo:
        u = todo.popleft()
        for w in sorted(adj[u]):
            if w not in path:
                path[w] = path[u] + [(u, w)]
                todo.append(w)
    tree = {(min(a, b), max(a, b)) for p in path.values() for a, b in p}
    return path, tree


def dual_loop_words(K, rng: random.Random) -> list[list[tuple[int, int]]]:
    """Closed dual-graph words at top cell 0, one per non-tree dual edge of
    the BFS tree, in a seeded order."""
    path, tree = dual_tree(K)
    words = []
    for a, b in sorted(dual_edges(K)):
        if (a, b) not in tree:
            back = [(y, x) for x, y in reversed(path[b])]
            words.append(path[a] + [(a, b)] + back)
    rng.shuffle(words)
    return words


def gate_cycle(K, word) -> list[int]:
    """Edge cycle of the base K tracing a closed dual word: one gate vertex
    (the smallest) on each crossed edge, consecutive gates joined inside the
    triangle they share."""
    crossed = dual_edges(K)
    index = {e: i for i, e in enumerate(K.cells[1])}
    gates = [min(crossed[(min(a, b), max(a, b))]) for a, b in word]
    out = [0] * len(K.cells[1])
    for u, v in zip(gates, gates[1:] + gates[:1]):
        if u != v:
            out[index[(min(u, v), max(u, v))]] += 1 if u < v else -1
    return out


def in_rational_span(K, f: list[int]) -> bool:
    """True when f is a rational combination of the columns of the 2-boundary
    (exact, by fraction-free elimination of [d2 | f])."""
    cols = [boundary2(K, [int(i == j) for i in range(len(K.cells[2]))])
            for j in range(len(K.cells[2]))]
    return _rank(cols + [f]) == _rank(cols)


def _rank(vectors: list[list[int]]) -> int:
    rows = [list(v) for v in vectors if any(v)]
    rank, col = 0, 0
    width = len(rows[0]) if rows else 0
    while rows and col < width:
        piv = next((r for r in rows if r[col]), None)
        if piv is None:
            col += 1
            continue
        rows.remove(piv)
        rows = [_primitive([piv[col] * x - r[col] * y for x, y in zip(r, piv)])
                if r[col] else r for r in rows]
        rows = [r for r in rows if any(r)]
        rank += 1
        col += 1
    return rank


def _primitive(v: list[int]) -> list[int]:
    g = math.gcd(*v)
    return [x // g for x in v] if g > 1 else v


def non_null_word(K, rng: random.Random) -> list[tuple[int, int]]:
    """A closed dual word whose gate cycle is nonzero in H_1(K; Q)."""
    for word in dual_loop_words(K, rng):
        if not in_rational_span(K, gate_cycle(K, word)):
            return word
    raise RuntimeError("every dual loop bounds; the base has b_1 = 0")


def edge_lengths(K, rng: random.Random, lo=0.9, hi=1.1
                 ) -> dict[tuple[int, int], float]:
    return {e: rng.uniform(lo, hi) for e in K.cells[1]}
