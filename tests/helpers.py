"""Shared test utilities: independent oracles and random-instance generators.

Oracles here are deliberately implemented with different algorithms and
libraries than the package code so agreement is meaningful.
"""

from __future__ import annotations

import math
import random
from collections import deque
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import mpmath as mp
import numpy as np
from scipy.linalg import (cho_factor, cho_solve, cholesky_banded,
                          solve_triangular)
from scipy.sparse import csr_array, dia_array
from scipy.sparse.csgraph import reverse_cuthill_mckee

import hodgecover.covers
from hodgecover import CoverError, InnerProduct, PermutationCoverSpec
from hodgecover.complexes import SimplicialComplex, SparseIntMatrix
from hodgecover.covers import Graph, dual_graph
from hodgecover.homology import homology_table
from hodgecover.ratlinalg import rat_solve, rat_solve_and_kernel
from hodgecover.surfaces import FIXTURES


# ---------------------------------------------------------------------------
# dense views of sparse integer matrices, and the rational kernel basis


def to_pylists(A: SparseIntMatrix) -> list[list[int]]:
    """A as a dense list of integer rows."""
    a = [[0] * A.cols for _ in range(A.rows)]
    for r, c, v in A.entries:
        a[r][c] = v
    return a


def to_float(A: SparseIntMatrix) -> np.ndarray:
    """A as a dense float array."""
    out = np.zeros((A.rows, A.cols))
    if A.entries:
        r, c, v = np.array(A.entries).T
        out[r, c] = v
    return out


def from_dense(a) -> SparseIntMatrix:
    """The SparseIntMatrix of a dense list of integer rows."""
    return SparseIntMatrix(len(a), len(a[0]) if a else 0, tuple(
        (r, c, int(x)) for r, row in enumerate(a) for c, x in enumerate(row)
        if x))


def rat_nullspace(A) -> list[list]:
    """The rational kernel basis of A, one vector per free column, from the
    package's elimination of [A | 0]."""
    rows = A.rows if isinstance(A, SparseIntMatrix) else len(A)
    return rat_solve_and_kernel(A, [0] * rows)[1]


# ---------------------------------------------------------------------------
# random consistent covers


def star_loops(K):
    """Cyclic orderings of the triangles around each vertex of a closed
    surface complex, as dual-edge loops."""
    assert K.dim == 2
    adj = K.facet_adjacencies()
    loops = []
    for (v,) in K.cells[0]:
        tris = [i for i, c in enumerate(K.cells[2]) if v in c]
        nbr = {t: [] for t in tris}
        for a in tris:
            for b in tris:
                if a < b and (a, b) in adj and v in adj[(a, b)]:
                    nbr[a].append(b)
                    nbr[b].append(a)
        for t in tris:
            assert len(nbr[t]) == 2, "vertex star is not a closed disc"
        loop = [tris[0]]
        prev = None
        while True:
            nxt = [x for x in nbr[loop[-1]] if x != prev][0]
            prev = loop[-1]
            loop.append(nxt)
            if loop[-1] == loop[0]:
                break
        loops.append(loop)
    return loops


def random_cyclic_cover(K, d, rng: random.Random) -> PermutationCoverSpec:
    """Degree-d cyclic cover of a closed surface from random mod-d cocycle
    data on the dual graph: a random combination, reduced mod d, of an
    integer basis of the solutions over Z of the vertex-star loop sums (their
    vanishing is exactly the consistency condition the builder validates).
    The basis is the package's rational kernel with denominators cleared, so
    no pivot is inverted mod d and any d works."""
    adj = K.facet_adjacencies()
    edges = sorted({(i, j) for (i, j) in adj if i < j})
    eidx = {e: k for k, e in enumerate(edges)}
    rows = []
    for loop in star_loops(K):
        row = [0] * len(edges)
        for a, b in zip(loop, loop[1:]):
            if a < b:
                row[eidx[(a, b)]] += 1
            else:
                row[eidx[(b, a)]] -= 1
        rows.append(row)
    x = [0] * len(edges)
    for v in rat_nullspace(rows):
        den = math.lcm(*(y.denominator for y in v))
        c = rng.randrange(d)
        x = [(a + c * int(y * den)) % d for a, y in zip(x, v)]
    perms = {e: tuple((s + x[eidx[e]]) % d for s in range(d)) for e in edges}
    return PermutationCoverSpec(K, d, perms)


class SmallSteps(random.Random):
    """Cocycle coefficients 0 or 1 only, so a cyclic cover is long and thin."""

    def randrange(self, d):
        return super().randrange(2)


def thin_cyclic_cover(K, d, seed) -> PermutationCoverSpec:
    """random_cyclic_cover with every cocycle coefficient 0 or 1: a long,
    thin cover with deep spanning trees (depth 223 for genus2 at d = 101,
    seed 3), as deep as the benchmark's cover, where coefficients in
    0..d-1 give depth 19-27."""
    return random_cyclic_cover(K, d, SmallSteps(seed))


def random_circle_cover(n: int, d: int, rng: random.Random) -> PermutationCoverSpec:
    """Arbitrary degree-d cover spec of the n-cycle graph; any permutation
    assignment is consistent in dimension one."""
    from hodgecover.surfaces import circle
    K = circle(n)
    adj = K.facet_adjacencies()
    perms = {}
    for (i, j) in adj:
        if i < j:
            p = list(range(d))
            rng.shuffle(p)
            perms[(i, j)] = tuple(p)
    return PermutationCoverSpec(K, d, perms)


def bench_tower_covers(seed: int) -> dict:
    """The complexes of the benchmark's `tower` workload at this seed, the
    cyclic covers of genus2 of bench/workloads.py, by degree."""
    import importlib
    import sys
    from pathlib import Path
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench)
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(bench)
    return {lv.degree: hodgecover.build_cover(lv.spec).complex
            for lv in workloads.make_levels("tower", seed, False)}


def random_cover_specs(count: int, seed: int = 0):
    """Mixed stream of consistent random cover specs with their bases."""
    rng = random.Random(seed)
    surfaces = ["sphere", "torus", "klein_bottle", "genus2",
                "projective_plane"]
    out = []
    for k in range(count):
        if k % 2 == 0:
            K = FIXTURES[surfaces[(k // 2) % len(surfaces)]]()
            out.append(random_cyclic_cover(K, rng.choice([2, 3, 5]), rng))
        else:
            out.append(random_circle_cover(rng.randrange(3, 8),
                                           rng.randrange(1, 6), rng))
    return out


# ---------------------------------------------------------------------------
# reference cover builder: one union-find over tuple keys


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != self.parent[p]:
            self.parent[p] = self.parent[self.parent[p]]
            p = self.parent[p]
        self.parent[x] = p
        return p

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # deterministic: smaller key becomes the root
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


class ReferenceCover(NamedTuple):
    """The oracle's cover: its complex, the (base top, sheet) of each top
    cell, the cover cell of each (q, base cell, top, sheet) and whether the
    tiles are connected."""

    complex: SimplicialComplex
    top_of: list
    lift: dict
    connected: bool

    def lift_cell(self, q, base_cells, tops, sheets):
        return [self.lift[(q, c, t, s)]
                for c, t, s in zip(base_cells, tops, sheets)]


def reference_build_cover(spec: PermutationCoverSpec) -> ReferenceCover:
    """The cover glued one (q, base cell, top, sheet) tuple at a time with a
    union-find whose roots are the smallest keys; classes are checked in the
    order of their roots.  Tiles (t, s) are joined across each adjacency by
    a second union-find."""
    base = spec.base
    n = base.dim
    d = spec.degree
    tops = base.cells[n]

    uf = _UnionFind()
    membership: list[list[list[int]]] = [
        [[] for _ in base.cells[q]] for q in range(n)
    ]  # membership[q][cell] = list of tops containing it
    for t, cell in enumerate(tops):
        for k in range(1, n + 1):
            for sub in combinations(cell, k):
                membership[k - 1][base.cell_index[k - 1][sub]].append(t)

    for (a, b), facet in spec.adjacencies.items():
        if a > b:
            continue
        p = spec.perms[(a, b)]
        for k in range(1, n + 1):
            for sub in combinations(facet, k):
                ci = base.cell_index[k - 1][sub]
                for s in range(d):
                    uf.union((k - 1, ci, a, s), (k - 1, ci, b, p[s]))

    # seed all elements so isolated ones become their own classes
    for q in range(n):
        for ci in range(base.n_cells(q)):
            for t in membership[q][ci]:
                for s in range(d):
                    uf.find((q, ci, t, s))

    classes: dict = {}
    for key in list(uf.parent):
        classes.setdefault(uf.find(key), []).append(key)
    class_of = {}
    for root in sorted(classes):
        members = sorted(classes[root])
        seen_tops: dict[int, int] = {}
        for (q, ci, t, s) in members:
            if t in seen_tops and seen_tops[t] != s:
                raise CoverError(
                    f"inconsistent identifications on cell {base.cells[q][ci]}: "
                    f"sheets {seen_tops[t]} and {s} of top cell {t} coincide")
            seen_tops[t] = s
        for key in members:
            class_of[key] = members[0]

    vertex_reps = sorted({class_of[k] for k in class_of if k[0] == 0})
    vertex_id = {rep: i for i, rep in enumerate(vertex_reps)}

    def cell_vertices(ci_cell, t, s):
        ids = []
        for v in ci_cell:
            vi = base.cell_index[0][(v,)]
            ids.append(vertex_id[class_of[(0, vi, t, s)]])
        out = tuple(sorted(ids))
        if len(set(out)) != len(out):
            raise CoverError(
                f"cover cell over {ci_cell} degenerates (repeated vertex)")
        return out

    cells_by_dim: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]
    proj_by_cell: list[dict] = [dict() for _ in range(n + 1)]
    rep_of_class: dict = {}
    for q in range(n):
        for rep in sorted({class_of[k] for k in class_of if k[0] == q}):
            _, ci, t, s = rep
            tup = cell_vertices(base.cells[q][ci], t, s)
            if tup in proj_by_cell[q]:
                raise CoverError(
                    f"two distinct lifts of dimension {q} share vertex set {tup}")
            proj_by_cell[q][tup] = ci
            cells_by_dim[q].append(tup)
            rep_of_class[rep] = tup

    top_tuple: dict[tuple[int, int], tuple[int, ...]] = {}
    for t, cell in enumerate(tops):
        for s in range(d):
            tup = cell_vertices(cell, t, s)
            if tup in proj_by_cell[n]:
                raise CoverError(
                    f"two distinct top-cell lifts share vertex set {tup}")
            proj_by_cell[n][tup] = t
            cells_by_dim[n].append(tup)
            top_tuple[(t, s)] = tup

    K = SimplicialComplex(cells_by_dim)
    top_of = [None] * K.n_cells(n)
    lift = {key: K.cell_index[key[0]][rep_of_class[rep]]
            for key, rep in class_of.items()}
    for (t, s), tup in top_tuple.items():
        top_of[K.cell_index[n][tup]] = (t, s)
        lift[(n, t, t, s)] = K.cell_index[n][tup]
    tiles = _UnionFind()
    for (a, b), p in spec.perms.items():
        for s in range(d):
            tiles.union((a, s), (b, p[s]))
    roots = {tiles.find((t, s)) for t in range(len(tops)) for s in range(d)}
    return ReferenceCover(K, top_of, lift, len(roots) == 1)


# ---------------------------------------------------------------------------
# homology columns: the package reports every degree in homology_table


def betti_numbers(K) -> list[int]:
    """b_q for q = 0..dim, the betti column of `homology_table`."""
    return [row["betti"] for row in homology_table(K)]


def torsion_invariants(K) -> list[list[int]]:
    """The invariant factors of tors H_q for q = 0..dim, the torsion column
    of `homology_table`."""
    return [row["torsion"] for row in homology_table(K)]


# ---------------------------------------------------------------------------
# spectral oracle


def one_block(M):
    """The InnerProduct of a Gram matrix M given as one n x n block."""
    M = np.asarray(M)
    return InnerProduct(len(M), np.arange(len(M))[None], M[None])


def dense_pencil(K, q, ip_q, ip_up):
    """The package's up-pencil (A, M) with M as the dense matrix that
    scipy.linalg.eigh takes."""
    from hodgecover import up_pencil
    return up_pencil(K, q, ip_q, ip_up)[0], ip_q.matrix


def down_gram(K, q, R, ip_down):
    """The dense R^T d M_down^{-1} d^T R, for d: C^(q-1) -> C^q and a sparse
    R, as W^T W with W = L^{-1} P d^T R: P puts M_down in reverse
    Cuthill-McKee order, where P M_down P^T = L L^T has a banded Cholesky
    factor, diagonal when M_down is, and dense triangular solves take
    over from there."""
    A = K.boundary_matrix(q)
    r, c, v = np.array(A.entries, dtype=float).reshape(-1, 3).T
    M = ip_down._csr()
    p = reverse_cuthill_mckee(M, symmetric_mode=True)
    Y = (csr_array((v, (r, c)), shape=(A.rows, A.cols)) @ R)[p]
    M = M[p][:, p].tocoo()
    off = M.row - M.col
    band = np.zeros((1 + off.max(), M.shape[0]))
    band[off[off >= 0], M.col[off >= 0]] = M.data[off >= 0]
    L = cholesky_banded(band, lower=True)
    if len(L) == 1:
        W = Y.multiply(1 / L[0][:, None]).tocsr()
        return (W.T @ W).toarray()
    L = dia_array((L, -np.arange(len(L))), shape=M.shape).toarray()
    W = solve_triangular(L, Y.toarray(), lower=True)
    return W.T @ W


def down_pencil(K, q, ip_q, ip_down):
    """(B, M) whose eigenvalues are those of the down-Laplacian d d* on
    q-cochains; B = M d M_down^{-1} d^T M is symmetric (down_gram).  The
    package solves only up-pencils, so this is the independent oracle for
    their spectra."""
    n = K.n_cells(q)
    if q == 0:
        return np.zeros((n, n)), ip_q.matrix
    B = down_gram(K, q, ip_q._csr(), ip_down)
    return (B + B.T) / 2, ip_q.matrix


# ---------------------------------------------------------------------------
# analytic oracles


def moser_oracle(n, q, L, lam, terms=500):
    """Extended-precision truncated product for the sup-norm iteration
    constant, summed termwise in logs with mpmath."""
    mp.mp.dps = 60
    g = mp.mpf(n) / (n - 2)
    sphere = 2 * mp.pi ** ((n + 1) / mp.mpf(2)) / mp.gamma((n + 1) / mp.mpf(2))
    kap = mp.mpf(n) * (n - 2) / 4 * sphere ** (mp.mpf(2) / n)
    s = mp.mpf(0)
    for k in range(terms):
        br = (q * (n - q) + lam) * g ** k + mp.mpf(4) ** (k + 1) / (L * L)
        s += (mp.log(br) - mp.log(kap)) / g ** k
    return float(mp.e ** s)


def brute_force_diameter(adjacency):
    """All-pairs shortest paths by repeated relaxation (no BFS reuse)."""
    n = len(adjacency)
    INF = 10 ** 9
    dist = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for i, nbrs in enumerate(adjacency):
        for j in nbrs:
            dist[i][j] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    best = max(max(row) for row in dist)
    assert best < INF, "disconnected"
    return best


# ---------------------------------------------------------------------------
# graphs read back from the CSR arrays, and reference graph algorithms


def adjacency(g):
    """Sorted neighbour lists of a Graph."""
    return [g.head[g.start[u]:g.start[u + 1]].tolist() for u in range(g.n)]


def edge_set(g):
    """The edges (u, v), u < v, of a Graph."""
    return {(u, v) for u, nbrs in enumerate(adjacency(g)) for v in nbrs
            if u < v}


def edge_labels(g):
    """{(u, v): label} over the labelled directed edges of a Graph."""
    tails = [u for u, nbrs in enumerate(adjacency(g)) for _ in nbrs]
    return {(u, v): g.names[x] for u, v, x in
            zip(tails, g.head.tolist(), g.label.tolist()) if x >= 0}


def reference_shortest_path_tree(g, v0):
    """Parent, depth and label word of every vertex, as dicts, from a deque
    BFS over sorted neighbour lists: a vertex's parent is the first of its
    neighbours to leave the queue."""
    adj, labels = adjacency(g), edge_labels(g)
    parent, depth, words = {v0: None}, {v0: 0}, {v0: ()}
    order = deque([v0])
    while order:
        u = order.popleft()
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                depth[w] = depth[u] + 1
                words[w] = words[u] + (labels.get((u, w)),)
                order.append(w)
    return parent, depth, words


def reference_graph_diameter(G):
    """Maximum eccentricity, exact: BFS from every source at once.

    Row v of a bitset holds one bit per source that has reached v; a level
    ORs each row with its neighbours' rows, and the diameter is the number
    of levels that change anything (Then et al., "The More the Merrier",
    PVLDB 8(4), 2014).  Vertices are relabelled by falling degree, so the
    vertices with a k-th neighbour are a prefix and a level is one gather
    per neighbour slot.  Sources go in batches of whole 64-bit words that
    keep a bitset within _BITSET_WORDS words."""
    n = G.n
    if n == 0:
        return 0
    adj = adjacency(G)
    order = sorted(range(n), key=lambda v: -len(adj[v]))
    label = [0] * n
    for i, v in enumerate(order):
        label[v] = i
    slots: list[list[int]] = [[] for _ in adj[order[0]]]
    for v in order:
        for k, w in enumerate(adj[v]):
            slots[k].append(label[w])
    neighbours = [np.array(s, dtype=np.intp) for s in slots]
    words = (n + 63) // 64
    batch = max(1, min(words, hodgecover.covers._BITSET_WORDS // n))
    diam = 0
    for w0 in range(0, words, batch):
        src = np.arange(64 * w0, min(n, 64 * (w0 + batch)))
        reach = np.zeros((n, min(batch, words - w0)), dtype=np.uint64)
        reach[src, src // 64 - w0] = np.uint64(1) << (src % 64).astype(np.uint64)
        full = np.bitwise_or.reduce(reach, axis=0)
        level = 0
        while True:
            grown = reach.copy()
            for nbr in neighbours:
                grown[:len(nbr)] |= reach[nbr]
            if np.array_equal(grown, reach):
                break
            reach = grown
            level += 1
        if not (reach == full).all():
            raise CoverError("graph is disconnected")
        diam = max(diam, level)
    return diam


def pair_labelled_graph(n, edges, labels):
    """The Graph of `edges` with labels given as pairs: labels[i] = (a, b)
    labels edge i = (u, v) from u to v and (b, a) from v to u, None leaves
    it unlabelled; the pairs are named in order of first appearance."""
    ids = {}
    label = [[-1, -1] if x is None else
             [ids.setdefault(tuple(y), len(ids)) for y in (x, x[::-1])]
             for x in labels]
    return Graph(n, edges, np.array(label, np.intp).reshape(-1, 2), list(ids))


def permutation_schreier_graph(base_edges, perms, degree):
    """The Schreier graph of a permutation action over a base graph: vertex
    b * degree + x is point x over base vertex b, and base edge (a, b)
    carrying permutation p joins (a, x) to (b, p[x]) under label (a, b).
    Base edges without a permutation carry the identity."""
    n = 1 + max(max(e) for e in base_edges)
    edges, labels = [], []
    for a, b in base_edges:
        p = perms.get((a, b), range(degree))
        for x in range(degree):
            edges.append((a * degree + x, b * degree + p[x]))
            labels.append((a, b))
    return pair_labelled_graph(n * degree, edges, labels)


def word_sheet_action(spec, word, sheet):
    """Apply a label word's permutations left to right to a sheet index."""
    for label in word:
        sheet = spec.perms[tuple(label)][sheet]
    return sheet


def word_tile_action(cover, word, tile):
    """Follow a label word through the cover's dual graph from a tile."""
    t, s = cover.top_of[tile]
    for (a, b) in word:
        if a != t:
            raise CoverError(f"word step ({a},{b}) does not start at tile "
                             f"over {t}")
        s = cover.spec.perms[(a, b)][s]
        t = b
    return cover.lift_cell(cover.complex.dim, t, t, s)


def holonomy_generators(spec):
    """Sheet permutations of the dual-graph loops based at top cell 0: out
    along a BFS tree of the base's dual graph, across one dual edge, and
    back.  These loops generate every closed loop's sheet action."""
    g = dual_graph(spec.base)
    order, parent, _ = g._bfs(0)
    if len(order) != g.n:
        raise CoverError("base dual graph is disconnected")
    path = {0: list(range(spec.degree))}      # sheet over 0 -> sheet over v
    for v in order[1:]:
        p = spec.perms[(parent[v], v)]
        path[v] = [p[s] for s in path[parent[v]]]
    gens = []
    for (u, v), p in spec.perms.items():
        back = {t: s for s, t in enumerate(path[v])}
        h = tuple(back[p[t]] for t in path[u])
        if h != tuple(range(spec.degree)):
            gens.append(h)
    return gens


def is_transitive(spec):
    """True iff the holonomy of loops at top cell 0 moves sheet 0 to every
    sheet, which is the cover being connected."""
    gens = holonomy_generators(spec)
    seen, todo = {0}, [0]
    for s in todo:
        for t in (h[s] for h in gens):
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return len(seen) == spec.degree


def figure_eight(length):
    """Edges of two cycles of the given length through vertex 0."""
    ring = [0, *range(1, length)], [0, *range(length, 2 * length - 1)]
    return [(r[i], r[(i + 1) % length]) for r in ring for i in range(length)]


def composite_cover(K, rng) -> PermutationCoverSpec:
    """A degree-6 cover of K: a Z/3 cyclic cover of a Z/2 cyclic cover of
    K, written as one spec over K with sheet (s2, s3) numbered 3 s2 + s3."""
    inner = random_cyclic_cover(K, 2, rng)
    middle = hodgecover.build_cover(inner)
    outer = random_cyclic_cover(middle.complex, 3, rng)
    perms, n = {}, K.dim
    for (a, b), p2 in inner.perms.items():
        if a < b:
            perms[(a, b)] = tuple(
                3 * p2[s2] + outer.perms[(middle.lift_cell(n, a, a, s2),
                                          middle.lift_cell(n, b, b, p2[s2]))][s3]
                for s2 in range(2) for s3 in range(3))
    return PermutationCoverSpec(K, 6, perms)


# ---------------------------------------------------------------------------
# reference boundary matrix: one tuple slice and dict lookup per entry


def reference_boundary_matrix(K, q):
    """The q-th boundary matrix built entry by entry from the cell tuples:
    deleting the i-th vertex of a cell gives a face of sign (-1)**i."""
    from hodgecover.complexes import SparseIntMatrix
    entries = []
    for j, cell in enumerate(K.cells[q]):
        for i in range(q + 1):
            row = K.cell_index[q - 1][cell[:i] + cell[i + 1:]]
            entries.append((row, j, (-1) ** i))
    return SparseIntMatrix(K.n_cells(q - 1), K.n_cells(q),
                           tuple(sorted(entries)))


# ---------------------------------------------------------------------------
# reference Whitney assembly: one top simplex at a time


def reference_gram(geometry, top):
    """Edge-vector Gram of the simplex `top` (a sorted vertex tuple) from the
    law of cosines, one entry at a time: the edges run from top[0], so
    G[i-1, j-1] = (l_0i^2 + l_0j^2 - l_ij^2) / 2 and G[i-1, i-1] = l_0i^2.
    No checks: the package's own test of the lengths is what is under test."""
    def sq(i, j):
        return geometry.edge_lengths[(top[i], top[j])] ** 2

    m = len(top) - 1
    G = np.empty((m, m))
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            G[i - 1, j - 1] = sq(0, i) if i == j else \
                (sq(0, i) + sq(0, j) - sq(min(i, j), max(i, j))) / 2
    return G


def reference_mass_matrix(K, geometry, q):
    """Whitney q-form mass matrix built top by top: the edge-vector Gram of
    each top from `reference_gram`, its barycentric-gradient Gram H, the
    compound C[I, J] = det H[I, J], and X (C kron E) X^T added in place,
    then symmetrized."""
    n = K.dim
    faces = list(combinations(range(n + 1), q + 1))
    subsets = list(combinations(range(n + 1), q))
    X = np.zeros((len(faces), len(subsets), n + 1))
    for a, f in enumerate(faces):
        for k, v in enumerate(f):
            X[a, subsets.index(f[:k] + f[k + 1:]), v] = \
                (-1) ** k * math.factorial(q)
    X = X.reshape(len(faces), -1)
    S = np.array(subsets, dtype=int).reshape(len(subsets), q)
    M = np.zeros((K.n_cells(q), K.n_cells(q)))
    for top in K.cells[n]:
        G = reference_gram(geometry, top)
        Ginv = np.linalg.inv(G)
        H = np.zeros((n + 1, n + 1))
        H[1:, 1:] = Ginv
        H[0, 1:] = -Ginv.sum(axis=0)
        H[1:, 0] = -Ginv.sum(axis=1)
        H[0, 0] = Ginv.sum()
        C = np.linalg.det(H[S[:, None, :, None], S[None, :, None, :]])
        vol = math.sqrt(np.linalg.det(G)) / math.factorial(n)
        E = vol * (1 + np.eye(n + 1)) / ((n + 1) * (n + 2))
        glob = [K.cell_index[q][tuple(top[i] for i in f)] for f in faces]
        M[np.ix_(glob, glob)] += X @ np.kron(C, E) @ X.T
    return (M + M.T) / 2


def reference_mass_blocks(K, q, G, vol):
    """The (T, m, m) Whitney q-form blocks X (C_t kron E_t) X^T of the tops
    of K from their edge-vector Grams G and volumes vol, in batched LAPACK:
    the barycentric-gradient Grams H_t filled entry block by entry block,
    the minors C_t[I, J] by np.linalg.det of the (T, s, s, q, q) stack of
    submatrices, and the explicit product with the Kronecker matrix
    C_t kron E_t; symmetrized."""
    n = K.dim
    Ginv = np.linalg.inv(G)
    H = np.empty((len(G), n + 1, n + 1))
    H[:, 1:, 1:] = Ginv
    H[:, 0, 1:] = -Ginv.sum(axis=1)
    H[:, 1:, 0] = -Ginv.sum(axis=2)
    H[:, 0, 0] = Ginv.sum(axis=(1, 2))
    faces = list(combinations(range(n + 1), q + 1))
    subsets = list(combinations(range(n + 1), q))
    X = np.zeros((len(faces), len(subsets), n + 1))
    for a, f in enumerate(faces):
        for k, v in enumerate(f):
            X[a, subsets.index(f[:k] + f[k + 1:]), v] = \
                (-1) ** k * math.factorial(q)
    X = X.reshape(len(faces), -1)
    S = np.array(subsets, dtype=int).reshape(len(subsets), q)
    C = np.linalg.det(H[:, S[:, None, :, None], S[None, :, None, :]])
    E = vol[:, None, None] * (1 + np.eye(n + 1)) / ((n + 1) * (n + 2))
    T, s, _ = C.shape
    CE = np.einsum("tij,tvw->tivjw", C, E).reshape(
        T, s * (n + 1), s * (n + 1))
    B = X @ CE @ X.T
    return (B + B.transpose(0, 2, 1)) / 2


def exact_mass_blocks(K, q, G, vol, digits=50):
    """The blocks of reference_mass_blocks for the same G and vol, top by
    top in mpmath at `digits` digits, rounded to floats once."""
    n = K.dim
    faces = list(combinations(range(n + 1), q + 1))
    subsets = list(combinations(range(n + 1), q))
    with mp.workdps(digits):
        P = mp.matrix([[-1] * n] + np.eye(n, dtype=int).tolist())
        out = []
        for g, v in zip(G, vol):
            H = P * mp.matrix(g.tolist()) ** -1 * P.T

            def C(I, J):
                return mp.det(mp.matrix([[H[a, b] for b in J] for a in I])) \
                    if q else mp.mpf(1)

            def W(f, g):     # the integral of <W_f, W_g>, term by term
                return sum((-1) ** (k + j) * math.factorial(q) ** 2
                           * C(f[:k] + f[k + 1:], g[:j] + g[j + 1:])
                           * mp.mpf(v) * (1 + (u == w)) / ((n + 1) * (n + 2))
                           for k, u in enumerate(f) for j, w in enumerate(g))

            out.append([[float(W(f, g)) for g in faces] for f in faces])
    return np.array(out)


# ---------------------------------------------------------------------------
# reference fillings in Fraction arithmetic: every exact step on Python
# Fractions, one entry at a time, where the package keeps integers over one
# denominator


def reference_certify(f, g, inner, delta, norm_g):
    """The certificate of the Fraction chain g: m the lcm of its
    denominators, and d2 (m g) = m f checked in integers."""
    from hodgecover.fillings import FillingCertificate, FillingError
    m = math.lcm(*(c.denominator for c in g))
    mg = [c.numerator * (m // c.denominator) for c in g]
    if f.complex.boundary_matrix(2).apply(mg) != \
            [m * c for c in f.coefficients]:
        raise FillingError("chain does not bound the cycle exactly")
    one_norm = Fraction(sum(abs(c) for c in mg))
    return FillingCertificate(f, tuple(g), m, one_norm, 4 * one_norm,
                              inner, delta, norm_g)


def reference_rounded_chain(g0, kernel, coeffs, denom):
    """g0 + sum_k c_k kernel[k], each c_k rounded to a multiple of 1/denom."""
    cr = [Fraction(round(c * denom), denom) for c in coeffs]
    return [g0[j] + sum(ck * v[j] for ck, v in zip(cr, kernel))
            for j in range(len(g0))]


def _fraction_dot(u, v):
    return sum((a * b for a, b in zip(u, v) if a and b), Fraction(0))


def _mass_norm(ip, x):
    return math.sqrt(max(x @ ip.apply(x), 0.0))


def reference_weighted_median(g0, n):
    """The least c minimizing |g0 + c n|_1: the lower median of the
    Fraction points -g0_i / n_i (n_i != 0) with weights |n_i|."""
    points, weights = zip(*sorted((Fraction(-a) / b, abs(b))
                                  for a, b in zip(g0, n) if b))
    total, seen = sum(weights), 0
    for c, w in zip(points, weights):
        seen += w
        if 2 * seen >= total:
            return c


def reference_l1_coefficients(g0, kernel):
    """The float c minimizing |g0 + N c|_1 by HiGHS, from the Fraction g0:
    the LP in (c, t), t >= +-(g0 + N c), solved for g0 / 2^e with
    2^e >= max |g0| and scaled back."""
    from scipy.optimize import linprog
    n2, k = len(g0), len(kernel)
    N = np.array([[float(x) for x in v] for v in kernel], dtype=float).T
    scale = 2 ** max(math.ceil(max(map(abs, g0))) - 1, 0).bit_length()
    g0f = np.array([float(x / scale) for x in g0])
    i, j = np.nonzero(N)
    cells = np.arange(n2)
    A_ub = csr_array((
        np.concatenate([N[i, j], -N[i, j], -np.ones(2 * n2)]),
        (np.concatenate([i, i + n2, cells, cells + n2]),
         np.concatenate([j, j, cells + k, cells + k]))),
        shape=(2 * n2, k + n2))
    res = linprog(np.concatenate([np.zeros(k), np.ones(n2)]), A_ub=A_ub,
                  b_ub=np.concatenate([-g0f, g0f]),
                  bounds=[(None, None)] * (k + n2), method="highs")
    assert res.success, res.message
    return res.x[:k] * scale


def reference_filling(f, inner, ip=None):
    """The certified comb, Whitney (with the degree-2 product ip) or l1
    filling of f in Fractions, from rat_solve_and_kernel's g0 and basis N:
    the comb solves its k x k normal equations (N^T N) c = -N^T g0 with
    rat_solve; the Whitney c, the float minimizer of the mass norm, is
    rounded at 10^-6, else 10^-9, within a norm slack of 10^-6; the l1 c is
    the weighted median (k = 1) or the LP's, rounded at 10^-6."""
    from hodgecover.fillings import FillingError
    g0, kernel = rat_solve_and_kernel(f.complex.boundary_matrix(2),
                                      list(f.coefficients))
    if g0 is None:
        raise FillingError("cycle is not rationally null")
    if inner == "comb":
        g = g0
        if kernel:
            c = rat_solve([[_fraction_dot(u, v) for v in kernel]
                           for u in kernel],
                          [-_fraction_dot(u, g0) for u in kernel])
            g = [g0[j] + sum(ck * v[j] for ck, v in zip(c, kernel) if v[j])
                 for j in range(len(g0))]
        return reference_certify(f, g, "comb", 0.0,
                                 math.sqrt(float(sum(c * c for c in g))))
    g0f = np.array([float(c) for c in g0])
    if inner == "l1":
        if not kernel:
            return reference_certify(f, g0, "l1", 0.0,
                                     float(np.sum(np.abs(g0f))))
        c = [reference_weighted_median(g0, kernel[0])] if len(kernel) == 1 \
            else reference_l1_coefficients(g0, kernel)
        g = reference_rounded_chain(g0, kernel, c, 10 ** 6)
        return reference_certify(f, g, "l1", 0.0,
                                 float(sum(abs(float(x)) for x in g)))
    if not kernel:
        return reference_certify(f, g0, "whitney", 0.0, _mass_norm(ip, g0f))
    N = np.array([[float(x) for x in v] for v in kernel], dtype=float).T
    MN = ip.apply(N)
    c = np.linalg.solve(N.T @ MN, -(MN.T @ g0f))
    norm_float = _mass_norm(ip, g0f + N @ c)
    for denom in (10 ** 6, 10 ** 9):
        g = reference_rounded_chain(g0, kernel, c, denom)
        norm_g = _mass_norm(ip, np.array([float(x) for x in g]))
        if norm_g <= (1.0 + 1e-6) * norm_float or norm_float == 0.0:
            return reference_certify(f, g, "whitney", 1e-6, norm_g)
    raise FillingError("rounded filling exceeds the allowed norm slack")


# ---------------------------------------------------------------------------
# reference Whitney filling: the dense normal equations


def reference_whitney_filling(f, ip, delta=1e-6,
                              denominators=(10 ** 6, 10 ** 9)):
    """Whitney least-norm filling through the normal equations: the float
    minimizer M^-1 A^T (A M^-1 A^T)^+ f from a Cholesky solve with n_1
    right-hand sides and two least-squares solves, mapped back onto the
    exact solution set g0 + span N and rounded as the package does."""
    from hodgecover.fillings import FillingError
    A = f.complex.boundary_matrix(2)
    b = list(f.coefficients)
    g0, kernel = rat_solve_and_kernel(A, b)
    if g0 is None:
        raise FillingError("cycle is not rationally null")
    M = ip.matrix
    Af = to_float(A)
    MinvAt = cho_solve(cho_factor(M), Af.T)
    g_float = MinvAt @ np.linalg.lstsq(Af @ MinvAt, np.array(b, dtype=float),
                                       rcond=None)[0]
    norm_float = math.sqrt(max(g_float @ M @ g_float, 0.0))
    g0f = np.array([float(c) for c in g0])
    if not kernel:
        return reference_certify(f, g0, "whitney", 0.0,
                                 math.sqrt(max(g0f @ M @ g0f, 0.0)))
    N = np.array([[float(x) for x in v] for v in kernel], dtype=float).T
    c, *_ = np.linalg.lstsq(N, g_float - g0f, rcond=None)
    for denom in denominators:
        g = reference_rounded_chain(g0, kernel, c, denom)
        gf = np.array([float(x) for x in g])
        norm_g = math.sqrt(max(gf @ M @ gf, 0.0))
        if norm_g <= (1.0 + delta) * norm_float or norm_float == 0.0:
            return reference_certify(f, g, "whitney", delta, norm_g)
    raise FillingError("rounded filling exceeds the allowed norm slack")


# ---------------------------------------------------------------------------
# reference comb filling and non-null certificate: the normal equations and
# the whole kernel basis of d2^T


def reference_comb_filling(f):
    """Comb least-norm filling through the exact normal equations: g = d2^T y
    with (d2 d2^T) y = f.  The Euclidean minimizer is unique, so any exact
    route must give this g."""
    from hodgecover.fillings import FillingError
    A = f.complex.boundary_matrix(2)
    At = A.transpose()
    y = rat_solve(A.matmul(At), list(f.coefficients))
    if y is None:
        raise FillingError("cycle is not rationally null")
    g = At.apply(y)
    return reference_certify(f, g, "comb", 0.0,
                             math.sqrt(float(sum(c * c for c in g))))


def reference_certificate(f):
    """The first vector of the kernel basis of d2^T (in free-column order)
    whose pairing with f is nonzero, from the whole basis; None if every
    vector pairs to zero."""
    for y in rat_nullspace(f.complex.boundary_matrix(2).transpose()):
        if sum(yi * bi for yi, bi in zip(y, f.coefficients)) != 0:
            return y
    return None


# ---------------------------------------------------------------------------
# determinant oracle: fraction-free Bareiss elimination, independent of the
# package's sparse elimination kernel


def bareiss_det(A) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(A)
    if n == 0:
        return 1
    M = [[int(x) for x in row] for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]
