"""Finite covers from permutation data on dual-graph adjacencies.

A cover of degree d is described by one permutation of the sheet set per
ordered dual-graph edge of the base (pairs of top cells sharing a facet),
with the reverse edge carrying the inverse permutation.  Lower-dimensional
cells of the cover are orbits of (cell, ambient top cell, sheet) triples
under the gluing relation those permutations generate.  The triples are
numbered so that the numbers sort as the triples do, and the orbits come from
whole-array min-label propagation with pointer jumping (numpy only).  Each
cover builds its Schreier graph once.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .complexes import ComplexError, SimplicialComplex


class CoverError(ValueError):
    """Raised for invalid permutation data or inconsistent identifications."""


_BITSET_WORDS = 1 << 22    # 32 MB per bitset of the all-sources BFS


# ---------------------------------------------------------------------------
# graphs


class Graph:
    """Undirected graph on vertices 0..n-1 with optional edge labels.

    A label is an ordered pair (a, b) read in the direction u -> v of the
    `add_edge(u, v, label)` call; the direction v -> u carries (b, a).
    """

    def __init__(self, n: int, edges=()):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.edges: set[tuple[int, int]] = set()
        self.labels: dict[tuple[int, int], tuple] = {}
        for u, v in edges:
            self.add_edge(u, v)

    def add_edge(self, u: int, v: int, label: tuple | None = None):
        if u == v:
            raise CoverError("loops not supported")
        key = (min(u, v), max(u, v))
        if key in self.edges:
            return
        self.edges.add(key)
        insort(self.adj[u], v)
        insort(self.adj[v], u)
        if label is not None:
            a, b = label
            self.labels[(u, v)] = label
            self.labels[(v, u)] = (b, a)

    def edge_label(self, u: int, v: int):
        return self.labels.get((u, v))

    def bfs_distances(self, v0: int) -> list[int]:
        dist = [-1] * self.n
        dist[v0] = 0
        dq = deque([v0])
        while dq:
            u = dq.popleft()
            for w in self.adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    dq.append(w)
        return dist

    def is_connected(self) -> bool:
        return self.n == 0 or all(d >= 0 for d in self.bfs_distances(0))


@dataclass
class SpanningTree:
    """Shortest-path spanning tree: parent map plus per-vertex access words."""

    root: int
    parent: dict[int, int | None]
    depth: dict[int, int]
    words: dict[int, tuple]  # edge labels along root -> v, in traversal order
    tree_edges: set[tuple[int, int]]

    def diameter(self) -> int:
        """Exact, by double sweep: on a tree, a vertex farthest from the root
        ends a longest path, so the largest distance from it is the diameter
        (Handler 1973).  The first sweep is the BFS that built the tree."""
        far = max(self.depth, key=self.depth.get)
        g = Graph(max(self.parent) + 1, self.tree_edges)
        return max(g.bfs_distances(far))


def shortest_path_tree(G: Graph, v0: int) -> SpanningTree:
    """BFS tree rooted at v0; tree distance to the root equals graph distance.

    Ties broken toward the lowest-index parent, so the result is
    deterministic.  Consequently diam(T) <= 2*diam(G).
    """
    parent: dict[int, int | None] = {v0: None}
    depth = {v0: 0}
    words: dict[int, tuple] = {v0: ()}
    order = deque([v0])
    while order:
        u = order.popleft()
        for w in G.adj[u]:  # adjacency sorted => lowest-index parent wins
            if w not in parent:
                parent[w] = u
                depth[w] = depth[u] + 1
                words[w] = words[u] + (G.edge_label(u, w),)
                order.append(w)
    if len(parent) != G.n:
        raise CoverError("graph is disconnected")
    edges = {(min(u, p), max(u, p)) for u, p in parent.items() if p is not None}
    return SpanningTree(v0, parent, depth, words, edges)


def graph_diameter(G: Graph) -> int:
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
    order = sorted(range(n), key=lambda v: -len(G.adj[v]))
    label = [0] * n
    for i, v in enumerate(order):
        label[v] = i
    slots: list[list[int]] = [[] for _ in G.adj[order[0]]]
    for v in order:
        for k, w in enumerate(G.adj[v]):
            slots[k].append(label[w])
    neighbours = [np.array(s, dtype=np.intp) for s in slots]
    words = (n + 63) // 64
    batch = max(1, min(words, _BITSET_WORDS // n))
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


def dual_graph(K: SimplicialComplex) -> Graph:
    """Top cells of K, adjacent when they share a facet; the direction
    i -> j is labelled (i, j)."""
    g = Graph(K.n_cells(K.dim))
    for (i, j) in K.facet_adjacencies():
        if i < j:
            g.add_edge(i, j, label=(i, j))
    return g


# ---------------------------------------------------------------------------
# permutation cover data


def _inverse_perm(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


@dataclass
class PermutationCoverSpec:
    """Degree-d cover of a pure complex, one sheet permutation per adjacency.

    `perms` maps ordered pairs (i, j) of top-cell indices sharing a facet to a
    permutation of range(degree); missing reverse directions are filled with
    inverses, and every dual-graph edge must be covered.
    """

    base: SimplicialComplex
    degree: int
    perms: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.degree < 1:
            raise CoverError("degree must be >= 1")
        self.adjacencies = self.base.facet_adjacencies()
        # the base must be pure, otherwise lower cells have no gluing data
        for q in range(self.base.dim):
            if (c := self.base.uncovered_cell(q)) is not None:
                raise CoverError(f"cell {c} is not a face of any top cell")

        norm: dict[tuple[int, int], tuple[int, ...]] = {}
        for (i, j), p in self.perms.items():
            if (i, j) not in self.adjacencies:
                raise CoverError(f"({i},{j}) is not a dual-graph adjacency")
            p = tuple(p)
            if sorted(p) != list(range(self.degree)):
                raise CoverError(f"invalid permutation {p} on ({i},{j})")
            norm[(i, j)] = p
        for (i, j), p in list(norm.items()):
            rev = norm.get((j, i))
            if rev is None:
                norm[(j, i)] = _inverse_perm(p)
            elif rev != _inverse_perm(p):
                raise CoverError(f"perms on ({i},{j}) and ({j},{i}) not inverse")
        for (i, j) in self.adjacencies:
            if (i, j) not in norm:
                raise CoverError(f"adjacency ({i},{j}) has no permutation")
        self.perms = norm

    def holonomy_generators(self) -> list[tuple[int, ...]]:
        """Sheet permutations of dual-graph loops based at top cell 0.

        Each dual edge contributes the loop that runs from the base tile to
        the edge along a fixed spanning tree, crosses it, and returns.  These
        loops generate every closed loop's sheet action.
        """
        g = dual_graph(self.base)
        if not g.is_connected():
            raise CoverError("base dual graph is disconnected")
        tree = shortest_path_tree(g, 0)
        ident = tuple(range(self.degree))

        def compose(p, q):  # s -> q[p[s]]
            return tuple(q[p[s]] for s in range(self.degree))

        path = {0: ident}
        for v in sorted(tree.depth, key=tree.depth.get):
            if tree.parent[v] is not None:
                u = tree.parent[v]
                path[v] = compose(path[u], self.perms[(u, v)])
        gens = []
        for (u, v) in self.perms:
            h = compose(compose(path[u], self.perms[(u, v)]),
                        _inverse_perm(path[v]))
            if h != ident:
                gens.append(h)
        return gens

    def is_transitive(self) -> bool:
        """True iff loops based at a tile reach every sheet (holonomy
        transitivity); equivalent to connectivity of the cover."""
        seen = {0}
        frontier = [0]
        gens = self.holonomy_generators()
        while frontier:
            s = frontier.pop()
            for p in gens:
                for t in (p[s], _inverse_perm(p)[s]):
                    if t not in seen:
                        seen.add(t)
                        frontier.append(t)
        return len(seen) == self.degree


@dataclass
class Cover:
    """A built cover: the pullback complex plus bookkeeping maps."""

    spec: PermutationCoverSpec
    complex: SimplicialComplex
    projection: list[list[int]]          # per dim: cover cell -> base cell
    top_index: dict[tuple[int, int], int]  # (base top, sheet) -> cover top cell
    top_of: list[tuple[int, int]]        # cover top cell -> (base top, sheet)
    lift: dict[tuple[int, int, int, int], int]  # (q, base cell, top, sheet) -> cover cell
    connected: bool = field(init=False)

    def __post_init__(self):
        """Build the Schreier graph once: dual graph of the cover's top-cell
        tiling, tiles numbered as the cover complex's top cells, edges
        labelled by the base adjacency they project to."""
        g = Graph(len(self.top_of))
        d = self.spec.degree
        for (a, b), p in self.spec.perms.items():
            if a < b:
                for s in range(d):
                    u = self.top_index[(a, s)]
                    v = self.top_index[(b, p[s])]
                    g.add_edge(u, v, label=(a, b))
        self._schreier = g
        self.connected = g.is_connected()

    def lift_cell(self, q: int, base_cell: int, top: int, sheet: int) -> int:
        return self.lift[(q, base_cell, top, sheet)]

    def schreier_graph(self) -> Graph:
        """The Schreier graph built with the cover: the same object on every
        call, so callers must not modify it."""
        return self._schreier


def _classes(size: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The smallest member of the class of each of 0..size-1 under u[i] ~ v[i]:
    each root hooks onto the least root it is joined to, pointer jumping
    flattens the forest, and that repeats until no pair joins two classes
    (min-label connected components, Shiloach and Vishkin, J. Algorithms 3,
    1982)."""
    lab = np.arange(size)
    while ((lu := lab[u]) != (lv := lab[v])).any():
        np.minimum.at(lab, np.maximum(lu, lv), np.minimum(lu, lv))
        while ((up := lab[lab]) != lab).any():
            lab = up
    return lab


def build_cover(spec: PermutationCoverSpec) -> Cover:
    """Glue degree-many copies of each base cell along the sheet permutations.

    Element (q, c, t, s) is sheet s of base q-cell c as a face of top t.  It
    is numbered i d + s, the incidences (q, c, t) numbered i in sorted order,
    so numbers sort as the tuples do and a class's smallest member is its
    representative.  Raises CoverError when the identifications fail to
    close up (two sheets of the same copy forced together); when several
    classes fail, the one with the smallest representative is named.  A
    disconnected result is legal and only flagged.
    """
    base, d = spec.base, spec.degree
    n = base.dim
    tops = base._rows(n)
    T = len(tops)
    sheets = np.arange(d)
    # per degree: the local faces, the sorted incidence keys c T + t, and
    # where each incidence sits among the flat (top, local face) pairs
    faces, keys, where = [], [], []
    for q in range(n + 1):
        f = np.array(list(combinations(range(n + 1), q + 1)))
        k = (base._index(q, tops[:, f]) * T + np.arange(T)[:, None]).ravel()
        o = np.argsort(k)              # the keys are distinct
        faces.append(f)
        keys.append(k[o])
        where.append(o)
    start = np.cumsum([0] + [len(k) for k in keys])

    # each face of the facet of a < b: sheet s over a ~ sheet p[s] over b
    adj = sorted(e for e in spec.adjacencies if e[0] < e[1])
    A, B = np.array(adj, dtype=np.intp).reshape(-1, 2).T
    P = np.array([spec.perms[e] for e in adj], dtype=np.intp).reshape(-1, d)
    shared = (tops[A][:, :, None] == tops[B][:, None, :]).any(axis=2)
    facets = tops[A][shared].reshape(len(adj), n)
    u, v = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for q in range(n):
        g = np.array(list(combinations(range(n), q + 1)))
        c = base._index(q, facets[:, g])
        ia, ib = (start[q] + np.searchsorted(keys[q], c * T + X[:, None])
                  for X in (A, B))
        u.append((ia[..., None] * d + sheets).ravel())
        v.append((ib[..., None] * d + P[:, None, :]).ravel())
    lab = _classes(start[-1] * d, np.concatenate(u), np.concatenate(v))

    by_sheet = lab.reshape(-1, d)
    ordered = np.sort(by_sheet, axis=1)
    twice = ordered[:, 1:] == ordered[:, :-1]
    if twice.any():
        rep = ordered[:, 1:][twice].min()
        i = np.flatnonzero((by_sheet == rep).sum(axis=1) > 1)[0]
        s0, s1 = np.flatnonzero(by_sheet[i] == rep)[:2]
        q = np.searchsorted(start, i, side="right") - 1
        c, t = divmod(keys[q][i - start[q]], T)
        raise CoverError(
            f"inconsistent identifications on cell {base.cells[q][c]}: "
            f"sheets {s0} and {s1} of top cell {t} coincide")

    # classes numbered by representative; the vertex classes come first
    root = lab == np.arange(len(lab))
    cls = (np.cumsum(root) - 1)[lab]
    first = np.searchsorted(keys[0], tops * T + np.arange(T)[:, None])
    vertex = cls[first[..., None] * d + sheets]    # top, local vertex, sheet
    cells_by_dim, projection, place = [], [], []
    for q in range(n + 1):
        e = np.flatnonzero(root[start[q] * d:start[q + 1] * d]) + start[q] * d
        i, s = e // d, e % d
        at = where[q][i - start[q]]
        t, f = at // len(faces[q]), at % len(faces[q])
        rows = np.sort(vertex[t[:, None], faces[q][f], s[:, None]], axis=1)
        o = np.lexsort(rows.T[::-1])
        again = np.zeros(len(o), dtype=bool)
        again[o[1:]] = (rows[o[1:]] == rows[o[:-1]]).all(axis=1)
        flat = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
        base_cell = keys[q][i - start[q]] // T
        bad = np.flatnonzero(flat | again)
        if len(bad):
            j = bad[0]
            what = "top-cell lifts" if q == n else f"lifts of dimension {q}"
            raise CoverError(
                f"cover cell over {base.cells[q][base_cell[j]]} degenerates "
                "(repeated vertex)" if flat[j] else f"two distinct {what} "
                f"share vertex set {tuple(rows[j].tolist())}")
        cells_by_dim.append(list(map(tuple, rows[o].tolist())))
        projection.append(base_cell[o].tolist())
        rank = np.empty_like(o)
        rank[o] = np.arange(len(o))
        place.append(rank)

    K = SimplicialComplex(cells_by_dim)
    every = np.arange(len(lab))
    key = np.concatenate(keys)[every // d]
    degree = np.searchsorted(start, every // d, side="right") - 1
    lift = dict(zip(zip(degree.tolist(), (key // T).tolist(),
                        (key % T).tolist(), (every % d).tolist()),
                    np.concatenate(place)[cls].tolist()))
    top_of = [divmod(k, d) for k in o.tolist()]    # o orders the top rows
    top_index = dict(zip(top_of, range(len(top_of))))
    return Cover(spec, K, projection, top_index, top_of, lift)


# ---------------------------------------------------------------------------
# tree-type fundamental domains


@dataclass
class FacePairing:
    face: tuple[int, int]         # (tile index, cover facet cell index)
    paired_face: tuple[int, int]
    word: tuple                   # base adjacency labels, applied left to right


@dataclass
class FacePairingSet:
    pairings: list[FacePairing]

    def __len__(self):
        return len(self.pairings)

    def boundary_faces(self) -> list[tuple[int, int]]:
        out = []
        for p in self.pairings:
            out.append(p.face)
            out.append(p.paired_face)
        return out


def _invert_word(word: tuple, rev: dict) -> tuple:
    """The word read backwards, each label (a, b) replaced by rev's (b, a)."""
    return tuple(map(rev.__getitem__, reversed(word)))


def tree_fundamental_domain(cover: Cover, tree: SpanningTree
                            ) -> tuple[dict[int, tuple], FacePairingSet]:
    """Tile access words and face pairings of the tree-type domain.

    Tiles are the vertices of the cover's dual graph; each carries the label
    word of its tree path from the root.  Every non-tree dual edge produces
    one pairing word: out along the tree, across the edge, back to the root.
    """
    g = cover.schreier_graph()
    if set(tree.parent) != set(range(g.n)):
        raise CoverError("tree does not span the cover's dual graph")
    words = dict(tree.words)
    n = cover.spec.base.dim
    rev = {(a, b): (b, a) for (a, b) in cover.spec.perms}
    pairings = []
    for (u, w) in sorted(g.edges):
        if (u, w) in tree.tree_edges:
            continue
        label = g.edge_label(u, w)
        tu, su = cover.top_of[u]
        facet = cover.spec.adjacencies[label]
        fi = cover.spec.base.cell_index[n - 1][facet]
        face = (u, cover.lift_cell(n - 1, fi, tu, su))
        tw, sw = cover.top_of[w]
        paired = (w, cover.lift_cell(n - 1, fi, tw, sw))
        word = words[u] + (label,) + _invert_word(words[w], rev)
        pairings.append(FacePairing(face, paired, word))
    return words, FacePairingSet(pairings)


def word_sheet_action(spec: PermutationCoverSpec, word: tuple,
                      sheet: int) -> int:
    """Apply a label word's permutations left to right to a sheet index."""
    s = sheet
    for label in word:
        s = spec.perms[tuple(label)][s]
    return s


def word_tile_action(cover: Cover, word: tuple, tile: int) -> int:
    """Follow a label word through the cover's dual graph from a tile."""
    t, s = cover.top_of[tile]
    for (a, b) in word:
        if a != t:
            raise CoverError(f"word step ({a},{b}) does not start at tile over {t}")
        s = cover.spec.perms[(a, b)][s]
        t = b
    return cover.top_index[(t, s)]
