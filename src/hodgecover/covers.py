"""Finite covers from permutation data on dual-graph adjacencies.

A cover of degree d is described by one permutation of the sheet set per
ordered dual-graph edge of the base (pairs of top cells sharing a facet),
with the reverse edge carrying the inverse permutation.  Lower-dimensional
cells of the cover are orbits of (cell, ambient top cell, sheet) triples
under the gluing relation those permutations generate.
"""

from __future__ import annotations

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
        self.adj[u].append(v)
        self.adj[v].append(u)
        if label is not None:
            a, b = label
            self.labels[(u, v)] = label
            self.labels[(v, u)] = (b, a)
        for w in (u, v):
            self.adj[w].sort()

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
        n = self.base.dim
        # the base must be pure, otherwise lower cells have no gluing data
        tops = self.base.cells[n]
        covered = set()
        for cell in tops:
            for k in range(1, n + 1):
                covered.update(combinations(cell, k))
        for q in range(n):
            for c in self.base.cells[q]:
                if c not in covered:
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
        self.connected = self.schreier_graph().is_connected()

    def lift_cell(self, q: int, base_cell: int, top: int, sheet: int) -> int:
        return self.lift[(q, base_cell, top, sheet)]

    def schreier_graph(self) -> Graph:
        """Dual graph of the cover's top-cell tiling, tiles numbered as the
        cover complex's top cells, edges labelled by the base adjacency they
        project to."""
        g = Graph(len(self.top_of))
        d = self.spec.degree
        for (a, b), p in self.spec.perms.items():
            if a < b:
                for s in range(d):
                    u = self.top_index[(a, s)]
                    v = self.top_index[(b, p[s])]
                    g.add_edge(u, v, label=(a, b))
        return g


def build_cover(spec: PermutationCoverSpec) -> Cover:
    """Glue degree-many copies of each base cell along the sheet permutations.

    Raises CoverError when the induced identifications on lower cells fail to
    close up (two sheets of the same copy forced together).  A disconnected
    result is legal and only flagged.
    """
    base = spec.base
    n = base.dim
    d = spec.degree
    tops = base.cells[n]

    # elements: (q, base cell index, ambient top index, sheet)
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

    # group into classes; detect orbit-closure failure
    classes: dict = {}
    for key in list(uf.parent):
        classes.setdefault(uf.find(key), []).append(key)
    class_of = {}
    for root, members in classes.items():
        members.sort()
        seen_tops: dict[int, int] = {}
        for (q, ci, t, s) in members:
            if t in seen_tops and seen_tops[t] != s:
                raise CoverError(
                    f"inconsistent identifications on cell {base.cells[q][ci]}: "
                    f"sheets {seen_tops[t]} and {s} of top cell {t} coincide")
            seen_tops[t] = s
        for key in members:
            class_of[key] = members[0]

    # vertex ids in deterministic order of class representatives
    vertex_reps = sorted({class_of[k] for k in class_of if k[0] == 0})
    vertex_id = {rep: i for i, rep in enumerate(vertex_reps)}

    def cell_vertices(ci_cell: tuple[int, ...], t: int, s: int) -> tuple[int, ...]:
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
    proj_by_cell: list[dict[tuple[int, ...], int]] = [dict() for _ in range(n + 1)]
    lift: dict[tuple[int, int, int, int], int] = {}

    # lower-dimensional cells: one per class
    rep_of_class: dict = {}
    for q in range(n):
        reps = sorted({class_of[k] for k in class_of if k[0] == q})
        for rep in reps:
            _, ci, t, s = rep
            tup = cell_vertices(base.cells[q][ci], t, s)
            if tup in proj_by_cell[q]:
                raise CoverError(
                    f"two distinct lifts of dimension {q} share vertex set {tup}")
            proj_by_cell[q][tup] = ci
            cells_by_dim[q].append(tup)
            rep_of_class[rep] = tup

    # top cells: (t, s) pairs, never identified among themselves
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
    projection = [
        [proj_by_cell[q][c] for c in K.cells[q]] for q in range(n + 1)
    ]
    top_index = {
        (t, s): K.cell_index[n][tup] for (t, s), tup in top_tuple.items()
    }
    top_of = [None] * K.n_cells(n)
    for (t, s), i in top_index.items():
        top_of[i] = (t, s)
    for (q, ci, t, s), rep in ((k, class_of[k]) for k in class_of):
        lift[(q, ci, t, s)] = K.cell_index[q][rep_of_class[rep]]
    for t, cell in enumerate(tops):
        for s in range(d):
            lift[(n, t, t, s)] = top_index[(t, s)]

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


def _invert_word(word: tuple) -> tuple:
    return tuple((b, a) for (a, b) in reversed(word))


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
        word = words[u] + (label,) + _invert_word(words[w])
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
