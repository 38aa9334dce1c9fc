"""Finite covers from permutation data on dual-graph adjacencies.

A cover of degree d is described by one permutation of the sheet set per
ordered dual-graph edge of the base (pairs of top cells sharing a facet),
with the reverse edge carrying the inverse permutation.  Lower-dimensional
cells of the cover are orbits of (cell, ambient top cell, sheet) triples
under the gluing relation those permutations generate.  The triples are
numbered so that the numbers sort as the triples do, and the orbits come from
whole-array min-label propagation with pointer jumping (numpy only).  Each
cover builds its Schreier graph once, from arrays, as an immutable CSR
`Graph` that one breadth-first search, the diameter and the orbit search
all read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .complexes import SimplicialComplex, _integer


class CoverError(ValueError):
    """Raised for invalid permutation data or inconsistent identifications."""


_BITSET_WORDS = 1 << 22    # 32 MB per bitset of the many-sources BFS


# ---------------------------------------------------------------------------
# graphs


class Graph:
    """Immutable undirected graph on vertices 0..n-1 with optional edge
    labels, kept as read-only integer arrays.

    Both directions of every edge, sorted by (tail, head), form the CSR
    arrays `start` and `head`: u's neighbours, in increasing order, are
    head[start[u]:start[u + 1]], and `label` numbers each one's label in
    `names` (-1 for none).  `labels`, if given, runs parallel to `edges`: a
    pair (a, b) labels the direction u -> v of edge (u, v), and v -> u
    carries (b, a); None leaves the edge unlabelled.  A repeated edge keeps
    its first occurrence's label in both directions.
    """

    def __init__(self, n: int, edges=(), labels=None):
        edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
        ids: dict = {}
        label = [[-1, -1] if x is None else [ids.setdefault(tuple(y), len(ids))
                                             for y in (x, x[::-1])]
                 for x in labels or [None] * len(edges)]
        self._store(n, edges, np.array(label, np.intp).reshape(-1, 2),
                    list(ids))

    @classmethod
    def from_arrays(cls, n: int, edges: np.ndarray, label: np.ndarray,
                    names: list) -> Graph:
        """The graph of (m, 2) arrays of edges and of their label numbers."""
        g = cls.__new__(cls)
        g._store(n, edges, label, names)
        return g

    def _store(self, n, edges, label, names):
        if (edges[:, 0] == edges[:, 1]).any():
            raise CoverError("loops not supported")
        # edge i's two directions are keys 2i and 2i + 1, so the first
        # occurrence of either direction of a repeated edge is its first edge
        key, first = np.unique((edges * n + edges[:, ::-1]).ravel(),
                               return_index=True)
        self.n, self.names = n, names
        self.start = np.searchsorted(key, np.arange(n + 1) * n)
        if self.start[0] or self.start[-1] < len(key):   # keys outside [0, n²)
            raise CoverError(f"a vertex lies outside 0..{n - 1}")
        self.head = key % max(n, 1)
        self.label = label.ravel()[first]
        for a in (self.start, self.head, self.label):
            a.flags.writeable = False

    def tails(self) -> np.ndarray:
        return np.repeat(np.arange(self.n), np.diff(self.start))

    def _edges(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Positions of the directed edges u[i] -> w[i], which must exist."""
        return np.searchsorted(self.tails() * self.n + self.head,
                               u * self.n + w)

    def bfs(self, v0: int) -> tuple[list[int], list[int], list[int]]:
        """Breadth-first search from v0 over neighbours in increasing order:
        the vertices in the order they leave the queue, and per vertex its
        parent (the first of its neighbours to leave the queue; -1 at v0)
        and depth, both -1 where v0's component does not reach."""
        start, head = self.start.tolist(), self.head.tolist()
        parent, depth = [-1] * self.n, [-1] * self.n
        depth[v0] = 0
        order = [v0]
        for u in order:
            du = depth[u] + 1
            for w in head[start[u]:start[u + 1]]:
                if depth[w] < 0:
                    parent[w], depth[w] = u, du
                    order.append(w)
        return order, parent, depth

    def is_connected(self) -> bool:
        return self.n == 0 or len(self.bfs(0)[0]) == self.n


@dataclass
class SpanningTree:
    """Shortest-path spanning tree: parent and depth arrays (parent -1 at the
    root) plus per-vertex access words."""

    root: int
    parent: np.ndarray
    depth: np.ndarray
    words: dict[int, tuple]  # edge labels along root -> v, in traversal order

    @property
    def tree_edges(self) -> set[tuple[int, int]]:
        return {(min(v, p), max(v, p))
                for v, p in enumerate(self.parent.tolist()) if p >= 0}

    def diameter(self) -> int:
        """Exact, by double sweep: on a tree, a vertex farthest from the root
        ends a longest path, so the largest distance from it is the diameter
        (Handler 1973).  The first sweep is the BFS that built the tree."""
        v = np.flatnonzero(self.parent >= 0)
        tree = Graph(len(self.parent), np.column_stack((v, self.parent[v])))
        return max(tree.bfs(int(np.argmax(self.depth)))[2])


def shortest_path_tree(G: Graph, v0: int) -> SpanningTree:
    """BFS tree rooted at v0; tree distance to the root equals graph distance.

    A vertex's parent is the first of its neighbours to leave the BFS queue,
    which need not be its lowest-index neighbour one level up; the result is
    deterministic.  Consequently diam(T) <= 2*diam(G).
    """
    order, parent, depth = G.bfs(v0)
    if len(order) != G.n:
        raise CoverError("graph is disconnected")
    parent, depth = np.array(parent), np.array(depth)
    w = np.array(order[1:], dtype=np.intp)
    names = G.names + [None]            # label -1 reads None
    words: dict[int, tuple] = {v0: ()}
    for v, u, x in zip(order[1:], parent[w].tolist(),
                       G.label[G._edges(parent[w], w)].tolist()):
        words[v] = words[u] + (names[x],)
    return SpanningTree(v0, parent, depth, words)


def graph_diameter(G: Graph) -> int:
    """Maximum eccentricity, exact: BFS from many sources at once.

    Eccentricity is constant on the orbits of G's label-preserving
    automorphisms (on a Schreier graph, the deck group), so one source per
    orbit is enough (_orbit_sources).  Row v of a bitset holds one bit per
    source that has reached v; a level ORs each row with its neighbours'
    rows, and the diameter is the number of levels that change anything
    (Then et al., "The More the Merrier", PVLDB 8(4), 2014).  Vertices are
    relabelled by falling degree, so the vertices with a k-th neighbour are
    a prefix and a level is one gather per neighbour slot.  Sources go in
    batches of whole 64-bit words that keep a bitset within _BITSET_WORDS
    words."""
    n = G.n
    if n == 0:
        return 0
    deg = np.diff(G.start)
    order = np.argsort(-deg, kind="stable")
    label = np.empty(n, dtype=np.intp)
    label[order] = np.arange(n)
    first, fall = G.start[order], -deg[order]
    neighbours = [label[G.head[first[:fall.searchsorted(-k)] + k]]
                  for k in range(-fall[0])]
    # one word holds up to 64 sources, so fewer cannot save a BFS
    sources = np.sort(label[_orbit_sources(G)]) if n > 64 else np.arange(n)
    words = (len(sources) + 63) // 64
    batch = max(1, min(words, _BITSET_WORDS // n))
    diam = 0
    for w0 in range(0, words, batch):
        src = sources[64 * w0:64 * (w0 + batch)]
        bit = np.arange(len(src))
        reach = np.zeros((n, (len(src) + 63) // 64), dtype=np.uint64)
        reach[src, bit // 64] = np.uint64(1) << (bit % 64).astype(np.uint64)
        full = np.bitwise_or.reduce(reach, axis=0)
        level = 0
        while True:
            grown = reach.copy()
            for nbr in neighbours:
                grown[:len(nbr)] |= reach.take(nbr, axis=0)
            if np.array_equal(grown, reach):
                break
            reach = grown
            level += 1
        if not (reach == full).all():
            raise CoverError("graph is disconnected")
        diam = max(diam, level)
    return diam


def _orbit_sources(G: Graph) -> np.ndarray:
    """The smallest vertex of each orbit of G's label-preserving
    automorphisms; every vertex when that group is taken as trivial.

    With every edge labelled and no directed label twice at a vertex, an
    automorphism is fixed by the image of vertex 0.  Each candidate image,
    a vertex with vertex 0's label set, is propagated along G's BFS tree of
    vertex 0, a layer at a time, and the map is kept only if it sends every
    labelled edge onto an edge of the same label and is a bijection.  The
    kept maps generate a group; candidates already in vertex 0's orbit
    under it are dropped whenever a batch keeps a map, and batches double
    in size, so on a prime-degree cyclic cover the first candidate settles
    the search.  The orbits are the classes of the pairs (v, phi(v))."""
    n = G.n
    every = np.arange(n)
    if n < 2 or (G.label < 0).any() or G.start[1] == 0:
        return every
    # each vertex's edges in label order: the j-th label of vertex x is edge
    # start[x] + j; the sentinel vertex n has no edges
    tail = G.tails()
    o = np.lexsort((G.label, tail))
    head, lab = G.head[o], G.label[o]
    if ((tail[1:] == tail[:-1]) & (lab[1:] == lab[:-1])).any():
        return every
    start = np.append(G.start, len(tail))
    deg = np.diff(start)
    slot = np.arange(len(tail)) - start[tail]
    cand = np.flatnonzero(deg == deg[0])[1:]
    for j in range(deg[0]):
        cand = cand[lab[start[cand] + j] == lab[j]]
    if not len(cand):
        return every
    order, parent, depth = G.bfs(0)
    if len(order) < n:
        return every
    w = np.array(order[1:], dtype=np.intp)
    u, depth = np.array(parent)[w], np.array(depth)[w]
    k = np.argsort(o)[G._edges(u, w)] - G.start[u]  # w is u's k-th neighbour
    cuts = [0, *(np.flatnonzero(np.diff(depth)) + 1).tolist(), len(w)]
    layers = [(u[a:b], w[a:b], k[a:b]) for a, b in zip(cuts, cuts[1:])]
    # across[start[x] + j] is x's j-th neighbour on an automorphism; else it
    # may be a wrong vertex, or the sentinel, and the check below rejects it
    across = np.concatenate((head, np.full(deg.max() + 1, n)))

    maps: list[np.ndarray] = []
    orbit, size, cap = every, 1, max(1, _BITSET_WORDS // n)
    while len(cand):
        batch, cand = cand[:size], cand[size:]
        size = min(2 * size, cap)
        phi = np.empty((len(batch), n), dtype=np.intp)
        phi[:, 0] = batch
        for u, w, k in layers:
            phi[:, w] = across[start[phi[:, u]] + k]
        b = len(batch)
        hits = np.bincount((phi + (n + 1) * np.arange(b)[:, None]).ravel(),
                           minlength=b * (n + 1)).reshape(b, n + 1)
        good = (hits[:, :n] == 1).all(axis=1)
        for e0 in range(0, len(tail), n):
            e = slice(e0, e0 + n)
            x = phi[:, tail[e]]
            ok = slot[e] < deg[x]
            at = np.where(ok, start[x] + slot[e], 0)
            good &= (ok & (lab[at] == lab[e]) &
                     (head[at] == phi[:, head[e]])).all(axis=1)
        if good.any():
            maps += list(phi[good])
            orbit = _classes(n, np.tile(every, len(maps)),
                             np.concatenate(maps))
            cand = cand[orbit[cand] != 0]
    return np.flatnonzero(orbit == every)


def dual_graph(K: SimplicialComplex) -> Graph:
    """Top cells of K, adjacent when they share a facet; the direction
    i -> j is labelled (i, j)."""
    pairs = [e for e in K.facet_adjacencies() if e[0] < e[1]]
    return Graph(K.n_cells(K.dim), pairs, pairs)


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
    inverses, and every dual-graph edge must be covered.  The degree and the
    entries are integers that are not bools, or floats of integral value,
    read as ints; anything else raises CoverError.
    """

    base: SimplicialComplex
    degree: int
    perms: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        self.degree = _integer(self.degree, "degree", CoverError)
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
            if not isinstance(p, (list, tuple)):
                raise CoverError(f"permutation on ({i},{j}) must be a list")
            p = tuple(_integer(x, f"permutation ({i},{j}) entry", CoverError)
                      for x in p)
            if len(p) != self.degree or sorted(p) != list(range(len(p))):
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
        labelled by the base adjacency they project to.  Tile (t, s) joins
        tile (t', p[s]) across the adjacency (t, t') carrying p."""
        d = self.spec.degree
        adj = [e for e in self.spec.perms if e[0] < e[1]]
        t, s = np.array(self.top_of, dtype=np.intp).reshape(-1, 2).T
        tile = np.argsort(t * d + s).reshape(-1, d)    # tile[t, s]
        a, b = np.array(adj, dtype=np.intp).reshape(-1, 2).T
        p = np.array([self.spec.perms[e] for e in adj],
                     dtype=np.intp).reshape(-1, d)
        edges = np.stack((tile[a], tile[b[:, None], p]), axis=2)
        label = np.repeat(np.arange(len(adj))[:, None] + [0, len(adj)], d, 0)
        self._schreier = Graph.from_arrays(
            len(t), edges.reshape(-1, 2), label,
            adj + [(j, i) for i, j in adj])
        self.connected = self._schreier.is_connected()

    def lift_cell(self, q: int, base_cell: int, top: int, sheet: int) -> int:
        return self.lift[(q, base_cell, top, sheet)]

    def schreier_graph(self) -> Graph:
        """The Schreier graph built with the cover, the same immutable object
        on every call."""
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


def _invert_word(word: tuple, rev: dict) -> tuple:
    """The word read backwards, each label (a, b) replaced by rev's (b, a):
    one shared tuple per label, not a new one per letter."""
    return tuple(map(rev.__getitem__, reversed(word)))


def tree_fundamental_domain(cover: Cover, tree: SpanningTree
                            ) -> tuple[dict[int, tuple], FacePairingSet]:
    """Tile access words and face pairings of the tree-type domain.

    Tiles are the vertices of the cover's dual graph; each carries the label
    word of its tree path from the root.  Every non-tree dual edge produces
    one pairing word: out along the tree, across the edge, back to the root.
    """
    g = cover.schreier_graph()
    if len(tree.parent) != g.n:
        raise CoverError("tree does not span the cover's dual graph")
    words = dict(tree.words)
    n = cover.spec.base.dim
    rev = {(a, b): (b, a) for (a, b) in cover.spec.perms}
    tail, head, parent = g.tails(), g.head, tree.parent
    cross = np.flatnonzero((tail < head) & (parent[head] != tail)
                           & (parent[tail] != head))
    pairings = []
    for u, w, x in zip(tail[cross].tolist(), head[cross].tolist(),
                       g.label[cross].tolist()):
        label = g.names[x]
        fi = cover.spec.base.cell_index[n - 1][cover.spec.adjacencies[label]]
        facet = cover.lift_cell(n - 1, fi, *cover.top_of[u])  # w's facet too
        word = words[u] + (label,) + _invert_word(words[w], rev)
        pairings.append(FacePairing((u, facet), (w, facet), word))
    return words, FacePairingSet(pairings)
