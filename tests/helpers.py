"""Shared test utilities: independent oracles and random-instance generators.

Oracles here are deliberately implemented with different algorithms and
libraries than the package code so agreement is meaningful.
"""

from __future__ import annotations

import math
import random
from collections import deque
from itertools import combinations

import mpmath as mp
import numpy as np
from scipy.linalg import cho_factor, cho_solve, cholesky, solve_triangular
from scipy.sparse import csr_array

import hodgecover.covers
from hodgecover import CoverError, PermutationCoverSpec
from hodgecover.complexes import SimplicialComplex, SparseIntMatrix
from hodgecover.covers import Cover, Graph, dual_graph
from hodgecover.ratlinalg import rat_solve_and_kernel
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


def reference_build_cover(spec: PermutationCoverSpec) -> Cover:
    """The cover glued one (q, base cell, top, sheet) tuple at a time with a
    union-find whose roots are the smallest keys; classes are checked in the
    order of their roots."""
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
    projection = [
        [proj_by_cell[q][c] for c in K.cells[q]] for q in range(n + 1)
    ]
    top_index = {
        (t, s): K.cell_index[n][tup] for (t, s), tup in top_tuple.items()
    }
    top_of = [None] * K.n_cells(n)
    for (t, s), i in top_index.items():
        top_of[i] = (t, s)
    lift = {key: K.cell_index[key[0]][rep_of_class[rep]]
            for key, rep in class_of.items()}
    for t in range(len(tops)):
        for s in range(d):
            lift[(n, t, t, s)] = top_index[(t, s)]
    return Cover(spec, K, projection, top_index, top_of, lift)


# ---------------------------------------------------------------------------
# spectral oracle


def dense_pencil(K, q, ip_q, ip_up):
    """The package's up-pencil (A, M) with M as the dense matrix that
    scipy.linalg.eigh takes."""
    from hodgecover import up_pencil
    return up_pencil(K, q, ip_q, ip_up)[0], ip_q.matrix


def down_pencil(K, q, ip_q, ip_down):
    """(B, M) whose eigenvalues are those of the down-Laplacian d d* on
    q-cochains; B = M d M_down^{-1} d^T M = W^T W is symmetric, with
    W = L^{-1} d^T M for the dense Cholesky factor M_down = L L^T: one
    triangular solve, and d^T M a sparse-times-dense product.  The package
    solves only up-pencils, so this is the independent oracle for their
    spectra."""
    n = K.n_cells(q)
    if q == 0:
        return np.zeros((n, n)), ip_q.matrix
    dT = csr_array(to_float(K.boundary_matrix(q)))  # d^T for d: C^(q-1) -> C^q
    W = solve_triangular(cholesky(ip_down.matrix, lower=True),
                         dT @ ip_q.matrix, lower=True)
    B = W.T @ W
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


def right_triangle_area_oracle(a, b):
    """Angle defect of the right triangle with legs a, b, from hyperbolic
    trigonometry (independent of the half-angle closed form)."""
    mp.mp.dps = 40
    c = mp.acosh(mp.cosh(a) * mp.cosh(b))
    A = mp.asin(mp.sinh(a) / mp.sinh(c))
    B = mp.asin(mp.sinh(b) / mp.sinh(c))
    return float(mp.pi - (A + B + mp.pi / 2))


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
    return Graph(n * degree, edges, labels)


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
    return cover.top_index[(t, s)]


def holonomy_generators(spec):
    """Sheet permutations of the dual-graph loops based at top cell 0: out
    along a BFS tree of the base's dual graph, across one dual edge, and
    back.  These loops generate every closed loop's sheet action."""
    g = dual_graph(spec.base)
    order, parent, _ = g.bfs(0)
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
    perms = {}
    for (a, b), p2 in inner.perms.items():
        if a < b:
            perms[(a, b)] = tuple(
                3 * p2[s2] + outer.perms[(middle.top_index[(a, s2)],
                                          middle.top_index[(b, p2[s2])])][s3]
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


# ---------------------------------------------------------------------------
# reference Whitney filling: the dense normal equations


def reference_whitney_filling(f, ip, delta=1e-6,
                              denominators=(10 ** 6, 10 ** 9)):
    """Whitney least-norm filling through the normal equations: the float
    minimizer M^-1 A^T (A M^-1 A^T)^+ f from a Cholesky solve with n_1
    right-hand sides and two least-squares solves, mapped back onto the
    exact solution set g0 + span N and rounded as the package does."""
    from hodgecover.fillings import FillingError, _certify, _rounded_chain
    from hodgecover.ratlinalg import rat_solve_and_kernel
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
        return _certify(f, g0, "whitney", 0.0,
                        math.sqrt(max(g0f @ M @ g0f, 0.0)))
    N = np.array([[float(x) for x in v] for v in kernel], dtype=float).T
    c, *_ = np.linalg.lstsq(N, g_float - g0f, rcond=None)
    for denom in denominators:
        g = _rounded_chain(g0, kernel, c, denom)
        gf = np.array([float(x) for x in g])
        norm_g = math.sqrt(max(gf @ M @ gf, 0.0))
        if norm_g <= (1.0 + delta) * norm_float or norm_float == 0.0:
            return _certify(f, g, "whitney", delta, norm_g)
    raise FillingError("rounded filling exceeds the allowed norm slack")


# ---------------------------------------------------------------------------
# reference comb filling and non-null certificate: the normal equations and
# the whole kernel basis of d2^T


def reference_comb_filling(f):
    """Comb least-norm filling through the exact normal equations: g = d2^T y
    with (d2 d2^T) y = f.  The Euclidean minimizer is unique, so any exact
    route must give this g."""
    from hodgecover.fillings import FillingError, _certify
    from hodgecover.ratlinalg import rat_solve
    A = f.complex.boundary_matrix(2)
    At = A.transpose()
    y = rat_solve(A.matmul(At), list(f.coefficients))
    if y is None:
        raise FillingError("cycle is not rationally null")
    g = At.apply(y)
    return _certify(f, g, "comb", 0.0, math.sqrt(float(sum(c * c for c in g))))


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
