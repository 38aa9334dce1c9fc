"""Shared test utilities: independent oracles and random-instance generators.

Oracles here are deliberately implemented with different algorithms and
libraries than the package code so agreement is meaningful.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

import mpmath as mp
import numpy as np

from hodgecover import CoverError, PermutationCoverSpec, simplex_gram
from hodgecover.complexes import SimplicialComplex
from hodgecover.covers import Cover
from hodgecover.surfaces import FIXTURES


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


def nullspace_mod_p(rows, ncols, p):
    M = [r[:] for r in rows]
    piv = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(M)) if M[i][c] % p), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = pow(M[r][c], -1, p)
        M[r] = [(x * inv) % p for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c] % p:
                f = M[i][c]
                M[i] = [(a - f * b) % p for a, b in zip(M[i], M[r])]
        piv.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in piv]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for i, pc in enumerate(piv):
            v[pc] = (-M[i][fc]) % p
        basis.append(v)
    return basis


def random_cyclic_cover(K, p, rng: random.Random) -> PermutationCoverSpec:
    """Degree-p cyclic cover of a closed surface from random mod-p cocycle
    data on the dual graph (vertex-star loop sums forced to zero, which is
    exactly the consistency condition the builder validates)."""
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
        rows.append([x % p for x in row])
    basis = nullspace_mod_p(rows, len(edges), p)
    x = [0] * len(edges)
    for v in basis:
        c = rng.randrange(p)
        x = [(a + c * b) % p for a, b in zip(x, v)]
    perms = {e: tuple((s + x[eidx[e]]) % p for s in range(p)) for e in edges}
    return PermutationCoverSpec(K, p, perms)


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


def down_pencil(K, q, ip_q, ip_down):
    """(B, M) whose eigenvalues are those of the down-Laplacian d d* on
    q-cochains; B = M d M_down^{-1} d^T M is symmetric.  The package solves
    only up-pencils, so this is the independent oracle for their spectra."""
    n = K.n_cells(q)
    if q == 0:
        return np.zeros((n, n)), ip_q.matrix
    d = K.coboundary_matrix(q - 1).to_float()  # (q-1)-cochains -> q-cochains
    S = ip_q.matrix @ d
    B = S @ ip_down.solve(S.T)
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


def reference_mass_matrix(K, geometry, q):
    """Whitney q-form mass matrix built top by top: the edge-vector Gram of
    each top from `simplex_gram`, its barycentric-gradient Gram H, the
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
        G = simplex_gram(geometry.top_metric(top))
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
    from hodgecover.fillings import (FillingError, _certify,
                                     _particular_and_kernel, _rounded_chain)
    A = f.complex.boundary_matrix(2)
    b = list(f.coefficients)
    g0, kernel = _particular_and_kernel(A, b)
    M = ip.matrix
    Af = A.to_float()
    MinvAt = ip.solve(Af.T)
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
