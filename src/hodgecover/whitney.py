"""Whitney-form mass matrices, the norm-equivalence constants they give, and
the flat geometry of top simplices from edge lengths.

On a flat n-simplex with barycentric coordinates l_0..l_n, the Whitney form
of a q-face sigma is W_sigma = q! sum_k (-1)^k l_{sigma_k} dl_{sigma - sigma_k}
(Arnold, Falk and Winther, "Finite element exterior calculus", Acta Numerica
2006), so W_sigma = sum X[sigma, (I, v)] l_v dl_I with a fixed table X of
+-q! entries.  With H the Gram of the barycentric gradients, the pointwise
product <l_v dl_I, l_w dl_J> is l_v l_w C[I, J], C[I, J] = det H[I, J] the
q-th compound of H, and the integral of l_v l_w is
E[v, w] = vol (1 + [v = w]) / ((n+1)(n+2)).  Hence the local mass matrix is
the one expression X (C kron E) X^T.  The Grams and volumes of all top
simplices come from one checked law-of-cosines step (_top_grams), which the
mass matrices and ComplexGeometry.total_volume share.
"""

from __future__ import annotations

import math
import sys
from itertools import combinations
from numbers import Real
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .complexes import ComplexError, SimplicialComplex
from .hypgeom import GeometryError

_DENSE_MAX = 400     # norm_equivalence_constants goes dense up to this size


class InnerProduct:
    """SPD Gram matrix on the q-cochain group, kept as blocks (glob, B): the
    sum of the B[t] placed at rows and columns glob[t].  A Whitney product
    keeps the certified local mass matrices of `_mass_blocks`, `identity`
    n unit 1x1 blocks, and a checked matrix one n x n block, which is also
    its dense view.  `matrix` is the dense view, assembled on its first read
    and cached; `_csr` is the sparse one and `apply` the product with it."""

    def __init__(self, degree: int, matrix: np.ndarray):
        M = np.asarray(matrix)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise GeometryError("Gram matrix not square")
        if not np.isfinite(M).all():
            raise GeometryError("Gram matrix not finite")
        if M.size and np.max(np.abs(M - M.T)) > 1e-12 * max(1.0, np.max(np.abs(M))):
            raise GeometryError("Gram matrix not symmetric")
        M = (M + M.T) / 2
        if M.size:
            np.linalg.cholesky(M)  # raises if not positive definite
        self.degree, self.size, self._dense = degree, len(M), M
        self._blocks = np.arange(len(M))[None], M[None]

    @classmethod
    def _certified(cls, degree: int, size: int, blocks):
        """The sum of blocks already known to be positive definite and to
        cover every cell, without the checks above."""
        ip = object.__new__(cls)
        ip.degree, ip.size, ip._blocks, ip._dense = degree, size, blocks, None
        return ip

    @property
    def matrix(self) -> np.ndarray:
        if self._dense is None:
            glob, B = self._blocks
            self._dense = np.zeros((self.size, self.size))
            np.add.at(self._dense, (glob[:, :, None], glob[:, None, :]), B)
        return self._dense

    def _csr(self):
        """The matrix as a scipy CSR array without the dense view: COO
        triplets of the blocks, duplicates summed."""
        from scipy.sparse import csr_array
        glob, B = self._blocks
        ij = np.broadcast_arrays(glob[:, :, None], glob[:, None, :])
        return csr_array((B.ravel(), [a.ravel() for a in ij]),
                         shape=(self.size, self.size))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The matrix times x (a vector, or a matrix of columns), block by
        block without the dense view; numpy only."""
        glob, B = self._blocks
        y = np.zeros(x.shape)
        np.add.at(y, glob, np.einsum("tij,tj...->ti...", B, x[glob]))
        return y

    def diagonal(self) -> np.ndarray:
        """The diagonal of the matrix, without the dense view."""
        glob, B = self._blocks
        return np.bincount(glob.ravel(), np.diagonal(B, 0, 1, 2).ravel(),
                           self.size)

    @staticmethod
    def identity(degree: int, n: int) -> "InnerProduct":
        return InnerProduct._certified(
            degree, n, (np.arange(n)[:, None], np.ones((n, 1, 1))))


def _edges(K: SimplicialComplex) -> list[tuple[int, int]]:
    """The edges of K, none when K is 0-dimensional."""
    return K.cells[1] if K.dim >= 1 else []


class ComplexGeometry:
    """Edge-length table for every edge of a complex, one flat metric per
    top simplex.  Keys are vertex pairs in either order; a key that names no
    edge, an edge without a length, or a length that is a bool or not a
    finite positive real raises ComplexError.  `edge_lengths` is the
    read-only table of float lengths, in the order of the edges."""

    def __init__(self, K: SimplicialComplex, edge_lengths: dict):
        self.K = K
        edges = _edges(K)
        index = K.cell_index[1] if edges else {}
        lengths = [None] * len(edges)
        for key, x in edge_lengths.items():
            i = index.get(key)
            if i is None and isinstance(key, tuple):
                i = index.get(key[::-1])
            if i is None:
                raise ComplexError(f"geometry key {key!r} names no edge of "
                                   "the complex")
            if not ((type(x) is float or isinstance(x, Real)
                     and not isinstance(x, bool))
                    and 0 < x <= sys.float_info.max):
                raise ComplexError(f"edge {edges[i]} has length {x!r}; "
                                   "lengths must be finite and positive")
            lengths[i] = float(x)
        if None in lengths:
            raise ComplexError("geometry gives no length for edge "
                               f"{edges[lengths.index(None)]}")
        self.edge_lengths = MappingProxyType(dict(zip(edges, lengths)))

    @staticmethod
    def uniform(K: SimplicialComplex, length: float = 1.0) -> "ComplexGeometry":
        return ComplexGeometry(K, {e: length for e in _edges(K)})

    def total_volume(self) -> float:
        """The sum of the volumes of the top simplices, in their order."""
        return sum(_top_grams(self.K, self)[1].tolist())


class _Tops(NamedTuple):
    """Every top simplex of a complex at once, for one form degree q."""

    glob: np.ndarray    # (T, m) global indices of the local q-faces sigma
    X: np.ndarray       # (m, s (n+1)) W_sigma in the products l_v dl_I
    C: np.ndarray       # (T, s, s) q-th compounds of the gradient Grams
    vol: np.ndarray     # (T,) volumes


def _gradient_grams(G: np.ndarray) -> np.ndarray:
    """(T, n+1, n+1) Grams of barycentric gradients from the (T, n, n)
    edge-vector Grams."""
    T, n, _ = G.shape
    Ginv = np.linalg.inv(G)
    H = np.empty((T, n + 1, n + 1))
    H[:, 1:, 1:] = Ginv
    H[:, 0, 1:] = -Ginv.sum(axis=1)
    H[:, 1:, 0] = -Ginv.sum(axis=2)
    H[:, 0, 0] = Ginv.sum(axis=(1, 2))
    return H


def _top_grams(K: SimplicialComplex,
               geometry: ComplexGeometry) -> tuple[np.ndarray, np.ndarray]:
    """(G, vol): the (T, n, n) edge-vector Grams G_t of every top simplex t
    of K, by the law of cosines on its edges out of its first vertex, and the
    (T,) volumes sqrt(det G_t) / n!.  Raises ComplexError unless K has edges,
    and GeometryError unless every G_t is finite, of finite determinant and
    nondegenerate: its least eigenvalue exceeds 1e-12 times max(1, its
    largest).  The lengths are positive, as ComplexGeometry checks them."""
    n = K.dim
    if n == 0:
        raise ComplexError("Whitney forms and volumes need a complex of "
                           "dimension >= 1")
    tops = K._rows(n)
    pairs = np.array(list(combinations(range(n + 1), 2)))
    lengths = np.array([geometry.edge_lengths[e] for e in K.cells[1]])
    L = lengths[K._index(1, tops[:, pairs])]
    L2 = np.zeros((len(tops), n + 1, n + 1))
    with np.errstate(over="ignore", invalid="ignore"):    # tested below
        # libm pow rounds like Python's float ** 2, which x * x does not
        # always: volumes equal a top-by-top sum in Python floats
        L2[:, pairs[:, 0], pairs[:, 1]] = L2[:, pairs[:, 1], pairs[:, 0]] = \
            np.float_power(L, 2)
        a = L2[:, 0, 1:]
        G = (a[:, :, None] + a[:, None, :] - L2[:, 1:, 1:]) / 2
        det = np.linalg.det(G)
    huge = ~(np.isfinite(G).all(axis=(1, 2)) & np.isfinite(det))
    if huge.any():
        raise GeometryError(
            f"edge-vector Gram of top cell {K.cells[n][np.argmax(huge)]} "
            "is not finite: its entries or determinant overflow")
    eigs = np.linalg.eigvalsh(G)
    flat = eigs[:, 0] <= 1e-12 * np.maximum(1.0, eigs[:, -1])
    if flat.any():
        raise GeometryError(
            f"edge lengths of top cell {K.cells[n][np.argmax(flat)]} do not "
            "embed as a nondegenerate simplex")
    return G, np.sqrt(det) / math.factorial(n)


def _whitney_tops(K: SimplicialComplex, geometry: ComplexGeometry,
                  q: int) -> _Tops:
    """Stacked Whitney data of every top simplex of K in degree q.

    Row sigma of X holds W_sigma in the products l_v dl_I (columns (I, v), I a
    q-subset of the local vertices), C[t, I, J] = det H_t[I, J] with H_t the
    barycentric-gradient Gram of top t, built from the checked edge-vector
    Gram G_t of _top_grams, which raises GeometryError on lengths that
    overflow or give a degenerate simplex.  A degree out of range, or a
    q-cell in no top (the assembled mass matrix would be singular), raises
    ComplexError first."""
    if not 0 <= q <= K.dim:
        raise ComplexError(f"degree {q} is out of range 0..{K.dim}")
    if (cell := K.uncovered_cell(q)) is not None:
        raise ComplexError(f"{q}-cell {cell} lies in no top cell")
    G, vol = _top_grams(K, geometry)
    n = K.dim
    H = _gradient_grams(G)
    faces = list(combinations(range(n + 1), q + 1))
    subsets = list(combinations(range(n + 1), q))
    X = np.zeros((len(faces), len(subsets), n + 1))
    for a, f in enumerate(faces):
        for k, v in enumerate(f):
            X[a, subsets.index(f[:k] + f[k + 1:]), v] = \
                (-1) ** k * math.factorial(q)
    S = np.array(subsets, dtype=int).reshape(len(subsets), q)
    C = np.linalg.det(H[:, S[:, None, :, None], S[None, :, None, :]])
    glob = K._index(q, K._rows(n)[:, faces])
    return _Tops(glob, X.reshape(len(faces), -1), C, vol)


def _mass_blocks(K: SimplicialComplex, geometry: ComplexGeometry,
                 q: int) -> tuple[np.ndarray, np.ndarray]:
    """(glob, B): the local mass matrices B[t] = X (C_t kron E_t) X^T of every
    top, symmetrized, E_t[v, w] the integral of l_v l_w over top t.

    They certify the assembled matrix: a sum of positive definite blocks is
    positive definite once every q-cell lies in some block, which
    _whitney_tops checks.  A block that is not positive definite raises
    LinAlgError."""
    tops = _whitney_tops(K, geometry, q)
    n = K.dim
    E = tops.vol[:, None, None] * (1 + np.eye(n + 1)) / ((n + 1) * (n + 2))
    T, s, _ = tops.C.shape
    CE = np.einsum("tij,tvw->tivjw", tops.C, E).reshape(
        T, s * (n + 1), s * (n + 1))
    B = tops.X @ CE @ tops.X.T
    B = (B + B.transpose(0, 2, 1)) / 2
    np.linalg.cholesky(B)
    return tops.glob, B


def whitney_mass_matrix(K: SimplicialComplex, geometry: ComplexGeometry,
                        q: int) -> InnerProduct:
    """The global Whitney q-form Gram matrix over all top simplices, kept as
    its blocks: each top adds X (C kron E) X^T, E[v, w] the integral of
    l_v l_w.  The dense matrix is assembled only when `.matrix` is read."""
    blocks = _mass_blocks(K, geometry, q)
    return InnerProduct._certified(q, K.n_cells(q), blocks)


def norm_equivalence_constants(K: SimplicialComplex, geometry: ComplexGeometry,
                               q: int) -> tuple[float, float]:
    """(c_min, c_max) with c_min <= |x|_whitney2 / |x|_comb2 <= c_max for all x:
    the square roots of the extreme eigenvalues of the mass matrix M, by dense
    eigvalsh up to _DENSE_MAX rows (no scipy; on one BLAS thread ARPACK costs
    as much near 400 rows), else by Lanczos on M assembled sparse.  Its bottom,
    a tight cluster on covers, is shift-inverted (Ericsson and Ruhe 1980) at
    sigma = (1 - 2^-8) min_e sum_{t ∋ e} lambda_min(B_t) < lambda_min, as M
    dominates that diagonal (Wathen 1987); its top, of multiplicity about n/3
    on unit lengths, is not.  Start and restart vectors are seeded; an ARPACK
    failure raises LinAlgError naming the end that failed."""
    ip = whitney_mass_matrix(K, geometry, q)
    n = ip.size
    if n <= _DENSE_MAX:
        eigs = np.linalg.eigvalsh(ip.matrix)
        return math.sqrt(max(eigs[0], 0.0)), math.sqrt(eigs[-1])
    from scipy.sparse import eye_array
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu
    M, (glob, B) = ip._csr(), ip._blocks
    sigma = (1 - 2 ** -8) * np.bincount(glob.ravel(), np.repeat(
        np.linalg.eigvalsh(B)[:, 0], glob.shape[1]), n).min()
    lu = splu((M - sigma * eye_array(n)).tocsc(), permc_spec="MMD_AT_PLUS_A")
    rng = np.random.default_rng(0)     # also any restart vectors

    def end(name, **how):
        try:
            return eigsh(M, k=1, tol=0, v0=rng.standard_normal(n), rng=rng,
                         return_eigenvectors=False, **how)[0]
        except ArpackError as exc:
            raise np.linalg.LinAlgError(f"Lanczos for the {name} of the "
                                        f"degree-{q} mass spectrum failed: "
                                        f"{exc}") from None

    lo = end("bottom", sigma=sigma, which="LM",
             OPinv=LinearOperator((n, n), lu.solve))
    return math.sqrt(lo), math.sqrt(end("top", which="LA"))
