"""Whitney-form mass matrices, the norm-equivalence constants they give, and
the flat geometry of top simplices from edge lengths.

On a flat n-simplex with barycentric coordinates l_0..l_n, the Whitney form
of a q-face sigma is W_sigma = q! sum_k (-1)^k l_{sigma_k} dl_{sigma - sigma_k}
(Arnold, Falk and Winther, Acta Numerica 2006) = sum X[sigma, (I, v)] l_v dl_I.
With H the Gram of the barycentric gradients, <l_v dl_I, l_w dl_J> is
l_v l_w det H[I, J], and l_v l_w integrates to vol (1 + [v = w]) /
((n+1)(n+2)), so the local mass matrix is linear in the q-minors of H, and
so in the complementary minors of the edge-vector Gram (_assemble).  The
InnerProduct constructor certifies the blocks; Grams and volumes come from
one checked law-of-cosines step (_top_grams).  The bottom of a large mass
spectrum is shift-inverted below Wathen's block bound, by a symmetric LU.
"""

from __future__ import annotations

import math
import sys
from itertools import combinations, permutations
from numbers import Real
from types import MappingProxyType

import numpy as np

from .complexes import ComplexError, SimplicialComplex
from .hypgeom import GeometryError

_DENSE_MAX = 400     # norm_equivalence_constants goes dense up to this size


class InnerProduct:
    """SPD Gram matrix on the `size` q-cochains, kept as blocks (glob, B): the
    sum of the (T, m, m) blocks B[t] placed at rows and columns glob[t].  The
    one constructor certifies it: GeometryError unless glob is a (T, m)
    integer array that names each cell 0..size-1, and B is finite and
    symmetric to 1e-12; B is then symmetrized, and a block that is not
    positive definite raises LinAlgError.  A Whitney product keeps the local
    mass matrices of its tops, `identity` n unit 1x1 blocks, any other Gram
    one n x n block.  The dense view `matrix`, assembled on its first read
    and cached, and the sparse `_csr` both read the blocks' entries summed
    once in key order (_summed); `apply` is the product, block by block."""

    def __init__(self, size: int, glob, B):
        glob, B = np.asarray(glob), np.asarray(B)
        if not (glob.ndim == 2 and glob.dtype.kind in "iu"
                and B.shape == glob.shape + glob.shape[1:]):
            raise GeometryError("Gram blocks must be (T, m, m), with their "
                                "cells a (T, m) integer array")
        if glob.size and not 0 <= glob.min() <= glob.max() < size:
            raise GeometryError(f"Gram block cells must lie in 0..{size - 1}")
        covered = np.zeros(size, dtype=bool)
        covered[glob] = True
        if not covered.all():
            raise GeometryError(f"cell {np.argmin(covered)} lies in no block")
        if not np.isfinite(B).all():
            raise GeometryError("Gram blocks not finite")
        Bt = B.transpose(0, 2, 1)
        if B.size and np.abs(B - Bt).max() > 1e-12 * max(1.0, np.abs(B).max()):
            raise GeometryError("Gram blocks not symmetric")
        B = (B + Bt) / 2
        if B.size:
            np.linalg.cholesky(B)  # raises if a block is not positive definite
        self.size, self._blocks = size, (glob, B)
        self._dense = None

    def _sums(self) -> tuple[np.ndarray, np.ndarray]:
        glob, B = self._blocks
        return _summed(self.size, glob[:, :, None], glob[:, None, :], B)

    @property
    def matrix(self) -> np.ndarray:
        if self._dense is None:
            self._dense = _scatter(self.size, *self._sums())
        return self._dense

    def _csr(self):
        """The matrix as a scipy CSR array, without the dense view."""
        return _sparse(self.size, self.size, *self._sums())

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
    def identity(n: int) -> "InnerProduct":
        return InnerProduct(n, np.arange(n)[:, None], np.ones((n, 1, 1)))


def _summed(n: int, rows, cols, vals) -> tuple[np.ndarray, np.ndarray]:
    """(keys, sums): the distinct keys i n + j of the broadcast triplets of a
    matrix with n columns, ascending, and each key's sum in input order.
    Every matrix assembled from blocks is summed here, and only here."""
    keys, at = np.unique(ij := rows * n + cols, return_inverse=True)
    return keys, np.bincount(at.ravel(),
                             np.broadcast_to(vals, ij.shape).ravel())


def _scatter(n: int, keys: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """The dense n x n matrix of (keys, sums), one zeroed array."""
    return np.bincount(keys, sums, n * n).reshape(n, n)


def _sparse(m: int, n: int, keys: np.ndarray, sums: np.ndarray):
    """The m x n scipy CSR array of (keys, sums), canonical as built."""
    from scipy.sparse import csr_array
    return csr_array((sums, keys % n, np.searchsorted(
        keys, np.arange(m + 1) * n)), shape=(m, n))


class ComplexGeometry:
    """Edge-length table for every edge of a complex, one flat metric per
    top simplex.  Keys are vertex pairs in either order; a key that names no
    edge, an edge without a length, or a length that is a bool or not a
    finite positive real raises ComplexError.  `edge_lengths` is the
    read-only table of float lengths in edge order, `_lengths` their array."""

    def __init__(self, K: SimplicialComplex, edge_lengths: dict):
        self.K = K
        edges, index = (K.cells[1], K.cell_index[1]) if K.dim else ([], {})
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
        self._lengths = np.array(lengths, dtype=float)
        self._lengths.flags.writeable = False

    @staticmethod
    def uniform(K: SimplicialComplex, length: float = 1.0) -> "ComplexGeometry":
        return ComplexGeometry(K, dict.fromkeys(K.cells[1] if K.dim else (),
                                                length))

    def total_volume(self) -> float:
        """The sum of the volumes of the top simplices, in their order."""
        return sum(_top_grams(self.K, self)[1].tolist())


def _top_grams(K: SimplicialComplex,
               geometry: ComplexGeometry) -> tuple[np.ndarray, np.ndarray]:
    """(G, vol): the (T, n, n) edge-vector Grams G_t of every top simplex t
    of K, by the law of cosines on its edges out of its first vertex, and the
    (T,) volumes sqrt(det G_t) / n!.  Raises ComplexError unless K has edges
    and the cells of the geometry's complex, and GeometryError unless every
    G_t is finite, of finite determinant and nondegenerate: its least
    eigenvalue exceeds 1e-12 times max(1, its largest).  The lengths are
    positive, as ComplexGeometry checks them."""
    n = K.dim
    if n == 0:
        raise ComplexError("Whitney forms and volumes need a complex of "
                           "dimension >= 1")
    if geometry.K is not K and geometry.K.cells != K.cells:
        raise ComplexError("the geometry was made for another complex")
    tops = K._rows(n)
    pairs = np.array(list(combinations(range(n + 1), 2)))
    L = geometry._lengths[K._index(1, tops[:, pairs])]
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


def _check_cells(K: SimplicialComplex, q: int) -> None:
    """Raise ComplexError for a degree out of range, or for a q-cell in no
    top: the assembled mass matrix would be singular."""
    if (cell := K.uncovered_cell(q)) is not None:
        raise ComplexError(f"{q}-cell {cell} lies in no top cell")


def _minors(A: np.ndarray, rows: list, cols: list) -> np.ndarray:
    """The minors det A[I, J, t], I in rows and J in cols (k-subsets), of the
    T matrices A[:, :, t]: (len(rows), len(cols), T) Leibniz sums."""
    perms = np.array(list(permutations(range(len(rows[0])))), dtype=int)
    F = A[np.array(rows, dtype=int).T[:, None, :, None],
          np.array(cols, dtype=int)[:, perms].transpose(2, 1, 0)[:, :, None]]
    return np.tensordot(np.linalg.det(np.eye(len(rows[0]))[perms]),  # signs
                        F.prod(axis=0), 1)


def _assemble(K: SimplicialComplex, q: int, G: np.ndarray,
              vol: np.ndarray) -> InnerProduct:
    """The Whitney q-form mass matrix from the Grams G and volumes vol of the
    tops (_top_grams): blocks X (C_t kron vol_t E_0) X^T, C_t the q-minors of
    H_t = P G_t^-1 P^T.  C_t = Z C_q(G_t^-1) Z^T (Cauchy-Binet), and the
    q-minors of G_t^-1 are the signed complementary minors c_t of G_t over
    det G_t = (n! vol_t)^2 (Jacobi), so the blocks are W c_t / (n!^2 vol_t),
    W fixed, or vol_t W at q = 0.  They go in symmetrized, so the symmetry
    check passes every geometry that _top_grams accepts."""
    n, T = K.dim, len(G)
    faces = list(combinations(range(n + 1), q + 1))
    subsets = list(combinations(range(n + 1), q))
    inner = list(combinations(range(n), q))
    P = np.vstack([-np.ones(n), np.eye(n)])     # l_0 = 1 - l_1 - ... - l_n
    Z = _minors(P[:, :, None], subsets, inner)[:, :, 0] * \
        [math.factorial(q) * (-1) ** sum(J) for J in inner]
    Y = np.zeros((len(faces), len(inner), n + 1))   # W_sigma in l_v dl_J
    for a, f in enumerate(faces):
        for k, v in enumerate(f):
            Y[a, :, v] = (-1) ** k * Z[subsets.index(f[:k] + f[k + 1:])]
    W = np.einsum("akv,vw,blw->lkab", Y, (1 + np.eye(n + 1)) / (
        (n + 1) * (n + 2)), Y).reshape(-1, len(faces), len(faces))
    rest = list(combinations(range(n), n - q))[::-1]    # inner's complements
    c = _minors(G.transpose(1, 2, 0), rest, rest).reshape(-1, T) / (
        math.factorial(n) ** 2 * vol) if q else vol[None]
    B = np.tensordot(c, W, (0, 0))
    return InnerProduct(K.n_cells(q), K._index(q, K._rows(n)[:, faces]),
                        (B + B.transpose(0, 2, 1)) / 2)


def whitney_mass_matrix(K: SimplicialComplex, geometry: ComplexGeometry,
                        q: int) -> InnerProduct:
    """The global Whitney q-form Gram matrix, kept as its blocks (_assemble);
    the cells are checked before the Grams (_check_cells), and the dense
    matrix is assembled only when `.matrix` is read."""
    _check_cells(K, q)
    return _assemble(K, q, *_top_grams(K, geometry))


def whitney_products(K: SimplicialComplex,
                     geometry: ComplexGeometry) -> dict[int, InnerProduct]:
    """The Whitney mass matrix of every degree, from one law-of-cosines step.
    The cells of every degree are checked before the Grams are built, so a
    cell in no top is reported ahead of a length that breaks a Gram."""
    for q in range(K.dim + 1):
        _check_cells(K, q)
    G, vol = _top_grams(K, geometry)
    return {q: _assemble(K, q, G, vol) for q in range(K.dim + 1)}


def norm_equivalence_constants(K: SimplicialComplex, geometry: ComplexGeometry,
                               q: int) -> tuple[float, float]:
    """(c_min, c_max) with c_min <= |x|_whitney2 / |x|_comb2 <= c_max for all x:
    the square roots of the extreme eigenvalues of the mass matrix M, by dense
    eigvalsh up to _DENSE_MAX rows (no scipy; on one BLAS thread ARPACK costs
    as much near 400 rows), else by Lanczos on M assembled sparse.  Its bottom,
    a tight cluster on covers, is shift-inverted (Ericsson and Ruhe 1980) at
    sigma = (1 - 2^-20) min_e sum_{t ∋ e} lambda_min(B_t) < lambda_min, as M
    dominates that diagonal (Wathen 1987), so SuperLU factors M - sigma I in
    its symmetric mode; its top, of multiplicity about n/3 on unit lengths,
    is not.  Start and restart vectors are seeded; an ARPACK failure raises
    LinAlgError naming the end that failed."""
    ip = whitney_mass_matrix(K, geometry, q)
    n = ip.size
    if n <= _DENSE_MAX:
        eigs = np.linalg.eigvalsh(ip.matrix)
        return math.sqrt(max(eigs[0], 0.0)), math.sqrt(eigs[-1])
    from scipy.sparse import eye_array
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu
    M, (glob, B) = ip._csr(), ip._blocks
    sigma = (1 - 2 ** -20) * np.bincount(glob.ravel(), np.repeat(
        np.linalg.eigvalsh(B)[:, 0], glob.shape[1]), n).min()
    lu = splu((M - sigma * eye_array(n)).tocsc(), permc_spec="MMD_AT_PLUS_A",
              diag_pivot_thresh=0, options=dict(SymmetricMode=True))
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
