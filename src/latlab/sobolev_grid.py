"""Discretized Sobolev spaces on uniform grids.

Grid domains (interval, torus, rectangle), forward-difference Sobolev norms
and their duals, mollification by a renormalized bump kernel, boundary
charts, partition-of-unity push-in operators, and the one-dimensional
positive dominant construction.
A grid vector is a flat float array, one value per node, a rectangle's
row-major.  The functions of one take the domain first and the vector last,
and check it with ``as_stack``, the package's one shape check, defined here.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.ndimage
import scipy.optimize
import scipy.sparse
import scipy.sparse.linalg


class GridTooCoarseError(ValueError):
    """Kernel or margin not resolvable on the grid."""


class ChartError(ValueError):
    """Boundary chart construction or containment failure."""


class ConvergenceError(RuntimeError):
    """Iterative routine failed to converge; carries the best value found."""

    def __init__(self, message, best=None, diagnostics=None):
        super().__init__(message)
        self.best = best
        self.diagnostics = diagnostics

    @classmethod
    def of_rows(cls, rows: dict, best) -> "ConvergenceError":
        """The one failure of a stack: ``diagnostics["rows"]`` is ``rows``, whose
        entry j holds the ``error`` of row j, and the message joins ``row j: {error}``."""
        return cls("; ".join(f"row {j}: {row['error']}" for j, row in rows.items()),
                   best=best, diagnostics={"rows": rows})


def as_stack(x, dim: int, ndims=(1, 2), finite: bool = False) -> np.ndarray:
    """x, with ndim in ``ndims``, as an (m, dim) float stack; a vector is a stack of one.

    The one shape check of every function that takes vectors: any other
    shape raises ``expected vectors of length {dim}``.  With ``finite`` a NaN
    or inf is rejected by its position, ``entry j`` of a vector or
    ``row i, entry j`` of a stack.
    """
    X = np.asarray(x, dtype=float)
    if X.ndim not in ndims or X.shape[-1] != dim:
        raise ValueError(f"expected vectors of length {dim}")
    X = X if X.ndim == 2 else X[None]
    if finite and not np.isfinite(X).all():
        i, j = np.argwhere(~np.isfinite(X))[0]
        where = f"row {i}, entry {j}" if np.ndim(x) == 2 else f"entry {j}"
        raise ValueError(f"{where} of x is {X[i, j]}, not finite")
    return X


# ---------------------------------------------------------------------------
# Grid domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridDomain:
    """Uniform grid over an interval, a torus, or an axis-aligned rectangle.

    ``n`` is the number of points per axis.  The spacing is
    ``extent/(n-1)`` for domains with boundary and ``extent/n`` for the
    torus (whose rightmost node is identified with the left endpoint).
    One spacing serves every axis, so a rectangle must be a square.
    Rectangle values are flattened row-major in the x-index.
    """

    kind: str                    # "interval" | "torus" | "rectangle"
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    n: int

    def __post_init__(self):
        if self.kind not in ("interval", "torus", "rectangle"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.n < 4:
            raise ValueError("need at least 4 points per axis")
        extents = [b - a for a, b in zip(self.lo, self.hi)]
        if min(extents) <= 0:
            raise ValueError("empty domain")
        if not all(math.isclose(e, extents[0], rel_tol=1e-12) for e in extents):
            raise ValueError(f"axis extents {extents} differ: one spacing h serves every axis")

    @classmethod
    def interval(cls, a: float, b: float, n: int) -> "GridDomain":
        return cls("interval", (float(a),), (float(b),), n)

    @classmethod
    def torus(cls, period: float, n: int) -> "GridDomain":
        return cls("torus", (0.0,), (float(period),), n)

    @classmethod
    def rectangle(cls, a1, b1, a2, b2, n: int) -> "GridDomain":
        return cls("rectangle", (float(a1), float(a2)), (float(b1), float(b2)), n)

    @property
    def d(self) -> int:
        return len(self.lo)

    @property
    def periodic(self) -> bool:
        return self.kind == "torus"

    @functools.cached_property
    def h(self) -> float:
        extent = self.hi[0] - self.lo[0]
        return extent / self.n if self.periodic else extent / (self.n - 1)

    @functools.cached_property
    def node_count(self) -> int:
        return self.n ** self.d

    @functools.cached_property
    def cell_measure(self) -> float:
        return self.h ** self.d

    def axis(self, i: int = 0) -> np.ndarray:
        if self.periodic:
            return self.lo[i] + self.h * np.arange(self.n)
        return np.linspace(self.lo[i], self.hi[i], self.n)

    def points(self) -> np.ndarray:
        """All nodes as an (node_count, d) array, row-major in the x index."""
        grids = np.meshgrid(*(self.axis(i) for i in range(self.d)), indexing="ij")
        return np.stack(grids, axis=-1).reshape(-1, self.d)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Closed-domain membership of each row of an (m, d) stack of points."""
        pts = as_stack(pts, self.d)
        return np.all((pts >= np.asarray(self.lo)) & (pts <= np.asarray(self.hi)), axis=1)


# ---------------------------------------------------------------------------
# Difference operators and Sobolev norms
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=128)
def _diff_1d(n: int, h: float, periodic: bool) -> scipy.sparse.csr_matrix:
    """Forward differences (f[i+1] - f[i]) / h as an n x n CSR matrix with 2n entries.

    The last row of the non-periodic operator repeats the backward
    difference, so D stays square and kills constants exactly; the periodic
    one wraps to node 0.  The CSR arrays are written directly, with sorted
    column indices in every row.
    """
    step = 1.0 / h
    cols = np.arange(n, dtype=np.int32)
    indices = np.column_stack([cols, cols + 1]).ravel()
    data = np.tile([-step, step], n)
    if periodic:
        indices[-2:] = (0, n - 1)
        data[-2:] = (step, -step)
    else:
        indices[-2:] = (n - 2, n - 1)
    indptr = np.arange(0, 2 * n + 1, 2, dtype=np.int32)
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=(n, n))


@functools.lru_cache(maxsize=128)
def diff_operator(domain: GridDomain, alpha: tuple[int, ...]) -> scipy.sparse.csr_matrix:
    """Mixed forward-difference operator D^alpha on the flattened grid."""
    D1 = _diff_1d(domain.n, domain.h, domain.periodic)
    factors = []
    for a in alpha:
        Da = scipy.sparse.identity(domain.n, format="csr")
        for _ in range(a):
            Da = D1 @ Da
        factors.append(Da)
    return functools.reduce(
        lambda A, B: scipy.sparse.kron(A, B, format="csr"), factors).tocsr()


def multi_indices(k: int, d: int) -> list[tuple[int, ...]]:
    """All multi-indices with total order <= k (including zero)."""
    return [alpha for alpha in itertools.product(range(k + 1), repeat=d)
            if sum(alpha) <= k]


@functools.lru_cache(maxsize=64)
def stacked_diff_operator(domain: GridDomain, k: int):
    """S = vstack(D^alpha for |alpha| <= k) and S^T, both CSR.

    The W^{k,p} norm is (w * sum |S f|^p)^(1/p); the stiffness matrix is S^T S.
    """
    S = scipy.sparse.vstack(
        [diff_operator(domain, alpha) for alpha in multi_indices(k, domain.d)],
        format="csr",
    )
    return S, S.T.tocsr()


def sobolev_kernel(domain: GridDomain, k: int, p: float, Y: np.ndarray, order: int = 0):
    """The W^{k,p} norms of the rows of the (m, N) stack Y and, up to
    ``order``, their gradients (1) and dense Hessians (2), all from one
    product S Y^T; a tuple of ``order + 1`` stacks.

    With u = S y and val = (w sum |u|^p)^(1/p), the gradient is
    w S^T(|u|^(p-1) sign u) val^(1-p) (a subgradient at kinks) and the
    Hessian (p-1) (w val^(1-p) S^T diag(|u|^(p-2)) S - g g^T / val), with |u|
    floored at 1e-8 max|u| so that 1 < p < 2 stays finite where u vanishes.
    Both are 0 at the origin.  Every row is reduced along the last axis, so
    it comes out bit for bit as the stack of that row alone: ``NormSpec.value``,
    a stack of one, and ``NormSpec.value_many`` agree bit for bit.
    """
    S, St = stacked_diff_operator(domain, k)
    w = domain.cell_measure
    U = np.ascontiguousarray((S @ Y.T).T)
    A = np.abs(U)
    val = (w * np.sum(A ** p, axis=-1)) ** (1.0 / p)
    if not order:
        return (val,)
    zero = val == 0.0
    vp = np.where(zero, 1.0, val) ** (1.0 - p)
    G = w * np.ascontiguousarray((St @ (A ** (p - 1.0) * np.sign(U)).T).T) * vp[:, None]
    G[zero] = 0.0
    if order == 1:
        return val, G
    Sd, D = _dense_operators(domain, k)
    if p != 2.0:  # at p = 2 every weight |u|^(p-2) is 1, and D is K itself
        A[zero] = 1.0
        D = (Sd.T * np.maximum(A, 1e-8 * A.max(axis=-1, keepdims=True))[:, None, :]
             ** (p - 2.0)) @ Sd
    H = (p - 1.0) * (w * vp[:, None, None] * D
                     - G[:, :, None] * G[:, None, :] / np.where(zero, 1.0, val)[:, None, None])
    H[zero] = 0.0
    return val, G, H


def dual_norm_bound(domain: GridDomain, k: int, q: float, V: np.ndarray):
    """The W^{k,q} norm of v / w for each row v of the (m, N) stack V,
    evaluated on v / max|v| so that no power under- or overflows (0 for v = 0).

    It bounds sup{v . f : ||f|| <= 1} for every W^{k',p} norm at k = 0 and
    q = p/(p-1), since ||f||_{k',p} >= w^(1/p) ||f||_p, and equals it for
    the W^{-k,p} norm at q = p/(p-1); ``NormSpec.dual_bound`` picks the pair.
    """
    top = np.max(np.abs(V), axis=1)
    scaled = V / np.where(top > 0.0, top, 1.0)[:, None]
    return top * sobolev_kernel(domain, k, q, scaled)[0] / domain.cell_measure


def sobolev_norm(domain: GridDomain, k: int, p: float, f) -> float:
    """Discrete W^{k,p} norm of the grid vector f: p-sum of f and its
    differences up to order k, ``sobolev_kernel`` on f alone and so bit for
    bit f's row of any stack."""
    check_sobolev_args(domain, k, p)
    return float(sobolev_kernel(domain, k, p, as_stack(f, domain.node_count, (1,)))[0][0])


def check_grid_order(domain: GridDomain, k: int) -> None:
    """Reject k < 0 and an order the n-point grid cannot resolve (k > n - 2)."""
    if k < 0:
        raise ValueError("order k must be nonnegative")
    if k > domain.n - 2:
        raise ValueError(f"order k={k} too large for {domain.n}-point grid")


def check_sobolev_args(domain: GridDomain, k: int, p: float, dual: bool = False) -> None:
    """The one check of the arguments of a W^{k,p} norm, or with ``dual`` of
    its dual W^{-k,p}: k >= 1 for the dual, ``check_grid_order``, and p
    strictly between 1 and infinity."""
    if dual and k < 1:
        raise ValueError("negative order requires k >= 1")
    check_grid_order(domain, k)
    if not (1.0 < p < math.inf):
        raise ValueError(f"p must lie strictly between 1 and infinity, got {p}")


@functools.lru_cache(maxsize=64)
def stiffness(domain: GridDomain, k: int) -> scipy.sparse.csr_matrix:
    """K = S^T S in canonical CSR with read-only values, formed once per
    (domain, k): the W^{-k,2} solve factors it, the M-matrix certificate reads
    its arrays and the dense Hessians at p = 2 are K itself."""
    S, St = stacked_diff_operator(domain, k)
    K = St @ S
    K.sum_duplicates()
    K.data.setflags(write=False)
    return K


@functools.lru_cache(maxsize=64)
def _sobolev_stiffness_factor(domain: GridDomain, k: int):
    return scipy.sparse.linalg.splu(stiffness(domain, k).tocsc())


@functools.lru_cache(maxsize=64)
def _dense_operators(domain: GridDomain, k: int):
    """Dense S and K, read-only."""
    S, K = stacked_diff_operator(domain, k)[0].toarray(), stiffness(domain, k).toarray()
    S.setflags(write=False)
    K.setflags(write=False)
    return S, K


@functools.lru_cache(maxsize=64)
def stiffness_inverse_nonnegative(domain: GridDomain, k: int) -> bool:
    """Certify K^{-1} >= 0 entrywise for the stiffness K = S^T S.

    Passes when K has no positive off-diagonal entry (a Z-matrix) and every
    row has a positive diagonal that exceeds the sum of its off-diagonal
    magnitudes by more than the rounding bound of that row's sum.  Such a K
    is a nonsingular M-matrix, so K^{-1} >= 0 (Berman & Plemmons,
    *Nonnegative Matrices in the Mathematical Sciences*, ch. 6).  Holds for
    k = 1 on every grid domain.  For k >= 2 the product D^T D of the second
    differences has positive off-diagonal entries, and K^{-1} can indeed
    have negative ones.
    """
    z_matrix, margin, rounding = _m_matrix_margins(stiffness(domain, k))
    return bool(z_matrix and np.all(margin > rounding))


def _m_matrix_margins(K: scipy.sparse.csr_matrix):
    """Read from the canonical CSR arrays of K: whether no off-diagonal entry
    is positive, each row's diagonal minus its off-diagonal magnitudes, and
    the rounding bound (entries x eps x row sum of |K|) of that row's sum.

    A margin above its bound makes the diagonal positive as well.
    """
    n, counts = K.shape[0], np.diff(K.indptr)
    on_diag = K.indices == np.repeat(np.arange(n), counts)
    diag = np.zeros(n)
    diag[K.indices[on_diag]] = K.data[on_diag]
    # reduceat gives an empty row the next row's first entry, so it is zeroed
    sums = np.add.reduceat(np.append(np.abs(K.data), 0.0), K.indptr[:-1])
    row_abs = np.where(counts > 0, sums, 0.0)
    rounding = counts * np.finfo(float).eps * row_abs
    return not np.any(K.data[~on_diag] > 0.0), 2.0 * diag - row_abs, rounding


def negative_sobolev_norm(domain: GridDomain, k: int, p: float, g) -> float:
    """Dual norm sup <f,g>_h / ||f||_{k,q} of the grid vector g over grid vectors f.

    ``negative_sobolev_kernel`` on g alone: exact for p = 2 via one
    positive-definite solve; for other p a projected-ascent lower bound,
    accepted only when the residual-based duality gap is below 1e-4 relative;
    otherwise the kernel's ConvergenceError names g as row 0, its ``best``
    the bound found.
    """
    check_sobolev_args(domain, k, p, dual=True)
    Y = as_stack(g, domain.node_count, (1,))
    try:
        return float(negative_sobolev_kernel(domain, k, p, Y)[0][0])
    except ConvergenceError as exc:
        exc.best = float(exc.best[0])
        raise


def row_dots(U: np.ndarray, V: np.ndarray):
    """u . v for each pair of rows of the stacks U and V (0-d for two vectors):
    a stacked matmul dots each pair alone, so a row matches that row alone bit
    for bit, as ``np.vecdot`` does on numpy >= 2 only."""
    return (U[..., None, :] @ V[..., :, None])[..., 0, 0]


def negative_sobolev_kernel(domain: GridDomain, k: int, p: float, Y: np.ndarray,
                            order: int = 0):
    """The W^{-k,p} norms of the rows of the (m, N) stack Y and, up to
    ``order``, their gradients and dense Hessians, as ``sobolev_kernel``.

    At p = 2 all come from one solve with the factored stiffness K: values
    sqrt(w y^T K^{-1} y), gradients w K^{-1} y / val and Hessians
    (w K^{-1} - g g^T) / val, both 0 at the origin; rows reduce as in
    ``sobolev_kernel``, so a vector and its row of a stack agree bit for bit.
    At other p each value is one row's certified ascent, with no derivatives;
    the rows whose ascent is not certified raise one ConvergenceError, its
    ``best`` the values and ``diagnostics["rows"][j]`` the failure of row j.
    """
    if p != 2.0:
        if order:
            raise NotImplementedError("derivatives of the dual Sobolev norm need p = 2")
        ascents = [_negative_norm_ascent(domain, k, p, y) for y in Y]
        val = np.array([value for value, _ in ascents])
        failed = {j: failure for j, (_, failure) in enumerate(ascents) if failure}
        if failed:
            raise ConvergenceError.of_rows(failed, val)
        return (val,)
    m, n = Y.shape
    w = domain.cell_measure
    V = _sobolev_stiffness_factor(domain, k).solve(
        np.hstack([Y.T, np.eye(n)]) if order == 2 else Y.T)
    U = np.ascontiguousarray(V[:, :m].T)
    val = np.sqrt(np.maximum(w * row_dots(U, Y), 0.0))
    if not order:
        return (val,)
    zero = val == 0.0
    scale = np.where(zero, 1.0, val)
    G = w * U / scale[:, None]
    G[zero] = 0.0
    if order == 1:
        return val, G
    H = (w * V[:, m:] - G[:, :, None] * G[:, None, :]) / scale[:, None, None]
    H[zero] = 0.0
    return val, G, H


def _negative_norm_ascent(domain: GridDomain, k: int, p: float, gv: np.ndarray):
    """The certified lower bound of ||gv||_{-k,p} and None, or the best
    bound and the failure, an ``error`` message and the ``gap`` if any."""
    q = p / (p - 1.0)
    w = domain.cell_measure
    if not np.any(gv):
        return 0.0, None
    # warm start at the p=2 maximizer
    f0 = _sobolev_stiffness_factor(domain, k).solve(gv)
    n0 = sobolev_kernel(domain, k, q, f0[None])[0][0]
    f0 = f0 / n0 if n0 > 0 else np.ones_like(gv)

    def neg_obj(f):
        return -w * float(f @ gv), -w * gv

    res = scipy.optimize.minimize(
        neg_obj, f0, jac=True, method="SLSQP",
        constraints=[{"type": "ineq",
                      "fun": lambda f: 1.0 - sobolev_kernel(domain, k, q, f[None])[0][0],
                      "jac": lambda f: -sobolev_kernel(domain, k, q, f[None], 1)[1][0]}],
        options={"maxiter": 400, "ftol": 1e-14},
    )
    fstar = res.x
    (norm_f,), grad_f = sobolev_kernel(domain, k, q, fstar[None], 1)
    if norm_f <= 0:
        return 0.0, {"error": "degenerate ascent iterate"}
    lower = w * float(fstar @ gv) / norm_f
    # certificate: w g = lower * grad(||f||) + r, and r . f <= the dual bound of r
    rel_gap = dual_norm_bound(domain, 0, p, w * gv - lower * grad_f)[0] / max(lower, 1e-300)
    if rel_gap > 1e-4:
        return lower, {"error": f"duality gap {rel_gap:.2e} above 1e-4", "gap": rel_gap}
    return float(lower), None


# ---------------------------------------------------------------------------
# Mollifiers
# ---------------------------------------------------------------------------

def _bump_profile(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out


# 1 / integral of exp(-1/(1 - t^2)) over (-1, 1), so the continuum bump has
# integral 1; the quadrature that gives it is in the tests
_BUMP_NORMALIZER = 2.252283621043585


def bump(t: np.ndarray) -> np.ndarray:
    """The standard bump c*exp(-1/(1-t^2)) on |t|<1, continuum integral 1."""
    return _BUMP_NORMALIZER * _bump_profile(t)


def mollifier_weights(delta: float, h: float) -> np.ndarray:
    """The bump at scale delta sampled at the offsets j h with |j h| < delta,
    renormalized to sum exactly 1; delta must be positive and at least 2h."""
    if delta <= 0:
        raise ValueError("mollifier scale must be positive")
    if delta < 2.0 * h - 1e-12:
        raise GridTooCoarseError(f"mollifier scale {delta:g} below 2h = {2 * h:g}")
    jmax = int(np.ceil(delta / h)) - 1
    while jmax * h >= delta:
        jmax -= 1
    offsets = np.arange(-jmax, jmax + 1)
    w = bump(offsets * h / delta)
    return w / w.sum()


class MollifierOperator(scipy.sparse.linalg.LinearOperator):
    """Convolution of grid vectors with ``mollifier_weights(delta, h)`` along
    every axis, the mollifier approximant at scale delta.

    The torus convolves periodically; bounded domains extend by zero, so
    supports grow by at most delta.  The weights are nonnegative and
    symmetric, so the operator is positive and is its own transpose.
    """

    def __init__(self, domain: GridDomain, delta: float):
        super().__init__(dtype=float, shape=(domain.node_count,) * 2)
        self.domain, self.w = domain, mollifier_weights(delta, domain.h)

    @property
    def nbytes(self) -> int:
        return self.w.nbytes

    def _matmat(self, X):
        dom = self.domain
        out = np.asarray(X, dtype=float).reshape((dom.n,) * dom.d + (-1,))
        mode = "wrap" if dom.periodic else "constant"
        for axis in range(dom.d):
            out = scipy.ndimage.convolve1d(out, self.w, axis=axis, mode=mode, cval=0.0)
        return out.reshape(dom.node_count, -1)

    def _transpose(self):
        return self

    _adjoint = _transpose


def mollify(domain: GridDomain, delta: float, f) -> np.ndarray:
    """The grid vector f mollified at scale delta, ``MollifierOperator(domain, delta) @ f``."""
    f = as_stack(f, domain.node_count, (1,))[0]
    return MollifierOperator(domain, delta) @ f


# ---------------------------------------------------------------------------
# Boundary charts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryChart:
    """Affine push-in maps A_n(x) = B_n (x - c) + c on a neighbourhood V.

    ``compress`` marks the axes scaled by (1 - 1/n); the rest are fixed.
    B_n -> id and the shifts vanish as n grows.  ``build_boundary_chart``
    certifies, for every n the chart was built for, that ``image_box(n)``,
    the closure of A_n(domain ∩ V), lies inside the open domain.
    """

    center: tuple[float, ...]
    v_lo: tuple[float, ...]
    v_hi: tuple[float, ...]
    compress: tuple[bool, ...]
    c: tuple[float, ...]

    def matrix(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        if n < 2:
            raise ValueError("chart index must satisfy n >= 2")
        factors = np.where(np.asarray(self.compress), 1.0 - 1.0 / n, 1.0)
        c = np.asarray(self.c)
        return factors, c * (1.0 - factors)

    def apply(self, n: int, pts: np.ndarray) -> np.ndarray:
        """A_n on each row of ``pts``, one axis at a time: pts[:, i] * B[i] + b[i].

        Each axis is one pass over all points with a scalar factor and shift,
        rounded as ``pts * B + b`` rounds, whose broadcast would run its inner
        loop over the d axes of each point instead.  The result is
        column-major, so each axis of it is contiguous for per-axis tests.
        """
        B, b = self.matrix(n)
        pts = np.atleast_2d(pts)
        out = np.empty(pts.shape, order="F")
        for i in range(len(B)):
            out[:, i] = pts[:, i] * B[i] + b[i]
        return out

    def apply_inverse(self, n: int, pts: np.ndarray) -> np.ndarray:
        """A_n^{-1} on each row of ``pts`` as ``apply`` maps: (pts[:, i] - b[i]) / B[i]."""
        B, b = self.matrix(n)
        pts = np.atleast_2d(pts)
        out = np.empty(pts.shape, order="F")
        for i in range(len(B)):
            out[:, i] = (pts[:, i] - b[i]) / B[i]
        return out

    def image_box(self, n: int, domain: GridDomain) -> tuple[np.ndarray, np.ndarray]:
        """Closure of A_n(domain ∩ V), exact for box data."""
        lo = np.maximum(np.asarray(self.v_lo), np.asarray(domain.lo))
        hi = np.minimum(np.asarray(self.v_hi), np.asarray(domain.hi))
        corners = self.apply(n, np.array([lo, hi]))
        return corners.min(axis=0), corners.max(axis=0)


def build_boundary_chart(
    domain: GridDomain,
    x0,
    r: float = 0.4,
    ns: tuple[int, ...] = (2, 4, 8, 16, 32),
) -> BoundaryChart:
    """Chart at a point of the closed domain, certified by its image boxes.

    Interior points get an isotropic compression toward x0; points on a flat
    boundary piece get the single-axis compression toward the inward-shifted
    center, and rectangle corners compress both boundary axes.

    The certificate is exact and draws no samples: for each n in ``ns`` the
    box ``image_box(n)`` must lie strictly inside the domain, else
    ``ChartError``.  On each axis A_n is x -> B x + b with B > 0, and
    correctly rounded ``*`` and ``+`` are monotone, so the computed image of
    every point of the closed box V ∩ domain lies between the computed
    images of its corners, which are the ends of ``image_box(n)``.
    """
    if domain.periodic:
        raise ChartError("torus has no boundary to chart")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.size != domain.d:
        raise ChartError("chart center has wrong dimension")
    lo, hi = np.asarray(domain.lo), np.asarray(domain.hi)
    tol = 1e-12
    if np.any(x0 < lo - tol) or np.any(x0 > hi + tol):
        raise ChartError(f"chart center {x0} outside the closed domain")

    at_lo = np.abs(x0 - lo) <= tol
    at_hi = np.abs(x0 - hi) <= tol
    on_boundary = at_lo | at_hi
    extent = hi - lo

    if not on_boundary.any():
        dist = float(np.min(np.minimum(x0 - lo, hi - x0)))
        radius = min(r, 0.999 * dist)
        v_lo, v_hi = x0 - radius, x0 + radius
        compress = (True,) * domain.d
        c = x0
    else:
        if r <= 0 or r >= float(np.min(extent)):
            raise ChartError("boundary chart radius out of range")
        inward = np.where(at_lo, 1.0, 0.0) - np.where(at_hi, 1.0, 0.0)
        v_lo, v_hi = np.empty(domain.d), np.empty(domain.d)
        for i in range(domain.d):
            if on_boundary[i]:
                a, b = -r / 4.0, 3.0 * r / 4.0
                if inward[i] > 0:
                    v_lo[i], v_hi[i] = x0[i] + a, x0[i] + b
                else:
                    v_lo[i], v_hi[i] = x0[i] - b, x0[i] - a
            else:
                width = min(0.3 * extent[i], x0[i] - lo[i], hi[i] - x0[i])
                v_lo[i], v_hi[i] = x0[i] - width, x0[i] + width
        compress = tuple(bool(b) for b in on_boundary)
        c = x0 + (r / 4.0) * inward

    chart = BoundaryChart(
        center=tuple(x0), v_lo=tuple(v_lo), v_hi=tuple(v_hi),
        compress=compress, c=tuple(c),
    )
    _verify_chart_containment(chart, domain, ns)
    return chart


def _verify_chart_containment(chart, domain, ns):
    lo, hi = np.asarray(domain.lo), np.asarray(domain.hi)
    box_lo = np.maximum(np.asarray(chart.v_lo), lo)
    box_hi = np.minimum(np.asarray(chart.v_hi), hi)
    if np.any(box_hi <= box_lo):
        raise ChartError("chart neighbourhood misses the domain")
    for n in ns:
        img_lo, img_hi = chart.image_box(n, domain)
        if np.any(img_lo <= lo) or np.any(img_hi >= hi):
            raise ChartError(
                f"chart image closure touches the boundary at n={n}: "
                f"box [{img_lo}, {img_hi}]"
            )


# ---------------------------------------------------------------------------
# Partition of unity and the push-in operator
# ---------------------------------------------------------------------------

def _smoothstep(u: np.ndarray) -> np.ndarray:
    # quintic smoothstep: C^2, 0 below 0, 1 above 1
    u = np.clip(u, 0.0, 1.0)
    return u ** 3 * (10.0 - 15.0 * u + 6.0 * u * u)


@dataclass(frozen=True)
class _Bump:
    """Product of per-axis smoothstep ramps, supported in its open box."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    ramp: float

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        lo, hi = np.asarray(self.lo), np.asarray(self.hi)
        vals = _smoothstep((pts - lo) / self.ramp) * _smoothstep((hi - pts) / self.ramp)
        return vals.prod(axis=1)


# partition-bump margins: supports shrink into the open chart windows, and
# the ramps stay wide so the partition gradients keep the push-in error low
_BUMP_SHRINK = 0.01
_BUMP_RAMP = 0.12

# default chart geometry (unit-scale domains): wide boundary windows overlap
# a generous interior chart
_DEFAULT_BOUNDARY_R = 0.72
_DEFAULT_INTERIOR_RADIUS = 0.35


def default_chart_cover(domain: GridDomain,
                        ns: tuple[int, ...] = (2, 4, 8, 16, 32)) -> list[BoundaryChart]:
    """Interval: two endpoint charts plus one interior chart.

    Rectangle: four corners, four edge midpoints, one interior chart.  Each
    chart is certified for every n in ``ns`` as in ``build_boundary_chart``;
    the list order is fixed, since reports name the charts by position.
    """
    lo, hi = np.asarray(domain.lo), np.asarray(domain.hi)
    mid = 0.5 * (lo + hi)
    if domain.d == 1:
        centers = [np.array([lo[0]]), np.array([hi[0]]), mid]
    else:
        centers = [
            np.array([lo[0], lo[1]]), np.array([hi[0], lo[1]]),
            np.array([lo[0], hi[1]]), np.array([hi[0], hi[1]]),
            np.array([mid[0], lo[1]]), np.array([mid[0], hi[1]]),
            np.array([lo[0], mid[1]]), np.array([hi[0], mid[1]]),
            mid,
        ]
    charts = []
    for x0 in centers:
        onb = np.any((np.abs(x0 - lo) <= 1e-12) | (np.abs(x0 - hi) <= 1e-12))
        radius = _DEFAULT_BOUNDARY_R if onb else _DEFAULT_INTERIOR_RADIUS
        charts.append(build_boundary_chart(domain, x0, r=radius, ns=ns))
    return charts


class PushinOperator:
    """Positive partition-of-unity operator S_n pushing supports into K_n.

    S_n f = sum over charts of (f * h_chart) pulled back through the chart's
    inverse affine map, with linear interpolation at off-grid points.  S_n f
    is identically zero at every node outside the compact union K_n of the
    chart image boxes.  The charts are the default cover, and ``matrix`` is
    S_n in CSR form, applied to the node values of f.
    """

    def __init__(self, domain: GridDomain, n: int):
        if domain.periodic:
            raise ValueError("push-in requires a domain with boundary")
        if n < 2:
            raise ValueError("push-in index must satisfy n >= 2")
        self.domain = domain
        self.n = n
        self.charts = default_chart_cover(domain, ns=(n,))
        self.bumps = [self._make_bump(ch) for ch in self.charts]
        self.k_boxes = [ch.image_box(n, domain) for ch in self.charts]
        self._check_cover()
        self.matrix = self._assemble()

    def _make_bump(self, chart: BoundaryChart) -> _Bump:
        lo = np.asarray(chart.v_lo) + _BUMP_SHRINK
        hi = np.asarray(chart.v_hi) - _BUMP_SHRINK
        ramp = min(_BUMP_RAMP, 0.4 * float(np.min(hi - lo)))
        if np.any(hi - lo <= 2 * ramp) or ramp <= 0:
            raise ChartError("chart window too small for the partition bump")
        return _Bump(tuple(lo), tuple(hi), ramp)

    def _bump_sum(self, pts: np.ndarray) -> np.ndarray:
        return sum(b(pts) for b in self.bumps)

    def _check_cover(self):
        pts = self.domain.points()
        corners = np.array(list(itertools.product(*zip(self.domain.lo, self.domain.hi))))
        total = self._bump_sum(np.vstack([pts, corners]))
        if total.min() <= 1e-12:
            i = int(np.argmin(total))
            raise ChartError(
                f"chart cover failure: closure point {np.vstack([pts, corners])[i]} uncovered"
            )

    def _interp_weights(self, z: np.ndarray):
        """Linear interpolation stencil, clamped to the closed domain."""
        dom = self.domain
        lo = np.asarray(dom.lo)
        t = (z - lo) / dom.h
        idx = np.clip(np.floor(t).astype(int), 0, dom.n - 2)
        frac = np.clip(t - idx, 0.0, 1.0)
        strides = dom.n ** np.arange(dom.d - 1, -1, -1)
        cols, wts = [], []
        for corner in itertools.product((0, 1), repeat=dom.d):
            cols.append((idx + corner) @ strides)
            w = 1.0
            for i, c in enumerate(corner):
                w = w * (frac[:, i] if c else 1.0 - frac[:, i])
            wts.append(w)
        return np.stack(cols, axis=1), np.stack(wts, axis=1)

    def _assemble(self) -> scipy.sparse.csr_matrix:
        dom = self.domain
        nodes = dom.points()
        rows_all, cols_all, vals_all = [], [], []
        for chart, b in zip(self.charts, self.bumps):
            z = chart.apply_inverse(self.n, nodes)
            weight = b(z)
            ok = (weight > 0.0) & dom.contains(z)
            if not ok.any():
                continue
            zs = z[ok]
            hvals = weight[ok] / self._bump_sum(zs)
            cols, wts = self._interp_weights(zs)
            rows = np.nonzero(ok)[0]
            rows_all.append(np.repeat(rows, cols.shape[1]))
            cols_all.append(cols.ravel())
            vals_all.append((hvals[:, None] * wts).ravel())
        N = dom.node_count
        M = scipy.sparse.coo_matrix(
            (np.concatenate(vals_all),
             (np.concatenate(rows_all), np.concatenate(cols_all))),
            shape=(N, N),
        )
        return M.tocsr()

    def node_in_k(self, pts: np.ndarray) -> np.ndarray:
        """Membership in the compact union K_n of closed chart image boxes."""
        pts = np.atleast_2d(pts)
        inside = np.zeros(pts.shape[0], dtype=bool)
        for lo, hi in self.k_boxes:
            inside |= np.all((pts >= lo) & (pts <= hi), axis=1)
        return inside


# ---------------------------------------------------------------------------
# One-dimensional positive dominant (k-fold integration from both endpoints)
# ---------------------------------------------------------------------------

def _cumint_left(u: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(u)
    out[1:] = np.cumsum(u[:-1]) * h
    return out


def _cumint_right(u: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(u)
    out[:-1] = np.cumsum(u[:-1][::-1])[::-1] * h
    return out


def _cutoff_left(t: np.ndarray) -> np.ndarray:
    # 1 on [0, 1/2], 0 on [3/4, 1], C^2 ramp between
    return _smoothstep((0.75 - t) / 0.25)


def _cutoff_right(t: np.ndarray) -> np.ndarray:
    return _smoothstep((t - 0.25) / 0.25)


def positive_dominant_w0(domain: GridDomain, k: int, f) -> np.ndarray:
    """Positive grid vector dominating the grid vector f on an interval,
    with the same endpoint vanishing.

    Requires f to vanish discretely to order k-1 at both endpoints.  Builds
    the k-fold cumulative integrals of |D^k f| from each endpoint and blends
    them with fixed smooth cutoffs; the result is >= max(f, 0) and vanishes
    to order k-1 at both endpoints, exactly in the discrete calculus.
    """
    (f,) = as_stack(f, domain.node_count, (1,))
    if domain.kind != "interval":
        raise ValueError("positive dominant construction is one-dimensional")
    if k < 1:
        raise ValueError("k must be at least 1")
    check_grid_order(domain, k)
    h = domain.h
    D = diff_operator(domain, (1,))
    derivs = [f]
    for _ in range(k):
        derivs.append(D @ derivs[-1])
    for j in range(k):
        left, right = derivs[j][0], derivs[j][-1]
        if abs(left) > 1e-8 or abs(right) > 1e-8:
            raise ValueError(
                f"f does not vanish to order {k - 1} at the endpoints: "
                f"order-{j} values ({left:.2e}, {right:.2e})"
            )
    f0 = f1 = np.abs(derivs[k])  # each integral below builds a new array
    for _ in range(k):
        f0 = _cumint_left(f0, h)
        f1 = _cumint_right(f1, h)
    a, b = domain.lo[0], domain.hi[0]
    t = (domain.axis(0) - a) / (b - a)
    return _cutoff_left(t) * f0 + _cutoff_right(t) * f1
