"""Discretized Sobolev spaces on uniform grids.

Grid domains (interval, torus, rectangle), forward-difference Sobolev norms
and their duals, mollification by a renormalized bump kernel, boundary
charts, partition-of-unity push-in operators, and the one-dimensional
positive dominant construction.
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


# ---------------------------------------------------------------------------
# Grid domains and grid functions
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

    @property
    def h(self) -> float:
        extent = self.hi[0] - self.lo[0]
        return extent / self.n if self.periodic else extent / (self.n - 1)

    @property
    def node_count(self) -> int:
        return self.n ** self.d

    @property
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
        """Closed-domain membership."""
        pts = np.atleast_2d(pts)
        return np.all((pts >= np.asarray(self.lo)) & (pts <= np.asarray(self.hi)), axis=1)


@dataclass
class GridFunction:
    """Real values sampled at the nodes of a GridDomain."""

    domain: GridDomain
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.values.size != self.domain.node_count:
            raise ValueError(
                f"expected {self.domain.node_count} values, got {self.values.size}"
            )


# ---------------------------------------------------------------------------
# Difference operators and Sobolev norms
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=128)
def _diff_1d(n: int, h: float, periodic: bool) -> scipy.sparse.csr_matrix:
    # Forward differences; the last row of the non-periodic operator repeats
    # the backward difference so D stays square and kills constants exactly.
    D = scipy.sparse.diags([-1.0, 1.0], [0, 1], shape=(n, n)).tolil()
    if periodic:
        D[n - 1, 0] = 1.0
    else:
        D[n - 1, :] = 0.0
        D[n - 1, n - 2] = -1.0
        D[n - 1, n - 1] = 1.0
    return (D / h).tocsr()


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


def sobolev_norms(domain: GridDomain, k: int, p: float, X: np.ndarray):
    """W^{k,p} norms of the columns of X (a float for a single vector)."""
    S, _ = stacked_diff_operator(domain, k)
    total = domain.cell_measure * np.sum(np.abs(S @ X) ** p, axis=0)
    return total ** (1.0 / p)


def sobolev_value_grad(domain: GridDomain, k: int, p: float, f: np.ndarray):
    """W^{k,p} norm of f and its gradient (subgradient at kinks, 0 at 0)."""
    S, St = stacked_diff_operator(domain, k)
    w, u = domain.cell_measure, S @ f
    val = float((w * np.sum(np.abs(u) ** p)) ** (1.0 / p))
    if val == 0.0:
        return val, np.zeros_like(f)
    return val, w * (St @ (np.abs(u) ** (p - 1.0) * np.sign(u))) * val ** (1.0 - p)


def sobolev_norm(f: GridFunction, k: int, p: float) -> float:
    """Discrete W^{k,p} norm: p-sum of f and its differences up to order k."""
    _check_grid_order(f.domain, k)
    _check_p(p)
    return float(sobolev_norms(f.domain, k, p, f.values))


def _check_grid_order(domain: GridDomain, k: int) -> None:
    if k < 0:
        raise ValueError("order k must be nonnegative")
    if k > domain.n - 2:
        raise ValueError(f"order k={k} too large for {domain.n}-point grid")


def _check_p(p: float) -> None:
    if not (1.0 < p < math.inf):
        raise ValueError(f"p must lie strictly between 1 and infinity, got {p}")


@functools.lru_cache(maxsize=64)
def _sobolev_stiffness_factor(domain: GridDomain, k: int):
    S, St = stacked_diff_operator(domain, k)
    return scipy.sparse.linalg.splu((St @ S).tocsc())


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
    S, St = stacked_diff_operator(domain, k)
    K = (St @ S).tocsr()
    diag = K.diagonal()
    off = K - scipy.sparse.diags(diag)
    if off.nnz and off.data.max() > 0.0:
        return False
    row_abs = np.asarray(abs(K).sum(axis=1)).ravel()
    margin = 2.0 * diag - row_abs  # diagonal minus the off-diagonal magnitudes
    rounding = np.diff(K.indptr) * np.finfo(float).eps * row_abs
    return bool(np.all(diag > 0.0) and np.all(margin > rounding))


def negative_sobolev_norm(g: GridFunction, k: int, p: float) -> float:
    """Dual norm sup <f,g>_h / ||f||_{k,q} over grid functions f.

    Exact for p = 2 via one positive-definite solve.  For other p the value
    is a projected-ascent lower bound, accepted only when the residual-based
    duality gap is below 1e-4 relative.
    """
    if k < 1:
        raise ValueError("negative order requires k >= 1")
    _check_grid_order(g.domain, k)
    _check_p(p)
    if p == 2.0:
        return negative_sobolev_value_grad(g.domain, k, g.values)[0]
    return _negative_norm_ascent(g, k, p)


def negative_sobolev_norms(domain: GridDomain, k: int, X: np.ndarray) -> np.ndarray:
    """W^{-k,2} norms sqrt(w x^T K^{-1} x) of the columns x of X, K = S^T S."""
    U = _sobolev_stiffness_factor(domain, k).solve(X)
    return np.sqrt(np.maximum(domain.cell_measure * np.sum(U * X, axis=0), 0.0))


def negative_sobolev_value_grad(domain: GridDomain, k: int, g: np.ndarray):
    """W^{-k,2} norm of g and its gradient w K^{-1} g / norm (0 at 0), one solve."""
    w = domain.cell_measure
    u = _sobolev_stiffness_factor(domain, k).solve(g)
    val = math.sqrt(max(w * float(u @ g), 0.0))
    if val == 0.0:
        return val, np.zeros_like(g)
    return val, w * u / val


def _negative_norm_ascent(g: GridFunction, k: int, p: float) -> float:
    q = p / (p - 1.0)
    dom, w = g.domain, g.domain.cell_measure
    gv = g.values
    if not np.any(gv):
        return 0.0
    # warm start at the p=2 maximizer
    f0 = _sobolev_stiffness_factor(dom, k).solve(gv)
    n0, _ = sobolev_value_grad(dom, k, q, f0)
    f0 = f0 / n0 if n0 > 0 else np.ones_like(gv)

    def neg_obj(f):
        return -w * float(f @ gv), -w * gv

    def constraint(f):
        val, grad = sobolev_value_grad(dom, k, q, f)
        return 1.0 - val, -grad

    res = scipy.optimize.minimize(
        neg_obj, f0, jac=True, method="SLSQP",
        constraints=[{"type": "ineq",
                      "fun": lambda f: constraint(f)[0],
                      "jac": lambda f: constraint(f)[1]}],
        options={"maxiter": 400, "ftol": 1e-14},
    )
    fstar = res.x
    norm_f, grad_f = sobolev_value_grad(dom, k, q, fstar)
    if norm_f <= 0:
        raise ConvergenceError("degenerate ascent iterate", best=0.0)
    lower = w * float(fstar @ gv) / norm_f
    # certificate: hg = lower * grad(||f||) + r, with ||r||_* <= ||r||_2 / lam_min
    resid = w * gv - lower * grad_f
    lam_min = w ** (1.0 / q)
    if q >= 2.0:
        lam_min *= dom.node_count ** (1.0 / q - 0.5)
    gap = float(np.linalg.norm(resid)) / lam_min
    rel_gap = gap / max(lower, 1e-300)
    if rel_gap > 1e-4:
        raise ConvergenceError(
            f"duality gap {rel_gap:.2e} above 1e-4", best=lower,
            diagnostics={"gap": rel_gap},
        )
    return float(lower)


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


@dataclass(frozen=True)
class Mollifier:
    """Scaled bump kernel; discrete weights renormalized to sum exactly 1."""

    delta: float

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("mollifier scale must be positive")

    def weights(self, h: float) -> np.ndarray:
        if self.delta < 2.0 * h - 1e-12:
            raise GridTooCoarseError(
                f"mollifier scale {self.delta:g} below 2h = {2 * h:g}"
            )
        jmax = int(np.ceil(self.delta / h)) - 1
        while jmax * h >= self.delta:
            jmax -= 1
        offsets = np.arange(-jmax, jmax + 1)
        w = bump(offsets * h / self.delta)
        return w / w.sum()


def mollify(f: GridFunction, delta: float) -> GridFunction:
    """Convolve with the renormalized bump kernel at scale delta.

    The torus convolves periodically; bounded domains extend f by zero, so
    supports grow by at most delta.
    """
    dom = f.domain
    w = Mollifier(delta).weights(dom.h)
    mode = "wrap" if dom.periodic else "constant"
    out = f.values.reshape((dom.n,) * dom.d)
    for axis in range(dom.d):
        out = scipy.ndimage.convolve1d(out, w, axis=axis, mode=mode, cval=0.0)
    return GridFunction(dom, out)


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
        B, b = self.matrix(n)
        return np.atleast_2d(pts) * B + b

    def apply_inverse(self, n: int, pts: np.ndarray) -> np.ndarray:
        B, b = self.matrix(n)
        return (np.atleast_2d(pts) - b) / B

    def image_box(self, n: int, domain: GridDomain) -> tuple[np.ndarray, np.ndarray]:
        """Closure of A_n(domain ∩ V), exact for box data."""
        lo = np.maximum(np.asarray(self.v_lo), np.asarray(domain.lo))
        hi = np.minimum(np.asarray(self.v_hi), np.asarray(domain.hi))
        a = self.apply(n, lo[None, :])[0]
        b = self.apply(n, hi[None, :])[0]
        return np.minimum(a, b), np.maximum(a, b)


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


def positive_dominant_w0(f: GridFunction, k: int) -> GridFunction:
    """Positive grid function dominating f with the same endpoint vanishing.

    Requires f to vanish discretely to order k-1 at both endpoints.  Builds
    the k-fold cumulative integrals of |D^k f| from each endpoint and blends
    them with fixed smooth cutoffs; the result is >= max(f, 0) and vanishes
    to order k-1 at both endpoints, exactly in the discrete calculus.
    """
    if f.domain.kind != "interval":
        raise ValueError("positive dominant construction is one-dimensional")
    if k < 1:
        raise ValueError("k must be at least 1")
    _check_grid_order(f.domain, k)
    h = f.domain.h
    D = diff_operator(f.domain, (1,))
    derivs = [f.values]
    for _ in range(k):
        derivs.append(D @ derivs[-1])
    for j in range(k):
        left, right = derivs[j][0], derivs[j][-1]
        if abs(left) > 1e-8 or abs(right) > 1e-8:
            raise ValueError(
                f"f does not vanish to order {k - 1} at the endpoints: "
                f"order-{j} values ({left:.2e}, {right:.2e})"
            )
    top = np.abs(derivs[k])
    f0 = top.copy()
    f1 = top.copy()
    for _ in range(k):
        f0 = _cumint_left(f0, h)
        f1 = _cumint_right(f1, h)
    a, b = f.domain.lo[0], f.domain.hi[0]
    t = (f.domain.axis(0) - a) / (b - a)
    g = _cutoff_left(t) * f0 + _cutoff_right(t) * f1
    return GridFunction(f.domain, g)
