"""Finite-dimensional ordered-space algebra.

Polyhedral cones in inequality form with rank-certified pointedness and
duality, lattice oracles that minimize over enumerated polyhedron vertices,
a witness-based lower bound for the normality constant M, and a sampled
face test.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from . import sobolev_grid
from .sobolev_grid import GridDomain, as_stack

CONE_TOL = 1e-10   # absolute tolerance for cone membership
LP_TOL = 1e-9      # feasibility tolerance for linear programs and polyhedron vertices
_NORM_CHECK_SAMPLES = 6  # random pairs of the homogeneity and triangle checks of a norm


class DegenerateConeError(ValueError):
    """The inequality system does not describe a pointed solid cone."""


# ---------------------------------------------------------------------------
# Polyhedral cones
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PolyhedralCone:
    """Cone {x : ineq @ x >= 0 componentwise} in inequality form.

    Every entry of ``ineq`` must be finite.  Pointedness is certified at
    construction by a rank test: the lineality space of {ineq @ x >= 0} is
    the kernel of ``ineq``.  Whether ``ineq`` is the identity, so that the
    cone is the standard one, is decided once at construction with no
    second N x N array; membership in the standard cone tests ``x >= -tol``
    with no matrix product.
    """

    dim: int
    ineq: np.ndarray
    _standard: bool = field(init=False, repr=False)

    def __post_init__(self):
        ineq = np.atleast_2d(np.asarray(self.ineq, dtype=float))
        if ineq.shape[1] != self.dim:
            raise ValueError(
                f"inequality matrix has {ineq.shape[1]} columns for dim {self.dim}"
            )
        ineq.setflags(write=False)
        object.__setattr__(self, "ineq", ineq)
        # the identity has exactly dim nonzeros, all of them on a unit diagonal
        standard = (ineq.shape == (self.dim, self.dim) and np.count_nonzero(ineq) == self.dim
                    and bool(np.all(ineq.diagonal() == 1.0)))
        object.__setattr__(self, "_standard", standard)
        if standard:
            return
        # a NaN or inf would reach the rank test as an SVD failure or a wrong verdict
        bad = np.argwhere(~np.isfinite(ineq))
        if len(bad):
            i, j = bad[0]
            raise ValueError(f"inequality matrix entry ({i}, {j}) is {ineq[i, j]}, not finite")
        if np.linalg.matrix_rank(ineq) < self.dim:
            raise DegenerateConeError("inequality system has nontrivial lineality space")

    @classmethod
    def standard(cls, dim: int) -> "PolyhedralCone":
        """The cone x >= 0, whose ``ineq`` is a read-only identity that stores
        2 dim - 1 floats: entry (i, j) is entry dim - 1 - i + j of one unit vector."""
        unit = np.zeros(2 * dim - 1)
        unit[dim - 1] = 1.0
        step = unit.itemsize
        return cls(dim, np.ndarray((dim, dim), buffer=unit, offset=(dim - 1) * step,
                                   strides=(-step, step)))

    def is_standard(self) -> bool:
        return self._standard

    def contains(self, x, tol: float = CONE_TOL) -> bool:
        """Whether the vector x, or every row of the stack x, lies in the cone."""
        X = as_stack(x, self.dim)
        return bool(np.all((X if self._standard else self.ineq @ X.T) >= -tol))


def _interior_point_value(cone: PolyhedralCone) -> float:
    # max t s.t. ineq x >= t, |x| <= 1; positive iff the cone is solid
    A = cone.ineq
    m, d = A.shape
    c = np.zeros(d + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-A, np.ones((m, 1))])
    bounds = [(-1.0, 1.0)] * d + [(None, None)]
    res = scipy.optimize.linprog(c, A_ub=A_ub, b_ub=np.zeros(m), bounds=bounds,
                                 method="highs")
    if res.status != 0:
        raise DegenerateConeError("interior LP failed")
    return -res.fun


def cone_generators(cone: PolyhedralCone) -> np.ndarray:
    """Extreme rays of a pointed solid cone, one per row, of unit length.

    They are the vertices of the cone cut by c . x >= 1, as ``_vertices``
    enumerates them, where c, the row sum of ``ineq``, is positive on every
    nonzero point of the pointed cone.
    """
    A = cone.ineq
    m = len(A)
    rays = _vertices(np.vstack([A, A.sum(axis=0)]), np.append(np.zeros(m), 1.0),
                     np.full(m + 1, np.inf))
    if not len(rays):
        raise DegenerateConeError("no extreme rays found")
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    _, keep = np.unique(np.round(rays, 10), axis=0, return_index=True)
    return rays[np.sort(keep)]


def _vertices(A: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vertices of {z : lo <= A z <= hi} as rows; a bound may be infinite.

    Solves A_S z = b_S on each full-rank subset S of the C(m, d) subsets of d
    rows, with b_i a finite bound of row i picked in ``itertools.product``
    order, and keeps the feasible solutions in subset order.  A subset with a
    row that has no finite bound pins no vertex.  The subsets that share a
    pick count are solved in one stacked ``np.linalg.solve``, and each
    system is the one a per-subset solve would see, so the rows come out the
    same to the bit.  A degenerate vertex appears once per subset that pins it.
    """
    d = A.shape[1]
    bounds = np.column_stack([lo, hi])
    finite = np.isfinite(bounds)
    # each row's finite bounds first: [lo, hi], [lo, inf] or [hi, -inf]
    picks = np.where(finite[:, :1], bounds, bounds[:, ::-1])
    pinning = np.flatnonzero(finite.any(axis=1))
    subsets = np.array(list(itertools.combinations(pinning, d)), dtype=int).reshape(-1, d)
    subsets = subsets[np.linalg.matrix_rank(A[subsets]) == d]
    counts = finite.sum(axis=1)[subsets]
    sizes = counts.prod(axis=1)
    starts = np.cumsum(sizes) - sizes
    V = np.empty((sizes.sum(), d))
    for size in set(sizes.tolist()):
        group = sizes == size
        # pick j of a subset takes bound j // stride_r % count_r of its row r,
        # where stride_r is the product of the counts of the rows after r
        k = counts[group]
        stride = np.cumprod(k[:, ::-1], axis=1)[:, ::-1] // k
        j = np.arange(size)[None, :, None]
        rhs = picks[subsets[group][:, None, :], j // stride[:, None, :] % k[:, None, :]]
        solved = np.linalg.solve(A[subsets[group]], rhs.transpose(0, 2, 1))
        V[starts[group][:, None] + np.arange(size)] = solved.transpose(0, 2, 1)
    AV = V @ A.T
    tol = LP_TOL * (1.0 + np.abs(AV))
    return V[np.all((AV >= lo - tol) & (AV <= hi + tol), axis=1)]


def dual_cone(cone: PolyhedralCone) -> PolyhedralCone:
    """Cone of functionals nonnegative on the given cone.

    Requires a pointed cone (the constructor certifies that) with nonempty
    interior; the dual is represented by the inequality system whose rows
    are the primal extreme rays.
    """
    if _interior_point_value(cone) <= LP_TOL:
        raise DegenerateConeError("cone has empty interior; dual wedge is not a cone")
    return PolyhedralCone(cone.dim, cone_generators(cone))


def in_generated_cone(generators: np.ndarray, x) -> bool:
    """Membership in the cone of nonnegative combinations of the generators."""
    G = np.atleast_2d(np.asarray(generators, dtype=float))
    (x,) = as_stack(x, G.shape[1], (1,))
    scale = 1.0 + float(np.linalg.norm(x))
    _, resid = scipy.optimize.nnls(G.T, x)
    return resid <= LP_TOL * scale


# ---------------------------------------------------------------------------
# Norm specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NormSpec:
    """Evaluable norm: weighted lp, discrete Sobolev, or its dual.

    The Sobolev kinds carry the grid they live on and take the arguments
    that ``sobolev_grid.check_sobolev_args`` accepts; weighted lp admits
    p = 1 as well (the decomposition examples need it).  Construction
    checks homogeneity, the triangle inequality and finiteness on seeded
    random samples, all evaluated in one ``value_many`` call.  ``monotone``
    certifies ||u|| <= ||v|| for 0 <= u <= v, which gives the span norm and
    the renorm in closed form.  Every evaluation goes through one kernel per
    kind on a stack, so ``value(x)`` equals ``value_many`` of x alone, and
    x's row of any stack, bit for bit.
    """

    kind: str                                # "lp" | "sobolev" | "dual_sobolev"
    p: float
    k: int = 0
    weights: np.ndarray | None = None
    domain: GridDomain | None = None

    def __post_init__(self):
        if self.kind == "lp":
            if self.weights is None:
                raise ValueError("lp norm needs weights")
            w = np.asarray(self.weights, dtype=float)
            if np.any(w <= 0):
                raise ValueError("weights must be strictly positive")
            w.setflags(write=False)
            object.__setattr__(self, "weights", w)
            if not (1.0 <= self.p < np.inf):
                raise ValueError("lp norm needs p in [1, infinity)")
        elif self.kind in ("sobolev", "dual_sobolev"):
            if self.domain is None:
                raise ValueError(f"{self.kind} norm needs a grid domain")
            # value_many skips the check that the scalar Sobolev norms make
            sobolev_grid.check_sobolev_args(self.domain, self.k, self.p,
                                            dual=self.kind == "dual_sobolev")
        else:
            raise ValueError(f"unknown norm kind {self.kind!r}")
        self._sampled_norm_checks()

    @classmethod
    def lp(cls, weights, p: float = 2.0) -> "NormSpec":
        return cls("lp", float(p), weights=np.asarray(weights, dtype=float))

    @classmethod
    def sobolev(cls, domain: GridDomain, k: int, p: float = 2.0) -> "NormSpec":
        return cls("sobolev", float(p), k=k, domain=domain)

    @classmethod
    def dual_sobolev(cls, domain: GridDomain, k: int, p: float = 2.0) -> "NormSpec":
        return cls("dual_sobolev", float(p), k=k, domain=domain)

    @property
    def dim(self) -> int:
        if self.kind == "lp":
            return len(self.weights)
        return self.domain.node_count

    @functools.cached_property
    def monotone(self) -> bool:
        """Certified monotone on the standard cone: 0 <= u <= v gives ||u|| <= ||v||.

        True for weighted lp, for W^{0,p} (the identity block alone) and for
        the dual norm w g^T K^{-1} g at p = 2 when the stiffness K is a
        certified M-matrix, since then K^{-1} >= 0 and
        v^T K^{-1} v - u^T K^{-1} u = (v - u)^T K^{-1} (v + u) >= 0.
        False for every other norm, whether or not it is monotone.
        """
        if self.kind == "lp":
            return True
        if self.kind == "sobolev":
            return self.k == 0
        return self.p == 2.0 and sobolev_grid.stiffness_inverse_nonnegative(
            self.domain, self.k)

    def value(self, x) -> float:
        """The norm of the vector x, bit for bit ``value_many`` of x alone."""
        if self.kind == "lp":
            return float(self._kernel(as_stack(x, self.dim, (1,)), 0)[0][0])
        scalar = (sobolev_grid.sobolev_norm if self.kind == "sobolev"
                  else sobolev_grid.negative_sobolev_norm)
        return scalar(self.domain, self.k, self.p, x)

    def value_many(self, X) -> np.ndarray:
        """Norms of the rows of X (a vector is a stack of one)."""
        return self._kernel(as_stack(X, self.dim), 0)[0]

    def grad(self, x) -> np.ndarray:
        """Gradient of a Sobolev norm or its dual (a subgradient at kinks; 0 at the origin)
        at the vector x, or at each row of the stack x.

        A stack is one kernel call, and each of its rows equals the gradient at
        that row alone bit for bit.
        """
        return self._derivative(x, 1)

    def hess(self, x) -> np.ndarray:
        """Dense Hessian of a Sobolev norm or its dual (0 at the origin) at the
        vector x, or one per row of the stack x, computed as ``grad`` is."""
        return self._derivative(x, 2)

    def dual_bound(self, V) -> np.ndarray:
        """The span-norm certificate's bound on sup{v . f : ||f|| <= 1} for each
        row v of the (m, dim) stack V: ``dual_norm_bound`` at q = p/(p-1), at
        k = 0 for a Sobolev norm, and at the norm's own k, where it is the dual
        norm itself, for the dual Sobolev norm."""
        self._reject_lp("dual bound")
        k = self.k if self.kind == "dual_sobolev" else 0
        return sobolev_grid.dual_norm_bound(self.domain, k, self.p / (self.p - 1.0), V)

    def _derivative(self, x, order: int) -> np.ndarray:
        self._reject_lp(("gradient", "Hessian")[order - 1])
        out = self._kernel(as_stack(x, self.dim), order)[order]
        return out[0] if np.ndim(x) == 1 else out

    def _reject_lp(self, what: str):
        if self.kind == "lp":
            raise NotImplementedError(
                f"lp norms are certified monotone; span_norm never needs their {what}")

    def _kernel(self, X: np.ndarray, order: int) -> tuple:
        """The one evaluation path of every norm kind: values and, up to
        ``order``, derivatives at the rows of the (m, dim) stack X."""
        if self.kind == "lp":
            return (np.sum(self.weights * np.abs(X) ** self.p, axis=1) ** (1.0 / self.p),)
        if self.kind == "sobolev":
            return sobolev_grid.sobolev_kernel(self.domain, self.k, self.p, X, order)
        return sobolev_grid.negative_sobolev_kernel(self.domain, self.k, self.p, X, order)

    def _sampled_norm_checks(self):
        rng = np.random.default_rng(20240)
        scale_tol = 1e-8
        # the stream of a loop drawing x, then y, per sample
        x, y = rng.standard_normal((_NORM_CHECK_SAMPLES, 2, self.dim)).transpose(1, 0, 2)
        # inf would pass both checks below: an overflow raises instead of
        # warning, and any non-finite value fails as one
        try:
            with np.errstate(over="raise"):
                values = self.value_many(np.concatenate([x, y, 2.0 * x, x + y]))
            if not np.all(np.isfinite(values)):
                raise FloatingPointError("norm value is not finite")
        except FloatingPointError as exc:
            raise ValueError(f"norm is not finite on a sample: {exc}") from exc
        nx, ny, n2x, nxy = values.reshape(4, _NORM_CHECK_SAMPLES)
        if np.any(np.abs(n2x - 2.0 * nx) > scale_tol * (1.0 + nx)):
            raise ValueError("norm failed the sampled homogeneity check")
        if np.any(nxy > nx + ny + scale_tol * (1.0 + nx + ny)):
            raise ValueError("norm failed the sampled triangle inequality")


@dataclass(frozen=True, eq=False)
class OrderedSpaceSpec:
    """A finite dimension, a polyhedral cone, and an evaluable norm."""

    dim: int
    cone: PolyhedralCone
    norm: NormSpec

    def __post_init__(self):
        if self.cone.dim != self.dim:
            raise ValueError("cone dimension mismatch")
        if self.norm.dim != self.dim:
            raise ValueError("norm dimension mismatch")

    @classmethod
    def standard_lp(cls, weights, p: float = 2.0) -> "OrderedSpaceSpec":
        w = np.asarray(weights, dtype=float)
        return cls(len(w), PolyhedralCone.standard(len(w)), NormSpec.lp(w, p))

    @classmethod
    def standard_sobolev(cls, domain: GridDomain, k: int, p: float = 2.0) -> "OrderedSpaceSpec":
        dim = domain.node_count
        return cls(dim, PolyhedralCone.standard(dim), NormSpec.sobolev(domain, k, p))


# ---------------------------------------------------------------------------
# Lattice oracles
# ---------------------------------------------------------------------------

_SUP_DIRECTIONS = 64     # random dual-cone objectives per supremum query
_SUP_AGREE_TOL = 1e-8    # largest spread of their minimizers that still agrees


def supremum_oracle(space: OrderedSpaceSpec, x, y, *, seed: int = 0):
    """Supremum of x and y, or None when minimal upper bounds disagree.

    Componentwise max for the standard cone.  For a general polyhedral cone,
    minimizes random dual-cone objectives over the set of common upper
    bounds {s : A s >= max(Ax, Ay)}; a unique answer across all directions
    is returned, disagreement beyond ``_SUP_AGREE_TOL`` yields None.  Every such
    objective is positive on the recession cone (the cone itself), so each
    minimum sits at a vertex: the vertices are enumerated once and each
    direction takes its minimizer among them.
    """
    (x,), (y,) = (as_stack(v, space.dim, (1,)) for v in (x, y))
    if space.cone.is_standard():
        return np.maximum(x, y)
    A = space.cone.ineq
    V = _vertices(A, np.maximum(A @ x, A @ y), np.full(len(A), np.inf))
    if not len(V):
        raise RuntimeError("the set of common upper bounds has no vertex")
    lam = np.random.default_rng(seed).uniform(0.1, 1.0, size=(_SUP_DIRECTIONS, len(A)))
    minimizers = V[np.argmin(V @ (lam @ A).T, axis=0)]
    spread = np.max(minimizers.max(axis=0) - minimizers.min(axis=0))
    if spread > _SUP_AGREE_TOL:
        return None
    s = minimizers.mean(axis=0)
    if not (space.cone.contains(s - x, tol=1e-7) and space.cone.contains(s - y, tol=1e-7)):
        return None
    return s


# ---------------------------------------------------------------------------
# Constants of the order structure
# ---------------------------------------------------------------------------

def normality_constant_lower_bound(space: OrderedSpaceSpec, witnesses) -> float:
    """max ||x|| / ||y|| over witness pairs with 0 <= x <= y.

    A certified lower bound for the normality constant M.  The pairs are
    stacked: cone membership of every x and of every y - x is one
    ``PolyhedralCone.contains`` test each, and the norms of the x and of
    the y are one ``value_many`` call each.
    """
    witnesses = list(witnesses)
    if not witnesses:
        raise ValueError("need at least one witness pair")
    X, Y = (as_stack(side, space.dim, (2,)) for side in zip(*witnesses))
    if not space.cone.contains(X):
        raise ValueError("witness x is not in the cone")
    if not space.cone.contains(Y - X):
        raise ValueError("witness pair violates x <= y")
    ny = space.norm.value_many(Y)
    if np.any(ny <= 0.0):
        raise ValueError("witness y must be nonzero")
    return float(np.max(space.norm.value_many(X) / ny))


# ---------------------------------------------------------------------------
# Faces
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FaceReport:
    is_face: bool
    witness: tuple[np.ndarray, np.ndarray] | None
    samples_checked: int


def is_face(image_generators, ambient: PolyhedralCone, *, sample_size: int = 512,
            seed: int = 0) -> FaceReport:
    """Sampled face test: search for 0 <= z <= g with g generated, z outside.

    Sound on the sampled set; the search picks order-interval extreme points,
    each the minimizer of a random objective over the vertices of [0, y] that
    ``_vertices`` enumerates, and tests membership in the generated cone by
    nonnegative least squares.
    """
    G = as_stack(image_generators, ambient.dim)
    if not ambient.contains(G, tol=1e-8):
        raise ValueError("generator outside the ambient cone")
    rng = np.random.default_rng(seed)
    A = ambient.ineq
    checked = 0

    # sample upper elements: the generators themselves, then random combos
    def upper_elements():
        for g in G:
            yield g
        while True:
            coeffs = rng.uniform(0.0, 1.0, size=G.shape[0])
            yield coeffs @ G

    per_y = max(4, sample_size // max(2 * len(G), 8))
    for y in upper_elements():
        if checked >= sample_size:
            break
        V = _vertices(A, np.zeros(len(A)), A @ y)
        if not len(V):
            raise DegenerateConeError("order interval has no vertex; ambient not pointed")
        for _ in range(per_y):
            z = V[np.argmin(V @ rng.standard_normal(ambient.dim))]
            checked += 1
            if np.linalg.norm(z) <= LP_TOL:
                continue
            if not in_generated_cone(G, z):
                return FaceReport(False, (z, np.asarray(y)), checked)
            if checked >= sample_size:
                break
    return FaceReport(True, None, checked)
