"""Finite-dimensional ordered-space algebra.

Polyhedral cones in inequality form with rank-certified pointedness and
duality, lattice oracles that minimize over enumerated polyhedron vertices,
a witness-based lower bound for the normality constant M, and a sampled
face test.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from . import sobolev_grid
from .sobolev_grid import GridDomain, GridFunction

CONE_TOL = 1e-10   # absolute tolerance for cone membership
LP_TOL = 1e-9      # feasibility tolerance for linear programs and polyhedron vertices
_NORM_CHECK_SAMPLES = 6  # random pairs of the homogeneity and triangle checks of a norm


class DegenerateConeError(ValueError):
    """The inequality system does not describe a pointed solid cone."""


# ---------------------------------------------------------------------------
# Polyhedral cones
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyhedralCone:
    """Cone {x : ineq @ x >= 0 componentwise} in inequality form.

    Pointedness is certified at construction by a rank test: the lineality
    space of {ineq @ x >= 0} is the kernel of ``ineq``.
    """

    dim: int
    ineq: np.ndarray

    def __post_init__(self):
        ineq = np.atleast_2d(np.asarray(self.ineq, dtype=float))
        if ineq.shape[1] != self.dim:
            raise ValueError(
                f"inequality matrix has {ineq.shape[1]} columns for dim {self.dim}"
            )
        ineq.setflags(write=False)
        object.__setattr__(self, "ineq", ineq)
        if not self.is_standard() and np.linalg.matrix_rank(ineq) < self.dim:
            raise DegenerateConeError("inequality system has nontrivial lineality space")

    @classmethod
    def standard(cls, dim: int) -> "PolyhedralCone":
        return cls(dim, np.eye(dim))

    def is_standard(self) -> bool:
        return self.ineq.shape == (self.dim, self.dim) and np.array_equal(
            self.ineq, np.eye(self.dim)
        )

    def contains(self, x, tol: float = CONE_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected vector of length {self.dim}, got shape {x.shape}")
        return bool(np.all(self.ineq @ x >= -tol))


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
    """Extreme rays of a pointed solid cone, one per row.

    Enumerates the C(m, dim-1) subsets of active inequalities; exact for the
    small dense systems the lab works with.
    """
    A = cone.ineq
    m, d = A.shape
    rays = []
    for rows in itertools.combinations(range(m), d - 1):
        sub = A[list(rows)]
        if np.linalg.matrix_rank(sub) != d - 1:
            continue
        _, _, vt = np.linalg.svd(sub)
        v = vt[-1]
        if np.all(A @ v >= -LP_TOL):
            rays.append(v)
        elif np.all(A @ (-v) >= -LP_TOL):
            rays.append(-v)
    if not rays:
        raise DegenerateConeError("no extreme rays found")
    rays = np.array(rays)
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    _, keep = np.unique(np.round(rays, 10), axis=0, return_index=True)
    return rays[np.sort(keep)]


def _vertices(A: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vertices of {z : lo <= A z <= hi} as rows; a bound may be infinite.

    Solves A_S z = b_S on each full-rank subset S of the C(m, d) subsets of d
    rows, with b_i a finite bound of row i, and keeps the feasible solutions.
    A degenerate vertex appears once per subset that pins it.
    """
    m, d = A.shape
    bounds = np.column_stack([lo, hi])
    blocks = [np.empty((0, d))]
    for rows in map(list, itertools.combinations(range(m), d)):
        if np.linalg.matrix_rank(A[rows]) == d:
            rhs = np.array(list(itertools.product(*(b[np.isfinite(b)] for b in bounds[rows]))))
            blocks.append(np.linalg.solve(A[rows], rhs.T).T)
    V = np.concatenate(blocks)
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
    x = np.asarray(x, dtype=float)
    scale = 1.0 + float(np.linalg.norm(x))
    _, resid = scipy.optimize.nnls(G.T, x)
    return resid <= LP_TOL * scale


# ---------------------------------------------------------------------------
# Norm specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormSpec:
    """Evaluable norm: weighted lp, discrete Sobolev, or its dual.

    The Sobolev kinds carry the grid they live on.  Weighted lp admits
    p = 1 as well (the decomposition examples need it); the Sobolev kinds
    require p strictly between 1 and infinity.  ``monotone`` certifies
    ||u|| <= ||v|| for 0 <= u <= v, which gives the span norm and the
    renorm in closed form.
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
            if not (1.0 < self.p < np.inf):
                raise ValueError("Sobolev norms need p strictly between 1 and infinity")
            if self.kind == "dual_sobolev" and self.k < 1:
                raise ValueError("dual Sobolev norm needs k >= 1")
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
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected vector of length {self.dim}")
        if self.kind == "lp":
            return float(np.sum(self.weights * np.abs(x) ** self.p) ** (1.0 / self.p))
        gf = GridFunction(self.domain, x)
        if self.kind == "sobolev":
            return sobolev_grid.sobolev_norm(gf, self.k, self.p)
        return sobolev_grid.negative_sobolev_norm(gf, self.k, self.p)

    def value_many(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.kind == "lp":
            return np.sum(self.weights * np.abs(X) ** self.p, axis=1) ** (1.0 / self.p)
        if self.kind == "sobolev":
            return sobolev_grid.sobolev_norms(self.domain, self.k, self.p, X.T)
        if self.p == 2.0:
            return sobolev_grid.negative_sobolev_norms(self.domain, self.k, X.T)
        return np.array([self.value(x) for x in X])

    def grad(self, x) -> np.ndarray:
        """Gradient of a Sobolev norm or its dual (a subgradient at kinks); zero at the origin."""
        if self.kind == "lp":
            raise NotImplementedError(
                "lp norms are certified monotone; span_norm never needs their gradient")
        x = np.asarray(x, dtype=float)
        if self.kind == "sobolev":
            return sobolev_grid.sobolev_value_grad(self.domain, self.k, self.p, x)[1]
        if self.p != 2.0:
            raise NotImplementedError("gradient of the dual Sobolev norm needs p = 2")
        return sobolev_grid.negative_sobolev_value_grad(self.domain, self.k, x)[1]

    def _sampled_norm_checks(self):
        rng = np.random.default_rng(20240)
        scale_tol = 1e-8
        for _ in range(_NORM_CHECK_SAMPLES):
            x = rng.standard_normal(self.dim)
            y = rng.standard_normal(self.dim)
            # inf would pass both checks below: an overflow raises instead of
            # warning, and any non-finite value fails as one
            try:
                with np.errstate(over="raise"):
                    nx, ny, n2x, nxy = (self.value(v) for v in (x, y, 2.0 * x, x + y))
                if not all(map(math.isfinite, (nx, ny, n2x, nxy))):
                    raise FloatingPointError("norm value is not finite")
            except FloatingPointError as exc:
                raise ValueError(f"norm is not finite on a sample: {exc}") from exc
            if abs(n2x - 2.0 * nx) > scale_tol * (1.0 + nx):
                raise ValueError("norm failed the sampled homogeneity check")
            if nxy > nx + ny + scale_tol * (1.0 + nx + ny):
                raise ValueError("norm failed the sampled triangle inequality")


@dataclass(frozen=True)
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
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (space.dim,) or y.shape != (space.dim,):
        raise ValueError("vectors must match the space dimension")
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

    A certified lower bound for the normality constant M.
    """
    witnesses = list(witnesses)
    if not witnesses:
        raise ValueError("need at least one witness pair")
    best = 0.0
    for x, y in witnesses:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if not space.cone.contains(x):
            raise ValueError("witness x is not in the cone")
        if not space.cone.contains(y - x):
            raise ValueError("witness pair violates x <= y")
        ny = space.norm.value(y)
        if ny <= 0.0:
            raise ValueError("witness y must be nonzero")
        best = max(best, space.norm.value(x) / ny)
    return best


# ---------------------------------------------------------------------------
# Faces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaceReport:
    is_face: bool
    witness: tuple[np.ndarray, np.ndarray] | None
    samples_checked: int


def is_face(image_generators, ambient: PolyhedralCone, *, sample_size: int = 512,
            seed: int = 0) -> FaceReport:
    """Sampled face test: search for 0 <= z <= g with g generated, z outside.

    Sound on the sampled set; the search picks order-interval extreme points
    (componentwise for the standard ambient cone, otherwise the minimizer of a
    random objective over the enumerated vertices of [0, y]) and tests
    membership in the generated cone by nonnegative least squares.
    """
    G = np.atleast_2d(np.asarray(image_generators, dtype=float))
    if G.shape[1] != ambient.dim:
        raise ValueError("generator dimension mismatch")
    for g in G:
        if not ambient.contains(g, tol=1e-8):
            raise ValueError("generator outside the ambient cone")
    rng = np.random.default_rng(seed)
    checked = 0

    def candidates_for(y):
        nonlocal checked
        if ambient.is_standard():
            # box [0, y]: deterministic single-coordinate corners first
            for i in range(ambient.dim):
                z = np.zeros(ambient.dim)
                z[i] = y[i]
                yield z
            while True:
                mask = rng.integers(0, 2, size=ambient.dim).astype(float)
                yield mask * y
        else:
            A = ambient.ineq
            V = _vertices(A, np.zeros(A.shape[0]), A @ y)
            if not len(V):
                raise DegenerateConeError("order interval has no vertex; ambient not pointed")
            while True:
                yield V[np.argmin(V @ rng.standard_normal(ambient.dim))]

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
        for z in itertools.islice(candidates_for(y), per_y):
            checked += 1
            if np.linalg.norm(z) <= LP_TOL:
                continue
            if not in_generated_cone(G, z):
                return FaceReport(False, (z, np.asarray(y)), checked)
            if checked >= sample_size:
                break
    return FaceReport(True, None, checked)
