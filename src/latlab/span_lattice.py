"""Span norms, the lattice renorming, and constructive supremum sequences.

The span norm minimizes ||y|| + ||z|| over nonnegative decompositions
x = y - z; the renorm maximizes the norm over the order interval [0, |x|];
the constructive suprema iterate s_n = J |R_n z| through an approximation
scheme until the sequence is Cauchy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.ndimage
from scipy.sparse.linalg import LinearOperator

from .ordered_space import NormSpec, OrderedSpaceSpec, PolyhedralCone
from .sobolev_grid import ConvergenceError, GridDomain, Mollifier


# ---------------------------------------------------------------------------
# Span norm
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpanNormResult:
    """Value of the span norm and the achieving decomposition x = y - z."""

    value: float
    y: np.ndarray
    z: np.ndarray


_SPAN_STARTS = 8        # descent starts: s = 0, then seeded random points
_SPAN_MAX_ITER = 5000   # descent steps per start
_SPAN_SEED = 7


def span_norm(space: OrderedSpaceSpec, x) -> SpanNormResult:
    """inf ||y|| + ||z|| over y, z >= 0 with x = y - z (standard cone).

    Parameterizes y = x+ + s, z = x- + s with s >= 0 and runs projected
    gradient descent with backtracking from several starts.  On the cone the
    value equals the base norm exactly and is returned directly.
    """
    if not space.cone.is_standard():
        raise ValueError("span norm optimization requires the standard cone")
    x = np.asarray(x, dtype=float)
    if x.shape != (space.dim,):
        raise ValueError("vector dimension mismatch")
    xp = np.maximum(x, 0.0)
    xm = np.maximum(-x, 0.0)
    norm = space.norm
    if not np.any(xm):
        return SpanNormResult(norm.value(x), xp, np.zeros_like(x))
    if not np.any(xp):
        return SpanNormResult(norm.value(-x), np.zeros_like(x), xm)

    def objective(s):
        return norm.value(xp + s) + norm.value(xm + s)

    def gradient(s):
        return norm.grad(xp + s) + norm.grad(xm + s)

    scale = float(np.max(np.abs(x)))
    rng = np.random.default_rng(_SPAN_SEED)
    start_points = [np.zeros_like(x)]
    for j in range(_SPAN_STARTS - 1):
        level = 0.5 ** (j % 4)
        start_points.append(level * scale * rng.uniform(0.0, 1.0, size=x.shape))

    best_val, best_s, converged = math.inf, None, False
    for s0 in start_points:
        s = s0.copy()
        val = objective(s)
        step = 0.25 * scale / max(float(np.max(np.abs(gradient(s)))), 1e-30)
        ok = False
        for _ in range(_SPAN_MAX_ITER):
            g = gradient(s)
            # projected-gradient residual as the convergence measure
            resid = np.where(s > 0, g, np.minimum(g, 0.0))
            if float(np.max(np.abs(resid))) * scale <= 1e-12 * (1.0 + val):
                ok = True
                break
            t = step
            improved = False
            while t > 1e-18 * scale:
                s_new = np.maximum(s - t * g, 0.0)
                val_new = objective(s_new)
                if val_new < val - 1e-12 * abs(val):
                    s, val = s_new, val_new
                    step = min(t * 2.0, scale)
                    improved = True
                    break
                t *= 0.5
            if not improved:
                ok = True  # no descent direction left at this resolution
                break
        if best_s is None or val < best_val - 1e-15 * (1.0 + abs(best_val)):
            best_val, best_s = val, s
            converged = ok
    if not converged:
        raise ConvergenceError(
            "span-norm descent exhausted its iteration budget",
            best=SpanNormResult(best_val, xp + best_s, xm + best_s),
        )
    return SpanNormResult(best_val, xp + best_s, xm + best_s)


# ---------------------------------------------------------------------------
# Renorming via order-interval maximization
# ---------------------------------------------------------------------------

RENORM_EXACT_MAX_DIM = 16  # vertex enumeration cutoff (2^16 vertices)
_RENORM_ASCENT_STARTS = 32  # random vertex starts of the coordinate ascent
_RENORM_SEED = 11


@dataclass(frozen=True)
class RenormResult:
    """Maximum of the norm over [0, |x|]; ``exact`` marks vertex enumeration.

    Inexact values are certified lower bounds from coordinate ascent.
    """

    value: float
    exact: bool
    maximizer: np.ndarray


def renorm_value(space: OrderedSpaceSpec, x) -> RenormResult:
    """sup { ||w|| : 0 <= w <= |x| } (standard cone).

    Exact for dim <= 16 by enumerating the box vertices (the norm is convex,
    so the maximum sits at a vertex); otherwise a coordinate-ascent lower
    bound flagged exact=False.
    """
    if not space.cone.is_standard():
        raise ValueError("renorm maximization requires the standard cone")
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    if not np.any(ax):
        return RenormResult(0.0, True, np.zeros_like(x))
    d = space.dim
    norm = space.norm
    if d <= RENORM_EXACT_MAX_DIM:
        masks = ((np.arange(2 ** d)[:, None] >> np.arange(d)) & 1).astype(float)
        vals = norm.value_many(masks * ax)
        i = int(np.argmax(vals))
        return RenormResult(float(vals[i]), True, masks[i] * ax)
    rng = np.random.default_rng(_RENORM_SEED)
    best_val, best_w = -math.inf, None
    for _ in range(_RENORM_ASCENT_STARTS):
        mask = rng.integers(0, 2, size=d).astype(float)
        val = norm.value(mask * ax)
        improved = True
        while improved:
            improved = False
            for i in range(d):
                flipped = mask.copy()
                flipped[i] = 1.0 - flipped[i]
                v = norm.value(flipped * ax)
                if v > val + 1e-15:
                    mask, val = flipped, v
                    improved = True
        if val > best_val:
            best_val, best_w = val, mask * ax
    return RenormResult(float(best_val), False, best_w)


@dataclass(frozen=True)
class RenormBoundsReport:
    base_norm: float
    renorm: float
    bound_low: float      # 2M * renorm, must dominate the base norm
    bound_high: float     # 2M^2C * base norm, must dominate the renorm
    slack_low: float
    slack_high: float
    passed: bool


def renorm_bounds_check(space: OrderedSpaceSpec, x, M: float, C: float,
                        tol: float = 1e-9) -> RenormBoundsReport:
    """Check ||x|| <= 2M |||x||| and |||x||| <= 2 M^2 C ||x|| with slack.

    M and C must be valid bounds for the normality and decomposition
    constants on the tested set.
    """
    base = space.norm.value(np.asarray(x, dtype=float))
    tri = renorm_value(space, x).value
    low = 2.0 * M * tri
    high = 2.0 * M * M * C * base
    slack_low = low - base
    slack_high = high - tri
    passed = slack_low >= -tol * (1.0 + low) and slack_high >= -tol * (1.0 + high)
    return RenormBoundsReport(base, tri, low, high, slack_low, slack_high, passed)


# ---------------------------------------------------------------------------
# Approximation schemes
# ---------------------------------------------------------------------------

class PeriodicCorrelation(LinearOperator):
    """Matrix-free positive operator (R v)_i = sum_j w_j v_{i + j - len(w)//2}.

    Indices wrap around, so this is the periodic convolution with the
    reflected kernel; the adjoint convolves with ``w`` itself.  The weights
    are checked to be nonnegative, which makes the operator positive.
    """

    def __init__(self, weights, N: int):
        w = np.asarray(weights, dtype=float)
        if np.min(w) < 0:
            raise ValueError("correlation weights must be nonnegative")
        super().__init__(dtype=w.dtype, shape=(N, N))
        self.w = w

    @property
    def nbytes(self) -> int:
        return self.w.nbytes

    def _matmat(self, X):
        return scipy.ndimage.correlate1d(X, self.w, axis=0, mode="wrap", output=float)

    def _rmatmat(self, X):
        return scipy.ndimage.convolve1d(X, self.w, axis=0, mode="wrap", output=float)

    _matvec = _matmat
    _rmatvec = _rmatmat


def identity_operator(N: int) -> LinearOperator:
    """J = id on R^N; applying it or its adjoint returns the argument."""
    same = lambda X: X
    return LinearOperator((N, N), matvec=same, rmatvec=same, matmat=same,
                          rmatmat=same, dtype=float)


def _entrywise_nonneg(op, tol: float = 1e-12) -> bool:
    return bool(np.min(op @ np.eye(op.shape[1])) >= -tol)


class SchemeValidationError(ValueError):
    """Approximation scheme violates positivity or fails to converge."""


@dataclass(frozen=True)
class ApproximationScheme:
    """Embedding J with positive approximants R_n realizing J R_n -> id.

    ``J`` and ``R(n)`` are an ndarray or a LinearOperator; both give ``@``
    and ``.T``.  Indices run geometrically from n_min.
    """

    J: np.ndarray | LinearOperator
    R: Callable[[int], np.ndarray | LinearOperator]
    n_min: int
    n_max: int
    name: str = ""

    def __post_init__(self):
        if self.n_min < 1 or self.n_max < self.n_min:
            raise ValueError("need 1 <= n_min <= n_max")

    def indices(self):
        n = self.n_min
        while n <= self.n_max:
            yield n
            n *= 2

    def validate(self, validation_z, tol: float, norm: NormSpec | None = None):
        """Positivity on basis vectors plus decreasing errors below tol."""
        if not _entrywise_nonneg(self.J):
            raise SchemeValidationError(f"scheme {self.name!r}: J is not positive")
        errors = {}
        for n in self.indices():
            Rn = self.R(n)
            if not _entrywise_nonneg(Rn):
                raise SchemeValidationError(
                    f"scheme {self.name!r}: R_{n} is not positive")
            for i, z in enumerate(validation_z):
                z = np.asarray(z, dtype=float)
                err = self.J @ (Rn @ z) - z
                val = norm.value(err) if norm is not None else float(np.max(np.abs(err)))
                errors.setdefault(i, []).append(val)
        for i, errs in errors.items():
            if errs[-1] > tol:
                raise SchemeValidationError(
                    f"scheme {self.name!r}: validation error {errs[-1]:.3e} "
                    f"above {tol:.1e} on vector {i}")
            if any(b > a * (1.0 + 1e-9) + 1e-15 for a, b in zip(errs, errs[1:])):
                raise SchemeValidationError(
                    f"scheme {self.name!r}: validation errors not decreasing: {errs}")
        return errors


def mollifier_scheme(domain: GridDomain, n_min: int = 2) -> ApproximationScheme:
    """Torus scheme R_n = convolution with the bump at scale 1/n, J = id."""
    if not domain.periodic:
        raise ValueError("the plain mollifier scheme lives on the torus")
    N = domain.node_count
    n_max = int(math.floor((domain.hi[0] - domain.lo[0]) / (2.0 * domain.h)))
    cache: dict[int, PeriodicCorrelation] = {}

    def R(n: int) -> PeriodicCorrelation:
        if n not in cache:
            cache[n] = PeriodicCorrelation(Mollifier(1.0 / n).weights(domain.h), N)
        return cache[n]

    return ApproximationScheme(identity_operator(N), R, n_min, n_max, name="mollifier")


# ---------------------------------------------------------------------------
# Constructive suprema
# ---------------------------------------------------------------------------

_CAUCHY_WINDOW = 3  # consecutive below-tol increments that declare convergence


def _iterate_sup(apply_j, apply_r, indices, z, tol, norm_of):
    prev, below = None, 0
    increments = []
    for n in indices:
        s = apply_j(np.abs(apply_r(n, z)))
        if prev is not None:
            inc = norm_of(s - prev)
            increments.append((n, inc))
            below = below + 1 if inc <= tol else 0
            if below >= _CAUCHY_WINDOW:
                return s, n, increments
        prev = s
    raise ConvergenceError(
        "constructive supremum did not converge within the index range",
        best=prev, diagnostics={"increments": increments},
    )


def constructive_sup(scheme: ApproximationScheme, space_Z: OrderedSpaceSpec,
                     z, tol: float) -> np.ndarray:
    """Limit of s_n = J |R_n z|, the supremum of -z and z in the span.

    Convergence is Cauchy detection with a three-increment window; the
    result is verified to dominate both -z and z componentwise within tol.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (space_Z.dim,):
        raise ValueError("vector dimension mismatch")
    # Cauchy detection runs in the uniform norm so that the stopping
    # increments dominate the componentwise post-verification margin.
    s, n_final, increments = _iterate_sup(
        lambda v: scheme.J @ v,
        lambda n, v: scheme.R(n) @ v,
        scheme.indices(), z, tol,
        lambda v: float(np.max(np.abs(v))),
    )
    gap = float(np.max(np.abs(z) - s))
    if gap > tol + 1e-12:
        raise ConvergenceError(
            f"upper-bound check failed: max(|z| - s) = {gap:.3e} above tol",
            best=s, diagnostics={"increments": increments},
        )
    return s


def constructive_sup_dual(scheme: ApproximationScheme, x_dual, tol: float) -> np.ndarray:
    """Dual-side limit s' = J' |R_n' x'| through the adjoints of the scheme.

    Cauchy detection runs in the sup norm on the dual coordinates; the
    result dominates -x' and x' in the dual (componentwise) order.
    """
    x_dual = np.asarray(x_dual, dtype=float)
    Jt = scheme.J.T
    s, _, increments = _iterate_sup(
        lambda v: Jt @ v, lambda n, v: scheme.R(n).T @ v, scheme.indices(), x_dual, tol,
        lambda v: float(np.max(np.abs(v))),
    )
    gap = float(np.max(np.abs(x_dual) - s))
    if gap > tol + 1e-12:
        raise ConvergenceError(
            f"dual upper-bound check failed: gap {gap:.3e} above tol",
            best=s, diagnostics={"increments": increments},
        )
    return s


# ---------------------------------------------------------------------------
# Norm coincidence on the cone
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoincidenceReport:
    gaps: list[float]
    max_gap: float
    passed: bool


def cone_norm_coincidence_check(space: OrderedSpaceSpec, increasing_chain,
                                limit, tol: float = 1e-7) -> CoincidenceReport:
    """On positive differences the span norm equals the base norm.

    The chain must increase componentwise toward the limit; each difference
    limit - x_j is checked to be positive and to have equal norms.
    """
    limit = np.asarray(limit, dtype=float)
    chain = [np.asarray(x, dtype=float) for x in increasing_chain]
    for a, b in zip(chain, chain[1:]):
        if np.any(b - a < -1e-12):
            raise ValueError("chain is not increasing componentwise")
    gaps = []
    for xj in chain:
        diff = limit - xj
        if np.any(diff < -1e-12):
            raise ValueError("chain exceeds its limit")
        gaps.append(abs(span_norm(space, diff).value - space.norm.value(diff)))
    max_gap = max(gaps) if gaps else 0.0
    return CoincidenceReport(gaps, max_gap, max_gap <= tol)
