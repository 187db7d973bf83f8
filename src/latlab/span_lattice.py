"""Span norms, the lattice renorming, and constructive supremum sequences.

The span norm minimizes ||y|| + ||z|| over nonnegative decompositions
x = y - z; the renorm maximizes the norm over the order interval [0, |x|];
the constructive suprema iterate s_n = |R_n z| through an approximation
scheme until the sequence is Cauchy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.ndimage
import scipy.optimize
from scipy.sparse.linalg import LinearOperator

from .ordered_space import OrderedSpaceSpec
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


_SPAN_KKT_TOL = 1e-6  # certified when max|min(s, grad)| <= _SPAN_KKT_TOL * (1 + value)
_SPAN_SOLVES = 8      # L-BFGS-B solves, each warm-started where the last one stopped


def span_norm(space: OrderedSpaceSpec, x) -> SpanNormResult:
    """inf ||y|| + ||z|| over y, z >= 0 with x = y - z (standard cone).

    Every feasible pair is y = x+ + s, z = x- + s with s >= 0.  On the cone
    the value equals the base norm exactly and is returned directly.  For a
    norm certified monotone on the cone (``NormSpec.monotone``) the optimum
    is s = 0, so the value is exactly ||x+|| + ||x-||, with no solve.
    Otherwise the objective is convex in s, so a bounded L-BFGS-B solve
    from s = 0 reaches the minimum.  That result is certified by the
    projected-gradient (KKT) residual max|min(s, grad)| <= 1e-6 * (1 + value);
    otherwise a ConvergenceError carries the best decomposition and the
    residual.
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
    if norm.monotone:
        return SpanNormResult(norm.value(xp) + norm.value(xm), xp, xm)

    def objective(s):
        val = norm.value(xp + s) + norm.value(xm + s)
        return val, norm.grad(xp + s) + norm.grad(xm + s)

    s = np.zeros_like(x)
    for _ in range(_SPAN_SOLVES):
        # ftol = gtol = 0: run until a step fails to lower the objective, so
        # the residual, not a solver tolerance, decides.  On stiff W^{2,p}
        # norms a solve can stall far from the minimum with its curvature
        # memory gone stale; the next solve restarts from s without it.
        s = scipy.optimize.minimize(
            objective, s, jac=True, method="L-BFGS-B",
            bounds=[(0.0, None)] * x.size, options={"ftol": 0.0, "gtol": 0.0},
        ).x
        val, g = objective(s)
        resid = float(np.max(np.abs(np.minimum(s, g))))
        if resid <= _SPAN_KKT_TOL * (1.0 + val):
            return SpanNormResult(val, xp + s, xm + s)
    raise ConvergenceError(
        f"span-norm KKT residual {resid:.2e} above {_SPAN_KKT_TOL:g}*(1 + value) "
        f"after {_SPAN_SOLVES} solves",
        best=SpanNormResult(val, xp + s, xm + s), diagnostics={"kkt_residual": resid},
    )


# ---------------------------------------------------------------------------
# Renorming via order-interval maximization
# ---------------------------------------------------------------------------

RENORM_EXACT_MAX_DIM = 16  # vertex enumeration cutoff (2^16 vertices)


@dataclass(frozen=True)
class RenormResult:
    """Maximum of the norm over [0, |x|]; ``exact`` marks an exact maximum.

    Exact values come from the closed form ||(|x|)|| of a norm certified
    monotone on the cone, or from vertex enumeration.  The refusal above
    the enumeration cutoff carries an inexact one, the certified lower
    bound ||(|x|)||.
    """

    value: float
    exact: bool
    maximizer: np.ndarray


def renorm_value(space: OrderedSpaceSpec, x) -> RenormResult:
    """sup { ||w|| : 0 <= w <= |x| } (standard cone).

    For a norm certified monotone on the cone (``NormSpec.monotone``) the
    maximum is ||(|x|)||, attained at the top vertex |x|, at every
    dimension.  Otherwise it is exact for dim <= 16 by enumerating the box
    vertices (the norm is convex, so the maximum sits at a vertex).  Above
    that a ConvergenceError refuses: its ``best`` is the inexact
    RenormResult at |x| and ``diagnostics["bracket"]`` holds the certified
    bounds (||(|x|)||, sum_j |x_j| ||e_j||) of the maximum.
    """
    if not space.cone.is_standard():
        raise ValueError("renorm maximization requires the standard cone")
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    if not np.any(ax):
        return RenormResult(0.0, True, np.zeros_like(x))
    d = space.dim
    norm = space.norm
    if norm.monotone:
        return RenormResult(norm.value(ax), True, ax)
    if d <= RENORM_EXACT_MAX_DIM:
        masks = ((np.arange(2 ** d)[:, None] >> np.arange(d)) & 1).astype(float)
        vals = norm.value_many(masks * ax)
        i = int(np.argmax(vals))
        return RenormResult(float(vals[i]), True, masks[i] * ax)
    low, high = norm.value(ax), float(norm.value_many(np.eye(d)) @ ax)
    raise ConvergenceError(
        f"renorm of a norm not certified monotone is exact only up to dim "
        f"{RENORM_EXACT_MAX_DIM}, got {d}; bracket [{low:.6g}, {high:.6g}]",
        best=RenormResult(low, False, ax), diagnostics={"bracket": (low, high)},
    )


@dataclass(frozen=True)
class RenormBoundsReport:
    base_norm: float
    renorm: float
    bound_low: float      # 2M * renorm, must dominate the base norm
    bound_high: float     # 2M^2C * base norm, must dominate the renorm
    slack_low: float
    slack_high: float
    passed: bool


_RENORM_BOUNDS_TOL = 1e-9  # relative slack allowed to each bound


def renorm_bounds_check(base: float, renorm: float, M: float, C: float) -> RenormBoundsReport:
    """Check ||x|| <= 2M |||x||| and |||x||| <= 2 M^2 C ||x|| with slack.

    ``base`` is ||x|| and ``renorm`` is |||x|||, the value of
    ``renorm_value``.  M and C must be valid bounds for the normality and
    decomposition constants on the tested set.
    """
    low = 2.0 * M * renorm
    high = 2.0 * M * M * C * base
    slack_low = low - base
    slack_high = high - renorm
    passed = (slack_low >= -_RENORM_BOUNDS_TOL * (1.0 + low)
              and slack_high >= -_RENORM_BOUNDS_TOL * (1.0 + high))
    return RenormBoundsReport(base, renorm, low, high, slack_low, slack_high, passed)


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


@dataclass(frozen=True)
class ApproximationScheme:
    """Positive approximants R_n realizing J R_n -> id.

    The grid represents both spaces by the same nodes, so the embedding J is
    the identity and s_n = |R_n z|.  ``R(n)`` is a LinearOperator, applied
    with ``@`` and transposed with ``.T``.  It builds a fresh operator on
    every call and nothing is cached: a constructive-sup sweep asks for each
    index once, for a whole batch of vectors, and drops R_n before it builds
    the next one.  Indices run geometrically from n_min.  Positivity is
    enforced where the operators are built: ``PeriodicCorrelation`` rejects
    negative weights, and the resolvent scheme's ``ResolventOperator``
    rejects an LU of n - A with a pivot <= 0, the check on the factors it
    applies that makes each computed product of R_n or its transpose map
    nonnegative vectors to nonnegative vectors.
    """

    R: Callable[[int], LinearOperator]
    n_min: int
    n_max: int

    def __post_init__(self):
        if self.n_min < 1 or self.n_max < self.n_min:
            raise ValueError("need 1 <= n_min <= n_max")

    def indices(self):
        n = self.n_min
        while n <= self.n_max:
            yield n
            n *= 2

def mollifier_scheme(domain: GridDomain) -> ApproximationScheme:
    """Torus scheme R_n = convolution with the bump at scale 1/n, n >= 2."""
    if not domain.periodic:
        raise ValueError("the plain mollifier scheme lives on the torus")
    N = domain.node_count
    n_max = int(math.floor((domain.hi[0] - domain.lo[0]) / (2.0 * domain.h)))

    def R(n: int) -> PeriodicCorrelation:
        return PeriodicCorrelation(Mollifier(1.0 / n).weights(domain.h), N)

    return ApproximationScheme(R, 2, n_max)


# ---------------------------------------------------------------------------
# Constructive suprema
# ---------------------------------------------------------------------------

_CAUCHY_WINDOW = 3  # consecutive below-tol increments that declare convergence


def _iterate_sup(apply_r, indices, Z, tol):
    """One sweep of s_n = |R_n z| over the indices for every column z of Z.

    ``apply_r(n, X)`` builds R_n (or its adjoint) and applies it to the block
    X of the columns still iterating, so each R_n is built once per sweep and
    is garbage once the next index is reached.  Each column keeps its own
    Cauchy window of uniform-norm increments and stops on its own.  Returns
    the last iterate of every column (None if no index was reached), the
    index at which each column converged (None where the range ran out) and
    the increments of each column.
    """
    m = Z.shape[1]
    S = None
    n_final = [None] * m
    increments = [[] for _ in range(m)]
    active = np.arange(m)
    below = np.zeros(m, dtype=int)
    for n in indices:
        if not active.size:
            break
        s = np.abs(apply_r(n, Z[:, active]))
        if S is None:
            S = s
            continue
        inc = np.max(np.abs(s - S[:, active]), axis=0)
        S[:, active] = s
        below = np.where(inc <= tol, below + 1, 0)
        for col, value, count in zip(active, inc, below):
            increments[col].append((n, float(value)))
            if count >= _CAUCHY_WINDOW:
                n_final[col] = n
        running = below < _CAUCHY_WINDOW
        active, below = active[running], below[running]
    return S, n_final, increments


def _checked_sup(apply_r, indices, z, tol, bound_message):
    """Sweep the columns of z, shape (N,) or (N, m), and check s >= |z|.

    A column fails if the index range runs out before its Cauchy window
    holds, or if its limit misses |z| by more than tol.  One vector is the
    batch of its one column.  One ConvergenceError names every failed
    column; ``best`` holds the last iterates, 1-D for 1-D input, and
    ``diagnostics["columns"][j]`` the ``error`` and ``increments`` of each
    failed column j.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim not in (1, 2):
        raise ValueError("expected one vector or a batch of column vectors")
    Z = z[:, None] if z.ndim == 1 else z
    S, n_final, increments = _iterate_sup(apply_r, indices, Z, tol)
    failed = {}
    for j, n in enumerate(n_final):
        if n is None:
            failed[j] = "constructive supremum did not converge within the index range"
            continue
        gap = float(np.max(np.abs(Z[:, j]) - S[:, j]))
        if gap > tol + 1e-12:
            failed[j] = bound_message(gap)
    if S is not None and z.ndim == 1:
        S = S[:, 0]
    if failed:
        raise ConvergenceError(
            "; ".join(f"column {j}: {msg}" for j, msg in failed.items()), best=S,
            diagnostics={"columns": {j: {"error": msg, "increments": increments[j]}
                                     for j, msg in failed.items()}},
        )
    return S


def constructive_sup(scheme: ApproximationScheme, z, tol: float) -> np.ndarray:
    """Limit of s_n = |R_n z|, the supremum of -z and z in the span.

    ``z`` is one vector (N,) or a batch (N, m) of columns; one sweep over the
    indices builds each R_n once for the whole batch, and applying R_n
    rejects a z of the wrong length.  Convergence is Cauchy detection with a
    three-increment window per column; each limit is verified to dominate
    both -z and z componentwise within tol.
    """
    # Cauchy detection runs in the uniform norm so that the stopping
    # increments dominate the componentwise post-verification margin.
    return _checked_sup(
        lambda n, v: scheme.R(n) @ v, scheme.indices(), z, tol,
        lambda gap: f"upper-bound check failed: max(|z| - s) = {gap:.3e} above tol",
    )


def constructive_sup_dual(scheme: ApproximationScheme, x_dual, tol: float) -> np.ndarray:
    """Dual-side limit s' = |R_n' x'| through the adjoints of the scheme.

    ``x_dual`` is one covector (N,) or a batch (N, m), swept as in
    ``constructive_sup``.  Cauchy detection runs in the sup norm on the dual
    coordinates; the result dominates -x' and x' in the dual (componentwise)
    order.
    """
    return _checked_sup(
        lambda n, v: scheme.R(n).T @ v, scheme.indices(), x_dual, tol,
        lambda gap: f"dual upper-bound check failed: gap {gap:.3e} above tol",
    )
