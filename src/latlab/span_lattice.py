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
from scipy.sparse.linalg import LinearOperator

from .ordered_space import OrderedSpaceSpec, as_stack
from .sobolev_grid import ConvergenceError, GridDomain, MollifierOperator, row_dots


# ---------------------------------------------------------------------------
# Span norm
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SpanNormResult:
    """Value of the span norm of one vector, the decomposition x = y - z that
    attains it, and a certified lower bound on the norm (``lower == value``
    when exact).  ``span_norm`` returns one per row of a stack."""

    value: float
    y: np.ndarray
    z: np.ndarray
    lower: float


_SPAN_GAP_TOL = 1e-8      # certified when value - lower <= _SPAN_GAP_TOL * value
_SPAN_NEWTON_STEPS = 100  # projected-Newton iterations before the solve gives up
_ARMIJO = 1e-4            # fraction of the predicted decrease a step must achieve
_BACKTRACKS = 40          # step halvings before a line search gives up
_ROUNDING = 8.0 * np.finfo(float).eps  # relative rounding a step's objective may show
_SPAN_EPS = 1e-9          # widest band above 0 in which a coordinate counts as active


def span_norm(space: OrderedSpaceSpec, x):
    """inf ||y|| + ||z|| over y, z >= 0 with x = y - z (standard cone).

    ``x`` is one vector (dim,), which gives one SpanNormResult, or a stack
    (m, dim), which gives a list of one per row; each row's result equals
    that of the row alone bit for bit.  A non-finite entry is rejected
    before any evaluation.

    Every feasible pair is y = x+ + s, z = x- + s with s >= 0.  On the cone
    or its negative, and for a norm certified monotone on the cone
    (``NormSpec.monotone``), the optimum is s = 0, so the value is exactly
    ||x+|| + ||x-||, with no solve.

    Otherwise projected Newton (Bertsekas, SIAM J. Control Optim. 20, 1982)
    minimizes f(s) = ||a + s|| + ||b + s|| over s >= 0 for a, b = x+, x-
    divided by max|x|, and scales back, which is exact by homogeneity.  Each
    step takes the coordinates with s_i <= eps and g_i >= 0 as active, for
    eps = min(1e-9, max|min(s, g)|), moves them along -g and the others by
    the Newton step on their own block, and backtracks along the projected
    path.  It stops on the duality gap (Rockafellar, Convex Analysis, sec.
    31): with g_a, g_b the two norm gradients and r = max(-(g_a + g_b), 0),
    the pair g_a + r/2, g_b + r/2 divided by 1 + ||r/2||_* is feasible for
    the dual problem max{phi . a + psi . b : ||phi||_*, ||psi||_* <= 1,
    phi + psi >= 0}, so its dual value is a certified lower bound.  A row is
    done once value - lower <= 1e-8 value.

    The rows of a stack iterate together: each step makes one ``grad`` and
    one ``hess`` call on the stacked points a + s and b + s, bounds every
    dual norm in one call and solves every Newton system in one stacked
    ``np.linalg.solve``, with the rows and columns of active coordinates
    replaced by the identity.  Each row keeps its own active set and its own
    Armijo search, and stops on its own gap.  Rows left uncertified raise
    one ConvergenceError after the others are done, a vector as row 0: its
    ``best`` is the result for a vector and the list of results for a
    stack, and ``diagnostics["rows"][j]`` holds the ``error`` and the
    ``bracket`` (lower, value) of each failed row j.
    """
    if not space.cone.is_standard():
        raise ValueError("span norm optimization requires the standard cone")
    X = as_stack(x, space.dim, finite=True)
    XP, XM = np.maximum(X, 0.0), np.maximum(-X, 0.0)
    norm = space.norm
    results = [None] * len(X)
    for j, (xp, xm) in enumerate(zip(XP, XM)):
        if norm.monotone or not (np.any(xp) and np.any(xm)):
            value = norm.value(xp) + norm.value(xm)
            results[j] = SpanNormResult(value, xp, xm, value)
    failed = _span_newton(norm, X, XP, XM, results)
    best = results[0] if np.ndim(x) == 1 else results
    if failed:
        brackets = {j: (results[j].lower, results[j].value) for j in failed}
        raise ConvergenceError.of_rows(
            {j: {"error": f"span-norm duality gap not certified: bracket [{lo:.6g}, {hi:.6g}]",
                 "bracket": (lo, hi)} for j, (lo, hi) in brackets.items()}, best)
    return best


def _span_newton(norm, X, XP, XM, results) -> list[int]:
    """Projected Newton for ``span_norm`` on the rows j of X with no result
    yet; fills in their results and returns the rows left uncertified."""
    rows = np.flatnonzero([res is None for res in results])
    if not rows.size:
        return []
    scale = np.max(np.abs(X[rows]), axis=1)[:, None]
    A, B = XP[rows] / scale, XM[rows] / scale
    S, lower = np.zeros_like(A), np.zeros(len(rows))
    f = _pair_sums(norm.value_many(np.concatenate([A, B])))
    live, failed, eye = np.arange(len(rows)), [], np.eye(A.shape[1])
    for _ in range(_SPAN_NEWTON_STEPS):
        if not live.size:
            break
        a, b, s, fl = A[live], B[live], S[live], f[live]
        Y = np.concatenate([a + s, b + s])
        G = norm.grad(Y)
        ga, gb = G[:len(live)], G[len(live):]
        g = ga + gb
        r = np.maximum(-g, 0.0)
        lower[live] = np.minimum(
            fl, (row_dots(ga, a) + row_dots(gb, b) + row_dots(r, a + b) / 2.0)
            / (1.0 + norm.dual_bound(r / 2.0)))
        going = fl - lower[live] > _SPAN_GAP_TOL * fl
        if not going.all():
            live, a, b, s, fl, g = live[going], a[going], b[going], s[going], fl[going], g[going]
            Y = Y[np.concatenate([going, going])]
            if not live.size:
                break
        # a coordinate kept free just above its bound with g > 0 would cut
        # every step short at the projection and stall the solve
        eps = np.minimum(_SPAN_EPS, np.max(np.abs(np.minimum(s, g)), axis=1))
        free = (s > eps[:, None]) | (g < 0.0)
        H = _pair_sums(norm.hess(Y))
        H = np.where(free[:, :, None] & free[:, None, :], H, eye)
        d = -np.linalg.solve(H, g[..., None])[..., 0]
        # an Armijo search per row along the projected path
        todo, step = np.arange(len(live)), np.ones(len(live))
        for _ in range(_BACKTRACKS):
            t = np.maximum(s[todo] + step[todo, None] * d[todo], 0.0)
            ft = _pair_sums(norm.value_many(np.concatenate([a[todo] + t, b[todo] + t])))
            ok = ft <= fl[todo] + _ARMIJO * row_dots(g[todo], t - s[todo]) + _ROUNDING * fl[todo]
            S[live[todo[ok]]], f[live[todo[ok]]] = t[ok], ft[ok]
            todo = todo[~ok]
            if not todo.size:
                break
            step[todo] /= 2.0
        else:  # a row whose search found no step stops where it is
            failed += live[todo].tolist()
            live = np.delete(live, todo)
    else:
        failed += live.tolist()
    for i, j in enumerate(rows):
        c = scale[i, 0]
        results[j] = SpanNormResult(float(c * f[i]), XP[j] + c * S[i], XM[j] + c * S[i],
                                    float(c * lower[i]))
    return sorted(rows[failed].tolist())


def _pair_sums(V: np.ndarray) -> np.ndarray:
    """u + v for the two halves u, v of the stack V, as norms at a + s and at b + s."""
    return V[:len(V) // 2] + V[len(V) // 2:]


# ---------------------------------------------------------------------------
# Renorming via order-interval maximization
# ---------------------------------------------------------------------------

RENORM_EXACT_MAX_DIM = 16  # vertex enumeration cutoff (2^16 vertices)


@dataclass(frozen=True, eq=False)
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
    bounds (||(|x|)||, sum_j |x_j| ||e_j||) of the maximum.  A non-finite
    entry of x is rejected before any evaluation, and a value that under- or
    overflows to 0 or inf for a nonzero x raises a ValueError that says so.
    """
    if not space.cone.is_standard():
        raise ValueError("renorm maximization requires the standard cone")
    (x,) = as_stack(x, space.dim, (1,), finite=True)
    ax = np.abs(x)
    if not np.any(ax):
        return RenormResult(0.0, True, np.zeros_like(x))
    d = space.dim
    norm = space.norm
    exact = norm.monotone or d <= RENORM_EXACT_MAX_DIM
    with np.errstate(over="ignore"):
        if exact and not norm.monotone:
            W = ((np.arange(2 ** d)[:, None] >> np.arange(d)) & 1) * ax
            vals = norm.value_many(W)
            value, maximizer = float(np.max(vals)), W[np.argmax(vals)]
        else:
            value, maximizer = norm.value(ax), ax
    if value == 0.0 or value == np.inf:
        raise ValueError(f"the renorm {'underflows to 0' if value == 0.0 else 'overflows to inf'}"
                         f" at max|x| = {np.max(ax):.6g}")
    if exact:
        return RenormResult(value, True, maximizer)
    high = float(norm.value_many(np.eye(d)) @ ax)
    raise ConvergenceError(
        f"renorm of a norm not certified monotone is exact only up to dim "
        f"{RENORM_EXACT_MAX_DIM}, got {d}; bracket [{value:.6g}, {high:.6g}]",
        best=RenormResult(value, False, ax), diagnostics={"bracket": (value, high)},
    )


@dataclass(frozen=True)
class RenormBoundsReport:
    base_norm: float
    renorm: float
    slack_low: float      # 2M * renorm - base norm
    slack_high: float     # 2M^2C * base norm - renorm
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
    return RenormBoundsReport(base, renorm, slack_low, slack_high, passed)


# ---------------------------------------------------------------------------
# Approximation schemes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApproximationScheme:
    """Positive approximants R_n realizing J R_n -> id.

    The grid represents both spaces by the same nodes, so the embedding J is
    the identity and s_n = |R_n z|.  ``R(n)`` is a LinearOperator, applied
    with ``@`` and transposed with ``.T``.  It builds a fresh operator on
    every call and nothing is cached: a constructive-sup sweep asks for each
    index once, for a whole batch of vectors, and drops R_n before it builds
    the next one.  Indices run geometrically from n_min.  Positivity comes
    from what the operators are built of: a ``MollifierOperator``'s weights
    are samples of the nonnegative bump over their positive sum, and the
    resolvent scheme's ``ResolventOperator`` rejects an LU of n - A with a
    pivot <= 0, the check on the factors it applies that makes each
    computed product of R_n or its transpose map nonnegative vectors to
    nonnegative vectors.
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
    """Torus scheme R_n = ``MollifierOperator`` at scale period/n, for n from 2
    up to the n at which the scale reaches 2h."""
    if not domain.periodic:
        raise ValueError("the plain mollifier scheme lives on the torus")
    period = domain.hi[0] - domain.lo[0]
    n_max = int(math.floor(period / (2.0 * domain.h)))
    return ApproximationScheme(lambda n: MollifierOperator(domain, period / n), 2, n_max)


# ---------------------------------------------------------------------------
# Constructive suprema
# ---------------------------------------------------------------------------

_CAUCHY_WINDOW = 3  # consecutive below-tol increments that declare convergence


def _iterate_sup(operators, z, tol):
    """One sweep of s_n = |R_n z| for every row z of z, shape (N,) or (m, N).

    ``operators`` yields each index n with R_n (or its adjoint), built only
    when asked for; z is checked by ``as_stack`` against the width of the
    first.  R_n is applied to the rows still iterating as ``(R_n @ X.T).T``,
    on transposed views, so each R_n is built once per sweep and is garbage
    once the next index is reached.  Each row keeps its own Cauchy window of
    uniform-norm increments and stops on its own.  Returns the (m, N) stack
    Z, the last iterate of every row, the index at which each row converged
    (None where the range ran out) and the increments of each row.
    """
    _, R = next(operators)
    Z = as_stack(z, R.shape[1])
    S = np.abs((R @ Z.T).T)
    m = len(Z)
    n_final = [None] * m
    increments = [[] for _ in range(m)]
    active = np.arange(m)
    below = np.zeros(m, dtype=int)
    for n, R in operators:
        s = np.abs((R @ Z[active].T).T)
        inc = np.max(np.abs(s - S[active]), axis=1)
        S[active] = s
        below = np.where(inc <= tol, below + 1, 0)
        for row, value, count in zip(active, inc, below):
            increments[row].append((n, float(value)))
            if count >= _CAUCHY_WINDOW:
                n_final[row] = n
        running = below < _CAUCHY_WINDOW
        active, below = active[running], below[running]
        if not active.size:
            break
    return Z, S, n_final, increments


def _checked_sup(operators, z, tol, bound_message):
    """Sweep the rows of z, shape (N,) or (m, N), and check s >= |z|.

    A row fails if the index range runs out before its Cauchy window holds,
    or if its limit misses |z| by more than tol.  One vector is the stack of
    its one row, row 0.  One ConvergenceError names every failed row;
    ``best`` holds the last iterates, in the shape of z, and
    ``diagnostics["rows"][j]`` the ``error`` and ``increments`` of each
    failed row j.
    """
    Z, S, n_final, increments = _iterate_sup(operators, z, tol)
    failed = {}
    for j, (n, gap) in enumerate(zip(n_final, np.max(np.abs(Z) - S, axis=1))):
        if n is None:
            failed[j] = "constructive supremum did not converge within the index range"
        elif gap > tol + 1e-12:
            failed[j] = bound_message(float(gap))
    if np.ndim(z) == 1:
        S = S[0]
    if failed:
        raise ConvergenceError.of_rows(
            {j: {"error": msg, "increments": increments[j]} for j, msg in failed.items()}, S)
    return S


def constructive_sup(scheme: ApproximationScheme, z, tol: float) -> np.ndarray:
    """Limit of s_n = |R_n z|, the supremum of -z and z in the span.

    ``z`` is one vector (N,) or a stack (m, N) of rows; one sweep over the
    indices builds each R_n once for the whole stack, and a z whose rows are
    not as long as R_n is wide is rejected.  Convergence is Cauchy detection
    with a three-increment window per row; each limit is verified to
    dominate both -z and z componentwise within tol.
    """
    # Cauchy detection runs in the uniform norm so that the stopping
    # increments dominate the componentwise post-verification margin.
    return _checked_sup(
        ((n, scheme.R(n)) for n in scheme.indices()), z, tol,
        lambda gap: f"upper-bound check failed: max(|z| - s) = {gap:.3e} above tol",
    )


def constructive_sup_dual(scheme: ApproximationScheme, x_dual, tol: float) -> np.ndarray:
    """Dual-side limit s' = |R_n' x'| through the adjoints of the scheme.

    ``x_dual`` is one covector (N,) or a stack (m, N) of rows, swept as in
    ``constructive_sup``.  Cauchy detection runs in the sup norm on the dual
    coordinates; the result dominates -x' and x' in the dual (componentwise)
    order.
    """
    return _checked_sup(
        ((n, scheme.R(n).T) for n in scheme.indices()), x_dual, tol,
        lambda gap: f"dual upper-bound check failed: gap {gap:.3e} above tol",
    )
