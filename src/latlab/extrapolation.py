"""Extrapolation spaces of positive matrix semigroup generators.

Resolvent-weighted norms, the resolvent approximants R_n = n (n - A)^{-1},
the exactly solvable multiplication example, and a discrete Neumann
Laplacian.  At desk scale the extrapolation cone collapses onto the standard
cone (the norms are equivalent, so the closure adds nothing); the membership
predicate computes that honestly and the collapse is reported rather than
hidden.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from .ordered_space import NormSpec, OrderedSpaceSpec, PolyhedralCone
from .span_lattice import ApproximationScheme, constructive_sup, identity_operator

FINITE_DIMENSION_CAVEAT = (
    "finite-dimensional model: the extrapolation norm is equivalent to the "
    "base norm, so the extrapolation cone equals the standard cone; the "
    "infinite-dimensional phenomenon of a non-generating cone is not modeled"
)


@dataclass(frozen=True)
class GeneratorMatrix:
    """Square matrix with a resolvent-positivity certificate.

    ``lam0`` strictly dominates the real parts of the spectrum.  The
    certificate combines the structural check (nonnegative off-diagonal
    entries) with entrywise positivity of the resolvent at lam0 and
    2*lam0 + 1.
    """

    A: np.ndarray
    lam0: float

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        if A.shape[0] != A.shape[1]:
            raise ValueError("generator must be square")
        A.setflags(write=False)
        object.__setattr__(self, "A", A)
        max_re = float(np.max(np.linalg.eigvals(A).real))
        if self.lam0 <= max_re - 1e-12:
            raise ValueError(
                f"lam0 = {self.lam0:g} does not dominate the spectral bound {max_re:g}"
            )
        off = A - np.diag(np.diag(A))
        if np.min(off) < -1e-12:
            raise ValueError("generator has negative off-diagonal entries")
        for mu in (self.lam0, 2.0 * self.lam0 + 1.0):
            res = np.linalg.solve(mu * np.eye(self.dim) - A, np.eye(self.dim))
            if np.min(res) < -1e-12:
                raise ValueError(
                    f"resolvent positivity certificate failed at mu = {mu:g}"
                )

    @classmethod
    def build(cls, A, lam0: float | None = None) -> "GeneratorMatrix":
        A = np.atleast_2d(np.asarray(A, dtype=float))
        if lam0 is None:
            lam0 = float(np.max(np.linalg.eigvals(A).real)) + 0.5
        return cls(A, float(lam0))

    @property
    def dim(self) -> int:
        return self.A.shape[0]


def resolvent(gen: GeneratorMatrix, mu: float) -> np.ndarray:
    """(mu - A)^{-1}, entrywise nonnegative for the certified family."""
    if mu <= gen.lam0:
        raise ValueError(f"resolvent parameter mu = {mu:g} must exceed lam0 = {gen.lam0:g}")
    R = np.linalg.solve(mu * np.eye(gen.dim) - gen.A, np.eye(gen.dim))
    if np.min(R) < -1e-12:
        raise ValueError(f"resolvent at mu = {mu:g} has negative entries")
    return R


@dataclass(frozen=True)
class ExtrapolationSpace:
    """Base space with the resolvent-weighted norm ||x||_{-1} = ||(lam-A)^{-1} x||."""

    base: OrderedSpaceSpec
    generator: GeneratorMatrix
    lam: float

    def __post_init__(self):
        if self.base.dim != self.generator.dim:
            raise ValueError("base space and generator dimensions differ")
        if self.lam <= self.generator.lam0:
            raise ValueError("lam must exceed the spectral bound surrogate lam0")
        if not self.base.cone.is_standard():
            raise ValueError("extrapolation spaces use the standard cone")

    @classmethod
    def build(cls, base: OrderedSpaceSpec, gen: GeneratorMatrix,
              lam: float | None = None) -> "ExtrapolationSpace":
        return cls(base, gen, gen.lam0 + 1.0 if lam is None else float(lam))

    @functools.cached_property
    def resolvent_matrix(self) -> np.ndarray:
        return resolvent(self.generator, self.lam)

    def in_extrapolation_cone(self, x, tol: float = 1e-9) -> bool:
        """Membership in the closure of the positive cone under the -1 norm.

        Computed as vanishing distance from x to the standard cone in the
        resolvent-weighted metric (nonnegative least squares); at finite
        dimension this coincides with componentwise nonnegativity.
        """
        x = np.asarray(x, dtype=float)
        R = self.resolvent_matrix
        _, resid = scipy.optimize.nnls(R, R @ x)
        return resid <= tol * (1.0 + float(np.linalg.norm(R @ x)))


def extrapolation_norm(space: ExtrapolationSpace, x) -> float:
    """||(lam - A)^{-1} x|| in the base norm."""
    x = np.asarray(x, dtype=float)
    if x.shape != (space.base.dim,):
        raise ValueError("vector dimension mismatch")
    return space.base.norm.value(space.resolvent_matrix @ x)


@dataclass(frozen=True)
class LambdaEquivalenceReport:
    ratio_min: float
    ratio_max: float
    bound: float | None   # Riesz-Thorin operator-norm bound, lp norms only
    passed: bool


def lambda_equivalence_report(space: ExtrapolationSpace, lam2: float,
                              n_samples: int = 100, seed: int = 0) -> LambdaEquivalenceReport:
    """Measured ratio of the two extrapolation norms at lam and lam2.

    Different lam give equivalent (not equal) norms; the measured ratios
    must stay inside the condition-based bound when one is available.
    """
    other = ExtrapolationSpace(space.base, space.generator, lam2)
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(n_samples):
        x = rng.standard_normal(space.base.dim)
        a = extrapolation_norm(space, x)
        b = extrapolation_norm(other, x)
        if b > 0:
            ratios.append(a / b)
    lo, hi = float(np.min(ratios)), float(np.max(ratios))
    bound = None
    if space.base.norm.kind == "lp":
        T = space.resolvent_matrix @ np.linalg.inv(other.resolvent_matrix)
        bound = max(_lp_operator_bound(T, space.base.norm),
                    _lp_operator_bound(np.linalg.inv(T), space.base.norm))
        passed = hi <= bound * (1 + 1e-9) and lo >= 1.0 / bound * (1 - 1e-9)
    else:
        passed = True
    return LambdaEquivalenceReport(lo, hi, bound, passed)


def _lp_operator_bound(T: np.ndarray, norm: NormSpec) -> float:
    # Riesz-Thorin interpolation between the weighted-1 and sup operator norms
    w = norm.weights
    n1 = float(np.max((w @ np.abs(T)) / w))
    ninf = float(np.max(np.sum(np.abs(T), axis=1)))
    return n1 ** (1.0 / norm.p) * ninf ** (1.0 - 1.0 / norm.p)


# ---------------------------------------------------------------------------
# Resolvent approximation scheme and the supremum construction
# ---------------------------------------------------------------------------

def resolvent_scheme(gen: GeneratorMatrix, n_min: int = 2,
                     n_max: int = 2 ** 40) -> ApproximationScheme:
    """Scheme J = id, R_n = n (n - A)^{-1} for integers n above lam0.

    Each R_n comes from ``resolvent``, which checks it entrywise nonnegative.
    """
    n_min = max(n_min, int(math.floor(gen.lam0)) + 1)
    cache: dict[int, np.ndarray] = {}

    def R(n: int) -> np.ndarray:
        if n not in cache:
            cache[n] = n * resolvent(gen, n)
        return cache[n]

    return ApproximationScheme(identity_operator(gen.dim), R, n_min, n_max,
                               name="resolvent")


def theorem41_sup(space: ExtrapolationSpace, z, tol: float,
                  n_max: int = 2 ** 40) -> np.ndarray:
    """Supremum of -z and z through the resolvent approximants."""
    scheme = resolvent_scheme(space.generator, n_max=n_max)
    return constructive_sup(scheme, space.base, np.asarray(z, dtype=float), tol)


# ---------------------------------------------------------------------------
# Concrete generators
# ---------------------------------------------------------------------------

def multiplication_generator(m) -> GeneratorMatrix:
    """A = diag(-m) for a nonnegative multiplier vector m."""
    m = np.asarray(m, dtype=float)
    if np.any(m < 0):
        raise ValueError("multiplier must be nonnegative")
    return GeneratorMatrix(np.diag(-m), lam0=float(-np.min(m)) + 0.5)


def neumann_laplacian_1d(n: int, h: float) -> GeneratorMatrix:
    """Second-difference matrix with reflecting boundary rows; A @ 1 = 0."""
    if n < 3:
        raise ValueError("Neumann Laplacian needs at least 3 nodes")
    if h <= 0:
        raise ValueError("spacing must be positive")
    A = np.zeros((n, n))
    for i in range(1, n - 1):
        A[i, i - 1 : i + 2] = (1.0, -2.0, 1.0)
    A[0, :2] = (-1.0, 1.0)
    A[-1, -2:] = (1.0, -1.0)
    return GeneratorMatrix(A / (h * h), lam0=0.5)


@dataclass(frozen=True)
class MultiplicationReport:
    identity_gap: float      # generic resolvent norm vs the weighted-p formula
    cone_agreements: int
    cone_trials: int
    semigroup_min_entry: float
    passed: bool


def multiplication_example_check(m, p: float = 2.0, mu_weights=None,
                                 n_samples: int = 100, seed: int = 0) -> MultiplicationReport:
    """Exact identity of the multiplication extrapolation norm at lam = 1.

    The norm equals the weighted p-norm with weights mu / (1 + m)^p; the
    extrapolation cone agrees with componentwise nonnegativity; the
    semigroup exp(-t m) stays entrywise nonnegative.
    """
    m = np.asarray(m, dtype=float)
    mu = np.ones_like(m) if mu_weights is None else np.asarray(mu_weights, dtype=float)
    if np.any(mu <= 0):
        raise ValueError("measure weights must be positive")
    gen = multiplication_generator(m)
    base = OrderedSpaceSpec(len(m), PolyhedralCone.standard(len(m)),
                            NormSpec.lp(mu, p))
    space = ExtrapolationSpace(base, gen, lam=1.0)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        x = rng.standard_normal(len(m))
        lhs = extrapolation_norm(space, x)
        rhs = float(np.sum(mu * np.abs(x) ** p / (1.0 + m) ** p) ** (1.0 / p))
        worst = max(worst, abs(lhs - rhs))

    agree = 0
    trials = n_samples
    for _ in range(trials):
        x = rng.standard_normal(len(m))
        if rng.uniform() < 0.5:
            x = np.abs(x)
        agree += space.in_extrapolation_cone(x) == bool(np.all(x >= 0))

    semi_min = min(
        float(np.min(scipy.linalg.expm(t * gen.A))) for t in (0.1, 1.0, 10.0)
    )
    passed = worst <= 1e-12 and agree == trials and semi_min >= -1e-12
    return MultiplicationReport(worst, agree, trials, semi_min, passed)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def generator_to_json(gen: GeneratorMatrix, kind: str, lam: float,
                      n: int | None = None, h: float | None = None) -> str:
    """JSON wire format {"n", "h", "kind", "m", "lambda"}."""
    if kind == "multiplication":
        m = list(-np.diag(gen.A))
        payload = {"n": gen.dim, "h": h, "kind": kind, "m": m, "lambda": lam}
    elif kind == "neumann_laplacian":
        payload = {"n": gen.dim, "h": h, "kind": kind, "m": None, "lambda": lam}
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    return json.dumps(payload)


def generator_from_json(text: str) -> tuple[GeneratorMatrix, float]:
    payload = json.loads(text)
    kind = payload["kind"]
    lam = float(payload["lambda"])
    if kind == "multiplication":
        gen = multiplication_generator(np.asarray(payload["m"], dtype=float))
    elif kind == "neumann_laplacian":
        gen = neumann_laplacian_1d(int(payload["n"]), float(payload["h"]))
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    return gen, lam
