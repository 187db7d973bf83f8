"""Extrapolation spaces of positive matrix semigroup generators.

Resolvent-weighted norms, the resolvent approximants R_n = n (n - A)^{-1},
the exactly solvable multiplication example, and a discrete Neumann
Laplacian.  Every generator is tridiagonal and Metzler and is stored as its
three diagonals; no N x N array is built except on request (``resolvent``,
``GeneratorMatrix.A``).  Every resolvent, dense or applied, goes through one
path: the LU of mu - A without pivoting, O(N) to build, applied by LAPACK
``dgttrs`` (``ResolventOperator``).  LAPACK ``dgttrf`` builds that LU when it
swaps no row; otherwise a Python recurrence runs the same elimination.  At
desk scale the extrapolation cone is the standard cone, since (lam - A)^{-1}
is invertible; ``FINITE_DIMENSION_CAVEAT`` says so in the reports.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.sparse.linalg import LinearOperator

from .ordered_space import OrderedSpaceSpec, as_stack
from .span_lattice import ApproximationScheme, constructive_sup

FINITE_DIMENSION_CAVEAT = (
    "finite-dimensional model: the extrapolation norm is equivalent to the "
    "base norm, so the extrapolation cone equals the standard cone; the "
    "infinite-dimensional phenomenon of a non-generating cone is not modeled"
)
_MULTIPLICATION_SAMPLES = 100  # random vectors per check of the multiplication example


class ResolventOperator(LinearOperator):
    """scale * (mu - A)^{-1} for a tridiagonal Metzler generator A.

    Built from the LU factors of mu - A computed without pivoting, O(N) time
    and bytes.  LAPACK ``dgttrf`` computes them when its partial pivoting
    swaps no row, since it then runs exactly the no-pivot elimination;
    otherwise ``_no_pivot_lu`` runs that elimination as a Python recurrence
    (mu - A can have positive no-pivot pivots and still make ``dgttrf`` swap
    rows, where a subdiagonal entry outweighs the current pivot).  A product
    is a forward and a back substitution through LAPACK ``dgttrs``, O(N) per
    column; ``.T`` runs the transposed substitutions on the same factors.
    Every pivot must be positive, else a ValueError names mu, the row and the
    pivot: mu - A has nonpositive off-diagonal entries, so with positive
    pivots every substitution step adds nonnegative terms and each computed
    product maps nonnegative vectors to nonnegative vectors exactly.
    """

    def __init__(self, gen: GeneratorMatrix, mu: float, scale: float = 1.0):
        N = gen.dim
        super().__init__(dtype=np.dtype(float), shape=(N, N))
        sub, diag, sup = gen.diagonals
        # scipy's dgttrs wrapper rejects orders 1 and 2: pad with identity rows
        n = max(N, 3)
        dl, du = (np.concatenate((-v, np.zeros(n - N))) for v in (sub, sup))
        d = np.concatenate((mu - diag, np.ones(n - N)))
        # dgttrf swaps rows i and i + 1 only where |dl_i| > |d_i|; with no swap
        # it has run exactly the recurrence of _no_pivot_lu.  A swap at row i
        # puts -sub_i < 0 on the diagonal, so for a Metzler A the pivot test
        # already rejects it; the ipiv test does not lean on that.
        factors = dgttrf(dl, d, du)[:5]
        identity = np.arange(1, n + 1, dtype=np.intc)
        if (factors[4] == identity).all() and factors[1][:N].min() > 0.0:
            self.factors = factors
        else:
            dl[: N - 1], d[:N] = _no_pivot_lu(gen, mu)
            self.factors = (dl, d, du, np.zeros(n - 2), identity)
        self.scale, self.trans = scale, "N"

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.factors)

    def _matmat(self, X):
        N = self.shape[0]
        B = np.zeros((len(self.factors[1]), X.shape[1]), order="F")
        np.multiply(X, self.scale, out=B[:N])
        return dgttrs(*self.factors, B, trans=self.trans, overwrite_b=1)[0][:N]

    def _transpose(self):
        op = copy.copy(self)
        op.trans = "T" if self.trans == "N" else "N"
        return op

    _adjoint = _transpose


def _no_pivot_lu(gen: GeneratorMatrix, mu: float) -> tuple[list[float], list[float]]:
    """Multipliers and pivots of mu - A eliminated without row swaps.

    Raises a ValueError naming mu, the row and the pivot at the first pivot
    that is not positive.
    """
    sub, diag, sup = gen.diagonals
    shifted = (mu - diag).tolist()
    p, u, l = shifted[0], [shifted[0]], []
    for c, e, d_i in zip((-sub).tolist(), (-sup).tolist(), shifted[1:]):
        if not p > 0.0:
            break
        l.append(c / p)
        p = d_i - l[-1] * e
        u.append(p)
    if not p > 0.0:
        raise ValueError(
            f"{mu:g} does not exceed the spectral bound of A: the LU of "
            f"{mu:g} - A has pivot {p:g} <= 0 in row {len(u) - 1}")
    return l, u


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Tridiagonal Metzler matrix, stored as its three diagonals, and lam0.

    ``sub``, ``diag`` and ``sup`` hold the diagonals below, on and above the
    main one; the off-diagonal entries must be nonnegative (Metzler).
    ``lam0`` must exceed the spectral bound s(A), and the certificate is that
    the LU of lam0 - A without pivoting has only positive pivots, which
    ``ResolventOperator`` checks (the LU comes from LAPACK ``dgttrf`` when it
    swaps no row, else from the no-pivot recurrence).  For a Metzler A this
    holds exactly when lam0 > s(A), since lam0 - A is then a nonsingular
    M-matrix (Berman & Plemmons, *Nonnegative Matrices in the Mathematical
    Sciences*, ch. 6), and every resolvent (mu - A)^{-1}, mu >= lam0, is
    entrywise nonnegative.
    ``from_matrix`` builds one from a dense A.
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    lam0: float

    def __post_init__(self):
        diagonals = [np.array(d, dtype=float) for d in self.diagonals]
        N = diagonals[1].size
        if N == 0 or [d.shape for d in diagonals] != [(N - 1,), (N,), (N - 1,)]:
            raise ValueError("generator diagonals must be vectors of lengths N - 1, N, N - 1")
        if np.any(diagonals[0] < 0) or np.any(diagonals[2] < 0):
            raise ValueError("generator has negative off-diagonal entries")
        for name, d in zip(("sub", "diag", "sup"), diagonals):
            d.setflags(write=False)
            object.__setattr__(self, name, d)
        ResolventOperator(self, self.lam0)

    @classmethod
    def from_matrix(cls, A, lam0: float) -> "GeneratorMatrix":
        """The generator of a dense square tridiagonal Metzler ``A``."""
        A = np.atleast_2d(np.asarray(A, dtype=float))
        if A.shape[0] != A.shape[1]:
            raise ValueError("generator must be square")
        diagonals = [np.diag(A, k) for k in (-1, 0, 1)]
        if np.count_nonzero(A) != sum(map(np.count_nonzero, diagonals)):
            raise ValueError("generator must be tridiagonal")
        return cls(*diagonals, lam0=lam0)

    @property
    def diagonals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.sub, self.diag, self.sup

    @property
    def dim(self) -> int:
        return len(self.diag)

    @property
    def A(self) -> np.ndarray:
        """The dense N x N matrix, built on each access."""
        return np.diag(self.sub, -1) + np.diag(self.diag) + np.diag(self.sup, 1)


def resolvent(gen: GeneratorMatrix, mu: float) -> np.ndarray:
    """(mu - A)^{-1} as a dense matrix, nonnegative by ``ResolventOperator``'s pivot check."""
    if mu <= gen.lam0:
        raise ValueError(f"resolvent parameter mu = {mu:g} must exceed lam0 = {gen.lam0:g}")
    return ResolventOperator(gen, mu) @ np.eye(gen.dim, order="F")


@dataclass(frozen=True, eq=False)
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

    @functools.cached_property
    def resolvent_operator(self) -> ResolventOperator:
        return ResolventOperator(self.generator, self.lam)


def extrapolation_norm(space: ExtrapolationSpace, x) -> float | np.ndarray:
    """||(lam - A)^{-1} x|| in the base norm.

    ``x`` is one vector (a float is returned) or an (m, dim) stack of rows
    (one norm per row is returned), resolved in one operator product.
    """
    X = as_stack(x, space.base.dim)
    values = space.base.norm.value_many((space.resolvent_operator @ X.T).T)
    return float(values[0]) if np.ndim(x) == 1 else values


# ---------------------------------------------------------------------------
# Resolvent approximation scheme and the supremum construction
# ---------------------------------------------------------------------------

def resolvent_scheme(gen: GeneratorMatrix) -> ApproximationScheme:
    """Scheme R_n = n (n - A)^{-1} for integers n >= 2 above lam0.

    Each R(n) is a ``ResolventOperator``: n - A factored in O(N) without
    pivoting, its pivots checked positive, then applied (and transposed) in
    O(N) per column.  Nothing is cached: a constructive-sup sweep factors
    each index once for a whole batch.
    """
    n_min = max(2, int(math.floor(gen.lam0)) + 1)

    def R(n: int) -> ResolventOperator:
        return ResolventOperator(gen, n, scale=n)

    return ApproximationScheme(R, n_min, 2 ** 40)


def theorem41_sup(space: ExtrapolationSpace, z, tol: float) -> np.ndarray:
    """Supremum of -z and z through the resolvent approximants: ``constructive_sup``
    of the vector z (N,) or of the rows of the stack z (m, N)."""
    return constructive_sup(resolvent_scheme(space.generator), z, tol)


# ---------------------------------------------------------------------------
# Concrete generators
# ---------------------------------------------------------------------------

def multiplication_generator(m) -> GeneratorMatrix:
    """A = diag(-m) for a nonnegative multiplier vector m."""
    m = np.asarray(m, dtype=float)
    if np.any(m < 0):
        raise ValueError("multiplier must be nonnegative")
    off = np.zeros(len(m) - 1)
    return GeneratorMatrix(off, -m, off, lam0=float(-np.min(m)) + 0.5)


def neumann_laplacian_1d(n: int, h: float) -> GeneratorMatrix:
    """Second-difference matrix with reflecting boundary rows; A @ 1 = 0."""
    if n < 3:
        raise ValueError("Neumann Laplacian needs at least 3 nodes")
    if h <= 0:
        raise ValueError("spacing must be positive")
    diag = np.full(n, -2.0)
    diag[0] = diag[-1] = -1.0
    off = np.full(n - 1, 1.0 / (h * h))
    return GeneratorMatrix(off, diag / (h * h), off, lam0=0.5)


def multiplication_example_check(m, p: float = 2.0, seed: int = 0) -> float:
    """Largest gap, over seeded random vectors, between the extrapolation norm
    of A = diag(-m) at lam = 1 on unweighted l^p and its closed form, the
    p-norm with weights 1 / (1 + m)^p."""
    m = np.asarray(m, dtype=float)
    space = ExtrapolationSpace(OrderedSpaceSpec.standard_lp(np.ones_like(m), p),
                               multiplication_generator(m), lam=1.0)
    X = np.random.default_rng(seed).standard_normal((_MULTIPLICATION_SAMPLES, len(m)))
    lhs = extrapolation_norm(space, X)
    rhs = np.sum(np.abs(X) ** p / (1.0 + m) ** p, axis=1) ** (1.0 / p)
    return float(np.max(np.abs(lhs - rhs), initial=0.0))
