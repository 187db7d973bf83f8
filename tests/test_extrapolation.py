import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dgttrf
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latlab.extrapolation import (
    ExtrapolationSpace,
    GeneratorMatrix,
    ResolventOperator,
    extrapolation_norm,
    multiplication_example_check,
    multiplication_generator,
    neumann_laplacian_1d,
    resolvent,
    resolvent_scheme,
    theorem41_sup,
)
from latlab.ordered_space import NormSpec, OrderedSpaceSpec, PolyhedralCone
from latlab.sobolev_grid import GridDomain


def grid_space(domain, p=2.0):
    w = np.full(domain.node_count, domain.cell_measure)
    return OrderedSpaceSpec.standard_lp(w, p)


_NONSYMMETRIC = np.array([[-2.0, 1.0, 0.0], [0.5, -1.0, 0.5], [0.0, 2.0, -2.0]])
_NONSYMMETRIC_2 = np.array([[-1.0, 2.0], [0.5, -3.0]])


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

class TestGeneratorMatrix:
    def test_lam0_must_dominate_spectrum(self):
        with pytest.raises(ValueError):
            GeneratorMatrix.from_matrix(np.array([[1.0]]), lam0=0.5)
        # lam0 on the spectral bound: lam0 - A is singular at the certificate
        with pytest.raises(ValueError):
            GeneratorMatrix.from_matrix(np.diag([-1.0, 0.0]), lam0=0.0)

    def test_negative_offdiagonal_rejected(self):
        A = np.array([[-1.0, -0.5], [0.0, -1.0]])
        with pytest.raises(ValueError):
            GeneratorMatrix.from_matrix(A, lam0=1.0)

    def test_diagonal_shapes_checked(self):
        for sub, diag, sup in (([], [], []), ([1.0], [-1.0, -1.0], []),
                               ([1.0], [[-1.0, -1.0]], [1.0])):
            with pytest.raises(ValueError, match="lengths N - 1, N, N - 1"):
                GeneratorMatrix(sub, diag, sup, lam0=1.0)
        gen = GeneratorMatrix([1.0], [-1.0, -1.0], [1.0], lam0=0.5)
        assert np.array_equal(gen.A, [[-1.0, 1.0], [1.0, -1.0]])

    def test_multiplication_generator(self):
        gen = multiplication_generator([0.0, 1.0, 3.0])
        assert np.min(resolvent(gen, gen.lam0 + 1.0)) >= 0
        assert np.array_equal(np.diag(gen.A), [0.0, -1.0, -3.0])
        with pytest.raises(ValueError):
            multiplication_generator([-1.0])

    def test_neumann_rows(self):
        gen = neumann_laplacian_1d(3, 1.0)
        expected = np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
        assert np.array_equal(gen.A, expected)

    def test_neumann_matches_row_loop(self):
        n, h = 33, 1.0 / 32.0
        A = np.zeros((n, n))
        for i in range(1, n - 1):
            A[i, i - 1 : i + 2] = (1.0, -2.0, 1.0)
        A[0, :2] = (-1.0, 1.0)
        A[-1, -2:] = (1.0, -1.0)
        assert np.array_equal(neumann_laplacian_1d(n, h).A, A / (h * h))

    def test_non_tridiagonal_rejected(self):
        A = np.array([[-1.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, -1.0]])
        with pytest.raises(ValueError, match="tridiagonal"):
            GeneratorMatrix.from_matrix(A, lam0=1.0)

    def test_neumann_row_sums_zero(self):
        gen = neumann_laplacian_1d(17, 1.0 / 16.0)
        assert np.max(np.abs(gen.A @ np.ones(17))) == 0.0

    def test_neumann_needs_three_nodes(self):
        with pytest.raises(ValueError):
            neumann_laplacian_1d(2, 1.0)

    def test_semigroup_converges_to_mean(self):
        gen = neumann_laplacian_1d(9, 1.0 / 8.0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(9)
        # eigen-decomposition oracle: projection onto constants is the mean
        evolved = scipy.linalg.expm(1000.0 * gen.A) @ x
        assert np.max(np.abs(evolved - x.mean())) <= 1e-6


# ---------------------------------------------------------------------------
# resolvents
# ---------------------------------------------------------------------------

class TestResolvent:
    def test_diagonal_formula(self):
        m = np.array([0.0, 1.0, 3.0])
        gen = multiplication_generator(m)
        R = resolvent(gen, 1.0)
        assert np.allclose(R, np.diag(1.0 / (1.0 + m)), atol=1e-14)

    def test_neumann_entrywise_positive(self):
        gen = neumann_laplacian_1d(12, 1.0 / 11.0)
        for mu in (1.0, 2.0):
            assert np.min(resolvent(gen, mu)) >= -1e-12

    def test_constants_scaled_by_inverse_mu(self):
        gen = neumann_laplacian_1d(8, 1.0 / 7.0)
        for mu in (1.0, 2.5):
            assert np.allclose(resolvent(gen, mu) @ np.ones(8), 1.0 / mu, atol=1e-12)

    def test_mu_below_lam0_rejected(self):
        gen = neumann_laplacian_1d(5, 0.25)
        with pytest.raises(ValueError):
            resolvent(gen, 0.25)

    def test_resolvent_identity(self):
        gen = neumann_laplacian_1d(16, 1.0 / 15.0)
        R1, R2 = resolvent(gen, 1.0), resolvent(gen, 2.0)
        resid = np.max(np.abs(R1 - R2 - (2.0 - 1.0) * (R1 @ R2)))
        assert resid <= 1e-9

    @pytest.mark.parametrize("gen", [
        neumann_laplacian_1d(64, 1.0 / 63.0),
        multiplication_generator(np.random.default_rng(6).uniform(0.0, 3.0, size=24)),
    ], ids=["neumann", "multiplication"])
    def test_matches_dense_solve(self, gen):
        for mu in (1.0, 2.0, 2.0 ** 20):
            dense = np.linalg.solve(mu * np.eye(gen.dim) - gen.A, np.eye(gen.dim))
            assert np.max(np.abs(resolvent(gen, mu) - dense)) <= 1e-12 / mu

    def test_nonsymmetric_metzler_generator(self):
        A = _NONSYMMETRIC
        gen = GeneratorMatrix.from_matrix(A, lam0=0.5)
        for mu in (1.0, 3.0):
            R = resolvent(gen, mu)
            assert np.max(np.abs(R @ (mu * np.eye(3) - A) - np.eye(3))) <= 1e-14
            assert np.min(R) >= 0.0
            assert not np.allclose(R, R.T)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_certificate_accepts_exactly_above_the_spectral_bound(self, data):
        N = data.draw(st.integers(1, 12), label="N")
        off = st.lists(st.one_of(st.just(0.0), st.floats(0.25, 4.0)),
                       min_size=N - 1, max_size=N - 1)
        A = (np.diag(data.draw(off, label="sub"), -1)
             + np.diag(data.draw(st.lists(st.floats(-8.0, 8.0), min_size=N, max_size=N),
                                 label="diag"))
             + np.diag(data.draw(off, label="sup"), 1))
        s = float(np.max(np.linalg.eigvals(A).real))
        lam0 = s + data.draw(st.floats(-4.0, 4.0), label="lam0 - s")
        # eigvals and the pivots both err at round-off relative to A's entries
        assume(abs(lam0 - s) > 1e-8 * max(1.0, float(np.max(np.abs(A)))))
        try:
            GeneratorMatrix.from_matrix(A, lam0=lam0)
            accepted = True
        except ValueError as exc:
            assert "spectral bound" in str(exc)
            accepted = False
        assert accepted == (lam0 > s)

    def test_nonsymmetric_spectral_bound_enforced(self):
        # eigenvalues +-0.5: lam0 = 0.25 lies below the spectral bound
        with pytest.raises(ValueError, match="spectral bound"):
            GeneratorMatrix.from_matrix(np.array([[0.0, 1.0], [0.25, 0.0]]), lam0=0.25)


def _operator_generators():
    rng = np.random.default_rng(6)
    return [
        neumann_laplacian_1d(3, 0.5),
        neumann_laplacian_1d(64, 1.0 / 63.0),
        multiplication_generator([2.0]),
        multiplication_generator(rng.uniform(0.0, 3.0, size=24)),
        GeneratorMatrix.from_matrix(_NONSYMMETRIC, lam0=0.5),
        GeneratorMatrix.from_matrix(_NONSYMMETRIC_2, lam0=0.5),
    ]


# s(A) = -0.0098; mu - A has pivots 1 and 1 at mu = 0, yet partial pivoting
# swaps rows 1 and 2 there because |-10| > 1
_SWAPPING = GeneratorMatrix([10.0], [-1.0, -101.0], [10.0], lam0=0.0)


def _no_pivot_factors(gen, mu):
    """Reference: the dgttrs factors of mu - A by the no-pivot recurrence,
    padded to order 3 with identity rows."""
    N, n = gen.dim, max(gen.dim, 3)
    dl, d, du = np.zeros(n - 1), np.ones(n), np.zeros(n - 1)
    d[0] = mu - gen.diag[0]
    for i in range(N - 1):
        dl[i] = -gen.sub[i] / d[i]
        du[i] = -gen.sup[i]
        d[i + 1] = (mu - gen.diag[i + 1]) - dl[i] * du[i]
    return dl, d, du, np.zeros(n - 2), np.arange(1, n + 1, dtype=np.intc)


class TestResolventOperator:
    @pytest.mark.parametrize("gen", _operator_generators(), ids=[
        "neumann-3", "neumann-64", "multiplication-1", "multiplication-24",
        "nonsymmetric-3", "nonsymmetric-2"])
    def test_matches_dense_solve_and_stays_positive(self, gen):
        N = gen.dim
        I = np.eye(N)
        scheme = dataclasses.replace(resolvent_scheme(gen), n_max=2 ** 20)
        for n in scheme.indices():
            R = scheme.R(n)
            M = R @ I
            assert np.max(np.abs(M - n * np.linalg.solve(n * I - gen.A, I))) <= 1e-12
            assert np.min(M) >= 0.0
            MT = R.T @ I
            assert np.max(np.abs(MT - M.T)) <= 1e-12
            assert np.min(MT) >= 0.0
            assert 0 < R.nbytes <= 64 * max(N, 3)

    @pytest.mark.parametrize("gen", [
        neumann_laplacian_1d(640, 1.0 / 639.0),
        multiplication_generator(np.random.default_rng(6).uniform(0.0, 3.0, size=64)),
        multiplication_generator([2.0]),
        GeneratorMatrix.from_matrix(_NONSYMMETRIC_2, lam0=0.5),
    ], ids=["neumann-640", "multiplication-64", "multiplication-1", "nonsymmetric-2"])
    def test_factors_equal_the_no_pivot_recurrence(self, gen):
        for n in 2 ** np.arange(1, 23):
            factors = ResolventOperator(gen, float(n), scale=float(n)).factors
            for got, want in zip(factors, _no_pivot_factors(gen, float(n)), strict=True):
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_row_swap_falls_back_to_the_recurrence(self):
        dl, d, du = -_SWAPPING.sub, -_SWAPPING.diag, -_SWAPPING.sup
        ipiv = dgttrf(np.append(dl, 0.0), np.append(d, 1.0), np.append(du, 0.0))[4]
        assert list(ipiv) == [2, 2, 3]
        I = np.eye(2)
        for mu in (0.0, 1.0, 2.0 ** 20):
            R = ResolventOperator(_SWAPPING, mu)
            for got, want in zip(R.factors, _no_pivot_factors(_SWAPPING, mu), strict=True):
                assert np.array_equal(got, want)
            dense = np.linalg.inv(mu * I - _SWAPPING.A)
            for M, ref in ((R @ I, dense), (R.T @ I, dense.T)):
                assert np.max(np.abs(M - ref)) <= 1e-12 * np.max(np.abs(ref))
                assert np.min(M) >= 0.0
        with pytest.raises(ValueError, match=r"^-0.02 does not exceed the spectral bound"
                                             r".* <= 0 in row 1$"):
            ResolventOperator(_SWAPPING, -0.02)

    def test_pivot_check_fires_below_the_spectral_bound(self):
        gen = GeneratorMatrix.from_matrix(_NONSYMMETRIC, lam0=0.5)
        s = float(np.max(np.linalg.eigvals(_NONSYMMETRIC).real))
        assert np.min(ResolventOperator(gen, s + 1e-6) @ np.eye(3)) >= 0.0
        with pytest.raises(ValueError, match="spectral bound"):
            ResolventOperator(gen, s - 1e-6)
        with pytest.raises(ValueError, match=r"^-1 does not exceed the spectral bound"):
            resolvent_scheme(neumann_laplacian_1d(8, 1.0 / 7.0)).R(-1)

    def test_transpose_of_transpose(self):
        R = resolvent_scheme(GeneratorMatrix.from_matrix(_NONSYMMETRIC, lam0=0.5)).R(2)
        v = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(R.T.T @ v, R @ v)
        assert not np.allclose(R.T @ v, R @ v)


# ---------------------------------------------------------------------------
# extrapolation norms
# ---------------------------------------------------------------------------

class TestExtrapolationNorm:
    def test_zero(self):
        space = ExtrapolationSpace(
            OrderedSpaceSpec.standard_lp(np.ones(4), 2.0),
            multiplication_generator(np.arange(4.0)), lam=1.5)
        assert extrapolation_norm(space, np.zeros(4)) == 0.0

    def test_multiplication_closed_form(self):
        space = ExtrapolationSpace(
            OrderedSpaceSpec.standard_lp(np.ones(3), 2.0),
            multiplication_generator([0.0, 1.0, 3.0]), lam=1.0)
        val = extrapolation_norm(space, np.ones(3))
        assert val == pytest.approx(math.sqrt(21.0) / 4.0, abs=1e-14)

    def test_rows_match_single_vectors(self):
        dom = GridDomain.interval(0.0, 1.0, 16)
        space = ExtrapolationSpace(grid_space(dom, p=3.0),
                                   neumann_laplacian_1d(16, dom.h), lam=1.5)
        X = np.random.default_rng(7).standard_normal((5, 16))
        assert np.allclose(extrapolation_norm(space, X),
                           [extrapolation_norm(space, x) for x in X], rtol=1e-14, atol=0)
        with pytest.raises(ValueError, match="^expected vectors of length 16$"):
            extrapolation_norm(space, np.ones((2, 15)))

    def test_lam_must_exceed_lam0(self):
        with pytest.raises(ValueError):
            ExtrapolationSpace(OrderedSpaceSpec.standard_lp(np.ones(3), 2.0),
                               multiplication_generator([0.0, 1.0, 2.0]), lam=0.2)


# ---------------------------------------------------------------------------
# resolvent scheme and the supremum construction
# ---------------------------------------------------------------------------

class TestResolventScheme:
    def test_approximants_positive(self):
        gen = neumann_laplacian_1d(16, 1.0 / 15.0)
        scheme = dataclasses.replace(resolvent_scheme(gen), n_max=64)
        for n in scheme.indices():
            assert np.min(scheme.R(n) @ np.eye(16)) >= 0.0

    def test_convergence_envelope(self):
        dom = GridDomain.interval(0.0, 1.0, 32)
        gen = neumann_laplacian_1d(32, dom.h)
        scheme = dataclasses.replace(resolvent_scheme(gen), n_max=256)
        space = grid_space(dom)
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.standard_normal(32)
            errs = [space.norm.value(scheme.R(n) @ x - x) for n in scheme.indices()]
            assert all(b < a for a, b in zip(errs, errs[1:]))
            assert errs[-1] <= 1e-2 * space.norm.value(gen.A @ x)

    def test_theorem41_positive_vector(self):
        dom = GridDomain.interval(0.0, 1.0, 32)
        gen = neumann_laplacian_1d(32, dom.h)
        space = ExtrapolationSpace(grid_space(dom), gen, lam=1.5)
        z = np.abs(np.sin(2 * np.pi * dom.axis(0))) + 0.5
        s = theorem41_sup(space, z, tol=1e-6)
        assert np.max(np.abs(s - z)) <= 1e-5

    def test_theorem41_matches_modulus_neumann(self):
        dom = GridDomain.interval(0.0, 1.0, 64)
        gen = neumann_laplacian_1d(64, dom.h)
        space = ExtrapolationSpace(grid_space(dom), gen, lam=1.5)
        z = np.sin(2 * np.pi * dom.axis(0))
        s = theorem41_sup(space, z, tol=1e-6)
        assert np.max(np.abs(s - np.abs(z))) <= 1e-6

    def test_theorem41_matches_modulus_multiplication(self):
        m = np.linspace(0.0, 3.0, 16)
        gen = multiplication_generator(m)
        space = ExtrapolationSpace(
            OrderedSpaceSpec.standard_lp(np.ones(16), 2.0), gen, lam=1.5)
        rng = np.random.default_rng(3)
        z = rng.standard_normal(16)
        tol = 1e-6
        s = theorem41_sup(space, z, tol=tol)
        # diagonal computation: n/(n + m_i) -> 1 monotonically
        assert np.max(np.abs(s - np.abs(z))) <= 10 * tol


# ---------------------------------------------------------------------------
# the multiplication example
# ---------------------------------------------------------------------------

class TestMultiplicationExample:
    def test_zero_multiplier_reduces_to_base_norm(self):
        assert multiplication_example_check(np.zeros(5), p=2.0, seed=4) <= 1e-12

    def test_reference_vector(self):
        assert multiplication_example_check(np.array([0.0, 1.0, 3.0]), p=2.0) <= 1e-12

    def test_weighted_measure(self):
        rng = np.random.default_rng(5)
        assert multiplication_example_check(rng.uniform(0, 4, size=6), p=3.0) <= 1e-12
