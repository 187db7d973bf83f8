import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latlab.ordered_space import NormSpec, OrderedSpaceSpec, PolyhedralCone
from latlab.sobolev_grid import (
    ConvergenceError,
    GridDomain,
    GridFunction,
    Mollifier,
    stacked_diff_operator,
)
from latlab.span_lattice import (
    ApproximationScheme,
    PeriodicCorrelation,
    _iterate_sup,
    constructive_sup,
    constructive_sup_dual,
    mollifier_scheme,
    renorm_bounds_check,
    renorm_value,
    span_norm,
)


def l2_space(dim):
    return OrderedSpaceSpec.standard_lp(np.ones(dim), 2.0)


def dual_space(domain):
    dim = domain.node_count
    return OrderedSpaceSpec(dim, PolyhedralCone.standard(dim),
                            NormSpec.dual_sobolev(domain, 1, 2.0))


_MONOTONE_FAMILIES = ["lp", "dual-interval", "dual-torus", "dual-rectangle"]


def monotone_space(family, rng):
    """A random space whose norm is certified monotone.

    Dimension <= 12, except the 4 x 4 rectangle (16 nodes, the coarsest grid).
    """
    if family == "lp":
        d = int(rng.integers(1, 13))
        return OrderedSpaceSpec.standard_lp(rng.uniform(0.1, 5.0, d), rng.uniform(1.0, 4.0))
    length = rng.uniform(0.5, 8.0)
    if family == "dual-interval":
        return dual_space(GridDomain.interval(0.0, length, int(rng.integers(4, 13))))
    if family == "dual-torus":
        return dual_space(GridDomain.torus(length, int(rng.integers(4, 13))))
    return dual_space(GridDomain.rectangle(0.0, length, 0.0, length, 4))


def dense_norms(space, W):
    """Norms of the rows of W from the definition, with dense linear algebra."""
    norm = space.norm
    if norm.kind == "lp":
        return np.sum(norm.weights * np.abs(W) ** norm.p, axis=1) ** (1.0 / norm.p)
    S, _ = stacked_diff_operator(norm.domain, norm.k)
    K = (S.T @ S).toarray()
    return np.sqrt(norm.domain.cell_measure * np.sum(W * np.linalg.solve(K, W.T).T, axis=1))


# ---------------------------------------------------------------------------
# span norm
# ---------------------------------------------------------------------------

class TestSpanNorm:
    def test_positive_vector_keeps_base_norm(self):
        space = l2_space(3)
        x = np.array([1.0, 2.0, 0.5])
        res = span_norm(space, x)
        assert res.value == pytest.approx(space.norm.value(x), abs=0)
        assert np.array_equal(res.y, x) and np.array_equal(res.z, np.zeros(3))

    def test_zero_vector(self):
        res = span_norm(l2_space(2), np.zeros(2))
        assert res.value == 0.0

    def test_l1_value_is_l1_norm(self):
        space = OrderedSpaceSpec.standard_lp(np.ones(5), 1.0)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.standard_normal(5)
            res = span_norm(space, x)
            assert res.value == pytest.approx(np.sum(np.abs(x)), rel=1e-9)
            # randomly perturbed feasible decompositions never improve
            for _ in range(50):
                s = np.abs(rng.standard_normal(5))
                alt = space.norm.value(np.maximum(x, 0) + s) + \
                    space.norm.value(np.maximum(-x, 0) + s)
                assert alt >= res.value - 1e-10
        # weighted lp norms are monotone on the cone, so s = 0 is optimal
        for p in (2.0, 3.0):
            space = OrderedSpaceSpec.standard_lp(np.linspace(0.5, 2.0, 5), p)
            for _ in range(10):
                x = rng.standard_normal(5)
                xp, xm = np.maximum(x, 0.0), np.maximum(-x, 0.0)
                res = span_norm(space, x)
                assert res.value == space.norm.value(xp) + space.norm.value(xm)
                assert np.array_equal(res.y, xp)

    def test_decomposition_feasible(self):
        space = l2_space(6)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal(6)
            res = span_norm(space, x)
            assert np.all(res.y >= 0) and np.all(res.z >= 0)
            assert np.max(np.abs(res.y - res.z - x)) <= 1e-12
            total = space.norm.value(res.y) + space.norm.value(res.z)
            assert abs(total - res.value) <= 1e-8

    @pytest.mark.parametrize("alpha", [2.0, 10.0])
    def test_homogeneity(self, alpha):
        space = l2_space(4)
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.standard_normal(4)
            v1 = span_norm(space, x).value
            v2 = span_norm(space, alpha * x).value
            assert v2 == pytest.approx(alpha * v1, rel=1e-8)

    def test_triangle_lower_bound(self):
        # any decomposition satisfies ||y|| + ||z|| >= ||x||
        space = l2_space(5)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal(5)
            assert span_norm(space, x).value >= space.norm.value(x) - 1e-10

    def test_requires_standard_cone(self):
        cone = PolyhedralCone(2, np.array([[1.0, 0.0], [1.0, 1.0]]))
        space = OrderedSpaceSpec(2, cone, NormSpec.lp(np.ones(2), 2.0))
        with pytest.raises(ValueError):
            span_norm(space, np.array([1.0, -1.0]))

    @given(st.integers(0, 10 ** 6))
    @example(241)  # the W^{2,2} vector's first L-BFGS-B solve stalls uncertified
    @settings(max_examples=25, deadline=None)
    def test_sobolev_span_norm_feasible(self, seed):
        rng = np.random.default_rng(seed)
        for k, p, n in [(1, 2.0, 6), (1, 3.0, 8), (2, 2.0, 10)]:
            domain = GridDomain.interval(0.0, 1.0, n)
            space = OrderedSpaceSpec.standard_sobolev(domain, k, p)
            x = rng.standard_normal(n)
            res = span_norm(space, x)
            assert np.all(res.y >= 0) and np.all(res.z >= 0)
            assert np.max(np.abs(res.y - res.z - x)) <= 1e-12
            if np.all(x >= 0) or np.all(x <= 0):
                continue  # on the cone (or its negative) no solve runs
            # KKT: s = min(y, z) >= 0 and the gradient is >= 0, = 0 where s > 0
            s = np.minimum(res.y, res.z)
            g = space.norm.grad(res.y) + space.norm.grad(res.z)
            assert np.max(np.abs(np.minimum(s, g))) <= 1e-6 * (1.0 + res.value)

    @given(st.sampled_from(_MONOTONE_FAMILIES), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_certified_monotone_norm_is_closed_form(self, family, seed):
        rng = np.random.default_rng(seed)
        space = monotone_space(family, rng)
        assert space.norm.monotone
        x = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal(space.dim)
        xp, xm = np.maximum(x, 0.0), np.maximum(-x, 0.0)
        res = span_norm(space, x)
        assert res.value == space.norm.value(xp) + space.norm.value(xm)
        assert np.array_equal(res.y - res.z, x)
        # no feasible decomposition y = x+ + s, z = x- + s does better
        for _ in range(20):
            s = 10.0 ** rng.uniform(-6, 1) * np.abs(x).max() * rng.uniform(0, 1, space.dim)
            alt = space.norm.value(xp + s) + space.norm.value(xm + s)
            assert res.value <= alt * (1.0 + 1e-12)

    def test_certified_monotone_norm_solves_and_enumerates_nothing(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a certified monotone norm takes the closed forms")

        monkeypatch.setattr("scipy.optimize.minimize", forbidden)
        monkeypatch.setattr(NormSpec, "value_many", forbidden)
        x = np.array([1.0, -2.0, 0.5, -0.25, 3.0, -1.0])
        for space in (OrderedSpaceSpec.standard_lp(np.linspace(0.5, 2.0, 6), 3.0),
                      dual_space(GridDomain.interval(0.0, 1.0, 6)),
                      dual_space(GridDomain.torus(1.0, 6))):
            span_norm(space, x)
            assert renorm_value(space, x).exact

    def test_uncertified_solve_raises_with_best(self, monkeypatch):
        grad = NormSpec.grad
        monkeypatch.setattr(NormSpec, "grad", lambda self, x: -grad(self, x))
        x = np.array([1.0, -2.0, 0.5, -0.25])
        space = OrderedSpaceSpec.standard_sobolev(GridDomain.interval(0, 1, 4), 1, 2.0)
        with pytest.raises(ConvergenceError) as info:
            span_norm(space, x)
        best = info.value.best
        assert np.all(best.y >= 0) and np.all(best.z >= 0)
        assert np.max(np.abs(best.y - best.z - x)) <= 1e-12
        assert info.value.diagnostics["kkt_residual"] > 1e-6


# ---------------------------------------------------------------------------
# renorm
# ---------------------------------------------------------------------------

class TestRenormValue:
    def test_monotone_norm_maximum_at_top(self):
        space = OrderedSpaceSpec.standard_lp(np.linspace(0.5, 2.0, 5), 3.0)
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.standard_normal(5)
            res = renorm_value(space, x)
            assert res.exact
            assert res.value == pytest.approx(space.norm.value(np.abs(x)), abs=1e-13)

    def test_sobolev_vertex_enumeration_against_brute_force(self):
        domain = GridDomain.interval(0.0, 1.0, 4)
        space = OrderedSpaceSpec.standard_sobolev(domain, 1, 2.0)
        x = np.array([1.0, -1.0, 1.0, -0.5])
        res = renorm_value(space, x)
        # independent brute force: hand-rolled norm over all box vertices
        h = domain.h
        best = 0.0
        for mask in itertools.product([0.0, 1.0], repeat=4):
            w = np.array(mask) * np.abs(x)
            dw = np.empty(4)
            dw[:3] = (w[1:] - w[:-1]) / h
            dw[3] = dw[2]
            best = max(best, np.sqrt(h * np.sum(w ** 2) + h * np.sum(dw ** 2)))
        assert res.exact and res.value == pytest.approx(best, abs=1e-12)

    @given(st.sampled_from(_MONOTONE_FAMILIES), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_certified_monotone_norm_matches_brute_force(self, family, seed):
        rng = np.random.default_rng(seed)
        space = monotone_space(family, rng)
        x = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal(space.dim)
        res = renorm_value(space, x)
        d = space.dim
        masks = (np.arange(2 ** d)[:, None] >> np.arange(d)) & 1
        best = float(np.max(dense_norms(space, masks * np.abs(x))))
        assert res.exact and np.array_equal(res.maximizer, np.abs(x))
        assert abs(res.value - best) <= 1e-12 * best

    def test_zero(self):
        assert renorm_value(l2_space(3), np.zeros(3)).value == 0.0

    def test_symmetry_exact(self):
        space = OrderedSpaceSpec.standard_sobolev(GridDomain.interval(0, 1, 6), 1, 2.0)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.standard_normal(6)
            a = renorm_value(space, x).value
            assert renorm_value(space, -x).value == a
            assert renorm_value(space, np.abs(x)).value == a

    def test_triangle_inequality_with_riesz_route(self):
        domain = GridDomain.interval(0.0, 1.0, 5)
        space = OrderedSpaceSpec.standard_sobolev(domain, 1, 2.0)
        rng = np.random.default_rng(6)
        for _ in range(20):
            x, y = rng.standard_normal((2, 5))
            rx, ry = renorm_value(space, x), renorm_value(space, y)
            rxy = renorm_value(space, x + y)
            assert rxy.value <= rx.value + ry.value + 1e-8
            # the proof route: split the maximizer over [0,|x|] + [0,|y|+slack]
            w = renorm_value(space, np.abs(x) + np.abs(y)).maximizer
            w1 = np.minimum(w, np.abs(x))
            w2 = w - w1
            assert space.norm.value(w1) <= rx.value + 1e-10
            assert space.norm.value(w2) <= ry.value + 1e-10

    def test_large_dimension_monotone_norm_is_exact(self):
        space = OrderedSpaceSpec.standard_lp(np.ones(20), 2.0)
        x = np.ones(20)
        res = renorm_value(space, x)
        assert res.exact
        assert res.value == space.norm.value(x)

    def test_large_dimension_lower_bound_flag_on_sobolev(self):
        domain = GridDomain.interval(0.0, 1.0, 20)
        space = OrderedSpaceSpec.standard_sobolev(domain, 1, 2.0)
        x = np.random.default_rng(0).standard_normal(20)
        # not certified monotone and above the enumeration cutoff: refused
        with pytest.raises(ConvergenceError, match="bracket") as exc:
            renorm_value(space, x)
        res, (low, high) = exc.value.best, exc.value.diagnostics["bracket"]
        assert not res.exact
        assert np.array_equal(res.maximizer, np.abs(x))
        assert res.value == low == space.norm.value(np.abs(x))
        # every w in [0, |x|] is a sum of w_j e_j with w_j <= |x_j|
        bound = sum(abs(xj) * space.norm.value(e) for xj, e in zip(x, np.eye(20)))
        assert high == pytest.approx(bound, rel=1e-12)
        assert low < high


class TestRenormBounds:
    def test_l2_banach_lattice_constants(self):
        space = l2_space(4)
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.standard_normal(4)
            rep = renorm_bounds_check(space.norm.value(x), renorm_value(space, x).value, 1.0, 1.0)
            assert rep.passed
            assert rep.renorm == pytest.approx(rep.base_norm, rel=1e-12)

    def test_positive_vector_first_bound_trivial(self):
        space = l2_space(3)
        x = np.array([1.0, 2.0, 3.0])
        rep = renorm_bounds_check(space.norm.value(x), renorm_value(space, x).value, 1.0, 1.0)
        assert rep.passed and rep.slack_low >= rep.base_norm - 1e-12

    def test_too_small_constants_fail(self):
        space = l2_space(2)
        x = np.array([1.0, -1.0])
        base, renorm = space.norm.value(x), renorm_value(space, x).value
        low = renorm_bounds_check(base, renorm, 0.25, 16.0)
        assert not low.passed and low.slack_low < 0 <= low.slack_high
        high = renorm_bounds_check(base, renorm, 1.0, 0.25)
        assert not high.passed and high.slack_high < 0 <= high.slack_low

    def test_sobolev_with_estimated_constants(self):
        from latlab.cli import estimate_renorm_constants
        domain = GridDomain.interval(0.0, 1.0, 8)
        space = OrderedSpaceSpec.standard_sobolev(domain, 1, 2.0)
        rng = np.random.default_rng(8)
        xs = [rng.standard_normal(8) for _ in range(15)]
        M, C, norms = estimate_renorm_constants(space, xs)
        assert norms == [(space.norm.value(x), renorm_value(space, x).value) for x in xs]
        for base, renorm in norms:
            assert renorm_bounds_check(base, renorm, 1.05 * M, 1.05 * C).passed


# ---------------------------------------------------------------------------
# approximation schemes
# ---------------------------------------------------------------------------

class TestSchemeValidation:
    def test_mollifier_scheme_validates(self):
        domain = GridDomain.torus(1.0, 64)
        scheme = mollifier_scheme(domain)
        t = domain.axis(0)
        # J = id, so the error of index n is max|R_n z - z|
        for z in (0.01 * np.sin(2 * np.pi * t), 0.01 * np.cos(2 * np.pi * t) ** 2):
            errs = [np.max(np.abs(scheme.R(n) @ z - z)) for n in scheme.indices()]
            assert errs[-1] <= 1e-3
            assert all(b <= a * (1.0 + 1e-9) + 1e-15 for a, b in zip(errs, errs[1:]))

    def test_positivity_on_basis_vectors(self):
        domain = GridDomain.torus(1.0, 32)
        scheme = mollifier_scheme(domain)
        for n in scheme.indices():
            M = scheme.R(n)
            for e in np.eye(32):
                assert np.all(M @ e >= -1e-12)

    @pytest.mark.parametrize("N", [32, 64, 384])
    def test_convolution_direction_matches_dense_assembly(self, N):
        # reference: the operator assembled densely as a sum of shifted
        # identities; the bump kernels are symmetric, so a lopsided kernel
        # is what tells correlation from convolution
        domain = GridDomain.torus(1.0, N)
        scheme = mollifier_scheme(domain)
        rng = np.random.default_rng(N)
        lopsided = np.arange(1.0, 8.0) / 28.0
        cases = [(scheme.R(n), Mollifier(1.0 / n).weights(domain.h))
                 for n in scheme.indices()]
        cases.append((PeriodicCorrelation(lopsided, N), lopsided))
        for op, w in cases:
            half = len(w) // 2
            M = sum(wj * np.roll(np.eye(N), j - half, axis=1) for j, wj in enumerate(w))
            v = rng.standard_normal(N)
            assert np.max(np.abs(op @ v - M @ v)) <= 1e-15
            assert np.max(np.abs(op.T @ v - M.T @ v)) <= 1e-15

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            PeriodicCorrelation(np.array([0.5, -0.1, 0.6]), 8)


class TestConstructiveSup:
    def test_positive_vector_reproduced(self):
        domain = GridDomain.torus(1.0, 64)
        scheme = mollifier_scheme(domain)
        t = domain.axis(0)
        z = 2e-4 * (1.5 + np.sin(2 * np.pi * t))
        s = constructive_sup(scheme, z, 3e-5)
        assert np.max(np.abs(s - z)) <= 1e-5

    def test_sine_matches_modulus_oracle(self):
        domain = GridDomain.torus(1.0, 256)
        scheme = mollifier_scheme(domain)
        z = 0.001 * np.sin(2 * np.pi * domain.axis(0))
        s = constructive_sup(scheme, z, 1e-5)
        assert np.max(np.abs(s - np.abs(z))) <= 1e-6

    def test_spike_through_resolvent_scheme(self):
        from latlab.extrapolation import neumann_laplacian_1d, resolvent_scheme
        domain = GridDomain.interval(0.0, 1.0, 64)
        gen = neumann_laplacian_1d(64, domain.h)
        scheme = resolvent_scheme(gen)
        z = np.zeros(64)
        z[31] = 1.0
        tol = 1e-6
        s = constructive_sup(scheme, z, tol)
        assert np.max(np.abs(s - np.abs(z))) <= 10 * tol

    def test_oracle_invariant_random(self):
        from latlab.cli import _trig_profile
        domain = GridDomain.torus(1.0, 64)
        scheme = mollifier_scheme(domain)
        rng = np.random.default_rng(9)
        t = domain.axis(0)
        tol = 4e-5
        for _ in range(5):
            z = _trig_profile(rng, t, 0.004)
            s = constructive_sup(scheme, z, tol)
            assert np.max(np.abs(s - np.abs(z))) <= 10 * tol

    def test_exhausted_range_raises(self):
        domain = GridDomain.torus(1.0, 64)
        base = mollifier_scheme(domain)
        truncated = ApproximationScheme(base.R, 2, 4)
        z = np.sin(2 * np.pi * domain.axis(0))
        with pytest.raises(ConvergenceError) as exc:
            constructive_sup(truncated, z, 1e-9)
        assert exc.value.best.shape == z.shape
        assert set(exc.value.diagnostics["columns"]) == {0}
        assert exc.value.diagnostics["columns"][0]["increments"]

    @pytest.mark.parametrize("case", [0, 1], ids=["mollifier", "resolvent-neumann"])
    @pytest.mark.parametrize("sup", [constructive_sup, constructive_sup_dual],
                             ids=["primal", "dual"])
    def test_wrong_length_rejected(self, case, sup):
        scheme, domain, _, tol = _batch_cases()[case]
        for z in (np.ones(domain.node_count - 1), np.ones((domain.node_count + 1, 2))):
            with pytest.raises(ValueError):
                sup(scheme, z, tol)


class TestConstructiveSupDual:
    def test_positive_covector(self):
        domain = GridDomain.torus(1.0, 64)
        scheme = mollifier_scheme(domain)
        x = 2e-4 * (1.2 + np.sin(2 * np.pi * domain.axis(0)))
        s = constructive_sup_dual(scheme, x, 3e-5)
        assert np.max(np.abs(s - x)) <= 1e-5

    def test_symmetric_kernel_matches_modulus(self):
        domain = GridDomain.torus(1.0, 256)
        scheme = mollifier_scheme(domain)
        x = 0.001 * np.sin(2 * np.pi * domain.axis(0))
        s = constructive_sup_dual(scheme, x, 1e-5)
        assert np.max(np.abs(s - np.abs(x))) <= 1e-6
        # transposed approximants: convolution with the reflected kernel
        R4 = scheme.R(4)
        assert np.allclose(R4 @ np.eye(256), R4.T @ np.eye(256), atol=1e-14)

    def test_resolvent_scheme_dual_matches_primal(self):
        # A is symmetric, so R_n' = R_n and both constructions coincide
        from latlab.extrapolation import neumann_laplacian_1d, resolvent_scheme
        domain = GridDomain.interval(0.0, 1.0, 64)
        scheme = resolvent_scheme(neumann_laplacian_1d(64, domain.h))
        z = np.zeros(64)
        z[31] = 1.0
        tol = 1e-6
        s_dual = constructive_sup_dual(scheme, z, tol)
        s = constructive_sup(scheme, z, tol)
        assert np.max(np.abs(s_dual - s)) <= 1e-12
        assert np.max(np.abs(z) - s_dual) <= tol

    def test_zero_covector_exact(self):
        domain = GridDomain.torus(1.0, 32)
        scheme = mollifier_scheme(domain)
        s = constructive_sup_dual(scheme, np.zeros(32), 1e-6)
        assert np.array_equal(s, np.zeros(32))


def _recording(scheme, calls):
    """The scheme with every index it is asked for appended to ``calls``."""
    def R(n):
        calls.append(n)
        return scheme.R(n)
    return ApproximationScheme(R, scheme.n_min, scheme.n_max)


def _profiles(domain, curvatures, seed=3):
    from latlab.cli import _trig_profile
    rng = np.random.default_rng(seed)
    t = (domain.axis(0) - domain.lo[0]) / (domain.hi[0] - domain.lo[0])
    return np.column_stack([_trig_profile(rng, t, c) for c in curvatures])


def _batch_cases():
    from latlab.extrapolation import neumann_laplacian_1d, resolvent_scheme
    torus = GridDomain.torus(1.0, 256)
    interval = GridDomain.interval(0.0, 1.0, 64)
    return [
        (mollifier_scheme(torus), torus, (0.001, 0.004, 0.02), 1e-5),
        (resolvent_scheme(neumann_laplacian_1d(64, interval.h)), interval,
         (0.001, 0.004, 0.02), 1e-7),
    ]


class TestBatchedSweep:
    @pytest.mark.parametrize("case", [0, 1], ids=["mollifier", "resolvent-neumann"])
    @pytest.mark.parametrize("dual", [False, True], ids=["primal", "dual"])
    def test_columns_match_one_call_per_column(self, case, dual):
        scheme, domain, curvatures, tol = _batch_cases()[case]
        Z = _profiles(domain, curvatures)

        def sup(sch, z):
            return constructive_sup_dual(sch, z, tol) if dual else \
                constructive_sup(sch, z, tol)

        batch_calls = []
        S = sup(_recording(scheme, batch_calls), Z)
        assert S.shape == Z.shape
        # one sweep: each index is built once, up to the slowest column
        assert batch_calls == sorted(set(batch_calls))
        finals = []
        for j in range(Z.shape[1]):
            calls = []
            s = sup(_recording(scheme, calls), Z[:, j])
            assert np.max(np.abs(S[:, j] - s)) <= 1e-12
            finals.append(calls[-1])
        apply_r = (lambda n, v: scheme.R(n).T @ v) if dual else (lambda n, v: scheme.R(n) @ v)
        _, n_final, _ = _iterate_sup(apply_r, scheme.indices(), Z, tol)
        assert n_final == finals
        assert len(set(finals)) > 1  # the columns stop at different indices
        assert batch_calls[-1] == max(finals)

    @pytest.mark.parametrize("dual", [False, True], ids=["primal", "dual"])
    def test_only_the_unconverged_column_is_reported(self, dual):
        domain = GridDomain.torus(1.0, 64)
        base = mollifier_scheme(domain)
        truncated = ApproximationScheme(base.R, 2, 16)
        t = domain.axis(0)
        # R_n fixes constants, so columns 0 and 2 are Cauchy from the first
        # index on; the sine needs far more indices than 2..16
        Z = np.column_stack([np.full(64, 0.5), np.sin(2 * np.pi * t), np.full(64, 0.25)])

        def sup(z):
            return constructive_sup_dual(truncated, z, 1e-9) if dual else \
                constructive_sup(truncated, z, 1e-9)

        with pytest.raises(ConvergenceError) as batch:
            sup(Z)
        failed = batch.value.diagnostics["columns"]
        assert set(failed) == {1}
        assert str(batch.value).startswith("column 1: ") and ";" not in str(batch.value)
        for j in (0, 2):
            assert np.array_equal(batch.value.best[:, j], sup(Z[:, j]))
        with pytest.raises(ConvergenceError) as single:
            sup(Z[:, 1])
        assert single.value.diagnostics["columns"] == {0: failed[1]}
        assert str(single.value) == f"column 0: {failed[1]['error']}"
        assert "did not converge" in failed[1]["error"]
        assert failed[1]["increments"]
        assert np.array_equal(batch.value.best[:, 1], single.value.best)

    def test_peak_memory_of_a_resolvent_sweep(self):
        from latlab.extrapolation import neumann_laplacian_1d, resolvent_scheme
        N = 4096
        domain = GridDomain.interval(0.0, 1.0, N)
        Z = _profiles(domain, (0.005,) * 4, seed=0)
        tracemalloc.start()
        try:
            scheme = resolvent_scheme(neumann_laplacian_1d(N, domain.h))
            constructive_sup(scheme, Z, 1e-7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the generator and each R_n are O(N) bytes and the sweep holds a few
        # N x columns blocks; one dense N x N array would be 134 MB
        assert peak <= 64 * N * (Z.shape[1] + 8)


# ---------------------------------------------------------------------------
# norm coincidence on the cone
# ---------------------------------------------------------------------------

class TestConeNormCoincidence:
    def test_staggered_chain(self):
        # the differences 1 - x_j of an increasing chain are positive in
        # W^{1,2}, so their span norm equals their base norm
        space = OrderedSpaceSpec.standard_sobolev(GridDomain.interval(0.0, 1.0, 4), 1, 2.0)
        chain = [np.array([0.2, 0.0, 0.1, 0.0]),
                 np.array([0.5, 0.4, 0.1, 0.3]),
                 np.array([0.9, 0.8, 0.9, 0.9])]
        for a, b in zip(chain, chain[1:]):
            assert np.all(b >= a)
        for xj in chain:
            diff = 1.0 - xj
            assert np.all(diff >= 0.0)
            assert abs(span_norm(space, diff).value - space.norm.value(diff)) <= 1e-7
