import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latlab.ordered_space import NormSpec, OrderedSpaceSpec, PolyhedralCone
from latlab.sobolev_grid import ConvergenceError, GridDomain, GridFunction, Mollifier
from latlab.span_lattice import (
    ApproximationScheme,
    PeriodicCorrelation,
    SchemeValidationError,
    cone_norm_coincidence_check,
    constructive_sup,
    constructive_sup_dual,
    mollifier_scheme,
    renorm_bounds_check,
    renorm_value,
    span_norm,
)


def l2_space(dim):
    return OrderedSpaceSpec.standard_lp(np.ones(dim), 2.0)


def grid_space(domain, p=2.0):
    w = np.full(domain.node_count, domain.cell_measure)
    return OrderedSpaceSpec.standard_lp(w, p)


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
    @settings(max_examples=25, deadline=None)
    def test_sobolev_span_norm_feasible(self, seed):
        domain = GridDomain.interval(0.0, 1.0, 6)
        space = OrderedSpaceSpec.standard_sobolev(domain, 1, 2.0)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(6)
        res = span_norm(space, x)
        assert np.all(res.y >= 0) and np.all(res.z >= 0)
        assert np.max(np.abs(res.y - res.z - x)) <= 1e-12


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

    def test_large_dimension_lower_bound_flag(self):
        space = OrderedSpaceSpec.standard_lp(np.ones(20), 2.0)
        x = np.ones(20)
        res = renorm_value(space, x)
        assert not res.exact
        # monotone norm: coordinate ascent still lands on the top vertex
        assert res.value == pytest.approx(space.norm.value(x), abs=1e-12)


class TestRenormBounds:
    def test_l2_banach_lattice_constants(self):
        space = l2_space(4)
        rng = np.random.default_rng(7)
        for _ in range(10):
            rep = renorm_bounds_check(space, rng.standard_normal(4), 1.0, 1.0)
            assert rep.passed
            assert rep.renorm == pytest.approx(rep.base_norm, rel=1e-12)

    def test_positive_vector_first_bound_trivial(self):
        space = l2_space(3)
        rep = renorm_bounds_check(space, np.array([1.0, 2.0, 3.0]), 1.0, 1.0)
        assert rep.passed and rep.slack_low >= rep.base_norm - 1e-12

    def test_sobolev_with_estimated_constants(self):
        from latlab.cli import estimate_renorm_constants
        domain = GridDomain.interval(0.0, 1.0, 8)
        space = OrderedSpaceSpec.standard_sobolev(domain, 1, 2.0)
        rng = np.random.default_rng(8)
        xs = [rng.standard_normal(8) for _ in range(15)]
        M, C = estimate_renorm_constants(space, xs)
        for x in xs:
            assert renorm_bounds_check(space, x, 1.05 * M, 1.05 * C).passed


# ---------------------------------------------------------------------------
# approximation schemes
# ---------------------------------------------------------------------------

class TestSchemeValidation:
    def test_mollifier_scheme_validates(self):
        domain = GridDomain.torus(1.0, 64)
        scheme = mollifier_scheme(domain)
        t = domain.axis(0)
        zs = [0.01 * np.sin(2 * np.pi * t), 0.01 * np.cos(2 * np.pi * t) ** 2]
        errors = scheme.validate(zs, tol=1e-3)
        for errs in errors.values():
            assert errs[-1] <= 1e-3

    def test_negative_operator_rejected(self):
        J = np.eye(2)
        R = lambda n: np.array([[1.0, 0.0], [0.0, -0.1]])
        scheme = ApproximationScheme(J, R, 2, 8)
        with pytest.raises(SchemeValidationError):
            scheme.validate([np.ones(2)], tol=1.0)

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
        space = grid_space(domain)
        t = domain.axis(0)
        z = 2e-4 * (1.5 + np.sin(2 * np.pi * t))
        s = constructive_sup(scheme, space, z, 3e-5)
        assert np.max(np.abs(s - z)) <= 1e-5

    def test_sine_matches_modulus_oracle(self):
        domain = GridDomain.torus(1.0, 256)
        scheme = mollifier_scheme(domain)
        space = grid_space(domain)
        z = 0.001 * np.sin(2 * np.pi * domain.axis(0))
        s = constructive_sup(scheme, space, z, 1e-5)
        assert np.max(np.abs(s - np.abs(z))) <= 1e-6

    def test_spike_through_resolvent_scheme(self):
        from latlab.extrapolation import neumann_laplacian_1d, resolvent_scheme
        domain = GridDomain.interval(0.0, 1.0, 64)
        gen = neumann_laplacian_1d(64, domain.h)
        scheme = resolvent_scheme(gen)
        space = grid_space(domain)
        z = np.zeros(64)
        z[31] = 1.0
        tol = 1e-6
        s = constructive_sup(scheme, space, z, tol)
        assert np.max(np.abs(s - np.abs(z))) <= 10 * tol

    def test_oracle_invariant_random(self):
        from latlab.cli import _trig_profile
        domain = GridDomain.torus(1.0, 64)
        scheme = mollifier_scheme(domain)
        space = grid_space(domain)
        rng = np.random.default_rng(9)
        t = domain.axis(0)
        tol = 4e-5
        for _ in range(5):
            z = _trig_profile(rng, t, 0.004)
            s = constructive_sup(scheme, space, z, tol)
            assert np.max(np.abs(s - np.abs(z))) <= 10 * tol

    def test_exhausted_range_raises(self):
        domain = GridDomain.torus(1.0, 64)
        base = mollifier_scheme(domain)
        truncated = ApproximationScheme(base.J, base.R, 2, 4, name="short")
        space = grid_space(domain)
        z = np.sin(2 * np.pi * domain.axis(0))
        with pytest.raises(ConvergenceError) as exc:
            constructive_sup(truncated, space, z, 1e-9)
        assert exc.value.diagnostics["increments"]


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
        s = constructive_sup(scheme, grid_space(domain), z, tol)
        assert np.max(np.abs(s_dual - s)) <= 1e-12
        assert np.max(np.abs(z) - s_dual) <= tol

    def test_zero_covector_exact(self):
        domain = GridDomain.torus(1.0, 32)
        scheme = mollifier_scheme(domain)
        s = constructive_sup_dual(scheme, np.zeros(32), 1e-6)
        assert np.array_equal(s, np.zeros(32))


# ---------------------------------------------------------------------------
# norm coincidence on the cone
# ---------------------------------------------------------------------------

class TestConeNormCoincidence:
    def test_geometric_chain(self):
        space = l2_space(3)
        v = np.array([1.0, 2.0, 0.5])
        chain = [(1.0 - 2.0 ** (-j)) * v for j in range(1, 6)]
        report = cone_norm_coincidence_check(space, chain, v)
        assert report.passed

    def test_staggered_chain(self):
        domain = GridDomain.interval(0.0, 1.0, 4)
        space = OrderedSpaceSpec.standard_sobolev(domain, 1, 2.0)
        chain = [np.array([0.2, 0.0, 0.1, 0.0]),
                 np.array([0.5, 0.4, 0.1, 0.3]),
                 np.array([0.9, 0.8, 0.9, 0.9])]
        report = cone_norm_coincidence_check(space, chain, np.ones(4))
        assert report.passed and report.max_gap <= 1e-7

    def test_non_increasing_chain_rejected(self):
        space = l2_space(2)
        chain = [np.array([0.5, 0.5]), np.array([0.4, 0.6])]
        with pytest.raises(ValueError):
            cone_norm_coincidence_check(space, chain, np.ones(2))
