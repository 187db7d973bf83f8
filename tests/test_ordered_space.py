import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latlab.ordered_space import (
    DegenerateConeError,
    NormSpec,
    OrderedSpaceSpec,
    PolyhedralCone,
    cone_generators,
    decomposition_constant_estimate,
    dual_cone,
    in_generated_cone,
    is_face,
    lattice_hom_check,
    normality_constant_lower_bound,
    riesz_decompose,
    supremum_oracle,
)
from latlab.sobolev_grid import GridDomain


def ice_cream_cone():
    # {x : x3 >= |x1| + |x2|}, generated by (+-1, 0, 1) and (0, +-1, 1)
    return PolyhedralCone(3, np.array([
        [-1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, 1.0]]))


def l2_space(dim):
    return OrderedSpaceSpec.standard_lp(np.ones(dim), 2.0)


# ---------------------------------------------------------------------------
# cone membership and construction
# ---------------------------------------------------------------------------

class TestConeContains:
    def test_standard_cone_positive_vector(self):
        assert PolyhedralCone.standard(3).contains(np.array([1.0, 2.0, 0.0]))

    def test_standard_cone_mixed_vector(self):
        assert not PolyhedralCone.standard(2).contains(np.array([1.0, -1.0]))

    def test_general_inequalities(self):
        cone = PolyhedralCone(2, np.array([[1.0, 1.0], [1.0, -1.0]]))
        assert cone.contains(np.array([1.0, 0.5]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            PolyhedralCone.standard(3).contains(np.array([1.0, 2.0]))


class TestPointedness:
    def test_standard_is_fine(self):
        PolyhedralCone.standard(5)

    def test_halfspace_rejected(self):
        with pytest.raises(DegenerateConeError):
            PolyhedralCone(2, np.array([[1.0, 0.0]]))

    def test_lineality_rejected(self):
        # x1 = 0 leaves the x2 axis as lineality space
        with pytest.raises(DegenerateConeError):
            PolyhedralCone(2, np.array([[1.0, 0.0], [-1.0, 0.0]]))

    def test_wedge_constructor_skips_check(self):
        PolyhedralCone.wedge(np.array([[1.0, 0.0]]))


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

class TestDualCone:
    def test_standard_self_dual(self):
        dual = dual_cone(PolyhedralCone.standard(3))
        rng = np.random.default_rng(0)
        X = rng.standard_normal((500, 3))
        assert np.array_equal(dual.contains_many(X),
                              PolyhedralCone.standard(3).contains_many(X))

    def test_example_cone_dual_against_sampled_functionals(self):
        cone = PolyhedralCone(2, np.array([[1.0, 0.0], [1.0, 1.0]]))
        dual = dual_cone(cone)
        # rays of the primal cone, derived by hand from the active sets
        rays = np.array([[0.0, 1.0], [1.0, -1.0]])
        assert all(cone.contains(r) for r in rays)
        rng = np.random.default_rng(1)
        for _ in range(400):
            y = rng.standard_normal(2) * 3
            expected = bool(np.all(rays @ y >= -1e-10))
            assert dual.contains(y) == expected
        assert dual.contains(np.array([1.0, 0.0]))
        assert dual.contains(np.array([1.0, 1.0]))
        # the dual is exactly the span of those two directions
        gens = cone_generators(dual)
        for g in gens:
            assert in_generated_cone(np.array([[1.0, 0.0], [1.0, 1.0]]), g)

    def test_halfspace_wedge_errors(self):
        with pytest.raises(DegenerateConeError):
            dual_cone(PolyhedralCone.wedge(np.array([[1.0, 0.0]])))

    @pytest.mark.parametrize("cone_factory", [
        lambda: PolyhedralCone.standard(3),
        lambda: PolyhedralCone(2, np.array([[1.0, 0.0], [1.0, 1.0]])),
        ice_cream_cone,
    ])
    def test_double_duality_on_membership(self, cone_factory):
        cone = cone_factory()
        double = dual_cone(dual_cone(cone))
        rng = np.random.default_rng(2)
        X = rng.standard_normal((1000, cone.dim)) * 2
        assert np.array_equal(cone.contains_many(X), double.contains_many(X))


# ---------------------------------------------------------------------------
# supremum oracle
# ---------------------------------------------------------------------------

class TestSupremumOracle:
    def test_standard_componentwise_max(self):
        s = supremum_oracle(l2_space(2), np.array([1.0, -2.0]), np.array([0.0, 3.0]))
        assert np.array_equal(s, np.array([1.0, 3.0]))

    def test_modulus_identity(self):
        rng = np.random.default_rng(3)
        space = l2_space(5)
        for _ in range(50):
            z = rng.standard_normal(5)
            s = supremum_oracle(space, z, -z)
            assert np.array_equal(s, np.abs(z))

    def test_ice_cream_no_supremum(self):
        space = OrderedSpaceSpec(3, ice_cream_cone(), NormSpec.lp(np.ones(3), 2.0))
        s = supremum_oracle(space, np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
        assert s is None

    def test_ice_cream_opposite_pair_has_supremum(self):
        # +-e1 do have a least upper bound here: (0, 0, 1)
        space = OrderedSpaceSpec(3, ice_cream_cone(), NormSpec.lp(np.ones(3), 2.0))
        s = supremum_oracle(space, np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0]))
        assert s is not None
        assert np.allclose(s, [0.0, 0.0, 1.0], atol=1e-7)

    def test_lattice_axioms_exact(self):
        space = l2_space(4)
        rng = np.random.default_rng(4)
        for _ in range(100):
            x, y, z = rng.integers(-5, 6, size=(3, 4)).astype(float)
            s = supremum_oracle(space, x, y)
            assert np.array_equal(s, supremum_oracle(space, y, x))
            assert np.array_equal(supremum_oracle(space, x + z, y + z), s + z)
            for alpha in (0.0, 2.0):
                assert np.array_equal(
                    supremum_oracle(space, alpha * x, alpha * y), alpha * s)


# ---------------------------------------------------------------------------
# Riesz decomposition
# ---------------------------------------------------------------------------

class TestRieszDecompose:
    def test_disjoint_supports(self):
        w1, w2 = riesz_decompose(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                                 np.array([1.0, 1.0]))
        assert np.array_equal(w1, [1.0, 0.0]) and np.array_equal(w2, [0.0, 1.0])

    def test_zero_second_summand(self):
        w1, w2 = riesz_decompose(np.array([2.0, 2.0]), np.array([0.0, 0.0]),
                                 np.array([1.0, 1.0]))
        assert np.array_equal(w1, [1.0, 1.0]) and np.array_equal(w2, [0.0, 0.0])

    def test_interior_split(self):
        w1, w2 = riesz_decompose(np.array([1.0, 3.0]), np.array([2.0, 1.0]),
                                 np.array([2.0, 2.0]))
        assert np.array_equal(w1, [1.0, 2.0]) and np.array_equal(w2, [1.0, 0.0])
        # both order-interval memberships, by direct inequality check
        assert np.all(w1 >= 0) and np.all(w1 <= [1.0, 3.0])
        assert np.all(w2 >= 0) and np.all(w2 <= [2.0, 1.0])

    def test_precondition_violation(self):
        with pytest.raises(ValueError):
            riesz_decompose(np.array([1.0]), np.array([1.0]), np.array([3.0]))
        with pytest.raises(ValueError):
            riesz_decompose(np.array([-1.0]), np.array([1.0]), np.array([0.0]))

    @given(st.integers(1, 6), st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_memberships_exact(self, dim, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 5, size=dim).astype(float)
        y = rng.integers(0, 5, size=dim).astype(float)
        w = np.array([rng.integers(0, int(a + b) + 1) for a, b in zip(x, y)], dtype=float)
        w1, w2 = riesz_decompose(x, y, w)
        assert np.array_equal(w1 + w2, w)
        assert np.all(w1 >= 0) and np.all(x - w1 >= 0)
        assert np.all(w2 >= 0) and np.all(y - w2 >= 0)


# ---------------------------------------------------------------------------
# normality and decomposition constants
# ---------------------------------------------------------------------------

class TestNormalityConstant:
    def test_l2_is_banach_lattice(self):
        space = l2_space(6)
        rng = np.random.default_rng(5)
        witnesses = []
        for _ in range(50):
            y = np.abs(rng.standard_normal(6)) + 0.1
            x = y * rng.uniform(0.0, 1.0, size=6)
            witnesses.append((x, y))
        assert normality_constant_lower_bound(space, witnesses) <= 1.0 + 1e-12

    def test_sobolev_witness_blowup(self):
        eps = 1.0 / 8.0
        n = 161  # h = 1/160 = eps/20
        domain = GridDomain.interval(0.0, 1.0, n)
        space = OrderedSpaceSpec.standard_sobolev(domain, 1, 2.0)
        t = domain.axis(0)
        x = eps * np.sin(np.pi * t / eps) ** 2
        y = np.full_like(t, eps)
        assert normality_constant_lower_bound(space, [(x, y)]) >= 2.0

    def test_blowup_rate_doubles(self):
        n = 1281  # h = 1/1280 <= eps/20 for both scales
        domain = GridDomain.interval(0.0, 1.0, n)
        space = OrderedSpaceSpec.standard_sobolev(domain, 1, 2.0)
        t = domain.axis(0)

        def ratio(eps):
            x = eps * np.sin(np.pi * t / eps) ** 2
            return normality_constant_lower_bound(space, [(x, np.full_like(t, eps))])

        eps = 1.0 / 8.0
        assert 1.7 <= ratio(eps / 2) / ratio(eps) <= 2.3

    def test_monotone_in_witness_set(self):
        space = l2_space(4)
        rng = np.random.default_rng(6)
        witnesses = []
        prev = 0.0
        for _ in range(20):
            y = np.abs(rng.standard_normal(4)) + 0.1
            witnesses.append((y * rng.uniform(0, 1, 4), y))
            val = normality_constant_lower_bound(space, witnesses)
            assert val >= prev - 1e-15
            prev = val

    def test_rejects_bad_witness(self):
        with pytest.raises(ValueError):
            normality_constant_lower_bound(
                l2_space(2), [(np.array([1.0, 0.0]), np.array([0.5, 1.0]))])


class TestDecompositionConstant:
    def test_l1_decomposition_is_additive(self):
        space = OrderedSpaceSpec.standard_lp(np.ones(4), 1.0)
        rng = np.random.default_rng(7)
        samples = [rng.standard_normal(4) for _ in range(10)]
        val = decomposition_constant_estimate(space, samples)
        assert abs(val - 1.0) <= 1e-9
        # brute force: no perturbed decomposition improves on (x+, x-)
        for x in samples[:3]:
            base = np.sum(np.abs(x))
            for _ in range(200):
                s = np.abs(rng.standard_normal(4))
                alt = np.sum(np.maximum(x, 0) + s) + np.sum(np.maximum(-x, 0) + s)
                assert alt >= base - 1e-12

    def test_l2_antisymmetric_vector(self):
        space = l2_space(2)
        val = decomposition_constant_estimate(space, [np.array([1.0, -1.0])])
        assert abs(val - np.sqrt(2.0)) <= 1e-7
        # 1-d scan over s >= 0 confirms s = 0 is optimal
        ss = np.linspace(0.0, 2.0, 400)
        objective = np.hypot(1.0 + ss, ss) + np.hypot(ss, 1.0 + ss)
        assert np.min(objective) >= 2.0 - 1e-12

    def test_positive_sample_contributes_one(self):
        space = l2_space(3)
        assert abs(decomposition_constant_estimate(
            space, [np.array([1.0, 2.0, 0.5])]) - 1.0) <= 1e-12

    def test_zero_samples_skipped(self):
        space = l2_space(2)
        val = decomposition_constant_estimate(
            space, [np.zeros(2), np.array([1.0, 1.0])])
        assert abs(val - 1.0) <= 1e-12
        with pytest.raises(ValueError):
            decomposition_constant_estimate(space, [np.zeros(2)])


# ---------------------------------------------------------------------------
# faces
# ---------------------------------------------------------------------------

class TestIsFace:
    def test_coordinate_subcone(self):
        gens = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert is_face(gens, PolyhedralCone.standard(3), sample_size=64).is_face

    def test_diagonal_ray_not_a_face(self):
        report = is_face(np.array([[1.0, 1.0]]), PolyhedralCone.standard(2),
                         sample_size=64)
        assert not report.is_face
        z, y = report.witness
        assert np.allclose(z, [1.0, 0.0]) and np.allclose(y, [1.0, 1.0])

    def test_whole_cone_is_a_face(self):
        assert is_face(np.eye(3), PolyhedralCone.standard(3), sample_size=64).is_face

    def test_generator_outside_ambient_rejected(self):
        with pytest.raises(ValueError):
            is_face(np.array([[1.0, -1.0]]), PolyhedralCone.standard(2))

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_every_coordinate_subcone_exhaustively(self, dim):
        ambient = PolyhedralCone.standard(dim)
        eye = np.eye(dim)
        for size in range(1, dim + 1):
            for subset in itertools.combinations(range(dim), size):
                report = is_face(eye[list(subset)], ambient, sample_size=24,
                                 seed=dim * 100 + size)
                assert report.is_face, f"subset {subset} flagged non-face"


# ---------------------------------------------------------------------------
# lattice homomorphism check
# ---------------------------------------------------------------------------

class TestLatticeHomCheck:
    def test_zero_padding_embedding(self):
        J = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        samples = [np.array([1.0, -1.0]), np.array([-2.0, 3.0])]
        assert lattice_hom_check(J, l2_space(2), samples).passed

    def test_positive_diagonal_scaling(self):
        J = np.diag([2.0, 0.5, 3.0])
        rng = np.random.default_rng(8)
        samples = [rng.standard_normal(3) for _ in range(20)]
        assert lattice_hom_check(J, l2_space(3), samples).passed

    def test_shear_fails(self):
        J = np.array([[1.0, 1.0], [0.0, 1.0]])
        report = lattice_hom_check(J, l2_space(2), [np.array([1.0, -1.0])])
        assert not report.passed
        assert report.max_defect == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# norm specifications
# ---------------------------------------------------------------------------

class TestNormSpec:
    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            NormSpec.lp(np.array([1.0, 0.0]), 2.0)

    def test_p_range_for_sobolev(self):
        domain = GridDomain.interval(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            NormSpec.sobolev(domain, 1, 1.0)
        with pytest.raises(ValueError):
            NormSpec.dual_sobolev(domain, 0, 2.0)

    def test_lp_allows_p_equal_one(self):
        spec = NormSpec.lp(np.ones(3), 1.0)
        assert spec.value(np.array([1.0, -2.0, 0.5])) == pytest.approx(3.5)

    def test_value_many_matches_value(self):
        domain = GridDomain.interval(0.0, 1.0, 6)
        rectangle = GridDomain.rectangle(0.0, 1.0, 0.0, 1.0, 5)
        rng = np.random.default_rng(9)
        X = rng.standard_normal((5, 6))
        Y = rng.standard_normal((5, 25))
        for spec, Z in ((NormSpec.lp(np.linspace(0.5, 2, 6), 3.0), X),
                        (NormSpec.sobolev(domain, 1, 2.0), X),
                        (NormSpec.dual_sobolev(domain, 1, 2.0), X),
                        (NormSpec.sobolev(domain, 1, 3.0), X),
                        (NormSpec.sobolev(rectangle, 2, 2.0), Y)):
            batch = spec.value_many(Z)
            single = np.array([spec.value(z) for z in Z])
            assert np.allclose(batch, single, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("make", [
        lambda: NormSpec.lp(np.linspace(0.5, 2, 6), 3.0),
        lambda: NormSpec.sobolev(GridDomain.interval(0.0, 1.0, 6), 1, 2.0),
        lambda: NormSpec.sobolev(GridDomain.rectangle(0.0, 1.0, 0.0, 1.0, 5), 2, 3.0),
        lambda: NormSpec.dual_sobolev(GridDomain.interval(0.0, 1.0, 6), 1, 2.0),
    ], ids=["lp-p3", "sobolev-interval-k1-p2", "sobolev-rectangle-k2-p3",
            "dual-sobolev-p2"])
    def test_grad_matches_central_differences(self, make):
        spec = make()
        x = np.random.default_rng(4).standard_normal(spec.dim)
        h = 1e-6
        fd = np.array([(spec.value(x + h * e) - spec.value(x - h * e)) / (2 * h)
                       for e in np.eye(spec.dim)])
        assert np.allclose(spec.grad(x), fd, rtol=1e-6, atol=1e-8)
        assert np.array_equal(spec.grad(np.zeros(spec.dim)), np.zeros(spec.dim))
