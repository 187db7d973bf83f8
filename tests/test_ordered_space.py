import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from latlab.cli import estimate_renorm_constants
from latlab.extrapolation import ExtrapolationSpace, neumann_laplacian_1d
from latlab.ordered_space import (
    CONE_TOL,
    DegenerateConeError,
    LP_TOL,
    NormSpec,
    OrderedSpaceSpec,
    PolyhedralCone,
    cone_generators,
    dual_cone,
    in_generated_cone,
    is_face,
    normality_constant_lower_bound,
    supremum_oracle,
    _vertices,
)
from latlab.sobolev_grid import GridDomain, negative_sobolev_norm, sobolev_norm
from latlab.span_lattice import renorm_value, span_norm


def ice_cream_cone():
    # {x : x3 >= |x1| + |x2|}, generated by (+-1, 0, 1) and (0, +-1, 1)
    return PolyhedralCone(3, np.array([
        [-1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, 1.0]]))


def l2_space(dim):
    return OrderedSpaceSpec.standard_lp(np.ones(dim), 2.0)


def seeded_cone_rows(rng, d, extra_row):
    # a strictly diagonally dominant square system (a simplicial cone), and
    # optionally one more row c @ A with a negative coefficient that cuts off
    # an extreme ray while sum(c) > 0 keeps A^{-1} 1 inside
    A = np.eye(d) + rng.uniform(-0.15, 0.15, size=(d, d)) * (1.0 - np.eye(d))
    if extra_row:
        c = rng.uniform(0.2, 1.0, size=d)
        c[rng.integers(d)] = -0.1
        A = np.vstack([A, c @ A])
    return A


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

    @pytest.mark.parametrize("ineq", [
        np.eye(4),
        2.0 * np.eye(4),
        np.eye(4)[[1, 0, 3, 2]],
        np.where(np.eye(4) == 1.0, 1.0, -0.0),
        np.array([[1.0, 0.0], [1.0, 1.0]]),
    ], ids=["identity", "twice-identity", "permuted-identity", "negative-zero-off-diagonal",
            "triangular"])
    def test_standard_test_and_membership_agree_with_the_matrix(self, ineq):
        cone = PolyhedralCone(len(ineq), ineq)
        assert cone.is_standard() == np.array_equal(ineq, np.eye(len(ineq)))
        rng = np.random.default_rng(7)
        for _ in range(200):
            # magnitudes from 1e-11 to 1, so that some entries sit at -CONE_TOL
            x = rng.standard_normal(len(ineq)) * 10.0 ** rng.integers(-11, 1, len(ineq))
            assert cone.contains(x) == bool(np.all(ineq @ x >= -CONE_TOL))

    def test_nan_off_the_diagonal_is_not_standard(self):
        # not taken as the identity, and named before the rank test, whose SVD fails on a NaN
        ineq = np.eye(3)
        ineq[0, 2] = np.nan
        with pytest.raises(ValueError, match=r"entry \(0, 2\) is nan, not finite") as info:
            PolyhedralCone(3, ineq)
        assert not isinstance(info.value, DegenerateConeError)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_inf_is_named_not_read_as_a_lineality_space(self, bad):
        ineq = np.eye(3)
        ineq[2, 0] = bad
        with pytest.raises(ValueError, match=r"entry \(2, 0\) is -?inf, not finite") as info:
            PolyhedralCone(3, ineq)
        assert not isinstance(info.value, DegenerateConeError)


    def test_standard_cone_stores_no_square_identity(self):
        tracemalloc.start()
        try:
            cone = PolyhedralCone.standard(641)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a dense 641 x 641 identity alone is 3.29 MB
        assert peak < 64 * 1024
        assert cone.is_standard() and not cone.ineq.flags.writeable
        assert np.array_equal(cone.ineq, np.eye(641))
        # the matrix it reads out builds the same cone, and so does a dense identity
        assert PolyhedralCone(641, cone.ineq).is_standard()
        assert PolyhedralCone(3, np.eye(3)).is_standard()


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


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

class TestDualCone:
    def test_standard_self_dual(self):
        dual = dual_cone(PolyhedralCone.standard(3))
        rng = np.random.default_rng(0)
        X = rng.standard_normal((500, 3))
        assert np.array_equal(np.all(X @ dual.ineq.T >= -CONE_TOL, axis=1),
                              np.all(X >= -CONE_TOL, axis=1))

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
        assert np.array_equal(np.all(X @ cone.ineq.T >= -CONE_TOL, axis=1),
                              np.all(X @ double.ineq.T >= -CONE_TOL, axis=1))


# ---------------------------------------------------------------------------
# supremum oracle
# ---------------------------------------------------------------------------

class TestVertexMinimum:
    """The vertex minimum of a linear objective against HiGHS on 50 cones."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("extra_row", [False, True], ids=["simplicial", "cut"])
    def test_matches_linprog(self, d, extra_row):
        rng = np.random.default_rng([d, extra_row])
        for _ in range(5):
            A = seeded_cone_rows(rng, d, extra_row)
            m = len(A)
            # upper bounds of x and y, with objectives A^T lam positive on the cone
            lo = np.maximum(A @ rng.standard_normal(d), A @ rng.standard_normal(d))
            V = _vertices(A, lo, np.full(m, np.inf))
            for _ in range(3):
                c = A.T @ rng.uniform(0.1, 1.0, size=m)
                res = scipy.optimize.linprog(c, A_ub=-A, b_ub=-lo,
                                             bounds=[(None, None)] * d, method="highs")
                assert res.status == 0
                assert abs(np.min(V @ c) - res.fun) <= 1e-9 * max(1.0, abs(res.fun))
            # the order interval [0, y], y inside the cone or on an extreme ray
            for y in (np.linalg.solve(A[:d], rng.uniform(1.0, 1.5, size=d)),
                      cone_generators(PolyhedralCone(d, A))[0]):
                V = _vertices(A, np.zeros(m), A @ y)
                for _ in range(3):
                    c = rng.standard_normal(d)
                    res = scipy.optimize.linprog(
                        c, A_ub=np.vstack([-A, A]), b_ub=np.concatenate([np.zeros(m), A @ y]),
                        bounds=[(None, None)] * d, method="highs")
                    assert res.status == 0
                    assert abs(np.min(V @ c) - res.fun) <= 1e-9 * max(1.0, abs(res.fun))


def per_subset_vertices(A, lo, hi):
    # one solve per full-rank subset of d rows, its right-hand sides the
    # finite bounds of its rows in itertools.product order
    m, d = A.shape
    blocks = [np.empty((0, d))]
    for rows in map(list, itertools.combinations(range(m), d)):
        finite = [[b for b in (lo[i], hi[i]) if np.isfinite(b)] for i in rows]
        if np.linalg.matrix_rank(A[rows]) < d or not all(finite):
            continue
        rhs = np.array(list(itertools.product(*finite)))
        blocks.append(np.linalg.solve(A[rows], rhs.T).T)
    V = np.concatenate(blocks)
    AV = V @ A.T
    tol = LP_TOL * (1.0 + np.abs(AV))
    return V[np.all((AV >= lo - tol) & (AV <= hi + tol), axis=1)]


class TestVertices:
    def test_free_row_pins_no_vertex(self):
        assert _vertices(np.eye(2), np.array([0.0, -np.inf]), np.array([1.0, np.inf])).shape \
            == (0, 2)

    def test_free_row_leaves_the_square_its_corners(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        V = _vertices(A, np.array([0.0, 0.0, -np.inf]), np.array([1.0, 1.0, np.inf]))
        assert V.tolist() == [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_per_subset_enumeration(self, data):
        d = data.draw(st.integers(1, 4), label="d")
        m = data.draw(st.integers(1, d + 3), label="m")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        A = rng.standard_normal((m, d))
        lo = rng.uniform(-2.0, 0.0, m)
        hi = lo + rng.uniform(0.5, 2.0, m)
        lo[data.draw(st.lists(st.booleans(), min_size=m, max_size=m), label="free lo")] = -np.inf
        hi[data.draw(st.lists(st.booleans(), min_size=m, max_size=m), label="free hi")] = np.inf
        # each subset is solved as the same system with the same right-hand
        # sides, also where rows have different numbers of finite bounds
        V, expected = _vertices(A, lo, hi), per_subset_vertices(A, lo, hi)
        assert V.shape == expected.shape and np.array_equal(V, expected)


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

    def test_simplicial_cone_closed_form(self):
        # {A s >= max(Ax, Ay)} has the single vertex A^{-1} max(Ax, Ay)
        rng = np.random.default_rng(5)
        A = seeded_cone_rows(rng, 4, extra_row=False)
        space = OrderedSpaceSpec(4, PolyhedralCone(4, A), NormSpec.lp(np.ones(4), 2.0))
        for _ in range(20):
            x, y = rng.standard_normal((2, 4))
            expected = np.linalg.solve(A, np.maximum(A @ x, A @ y))
            assert np.allclose(supremum_oracle(space, x, y), expected, rtol=0.0, atol=1e-12)

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

    @staticmethod
    def _per_pair_bound(space, witnesses):
        # the reference: one pair at a time, through contains and the scalar value
        best = 0.0
        for x, y in witnesses:
            assert space.cone.contains(x) and space.cone.contains(y - x)
            best = max(best, space.norm.value(x) / space.norm.value(y))
        return best

    @pytest.mark.parametrize("make", [
        lambda: OrderedSpaceSpec.standard_lp(np.linspace(0.5, 2.0, 6), 3.0),
        lambda: OrderedSpaceSpec.standard_sobolev(GridDomain.interval(0.0, 1.0, 6), 1, 2.0),
        lambda: OrderedSpaceSpec(3, ice_cream_cone(), NormSpec.lp(np.ones(3), 2.0)),
    ], ids=["lp", "w12", "ice-cream-cone"])
    def test_batched_bound_matches_the_per_pair_loop(self, make):
        space = make()
        G = cone_generators(space.cone)
        rng = np.random.default_rng(11)
        witnesses = []
        for _ in range(40):
            x = rng.uniform(0.0, 1.0, len(G)) @ G
            witnesses.append((x, x + rng.uniform(0.0, 1.0, len(G)) @ G))
        batched = normality_constant_lower_bound(space, witnesses)
        expected = self._per_pair_bound(space, witnesses)
        assert abs(batched - expected) <= 1e-15 * expected

    def test_each_error_names_its_defect(self):
        space = OrderedSpaceSpec(3, ice_cream_cone(), NormSpec.lp(np.ones(3), 2.0))
        good = (np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 2.0]))
        outside = np.array([1.0, 0.0, 0.5])  # x3 < |x1|
        for defect, pair in (("not in the cone", (outside, 2.0 * good[1])),
                             ("violates x <= y", (good[1], good[0])),
                             ("must be nonzero", (np.zeros(3), np.zeros(3)))):
            with pytest.raises(ValueError, match=defect):
                normality_constant_lower_bound(space, [good, pair])
        with pytest.raises(ValueError, match="at least one"):
            normality_constant_lower_bound(space, [])


class TestDecompositionConstant:
    def test_l1_decomposition_is_additive(self):
        space = OrderedSpaceSpec.standard_lp(np.ones(4), 1.0)
        rng = np.random.default_rng(7)
        samples = [rng.standard_normal(4) for _ in range(10)]
        val = estimate_renorm_constants(space, samples)[1]
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
        val = estimate_renorm_constants(space, [np.array([1.0, -1.0])])[1]
        assert abs(val - np.sqrt(2.0)) <= 1e-7
        # 1-d scan over s >= 0 confirms s = 0 is optimal
        ss = np.linspace(0.0, 2.0, 400)
        objective = np.hypot(1.0 + ss, ss) + np.hypot(ss, 1.0 + ss)
        assert np.min(objective) >= 2.0 - 1e-12

    def test_zero_sample_is_skipped(self):
        space = l2_space(2)
        with_zero = estimate_renorm_constants(space, [np.zeros(2), np.ones(2)])
        assert with_zero[:2] == estimate_renorm_constants(space, [np.ones(2)])[:2]
        assert with_zero[2][0] == (0.0, 0.0)
        with pytest.raises(ValueError, match="all samples were zero"):
            estimate_renorm_constants(space, [np.zeros(2)])

    def test_positive_sample_contributes_one(self):
        space = l2_space(3)
        assert abs(estimate_renorm_constants(
            space, [np.array([1.0, 2.0, 0.5])])[1] - 1.0) <= 1e-12


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
        assert np.all(z >= -LP_TOL) and np.all(z <= y + LP_TOL)
        assert not in_generated_cone(np.array([[1.0, 1.0]]), z)

    def test_whole_cone_is_a_face(self):
        assert is_face(np.eye(3), PolyhedralCone.standard(3), sample_size=64).is_face

    def test_generator_outside_ambient_rejected(self):
        with pytest.raises(ValueError):
            is_face(np.array([[1.0, -1.0]]), PolyhedralCone.standard(2))

    def test_ice_cream_extreme_ray_is_a_face(self):
        report = is_face(np.array([[1.0, 0.0, 1.0]]), ice_cream_cone(), sample_size=64)
        assert report.is_face and report.samples_checked == 64

    def test_ice_cream_axis_ray_not_a_face(self):
        cone = ice_cream_cone()
        report = is_face(np.array([[0.0, 0.0, 1.0]]), cone, sample_size=64)
        assert not report.is_face
        z, y = report.witness
        A = cone.ineq
        assert np.all(A @ z >= -LP_TOL) and np.all(A @ z <= A @ y + LP_TOL)
        assert not in_generated_cone(np.array([[0.0, 0.0, 1.0]]), z)

    def test_rank_deficient_ambient_rejected(self):
        # four rows in R^3 that all vanish on the x3 axis
        A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [1.0, -1.0, 0.0]])
        with pytest.raises(DegenerateConeError):
            PolyhedralCone(3, A)

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

    @pytest.mark.parametrize("kind, k, p", [
        ("sobolev", 1, 1.0), ("sobolev", 1, np.inf), ("sobolev", -1, 2.0), ("sobolev", 7, 2.0),
        ("dual_sobolev", 0, 2.0), ("dual_sobolev", 1, 0.5), ("dual_sobolev", 7, 3.0),
    ])
    def test_each_argument_rule_has_one_message(self, kind, k, p):
        # the norm specification says what the scalar norm would say
        domain = GridDomain.interval(0.0, 1.0, 8)
        scalar = sobolev_norm if kind == "sobolev" else negative_sobolev_norm
        with pytest.raises(ValueError) as direct:
            scalar(domain, k, p, np.ones(8))
        with pytest.raises(ValueError, match=f"^{re.escape(str(direct.value))}$"):
            getattr(NormSpec, kind)(domain, k, p)

    @pytest.mark.parametrize("make, monotone", [
        (lambda: NormSpec.lp(np.linspace(0.5, 2, 6), 1.0), True),
        (lambda: NormSpec.lp(np.linspace(0.5, 2, 6), 3.0), True),
        (lambda: NormSpec.sobolev(GridDomain.interval(0.0, 1.0, 6), 0, 3.0), True),
        (lambda: NormSpec.sobolev(GridDomain.interval(0.0, 1.0, 6), 1, 2.0), False),
        (lambda: NormSpec.dual_sobolev(GridDomain.torus(1.0, 6), 1, 2.0), True),
        (lambda: NormSpec.dual_sobolev(GridDomain.interval(0.0, 1.0, 6), 1, 3.0), False),
        (lambda: NormSpec.dual_sobolev(GridDomain.interval(0.0, 8.0, 128), 2, 2.0), False),
    ], ids=["lp-p1", "lp-p3", "sobolev-k0", "sobolev-k1", "dual-torus-k1",
            "dual-k1-p3", "dual-k2-long-interval"])
    def test_monotone_certificate(self, make, monotone):
        assert make().monotone is monotone

    @pytest.mark.parametrize("make", [
        lambda: NormSpec.sobolev(GridDomain.interval(0.0, 1.0, 642), 1, 300.0),
        lambda: NormSpec.lp(np.array([1.0, np.inf]), 2.0),
    ], ids=["sobolev-overflow", "lp-infinite-weight"])
    def test_non_finite_norm_fails_its_sampled_checks(self, make):
        # inf - 2 inf is NaN and inf > inf + inf is False: without the
        # finiteness check both sampled checks would pass on inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="norm is not finite on a sample"):
                make()

    @pytest.mark.parametrize("make", [
        lambda: NormSpec.lp(np.linspace(0.5, 2.0, 10), 3.0),
        lambda: NormSpec.sobolev(GridDomain.interval(0.0, 1.0, 8), 1, 2.0),
        lambda: NormSpec.sobolev(GridDomain.rectangle(0.0, 1.0, 0.0, 1.0, 5), 2, 3.0),
        lambda: NormSpec.dual_sobolev(GridDomain.interval(0.0, 1.0, 10), 1, 2.0),
    ], ids=["lp", "sobolev-interval", "sobolev-rectangle", "dual-sobolev"])
    def test_construction_checks_in_one_batch(self, make, monkeypatch):
        calls = {"value": 0, "value_many": 0}

        def counted(name):
            method = getattr(NormSpec, name)

            def wrapper(self, x):
                calls[name] += 1
                return method(self, x)
            return wrapper

        for name in calls:
            monkeypatch.setattr(NormSpec, name, counted(name))
        make()
        assert calls == {"value": 0, "value_many": 1}

    @pytest.mark.parametrize("kind", ["sobolev", "dual_sobolev"])
    def test_order_above_the_grid_fails_at_construction(self, kind):
        domain = GridDomain.interval(0.0, 1.0, 5)
        make = getattr(NormSpec, kind)
        make(domain, 3, 2.0)
        with pytest.raises(ValueError, match="order k=4 too large for 5-point grid"):
            make(domain, 4, 2.0)

    def test_lp_allows_p_equal_one(self):
        spec = NormSpec.lp(np.ones(3), 1.0)
        assert spec.value(np.array([1.0, -2.0, 0.5])) == pytest.approx(3.5)

    def test_value_many_matches_value(self):
        # bit for bit, on 200 rows of each norm at scales 1e-3 to 1e3: a last
        # bit differs on a few percent of them unless a vector is a stack of one
        interval = GridDomain.interval(0.0, 1.0, 6)
        rectangle = GridDomain.rectangle(0.0, 1.0, 0.0, 1.0, 5)
        specs = [NormSpec.lp(np.linspace(0.5, 2, 6), p) for p in (1.5, 2.0, 3.0)]
        specs += [NormSpec.sobolev(interval, 1, p) for p in (1.5, 2.0, 3.0)]
        specs += [NormSpec.sobolev(rectangle, 2, p) for p in (1.5, 2.0, 3.0)]
        specs += [NormSpec.dual_sobolev(domain, 1, 2.0) for domain in (interval, rectangle)]
        rng = np.random.default_rng(9)
        for spec in specs:
            Z = rng.standard_normal((200, spec.dim)) * 10.0 ** rng.uniform(-3, 3, (200, 1))
            single = np.array([spec.value(z) for z in Z])
            assert np.array_equal(spec.value_many(Z), single), (spec.kind, spec.p, spec.dim)

    @pytest.mark.parametrize("make", [
        lambda: NormSpec.sobolev(GridDomain.interval(0.0, 1.0, 6), 1, 2.0),
        lambda: NormSpec.sobolev(GridDomain.rectangle(0.0, 1.0, 0.0, 1.0, 5), 2, 3.0),
        lambda: NormSpec.dual_sobolev(GridDomain.interval(0.0, 1.0, 6), 1, 2.0),
    ], ids=["sobolev-interval-k1-p2", "sobolev-rectangle-k2-p3",
            "dual-sobolev-p2"])
    def test_grad_matches_central_differences(self, make):
        spec = make()
        x = np.random.default_rng(4).standard_normal(spec.dim)
        h = 1e-6
        fd = np.array([(spec.value(x + h * e) - spec.value(x - h * e)) / (2 * h)
                       for e in np.eye(spec.dim)])
        assert np.allclose(spec.grad(x), fd, rtol=1e-6, atol=1e-8)
        assert np.array_equal(spec.grad(np.zeros(spec.dim)), np.zeros(spec.dim))
        fd_hess = np.array([(spec.grad(x + h * e) - spec.grad(x - h * e)) / (2 * h)
                            for e in np.eye(spec.dim)])
        assert np.allclose(spec.hess(x), fd_hess, rtol=1e-5, atol=1e-7)
        assert np.array_equal(spec.hess(np.zeros(spec.dim)), np.zeros((spec.dim, spec.dim)))

    @pytest.mark.parametrize("make", [
        lambda: NormSpec.sobolev(GridDomain.interval(0.0, 1.0, 8), 1, 2.0),
        lambda: NormSpec.sobolev(GridDomain.interval(0.0, 1.0, 8), 1, 1.5),
        lambda: NormSpec.sobolev(GridDomain.rectangle(0.0, 1.0, 0.0, 1.0, 5), 2, 3.0),
        lambda: NormSpec.dual_sobolev(GridDomain.interval(0.0, 1.0, 6), 1, 2.0),
    ], ids=["sobolev-interval-k1-p2", "sobolev-interval-k1-p1.5",
            "sobolev-rectangle-k2-p3", "dual-sobolev-p2"])
    def test_stacked_derivatives_equal_one_vector_ones(self, make):
        spec = make()
        rng = np.random.default_rng(12)
        X = rng.standard_normal((5, spec.dim)) * 10.0 ** rng.uniform(-3, 3, (5, 1))
        X[2] = 0.0  # the origin, where both are 0
        G, H = spec.grad(X), spec.hess(X)
        assert G.shape == X.shape and H.shape == (5, spec.dim, spec.dim)
        for x, g, hx in zip(X, G, H):
            assert np.array_equal(g, spec.grad(x)) and np.array_equal(hx, spec.hess(x))
        # each row of a stack, scaled to max 1, against central differences
        Z = X[[0, 1, 3]] / np.abs(X[[0, 1, 3]]).max(axis=1, keepdims=True)
        E, h = 1e-6 * np.eye(spec.dim), 1e-6
        for z, g, hz in zip(Z, spec.grad(Z), spec.hess(Z)):
            fd = (spec.value_many(z + E) - spec.value_many(z - E)) / (2 * h)
            assert np.allclose(g, fd, rtol=1e-6, atol=1e-8)
            fd_hess = (spec.grad(z + E) - spec.grad(z - E)) / (2 * h)
            assert np.allclose(hz, fd_hess, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("make", [
        lambda: NormSpec.lp(np.linspace(0.5, 2.0, 6), 3.0),
        lambda: NormSpec.sobolev(GridDomain.interval(0.0, 1.0, 6), 1, 2.0),
        lambda: NormSpec.dual_sobolev(GridDomain.interval(0.0, 1.0, 6), 1, 2.0),
    ], ids=["lp", "sobolev", "dual-sobolev"])
    def test_stacks_of_the_wrong_width_are_rejected(self, make):
        spec = make()
        derivatives = (spec.grad, spec.hess) if spec.kind != "lp" else ()
        for X in (np.ones((3, 1)), np.ones((3, spec.dim + 1)), np.ones(spec.dim - 1),
                  np.ones((2, 3, spec.dim))):
            for method in (spec.value_many, *derivatives):
                with pytest.raises(ValueError, match=f"^expected vectors of length {spec.dim}$"):
                    method(X)

    def test_lp_grad_raises(self):
        # span_norm differentiates only norms not certified monotone; lp always is
        spec = NormSpec.lp(np.linspace(0.5, 2, 6), 3.0)
        assert spec.monotone
        x = np.random.default_rng(4).standard_normal(spec.dim)
        for derivative in (spec.grad, spec.hess):
            with pytest.raises(NotImplementedError, match="certified monotone"):
                derivative(x)

    def test_dual_grad_needs_p_two(self):
        spec = NormSpec.dual_sobolev(GridDomain.interval(0.0, 1.0, 6), 1, 3.0)
        x = np.random.default_rng(5).standard_normal(spec.dim)
        for point in (x, np.zeros(spec.dim)):
            for derivative in (spec.grad, spec.hess):
                with pytest.raises(NotImplementedError, match="p = 2"):
                    derivative(point)


def _array_holders():
    # one fresh instance of each frozen dataclass that holds an array or a spec
    space = OrderedSpaceSpec.standard_sobolev(GridDomain.interval(0.0, 1.0, 8), 1, 2.0)
    x = np.sin(np.arange(1.0, 9.0) * 2.1)
    gen = neumann_laplacian_1d(8, 1.0 / 7.0)
    return [space.cone, space.norm, space, gen, ExtrapolationSpace(space, gen, lam=1.0),
            span_norm(space, x), renorm_value(space, x),
            is_face(np.eye(3), PolyhedralCone.standard(3), sample_size=8)]


def test_array_holders_compare_by_identity():
    # value equality would compare arrays and raise; the grid domain keeps it,
    # since it keys the lru_caches of the difference operators
    for a, b in zip(_array_holders(), _array_holders()):
        assert type(a) is type(b)
        assert a == a and a != b
        assert len({a, a, b}) == 2
    assert GridDomain.interval(0, 1, 8) == GridDomain.interval(0, 1, 8)
    assert len({GridDomain.interval(0, 1, 8), GridDomain.interval(0, 1, 8)}) == 1
