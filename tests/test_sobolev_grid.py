import itertools
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from latlab import sobolev_grid
from latlab.sobolev_grid import (
    ChartError,
    GridDomain,
    GridTooCoarseError,
    PushinOperator,
    build_boundary_chart,
    bump,
    default_chart_cover,
    diff_operator,
    mollifier_weights,
    mollify,
    multi_indices,
    negative_sobolev_norm,
    positive_dominant_w0,
    sobolev_norm,
    stacked_diff_operator,
    stiffness_inverse_nonnegative,
)


# ---------------------------------------------------------------------------
# domains and grid vectors
# ---------------------------------------------------------------------------

class TestGridDomain:
    def test_too_few_points(self):
        with pytest.raises(ValueError):
            GridDomain.interval(0.0, 1.0, 3)

    def test_spacing_conventions(self):
        assert GridDomain.interval(0.0, 1.0, 11).h == pytest.approx(0.1)
        assert GridDomain.torus(1.0, 10).h == pytest.approx(0.1)

    def test_rectangle_nodes(self):
        dom = GridDomain.rectangle(0.0, 1.0, 2.0, 3.0, 5)
        pts = dom.points()
        assert pts.shape == (25, 2)
        assert dom.node_count == 25

    def test_rectangle_points_row_major(self):
        dom = GridDomain.rectangle(0.0, 1.0, 2.0, 3.0, 5)
        xs, ys = np.linspace(0.0, 1.0, 5), np.linspace(2.0, 3.0, 5)
        expected = np.array([(x, y) for x in xs for y in ys])
        np.testing.assert_array_equal(dom.points(), expected)

    def test_rectangle_with_unequal_sides_rejected(self):
        with pytest.raises(ValueError, match="one spacing h serves every axis"):
            GridDomain.rectangle(0, 1, 0, 2, 5)

    def test_value_count_mismatch(self):
        with pytest.raises(ValueError, match="^expected vectors of length 5$"):
            sobolev_norm(GridDomain.interval(0, 1, 5), 1, 2.0, np.zeros(4))

    def test_contains_takes_points_of_width_d(self):
        rect, interval = GridDomain.rectangle(0, 1, 0, 1, 8), GridDomain.interval(0, 1, 8)
        assert rect.contains(np.array([[0.5, 0.5], [0.5, 1.5]])).tolist() == [True, False]
        with pytest.raises(ValueError, match="^expected vectors of length 2$"):
            rect.contains(np.array([0.5]))
        with pytest.raises(ValueError, match="^expected vectors of length 1$"):
            interval.contains(np.full((2, 2), 0.5))


# ---------------------------------------------------------------------------
# Sobolev norms
# ---------------------------------------------------------------------------

class TestSobolevNorm:
    def test_zero(self):
        dom = GridDomain.interval(0.0, 1.0, 8)
        assert sobolev_norm(dom, 1, 2.0, np.zeros(8)) == 0.0

    def test_constant_on_torus(self):
        dom = GridDomain.torus(1.0, 16)
        f = np.full(16, 3.0)
        for p in (1.5, 2.0, 3.0):
            # difference term vanishes exactly; measure is the full period
            assert sobolev_norm(dom, 1, p, f) == pytest.approx(3.0, abs=1e-12)

    def test_linear_function_closed_form(self):
        dom = GridDomain.interval(0.0, 1.0, 64)
        t = dom.axis(0)
        val = sobolev_norm(dom, 1, 2.0, t)
        assert abs(val - np.sqrt(1.0 / 3.0 + 1.0)) <= 2 * dom.h

    def test_order_too_large(self):
        dom = GridDomain.interval(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            sobolev_norm(dom, 3, 2.0, np.zeros(4))

    def test_rectangle_mixed_indices(self):
        dom = GridDomain.rectangle(0.0, 1.0, 0.0, 1.0, 8)
        f = np.ones(64)
        # constants keep only the order-zero term
        assert sobolev_norm(dom, 2, 2.0, f) == pytest.approx(1.0 * (dom.h * 8 / (dom.h * 8)),
                                                        rel=0.3)

    def test_stacked_kernel_matches_multi_index_sum(self):
        # the definition: p-sum over every D^alpha with |alpha| <= k
        dom = GridDomain.rectangle(0.0, 1.0, 0.0, 1.0, 6)
        f = np.random.default_rng(5).standard_normal(36)
        for k, p in ((1, 2.0), (2, 3.0)):
            total = sum(np.sum(np.abs(diff_operator(dom, alpha) @ f) ** p)
                        for alpha in multi_indices(k, 2))
            expected = (dom.cell_measure * total) ** (1.0 / p)
            assert sobolev_norm(dom, k, p, f) == pytest.approx(
                expected, rel=1e-14)


    @pytest.mark.parametrize("periodic", [False, True], ids=["bounded", "periodic"])
    @pytest.mark.parametrize("n", [3, 4, 8, 513])
    def test_diff_1d_is_the_dense_forward_difference(self, n, periodic):
        h = 1.0 / 7.0
        step = 1.0 / h
        dense = np.zeros((n, n))
        for i in range(n - 1):
            dense[i, i], dense[i, i + 1] = -step, step
        if periodic:
            dense[n - 1, n - 1], dense[n - 1, 0] = -step, step
        else:
            dense[n - 1, n - 2], dense[n - 1, n - 1] = -step, step
        D = sobolev_grid._diff_1d(n, h, periodic)
        assert isinstance(D, scipy.sparse.csr_matrix) and D.shape == (n, n)
        assert np.array_equal(D.toarray(), dense)
        assert D.nnz == 2 * n and np.all(D.data != 0.0)
        assert D.has_sorted_indices
        for row in np.split(D.indices, D.indptr[1:-1]):
            assert np.all(np.diff(row) > 0)

    def test_rectangle_diff_operator_is_kron_of_dense_powers(self):
        dom = GridDomain.rectangle(0.0, 1.0, 0.0, 1.0, 7)
        n, h = dom.n, dom.h
        D1 = (np.eye(n, k=1) - np.eye(n)) / h
        D1[n - 1, n - 2:] = (-1.0 / h, 1.0 / h)
        for a, b in itertools.product(range(3), repeat=2):
            if a + b > 2:
                continue
            expected = np.kron(np.linalg.matrix_power(D1, a),
                               np.linalg.matrix_power(D1, b))
            np.testing.assert_allclose(diff_operator(dom, (a, b)).toarray(), expected,
                                       rtol=1e-14, atol=0.0)


class TestNegativeSobolevNorm:
    def test_zero(self):
        dom = GridDomain.interval(0.0, 1.0, 8)
        assert negative_sobolev_norm(dom, 1, 2.0, np.zeros(8)) == 0.0

    def test_torus_constant_equals_l2_norm(self):
        dom = GridDomain.torus(1.0, 32)
        g = np.ones(32)
        # constants are in the kernel of D, so the optimizer is f = const
        assert negative_sobolev_norm(dom, 1, 2.0, g) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("p,q", [(2.0, 2.0), (3.0, 1.5)])
    def test_spike_against_ascent_oracle(self, p, q):
        dom = GridDomain.interval(0.0, 1.0, 24)
        g = np.zeros(24)
        g[10] = 1.0
        val = negative_sobolev_norm(dom, 1, p, g)
        h = dom.h

        def neg_ratio(f):
            nf = sobolev_norm(dom, 1, q, f)
            return -h * np.dot(f, g) / nf if nf > 0 else 0.0

        rng = np.random.default_rng(3)
        best = max((rng.standard_normal(24) for _ in range(200)),
                   key=lambda f: -neg_ratio(f))
        res = scipy.optimize.minimize(neg_ratio, best, method="BFGS",
                                      options={"maxiter": 5000, "gtol": 1e-14})
        assert val == pytest.approx(-res.fun, rel=1e-6)

    def test_requires_positive_order(self):
        dom = GridDomain.interval(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            negative_sobolev_norm(dom, 0, 2.0, np.ones(8))


def _dense_stiffness(domain, k):
    S, _ = stacked_diff_operator(domain, k)
    return (S.T @ S).toarray()


class TestStiffnessCertificate:
    @pytest.mark.parametrize("domain", [
        GridDomain.interval(0.0, 1.0, 10), GridDomain.interval(0.0, 8.0, 128),
        GridDomain.torus(1.0, 64), GridDomain.rectangle(0.0, 1.0, 0.0, 1.0, 8),
    ], ids=["interval-n10", "interval-8-n128", "torus-n64", "rectangle-n8"])
    def test_first_order_certified_and_inverse_nonnegative(self, domain):
        assert stiffness_inverse_nonnegative(domain, 1)
        assert np.linalg.inv(_dense_stiffness(domain, 1)).min() >= 0.0

    def test_second_order_on_a_long_interval_rejected(self):
        domain = GridDomain.interval(0.0, 8.0, 128)
        assert not stiffness_inverse_nonnegative(domain, 2)
        assert np.linalg.inv(_dense_stiffness(domain, 2)).min() < 0.0

    @pytest.mark.parametrize("domain", [
        GridDomain.interval(0.0, 1.0, 10), GridDomain.interval(0.0, 8.0, 128),
        GridDomain.torus(1.0, 16), GridDomain.rectangle(0.0, 1.0, 0.0, 1.0, 6),
    ], ids=["interval-n10", "interval-8-n128", "torus-n16", "rectangle-n6"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_margins_from_the_csr_arrays_match_the_dense_formula(self, domain, k):
        K = sobolev_grid.stiffness(domain, k)
        assert K.has_canonical_format
        z_matrix, margin, rounding = sobolev_grid._m_matrix_margins(K)
        D = K.toarray()
        diag = np.diag(D)
        off = D - np.diag(diag)
        row_abs = np.abs(D).sum(axis=1)
        assert z_matrix == (off.max() <= 0.0)
        assert np.array_equal(margin, 2.0 * diag - row_abs)
        eps = np.finfo(float).eps
        assert np.array_equal(rounding, np.count_nonzero(D, axis=1) * eps * row_abs)
        assert stiffness_inverse_nonnegative.__wrapped__(domain, k) == bool(
            z_matrix and np.all(diag > 0.0) and np.all(2.0 * diag - row_abs > rounding))

    def test_margins_of_empty_rows_are_zero(self):
        # an empty row sums to 0, not to the first entry of the next row
        K = scipy.sparse.csr_matrix(np.array([[0.0, 0.0, 0.0], [0.0, 3.0, -1.0], [0.0, 0.0, 0.0]]))
        z_matrix, margin, rounding = sobolev_grid._m_matrix_margins(K)
        assert z_matrix
        assert np.array_equal(margin, [0.0, 2.0, 0.0])
        assert np.array_equal(rounding, [0.0, 2 * np.finfo(float).eps * 4.0, 0.0])

    # K = S^T S of each S: strictly dominant with a positive off-diagonal entry
    # (K^{-1} has a negative entry), and a singular Z-matrix with no margin
    @pytest.mark.parametrize("S", [[[1.0, 0.1], [0.0, 1.0]], [[1.0, -1.0], [-1.0, 1.0]]],
                             ids=["dominant-not-z", "z-not-dominant"])
    def test_each_condition_is_needed(self, S, monkeypatch):
        S = scipy.sparse.csr_matrix(np.array(S))
        # the fake K replaces the cached stiffness for this call alone
        monkeypatch.setattr(sobolev_grid, "stiffness", lambda domain, k: (S.T @ S).tocsr())
        domain = GridDomain.interval(0.0, 1.0, 4)
        assert not stiffness_inverse_nonnegative.__wrapped__(domain, 1)


# ---------------------------------------------------------------------------
# mollifiers
# ---------------------------------------------------------------------------

class TestMollify:
    def test_bump_integral_one(self):
        t = np.linspace(-1.5, 1.5, 30001)
        assert scipy.integrate.trapezoid(bump(t), t) == pytest.approx(1.0, abs=1e-8)

    def test_bump_normalizer_is_the_quadrature(self):
        integral, err = scipy.integrate.quad(
            lambda t: math.exp(-1.0 / (1.0 - t * t)) if abs(t) < 1 else 0.0, -1.0, 1.0)
        assert err <= 1e-9
        assert sobolev_grid._BUMP_NORMALIZER == pytest.approx(1.0 / integral, rel=1e-15)

    def test_kernel_weights_normalized(self):
        w = mollifier_weights(0.1, 0.01)
        assert w.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.all(w > 0)

    def test_constant_fixed_exactly_on_torus(self):
        dom = GridDomain.torus(1.0, 64)
        out = mollify(dom, 0.1, np.full(64, 2.5))
        assert np.max(np.abs(out - 2.5)) <= 1e-12

    def test_positivity(self):
        dom = GridDomain.torus(1.0, 64)
        rng = np.random.default_rng(0)
        f = np.abs(rng.standard_normal(64))
        assert np.all(mollify(dom, 0.1, f) >= 0)

    @pytest.mark.parametrize("delta", [0.1, 0.05, 0.025])
    def test_lipschitz_bound(self, delta):
        dom = GridDomain.torus(1.0, 128)
        t = dom.axis(0)
        f = np.abs(t - 0.5)  # Lipschitz constant 1
        err = np.max(np.abs(mollify(dom, delta, f) - f))
        assert err <= delta

    def test_second_order_rate(self):
        dom = GridDomain.torus(1.0, 128)
        t = dom.axis(0)
        f = np.sin(2 * np.pi * t) + 0.5 * np.cos(4 * np.pi * t)
        errs = [np.max(np.abs(mollify(dom, d, f) - f))
                for d in (0.1, 0.05, 0.025)]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8

    def test_scale_below_grid_rejected(self):
        dom = GridDomain.torus(1.0, 16)
        with pytest.raises(GridTooCoarseError):
            mollify(dom, 0.05, np.ones(16))

    def test_rectangle_separable(self):
        dom = GridDomain.rectangle(0.0, 1.0, 0.0, 1.0, 32)
        rng = np.random.default_rng(1)
        f = np.abs(rng.standard_normal(dom.node_count))
        assert np.all(mollify(dom, 0.1, f) >= 0)

    def test_rectangle_matches_zero_padded_double_sum(self):
        dom = GridDomain.rectangle(0.0, 1.0, 0.0, 1.0, 20)
        f = np.random.default_rng(4).standard_normal((dom.n, dom.n))
        w = mollifier_weights(0.2, dom.h)
        m = len(w) // 2
        padded = np.pad(f, m)
        expected = np.zeros_like(f)
        for i, j in itertools.product(range(dom.n), repeat=2):
            for s, t in itertools.product(range(-m, m + 1), repeat=2):
                expected[i, j] += w[s + m] * w[t + m] * padded[i + m - s, j + m - t]
        # a rectangle's grid vector is its (n, n) grid flattened row-major
        out = mollify(dom, 0.2, f.ravel()).reshape(dom.n, dom.n)
        np.testing.assert_allclose(out, expected, rtol=1e-13)


# ---------------------------------------------------------------------------
# boundary charts
# ---------------------------------------------------------------------------

class TestBoundaryChart:
    def test_interior_compression_example(self):
        dom = GridDomain.interval(0.0, 1.0, 64)
        chart = build_boundary_chart(dom, [0.5], r=0.25, ns=(2,))
        lo, hi = chart.image_box(2, dom)
        assert lo[0] == pytest.approx(0.375) and hi[0] == pytest.approx(0.625)

    def test_left_endpoint_map_coefficients(self):
        dom = GridDomain.interval(0.0, 1.0, 64)
        r = 0.4
        chart = build_boundary_chart(dom, [0.0], r=r, ns=(2,))
        B, b = chart.matrix(2)
        assert B[0] == pytest.approx(0.5) and b[0] == pytest.approx(r / 8.0)
        # V = (-r/4, 3r/4) and c = r/4 as in the flat-boundary construction
        assert chart.v_lo[0] == pytest.approx(-r / 4.0)
        assert chart.v_hi[0] == pytest.approx(3.0 * r / 4.0)
        assert chart.c[0] == pytest.approx(r / 4.0)

    def test_maps_converge_to_identity(self):
        dom = GridDomain.interval(0.0, 1.0, 64)
        chart = build_boundary_chart(dom, [0.0], r=0.4, ns=(2, 1024))
        B, b = chart.matrix(1024)
        assert abs(B[0] - 1.0) <= 1e-3 and abs(b[0]) <= 1e-3

    def test_square_edge_chart_containment(self):
        dom = GridDomain.rectangle(0.0, 1.0, 0.0, 1.0, 16)
        chart = build_boundary_chart(dom, [0.5, 0.0], r=0.4, ns=(2, 4, 8))
        rng = np.random.default_rng(5)
        lo = np.maximum(chart.v_lo, dom.lo)
        hi = np.minimum(chart.v_hi, dom.hi)
        pts = rng.uniform(lo, hi, size=(10_000, 2))
        for n in (2, 4, 8):
            img = chart.apply(n, pts)
            assert np.all((img > dom.lo) & (img < dom.hi))

    def test_square_corner_chart(self):
        dom = GridDomain.rectangle(0.0, 1.0, 0.0, 1.0, 16)
        chart = build_boundary_chart(dom, [0.0, 0.0], r=0.4, ns=(2, 4))
        assert chart.compress == (True, True)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_certified_chart_maps_samples_inside(self, data):
        # endpoints, corners, edge points and interior points of the unit
        # interval and the unit square
        d = data.draw(st.sampled_from([1, 2]), label="d")
        coord = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
        x0 = [data.draw(coord, label=f"x0[{i}]") for i in range(d)]
        r = data.draw(st.floats(0.0, 0.9, exclude_min=True, exclude_max=True), label="r")
        dom = (GridDomain.interval(0.0, 1.0, 16) if d == 1
               else GridDomain.rectangle(0.0, 1.0, 0.0, 1.0, 16))
        ns = (2, 4, 8, 16, 32)
        try:
            chart = build_boundary_chart(dom, x0, r=r, ns=ns)
        except ChartError:
            return
        lo = np.maximum(chart.v_lo, dom.lo)
        hi = np.minimum(chart.v_hi, dom.hi)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        pts = np.clip(rng.uniform(lo, hi, size=(2000, d)), lo, hi)
        for n in ns:
            img = chart.apply(n, pts)
            assert np.all((img > dom.lo) & (img < dom.hi)), n
            # the per-axis maps round as the broadcast formulas do
            B, b = chart.matrix(n)
            assert np.array_equal(img, pts * B + b)
            assert np.array_equal(chart.apply_inverse(n, pts), (pts - b) / B)

    def test_image_touching_the_boundary_rejected(self):
        dom = GridDomain.rectangle(0.0, 1.0, 0.0, 1.0, 16)
        with pytest.raises(ChartError, match="image closure touches the boundary at n=2"):
            build_boundary_chart(dom, [0.05, 0.0], r=0.4)

    def test_center_outside_rejected(self):
        dom = GridDomain.interval(0.0, 1.0, 16)
        with pytest.raises(ChartError):
            build_boundary_chart(dom, [1.5])

    def test_torus_has_no_charts(self):
        with pytest.raises(ChartError):
            build_boundary_chart(GridDomain.torus(1.0, 16), [0.5])


# ---------------------------------------------------------------------------
# push-in operators
# ---------------------------------------------------------------------------

class TestPushin:
    def test_support_strictly_inside(self):
        dom = GridDomain.interval(0.0, 1.0, 257)
        op = PushinOperator(dom, 4)
        support = np.nonzero(op.matrix @ np.ones(257))[0]
        pts = dom.points()[support]
        assert np.all((pts > 0.0) & (pts < 1.0))
        assert np.all(op.node_in_k(pts))

    def test_vanishes_outside_k_exactly(self):
        rng = np.random.default_rng(2)
        for dom in (GridDomain.interval(0.0, 1.0, 257),
                    GridDomain.rectangle(0.0, 1.0, 0.0, 1.0, 32)):
            for n in (2, 4, 8):
                op = PushinOperator(dom, n)
                outside = ~op.node_in_k(dom.points())
                assert outside.any()
                for _ in range(5):
                    f = rng.standard_normal(dom.node_count)
                    assert np.max(np.abs((op.matrix @ f)[outside])) == 0.0

    def test_positivity(self):
        dom = GridDomain.interval(0.0, 1.0, 129)
        op = PushinOperator(dom, 2)
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = np.abs(rng.standard_normal(129))
            assert np.min(op.matrix @ f) >= 0.0

    def test_lp_error_decreases(self):
        dom = GridDomain.interval(0.0, 1.0, 513)
        t = dom.axis(0)
        f = np.sin(np.pi * t)
        errs = []
        for n in (2, 4, 8, 16):
            op = PushinOperator(dom, n)
            errs.append(sobolev_norm(dom, 0, 2.0, op.matrix @ f - f))
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_sobolev_error_decreases_for_compact_support(self):
        dom = GridDomain.interval(0.0, 1.0, 513)
        t = dom.axis(0)
        f = np.sin(np.pi * t) ** 4  # vanishes to high order
        errs = []
        for n in (2, 4, 8, 16):
            op = PushinOperator(dom, n)
            errs.append(sobolev_norm(dom, 1, 2.0, op.matrix @ f - f))
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_torus_rejected(self):
        with pytest.raises(ValueError):
            PushinOperator(GridDomain.torus(1.0, 64), 2)

    def test_rectangle_stencil_reproduces_bilinear(self):
        dom = GridDomain.rectangle(0.0, 1.0, 0.0, 1.0, 32)
        op = PushinOperator(dom, 2)

        def g(pts):
            x, y = pts[:, 0], pts[:, 1]
            return 1.0 + 2.0 * x + 3.0 * y + 4.0 * x * y

        z = np.random.default_rng(6).uniform(0.0, 1.0, size=(500, 2))
        cols, wts = op._interp_weights(z)
        values = np.sum(wts * g(dom.points())[cols], axis=1)
        np.testing.assert_allclose(values, g(z), rtol=1e-12)


# ---------------------------------------------------------------------------
# positive dominant construction
# ---------------------------------------------------------------------------

class TestPositiveDominant:
    def test_zero_maps_to_zero(self):
        dom = GridDomain.interval(0.0, 1.0, 65)
        g = positive_dominant_w0(dom, 1, np.zeros(65))
        assert np.array_equal(g, np.zeros(65))

    def test_sine_first_order(self):
        dom = GridDomain.interval(0.0, 1.0, 257)
        t = dom.axis(0)
        f = np.sin(2 * np.pi * t)
        g = positive_dominant_w0(dom, 1, f)
        assert np.min(g) >= 0.0
        assert np.min(g - np.maximum(f, 0.0)) >= -1e-12
        assert g[0] == 0.0 and g[-1] == 0.0

    def test_nonnegative_input_still_dominated(self):
        dom = GridDomain.interval(0.0, 1.0, 257)
        t = dom.axis(0)
        rng = np.random.default_rng(6)
        for _ in range(5):
            a = rng.uniform(0.5, 2.0)
            f = a * np.sin(np.pi * t) ** 2
            g = positive_dominant_w0(dom, 1, f)
            assert np.min(g - f) >= -1e-10

    def test_second_order_vanishing(self):
        dom = GridDomain.interval(0.0, 1.0, 257)
        t = dom.axis(0)
        f = (t * (1.0 - t)) ** 9 * 4.0 ** 9
        g = positive_dominant_w0(dom, 2, f)
        D = diff_operator(dom, (1,))
        assert np.min(g) >= 0.0
        assert np.min(g - f) >= -1e-10
        assert abs(g[0]) <= 1e-12 and abs(g[-1]) <= 1e-12
        dg = D @ g
        assert abs(dg[0]) <= 1e-10 and abs(dg[-1]) <= 1e-10

    def test_precondition_checked(self):
        dom = GridDomain.interval(0.0, 1.0, 65)
        t = dom.axis(0)
        with pytest.raises(ValueError):
            positive_dominant_w0(dom, 1, np.cos(np.pi * t))
        # vanishes at the endpoints but not to first order
        with pytest.raises(ValueError):
            positive_dominant_w0(dom, 2, np.sin(np.pi * t))

    def test_one_dimensional_only(self):
        dom = GridDomain.rectangle(0.0, 1.0, 0.0, 1.0, 8)
        with pytest.raises(ValueError):
            positive_dominant_w0(dom, 1, np.zeros(64))

    def test_discrete_fundamental_theorem(self):
        # the k-fold cumulative sums invert the forward differences exactly
        dom = GridDomain.interval(0.0, 1.0, 65)
        t = dom.axis(0)
        f = (t * (1.0 - t)) ** 8
        D = diff_operator(dom, (1,))
        from latlab.sobolev_grid import _cumint_left
        recovered = _cumint_left(D @ f, dom.h)
        assert np.max(np.abs(recovered - f)) <= 1e-13


class TestChartCover:
    def test_interval_cover_has_three_charts(self):
        dom = GridDomain.interval(0.0, 1.0, 64)
        charts = default_chart_cover(dom, ns=(2, 4))
        assert len(charts) == 3

    def test_square_cover_has_nine_charts(self):
        dom = GridDomain.rectangle(0.0, 1.0, 0.0, 1.0, 16)
        charts = default_chart_cover(dom, ns=(2,))
        assert len(charts) == 9
