"""Deterministic surrogate baselines: Lagrange, Legendre, natural spline."""

import warnings

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from gpinverse import (
    Dataset,
    DegenerateDataError,
    DomainError,
    UnsupportedDimensionError,
    eval_benchmark,
    eval_deterministic,
    fit_deterministic,
    get_benchmark,
)


def _ds(x, y, bounds):
    x = np.asarray(x, dtype=float)
    return Dataset(x=x.reshape(-1, 1), y=np.asarray(y, dtype=float), bounds=(bounds,))


class TestFit:
    def test_lagrange_reproduces_quadratic_exactly(self):
        x = np.array([-2.0, -0.7, 0.1, 1.3, 2.0])
        s = fit_deterministic("lagrange", _ds(x, x**2, (-2.0, 2.0)))
        q = np.linspace(-2, 2, 50)
        assert eval_deterministic(s, q) == pytest.approx(q * q, rel=1e-9, abs=1e-9)

    def test_lagrange_exact_for_any_polynomial_of_matching_degree(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = rng.integers(3, 9)
            coeffs = rng.normal(size=n)  # degree n-1
            x = np.sort(rng.uniform(-1, 1, size=n))
            if np.min(np.diff(x)) < 1e-3:
                continue
            y = np.polyval(coeffs, x)
            s = fit_deterministic("lagrange", _ds(x, y, (-1.0, 1.0)))
            q = rng.uniform(-1, 1, size=50)
            want = np.polyval(coeffs, q)
            assert eval_deterministic(s, q) == pytest.approx(want, rel=1e-8, abs=1e-8)

    def test_two_point_spline_is_linear(self):
        s = fit_deterministic("cubic_spline", _ds([0.0, 2.0], [1.0, 5.0], (0.0, 2.0)))
        q = np.linspace(0, 2, 21)
        assert eval_deterministic(s, q) == pytest.approx(1.0 + 2.0 * q, rel=1e-12)

    def test_lagrange_runge_blowup_on_equispaced_griewank(self):
        model = get_benchmark("griewank1d")
        x = np.linspace(-15, 15, 14)
        y = np.array([eval_benchmark(model, [t]) for t in x])
        s = fit_deterministic("lagrange", _ds(x, y, (-15.0, 15.0)))
        grid = np.linspace(-15, 15, 400)
        err = np.abs(eval_deterministic(s, grid) - [eval_benchmark(model, [t]) for t in grid])
        edge = err[(grid < -12) | (grid > 12)].max()
        interior = err[(grid > -9) & (grid < 9)].max()
        assert edge > interior

    def test_2d_data_rejected(self):
        ds = Dataset(
            x=np.zeros((3, 2)), y=np.zeros(3), bounds=((0.0, 1.0), (0.0, 1.0))
        )
        with pytest.raises(UnsupportedDimensionError):
            fit_deterministic("cubic_spline", ds)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_deterministic("lagrange", _ds([0.0, 0.0, 1.0], [1, 1, 2], (0.0, 1.0)))

    def test_spline_needs_two_points(self):
        with pytest.raises(DegenerateDataError):
            fit_deterministic("cubic_spline", _ds([0.5], [1.0], (0.0, 1.0)))


class TestEval:
    def test_node_reproduction_tolerances(self):
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(0, 1, size=9))
        y = np.sin(7 * x)
        for family, tol in [("lagrange", 1e-8), ("cubic_spline", 1e-10), ("legendre", 1e-7)]:
            s = fit_deterministic(family, _ds(x, y, (0.0, 1.0)))
            assert eval_deterministic(s, x) == pytest.approx(y, abs=tol)

    def test_legendre_degree_zero_is_the_constant(self):
        s = fit_deterministic("legendre", _ds([0.4], [2.5], (0.0, 1.0)))
        assert eval_deterministic(s, [0.9])[0] == pytest.approx(2.5, rel=1e-12)

    def test_one_node_lagrange_is_the_constant_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = fit_deterministic("lagrange", _ds([0.4], [2.5], (0.0, 1.0)))
            assert eval_deterministic(s, [0.9, 0.4]).tolist() == [2.5, 2.5]

    def test_lagrange_refits_are_bit_identical(self):
        # The barycentric weights are products over the nodes in a random
        # order; refits of the same data must not depend on that order.
        model = get_benchmark("griewank1d")
        x = np.random.default_rng(1).uniform(-15, 15, size=14)
        y = np.array([eval_benchmark(model, [t]) for t in x])
        fits = [fit_deterministic("lagrange", _ds(x, y, (-15.0, 15.0))) for _ in range(2)]
        q = np.linspace(-15, 15, 1000)
        first, second = (eval_deterministic(s, q) for s in fits)
        np.testing.assert_array_equal(first, second)

    # Barycentric sums a batch by a matrix-vector product and one point by a
    # dot product, so only Lagrange differs from point-at-a-time evaluation.
    @pytest.mark.parametrize(
        "family, tol", [("lagrange", 1e-9), ("legendre", 0.0), ("cubic_spline", 0.0)]
    )
    def test_batch_is_the_fitted_object_row_for_row(self, family, tol):
        rng = np.random.default_rng(8)
        x = np.sort(rng.uniform(-3, 3, size=12))
        s = fit_deterministic(family, _ds(x, np.cos(x), (-3.0, 3.0)))
        q = rng.uniform(-3, 3, size=200)
        got = eval_deterministic(s, q)
        assert got.dtype == np.float64 and got.shape == (200,)
        np.testing.assert_array_equal(got, s.fitted(q))
        single = [float(s.fitted(t)) for t in q]
        np.testing.assert_allclose(got, single, rtol=tol, atol=tol)

    @pytest.mark.parametrize("bad", [1.5, -1e-9, float("nan")])
    def test_out_of_domain_query_rejected(self, bad):
        s = fit_deterministic("cubic_spline", _ds([0.0, 1.0], [0, 1], (0.0, 1.0)))
        with pytest.raises(DomainError):
            eval_deterministic(s, [bad])
        with pytest.raises(DomainError):
            eval_deterministic(s, [0.0, 0.25, bad, 1.0])

    def test_spline_matches_reference_natural_spline(self):
        # independent oracle: scipy's natural cubic spline
        x = np.linspace(0, 3 * np.pi, 20)
        y = np.sin(x)
        s = fit_deterministic("cubic_spline", _ds(x, y, (0.0, 3 * np.pi)))
        ref = CubicSpline(x, y, bc_type="natural")
        mids = 0.5 * (x[:-1] + x[1:])
        assert eval_deterministic(s, mids) == pytest.approx(ref(mids), abs=1e-3)
        # on the shared knots and everywhere between, the two solves agree tightly
        grid = np.linspace(0, 3 * np.pi, 101)
        assert np.max(np.abs(eval_deterministic(s, grid) - ref(grid))) < 1e-9

    def test_spline_is_c2_across_knots(self):
        # One-sided second-order stencils isolate the left/right derivative
        # limits at each interior knot.  The second-difference jump tolerance
        # sits above the float64 roundoff floor eps/h^2 ~ 2e-6 of the stencil.
        x = np.linspace(0, 3 * np.pi, 20)
        y = np.sin(x)
        s = fit_deterministic("cubic_spline", _ds(x, y, (0.0, 3 * np.pi)))
        h = 1e-5
        f = lambda t: eval_deterministic(s, [t])[0]  # noqa: E731
        for k in x[1:-1]:
            d1r = (-3 * f(k) + 4 * f(k + h) - f(k + 2 * h)) / (2 * h)
            d1l = (3 * f(k) - 4 * f(k - h) + f(k - 2 * h)) / (2 * h)
            d2r = (2 * f(k) - 5 * f(k + h) + 4 * f(k + 2 * h) - f(k + 3 * h)) / h**2
            d2l = (2 * f(k) - 5 * f(k - h) + 4 * f(k - 2 * h) - f(k - 3 * h)) / h**2
            assert abs(d1r - d1l) <= 1e-6
            assert abs(d2r - d2l) <= 1e-3
