"""Acquisition functions, batch selection, validation MSE, and the BO loop."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import pdist

from gpinverse import (
    AcquisitionSpec,
    BoConfig,
    ConfigurationError,
    Dataset,
    KernelSpec,
    acquire_batch,
    expected_improvement,
    get_benchmark,
    gp_fit,
    gp_predict_many,
    log_marginal_likelihood,
    run_bo,
    upper_confidence_bound,
    validation_mse,
)
from gpinverse.bo import _acquisition_and_grad
from gpinverse.gp import gp_predict_grad


def _toy_model(seed=0, n=5, bounds=((-3.0, 3.0),)):
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    x = lo + rng.random((n, len(bounds))) * (hi - lo)
    y = np.sin(x).sum(axis=1)
    ds = Dataset(x=x, y=y, bounds=bounds)
    return gp_fit(ds, KernelSpec("matern52", 1.0, 1.0), 1e-6)


class TestAcquisitionValues:
    def test_ucb_with_zero_kappa_equals_mean(self):
        model = _toy_model()
        spec = AcquisitionSpec(family="ucb", kappa=0.0)
        q = np.linspace(-3, 3, 11).reshape(-1, 1)
        mean, _ = gp_predict_many(model, q)
        values, _ = _acquisition_and_grad(model, spec, q)
        np.testing.assert_allclose(values, mean, rtol=1e-12)

    def test_ei_zero_when_no_improvement_possible(self):
        assert expected_improvement(0.5, 0.0, 1.0) == 0.0
        assert expected_improvement(1.0, 0.0, 1.0) == 0.0

    def test_ei_sigma_zero_positive_improvement(self):
        assert expected_improvement(2.0, 0.0, 1.0) == pytest.approx(1.0)

    def test_ei_at_incumbent_mean_is_phi_zero(self):
        # mu = incumbent with unit sigma leaves only the density term 1/sqrt(2 pi)
        want = 1.0 / math.sqrt(2.0 * math.pi)
        assert expected_improvement(1.0, 1.0, 1.0) == pytest.approx(want, rel=1e-12)
        assert abs(want - 0.398942) < 1e-6

    def test_ei_nonnegative_over_random_configurations(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            mu = rng.normal(scale=5)
            sigma = abs(rng.normal(scale=2)) * (rng.random() > 0.1)
            incumbent = rng.normal(scale=5)
            assert expected_improvement(mu, sigma, incumbent) >= 0.0

    def test_ucb_monotone_in_kappa(self):
        model = _toy_model()
        x = np.array([[0.77]])
        _, var = gp_predict_many(model, x)
        assert var[0] > 0
        values = [
            _acquisition_and_grad(model, AcquisitionSpec("ucb", kappa=k), x)[0][0]
            for k in (0.1, 1.0, 5.0, 50.0)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_ucb_vectorized_helper(self):
        got = upper_confidence_bound([1.0, 2.0], [0.5, 0.0], 2.0)
        np.testing.assert_allclose(got, [2.0, 2.0])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kappa": -1.0},
            {"kappa": math.nan},
            {"kappa": math.inf},
            {"family": "pi"},
        ],
    )
    def test_invalid_acquisition_spec_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            AcquisitionSpec(**kwargs)


def _central_difference(fn, x, h):
    """(m, d) central-difference gradient of a row-wise function of x."""
    columns = []
    for j in range(x.shape[1]):
        step = np.zeros(x.shape[1])
        step[j] = h
        columns.append((fn(x + step) - fn(x - step)) / (2.0 * h))
    return np.column_stack(columns)


def _assert_gradients_match_central_differences(model, acq, x, h, atol):
    mean, _, dmean, dvar = gp_predict_grad(model, x)
    _, dacq = _acquisition_and_grad(model, acq, x)
    # the inversion stage's mean path computes the same numbers bit for bit
    mean_only, grad_only = model.mean_grad(x)
    np.testing.assert_array_equal(mean_only, mean)
    np.testing.assert_array_equal(grad_only, dmean)
    np.testing.assert_array_equal(model.predict_mean(x), mean)
    for analytic, fn in (
        (dmean, lambda z: gp_predict_many(model, z)[0]),
        (dvar, lambda z: gp_predict_many(model, z)[1]),
        (dacq, lambda z: _acquisition_and_grad(model, acq, z)[0]),
    ):
        fd = _central_difference(fn, x, h)
        np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=atol)
    # row i of each Hessian is the derivative of the gradient's component i
    hessians = np.array([model.mean_hessian(row) for row in x])
    for i in range(x.shape[1]):
        fd = _central_difference(lambda z: model.mean_grad(z)[1][:, i], x, h)
        np.testing.assert_allclose(hessians[:, i, :], fd, rtol=1e-4, atol=atol)


@st.composite
def _gradient_cases(draw, zero_noise=False):
    """A fitted model on a random design, an acquisition and query rows."""
    dim = draw(st.integers(1, 2))
    n = draw(st.integers(2, 4 if zero_noise else 8))
    coords = st.floats(-2.0, 2.0)
    x = draw(arrays(float, (n, dim), elements=coords))
    family = draw(st.sampled_from(["matern52", "rbf"]))
    length_scale = draw(st.floats(0.3, 2.0))
    signal_variance = draw(st.floats(0.5, 2.0))
    noise = 1e-3 * signal_variance
    if zero_noise:
        # without noise the variance at a training point is zero up to
        # rounding, and clipped to exactly 0 where rounding makes it negative
        assume(pdist(x).min() > length_scale)
        noise = 0.0
    bounds = ((-2.0, 2.0),) * dim
    ds = Dataset(x=x, y=np.sin(2.0 * x).sum(axis=1), bounds=bounds)
    model = gp_fit(ds, KernelSpec(family, length_scale, signal_variance), noise)
    acq = draw(
        st.one_of(
            st.builds(AcquisitionSpec, st.just("ucb"), st.floats(0.0, 10.0)),
            st.builds(AcquisitionSpec, st.just("ei")),
        )
    )
    queries = draw(arrays(float, (3, dim), elements=coords))
    return model, acq, np.vstack([queries, x[:1]])


class TestAscentGradients:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_gradient_cases())
    def test_gradients_match_central_differences(self, case):
        model, acq, q = case
        _assert_gradients_match_central_differences(model, acq, q, h=1e-5, atol=1e-5)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_gradient_cases(zero_noise=True))
    def test_zero_sigma_at_training_points(self, case):
        model, acq, _ = case
        x = model.data.x
        mean, var, dmean, dvar = gp_predict_grad(model, x)
        _, dacq = _acquisition_and_grad(model, acq, x)
        rows = var == 0.0
        if acq.family == "ucb":
            expected = dmean
        else:
            # EI has a kink where the mean meets the incumbent at sigma = 0
            improve = mean - np.max(model.data.y)
            rows &= np.abs(improve) > 1e-3
            expected = dmean * (improve > 0)[:, None]
        assume(np.any(rows))
        assert np.all(dvar[rows] == 0.0)
        np.testing.assert_array_equal(dacq[rows], expected[rows])
        _assert_gradients_match_central_differences(
            model, acq, x[rows], h=1e-5, atol=1e-3
        )


class TestAcquireBatch:
    def test_first_pick_lands_in_high_variance_region(self):
        # leave a wide gap in the training data; UCB with huge kappa must
        # target it
        x = np.array([[-3.0], [-2.5], [-2.0], [2.9]])
        ds = Dataset(x=x, y=np.sin(x[:, 0]), bounds=((-3.0, 3.0),))
        model = gp_fit(ds, KernelSpec("matern52", 0.8, 1.0), 1e-6)
        picks = acquire_batch(
            model, AcquisitionSpec("ucb", kappa=200.0), ds.bounds, 1
        )
        grid = np.linspace(-3, 3, 512).reshape(-1, 1)
        _, var = gp_predict_many(model, grid)
        decile = np.quantile(var, 0.9)
        _, pick_var = gp_predict_many(model, picks[:1])
        assert pick_var[0] >= decile

    def test_batch_of_one_equals_plain_argmax(self):
        model = _toy_model(seed=3)
        spec = AcquisitionSpec("ucb", kappa=200.0)
        a = acquire_batch(model, spec, model.data.bounds, 1)
        b = acquire_batch(model, spec, model.data.bounds, 1)
        np.testing.assert_array_equal(a, b)

    def test_batch_points_are_distinct_and_in_bounds(self):
        model = _toy_model(seed=1)
        picks = acquire_batch(
            model, AcquisitionSpec("ucb", kappa=200.0), model.data.bounds, 4
        )
        assert picks.shape == (4, 1)
        assert np.all(picks >= -3.0) and np.all(picks <= 3.0)
        # exclusion radius is 1% of the width (0.06 here)
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(picks[i, 0] - picks[j, 0]) > 0.06 * 0.999

    def test_degenerate_bounds_rejected(self):
        model = _toy_model()
        with pytest.raises(ConfigurationError, match="degenerate"):
            acquire_batch(
                model, AcquisitionSpec("ucb", kappa=1.0), ((0.0, 0.0),), 1
            )

    def test_output_shift_leaves_acquired_points_unchanged(self):
        # UCB values move with a constant output shift but the argmax stays
        bounds = ((-3.0, 3.0),)
        rng = np.random.default_rng(5)
        x = rng.uniform(-3, 3, size=(6, 1))
        y = np.sin(x[:, 0])
        spec = KernelSpec("matern52", 1.0, 1.0)
        m0 = gp_fit(Dataset(x=x, y=y, bounds=bounds), spec, 1e-6)
        m1 = gp_fit(Dataset(x=x, y=y + 5.0, bounds=bounds), spec, 1e-6)
        acq = AcquisitionSpec("ucb", kappa=200.0)
        p0 = acquire_batch(m0, acq, bounds, 3)
        p1 = acquire_batch(m1, acq, bounds, 3)
        np.testing.assert_allclose(p0, p1, atol=1e-9)


class TestValidationMse:
    def test_zero_for_perfect_surrogate(self, function_surrogate):
        # a GP trained on enough forrester points is not exact; use identity
        # check instead: predictions == truth gives 0 by construction
        model = get_benchmark("forrester1d")
        surr = function_surrogate(lambda x: (6 * x[0] - 2) ** 2 * math.sin(12 * x[0] - 4))
        rng = np.random.default_rng(0)
        pts = rng.random((200, 1))
        truth = np.array([model.evaluator(p) for p in pts])
        pred = surr.predict_mean(pts)
        assert float(np.mean((truth - pred) ** 2)) == pytest.approx(0.0, abs=1e-28)

    def test_constant_offset_gives_offset_squared(self):
        # shift all training outputs of an exact interpolation so that the
        # surrogate is off by c everywhere it matters
        model = get_benchmark("griewank1d")
        x = np.linspace(-15, 15, 60).reshape(-1, 1)
        c = 0.37
        y = np.array([model.evaluator(p) for p in x]) + c
        ds = Dataset(x=x, y=y, bounds=model.bounds)
        gp = gp_fit(ds, KernelSpec("matern52", 2.0, 2.0), 1e-8)
        mse = validation_mse(gp, model, 500, seed=1)
        assert mse == pytest.approx(c * c, rel=0.05)

    def test_seeded_points_are_reproducible(self):
        model = get_benchmark("mixed1d")
        gp = _toy_model(bounds=model.bounds)
        assert validation_mse(gp, model, 200, seed=5) == validation_mse(
            gp, model, 200, seed=5
        )


class TestRunBo:
    def test_immediate_convergence_gives_single_record(self):
        hf = get_benchmark("forrester1d")
        cfg = BoConfig(max_evaluations=25, mse_threshold=1e9, n_val=100, seed=0)
        trace = run_bo(hf, cfg)
        assert trace.converged and len(trace.iterations) == 1
        assert trace.iterations[0].n_samples == cfg.n_init

    def test_dataset_sizes_strictly_increase(self):
        hf = get_benchmark("forrester1d")
        cfg = BoConfig(max_evaluations=9, mse_threshold=1e-12, n_val=100, seed=0)
        trace = run_bo(hf, cfg)
        sizes = [r.n_samples for r in trace.iterations]
        assert sizes == sorted(set(sizes))
        assert not trace.converged
        assert trace.final_model.data.n == 9

    def test_trace_is_deterministic(self):
        hf = get_benchmark("forrester1d")
        cfg = BoConfig(max_evaluations=8, mse_threshold=1e-12, n_val=100, seed=3)
        a = run_bo(hf, cfg)
        b = run_bo(hf, cfg)
        assert [r.mse for r in a.iterations] == [r.mse for r in b.iterations]
        np.testing.assert_array_equal(a.final_model.data.x, b.final_model.data.x)

    def test_records_hold_each_fit_likelihood(self):
        hf = get_benchmark("forrester1d")
        cfg = BoConfig(max_evaluations=8, mse_threshold=1e-12, n_val=100, seed=3)
        trace = run_bo(hf, cfg)
        last = trace.iterations[-1].log_marginal_likelihood
        assert last == log_marginal_likelihood(trace.final_model)
        assert all(math.isfinite(r.log_marginal_likelihood) for r in trace.iterations)

    def test_acquired_points_strictly_inside_bounds(self):
        hf = get_benchmark("mixed1d")
        cfg = BoConfig(max_evaluations=10, mse_threshold=1e-12, n_val=100, seed=1)
        trace = run_bo(hf, cfg)
        for rec in trace.iterations:
            for p in np.atleast_2d(rec.acquired):
                if p.size:
                    assert -10.0 <= p[0] <= 10.0

    def test_mixed1d_mse_trend_non_increasing_per_window(self, preset_runs):
        # refits may wobble, but over any 3-iteration window the validation
        # error must not grow beyond 10% relative
        result, _ = preset_runs("mixed1d-inverse")
        mses = [r.mse for r in result.trace.iterations]
        assert len(mses) >= 3
        for i in range(len(mses) - 2):
            assert mses[i + 2] <= 1.1 * mses[i]

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            BoConfig(n_init=1)
        with pytest.raises(ConfigurationError):
            BoConfig(mse_threshold=0.0)
        with pytest.raises(ConfigurationError):
            BoConfig(n_val=10)
        with pytest.raises(ConfigurationError):
            BoConfig(mse_mode="weird")
        with pytest.raises(ConfigurationError):
            BoConfig(fixed_length_scale=1.0)
