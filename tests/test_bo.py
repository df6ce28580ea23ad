"""Acquisition functions, batch selection, validation MSE, and the BO loop."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import optimize as sopt

import gpinverse.bo as bo
from gpinverse import (
    BoConfig,
    ConfigurationError,
    Dataset,
    DegenerateDataError,
    KernelSpec,
    NumericalError,
    acquire_batch,
    expected_improvement,
    get_benchmark,
    gp_fit,
    gp_predict_many,
    log_marginal_likelihood,
    run_bo,
    sample_initial_design,
    upper_confidence_bound,
)
from gpinverse.bo import (
    ASCENT_STARTS,
    UCB_KAPPA,
    VALIDATION_POINTS,
    _acquisition_and_grad,
    _fit_for_config,
    _probe_grid,
    _scores,
    _validation_set,
)
from gpinverse.gp import gp_predict_grad
from gpinverse.presets import PRESETS


def _toy_model(seed=0, n=5, bounds=((-3.0, 3.0),)):
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    x = lo + rng.random((n, len(bounds))) * (hi - lo)
    y = np.sin(x).sum(axis=1)
    ds = Dataset(x=x, y=y, bounds=bounds)
    return gp_fit(ds, KernelSpec("matern52", 1.0, 1.0), 1e-6)


class TestAcquisitionValues:
    def test_ucb_weights_sigma_by_ucb_kappa(self):
        model = _toy_model()
        q = np.linspace(-3, 3, 11).reshape(-1, 1)
        mean, var = gp_predict_many(model, q)
        want = upper_confidence_bound(mean, np.sqrt(var), UCB_KAPPA)
        np.testing.assert_array_equal(_scores(model, BoConfig(), q), want)
        np.testing.assert_array_equal(_acquisition_and_grad(model, BoConfig(), q)[0], want)

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

    def test_ucb_vectorized_helper(self):
        got = upper_confidence_bound([1.0, 2.0], [0.5, 0.0], 2.0)
        np.testing.assert_allclose(got, [2.0, 2.0])

    def test_invalid_acquisition_rejected(self):
        with pytest.raises(ConfigurationError):
            BoConfig(acquisition="pi")


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
    coords = st.floats(-2.0, 2.0)
    if zero_noise:
        # without noise the variance at a training point is zero up to
        # rounding, and clipped to exactly 0 where rounding makes it negative.
        # The 2 to 4 points sit on distinct nodes of a lattice of spacing 1.2,
        # each moved by at most 0.1, so they stand at least 1.0 apart, which
        # is 2.5 length scales or more.  That keeps the noise-free kernel
        # well posed, and keeps the odd part of sigma near a training point,
        # which UCB_KAPPA magnifies in the central differences across the
        # kink of sigma there, well inside their atol.
        lattice = list(itertools.product(range(4), repeat=dim))
        nodes = draw(st.permutations(lattice))[: draw(st.integers(2, 4))]
        shifts = draw(arrays(float, (len(nodes), dim), elements=st.floats(-0.1, 0.1)))
        x = -1.8 + 1.2 * np.array(nodes, dtype=float) + shifts
        length_scale = draw(st.floats(0.2, 0.4))
    else:
        x = draw(arrays(float, (draw(st.integers(2, 8)), dim), elements=coords))
        length_scale = draw(st.floats(0.3, 2.0))
    family = draw(st.sampled_from(["matern52", "rbf"]))
    signal_variance = draw(st.floats(0.5, 2.0))
    noise = 0.0 if zero_noise else 1e-3 * signal_variance
    bounds = ((-2.0, 2.0),) * dim
    ds = Dataset(x=x, y=np.sin(2.0 * x).sum(axis=1), bounds=bounds)
    model = gp_fit(ds, KernelSpec(family, length_scale, signal_variance), noise)
    acq = draw(st.sampled_from([BoConfig(), BoConfig(acquisition="ei")]))
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
        if acq.acquisition == "ucb":
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
        picks = acquire_batch(model, BoConfig(), ds.bounds)
        grid = np.linspace(-3, 3, 512).reshape(-1, 1)
        _, var = gp_predict_many(model, grid)
        decile = np.quantile(var, 0.9)
        _, pick_var = gp_predict_many(model, picks[:1])
        assert pick_var[0] >= decile

    def test_batch_of_one_equals_plain_argmax(self):
        model = _toy_model(seed=3)
        config = BoConfig()
        a = acquire_batch(model, config, model.data.bounds)
        b = acquire_batch(model, config, model.data.bounds)
        np.testing.assert_array_equal(a, b)

    def test_degenerate_bounds_rejected(self):
        model = _toy_model()
        with pytest.raises(ConfigurationError, match="degenerate"):
            acquire_batch(model, BoConfig(), ((0.0, 0.0),))

    def test_output_shift_leaves_acquired_points_unchanged(self):
        # UCB values move with a constant output shift but the argmax stays
        bounds = ((-3.0, 3.0),)
        rng = np.random.default_rng(5)
        x = rng.uniform(-3, 3, size=(6, 1))
        y = np.sin(x[:, 0])
        spec = KernelSpec("matern52", 1.0, 1.0)
        m0 = gp_fit(Dataset(x=x, y=y, bounds=bounds), spec, 1e-6)
        m1 = gp_fit(Dataset(x=x, y=y + 5.0, bounds=bounds), spec, 1e-6)
        acq = BoConfig()
        p0 = acquire_batch(m0, acq, bounds)
        p1 = acquire_batch(m1, acq, bounds)
        assert p0.shape == (1, 1) and -3.0 <= p0[0, 0] <= 3.0
        np.testing.assert_allclose(p0, p1, atol=1e-9)


def _per_start_pick(model, config, bounds):
    """One pick by the per-start form: an L-BFGS-B run from each start alone."""
    lo, hi = np.asarray(bounds, dtype=float).T
    grid = _probe_grid(bounds)
    grid_scores = _acquisition_and_grad(model, config, grid)[0]
    starts = grid[np.argsort(-grid_scores, kind="stable")[:ASCENT_STARTS]]

    def neg_acq(x):
        value, grad = _acquisition_and_grad(model, config, x[None, :])
        return -value[0], -grad[0]

    ends = []
    for s in starts:
        res = sopt.minimize(
            neg_acq, s, method="L-BFGS-B", jac=True, bounds=bounds,
            options={"maxiter": 30},
        )
        ends.append(np.clip(res.x, lo, hi))
    end_scores = _acquisition_and_grad(model, config, np.array(ends))[0]
    return max(np.max(grid_scores), np.max(end_scores))


class TestStackedAscent:
    @pytest.mark.parametrize(
        "preset", ["forrester-inverse", "mixed1d-inverse", "mixed2d-inverse"]
    )
    def test_reaches_the_per_start_maximum(self, preset):
        config = PRESETS[preset].bo
        hf = get_benchmark(PRESETS[preset].benchmark)
        for n in (config.n_init, config.n_init + 4, config.n_init + 8):
            model = _fit_for_config(sample_initial_design(hf, n, config.seed), config)
            pick = acquire_batch(model, config, hf.bounds)
            got = _acquisition_and_grad(model, config, pick)[0][0]
            want = _per_start_pick(model, config, hf.bounds)
            assert got >= want - 1e-9 * abs(want)

    def test_one_optimizer_run_per_pick(self, monkeypatch):
        # the per-start form made ASCENT_STARTS runs of d variables per pick;
        # the stacked form makes one run of ASCENT_STARTS * d variables
        calls = []
        minimize = bo.sopt.minimize

        def counting(*args, **kwargs):
            calls.append(args[1].shape)
            return minimize(*args, **kwargs)

        monkeypatch.setattr(bo.sopt, "minimize", counting)
        model = _toy_model(seed=2, bounds=((-3.0, 3.0), (0.0, 1.0)))
        acquire_batch(model, BoConfig(), model.data.bounds)
        assert calls == [(2 * ASCENT_STARTS,)]

    def test_non_finite_acquisition_is_a_numerical_error(self, monkeypatch):
        hf = get_benchmark("forrester1d")
        data = sample_initial_design(hf, 5, 0)
        model = gp_fit(data, KernelSpec("matern52", 0.2, 1.0), 1e-6)
        predict = bo.gp_predict_many

        def nan_past_0_9(model, x):
            mean, var = predict(model, x)
            return np.where(x[:, 0] > 0.9, np.nan, mean), var

        monkeypatch.setattr(bo, "gp_predict_many", nan_past_0_9)
        with pytest.raises(NumericalError, match="not finite"):
            acquire_batch(model, BoConfig(), hf.bounds)


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
        points, truth = _validation_set(model, seed=1)
        pred, _ = gp_predict_many(gp, points)
        assert float(np.mean((truth - pred) ** 2)) == pytest.approx(c * c, rel=0.05)

    def test_seeded_points_are_reproducible(self):
        model = get_benchmark("mixed1d")
        first, second = _validation_set(model, 5), _validation_set(model, 5)
        assert first[0].shape == (VALIDATION_POINTS, 1)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)


class TestRunBo:
    def test_immediate_convergence_gives_single_record(self):
        hf = get_benchmark("forrester1d")
        cfg = BoConfig(max_evaluations=25, mse_threshold=1e9, seed=0)
        trace = run_bo(hf, cfg)
        assert trace.converged and len(trace.iterations) == 1
        assert trace.iterations[0].n_samples == cfg.n_init

    def test_dataset_sizes_strictly_increase(self):
        hf = get_benchmark("forrester1d")
        cfg = BoConfig(max_evaluations=9, mse_threshold=1e-12, seed=0)
        trace = run_bo(hf, cfg)
        sizes = [r.n_samples for r in trace.iterations]
        assert sizes == sorted(set(sizes))
        assert not trace.converged
        assert trace.final_model.data.n == 9

    def test_trace_is_deterministic(self):
        hf = get_benchmark("forrester1d")
        cfg = BoConfig(max_evaluations=8, mse_threshold=1e-12, seed=3)
        a = run_bo(hf, cfg)
        b = run_bo(hf, cfg)
        assert [r.mse for r in a.iterations] == [r.mse for r in b.iterations]
        np.testing.assert_array_equal(a.final_model.data.x, b.final_model.data.x)

    def test_records_hold_each_fit_likelihood(self):
        hf = get_benchmark("forrester1d")
        cfg = BoConfig(max_evaluations=8, mse_threshold=1e-12, seed=3)
        trace = run_bo(hf, cfg)
        last = trace.iterations[-1].log_marginal_likelihood
        assert last == log_marginal_likelihood(trace.final_model)
        assert all(math.isfinite(r.log_marginal_likelihood) for r in trace.iterations)

    def test_fit_failure_is_a_numerical_error_naming_the_iteration(self, monkeypatch):
        def failing_fit(*args, **kwargs):
            raise DegenerateDataError("no factor")

        monkeypatch.setattr(bo, "gp_optimize_hyperparameters", failing_fit)
        cfg = BoConfig(max_evaluations=8, seed=0)
        with pytest.raises(
            NumericalError, match="failed at iteration 0 with 5 samples: no factor"
        ):
            run_bo(get_benchmark("forrester1d"), cfg)

    def test_acquired_points_strictly_inside_bounds(self):
        hf = get_benchmark("mixed1d")
        cfg = BoConfig(max_evaluations=10, mse_threshold=1e-12, seed=1)
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
            BoConfig(mse_mode="weird")
        with pytest.raises(ConfigurationError):
            BoConfig(fixed_length_scale=1.0)
