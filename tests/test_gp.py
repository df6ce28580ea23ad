"""Gaussian-process regression: kernels, conditioning, likelihood, fitting."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import linalg as sla

from gpinverse import (
    ConfigurationError,
    Dataset,
    DegenerateDataError,
    KernelSpec,
    NumericalError,
    ShapeError,
    get_benchmark,
    gp_fit,
    gp_optimize_hyperparameters,
    gp_predict_many,
    log_marginal_likelihood,
    sample_initial_design,
)
from gpinverse.gp import (
    _MEAN_CHUNK_ROWS,
    _hyper_bounds,
    _kernel_from_r,
    _neg_lml_objective,
    kernel_matrix,
)


def _dataset(x, y, bounds=((-5.0, 5.0),)):
    return Dataset(x=np.asarray(x, dtype=float).reshape(len(y), -1), y=y, bounds=bounds)


def _reference_neg_lml(ds, spec, noise):
    """-log p(y) and the jitter used, by Rasmussen & Williams Algorithm 2.1.

    Written out with an explicit identity, the ladder as a literal and
    cho_solve, so it shares no factor or solve code with gp.py; returns
    (inf, None) when every rung fails.
    """
    k = kernel_matrix(spec, ds.x, ds.x)
    for jitter in (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4):
        try:
            chol = np.linalg.cholesky(k + (noise + jitter) * np.eye(ds.n))
        except np.linalg.LinAlgError:
            continue
        quad = float(ds.y @ sla.cho_solve((chol, True), ds.y))
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
        return -(-0.5 * quad - 0.5 * logdet - 0.5 * ds.n * math.log(2.0 * math.pi)), jitter
    return math.inf, None


class TestKernels:
    def test_rbf_at_zero_distance_is_signal_variance(self):
        spec = KernelSpec("rbf", 1.3, 2.7)
        assert kernel_matrix(spec, [[0.4, -1.0]], [[0.4, -1.0]])[0, 0] == pytest.approx(2.7)

    def test_matern_at_zero_distance_is_signal_variance(self):
        spec = KernelSpec("matern52", 0.5, 0.9)
        assert kernel_matrix(spec, [[1.0]], [[1.0]])[0, 0] == pytest.approx(0.9)

    def test_rbf_at_unit_length_scale(self):
        # ||x - x2|| = sqrt(2) with unit scale gives exp(-1)
        spec = KernelSpec("rbf", 1.0, 1.0)
        got = kernel_matrix(spec, [[1.0, 0.0]], [[0.0, 1.0]])[0, 0]
        assert got == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_matern_matches_closed_form(self):
        spec = KernelSpec("matern52", 0.7, 1.9)
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(100, 2)), rng.normal(size=(100, 2))
        t = math.sqrt(5.0) * np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2) / 0.7
        want = 1.9 * (1.0 + t + t * t / 3.0) * np.exp(-t)
        np.testing.assert_allclose(kernel_matrix(spec, a, b), want, rtol=1e-12)

    def test_kernel_symmetry_is_exact(self):
        rng = np.random.default_rng(77)
        for spec in (KernelSpec("rbf", 0.8, 1.1), KernelSpec("matern52", 1.5, 0.4)):
            a, b = rng.normal(size=(200, 3)), rng.normal(size=(200, 3))
            k_ab, k_ba = kernel_matrix(spec, a, b), kernel_matrix(spec, b, a)
            np.testing.assert_array_equal(k_ab, k_ba.T)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_matrix_equals_difference_tensor_formula_exactly(self, dim):
        # Reference: Euclidean distances from the explicit (na, nb, d)
        # difference tensor.  Bit-equality keeps every artifact unchanged.
        rng = np.random.default_rng(dim)
        for spec in (KernelSpec("rbf", 0.8, 1.1), KernelSpec("matern52", 1.5, 0.4)):
            for scale in (1e-3, 1.0, 1e3):
                xa = scale * rng.normal(size=(40, dim))
                xb = scale * rng.normal(size=(70, dim))
                d2 = np.sum((xa[:, None, :] - xb[None, :, :]) ** 2, axis=2)
                r = np.sqrt(np.maximum(d2, 0.0))
                want = _kernel_from_r(spec.family, spec.length_scale, spec.signal_variance, r)
                np.testing.assert_array_equal(kernel_matrix(spec, xa, xb), want)

    def test_gram_matrix_is_positive_semidefinite(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            fam = "rbf" if trial % 2 == 0 else "matern52"
            spec = KernelSpec(fam, rng.uniform(0.2, 3.0), rng.uniform(0.1, 5.0))
            pts = rng.uniform(-4, 4, size=(10, 2))
            k = kernel_matrix(spec, pts, pts) + (1e-6 + 1e-10) * np.eye(10)
            assert np.linalg.eigvalsh(k).min() >= -1e-8

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ShapeError):
            kernel_matrix(KernelSpec("rbf", 1.0, 1.0), [[0.0]], [[0.0, 1.0]])

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            KernelSpec("rbf", -1.0, 1.0)
        with pytest.raises(ConfigurationError):
            KernelSpec("cauchy", 1.0, 1.0)


class TestFitPredict:
    def test_two_point_fit_matches_dense_solve(self):
        ds = _dataset([[0.0], [1.0]], [0.0, 1.0], bounds=((0.0, 1.0),))
        spec = KernelSpec("rbf", 1.0, 1.0)
        model = gp_fit(ds, spec, 1e-6)
        (mean0,), _ = gp_predict_many(model, [[0.0]])
        assert mean0 == pytest.approx(0.0, abs=1e-4)
        # dense oracle at an interior point
        k = kernel_matrix(spec, ds.x, ds.x) + 1e-6 * np.eye(2)
        ks = kernel_matrix(spec, ds.x, np.array([[0.5]]))
        want = float((ks.T @ np.linalg.solve(k, ds.y))[0])
        (got,), _ = gp_predict_many(model, [[0.5]])
        assert got == pytest.approx(want, rel=1e-10)

    def test_single_point_interpolates(self):
        ds = _dataset([[0.0]], [3.0])
        model = gp_fit(ds, KernelSpec("matern52", 1.0, 4.0), 1e-6)
        (mean,), (var,) = gp_predict_many(model, [[0.0]])
        assert mean == pytest.approx(3.0, abs=1e-3)
        assert var <= 1e-4

    def test_empty_fit_rejected(self):
        ds = Dataset(x=np.empty((0, 1)), y=np.empty(0), bounds=((0.0, 1.0),))
        with pytest.raises(DegenerateDataError):
            gp_fit(ds, KernelSpec("rbf", 1.0, 1.0), 1e-6)

    def test_duplicates_with_zero_noise_rejected(self):
        ds = _dataset([[0.2], [0.2]], [1.0, 1.0])
        with pytest.raises(DegenerateDataError):
            gp_fit(ds, KernelSpec("rbf", 1.0, 1.0), 0.0)

    def test_failed_factorization_reports_condition_of_the_kernel(self):
        # every rung shifts the diagonal in place; the estimate in the error
        # must still be that of K + noise I, not of the last shifted matrix
        x = np.linspace(0, 1, 12).reshape(-1, 1)
        ds = Dataset(x=x, y=np.sin(6 * x[:, 0]), bounds=((0.0, 1.0),))
        spec = KernelSpec("rbf", 10.0, 1e12)
        k = kernel_matrix(spec, ds.x, ds.x)
        want, shifted = np.linalg.cond(k), np.linalg.cond(k + 1e-4 * np.eye(ds.n))
        assert f"{want:.3e}" != f"{shifted:.3e}"
        with pytest.raises(NumericalError, match=re.escape(f"condition estimate {want:.3e}")):
            gp_fit(ds, spec, 0.0)

    def test_prediction_reverts_to_prior_far_away(self):
        ds = _dataset([[0.0], [0.5]], [1.0, 0.5], bounds=((-100.0, 100.0),))
        model = gp_fit(ds, KernelSpec("rbf", 1.0, 2.0), 1e-6)
        (mean,), (var,) = gp_predict_many(model, [[80.0]])
        assert mean == pytest.approx(0.0, abs=1e-6)
        assert var == pytest.approx(2.0, abs=1e-6)

    def test_near_interpolation_at_training_points(self):
        rng = np.random.default_rng(0)
        x = np.sort(rng.uniform(-3, 3, size=6))
        y = np.sin(x)
        ds = _dataset(x.reshape(-1, 1), y)
        model = gp_fit(ds, KernelSpec("matern52", 1.0, 1.0), 1e-6)
        for xi, yi in zip(x, y):
            (mean,), (var,) = gp_predict_many(model, [[xi]])
            assert mean == pytest.approx(yi, abs=1e-3)
            assert var <= 1e-4

    def test_predict_matches_bruteforce_on_random_problems(self):
        rng = np.random.default_rng(2024)
        for trial in range(50):
            fam = "rbf" if trial % 2 == 0 else "matern52"
            spec = KernelSpec(fam, rng.uniform(0.3, 2.0), rng.uniform(0.2, 3.0))
            noise = 10.0 ** rng.uniform(-6, -2)
            x = rng.uniform(-2, 2, size=(5, 2))
            y = rng.normal(size=5)
            ds = Dataset(x=x, y=y, bounds=((-2.0, 2.0), (-2.0, 2.0)))
            model = gp_fit(ds, spec, noise)
            q = rng.uniform(-2, 2, size=(3, 2))
            mean, var = gp_predict_many(model, q)
            kmat = kernel_matrix(spec, x, x) + (noise + model.jitter) * np.eye(5)
            kinv = np.linalg.inv(kmat)
            ks = kernel_matrix(spec, x, q)
            mean_o = ks.T @ kinv @ y
            var_o = spec.signal_variance - np.sum(ks * (kinv @ ks), axis=0)
            np.testing.assert_allclose(mean, mean_o, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(var, np.maximum(var_o, 0), rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("family", ["rbf", "matern52"])
    def test_chunked_mean_equals_batched_prediction_exactly(self, family):
        rng = np.random.default_rng(5)
        bounds = ((-2.0, 2.0), (-2.0, 2.0))
        x = rng.uniform(-2, 2, size=(12, 2))
        model = gp_fit(_dataset(x, np.sin(x).sum(axis=1), bounds), KernelSpec(family, 0.8, 1.3), 1e-6)
        q = rng.uniform(-2, 2, size=(2 * _MEAN_CHUNK_ROWS + 7, 2))
        assert np.array_equal(model.predict_mean(q), gp_predict_many(model, q)[0])

    @pytest.mark.parametrize("family", ["rbf", "matern52"])
    @pytest.mark.parametrize("blocks", [3, 12])
    def test_chunked_mean_holds_at_most_three_blocks(self, family, blocks):
        # the blocks are computed in arrays allocated once per call, so the
        # peak does not grow with the number of blocks
        rng = np.random.default_rng(6)
        bounds = ((-2.0, 2.0), (-2.0, 2.0))
        x = rng.uniform(-2, 2, size=(40, 2))
        model = gp_fit(_dataset(x, np.sin(x).sum(axis=1), bounds), KernelSpec(family, 0.8, 1.3), 1e-6)
        q = rng.uniform(-2, 2, size=(blocks * _MEAN_CHUNK_ROWS + 5, 2))
        model.predict_mean(q[:10])
        tracemalloc.start()
        try:
            mean = model.predict_mean(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_bytes = _MEAN_CHUNK_ROWS * model.data.n * 8
        assert peak <= mean.nbytes + 3 * block_bytes + 64 * 1024

    def test_empty_batch_gives_empty_arrays(self):
        ds = _dataset([[0.0, 0.0], [1.0, 0.5], [-1.0, 2.0]], [0.3, -0.2, 1.0], ((-5.0, 5.0),) * 2)
        model = gp_fit(ds, KernelSpec("matern52", 0.7, 1.6), 1e-4)
        empty = np.empty((0, 2))
        mean, dmean = model.mean_grad(empty)
        for values in (model.predict_mean(empty), *gp_predict_many(model, empty), mean):
            assert values.shape == (0,)
        assert dmean.shape == (0, 2)

    def test_variance_never_exceeds_prior(self):
        ds = _dataset([[0.0], [1.0], [2.5]], [0.3, -0.2, 1.0])
        model = gp_fit(ds, KernelSpec("rbf", 0.7, 1.6), 1e-4)
        _, var = gp_predict_many(model, np.linspace(-5, 5, 200).reshape(-1, 1))
        assert np.all(var <= 1.6 + 1e-4 + 1e-8)

    def test_mean_is_linear_in_outputs(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-2, 2, size=(6, 1))
        y = rng.normal(size=6)
        z = rng.normal(size=6)
        spec = KernelSpec("matern52", 1.2, 0.8)
        a, b = 1.7, -0.4
        bounds = ((-2.0, 2.0),)
        m_y = gp_fit(Dataset(x=x, y=y, bounds=bounds), spec, 1e-5)
        m_z = gp_fit(Dataset(x=x, y=z, bounds=bounds), spec, 1e-5)
        m_c = gp_fit(Dataset(x=x, y=a * y + b * z, bounds=bounds), spec, 1e-5)
        grid = np.linspace(-2, 2, 50).reshape(-1, 1)
        my, _ = gp_predict_many(m_y, grid)
        mz, _ = gp_predict_many(m_z, grid)
        mc, _ = gp_predict_many(m_c, grid)
        np.testing.assert_allclose(mc, a * my + b * mz, rtol=1e-9, atol=1e-12)

    def test_consistent_extra_point_does_not_increase_variance(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(-3, 3, size=(5, 1))
        y = rng.normal(size=5)
        spec = KernelSpec("rbf", 1.0, 1.0)
        base = gp_fit(_dataset(x, y), spec, 1e-6)
        mean_dup, _ = gp_predict_many(base, x[2:3])
        bigger = gp_fit(
            _dataset(np.vstack([x, x[2] + 1e-9]), np.append(y, mean_dup)), spec, 1e-6
        )
        grid = np.linspace(-5, 5, 100).reshape(-1, 1)
        _, v0 = gp_predict_many(base, grid)
        _, v1 = gp_predict_many(bigger, grid)
        assert np.all(v1 <= v0 + 1e-8)

    def test_factor_state_reconstructs_covariance(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(-2, 2, size=(8, 2))
        ds = Dataset(x=x, y=rng.normal(size=8), bounds=((-2.0, 2.0), (-2.0, 2.0)))
        spec = KernelSpec("matern52", 0.9, 1.4)
        model = gp_fit(ds, spec, 1e-6)
        want = kernel_matrix(spec, x, x) + (1e-6 + model.jitter) * np.eye(8)
        got = model.chol @ model.chol.T
        assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 1e-8


class TestLogMarginalLikelihood:
    def test_single_point_closed_form(self):
        # unit total variance and zero output leave only the constant term
        ds = _dataset([[0.0]], [0.0])
        model = gp_fit(ds, KernelSpec("rbf", 1.0, 1.0 - 1e-6), 1e-6)
        assert log_marginal_likelihood(model) == pytest.approx(
            -0.5 * math.log(2 * math.pi), rel=1e-9
        )

    def test_scaling_outputs_lowers_likelihood(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-2, 2, size=(5, 1))
        y = rng.normal(size=5) + 1.0
        spec = KernelSpec("rbf", 1.0, 1.0)
        m1 = gp_fit(_dataset(x, y), spec, 1e-6)
        m2 = gp_fit(_dataset(x, 2.0 * y), spec, 1e-6)
        assert log_marginal_likelihood(m2) < log_marginal_likelihood(m1)

    def test_matches_dense_formula(self):
        rng = np.random.default_rng(99)
        x = rng.uniform(-1, 1, size=(4, 1))
        y = rng.normal(size=4)
        spec = KernelSpec("matern52", 0.8, 1.3)
        noise = 1e-4
        model = gp_fit(_dataset(x, y), spec, noise)
        kmat = kernel_matrix(spec, x, x) + (noise + model.jitter) * np.eye(4)
        sign, logdet = np.linalg.slogdet(kmat)
        assert sign > 0
        want = (
            -0.5 * y @ np.linalg.solve(kmat, y)
            - 0.5 * logdet
            - 2.0 * math.log(2 * math.pi)
        )
        assert log_marginal_likelihood(model) == pytest.approx(want, rel=1e-10)


class TestHyperparameterFit:
    def test_recovers_length_scale_from_synthetic_draw(self):
        rng = np.random.default_rng(123)
        x = np.sort(rng.uniform(-5, 5, size=25)).reshape(-1, 1)
        spec = KernelSpec("rbf", 1.0, 1.0)
        k = kernel_matrix(spec, x, x) + 1e-8 * np.eye(25)
        y = np.linalg.cholesky(k) @ rng.standard_normal(25)
        ds = Dataset(x=x, y=y, bounds=((-5.0, 5.0),))
        model = gp_optimize_hyperparameters(ds, "rbf", 1e-6, restarts=4)
        assert 0.5 <= model.kernel.length_scale <= 2.0

    def test_repeated_fits_are_identical(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, size=(8, 1))
        ds = Dataset(x=x, y=np.sin(6 * x[:, 0]), bounds=((0.0, 1.0),))
        a = gp_optimize_hyperparameters(ds, "matern52", 1e-6, restarts=3)
        b = gp_optimize_hyperparameters(ds, "matern52", 1e-6, restarts=3)
        assert a.kernel == b.kernel

    def test_constant_outputs_push_variance_to_lower_bound(self):
        x = np.linspace(0, 1, 6).reshape(-1, 1)
        ds = Dataset(x=x, y=np.full(6, 2.5), bounds=((0.0, 1.0),))
        model = gp_optimize_hyperparameters(ds, "rbf", 1e-6, restarts=2)
        assert model.kernel.signal_variance <= 1e-4

    def test_needs_two_points(self):
        ds = _dataset([[0.0]], [1.0])
        with pytest.raises(DegenerateDataError):
            gp_optimize_hyperparameters(ds, "rbf", 1e-6, restarts=1)

    def test_objective_equals_fitted_model_likelihood_exactly(self):
        # rbf signal variances up to 1e12 under zero noise push the
        # factorization up the jitter ladder and, at the top, past its last rung
        x = np.linspace(0, 1, 12).reshape(-1, 1)
        ds = Dataset(x=x, y=np.sin(6 * x[:, 0]), bounds=((0.0, 1.0),))
        jitters = set()
        for family in ("matern52", "rbf"):
            for noise in (0.0, 1e-6):
                value, objective = _neg_lml_objective(ds, family, noise)
                for log_ell in np.linspace(math.log(0.01), math.log(10.0), 7):
                    for log_s2 in np.linspace(math.log(1e-6), math.log(1e12), 7):
                        spec = KernelSpec(family, math.exp(log_ell), math.exp(log_s2))
                        try:
                            model = gp_fit(ds, spec, noise)
                        except NumericalError:
                            want, jitter = math.inf, None
                        else:
                            want, jitter = -log_marginal_likelihood(model), model.jitter
                        jitters.add(jitter)
                        theta = np.array([log_ell, log_s2])
                        assert objective(theta)[0] == want
                        assert value(theta) == objective(theta)[0]
        assert None in jitters
        assert len(jitters - {None, 0.0}) >= 3

    def test_objective_equals_written_out_reference_exactly(self):
        # gp_fit and the objective share one factor path, so the test above
        # cannot see a drift in both; this reference shares none of it
        x = np.linspace(0, 1, 12).reshape(-1, 1)
        ds = Dataset(x=x, y=np.sin(6 * x[:, 0]), bounds=((0.0, 1.0),))
        jitters = set()
        for family in ("matern52", "rbf"):
            for noise in (0.0, 1e-6):
                objective = _neg_lml_objective(ds, family, noise)[1]
                for log_ell in np.linspace(math.log(0.01), math.log(10.0), 7):
                    for log_s2 in np.linspace(math.log(1e-6), math.log(1e12), 7):
                        spec = KernelSpec(family, math.exp(log_ell), math.exp(log_s2))
                        want, jitter = _reference_neg_lml(ds, spec, noise)
                        jitters.add(jitter)
                        assert objective(np.array([log_ell, log_s2]))[0] == want
        assert None in jitters
        assert len(jitters - {None, 0.0}) >= 3

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("noise", [1e-6, 1e-3])
    @pytest.mark.parametrize("family", ["rbf", "matern52"])
    def test_objective_gradient_matches_central_differences(self, family, noise, dim):
        rng = np.random.default_rng([dim, int(noise * 1e6)])
        x = rng.uniform(0, 1, size=(9, dim))
        ds = Dataset(x=x, y=np.sin(6 * x[:, 0]) + x[:, -1], bounds=((0.0, 1.0),) * dim)
        objective = _neg_lml_objective(ds, family, noise)[1]
        lo, hi = np.log(_hyper_bounds(ds)).T
        # a wider step than 1e-5 keeps the round-off of ill-conditioned
        # small-noise RBF kernels out of the differences
        h = 1e-3
        steps = h * np.eye(2)

        def rung_zero(theta):
            spec = KernelSpec(family, *np.exp(theta))
            return gp_fit(ds, spec, noise).jitter == 0.0

        checked = 0
        while checked < 5:
            theta = rng.uniform(lo, hi)
            points = [theta] + [theta + s for s in steps] + [theta - s for s in steps]
            if not all(rung_zero(p) for p in points):
                continue
            _, grad = objective(theta)
            central = np.array([
                (objective(theta + s)[0] - objective(theta - s)[0]) / (2 * h)
                for s in steps
            ])
            np.testing.assert_allclose(grad, central, rtol=1e-3, atol=1e-3)
            checked += 1

    def test_probe_grid_reaches_the_derivative_free_optimum(self):
        # on this design L-BFGS-B from the box center and seeded uniform
        # starts stops 1.55 nats short; the probe grid's best cells do not
        ds = sample_initial_design(get_benchmark("forrester1d"), 5, 0)
        model = gp_optimize_hyperparameters(ds, "matern52", 1e-6, restarts=3)
        assert log_marginal_likelihood(model) >= -14.587308079441788 - 1e-9

    def test_zero_noise_duplicates_fail_every_restart(self):
        ds = _dataset([[0.0], [1.0], [1.0]], [0.0, 1.0, 1.0])
        with pytest.raises(NumericalError, match="all hyperparameter restarts failed"):
            gp_optimize_hyperparameters(ds, "matern52", 0.0, restarts=2)
