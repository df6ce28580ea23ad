"""Inversion machinery on exact stub surrogates, fast and GP-independent, and
on a small fitted GP where the surrogate's own batch handling is tested."""

import math

import numpy as np
import pytest

from gpinverse import (
    ConfigurationError,
    Dataset,
    GaussianPrior,
    InferenceError,
    InverseProblem,
    KernelSpec,
    NumericalError,
    gp_fit,
    high_probability_region,
    laplace_approximation,
    log_posterior,
    map_multistart,
)
from gpinverse import inversion
from gpinverse.inversion import evaluate_profile_grid


def _forrester(x):
    return (6.0 * x[0] - 2.0) ** 2 * math.sin(12.0 * x[0] - 4.0)


def _mixed1d(x):
    return (
        math.exp(-((x[0] - 2.0) ** 2) / 2.0)
        + 0.9 * math.exp(-((x[0] + 5.0) ** 2) / 20.0)
        + 0.1 * math.cos(2.0 * x[0])
    )


@pytest.fixture
def forrester_problem(function_surrogate):
    return InverseProblem(
        surrogate=function_surrogate(_forrester),
        observed=-6.02,
        obs_variance=0.72,
        bounds=((0.0, 1.0),),
    )


@pytest.fixture
def mixed1d_problem(function_surrogate):
    return InverseProblem(
        surrogate=function_surrogate(_mixed1d),
        observed=0.63,
        obs_variance=0.0016,
        bounds=((-10.0, 10.0),),
    )


class TestFunctionals:
    def test_ls_zero_at_exact_match(self, function_surrogate):
        prob = InverseProblem(
            surrogate=function_surrogate(lambda x: 0.63),
            observed=0.63,
            obs_variance=1.0,
            bounds=((0.0, 1.0),),
        )
        ls, log_nls = log_posterior(prob, np.array([[0.5]]))
        assert ls[0] == 0.0 and math.exp(log_nls[0]) == 1.0

    def test_ls_squared_misfit_arithmetic(self, function_surrogate):
        prob = InverseProblem(
            surrogate=function_surrogate(lambda x: 0.8),
            observed=0.63,
            obs_variance=1.0,
            bounds=((0.0, 1.0),),
        )
        assert log_posterior(prob, np.array([[0.1]]))[0][0] == pytest.approx(0.0289, rel=1e-12)

    def test_nls_at_two_sigma_squared(self, function_surrogate):
        s2 = 0.37
        prob = InverseProblem(
            surrogate=function_surrogate(lambda x: 1.0),
            observed=1.0 + math.sqrt(2.0 * s2),
            obs_variance=s2,
            bounds=((0.0, 1.0),),
        )
        # LS = 2 sigma^2 exactly, so NLS = e^-1
        log_nls = log_posterior(prob, np.array([[0.5]]))[1][0]
        assert math.exp(log_nls) == pytest.approx(math.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("prior", [None, GaussianPrior([0.5, 0.5], [[0.1, 0.0], [0.0, 0.1]])])
    def test_empty_batch_gives_empty_arrays(self, prior):
        x = np.array([[0.1, 0.2], [0.8, 0.4], [0.5, 0.9]])
        data = Dataset(x=x, y=x.sum(axis=1), bounds=((0.0, 1.0), (0.0, 1.0)))
        prob = InverseProblem(
            surrogate=gp_fit(data, KernelSpec("rbf", 0.5, 1.0), 1e-6),
            observed=1.0,
            obs_variance=0.1,
            bounds=data.bounds,
            prior=prior,
        )
        ls, log_nls = log_posterior(prob, np.empty((0, 2)))
        assert ls.shape == log_nls.shape == (0,)

    def test_ls_nls_order_anticorrespondence(self, function_surrogate):
        prob = InverseProblem(
            surrogate=function_surrogate(_forrester),
            observed=2.0,
            obs_variance=0.5,
            bounds=((0.0, 1.0),),
        )
        rng = np.random.default_rng(17)
        ls, log_nls = log_posterior(prob, rng.random((2000, 1)))
        ls, nls = ls.reshape(-1, 2), np.exp(log_nls).reshape(-1, 2)
        ok = (ls[:, 0] < ls[:, 1]) == (nls[:, 0] > nls[:, 1])
        assert np.all(ok | (ls[:, 0] == ls[:, 1]))

    @pytest.mark.parametrize(
        "observed, obs_variance, bounds, prior",
        [
            (0.0, 0.0, ((0.0, 1.0),), None),
            (0.0, math.inf, ((0.0, 1.0),), None),
            (0.0, math.nan, ((0.0, 1.0),), None),
            (math.nan, 1.0, ((0.0, 1.0),), None),
            (-math.inf, 1.0, ((0.0, 1.0),), None),
            (0.0, 1.0, ((1.0, 0.0),), None),
            (0.0, 1.0, ((0.0, math.inf),), None),
            (0.0, 1.0, ((math.nan, 1.0),), None),
            (0.0, 1.0, ((0.0, 1.0), (-math.inf, 0.0)), None),
            (0.0, 1.0, ((0.0, 1.0),), ([math.nan], [[1.0]])),
            (0.0, 1.0, ((0.0, 1.0),), ([0.0], [[math.inf]])),
            (0.0, 1.0, ((0.0, 1.0),), ([0.0], [[math.nan]])),
            (0.0, 1.0, (), None),
            (0.0, 1.0, ((0.0, 1.0),), ([0.0], [[0.0]])),
            (0.0, 1.0, ((0.0, 1.0), (0.0, 1.0)), ([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])),
        ],
    )
    def test_invalid_problem_rejected(
        self, function_surrogate, observed, obs_variance, bounds, prior
    ):
        with pytest.raises(ConfigurationError):
            InverseProblem(
                surrogate=function_surrogate(_forrester),
                observed=observed,
                obs_variance=obs_variance,
                bounds=bounds,
                prior=None if prior is None else GaussianPrior(*prior),
            )


class TestMapMultistart:
    def test_forrester_single_cluster_at_reference_map(self, forrester_problem):
        summary = map_multistart(forrester_problem, n_starts=16, seed=0)
        best = summary.map_clusters[0]
        assert abs(best.x[0] - 0.76) <= 0.02
        assert best.ls_residual <= 1e-9
        near_zero = [c for c in summary.map_clusters if c.ls_residual <= 1e-9]
        assert len(near_zero) == 1
        assert not summary.multimodal

    def test_mixed1d_finds_at_least_three_clusters(self, mixed1d_problem):
        summary = map_multistart(mixed1d_problem, n_starts=24, seed=0)
        near_zero = [c for c in summary.map_clusters if c.ls_residual <= 1e-9]
        assert len(near_zero) >= 3
        assert summary.multimodal

    def test_rosenbrock_observation_reaches_ls_zero(self, function_surrogate):
        # level set of the synthesized observation is curved; the optimizer
        # must land on it exactly
        def rosen(x):
            return (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2

        prob = InverseProblem(
            surrogate=function_surrogate(rosen),
            observed=rosen([-1.5, -0.6]),
            obs_variance=2500.0,
            bounds=((-2.0, 2.0), (-1.0, 2.0)),
        )
        summary = map_multistart(prob, n_starts=32, seed=0)
        assert summary.map_clusters[0].ls_residual <= 1e-6
        dists = [
            float(np.linalg.norm(c.x - np.array([-1.5, -0.6])))
            for c in summary.map_clusters
            if c.ls_residual <= 1e-6
        ]
        assert min(dists) <= 0.25  # the target lies on the recovered level set

    def test_reported_maps_are_stationary_or_flagged(self, mixed1d_problem):
        summary = map_multistart(mixed1d_problem, n_starts=16, seed=1)
        for c in summary.map_clusters:
            assert c.grad_norm < 1e-3 or c.on_bound

    @pytest.mark.parametrize(
        "error, raised",
        [
            (NumericalError, InferenceError),
            (ValueError, InferenceError),
            (TypeError, TypeError),
        ],
    )
    def test_only_numerical_failures_count_as_diverged_starts(
        self, function_surrogate, error, raised
    ):
        # a failing start is recorded and skipped; a programming error is not
        def fail(x):
            raise error("boom")

        prob = InverseProblem(
            surrogate=function_surrogate(fail),
            observed=0.0,
            obs_variance=1.0,
            bounds=((0.0, 1.0),),
        )
        with pytest.raises(raised, match="boom"):
            map_multistart(prob, n_starts=2, seed=0)

    def test_failed_starts_are_counted(self, function_surrogate, monkeypatch):
        # the misfit falls towards x = 0, so no start below 0.75 ever steps
        # into the failing part of the box; the starts above it all fail
        def linear_below(x):
            if x[0] > 0.75:
                raise NumericalError("no surrogate here")
            return x[0]

        prob = InverseProblem(
            surrogate=function_surrogate(linear_below),
            observed=-1.0,
            obs_variance=1.0,
            bounds=((0.0, 1.0),),
        )
        # map_multistart draws its starts uniformly from default_rng(seed)
        starts = np.random.default_rng(3).random(16)
        calls = []
        minimize = inversion.sopt.minimize

        def counting(*args, **kwargs):
            calls.append(args[1].shape)
            return minimize(*args, **kwargs)

        monkeypatch.setattr(inversion.sopt, "minimize", counting)
        summary = map_multistart(prob, n_starts=16, seed=3)
        expected = int(np.sum(starts > 0.75))
        assert 0 < expected < 16
        assert summary.metadata["failed_starts"] == expected
        assert summary.map_clusters[0].x[0] == 0.0
        # the failing starts are dropped before the search, and one L-BFGS-B
        # run takes all the others stacked into one vector
        assert calls == [(16 - expected,)]

    def test_a_start_failing_inside_the_search_is_dropped_alone(self, function_surrogate):
        # Phi has minima at x = 0.25 and 0.75, and the surrogate fails near
        # 0.25, so the starts below 0.5 fail on their way down: each is
        # dropped and counted, and the search reruns without it, so the
        # starts above 0.5 still reach 0.75
        def cosine_with_a_hole(x):
            if abs(x[0] - 0.25) < 0.05:
                raise NumericalError("no surrogate here")
            return math.cos(4.0 * math.pi * x[0])

        prob = InverseProblem(
            surrogate=function_surrogate(cosine_with_a_hole),
            observed=-1.0,
            obs_variance=1.0,
            bounds=((0.0, 1.0),),
        )
        starts = np.random.default_rng(3).random(16)
        summary = map_multistart(prob, n_starts=16, seed=3)
        expected = int(np.sum(starts < 0.5))
        assert np.sum(np.abs(starts - 0.25) < 0.05) < expected < 16
        assert summary.metadata["failed_starts"] == expected
        [cluster] = summary.map_clusters
        assert abs(cluster.x[0] - 0.75) < 1e-3
        assert cluster.n_members == 16 - expected
        assert cluster.objective < 1e-9

    @pytest.mark.parametrize(
        "preset",
        [
            "forrester-inverse",
            "mixed1d-inverse",
            "levy1d-inverse",
            "griewank1d-inverse",
            "mixed2d-inverse",
            "rosenbrock2d-inverse",
        ],
    )
    def test_preset_clusters_are_stationary_on_the_bound_or_exact(self, preset_runs, preset):
        # every reported start must stop as it would in a search of its own.
        # An exact fit on rosenbrock2d's steep arc, where |grad LS| is about
        # 4000 |observed - mean|, stops at the rounding of the mean: searches
        # of one start each left such fits at LS up to 3.6e-12 with gradient
        # norms up to 7.8e-3
        result = preset_runs(preset)[0]
        exact = 1e-3 * inversion._residual_floor(result.problem.observed)
        assert result.summary.map_clusters
        for c in result.summary.map_clusters:
            fit = c.objective <= exact and c.grad_norm <= 1e-2
            assert c.grad_norm < 1e-3 or c.on_bound or fit, c

    def test_negative_seed_is_a_configuration_error(self, mixed1d_problem):
        with pytest.raises(ConfigurationError, match="seed"):
            map_multistart(mixed1d_problem, n_starts=2, seed=-1)

    def test_start_order_invariance(self, mixed1d_problem):
        a = map_multistart(mixed1d_problem, n_starts=16, seed=4)
        b = map_multistart(mixed1d_problem, n_starts=16, seed=4)
        ax = sorted(round(float(c.x[0]), 3) for c in a.map_clusters)
        bx = sorted(round(float(c.x[0]), 3) for c in b.map_clusters)
        assert ax == bx

    def test_cluster_set_invariant_under_endpoint_permutation(self, mixed1d_problem):
        # clustering happens on the objective-sorted endpoint list, so the
        # order starts were launched in cannot move the cluster set
        from gpinverse.inversion import _cluster_endpoints, _objective_and_grad

        def phi_and_grad(p):
            phi, grad, _, _ = _objective_and_grad(mixed1d_problem, np.reshape(p, (1, -1)))
            return float(phi[0]), grad[0]

        rng = np.random.default_rng(2)
        starts = rng.uniform(-10, 10, size=(20, 1))
        from scipy.optimize import minimize

        endpoints = np.array(
            [
                np.clip(
                    minimize(
                        phi_and_grad,
                        s,
                        jac=True,
                        method="L-BFGS-B",
                        bounds=[(-10.0, 10.0)],
                        options={"maxiter": 400},
                    ).x,
                    -10.0,
                    10.0,
                )
                for s in starts
            ]
        )
        objs, grads = zip(*(phi_and_grad(e) for e in endpoints))
        objs, grads = np.array(objs), np.array(grads)

        def cluster_positions(order):
            clusters = _cluster_endpoints(
                endpoints[order],
                objs[order],
                objs[order],
                grads[order],
                mixed1d_problem,
            )
            return np.sort([float(c.x[0]) for c in clusters])

        base = cluster_positions(np.arange(20))
        for perm_seed in range(3):
            perm = np.random.default_rng(perm_seed).permutation(20)
            got = cluster_positions(perm)
            assert got.shape == base.shape
            np.testing.assert_allclose(got, base, atol=1e-3)


class TestGaussianPrior:
    def _linear_problem(self, function_surrogate, obs_variance, prior):
        return InverseProblem(
            surrogate=function_surrogate(lambda x: x[0]),
            observed=1.0,
            obs_variance=obs_variance,
            bounds=((-4.0, 4.0),),
            prior=prior,
        )

    def test_closed_form_ridge_solution(self, function_surrogate):
        # f(x) = x, observed 1, unit noise, standard normal prior: MAP = 1/2
        prob = self._linear_problem(
            function_surrogate, 1.0, GaussianPrior(mean=[0.0], cov=[[1.0]])
        )
        summary = map_multistart(prob, n_starts=8, seed=0)
        assert summary.map_clusters[0].x[0] == pytest.approx(0.5, abs=1e-6)

    def test_diffuse_prior_recovers_uniform_map(self, function_surrogate):
        diffuse = self._linear_problem(
            function_surrogate, 1.0, GaussianPrior(mean=[0.0], cov=[[1e8]])
        )
        summary = map_multistart(diffuse, n_starts=8, seed=0)
        assert summary.map_clusters[0].x[0] == pytest.approx(1.0, abs=1e-2)

    def test_tight_likelihood_off_prior_dominates_when_flat(self, function_surrogate):
        flat_likelihood = self._linear_problem(
            function_surrogate, 1e10, GaussianPrior(mean=[0.3], cov=[[1.0]])
        )
        summary = map_multistart(flat_likelihood, n_starts=8, seed=0)
        assert summary.map_clusters[0].x[0] == pytest.approx(0.3, abs=1e-3)

    def test_closed_form_posterior_mode(self, linear_gaussian):
        prob, mean, _ = linear_gaussian
        summary = map_multistart(prob, n_starts=8, seed=0)
        best = summary.map_clusters[0]
        assert best.x[0] == pytest.approx(mean, abs=1e-6)
        # objective is Phi, in LS units; ls_residual is the misfit alone
        ls = (1.0 - 2.0 * best.x[0]) ** 2
        assert best.ls_residual == pytest.approx(ls, rel=1e-9)
        assert best.objective == pytest.approx(
            ls + 0.5 * (best.x[0] + 0.3) ** 2 / 0.4, rel=1e-9
        )

    def test_closed_form_laplace_variance(self, linear_gaussian):
        prob, mean, var = linear_gaussian
        res = laplace_approximation(prob, [mean])
        assert not res.degenerate
        assert res.cov[0, 0] == pytest.approx(var, rel=1e-6)

    def test_laplace_rejects_the_least_squares_point(self, linear_gaussian):
        # x = 0.5 fits the observation exactly, but the prior pulls the
        # posterior mode away from it, so grad Phi is not zero there
        prob, _, _ = linear_gaussian
        res = laplace_approximation(prob, [0.5])
        assert res.degenerate
        assert "not stationary" in res.message

    def test_nls_profile_is_the_posterior_shape(self, linear_gaussian):
        prob, mean, var = linear_gaussian
        x = np.array([mean, -1.0, 0.0, 0.9])
        nls = np.exp(log_posterior(prob, x[:, None])[1])
        expected = np.exp(-((x[1:] - mean) ** 2) / (2.0 * var))
        np.testing.assert_allclose(nls[1:] / nls[0], expected, rtol=1e-9)


class TestLaplace:
    def test_recovers_exact_gaussian_width(self, function_surrogate):
        # linear surrogate makes -log NLS exactly quadratic with curvature
        # 1/sigma_g^2
        sigma_g = 0.17
        slope = math.sqrt(0.5) / sigma_g  # obs_variance 0.5
        prob = InverseProblem(
            surrogate=function_surrogate(lambda x: slope * (x[0] - 0.3)),
            observed=0.0,
            obs_variance=0.5,
            bounds=((-3.0, 3.0),),
        )
        res = laplace_approximation(prob, [0.3])
        assert not res.degenerate
        assert res.cov[0, 0] == pytest.approx(sigma_g**2, rel=0.01)
        lo, hi = res.intervals[0]
        assert lo == pytest.approx(0.3 - 1.96 * sigma_g, abs=1e-3)
        assert hi == pytest.approx(0.3 + 1.96 * sigma_g, abs=1e-3)

    def test_curvature_where_the_observation_is_out_of_reach(self, function_surrogate):
        # mean x^2 never reaches -1: at the MAP x = 0 the residual is -1 and
        # LS = (1 + x^2)^2 has curvature 4, all of it from the mean's Hessian,
        # so -log NLS has curvature 4 / (2 sigma^2) and the variance is sigma^2 / 2
        prob = InverseProblem(
            surrogate=function_surrogate(lambda x: x[0] ** 2),
            observed=-1.0,
            obs_variance=0.5,
            bounds=((-3.0, 3.0),),
        )
        res = laplace_approximation(prob, [0.0])
        assert not res.degenerate
        assert res.cov[0, 0] == pytest.approx(0.25, rel=1e-6)

    def test_interval_contains_map(self, forrester_problem):
        summary = map_multistart(forrester_problem, n_starts=16, seed=0)
        x_map = summary.map_clusters[0].x
        res = laplace_approximation(forrester_problem, x_map)
        assert not res.degenerate
        lo, hi = res.intervals[0]
        assert lo <= x_map[0] <= hi

    def test_flat_direction_yields_degeneracy_signal(self, function_surrogate):
        # constant-in-y surrogate: the 2D misfit has a flat direction
        prob = InverseProblem(
            surrogate=function_surrogate(lambda x: x[0]),
            observed=0.2,
            obs_variance=0.3,
            bounds=((-1.0, 1.0), (-1.0, 1.0)),
        )
        res = laplace_approximation(prob, [0.2, 0.0])
        assert res.degenerate
        assert res.intervals is None

    def test_nonstationary_point_rejected(self, forrester_problem):
        res = laplace_approximation(forrester_problem, [0.4])
        assert res.degenerate
        assert "not stationary" in res.message

    def test_curvature_past_the_float_range_is_degenerate(self, function_surrogate):
        # the misfit's curvature 4 divided by 2e-308 overflows to inf
        prob = InverseProblem(
            surrogate=function_surrogate(lambda x: x[0] ** 2 + x[1] ** 2),
            observed=-1.0,
            obs_variance=1e-308,
            bounds=((-1.0, 1.0), (-1.0, 1.0)),
        )
        res = laplace_approximation(prob, [0.0, 0.0])
        assert res.degenerate
        assert res.cov is None and res.intervals is None
        assert "not finite" in res.message


class TestHighProbabilityRegion:
    def test_forrester_interval_matches_reference_range(self, forrester_problem):
        profile = evaluate_profile_grid(forrester_problem, 2048)
        regions = high_probability_region(profile, 0.95)
        assert len(regions) == 1
        lo, hi = regions[0]
        assert lo == pytest.approx(0.735, abs=0.01)
        assert hi == pytest.approx(0.78, abs=0.01)

    def test_mixed1d_union_within_reduced_domain(self, mixed1d_problem):
        profile = evaluate_profile_grid(mixed1d_problem, 2048)
        regions = high_probability_region(profile, 0.95)
        assert len(regions) >= 3
        assert all(-7.6 <= lo and hi <= 5.1 for lo, hi in regions)

    def test_near_zero_threshold_covers_domain(self, forrester_problem):
        # any threshold below the profile minimum keeps every grid cell
        profile = evaluate_profile_grid(forrester_problem, 256)
        regions = high_probability_region(profile, 1e-200)
        assert len(regions) == 1
        lo, hi = regions[0]
        assert lo == pytest.approx(0.0, abs=1e-9)
        assert hi == pytest.approx(1.0, abs=1e-9)

    def test_regions_shrink_with_threshold(self, mixed1d_problem):
        profile = evaluate_profile_grid(mixed1d_problem, 1024)
        loose = high_probability_region(profile, 0.5)
        tight = high_probability_region(profile, 0.95)
        for lo_t, hi_t in tight:
            assert any(lo_l <= lo_t and hi_t <= hi_l for lo_l, hi_l in loose)

    def test_2d_regions_are_boxes_inside_bounds(self, function_surrogate):
        prob = InverseProblem(
            surrogate=function_surrogate(lambda x: x[0] ** 2 + x[1] ** 2),
            observed=0.25,
            obs_variance=0.05,
            bounds=((-1.0, 1.0), (-1.0, 1.0)),
        )
        boxes = high_probability_region(evaluate_profile_grid(prob, 64), 0.9)
        assert boxes
        for (xlo, xhi), (ylo, yhi) in boxes:
            assert -1 <= xlo <= xhi <= 1
            assert -1 <= ylo <= yhi <= 1

    def test_2d_region_is_the_threshold_disc(self, function_surrogate):
        # exp(-(x^2 + y^2)^2 / 0.1) >= 0.9 exactly when r <= 0.320, so the
        # only component is the disc's bounding box, well inside the bounds
        prob = InverseProblem(
            surrogate=function_surrogate(lambda x: x[0] ** 2 + x[1] ** 2),
            observed=0.0,
            obs_variance=0.05,
            bounds=((-1.0, 1.0), (-1.0, 1.0)),
        )
        boxes = high_probability_region(evaluate_profile_grid(prob, 64), 0.9)
        assert len(boxes) == 1
        for lo, hi in boxes[0]:
            assert -0.33 <= lo <= -0.28
            assert 0.28 <= hi <= 0.33

    def test_components_are_4_connected_in_raster_order(self, function_surrogate):
        # on a unit-step grid over [0, 63]^2, two exact-fit blocks that touch
        # only at a corner are two components, listed by their first cell
        # in row-major order; 8-connectivity would merge them into one box
        def blocks(x):
            upper = 10 <= x[0] <= 19 and 20 <= x[1] <= 29
            lower = 20 <= x[0] <= 29 and 10 <= x[1] <= 19
            return 0.0 if upper or lower else 10.0

        prob = InverseProblem(
            surrogate=function_surrogate(blocks),
            observed=0.0,
            obs_variance=1.0,
            bounds=((0.0, 63.0), (0.0, 63.0)),
        )
        assert high_probability_region(evaluate_profile_grid(prob, 64), 0.5) == [
            ((10.0, 19.0), (20.0, 29.0)),
            ((20.0, 29.0), (10.0, 19.0)),
        ]

    def test_1d_run_reaching_the_upper_bound_ends_there(self, function_surrogate):
        def runs(x):
            return 0.0 if 5 <= x[0] <= 9 or x[0] >= 50 else 10.0

        prob = InverseProblem(
            surrogate=function_surrogate(runs),
            observed=0.0,
            obs_variance=1.0,
            bounds=((0.0, 63.0),),
        )
        regions = high_probability_region(evaluate_profile_grid(prob, 64), 0.5)
        assert regions == [(5.0, 9.0), (50.0, 63.0)]

    def test_underflowed_profile_keeps_the_least_misfit_cells(self, function_surrogate):
        # exp(-LS / (2 sigma^2)) is 0.0 on the whole grid, yet the region
        # around the LS minimum must survive normalization
        prob = InverseProblem(
            surrogate=function_surrogate(lambda x: x[0]),
            observed=5.0,
            obs_variance=1e-3,
            bounds=((0.0, 1.0),),
        )
        profile = evaluate_profile_grid(prob, 256)
        _, points, ls, normalized = profile
        assert np.max(np.exp(log_posterior(prob, points)[1])) == 0.0
        assert np.max(normalized) == 1.0
        argmin = float(points[np.argmin(ls), 0])
        regions = high_probability_region(profile, 0.5)
        assert len(regions) == 1
        lo, hi = regions[0]
        assert lo <= argmin <= hi

    def test_log_nls_minus_inf_on_the_whole_grid_is_an_inference_error(
        self, function_surrogate
    ):
        # LS of about 1e6 over 2e-303 overflows, so log NLS is -inf everywhere
        prob = InverseProblem(
            surrogate=function_surrogate(lambda x: x[0]),
            observed=1000.0,
            obs_variance=1e-303,
            bounds=((0.0, 1.0),),
        )
        with pytest.raises(InferenceError, match="not finite on any of the 64 grid cells"):
            evaluate_profile_grid(prob, 64)

    def test_threshold_validation(self, forrester_problem):
        with pytest.raises(ConfigurationError):
            high_probability_region(evaluate_profile_grid(forrester_problem, 128), 1.5)
        with pytest.raises(ConfigurationError):
            high_probability_region(evaluate_profile_grid(forrester_problem, 32), 0.9)

    def test_grid_cell_cap(self, function_surrogate):
        def unused(x):
            raise AssertionError("a grid over the cap must not be evaluated")

        prob = InverseProblem(
            surrogate=function_surrogate(unused),
            observed=0.0,
            obs_variance=1.0,
            bounds=((0.0, 1.0), (0.0, 1.0)),
        )
        with pytest.raises(ConfigurationError, match="cells"):
            high_probability_region(evaluate_profile_grid(prob, 513), 0.5)
        with pytest.raises(ConfigurationError, match="cells"):
            evaluate_profile_grid(prob, 2048)
