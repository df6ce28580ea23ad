"""MCMC sampler, kernel density estimation, and the grid reference posterior."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from gpinverse import (
    ConfigurationError,
    DegenerateDataError,
    InverseProblem,
    McmcConfig,
    UnsupportedDimensionError,
    grid_posterior,
    kde_estimate,
    run_mcmc,
    silverman_bandwidth,
)


def _gaussian_target_problem(function_surrogate, mu=0.3, sigma=0.5, bounds=(-10.0, 10.0)):
    # linear surrogate f(x) = x with observation mu and obs variance sigma^2
    # makes NLS exactly the N(mu, sigma^2) density shape
    return InverseProblem(
        surrogate=function_surrogate(lambda x: x[0]),
        observed=mu,
        obs_variance=sigma * sigma,
        bounds=(bounds,),
    )


class TestMcmc:
    def test_flat_target_high_acceptance_and_centered_mean(self, function_surrogate):
        prob = InverseProblem(
            surrogate=function_surrogate(lambda x: 0.0),
            observed=0.0,
            obs_variance=1e12,
            bounds=((0.0, 2.0),),
        )
        cfg = McmcConfig(n_chains=1, n_steps=10000, burn_in=0, proposal_scale=0.05, seed=6)
        chain = run_mcmc(prob, cfg)[0]
        assert chain.acceptance_rate >= 0.95
        assert chain.samples[:, 0].mean() == pytest.approx(1.0, abs=0.02 * 2.0)

    def test_gaussian_target_moments(self, function_surrogate):
        mu, sigma = 0.3, 0.5
        prob = _gaussian_target_problem(function_surrogate, mu, sigma)
        cfg = McmcConfig(n_chains=1, n_steps=12000, burn_in=2000, proposal_scale=0.06, seed=42)
        chain = run_mcmc(prob, cfg)[0]
        s = chain.samples[:, 0]
        stderr = sigma / math.sqrt(len(s) / 10)  # conservative effective size
        assert abs(s.mean() - mu) <= 3 * stderr
        assert abs(s.std(ddof=1) - sigma) <= 0.1 * sigma

    def test_gaussian_target_ks_statistic(self, function_surrogate):
        mu, sigma = 0.3, 0.5
        prob = _gaussian_target_problem(function_surrogate, mu, sigma)
        cfg = McmcConfig(n_chains=1, n_steps=12000, burn_in=2000, proposal_scale=0.06, seed=42)
        chain = run_mcmc(prob, cfg)[0]
        s = np.sort(chain.samples[:, 0])
        n = s.size
        assert n == 10000
        cdf = 0.5 * (1.0 + np.array([math.erf((v - mu) / (sigma * math.sqrt(2))) for v in s]))
        ks = max(
            float(np.max(np.abs(cdf - np.arange(1, n + 1) / n))),
            float(np.max(np.abs(cdf - np.arange(0, n) / n))),
        )
        assert ks < 0.03

    def test_acceptance_rate_matches_tally(self, function_surrogate):
        prob = _gaussian_target_problem(function_surrogate)
        cfg = McmcConfig(n_chains=2, n_steps=500, burn_in=100, proposal_scale=0.1, seed=0)
        for chain in run_mcmc(prob, cfg):
            assert chain.acceptance_rate == chain.accepted.sum() / 500

    def test_samples_are_a_view_of_the_post_burn_in_path(self, function_surrogate):
        prob = _gaussian_target_problem(function_surrogate)
        cfg = McmcConfig(n_chains=2, n_steps=500, burn_in=100, seed=0)
        for chain in run_mcmc(prob, cfg):
            assert np.shares_memory(chain.samples, chain.path)
            np.testing.assert_array_equal(chain.samples, chain.path[100:])

    def test_samples_stay_in_bounds(self, function_surrogate):
        prob = _gaussian_target_problem(function_surrogate, bounds=(-0.5, 0.9))
        cfg = McmcConfig(n_chains=3, n_steps=2000, burn_in=0, proposal_scale=0.3, seed=1)
        for chain in run_mcmc(prob, cfg):
            assert np.all(chain.samples[:, 0] >= -0.5)
            assert np.all(chain.samples[:, 0] <= 0.9)

    def test_chains_are_independent_of_ordering(self, function_surrogate):
        # a chain's stream depends only on (seed, chain_index)
        prob = _gaussian_target_problem(function_surrogate)
        ten = run_mcmc(prob, McmcConfig(n_chains=10, n_steps=300, burn_in=0, seed=9))
        three = run_mcmc(prob, McmcConfig(n_chains=3, n_steps=300, burn_in=0, seed=9))
        for i in range(3):
            np.testing.assert_array_equal(ten[i].path, three[i].path)

    def test_deterministic_per_seed(self, function_surrogate):
        prob = _gaussian_target_problem(function_surrogate)
        cfg = McmcConfig(n_chains=2, n_steps=400, burn_in=50, seed=5)
        a = run_mcmc(prob, cfg)
        b = run_mcmc(prob, cfg)
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.path, cb.path)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            McmcConfig(burn_in=100, n_steps=100)
        with pytest.raises(ConfigurationError):
            McmcConfig(burn_in=99, n_steps=100)  # one sample: too few for a KDE
        McmcConfig(burn_in=98, n_steps=100)
        with pytest.raises(ConfigurationError):
            McmcConfig(proposal_scale=0.0)
        with pytest.raises(ConfigurationError):
            McmcConfig(n_chains=0)


def _dense_kde(samples, grid, h):
    # The exact sum over samples: one Gaussian per (grid point, sample) pair.
    z = (grid[:, None] - samples[None, :]) / h
    return np.exp(-0.5 * z * z).sum(axis=1) / (samples.size * h * math.sqrt(2 * math.pi))


def _kde_bound(h):
    # kde_estimate's documented error bound for internal grid spacing h/64.
    return ((1 / 64) ** 2 / 4 + 1e-13) / (h * math.sqrt(2 * math.pi))


class TestKde:
    @pytest.mark.parametrize(
        "grid_of",
        [
            pytest.param(lambda s, h: np.linspace(-5.0, 5.0, 1001), id="bimodal"),
            pytest.param(lambda s, h: np.array([0.0]), id="one-point"),
            pytest.param(lambda s, h: np.linspace(-1.0, 0.5, 301), id="not-covering"),
            pytest.param(
                lambda s, h: np.concatenate(
                    [
                        s.min() - h * np.array([100.0, 8.5, 8.0, 7.9]),
                        s.max() + h * np.array([7.9, 8.0, 8.5, 100.0]),
                    ]
                ),
                id="beyond-8h",
            ),
        ],
    )
    def test_within_docstring_bound_of_dense_sum(self, grid_of):
        rng = np.random.default_rng(21)
        samples = np.concatenate([rng.normal(-2.0, 0.5, 200), rng.normal(1.5, 0.3, 100)])
        h = silverman_bandwidth(samples)
        grid = grid_of(samples, h)
        dens = kde_estimate(samples, grid)
        assert np.all(dens >= 0.0)
        assert np.max(np.abs(dens - _dense_kde(samples, grid, h))) <= _kde_bound(h)

    def test_tight_cluster_peaks_at_kernel_height(self):
        samples = np.full(50, 2.0) + np.random.default_rng(0).normal(scale=1e-9, size=50)
        h = 0.25
        grid = np.linspace(1, 3, 401)
        dens = kde_estimate(samples, grid, bandwidth=h)
        peak = dens.max()
        assert grid[np.argmax(dens)] == pytest.approx(2.0, abs=0.01)
        assert peak == pytest.approx(1.0 / (h * math.sqrt(2 * math.pi)), rel=1e-3)

    def test_integral_is_one_on_wide_grid(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=500)
        h = silverman_bandwidth(samples)
        grid = np.linspace(samples.min() - 3 * h, samples.max() + 3 * h, 2000)
        dens = kde_estimate(samples, grid)
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=0.02)

    def test_standard_normal_density_at_zero(self):
        rng = np.random.default_rng(11)
        samples = rng.standard_normal(10000)
        grid = np.array([0.0])
        dens = kde_estimate(samples, grid)
        assert dens[0] == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=0.10)

    def test_silverman_rule_value(self):
        rng = np.random.default_rng(8)
        samples = rng.normal(size=200)
        want = 1.06 * samples.std(ddof=1) * 200 ** (-0.2)
        assert silverman_bandwidth(samples) == pytest.approx(want, rel=1e-12)

    def test_identical_samples_rejected(self):
        with pytest.raises(DegenerateDataError):
            kde_estimate(np.full(10, 1.0), np.linspace(0, 2, 10))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_silverman_rejects_non_finite_samples(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            silverman_bandwidth([0.0, bad, 1.0])

    def test_needs_two_samples(self):
        with pytest.raises(DegenerateDataError):
            kde_estimate(np.array([1.0]), np.linspace(0, 2, 10))

    @pytest.mark.parametrize(
        "samples, grid, bandwidth",
        [
            pytest.param([0.0, 1.0], [0.5], math.nan, id="nan-bandwidth"),
            pytest.param([0.0, 1.0], [0.5], math.inf, id="inf-bandwidth"),
            pytest.param([0.0, math.nan, 1.0], [0.5], None, id="nan-sample"),
            pytest.param([0.0, math.inf, 1.0], [0.5], None, id="inf-sample"),
            pytest.param([0.0, 1.0], [0.5, math.nan], 0.3, id="nan-grid"),
        ],
    )
    def test_non_finite_input_rejected(self, samples, grid, bandwidth):
        with pytest.raises(ConfigurationError):
            kde_estimate(np.array(samples), np.array(grid), bandwidth=bandwidth)

    def test_memory_bounded_for_any_bandwidth(self):
        samples = np.array([0.0, 1.0])
        grid = np.array([0.0, 0.5, 1.0])
        # The smallest bandwidth whose internal grid fits in 2**20 cells:
        # span/h = 1/h + 16 must stay within (2**20 - 1) / 64.
        h_cap = 1.0 / ((2**20 - 1) / 64 - 16)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match="span/h"):
                kde_estimate(samples, grid, bandwidth=1e-7)
            with pytest.raises(ConfigurationError, match="span/h"):
                kde_estimate(samples, grid, bandwidth=h_cap * 0.999)
            dens = kde_estimate(samples, grid, bandwidth=h_cap * 1.001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        h = h_cap * 1.001
        assert np.max(np.abs(dens - _dense_kde(samples, grid, h))) <= _kde_bound(h)


class TestLinearGaussianPosterior:
    def test_grid_posterior_matches_closed_form(self, linear_gaussian):
        prob, mean, var = linear_gaussian
        ref = grid_posterior(prob, resolution=2048)
        exact = stats.norm(mean, math.sqrt(var)).pdf(ref.grid)
        assert np.max(np.abs(ref.density - exact)) <= 1e-3 * np.max(exact)

    def test_chains_match_closed_form(self, linear_gaussian):
        prob, mean, var = linear_gaussian
        cfg = McmcConfig(n_chains=4, n_steps=18000, burn_in=2000, seed=0)
        thinned = np.concatenate([c.samples[::20, 0] for c in run_mcmc(prob, cfg)])
        assert stats.kstest(thinned, stats.norm(mean, math.sqrt(var)).cdf).pvalue > 0.01


class TestGridPosterior:
    def test_integral_is_exactly_one(self, function_surrogate):
        prob = _gaussian_target_problem(function_surrogate)
        ref = grid_posterior(prob, resolution=512)
        assert abs(np.trapezoid(ref.density, ref.grid) - 1.0) <= 1e-10

    def test_gaussian_mode_within_one_cell(self, function_surrogate):
        mu = 0.3
        prob = _gaussian_target_problem(function_surrogate, mu=mu)
        ref = grid_posterior(prob, resolution=512)
        cell = (10.0 - (-10.0)) / 511
        assert len(ref.mode_locations) == 1
        assert abs(ref.mode_locations[0] - mu) <= cell

    def test_density_proportional_to_nls(self, function_surrogate):
        prob = _gaussian_target_problem(function_surrogate)
        ref = grid_posterior(prob, resolution=128)
        # closed form of the stub: f(x) = x, so NLS = exp(-(obs - x)^2 / 2 sigma^2)
        nls = np.exp(-((prob.observed - ref.grid) ** 2) / (2.0 * prob.obs_variance))
        corr = np.corrcoef(nls, ref.density)[0, 1]
        assert corr >= 1.0 - 1e-12

    def test_mixed1d_stub_finds_separated_modes(self, function_surrogate):
        def mixed(x):
            return (
                math.exp(-((x[0] - 2.0) ** 2) / 2.0)
                + 0.9 * math.exp(-((x[0] + 5.0) ** 2) / 20.0)
                + 0.1 * math.cos(2.0 * x[0])
            )

        prob = InverseProblem(
            surrogate=function_surrogate(mixed),
            observed=0.63,
            obs_variance=0.0016,
            bounds=((-10.0, 10.0),),
        )
        ref = grid_posterior(prob, resolution=512)
        assert len(ref.mode_locations) >= 3
        gaps = np.diff(np.sort(ref.mode_indices))
        assert np.all(gaps > 5)

    def test_resolution_validation(self, function_surrogate):
        prob = _gaussian_target_problem(function_surrogate)
        with pytest.raises(ConfigurationError):
            grid_posterior(prob, resolution=32)

    def test_2d_problem_rejected(self, function_surrogate):
        prob = InverseProblem(
            surrogate=function_surrogate(lambda x: x[0] + x[1]),
            observed=0.0,
            obs_variance=1.0,
            bounds=((0.0, 1.0), (0.0, 1.0)),
        )
        with pytest.raises(UnsupportedDimensionError):
            grid_posterior(prob, resolution=128)
