"""MCMC sampler, kernel density estimation, and the grid reference posterior."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gpinverse import (
    BoConfig,
    ConfigurationError,
    Dataset,
    DegenerateDataError,
    GaussianPrior,
    InverseProblem,
    KernelSpec,
    McmcConfig,
    UnsupportedDimensionError,
    evaluate_profile_grid,
    get_benchmark,
    gp_fit,
    grid_posterior,
    kde_estimate,
    log_posterior,
    run_bo,
    run_mcmc,
    silverman_bandwidth,
)
from gpinverse import sampling
from gpinverse.gp import _MEAN_CHUNK_ROWS, gp_predict_many
from gpinverse.sampling import (
    _BLOCK_STEPS,
    INDEPENDENCE_PROBABILITY,
    _chain_rng,
    _ProfileProposal,
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


def _chains(prob, cfg):
    # the profile the inversion stage would hand over, at its default size
    return run_mcmc(prob, cfg, evaluate_profile_grid(prob, 2048))


class TestMcmc:
    def test_flat_target_high_acceptance_and_centered_mean(self, function_surrogate):
        prob = InverseProblem(
            surrogate=function_surrogate(lambda x: 0.0),
            observed=0.0,
            obs_variance=1e12,
            bounds=((0.0, 2.0),),
        )
        cfg = McmcConfig(n_chains=1, n_steps=10000, burn_in=0, proposal_scale=0.05, seed=6)
        chain = _chains(prob, cfg)[0]
        assert chain.acceptance_rate >= 0.95
        assert chain.samples[:, 0].mean() == pytest.approx(1.0, abs=0.02 * 2.0)

    def test_gaussian_target_moments(self, function_surrogate):
        mu, sigma = 0.3, 0.5
        prob = _gaussian_target_problem(function_surrogate, mu, sigma)
        cfg = McmcConfig(n_chains=1, n_steps=12000, burn_in=2000, proposal_scale=0.06, seed=42)
        chain = _chains(prob, cfg)[0]
        s = chain.samples[:, 0]
        stderr = sigma / math.sqrt(len(s) / 10)  # conservative effective size
        assert abs(s.mean() - mu) <= 3 * stderr
        assert abs(s.std(ddof=1) - sigma) <= 0.1 * sigma

    def test_gaussian_target_ks_statistic(self, function_surrogate):
        mu, sigma = 0.3, 0.5
        prob = _gaussian_target_problem(function_surrogate, mu, sigma)
        cfg = McmcConfig(n_chains=1, n_steps=12000, burn_in=2000, proposal_scale=0.06, seed=42)
        chain = _chains(prob, cfg)[0]
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
        for chain in _chains(prob, cfg):
            assert chain.acceptance_rate == chain.accepted.sum() / 500

    def test_samples_are_a_view_of_the_post_burn_in_path(self, function_surrogate):
        prob = _gaussian_target_problem(function_surrogate)
        cfg = McmcConfig(n_chains=2, n_steps=500, burn_in=100, seed=0)
        for chain in _chains(prob, cfg):
            assert np.shares_memory(chain.samples, chain.path)
            np.testing.assert_array_equal(chain.samples, chain.path[100:])

    def test_samples_stay_in_bounds(self, function_surrogate):
        prob = _gaussian_target_problem(function_surrogate, bounds=(-0.5, 0.9))
        cfg = McmcConfig(n_chains=3, n_steps=2000, burn_in=0, proposal_scale=0.3, seed=1)
        for chain in _chains(prob, cfg):
            assert np.all(chain.samples[:, 0] >= -0.5)
            assert np.all(chain.samples[:, 0] <= 0.9)

    def test_chains_are_independent_of_ordering(self, function_surrogate):
        # a chain's stream depends only on (seed, chain_index)
        prob = _gaussian_target_problem(function_surrogate)
        ten = _chains(prob, McmcConfig(n_chains=10, n_steps=300, burn_in=0, seed=9))
        three = _chains(prob, McmcConfig(n_chains=3, n_steps=300, burn_in=0, seed=9))
        for i in range(3):
            np.testing.assert_array_equal(ten[i].path, three[i].path)

    def test_deterministic_per_seed(self, function_surrogate):
        prob = _gaussian_target_problem(function_surrogate)
        cfg = McmcConfig(n_chains=2, n_steps=400, burn_in=50, seed=5)
        a = _chains(prob, cfg)
        b = _chains(prob, cfg)
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.path, cb.path)

    def test_seeds_past_the_old_moduli_do_not_alias(self, function_surrogate):
        # chain seeds were reduced mod 2^63 and the validation seed mod 2^32
        prob = _gaussian_target_problem(function_surrogate)
        paths = [
            _chains(prob, McmcConfig(n_chains=1, n_steps=20, burn_in=0, seed=s))[0].path
            for s in (0, 2**63)
        ]
        assert not np.array_equal(*paths)
        # chain 0 of seed 2^32 drew chain 1's stream of seed 0
        chain_0 = _chains(prob, McmcConfig(n_chains=1, n_steps=20, burn_in=0, seed=2**32))
        chain_1 = _chains(prob, McmcConfig(n_chains=2, n_steps=20, burn_in=0, seed=0))
        assert not np.array_equal(chain_0[0].path, chain_1[1].path)
        hf = get_benchmark("forrester1d")
        val_seeds = [
            run_bo(hf, BoConfig(n_init=4, max_evaluations=4, seed=s))
            .validation_seed
            for s in (3, 2**32 + 3)
        ]
        assert val_seeds[0] != val_seeds[1]

    def test_chains_started_where_the_density_underflows_settle_in_the_mode(
        self, function_surrogate
    ):
        # A 0.001-wide Gaussian in a 20-wide box: exp() of the log density
        # is 0.0 at every chain's first uniform draw, so only log-space
        # acceptance can move the chains into the mode.
        mu, sigma = 0.3, 1e-3
        prob = _gaussian_target_problem(function_surrogate, mu, sigma)
        cfg = McmcConfig(n_chains=4, n_steps=6000, burn_in=1000, seed=0)
        starts = np.array(
            [-10.0 + 20.0 * np.random.default_rng([0, i]).random(1) for i in range(4)]
        )
        assert np.all(np.exp(log_posterior(prob, starts)[1]) == 0.0)
        for chain in _chains(prob, cfg):
            s = chain.samples[:, 0]
            assert np.max(np.abs(s - mu)) < 5 * sigma
            assert abs(s.mean() - mu) < 0.25 * sigma
            assert abs(s.std(ddof=1) - sigma) < 0.2 * sigma

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


def _reference_run_mcmc(problem, config, profile):
    """The one-step-at-a-time sampler: one log density call per lockstep step.

    Returns the (n_chains, n_steps, d) paths, the accept flags, the
    independence proposals made and accepted per chain, and the flags of the
    steps that proposed from q.
    """
    d = problem.dim
    lo, hi = np.asarray(problem.bounds, dtype=float).T
    widths = hi - lo
    step = config.proposal_scale * widths
    q = _ProfileProposal(profile, problem.bounds)

    def log_density(x):
        inside = ((x >= lo) & (x <= hi)).all(axis=1)
        return np.where(inside, log_posterior(problem, x)[1], -np.inf)

    rngs = [_chain_rng(config.seed, i) for i in range(config.n_chains)]
    current = lo + np.stack([rng.random(d) for rng in rngs]) * widths
    logp = log_density(current)

    n_steps, n_chains = config.n_steps, config.n_chains
    path = np.zeros((n_chains, n_steps, d))
    accepted = np.zeros((n_chains, n_steps), dtype=bool)
    made = np.zeros(n_chains, dtype=int)
    taken = np.zeros(n_chains, dtype=int)
    indep_steps = np.zeros((n_chains, n_steps), dtype=bool)
    for start in range(0, n_steps, _BLOCK_STEPS):
        size = min(_BLOCK_STEPS, n_steps - start)
        normal, expo, choice, cell_u, offsets = (
            np.stack(a)
            for a in zip(*(
                (
                    rng.standard_normal((size, d)),
                    rng.standard_exponential(size),
                    rng.random(size),
                    rng.random(size),
                    rng.random((size, d)),
                )
                for rng in rngs
            ))
        )
        indep = choice < INDEPENDENCE_PROBABILITY
        indep_steps[:, start : start + size] = indep
        q_points = q.sample(cell_u.ravel(), offsets.reshape(-1, d)).reshape(offsets.shape)
        keep = np.where(indep, 0.0, 1.0)[:, :, None]
        shift = np.where(indep[:, :, None], q_points, step * normal)
        bar = np.where(indep, q.log_density(q_points.reshape(-1, d)).reshape(indep.shape), 0.0)
        bar -= expo
        any_indep = indep.any(axis=0).tolist()
        block_accepted = accepted[:, start : start + size]
        block_path = path[:, start : start + size]
        for t in range(size):
            proposals = current * keep[:, t] + shift[:, t]
            logp_new = log_density(proposals)
            gain = logp_new - logp
            if any_indep[t]:
                gain += np.where(indep[:, t], q.log_density(current), 0.0)
            accept = bar[:, t] < gain
            np.copyto(current, proposals, where=accept[:, None])
            np.copyto(logp, logp_new, where=accept)
            block_accepted[:, t] = accept
            block_path[:, t] = current
        made += indep.sum(axis=1)
        taken += (indep & block_accepted).sum(axis=1)
    return path, accepted, made, taken, indep_steps


def _assert_matches_reference(prob, cfg, profile, reference_errstate="raise"):
    chains = run_mcmc(prob, cfg, profile)
    with np.errstate(invalid=reference_errstate):
        path, accepted, made, taken, _ = _reference_run_mcmc(prob, cfg, profile)
    for i, chain in enumerate(chains):
        np.testing.assert_array_equal(chain.path.view(np.int64), path[i].view(np.int64))
        np.testing.assert_array_equal(chain.accepted, accepted[i])
        assert chain.acceptance_rate == float(np.mean(accepted[i]))
        assert chain.independence_proposals == made[i]
        assert chain.independence_accepted == taken[i]
        # the start and every step's proposal are scored at least once
        assert chain.density_evaluations >= 1 + cfg.n_steps
    return chains


def _batch_layout(accepted, indep, block_steps):
    """The serial schedule's log density batch sizes per resolve block, and rows per chain.

    Built from the one-step sampler's flags for a round loop that resolves
    each chain's steps off the speculation one at a time: a step leaves the
    speculation where its accept flag differs from its q flag.  A first
    batch scores the starts; each resolve block of ``block_steps`` steps
    then scores every proposal of its speculation, and round r scores, for
    every chain, the random-walk steps after the chain's r-th step off the
    speculation up to its next q step.  Rounds with no such step make no call.
    """
    n_chains, n_steps = accepted.shape
    blocks, rows = [], np.ones(n_chains, dtype=int)
    for start in range(0, n_steps, block_steps):
        block = slice(start, start + block_steps)
        acc, ind = accepted[:, block], indep[:, block]
        rows += acc.shape[1]
        rounds = np.zeros(acc.shape[1] + 1, dtype=int)
        for i in range(n_chains):
            for r, t in enumerate(np.flatnonzero(acc[i] != ind[i])):
                q_after = np.flatnonzero(ind[i, t + 1 :])
                walks = q_after[0] if q_after.size else acc.shape[1] - t - 1
                rounds[r] += walks
                rows[i] += walks
        blocks.append([acc.size] + [int(n) for n in rounds if n])
    return blocks, rows


def _run_within_serial_schedule(monkeypatch, prob, cfg, profile):
    """run_mcmc's chains, checked against the serial schedule of _batch_layout.

    Records the batch sizes per resolve block (q is sampled once per
    resolve block, before its first density call) and asserts that the
    starts take one batch, each block's first batch scores its whole
    speculation, each block makes at most the serial schedule's batches and
    each chain scores at least its rows.  Returns the chains, the batches
    made, and the serial schedule's batches and rows.
    """
    batches = [[]]
    sample = _ProfileProposal.sample

    def recording(problem, x):
        batches[-1].append(len(x))
        return log_posterior(problem, x)

    def opening_a_block(self, cell_u, offsets):
        batches.append([])
        return sample(self, cell_u, offsets)

    with monkeypatch.context() as patch:
        patch.setattr(sampling, "log_posterior", recording)
        patch.setattr(_ProfileProposal, "sample", opening_a_block)
        chains = run_mcmc(prob, cfg, profile)
    _, accepted, _, _, indep = _reference_run_mcmc(prob, cfg, profile)
    want_blocks, want_rows = _batch_layout(
        accepted, indep, sampling._resolve_steps(cfg.n_chains)
    )
    starts, blocks = batches[0], batches[1:]
    assert starts == [cfg.n_chains]
    assert len(blocks) == len(want_blocks)
    for got, want in zip(blocks, want_blocks):
        assert got[0] == want[0]
        assert len(got) <= len(want)
    assert all(c.density_evaluations >= r for c, r in zip(chains, want_rows))
    return chains, 1 + sum(map(len, blocks)), 1 + sum(map(len, want_blocks)), want_rows


def _stub_problem(function_surrogate, dim, sigma=0.5):
    if dim == 1:
        return _gaussian_target_problem(function_surrogate, 0.3, sigma)
    return InverseProblem(
        surrogate=function_surrogate(lambda x: x[0] + 0.3 * x[1] * x[1]),
        observed=0.5,
        obs_variance=sigma * sigma,
        bounds=((-4.0, 4.0), (-3.0, 3.0)),
        prior=GaussianPrior(mean=[0.2, -0.4], cov=[[0.6, 0.1], [0.1, 0.4]]),
    )


class TestPrefetch:
    """The prefetching sampler against the one-step-at-a-time sampler."""

    @pytest.mark.parametrize("scale", [0.01, 1.0], ids=["high-acceptance", "leaves-box"])
    @pytest.mark.parametrize("n_chains", [1, 7])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_the_one_step_sampler(self, function_surrogate, dim, n_chains, scale):
        # 300 steps end in a partial block of 44
        prob = _stub_problem(function_surrogate, dim)
        cfg = McmcConfig(n_chains=n_chains, n_steps=300, burn_in=30, proposal_scale=scale, seed=4)
        _assert_matches_reference(prob, cfg, evaluate_profile_grid(prob, 64))

    @pytest.mark.parametrize("scale", [0.01, 0.2, 1.0])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_batch_layout(self, function_surrogate, monkeypatch, dim, scale):
        # The round loop resolves a chain's q-step groups in the same round,
        # so its batches depend on intermediate decisions; the serial
        # schedule, fixed by the final flags, bounds them.
        prob = _stub_problem(function_surrogate, dim)
        cfg = McmcConfig(n_chains=5, n_steps=300, burn_in=30, proposal_scale=scale, seed=4)
        profile = evaluate_profile_grid(prob, 64)
        _, made, serial, _ = _run_within_serial_schedule(monkeypatch, prob, cfg, profile)
        if scale < 1.0:
            # q proposals are accepted here, so independent groups share rounds
            assert made < serial

    @pytest.mark.parametrize("draw_blocks", [1, 3, 9])
    @pytest.mark.parametrize("n_steps", [300, 1100])
    @pytest.mark.parametrize("n_chains", [1, 7])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_across_resolve_blocks(
        self, function_surrogate, monkeypatch, dim, n_chains, n_steps, draw_blocks
    ):
        # Resolve blocks of 128, 384 and 1152 steps: the runs cross resolve
        # boundaries or end in a partial resolve block, and every run's last
        # draw block is partial.  The chains and the serial schedule's bound
        # hold whatever the resolve block.
        monkeypatch.setattr(sampling, "_RESOLVE_ROWS", n_chains * draw_blocks * _BLOCK_STEPS)
        assert sampling._resolve_steps(n_chains) == draw_blocks * _BLOCK_STEPS
        prob = _stub_problem(function_surrogate, dim)
        cfg = McmcConfig(n_chains=n_chains, n_steps=n_steps, burn_in=30, proposal_scale=0.2, seed=4)
        profile = evaluate_profile_grid(prob, 64)
        _assert_matches_reference(prob, cfg, profile)
        _run_within_serial_schedule(monkeypatch, prob, cfg, profile)

    @pytest.mark.parametrize("n_chains, n_steps", [(1, 40_000), (200, 300)])
    def test_batches_stay_within_a_resolve_block(
        self, function_surrogate, monkeypatch, n_chains, n_steps
    ):
        # The largest log density batch is a full resolve block's
        # speculation: _RESOLVE_ROWS rows, or one draw block of every chain
        # when that is more.
        batches = []

        def recording(problem, x):
            batches.append(len(x))
            return log_posterior(problem, x)

        monkeypatch.setattr(sampling, "log_posterior", recording)
        prob = _stub_problem(function_surrogate, 1)
        cfg = McmcConfig(n_chains=n_chains, n_steps=n_steps, burn_in=30, proposal_scale=0.2)
        run_mcmc(prob, cfg, evaluate_profile_grid(prob, 64))
        assert max(batches) == max(sampling._RESOLVE_ROWS, _BLOCK_STEPS * n_chains)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_with_a_proposal_built_for_another_observation(
        self, function_surrogate, monkeypatch, dim
    ):
        # q mostly misses the posterior, so q steps are rejected and rounds
        # resolve groups on states that a later rewrite replaces: those rows
        # are scored again, and the serial schedule still bounds the calls.
        prob = _stub_problem(function_surrogate, dim)
        profile = evaluate_profile_grid(
            dataclasses.replace(prob, observed=prob.observed + 2.0), 64
        )
        cfg = McmcConfig(n_chains=5, n_steps=300, burn_in=30, proposal_scale=0.2, seed=4)
        _assert_matches_reference(prob, cfg, profile)
        chains, _, _, rows = _run_within_serial_schedule(monkeypatch, prob, cfg, profile)
        assert any(c.density_evaluations > r for c, r in zip(chains, rows))

    @pytest.mark.parametrize("scale", [0.01, 1.0], ids=["high-acceptance", "leaves-box"])
    def test_matches_where_the_density_underflows(self, function_surrogate, scale):
        # exp() of the log density is 0.0 at every start, as in
        # test_chains_started_where_the_density_underflows_settle_in_the_mode
        prob = _gaussian_target_problem(function_surrogate, 0.3, 1e-3)
        cfg = McmcConfig(n_chains=7, n_steps=300, burn_in=30, proposal_scale=scale, seed=0)
        chains = _assert_matches_reference(prob, cfg, evaluate_profile_grid(prob, 64))
        assert all(c.accepted.any() for c in chains)

    def test_matches_where_the_log_density_is_minus_inf(self, function_surrogate):
        # sigma_obs^2 = 1e-320 sends log NLS to -inf off the observation, so
        # no proposal is accepted; the one-step sampler computes -inf - -inf
        # on the way, which the prefetching one must not
        prob = _gaussian_target_problem(function_surrogate, 0.3, 1e-160)
        profile = evaluate_profile_grid(_gaussian_target_problem(function_surrogate), 64)
        cfg = McmcConfig(n_chains=3, n_steps=300, burn_in=30, proposal_scale=1.0, seed=1)
        chains = _assert_matches_reference(prob, cfg, profile, reference_errstate="ignore")
        assert not any(c.accepted.any() for c in chains)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**40),
        n_chains=st.integers(1, 5),
        scale=st.floats(0.005, 1.0),
    )
    def test_matches_the_one_step_sampler_on_drawn_seeds(
        self, function_surrogate, seed, n_chains, scale
    ):
        prob = _stub_problem(function_surrogate, 1 + seed % 2)
        cfg = McmcConfig(n_chains=n_chains, n_steps=200, burn_in=10, proposal_scale=scale, seed=seed)
        _assert_matches_reference(prob, cfg, evaluate_profile_grid(prob, 64))

    def test_matches_the_one_step_sampler_on_a_gp(self):
        # Ten chains put rows at the tail of the one-step sampler's batches,
        # where a BLAS product would round with another kernel (see the next
        # test).
        rng = np.random.default_rng(0)
        x = rng.uniform(-2.0, 2.0, (12, 1))
        model = gp_fit(
            Dataset(x=x, y=np.sin(3.0 * x[:, 0]), bounds=((-2.0, 2.0),)),
            KernelSpec("matern52", 0.5, 1.0),
            1e-6,
        )
        prob = InverseProblem(surrogate=model, observed=0.4, obs_variance=0.01, bounds=((-2.0, 2.0),))
        cfg = McmcConfig(n_chains=10, n_steps=300, burn_in=30, proposal_scale=0.2, seed=2)
        _assert_matches_reference(prob, cfg, evaluate_profile_grid(prob, 256))

    @pytest.mark.parametrize("n", [25, 300])
    def test_batching_keeps_a_gp_mean_bit_for_bit(self, n):
        # The prefetch scores rows in other batches than the one-step
        # sampler.  BLAS gemv rounds the last m mod 4 rows of a batch, and
        # rows at a thread split, with other kernels; the GP's einsum sums
        # each row of its (m, n) cross-covariance in an order fixed by n, so
        # no batch moves a mean.  log_posterior adds no batch dependence.
        sizes = [1, 10, 1280, _MEAN_CHUNK_ROWS + 1]
        rng = np.random.default_rng(0)
        x = rng.uniform(-2.0, 2.0, (n, 2))
        model = gp_fit(
            Dataset(x=x, y=np.sin(x).sum(axis=1), bounds=((-2.0, 2.0),) * 2),
            KernelSpec("matern52", 0.8, 1.3),
            1e-6,
        )
        prob = InverseProblem(
            surrogate=model,
            observed=0.3,
            obs_variance=0.01,
            bounds=((-2.0, 2.0),) * 2,
            prior=GaussianPrior(mean=[0.1, 0.1], cov=[[0.5, 0.1], [0.1, 0.3]]),
        )
        points = rng.uniform(-3.0, 3.0, (sum(sizes), 2))
        parts = np.split(points, np.cumsum(sizes)[:-1])

        whole = model.predict_mean(points).view(np.int64)
        for mean in (
            model.predict_mean,
            lambda p: model.mean_grad(p)[0],
            lambda p: gp_predict_many(model, p)[0],
        ):
            np.testing.assert_array_equal(mean(points).view(np.int64), whole)
            split = np.concatenate([mean(p) for p in parts])
            np.testing.assert_array_equal(split.view(np.int64), whole)
        by_part = [log_posterior(prob, p) for p in parts]
        for k, column in enumerate(log_posterior(prob, points)):
            joined = np.concatenate([lp[k] for lp in by_part])
            np.testing.assert_array_equal(column.view(np.int64), joined.view(np.int64))


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

    @pytest.mark.parametrize("value", [0.1, 0.7, -3.3, 1e6])
    def test_silverman_rejects_samples_constant_up_to_rounding(self, value):
        # np.full(50, 0.1) has a computed std of 2.8e-17, not 0
        with pytest.raises(DegenerateDataError, match="identical"):
            silverman_bandwidth(np.full(50, value))

    @pytest.mark.parametrize("samples", [[], [0.4]], ids=["none", "one"])
    def test_silverman_needs_two_samples(self, samples):
        with pytest.raises(DegenerateDataError, match="2 samples"):
            silverman_bandwidth(samples)

    def test_silverman_accepts_a_small_relative_spread(self):
        samples = 1.0 + 1e-10 * np.random.default_rng(4).standard_normal(50)
        assert silverman_bandwidth(samples) > 0.0

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
        ref = grid_posterior(evaluate_profile_grid(prob, 2048))
        exact = stats.norm(mean, math.sqrt(var)).pdf(ref.grid)
        assert np.max(np.abs(ref.density - exact)) <= 1e-3 * np.max(exact)

    def test_chains_match_closed_form(self, linear_gaussian):
        prob, mean, var = linear_gaussian
        cfg = McmcConfig(n_chains=4, n_steps=18000, burn_in=2000, seed=0)
        thinned = np.concatenate([c.samples[::20, 0] for c in _chains(prob, cfg)])
        assert stats.kstest(thinned, stats.norm(mean, math.sqrt(var)).cdf).pvalue > 0.01

    def test_mixture_correction_is_exact(self, linear_gaussian):
        # q is built from a problem whose posterior mean sits 0.76 (2.5 sd)
        # to the right, so the chains follow the true posterior only through
        # the log q(x) - log q(x') term of the independence acceptance.
        prob, mean, var = linear_gaussian
        shifted = dataclasses.replace(prob, observed=prob.observed + 2.0)
        cfg = McmcConfig(n_chains=4, n_steps=18000, burn_in=2000, seed=0)
        chains = run_mcmc(prob, cfg, evaluate_profile_grid(shifted, 2048))
        assert all(c.independence_accepted > 0 for c in chains)
        thinned = np.concatenate([c.samples[::20, 0] for c in chains])
        assert stats.kstest(thinned, stats.norm(mean, math.sqrt(var)).cdf).pvalue > 0.01

    def test_mixture_correction_is_exact_in_2d(self, function_surrogate):
        # x0 is observed through f(x) = x0 and x1 only through the prior, so
        # the posterior is N(mean, diag(var)).  The profile comes from a
        # problem shifted on both axes, on a box of unequal sides, so a q
        # whose sampling and density disagree on the cell order fails.
        s2, m, g = 0.25, np.array([0.2, -0.4]), np.array([0.3, 0.2])
        def problem(observed, prior_mean):
            return InverseProblem(
                surrogate=function_surrogate(lambda x: x[0]),
                observed=observed,
                obs_variance=s2,
                bounds=((-4.0, 4.0), (-3.0, 3.0)),
                prior=GaussianPrior(mean=prior_mean, cov=np.diag(g)),
            )
        prob = problem(0.5, m)
        var = np.array([1.0 / (1.0 / s2 + 1.0 / g[0]), g[1]])
        mean = np.array([var[0] * (0.5 / s2 + m[0] / g[0]), m[1]])
        shifted = problem(1.5, m + [0.0, 0.9])
        cfg = McmcConfig(n_chains=4, n_steps=18000, burn_in=2000, seed=3)
        chains = run_mcmc(prob, cfg, evaluate_profile_grid(shifted, 128))
        thinned = np.concatenate([c.samples[::20] for c in chains])
        for k in range(2):
            exact = stats.norm(mean[k], math.sqrt(var[k])).cdf
            assert stats.kstest(thinned[:, k], exact).pvalue > 0.01

    def test_independence_counters(self, linear_gaussian):
        prob, _, _ = linear_gaussian
        cfg = McmcConfig(n_chains=3, n_steps=4000, burn_in=0, seed=2)
        for chain in _chains(prob, cfg):
            share = chain.independence_proposals / cfg.n_steps
            assert abs(share - INDEPENDENCE_PROBABILITY) < 0.03
            assert 0 < chain.independence_accepted <= chain.independence_proposals
            assert chain.independence_accepted <= chain.accepted.sum()

    def test_profile_must_span_the_bounds(self, linear_gaussian):
        prob, _, _ = linear_gaussian
        narrower = dataclasses.replace(prob, bounds=((-4.0, 3.0),))
        with pytest.raises(ConfigurationError, match="span"):
            run_mcmc(prob, McmcConfig(n_chains=1, n_steps=10, burn_in=0),
                     evaluate_profile_grid(narrower, 64))


class TestGridPosterior:
    def test_integral_is_exactly_one(self, function_surrogate):
        prob = _gaussian_target_problem(function_surrogate)
        ref = grid_posterior(evaluate_profile_grid(prob, 512))
        assert abs(np.trapezoid(ref.density, ref.grid) - 1.0) <= 1e-10

    def test_gaussian_mode_within_one_cell(self, function_surrogate):
        mu = 0.3
        prob = _gaussian_target_problem(function_surrogate, mu=mu)
        ref = grid_posterior(evaluate_profile_grid(prob, 512))
        cell = (10.0 - (-10.0)) / 511
        assert len(ref.mode_locations) == 1
        assert abs(ref.mode_locations[0] - mu) <= cell

    def test_density_proportional_to_nls(self, function_surrogate):
        prob = _gaussian_target_problem(function_surrogate)
        ref = grid_posterior(evaluate_profile_grid(prob, 128))
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
        ref = grid_posterior(evaluate_profile_grid(prob, 512))
        assert len(ref.mode_locations) >= 3
        gaps = np.diff(np.sort(ref.mode_indices))
        assert np.all(gaps > 5)

    def test_resolution_validation(self, function_surrogate):
        prob = _gaussian_target_problem(function_surrogate)
        with pytest.raises(ConfigurationError):
            grid_posterior(evaluate_profile_grid(prob, 32))

    def test_nls_underflowing_on_the_whole_grid_keeps_unit_mass(self, function_surrogate):
        # an observation 1e6 away from the stub's range gives NLS = 0.0 at
        # every cell, while log NLS stays finite
        prob = _gaussian_target_problem(function_surrogate, mu=1e6, sigma=1.0)
        profile = evaluate_profile_grid(prob, 128)
        assert np.max(np.exp(log_posterior(prob, profile[1])[1])) == 0.0
        ref = grid_posterior(profile)
        assert np.trapezoid(ref.density, ref.grid) == pytest.approx(1.0, rel=1e-12)
        assert np.argmax(ref.density) == ref.grid.size - 1

    def test_2d_problem_rejected(self, function_surrogate):
        prob = InverseProblem(
            surrogate=function_surrogate(lambda x: x[0] + x[1]),
            observed=0.0,
            obs_variance=1.0,
            bounds=((0.0, 1.0), (0.0, 1.0)),
        )
        with pytest.raises(UnsupportedDimensionError):
            grid_posterior(evaluate_profile_grid(prob, 128))
