"""Sampling-based posterior diagnostics on the surrogate.

Metropolis chains target the unnormalized posterior
NLS(x) = exp(-Phi(x) / (2 sigma_obs^2)) restricted to the parameter box, where
Phi is the inversion module's objective: the misfit LS plus the Gaussian
prior term when the problem has a prior.  Each step mixes a random-walk
kernel with an independence kernel whose proposal is built from the
inversion stage's profile grid.  The sampler prefetches log densities along
each block's most likely path and rescores where the chains leave it, in
rounds that resolve the independent stretches of every chain at once, so a
few batched surrogate calls per block replace one call per step, with the
arithmetic of a one-step-at-a-time sampler.
Per-chain kernel density estimates and a dense-grid reference posterior give
a qualitative picture of multimodality that the local Laplace summary cannot
provide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import fft as sfft

from .errors import ConfigurationError, DegenerateDataError, UnsupportedDimensionError
from .inversion import InverseProblem, log_posterior

__all__ = [
    "McmcConfig",
    "ChainResult",
    "GridPosterior",
    "run_mcmc",
    "kde_estimate",
    "silverman_bandwidth",
    "grid_posterior",
]

_KDE_CELLS_PER_BANDWIDTH = 64  # internal KDE grid spacing is h / 64
_KDE_TAIL = 8.0  # kernel truncated, and the internal grid padded, at 8h
_KDE_MAX_CELLS = 1 << 20
# Relative std at or below which silverman_bandwidth treats samples as one
# repeated value; constant arrays of up to 10^6 samples compute to <= 2.6 eps.
_ROUNDOFF_SPREAD = 64 * np.finfo(float).eps

# Probability that a chain step proposes from the profile-grid independence
# proposal q instead of a random-walk step, and q's share uniform by volume.
INDEPENDENCE_PROBABILITY = 0.2
_Q_UNIFORM_SHARE = 0.01
# Steps of random numbers each chain draws at once; bounds the draw buffers
# whatever n_steps is.
_BLOCK_STEPS = 128

# Upper bound on n_chains * n_steps * d, the floats of the chain paths that
# run_mcmc holds and the chain CSVs write out.
MAX_CHAIN_VALUES = 4_000_000
# Upper bound on n_chains: each chain costs its own generator, draw buffers
# and two CSV files whatever n_steps is.
MAX_CHAINS = 1024


@dataclass(frozen=True)
class McmcConfig:
    """Chain count, length, burn-in, and proposal width (domain fraction).

    ``n_chains`` lies in [1, MAX_CHAINS], and ``burn_in`` leaves each chain
    at least 2 samples, the fewest a kernel density estimate takes.
    """

    n_chains: int = 10
    n_steps: int = 20000
    burn_in: int = 2000
    proposal_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.n_chains <= MAX_CHAINS:
            raise ConfigurationError(f"n_chains must lie in [1, {MAX_CHAINS}]")
        if not 0 <= self.burn_in <= self.n_steps - 2:
            raise ConfigurationError(
                "burn_in must satisfy 0 <= burn_in <= n_steps - 2, leaving each "
                "chain >= 2 samples"
            )
        if not 0.0 < self.proposal_scale <= 1.0:
            raise ConfigurationError("proposal_scale must lie in (0, 1]")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")


@dataclass(frozen=True)
class ChainResult:
    """Post burn-in samples plus bookkeeping for one chain."""

    chain_index: int
    samples: np.ndarray  # (n_steps - burn_in, d), a view of path
    path: np.ndarray  # (n_steps, d), state after every proposal
    accepted: np.ndarray  # (n_steps,) bool
    acceptance_rate: float
    independence_proposals: int  # steps that proposed from the profile q
    independence_accepted: int  # of those, the accepted ones
    density_evaluations: int  # rows in batched log density calls, rescored rows included


def _chain_rng(seed: int, chain_index: int) -> np.random.Generator:
    # SeedSequence pads missing words with zeros, so every seed below 2^32
    # keeps the stream of the plain (seed, chain_index) entropy.
    return np.random.default_rng([seed & 0xFFFFFFFF, chain_index, seed >> 32])


class _ProfileProposal:
    """Independence proposal q built from an ``evaluate_profile_grid`` tuple.

    Reads the tuple's axes and nls_normalized fields.  Each grid node owns
    the cell between the midpoints to its neighbours, clipped to the box, so
    the end nodes get half cells.  A cell's mass is its share of the summed
    ``nls_normalized``, mixed with a 1 % share uniform by volume, and q is
    uniform inside each cell.  q is therefore positive on the whole box.
    """

    def __init__(self, profile, bounds):
        axes, _, _, normalized = profile
        if len(axes) != len(bounds) or any(
            ax[0] != lo or ax[-1] != hi for ax, (lo, hi) in zip(axes, bounds)
        ):
            raise ConfigurationError("the profile grid must span the problem's bounds")
        self.edges = [
            np.concatenate(([ax[0]], 0.5 * (ax[:-1] + ax[1:]), [ax[-1]])) for ax in axes
        ]
        self.shape = tuple(len(ax) for ax in axes)
        volume = np.ones(1)
        for e in self.edges:
            volume = np.multiply.outer(volume, np.diff(e)).ravel()
        mass = (1.0 - _Q_UNIFORM_SHARE) * normalized / normalized.sum()
        mass += _Q_UNIFORM_SHARE * volume / volume.sum()
        self.cumulative = np.cumsum(mass)
        self.cumulative /= self.cumulative[-1]
        self.cell_log_density = np.log(mass) - np.log(volume)

    def sample(self, cell_u: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Points of q from uniforms: one picks the cell, d place the point."""
        # cumulative[-1] is exactly 1, so every u in [0, 1) picks a cell
        flat = np.searchsorted(self.cumulative, cell_u, side="right")
        points = np.empty_like(offsets)
        # C-order cell index, unravelled by integer arithmetic: numpy 2.4's
        # unravel_index returns wrong values past element 8,192 of an (N, 1)
        # index array.
        for k in reversed(range(len(self.shape))):
            flat, idx = np.divmod(flat, self.shape[k])
            e = self.edges[k]
            points[:, k] = e[idx] + offsets[:, k] * (e[idx + 1] - e[idx])
        return points

    def log_density(self, x: np.ndarray) -> np.ndarray:
        """log q at each row of an (m, d) array of in-box points."""
        # Searching the inner edges gives the cell index directly, the last
        # cell including the upper bound.
        flat = np.searchsorted(self.edges[0][1:-1], x[:, 0], side="right")
        for k in range(1, len(self.shape)):
            idx = np.searchsorted(self.edges[k][1:-1], x[:, k], side="right")
            flat = flat * self.shape[k] + idx
        return self.cell_log_density[flat]


def _reach(indep: np.ndarray) -> np.ndarray:
    """(n, size) array: the step after the first q step after t, else size."""
    n, size = indep.shape
    after = np.where(indep[:, 1:], np.arange(2, size + 1), size)
    after = np.concatenate([after, np.full((n, 1), size)], axis=1)
    return np.minimum.accumulate(after[:, ::-1], axis=1)[:, ::-1]


def _take(start: np.ndarray, values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Per chain, ``start`` where ``index`` is 0 and ``values[:, index - 1]`` elsewhere."""
    rows = np.arange(len(start))[:, None]
    return np.concatenate([start[:, None], values], axis=1)[rows, index]


def _log_gain(logp_new: np.ndarray, logp: np.ndarray) -> np.ndarray:
    """log pi(x') - log pi(x), and -inf where pi(x') is 0.

    A proposal of log density -inf is rejected whatever log pi(x) is, so
    -inf - -inf, a NaN rejection with a RuntimeWarning, is never computed.
    """
    return np.subtract(
        logp_new, logp, out=np.full_like(logp_new, -np.inf), where=logp_new > -np.inf
    )


def run_mcmc(problem: InverseProblem, config: McmcConfig, profile) -> list[ChainResult]:
    """Independent Metropolis chains on the NLS density.

    The log density is -Phi / (2 sigma_obs^2), so a problem's Gaussian prior
    shapes the chains as it does the MAP, Laplace and level-set stages.

    Each step is a mixture of two Metropolis-Hastings kernels (Tierney 1994).
    With probability INDEPENDENCE_PROBABILITY a chain proposes a point x' of
    the independence proposal q built from ``profile``, the (axes, points,
    ls, nls_normalized) tuple that ``evaluate_profile_grid`` returns for
    this problem: a cell chosen in proportion to its normalized NLS, mixed
    with 1 % uniform by volume, and a uniform point inside it.  It accepts x'
    when log u < log pi(x') - log pi(x) + log q(x) - log q(x').  Otherwise it
    takes an isotropic Gaussian random-walk step scaled per dimension by
    proposal_scale times the domain width; out-of-bounds proposals are
    rejected.  Both kernels leave the posterior invariant and q > 0 on the
    box, so the chains stay exact whatever the profile.

    Each chain draws from its own generator seeded by (seed, chain_index),
    starts at its first uniform draw in the box, and then draws its random
    numbers in blocks of _BLOCK_STEPS steps.  Acceptance compares log
    densities, so a start where exp() underflows needs no retry.  No state
    is shared between chains.

    Density evaluations are prefetched along each block's most likely path,
    the speculation (Brockwell 2006; Strid 2010): every q proposal accepted
    and every random-walk proposal rejected.  On it the state before a step
    is the q point of the chain's last q step, so one batched call scores
    every proposal of the block.  Rounds follow, one batched call each for
    all chains.  A group is a q step and the random-walk steps after it; an
    accepted q proposal makes a group's states independent of the groups
    before it.  Each round takes, in every group of every chain, the first
    step whose decision differs from the one its successors' states were
    written for (at first a rejected q or an accepted random-walk proposal),
    and scores the group's later random-walk proposals again from the state
    after it.  A q step waits until it is its chain's first such step, when
    its inputs are final.  So each chain's first such step is final too, a
    run makes at most the rounds of one that resolves one step per chain per
    round, and a group resolved on states that a later round changes is
    scored again.
    Every proposal and acceptance test is computed with the arithmetic of a
    one-step-at-a-time sampler, and only the batches in which log densities
    are computed differ.  So the chains are that sampler's bit for bit
    whenever the surrogate's mean at a row does not depend on the other rows
    of its batch, as ``GpModel.predict_mean``'s does not; ``log_posterior``
    adds no such dependence of its own.  ``ChainResult.density_evaluations``
    counts each chain's rows in the batched calls, the start, the discarded
    prefetches and the rows scored again included; like the chains, it
    depends only on the seed and the problem.
    """
    d = problem.dim
    lo, hi = np.asarray(problem.bounds, dtype=float).T
    widths = hi - lo
    step = config.proposal_scale * widths
    q = _ProfileProposal(profile, problem.bounds)

    def log_density(x: np.ndarray) -> np.ndarray:
        inside = ((x >= lo) & (x <= hi)).all(axis=1)
        return np.where(inside, log_posterior(problem, x)[1], -np.inf)

    rngs = [_chain_rng(config.seed, i) for i in range(config.n_chains)]
    current = lo + np.stack([rng.random(d) for rng in rngs]) * widths
    logp = log_density(current)

    n_steps, n_chains = config.n_steps, config.n_chains
    chains = np.arange(n_chains)
    path = np.zeros((n_chains, n_steps, d))
    accepted = np.zeros((n_chains, n_steps), dtype=bool)
    made = np.zeros(n_chains, dtype=int)
    taken = np.zeros(n_chains, dtype=int)
    evaluations = np.ones(n_chains, dtype=int)
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
        q_points = q.sample(cell_u.ravel(), offsets.reshape(-1, d)).reshape(offsets.shape)
        log_q = q.log_density(q_points.reshape(-1, d)).reshape(indep.shape)
        shift = step * normal
        # Accept when -E < log pi(x') - log pi(x) [+ log q(x) - log q(x')].
        bar = np.where(indep, log_q, 0.0) - expo
        steps = np.arange(size)

        # The speculation accepts every q proposal and rejects every random
        # walk, so the state before step t is the q point of the chain's last
        # q step k < t (index k + 1 for _take) or the block's start (0).
        after = np.maximum.accumulate(np.where(indep, steps + 1, 0), axis=1)
        before = np.concatenate([np.zeros((n_chains, 1), dtype=int), after[:, :-1]], axis=1)
        x_before = _take(current, q_points, before)
        # A q proposal x * 0.0 + q is q bit for bit: x is finite, q never -0.0.
        proposals = np.where(indep[:, :, None], q_points, x_before + shift)
        logp_new = log_density(proposals.reshape(-1, d)).reshape(indep.shape)
        evaluations += size
        logp_before = _take(logp, logp_new, before)
        lq_before = _take(q.log_density(current), log_q, before)

        # Each round decides the steps whose inputs were just written.  An
        # event is a step whose decision differs from the one its successors'
        # states were written for: written starts as the speculation, and
        # stale marks a q step whose state before was rewritten after its
        # successors were.  The first event of each group is resolved, a q
        # step's only as its chain's first: the state after it is written as
        # the state before the steps up to the next q step, whose random-walk
        # proposals are scored again.  proposals and logp_new so hold, at each
        # accepted step, the point taken and its log density.  Chain c's step
        # t is row c * size + t of the flat views below, and group numbers
        # differ between chains.
        group = (np.cumsum(indep, axis=1) + (size + 1) * chains[:, None]).ravel()
        reach = (_reach(indep) + size * chains[:, None]).ravel()
        x_before, proposals, shift = (a.reshape(-1, d) for a in (x_before, proposals, shift))
        logp_before, logp_new, lq_before, bar, is_q = (
            a.ravel() for a in (logp_before, logp_new, lq_before, bar, indep)
        )
        decided = np.empty_like(is_q)
        written, stale = is_q.copy(), np.zeros_like(is_q)
        rows = np.arange(is_q.size)
        while True:
            gain = _log_gain(logp_new[rows], logp_before[rows])
            np.add(gain, lq_before[rows], out=gain, where=is_q[rows])
            decided[rows] = bar[rows] < gain
            events = np.flatnonzero((decided != written) | (stale & ~decided))
            if not events.size:
                break
            g, live = group[events], events // size
            first = np.concatenate(([True], g[1:] != g[:-1]))
            first &= ~is_q[events] | np.concatenate(([True], live[1:] != live[:-1]))
            events = events[first]
            took = decided[events]
            x = np.where(took[:, None], proposals[events], x_before[events])
            x_logp = np.where(took, logp_new[events], logp_before[events])
            lengths = reach[events] - events - 1
            # Row r of an event whose rows start at row r0 is row event + 1 + r - r0.
            k = np.repeat(np.arange(events.size), lengths)
            rows = np.arange(k.size) + (events + 1 - np.cumsum(lengths) + lengths)[k]
            x_before[rows] = x[k]
            logp_before[rows] = x_logp[k]
            lq_before[rows] = q.log_density(x)[k]
            written[events] = took
            stale[events] = False
            stale[rows] = is_q[rows]  # the q step that ends a group
            walk = rows[~is_q[rows]]
            written[walk] = False
            if walk.size:
                proposals[walk] = x_before[walk] + shift[walk]
                logp_new[walk] = log_density(proposals[walk])
                evaluations += np.bincount(walk // size, minlength=n_chains)

        # The state after step t is the point taken at the last accepted step.
        accepted[:, start : start + size] = block_accepted = decided.reshape(indep.shape)
        last = np.maximum.accumulate(np.where(block_accepted, steps + 1, 0), axis=1)
        path[:, start : start + size] = _take(current, proposals.reshape(n_chains, size, d), last)
        current = path[:, start + size - 1]
        logp = _take(logp, logp_new.reshape(indep.shape), last[:, -1:])[:, 0]
        made += indep.sum(axis=1)
        taken += (indep & block_accepted).sum(axis=1)

    return [
        ChainResult(
            chain_index=i,
            samples=path[i, config.burn_in :, :],
            path=path[i],
            accepted=accepted[i],
            acceptance_rate=float(np.mean(accepted[i])),
            independence_proposals=int(made[i]),
            independence_accepted=int(taken[i]),
            density_evaluations=int(evaluations[i]),
        )
        for i in range(n_chains)
    ]


def silverman_bandwidth(samples: np.ndarray) -> float:
    """1.06 * std * n^(-1/5); raises for too few, non-finite or constant samples.

    Samples count as constant when their std is at most
    _ROUNDOFF_SPREAD * max|x|: the std of n copies of one value computes to
    a few eps * |x|, not to zero.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size < 2:
        raise DegenerateDataError("a bandwidth needs >= 2 samples")
    if not np.all(np.isfinite(samples)):
        raise ConfigurationError("samples must be finite")
    std = float(np.std(samples, ddof=1))
    if std <= _ROUNDOFF_SPREAD * float(np.max(np.abs(samples))):
        raise DegenerateDataError(
            f"samples identical up to rounding (std {std:.3g}): automatic "
            f"bandwidth is degenerate"
        )
    return 1.06 * std * samples.size ** (-0.2)


def kde_estimate(
    samples: np.ndarray,
    grid: np.ndarray,
    bandwidth: Optional[float] = None,
) -> np.ndarray:
    """Gaussian kernel density estimate of 1D samples at the points of grid.

    ``bandwidth=None`` selects Silverman's rule.  The result integrates to
    one (trapezoidal, to within a couple percent) whenever the grid spans the
    sample range plus a few bandwidths.

    The estimate is binned (Silverman 1982, AS 176; Wand 1994): the samples
    are linearly binned onto an internal uniform grid of spacing
    delta = h/64 spanning min(samples) - 8h to max(samples) + 8h, the counts
    are convolved by FFT with the Gaussian kernel truncated at 8h, and the
    result is interpolated linearly at the grid points (0 beyond the internal
    grid).  Binning and interpolation each err by at most
    delta^2 / (8 h^3 sqrt(2 pi)) and the truncation by e^-32 of the kernel
    height, so against the exact sum over samples

        |estimate - exact| <= ((delta/h)^2 / 4 + 1e-13) / (h sqrt(2 pi)),

    about 6.1e-5 of the kernel height.  The internal grid is capped at 2^20
    cells, so memory stays bounded whatever the bandwidth; a (span/h) that
    would need more raises ``ConfigurationError``.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size < 2:
        raise DegenerateDataError("kernel density estimation needs >= 2 samples")
    grid = np.asarray(grid, dtype=float).ravel()
    if not (np.all(np.isfinite(samples)) and np.all(np.isfinite(grid))):
        raise ConfigurationError("samples and grid points must be finite")
    h = silverman_bandwidth(samples) if bandwidth is None else float(bandwidth)
    if not 0 < h < math.inf:
        raise ConfigurationError("bandwidth must be positive and finite")

    delta = h / _KDE_CELLS_PER_BANDWIDTH
    lo = float(samples.min()) - _KDE_TAIL * h
    span = float(samples.max()) + _KDE_TAIL * h - lo
    if not span / delta <= _KDE_MAX_CELLS - 1:
        raise ConfigurationError(
            f"span/h = {span / h:.4g} (sample range plus 16 bandwidths) needs more "
            f"than {_KDE_MAX_CELLS} KDE grid cells of h/{_KDE_CELLS_PER_BANDWIDTH}: "
            f"use a larger bandwidth"
        )
    n_cells = math.ceil(span / delta) + 1
    pos = (samples - lo) / delta
    left = pos.astype(np.intp)
    frac = pos - left
    counts = np.bincount(left, weights=1.0 - frac, minlength=n_cells)
    counts += np.bincount(left + 1, weights=frac, minlength=n_cells)

    reach = int(_KDE_TAIL * _KDE_CELLS_PER_BANDWIDTH)
    offsets = np.arange(-reach, reach + 1) / _KDE_CELLS_PER_BANDWIDTH
    kernel = np.exp(-0.5 * offsets * offsets) / (
        samples.size * h * math.sqrt(2.0 * math.pi)
    )
    n_fft = sfft.next_fast_len(n_cells + 2 * reach, real=True)
    smoothed = sfft.irfft(sfft.rfft(counts, n_fft) * sfft.rfft(kernel, n_fft), n_fft)
    density = np.maximum(smoothed[reach : reach + n_cells], 0.0)
    return np.interp(grid, lo + delta * np.arange(n_cells), density, left=0.0, right=0.0)


@dataclass(frozen=True)
class GridPosterior:
    """Normalized dense-grid posterior and its detected modes."""

    grid: np.ndarray
    density: np.ndarray
    mode_indices: np.ndarray
    mode_locations: np.ndarray


MODE_FLOOR_FRACTION = 0.05  # local maxima below 5% of the peak are noise


def grid_posterior(profile) -> GridPosterior:
    """Reference posterior: a profile's nls_normalized, trapezoid-normalized.

    ``profile`` is the (axes, points, ls, nls_normalized) tuple that
    ``evaluate_profile_grid`` returns for a 1D problem, with at least 64
    points.  Modes are strict interior local maxima of the density above 5%
    of its peak.  Only one-dimensional profiles are supported; the sampler
    itself has no such restriction.
    """
    axes, _, _, normalized = profile
    if len(axes) != 1:
        raise UnsupportedDimensionError("grid_posterior builds a 1D reference density")
    (xs,) = axes
    if xs.size < 64:
        raise ConfigurationError("grid_resolution must be >= 64")
    density = normalized / np.trapezoid(normalized, xs)

    peak = float(np.max(density))
    interior = np.arange(1, xs.size - 1)
    is_mode = (
        (density[interior] > density[interior - 1])
        & (density[interior] > density[interior + 1])
        & (density[interior] >= MODE_FLOOR_FRACTION * peak)
    )
    idx = interior[is_mode]
    return GridPosterior(
        grid=xs,
        density=density,
        mode_indices=idx,
        mode_locations=xs[idx],
    )
