"""Sampling-based posterior diagnostics on the surrogate.

Random-walk Metropolis chains target the unnormalized density
NLS(x) = exp(-LS(x) / (2 sigma_obs^2)) restricted to the parameter box.
Per-chain kernel density estimates and a dense-grid reference posterior give
a qualitative picture of multimodality that the local Laplace summary cannot
provide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, DegenerateDataError, InferenceError, UnsupportedDimensionError
from .inversion import InverseProblem

__all__ = [
    "McmcConfig",
    "ChainResult",
    "GridPosterior",
    "run_mcmc",
    "kde_estimate",
    "silverman_bandwidth",
    "grid_posterior",
]

_LOG_DENSITY_FLOOR = -745.0  # below this exp() underflows to exactly 0.0
_INIT_ATTEMPTS = 100


@dataclass(frozen=True)
class McmcConfig:
    """Chain count, length, burn-in, and proposal width (domain fraction)."""

    n_chains: int = 10
    n_steps: int = 20000
    burn_in: int = 2000
    proposal_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n_chains < 1:
            raise ConfigurationError("n_chains must be >= 1")
        if self.n_steps < 1:
            raise ConfigurationError("n_steps must be >= 1")
        if not 0 <= self.burn_in < self.n_steps:
            raise ConfigurationError("burn_in must satisfy 0 <= burn_in < n_steps")
        if not 0.0 < self.proposal_scale <= 1.0:
            raise ConfigurationError("proposal_scale must lie in (0, 1]")


@dataclass(frozen=True)
class ChainResult:
    """Post burn-in samples plus bookkeeping for one chain."""

    chain_index: int
    samples: np.ndarray  # (n_steps - burn_in, d), a view of path
    path: np.ndarray  # (n_steps, d), state after every proposal
    accepted: np.ndarray  # (n_steps,) bool
    acceptance_rate: float
    initial_state: np.ndarray


def _chain_rng(seed: int, chain_index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) % (2**63), int(chain_index)])


def _log_density_fn(problem: InverseProblem):
    lo, hi = np.asarray(problem.bounds, dtype=float).T
    two_s2 = 2.0 * problem.obs_variance
    observed = problem.observed

    def log_density_many(x: np.ndarray) -> np.ndarray:
        mean = problem.surrogate.predict_mean(x)
        logp = -((observed - mean) ** 2) / two_s2
        inside = np.all((x >= lo) & (x <= hi), axis=1)
        return np.where(inside, logp, -np.inf)

    return log_density_many


def run_mcmc(problem: InverseProblem, config: McmcConfig) -> list[ChainResult]:
    """Independent random-walk Metropolis chains on the NLS density.

    Each chain draws from its own generator seeded by (seed, chain_index),
    starts at a uniform in-bounds point with nonzero density, and proposes
    isotropic Gaussian steps scaled per dimension by proposal_scale times
    the domain width.  Out-of-bounds proposals are rejected.  The chains are
    advanced in lockstep purely so surrogate predictions can be batched;
    no state is shared between them.
    """
    d = problem.dim
    lo, hi = np.asarray(problem.bounds, dtype=float).T
    widths = hi - lo
    step = config.proposal_scale * widths
    log_density = _log_density_fn(problem)

    rngs = [_chain_rng(config.seed, i) for i in range(config.n_chains)]
    current = np.zeros((config.n_chains, d))
    for i, rng in enumerate(rngs):
        for attempt in range(_INIT_ATTEMPTS):
            candidate = lo + rng.random(d) * widths
            if log_density(candidate[None, :])[0] > _LOG_DENSITY_FLOOR:
                current[i] = candidate
                break
        else:
            raise InferenceError(
                f"chain {i}: no initialization with nonzero posterior density "
                f"found in {_INIT_ATTEMPTS} attempts"
            )
    initial = current.copy()
    logp = log_density(current)

    n_steps, n_chains = config.n_steps, config.n_chains
    path = np.zeros((n_chains, n_steps, d))
    accepted = np.zeros((n_chains, n_steps), dtype=bool)
    for t in range(n_steps):
        proposals = np.empty_like(current)
        log_u = np.empty(n_chains)
        for i, rng in enumerate(rngs):
            proposals[i] = current[i] + step * rng.standard_normal(d)
            log_u[i] = math.log(rng.random())
        logp_new = log_density(proposals)
        accept = log_u < (logp_new - logp)
        current[accept] = proposals[accept]
        logp[accept] = logp_new[accept]
        accepted[:, t] = accept
        path[:, t, :] = current

    results = []
    for i in range(n_chains):
        results.append(
            ChainResult(
                chain_index=i,
                samples=path[i, config.burn_in :, :],
                path=path[i],
                accepted=accepted[i],
                acceptance_rate=float(np.mean(accepted[i])),
                initial_state=initial[i],
            )
        )
    return results


def silverman_bandwidth(samples: np.ndarray) -> float:
    """1.06 * std * n^(-1/5); raises for degenerate (constant) samples."""
    samples = np.asarray(samples, dtype=float).ravel()
    std = float(np.std(samples, ddof=1))
    if std == 0.0:
        raise DegenerateDataError(
            "all samples identical: automatic bandwidth is degenerate"
        )
    return 1.06 * std * samples.size ** (-0.2)


def kde_estimate(
    samples: np.ndarray,
    grid: np.ndarray,
    bandwidth: Optional[float] = None,
) -> np.ndarray:
    """Gaussian kernel density estimate of 1D samples on a grid.

    ``bandwidth=None`` selects Silverman's rule.  The result integrates to
    one (trapezoidal, to within a couple percent) whenever the grid spans the
    sample range plus a few bandwidths.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size < 2:
        raise DegenerateDataError("kernel density estimation needs >= 2 samples")
    h = silverman_bandwidth(samples) if bandwidth is None else float(bandwidth)
    if h <= 0:
        raise ConfigurationError("bandwidth must be positive")
    grid = np.asarray(grid, dtype=float).ravel()
    z = (grid[:, None] - samples[None, :]) / h
    return np.exp(-0.5 * z * z).sum(axis=1) / (
        samples.size * h * math.sqrt(2.0 * math.pi)
    )


@dataclass(frozen=True)
class GridPosterior:
    """Normalized dense-grid posterior and its detected modes."""

    grid: np.ndarray
    density: np.ndarray
    mode_indices: np.ndarray
    mode_locations: np.ndarray


MODE_FLOOR_FRACTION = 0.05  # local maxima below 5% of the peak are noise


def grid_posterior(problem: InverseProblem, resolution: int = 512) -> GridPosterior:
    """Reference posterior: NLS on a dense 1D grid, trapezoid-normalized.

    Modes are strict interior local maxima of the density above 5% of its
    peak.  Only one-dimensional problems are supported; the sampler itself
    has no such restriction.
    """
    if resolution < 64:
        raise ConfigurationError("resolution must be >= 64")
    if problem.dim != 1:
        raise UnsupportedDimensionError(
            "grid_posterior builds a 1D reference density"
        )
    lo, hi = problem.bounds[0]
    xs = np.linspace(lo, hi, resolution)
    mean = problem.surrogate.predict_mean(xs.reshape(-1, 1))
    nls = np.exp(-((problem.observed - mean) ** 2) / (2.0 * problem.obs_variance))
    integral = float(np.trapezoid(nls, xs))
    if integral <= 0:
        raise InferenceError("posterior mass underflowed to zero on the grid")
    density = nls / integral

    peak = float(np.max(density))
    interior = np.arange(1, resolution - 1)
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
