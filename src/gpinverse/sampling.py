"""Sampling-based posterior diagnostics on the surrogate.

Random-walk Metropolis chains target the unnormalized posterior
NLS(x) = exp(-Phi(x) / (2 sigma_obs^2)) restricted to the parameter box, where
Phi is the inversion module's objective: the misfit LS plus the Gaussian
prior term when the problem has a prior.
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

from .errors import ConfigurationError, DegenerateDataError, InferenceError, UnsupportedDimensionError
from .inversion import InverseProblem, evaluate_profile_grid, log_posterior

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
_KDE_CELLS_PER_BANDWIDTH = 64  # internal KDE grid spacing is h / 64
_KDE_TAIL = 8.0  # kernel truncated, and the internal grid padded, at 8h
_KDE_MAX_CELLS = 1 << 20

# Upper bound on n_chains * n_steps * d, the floats of the chain paths that
# run_mcmc holds and the chain CSVs write out.
MAX_CHAIN_VALUES = 4_000_000


@dataclass(frozen=True)
class McmcConfig:
    """Chain count, length, burn-in, and proposal width (domain fraction).

    ``burn_in`` leaves each chain at least 2 samples, the fewest a kernel
    density estimate takes.
    """

    n_chains: int = 10
    n_steps: int = 20000
    burn_in: int = 2000
    proposal_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n_chains < 1:
            raise ConfigurationError("n_chains must be >= 1")
        if not 0 <= self.burn_in <= self.n_steps - 2:
            raise ConfigurationError(
                "burn_in must satisfy 0 <= burn_in <= n_steps - 2, leaving each "
                "chain >= 2 samples"
            )
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


def _chain_rng(seed: int, chain_index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) % (2**63), int(chain_index)])


def run_mcmc(problem: InverseProblem, config: McmcConfig) -> list[ChainResult]:
    """Independent random-walk Metropolis chains on the NLS density.

    The log density is -Phi / (2 sigma_obs^2), so a problem's Gaussian prior
    shapes the chains as it does the MAP, Laplace and level-set stages.

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

    def log_density(x: np.ndarray) -> np.ndarray:
        inside = np.all((x >= lo) & (x <= hi), axis=1)
        return np.where(inside, log_posterior(problem, x)[1], -np.inf)

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
            )
        )
    return results


def silverman_bandwidth(samples: np.ndarray) -> float:
    """1.06 * std * n^(-1/5); raises for non-finite or constant samples."""
    samples = np.asarray(samples, dtype=float).ravel()
    if not np.all(np.isfinite(samples)):
        raise ConfigurationError("samples must be finite")
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


def grid_posterior(problem: InverseProblem, resolution: int) -> GridPosterior:
    """Reference posterior: evaluate_profile_grid's NLS, trapezoid-normalized.

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
    (xs,), _, _, nls, _ = evaluate_profile_grid(problem, resolution)
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
