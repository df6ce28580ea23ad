"""Adaptive surrogate construction: acquisition functions and the BO loop.

The loop alternates fit -> acquire -> evaluate -> extend until the surrogate
reaches a target validation mean-squared error or the evaluation budget is
exhausted.  With a large UCB exploration weight the acquisition is dominated
by predictive uncertainty, which is the regime used to build globally
accurate surrogates ahead of any inversion.

Each acquisition is maximized over a fixed probe grid and refined by one
bounded quasi-Newton ascent with exact gradients (gp_predict_grad) over the best
grid points stacked into one vector (Balandat et al. 2020); nothing is random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import optimize as sopt
from scipy import special as ssp
from scipy.spatial.distance import cdist

from .benchmarks import HighFidelityModel, eval_benchmark, sample_initial_design
from .data import Dataset
from .errors import ConfigurationError, GpInverseError, NumericalError
from .gp import (
    KERNEL_FAMILIES,
    GpModel,
    KernelSpec,
    gp_fit,
    gp_optimize_hyperparameters,
    gp_predict_grad,
    gp_predict_many,
    log_marginal_likelihood,
)

__all__ = [
    "BoConfig",
    "BoIteration",
    "BoTrace",
    "expected_improvement",
    "upper_confidence_bound",
    "acquire_batch",
    "run_bo",
]

GRID_POINTS_1D = 1024
GRID_POINTS_PER_DIM_2D = 64
ASCENT_STARTS = 8  # best probe-grid points, under the penalized score, per pick
EXCLUSION_FRACTION = 0.01  # pending-point radius as a fraction of domain width

# Upper bounds on the counts that size a run's arrays: the training set
# sizes the n x n kernel factor and the (n, m) cross-kernel of every batch
# prediction, and the validation set is predicted in one batch of n_val rows.
MAX_EVALUATIONS = 1000
MAX_VALIDATION_POINTS = 10_000


def _norm_pdf(z):
    return np.exp(-0.5 * np.square(z)) / math.sqrt(2.0 * math.pi)


def expected_improvement(mu, sigma, incumbent):
    """Closed-form expected improvement above the incumbent (maximization).

    Vectorized over mu/sigma.  Degenerate sigma = 0 reduces to the hard
    improvement max(mu - incumbent, 0).
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    improve = mu - incumbent
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sigma > 0, improve / np.where(sigma > 0, sigma, 1.0), 0.0)
    ei = np.where(
        sigma > 0,
        improve * ssp.ndtr(z) + sigma * _norm_pdf(z),
        np.maximum(improve, 0.0),
    )
    return np.maximum(ei, 0.0)


def upper_confidence_bound(mu, sigma, kappa):
    """mu + kappa * sigma; kappa = 0 reduces to the predictive mean."""
    return np.asarray(mu, dtype=float) + kappa * np.asarray(sigma, dtype=float)


def _scores(model, config, mu, sigma):
    if config.acquisition == "ucb":
        return upper_confidence_bound(mu, sigma, config.kappa)
    return expected_improvement(mu, sigma, float(np.max(model.data.y)))


def _acquisition_and_grad(model, config, x):
    """Acquisition scores at the rows of x and their gradients in x.

    d sigma = d var / (2 sigma), which is 0 where sigma = 0 because
    gp_predict_grad zeroes d var where the variance is floored at zero.  UCB
    differentiates to d mu + kappa d sigma and EI to Phi(z) d mu + phi(z)
    d sigma; at sigma = 0 EI is max(mu - incumbent, 0), whose gradient is d mu
    where mu exceeds the incumbent and 0 elsewhere.
    """
    mu, var, dmu, dvar = gp_predict_grad(model, x)
    sigma = np.sqrt(var)
    positive = sigma > 0
    dsigma = dvar / (2.0 * np.where(positive, sigma, 1.0))[:, None]
    if config.acquisition == "ucb":
        kappa = config.kappa
        return upper_confidence_bound(mu, sigma, kappa), dmu + kappa * dsigma
    incumbent = float(np.max(model.data.y))
    improve = mu - incumbent
    z = np.where(positive, improve / np.where(positive, sigma, 1.0), 0.0)
    cdf = np.where(positive, ssp.ndtr(z), improve > 0)
    grad = cdf[:, None] * dmu + _norm_pdf(z)[:, None] * dsigma
    return expected_improvement(mu, sigma, incumbent), grad


def _probe_grid(bounds) -> np.ndarray:
    n = GRID_POINTS_1D if len(bounds) == 1 else GRID_POINTS_PER_DIM_2D
    axes = [np.linspace(lo, hi, n) for lo, hi in np.asarray(bounds, dtype=float)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def _penalized_scores(model, config, candidates, picked, radii):
    """Acquisition with predictive sigma suppressed near pending picks."""
    mu, var = gp_predict_many(model, candidates)
    sigma = np.sqrt(var)
    if picked:
        dist = cdist(candidates / radii, np.asarray(picked) / radii)
        sigma = np.where(np.any(dist <= 1.0, axis=1), 0.0, sigma)
    return _scores(model, config, mu, sigma)


def acquire_batch(
    model: GpModel,
    config: BoConfig,
    bounds,
    n_acq: int,
) -> np.ndarray:
    """Select n_acq in-bounds points by greedy maximization of config's acquisition.

    Each pick scores a fixed probe grid, then runs one L-BFGS-B ascent on the
    ASCENT_STARTS best grid points stacked into one vector, maximizing the sum
    of their acquisition values (one batched prediction per step), and takes
    the best of the grid and the ascent endpoints.  Already-picked locations
    have their predictive uncertainty zeroed inside a small exclusion radius,
    both in the scores and in the choice of starts, so the next pick lands
    elsewhere.  Exact ties go to the lexicographically smallest point.
    Nothing is random, so the picks depend only on the model and the bounds.
    A non-finite acquisition or ascent gradient raises NumericalError naming
    the pick.
    """
    if n_acq < 1:
        raise ConfigurationError("n_acq must be >= 1")
    lo, hi = np.asarray(bounds, dtype=float).T
    widths = hi - lo
    if np.any(widths <= 0):
        raise ConfigurationError("degenerate bounds: every width must be positive")
    radii = EXCLUSION_FRACTION * widths
    grid = _probe_grid(bounds)

    def neg_total(flat):
        value, grad = _acquisition_and_grad(model, config, flat.reshape(-1, len(lo)))
        if not (np.all(np.isfinite(value)) and np.all(np.isfinite(grad))):
            raise NumericalError(f"acquisition ascent is not finite at pick {len(picked)}")
        return -np.sum(value), -grad.ravel()

    picked: list[np.ndarray] = []
    for _ in range(n_acq):
        grid_scores = _penalized_scores(model, config, grid, picked, radii)
        starts = grid[np.argsort(-grid_scores, kind="stable")[:ASCENT_STARTS]]
        res = sopt.minimize(
            neg_total,
            starts.ravel(),
            method="L-BFGS-B",
            jac=True,
            bounds=np.tile(bounds, (ASCENT_STARTS, 1)),
            options={"maxiter": 30},
        )
        ends = np.clip(res.x.reshape(starts.shape), lo, hi)
        candidates = np.vstack([grid, ends])
        scores = np.concatenate(
            [grid_scores, _penalized_scores(model, config, ends, picked, radii)]
        )
        if not np.all(np.isfinite(scores)):
            raise NumericalError(f"acquisition is not finite at pick {len(picked)}")
        best = np.max(scores)
        tied = candidates[scores >= best]
        picked.append(tied[np.lexsort(tied.T[::-1])[0]])
    return np.array(picked)


def _validation_set(
    hf: HighFidelityModel, n_val: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded uniform points over the benchmark box and the benchmark there."""
    rng = np.random.default_rng(seed)
    lo, hi = np.asarray(hf.bounds, dtype=float).T
    points = lo + rng.random((n_val, hf.dim)) * (hi - lo)
    return points, np.array([eval_benchmark(hf, p) for p in points])


@dataclass(frozen=True)
class BoConfig:
    """Configuration of one surrogate-construction run.

    ``mse_threshold`` is interpreted per ``mse_mode``: against the raw MSE
    ("absolute") or against MSE divided by the validation output variance
    ("normalized", for benchmarks whose output scale makes a fixed absolute
    target meaningless).  Setting ``fixed_length_scale``/``fixed_signal_variance``
    skips marginal-likelihood fitting and uses those values directly.
    ``acquisition`` is "ucb" or "ei": ``kappa`` weights sigma in UCB, and EI
    improves on the best (largest) observed training output of the model
    being queried.
    """

    n_init: int = 5
    n_acq: int = 1
    max_evaluations: int = 25
    mse_threshold: float = 1e-3
    mse_mode: str = "absolute"
    n_val: int = 1000
    kernel_family: str = "matern52"
    noise_variance: float = 1e-6
    acquisition: str = "ucb"
    kappa: float = 200.0
    restarts: int = 3
    seed: int = 0
    fixed_length_scale: Optional[float] = None
    fixed_signal_variance: Optional[float] = None

    def __post_init__(self):
        if self.n_init < 2:
            raise ConfigurationError("n_init must be >= 2")
        if self.n_acq < 1:
            raise ConfigurationError("n_acq must be >= 1")
        if not self.n_init <= self.max_evaluations <= MAX_EVALUATIONS:
            raise ConfigurationError(
                f"max_evaluations must lie in [n_init, {MAX_EVALUATIONS}]"
            )
        if not self.mse_threshold > 0:
            raise ConfigurationError("mse_threshold must be positive")
        if self.mse_mode not in ("absolute", "normalized"):
            raise ConfigurationError("mse_mode must be 'absolute' or 'normalized'")
        if not 100 <= self.n_val <= MAX_VALIDATION_POINTS:
            raise ConfigurationError(
                f"n_val must lie in [100, {MAX_VALIDATION_POINTS}]: at least 100 "
                "for a meaningful validation estimate"
            )
        if self.acquisition not in ("ei", "ucb"):
            raise ConfigurationError(
                f"unknown acquisition family {self.acquisition!r}; use 'ei' or 'ucb'"
            )
        if not 0 <= self.kappa < math.inf:
            raise ConfigurationError("kappa must be finite and nonnegative")
        if self.kernel_family not in KERNEL_FAMILIES:
            raise ConfigurationError(
                f"unknown kernel family {self.kernel_family!r}; "
                f"choose from {KERNEL_FAMILIES}"
            )
        if self.restarts < 1:
            raise ConfigurationError("restarts must be >= 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if not 0 <= self.noise_variance < math.inf:
            raise ConfigurationError("noise_variance must be finite and nonnegative")
        if (self.fixed_length_scale is None) != (self.fixed_signal_variance is None):
            raise ConfigurationError(
                "fixed_length_scale and fixed_signal_variance must be set together"
            )
        for name in ("fixed_length_scale", "fixed_signal_variance"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ConfigurationError(f"{name} must be finite and positive")


@dataclass(frozen=True)
class BoIteration:
    """One fit/validate record of the loop."""

    index: int
    n_samples: int
    mse: float
    mse_normalized: float
    length_scale: float
    signal_variance: float
    jitter: float
    log_marginal_likelihood: float  # of the training outputs under this fit
    acquired: np.ndarray  # points appended after this record, possibly empty


@dataclass
class BoTrace:
    """Full history of a BO run plus the final fitted surrogate."""

    iterations: list[BoIteration] = field(default_factory=list)
    final_model: Optional[GpModel] = None
    converged: bool = False
    validation_seed: int = 0
    validation_variance: float = 0.0


def _fit_for_config(data: Dataset, config: BoConfig) -> GpModel:
    if config.fixed_length_scale is not None:
        spec = KernelSpec(
            family=config.kernel_family,
            length_scale=config.fixed_length_scale,
            signal_variance=config.fixed_signal_variance,
        )
        return gp_fit(data, spec, config.noise_variance)
    return gp_optimize_hyperparameters(
        data,
        family=config.kernel_family,
        noise_variance=config.noise_variance,
        restarts=config.restarts,
    )


def run_bo(hf: HighFidelityModel, config: BoConfig) -> BoTrace:
    """Run the adaptive surrogate-construction loop on one benchmark."""
    data = sample_initial_design(hf, config.n_init, config.seed)
    val_seed = int(np.random.default_rng([config.seed, 1]).integers(2**31))
    val_points, val_truth = _validation_set(hf, config.n_val, val_seed)
    val_var = float(np.var(val_truth))
    if val_var <= 0:
        raise ConfigurationError(
            f"benchmark {hf.name} is constant on its validation set"
        )

    trace = BoTrace(validation_seed=val_seed, validation_variance=val_var)
    iteration = 0
    while True:
        try:
            model = _fit_for_config(data, config)
        except GpInverseError as exc:
            raise NumericalError(
                f"surrogate fit failed at iteration {iteration} "
                f"with {data.n} samples: {exc}"
            ) from exc
        pred = model.predict_mean(val_points)
        mse = float(np.mean((val_truth - pred) ** 2))
        mse_norm = mse / val_var
        criterion = mse_norm if config.mse_mode == "normalized" else mse

        converged = criterion <= config.mse_threshold
        budget_left = config.max_evaluations - data.n
        acquired = np.empty((0, hf.dim))
        if not converged and budget_left > 0:
            acquired = acquire_batch(
                model, config, hf.bounds, n_acq=min(config.n_acq, budget_left)
            )
        trace.iterations.append(
            BoIteration(
                index=iteration,
                n_samples=data.n,
                mse=mse,
                mse_normalized=mse_norm,
                length_scale=model.kernel.length_scale,
                signal_variance=model.kernel.signal_variance,
                jitter=model.jitter,
                log_marginal_likelihood=log_marginal_likelihood(model),
                acquired=acquired,
            )
        )
        trace.final_model = model
        if converged:
            trace.converged = True
            return trace
        if acquired.shape[0] == 0:
            trace.converged = False
            return trace
        new_y = np.array([eval_benchmark(hf, p) for p in acquired])
        data = data.extended(acquired, new_y)
        iteration += 1
