"""Exact Gaussian-process regression with a zero-mean prior.

Conditioning uses a Cholesky factorization of K + (sigma_n^2 + jitter) I.
Jitter is escalated (1e-10 up to 1e-4, decade steps) only when the plain
factorization fails, and the amount actually added is recorded on the model
so downstream reports can expose it.

Hyperparameters (length scale, signal variance) are fitted by maximizing the
log marginal likelihood with a bounded derivative-free search in log space,
restarted from several seeded points.  The observation-noise variance is a
fixed input, not a fitted quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy import optimize as sopt
from scipy.spatial.distance import cdist, pdist

from .data import Dataset
from .errors import (
    ConfigurationError,
    DegenerateDataError,
    NumericalError,
    ShapeError,
)

__all__ = [
    "KernelSpec",
    "GpModel",
    "kernel_eval",
    "kernel_matrix",
    "gp_fit",
    "gp_predict",
    "gp_predict_many",
    "log_marginal_likelihood",
    "gp_optimize_hyperparameters",
]

KERNEL_FAMILIES = ("rbf", "matern52")

_JITTER_LADDER = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)

_SQRT5 = math.sqrt(5.0)


@dataclass(frozen=True)
class KernelSpec:
    """Stationary isotropic covariance: family, length scale, signal variance.

    The Matern family is fixed at smoothness 5/2, for which the covariance
    has the closed form sigma^2 (1 + sqrt(5) r/l + 5 r^2/(3 l^2)) exp(-sqrt(5) r/l).
    """

    family: str
    length_scale: float
    signal_variance: float

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ConfigurationError(
                f"unknown kernel family {self.family!r}; "
                f"choose from {KERNEL_FAMILIES}"
            )
        if not self.length_scale > 0:
            raise ConfigurationError("length_scale must be positive")
        if not self.signal_variance > 0:
            raise ConfigurationError("signal_variance must be positive")

    @property
    def smoothness(self) -> float:
        """2.5 for matern52; infinity for the analytic rbf kernel."""
        return 2.5 if self.family == "matern52" else math.inf


def _kernel_from_r(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    """Covariance as a function of Euclidean distance r >= 0."""
    s2, ell = spec.signal_variance, spec.length_scale
    if spec.family == "rbf":
        return s2 * np.exp(-(r * r) / (2.0 * ell * ell))
    t = _SQRT5 * r / ell
    return s2 * (1.0 + t + t * t / 3.0) * np.exp(-t)


def kernel_eval(spec: KernelSpec, x: np.ndarray, x2: np.ndarray) -> float:
    """k(x, x2) for two points of equal dimension."""
    x = np.asarray(x, dtype=float).ravel()
    x2 = np.asarray(x2, dtype=float).ravel()
    if x.shape != x2.shape:
        raise ShapeError(f"points have shapes {x.shape} and {x2.shape}")
    return float(kernel_matrix(spec, x, x2)[0, 0])


def kernel_matrix(spec: KernelSpec, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Cross-covariance matrix between two point sets, shapes (na,d), (nb,d)."""
    xa = np.atleast_2d(np.asarray(xa, dtype=float))
    xb = np.atleast_2d(np.asarray(xb, dtype=float))
    if xa.shape[1] != xb.shape[1]:
        raise ShapeError(
            f"point sets have dimensions {xa.shape[1]} and {xb.shape[1]}"
        )
    return _kernel_from_r(spec, cdist(xa, xb))


@dataclass(frozen=True)
class GpModel:
    """Fitted GP: kernel, noise, training data, and factorized state.

    ``chol`` is the lower Cholesky factor of K + (noise_variance + jitter) I
    and ``alpha`` solves that system against the training outputs, so
    prediction is two triangular solves away.
    """

    kernel: KernelSpec
    noise_variance: float
    data: Dataset
    chol: np.ndarray
    alpha: np.ndarray
    jitter: float

    def predict(self, x: np.ndarray) -> tuple[float, float]:
        return gp_predict(self, x)

    def predict_many(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return gp_predict_many(self, x)


def gp_fit(data: Dataset, spec: KernelSpec, noise_variance: float) -> GpModel:
    """Condition a zero-mean GP on the dataset.

    Raises DegenerateDataError for coincident inputs under zero noise and
    NumericalError if the factorization fails at the maximum jitter.
    """
    if data.n < 1:
        raise DegenerateDataError("cannot fit a GP on an empty dataset")
    if noise_variance < 0:
        raise ConfigurationError("noise_variance must be nonnegative")
    if noise_variance == 0.0 and data.n >= 2 and pdist(data.x).min() < 1e-12:
        raise DegenerateDataError(
            "duplicate training inputs with zero noise make the kernel "
            "matrix singular"
        )
    k = kernel_matrix(spec, data.x, data.x)
    n = data.n
    for jitter in _JITTER_LADDER:
        try:
            chol = np.linalg.cholesky(k + (noise_variance + jitter) * np.eye(n))
        except np.linalg.LinAlgError:
            continue
        alpha = sla.cho_solve((chol, True), data.y)
        return GpModel(
            kernel=spec,
            noise_variance=float(noise_variance),
            data=data,
            chol=chol,
            alpha=alpha,
            jitter=float(jitter),
        )
    cond = float(np.linalg.cond(k + noise_variance * np.eye(n)))
    raise NumericalError(
        f"Cholesky factorization failed up to jitter {_JITTER_LADDER[-1]:g} "
        f"(condition estimate {cond:.3e})"
    )


def gp_predict_many(model: GpModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at each row of x, shape (m, d)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.data.dim:
        raise ShapeError(
            f"query points are {x.shape[1]}-dimensional, training data "
            f"{model.data.dim}-dimensional"
        )
    ks = kernel_matrix(model.kernel, model.data.x, x)
    mean = ks.T @ model.alpha
    v = sla.solve_triangular(model.chol, ks, lower=True)
    prior = model.kernel.signal_variance
    var = prior - np.sum(v * v, axis=0)
    cap = prior + model.noise_variance
    return mean, np.clip(var, 0.0, cap)


def gp_predict(model: GpModel, x: np.ndarray) -> tuple[float, float]:
    """Posterior mean and (clamped nonnegative) variance at one point."""
    mean, var = gp_predict_many(model, np.atleast_2d(np.asarray(x, dtype=float)))
    return float(mean[0]), float(var[0])


def log_marginal_likelihood(model: GpModel) -> float:
    """Log marginal likelihood of the training outputs under the model."""
    n = model.data.n
    quad = float(model.data.y @ model.alpha)
    logdet = 2.0 * float(np.sum(np.log(np.diag(model.chol))))
    return -0.5 * quad - 0.5 * logdet - 0.5 * n * math.log(2.0 * math.pi)


def _hyper_bounds(data: Dataset) -> tuple[tuple[float, float], tuple[float, float]]:
    width = float(np.max(data.widths()))
    ell_lo, ell_hi = 1e-2 * width, 10.0 * width
    y_var = float(np.var(data.y))
    s2_lo, s2_hi = 1e-6, 1e3 * y_var + 1e-6
    return (ell_lo, ell_hi), (s2_lo, s2_hi)


def gp_optimize_hyperparameters(
    data: Dataset,
    family: str,
    noise_variance: float,
    restarts: int = 4,
    seed: int = 0,
) -> GpModel:
    """Fit (length scale, signal variance) by marginal-likelihood maximization.

    The search runs in log space with a bounded Powell method.  Restart 0
    starts from the center of the log box; the rest are seeded uniform draws.
    The restart with the highest log marginal likelihood wins, earlier
    restarts winning ties, so results are deterministic for a fixed seed.
    """
    if data.n < 2:
        raise DegenerateDataError(
            "hyperparameter estimation needs at least 2 training points"
        )
    if restarts < 1:
        raise ConfigurationError("restarts must be >= 1")
    (ell_lo, ell_hi), (s2_lo, s2_hi) = _hyper_bounds(data)
    log_bounds = [
        (math.log(ell_lo), math.log(ell_hi)),
        (math.log(s2_lo), math.log(s2_hi)),
    ]

    def neg_lml(theta: np.ndarray) -> float:
        spec = KernelSpec(
            family=family,
            length_scale=math.exp(theta[0]),
            signal_variance=math.exp(theta[1]),
        )
        try:
            return -log_marginal_likelihood(gp_fit(data, spec, noise_variance))
        except (NumericalError, DegenerateDataError):
            return math.inf

    rng = np.random.default_rng(seed)
    center = np.array([0.5 * (lo + hi) for lo, hi in log_bounds])
    starts = [center]
    for _ in range(restarts - 1):
        starts.append(
            np.array([rng.uniform(lo, hi) for lo, hi in log_bounds])
        )

    best_val = math.inf
    best_theta = None
    for theta0 in starts:
        res = sopt.minimize(
            neg_lml,
            theta0,
            method="Powell",
            bounds=log_bounds,
            options={"xtol": 1e-4, "ftol": 1e-6, "maxiter": 200},
        )
        if math.isfinite(res.fun) and res.fun < best_val:
            best_val = res.fun
            best_theta = res.x
    if best_theta is None:
        raise NumericalError(
            "all hyperparameter restarts failed to produce a valid "
            "factorization"
        )
    spec = KernelSpec(
        family=family,
        length_scale=math.exp(best_theta[0]),
        signal_variance=math.exp(best_theta[1]),
    )
    return gp_fit(data, spec, noise_variance)
