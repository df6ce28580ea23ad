"""Exact Gaussian-process regression with a zero-mean prior.

Conditioning uses a Cholesky factorization of K + (sigma_n^2 + jitter) I
(Rasmussen & Williams 2006, Algorithm 2.1).  Jitter is escalated (1e-10 up to
1e-4, decade steps) only when the plain factorization fails, and the amount
actually added is recorded on the model so downstream reports can expose it.
gp_fit and the likelihood objective share one factor-and-solve path: the
noise and jitter are written onto K's diagonal in place, numpy's cholesky
factors it and LAPACK potrs solves against the outputs.

Predictions come batched over query rows; gp_predict_grad adds the closed-form
gradients of the posterior mean and variance in the query point, which the
acquisition ascent uses.  The inversion stage reads only the posterior mean,
from GpModel.predict_mean in row chunks, and its exact gradient and Hessian in
x, with no step sizes.

Hyperparameters (length scale, signal variance) are fitted by maximizing the
log marginal likelihood in log space: a fixed probe grid over the bounded
box, then bounded L-BFGS-B ascents with the exact likelihood gradient
(Rasmussen & Williams 2006, section 5.4.1) from its best cells, as the
acquisition step does for x.  Nothing in the fit is random.  Each
likelihood value goes through gp_fit's factor-and-solve path, so it is
bit-identical to the likelihood of the model gp_fit returns.  The pairwise
distances and the input checks are computed once per dataset.  The
observation-noise variance is a fixed input, not a fitted quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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
    "gp_predict_many",
    "gp_predict_grad",
    "log_marginal_likelihood",
    "gp_optimize_hyperparameters",
]

KERNEL_FAMILIES = ("rbf", "matern52")

_JITTER_LADDER = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)

_SQRT5 = math.sqrt(5.0)

# Query rows per kernel block in GpModel.predict_mean, so that the (n, rows)
# block stays a few MB however large the profile grid is.
_MEAN_CHUNK_ROWS = 4096

# Cells per axis of the log (length scale, signal variance) probe grid that
# seeds the hyperparameter ascents.
_PROBE_POINTS_PER_AXIS = 7


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


def _kernel_from_r(family: str, ell: float, s2: float, r: np.ndarray) -> np.ndarray:
    """Covariance as a function of Euclidean distance r >= 0."""
    if family == "rbf":
        return s2 * np.exp(-(r * r) / (2.0 * ell * ell))
    t = _SQRT5 * r / ell
    return s2 * (1.0 + t + t * t / 3.0) * np.exp(-t)


def _kernel_grad_over_r(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    """g(r) = k'(r) / r, finite at r = 0 for both families."""
    s2, ell = spec.signal_variance, spec.length_scale
    if spec.family == "rbf":
        return -_kernel_from_r("rbf", ell, s2, r) / (ell * ell)
    t = _SQRT5 * r / ell
    return -s2 * 5.0 / (3.0 * ell * ell) * (1.0 + t) * np.exp(-t)


def _kernel_dgrad_over_r(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    """g'(r) / r, finite at r = 0; the Hessian of k(x, X_i) is g I + (g'/r) D D^T."""
    s2, ell = spec.signal_variance, spec.length_scale
    if spec.family == "rbf":
        return _kernel_from_r("rbf", ell, s2, r) / ell**4
    return s2 * 25.0 / (3.0 * ell**4) * np.exp(-_SQRT5 * r / ell)


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
    r = cdist(xa, xb)
    return _kernel_from_r(spec.family, spec.length_scale, spec.signal_variance, r)


@dataclass(frozen=True)
class GpModel:
    """Fitted GP: kernel, noise, training data, and factorized state.

    ``chol`` is the lower Cholesky factor of K + (noise_variance + jitter) I
    and ``alpha`` solves that system against the training outputs, so
    prediction is two triangular solves away.  The three mean methods are
    the surrogate protocol of InverseProblem.
    """

    kernel: KernelSpec
    noise_variance: float
    data: Dataset
    chol: np.ndarray
    alpha: np.ndarray
    jitter: float

    def predict_mean(self, x: np.ndarray) -> np.ndarray:
        """Posterior mean at each row of x, equal to gp_predict_many's."""
        x = _query_points(self, x)
        return np.concatenate([
            kernel_matrix(self.kernel, self.data.x, x[i : i + _MEAN_CHUNK_ROWS]).T
            @ self.alpha
            for i in range(0, x.shape[0], _MEAN_CHUNK_ROWS)
        ])

    def mean_grad(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean (m,) and its gradient (m, d) at each row of x."""
        x = _query_points(self, x)
        r = cdist(self.data.x, x)
        spec = self.kernel
        ks = _kernel_from_r(spec.family, spec.length_scale, spec.signal_variance, r)
        return ks.T @ self.alpha, _mean_grad(self, x, r)[1]

    def mean_hessian(self, x: np.ndarray) -> np.ndarray:
        """(d, d) Hessian of the posterior mean at one point x."""
        x = _query_points(self, np.reshape(x, (1, -1)))
        r = cdist(self.data.x, x)[:, 0]
        diff = x - self.data.x
        g = _kernel_grad_over_r(self.kernel, r)
        w = self.alpha * _kernel_dgrad_over_r(self.kernel, r)
        return float(g @ self.alpha) * np.eye(x.shape[1]) + (diff * w[:, None]).T @ diff


def _check_fit_inputs(data: Dataset, noise_variance: float) -> None:
    if data.n < 1:
        raise DegenerateDataError("cannot fit a GP on an empty dataset")
    if noise_variance < 0:
        raise ConfigurationError("noise_variance must be nonnegative")
    if noise_variance == 0.0 and data.n >= 2 and pdist(data.x).min() < 1e-12:
        raise DegenerateDataError(
            "duplicate training inputs with zero noise make the kernel "
            "matrix singular"
        )


def _cholesky_with_jitter(
    k: np.ndarray, noise_variance: float, y: np.ndarray
) -> Optional[tuple[np.ndarray, np.ndarray, float]]:
    """Factor k + (noise + jitter) I and solve it against y.

    Walks the jitter ladder from zero and returns the lower Cholesky factor L,
    alpha = (L L^T)^-1 y and the jitter of the first rung that factors, or
    None when every rung fails.  k is scratch: each rung writes
    diag(k) + (noise + jitter) onto its diagonal in place, so on return k
    holds the last rung's shifted matrix and a caller that needs the kernel
    again must rebuild it.
    """
    diag = k.diagonal().copy()
    for jitter in _JITTER_LADDER:
        k.flat[:: k.shape[0] + 1] = diag + (noise_variance + jitter)
        try:
            chol = np.linalg.cholesky(k)
        except np.linalg.LinAlgError:
            continue
        return chol, sla.lapack.dpotrs(chol, y, lower=1)[0], jitter
    return None


def gp_fit(data: Dataset, spec: KernelSpec, noise_variance: float) -> GpModel:
    """Condition a zero-mean GP on the dataset.

    Raises DegenerateDataError for coincident inputs under zero noise and
    NumericalError if the factorization fails at the maximum jitter.
    """
    _check_fit_inputs(data, noise_variance)
    k = kernel_matrix(spec, data.x, data.x)
    factor = _cholesky_with_jitter(k, noise_variance, data.y)
    if factor is None:
        # the rungs left k's diagonal shifted; estimate on the kernel itself
        k = kernel_matrix(spec, data.x, data.x)
        cond = float(np.linalg.cond(k + noise_variance * np.eye(data.n)))
        raise NumericalError(
            f"Cholesky factorization failed up to jitter {_JITTER_LADDER[-1]:g} "
            f"(condition estimate {cond:.3e})"
        )
    chol, alpha, jitter = factor
    return GpModel(
        kernel=spec,
        noise_variance=float(noise_variance),
        data=data,
        chol=chol,
        alpha=alpha,
        jitter=float(jitter),
    )


def _query_points(model: GpModel, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.data.dim:
        raise ShapeError(
            f"query points are {x.shape[1]}-dimensional, training data "
            f"{model.data.dim}-dimensional"
        )
    return x


def _posterior(model: GpModel, ks: np.ndarray):
    """Mean, L^-1 ks and clipped variance from the (n, m) cross-covariance."""
    mean = ks.T @ model.alpha
    v = sla.solve_triangular(model.chol, ks, lower=True)
    prior = model.kernel.signal_variance
    var = np.clip(prior - np.sum(v * v, axis=0), 0.0, prior + model.noise_variance)
    return mean, v, var


def gp_predict_many(model: GpModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at each row of x, shape (m, d)."""
    x = _query_points(model, x)
    mean, _, var = _posterior(model, kernel_matrix(model.kernel, model.data.x, x))
    return mean, var


def _mean_grad(model: GpModel, x: np.ndarray, r: np.ndarray):
    """g(r) and the mean gradient at rows x, given their (n, m) distances r."""
    g = _kernel_grad_over_r(model.kernel, r)
    alpha = model.alpha
    return g, x * (g.T @ alpha)[:, None] - (g * alpha[:, None]).T @ model.data.x


def gp_predict_grad(model: GpModel, x: np.ndarray):
    """Posterior mean and variance at each row of x and their gradients in x.

    Returns (mean, var, dmean, dvar) with shapes (m,), (m,), (m, d), (m, d);
    mean and var are those of gp_predict_many.  With g(r) = k'(r)/r the
    gradient of k(x, X_i) is g(r_i) (x - X_i), so each gradient is a
    g-weighted sum over the training rows:
    x (g^T w) - (g w)^T X, with w = alpha for the mean and w = K^-1 k(X, x)
    for the variance (Rasmussen & Williams 2006, section 9.4).  Where the
    variance is clipped its gradient is zero.
    """
    x = _query_points(model, x)
    xt = model.data.x
    r = cdist(xt, x)
    g, dmean = _mean_grad(model, x, r)
    spec = model.kernel
    ks = _kernel_from_r(spec.family, spec.length_scale, spec.signal_variance, r)
    mean, v, var = _posterior(model, ks)
    gw = g * sla.solve_triangular(model.chol, v, lower=True, trans="T")
    dvar = -2.0 * (x * gw.sum(axis=0)[:, None] - gw.T @ xt)
    cap = model.kernel.signal_variance + model.noise_variance
    dvar[(var == 0.0) | (var == cap)] = 0.0
    return mean, var, dmean, dvar


def _lml(y: np.ndarray, chol: np.ndarray, alpha: np.ndarray) -> float:
    quad = float(y @ alpha)
    logdet = 2.0 * float(np.sum(np.log(chol.diagonal())))
    return -0.5 * quad - 0.5 * logdet - 0.5 * len(y) * math.log(2.0 * math.pi)


def log_marginal_likelihood(model: GpModel) -> float:
    """Log marginal likelihood of the training outputs under the model."""
    return _lml(model.data.y, model.chol, model.alpha)


def _neg_lml_objective(data: Dataset, family: str, noise_variance: float):
    """-LML of theta = log (length scale, signal variance) and its gradient.

    The input checks and the pairwise distances depend only on the dataset,
    so they run once here.  Each call returns (value, gradient).  The value
    goes through gp_fit's _cholesky_with_jitter and _lml, so it is
    bit-identical to -log_marginal_likelihood(gp_fit(...)) at the same theta
    and the winning ascent's likelihood is the fitted model's; it is inf,
    with a zero gradient, where the factorization fails at every jitter.
    That shared path factors with np.linalg.cholesky, not scipy's dpotrf,
    which links another OpenBLAS build and differs in the last bits.  The
    gradient is -1/2 tr((alpha alpha^T - K^-1) dK/dtheta) (Rasmussen &
    Williams 2006, eq. 5.9) at the jitter rung that factored, with K^-1 from
    LAPACK potri on the same factor.  dK/dlog s2 is the noise-free kernel;
    dK/dlog l is k r^2/l^2 for the RBF and
    s2 t^2 (1 + t) exp(-t) / 3 with t = sqrt(5) r/l for the Matern 5/2.
    """
    _check_fit_inputs(data, noise_variance)
    r = cdist(data.x, data.x)

    def neg_lml(theta: np.ndarray) -> tuple[float, np.ndarray]:
        ell, s2 = math.exp(theta[0]), math.exp(theta[1])
        k = _kernel_from_r(family, ell, s2, r)
        factor = _cholesky_with_jitter(k.copy(), noise_variance, data.y)
        if factor is None:
            return math.inf, np.zeros(2)
        chol, alpha, _ = factor
        if family == "rbf":
            dk_dlog_ell = k * (r * r) / (ell * ell)
        else:
            t = _SQRT5 * r / ell
            dk_dlog_ell = s2 / 3.0 * t * t * (1.0 + t) * np.exp(-t)
        # potri fills the lower triangle and leaves the upper one zero
        kinv = sla.lapack.dpotri(chol, lower=1)[0]
        kinv = kinv + kinv.T
        kinv.flat[:: len(alpha) + 1] *= 0.5
        grad = [alpha @ dk @ alpha - np.vdot(kinv, dk) for dk in (dk_dlog_ell, k)]
        return -_lml(data.y, chol, alpha), -0.5 * np.array(grad)

    return neg_lml


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
    restarts: int,
) -> GpModel:
    """Fit (length scale, signal variance) by marginal-likelihood maximization.

    The search runs in the log box of _hyper_bounds.  -LML is evaluated on
    a 7 x 7 (_PROBE_POINTS_PER_AXIS) grid over that box; bounded L-BFGS-B
    ascents with the exact gradient then start from the ``restarts`` best
    finite cells (a stable sort, so equal cells keep grid order).  The best
    finite endpoint wins, earlier ascents winning ties.  Nothing is random.

    Known limit: on ill-conditioned zero-noise RBF designs the ascent can
    stop below a derivative-free search: on 12 equispaced points of sin(6x)
    on [0, 1] with 3 restarts it ends 0.036 nats below a seeded Powell
    search.  No preset fits such a design.
    """
    if data.n < 2:
        raise DegenerateDataError(
            "hyperparameter estimation needs at least 2 training points"
        )
    if restarts < 1:
        raise ConfigurationError("restarts must be >= 1")
    log_bounds = [(math.log(lo), math.log(hi)) for lo, hi in _hyper_bounds(data)]

    failed = "all hyperparameter restarts failed to produce a valid factorization"
    try:
        neg_lml = _neg_lml_objective(data, family, noise_variance)
    except DegenerateDataError as exc:
        raise NumericalError(f"{failed}: {exc}") from exc

    axes = [np.linspace(lo, hi, _PROBE_POINTS_PER_AXIS) for lo, hi in log_bounds]
    cells = np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
    values = np.array([neg_lml(theta)[0] for theta in cells])
    finite = np.flatnonzero(np.isfinite(values))
    starts = cells[finite[np.argsort(values[finite], kind="stable")[:restarts]]]

    best_val = math.inf
    best_theta = None
    for theta0 in starts:
        res = sopt.minimize(
            neg_lml, theta0, method="L-BFGS-B", jac=True, bounds=log_bounds
        )
        if math.isfinite(res.fun) and res.fun < best_val:
            best_val = res.fun
            best_theta = res.x
    if best_theta is None:
        raise NumericalError(failed)
    spec = KernelSpec(
        family=family,
        length_scale=math.exp(best_theta[0]),
        signal_variance=math.exp(best_theta[1]),
    )
    return gp_fit(data, spec, noise_variance)
