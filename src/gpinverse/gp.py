"""Exact Gaussian-process regression with a zero-mean prior.

Conditioning uses a Cholesky factorization of K + (sigma_n^2 + jitter) I
(Rasmussen & Williams 2006, Algorithm 2.1).  Jitter is escalated (1e-10 up to
1e-4, decade steps) only when the plain factorization fails, and the amount
actually added is recorded on the model so downstream reports can expose it.
gp_fit and the likelihood objective share one factor-and-solve path: the
noise and jitter are written onto K's diagonal in place, numpy's cholesky
factors it and LAPACK potrs solves against the outputs.

Predictions come batched over query rows.  Every posterior mean is one
einsum over the row-major (m, n) cross-covariance k(x, X): it sums each row
along its contiguous axis in an order fixed by n alone, where BLAS gemv
picks kernels by a row's place in its batch and by thread splits, so a row's
mean has the same bits in any batch and at any thread count.  The variance
solves against the transpose.  gp_predict_grad adds the closed-form
gradients of the posterior mean and variance in the query point, which the
acquisition ascent uses.  The inversion stage reads only the posterior mean,
from GpModel.predict_mean in row blocks, and its exact gradient and Hessian in
x, with no step sizes.  predict_mean computes every block's distances and
kernel in arrays it allocates once per call, and each block's means straight
into the output: a fresh MB-sized temporary is mapped by the allocator and
page-faulted anew each time, which cost a dense profile grid more than its
arithmetic.

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

# Query rows per kernel block in GpModel.predict_mean, so that the (rows, n)
# block stays a few MB however large the profile grid is.  The at most three
# block arrays are allocated once per call and reused by every block, so the
# allocator maps and page-faults them once, not once a block.
_MEAN_CHUNK_ROWS = 4096

# Cells per axis of the log (length scale, signal variance) probe grid that
# seeds the hyperparameter ascents.
_PROBE_POINTS_PER_AXIS = 7

# Length scales, as multiples of the widest box width, that the fit searches
# and that a fixed length scale must lie in: far outside them the kernel and
# its derivatives overflow or underflow.
LENGTH_SCALE_FACTORS = (1e-2, 10.0)


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


def _kernel_from_r(family: str, ell: float, s2: float, r: np.ndarray, work=()) -> np.ndarray:
    """Overwrite the distances r >= 0 with the covariance k(r) and return r.

    The Matern family also writes into ``work``, two more arrays of r's
    shape, allocated when not given.  The operations and their order are
    those of s2 exp(-r^2 / (2 l^2)) and of s2 ((1 + t) + t^2 / 3) exp(-t)
    with t = sqrt(5) r / l, so the bits do not depend on the arrays used.
    """
    if family == "rbf":
        np.multiply(r, r, out=r)
        np.negative(r, out=r)
        r /= 2.0 * ell * ell
        np.exp(r, out=r)
        r *= s2
        return r
    poly, one_plus_t = work or (np.empty_like(r), np.empty_like(r))
    r *= _SQRT5
    r /= ell
    np.multiply(r, r, out=poly)
    poly /= 3.0
    np.add(r, 1.0, out=one_plus_t)
    poly += one_plus_t
    poly *= s2
    np.negative(r, out=r)
    np.exp(r, out=r)
    r *= poly
    return r


def _kernel_grad_over_r(family: str, ell: float, s2: float, r: np.ndarray) -> np.ndarray:
    """g(r) = k'(r) / r, finite at r = 0 for both families."""
    if family == "rbf":
        return -_kernel_from_r("rbf", ell, s2, r.copy()) / (ell * ell)
    t = _SQRT5 * r / ell
    return -s2 * 5.0 / (3.0 * ell * ell) * (1.0 + t) * np.exp(-t)


def _kernel_dgrad_over_r(family: str, ell: float, s2: float, r: np.ndarray) -> np.ndarray:
    """g'(r) / r, finite at r = 0; the Hessian of k(x, X_i) is g I + (g'/r) D D^T."""
    if family == "rbf":
        return _kernel_from_r("rbf", ell, s2, r.copy()) / ell**4
    return s2 * 25.0 / (3.0 * ell**4) * np.exp(-_SQRT5 * r / ell)


def kernel_matrix(spec: KernelSpec, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Cross-covariance matrix between two point sets, shapes (na,d), (nb,d)."""
    xa = np.atleast_2d(np.asarray(xa, dtype=float))
    xb = np.atleast_2d(np.asarray(xb, dtype=float))
    if xa.shape[1] != xb.shape[1]:
        raise ShapeError(
            f"point sets have dimensions {xa.shape[1]} and {xb.shape[1]}"
        )
    return _kernel_from_r(spec.family, spec.length_scale, spec.signal_variance, cdist(xa, xb))


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
        p = (self.kernel.family, self.kernel.length_scale, self.kernel.signal_variance)
        mean = np.empty(len(x))
        # one distance array, and the Matern family's two work arrays, serve
        # every block
        blocks = np.empty((1 if p[0] == "rbf" else 3, min(len(x), _MEAN_CHUNK_ROWS), self.data.n))
        for i in range(0, len(x), _MEAN_CHUNK_ROWS):
            rows = x[i : i + _MEAN_CHUNK_ROWS]
            r, *work = blocks[:, : len(rows)]
            k = _kernel_from_r(*p, cdist(rows, self.data.x, out=r), work)
            np.einsum("ij,j->i", k, self.alpha, out=mean[i : i + len(rows)])
        return mean

    def mean_grad(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean (m,) and its gradient (m, d) at each row of x."""
        _, ks, _, dmean = _mean_grad_terms(self, x)
        return np.einsum("ij,j->i", ks, self.alpha), dmean

    def mean_hessian(self, x: np.ndarray) -> np.ndarray:
        """(d, d) Hessian of the posterior mean at one point x."""
        x = _query_points(self, np.reshape(x, (1, -1)))
        r = cdist(self.data.x, x)[:, 0]
        diff = x - self.data.x
        p = (self.kernel.family, self.kernel.length_scale, self.kernel.signal_variance)
        g = _kernel_grad_over_r(*p, r)
        w = self.alpha * _kernel_dgrad_over_r(*p, r)
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
        k = kernel_matrix(spec, data.x, data.x) + noise_variance * np.eye(data.n)
        detail = (
            f"condition estimate {np.linalg.cond(k):.3e}"
            if np.all(np.isfinite(k))
            else "the kernel matrix is not finite"
        )
        raise NumericalError(
            f"Cholesky factorization failed up to jitter {_JITTER_LADDER[-1]:g} ({detail})"
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
    """Mean, L^-1 ks^T and variance floored at zero from the (m, n) cross-covariance."""
    v = sla.solve_triangular(model.chol, ks.T, lower=True)
    var = np.maximum(model.kernel.signal_variance - np.sum(v * v, axis=0), 0.0)
    return np.einsum("ij,j->i", ks, model.alpha), v, var


def gp_predict_many(model: GpModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at each row of x, shape (m, d)."""
    x = _query_points(model, x)
    mean, _, var = _posterior(model, kernel_matrix(model.kernel, x, model.data.x))
    return mean, var


def _mean_grad_terms(model: GpModel, x: np.ndarray):
    """Checked rows x, their (m, n) cross-covariance, g(r) and mean gradient."""
    x = _query_points(model, x)
    r = cdist(x, model.data.x)
    p = (model.kernel.family, model.kernel.length_scale, model.kernel.signal_variance)
    g = _kernel_grad_over_r(*p, r)
    ks = _kernel_from_r(*p, r)
    alpha = model.alpha
    return x, ks, g, x * (g @ alpha)[:, None] - (g * alpha) @ model.data.x


def gp_predict_grad(model: GpModel, x: np.ndarray):
    """Posterior mean and variance at each row of x and their gradients in x.

    Returns (mean, var, dmean, dvar) with shapes (m,), (m,), (m, d), (m, d);
    mean and var are those of gp_predict_many.  With g(r) = k'(r)/r the
    gradient of k(x, X_i) is g(r_i) (x - X_i), so each gradient is a
    g-weighted sum over the training rows:
    x (g^T w) - (g w)^T X, with w = alpha for the mean and w = K^-1 k(X, x)
    for the variance (Rasmussen & Williams 2006, section 9.4).  Where the
    variance is floored at zero its gradient is zero.
    """
    x, ks, g, dmean = _mean_grad_terms(model, x)
    mean, v, var = _posterior(model, ks)
    gw = g * sla.solve_triangular(model.chol, v, lower=True, trans="T").T
    dvar = -2.0 * (x * gw.sum(axis=1)[:, None] - gw @ model.data.x)
    dvar[var == 0.0] = 0.0
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
    so they run once here.  It returns the value alone, for the probe grid,
    and (value, gradient), for the ascents, both through one factor helper.
    The value goes through gp_fit's _cholesky_with_jitter and _lml, so it is
    bit-identical to -log_marginal_likelihood(gp_fit(...)) at the same theta
    and the winning ascent's likelihood is the fitted model's; it is inf,
    with a zero gradient, where the factorization fails at every jitter.
    That shared path factors with np.linalg.cholesky, not scipy's dpotrf,
    which links another OpenBLAS build and differs in the last bits.  The
    gradient is -1/2 tr((alpha alpha^T - K^-1) dK/dtheta) (Rasmussen &
    Williams 2006, eq. 5.9) at the jitter rung that factored, with K^-1 from
    potrs against the identity on the same factor, as alpha is solved.
    dK/dlog s2 is the noise-free kernel and dK/dlog l is -r^2 g(r), with
    g(r) = k'(r)/r from _kernel_grad_over_r.
    """
    _check_fit_inputs(data, noise_variance)
    r = cdist(data.x, data.x)

    def factor(theta: np.ndarray):
        ell, s2 = math.exp(theta[0]), math.exp(theta[1])
        k = _kernel_from_r(family, ell, s2, r.copy())
        return ell, s2, k, _cholesky_with_jitter(k.copy(), noise_variance, data.y)

    def neg_lml(theta: np.ndarray) -> float:
        fac = factor(theta)[3]
        return math.inf if fac is None else -_lml(data.y, fac[0], fac[1])

    def neg_lml_and_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
        ell, s2, k, fac = factor(theta)
        if fac is None:
            return math.inf, np.zeros(2)
        chol, alpha, _ = fac
        dk_dlog_ell = -(r * r) * _kernel_grad_over_r(family, ell, s2, r)
        kinv = sla.lapack.dpotrs(chol, np.eye(len(alpha)), lower=1)[0]
        grad = [alpha @ dk @ alpha - np.vdot(kinv, dk) for dk in (dk_dlog_ell, k)]
        return -_lml(data.y, chol, alpha), -0.5 * np.array(grad)

    return neg_lml, neg_lml_and_grad


def _hyper_bounds(data: Dataset) -> tuple[tuple[float, float], tuple[float, float]]:
    width = float(np.max(data.widths()))
    ell_lo, ell_hi = (f * width for f in LENGTH_SCALE_FACTORS)
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
        neg_lml, neg_lml_and_grad = _neg_lml_objective(data, family, noise_variance)
    except DegenerateDataError as exc:
        raise NumericalError(f"{failed}: {exc}") from exc

    axes = [np.linspace(lo, hi, _PROBE_POINTS_PER_AXIS) for lo, hi in log_bounds]
    cells = np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
    values = np.array([neg_lml(theta) for theta in cells])
    finite = np.flatnonzero(np.isfinite(values))
    starts = cells[finite[np.argsort(values[finite], kind="stable")[:restarts]]]

    best_val = math.inf
    best_theta = None
    for theta0 in starts:
        res = sopt.minimize(
            neg_lml_and_grad, theta0, method="L-BFGS-B", jac=True, bounds=log_bounds
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
