"""Least-squares Bayesian inversion on a trained surrogate.

With Gaussian observation noise, the squared misfit
LS(x) = (observed - surrogate_mean(x))^2 and an optional Gaussian prior
N(m, Gamma), every stage reads one objective in LS units,

    Phi(x) = LS(x) + sigma_obs^2 (x - m)' Gamma^-1 (x - m),

which is 2 sigma_obs^2 times the negative log-posterior up to a constant.
Without a prior (a uniform prior on the box) Phi is LS.  The unnormalized
posterior is NLS(x) = exp(-Phi(x) / (2 sigma_obs^2)).  This module provides
the multistart bounded MAP search, cluster detection for multimodal
problems, the Laplace (inverse-Hessian) covariance with marginal credible
intervals, and threshold level-set extraction on a grid.
Every derivative comes from the surrogate's exact mean gradient and Hessian:
grad LS = -2 (observed - mean) grad mean and
hess LS = 2 grad mean grad mean^T - 2 (observed - mean) hess mean; the prior
adds 2 sigma_obs^2 Gamma^-1 (x - m) and 2 sigma_obs^2 Gamma^-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy import ndimage
from scipy import optimize as sopt

from .benchmarks import check_in_bounds
from .errors import ConfigurationError, GpInverseError, InferenceError, ShapeError

__all__ = [
    "GaussianPrior",
    "InverseProblem",
    "MapCluster",
    "LaplaceResult",
    "PosteriorSummary",
    "log_posterior",
    "map_multistart",
    "laplace_approximation",
    "high_probability_region",
    "evaluate_profile_grid",
]

# Largest grad Phi norm (LS units) at which laplace_approximation accepts a
# point as stationary.
_STATIONARY_GRAD_TOL = 1e-4

# Upper bound on the cells of one profile grid: the surrogate mean is
# evaluated at every cell and profiles.csv gets one row a cell.
MAX_GRID_CELLS = 512**2

# Upper bound on the MAP starts: each runs its own L-BFGS-B search, and the
# clustering compares every endpoint with every cluster found so far.
MAX_MAP_STARTS = 1024

# L-BFGS-B iteration limit of each MAP start.
MAP_MAX_ITER = 400

# Level of the high-probability set the experiment pipeline reports: the
# cells whose NLS is at least this fraction of the grid's peak.
HP_THRESHOLD = 0.95

# Residuals below this scale are numerically indistinguishable from an exact
# match of the observation; used to break ties between equally good minima.
def _residual_floor(observed: float) -> float:
    return 1e-9 * max(1.0, observed * observed)


@dataclass(frozen=True)
class GaussianPrior:
    """Gaussian prior N(mean, cov), cov symmetric positive definite."""

    mean: np.ndarray
    cov: np.ndarray
    precision: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).ravel()
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if cov.shape != (mean.size, mean.size):
            raise ShapeError(
                f"prior covariance shape {cov.shape} does not match mean "
                f"dimension {mean.size}"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ConfigurationError("prior mean and covariance must be finite")
        sym = 0.5 * (cov + cov.T)
        if not np.allclose(sym, cov, rtol=1e-8, atol=1e-12):
            raise ConfigurationError("prior covariance must be symmetric")
        try:
            np.linalg.cholesky(sym)
        except np.linalg.LinAlgError:
            raise ConfigurationError(
                "prior covariance must be positive definite"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "precision", np.linalg.inv(sym))


@dataclass(frozen=True)
class InverseProblem:
    """Scalar-observation inverse problem posed on a surrogate.

    ``surrogate`` must expose ``predict_mean(x)``, the (m,) means at the rows
    of an (m, d) array, ``mean_grad(x)``, those means and their (m, d)
    gradients, and ``mean_hessian(x)``, the (d, d) Hessian of the mean at one
    point.  The fitted GpModel does, and tests may substitute any stub with
    these methods.  The parameter box may differ from the surrogate's
    training domain, but the profile and MAP machinery only ever query
    inside ``bounds``.
    """

    surrogate: object
    observed: float
    obs_variance: float
    bounds: tuple[tuple[float, float], ...]
    prior: Optional[GaussianPrior] = None

    def __post_init__(self):
        if not self.bounds:
            raise ConfigurationError("bounds must give at least one dimension")
        if not math.isfinite(self.observed):
            raise ConfigurationError("observed must be finite")
        if not 0 < self.obs_variance < math.inf:
            raise ConfigurationError("obs_variance must be finite and positive")
        for i, (lo, hi) in enumerate(self.bounds):
            if not -math.inf < lo < hi < math.inf:
                raise ConfigurationError(
                    f"bounds for dimension {i} must be finite and increasing"
                )
        if self.prior is not None and self.prior.mean.size != len(self.bounds):
            raise ShapeError("prior dimension does not match bounds")

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def widths(self) -> np.ndarray:
        return np.array([hi - lo for lo, hi in self.bounds])


def _prior_term(problem: InverseProblem, points: np.ndarray):
    """Phi - LS and its gradient at each row of an (m, d) array, given a prior."""
    dx = points - problem.prior.mean
    scaled = problem.obs_variance * (dx @ problem.prior.precision)
    return np.einsum("ij,ij->i", scaled, dx), 2.0 * scaled


def _objective_and_grad(problem: InverseProblem, x) -> tuple[float, np.ndarray]:
    """Phi(x) and its gradient at one point."""
    x = np.atleast_2d(x)
    mean, grad = problem.surrogate.mean_grad(x)
    resid = problem.observed - float(mean[0])
    value, grad = resid * resid, -2.0 * resid * grad[0]
    if problem.prior is None:
        return value, grad
    term, dterm = _prior_term(problem, x)
    return value + float(term[0]), grad + dterm[0]


def log_posterior(problem: InverseProblem, points: np.ndarray):
    """LS and log NLS = -Phi / (2 sigma_obs^2) at each row of an (m, d) array.

    Rows outside ``bounds`` are evaluated too; the MCMC density masks them.
    """
    ls = np.square(problem.observed - problem.surrogate.predict_mean(points))
    phi = ls if problem.prior is None else ls + _prior_term(problem, points)[0]
    return ls, -phi / (2.0 * problem.obs_variance)


@dataclass(frozen=True)
class MapCluster:
    """One merged group of converged optimization endpoints.

    ``objective`` is Phi at ``x``, in LS units, and ``grad_norm`` the norm of
    grad Phi; ``ls_residual`` is LS alone, equal to ``objective`` without a
    prior.
    """

    x: np.ndarray
    ls_residual: float
    objective: float
    n_members: int
    grad_norm: float
    on_bound: bool


@dataclass(frozen=True)
class LaplaceResult:
    """Gaussian posterior approximation at a MAP point, or a degeneracy flag."""

    cov: Optional[np.ndarray]
    intervals: Optional[tuple[tuple[float, float], ...]]
    level: float
    degenerate: bool
    message: str


@dataclass
class PosteriorSummary:
    """Everything the inversion stage reports about one problem."""

    map_clusters: list[MapCluster]
    multimodal: bool
    laplace: Optional[LaplaceResult] = None
    hp_regions: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)


def _residuals_tied(r1: float, r2: float, floor: float) -> bool:
    if r1 <= floor and r2 <= floor:
        return True
    lo, hi = min(r1, r2), max(r1, r2)
    return hi <= 2.0 * max(lo, floor)


def _cluster_endpoints(
    endpoints: np.ndarray,
    objectives: np.ndarray,
    ls_values: np.ndarray,
    grads: np.ndarray,
    problem: InverseProblem,
) -> list[MapCluster]:
    """Greedy merge of endpoints into clusters, best objective first.

    Endpoints merge when they agree to within 1% of the domain width in
    every coordinate and their objectives are comparable (ratio <= 2, with
    an absolute floor so exact-fit residuals at float noise level count as
    ties).  Clusters are ordered by objective; among numerically tied
    clusters the most-populated one comes first, then the lexicographically
    smallest representative.
    """
    widths = problem.widths()
    tol = 0.01 * widths
    floor = _residual_floor(problem.observed)
    order = np.argsort(objectives, kind="stable")
    reps: list[int] = []
    members: list[list[int]] = []
    for idx in order:
        placed = False
        for ci, rep in enumerate(reps):
            close = np.all(np.abs(endpoints[idx] - endpoints[rep]) <= tol)
            if close and _residuals_tied(
                float(objectives[idx]), float(objectives[rep]), floor
            ):
                members[ci].append(int(idx))
                placed = True
                break
        if not placed:
            reps.append(int(idx))
            members.append([int(idx)])

    lo, hi = np.asarray(problem.bounds, dtype=float).T
    clusters = []
    for rep, mem in zip(reps, members):
        x = endpoints[rep]
        on_bound = bool(np.any((x - lo <= 1e-6 * widths) | (hi - x <= 1e-6 * widths)))
        clusters.append(
            MapCluster(
                x=x.copy(),
                ls_residual=float(ls_values[rep]),
                objective=float(objectives[rep]),
                n_members=len(mem),
                grad_norm=float(np.linalg.norm(grads[rep])),
                on_bound=on_bound,
            )
        )

    def sort_key(c: MapCluster):
        bucket = 0.0 if c.objective <= floor else c.objective
        return (bucket, -c.n_members, tuple(c.x))

    clusters.sort(key=sort_key)
    return clusters


def _flag_multimodal(clusters: Sequence[MapCluster], observed: float) -> bool:
    if len(clusters) < 2:
        return False
    floor = _residual_floor(observed)
    best = max(clusters[0].objective, floor)
    near = sum(1 for c in clusters if c.objective <= 10.0 * best)
    return near >= 2


def map_multistart(problem: InverseProblem, n_starts: int, seed: int) -> PosteriorSummary:
    """Bounded quasi-Newton minimization of Phi from seeded uniform starts.

    Each of the ``n_starts`` (1 to MAX_MAP_STARTS) starts runs L-BFGS-B for
    at most MAP_MAX_ITER iterations.  Returns the clustered endpoint set
    ordered best-first and flags multimodality when at least two clusters
    sit within a factor 10 of the best objective.
    ``metadata["failed_starts"]`` counts the starts whose optimization
    raised or returned a non-finite result.
    """
    if not 1 <= n_starts <= MAX_MAP_STARTS:
        raise ConfigurationError(f"n_starts must lie in [1, {MAX_MAP_STARTS}]")
    rng = np.random.default_rng(seed)
    lo, hi = np.asarray(problem.bounds, dtype=float).T
    starts = lo + rng.random((n_starts, problem.dim)) * (hi - lo)

    endpoints, objectives, grads, failures = [], [], [], []
    for k, x0 in enumerate(starts):
        try:
            res = sopt.minimize(
                lambda x: _objective_and_grad(problem, x),
                x0,
                jac=True,
                method="L-BFGS-B",
                bounds=problem.bounds,
                options={"maxiter": MAP_MAX_ITER},
            )
        except (GpInverseError, ValueError, np.linalg.LinAlgError) as exc:
            failures.append(f"start {k}: {exc}")
            continue
        if not np.all(np.isfinite(res.x)) or not math.isfinite(res.fun):
            failures.append(f"start {k}: non-finite result {res.fun!r}")
            continue
        endpoints.append(np.clip(res.x, lo, hi))
        objectives.append(float(res.fun))
        grads.append(res.jac)
    if not endpoints:
        raise InferenceError(
            "every optimization start diverged: " + "; ".join(failures)
        )
    endpoints = np.array(endpoints)
    ls_values = log_posterior(problem, endpoints)[0]
    clusters = _cluster_endpoints(
        endpoints, np.array(objectives), ls_values, np.array(grads), problem
    )
    return PosteriorSummary(
        map_clusters=clusters,
        multimodal=_flag_multimodal(clusters, problem.observed),
        metadata={"failed_starts": len(failures)},
    )


Z_95 = 1.96


def laplace_approximation(problem: InverseProblem, x_map) -> LaplaceResult:
    """Inverse-Hessian Gaussian approximation at a MAP point.

    The Hessian of the negative log-posterior Phi / (2 sigma_obs^2) comes
    from the surrogate's exact mean gradient and Hessian, plus the prior
    precision when the problem has a prior, so it needs no step size and
    holds on a bound too.  A point whose grad Phi norm reaches 1e-4 is
    rejected as not stationary.  A Hessian that is not positive definite
    yields a degeneracy signal instead of credible intervals, since a single
    Gaussian mode would badly understate the uncertainty in that case.
    """
    x = check_in_bounds(problem.bounds, x_map)
    mean, dmean = problem.surrogate.mean_grad(x[None, :])
    resid = problem.observed - float(mean[0])
    dmean = dmean[0]
    grad = -2.0 * resid * dmean
    hess = np.outer(dmean, dmean) - resid * problem.surrogate.mean_hessian(x)
    hess = 0.5 * (hess + hess.T) / problem.obs_variance
    if problem.prior is not None:
        grad = grad + _prior_term(problem, x[None, :])[1][0]
        hess = hess + problem.prior.precision
    grad_norm = float(np.linalg.norm(grad))
    if not grad_norm < _STATIONARY_GRAD_TOL:
        raise InferenceError(
            f"point is not stationary: gradient norm {grad_norm:.3e} >= "
            f"{_STATIONARY_GRAD_TOL:g}"
        )

    eigs = np.linalg.eigvalsh(hess)
    scale = max(abs(float(eigs[-1])), 1e-300)
    if eigs[0] <= 1e-10 * scale:
        return LaplaceResult(
            cov=None,
            intervals=None,
            level=0.95,
            degenerate=True,
            message=(
                "curvature is not positive definite at this point "
                f"(eigenvalues {eigs.tolist()}); the posterior is multimodal "
                "or locally flat and a single Gaussian would understate it"
            ),
        )
    cov = np.linalg.inv(hess)
    cov = 0.5 * (cov + cov.T)
    std = np.sqrt(np.diag(cov))
    intervals = tuple(
        (
            float(max(problem.bounds[i][0], x[i] - Z_95 * std[i])),
            float(min(problem.bounds[i][1], x[i] + Z_95 * std[i])),
        )
        for i in range(problem.dim)
    )
    return LaplaceResult(
        cov=cov, intervals=intervals, level=0.95, degenerate=False, message="ok"
    )


def evaluate_profile_grid(problem: InverseProblem, grid_resolution: int):
    """LS / NLS / max-normalized NLS on a uniform grid over the bounds.

    Returns (axes, points, ls, nls, nls_normalized) where ``axes`` is the
    per-dimension coordinate vector list and ``points`` the full grid in row
    order (C order for 2D).  ``ls`` is the misfit alone and
    ``nls = exp(-Phi / (2 sigma_obs^2))`` includes the prior.  A grid of more
    than MAX_GRID_CELLS cells is rejected.  Where NLS underflows to zero on
    the whole grid, the normalized profile is exp(log NLS - max log NLS)
    instead.
    """
    if grid_resolution < 2:
        raise ConfigurationError("grid_resolution must be >= 2")
    if grid_resolution**problem.dim > MAX_GRID_CELLS:
        raise ConfigurationError(
            f"grid_resolution {grid_resolution} gives {grid_resolution**problem.dim} "
            f"cells in {problem.dim}D, more than the {MAX_GRID_CELLS} allowed"
        )
    axes = [
        np.linspace(lo, hi, grid_resolution) for lo, hi in problem.bounds
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.column_stack([m.ravel() for m in mesh])
    ls, log_nls = log_posterior(problem, points)
    nls = np.exp(log_nls)
    peak = float(np.max(nls))
    normalized = nls / peak if peak > 0 else np.exp(log_nls - log_nls.max())
    return axes, points, ls, nls, normalized


def high_probability_region(profile, threshold: float):
    """Connected components of {normalized NLS >= threshold} on a grid.

    ``profile`` is the tuple ``evaluate_profile_grid`` returns, with at least
    64 points per axis.  1D profiles give a list of (lo, hi) intervals; 2D
    profiles give axis-aligned bounding boxes ((xlo, xhi), (ylo, yhi)) of
    4-connected cell groups, listed in raster order of each component's first
    cell.  A level band thinner than the grid's diagonal step, such as the
    neighbourhood of a curve of exact solutions on a steep surrogate, has
    cells that touch only at corners, so it splits into several 4-connected
    components, each reported as its own box.
    """
    if not 0.0 < threshold < 1.0:
        raise ConfigurationError("threshold must lie strictly inside (0, 1)")
    axes, _, _, _, normalized = profile
    shape = tuple(len(ax) for ax in axes)
    if min(shape) < 64:
        raise ConfigurationError("grid_resolution must be >= 64")
    # The default structure joins only cells that share a face, and labels
    # are numbered in raster order, so find_objects lists components in order.
    labels, _ = ndimage.label(normalized.reshape(shape) >= threshold)
    boxes = [
        tuple((float(ax[s.start]), float(ax[s.stop - 1])) for ax, s in zip(axes, slices))
        for slices in ndimage.find_objects(labels)
    ]
    return [box[0] for box in boxes] if len(axes) == 1 else boxes
