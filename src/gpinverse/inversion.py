"""Least-squares Bayesian inversion on a trained surrogate.

Under Gaussian observation noise and a uniform prior the MAP problem reduces
to minimizing the squared misfit LS(x) = (observed - surrogate_mean(x))^2,
and the unnormalized posterior is NLS(x) = exp(-LS(x) / (2 sigma_obs^2)).
This module provides the multistart bounded MAP search, cluster detection
for multimodal problems, the Laplace (inverse-Hessian) covariance with
marginal credible intervals, and threshold level-set extraction on a grid.
Every derivative comes from the surrogate's exact mean gradient and Hessian:
grad LS = -2 (observed - mean) grad mean and
hess LS = 2 grad mean grad mean^T - 2 (observed - mean) hess mean.
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
    "ls_functional",
    "nls_profile",
    "map_multistart",
    "map_gaussian_prior",
    "laplace_approximation",
    "high_probability_region",
    "evaluate_profile_grid",
]

# Upper bound on the cells of one profile grid: the surrogate mean is
# evaluated at every cell and profiles.csv gets one row a cell.
MAX_GRID_CELLS = 512**2

# Residuals below this scale are numerically indistinguishable from an exact
# match of the observation; used to break ties between equally good minima.
def _residual_floor(observed: float) -> float:
    return 1e-9 * max(1.0, observed * observed)


@dataclass(frozen=True)
class GaussianPrior:
    """Multivariate Gaussian prior with mean vector and covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray

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
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def precision(self) -> np.ndarray:
        sym = 0.5 * (self.cov + self.cov.T)
        if not np.allclose(sym, self.cov, rtol=1e-8, atol=1e-12):
            raise ConfigurationError("prior covariance must be symmetric")
        try:
            np.linalg.cholesky(sym)
        except np.linalg.LinAlgError:
            raise ConfigurationError(
                "prior covariance must be positive definite"
            )
        return np.linalg.inv(sym)


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


def _ls_and_grad(problem: InverseProblem, x: np.ndarray) -> tuple[float, np.ndarray]:
    """LS(x) and its gradient -2 (observed - mean) grad mean at one point."""
    mean, grad = problem.surrogate.mean_grad(np.atleast_2d(x))
    resid = problem.observed - float(mean[0])
    return resid * resid, -2.0 * resid * grad[0]


def _ls_many(problem: InverseProblem, points: np.ndarray) -> np.ndarray:
    """LS at each row of an (m, d) array, from the batched surrogate mean."""
    return np.square(problem.observed - problem.surrogate.predict_mean(points))


def ls_functional(problem: InverseProblem, x) -> float:
    """Squared misfit between the observation and the surrogate mean."""
    return float(_ls_many(problem, check_in_bounds(problem.bounds, x)[None, :])[0])


def nls_profile(problem: InverseProblem, x) -> float:
    """Unnormalized posterior density exp(-LS / (2 sigma_obs^2)).

    The max-normalized companion (peak scaled to 1) is produced by
    ``evaluate_profile_grid`` and used for level-set extraction.
    """
    ls = ls_functional(problem, x)
    return math.exp(-ls / (2.0 * problem.obs_variance))


@dataclass(frozen=True)
class MapCluster:
    """One merged group of converged optimization endpoints."""

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
    credible_intervals: Optional[tuple[tuple[float, float], ...]] = None
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


def _multistart(
    problem: InverseProblem,
    objective_fun,
    n_starts: int,
    max_iter: int,
    seed: int,
) -> PosteriorSummary:
    """Clustered L-BFGS-B minima of ``objective_fun(x) -> (value, gradient)``."""
    if n_starts < 1:
        raise ConfigurationError("n_starts must be >= 1")
    rng = np.random.default_rng(seed)
    lo, hi = np.asarray(problem.bounds, dtype=float).T
    starts = lo + rng.random((n_starts, problem.dim)) * (hi - lo)

    endpoints, objectives, grads, failures = [], [], [], []
    for k, x0 in enumerate(starts):
        try:
            res = sopt.minimize(
                objective_fun,
                x0,
                jac=True,
                method="L-BFGS-B",
                bounds=problem.bounds,
                options={"maxiter": max_iter},
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
    ls_values = _ls_many(problem, endpoints)
    clusters = _cluster_endpoints(
        endpoints, np.array(objectives), ls_values, np.array(grads), problem
    )
    return PosteriorSummary(
        map_clusters=clusters,
        multimodal=_flag_multimodal(clusters, problem.observed),
        metadata={
            "n_starts": n_starts,
            "max_iter": max_iter,
            "seed": seed,
            "failed_starts": len(failures),
        },
    )


def _flag_multimodal(clusters: Sequence[MapCluster], observed: float) -> bool:
    if len(clusters) < 2:
        return False
    floor = _residual_floor(observed)
    best = max(clusters[0].objective, floor)
    near = sum(1 for c in clusters if c.objective <= 10.0 * best)
    return near >= 2


def map_multistart(
    problem: InverseProblem,
    n_starts: int = 16,
    max_iter: int = 400,
    seed: int = 0,
) -> PosteriorSummary:
    """Bounded quasi-Newton LS minimization from seeded uniform starts.

    Returns the clustered endpoint set ordered best-first and flags
    multimodality when at least two clusters sit within a factor 10 of the
    best residual.  ``metadata["failed_starts"]`` counts the starts whose
    optimization raised or returned a non-finite result.
    """
    return _multistart(
        problem, lambda x: _ls_and_grad(problem, x), n_starts, max_iter, seed
    )


def map_gaussian_prior(
    problem: InverseProblem,
    n_starts: int = 16,
    max_iter: int = 400,
    seed: int = 0,
) -> PosteriorSummary:
    """MAP with a Gaussian prior: misfit plus quadratic regularization.

    Minimizes LS(x) / (2 sigma_obs^2) + (x - mu)' Gamma^-1 (x - mu) / 2 with
    the same multistart and clustering protocol as the uniform-prior search.
    """
    if problem.prior is None:
        raise ConfigurationError(
            "map_gaussian_prior requires a problem with a Gaussian prior"
        )
    precision = problem.prior.precision()
    mu = problem.prior.mean
    two_s2 = 2.0 * problem.obs_variance

    def objective(x):
        ls, grad = _ls_and_grad(problem, x)
        dx = x - mu
        pdx = precision @ dx
        return ls / two_s2 + 0.5 * float(dx @ pdx), grad / two_s2 + pdx

    summary = _multistart(problem, objective, n_starts, max_iter, seed)
    summary.metadata["prior"] = "gaussian"
    return summary


Z_95 = 1.96


def laplace_approximation(
    problem: InverseProblem,
    x_map,
    grad_tol: float = 1e-4,
) -> LaplaceResult:
    """Inverse-Hessian Gaussian approximation at a MAP point.

    The Hessian of -log NLS = LS / (2 sigma_obs^2) comes from the
    surrogate's exact mean gradient and Hessian, so it needs no step size
    and holds on a bound too.  A point whose LS gradient norm reaches
    ``grad_tol`` is rejected as not stationary.  A Hessian that is not
    positive definite yields a degeneracy signal instead of credible
    intervals, since a single Gaussian mode would badly understate the
    uncertainty in that case.
    """
    x = check_in_bounds(problem.bounds, x_map)
    mean, dmean = problem.surrogate.mean_grad(x[None, :])
    resid = problem.observed - float(mean[0])
    dmean = dmean[0]
    grad_norm = float(np.linalg.norm(-2.0 * resid * dmean))
    if grad_norm >= grad_tol:
        raise InferenceError(
            f"point is not stationary: gradient norm {grad_norm:.3e} >= {grad_tol:g}"
        )
    hess = np.outer(dmean, dmean) - resid * problem.surrogate.mean_hessian(x)
    hess = 0.5 * (hess + hess.T) / problem.obs_variance

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
    order (C order for 2D).  A grid of more than MAX_GRID_CELLS cells is
    rejected.  Where NLS underflows to zero on the whole grid, the normalized
    profile is exp(-(LS - min LS) / (2 sigma_obs^2)) instead.
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
    ls = _ls_many(problem, points)
    two_s2 = 2.0 * problem.obs_variance
    nls = np.exp(-ls / two_s2)
    peak = float(np.max(nls))
    normalized = nls / peak if peak > 0 else np.exp(-(ls - ls.min()) / two_s2)
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
