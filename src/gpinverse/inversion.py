"""Least-squares Bayesian inversion on a trained surrogate.

Under Gaussian observation noise and a uniform prior the MAP problem reduces
to minimizing the squared misfit LS(x) = (observed - surrogate_mean(x))^2,
and the unnormalized posterior is NLS(x) = exp(-LS(x) / (2 sigma_obs^2)).
This module provides the multistart bounded MAP search, cluster detection
for multimodal problems, the Laplace (inverse-Hessian) covariance with
marginal credible intervals, and threshold level-set extraction on a grid.
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

# Upper bound on the cells of one profile grid: the surrogate evaluates an
# (n_train, cells) kernel block over it and profiles.csv gets one row a cell.
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

    ``surrogate`` must expose ``predict_many(x) -> (means, variances)`` for
    an (m, d) array of points; the fitted GpModel does, and tests may
    substitute any stub with that method.  The parameter box may differ from
    the surrogate's training domain, but the profile and MAP machinery only
    ever query inside ``bounds``.
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


def _mean_many(problem: InverseProblem, x: np.ndarray) -> np.ndarray:
    mean, _ = problem.surrogate.predict_many(x)
    return np.asarray(mean, dtype=float)


def _ls_unchecked(problem: InverseProblem, x: np.ndarray) -> float:
    mean = _mean_many(problem, np.atleast_2d(x))[0]
    return float(np.square(problem.observed - mean))


def ls_functional(problem: InverseProblem, x) -> float:
    """Squared misfit between the observation and the surrogate mean."""
    return _ls_unchecked(problem, check_in_bounds(problem.bounds, x))


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

    def to_json_dict(self):
        return {
            "map_clusters": [
                {
                    "x": c.x.tolist(),
                    "ls_residual": c.ls_residual,
                    "objective": c.objective,
                    "n_members": c.n_members,
                    "grad_norm": c.grad_norm,
                    "on_bound": c.on_bound,
                }
                for c in self.map_clusters
            ],
            "multimodal": self.multimodal,
            "laplace": None
            if self.laplace is None
            else {
                "degenerate": self.laplace.degenerate,
                "message": self.laplace.message,
                "level": self.laplace.level,
                "cov": None
                if self.laplace.cov is None
                else self.laplace.cov.tolist(),
                "intervals": None
                if self.laplace.intervals is None
                else [list(iv) for iv in self.laplace.intervals],
            },
            "credible_intervals": None
            if self.credible_intervals is None
            else [list(iv) for iv in self.credible_intervals],
            "hp_regions": [
                list(r) if np.ndim(r[0]) == 0 else [list(p) for p in r]
                for r in self.hp_regions
            ],
            "metadata": self.metadata,
        }


def _central_gradient(fun, x, steps) -> np.ndarray:
    g = np.zeros_like(x)
    for i, h in enumerate(steps):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (fun(xp) - fun(xm)) / (2.0 * h)
    return g


def _residuals_tied(r1: float, r2: float, floor: float) -> bool:
    if r1 <= floor and r2 <= floor:
        return True
    lo, hi = min(r1, r2), max(r1, r2)
    return hi <= 2.0 * max(lo, floor)


def _cluster_endpoints(
    endpoints: np.ndarray,
    objectives: np.ndarray,
    ls_values: np.ndarray,
    problem: InverseProblem,
    objective_fun,
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

    grad_steps = 1e-5 * widths
    lo, hi = np.asarray(problem.bounds, dtype=float).T
    clusters = []
    for rep, mem in zip(reps, members):
        x = endpoints[rep]
        grad = _central_gradient(
            lambda p: objective_fun(np.clip(p, lo, hi)), x, grad_steps
        )
        on_bound = bool(np.any((x - lo <= 1e-6 * widths) | (hi - x <= 1e-6 * widths)))
        clusters.append(
            MapCluster(
                x=x.copy(),
                ls_residual=float(ls_values[rep]),
                objective=float(objectives[rep]),
                n_members=len(mem),
                grad_norm=float(np.linalg.norm(grad)),
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
) -> list[MapCluster]:
    if n_starts < 1:
        raise ConfigurationError("n_starts must be >= 1")
    rng = np.random.default_rng(seed)
    lo, hi = np.asarray(problem.bounds, dtype=float).T
    starts = lo + rng.random((n_starts, problem.dim)) * (hi - lo)

    endpoints, objectives, failures = [], [], []
    for k, x0 in enumerate(starts):
        try:
            res = sopt.minimize(
                objective_fun,
                x0,
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
    if not endpoints:
        raise InferenceError(
            "every optimization start diverged: " + "; ".join(failures)
        )
    endpoints = np.array(endpoints)
    objectives = np.array(objectives)
    ls_values = np.array([_ls_unchecked(problem, x) for x in endpoints])
    return _cluster_endpoints(endpoints, objectives, ls_values, problem, objective_fun)


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
    best residual.
    """

    def objective(x):
        return _ls_unchecked(problem, np.asarray(x, dtype=float))

    clusters = _multistart(problem, objective, n_starts, max_iter, seed)
    return PosteriorSummary(
        map_clusters=clusters,
        multimodal=_flag_multimodal(clusters, problem.observed),
        metadata={"n_starts": n_starts, "max_iter": max_iter, "seed": seed},
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
        x = np.asarray(x, dtype=float)
        dx = x - mu
        return _ls_unchecked(problem, x) / two_s2 + 0.5 * float(dx @ precision @ dx)

    clusters = _multistart(problem, objective, n_starts, max_iter, seed)
    return PosteriorSummary(
        map_clusters=clusters,
        multimodal=_flag_multimodal(clusters, problem.observed),
        metadata={
            "n_starts": n_starts,
            "max_iter": max_iter,
            "seed": seed,
            "prior": "gaussian",
        },
    )


HESSIAN_STEP_FRACTION = 1e-4
GRADIENT_CHECK_STEP_FRACTION = 1e-5
Z_95 = 1.96


def laplace_approximation(
    problem: InverseProblem,
    x_map,
    grad_tol: float = 1e-4,
) -> LaplaceResult:
    """Inverse-Hessian Gaussian approximation at an interior MAP point.

    The Hessian of -log NLS = LS / (2 sigma_obs^2) is taken by central
    finite differences with per-dimension steps of 1e-4 times the domain
    width and symmetrized.  A Hessian that is not positive definite yields a
    degeneracy signal instead of credible intervals, since a single Gaussian
    mode would badly understate the uncertainty in that case.
    """
    x = check_in_bounds(problem.bounds, x_map)
    widths = problem.widths()
    h = HESSIAN_STEP_FRACTION * widths
    for i, (lo, hi) in enumerate(problem.bounds):
        if x[i] - lo < h[i] or hi - x[i] < h[i]:
            raise InferenceError(
                f"MAP coordinate {i} is too close to a bound for an interior "
                "curvature estimate"
            )

    two_s2 = 2.0 * problem.obs_variance

    def neg_log_nls(p):
        return _ls_unchecked(problem, p) / two_s2

    grad = _central_gradient(
        lambda p: _ls_unchecked(problem, p), x, GRADIENT_CHECK_STEP_FRACTION * widths
    )
    if float(np.linalg.norm(grad)) >= grad_tol:
        raise InferenceError(
            f"point is not stationary: central-difference gradient norm "
            f"{np.linalg.norm(grad):.3e} >= {grad_tol:g}"
        )

    d = problem.dim
    hess = np.zeros((d, d))
    f0 = neg_log_nls(x)
    for i in range(d):
        xp, xm = x.copy(), x.copy()
        xp[i] += h[i]
        xm[i] -= h[i]
        hess[i, i] = (neg_log_nls(xp) - 2.0 * f0 + neg_log_nls(xm)) / (h[i] * h[i])
    for i in range(d):
        for j in range(i + 1, d):
            xpp, xpm, xmp, xmm = x.copy(), x.copy(), x.copy(), x.copy()
            xpp[i] += h[i]
            xpp[j] += h[j]
            xpm[i] += h[i]
            xpm[j] -= h[j]
            xmp[i] -= h[i]
            xmp[j] += h[j]
            xmm[i] -= h[i]
            xmm[j] -= h[j]
            hess[i, j] = hess[j, i] = (
                neg_log_nls(xpp) - neg_log_nls(xpm) - neg_log_nls(xmp) + neg_log_nls(xmm)
            ) / (4.0 * h[i] * h[j])
    hess = 0.5 * (hess + hess.T)

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
        for i in range(d)
    )
    return LaplaceResult(
        cov=cov, intervals=intervals, level=0.95, degenerate=False, message="ok"
    )


def evaluate_profile_grid(problem: InverseProblem, grid_resolution: int):
    """LS / NLS / max-normalized NLS on a uniform grid over the bounds.

    Returns (axes, points, ls, nls, nls_normalized) where ``axes`` is the
    per-dimension coordinate vector list and ``points`` the full grid in row
    order (C order for 2D).  A grid of more than MAX_GRID_CELLS cells is
    rejected.
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
    mean = _mean_many(problem, points)
    ls = (problem.observed - mean) ** 2
    nls = np.exp(-ls / (2.0 * problem.obs_variance))
    peak = float(np.max(nls))
    normalized = nls / peak if peak > 0 else nls
    return axes, points, ls, nls, normalized


def high_probability_region(
    problem: InverseProblem,
    threshold: float,
    grid_resolution: int = 512,
):
    """Connected components of {normalized NLS >= threshold} on a grid.

    1D problems return a list of (lo, hi) intervals; 2D problems return
    axis-aligned bounding boxes ((xlo, xhi), (ylo, yhi)) of 4-connected cell
    groups, listed in raster order of each component's first cell.  A level
    band thinner than the grid's diagonal step, such as the neighbourhood of
    a curve of exact solutions on a steep surrogate, has cells that touch
    only at corners, so it splits into several 4-connected components, each
    reported as its own box.
    """
    if not 0.0 < threshold < 1.0:
        raise ConfigurationError("threshold must lie strictly inside (0, 1)")
    if grid_resolution < 64:
        raise ConfigurationError("grid_resolution must be >= 64")
    axes, _, _, _, normalized = evaluate_profile_grid(problem, grid_resolution)
    mask = normalized.reshape([grid_resolution] * problem.dim) >= threshold
    # The default structure joins only cells that share a face, and labels
    # are numbered in raster order, so find_objects lists components in order.
    labels, _ = ndimage.label(mask)
    boxes = [
        tuple((float(ax[s.start]), float(ax[s.stop - 1])) for ax, s in zip(axes, slices))
        for slices in ndimage.find_objects(labels)
    ]
    return [box[0] for box in boxes] if problem.dim == 1 else boxes
