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

# Upper bound on the MAP starts: a joint search pass has up to n_starts * d
# variables, and the clustering compares every endpoint with every cluster.
MAX_MAP_STARTS = 1024

# Iteration limit of each joint L-BFGS-B pass of the MAP search.
MAP_MAX_ITER = 400

# A MAP start has converged when no coordinate of its projected gradient
# exceeds _MAP_GTOL, L-BFGS-B's default for one start; a start that the joint
# pass leaves above it goes on in a pass of its own.
_MAP_GTOL = 1e-5

_SURROGATE_ERRORS = (GpInverseError, ValueError, np.linalg.LinAlgError)

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


def _objective_and_grad(problem: InverseProblem, points: np.ndarray):
    """Phi, grad Phi, observed - mean and grad mean at each row of (m, d) points."""
    mean, dmean = problem.surrogate.mean_grad(points)
    resid = problem.observed - mean
    with np.errstate(over="ignore"):  # an infinite Phi or gradient fails its MAP start
        phi, grad = resid * resid, -2.0 * resid[:, None] * dmean
    if problem.prior is not None:
        term, dterm = _prior_term(problem, points)
        phi, grad = phi + term, grad + dterm
    return phi, grad, resid, dmean


class _StartsFailed(Exception):
    """Its one argument maps the rows of a batch that failed to their messages."""


def _scored(problem: InverseProblem, points: np.ndarray):
    """Phi, grad Phi and observed - mean at each row, or _StartsFailed naming the
    rows where the surrogate raises (found one at a time) or Phi is not finite."""
    try:
        phi, grad, resid, _ = _objective_and_grad(problem, points)
    except _SURROGATE_ERRORS as exc:
        rows = {}
        for k, x in enumerate(points):
            try:
                _objective_and_grad(problem, x[None, :])
            except _SURROGATE_ERRORS as row_exc:
                rows[k] = str(row_exc)
        raise _StartsFailed(rows or dict.fromkeys(range(len(points)), str(exc))) from exc
    bad = np.flatnonzero(~(np.isfinite(phi) & np.all(np.isfinite(grad), axis=1)))
    if bad.size:
        raise _StartsFailed({int(k): f"non-finite Phi {float(phi[k])!r}" for k in bad})
    return phi, grad, resid


def log_posterior(problem: InverseProblem, points: np.ndarray):
    """LS and log NLS = -Phi / (2 sigma_obs^2) at each row of an (m, d) array.

    Rows outside ``bounds`` are evaluated too; the MCMC density masks them.
    """
    mean = problem.surrogate.predict_mean(points)
    with np.errstate(over="ignore"):  # an LS or log NLS beyond 1e308 is inf
        ls = np.square(problem.observed - mean)
        phi = ls if problem.prior is None else ls + _prior_term(problem, points)[0]
        return ls, -phi / (2.0 * problem.obs_variance)


@dataclass(frozen=True)
class MapCluster:
    """One merged group of endpoints of the MAP search.

    ``objective`` is Phi at ``x``, in LS units, and ``grad_norm`` the norm of
    grad Phi; ``ls_residual`` is LS alone, equal to ``objective`` without a
    prior.  On a curve of exact solutions (the zero-misfit arcs of mixed2d and
    rosenbrock2d) an exact-fit cluster's ``x`` is where its starts stopped on
    the curve, which follows the last bits of the mean and, through the first
    joint pass over every start, the other starts: a change to those bits alone
    moved 6 of 15 and 6 of 16 such clusters by over 1e-7, one by 2.9e-2.  Only
    ``objective`` and the curve are determined, not ``x``.
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
                grad_norm=math.hypot(*grads[rep]),
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

    The ``n_starts`` (1 to MAX_MAP_STARTS) starts are stacked into one vector,
    and one joint L-BFGS-B pass of at most MAP_MAX_ITER iterations minimizes
    the sum of their Phi, stopping on the projected gradient alone.  A large
    Phi sets the rounding of the sum and can stall the others, so each start
    that the joint pass leaves with a projected gradient coordinate above
    _MAP_GTOL goes on in a pass of its own, its last.  A start where the
    surrogate raises or Phi is not finite is dropped, counted in
    ``metadata["failed_starts"]``, and its pass rerun.  Returns the clusters
    best-first, multimodal when at least two are within 10x the best.
    """
    if not 1 <= n_starts <= MAX_MAP_STARTS:
        raise ConfigurationError(f"n_starts must lie in [1, {MAX_MAP_STARTS}]")
    if seed < 0:
        raise ConfigurationError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    lo, hi = np.asarray(problem.bounds, dtype=float).T
    x = lo + rng.random((n_starts, problem.dim)) * (hi - lo)

    def total(flat):
        value, grad, _ = _scored(problem, flat.reshape(-1, problem.dim))
        with np.errstate(over="ignore"):  # L-BFGS-B backs off an infinite sum
            return np.sum(value), grad.ravel()

    phi, grad, resid = np.zeros(n_starts), np.zeros_like(x), np.zeros(n_starts)
    failures, groups = {}, [np.arange(n_starts)]
    while groups:
        idx = groups.pop()
        try:
            res = sopt.minimize(
                total, x[idx].ravel(), jac=True, method="L-BFGS-B",
                bounds=np.tile(problem.bounds, (len(idx), 1)),
                options={"maxiter": MAP_MAX_ITER, "ftol": 0.0, "gtol": _MAP_GTOL},
            )
            end = np.clip(res.x.reshape(-1, problem.dim), lo, hi)
            phi[idx], grad[idx], resid[idx] = _scored(problem, end)
        except _StartsFailed as exc:
            failures.update((int(idx[k]), msg) for k, msg in exc.args[0].items())
            idx = np.delete(idx, list(exc.args[0]))
            groups += [idx] if idx.size else []
            continue
        x[idx] = end
        if len(idx) > 1:
            left = np.max(np.abs(end - np.clip(end - grad[idx], lo, hi)), axis=1) > _MAP_GTOL
            groups += list(idx[left, None])
    ok = np.setdiff1d(np.arange(n_starts), list(failures))
    if not ok.size:
        reason = "; ".join(f"start {k}: {failures[k]}" for k in sorted(failures))
        raise InferenceError(f"every optimization start diverged: {reason}")
    clusters = _cluster_endpoints(x[ok], phi[ok], np.square(resid[ok]), grad[ok], problem)
    return PosteriorSummary(
        map_clusters=clusters,
        multimodal=_flag_multimodal(clusters, problem.observed),
        metadata={"failed_starts": len(failures)},
    )


Z_95 = 1.96


def _degenerate_laplace(message: str) -> LaplaceResult:
    return LaplaceResult(
        cov=None, intervals=None, level=0.95, degenerate=True, message=message
    )


def laplace_approximation(problem: InverseProblem, x_map) -> LaplaceResult:
    """Inverse-Hessian Gaussian approximation at a MAP point.

    The Hessian of the negative log-posterior Phi / (2 sigma_obs^2) comes
    from the surrogate's exact mean gradient and Hessian, plus the prior
    precision when the problem has a prior, so it needs no step size.  A
    point that is not stationary, with a grad Phi norm of 1e-4 or more such
    as a MAP held on the edge of the box, a Hessian that overflows the float
    range and one that is not positive definite each yield a degenerate
    record, whose message gives the reason, instead of credible intervals:
    a single Gaussian mode there would badly misstate the uncertainty.
    """
    x = check_in_bounds(problem.bounds, x_map)
    _, grad, resid, dmean = _objective_and_grad(problem, x[None, :])
    grad_norm = math.hypot(*grad[0])
    if not grad_norm < _STATIONARY_GRAD_TOL:
        return _degenerate_laplace(
            f"point is not stationary: gradient norm {grad_norm:.3e} >= "
            f"{_STATIONARY_GRAD_TOL:g}"
        )
    resid, dmean = float(resid[0]), dmean[0]
    hess = np.outer(dmean, dmean) - resid * problem.surrogate.mean_hessian(x)
    with np.errstate(over="ignore"):
        hess = 0.5 * (hess + hess.T) / problem.obs_variance
    if problem.prior is not None:
        hess = hess + problem.prior.precision
    if not np.all(np.isfinite(hess)):
        return _degenerate_laplace(
            f"curvature is not finite at this point: obs_variance "
            f"{problem.obs_variance:g} scales it past the float range"
        )

    eigs = np.linalg.eigvalsh(hess)
    scale = max(abs(float(eigs[-1])), 1e-300)
    if eigs[0] <= 1e-10 * scale:
        return _degenerate_laplace(
            "curvature is not positive definite at this point "
            f"(eigenvalues {eigs.tolist()}); the posterior is multimodal "
            "or locally flat and a single Gaussian would understate it"
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
    """LS and max-normalized NLS on a uniform grid over the bounds.

    Returns (axes, points, ls, nls_normalized) where ``axes`` is the
    per-dimension coordinate vector list and ``points`` the full grid in row
    order (C order for 2D).  ``ls`` is the misfit alone and
    ``nls_normalized = exp(log NLS - max log NLS)``, where log NLS
    ``= -Phi / (2 sigma_obs^2)`` includes the prior; ``log_posterior`` gives
    log NLS itself.  A grid of more than MAX_GRID_CELLS cells is rejected;
    one without a finite log NLS raises InferenceError.
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
    peak = float(np.max(log_nls))
    if not math.isfinite(peak):
        raise InferenceError(
            f"log NLS is not finite on any of the {len(points)} grid cells: obs_variance "
            f"{problem.obs_variance:g} is too small for the least misfit {np.min(ls):.6g}"
        )
    return axes, points, ls, np.exp(log_nls - peak)


def high_probability_region(profile, threshold: float):
    """Connected components of {normalized NLS >= threshold} on a grid.

    ``profile`` is the (axes, points, ls, nls_normalized) tuple that
    ``evaluate_profile_grid`` returns, with at least 64 points per axis; its
    axes and nls_normalized are read.  1D profiles give a list of (lo, hi)
    intervals; 2D profiles give axis-aligned bounding boxes ((xlo, xhi),
    (ylo, yhi)) of 4-connected cell groups, listed in raster order of each
    component's first cell.  A level band thinner than the grid's diagonal
    step, such as the neighbourhood of a curve of exact solutions on a steep
    surrogate, has cells that touch only at corners, so it splits into
    several 4-connected components, each reported as its own box.
    """
    if not 0.0 < threshold < 1.0:
        raise ConfigurationError("threshold must lie strictly inside (0, 1)")
    axes, _, _, normalized = profile
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
