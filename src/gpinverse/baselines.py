"""Deterministic 1D surrogate baselines: Lagrange, Legendre, cubic spline.

These are the classical alternatives the GP surrogates are benchmarked
against.  All three are one-dimensional by design; the comparison study only
uses them in 1D.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset
from .errors import (
    ConfigurationError,
    DegenerateDataError,
    DomainError,
    UnsupportedDimensionError,
)

__all__ = ["DeterministicSurrogate", "fit_deterministic", "eval_deterministic"]

FAMILIES = ("lagrange", "legendre", "cubic_spline")

MAX_LEGENDRE_DEGREE = 30


@dataclass(frozen=True)
class DeterministicSurrogate:
    """Fitted 1D interpolant / expansion over [domain[0], domain[1]].

    ``fitted`` is the scipy or numpy object of the family: a
    ``BarycentricInterpolator``, a ``numpy.polynomial.Legendre`` series or a
    ``CubicSpline``.
    """

    family: str
    fitted: Callable
    domain: tuple[float, float]


def fit_deterministic(family: str, data: Dataset) -> DeterministicSurrogate:
    """Fit one of the deterministic families to a 1D dataset.

    Lagrange uses the barycentric form (Berrut & Trefethen 2004); Legendre is
    a least-squares fit of degree min(n - 1, 30) on inputs mapped affinely to
    [-1, 1]; the spline uses natural boundary conditions (zero curvature at
    the end knots).
    """
    # Imported here: scipy.interpolate adds tens of milliseconds to every
    # start of the command line, and only the surrogate comparison needs it.
    from scipy.interpolate import BarycentricInterpolator, CubicSpline

    if family not in FAMILIES:
        raise ConfigurationError(
            f"unknown surrogate family {family!r}; choose from {FAMILIES}"
        )
    if data.dim != 1:
        raise UnsupportedDimensionError(
            f"deterministic baselines are 1D only, got {data.dim}D data"
        )
    order = np.argsort(data.x[:, 0], kind="stable")
    x = data.x[order, 0]
    y = data.y[order]
    if np.any(np.diff(x) < 1e-12):
        raise DegenerateDataError("duplicate interpolation nodes")
    n = x.size
    min_points = 2 if family == "cubic_spline" else 1
    if n < min_points:
        raise DegenerateDataError(
            f"{family} needs at least {min_points} points, got {n}"
        )
    domain = (float(data.bounds[0][0]), float(data.bounds[0][1]))

    if family == "lagrange":
        # scipy scales the weights by the node span, which is 0 for a single
        # node; the weight of a lone node is arbitrary, so pass it.  The fixed
        # rng fixes the random order in which scipy multiplies the weight
        # factors, so that refits of the same data are bit-identical.
        fitted = BarycentricInterpolator(x, y, wi=np.ones(1) if n == 1 else None, rng=0)
    elif family == "legendre":
        fitted = np.polynomial.Legendre.fit(
            x, y, min(n - 1, MAX_LEGENDRE_DEGREE), domain=domain
        )
    else:
        fitted = CubicSpline(x, y, bc_type="natural")
    return DeterministicSurrogate(family=family, fitted=fitted, domain=domain)


def eval_deterministic(s: DeterministicSurrogate, x) -> np.ndarray:
    """Evaluate the surrogate at each point of a 1-D array of in-domain points."""
    lo, hi = s.domain
    x = np.asarray(x, dtype=float)
    outside = ~((x >= lo) & (x <= hi))
    if np.any(outside):
        raise DomainError(
            f"query {x[outside][0]!r} outside surrogate domain [{lo}, {hi}]"
        )
    return np.asarray(s.fitted(x), dtype=float)
