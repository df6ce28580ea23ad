"""Analytical high-fidelity benchmark functions and initial designs.

Each benchmark is an exact, deterministic scalar function over a box domain.
They act as the ground truth that surrogates are trained on and validated
against, so evaluation is strict: out-of-bounds points raise instead of
clamping, which would silently distort least-squares profiles near the
boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset
from .errors import ConfigurationError, DomainError, ShapeError

__all__ = [
    "HighFidelityModel",
    "BENCHMARKS",
    "get_benchmark",
    "eval_benchmark",
    "sample_initial_design",
]


@dataclass(frozen=True)
class HighFidelityModel:
    """A named analytical benchmark: exact evaluator on a box domain."""

    name: str
    bounds: tuple[tuple[float, float], ...]
    evaluator: Callable[[np.ndarray], float]

    def __post_init__(self):
        for i, (lo, hi) in enumerate(self.bounds):
            if not lo < hi:
                raise ConfigurationError(
                    f"{self.name}: bounds for dimension {i} are not increasing"
                )

    @property
    def dim(self) -> int:
        return len(self.bounds)


def _mixed_gaussian_periodic_1d(x: np.ndarray) -> float:
    x0 = x[0]
    return (
        math.exp(-((x0 - 2.0) ** 2) / 2.0)
        + 0.9 * math.exp(-((x0 + 5.0) ** 2) / 20.0)
        + 0.1 * math.cos(2.0 * x0)
    )


def _levy_1d(x: np.ndarray) -> float:
    w = 1.0 + (x[0] - 1.0) / 4.0
    term1 = math.sin(math.pi * w) ** 2
    term2 = (w - 1.0) ** 2 * (1.0 + 10.0 * math.sin(math.pi * w + 1.0) ** 2)
    term3 = (w - 1.0) ** 4 * math.sin(2.0 * math.pi * w) ** 2
    return term1 + term2 + term3


def _griewank_1d(x: np.ndarray) -> float:
    x0 = x[0]
    return x0 * x0 / 4000.0 - math.cos(x0) + 1.0


def _forrester_1d(x: np.ndarray) -> float:
    x0 = x[0]
    return (6.0 * x0 - 2.0) ** 2 * math.sin(12.0 * x0 - 4.0)


def _mixed_gaussian_periodic_2d(x: np.ndarray) -> float:
    x0, x1 = x[0], x[1]
    return (
        math.exp(-(((x0 - 2.0) ** 2) + ((x1 - 2.0) ** 2)) / 2.0)
        + 0.2 * math.cos(3.0 * x0) * math.sin(3.0 * x1)
        + 0.1 * math.sin(5.0 * x0 + 5.0 * x1)
    )


def _rosenbrock_2d(x: np.ndarray) -> float:
    x0, x1 = x[0], x[1]
    return (1.0 - x0) ** 2 + 100.0 * (x1 - x0 * x0) ** 2


BENCHMARKS: dict[str, HighFidelityModel] = {
    m.name: m
    for m in [
        HighFidelityModel("mixed1d", ((-10.0, 10.0),), _mixed_gaussian_periodic_1d),
        HighFidelityModel("levy1d", ((-6.0, 6.0),), _levy_1d),
        HighFidelityModel("griewank1d", ((-15.0, 15.0),), _griewank_1d),
        HighFidelityModel("forrester1d", ((0.0, 1.0),), _forrester_1d),
        HighFidelityModel(
            "mixed2d", ((-1.0, 2.0), (0.0, 3.0)), _mixed_gaussian_periodic_2d
        ),
        HighFidelityModel("rosenbrock2d", ((-2.0, 2.0), (-1.0, 2.0)), _rosenbrock_2d),
    ]
}


def get_benchmark(name: str) -> HighFidelityModel:
    """Look up a registered benchmark by name."""
    try:
        return BENCHMARKS[name]
    except KeyError:
        known = ", ".join(sorted(BENCHMARKS))
        raise ConfigurationError(f"unknown benchmark {name!r}; choose from: {known}")


def check_in_bounds(
    bounds: tuple[tuple[float, float], ...], x: np.ndarray, what: str = "point"
) -> np.ndarray:
    """Validate shape and box membership; return x as a float vector."""
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != len(bounds):
        raise ShapeError(
            f"{what} has length {x.shape[0]}, expected {len(bounds)}"
        )
    for i, (lo, hi) in enumerate(bounds):
        if not (lo <= x[i] <= hi):
            raise DomainError(
                f"{what} coordinate {i} = {float(x[i])!r} outside [{lo}, {hi}]"
            )
    return x


def eval_benchmark(model: HighFidelityModel, x: np.ndarray) -> float:
    """Exact benchmark value at an in-bounds point."""
    x = check_in_bounds(model.bounds, x, what=f"{model.name} input")
    return float(model.evaluator(x))


def sample_initial_design(
    model: HighFidelityModel, n_init: int, seed: int
) -> Dataset:
    """Stratified uniform (Latin hypercube style) initial design.

    Each dimension is cut into ``n_init`` equal strata; the strata are
    permuted independently per dimension and one jittered point is placed in
    each, so the design is space-filling and exactly reproducible for a
    fixed seed.
    """
    if n_init < 2:
        raise ConfigurationError(
            f"n_init={n_init}: at least 2 points are required to estimate "
            "surrogate hyperparameters"
        )
    if seed < 0:
        raise ConfigurationError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    n, d = n_init, model.dim
    u = (np.arange(n)[:, None] + rng.random((n, d))) / n
    for j in range(d):
        u[:, j] = u[rng.permutation(n), j]
    lo, hi = np.asarray(model.bounds, dtype=float).T
    x = lo + u * (hi - lo)
    y = np.array([eval_benchmark(model, xi) for xi in x])
    return Dataset(x=x, y=y, bounds=model.bounds)
