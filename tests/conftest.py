"""Shared fixtures: stub surrogates and cached preset runs.

Preset pipelines are expensive (surrogate construction dominates), so each
one runs at most once per session; the acceptance criteria all read from
the cached results.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from gpinverse import GaussianPrior, InverseProblem
from gpinverse.presets import get_preset, run_experiment


class FunctionSurrogate:
    """Exact-mean stand-in for a fitted GP in inversion/sampling tests.

    The mean is ``fn`` itself; its gradient and Hessian are central
    differences of ``fn`` with fixed steps, which is accurate enough for the
    smooth functions the tests pass.
    """

    GRAD_STEP = 1e-6
    HESSIAN_STEP = 1e-4

    def __init__(self, fn):
        self.fn = fn

    def predict_mean(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.array([float(self.fn(row)) for row in x])

    def mean_grad(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        steps = self.GRAD_STEP * np.eye(x.shape[1])
        grad = np.column_stack([
            (self.predict_mean(x + e) - self.predict_mean(x - e)) / (2.0 * self.GRAD_STEP)
            for e in steps
        ])
        return self.predict_mean(x), grad

    def mean_hessian(self, x):
        x = np.asarray(x, dtype=float).ravel()
        steps = self.HESSIAN_STEP * np.eye(x.size)
        f = self.fn
        return np.array([
            [f(x + a + b) - f(x + a - b) - f(x - a + b) + f(x - a - b) for b in steps]
            for a in steps
        ]) / (4.0 * self.HESSIAN_STEP**2)


@pytest.fixture(scope="session")
def function_surrogate():
    return FunctionSurrogate


@pytest.fixture
def linear_gaussian():
    """A problem whose posterior is Gaussian, with that posterior's moments.

    The surrogate mean is a*x, the observation y has noise variance s2, and
    the prior is N(m, g), so the posterior is N(mean, var) with
    1/var = a^2/s2 + 1/g and mean = var (a y / s2 + m / g).  The box spans
    more than 12 posterior standard deviations on each side of the mean.
    """
    a, y, s2, m, g = 2.0, 1.0, 0.5, -0.3, 0.4
    var = 1.0 / (a * a / s2 + 1.0 / g)
    problem = InverseProblem(
        surrogate=FunctionSurrogate(lambda x: a * x[0]),
        observed=y,
        obs_variance=s2,
        bounds=((-4.0, 4.0),),
        prior=GaussianPrior(mean=[m], cov=[[g]]),
    )
    return problem, var * (a * y / s2 + m / g), var


@pytest.fixture(scope="session")
def preset_runs(tmp_path_factory):
    """Run-once cache of preset executions, keyed by preset name."""
    cache: dict[str, tuple] = {}

    def run(name: str):
        if name not in cache:
            outdir = tmp_path_factory.mktemp(f"run-{name}")
            t0 = time.perf_counter()
            result = run_experiment(get_preset(name), str(outdir))
            elapsed = time.perf_counter() - t0
            cache[name] = (result, elapsed)
        return cache[name]

    return run
