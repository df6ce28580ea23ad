"""Criterion-8 hits and chain acceptance of ``mixed1d-mcmc`` over chain seeds.

Usage::

    PYTHONPATH=<checkout>/src python tools/criterion8_sweep.py [SEED ...]

With no SEED the chain seeds 0-9 run.  The BO and inversion stages of the
``mixed1d-mcmc`` preset run once, into a temporary directory; only the mcmc
stage's ``mcmc.seed`` varies.  For each seed the script prints the number of
chains whose KDE peak lies in the dominant high-probability interval (the
criterion needs at least 7 of 10), the lowest and highest acceptance rate
(the criterion needs them inside (0.05, 0.95)), the independence
proposals made and accepted over all chains, the seconds ``run_mcmc`` took,
the rows of batched log density calls over all chains
(``density_evaluations``) and the number of those calls, counted by
wrapping ``gpinverse.sampling.log_posterior``.  The dominant interval is the
one with the most mass under a 512-point reference posterior, as in
``tests/test_acceptance.py::test_criterion_8_mcmc_diagnostics``.
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
import time

import numpy as np

from gpinverse import sampling
from gpinverse.inversion import evaluate_profile_grid
from gpinverse.presets import get_preset, run_experiment
from gpinverse.sampling import grid_posterior, kde_estimate, run_mcmc


def dominant_interval(problem, regions) -> tuple[float, float]:
    """The high-probability interval holding the most reference mass."""
    ref = grid_posterior(evaluate_profile_grid(problem, 512))
    masses = [
        float(np.trapezoid(np.where((ref.grid >= lo) & (ref.grid <= hi), ref.density, 0.0), ref.grid))
        for lo, hi in regions
    ]
    return regions[int(np.argmax(masses))]


def kde_peak_hits(chains, bounds, interval) -> int:
    """Chains whose KDE peak, on a 2001-point grid of the box, lies in interval."""
    grid = np.linspace(bounds[0][0], bounds[0][1], 2001)
    lo, hi = interval
    peaks = [grid[int(np.argmax(kde_estimate(c.samples[:, 0], grid)))] for c in chains]
    return sum(lo <= p <= hi for p in peaks)


HEADER = (
    "seed hits min_accept max_accept indep_made indep_accepted run_mcmc_s "
    "density_evals density_calls"
)


def sweep_row(problem, mcmc, profile, interval) -> str:
    """One output line: ``run_mcmc`` at ``mcmc.seed`` and the HEADER columns."""
    original = sampling.log_posterior
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    sampling.log_posterior = counting
    try:
        start = time.perf_counter()
        chains = run_mcmc(problem, mcmc, profile)
        seconds = time.perf_counter() - start
    finally:
        sampling.log_posterior = original
    rates = [c.acceptance_rate for c in chains]
    return (
        f"{mcmc.seed} {kde_peak_hits(chains, problem.bounds, interval)}/{len(chains)} "
        f"{min(rates):.4f} {max(rates):.4f} "
        f"{sum(c.independence_proposals for c in chains)} "
        f"{sum(c.independence_accepted for c in chains)} "
        f"{seconds:.3f} {sum(c.density_evaluations for c in chains)} {calls}"
    )


def main(argv: list[str]) -> int:
    seeds = [int(a) for a in argv] or list(range(10))
    config = get_preset("mixed1d-mcmc")
    with tempfile.TemporaryDirectory() as outdir:
        result = run_experiment(dataclasses.replace(config, mcmc=None), outdir)
    problem = result.problem
    profile = evaluate_profile_grid(problem, config.inversion.grid_resolution)
    interval = dominant_interval(problem, result.summary.hp_regions)
    print(f"dominant interval [{interval[0]:.4f}, {interval[1]:.4f}]")
    print(HEADER)
    for seed in seeds:
        print(sweep_row(problem, dataclasses.replace(config.mcmc, seed=seed), profile, interval))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
