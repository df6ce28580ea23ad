"""Workload definitions: the config file each experiment of a run receives.

A workload is a template of the flat ``key = value`` config format that
``gpinverse run --config`` reads, plus a fixed panel of BO seeds.  One
experiment runs one panel member; the run seed fills the MAP-start and
chain seeds, so the same run seed always gives the same config files.

Each panel member carries a limit on the surrogate's final validation MSE
(``manifest.json`` ``bo_result.final_mse``): twice the value the member
reached when the limits were set.  The BO stage does not depend on the run
seed, so the value is exact for a member; a change to fitting or
acquisition that makes the surrogate more than twice as bad fails the
experiment.

Each workload fixes the amount of work an experiment does: the BO loop
always spends its whole evaluation budget (the validation-MSE target is
set below anything the surrogate reaches), chain lengths and grid sizes are
constants.  The BO seed stays in a fixed panel because the cost of
marginal-likelihood fitting depends heavily on the design it sees: over BO
seeds 0-9 of ``surrogate-2d`` one experiment made 3.8k to 21k ``gp_fit``
calls (2.0 s to 4.7 s, traced).  A BO seed drawn from the run seed would make the
run-to-run spread measure the design, not the program.  The panel keeps
several designs so that a change to the fitting is judged on more than one
likelihood surface.
"""

from __future__ import annotations

# Validation-MSE target no surrogate in these workloads reaches, so the BO
# loop always runs to its evaluation budget.
UNREACHABLE_MSE = 1e-12

_BO_COMMON = {
    "n_acq": 1,
    "mse_threshold": UNREACHABLE_MSE,
    "mse_mode": "absolute",
    "n_val": 1000,
    "kernel_family": "matern52",
    "noise_variance": 1e-6,
    "acquisition": "ucb",
    "kappa": 200.0,
    "restarts": 3,
}

# Each workload: the flat config keys, its panel (BO seed -> final-MSE
# limit), and the keys that take the run seed.
WORKLOADS = {
    # Derived from the mixed2d-inverse preset: its 5-point initial design and
    # 7 acquisitions.  BO dominates: acquire_batch (L-BFGS over m=1
    # predictions with finite-difference gradients) and hyperparameter
    # fitting (Powell over gp_fit).
    "surrogate-2d": {
        "keys": {
            "benchmark": "mixed2d",
            **{f"bo.{k}": v for k, v in _BO_COMMON.items()},
            "bo.n_init": 5,
            "bo.max_evaluations": 12,
            "inversion.x_true": (1.248, 1.812),
            "inversion.obs_variance": 0.1444,
            "inversion.n_starts": 24,
            "inversion.grid_resolution": 128,
        },
        "panel": {0: 0.038, 1: 0.038, 2: 0.042},
        "seeded": ("inversion.map_seed",),
    },
    # Derived from the mixed1d-mcmc preset.  Sampling and artifact writing
    # dominate: the per-step chain loop, the dense (grid x samples) KDE and
    # the chain CSVs.
    "mcmc-1d": {
        "keys": {
            "benchmark": "mixed1d",
            **{f"bo.{k}": v for k, v in _BO_COMMON.items()},
            "bo.n_init": 12,
            "bo.max_evaluations": 16,
            "inversion.observed": 0.63,
            "inversion.obs_variance": 0.0016,
            "inversion.n_starts": 24,
            "mcmc.n_chains": 10,
            "mcmc.n_steps": 6000,
            "mcmc.burn_in": 600,
            "mcmc.proposal_scale": 0.2,
            "mcmc_grid_resolution": 512,
        },
        "panel": {0: 0.0013, 1: 0.0019, 2: 0.0027},
        "seeded": ("inversion.map_seed", "mcmc.seed"),
    },
    # One GP fit on a 40-point design (no acquisition), then inversion on a
    # dense 2-D grid: gp_predict_many in large batches, the level-set flood
    # fill, the second profile-grid pass and a large profiles.csv.
    "dense-grid-2d": {
        "keys": {
            "benchmark": "mixed2d",
            **{f"bo.{k}": v for k, v in _BO_COMMON.items()},
            "bo.n_init": 40,
            "bo.max_evaluations": 40,
            "inversion.x_true": (1.248, 1.812),
            "inversion.obs_variance": 0.1444,
            "inversion.n_starts": 64,
            "inversion.grid_resolution": 320,
        },
        "panel": {0: 0.017, 1: 0.018, 2: 0.0098},
        "seeded": ("inversion.map_seed",),
    },
}


def _format(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_text(workload: str, seed: int, bo_seed: int) -> str:
    """The config file of one experiment."""
    spec = WORKLOADS[workload]
    keys = {"name": f"bench-{workload}", **spec["keys"], "bo.seed": bo_seed}
    keys.update({k: seed for k in spec["seeded"]})
    return "".join(f"{k} = {_format(v)}\n" for k, v in keys.items())
