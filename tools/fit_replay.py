"""Refit every BO iteration of recorded runs and print its log marginal likelihood.

Usage::

    PYTHONPATH=<checkout>/src python tools/fit_replay.py DIR

DIR is a ``tools/preset_digests.py`` output directory, or any directory of
``gpinverse run`` outputs.  For each run under DIR that wrote a
``trace.json``, the script reads the benchmark and BO settings from its
``manifest.json``, rebuilds the initial design, and refits the surrogate the
way the BO loop does on each iteration's dataset: the initial design plus
every point ``acquired`` by the earlier iterations.  It prints one
``run iteration lml`` line per fit, where ``run`` is the run's directory
relative to DIR (the preset name for preset_digests output).

A manifest written before ``bo.n_acq``, ``bo.restarts``, ``bo.n_val``,
``bo.noise_variance`` and ``bo.kappa`` became constants still records them;
each is accepted at its constant's value, and any other value raises
ConfigurationError, as ``gpinverse run`` treats the config key.

The fits use the checkout on PYTHONPATH, while the
``log_marginal_likelihood`` of each iteration in ``trace.json`` is that of
the checkout which wrote DIR, so the two compare their hyperparameter fits
on identical datasets.  Comparing the ``trace.json`` files of two checkouts
does not do this: once one acquisition moves, every later dataset differs.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

from gpinverse.benchmarks import eval_benchmark, get_benchmark, sample_initial_design
from gpinverse.bo import BoConfig, _fit_for_config
from gpinverse.gp import log_marginal_likelihood
from gpinverse.presets import FIXED_KEYS, check_fixed_key


def replay(run_dir: str) -> list[tuple[int, float]]:
    """(iteration, log marginal likelihood) of each refit of one run."""
    with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(os.path.join(run_dir, "trace.json"), encoding="utf-8") as fh:
        iterations = json.load(fh)["iterations"]
    hf = get_benchmark(manifest["benchmark"])
    settings = {}
    for name, value in manifest["bo"].items():
        if f"bo.{name}" in FIXED_KEYS:
            check_fixed_key(f"bo.{name}", value)
        else:
            settings[name] = value
    config = BoConfig(**settings)
    data = sample_initial_design(hf, config.n_init, config.seed)
    fits = []
    for record in iterations:
        if data.n != record["n_samples"]:
            raise ValueError(
                f"{run_dir}: iteration {record['index']} records "
                f"{record['n_samples']} samples, the replay has {data.n}"
            )
        model = _fit_for_config(data, config)
        fits.append((record["index"], log_marginal_likelihood(model)))
        acquired = np.reshape(record["acquired"], (-1, hf.dim))
        if acquired.shape[0]:
            new_y = np.array([eval_benchmark(hf, p) for p in acquired])
            data = data.extended(acquired, new_y)
    return fits


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = argv[0]
    runs = sorted(
        dirpath for dirpath, _, files in os.walk(root) if "trace.json" in files
    )
    for run_dir in runs:
        name = os.path.relpath(run_dir, root)
        for index, lml in replay(run_dir):
            print(f"{name} {index} {lml!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
