"""One benchmark process: set up once, then run experiments through the CLI.

Usage (from the root of a checkout; ``run.py`` starts this):

    python3 perfbench/worker.py --workload W --seed S --dir D --spawned-at T \
        --first-visit V --min-visits N --until U [--spans FILE]

Visit ``V`` runs panel member ``V mod len(panel)``.  The process keeps
visiting until it has made ``N`` visits and ``time.monotonic()`` has passed
``U``.  Each experiment is timed around ``gpinverse.cli.main``, then its
artifacts are checked, hashed and deleted.  ``T`` is the parent's
``time.monotonic()`` just before it started this process, so set-up time
covers interpreter start, imports and config generation.  With ``--spans``
each visit runs untraced and traced, in alternating order, and the spans of
all traced experiments are written to ``FILE`` when the process ends.  Measurements and
check results go to ``D/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import redirect_stdout

import numpy as np

import tracing
import workloads

# An observation more than this many observation standard deviations from
# the true model at the reported MAP point is not a solution of the inverse
# problem.
MISFIT_TOLERANCE = 3.0
# kde_estimate promises a unit integral to within a couple percent.
KDE_MASS_TOLERANCE = 0.02


def _artifacts(config) -> list[str]:
    names = ["manifest.json", "trace.json", "trace.csv", "posterior.json", "profiles.csv"]
    if config.mcmc is not None:
        names += ["kde_overlay.csv", "grid_posterior.csv"]
        for i in range(config.mcmc.n_chains):
            names += [f"chains/chain_{i:02d}.csv", f"chains/kde_{i:02d}.csv"]
    return names


def _check(config, out: str, mse_limit: float) -> tuple[list[str], dict]:
    """Output checks and the quality values they compute."""
    from gpinverse.benchmarks import eval_benchmark, get_benchmark

    problems = [f"missing artifact {a}" for a in _artifacts(config)
                if not os.path.isfile(os.path.join(out, a))]
    if problems:
        return problems, {}
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    inv = manifest["inversion"]
    hf = get_benchmark(config.benchmark)
    truth = eval_benchmark(hf, np.asarray(inv["map"]))
    misfit = abs(inv["observed"] - truth) / np.sqrt(inv["obs_variance"])
    with open(os.path.join(out, "trace.json"), encoding="utf-8") as fh:
        iterations = len(json.load(fh)["iterations"])
    quality = {
        "bo.hf_evals": manifest["bo_result"]["n_samples"],
        "bo.final_mse": manifest["bo_result"]["final_mse"],
        "bo.iterations": iterations,
        "inversion.map_true_misfit": float(misfit),
        "inversion.map_multistart.clusters": inv["n_clusters"],
    }
    if not misfit <= MISFIT_TOLERANCE:
        problems.append(f"map_true_misfit {misfit:.3g} > {MISFIT_TOLERANCE}")
    if not quality["bo.final_mse"] <= mse_limit:
        problems.append(f"surrogate validation MSE {quality['bo.final_mse']:.3g} > {mse_limit}")

    if config.mcmc is not None:
        for i in range(config.mcmc.n_chains):
            x, dens = np.loadtxt(
                os.path.join(out, f"chains/kde_{i:02d}.csv"), delimiter=",", skiprows=1
            ).T
            mass = float(np.trapezoid(dens, x))
            if not abs(mass - 1.0) <= KDE_MASS_TOLERANCE:
                problems.append(f"chain {i} KDE integrates to {mass:.4f}")
        if not manifest["mcmc"]["grid_modes"]:
            problems.append("grid_posterior reported no modes")
        overlay = np.loadtxt(os.path.join(out, "kde_overlay.csv"), delimiter=",", skiprows=1)
        grid = overlay[overlay[:, 0] == 0, 1]
        pooled = overlay[:, 2].reshape(config.mcmc.n_chains, grid.size).mean(axis=0)
        ref_x, ref_d = np.loadtxt(
            os.path.join(out, "grid_posterior.csv"), delimiter=",", skiprows=1
        ).T
        l1 = float(np.trapezoid(np.abs(pooled - np.interp(grid, ref_x, ref_d)), grid))
        quality["sampling.kde_grid_l1"] = l1
        quality["sampling.run_mcmc.accept_rate"] = float(
            np.mean(manifest["mcmc"]["acceptance_rates"])
        )
    return problems, quality


def _csv_hashes(out: str) -> dict[str, str]:
    hashes = {}
    for root, _, files in os.walk(out):
        for f in sorted(files):
            if f.endswith(".csv"):
                path = os.path.join(root, f)
                with open(path, "rb") as fh:
                    hashes[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def _written(out: str) -> tuple[int, int]:
    n_bytes = n_files = 0
    for root, _, files in os.walk(out):
        for f in files:
            n_bytes += os.path.getsize(os.path.join(root, f))
            n_files += 1
    return n_bytes, n_files


_PROBE_SMALL = np.linspace(0.0, 1.0, 64)
_PROBE_LARGE = np.linspace(0.0, 1.0, 1 << 18)


def speed_probe() -> float:
    """Seconds for a fixed mix of interpreter work, small and 2 MB numpy calls.

    The machine's speed drifts by up to 1.8x within a minute on shared
    hosts; ``run.py`` scales each time by this probe, measured right before
    and after it, so the metrics compare the program and not the host load.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += float(np.sum(np.exp(-_PROBE_SMALL * (i % 7))))
    n = 0
    for i in range(200000):
        n += i * i
    for i in range(16):
        acc += float(np.exp(-_PROBE_LARGE * (i % 5)).sum())
    return time.perf_counter() - t0


def _experiment(entry, cfg_path: str, out: str) -> tuple[int, float, list[str]]:
    """Run one experiment through the CLI; return (exit code, seconds, problems)."""
    problems = []
    t0 = time.monotonic()
    try:
        with redirect_stdout(io.StringIO()):
            rc = entry(["run", "--config", cfg_path, "--out", out])
    except Exception:  # noqa: BLE001 - a crash is a failed experiment, not a benchmark error
        rc = 1
        problems.append("uncaught exception:\n" + traceback.format_exc())
    wall = time.monotonic() - t0
    if rc != 0:
        problems.append(f"gpinverse exited with code {rc}")
    return rc, wall, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--first-visit", type=int, required=True)
    parser.add_argument("--min-visits", type=int, required=True)
    parser.add_argument("--until", type=float, required=True)
    parser.add_argument("--spans", default=None, help="write traced spans here")
    args = parser.parse_args(argv)

    import gpinverse
    from gpinverse import cli
    from gpinverse.presets import config_from_text

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(gpinverse.__file__).startswith(src + os.sep):
        print(f"gpinverse imported from {gpinverse.__file__}, not {src}", file=sys.stderr)
        return 2

    mse_limits = workloads.WORKLOADS[args.workload]["panel"]
    panel = tuple(mse_limits)
    os.makedirs(args.dir, exist_ok=True)
    configs = {}
    for bo_seed in panel:
        text = workloads.config_text(args.workload, args.seed, bo_seed)
        path = os.path.join(args.dir, f"bo{bo_seed}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        configs[bo_seed] = (path, config_from_text(text))
    setup_s = time.monotonic() - args.spawned_at
    setup_probe = speed_probe()

    tracer = tracing.Tracer() if args.spans else None
    traced_main = tracer.wrap(cli.main, "cli.main") if tracer else None
    modes = (False, True) if tracer else (False,)
    experiments, spans = [], []
    visit = args.first_visit
    while True:
        bo_seed = panel[visit % len(panel)]
        cfg_path, config = configs[bo_seed]
        # Alternate the order so that warm-up and drift do not bias the
        # traced-minus-untraced overhead one way.
        for traced in modes if visit % 2 == 0 else modes[::-1]:
            out = os.path.join(args.dir, f"visit{visit}-{int(traced)}")
            if traced:
                tracer.clear()
                tracer.install()
            probe = speed_probe()
            try:
                rc, wall, problems = _experiment(traced_main if traced else cli.main, cfg_path, out)
            finally:
                if traced:
                    tracer.uninstall()
            probe_after = speed_probe()
            record = {"visit": visit, "bo_seed": bo_seed, "traced": traced, "wall_s": wall,
                      "probe_s": 0.5 * (probe + probe_after),
                      "csv_sha256": {}, "quality": {}, "layers": {}}
            if rc == 0:
                found, record["quality"] = _check(config, out, mse_limits[bo_seed])
                problems += found
                record["csv_sha256"] = _csv_hashes(out)
                if traced:
                    arrays = tracer.arrays()
                    spans.append(dict(arrays, run_id=np.full(arrays["start"].size, visit)))
                    layers = tracing.summarize(tracer.names, arrays, config, _written(out))
                    layers.update(record["quality"])
                    # No sampling stage: its quality values read 0, like its timings.
                    layers.setdefault("sampling.kde_grid_l1", 0.0)
                    layers.setdefault("sampling.run_mcmc.accept_rate", 0.0)
                    layers["bo.fits_per_iteration"] = (
                        layers.pop("bo.gp_fits_in_run_bo") / layers["bo.iterations"]
                    )
                    record["layers"] = layers
            record["problems"] = problems
            experiments.append(record)
            shutil.rmtree(out, ignore_errors=True)
        visit += 1
        if visit - args.first_visit >= args.min_visits and time.monotonic() >= args.until:
            break

    if spans:
        np.savez_compressed(
            args.spans, names=np.array(tracer.names),
            **{k: np.concatenate([s[k] for s in spans]) for k in spans[0]},
        )
    result = {
        "setup_s": setup_s,
        "setup_probe_s": setup_probe,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "next_visit": visit,
        "experiments": experiments,
    }
    with open(os.path.join(args.dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
