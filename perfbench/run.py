"""gpinverse benchmark: one workload, one seed, a fixed measuring time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload surrogate-2d --seed 0 --seconds 36 --trace 0

Each workload has a fixed panel of BO seeds, and the run seed fills the
MAP-start and chain seeds (see ``workloads.py``).  The run starts ``WORKERS``
processes of ``worker.py`` one after another, each with an equal share of
``--seconds``; each sets up once and then runs experiments, one
``gpinverse run --config`` of one panel member each, cycling over the panel.
The first member runs at least twice; every experiment's CSVs are compared
with the first run of the same config.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: set-up
time (median over the workers), experiment time (see ``scaled_wall``) and
peak RSS (largest over the workers).  Times are scaled by a speed probe taken around each of them (see
``worker.speed_probe``), because the speed of a shared host drifts by up to
1.8x within a minute; the raw times are kept in the stored result.
``--trace 1`` runs each visit untraced and traced, and reports the
per-layer metrics (per member the median, then the mean over the panel)
plus the tracing overhead (median over visits of the traced minus the
untraced raw time).  The last line of standard output is the result
as JSON; the same result, the raw per-experiment values and an environment
record are also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

# BLAS and OpenMP threads per experiment process; at most nproc.
BLAS_THREADS = 1
# The whole run, experiments included, ends within this many seconds.
RUN_DEADLINE_S = 170.0
# Worker processes per run; set-up time is the median over them.
WORKERS = 5
# Reported times are scaled to a host on which worker.speed_probe() takes
# this long (a typical value on the 2-core machine the bounds were set on).
PROBE_REF_S = 0.06
OUT_DIR = ".perfbench_out"

# Per-layer values computed from shapes or read from deterministic outputs:
# each must repeat exactly when a panel member runs again.
EXACT = [
    "benchmarks.eval_benchmark.calls",
    "gp.gp_fit.calls",
    "gp.gp_predict_many.m1.calls",
    "gp.kernel_matrix.calls",
    "trace.spans",
    "gp.gp_predict_many.batch.rows",
    "gp.kernel_matrix.pairs",
    "gp.kernel_matrix.tmp_mb_max",
    "inversion.evaluate_profile_grid.rows",
    "sampling.kde_estimate.tmp_mb",
    "presets.bytes_written",
    "bo.hf_evals",
    "bo.final_mse",
    "inversion.map_true_misfit",
    "sampling.kde_grid_l1",
]


def environment() -> dict:
    """Where the numbers came from; results from different machines differ."""
    probe = (
        "import json, numpy, scipy;"
        "b = numpy.show_config(mode='dicts')['Build Dependencies']['blas'];"
        "print(json.dumps([numpy.__version__, scipy.__version__,"
        " b.get('name'), b.get('version')]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, check=True
    )
    numpy_v, scipy_v, blas_name, blas_v = json.loads(out.stdout)
    return {
        "python": platform.python_version(),
        "numpy": numpy_v,
        "scipy": scipy_v,
        "blas": f"{blas_name} {blas_v}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "machine": platform.machine(),
        "kernel": platform.release(),
    }


def run_worker(root, workdir, args, index, first_visit, min_visits, until, deadline):
    """Run one worker process to its end; return its result record."""
    work = os.path.join(workdir, f"worker{index}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--dir", work,
        "--first-visit", str(first_visit), "--min-visits", str(min_visits),
        "--until", repr(until),
    ]
    if args.trace:
        cmd += ["--spans", os.path.join(
            root, OUT_DIR, f"{args.workload}-seed{args.seed}-spans{index}.npz")]
    try:
        spawned_at = time.monotonic()
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned_at)],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return {"problems": ["worker passed the run deadline and was killed"]}
    result_path = os.path.join(work, "result.json")
    if proc.returncode != 0 or not os.path.isfile(result_path):
        return {"problems": [f"worker exited with code {proc.returncode}: {proc.stderr[-2000:]}"]}
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _by_member(records, value) -> list[list[float]]:
    by_seed: dict[int, list[float]] = {}
    for r in records:
        by_seed.setdefault(r["bo_seed"], []).append(value(r))
    return list(by_seed.values())


def panel_mean(records, key) -> float:
    """Mean over panel members of the median of each member's values."""
    return statistics.fmean(statistics.median(v) for v in _by_member(records, lambda r: r[key]))


def scaled_wall(records) -> float:
    """Experiment time scaled to the reference host speed.

    Per panel member: PROBE_REF_S times the summed experiment time over the
    summed speed probes taken around those experiments (a ratio of sums
    is steadier than the median of per-experiment ratios, because a single
    70 ms probe is noisy).  Then the geometric mean over the members, which
    gives each the same relative weight so that the longest member's noise
    does not dominate.
    """
    walls = _by_member(records, lambda r: r["wall_s"])
    probes = _by_member(records, lambda r: r["probe_s"])
    return statistics.geometric_mean(
        PROBE_REF_S * sum(w) / sum(p) for w, p in zip(walls, probes)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gpinverse", "cli.py")):
        print(f"no gpinverse sources under {root}/src; run from a checkout root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    env_record = environment()
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    n_panel = len(workloads.WORKLOADS[args.workload]["panel"])
    workers, visit = [], 0
    try:
        for k in range(WORKERS):
            # Each worker gets an equal share of the measuring time; the last
            # one also makes sure the first panel member ran twice.
            until = start + (k + 1) * args.seconds / WORKERS
            min_visits = max(1, n_panel + 1 - visit) if k == WORKERS - 1 else 1
            w = run_worker(root, workdir, args, k, visit, min_visits, until, deadline)
            workers.append(w)
            visit = w.get("next_visit", visit + 1)
            if time.monotonic() >= deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    records = [e for w in workers for e in w.get("experiments", [])]

    # Determinism: every CSV matches the first successful run of its config.
    first: dict[int, dict] = {}
    for r in records:
        if r["problems"]:
            continue
        ref = first.setdefault(r["bo_seed"], r)
        if r["csv_sha256"] != ref["csv_sha256"]:
            r["problems"] = ["CSV artifacts differ from an earlier run of the same config"]
    exact_ref: dict[int, dict] = {}
    for r in records:
        if r["traced"] and not r["problems"]:
            ref = exact_ref.setdefault(r["bo_seed"], r["layers"])
            changed = [k for k in EXACT if r["layers"].get(k) != ref.get(k)]
            if changed:
                r["problems"] = [f"computed counts changed between runs: {changed}"]

    crashed = [w for w in workers if "experiments" not in w]
    failed = [r for r in records if r["problems"]]
    for r in crashed + failed:
        print(f"experiment {r.get('bo_seed', '')} traced={r.get('traced')} failed: "
              + "; ".join(r["problems"]), file=sys.stderr)
    ok = [r for r in records if not r["problems"]]
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    metrics = {}
    if not args.trace and untraced and not crashed:
        metrics["setup_s"] = statistics.median(
            w["setup_s"] * PROBE_REF_S / w["setup_probe_s"] for w in workers
        )
        metrics["wall_s"] = scaled_wall(untraced)
        metrics["peak_rss_mb"] = max(w["peak_rss_mb"] for w in workers)
    elif args.trace and traced and untraced:
        for r in traced:
            r.update(r.pop("layers"))
        for name in units:
            if not name.startswith("trace.overhead"):
                metrics[name] = panel_mean(traced, name)
        # Raw times of the untraced and traced experiment of one visit run
        # back to back on the same config, so their difference is paired.
        plain = {r["visit"]: r["wall_s"] for r in untraced}
        pairs = [(plain[r["visit"]], r["wall_s"]) for r in traced if r["visit"] in plain]
        if pairs:
            metrics["trace.overhead_s"] = statistics.median(t - p for p, t in pairs)
            metrics["trace.overhead_frac"] = statistics.median(t / p - 1 for p, t in pairs)

    result = {
        "correct": not failed and not crashed and bool(metrics),
        "attempted": len(records) + len(crashed),
        "failed": len(failed) + len(crashed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    stored = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, environment=env_record,
                  setup_s=[w.get("setup_s") for w in workers],
                  setup_probe_s=[w.get("setup_probe_s") for w in workers],
                  peak_rss_mb=[w.get("peak_rss_mb") for w in workers],
                  experiments=[
                      {k: r[k] for k in ("visit", "bo_seed", "traced", "wall_s", "probe_s", "quality",
                                         "problems")}
                      for r in records
                  ])
    out_path = os.path.join(
        root, OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1)
    print(json.dumps({"environment": env_record}))
    for name, m in result["metrics"].items():
        print(f"{args.workload:>14} {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
