"""Spans recorded from outside the program, around calls into each module.

``Tracer.install`` replaces module attributes of ``gpinverse`` with timing
wrappers.  The package binds names with ``from .x import f``, so a function
is wrapped on every module attribute its callers look up (for example
``gpinverse.bo.gp_predict_many`` and ``gpinverse.gp.gp_predict_many``).

Spans (name, start, end, parent span, work) are kept in flat arrays in
memory and written once, when the experiment ends.  ``summarize`` derives
per-layer metrics from them: call counts, total span time, self time (span
time minus the time of its child spans) and work counts computed from
argument shapes.
"""

from __future__ import annotations

import time
from array import array

import numpy as np


def _rows(x) -> int:
    # The package passes 2-D arrays on every hot path; convert anything else.
    if getattr(x, "ndim", 0) == 2:
        return x.shape[0]
    return np.atleast_2d(np.asarray(x)).shape[0]


def _predict_work(args):
    rows = _rows(args[1])
    return (".m1" if rows == 1 else ".batch"), rows


def _kernel_work(args):
    return "", _rows(args[1]) * _rows(args[2])


def _kde_work(args):
    return "", np.asarray(args[0]).size * np.asarray(args[1]).size


def _rows_work(args):
    return "", args[1] ** args[0].dim


# (modules, attribute, span name, work function or None).  A work function
# maps the call's positional arguments to (span name suffix, work count):
# query rows for predictions, point pairs for kernel matrices, grid x sample
# cells for the KDE and grid rows for the profile grid.
WRAPPED = (
    (("cli",), "run_experiment", "presets.run_experiment", None),
    (("presets",), "run_bo", "bo.run_bo", None),
    (("bo",), "acquire_batch", "bo.acquire_batch", None),
    (("bo",), "gp_optimize_hyperparameters", "gp.gp_optimize_hyperparameters", None),
    (("gp", "bo", "presets"), "gp_fit", "gp.gp_fit", None),
    (("gp", "bo", "presets"), "gp_predict_many", "gp.gp_predict_many", _predict_work),
    (("gp",), "kernel_matrix", "gp.kernel_matrix", _kernel_work),
    (("benchmarks", "bo", "presets"), "eval_benchmark", "benchmarks.eval_benchmark", None),
    (("presets",), "map_multistart", "inversion.map_multistart", None),
    (("presets",), "high_probability_region", "inversion.high_probability_region", None),
    (("inversion", "presets"), "evaluate_profile_grid", "inversion.evaluate_profile_grid", _rows_work),
    (("presets",), "laplace_approximation", "inversion.laplace_approximation", None),
    (("presets",), "run_mcmc", "sampling.run_mcmc", None),
    (("presets",), "kde_estimate", "sampling.kde_estimate", _kde_work),
    (("presets",), "grid_posterior", "sampling.grid_posterior", None),
)


class Tracer:
    """In-memory span recorder of one worker process.

    ``install`` / ``uninstall`` bracket a traced experiment and ``clear``
    drops the spans of the previous one.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack = [-1]
        self._originals: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, work_fn=None):
        """``fn`` wrapped so that each call records one span."""
        clock = time.perf_counter
        stack = self._stack
        name_id, parent, start, end, work = (
            self.name_id, self.parent, self.start, self.end, self.work
        )
        fixed_id = self._id(name)
        variants: dict[str, int] = {}

        def traced(*args, **kwargs):
            if work_fn is None:
                nid, amount = fixed_id, 0.0
            else:
                suffix, amount = work_fn(args)
                nid = variants.get(suffix)
                if nid is None:
                    nid = variants[suffix] = self._id(name + suffix)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            work.append(amount)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Put wrappers on every module attribute in ``WRAPPED``."""
        import importlib

        for modules, attr, name, work_fn in WRAPPED:
            targets = [importlib.import_module(f"gpinverse.{m}") for m in modules]
            original = getattr(targets[0], attr)
            wrapper = self.wrap(original, name, work_fn)
            for mod in targets:
                self._originals.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Restore the attributes ``install`` replaced."""
        for mod, attr, original in reversed(self._originals):
            setattr(mod, attr, original)
        self._originals.clear()

    def clear(self) -> None:
        """Drop recorded spans, keeping span names."""
        for arr in (self.name_id, self.parent, self.start, self.end, self.work):
            del arr[:]

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
        }


def summarize(names: list[str], spans: dict[str, np.ndarray], config, written) -> dict:
    """Per-layer metrics of one traced experiment.

    ``<span>.s`` is total span time, ``<span>.self_s`` span time minus the
    time of its direct child spans.  Work counts (rows, pairs, MB of
    temporaries) are computed from argument shapes, not measured.
    ``written`` is (bytes, files) of the experiment's artifacts.
    """
    name_id, parent, work = spans["name_id"], spans["parent"], spans["work"]
    dur = spans["end"] - spans["start"]
    child_time = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    self_time = dur - child_time
    ids = {n: i for i, n in enumerate(names)}

    def sel(name):
        return name_id == ids.get(name, -1)

    def calls(name):
        return int(np.count_nonzero(sel(name)))

    def total(name):
        return float(dur[sel(name)].sum())

    def self_s(name):
        return float(self_time[sel(name)].sum())

    def count_under(outer: str, inner: tuple[str, ...]) -> int:
        """Spans named in ``inner`` that ran inside an ``outer`` span."""
        outer_id = ids.get(outer, -2)
        count = 0
        for i in np.nonzero(np.isin(name_id, [ids.get(n, -1) for n in inner]))[0]:
            p = parent[i]
            while p >= 0 and name_id[p] != outer_id:
                p = parent[p]
            count += int(p >= 0)
        return count

    m1 = dur[sel("gp.gp_predict_many.m1")] * 1e6
    predicts = ("gp.gp_predict_many.m1", "gp.gp_predict_many.batch")
    from gpinverse.benchmarks import get_benchmark

    dim = get_benchmark(config.benchmark).dim
    bytes_per_cell = 8.0 / 1e6
    acquire_calls = calls("bo.acquire_batch")
    out = {
        "benchmarks.eval_benchmark.calls": calls("benchmarks.eval_benchmark"),
        "benchmarks.eval_benchmark.s": total("benchmarks.eval_benchmark"),
        "gp.gp_predict_many.m1.calls": int(m1.size),
        "gp.gp_predict_many.m1.s": total("gp.gp_predict_many.m1"),
        "gp.gp_predict_many.m1.p50_us": float(np.percentile(m1, 50)) if m1.size else 0.0,
        "gp.gp_predict_many.m1.p99_us": float(np.percentile(m1, 99)) if m1.size else 0.0,
        "gp.gp_predict_many.batch.calls": calls("gp.gp_predict_many.batch"),
        "gp.gp_predict_many.batch.rows": float(work[sel("gp.gp_predict_many.batch")].sum()),
        "gp.gp_predict_many.batch.s": total("gp.gp_predict_many.batch"),
        "gp.kernel_matrix.calls": calls("gp.kernel_matrix"),
        "gp.kernel_matrix.s": total("gp.kernel_matrix"),
        "gp.kernel_matrix.pairs": float(work[sel("gp.kernel_matrix")].sum()),
        "gp.kernel_matrix.tmp_mb_max": float(
            work[sel("gp.kernel_matrix")].max(initial=0.0) * dim * bytes_per_cell
        ),
        "bo.run_bo.s": total("bo.run_bo"),
        "bo.run_bo.self_s": self_s("bo.run_bo"),
        "bo.acquire_batch.calls": acquire_calls,
        "bo.acquire_batch.s": total("bo.acquire_batch"),
        "bo.acquire_batch.self_s": self_s("bo.acquire_batch"),
        "bo.acquire_batch.predicts_per_call": (
            count_under("bo.acquire_batch", predicts) / acquire_calls if acquire_calls else 0.0
        ),
        "bo.gp_fits_in_run_bo": count_under("bo.run_bo", ("gp.gp_fit",)),
        "inversion.map_multistart.s": total("inversion.map_multistart"),
        "inversion.map_multistart.predicts": count_under("inversion.map_multistart", predicts),
        "inversion.high_probability_region.s": total("inversion.high_probability_region"),
        "inversion.high_probability_region.self_s": self_s("inversion.high_probability_region"),
        "inversion.evaluate_profile_grid.calls": calls("inversion.evaluate_profile_grid"),
        "inversion.evaluate_profile_grid.s": total("inversion.evaluate_profile_grid"),
        "inversion.evaluate_profile_grid.rows": float(
            work[sel("inversion.evaluate_profile_grid")].sum()
        ),
        "inversion.laplace_approximation.s": total("inversion.laplace_approximation"),
        "sampling.run_mcmc.s": total("sampling.run_mcmc"),
        "sampling.run_mcmc.self_s": self_s("sampling.run_mcmc"),
        "sampling.kde_estimate.calls": calls("sampling.kde_estimate"),
        "sampling.kde_estimate.s": total("sampling.kde_estimate"),
        "sampling.kde_estimate.tmp_mb": float(
            work[sel("sampling.kde_estimate")].max(initial=0.0) * bytes_per_cell
        ),
        "sampling.grid_posterior.s": total("sampling.grid_posterior"),
        "presets.run_experiment.s": total("presets.run_experiment"),
        "presets.run_experiment.self_s": self_s("presets.run_experiment"),
        "presets.bytes_written": written[0],
        "presets.files_written": written[1],
        "cli.main.self_s": self_s("cli.main"),
        "trace.spans": int(dur.size),
    }
    for name in ("gp.gp_optimize_hyperparameters", "gp.gp_fit"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = total(name)
        out[f"{name}.self_s"] = self_s(name)
    run_mcmc_s = out["sampling.run_mcmc.s"]
    out["sampling.run_mcmc.chain_steps_per_s"] = (
        config.mcmc.n_chains * config.mcmc.n_steps / run_mcmc_s if run_mcmc_s > 0 else 0.0
    )
    return out
