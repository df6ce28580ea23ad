"""Named experiment presets and the orchestration that runs them.

Each preset is a complete, deterministic experiment description: which
benchmark, how the surrogate is built, what observation is inverted, and
which diagnostics run afterwards.  A preset passes only the settings that
differ from the dataclass defaults.  ``run_experiment`` executes one and
writes all artifacts (manifest, traces, posterior summary, profiles,
chains) into an output directory.  Numeric CSV content is written with
full round-trip precision so repeated runs with the same seed are
byte-identical.  Each value is formatted once where the repeats are known:
profile coordinates from their axes, at one 8-byte reference per coordinate
cell; chain steps and accept flags once for all chains; and each chain's
KDE rows once for its kde file and the overlay, one chain's text at a time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import typing
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .baselines import FAMILIES as DETERMINISTIC_FAMILIES
from .baselines import eval_deterministic, fit_deterministic
from .benchmarks import check_in_bounds, eval_benchmark, get_benchmark
from .bo import BoConfig, BoTrace, run_bo, _validation_set
from .errors import ConfigurationError, GpInverseError, ShapeError
# gp_predict_many is not called here, but perfbench/tracing.py wraps it on
# this module as well as on gp and bo
from .gp import LENGTH_SCALE_FACTORS, KernelSpec, gp_fit, gp_predict_many  # noqa: F401
from .inversion import (
    HP_THRESHOLD,
    MAX_GRID_CELLS,
    MAX_MAP_STARTS,
    InverseProblem,
    PosteriorSummary,
    evaluate_profile_grid,
    high_probability_region,
    laplace_approximation,
    map_multistart,
)
from .sampling import MAX_CHAIN_VALUES, McmcConfig, grid_posterior, kde_estimate, run_mcmc

__all__ = [
    "InversionSettings",
    "ExperimentConfig",
    "ExperimentResult",
    "PRESETS",
    "list_presets",
    "get_preset",
    "run_experiment",
    "config_to_text",
    "config_from_text",
    "load_config_file",
]

@dataclass(frozen=True)
class InversionSettings:
    """Observation and search settings for the inversion stage.

    When ``x_true`` is set the observation is synthesized noise-free from
    the benchmark at that point and recorded in the manifest; otherwise
    ``observed`` must be given directly.
    """

    observed: Optional[float] = None
    x_true: Optional[tuple[float, ...]] = None
    obs_variance: float = 0.01
    grid_resolution: int = 2048
    n_starts: int = 16
    map_seed: int = 0

    def __post_init__(self):
        if (self.observed is None) == (self.x_true is None):
            raise ConfigurationError(
                "exactly one of observed / x_true must be set"
            )
        if not 0 < self.obs_variance < math.inf:
            raise ConfigurationError("obs_variance must be finite and positive")
        values = (self.observed,) if self.x_true is None else self.x_true
        if not all(math.isfinite(v) for v in values):
            raise ConfigurationError("observed and x_true must be finite")
        if self.grid_resolution < 64:
            raise ConfigurationError("grid_resolution must be >= 64")
        if not 1 <= self.n_starts <= MAX_MAP_STARTS:
            raise ConfigurationError(f"n_starts must lie in [1, {MAX_MAP_STARTS}]")
        if self.map_seed < 0:
            raise ConfigurationError("map_seed must be >= 0")


@dataclass(frozen=True)
class ExperimentConfig:
    """One runnable experiment: benchmark, surrogate stage, optional stages.

    The inversion stage reports the high-probability set at the fixed level
    ``inversion.HP_THRESHOLD`` (0.95), and each MAP start runs at most
    ``inversion.MAP_MAX_ITER`` (400) L-BFGS-B iterations.  An mcmc stage
    holds ``n_chains * n_steps * d`` path floats, at most
    ``sampling.MAX_CHAIN_VALUES``.  A comparison (``compare_benchmarks``
    set) runs ``bo`` as given on each benchmark and fits every family to the
    samples it drew, so ``bo.max_evaluations`` is their shared budget; a
    ``bo.mse_threshold`` met earlier stops it short, and mse.csv records the
    count.  It has no inversion or mcmc stage.  ``mcmc_grid_resolution``
    sizes the reference grid of an mcmc stage on a 1-D benchmark and keeps
    its default otherwise, since no other stage evaluates that grid.
    """

    name: str
    benchmark: str
    description: str
    bo: BoConfig = BoConfig()
    inversion: Optional[InversionSettings] = None
    mcmc: Optional[McmcConfig] = None
    mcmc_grid_resolution: int = 512
    compare_benchmarks: tuple[str, ...] = ()

    def __post_init__(self):
        if not 64 <= self.mcmc_grid_resolution <= MAX_GRID_CELLS:
            raise ConfigurationError(
                f"mcmc_grid_resolution must lie in [64, {MAX_GRID_CELLS}]"
            )
        if self.mcmc is not None and self.inversion is None:
            raise ConfigurationError("mcmc stage requires an inversion stage")
        if self.mcmc is not None:
            dim = get_benchmark(self.benchmark).dim
            if self.mcmc.n_chains * self.mcmc.n_steps * dim > MAX_CHAIN_VALUES:
                raise ConfigurationError(
                    f"mcmc.n_chains * mcmc.n_steps * {dim} dimension(s) exceeds "
                    f"the {MAX_CHAIN_VALUES} chain path values allowed"
                )
        default_grid = ExperimentConfig.mcmc_grid_resolution
        if self.mcmc_grid_resolution != default_grid:
            if self.mcmc is None:
                raise ConfigurationError("mcmc_grid_resolution is set without an mcmc stage")
            if get_benchmark(self.benchmark).dim != 1:
                raise ConfigurationError(
                    "mcmc_grid_resolution is set but the mcmc stage builds its "
                    f"reference grid only on a 1-D benchmark, not {self.benchmark!r}"
                )
        if self.compare_benchmarks and (
            self.inversion is not None or self.mcmc is not None
        ):
            raise ConfigurationError(
                "a comparison (compare_benchmarks) takes no inversion or mcmc settings"
            )
        for name in self.compare_benchmarks:
            if get_benchmark(name).dim != 1:
                raise ConfigurationError(f"compare benchmark {name!r} is not 1-D")


PRESETS = {
    p.name: p
    for p in (
        ExperimentConfig(
            name="forrester-inverse",
            benchmark="forrester1d",
            description=(
                "Forrester surrogate + inversion of observed -6.02: a well-posed "
                "single-mode posterior with a narrow high-probability interval "
                "around 0.76 and Laplace credible interval"
            ),
            inversion=InversionSettings(observed=-6.02, obs_variance=0.72),
        ),
        ExperimentConfig(
            name="mixed1d-inverse",
            benchmark="mixed1d",
            description=(
                "Mixed Gaussian-periodic 1D surrogate + inversion of observed "
                "0.63: an ill-posed multimodal posterior with four admissible "
                "parameter configurations and a reduced high-probability union"
            ),
            inversion=InversionSettings(observed=0.63, obs_variance=0.0016, n_starts=24),
        ),
        ExperimentConfig(
            name="levy1d-inverse",
            benchmark="levy1d",
            description=(
                "Levy 1D surrogate + inversion of an observation synthesized at "
                "0.76: sharply concentrated posterior on a rugged landscape, "
                "with a mirror mode from the near-quadratic core"
            ),
            bo=BoConfig(max_evaluations=30, mse_threshold=5e-3),
            inversion=InversionSettings(x_true=(0.76,), obs_variance=0.0025),
        ),
        ExperimentConfig(
            name="griewank1d-inverse",
            benchmark="griewank1d",
            description=(
                "Griewank 1D surrogate + inversion of observed 0.8: a "
                "periodically non-identifiable posterior with many equally "
                "plausible parameter configurations"
            ),
            bo=BoConfig(max_evaluations=35, mse_threshold=2e-3),
            inversion=InversionSettings(observed=0.8, n_starts=24),
        ),
        ExperimentConfig(
            name="mixed2d-inverse",
            benchmark="mixed2d",
            description=(
                "Mixed Gaussian-periodic 2D surrogate + inversion of an "
                "observation synthesized at (1.248, 1.812): reports the MAP "
                "cluster, least-squares residual, and per-parameter summary"
            ),
            bo=BoConfig(max_evaluations=45, mse_threshold=5e-3),
            inversion=InversionSettings(
                x_true=(1.248, 1.812),
                obs_variance=0.1444,
                n_starts=24,
                map_seed=3,
                grid_resolution=128,
            ),
        ),
        ExperimentConfig(
            name="rosenbrock2d-inverse",
            benchmark="rosenbrock2d",
            description=(
                "Rosenbrock 2D surrogate + inversion of an observation "
                "synthesized at (-1.5, -0.6): anisotropic valley geometry; the "
                "scalar observation admits a curve of exact solutions"
            ),
            bo=BoConfig(
                max_evaluations=15,
                mse_mode="normalized",
                kernel_family="rbf",
                fixed_length_scale=8.0,
                fixed_signal_variance=1e10,
            ),
            inversion=InversionSettings(
                x_true=(-1.5, -0.6), obs_variance=2500.0, n_starts=32, grid_resolution=128
            ),
        ),
        ExperimentConfig(
            name="compare-surrogates",
            benchmark="mixed1d",
            description=(
                "Surrogate-family comparison on the four 1D benchmarks: GP "
                "(Matern 5/2 and RBF, unit length scale) versus Lagrange, "
                "Legendre, and cubic-spline baselines at a shared 14-sample "
                "budget, scored by validation MSE"
            ),
            bo=BoConfig(max_evaluations=14, mse_threshold=1e-12),
            compare_benchmarks=("mixed1d", "levy1d", "griewank1d", "forrester1d"),
        ),
        ExperimentConfig(
            name="mixed1d-mcmc",
            benchmark="mixed1d",
            description=(
                "Mixed 1D posterior diagnostics: 10 independent Metropolis "
                "chains on the surrogate posterior (random-walk steps mixed with "
                "profile-grid proposals), per-chain kernel density estimates, "
                "and a dense-grid reference posterior with mode detection"
            ),
            inversion=InversionSettings(observed=0.63, obs_variance=0.0016, n_starts=24),
            mcmc=McmcConfig(n_steps=40000, burn_in=4000, proposal_scale=0.2),
        ),
        ExperimentConfig(
            name="mixed1d-ei-demo",
            benchmark="mixed1d",
            description=(
                "Expected-improvement demonstration on Mixed 1D: the "
                "improvement-seeking acquisition concentrates samples near the "
                "incumbent optimum instead of covering the domain"
            ),
            bo=BoConfig(acquisition="ei", max_evaluations=20),
        ),
    )
}


def list_presets() -> list[tuple[str, str]]:
    """(name, description) pairs in stable order."""
    return [(p.name, p.description) for p in PRESETS.values()]


def get_preset(name: str) -> ExperimentConfig:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(PRESETS)
        raise ConfigurationError(f"unknown preset {name!r}; choose from: {known}")


# ---------------------------------------------------------------------------
# Flat key = value config format
# ---------------------------------------------------------------------------

_SECTIONS = {"bo": BoConfig, "inversion": InversionSettings, "mcmc": McmcConfig}


def _format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, tuple):
        return ", ".join(_format_value(x) for x in v)
    return str(v)


def config_to_text(config: ExperimentConfig) -> str:
    """Serialize a config to the flat dotted key = value format."""
    scalars = ("name", "benchmark", "description", "mcmc_grid_resolution")
    lines = [f"{k} = {getattr(config, k)}" for k in scalars]
    for section in _SECTIONS:
        settings = getattr(config, section)
        if settings is not None:
            for f in dataclasses.fields(settings):
                v = getattr(settings, f.name)
                if v is not None:
                    lines.append(f"{section}.{f.name} = {_format_value(v)}")
    if config.compare_benchmarks:
        lines.append(
            "compare_benchmarks = " + _format_value(config.compare_benchmarks)
        )
    return "\n".join(lines) + "\n"


def _coerce(hint, raw: str):
    """Parse one config value as the annotated type ``hint``.

    ``Optional[T]`` parses as T, and ``tuple[T, ...]`` as comma-separated T.
    """
    if typing.get_origin(hint) is typing.Union:
        (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
    if typing.get_origin(hint) is tuple:
        return tuple(_coerce(typing.get_args(hint)[0], t.strip()) for t in raw.split(","))
    return hint(raw)


def config_from_text(text: str) -> ExperimentConfig:
    """Parse the flat dotted format back into an ExperimentConfig.

    Each value is parsed as the annotated type of its field; a value that
    does not parse, or a key given twice, raises ConfigurationError naming
    its line and key.
    """
    entries: dict[str, dict[str, tuple[int, str]]] = {"": {}, **{s: {} for s in _SECTIONS}}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        section, _, name = key.rpartition(".")
        if section not in entries:
            raise ConfigurationError(f"line {lineno}: unknown section {section!r}")
        if name in entries[section]:
            first = entries[section][name][0]
            raise ConfigurationError(
                f"line {lineno}: {key} repeats the key set on line {first}"
            )
        entries[section][name] = (lineno, value.strip())

    def parse(cls, section: str) -> dict:
        hints = typing.get_type_hints(cls)
        kwargs = {}
        for name, (lineno, raw) in entries[section].items():
            if name not in hints or name in _SECTIONS:
                raise ConfigurationError(
                    f"line {lineno}: unknown {cls.__name__} field {name!r}"
                )
            try:
                kwargs[name] = _coerce(hints[name], raw)
            except ValueError as exc:
                key = f"{section}.{name}" if section else name
                raise ConfigurationError(f"line {lineno}: {key}: {exc}") from None
        return kwargs

    scalars = parse(ExperimentConfig, "")
    if "benchmark" not in scalars:
        raise ConfigurationError("config is missing the 'benchmark' key")
    sections = {
        section: cls(**parse(cls, section))
        for section, cls in _SECTIONS.items()
        if entries[section]
    }
    return ExperimentConfig(**{"name": "custom", "description": "", **scalars}, **sections)


def load_config_file(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path!r}: {exc}") from exc
    return config_from_text(text)


# ---------------------------------------------------------------------------
# Execution and artifact writing
# ---------------------------------------------------------------------------


# Rows formatted per block of CSV text.  A numeric block formats each
# distinct float bit pattern with ``repr`` once and reuses its text for every
# cell holding it; one Python object per cell lives only for the block.  A
# text column arrives formatted, as one 8-byte reference per cell to texts
# its caller formatted once per distinct value, so peak memory stays bounded
# by the column arrays and those texts.
_CSV_BLOCK_ROWS = 1024


@contextlib.contextmanager
def _open_artifact(result, relpath: str):
    """Open ``relpath`` under the output directory for writing.

    ``relpath`` joins ``result.files`` once its file is complete.  An OSError
    from making its directory, opening or writing it raises
    ConfigurationError, as one from making the output directory does.
    """
    path = os.path.join(result.outdir, relpath)
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise ConfigurationError(f"cannot write {relpath}: {exc}") from exc
    result.files.append(relpath)


def _cell_texts(block: np.ndarray) -> list[str]:
    """Text of each cell of one column block.

    Floats get ``repr`` once per distinct ``float64`` bit pattern, found on
    the bits so ``-0.0`` stays apart from ``0.0`` and each NaN matches
    itself; ints and strings get ``str``; an object block holds its texts
    already and is returned as it is.
    """
    if block.dtype == object:
        return block.tolist()
    if block.dtype.kind != "f":
        return list(map(str, block.tolist()))
    values = block.astype(np.float64)
    _, first, inverse = np.unique(
        values.view(np.int64), return_index=True, return_inverse=True
    )
    texts = np.array(list(map(repr, values[first].tolist())), dtype=object)
    return texts[inverse].tolist()


def _texts(values: np.ndarray) -> np.ndarray:
    """``_cell_texts`` of a whole column, as a text column for ``_write_csv``."""
    return np.array(_cell_texts(values), dtype=object)


def _write_csv(result, relpath: str, columns: dict) -> None:
    """Write ``{header: 1-D column}`` as one CSV artifact.

    Floats are written with their round-trip ``repr`` so repeated runs with
    the same seed are byte-identical; ints and strings with ``str``.  Each
    block of rows formats one ``repr`` per distinct float bit pattern, which
    gives the same bytes as ``repr`` per cell.  A text column, an object
    array of ``str`` such as ``_texts`` gives, is written as it is, so a
    caller that writes the same values in many cells or files formats them
    once.  Columns of unequal length raise ShapeError before the file is
    opened.
    """
    arrays = [np.asarray(c) for c in columns.values()]
    lengths = [len(a) for a in arrays]
    if len(set(lengths)) > 1:
        sizes = ", ".join(f"{name}={n}" for name, n in zip(columns, lengths))
        raise ShapeError(f"{relpath}: columns differ in length ({sizes})")
    with _open_artifact(result, relpath) as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, lengths[0], _CSV_BLOCK_ROWS):
            cells = [_cell_texts(a[start:start + _CSV_BLOCK_ROWS]) for a in arrays]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(result, relpath: str, payload) -> None:
    """Write ``payload`` as one JSON artifact; ndarrays and dataclasses nest."""
    with _open_artifact(result, relpath) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


@dataclass
class ExperimentResult:
    """In-memory handles to everything a run produced."""

    config: ExperimentConfig
    outdir: str
    manifest: dict
    trace: Optional[BoTrace] = None
    summary: Optional[PosteriorSummary] = None
    problem: Optional[InverseProblem] = None
    chains: list = field(default_factory=list)
    files: list[str] = field(default_factory=list)


def _run_inversion_stage(config, hf, model, result):
    settings = config.inversion
    record = result.manifest["inversion"]
    if settings.x_true is not None:
        observed = eval_benchmark(hf, np.asarray(settings.x_true))
        record["observed_synthesized_from"] = list(settings.x_true)
    else:
        observed = settings.observed
    record["observed"] = observed

    problem = InverseProblem(
        surrogate=model,
        observed=float(observed),
        obs_variance=settings.obs_variance,
        bounds=hf.bounds,
    )
    summary = map_multistart(problem, settings.n_starts, settings.map_seed)
    profile = evaluate_profile_grid(problem, settings.grid_resolution)
    summary.hp_regions = high_probability_region(profile, HP_THRESHOLD)
    summary.metadata["hp_threshold"] = HP_THRESHOLD
    best = summary.map_clusters[0]
    summary.laplace = laplace_approximation(problem, best.x)

    _write_json(result, "posterior.json", summary)
    # points is the C-order mesh of the axes: each axis value is formatted
    # once and gathered into its column by the mesh index.  nls_normalized
    # is not written: it is a function of ls (see README).
    axes, _, ls, _ = profile
    index = np.indices([len(ax) for ax in axes]).reshape(len(axes), -1)
    coords = {name: _texts(ax)[i] for name, ax, i in zip(("x", "y"), axes, index)}
    _write_csv(result, "profiles.csv", {**coords, "ls": ls})

    result.problem = problem
    result.summary = summary
    record["n_clusters"] = len(summary.map_clusters)
    record["multimodal"] = summary.multimodal
    record["map"] = best.x.tolist()
    record["map_ls_residual"] = best.ls_residual
    record["hp_regions"] = summary.hp_regions
    return profile


def _run_mcmc_stage(config, result, profile):
    problem = result.problem
    chains = run_mcmc(problem, config.mcmc, profile)
    result.chains = chains
    record = result.manifest["mcmc"]
    record["mcmc_grid_resolution"] = config.mcmc_grid_resolution
    # the n_steps step texts, and the two flag texts, serve every chain
    steps = _texts(np.arange(config.mcmc.n_steps))
    flags = np.array(["0", "1"], dtype=object)
    for ch in chains:
        _write_csv(
            result,
            f"chains/chain_{ch.chain_index:02d}.csv",
            {
                "step": steps,
                **{f"x{i}": column for i, column in enumerate(ch.path.T)},
                "accepted": flags[ch.accepted.astype(np.intp)],
            },
        )
    if problem.dim == 1:
        kde_grid = np.linspace(problem.bounds[0][0], problem.bounds[0][1], 2001)
        grid_texts = _cell_texts(kde_grid)
        # Each chain's rows are formatted once, written to its kde file and,
        # prefixed with its index, to the overlay; one chain's text is held
        # at a time.
        with _open_artifact(result, "kde_overlay.csv") as overlay:
            overlay.write("chain,x,density\n")
            for ch in chains:
                density = kde_estimate(ch.samples[:, 0], kde_grid)
                rows = list(map(",".join, zip(grid_texts, _cell_texts(density))))
                with _open_artifact(result, f"chains/kde_{ch.chain_index:02d}.csv") as fh:
                    fh.write("x,density\n" + "\n".join(rows) + "\n")
                prefix = f"{ch.chain_index},"
                overlay.write(prefix + ("\n" + prefix).join(rows) + "\n")
        ref = grid_posterior(evaluate_profile_grid(problem, config.mcmc_grid_resolution))
        _write_csv(
            result, "grid_posterior.csv", {"x": ref.grid, "density": ref.density}
        )
        record["grid_modes"] = ref.mode_locations.tolist()
    record["acceptance_rates"] = [c.acceptance_rate for c in chains]
    record["independence_proposals"] = [c.independence_proposals for c in chains]
    record["independence_accepted"] = [c.independence_accepted for c in chains]
    record["density_evaluations"] = [c.density_evaluations for c in chains]


def _run_compare_stage(config, result):
    benchmarks, families, n_samples, mses = [], [], [], []
    val_seed = 2000
    record = result.manifest["compare"]
    for name in config.compare_benchmarks:
        hf = get_benchmark(name)
        trace = run_bo(hf, config.bo)
        data = trace.final_model.data
        points, truth = _validation_set(hf, config.bo.n_val, val_seed)

        scores = {}
        for fam in ("matern52", "rbf"):
            model = gp_fit(data, KernelSpec(fam, 1.0, 1.0), config.bo.noise_variance)
            pred = model.predict_mean(points)
            scores["gp-" + fam] = float(np.mean((truth - pred) ** 2))
        for fam in DETERMINISTIC_FAMILIES:
            surr = fit_deterministic(fam, data)
            pred = eval_deterministic(surr, points[:, 0])
            scores[fam] = float(np.mean((truth - pred) ** 2))
        benchmarks += [name] * len(scores)
        families += scores
        n_samples += [data.n] * len(scores)
        mses += scores.values()
        record[name] = scores
    _write_csv(
        result,
        "mse.csv",
        {"benchmark": benchmarks, "family": families, "n_samples": n_samples, "mse": mses},
    )
    record["validation_seed"] = val_seed
    record["gp_length_scale"] = 1.0
    record["gp_signal_variance"] = 1.0


def _run_bo_stage(config, hf, result) -> BoTrace:
    trace = run_bo(hf, config.bo)
    result.trace = trace
    result.manifest["bo_result"] = {
        "converged": trace.converged,
        "n_samples": trace.iterations[-1].n_samples,
        "final_mse": trace.iterations[-1].mse,
        "final_mse_normalized": trace.iterations[-1].mse_normalized,
        "validation_seed": trace.validation_seed,
        "validation_variance": trace.validation_variance,
    }
    _write_json(
        result,
        "trace.json",
        {
            "converged": trace.converged,
            "validation_seed": trace.validation_seed,
            "validation_variance": trace.validation_variance,
            "iterations": trace.iterations,
        },
    )
    _write_csv(
        result,
        "trace.csv",
        {
            "iteration": [r.index for r in trace.iterations],
            "n_samples": [r.n_samples for r in trace.iterations],
            "mse": [r.mse for r in trace.iterations],
        },
    )
    return trace


def run_experiment(config: ExperimentConfig, outdir: str) -> ExperimentResult:
    """Execute one experiment and write its artifacts under ``outdir``.

    The manifest records every configuration value and derived quantity so
    that any number in any output file can be recomputed from it.  The
    checks that need the benchmark run, and ``outdir`` is created, before
    any stage; each failure raises ConfigurationError and leaves no parent
    of ``outdir`` that this call made.  The manifest's ``files`` lists the
    artifacts this run completed before it, in the order they were
    completed.  An artifact that cannot be written raises
    ConfigurationError.  When a stage (compare, bo, inversion or mcmc)
    raises, the manifest is written with an ``error`` record (stage, type,
    message) before the error propagates.
    """
    hf = get_benchmark(config.benchmark)
    if config.inversion is not None:
        if config.inversion.x_true is not None:
            check_in_bounds(hf.bounds, config.inversion.x_true, what="inversion.x_true")
        if config.inversion.grid_resolution**hf.dim > MAX_GRID_CELLS:
            raise ConfigurationError(
                f"inversion.grid_resolution {config.inversion.grid_resolution} gives "
                f"more than {MAX_GRID_CELLS} grid cells in {hf.dim}D"
            )
    ell = config.bo.fixed_length_scale
    if ell is not None:
        for name in config.compare_benchmarks or (config.benchmark,):
            width = max(hi - lo for lo, hi in get_benchmark(name).bounds)
            ell_lo, ell_hi = (f * width for f in LENGTH_SCALE_FACTORS)
            if not ell_lo <= ell <= ell_hi:
                raise ConfigurationError(
                    f"bo.fixed_length_scale {ell:g} lies outside [{ell_lo:g}, {ell_hi:g}], "
                    f"{LENGTH_SCALE_FACTORS[0]:g} to {LENGTH_SCALE_FACTORS[1]:g} times "
                    f"the widest box width of {name!r}"
                )
    missing = []  # outdir and its ancestors not there yet, deepest first
    path = os.path.abspath(outdir)
    while not os.path.lexists(path):
        missing.append(path)
        path = os.path.dirname(path)
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        for path in missing:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise ConfigurationError(f"cannot create the output directory: {exc}") from exc

    manifest: dict = {
        "preset": config.name,
        "benchmark": config.benchmark,
        "description": config.description,
        "bo": dataclasses.asdict(config.bo),
        "inversion": dataclasses.asdict(config.inversion) if config.inversion else None,
        "mcmc": dataclasses.asdict(config.mcmc) if config.mcmc else None,
        "compare": {} if config.compare_benchmarks else None,
    }
    result = ExperimentResult(config=config, outdir=outdir, manifest=manifest)
    stage = "compare" if config.compare_benchmarks else "bo"
    try:
        if config.compare_benchmarks:
            _run_compare_stage(config, result)
        else:
            trace = _run_bo_stage(config, hf, result)
        if config.inversion is not None:
            stage = "inversion"
            profile = _run_inversion_stage(config, hf, trace.final_model, result)
        if config.mcmc is not None:
            stage = "mcmc"
            _run_mcmc_stage(config, result, profile)
    except GpInverseError as exc:
        manifest["error"] = {"stage": stage, "type": type(exc).__name__, "message": str(exc)}
        manifest["files"] = list(result.files)
        _write_json(result, "manifest.json", manifest)
        raise

    manifest["files"] = list(result.files)
    _write_json(result, "manifest.json", manifest)
    return result
