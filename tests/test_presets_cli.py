"""Preset registry, config round-trip, CLI behavior, and artifact layout."""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpinverse.cli
import gpinverse.inversion
import gpinverse.presets
import gpinverse.sampling
from gpinverse.bo import MAX_EVALUATIONS, BoConfig
from gpinverse.cli import main
from gpinverse.errors import (
    ConfigurationError,
    DegenerateDataError,
    InferenceError,
    NumericalError,
    ShapeError,
)
from gpinverse.inversion import (
    MAX_MAP_STARTS,
    InverseProblem,
    LaplaceResult,
    MapCluster,
    PosteriorSummary,
)
from gpinverse.presets import (
    FIXED_KEYS,
    PRESETS,
    ExperimentConfig,
    ExperimentResult,
    InversionSettings,
    config_from_text,
    config_to_text,
    get_preset,
    list_presets,
    run_experiment,
)
from gpinverse.sampling import MAX_CHAIN_VALUES, MAX_CHAINS, McmcConfig, kde_estimate

EXPECTED_PRESETS = {
    "forrester-inverse",
    "mixed1d-inverse",
    "levy1d-inverse",
    "griewank1d-inverse",
    "mixed2d-inverse",
    "rosenbrock2d-inverse",
    "compare-surrogates",
    "mixed1d-mcmc",
    "mixed1d-ei-demo",
}


def test_registry_has_exactly_the_expected_presets():
    assert set(PRESETS) == EXPECTED_PRESETS
    assert len(PRESETS) == 9


def test_every_preset_has_a_nonempty_description():
    for name, description in list_presets():
        assert name in EXPECTED_PRESETS
        assert len(description) > 40


def test_unknown_preset_rejected():
    with pytest.raises(ConfigurationError):
        get_preset("missing")


def test_config_round_trips_through_text_format():
    for name in EXPECTED_PRESETS:
        preset = get_preset(name)
        text = config_to_text(preset)
        parsed = config_from_text(text)
        assert parsed.benchmark == preset.benchmark
        assert parsed.bo == preset.bo
        assert parsed.inversion == preset.inversion
        assert parsed.mcmc == preset.mcmc
        assert parsed.compare_benchmarks == preset.compare_benchmarks


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_seeds = st.integers(0, 2**62)  # every seed must be >= 0


@st.composite
def _configs(draw):
    n_init = draw(st.integers(2, 50))
    fixed = draw(st.one_of(st.none(), st.tuples(_positive, _positive)))
    bo = BoConfig(
        n_init=n_init,
        max_evaluations=draw(st.integers(n_init, MAX_EVALUATIONS)),
        mse_threshold=draw(_positive),
        seed=draw(_seeds),
        fixed_length_scale=None if fixed is None else fixed[0],
        fixed_signal_variance=None if fixed is None else fixed[1],
    )
    x_true = draw(st.one_of(st.none(), st.lists(_finite, min_size=1, max_size=2)))
    inversion = InversionSettings(
        observed=draw(_finite) if x_true is None else None,
        x_true=None if x_true is None else tuple(x_true),
        obs_variance=draw(_positive),
        grid_resolution=draw(st.integers(64, 4096)),
        n_starts=draw(st.integers(1, 1000)),
        map_seed=draw(_seeds),
    )
    n_chains = draw(st.integers(1, 64))
    # mixed1d is 1-D, so each chain holds n_steps path values
    n_steps = draw(st.integers(2, min(10**6, MAX_CHAIN_VALUES // n_chains)))
    mcmc = McmcConfig(
        n_chains=n_chains,
        n_steps=n_steps,
        burn_in=draw(st.integers(0, n_steps - 2)),
        proposal_scale=draw(st.floats(0.0, 1.0, exclude_min=True)),
        seed=draw(_seeds),
    )
    mcmc = draw(st.sampled_from((None, mcmc)))
    return ExperimentConfig(
        name="drawn",
        benchmark="mixed1d",
        description="drawn config",
        bo=bo,
        inversion=inversion,
        mcmc=mcmc,
    )


@settings(max_examples=200, deadline=None)
@given(_configs())
def test_numeric_fields_round_trip_through_text_format(config):
    assert config_from_text(config_to_text(config)) == config


def test_malformed_config_lines_rejected():
    with pytest.raises(ConfigurationError):
        config_from_text("benchmark mixed1d\n")
    with pytest.raises(ConfigurationError):
        config_from_text("weird.section.key = 1\nbenchmark = mixed1d\n")
    with pytest.raises(ConfigurationError):
        config_from_text("bo.not_a_field = 3\nbenchmark = mixed1d\n")
    with pytest.raises(ConfigurationError):
        config_from_text("bo.n_init = 5\n")  # missing benchmark
    with pytest.raises(ConfigurationError, match="line 4: bo.seed .* line 2"):
        config_from_text("benchmark = mixed1d\nbo.seed = 1\n# note\nbo.seed = 2\n")
    with pytest.raises(ConfigurationError, match="line 2: benchmark .* line 1"):
        config_from_text("benchmark = mixed1d\nbenchmark = mixed2d\n")


def test_cli_list_presets_exits_zero(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for name in EXPECTED_PRESETS:
        assert name in out


def test_cli_malformed_config_exits_2_without_artifacts(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not a config\n")
    outdir = tmp_path / "out"
    code = main(["run", "--config", str(bad), "--out", str(outdir)])
    assert code == 2
    assert not outdir.exists()


def test_cli_missing_config_file_exits_2(tmp_path):
    code = main(["run", "--config", str(tmp_path / "none.cfg"), "--out", str(tmp_path / "o")])
    assert code == 2


def test_cli_config_directory_exits_2(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


def test_cli_non_utf8_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("benchmark = mixed1d\n# d\u00e9j\u00e0 vu\n".encode("latin-1"))
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


def _fail_if_bo_runs(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("BO ran before the output directory was checked")

    monkeypatch.setattr(gpinverse.presets, "run_bo", fail)


def test_cli_out_naming_a_file_exits_2_before_bo(tmp_path, monkeypatch, capsys):
    _fail_if_bo_runs(monkeypatch)
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["run", "--preset", "forrester-inverse", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


def test_cli_out_below_a_file_exits_2_before_bo(tmp_path, monkeypatch, capsys):
    _fail_if_bo_runs(monkeypatch)
    (tmp_path / "taken").write_text("")
    out = tmp_path / "taken" / "sub" / "dir"
    assert main(["run", "--preset", "forrester-inverse", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


def test_cli_out_with_an_overlong_name_exits_2_before_bo(tmp_path, monkeypatch, capsys):
    # a missing parent the run would have created is removed again
    _fail_if_bo_runs(monkeypatch)
    for out in (tmp_path / ("x" * 300), tmp_path / "o" / ("x" * 300)):
        assert main(["run", "--preset", "forrester-inverse", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert os.listdir(tmp_path) == []


def test_cli_unknown_preset_exits_2(tmp_path):
    assert main(["run", "--preset", "nope", "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "error, code, prefix",
    [
        (NumericalError, 3, "numerical failure: "),
        (DegenerateDataError, 3, "numerical failure: "),
        (InferenceError, 4, "inference failure: "),
    ],
)
def test_cli_maps_run_failures_to_exit_codes(
    tmp_path, monkeypatch, capsys, error, code, prefix
):
    def fail(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(gpinverse.cli, "run_experiment", fail)
    argv = ["run", "--preset", "forrester-inverse", "--out", str(tmp_path / "o")]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix + "boom")
    assert "Traceback" not in err


def test_cli_inference_failure_writes_the_manifest_with_an_error_record(tmp_path, capsys):
    cfg = tmp_path / "far.cfg"
    cfg.write_text(_RUN_INV + "inversion.observed = 1e200\n")
    outdir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(outdir)]) == 4
    assert capsys.readouterr().err.startswith("inference failure: ")
    assert sorted(os.listdir(outdir)) == ["manifest.json", "trace.csv", "trace.json"]
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["error"]["stage"] == "inversion"
    assert manifest["error"]["type"] == "InferenceError"
    assert "diverged" in manifest["error"]["message"]
    assert manifest["inversion"]["observed"] == 1e200
    assert manifest["bo_result"]["converged"]


def test_cli_profile_without_a_finite_log_nls_exits_4_writing_no_nan(tmp_path, capsys):
    # LS of about 1e6 over obs_variance 1e-303 overflows on every grid cell
    cfg = tmp_path / "tight.cfg"
    cfg.write_text(_SMALL_RUN + "inversion.observed = 1000\ninversion.obs_variance = 1e-303\n")
    outdir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(outdir)]) == 4
    assert capsys.readouterr().err.startswith("inference failure: log NLS is not finite")
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["error"]["stage"] == "inversion"

    def no_constant(name):
        raise AssertionError(f"{name} written to a JSON artifact")

    for name in os.listdir(outdir):
        if name.endswith(".json"):
            json.loads((outdir / name).read_text(), parse_constant=no_constant)
        else:
            assert not np.isnan(np.loadtxt(outdir / name, delimiter=",", skiprows=1)).any()


def test_failed_run_into_a_reused_out_lists_only_its_own_files(tmp_path):
    # the first run's posterior.json and profiles.csv stay on disk beside the
    # second run's error manifest, whose files tell them apart
    cfg = tmp_path / "run.cfg"
    outdir = tmp_path / "out"
    cfg.write_text(_RUN_OBS)
    assert main(["run", "--config", str(cfg), "--out", str(outdir)]) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["files"] == ["trace.json", "trace.csv", "posterior.json", "profiles.csv"]
    cfg.write_text(_SMALL_RUN + "inversion.observed = 1000\ninversion.obs_variance = 1e-303\n")
    assert main(["run", "--config", str(cfg), "--out", str(outdir)]) == 4
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["error"]["stage"] == "inversion"
    assert manifest["files"] == ["trace.json", "trace.csv"]
    assert (outdir / "posterior.json").exists() and (outdir / "profiles.csv").exists()


def test_mcmc_stage_failure_records_its_stage(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise InferenceError("no chain start")

    monkeypatch.setattr(gpinverse.presets, "run_mcmc", fail)
    config = config_from_text(
        _RUN_OBS + "inversion.grid_resolution = 64\n"
        "mcmc.n_chains = 1\nmcmc.n_steps = 10\nmcmc.burn_in = 0\n"
    )
    with pytest.raises(InferenceError):
        run_experiment(config, str(tmp_path))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["error"] == {
        "stage": "mcmc", "type": "InferenceError", "message": "no chain start"
    }
    assert manifest["inversion"]["hp_regions"]


def test_cli_invalid_config_values_exit_2(tmp_path):
    cfg = tmp_path / "bad_values.cfg"
    cfg.write_text("benchmark = mixed1d\nbo.n_init = 1\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_cli_unparsable_value_exits_2_naming_line_and_key(tmp_path, capsys):
    cfg = tmp_path / "unparsable.cfg"
    cfg.write_text("benchmark = mixed1d\nbo.n_init = abc\n")
    outdir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "bo.n_init" in err
    assert not outdir.exists()


def test_config_values_parse_as_their_annotated_types():
    parsed = config_from_text(
        "benchmark = rosenbrock2d\n"
        "bo.kernel_family = rbf\n"
        "bo.fixed_length_scale = 8\n"
        "bo.fixed_signal_variance = 1e10\n"
        "inversion.x_true = -1.5, -0.6\n"
        "mcmc.proposal_scale = 0.25\n"
    )
    assert parsed.mcmc.proposal_scale == 0.25
    assert parsed.bo.kernel_family == "rbf"
    assert parsed.bo.fixed_length_scale == 8.0
    assert parsed.inversion.x_true == (-1.5, -0.6)
    parsed = config_from_text(
        "benchmark = mixed1d\n"
        "inversion.x_true = 0.5\n"
        "mcmc.n_chains = 2\n"
    )
    assert parsed.mcmc.n_chains == 2
    with pytest.raises(ConfigurationError, match="line 2: inversion.x_true"):
        config_from_text("benchmark = mixed2d\ninversion.x_true = 1.0, abc\n")
    with pytest.raises(ConfigurationError, match="line 1"):
        config_from_text("no_such_key = 1\nbenchmark = mixed1d\n")


_SMALL_RUN = (
    "benchmark = forrester1d\n"
    "bo.n_init = 4\n"
    "bo.max_evaluations = 6\n"
    "bo.mse_threshold = 1000000.0\n"
)
_INV = "inversion.obs_variance = 0.72\n"
_OBS = _INV + "inversion.observed = -6.02\n"
_RUN_INV = _SMALL_RUN + _INV
_RUN_OBS = _SMALL_RUN + _OBS
_COMPARE = _SMALL_RUN + "compare_benchmarks = forrester1d\n"


# Each row names its id, so an edit to the shared run text renames no test.
@pytest.mark.parametrize(
    "text",
    [
        # the level and the MAP iteration limit are constants, not keys
        pytest.param(_RUN_OBS + "inversion.hp_threshold = 0.95\n", id="hp_threshold"),
        pytest.param(_RUN_INV + "inversion.observed = nan\n", id="observed-nan"),
        pytest.param(_RUN_INV + "inversion.observed = inf\n", id="observed-inf"),
        pytest.param(_RUN_INV + "inversion.x_true = nan\n", id="x_true-nan"),
        pytest.param(_RUN_INV + "inversion.x_true = 5.0\n", id="x_true-outside-box"),
        pytest.param(_RUN_OBS + "inversion.grid_resolution = 32\n", id="grid_resolution-32"),
        pytest.param(_RUN_OBS + "inversion.n_starts = 0\n", id="n_starts-0"),
        pytest.param(_RUN_OBS + "inversion.max_iter = 400\n", id="max_iter"),
        pytest.param(
            _SMALL_RUN + "inversion.obs_variance = inf\ninversion.observed = -6.02\n",
            id="obs_variance-inf",
        ),
        pytest.param(
            _SMALL_RUN + "inversion.obs_variance = 0\ninversion.observed = -6.02\n",
            id="obs_variance-0",
        ),
        # exactly one of observed and x_true
        pytest.param(_RUN_OBS + "inversion.x_true = 0.5\n", id="observed-and-x_true"),
        pytest.param(_RUN_INV, id="neither-observed-nor-x_true"),
        # 2048 cells per axis exceed the grid cap in 2-D
        pytest.param(_SMALL_RUN.replace("forrester1d", "mixed2d") + _OBS, id="grid-cap-2d"),
        pytest.param(_RUN_OBS + "bo.kappa = nan\n", id="kappa-nan"),
        pytest.param(_RUN_OBS + "bo.noise_variance = -1.0\n", id="noise_variance-negative"),
        pytest.param(_RUN_OBS + "bo.noise_variance = inf\n", id="noise_variance-inf"),
        pytest.param(
            _RUN_OBS + "bo.fixed_length_scale = inf\nbo.fixed_signal_variance = 1.0\n",
            id="fixed_length_scale-inf",
        ),
        pytest.param(
            _RUN_OBS + "bo.fixed_length_scale = 1.0\nbo.fixed_signal_variance = nan\n",
            id="fixed_signal_variance-nan",
        ),
        # outside [0.01, 10] times the box width, where the kernel overflows
        pytest.param(
            _RUN_OBS + "bo.fixed_length_scale = 1e-300\nbo.fixed_signal_variance = 1.0\n",
            id="fixed_length_scale-1e-300",
        ),
        pytest.param(
            _RUN_OBS + "bo.fixed_length_scale = 1e300\nbo.fixed_signal_variance = 1.0\n",
            id="fixed_length_scale-1e300",
        ),
        # inside forrester1d's range, below mixed1d's [0.2, 200]
        pytest.param(
            _SMALL_RUN + "compare_benchmarks = mixed1d\n"
            + "bo.fixed_length_scale = 0.1\nbo.fixed_signal_variance = 1.0\n",
            id="fixed_length_scale-below-a-compared-range",
        ),
        pytest.param(_RUN_OBS + "bo.acquisition = foo\n", id="acquisition-foo"),
        pytest.param(_RUN_OBS + "bo.kernel_family = foo\n", id="kernel_family-foo"),
        pytest.param(_RUN_OBS + "bo.restarts = 0\n", id="restarts-0"),
        pytest.param(_RUN_OBS + "bo.seed = -1\n", id="bo.seed-negative"),
        pytest.param(_RUN_OBS + "inversion.map_seed = -1\n", id="map_seed-negative"),
        pytest.param(_RUN_OBS + "bo.seed = 1\nbo.seed = 2\n", id="bo.seed-twice"),
        pytest.param(_SMALL_RUN + "mcmc.seed = 1\n", id="mcmc-without-inversion"),
        pytest.param(_RUN_OBS + "mcmc.seed = -1\n", id="mcmc.seed-negative"),
        # one sample per chain is too few for its kernel density estimate
        pytest.param(
            _RUN_OBS + "mcmc.n_steps = 5\nmcmc.burn_in = 4\n", id="one-sample-per-chain"
        ),
        # retired keys are accepted only at their constants (see FIXED_KEYS)
        pytest.param(
            _RUN_OBS + "mcmc.n_steps = 100\nmcmc.burn_in = 10\nmcmc_grid_resolution = 10\n",
            id="mcmc_grid_resolution-10",
        ),
        pytest.param(
            _RUN_OBS
            + "mcmc.n_steps = 100\nmcmc.burn_in = 10\nmcmc_grid_resolution = 262145\n",
            id="mcmc_grid_resolution-262145",
        ),
        pytest.param(_RUN_OBS + "mcmc_grid_resolution = 300\n", id="mcmc_grid_resolution-300"),
        pytest.param(
            _SMALL_RUN + "compare_benchmarks = mixed1d, mixed2d\n", id="compare-mixed-dims"
        ),
        pytest.param(
            _SMALL_RUN + "compare_benchmarks = mixed1d, nosuch\n", id="compare-unknown"
        ),
        pytest.param(_COMPARE + _OBS, id="compare-with-inversion"),
        pytest.param(_COMPARE + "mcmc.seed = 1\n", id="compare-with-mcmc"),
        pytest.param(_RUN_OBS + "bo.n_acq = 2\n", id="n_acq-2"),
        pytest.param(_RUN_OBS + "bo.restarts = 4\n", id="restarts-4"),
        # a fixed key's value must parse as its constant's type
        pytest.param(_RUN_OBS + "bo.restarts = 3.0\n", id="restarts-3.0"),
        pytest.param(
            _RUN_OBS + "mcmc.n_steps = 100\nmcmc.burn_in = 10\nmcmc_grid_resolution = 2048\n",
            id="mcmc_grid_resolution-2048",
        ),
        # a name is one file name under results/ or $GPINVERSE_OUT
        pytest.param(_RUN_OBS + "name =\n", id="name-empty"),
        pytest.param(_RUN_OBS + "name = .\n", id="name-dot"),
        pytest.param(_RUN_OBS + "name = ..\n", id="name-dotdot"),
        pytest.param(_RUN_OBS + "name = ../escaped\n", id="name-parent-path"),
        pytest.param(_RUN_OBS + "name = runs/a\n", id="name-subdirectory"),
        pytest.param(_RUN_OBS + "name = /tmp/absolute\n", id="name-absolute"),
        pytest.param(_RUN_OBS + "name = a\0b\n", id="name-nul"),
        # each benchmark is compared once
        pytest.param(
            _SMALL_RUN + "compare_benchmarks = forrester1d, forrester1d\n",
            id="compare-twice",
        ),
    ],
)
def test_cli_bad_setting_exits_2_before_surrogate_stage(tmp_path, capsys, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    outdir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(outdir)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize(
    "text, stage", [(_RUN_OBS, "bo"), (_COMPARE, "compare")], ids=["bo", "compare"]
)
def test_cli_surrogate_stage_failure_writes_the_manifest_with_an_error_record(
    tmp_path, monkeypatch, capsys, text, stage
):
    def fail(*args, **kwargs):
        raise NumericalError("no fit")

    monkeypatch.setattr(gpinverse.presets, "run_bo", fail)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    outdir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(outdir)]) == 3
    assert capsys.readouterr().err == "numerical failure: no fit\n"
    assert os.listdir(outdir) == ["manifest.json"]
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["error"] == {"stage": stage, "type": "NumericalError", "message": "no fit"}


@pytest.mark.parametrize(
    "settings, message",
    [
        # the Matern kernel's s2 (1 + t + t^2 / 3) overflows before exp(-t)
        # scales it down, so no jitter rung factors the kernel matrix
        (
            "bo.fixed_length_scale = 0.5\nbo.fixed_signal_variance = 1e308\n",
            "(the kernel matrix is not finite)",
        ),
        # the fit succeeds, but the kernel gradient overflows in the ascent
        (
            "bo.fixed_length_scale = 0.05\nbo.fixed_signal_variance = 1e305\n",
            "acquisition ascent is not finite",
        ),
    ],
    ids=["kernel-overflow", "kernel-gradient-overflow"],
)
def test_cli_surrogate_overflow_exits_3_without_lapack_text(tmp_path, capfd, settings, message):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(_RUN_OBS.replace("bo.mse_threshold = 1000000.0\n", "") + settings)
    # the kernel's own overflow warnings are not what this test checks
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    out, err = capfd.readouterr()
    assert err.startswith("numerical failure: ") and message in err
    assert "DLASCL" not in out + err


_MIXED2D_MCMC = (
    _SMALL_RUN.replace("forrester1d", "mixed2d")
    + _INV
    + "inversion.x_true = 0.5, 1.5\n"
    + "inversion.grid_resolution = 64\n"
    + "mcmc.n_chains = 10\nmcmc.burn_in = 0\n"
)


@pytest.mark.parametrize(
    "text, key, at_cap",
    [
        # this cap keeps fits independent of the BLAS thread count
        ("benchmark = forrester1d\n" + _OBS, "bo.max_evaluations", MAX_EVALUATIONS),
        (_RUN_OBS, "inversion.n_starts", MAX_MAP_STARTS),
        # 10 chains of 2-D states fill the cap at n_steps = cap / 20
        (_MIXED2D_MCMC, "mcmc.n_steps", MAX_CHAIN_VALUES // 20),
        (_RUN_OBS + "mcmc.n_steps = 2\nmcmc.burn_in = 0\n", "mcmc.n_chains", MAX_CHAINS),
    ],
    ids=["bo.max_evaluations", "inversion.n_starts", "mcmc.n_steps", "mcmc.n_chains"],
)
def test_cli_count_over_its_memory_cap_exits_2_before_bo(
    tmp_path, monkeypatch, capsys, text, key, at_cap
):
    # the caps are checked on the settings alone, so nothing is allocated
    config_from_text(text + f"{key} = {at_cap}\n")
    _fail_if_bo_runs(monkeypatch)
    cfg = tmp_path / "over.cfg"
    cfg.write_text(text + f"{key} = {at_cap + 1}\n")
    outdir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and key.split(".")[1] in err
    assert not outdir.exists()


@pytest.mark.parametrize("key", sorted(FIXED_KEYS))
def test_cli_retired_key_parses_only_at_its_constant(tmp_path, monkeypatch, capsys, key):
    # a retired key at its constant's value changes nothing; at any other
    # value the run stops before the surrogate stage, naming line and key
    text = _RUN_OBS + "mcmc.n_steps = 100\nmcmc.burn_in = 10\n"
    value = FIXED_KEYS[key]
    assert config_from_text(text + f"{key} = {value}\n") == config_from_text(text)
    _fail_if_bo_runs(monkeypatch)
    cfg = tmp_path / "retired.cfg"
    cfg.write_text(text + f"{key} = {value + 1}\n")
    outdir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(outdir)]) == 2
    lineno = text.count("\n") + 1
    err = capsys.readouterr().err
    assert err == (
        f"configuration error: line {lineno}: {key} = {value + 1}: "
        f"the key is fixed at {value}\n"
    )
    assert not outdir.exists()


@pytest.mark.parametrize(
    "line",
    ["bo.kappa = 200", "bo.noise_variance = 1e-6", "bo.noise_variance = 0.000001"],
)
def test_retired_key_parses_in_any_spelling_of_its_constant(line):
    # the value is compared as the constant's type, not as its text (200.0,
    # 1e-06), which test_cli_retired_key_parses_only_at_its_constant writes
    assert config_from_text(_RUN_OBS + line + "\n") == config_from_text(_RUN_OBS)


def test_cli_negative_seed_override_exits_2(tmp_path, capsys):
    outdir = tmp_path / "out"
    argv = ["run", "--preset", "forrester-inverse", "--seed", "-1", "--out", str(outdir)]
    assert main(argv) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not outdir.exists()


def test_cli_seed_option_replaces_bo_seed(tmp_path):
    # --seed 7 over bo.seed = 3 runs exactly what bo.seed = 7 runs
    for seed in (3, 7):
        (tmp_path / f"seed{seed}.cfg").write_text(_SMALL_RUN + f"bo.seed = {seed}\n")
    cli, cfg = tmp_path / "cli", tmp_path / "cfg"
    argv = ["run", "--config", str(tmp_path / "seed3.cfg"), "--seed", "7"]
    assert main(argv + ["--out", str(cli)]) == 0
    assert main(["run", "--config", str(tmp_path / "seed7.cfg"), "--out", str(cfg)]) == 0
    assert json.loads((cli / "manifest.json").read_text())["bo"]["seed"] == 7
    for name in ("manifest.json", "trace.json"):
        assert (cli / name).read_bytes() == (cfg / name).read_bytes()


def test_cli_compare_budget_is_bo_max_evaluations(tmp_path):
    cfg = tmp_path / "compare.cfg"
    cfg.write_text(
        "benchmark = forrester1d\n"
        "bo.n_init = 5\n"
        "bo.max_evaluations = 8\n"
        "bo.mse_threshold = 1e-12\n"
        "compare_benchmarks = forrester1d\n"
    )
    outdir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(outdir)]) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["bo"]["max_evaluations"] == 8
    rows = (outdir / "mse.csv").read_text().splitlines()[1:]
    assert rows and {row.split(",")[2] for row in rows} == {"8"}


def test_cli_compare_surrogates_subcommand_is_rejected(tmp_path, capsys):
    # a comparison runs through `run --config` with compare_benchmarks set
    outdir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["compare-surrogates", "--benchmark", "forrester1d", "--out", str(outdir)])
    assert exc.value.code == 2
    assert "invalid choice: 'compare-surrogates'" in capsys.readouterr().err
    assert not outdir.exists()


def _capture_results(monkeypatch) -> list:
    """Make the CLI hand each ExperimentResult it gets to the returned list."""
    results = []

    def capturing(*args, **kwargs):
        results.append(run_experiment(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(gpinverse.cli, "run_experiment", capturing)
    return results


def _assert_profiles_recover_nls(outdir, result, coords, resolution):
    # NLS is exp(-ls / (2 obs_variance)) for a run, which has no prior, and
    # the README's recipe gives the profile's nls_normalized from it
    lines = (outdir / "profiles.csv").read_text().splitlines()
    assert lines[0] == ",".join([*coords, "ls"])
    table = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    points, ls = table[:, : len(coords)], table[:, len(coords)]
    obs_variance = json.loads((outdir / "manifest.json").read_text())["inversion"]["obs_variance"]
    log_nls = -ls / (2.0 * obs_variance)
    expected = np.exp(gpinverse.inversion.log_posterior(result.problem, points)[1])
    assert np.exp(log_nls).tobytes() == expected.tobytes()
    profile = gpinverse.inversion.evaluate_profile_grid(result.problem, resolution)
    assert np.exp(log_nls - log_nls.max()).tobytes() == profile[3].tobytes()


def test_cli_2d_run_writes_profiles_from_which_nls_is_recovered(tmp_path, monkeypatch):
    results = _capture_results(monkeypatch)
    cfg = tmp_path / "run2d.cfg"
    cfg.write_text(
        _SMALL_RUN.replace("forrester1d", "mixed2d")
        + _INV
        + "inversion.x_true = 0.5, 1.5\n"
        + "inversion.n_starts = 4\n"
        + "inversion.grid_resolution = 64\n"
    )
    outdir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(outdir)]) == 0
    _assert_profiles_recover_nls(outdir, results[0], ("x", "y"), 64)
    # the coordinate cells are repr of the linspace axes, in C order
    (xlo, xhi), (ylo, yhi) = results[0].problem.bounds
    xs, ys = np.linspace(xlo, xhi, 64), np.linspace(ylo, yhi, 64)
    lines = (outdir / "profiles.csv").read_text().splitlines()[1:]
    cells = [line.split(",")[:2] for line in lines]
    assert cells == [[repr(x), repr(y)] for x in xs.tolist() for y in ys.tolist()]


def test_cli_mcmc_run_writes_integer_chain_steps(tmp_path, monkeypatch):
    results = _capture_results(monkeypatch)
    cfg = tmp_path / "mcmc.cfg"
    cfg.write_text(
        _SMALL_RUN
        + _OBS
        + "inversion.n_starts = 4\n"
        + "inversion.grid_resolution = 256\n"
        + "mcmc.n_chains = 2\nmcmc.n_steps = 50\nmcmc.burn_in = 10\n"
    )
    outdir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(outdir)]) == 0
    lines = (outdir / "chains" / "chain_01.csv").read_text().splitlines()
    assert lines[0] == "step,x0,accepted"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == [str(t) for t in range(50)]
    assert {r[2] for r in rows} <= {"0", "1"}
    manifest = json.loads((outdir / "manifest.json").read_text())
    made = manifest["mcmc"]["independence_proposals"]
    taken = manifest["mcmc"]["independence_accepted"]
    assert len(made) == len(taken) == 2
    assert all(0 <= a <= m <= 50 for a, m in zip(taken, made))
    evaluations = manifest["mcmc"]["density_evaluations"]
    assert evaluations == [c.density_evaluations for c in results[0].chains]
    assert all(e >= 1 + 50 for e in evaluations)
    overlay = (outdir / "kde_overlay.csv").read_text().splitlines()
    assert len(overlay) == 1 + 2 * 2001
    assert overlay[1].startswith("0,") and overlay[-1].startswith("1,")
    _assert_profiles_recover_nls(outdir, results[0], ("x",), 256)
    # the kde files and the overlay match the row-by-row rule on densities
    # recomputed from the chains
    lo, hi = results[0].problem.bounds[0]
    grid = np.linspace(lo, hi, 2001)
    overlay_rows = []
    for ch in results[0].chains:
        density = kde_estimate(ch.samples[:, 0], grid)
        name = f"kde_{ch.chain_index:02d}.csv"
        _reference_csv(tmp_path / name, ["x", "density"], zip(grid, density))
        assert (outdir / "chains" / name).read_bytes() == (tmp_path / name).read_bytes()
        overlay_rows += zip([str(ch.chain_index)] * grid.size, grid, density)
    _reference_csv(tmp_path / "overlay.csv", ["chain", "x", "density"], overlay_rows)
    assert (outdir / "kde_overlay.csv").read_bytes() == (tmp_path / "overlay.csv").read_bytes()


def test_cli_unwritable_artifact_exits_2_with_an_error_record(tmp_path, capsys):
    cfg = tmp_path / "mcmc.cfg"
    cfg.write_text(
        _RUN_OBS
        + "inversion.n_starts = 4\n"
        + "inversion.grid_resolution = 64\n"
        + "mcmc.n_chains = 2\nmcmc.n_steps = 50\nmcmc.burn_in = 10\n"
    )
    outdir = tmp_path / "out"
    outdir.mkdir()
    (outdir / "chains").write_text("a file where the chains directory goes\n")
    assert main(["run", "--config", str(cfg), "--out", str(outdir)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["error"]["stage"] == "mcmc"
    assert manifest["error"]["type"] == "ConfigurationError"
    assert "chains/chain_00.csv" in manifest["error"]["message"]
    assert manifest["files"] == ["trace.json", "trace.csv", "posterior.json", "profiles.csv"]


def _reference_csv(path, header, rows):
    # The row-by-row rule the block writer replaced: numbers as
    # repr(float(v)), strings as they are.
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(c if isinstance(c, str) else repr(float(c)) for c in row) + "\n")


def test_block_csv_writer_matches_the_row_by_row_rule(tmp_path):
    special = [0.1, -0.0, 1e-300, 5e-324, 1e16, float("nan"), float("inf")]
    n = 2500  # the 1,024-row blocks end inside the file
    floats = np.resize(np.array(special + [1.0 / 3.0]), n) * np.repeat([1.0, -1.0], n // 2)
    ints = np.arange(n) - 7
    labels = [f"chain{i % 3}" for i in range(n)]
    result = ExperimentResult(config=None, outdir=str(tmp_path / "out"), manifest={})
    gpinverse.presets._write_csv(
        result, "sub/table.csv", {"v": floats, "i": ints, "s": labels}
    )
    assert result.files == ["sub/table.csv"]
    reference = tmp_path / "reference.csv"
    _reference_csv(
        reference,
        ["v", "i", "s"],
        zip(floats.tolist(), (str(i) for i in ints.tolist()), labels),
    )
    written = (tmp_path / "out" / "sub" / "table.csv").read_bytes()
    assert written == reference.read_bytes()
    assert written.count(b"\n") == n + 1


def _write_table(tmp_path, columns):
    result = ExperimentResult(config=None, outdir=str(tmp_path / "out"), manifest={})
    gpinverse.presets._write_csv(result, "table.csv", columns)
    return (tmp_path / "out" / "table.csv").read_bytes()


def test_block_csv_writer_formats_distinct_bit_patterns_like_the_row_by_row_rule(tmp_path):
    n = 2500  # the 1,024-row blocks end inside the file
    payload_nans = np.array(
        [0x7FF8000000000001, 0xFFF80000DEADBEEF - (1 << 64)], dtype=np.int64
    ).view(np.float64)
    signed_zeros = np.resize([0.0, -0.0, 0.0, 2.5, -0.0], n)
    mixed = np.resize(np.concatenate([payload_nans, [0.1, -0.0, 0.0, 0.1]]), n)
    single = np.float32([0.1, -0.0, 1e-40, 3.4e38, np.nan, -np.inf, 1.0 / 3.0])
    columns = {
        "zeros": signed_zeros,
        "nans": mixed,
        "f32": np.resize(single, n),
        "same": np.full(n, 0.1),  # one value on both sides of each block boundary
    }
    assert mixed.view(np.int64)[0] == 0x7FF8000000000001 and np.signbit(signed_zeros[1])
    reference = tmp_path / "reference.csv"
    _reference_csv(reference, list(columns), zip(*(c.tolist() for c in columns.values())))
    written = _write_table(tmp_path, columns)
    assert written == reference.read_bytes()
    assert b"-0.0" in written and b"nan" in written
    assert repr(float(np.float32(0.1))).encode() in written  # widened, not 0.1
    assert written.count(b"\n") == n + 1


def test_block_csv_writer_writes_text_columns_as_they_are(tmp_path):
    n = 2500  # the 1,024-row blocks end inside the file
    axis = np.linspace(-1.0, 2.0, 7)
    index = np.arange(n) % axis.size
    floats = np.resize([0.1, -0.0, float("nan"), 1.0 / 3.0], n)
    columns = {
        "t": gpinverse.presets._texts(axis)[index],  # gathered texts
        "v": floats,
        "i": np.arange(n) - 7,
        "s": [f"chain{i % 3}" for i in range(n)],
        "u": np.array([f"<{i}>" for i in range(n)], dtype=object),  # not numbers
    }
    reference = tmp_path / "reference.csv"
    _reference_csv(
        reference,
        list(columns),
        zip(
            axis[index].tolist(),
            floats.tolist(),
            (str(i) for i in columns["i"].tolist()),
            columns["s"],
            columns["u"].tolist(),
        ),
    )
    written = _write_table(tmp_path, columns)
    assert written == reference.read_bytes()
    assert written.count(b"\n") == n + 1


def test_block_csv_writer_writes_only_the_header_of_a_zero_row_table(tmp_path):
    columns = {
        "x": np.zeros(0),
        "n": np.zeros(0, dtype=int),
        "s": [],
        "t": np.zeros(0, dtype=object),
    }
    assert _write_table(tmp_path, columns) == b"x,n,s,t\n"


def test_block_csv_writer_rejects_columns_of_unequal_length(tmp_path):
    result = ExperimentResult(config=None, outdir=str(tmp_path / "out"), manifest={})
    columns = {
        "x": np.zeros(3),
        "y": np.zeros(4),
        "step": np.arange(3),
        "t": np.array(["a", "b"], dtype=object),
    }
    with pytest.raises(ShapeError, match=r"x=3, y=4, step=3, t=2"):
        gpinverse.presets._write_csv(result, "table.csv", columns)
    assert result.files == []
    assert not (tmp_path / "out").exists()


def test_posterior_json_is_the_summary_as_nested_lists(tmp_path):
    cluster = MapCluster(
        x=np.array([0.25, -1.5]),
        ls_residual=1e-3,
        objective=0.5,
        n_members=3,
        grad_norm=2e-7,
        on_bound=False,
    )
    laplace = LaplaceResult(
        cov=np.array([[0.04, 0.01], [0.01, 0.09]]),
        intervals=((0.1, 0.4), (-2.0, -1.0)),
        level=0.95,
        degenerate=False,
        message="ok",
    )
    summary = PosteriorSummary(
        map_clusters=[cluster],
        multimodal=False,
        laplace=laplace,
        hp_regions=[((0.0, 0.5), (-2.0, -1.0))],
        metadata={"failed_starts": 0, "hp_threshold": 0.95},
    )
    expected = {
        "map_clusters": [
            {
                "x": [0.25, -1.5],
                "ls_residual": 1e-3,
                "objective": 0.5,
                "n_members": 3,
                "grad_norm": 2e-7,
                "on_bound": False,
            }
        ],
        "multimodal": False,
        "laplace": {
            "degenerate": False,
            "message": "ok",
            "level": 0.95,
            "cov": [[0.04, 0.01], [0.01, 0.09]],
            "intervals": [[0.1, 0.4], [-2.0, -1.0]],
        },
        "hp_regions": [[[0.0, 0.5], [-2.0, -1.0]]],
        "metadata": {"failed_starts": 0, "hp_threshold": 0.95},
    }
    result = ExperimentResult(config=None, outdir=str(tmp_path), manifest={})
    gpinverse.presets._write_json(result, "posterior.json", summary)
    assert json.loads((tmp_path / "posterior.json").read_text()) == expected

    summary.laplace = None
    gpinverse.presets._write_json(result, "posterior.json", summary)
    loaded = json.loads((tmp_path / "posterior.json").read_text())
    assert loaded == {**expected, "laplace": None}


def test_cli_runs_small_config_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(
        "name = tiny\n"
        "benchmark = forrester1d\n"
        "description = tiny smoke experiment\n"
        "bo.n_init = 4\n"
        "bo.max_evaluations = 6\n"
        "bo.mse_threshold = 1000000.0\n"
        "bo.seed = 0\n"
        "inversion.observed = -6.02\n"
        "inversion.obs_variance = 0.72\n"
        "inversion.n_starts = 4\n"
        "inversion.grid_resolution = 256\n"
    )
    outdir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(outdir)]) == 0
    for artifact in ("manifest.json", "trace.json", "trace.csv", "posterior.json", "profiles.csv"):
        assert (outdir / artifact).exists()
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["benchmark"] == "forrester1d"
    assert manifest["inversion"]["observed"] == -6.02


def test_inversion_stage_evaluates_the_profile_grid_once(tmp_path, monkeypatch):
    # the level sets and profiles.csv share one grid pass
    calls = []
    original = gpinverse.inversion.evaluate_profile_grid

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(gpinverse.inversion, "evaluate_profile_grid", counting)
    monkeypatch.setattr(gpinverse.presets, "evaluate_profile_grid", counting)
    config = config_from_text(_SMALL_RUN + _OBS + "inversion.grid_resolution = 256\n")
    result = run_experiment(config, str(tmp_path / "out"))
    assert len(calls) == 1
    assert result.summary.hp_regions
    posterior = json.loads((tmp_path / "out" / "posterior.json").read_text())
    assert posterior["metadata"] == {"failed_starts": 0, "hp_threshold": 0.95}
    assert "credible_intervals" not in posterior


def test_mcmc_run_evaluates_two_profile_grids_through_presets(tmp_path, monkeypatch):
    # the level sets and the chains share the inversion grid, and the
    # reference posterior reads a second one of 512 cells
    # (presets.MCMC_GRID_RESOLUTION); the sampling module evaluates none of
    # its own
    calls = []
    original = gpinverse.inversion.evaluate_profile_grid

    def counting(module):
        def wrapped(problem, grid_resolution):
            calls.append((module, grid_resolution))
            return original(problem, grid_resolution)
        return wrapped

    monkeypatch.setattr(gpinverse.inversion, "evaluate_profile_grid", counting("inversion"))
    monkeypatch.setattr(gpinverse.presets, "evaluate_profile_grid", counting("presets"))
    config = config_from_text(
        _RUN_OBS
        + "inversion.grid_resolution = 256\n"
        + "mcmc.n_chains = 2\nmcmc.n_steps = 50\nmcmc.burn_in = 10\n"
    )
    run_experiment(config, str(tmp_path / "out"))
    assert calls == [("presets", 256), ("presets", 512)]


def test_cli_output_env_var_respected(tmp_path, monkeypatch):
    monkeypatch.setenv("GPINVERSE_OUT", str(tmp_path / "envroot"))
    cfg = tmp_path / "small.cfg"
    cfg.write_text(
        "name = tiny-env\n"
        "benchmark = forrester1d\n"
        "bo.n_init = 4\n"
        "bo.max_evaluations = 4\n"
        "bo.mse_threshold = 1000000.0\n"
    )
    assert main(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "envroot" / "tiny-env" / "manifest.json").exists()


def _script(folder, name):
    # perfbench/ and tools/ are scripts run from the checkout, not packages
    path = os.path.join(os.path.dirname(__file__), os.pardir, folder, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"{folder}_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "text",
    [
        "benchmark = forrester1d\n"
        "bo.n_init = 4\n"
        "bo.max_evaluations = 10\n"
        "inversion.observed = -6.02\n"
        "inversion.obs_variance = 0.72\n"
        "inversion.grid_resolution = 256\n"
        "inversion.n_starts = 4\n",
        # a fit at bo.MAX_EVALUATIONS training points, the largest that parses
        "benchmark = mixed2d\n"
        "bo.n_init = 98\n"
        f"bo.max_evaluations = {MAX_EVALUATIONS}\n"
        "bo.mse_threshold = 1e-12\n"
        "inversion.x_true = 1.248, 1.812\n"
        "inversion.obs_variance = 0.1444\n"
        "inversion.grid_resolution = 96\n"
        "inversion.n_starts = 4\n",
        # the joint MAP search scores all 256 starts in each batched call,
        # whose bits differ from those of one-row calls
        "benchmark = mixed2d\n"
        "bo.n_init = 40\n"
        "bo.max_evaluations = 44\n"
        "bo.mse_threshold = 1e-12\n"
        "inversion.x_true = 1.248, 1.812\n"
        "inversion.obs_variance = 0.1444\n"
        "inversion.grid_resolution = 96\n"
        "inversion.n_starts = 256\n",
    ],
    ids=["forrester1d", "mixed2d-at-the-cap", "mixed2d-256-map-starts"],
)
def test_cli_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path, text):
    # A fitted run's artifacts must have the same bytes whatever the BLAS
    # thread count of the host.  OpenBLAS reads it once, at import, so each
    # count runs in its own process.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    sha256 = _script("tools", "preset_digests")._sha256
    src = os.path.dirname(os.path.dirname(gpinverse.__file__))
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        )
        argv = [sys.executable, "-m", "gpinverse.cli", "run", "--config", str(cfg), "--out", str(out)]
        subprocess.run(argv, env=env, check=True, capture_output=True)
        digests.append({
            os.path.relpath(os.path.join(root, f), out): sha256(os.path.join(root, f))
            for root, _, files in os.walk(out)
            for f in files
        })
    assert "profiles.csv" in digests[0]
    assert digests[0] == digests[1]


def test_every_perfbench_workload_config_parses():
    # every config key the benchmark writes must keep parsing; a retired key
    # among them must hold its constant, so stripping it changes nothing
    workloads = _script("perfbench", "workloads")
    for name, spec in workloads.WORKLOADS.items():
        for bo_seed in spec["panel"]:
            text = workloads.config_text(name, 0, bo_seed)
            config = config_from_text(text)
            assert config.benchmark == spec["keys"]["benchmark"]
            assert config.bo.seed == bo_seed
            kept = [
                line
                for line in text.splitlines(keepends=True)
                if line.partition("=")[0].strip() not in FIXED_KEYS
            ]
            assert config_from_text("".join(kept)) == config


def test_perfbench_tracing_hooks_wrap_and_restore_the_package(tmp_path):
    # every name the benchmark's --trace mode wraps must exist, take its
    # arguments in the order the work functions read, and come back unwrapped
    tracing = _script("perfbench", "tracing")
    targets = [
        (getattr(gpinverse, module), attr)
        for modules, attr, _, _ in tracing.WRAPPED
        for module in modules
    ]
    originals = [getattr(mod, attr) for mod, attr in targets]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for mod, attr in targets:
            assert hasattr(getattr(mod, attr), "__wrapped__"), f"{mod.__name__}.{attr}"
        config = config_from_text(
            _SMALL_RUN
            + _OBS
            + "inversion.n_starts = 2\ninversion.grid_resolution = 64\n"
            + "mcmc.n_chains = 1\nmcmc.n_steps = 20\nmcmc.burn_in = 5\n"
        )
        gpinverse.cli.run_experiment(config, str(tmp_path / "out"))
    finally:
        tracer.uninstall()
    assert [getattr(mod, attr) for mod, attr in targets] == originals
    recorded = {tracer.names[i] for i in tracer.arrays()["name_id"]}
    assert {
        "presets.run_experiment",
        "inversion.evaluate_profile_grid",
        "inversion.high_probability_region",
        "sampling.kde_estimate",
        "sampling.grid_posterior",
    } <= recorded


def test_tools_run_on_a_stub_problem(tmp_path, capsys, monkeypatch, function_surrogate):
    sweep = _script("tools", "criterion8_sweep")
    problem = InverseProblem(
        surrogate=function_surrogate(lambda x: x[0]),
        observed=0.3,
        obs_variance=0.25,
        bounds=((-10.0, 10.0),),
    )
    # nearly all reference mass lies in the second interval
    interval = sweep.dominant_interval(problem, [(-9.0, -8.0), (-0.5, 1.0)])
    assert interval == (-0.5, 1.0)
    rng = np.random.default_rng(0)
    chains = [
        SimpleNamespace(samples=rng.normal(centre, 0.2, (500, 1)))
        for centre in (0.3, -8.5, 0.6)
    ]
    assert sweep.kde_peak_hits(chains, problem.bounds, interval) == 2

    # density_calls counts the batched calls through sampling.log_posterior,
    # here wrapped once more to count them independently, and restores it
    calls = []

    def counting(*args):
        calls.append(len(args[1]))
        return gpinverse.inversion.log_posterior(*args)

    monkeypatch.setattr(gpinverse.sampling, "log_posterior", counting)
    mcmc = McmcConfig(n_chains=3, n_steps=300, burn_in=30, seed=5)
    profile = gpinverse.inversion.evaluate_profile_grid(problem, 64)
    row = sweep.sweep_row(problem, mcmc, profile, interval)
    columns = dict(zip(sweep.HEADER.split(), row.split()))
    assert columns["seed"] == "5"
    assert int(columns["density_calls"]) == len(calls) >= 1 + 3  # the starts and 3 blocks
    assert int(columns["density_evals"]) == sum(calls)
    assert gpinverse.sampling.log_posterior is counting

    digests = _script("tools", "preset_digests")
    assert digests.main([str(tmp_path / "out"), "no-such-preset"]) == 2
    assert "unknown preset(s): no-such-preset" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_fit_replay_refits_a_recorded_run_bit_for_bit(tmp_path):
    # one refit per BO iteration, on the same datasets as the run
    text = _SMALL_RUN.replace("1000000.0", "1e-12")
    run_experiment(config_from_text(text), str(tmp_path))
    with open(tmp_path / "trace.json", encoding="utf-8") as fh:
        iterations = json.load(fh)["iterations"]
    assert [r["n_samples"] for r in iterations] == [4, 5, 6]
    fit_replay = _script("tools", "fit_replay")
    expected = [(r["index"], r["log_marginal_likelihood"]) for r in iterations]
    assert fit_replay.replay(str(tmp_path)) == expected
    # a manifest written while bo.n_acq, bo.restarts, bo.n_val,
    # bo.noise_variance and bo.kappa were settings records them: at their
    # constants the replay is the same, at other values it stops
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["bo"].update(n_acq=1, restarts=3, n_val=1000, noise_variance=1e-6, kappa=200.0)
    path.write_text(json.dumps(manifest))
    assert fit_replay.replay(str(tmp_path)) == expected
    for key, value, constant in (("restarts", 4, 3), ("kappa", 100.0, 200.0)):
        path.write_text(json.dumps({**manifest, "bo": {**manifest["bo"], key: value}}))
        with pytest.raises(
            ConfigurationError, match=f"bo.{key} = {value}: the key is fixed at {constant}"
        ):
            fit_replay.replay(str(tmp_path))


def test_public_names_are_bound_and_package_reexports_are_declared():
    # A name deleted from a module must leave its __all__ and the package's
    # re-exports with it.
    modules = {
        info.name: importlib.import_module(f"gpinverse.{info.name}")
        for info in pkgutil.iter_modules(gpinverse.__path__)
    }
    for name, module in modules.items():
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"gpinverse.{name}.__all__ names unbound {attr!r}"
    with open(gpinverse.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    reexports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert reexports
    for name, attr in reexports:
        if not attr.startswith("_"):
            assert attr in modules[name].__all__, f"gpinverse.{name}.{attr}"
