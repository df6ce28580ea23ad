"""Preset registry, config round-trip, CLI behavior, and artifact layout."""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpinverse.cli
from gpinverse.bo import BoConfig
from gpinverse.cli import main
from gpinverse.errors import (
    ConfigurationError,
    DegenerateDataError,
    InferenceError,
    NumericalError,
)
from gpinverse.presets import (
    PRESETS,
    ExperimentConfig,
    InversionSettings,
    config_from_text,
    config_to_text,
    get_preset,
    list_presets,
)
from gpinverse.sampling import McmcConfig

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
_seeds = st.integers(-(2**62), 2**62)


@st.composite
def _configs(draw):
    n_init = draw(st.integers(2, 50))
    fixed = draw(st.one_of(st.none(), st.tuples(_positive, _positive)))
    bo = BoConfig(
        n_init=n_init,
        n_acq=draw(st.integers(1, 8)),
        max_evaluations=draw(st.integers(n_init, 500)),
        mse_threshold=draw(_positive),
        n_val=draw(st.integers(100, 10**6)),
        noise_variance=draw(st.floats(min_value=0.0, allow_infinity=False)),
        kappa=draw(st.floats(min_value=0.0, allow_infinity=False)),
        restarts=draw(st.integers(1, 20)),
        seed=draw(_seeds),
        fixed_length_scale=None if fixed is None else fixed[0],
        fixed_signal_variance=None if fixed is None else fixed[1],
    )
    x_true = draw(st.one_of(st.none(), st.lists(_finite, min_size=1, max_size=2)))
    inversion = InversionSettings(
        observed=draw(_finite) if x_true is None else None,
        x_true=None if x_true is None else tuple(x_true),
        obs_variance=draw(_positive),
        hp_threshold=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        grid_resolution=draw(st.integers(64, 4096)),
        n_starts=draw(st.integers(1, 1000)),
        max_iter=draw(st.integers(1, 10**5)),
        map_seed=draw(_seeds),
    )
    n_steps = draw(st.integers(1, 10**6))
    mcmc = McmcConfig(
        n_chains=draw(st.integers(1, 64)),
        n_steps=n_steps,
        burn_in=draw(st.integers(0, n_steps - 1)),
        proposal_scale=draw(st.floats(0.0, 1.0, exclude_min=True)),
        seed=draw(_seeds),
    )
    return ExperimentConfig(
        name="drawn",
        benchmark="mixed1d",
        description="drawn config",
        bo=bo,
        inversion=inversion,
        mcmc=mcmc,
        mcmc_grid_resolution=draw(st.integers(2, 4096)),
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
        "mcmc_grid_resolution = 256\n"
        "bo.kernel_family = rbf\n"
        "bo.fixed_length_scale = 8\n"
        "bo.fixed_signal_variance = 1e10\n"
        "inversion.x_true = -1.5, -0.6\n"
    )
    assert parsed.mcmc_grid_resolution == 256
    assert parsed.bo.kernel_family == "rbf"
    assert parsed.bo.fixed_length_scale == 8.0
    assert parsed.inversion.x_true == (-1.5, -0.6)
    with pytest.raises(ConfigurationError, match="line 2: inversion.x_true"):
        config_from_text("benchmark = mixed2d\ninversion.x_true = 1.0, abc\n")
    with pytest.raises(ConfigurationError, match="line 1"):
        config_from_text("no_such_key = 1\nbenchmark = mixed1d\n")


_SMALL_RUN = (
    "benchmark = forrester1d\n"
    "bo.n_init = 4\n"
    "bo.max_evaluations = 6\n"
    "bo.mse_threshold = 1000000.0\n"
    "bo.n_val = 100\n"
)
_INV = "inversion.obs_variance = 0.72\n"
_OBS = _INV + "inversion.observed = -6.02\n"


@pytest.mark.parametrize(
    "lines",
    [
        _OBS + "inversion.hp_threshold = 1.5\n",
        _OBS + "inversion.hp_threshold = 0.0\n",
        _INV + "inversion.observed = nan\n",
        _INV + "inversion.observed = inf\n",
        _INV + "inversion.x_true = nan\n",
        _INV + "inversion.x_true = 5.0\n",
        _OBS + "inversion.grid_resolution = 32\n",
        _OBS + "inversion.n_starts = 0\n",
        _OBS + "inversion.max_iter = 0\n",
        _OBS + "inversion.obs_variance = inf\n",
        _OBS + "benchmark = mixed2d\n",
        _OBS + "bo.kappa = nan\n",
        _OBS + "bo.noise_variance = -1.0\n",
        _OBS + "bo.noise_variance = inf\n",
        _OBS + "bo.fixed_length_scale = inf\nbo.fixed_signal_variance = 1.0\n",
        _OBS + "bo.fixed_length_scale = 1.0\nbo.fixed_signal_variance = nan\n",
        "mcmc.seed = 1\n",
    ],
)
def test_cli_bad_setting_exits_2_before_surrogate_stage(tmp_path, lines):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_SMALL_RUN + lines)
    outdir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(outdir)]) == 2
    assert not (outdir / "trace.json").exists()


def test_cli_runs_small_config_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(
        "name = tiny\n"
        "benchmark = forrester1d\n"
        "description = tiny smoke experiment\n"
        "bo.n_init = 4\n"
        "bo.max_evaluations = 6\n"
        "bo.mse_threshold = 1000000.0\n"
        "bo.n_val = 100\n"
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


def test_cli_output_env_var_respected(tmp_path, monkeypatch):
    monkeypatch.setenv("GPINVERSE_OUT", str(tmp_path / "envroot"))
    cfg = tmp_path / "small.cfg"
    cfg.write_text(
        "name = tiny-env\n"
        "benchmark = forrester1d\n"
        "bo.n_init = 4\n"
        "bo.max_evaluations = 4\n"
        "bo.mse_threshold = 1000000.0\n"
        "bo.n_val = 100\n"
    )
    assert main(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "envroot" / "tiny-env" / "manifest.json").exists()
