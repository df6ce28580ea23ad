"""Benchmark definitions, exactness oracles, and the initial design."""

import math

import numpy as np
import pytest

from gpinverse import (
    BENCHMARKS,
    ConfigurationError,
    DomainError,
    ShapeError,
    eval_benchmark,
    get_benchmark,
    sample_initial_design,
)


def test_registry_contains_all_six_benchmarks():
    assert set(BENCHMARKS) == {
        "mixed1d", "levy1d", "griewank1d", "forrester1d", "mixed2d", "rosenbrock2d",
    }


def test_rosenbrock_zero_at_global_minimum():
    assert eval_benchmark(get_benchmark("rosenbrock2d"), [1.0, 1.0]) == 0.0


def test_levy_zero_at_one():
    # w = 1 makes every term vanish
    assert eval_benchmark(get_benchmark("levy1d"), [1.0]) == pytest.approx(0.0, abs=1e-30)


def test_griewank_zero_at_origin():
    assert eval_benchmark(get_benchmark("griewank1d"), [0.0]) == pytest.approx(0.0, abs=1e-15)


def test_mixed1d_value_at_two():
    # Gaussian peak contributes exactly 1 at x = 2; the second hump decays to
    # 0.9 e^(-2.45); the oscillation adds 0.1 cos(4).
    expected = 1.0 + 0.9 * math.exp(-2.45) + 0.1 * math.cos(4.0)
    assert eval_benchmark(get_benchmark("mixed1d"), [2.0]) == pytest.approx(
        expected, rel=1e-14
    )


# Independent re-statements of the closed forms, used as exactness oracles.
def _oracle(name, x):
    if name == "mixed1d":
        return (
            math.exp(-((x[0] - 2) ** 2) / 2)
            + 0.9 * math.exp(-((x[0] + 5) ** 2) / 20)
            + 0.1 * math.cos(2 * x[0])
        )
    if name == "levy1d":
        w = 1 + (x[0] - 1) / 4
        return (
            math.sin(math.pi * w) ** 2
            + (w - 1) ** 2 * (1 + 10 * math.sin(math.pi * w + 1) ** 2)
            + (w - 1) ** 4 * math.sin(2 * math.pi * w) ** 2
        )
    if name == "griewank1d":
        return x[0] ** 2 / 4000 - math.cos(x[0]) + 1
    if name == "forrester1d":
        return (6 * x[0] - 2) ** 2 * math.sin(12 * x[0] - 4)
    if name == "mixed2d":
        return (
            math.exp(-((x[0] - 2) ** 2 + (x[1] - 2) ** 2) / 2)
            + 0.2 * math.cos(3 * x[0]) * math.sin(3 * x[1])
            + 0.1 * math.sin(5 * x[0] + 5 * x[1])
        )
    return (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_evaluation_matches_independent_recomputation(name):
    model = get_benchmark(name)
    rng = np.random.default_rng(12)
    lo = np.array([b[0] for b in model.bounds])
    hi = np.array([b[1] for b in model.bounds])
    for _ in range(200):
        x = lo + rng.random(model.dim) * (hi - lo)
        got = eval_benchmark(model, x)
        want = _oracle(name, x)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_evaluator_is_deterministic():
    model = get_benchmark("mixed2d")
    x = np.array([0.123456789, 1.987654321])
    assert eval_benchmark(model, x) == eval_benchmark(model, x)


def test_rosenbrock_nonnegative_on_domain():
    model = get_benchmark("rosenbrock2d")
    rng = np.random.default_rng(3)
    for _ in range(500):
        x = np.array([rng.uniform(-2, 2), rng.uniform(-1, 2)])
        assert eval_benchmark(model, x) >= 0.0


def test_griewank_nonnegative_on_domain():
    model = get_benchmark("griewank1d")
    for x in np.linspace(-15, 15, 2001):
        assert eval_benchmark(model, [x]) >= 0.0


def test_out_of_bounds_error_names_dimension():
    model = get_benchmark("mixed2d")
    with pytest.raises(DomainError, match="coordinate 1") as info:
        eval_benchmark(model, [0.0, 3.5])
    assert str(info.value) == "mixed2d input coordinate 1 = 3.5 outside [0.0, 3.0]"
    with pytest.raises(DomainError, match="coordinate 0") as info:
        eval_benchmark(model, [-1.5, 1.0])
    assert str(info.value) == "mixed2d input coordinate 0 = -1.5 outside [-1.0, 2.0]"


def test_dimension_mismatch_is_shape_error():
    with pytest.raises(ShapeError):
        eval_benchmark(get_benchmark("mixed1d"), [0.0, 1.0])


def test_unknown_benchmark_name():
    with pytest.raises(ConfigurationError, match="unknown benchmark"):
        get_benchmark("nope")


class TestInitialDesign:
    def test_basic_design_is_in_bounds_with_exact_outputs(self):
        model = get_benchmark("mixed1d")
        ds = sample_initial_design(model, 5, seed=0)
        assert ds.n == 5 and ds.dim == 1
        for xi, yi in zip(ds.x, ds.y):
            assert -10 <= xi[0] <= 10
            assert yi == eval_benchmark(model, xi)

    def test_minimal_design_has_two_distinct_points(self):
        ds = sample_initial_design(get_benchmark("forrester1d"), 2, seed=4)
        assert ds.n == 2
        assert abs(ds.x[0, 0] - ds.x[1, 0]) > 1e-9

    def test_design_is_reproducible(self):
        model = get_benchmark("mixed2d")
        a = sample_initial_design(model, 7, seed=42)
        b = sample_initial_design(model, 7, seed=42)
        np.testing.assert_allclose(a.x, b.x, rtol=0, atol=1e-15)
        np.testing.assert_allclose(a.y, b.y, rtol=0, atol=1e-15)

    def test_design_is_stratified_per_dimension(self):
        # one point in each of the n equal-width strata, per dimension
        model = get_benchmark("mixed2d")
        n = 8
        ds = sample_initial_design(model, n, seed=9)
        for j, (lo, hi) in enumerate(model.bounds):
            strata = np.floor((ds.x[:, j] - lo) / (hi - lo) * n).astype(int)
            assert sorted(strata.tolist()) == list(range(n))

    def test_too_small_design_is_rejected(self):
        with pytest.raises(ConfigurationError, match="n_init"):
            sample_initial_design(get_benchmark("mixed1d"), 1, seed=0)

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ConfigurationError, match="seed"):
            sample_initial_design(get_benchmark("mixed1d"), 4, seed=-1)
