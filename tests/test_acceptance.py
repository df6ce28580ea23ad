"""Acceptance gate: one test per release criterion, run on the shipped presets.

Each criterion prints a single [PASS]/[FAIL] line.  Criterion 6 (surrogate
family ordering) fails as written: the ordering it asserts does not hold at
the shared 14-sample budget, and it stays asserted as stated until the
paper's comparison protocol settles what a corrected criterion should claim.
Criterion 4 checks that the Rosenbrock synthesizing point lies in the
high-probability set, since the observation is matched along whole arcs of
inputs and no MAP ranking singles that point out.  The comments and failure
messages carry the reasoning.
"""

import math

import numpy as np
import pytest

from gpinverse import (
    Dataset,
    InverseProblem,
    KernelSpec,
    McmcConfig,
    eval_benchmark,
    evaluate_profile_grid,
    expected_improvement,
    get_benchmark,
    gp_fit,
    gp_predict_many,
    grid_posterior,
    high_probability_region,
    kde_estimate,
    laplace_approximation,
    log_posterior,
    run_mcmc,
)
from gpinverse.gp import kernel_matrix

MIXED2D_CREDIBLE_BOX = ((1.158, 1.638), (1.323, 2.221))
ROSEN_TARGET = np.array([-1.5, -0.6])


def _report(ok: bool, label: str) -> bool:
    print(("[PASS] " if ok else "[FAIL] ") + label)
    return ok


def test_criterion_1_forrester_inversion(preset_runs):
    result, elapsed = preset_runs("forrester-inverse")
    best = result.summary.map_clusters[0]
    regions = result.summary.hp_regions
    ok_map = abs(best.x[0] - 0.76) <= 0.02
    ok_hp = (
        len(regions) >= 1
        and abs(regions[0][0] - 0.735) <= 0.01
        and abs(regions[0][1] - 0.78) <= 0.01
    )
    ok_time = elapsed < 30.0
    ok = _report(
        ok_map and ok_hp and ok_time,
        f"criterion 1: forrester MAP {best.x[0]:.4f} (target 0.76 +/- 0.02), "
        f"hp {regions[0] if regions else None} (target [0.735, 0.78] +/- 0.01), "
        f"runtime {elapsed:.1f}s < 30s",
    )
    assert ok


def test_criterion_2_mixed1d_inversion(preset_runs):
    result, elapsed = preset_runs("mixed1d-inverse")
    clusters = result.summary.map_clusters
    near_zero = [c for c in clusters if c.ls_residual <= 1e-6]
    regions = result.summary.hp_regions
    ok_clusters = len(near_zero) >= 3
    ok_union = all(-7.6 <= lo and hi <= 5.1 for lo, hi in regions)
    ok_time = elapsed < 60.0
    ok = _report(
        ok_clusters and ok_union and ok_time,
        f"criterion 2: mixed1d {len(near_zero)} exact-fit MAP clusters (need >= 3), "
        f"hp union {[(round(a, 2), round(b, 2)) for a, b in regions]} inside [-7.6, 5.1], "
        f"runtime {elapsed:.1f}s < 60s",
    )
    assert ok


def test_criterion_3_mixed2d_inversion(preset_runs):
    result, elapsed = preset_runs("mixed2d-inverse")
    best = result.summary.map_clusters[0]
    (xlo, xhi), (ylo, yhi) = MIXED2D_CREDIBLE_BOX
    ok_box = xlo <= best.x[0] <= xhi and ylo <= best.x[1] <= yhi
    ok_ls = best.ls_residual <= 0.06
    ok_time = elapsed < 120.0
    ok = _report(
        ok_box and ok_ls and ok_time,
        f"criterion 3: mixed2d MAP ({best.x[0]:.3f}, {best.x[1]:.3f}) in credible box "
        f"x[1.158, 1.638] y[1.323, 2.221], residual {best.ls_residual:.2e} <= 0.06, "
        f"runtime {elapsed:.1f}s < 120s",
    )
    assert ok


def test_criterion_4_rosenbrock_inversion(preset_runs):
    # A scalar observation of the Rosenbrock surface is matched along whole
    # arcs of inputs, and exact-fit MAP clusters are ranked by member count,
    # not by closeness to any particular point of those arcs.  Recovering the
    # synthesizing point therefore means that it lies in the high-probability
    # set, and that set must consist of solutions: the exact benchmark value
    # at each box centre, and at the top-ranked MAP cluster, lies within 3
    # observation standard deviations of the observation.  The number of
    # boxes is not asserted; a thin level band splits into many components.
    result, elapsed = preset_runs("rosenbrock2d-inverse")
    problem = result.problem
    hf = get_benchmark(result.config.benchmark)
    sigma = math.sqrt(problem.obs_variance)

    def misfit(x) -> float:
        return abs(eval_benchmark(hf, np.asarray(x)) - problem.observed) / sigma

    boxes = result.summary.hp_regions
    lows = np.array([[lo for lo, _ in box] for box in boxes])
    highs = np.array([[hi for _, hi in box] for box in boxes])
    gaps = np.linalg.norm(np.clip(ROSEN_TARGET, lows, highs) - ROSEN_TARGET, axis=1)
    dist = float(np.min(gaps))
    worst_box = max(misfit(0.5 * (lo + hi)) for lo, hi in zip(lows, highs))
    best = result.summary.map_clusters[0]
    best_misfit = misfit(best.x)
    ok_region = dist <= 0.15
    ok_boxes = worst_box <= 3.0
    ok_map = best_misfit <= 3.0 and result.summary.multimodal
    ok_time = elapsed < 120.0
    ok = _report(
        ok_region and ok_boxes and ok_map and ok_time,
        f"criterion 4: rosenbrock high-probability set within 0.15 of (-1.5, -0.6): "
        f"distance {dist:.3f}; worst misfit of {len(boxes)} box centres "
        f"{worst_box:.2f} sigma <= 3; MAP ({best.x[0]:.3f}, {best.x[1]:.3f}) misfit "
        f"{best_misfit:.2f} sigma <= 3, multimodal {result.summary.multimodal}; "
        f"runtime {elapsed:.1f}s < 120s",
    )
    assert ok


def test_criterion_5_surrogate_efficiency(preset_runs):
    mixed, _ = preset_runs("mixed1d-inverse")
    rosen, _ = preset_runs("rosenbrock2d-inverse")
    m_last = mixed.trace.iterations[-1]
    r_last = rosen.trace.iterations[-1]
    ok_mixed = mixed.trace.converged and m_last.n_samples <= 25 and m_last.mse < 1e-3
    ok_rosen = (
        rosen.trace.converged
        and r_last.n_samples <= 15
        and r_last.mse_normalized < 1e-3
    )
    ok = _report(
        ok_mixed and ok_rosen,
        f"criterion 5: mixed1d MSE {m_last.mse:.2e} < 1e-3 at {m_last.n_samples} <= 25 "
        f"evaluations; rosenbrock variance-normalized MSE {r_last.mse_normalized:.2e} "
        f"< 1e-3 at {r_last.n_samples} <= 15 evaluations",
    )
    assert ok


def test_criterion_6_surrogate_family_ordering(preset_runs):
    # Asserted as stated: Matern <= RBF and Matern strictly below each
    # deterministic family on all four 1D benchmarks at the shared budget.
    result, _ = preset_runs("compare-surrogates")
    failures = []
    for name, scores in result.manifest["compare"].items():
        if not isinstance(scores, dict):
            continue
        m = scores["gp-matern52"]
        if m > scores["gp-rbf"]:
            failures.append(f"{name}: matern {m:.2e} > rbf {scores['gp-rbf']:.2e}")
        for fam in ("lagrange", "legendre", "cubic_spline"):
            if not m < scores[fam]:
                failures.append(f"{name}: matern {m:.2e} >= {fam} {scores[fam]:.2e}")
    ok = _report(
        not failures,
        "criterion 6: GP-Matern best family on every 1D benchmark"
        + ("" if not failures else " -- violations: " + "; ".join(failures)),
    )
    assert ok


def test_criterion_7_property_battery(function_surrogate):
    rng = np.random.default_rng(1234)

    # kernel symmetry and Gram positive semidefiniteness over 100 point sets
    for trial in range(100):
        fam = "rbf" if trial % 2 == 0 else "matern52"
        spec = KernelSpec(fam, rng.uniform(0.2, 3.0), rng.uniform(0.1, 4.0))
        pts = rng.uniform(-5, 5, size=(10, 2))
        k = kernel_matrix(spec, pts, pts)
        assert np.array_equal(k, k.T)
        gram = k + (1e-6 + 1e-10) * np.eye(10)
        assert np.linalg.eigvalsh(gram).min() >= -1e-8

    # EI nonnegativity over 1000 random configurations
    for _ in range(1000):
        mu = rng.normal(scale=4)
        sigma = abs(rng.normal(scale=2)) * (rng.random() > 0.1)
        assert expected_improvement(mu, sigma, rng.normal(scale=4)) >= 0.0

    # GP prediction against a dense-solve oracle on 50 random 5-point problems
    for trial in range(50):
        fam = "rbf" if trial % 2 == 0 else "matern52"
        spec = KernelSpec(fam, rng.uniform(0.4, 2.0), rng.uniform(0.3, 2.0))
        noise = 10.0 ** rng.uniform(-6, -3)
        x = rng.uniform(-2, 2, size=(5, 2))
        y = rng.normal(size=5)
        model = gp_fit(Dataset(x=x, y=y, bounds=((-2, 2), (-2, 2))), spec, noise)
        q = rng.uniform(-2, 2, size=(4, 2))
        mean, _ = gp_predict_many(model, q)
        kinv = np.linalg.inv(
            kernel_matrix(spec, x, x) + (noise + model.jitter) * np.eye(5)
        )
        oracle = kernel_matrix(spec, x, q).T @ kinv @ y
        np.testing.assert_allclose(mean, oracle, rtol=1e-8, atol=1e-12)

    # LS/NLS order anti-correspondence on 1000 random pairs
    prob = InverseProblem(
        surrogate=function_surrogate(
            lambda x: (6 * x[0] - 2) ** 2 * math.sin(12 * x[0] - 4)
        ),
        observed=2.0,
        obs_variance=0.7,
        bounds=((0.0, 1.0),),
    )
    pairs = rng.random((1000, 2))
    ls, log_nls = log_posterior(prob, pairs.reshape(-1, 1))
    ls, nls = ls.reshape(-1, 2), np.exp(log_nls).reshape(-1, 2)
    ok = (ls[:, 0] < ls[:, 1]) == (nls[:, 0] > nls[:, 1])
    assert np.all(ok | (ls[:, 0] == ls[:, 1]))

    # Laplace recovers a known Gaussian width within 1%
    sigma_g = 0.21
    lap_prob = InverseProblem(
        surrogate=function_surrogate(lambda x: (math.sqrt(0.5) / sigma_g) * (x[0] - 0.4)),
        observed=0.0,
        obs_variance=0.5,
        bounds=((-3.0, 3.0),),
    )
    res = laplace_approximation(lap_prob, [0.4])
    assert not res.degenerate
    assert abs(res.cov[0, 0] - sigma_g**2) <= 0.01 * sigma_g**2

    # MCMC Kolmogorov-Smirnov distance on the synthetic Gaussian target
    mu_g, sig = 0.3, 0.5
    ks_prob = InverseProblem(
        surrogate=function_surrogate(lambda x: x[0]),
        observed=mu_g,
        obs_variance=sig * sig,
        bounds=((-10.0, 10.0),),
    )
    chain = run_mcmc(
        ks_prob,
        McmcConfig(n_chains=1, n_steps=12000, burn_in=2000, proposal_scale=0.06, seed=42),
        evaluate_profile_grid(ks_prob, 2048),
    )[0]
    s = np.sort(chain.samples[:, 0])
    n = s.size
    assert n == 10000
    cdf = 0.5 * (1.0 + np.array([math.erf((v - mu_g) / (sig * math.sqrt(2))) for v in s]))
    ks = max(
        float(np.max(np.abs(cdf - np.arange(1, n + 1) / n))),
        float(np.max(np.abs(cdf - np.arange(n) / n))),
    )
    assert ks < 0.03

    # grid posterior integrates to one
    ref = grid_posterior(evaluate_profile_grid(ks_prob, 512))
    assert abs(np.trapezoid(ref.density, ref.grid) - 1.0) <= 1e-10

    _report(
        True,
        f"criterion 7: property battery (symmetry/PSD x100, EI>=0 x1000, "
        f"dense-solve oracle x50, LS/NLS order x1000, Laplace width 1%, "
        f"KS {ks:.4f} < 0.03, grid integral exact)",
    )


def test_criterion_8_mcmc_diagnostics(preset_runs):
    result, elapsed = preset_runs("mixed1d-mcmc")
    problem = result.problem
    ref = grid_posterior(evaluate_profile_grid(problem, 512))
    ok_modes = len(ref.mode_locations) >= 3 and np.all(
        np.diff(np.sort(ref.mode_indices)) > 5
    )

    regions = result.summary.hp_regions
    masses = [
        float(
            np.trapezoid(
                np.where((ref.grid >= lo) & (ref.grid <= hi), ref.density, 0.0),
                ref.grid,
            )
        )
        for lo, hi in regions
    ]
    dom_lo, dom_hi = regions[int(np.argmax(masses))]
    grid = np.linspace(problem.bounds[0][0], problem.bounds[0][1], 2001)
    hits = 0
    for chain in result.chains:
        dens = kde_estimate(chain.samples[:, 0], grid)
        peak = grid[int(np.argmax(dens))]
        hits += bool(dom_lo <= peak <= dom_hi)
    ok_hits = hits >= 7
    ok_acc = all(0.05 < c.acceptance_rate < 0.95 for c in result.chains)
    ok_time = elapsed < 120.0
    ok = _report(
        ok_modes and ok_hits and ok_acc and ok_time,
        f"criterion 8: grid posterior has {len(ref.mode_locations)} separated modes "
        f"(need >= 3); dominant component [{dom_lo:.2f}, {dom_hi:.2f}] holds the KDE "
        f"peak for {hits}/10 chains (need >= 7); acceptance rates in (0.05, 0.95); "
        f"runtime {elapsed:.1f}s < 120s",
    )
    assert ok


def test_criterion_9_preset_determinism(preset_runs, tmp_path):
    import filecmp
    import os

    from gpinverse.presets import get_preset, run_experiment

    mismatched = []
    for name in (
        "forrester-inverse",
        "mixed1d-inverse",
        "levy1d-inverse",
        "griewank1d-inverse",
        "mixed2d-inverse",
        "rosenbrock2d-inverse",
        "compare-surrogates",
        "mixed1d-mcmc",
        "mixed1d-ei-demo",
    ):
        first, _ = preset_runs(name)
        second_dir = tmp_path / f"again-{name}"
        run_experiment(get_preset(name), str(second_dir))
        for rel in first.files:
            if not rel.endswith(".csv"):
                continue
            a = os.path.join(first.outdir, rel)
            b = os.path.join(str(second_dir), rel)
            if not filecmp.cmp(a, b, shallow=False):
                mismatched.append(f"{name}/{rel}")
    ok = _report(
        not mismatched,
        "criterion 9: repeated preset runs produce byte-identical CSV artifacts"
        + ("" if not mismatched else f" -- mismatches: {mismatched}"),
    )
    assert ok
