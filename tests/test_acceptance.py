"""Acceptance suite.

One test per criterion; each prints a single line

    ACCEPTANCE <nn> <name>: PASS|FAIL

in addition to the usual pytest outcome. Every tolerance is pinned here.
Monte Carlo budgets are sized so the whole suite runs in a few minutes.
"""

import math
import time

import numpy as np
import pytest

from itslab import (
    ModelConfig,
    RewardSpec,
    SeriesTerms,
    classify_k_monotonicity,
    de_moments_batch,
    delta_k_curve,
    delta_t_curve,
    dlogn_flat_prior,
    fit_posterior,
    generate_dataset,
    judge_sweep,
    load_records,
    optimal_k,
    optimal_temperature,
    predictive_moments_batch,
    refined_best_of_k_delta,
    resolve_reward,
    sample_teacher,
    scaling_derivatives,
    solve_for_config,
    solve_ridge,
    stream,
    weibull_norming,
)
from itslab.cli import main as cli_main
from itslab.evt import chisq1_quantile

from _synth import (
    bisect_ridge, delta_x, high_t_delta_batch, min_chisq1, record_rows, trap_judge_questions, write_records,
    x_statistics,
)

SEED = 2025

FIG10 = dict(d=10, n=10_000, S=1.0, sigma=1e-4, gamma=1e-3)


def _runtime_check(t0, limit, extra=0.0):
    elapsed = time.perf_counter() - t0 + extra
    return (f"runtime {elapsed:.1f}s < {limit}s", elapsed < limit)


def _report(num, name, checks):
    """checks: list of (label, bool). Prints the verdict line, then asserts."""
    ok = all(passed for _, passed in checks)
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    failed = [label for label, passed in checks if not passed]
    assert ok, f"failed checks: {failed}"


@pytest.fixture(scope="module")
def bestofk_curve():
    """Aligned-reward T=0 curve on the figure-scale config, shared by 04/07."""
    t0 = time.perf_counter()
    cfg = ModelConfig(**FIG10)
    res = delta_k_curve(
        cfg, RewardSpec.radial(0.0), T=0.0, k_grid=[100, 1000, 10_000],
        n_outer=150, n_inner=150, seed=SEED,
    )
    return cfg, res, time.perf_counter() - t0


def test_01_k1_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    checks = []
    for i in range(20):
        m = float(rng.normal())
        s2 = float(rng.uniform(0.2, 2.0))
        mu_T = float(rng.normal())
        mu_R = float(rng.normal())
        T = float(rng.uniform(0.05, 5.0))
        mean, se = delta_x(m, s2, mu_T, mu_R, 1, T, n_inner=100_000, rng=stream(SEED, "acc1", i))
        target = (m - mu_T) ** 2 + s2
        checks.append((f"tuple {i}: |{mean:.5f} - {target:.5f}| < 4 se", abs(mean - target) < 4 * se))
    checks.append(_runtime_check(t0, 10))
    _report(1, "k=1 exactness", checks)


def test_02_deterministic_equivalent_fidelity():
    t0 = time.perf_counter()
    cfg = ModelConfig(d=50, n=5000, S=1.0, sigma=1e-2, gamma=1.0)
    w = sample_teacher(cfg, stream(SEED, "teacher"))
    de = solve_for_config(cfg)
    X = stream(SEED, "test_points").normal(0.0, cfg.S, size=(100, cfg.d))
    de_means, de_vars = de_moments_batch(*x_statistics(X, w), de, cfg)
    acc_means = np.zeros(100)
    acc_vars = np.zeros(100)
    n_sets = 20
    for j in range(n_sets):
        post = fit_posterior(generate_dataset(cfg, w, stream(SEED, "data", j)), cfg)
        m, v = predictive_moments_batch(post, X @ post.basis)
        acc_means += m
        acc_vars += v
    acc_means /= n_sets
    acc_vars /= n_sets
    mean_rel = float(np.linalg.norm(de_means - acc_means) / np.linalg.norm(acc_means))
    var_rel = float(np.max(np.abs(de_vars / acc_vars - 1.0)))
    closed = solve_ridge(cfg.alpha, cfg.sigma, cfg.gamma, cfg.S**2)
    bisected = bisect_ridge(cfg.alpha, cfg.S**2, closed.R_hat)
    solver_rel = abs(closed.R - bisected) / bisected
    _report(2, "deterministic-equivalent fidelity", [
        (f"predictive means within 3% (L2 rel {mean_rel:.4f})", mean_rel < 0.03),
        (f"predictive variances within 3% (max rel {var_rel:.4f})", var_rel < 0.03),
        (f"closed-form vs bisection ridge within 1e-10 (rel {solver_rel:.2e})", solver_rel <= 1e-10),
        _runtime_check(t0, 60),
    ])


def test_03_high_temperature_series():
    t0 = time.perf_counter()
    cfg = ModelConfig(**FIG10)
    de = solve_for_config(cfg)
    w_T = sample_teacher(cfg, stream(SEED, "teacher"))
    T = 20 * cfg.sigma**2
    k_grid = [1, 2, 5, 10, 50]
    n_outer = 800
    X = stream(SEED, "test_points", 0).normal(0.0, cfg.S, size=(n_outer, cfg.d))
    mu_T, r2 = x_statistics(X, w_T)
    m, s2 = de_moments_batch(mu_T, r2, de, cfg)
    t_x = T / (2 * s2)
    checks = []
    for c in (-2.0, 0.0, 2.0):
        res = delta_k_curve(
            cfg, RewardSpec.radial(c), T, k_grid,
            n_outer=n_outer, n_inner=500, seed=SEED,
        )
        w_R = resolve_reward(RewardSpec.radial(c), w_T, de.R, cfg.S)
        dR = m - X @ w_R / math.sqrt(cfg.d)
        c3 = 2 * (m - mu_T) * dR + s2 + 2 * dR**2
        for g, k in enumerate(k_grid):
            series_x = high_t_delta_batch(cfg, de, w_T, w_R, T, k, X)
            diffs = res.per_x[:, g] - series_x
            mean_diff = abs(float(diffs.mean()))
            se = float(diffs.std(ddof=1) / math.sqrt(n_outer))
            prod = math.prod(1.0 - i / k for i in (1, 2, 3))
            c3_term = float(np.mean(np.abs(c3 / t_x**3 * prod)))
            tol = 4 * se + 5 * c3_term / float(np.mean(t_x))
            checks.append((f"c={c:+.0f} k={k}: |MC-series|={mean_diff:.2e} <= {tol:.2e}",
                           mean_diff <= tol))
    checks.append(_runtime_check(t0, 300))
    _report(3, "high-temperature series", checks)


def test_04_best_of_k_law(bestofk_curve):
    t0 = time.perf_counter()
    cfg, res, fixture_s = bestofk_curve
    de = solve_for_config(cfg)
    w_T = sample_teacher(cfg, stream(SEED, "teacher"))
    k_grid = np.asarray(res.grid, dtype=float)
    k2d = k_grid**2 * res.mean
    flat = float(k2d.max() / k2d.min() - 1.0)
    checks = [(f"k^2 delta flat within 10% (spread {flat:.3f})", flat < 0.10)]
    for g, k in enumerate(res.grid):
        ref = refined_best_of_k_delta(cfg, de, w_T, int(k)).value
        ratio = float(res.mean[g] / ref)
        checks.append((f"k={k}: MC/refined = {ratio:.3f} within 10%", abs(ratio - 1.0) < 0.10))
    for lam in (0.0, 0.5):
        gap = -chisq1_quantile(1.0 - 1.0 / 10_000, lam)
        r = gap / weibull_norming(lam, 10_000)
        checks.append((f"quantile gap / c_k at lam={lam}: {r:.4f} within 5%", abs(r - 1.0) < 0.05))
    mean = min_chisq1(0.5, 1000, 1_000_000, stream(SEED, "acc4")).mean()
    r = mean / (2 * weibull_norming(0.5, 1000))
    checks.append((f"MC min mean / 2 c_k at lam=0.5, k=1000: {r:.4f} within 5%", abs(r - 1.0) < 0.05))
    checks.append(_runtime_check(t0, 300, extra=fixture_s))
    _report(4, "best-of-k tail law", checks)


def _solve_radial_c(cfg, de, w_T, ratio_target):
    """c such that the averaged series has C2/C1 = ratio_target."""
    V = de.b**2 * cfg.S**2 * float(w_T @ w_T) / cfg.d
    s2_bar = cfg.sigma**2 + cfg.gamma**2 * de.b * cfg.S**2
    rho = ratio_target - 1.0
    return rho + math.sqrt(rho**2 + rho * s2_bar / V) - 1.0


def test_05_optimal_temperature():
    t0 = time.perf_counter()
    cfg = ModelConfig(**FIG10)
    de = solve_for_config(cfg)
    w_T = sample_teacher(cfg, stream(SEED, "teacher"))
    k = 50
    c = _solve_radial_c(cfg, de, w_T, ratio_target=12.0)
    w_R = resolve_reward(RewardSpec.radial(c), w_T, de.R, cfg.S)
    T_opt = optimal_temperature(SeriesTerms.averaged(cfg, de, w_T, w_R, 1.0), k)
    T_grid = np.geomspace(2.0, 200.0, 30) * cfg.sigma**2
    res = delta_t_curve(
        cfg, RewardSpec.radial(c), k, T_grid, n_outer=1000, n_inner=300, seed=SEED,
    )
    T_hat = float(T_grid[int(np.argmin(res.mean))])
    step = math.log(T_grid[1] / T_grid[0])
    off = abs(math.log(T_hat / T_opt))
    _report(5, "optimal temperature", [
        (f"T_opt = {T_opt:.3e} interior to the grid", T_grid[0] < T_opt < T_grid[-1]),
        (f"argmin {T_hat:.3e} within one grid step of T_opt (off {off:.3f} <= {step:.3f})",
         off <= step * 1.0001),
        _runtime_check(t0, 300),
    ])


def test_06_optimal_k():
    t0 = time.perf_counter()
    cfg = ModelConfig(**FIG10)
    de = solve_for_config(cfg)
    w_T = sample_teacher(cfg, stream(SEED, "teacher"))
    T = 200 * cfg.sigma**2
    s2_bar = cfg.sigma**2 + cfg.gamma**2 * de.b * cfg.S**2
    t = T / (2 * s2_bar)
    k_grid = [1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 24, 32, 48, 96]
    checks = []
    for ratio in (2 * t / 3.0, 4 * t / 9.0):
        # targets t* = 3 C2/C1 of 2t and (4/3)t, i.e. interior optima
        c = _solve_radial_c(cfg, de, w_T, ratio_target=ratio)
        w_R = resolve_reward(RewardSpec.radial(c), w_T, de.R, cfg.S)
        st = SeriesTerms.averaged(cfg, de, w_T, w_R, T)
        k_opt = optimal_k(st)
        res = delta_k_curve(
            cfg, RewardSpec.radial(c), T, k_grid, n_outer=600, n_inner=500, seed=SEED,
        )
        i_hat = int(np.argmin(res.mean))
        k_hat = k_grid[i_hat]
        admissible = [
            k_grid[j]
            for j in range(len(k_grid))
            if res.mean[j] <= res.mean[i_hat] + 3 * res.paired_stderr(i_hat, j)
        ]
        hit = abs(k_hat - k_opt) <= 2 or any(abs(kk - k_opt) <= 2 for kk in admissible)
        checks.append((f"c={c:.1f}: k_opt={k_opt}, argmin={k_hat} (admissible {admissible})", hit))
    res0 = delta_k_curve(
        cfg, RewardSpec.radial(0.0), T, k_grid, n_outer=600, n_inner=500, seed=SEED,
    )
    label = classify_k_monotonicity(res0)
    checks.append((f"c=0 classified {label}", label == "monotone"))
    checks.append(_runtime_check(t0, 300))
    _report(6, "optimal sample count", checks)


def test_07_compute_tradeoff(bestofk_curve):
    t0 = time.perf_counter()
    cfg, res, fixture_s = bestofk_curve
    logk = np.log(np.asarray(res.grid, dtype=float))
    slope = float(np.polyfit(logk, np.log(res.mean), 1)[0])
    # derivative reference point inside the figure's n-range, away from the
    # small-n edge where the log-derivative in n is no longer negligible
    cfg_ref = ModelConfig(d=10, n=25_000, S=1.0, sigma=1e-4, gamma=1e-3)
    de_ref = solve_for_config(cfg_ref)
    w_ref = sample_teacher(cfg_ref, stream(SEED, "teacher"))
    sd = scaling_derivatives(cfg_ref, de_ref, w_ref)
    closed = dlogn_flat_prior(cfg_ref, w_ref)
    rel = abs(sd.dlogn - closed) / abs(closed)
    _report(7, "training-vs-inference trade-off", [
        (f"log-log slope in k = {slope:.4f} within -2 +/- 0.1", abs(slope + 2.0) <= 0.1),
        (f"|dlogn| = {abs(sd.dlogn):.4f} < 0.05", abs(sd.dlogn) < 0.05),
        (f"finite difference vs closed form within 1% (rel {rel:.4f})", rel < 0.01),
        ("dlogk exactly -2", sd.dlogk == -2.0),
        _runtime_check(t0, 300, extra=fixture_s),
    ])


def test_08_region_map():
    t0 = time.perf_counter()
    cfg = ModelConfig(d=2, n=10_000, S=1.0, sigma=1e-4, gamma=1e-3)
    k_grid = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32]
    c_grid = np.geomspace(5e-5, 5e-3, 8)
    theta_grid = np.linspace(0.0, 2 * np.pi, 9)[:8]

    cells = [(ci, ti) for ci in range(len(c_grid)) for ti in range(len(theta_grid))]
    rewards = [RewardSpec.polar(float(c_grid[ci]), float(theta_grid[ti])) for ci, ti in cells]

    def non_monotone_cells(T_mult):
        # one call per temperature, one reward target per (c, theta) cell
        res = delta_k_curve(cfg, rewards, T_mult * cfg.sigma**2, k_grid,
                            n_outer=200, n_inner=100, seed=SEED)
        return {cell for r, cell in enumerate(cells)
                if classify_k_monotonicity(res.target(r)) == "non_monotone"}

    set20 = non_monotone_cells(20.0)
    set10 = non_monotone_cells(10.0)
    missing = set20 - set10
    _report(8, "region map shrinks with temperature", [
        (f"non-monotone region grows as T drops ({len(set20)} -> {len(set10)} cells)",
         len(set10) >= len(set20)),
        (f"at most 2 boundary cells leave the region (got {len(missing)})", len(missing) <= 2),
        ("both temperatures show a non-trivial split",
         0 < len(set20) < len(c_grid) * len(theta_grid)),
        _runtime_check(t0, 600),
    ])


def test_09_judge_metric(tmp_path):
    t0 = time.perf_counter()
    checks = []
    # bounds and the all-correct identity
    qs_all = {f"q{i}": [(float(np.cos(i * j + 1)), 1) for j in range(8)] for i in range(6)}
    path = write_records(tmp_path / "all.jsonl", record_rows(qs_all))
    ds_all = load_records(path)
    vals = [
        judge_sweep(ds_all, [k], [T], 4, stream(SEED, "acc9", k))[0]["delta"]
        for k in (1, 4, 8)
        for T in (0.0, 1.0, 100.0)
    ]
    checks.append(("all-correct gives delta = -1 exactly", all(v == -1.0 for v in vals)))

    rng = np.random.default_rng(17)
    qs = trap_judge_questions(rng, n_questions=400, n_samples=64)
    path = write_records(tmp_path / "trap.jsonl", record_rows(qs))
    ds = load_records(path)

    probe = [judge_sweep(ds, [k], [T], 4, stream(SEED, "acc9b", k))[0]["delta"]
             for k in (1, 8, 64) for T in (0.0, 0.7, 50.0)]
    checks.append(("delta within [-1, 0]", all(-1.0 <= v <= 0.0 for v in probe)))

    acc = float(np.mean([np.mean([cor for _, cor in rows]) for rows in qs.values()]))
    (est,) = judge_sweep(ds, [8], [1e12], 16, stream(SEED, "acc9c"))
    checks.append((
        f"T->inf recovers negative mean accuracy ({est['delta']:.4f} vs {-acc:.4f})",
        abs(est["delta"] - (-acc)) < 4 * est["stderr"],
    ))

    rows_k = judge_sweep(ds, [1, 2, 4, 8, 16, 32], [0.5], 16, stream(SEED, "acc9d"))
    dk = np.array([r["delta"] for r in rows_k])
    ek = np.array([r["stderr"] for r in rows_k])
    bk = int(np.argmin(dk))
    checks.append((
        f"interior optimum in k at grid index {bk}",
        0 < bk < len(dk) - 1
        and dk[bk] < dk[0] - 3 * (ek[bk] + ek[0])
        and dk[bk] < dk[-1] - 3 * (ek[bk] + ek[-1]),
    ))

    rows_t = judge_sweep(ds, [16], [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 32.0, 1e6], 16,
                         stream(SEED, "acc9e"))
    dt = np.array([r["delta"] for r in rows_t])
    et = np.array([r["stderr"] for r in rows_t])
    bt = int(np.argmin(dt))
    checks.append((
        f"interior optimum in T at grid index {bt}",
        0 < bt < len(dt) - 1
        and dt[bt] < dt[0] - 3 * (et[bt] + et[0])
        and dt[bt] < dt[-1] - 3 * (et[bt] + et[-1]),
    ))
    checks.append(_runtime_check(t0, 60))
    _report(9, "judge metric properties", checks)


def test_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    rec = tmp_path / "records.jsonl"
    write_records(rec, record_rows(
        trap_judge_questions(np.random.default_rng(3), n_questions=12, n_samples=8)
    ))
    model = ["--d", "4", "--n", "500", "--sigma", "0.01", "--gamma", "0.1"]
    mc = ["--n-outer", "24", "--n-inner", "10", "--seed", "7"]
    invocations = {
        "ridge": ["ridge"] + model + ["--seed", "7"],
        "sweep-k": ["sweep-k"] + model + mc + ["--k-grid", "1,3", "--c-grid", "0,1"],
        "sweep-t": ["sweep-t"] + model + mc + ["--k", "3", "--t-grid-sigma2", "5,50"],
        "sweep-c": ["sweep-c"] + model + mc + ["--k", "3", "--c-grid", "0,2"],
        "polar-map": ["polar-map", "--d", "2", "--n", "500", "--sigma", "0.01",
                      "--gamma", "0.1"] + mc + ["--c-grid", "1e-3,1e-1",
                      "--theta-grid", "0,3", "--k-grid", "1,2,3,5"],
        "tradeoff": ["tradeoff"] + model + mc + ["--n-grid", "500,1000", "--k-grid", "2,8"],
        "bestofk-check": ["bestofk-check"] + model + mc + ["--k-grid", "4,16"],
        "judge": ["judge", "--records", str(rec), "--seed", "7",
                  "--k-grid", "1,4", "--t-grid", "0,1", "--n-resample", "4"],
    }
    # ridge and judge have no parallel path and reject --threads
    threaded = set(invocations) - {"ridge", "judge"}
    checks = []
    for name, argv in invocations.items():
        outs = []
        threads = ["--threads", "2"] if name in threaded else []
        for tag, extra in (("a", []), ("b", []), ("c", threads)):
            out = tmp_path / f"{name}-{tag}.csv"
            code = cli_main(argv + ["--out", str(out)] + extra)
            assert code == 0
            outs.append(out.read_bytes())
        checks.append((f"{name}: reruns and thread counts byte-identical",
                       outs[0] == outs[1] == outs[2]))
    checks.append(_runtime_check(t0, 120))
    _report(10, "CLI determinism", checks)
