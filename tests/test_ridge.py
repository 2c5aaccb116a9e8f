import math
import threading
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _synth import MP_CONFIGS, assert_close, bisect_ridge, mp_ridge
from itslab import (
    ModelConfig,
    de_moments_batch,
    fit_posterior,
    generate_dataset,
    isotropic_ridge,
    noise_variance_check,
    predictive_moments_batch,
    ridge,
    sample_teacher,
    solve_for_config,
    solve_ridge,
    stream,
)


class TestSolveRidge:
    def test_small_alpha_limit(self):
        # alpha -> 0: the correction alpha*m1 vanishes, so R -> R_hat.
        de = solve_ridge(1e-9, 0.3, 1.0, [1.0])
        assert abs(de.R - de.R_hat) <= 2e-9 * de.R_hat

    def test_zero_noise_below_one(self):
        de = solve_ridge(0.5, 0.0, 1.0, [1.0])
        assert de.R == 0.0
        assert de.a[0] == 1.0 and de.b[0] == 0.0

    def test_matches_closed_form_at_tiny_ridge(self):
        de = solve_ridge(1e-3, 1e-4, 1e-3, [1.0])
        iso = isotropic_ridge(1e-3, 1e-4, 1e-3, 1.0)
        assert abs(de.R - iso) <= 1e-10 * iso

    def test_residual_met_at_construction(self):
        for alpha in (1e-4, 0.01, 0.3, 0.9):
            for sigma in (1e-4, 0.1, 1.0):
                de = solve_ridge(alpha, sigma, 1e-2, [1.0, 2.0, 0.5])
                m1 = np.mean(de.spectrum / (de.spectrum + de.R))
                residual = abs(de.R * (1 - alpha * m1) - de.R_hat)
                assert residual <= 1e-12 * max(1.0, de.R_hat)

    @pytest.mark.parametrize("move", [lambda R: R * (1.0 + 1e-9), lambda R: math.inf, lambda R: math.nan],
                             ids=["relative_1e-9", "inf", "nan"])
    def test_residual_tolerance_rejects_a_moved_root(self, move, monkeypatch):
        # the tolerance scales with R, but an R off by 1e-9 relative, or not finite, still fails
        fixed_point = ridge._fixed_point
        monkeypatch.setattr(ridge, "_fixed_point", lambda *args: move(fixed_point(*args)))
        with pytest.raises(RuntimeError, match="fixed-point residual"):
            solve_ridge(2.0, 1e-4, 1e-3, [1e4])

    def test_ridgeless_degenerate_rejected(self):
        with pytest.raises(ValueError, match="ridgeless"):
            solve_ridge(1.0, 0.0, 1.0, [1.0])

    def test_ridgeless_message_names_r_hat_not_sigma(self):
        # sigma = 1e-4 here: it is R_hat that vanishes, as gamma = inf
        with pytest.raises(ValueError, match=r"R_hat = sigma\^2 alpha / gamma\^2 = 0 with alpha = 10"):
            solve_ridge(10.0, 1e-4, math.inf, [1.0])

    def test_squares_past_the_float_range_form_the_ratio(self):
        # sigma^2 and gamma^2 overflow but sigma/gamma does not
        assert solve_ridge(0.1, 1e200, 1e200, [1.0]).R_hat == 0.1
        assert solve_ridge(0.1, 1e-4, 1e200, [1.0]).R == 0.0  # R_hat underflows to 0
        for sigma, gamma in ((1e200, 1.0), (1.0, 1e-200), (1e150, 1e-150)):
            with pytest.raises(ValueError, match="R_hat = sigma\\^2 alpha / gamma\\^2 overflows"):
                solve_ridge(0.1, sigma, gamma, [1.0])

    def test_monotone_in_alpha_and_noise(self):
        Rs = [solve_ridge(a, 0.2, 0.7, [1.0, 3.0]).R for a in np.linspace(0.05, 0.95, 10)]
        assert np.all(np.diff(Rs) > 0)
        Rs = [solve_ridge(0.4, s, 0.7, [1.0, 3.0]).R for s in np.linspace(0.01, 2.0, 10)]
        assert np.all(np.diff(Rs) > 0)

    def test_a_plus_b_exact_and_bounded(self):
        for alpha in (0.01, 0.5):
            de = solve_ridge(alpha, 0.5, 1.0, [2.0])
            assert de.a[0] + de.b[0] == 1.0
            assert 0 < de.a[0] < 1 and 0 < de.b[0] < 1
            assert 0 < de.m1 < 1 and 0 < de.m2 < 1

    def test_isotropic_vs_general_on_grid(self):
        # 100-point (alpha, R_hat) grid, 1e-10 relative.
        gamma = 1e-3
        for alpha in np.geomspace(1e-4, 0.9, 10):
            for rhat in np.geomspace(1e-6, 10.0, 10):
                sigma = math.sqrt(rhat * gamma**2 / alpha)
                de = solve_ridge(alpha, sigma, gamma, [1.0])
                iso = isotropic_ridge(alpha, sigma, gamma, 1.0)
                assert abs(de.R - iso) <= 1e-10 * max(iso, 1e-300)


def _outcome(alpha, sigma, gamma, spectrum):
    """solve_ridge's R, or the type and text of what it raised."""
    try:
        return solve_ridge(alpha, sigma, gamma, spectrum).R
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _bisection_outcome(alpha, sigma, gamma, spectrum):
    """The outcome with the root found by the bisection oracle instead."""
    with mock.patch.object(ridge, "_fixed_point", bisect_ridge):
        return _outcome(alpha, sigma, gamma, spectrum)


def _decades(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


class TestSolveMatchesBisectionOracle:
    """The solve returns the R of the independent bisection oracle to the bit."""

    @given(alpha=_decades(-6, 3), sigma=_decades(-150, 150), gamma=_decades(-150, 150),
           spectrum=st.lists(_decades(-3, 3), min_size=1, max_size=50))
    @example(alpha=1.0, sigma=1e-6, gamma=1e6, spectrum=[1.0])
    @example(alpha=1e-6, sigma=1e154, gamma=1e-3, spectrum=[1.0])
    @example(alpha=1.013, sigma=1e-15, gamma=1.0, spectrum=list(np.geomspace(1e-3, 1e3, 32)))
    @example(alpha=2.0, sigma=1e-4, gamma=1e-3, spectrum=[1e4])
    @settings(max_examples=300, deadline=None)
    def test_same_r_or_same_error(self, alpha, sigma, gamma, spectrum):
        new, ref = _outcome(alpha, sigma, gamma, spectrum), _bisection_outcome(alpha, sigma, gamma, spectrum)
        if ref == (RuntimeError, "fixed-point residual inf exceeds tolerance"):
            # the bisection doubled its bracket past the float range and returned inf
            assert new[0] is ValueError if isinstance(new, tuple) else math.isfinite(new)
        else:
            assert new == ref

    @pytest.mark.parametrize("alpha, sigma, gamma, R", [
        (1.0, 1e-6, 1e6, 1.0000000000004998e-12),  # 1 - alpha m1 -> 0 as R -> 0; the root 1.0000000000005e-12
        (1.0, 1.0, 1e16, 1e-16),  # 1 - alpha m1 would round to 0; the root 1e-16 + 5e-33
        (1e8, 1e30, 1e100, 99999999.0),  # R_hat = 1e-132, the root alpha - 1
        (0.999999, 1e-160, 1.0, 9.99988867e-315),  # R_hat = 1e-320 is subnormal; the root 9.9998886715e-315
    ], ids=["alpha_1", "alpha_1_flat", "alpha_1e8", "subnormal_r_hat"])
    def test_edge_cases(self, alpha, sigma, gamma, R):
        assert _outcome(alpha, sigma, gamma, [1.0]) == R == _bisection_outcome(alpha, sigma, gamma, [1.0])

    def test_flat_g_ends_in_bisection(self):
        # alpha = 1, R_hat = 1e-40: g(R) rounds to 0 on a range of R below the root; a solve that
        # steps by g's slope there creeps (about 1e9 steps), one that halves its bracket ends
        args = (1.0, 1.0, 1e20, [0.5, 2.75, 5.0])
        result = []
        worker = threading.Thread(target=lambda: result.append(_outcome(*args)), daemon=True)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert result == [_bisection_outcome(*args)]

    def test_root_near_the_top_of_the_float_range(self):
        # R_hat = 1e308 and R = R_hat: the bisection's bracket [R_hat, 2 R_hat] was [1e308, inf]
        de = solve_ridge(1e-6, 1e154, 1e-3, [1.0])
        assert de.R_hat == 1e308 and de.R == 1e308

    def test_no_finite_root_names_r_hat(self):
        # g(R) = R (1 - alpha m(R)) stays about alpha = 1e306 below R at every finite R
        with pytest.raises(ValueError, match=r"^no finite R solves R \(1 - alpha m\(R\)\) = R_hat = 1.7956e\+308$"):
            solve_ridge(1e306, 13.4, 1.0, [1.0])


class TestSolveMatchesMpmath:
    """Every scalar of the solve lands within 1e-12 relative of its 50-digit value (``mp_ridge``)."""

    @given(**MP_CONFIGS)
    @example(alpha=1.0, sigma=1e-6, gamma=1e6, spectrum=[1.0])  # 1 - alpha m1 cancels as R -> 0
    @example(alpha=1.0, sigma=1.0, gamma=1e16, spectrum=[1.0])
    @example(alpha=1e3, sigma=1e-4, gamma=1e-3, spectrum=[1e-3])  # alpha > 1: mean(b) - (alpha - 1) m1
    @example(alpha=0.1, sigma=1e-23, gamma=1e133, spectrum=[1.0])  # R_hat and R subnormal
    @example(alpha=1.013, sigma=1e-15, gamma=1.0, spectrum=list(np.geomspace(1e-3, 1e3, 32)))
    @settings(max_examples=300, deadline=None)
    def test_r_a_b_m1_m2_and_slope(self, alpha, sigma, gamma, spectrum):
        if sigma**2 * alpha / gamma**2 == 0.0 and alpha >= 1:
            with pytest.raises(ValueError, match="ridgeless"):
                solve_ridge(alpha, sigma, gamma, spectrum)
            return
        de = solve_ridge(alpha, sigma, gamma, spectrum)
        with mp.workdps(50):
            R, a, b, slope = mp_ridge(alpha, spectrum, de.R_hat, de.R)
            assert_close(de.R, R)
            for value, ref in [*zip(de.a, a), *zip(de.b, b)]:
                assert_close(value, ref)
            assert_close(de.m1, mp.fsum(a) / len(a))
            assert_close(de.m2, mp.fsum(x * x for x in a) / len(a))
            assert_close(de.slope, slope)

    def test_slope_is_one_minus_alpha_m2_where_that_does_not_cancel(self):
        de = solve_ridge(0.3, 0.5, 1.0, [0.5, 2.0])
        assert de.slope == pytest.approx(1.0 - 0.3 * de.m2, rel=1e-15)


class TestIsotropicRidge:
    def test_zero_rhat(self):
        assert isotropic_ridge(0.5, 0.0, 1.0, 1.0) == 0.0

    def test_small_alpha_goes_to_rhat(self):
        gamma = 1.0
        sigma = 0.7
        alpha = 1e-10
        rhat = sigma**2 * alpha / gamma**2
        assert isotropic_ridge(alpha, sigma, gamma, 1.0) == pytest.approx(rhat, rel=1e-4)

    def test_half_alpha_unit_rhat(self):
        # alpha = 0.5, R_hat = S^2 = 1: R = (0.5 + sqrt(0.25 + 4)) / 2.
        sigma = math.sqrt(2.0)  # R_hat = sigma^2 * 0.5 = 1 at gamma = 1
        R = isotropic_ridge(0.5, sigma, 1.0, 1.0)
        assert R == pytest.approx(0.5 * (0.5 + math.sqrt(4.25)), rel=1e-14)
        residual = R * (1 - 0.5 * (1.0 / (1.0 + R))) - 1.0
        assert abs(residual) < 1e-12


class TestDeMoments:
    def test_origin(self):
        cfg = ModelConfig(d=4, n=100, sigma=0.3)
        de = solve_for_config(cfg)
        w = np.ones(4)
        means, variances = de_moments_batch(np.zeros((1, 4)), w, de, cfg)
        assert means[0] == 0.0
        assert variances[0] == pytest.approx(cfg.sigma**2, rel=1e-15)

    def test_zero_ridge_reproduces_teacher(self):
        cfg = ModelConfig(d=3, n=30, sigma=0.0)
        de = solve_for_config(cfg)
        assert de.R == 0.0
        w = np.array([1.0, -1.0, 2.0])
        x = np.array([0.3, 0.7, -0.2])
        means, variances = de_moments_batch(x[None, :], w, de, cfg)
        assert means[0] == pytest.approx(w @ x / math.sqrt(3), rel=1e-14)
        assert variances[0] == pytest.approx(cfg.sigma**2, abs=1e-30)

    def test_matches_exact_posterior_in_validity_regime(self):
        # d=50, n=5000: closed-form moments against the exact posterior
        # averaged over 20 datasets, 2% relative (L2 over 100 test points for
        # the means, pointwise for the variances).
        cfg = ModelConfig(d=50, n=5000, S=1.0, sigma=1e-2, gamma=1.0)
        seed = 123
        w = sample_teacher(cfg, stream(seed, "teacher"))
        de = solve_for_config(cfg)
        X = stream(seed, "test_points").normal(0.0, cfg.S, size=(100, cfg.d))
        de_means, de_vars = de_moments_batch(X, w, de, cfg)
        acc_means = np.zeros(100)
        acc_vars = np.zeros(100)
        n_sets = 20
        for j in range(n_sets):
            data = generate_dataset(cfg, w, stream(seed, "data", j))
            post = fit_posterior(data, cfg)
            m, v = predictive_moments_batch(post, X @ post.basis)
            acc_means += m
            acc_vars += v
        acc_means /= n_sets
        acc_vars /= n_sets
        mean_rel = np.linalg.norm(de_means - acc_means) / np.linalg.norm(acc_means)
        assert mean_rel < 0.02
        assert np.max(np.abs(de_vars / acc_vars - 1.0)) < 0.02

    def test_diagonal_spectrum_path(self):
        cfg = ModelConfig(d=3, n=300, sigma=0.1, gamma=1.0)
        spectrum = np.array([0.5, 1.0, 2.0])
        de = solve_ridge(cfg.alpha, cfg.sigma, cfg.gamma, spectrum)
        w = np.array([1.0, 2.0, -1.0])
        x = np.array([0.5, -0.5, 1.0])
        means, variances = de_moments_batch(x[None, :], w, de, cfg)
        xs = x / math.sqrt(3)
        a = spectrum / (spectrum + de.R)
        expected_mean = xs @ (a * w)
        expected_var = cfg.sigma**2 + cfg.gamma**2 * (xs**2) @ (1 - a)
        assert means[0] == pytest.approx(expected_mean, rel=1e-14)
        assert variances[0] == pytest.approx(expected_var, rel=1e-14)


class TestNoiseVarianceCheck:
    def test_vanishes_at_small_alpha(self):
        de = solve_ridge(1e-8, 0.3, 1.0, [1.0])
        out = noise_variance_check(de, 0.3)
        assert out.var_z < 1e-8
        assert out.valid

    def test_suppressed_at_large_ridge(self):
        # Large R_hat drives m2 -> 0 and the noise term with it.
        de = solve_ridge(0.5, 30.0, 1.0, [1.0])
        assert de.R > 100
        out = noise_variance_check(de, 30.0)
        assert de.m2 < 1e-4
        assert out.var_z < 30.0**2 * 1e-3

    def test_divergence_raises(self):
        # A handcrafted DetEquiv in the divergent zone alpha*m2 >= 1.
        from itslab.ridge import DetEquiv

        de = DetEquiv(
            R=0.0, R_hat=0.0, alpha=1.5, spectrum=np.array([1.0]),
            m1=1.0, m2=1.0,
        )
        with pytest.raises(ValueError, match="diverges"):
            noise_variance_check(de, 0.1)

    def test_matches_simulated_label_noise_term(self):
        # Direct simulation of the omitted noise term
        # Z(x) = (1/sigma^2) (x/sqrt(d))^T Omega sum_i eta_i x_i/sqrt(d)
        # over 200 datasets, 10% relative on its variance.
        cfg = ModelConfig(d=40, n=400, S=1.0, sigma=0.1, gamma=1.0)
        de = solve_for_config(cfg)
        predicted = noise_variance_check(de, cfg.sigma).var_z
        rng = np.random.default_rng(2024)
        samples = []
        n_x = 5
        for _ in range(200):
            X = rng.normal(0.0, cfg.S, size=(cfg.n, cfg.d))
            eta = rng.normal(0.0, cfg.sigma, size=cfg.n)
            Xs = X / math.sqrt(cfg.d)
            prec = Xs.T @ Xs / cfg.sigma**2 + np.eye(cfg.d) / cfg.gamma**2
            omega = np.linalg.solve(prec, np.eye(cfg.d))
            rhs = Xs.T @ eta
            for _ in range(n_x):
                x = rng.normal(0.0, cfg.S, size=cfg.d)
                xs = x / math.sqrt(cfg.d)
                samples.append(xs @ omega @ rhs / cfg.sigma**2)
        var_emp = np.var(samples, ddof=1)
        assert abs(var_emp - predicted) < 0.10 * predicted


class TestSolvedOncePerConfig:
    @pytest.mark.parametrize("argv", [
        ["sweep-k", "--k-grid", "1,3", "--c-grid", "0,1"],
        ["bestofk-check", "--k-grid", "4,16"],
        # one solve per n: scaling_derivatives differentiates it, and solves nothing
        ["tradeoff", "--n-grid", "300,3000", "--k-grid", "2"],
    ])
    def test_theory_columns_and_engine_share_one_solve(self, argv, tmp_path):
        from itslab.cli import main as cli_main

        solve_for_config.cache_clear()
        flags = ["--d", "6", "--n", "300", "--sigma", "0.05", "--gamma", "0.5", "--n-outer", "4",
                 "--n-inner", "3", "--out", str(tmp_path / "out.csv")]
        with mock.patch.object(ridge, "_fixed_point", wraps=ridge._fixed_point) as solve:
            assert cli_main(argv + flags) == 0
        assert solve.call_count == (2 if argv[0] == "tradeoff" else 1)

    def test_kept_solution_is_read_only(self):
        de = solve_for_config(ModelConfig(d=6, n=300))
        assert de is solve_for_config(ModelConfig(d=6, n=300))
        with pytest.raises(ValueError):
            de.spectrum[0] = 2.0
