import math
import warnings

import numpy as np
import pytest

from itslab import (
    ModelConfig,
    RewardSpec,
    SeriesTerms,
    de_moments_batch,
    delta_c_curve,
    dlogn_flat_prior,
    high_t_delta_batch,
    high_t_delta_x,
    optimal_k,
    optimal_reward,
    optimal_temperature,
    refined_best_of_k_delta,
    resolve_reward,
    sample_teacher,
    scaling_derivatives,
    solve_for_config,
    solve_ridge,
    stream,
)

from _synth import delta_x

FIG_LIKE = dict(S=1.0, sigma=1e-4, gamma=1e-3)


class TestSeriesTerms:
    def test_coefficients_formula(self):
        st = SeriesTerms(delta_T=0.5, delta_R=-0.25, s2=2.0, t=10.0)
        c1, c2, c3 = st.C
        assert c1 == 2 * 0.5 * (-0.25) + 2.0
        assert c2 == c1 + 0.25**2
        assert c3 == c1 + 2 * 0.25**2

    def test_recurrence_exact_on_dyadics(self):
        st = SeriesTerms(delta_T=0.5, delta_R=0.25, s2=1.0, t=8.0)
        c1, c2, c3 = st.C
        assert c2 - c1 == st.delta_R**2
        assert c3 - c2 == st.delta_R**2

    def test_recurrence_near_exact_generally(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            st = SeriesTerms(
                delta_T=rng.normal(),
                delta_R=rng.normal(),
                s2=float(rng.uniform(0.1, 5)),
                t=10.0,
            )
            c1, c2, c3 = st.C
            scale = max(abs(c1), abs(c2), abs(c3), st.delta_R**2)
            assert abs((c2 - c1) - st.delta_R**2) <= 1e-12 * scale
            assert abs((c3 - c2) - st.delta_R**2) <= 1e-12 * scale

    def test_radial_average_matches_numeric_average(self):
        cfg = ModelConfig(d=10, n=10_000, **FIG_LIKE)
        de = solve_for_config(cfg)
        w_T = sample_teacher(cfg, stream(3, "teacher"))
        w_R = resolve_reward(RewardSpec.radial(5.0), w_T, de.R, cfg.S)
        T = 20 * cfg.sigma**2
        st = SeriesTerms.from_radial_average(cfg, de, w_T, w_R, T)
        X = stream(3, "test_points").normal(0.0, cfg.S, size=(400_000, cfg.d))
        for k in (2, 10):
            series = high_t_delta_x(st, k)
            numeric = high_t_delta_batch(cfg, de, w_T, w_R, T, k, X).mean()
            # the x-average of C_l / t(x)^l differs from C_l-bar / t-bar^l only
            # through the tiny x-dependence of s^2
            assert series == pytest.approx(numeric, rel=2e-3)

    def test_radial_average_rejects_nonparallel(self):
        cfg = ModelConfig(d=2, n=10_000, **FIG_LIKE)
        de = solve_for_config(cfg)
        w_T = np.array([2.0, 0.0])
        w_R = w_T + np.array([0.0, 0.5])  # perpendicular offset
        with pytest.raises(ValueError, match="colinear"):
            SeriesTerms.from_radial_average(cfg, de, w_T, w_R, 1e-3)


class TestHighTSeries:
    def test_exact_at_k1_for_all_t(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            st = SeriesTerms(
                delta_T=rng.normal(),
                delta_R=rng.normal(),
                s2=float(rng.uniform(0.5, 2)),
                t=float(rng.uniform(0.1, 100)),
            )
            assert high_t_delta_x(st, 1) == st.delta_T**2 + st.s2

    def test_infinite_t_limit(self):
        st = SeriesTerms(delta_T=0.3, delta_R=0.7, s2=1.2, t=1e30)
        assert high_t_delta_x(st, 10) == pytest.approx(0.3**2 + 1.2, rel=1e-15)

    def test_frozen_arithmetic_example(self):
        # delta_T = delta_R = 0, s = 1: every C_l = 1.
        st = SeriesTerms(delta_T=0.0, delta_R=0.0, s2=1.0, t=50.0)
        expected = 1 - 0.9 / 50 + (0.9 * 0.8) / 2500 - (0.9 * 0.8 * 0.7) / 125000
        assert expected == pytest.approx(0.982283968, abs=1e-9)
        assert high_t_delta_x(st, 10) == pytest.approx(expected, rel=1e-15)

    def test_mc_cross_check(self):
        st = SeriesTerms(delta_T=0.0, delta_R=0.0, s2=1.0, t=50.0)
        series = high_t_delta_x(st, 10)
        mean, se = delta_x(m=0.0, s2=1.0, mu_T=0.0, mu_R=0.0, k=10, T=100.0,
                           n_inner=200_000, rng=stream(11, "inference"))
        # 4 stderr plus a proxy for the dropped t^{-4} remainder
        c3_term = (0.9 * 0.8 * 0.7) / 50**3
        assert abs(mean - series) < 4 * se + 5 * c3_term / 50

    def test_low_t_caveat(self):
        st = SeriesTerms(delta_T=0.0, delta_R=0.0, s2=1.0, t=2.0)
        assert st.caveat == "series evaluated at t = 2 < 5.0; the dropped remainder may not be negligible"
        for t in (5.0, 50.0):  # the caveat holds below t = 5 only
            assert SeriesTerms(delta_T=0.0, delta_R=0.0, s2=1.0, t=t).caveat is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the caveat is data: the series itself emits no warning
            # every C_l = 1: 1 - (4/5)/2 + (4/5)(3/5)/4 - (4/5)(3/5)(2/5)/8
            assert high_t_delta_x(st, 5) == pytest.approx(0.696, rel=1e-15)

    def test_k_below_one_rejected(self):
        st = SeriesTerms(delta_T=0.0, delta_R=0.0, s2=1.0, t=10.0)
        with pytest.raises(ValueError):
            high_t_delta_x(st, 0)


class TestRefinedBestOfK:
    def test_tiny_concentration_reduces_to_plain_law(self):
        cfg = ModelConfig(d=10, n=10**7, **FIG_LIKE)
        de = solve_for_config(cfg)
        w = sample_teacher(cfg, stream(5, "teacher"))
        out = refined_best_of_k_delta(cfg, de, w, k=100)
        assert out.concentration < 1e-6
        assert out.value == pytest.approx(math.pi * cfg.sigma**2 / 100**2, rel=1e-5)
        assert out.value >= math.pi * cfg.sigma**2 / 100**2

    def test_matches_x_averaged_pointwise_law(self):
        # E_x[(pi/k^2) s^2(x) exp(dT^2/s^2)] by direct x-sampling, 3% relative.
        cfg = ModelConfig(d=10, n=10_000, **FIG_LIKE)
        de = solve_for_config(cfg)
        w = sample_teacher(cfg, stream(6, "teacher"))
        k = 1000
        out = refined_best_of_k_delta(cfg, de, w, k)
        assert out.regime_ok
        X = stream(6, "test_points").normal(0.0, cfg.S, size=(400_000, cfg.d))
        m, s2 = de_moments_batch(X, w, de, cfg)
        dT = m - X @ w / math.sqrt(cfg.d)
        pointwise = (math.pi / k**2) * s2 * np.exp(dT**2 / s2)
        assert out.value == pytest.approx(float(pointwise.mean()), rel=0.03)

    def test_task_difficulty_degrades_scaled_error(self):
        # doubling sigma increases delta/sigma^2 through the concentration
        cfg1 = ModelConfig(d=10, n=10_000, **FIG_LIKE)
        cfg2 = ModelConfig(d=10, n=10_000, S=1.0, sigma=2e-4, gamma=1e-3)
        w = sample_teacher(cfg1, stream(7, "teacher"))
        v1 = refined_best_of_k_delta(cfg1, solve_for_config(cfg1), w, 100)
        v2 = refined_best_of_k_delta(cfg2, solve_for_config(cfg2), w, 100)
        assert v2.value / cfg2.sigma**2 > v1.value / cfg1.sigma**2

    def test_domain_error(self):
        cfg = ModelConfig(d=4, n=5, S=1.0, sigma=2.0, gamma=1.0)
        de = solve_for_config(cfg)
        w = np.full(4, 2.0)
        u = de.b[0] * w
        assert 2 * cfg.S**2 * (u @ u) >= cfg.sigma**2 * cfg.d
        with pytest.raises(ValueError, match="outside"):
            refined_best_of_k_delta(cfg, de, w, 10)


class TestOptimalReward:
    def test_zero_residual_factor_returns_teacher(self):
        cfg = ModelConfig(d=4, n=100, sigma=0.0)
        de = solve_for_config(cfg)  # R = 0 so B = 0
        w = np.array([1.0, 2.0, -1.0, 0.5])
        out = optimal_reward(w, de, k=10, t=50.0)
        np.testing.assert_array_equal(out.w, w)
        assert out.shift_ratio == 0.0

    def test_large_k_limit_factor(self):
        cfg = ModelConfig(d=3, n=100, sigma=0.3, gamma=1.0)
        de = solve_for_config(cfg)
        w = np.ones(3)
        t = 20.0
        out = optimal_reward(w, de, k=10**9, t=t)
        np.testing.assert_allclose(out.w, w + t * de.b[0] * w, rtol=1e-8)

    def test_small_k_rejected(self):
        cfg = ModelConfig(d=3, n=100)
        de = solve_for_config(cfg)
        with pytest.raises(ValueError):
            optimal_reward(np.ones(3), de, k=2, t=10.0)

    def test_c_sweep_minimum_matches_prediction(self):
        # The error over the radial family at fixed (k, T) is minimized at
        # c ~ (k/(k-2)) t ~ T/(2 sigma^2); grid argmin within one log step.
        cfg = ModelConfig(d=10, n=10_000, **FIG_LIKE)
        de = solve_for_config(cfg)
        T = 100 * cfg.sigma**2
        k = 50
        s2_bar = cfg.sigma**2 + cfg.gamma**2 * de.b[0] * cfg.S**2
        t_bar = T / (2 * s2_bar)
        c_pred = (k / (k - 2)) * t_bar
        c_grid = np.geomspace(10.0, 270.0, 12)
        res = delta_c_curve(
            cfg, c_grid, T=T, k=k, n_outer=600, n_inner=100, seed=31
        )
        c_hat = float(c_grid[int(np.argmin(res.mean))])
        step = math.log(c_grid[1] / c_grid[0])
        assert abs(math.log(c_hat / c_pred)) <= step * 1.0001


class TestOptimalK:
    def _st(self, ratio, t):
        # build terms with C2/C1 = ratio (delta_T = 0 keeps C1 = s2)
        s2 = 1.0
        dr = math.sqrt((ratio - 1.0) * s2)
        return SeriesTerms(delta_T=0.0, delta_R=dr, s2=s2, t=t)

    def test_monotone_regime_none(self):
        st = self._st(ratio=2.0, t=6.0)  # t* = 6 exactly, t >= t*
        assert optimal_k(st) is None
        assert optimal_k(self._st(ratio=2.0, t=8.0)) is None

    def test_halfway_gives_three(self):
        st = self._st(ratio=2.0, t=3.0)  # t* = 6, t = t*/2
        assert optimal_k(st) == 3

    def test_aligned_reward_is_monotone(self):
        # delta_R = 0 makes t* = 3; any t > 3 is monotone.
        st = SeriesTerms(delta_T=0.2, delta_R=0.0, s2=1.0, t=5.0)
        assert optimal_k(st) is None

    def test_negative_coefficients_none(self):
        st = SeriesTerms(delta_T=1.0, delta_R=-1.0, s2=0.5, t=10.0)
        assert st.C[0] < 0
        assert optimal_k(st) is None


class TestOptimalTemperature:
    def test_large_k_limit(self):
        dT, dR, s2 = 0.1, 0.5, 1.0
        c1 = 2 * dT * dR + s2
        c2 = c1 + dR**2
        T = optimal_temperature(dT, dR, s2, k=10**9)
        assert T == pytest.approx(2 * s2 * 2 * c2 / c1, rel=1e-8)

    def test_aligned_reward_collapse(self):
        # delta_R = 0: C2 = C1, so t_opt = 2 (1 - 2/k).
        T = optimal_temperature(0.3, 0.0, 2.0, k=10)
        assert T == pytest.approx(2 * 2.0 * 2 * (1 - 0.2), rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            optimal_temperature(0.1, 0.5, 1.0, k=2)
        with pytest.raises(ValueError):
            optimal_temperature(1.0, -1.0, 0.5, k=10)  # C1 < 0


class TestScalingDerivatives:
    def test_dlogk_exactly_minus_two(self):
        cfg = ModelConfig(d=10, n=30_000, **FIG_LIKE)
        de = solve_for_config(cfg)
        w = sample_teacher(cfg, stream(9, "teacher"))
        out = scaling_derivatives(cfg, de, w)
        assert out.dlogk == -2.0

    def test_closed_form_cross_check(self):
        cfg = ModelConfig(d=10, n=20_000, **FIG_LIKE)
        de = solve_for_config(cfg)
        w = sample_teacher(cfg, stream(9, "teacher"))
        fd = scaling_derivatives(cfg, de, w).dlogn
        closed = dlogn_flat_prior(cfg, w)
        assert fd == pytest.approx(closed, rel=0.01)

    def test_flat_prior_limit_past_the_float_range(self):
        # gamma^4 overflows while gamma^2 does not: the ridge term vanishes
        cfg = ModelConfig(d=3, n=30, sigma=1e-4, gamma=1e100)
        w = sample_teacher(cfg, stream(9, "teacher"))
        assert dlogn_flat_prior(cfg, w) == 0.0
        assert scaling_derivatives(cfg, solve_for_config(cfg), w).dlogn == 0.0

    def test_training_derivative_subdominant(self):
        cfg = ModelConfig(d=10, n=30_000, **FIG_LIKE)
        de = solve_for_config(cfg)
        w = sample_teacher(cfg, stream(9, "teacher"))
        out = scaling_derivatives(cfg, de, w)
        assert abs(out.dlogn) < 0.02
        assert abs(out.dlogn) < 0.02 * abs(out.dlogk)

    def test_vanishes_with_ample_data(self):
        cfg = ModelConfig(d=10, n=10**8, **FIG_LIKE)
        de = solve_for_config(cfg)
        w = sample_teacher(cfg, stream(9, "teacher"))
        assert abs(scaling_derivatives(cfg, de, w).dlogn) < 1e-6


def test_refined_law_never_below_plain_floor():
    # the averaged prefactor is >= 1 across its whole domain
    for n in (2_000, 10_000, 100_000):
        for sigma in (1e-4, 1e-3, 1e-2):
            cfg = ModelConfig(d=10, n=n, S=1.0, sigma=sigma, gamma=1e-3)
            de = solve_for_config(cfg)
            w = sample_teacher(cfg, stream(1, "teacher"))
            try:
                out = refined_best_of_k_delta(cfg, de, w, 50)
            except ValueError:
                continue  # outside the closed form's domain
            assert out.value >= math.pi * cfg.sigma**2 / 50**2


class TestSpectrumRepresentation:
    """A length-1 spectrum [S^2] is Cov = S^2 I; a full spectrum is any diagonal Cov."""

    def test_length_one_spectrum_equals_full_spectrum(self):
        cfg = ModelConfig(d=6, n=60, S=1.7, sigma=0.3, gamma=1.0)
        w_T = sample_teacher(cfg, stream(11, "teacher"))
        X = stream(11, "test_points").normal(0.0, cfg.S, size=(20, cfg.d))
        short, full = (
            solve_ridge(cfg.alpha, cfg.sigma, cfg.gamma, spectrum)
            for spectrum in ([cfg.S**2], np.full(cfg.d, cfg.S**2))
        )

        def outputs(de):
            w_R = resolve_reward(RewardSpec.radial(3.0), w_T, de.R, cfg.S)
            st = SeriesTerms.from_radial_average(cfg, de, w_T, w_R, 0.5)
            refined = refined_best_of_k_delta(cfg, de, w_T, 40)
            sd = scaling_derivatives(cfg, de, w_T)
            opt = optimal_reward(w_T, de, k=10, t=5.0)
            return np.concatenate([
                *de_moments_batch(X, w_T, de, cfg),
                [st.delta_T, st.delta_R, st.s2, st.t],
                [refined.value, refined.concentration],
                [sd.dlogk, sd.dlogn],
                opt.w, [opt.shift_ratio],
            ])

        np.testing.assert_allclose(outputs(short), outputs(full), rtol=1e-12, atol=0)

    def test_three_eigenvalue_spectrum_against_explicit_matrices(self):
        cfg = ModelConfig(d=3, n=30, sigma=0.5, gamma=1.0)
        spectrum = np.array([0.25, 1.0, 4.0])
        de = solve_ridge(cfg.alpha, cfg.sigma, cfg.gamma, spectrum)
        w = np.array([1.0, -2.0, 0.5])
        cov = np.diag(spectrum)
        B = de.R * np.linalg.inv(cov + de.R * np.eye(3))
        u = B @ w
        conc = 2.0 * (u @ cov @ u) / (cfg.sigma**2 * cfg.d)
        out = refined_best_of_k_delta(cfg, de, w, 10)
        assert 0 < out.concentration < 1
        assert out.concentration == pytest.approx(conc, rel=1e-12)
        st = SeriesTerms.from_radial_average(cfg, de, w, w, 1.0)
        assert st.s2 == pytest.approx(
            cfg.sigma**2 + cfg.gamma**2 * np.trace(B @ cov) / cfg.d, rel=1e-12
        )
        # aligned reward: both deviations are -B w, so both terms are sqrt(u^T Cov u / d)
        assert st.delta_R == pytest.approx(math.sqrt(u @ cov @ u / cfg.d), rel=1e-12)
        assert st.delta_T == pytest.approx(st.delta_R, rel=1e-12)
