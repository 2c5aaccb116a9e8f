import math
import re
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from itslab import (
    ModelConfig,
    RewardSpec,
    SeriesTerms,
    de_moments_batch,
    delta_c_curve,
    dlogn_flat_prior,
    high_t_delta_x,
    optimal_c,
    optimal_k,
    optimal_temperature,
    refined_best_of_k_delta,
    resolve_reward,
    sample_teacher,
    scaling_derivatives,
    solve_for_config,
    solve_ridge,
    stream,
)

from _synth import (
    MP_CONFIGS,
    assert_close,
    delta_x,
    high_t_delta_batch,
    mp_dlogn,
    mp_dlogn_flat_prior,
    mp_optimal_temperature,
    mp_radial_terms,
    mp_refined_best_of_k,
    x_statistics,
)

FIG_LIKE = dict(S=1.0, sigma=1e-4, gamma=1e-3)


def _terms(dT, dR, s2, t):
    """The series terms of one point with deviations Dt = dT and Dr = dR."""
    return SeriesTerms(dt2=dT * dT, dtdr=dT * dR, dr2=dR * dR, s2=s2, t=t)


class TestSeriesTerms:
    def test_coefficients_formula(self):
        st = _terms(0.5, -0.25, s2=2.0, t=10.0)
        c1, c2, c3 = st.C
        assert c1 == 2 * 0.5 * (-0.25) + 2.0
        assert c2 == c1 + 0.25**2
        assert c3 == c1 + 2 * 0.25**2

    def test_recurrence_exact_on_dyadics(self):
        st = _terms(0.5, 0.25, s2=1.0, t=8.0)
        c1, c2, c3 = st.C
        assert c2 - c1 == st.dr2
        assert c3 - c2 == st.dr2

    def test_recurrence_near_exact_generally(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            st = _terms(rng.normal(), rng.normal(), s2=float(rng.uniform(0.1, 5)), t=10.0)
            c1, c2, c3 = st.C
            scale = max(abs(c1), abs(c2), abs(c3), st.dr2)
            assert abs((c2 - c1) - st.dr2) <= 1e-12 * scale
            assert abs((c3 - c2) - st.dr2) <= 1e-12 * scale

    def test_radial_average_matches_numeric_average(self):
        cfg = ModelConfig(d=10, n=10_000, **FIG_LIKE)
        de = solve_for_config(cfg)
        w_T = sample_teacher(cfg, stream(3, "teacher"))
        w_R = resolve_reward(RewardSpec.radial(5.0), w_T, de.R, cfg.S)
        T = 20 * cfg.sigma**2
        st = SeriesTerms.averaged(cfg, de, w_T, w_R, T)
        X = stream(3, "test_points").normal(0.0, cfg.S, size=(400_000, cfg.d))
        for k in (2, 10):
            series = high_t_delta_x(st, k)
            numeric = high_t_delta_batch(cfg, de, w_T, w_R, T, k, X).mean()
            # the x-average of C_l / t(x)^l differs from C_l-bar / t-bar^l only
            # through the tiny x-dependence of s^2
            assert series == pytest.approx(numeric, rel=2e-3)

    def test_perpendicular_offset_average_matches_numeric_average(self):
        # a reward off the teacher's line: the moments average the series as for a radial one
        cfg = ModelConfig(d=2, n=10_000, **FIG_LIKE)
        de = solve_for_config(cfg)
        w_T = np.array([2.0, 0.0])
        w_R = w_T + np.array([0.0, 0.5])  # perpendicular offset
        T = 1e-3
        st = SeriesTerms.averaged(cfg, de, w_T, w_R, T)
        assert st.dtdr**2 < st.dt2 * st.dr2  # Dt and Dr are not colinear
        X = stream(3, "test_points").normal(0.0, cfg.S, size=(400_000, cfg.d))
        for k in (2, 10, 100):
            numeric = high_t_delta_batch(cfg, de, w_T, w_R, T, k, X).mean()
            assert high_t_delta_x(st, k) == pytest.approx(numeric, rel=1e-4)

    def test_aligned_reward_at_huge_n(self):
        # w_R = w_T: Dr's weight is -b w_T exactly, so the three moments agree even where b is 1e-12
        cfg = ModelConfig(n=10**13)
        de = solve_for_config(cfg)
        w_T = sample_teacher(cfg, stream(0, "teacher"))
        st = SeriesTerms.averaged(cfg, de, w_T, w_T, 1.0)
        assert st.dt2 == st.dtdr == st.dr2 > 0
        assert st.dt2 == pytest.approx(de.b**2 * cfg.S**2 * (w_T @ w_T) / cfg.d, rel=1e-14)


class TestHighTSeries:
    def test_exact_at_k1_for_all_t(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            st = _terms(rng.normal(), rng.normal(), s2=float(rng.uniform(0.5, 2)), t=float(rng.uniform(0.1, 100)))
            assert high_t_delta_x(st, 1) == st.dt2 + st.s2
        # C_3/t^3 is inf at t = 1e-106, t**2 underflows to 0 at t = 1e-200 and overflows at t = 1e300;
        # the factor 1 - 1/k = 0 drops them all
        for t in (5e-324, 1e-200, 1e-106, 1e300):
            assert high_t_delta_x(_terms(1e-4, 2e-4, s2=1e-8, t=t), 1) == 1e-4**2 + 1e-8

    @pytest.mark.parametrize("k", [3, 4])
    def test_huge_t_past_the_float_range(self, k):
        # t**2 overflows at t = 1e300, where every correction C_l/t^l rounds to 0
        assert high_t_delta_x(_terms(1e-4, 2e-4, s2=1e-8, t=1e300), k) == 1e-4**2 + 1e-8
        # and at t = 1e200, where C_2/t^2 = 1e-100 is the series, C_1 = s^2 = 1e-300 and Dr^2 = 1e300
        st = _terms(0.0, 1e150, s2=1e-300, t=1e200)
        c1, c2, c3 = (Fraction(c) for c in st.C)
        t, terms = Fraction(st.t), (1 - Fraction(1, k), (1 - Fraction(1, k)) * (1 - Fraction(2, k)))
        exact = Fraction(st.s2) - c1 / t * terms[0] + c2 / t**2 * terms[1] - c3 / t**3 * terms[1] * (1 - Fraction(3, k))
        assert high_t_delta_x(st, k) == pytest.approx(float(exact), rel=1e-15)

    def test_negative_value_is_refused(self):
        # the terms of `sweep-k --d 2 --n 20 --T-sigma2 1e-6` at seed 0 and c = 0, whose k = 2 cell is negative
        cfg = ModelConfig(d=2, n=20)
        de = solve_for_config(cfg)
        w_T = sample_teacher(cfg, stream(0, "teacher"))
        st = SeriesTerms.averaged(cfg, de, w_T, w_T, 1e-6 * cfg.sigma**2)
        message = "the high-temperature series is -19.156139367659254 at t = 4.5e-07, k = 2, not a finite value >= 0"
        with pytest.raises(ValueError, match=re.escape(message)):
            high_t_delta_x(st, 2)
        assert high_t_delta_x(st, 1) == st.dt2 + st.s2

    @pytest.mark.parametrize("k", [2, 3, 4, 50])
    def test_tiny_t_is_refused(self, k):
        # t**2 underflows to 0 at t = 1e-200: C_2/t^2 is divided by t twice and is inf, so the value
        # is not finite at k >= 3; at k = 2 only -C_1/t is left, and it is negative
        st = _terms(1e-4, 2e-4, s2=1e-8, t=1e-200)
        with pytest.raises(ValueError, match=re.escape(f"at t = 1e-200, k = {k}, not a finite value >= 0")):
            high_t_delta_x(st, k)

    def test_infinite_t_limit(self):
        st = _terms(0.3, 0.7, s2=1.2, t=1e30)
        assert high_t_delta_x(st, 10) == pytest.approx(0.3**2 + 1.2, rel=1e-15)

    def test_frozen_arithmetic_example(self):
        # Dt = Dr = 0, s = 1: every C_l = 1.
        st = _terms(0.0, 0.0, s2=1.0, t=50.0)
        expected = 1 - 0.9 / 50 + (0.9 * 0.8) / 2500 - (0.9 * 0.8 * 0.7) / 125000
        assert expected == pytest.approx(0.982283968, abs=1e-9)
        assert high_t_delta_x(st, 10) == pytest.approx(expected, rel=1e-15)

    def test_mc_cross_check(self):
        st = _terms(0.0, 0.0, s2=1.0, t=50.0)
        series = high_t_delta_x(st, 10)
        mean, se = delta_x(m=0.0, s2=1.0, mu_T=0.0, mu_R=0.0, k=10, T=100.0,
                           n_inner=200_000, rng=stream(11, "inference"))
        # 4 stderr plus a proxy for the dropped t^{-4} remainder
        c3_term = (0.9 * 0.8 * 0.7) / 50**3
        assert abs(mean - series) < 4 * se + 5 * c3_term / 50

    def test_low_t_caveat(self):
        st = _terms(0.0, 0.0, s2=1.0, t=2.0)
        assert st.caveat == "series evaluated at t = 2 < 5.0; the dropped remainder may not be negligible"
        for t in (5.0, 50.0):  # with Dr = 0 the caveat holds below t = 5 only
            assert _terms(0.0, 0.0, s2=1.0, t=t).caveat is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the caveat is data: the series itself emits no warning
            # every C_l = 1: 1 - (4/5)/2 + (4/5)(3/5)/4 - (4/5)(3/5)(2/5)/8
            assert high_t_delta_x(st, 5) == pytest.approx(0.696, rel=1e-15)

    def test_k_below_one_rejected(self):
        st = _terms(0.0, 0.0, s2=1.0, t=10.0)
        with pytest.raises(ValueError):
            high_t_delta_x(st, 0)

    def test_term_ratio_caveat(self):
        # |C_2|/(|C_1| t) with C_1 = s^2 = 1 and C_2 = 1 + Dr^2, at t = 10
        assert SeriesTerms(dt2=0.0, dtdr=0.0, dr2=3.0, s2=1.0, t=10.0).caveat is None  # ratio 0.4
        assert SeriesTerms(dt2=0.0, dtdr=0.0, dr2=4.0, s2=1.0, t=10.0).caveat == (
            "series terms fall slowly: |C_2|/(|C_1| t) = 0.5 > 0.4; the dropped remainder may not be negligible")
        # C_1 = 0: the first correction vanishes and the second does not
        assert "= inf > 0.4" in SeriesTerms(dt2=0.25, dtdr=-0.5, dr2=1.0, s2=1.0, t=10.0).caveat


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
        u, r2 = x_statistics(X, w)
        m, s2 = de_moments_batch(u, r2, de, cfg)
        dT = m - u
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
        u = de.b * w
        assert 2 * cfg.S**2 * (u @ u) >= cfg.sigma**2 * cfg.d
        with pytest.raises(ValueError, match="outside"):
            refined_best_of_k_delta(cfg, de, w, 10)


class TestOptimalReward:
    """The series' stationary reward w_T + (k/(k-2)) t b w_T, as the radial offset c* = optimal_c(st, k)."""

    def test_zero_residual_factor_returns_teacher(self):
        # R = 0 (sigma = 0) makes b = 0: every radial c, c* included, resolves to the teacher
        cfg = ModelConfig(d=4, n=100, sigma=0.0)
        de = solve_for_config(cfg)
        assert de.R == 0.0
        w = np.array([1.0, 2.0, -1.0, 0.5])
        for c in (optimal_c(_terms(0.0, 0.0, s2=1.0, t=50.0), 10), -1.0, 1e300):
            np.testing.assert_array_equal(resolve_reward(RewardSpec.radial(c), w, de.R, cfg.S), w)

    def test_large_k_limit_factor(self):
        st = _terms(0.1, 0.2, s2=1.0, t=20.0)
        assert optimal_c(st, 10**9) == pytest.approx(st.t, rel=1e-8)
        cs = [optimal_c(st, k) for k in (3, 10, 100, 10**6)]  # falls toward t from above
        assert cs == sorted(cs, reverse=True) and cs[-1] > st.t

    def test_small_k_rejected(self):
        for k in (2, 1, 0):
            with pytest.raises(ValueError, match=f"k must be > 2, got {k}"):
                optimal_c(_terms(0.0, 0.0, s2=1.0, t=10.0), k)

    @pytest.mark.parametrize("config, k, T_sigma2", [
        (dict(d=10, n=10_000, **FIG_LIKE), 50, 100.0),
        (dict(d=3, n=100, sigma=0.3, gamma=1.0), 3, 20.0),
        (dict(), 10**6, 2.0),
        (dict(d=50, n=20, S=2.0, sigma=0.5, gamma=0.1), 7, 500.0),
    ], ids=["figure", "small", "default", "alpha_above_1"])
    def test_radial_reward_is_the_stationary_reward(self, config, k, T_sigma2):
        cfg = ModelConfig(**config)
        de = solve_for_config(cfg)
        w_T = sample_teacher(cfg, stream(7, "teacher"))
        st = SeriesTerms.averaged(cfg, de, w_T, w_T, T_sigma2 * cfg.sigma**2)
        w_R = resolve_reward(RewardSpec.radial(optimal_c(st, k)), w_T, de.R, cfg.S)
        np.testing.assert_allclose(w_R, w_T + (k / (k - 2)) * st.t * de.b * w_T, rtol=1e-14, atol=0)

    def test_c_sweep_minimum_matches_prediction(self):
        # The error over the radial family at fixed (k, T) is minimized at
        # c* = (k/(k-2)) t ~ T/(2 sigma^2); grid argmin within one log step.
        cfg = ModelConfig(d=10, n=10_000, **FIG_LIKE)
        de = solve_for_config(cfg)
        T = 100 * cfg.sigma**2
        k = 50
        w_T = sample_teacher(cfg, stream(31, "teacher"))  # the teacher of delta_c_curve's seed
        c_pred = optimal_c(SeriesTerms.averaged(cfg, de, w_T, w_T, T), k)
        c_grid = np.geomspace(10.0, 270.0, 12)
        res = delta_c_curve(
            cfg, c_grid, T=T, k=k, n_outer=600, n_inner=100, seed=31
        )
        c_hat = float(c_grid[int(np.argmin(res.mean))])
        step = math.log(c_grid[1] / c_grid[0])
        assert abs(math.log(c_hat / c_pred)) <= step * 1.0001


class TestOptimalK:
    def _st(self, ratio, t):
        # build terms with C2/C1 = ratio (Dt = 0 keeps C1 = s2)
        s2 = 1.0
        dr = math.sqrt((ratio - 1.0) * s2)
        return _terms(0.0, dr, s2=s2, t=t)

    def test_monotone_regime_none(self):
        st = self._st(ratio=2.0, t=6.0)  # t* = 6 exactly, t >= t*
        assert optimal_k(st) is None
        assert optimal_k(self._st(ratio=2.0, t=8.0)) is None

    def test_halfway_gives_three(self):
        st = self._st(ratio=2.0, t=3.0)  # t* = 6, t = t*/2
        assert optimal_k(st) == 3

    def test_aligned_reward_is_monotone(self):
        # Dr = 0 makes t* = 3; any t > 3 is monotone.
        st = _terms(0.2, 0.0, s2=1.0, t=5.0)
        assert optimal_k(st) is None

    def test_negative_coefficients_none(self):
        st = _terms(1.0, -1.0, s2=0.5, t=10.0)
        assert st.C[0] < 0
        assert optimal_k(st) is None


class TestOptimalTemperature:
    def test_large_k_limit(self):
        dT, dR, s2 = 0.1, 0.5, 1.0
        c1 = 2 * dT * dR + s2
        c2 = c1 + dR**2
        T = optimal_temperature(_terms(dT, dR, s2, 1.0), k=10**9)
        assert T == pytest.approx(2 * s2 * 2 * c2 / c1, rel=1e-8)

    def test_aligned_reward_collapse(self):
        # Dr = 0: C2 = C1, so t_opt = 2 (1 - 2/k).
        T = optimal_temperature(_terms(0.3, 0.0, 2.0, 1.0), k=10)
        assert T == pytest.approx(2 * 2.0 * 2 * (1 - 0.2), rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            optimal_temperature(_terms(0.1, 0.5, 1.0, 1.0), k=2)
        with pytest.raises(ValueError):
            optimal_temperature(_terms(1.0, -1.0, 0.5, 1.0), k=10)  # C1 < 0


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

    def test_flat_prior_q_past_the_float_range(self):
        # 1/S^2 overflows while S^2 > 0 (subnormal): the closed form's limit 1, not inf/inf
        cfg = ModelConfig(d=3, n=30, S=1e-160)
        assert dlogn_flat_prior(cfg, sample_teacher(cfg, stream(9, "teacher"))) == 1.0

    def test_flat_prior_ratio_past_the_float_range(self):
        # 1/S^2 overflows and gamma^4 does too, while sigma^2/(S^2 gamma^4) is about 1e-80
        cfg = ModelConfig(d=3, n=30, S=1e-160, gamma=1e100)
        w = sample_teacher(cfg, stream(9, "teacher"))
        q = (Fraction(w @ w / cfg.d) * cfg.d**2 * Fraction(cfg.sigma) ** 2
             / (cfg.n**2 * Fraction(cfg.S) ** 2 * Fraction(cfg.gamma) ** 4))
        assert dlogn_flat_prior(cfg, w) == pytest.approx(float(-2 * q / (1 - 2 * q)), rel=1e-15, abs=0)

    def test_flat_prior_pole_raises(self):
        # w.w/d = 1/2 and d^2 sigma^2 / (n^2 S^2 gamma^4) = 1: q = 1/2 exactly
        cfg = ModelConfig(d=2, n=2, S=1.0, sigma=1.0, gamma=1.0)
        with pytest.raises(ValueError, match="pole"):
            dlogn_flat_prior(cfg, np.array([1.0, 0.0]))

    def test_flat_prior_at_n_zero_raises(self):
        with pytest.raises(ValueError, match="n = 0"):
            dlogn_flat_prior(ModelConfig(d=2, n=0), np.ones(2))

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


class TestDlognMatchesMpmath:
    """dlogn lands within 1e-12 relative of a 50-digit central difference of two solves (``mp_dlogn``)."""

    @given(**MP_CONFIGS, d=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
    @example(alpha=1.0, sigma=1e-6, gamma=1e6, S2=1.0, d=1, seed=0)
    @example(alpha=0.999999, sigma=1e-3, gamma=1e-2, S2=1e3, d=50, seed=1)
    @settings(max_examples=300, deadline=None)
    def test_random_spectra(self, alpha, sigma, gamma, S2, d, seed):
        if sigma**2 * alpha / gamma**2 == 0.0 and alpha >= 1:
            return  # the ridgeless case, which solve_ridge refuses (TestSolveMatchesMpmath)
        de = solve_ridge(alpha, sigma, gamma, S2)
        w = np.random.default_rng(seed).standard_normal(d)
        self._check(ModelConfig(d=d, sigma=sigma, gamma=gamma), de, w)

    @pytest.mark.parametrize("cfg", [
        ModelConfig(d=10, n=10_000, sigma=1e-2, gamma=1.0),  # 6.8e-6 off by a finite difference
        ModelConfig(d=10, n=3162, **FIG_LIKE),
        ModelConfig(d=10, n=10, sigma=1e-6, gamma=1e6),
    ], ids=["n_1e4_sigma_1e-2", "figure", "alpha_1"])
    def test_isotropic_configs(self, cfg):
        self._check(cfg, solve_for_config(cfg), sample_teacher(cfg, stream(0, "teacher")))

    @staticmethod
    def _check(cfg, de, w):
        ref, denom = mp_dlogn(de.alpha, de.S2, de.R_hat, cfg.sigma, w, de.R)
        if denom <= 0:
            with pytest.raises(ValueError, match="outside the formula's domain"):
                scaling_derivatives(cfg, de, w)
        else:
            assert_close(scaling_derivatives(cfg, de, w).dlogn, ref)


def _ridge_case(alpha, sigma, gamma, S2, d, seed):
    """The solve, its config and a teacher for an MP_CONFIGS draw, with b in mpmath at its R; None if ridgeless."""
    try:
        de = solve_ridge(alpha, sigma, gamma, S2)
    except ValueError as exc:
        assert "ridgeless" in str(exc)
        return None
    cfg = ModelConfig(d=d, S=math.sqrt(S2), sigma=sigma, gamma=gamma)
    with mp.workdps(50):
        R = mp.mpf(de.R)
        b = R / (S2 + R)
    return de, cfg, np.random.default_rng(seed).standard_normal(d), b


_CASES = dict(MP_CONFIGS, d=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
# w_R = c w_T + e roll(w_T): e = 0 is the radial family, c = 1 there the aligned reward; e != 0 turns
# w_R off the teacher's line (d >= 2)
_REWARDS = dict(c=st.one_of(st.floats(-4, 4), st.just(1.0)), e=st.one_of(st.just(0.0), st.floats(-4, 4)),
                T=st.floats(-3, 3).map(lambda x: 10.0**x))


class TestClosedFormsMatchMpmath:
    """The closed forms on the ridge land within 1e-12 relative of their 50-digit values, times their condition number.

    The oracles read the solve's R (whose own error ``TestSolveMatchesMpmath``
    bounds) and every other float input as exact. A value below the normal
    range holds only its last place 2^-1074, which ``assert_close``'s floor
    of 2^-1022 covers: b S^2 enters s2 as a R, which keeps its digits where b
    is subnormal, and the concentration is formed as 2 (b q/sigma)^2, which
    keeps them where the terms of b^2 q^2 fall below the normal range.
    """

    @given(**_CASES, k=st.integers(1, 10**4))
    @example(alpha=1.14e-5, sigma=5.99e-118, gamma=3.13e8, S2=2.02, d=26, seed=0, k=1)  # (b w)^2 underflows
    @settings(max_examples=300, deadline=None)
    def test_refined_best_of_k(self, alpha, sigma, gamma, S2, d, seed, k):
        self._check_refined(alpha, sigma, gamma, S2, d, seed, k)

    @given(**_CASES, **_REWARDS)
    @example(alpha=1e-5, sigma=6e-118, gamma=3e8, S2=2.0, d=26, seed=0, c=1.0, e=0.0, T=40.0)  # (b w)^2 underflows
    @example(alpha=1.0, sigma=1e-132, gamma=3.9e29, S2=300.0, d=12, seed=0, c=3.3, e=0.0, T=50.0)  # and aa did
    @example(alpha=0.5, sigma=1e-14, gamma=1e146, S2=1.0, d=3, seed=0, c=2.0, e=0.0, T=1.0)  # S^2/R overflows, not b
    @example(alpha=0.5, sigma=1e-150, gamma=1e11, S2=300.0, d=5, seed=0, c=1.0, e=0.0, T=1.0)  # R = 1e-322: b is 0
    @example(alpha=0.5, sigma=1e-150, gamma=1e10, S2=3.0, d=5, seed=0, c=1.0, e=0.0, T=1.0)  # b subnormal
    @example(alpha=1e-9, sigma=1e-4, gamma=1e-3, S2=1.0, d=10, seed=0, c=1.0, e=0.0, T=1.0)  # aligned, b = 1e-11
    @example(alpha=1e-3, sigma=1e-4, gamma=1e-3, S2=1.0, d=2, seed=0, c=1.0, e=0.25, T=1.0)  # off the line
    @settings(max_examples=300, deadline=None)
    def test_radial_series_terms(self, alpha, sigma, gamma, S2, d, seed, c, e, T):
        self._check_terms(alpha, sigma, gamma, S2, d, seed, c, e, T)

    @given(**_CASES, **_REWARDS, k=st.integers(3, 10**4))
    @settings(max_examples=300, deadline=None)
    def test_optimal_temperature(self, alpha, sigma, gamma, S2, d, seed, c, e, T, k):
        self._check_optimal_temperature(alpha, sigma, gamma, S2, d, seed, c, e, T, k)

    @staticmethod
    def _check_refined(alpha, sigma, gamma, S2, d, seed, k):
        case = _ridge_case(alpha, sigma, gamma, S2, d, seed)
        if case is None:
            return
        de, cfg, w, b = case
        with mp.workdps(50):
            value, conc = mp_refined_best_of_k(S2, b, sigma, w, k)
        try:
            out = refined_best_of_k_delta(cfg, de, w, k)
        except ValueError as exc:  # the float concentration is >= 1
            assert "outside the closed form's domain" in str(exc)
            assert conc >= 1 - 1e-12, conc
            return
        assert_close(out.concentration, conc)
        if value is not None:  # the pole 1/sqrt(1 - conc), condition number 1/(1 - conc)
            assert_close(out.value, value, rel=1e-12 / float(1 - conc))

    @staticmethod
    def _terms(de, cfg, w, b, c, e, T):
        """The float terms, the 50-digit ones and the summands' magnitudes of E Dt^2, E Dt Dr and E Dr^2."""
        w_R = c * w + e * np.roll(w, 1)
        with mp.workdps(50):
            ref = mp_radial_terms(de.S2, b, cfg.sigma, cfg.gamma, w, w_R, T)
            # Dr's weight (w_T - w_R) - b w_T rounds within 2^-52 of its summands' magnitudes, so each moment
            # is off by that times its other factor: its condition number times its size
            u, v = [abs(b * x) for x in w], [abs(x - y) + abs(b * x) for x, y in zip(w, w_R)]
            r = [abs((x - y) - b * x) for x, y in zip(w, w_R)]
            mags = [de.S2 * mp.fsum(x * y for x, y in zip(p, q)) / len(w) for p, q in ((u, u), (u, v), (r, v))]
        return SeriesTerms.averaged(cfg, de, w, w_R, T), ref, mags

    @classmethod
    def _check_terms(cls, alpha, sigma, gamma, S2, d, seed, c, e, T):
        case = _ridge_case(alpha, sigma, gamma, S2, d, seed)
        if case is None:
            return
        st, (*moments, s2, t, C), mags = cls._terms(*case, c, e, T)
        for value, ref, mag in zip((st.dt2, st.dtdr, st.dr2), moments, mags):
            assert_close(value, ref, rel=0.0, atol=float(2e-12 * mag))
        assert_close(st.s2, s2)
        assert_close(st.t, t)
        # C_l = 2 E Dt Dr + s^2 + (l - 1) E Dr^2 cancels where 2 E Dt Dr nears -s^2: its summands' magnitudes
        for ell, (value, ref) in enumerate(zip(st.C, C)):
            assert_close(value, ref, rel=0.0, atol=float(3e-12 * (2 * mags[1] + s2 + ell * mags[2])))

    @classmethod
    def _check_optimal_temperature(cls, alpha, sigma, gamma, S2, d, seed, c, e, T, k):
        case = _ridge_case(alpha, sigma, gamma, S2, d, seed)
        if case is None:
            return
        st = cls._terms(*case, c, e, T)[0]
        with mp.workdps(50):
            ref, c1, c2 = mp_optimal_temperature(st.dtdr, st.dr2, st.s2, k)
            # C_1 = 2 E Dt Dr + s^2 and C_2 = C_1 + E Dr^2 cancel where 2 E Dt Dr nears -s^2; T_opt ~ C_2/C_1
            mag = 2 * abs(mp.mpf(st.dtdr)) + st.s2
            kappa = (mag / abs(c1) if c1 else mp.inf) + ((mag + st.dr2) / abs(c2) if c2 else mp.inf)
        try:
            value = optimal_temperature(st, k)
        except ValueError as exc:  # C_1 or C_2 <= 0 in floats: so in mpmath, or within rounding of 0
            assert "requires C1 > 0 and C2 > 0" in str(exc)
            assert ref is None or kappa > 1e15, (c1, c2)
            return
        if ref is None:
            assert kappa > 1e15, (c1, c2)
            return
        assert_close(value, ref, rel=1e-12 * float(kappa))


_scale = st.one_of(st.floats(-323, 308), st.floats(-3, 3)).map(lambda e: 10.0**e).filter(lambda x: x > 0)


class TestDlognFlatPriorMatchesMpmath:
    """dlogn_flat_prior lands within 1e-12 (1 + 2q/|1 - 2q|) relative of -2q/(1 - 2q) in mpmath.

    S, sigma, gamma and n span the float range; the factor is the condition
    number of -2q/(1 - 2q) in q (or above it), so q itself must be right to
    about 1e-12 relative.
    """

    @given(S=_scale, sigma=st.one_of(st.just(0.0), _scale), gamma=_scale,
           n=st.one_of(st.floats(0, 308), st.floats(0, 6)).map(lambda e: max(1, int(10.0**e))),
           d=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
    @example(S=1e-155, sigma=1.0, gamma=1.0, n=1, d=1, seed=0)  # 2q past the float range, q not
    @example(S=1.0, sigma=5.624000141233377, gamma=1.0, n=1, d=1, seed=0)  # q rounds to the pole
    @example(S=1.0, sigma=5.6239, gamma=1.0, n=1, d=1, seed=0)  # q = 0.49998: condition number 2.8e4
    @example(S=1e-150, sigma=1e200, gamma=1e150, n=10**50, d=3, seed=0)  # no factor in [2^-100, 2^100]
    @example(S=1e-160, sigma=1.0, gamma=1e100, n=30, d=3, seed=9)  # 1/S^2 and gamma^4 overflow, q does not
    @settings(max_examples=300, deadline=None)
    def test_float_range(self, S, sigma, gamma, n, d, seed):
        w = np.random.default_rng(seed).standard_normal(d)
        q, ref = mp_dlogn_flat_prior(S, sigma, gamma, n, w)
        cfg = ModelConfig(d=d, n=n, S=S, sigma=sigma, gamma=gamma)
        try:
            value = dlogn_flat_prior(cfg, w)
        except ValueError:  # the pole: q rounds to 1/2
            assert abs(1 - 2 * q) < 1e-15, q
            return
        assert_close(value, float(ref), rel=1e-12 * (1 + float(2 * q / abs(1 - 2 * q))))


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


class TestScalarCovariance:
    """Cov = S^2 I, held as the scalar S^2, against explicit d x d matrices at a non-unit S."""

    def test_against_explicit_matrices(self):
        cfg = ModelConfig(d=3, n=30, S=1.7, sigma=0.5, gamma=1.0)
        de = solve_for_config(cfg)
        w = np.array([1.0, -2.0, 0.5])
        cov = cfg.S**2 * np.eye(3)
        B = de.R * np.linalg.inv(cov + de.R * np.eye(3))
        u = B @ w
        conc = 2.0 * (u @ cov @ u) / (cfg.sigma**2 * cfg.d)
        out = refined_best_of_k_delta(cfg, de, w, 10)
        assert 0 < out.concentration < 1
        assert out.concentration == pytest.approx(conc, rel=1e-12)
        st = SeriesTerms.averaged(cfg, de, w, w, 1.0)
        assert st.s2 == pytest.approx(
            cfg.sigma**2 + cfg.gamma**2 * np.trace(B @ cov) / cfg.d, rel=1e-12
        )
        # aligned reward: both deviations are -B w, so every moment is u^T Cov u / d
        assert st.dr2 == pytest.approx(u @ cov @ u / cfg.d, rel=1e-12)
        assert st.dt2 == st.dtdr == st.dr2
