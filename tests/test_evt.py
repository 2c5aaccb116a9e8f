import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import ncx2

from itslab import (
    chisq1_cdf,
    chisq1_pdf,
    chisq1_quantile,
    stream,
    weibull_norming,
)

from _synth import min_chisq1


class TestChisq1Cdf:
    def test_right_endpoint(self):
        # The written closed form evaluates to exactly 1 at v = 0: the two
        # erf terms cancel by oddness for every lambda.
        assert chisq1_cdf(0.0, 0.0) == 1.0
        for lam in (0.1, 1.0, 5.0):
            assert chisq1_cdf(0.0, lam) == pytest.approx(1.0, abs=1e-15)

    def test_central_survival_at_one(self):
        # v = -1, lambda = 0: survival of chi^2_1 at 1.
        expected = 1 - math.erf(1 / math.sqrt(2))  # 0.31731050786291415
        assert chisq1_cdf(-1.0, 0.0) == pytest.approx(expected, rel=1e-14)
        assert chisq1_cdf(-1.0, 0.0) == pytest.approx(0.31731, abs=5e-6)

    def test_positive_v_rejected(self):
        with pytest.raises(ValueError):
            chisq1_cdf(0.5, 0.0)
        with pytest.raises(ValueError):
            chisq1_cdf(np.array([-1.0, 1.0]), 0.0)

    def test_matches_density_quadrature(self):
        # integrate the density from -inf to v and compare with the closed form
        lam, v = 1.0, -0.25
        val, err = integrate.quad(lambda u: chisq1_pdf(u, lam), -60.0, v, limit=400)
        assert err < 1e-10
        assert abs(val - chisq1_cdf(v, lam)) < 1e-8

    def test_matches_independent_noncentral_survival(self):
        vs = -np.geomspace(1e-6, 40.0, 50)
        for lam in (0.0, 0.3, 1.0, 4.0):
            ours = chisq1_cdf(vs, lam)
            ref = ncx2.sf(-vs, df=1, nc=lam)
            np.testing.assert_allclose(ours, ref, atol=1e-12)

    def test_monotone_with_correct_tails(self):
        for lam in (0.0, 0.7, 3.0):
            vs = np.linspace(-90.0, 0.0, 400)
            F = chisq1_cdf(vs, lam)
            assert np.all(np.diff(F) >= 0)
            assert F[0] < 1e-12
            assert F[-1] == pytest.approx(1.0, abs=1e-15)

    def test_not_gumbel_type(self):
        # The auxiliary slope a'(v) = ((1-F)/F')' tends to -2, not 0, near
        # the right endpoint, ruling out a Gumbel limit for the maximum.
        lam = 0.5

        def aux(v):
            return (1 - chisq1_cdf(v, lam)) / chisq1_pdf(v, lam)

        v = -1e-5
        h = 1e-7
        slope = (aux(v + h) - aux(v - h)) / (2 * h)
        assert abs(slope) > 1.0


class TestQuantile:
    def test_roundtrip(self):
        for lam in (0.0, 0.5, 2.0):
            for p in (0.01, 0.3, 0.9, 0.999):
                v = chisq1_quantile(p, lam)
                assert v <= 0
                assert chisq1_cdf(v, lam) == pytest.approx(p, abs=1e-12)

    def test_bracket_reaches_a_far_quantile(self):
        # the median of (z + sqrt(lambda))^2 is lambda + O(1), far below -1e12
        assert chisq1_quantile(0.5, 1e13) == pytest.approx(-1e13, rel=1e-9)

    def test_quantile_past_the_float_range_raises(self):
        with pytest.raises(ValueError, match="float range"):
            chisq1_quantile(0.5, 1e308)


class TestWeibullNorming:
    def test_k1_central(self):
        assert weibull_norming(0.0, 1) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_quantile_gap_ratio(self):
        # c_k against its defining quantile gap 0 - F^{<-}(1 - 1/k).
        for lam in (0.0, 0.5):
            k = 10_000
            gap = -chisq1_quantile(1.0 - 1.0 / k, lam)
            assert gap / weibull_norming(lam, k) == pytest.approx(1.0, abs=0.02)

    def test_mc_mean_ratio(self):
        # E[min] ~ Gamma(1 + 1/alpha) c_k = 2 c_k for shape 1/2.
        lam, k = 0.5, 1000
        mean = min_chisq1(lam, k, 200_000, stream(77, "evt")).mean()
        assert mean / (2 * weibull_norming(lam, k)) == pytest.approx(1.0, abs=0.05)


class TestMinChisqMc:
    """Monte Carlo of the minimum of k chi^2_1(lambda) draws, drawn exactly by inversion."""

    def test_k1_central_mean(self):
        mins = min_chisq1(0.0, 1, 100_000, stream(1, "evt"))
        assert abs(mins.mean() - 1.0) < 4 * mins.std(ddof=1) / math.sqrt(mins.size)

    def test_k1_noncentral_mean(self):
        mins = min_chisq1(2.0, 1, 100_000, stream(2, "evt"))
        assert abs(mins.mean() - 3.0) < 4 * mins.std(ddof=1) / math.sqrt(mins.size)

    def test_tail_law_cross_check(self):
        mean = min_chisq1(0.0, 1000, 100_000, stream(3, "evt")).mean()
        assert mean * 1000**2 == pytest.approx(math.pi, rel=0.05)

    def test_inversion_matches_brute_force(self):
        # the minima of 1e5 rows of k squared normals against 1e6 inverted minima
        lam, k, n_mc = 0.5, 1000, 100_000
        rng = stream(6, "evt")
        brute = np.empty(n_mc)
        rows = (1 << 22) // k
        for done in range(0, n_mc, rows):
            z = rng.standard_normal((min(rows, n_mc - done), k)) + math.sqrt(lam)
            brute[done : done + len(z)] = (z * z).min(axis=1)
        exact = min_chisq1(lam, k, 1_000_000, stream(7, "evt"))
        se = math.hypot(brute.std(ddof=1) / math.sqrt(brute.size), exact.std(ddof=1) / math.sqrt(exact.size))
        assert abs(brute.mean() - exact.mean()) < 4 * se

    def test_mean_nonincreasing_in_k(self):
        # Prefix minima of a shared draw matrix are pointwise ordered, so the
        # means are ordered too; reproduce that with common random numbers.
        rng = stream(4, "evt")
        z = rng.standard_normal((20_000, 64)) + math.sqrt(0.3)
        sq = z**2
        means = [sq[:, :k].min(axis=1).mean() for k in (1, 2, 4, 8, 16, 32, 64)]
        assert np.all(np.diff(means) < 0)

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_weibull_shape_kolmogorov(self, lam):
        # Empirical CDF of min/c_k against 1 - exp(-sqrt(x)) on [0, 4].
        k, n_mc = 10_000, 100_000
        scaled = np.sort(min_chisq1(lam, k, n_mc, stream(5, "evt", str(lam))) / weibull_norming(lam, k))
        xs = np.linspace(0.0, 4.0, 401)
        ecdf = np.searchsorted(scaled, xs, side="right") / n_mc
        target = 1.0 - np.exp(-np.sqrt(xs))
        assert np.max(np.abs(ecdf - target)) < 0.02


def test_pdf_rejects_nonnegative_support():
    with pytest.raises(ValueError):
        chisq1_pdf(0.0, 1.0)
    with pytest.raises(ValueError):
        chisq1_pdf(np.array([-1.0, 0.5]), 0.0)
