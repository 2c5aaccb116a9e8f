"""The numpy erfc, log Phi and logistic function against mpmath and scipy, and
the Newton start of the T = 0 sampler's root solve."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from itslab import mc
from itslab._special import erfc, expit, log_ndtr

EPS = np.finfo(float).eps
mpmath.mp.dps = 40

# the sampler's domain and both tails: |x| up to 1e4, beyond -38 and 8
_X = np.concatenate([
    np.linspace(-60.0, 37.0, 3881), -np.logspace(-300, 4, 300), np.logspace(-300, math.log10(37), 300),
    [-38.5, -38.0, 8.0, 8.5, 0.0, -0.0],
])
_Z = np.concatenate([
    np.linspace(-6.0, 26.5, 3251), np.logspace(-300, 0, 200), -np.logspace(-300, 0, 200), [0.5, 4.0],
])


def _mp_log_ndtr(x):
    x = mpmath.mpf(x)
    return mpmath.log1p(-mpmath.ncdf(-x)) if x > 0 else mpmath.log(mpmath.ncdf(x))


def _relative_error(values, exact):
    return np.array([float(abs((mpmath.mpf(v) - e) / e)) for v, e in zip(values, exact)])


def test_log_ndtr_within_4_eps_of_mpmath():
    exact = [_mp_log_ndtr(x) for x in _X]
    assert np.max(_relative_error(log_ndtr(_X), exact)) < 4 * EPS


def test_erfc_within_4_eps_of_mpmath():
    exact = [mpmath.erfc(mpmath.mpf(z)) for z in _Z]
    assert np.max(_relative_error(erfc(_Z), exact)) < 4 * EPS


def test_log_ndtr_matches_scipy():
    # scipy takes e^{-x^2/2} of a rounded x / sqrt(2), so on x > 0 its own
    # error grows like x^2 eps; the mpmath test above pins ours at 4 eps
    ours, ref = log_ndtr(_X), sp.log_ndtr(_X)
    bound = 4 * EPS * (1 + np.maximum(_X, 0) ** 2)
    assert np.all(np.abs(ours - ref) <= bound * np.abs(ref))


def test_erfc_matches_scipy():
    ours, ref = erfc(_Z), sp.erfc(_Z)
    bound = 4 * EPS * (1 + np.maximum(_Z, 0) ** 2)
    assert np.all(np.abs(ours - ref) <= bound * np.abs(ref))


def test_expit_matches_scipy():
    x = np.concatenate([np.linspace(-745.0, 745.0, 20001), [0.0, -0.0, 1e-300, -1e-300]])
    ours, ref = expit(x), sp.expit(x)
    assert np.all(np.abs(ours - ref) <= 4 * EPS * ref + 1e-300)


def test_edges_and_shapes():
    with np.errstate(over="raise", divide="raise", invalid="raise"):  # no warning anywhere
        v = log_ndtr(np.array([-np.inf, -1e300, -40.0, 38.0, 1e300, np.inf, np.nan]))
        c = erfc(np.array([-np.inf, -1e300, 30.0, 1e300, np.inf, np.nan]))
        e = expit(np.array([-np.inf, -1e300, 1e300, np.inf, np.nan]))
    assert v[:2].tolist() == [-np.inf, -np.inf] and v[2] == pytest.approx(-804.608442013754, rel=1e-15)
    assert -3e-316 < v[3] < -2.8e-316 and v[4:6].tolist() == [0.0, 0.0] and np.isnan(v[6])
    assert c[:5].tolist() == [2.0, 2.0, 0.0, 0.0, 0.0] and np.isnan(c[5])
    assert e[:4].tolist() == [0.0, 0.0, 1.0, 1.0] and np.isnan(e[4])
    # scalars give 0-d results, and shapes are kept
    assert np.shape(log_ndtr(-1.0)) == () and log_ndtr(np.zeros((2, 3))).shape == (2, 3)
    assert erfc(0.0) == 1.0 and erfc(np.zeros((3, 1))).shape == (3, 1)


# the T = 0 sampler draws x = log(1 - U) / block for a block of candidates
@settings(max_examples=300, deadline=None)
@given(
    u=st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.floats(1e-300, 1e-3),
                st.floats(0.5 - 1e-6, 0.5 + 1e-6), st.floats(1.0 - 1e-9, 1.0, exclude_max=True)),
    block=st.integers(1, 10**8),
    A=st.one_of(st.floats(0.0, 60.0), st.floats(1e-9, 1e-3)),
)
@example(u=0.5, block=2178, A=2.2250738585e-313)  # subnormal A: the sinh bound lost precision
@example(u=0.5, block=2178, A=5e-324)  # and here underflowed to a root of 0
def test_newton_start_is_a_lower_bound_and_the_solve_is_short(u, block, A):
    x = np.array([math.log1p(-u) / block])
    steps = []

    def counted(v):
        steps.append(v.size)
        return log_ndtr(v)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mc, "log_ndtr", counted)
        root = mc._winner_distance(x, np.array([A]))
        mp.setattr(mc, "_NEWTON_STEPS", 0)  # the start itself
        start = mc._winner_distance(x, np.array([A]))
    assert np.isfinite(root[0]) and root[0] >= 0
    assert start[0] <= root[0] * (1 + 1e-12)
    assert len(steps) // 2 <= 8 < mc._NEWTON_STEPS  # two log Phi calls per Newton step

