"""The numpy erfc, log Phi and logistic function against mpmath and scipy, and
the T = 0 sampler's root solve: its Newton start, its step count and its roots
against mpmath."""

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
@example(u=1.1125369292536007e-308, block=9999, A=0.5)  # subnormal root: so would asinh(A q) / A
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
    if _series_branch(x, A)[0]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mc, "_NEWTON_STEPS", 6)
            assert mc._winner_distance(x, np.array([A]))[0] == root[0]


def _series_branch(x, A):
    """Where the root solve takes the Hermite series: q = p / (2 phi(A)) <= 1/2 and A q <= 1/2."""
    p, two_phi = -np.expm1(x), math.sqrt(2 / math.pi) * math.exp(-0.5 * A * A)
    return (p <= 0.5 * two_phi) & (A * p <= 0.5 * two_phi) & (two_phi >= np.finfo(float).tiny)


def _mp_winner_distance(x, A, d0):
    """The root of F(d) = -expm1(x), F(d) = Phi(d - A) - Phi(-A - d), from d0 at 40 digits.

    Solved in log d, on log F (or log(1 - F) = x above p = 1/2), with as many
    extra digits as d has leading zeros, which the difference of the Phi's cancels.
    """
    x, A = mpmath.mpf(x), mpmath.mpf(A)
    p = -mpmath.expm1(x)

    def g(u):
        d = mpmath.exp(u)
        with mpmath.extradps(10 + int(max(0, -u / 2.3))):
            if p <= 0.5:
                return mpmath.log(mpmath.ncdf(d - A) - mpmath.ncdf(-A - d)) - mpmath.log(p)
            return mpmath.log(mpmath.ncdf(A - d) + mpmath.ncdf(-A - d)) - x

    return mpmath.exp(mpmath.findroot(g, mpmath.log(d0), tol=mpmath.mpf(10) ** -30))


def test_winner_distance_against_mpmath():
    worst = {True: 0.0, False: 0.0}  # relative error on the series branch, and on the log branch
    for A in [0.0, 1e-9, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 30.0]:
        two_phi = math.sqrt(2 / math.pi) * math.exp(-0.5 * A * A)
        boundary = 0.5 * two_phi / max(1.0, A)  # q = 1/2 or A q = 1/2
        # the old sinh shortcut's threshold, roots of 1e-5: F(d) = 2 phi(A) d to O(d^3)
        sinh_edge = two_phi * 1e-5
        p = np.concatenate([
            np.logspace(-300, -20, 15), np.logspace(-12, -1, 12), np.linspace(0.1, 0.9, 9),
            1 - np.logspace(-12, -2, 6),
            boundary * np.array([1 - 1e-6, 1 - 1e-12, 1 + 1e-12, 1 + 1e-6]),
            sinh_edge * np.array([0.9, 1 - 1e-9, 1 + 1e-9, 1.1]),
        ])
        x = np.log1p(-p)
        d = mc._winner_distance(x, np.array([A]))
        for xi, di, series in zip(x, d, _series_branch(x, A)):
            exact = _mp_winner_distance(xi, A, di)
            worst[series] = max(worst[series], float(abs((mpmath.mpf(di) - exact) / exact)))
    assert worst[True] <= 1e-13, worst
    assert worst[False] <= 1e-12, worst

