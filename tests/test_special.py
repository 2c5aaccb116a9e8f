"""The numpy erfc, log Phi and logistic function against mpmath and scipy, and
the T = 0 sampler's root solve: its Newton start, its step count, its roots
against mpmath, and its short roots' series reversion against the Newton solve
it replaced."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from itslab import _special, mc
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



# ---------------------------------------------------------------------------
# The short root's reversion and the pieces of log Phi and erfc
# ---------------------------------------------------------------------------


def _reversion_coefficients(terms):
    """b_1 .. b_terms of d = q (1 + sum_j b_j(w) q^{2j}), exactly, as coefficient lists in w.

    Lagrange inversion of q = d C(d^2), C(v) = sum_m c_m(w) v^m: b_j is
    [v^j] C(v)^-(2j+1) / (2j + 1). Series in v hold polynomials in w.
    """
    from fractions import Fraction as F

    def poly_add(a, b):
        n = max(len(a), len(b))
        return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]

    def poly_mul(a, b):
        out = [F(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def series_mul(a, b):
        out = [[F(0)] for _ in range(terms + 1)]
        for i in range(terms + 1):
            for j in range(terms + 1 - i):
                out[i + j] = poly_add(out[i + j], poly_mul(a[i], b[j]))
        return out

    c = [[F(1)], [F(-1, 6), F(1, 6)]]  # c_m(w) = He_2m(A) / (2m+1)!, w = A^2
    for m in range(1, terms):
        shifted = poly_add([F(0)] + c[m], [-(4 * m + 1) * x for x in c[m]])
        nxt = poly_add(shifted, [-F(2 * m - 1, 2 * m + 1) * x for x in c[m - 1]])
        c.append([x / ((2 * m + 2) * (2 * m + 3)) for x in nxt])
    inverse = [[F(1)]] + [[F(0)] for _ in range(terms)]  # 1 / C(v)
    for j in range(1, terms + 1):
        acc = [F(0)]
        for t in range(1, j + 1):
            acc = poly_add(acc, poly_mul(c[t], inverse[j - t]))
        inverse[j] = [-x for x in acc]
    square, power, b = series_mul(inverse, inverse), inverse, []
    for j in range(1, terms + 1):
        power = series_mul(power, square)  # C^-(2j+1)
        b.append([x / (2 * j + 1) for x in power[j]][: j + 1])
    return b


def test_reversion_table_is_the_exact_reversion():
    exact = _reversion_coefficients(len(mc._REVERSION))
    assert [tuple(float(x) for x in row) for row in exact] == list(mc._REVERSION)
    # d / q = 1 + sum_j b_j q^{2j} inverts G on a few points to rounding
    A, d = 0.7, np.array([1e-3, 0.05, 0.1])
    q = np.array([float(mpmath.quad(lambda t: mpmath.exp(-t * t / 2) * mpmath.cosh(A * t), [0, x])) for x in d])
    np.testing.assert_allclose(mc._short_root(q, np.array(A)), d, rtol=1e-15, atol=0)


def _newton_short_root(q, A):
    """The short root as solved before the reversion: Newton's method from the sinh bound.

    The oracle of ``itslab.mc._short_root``: the same terms of G, to He_16,
    from asinh(A q) / A (q itself where A q < 1e-8).
    """
    w = A * A
    c = np.empty((mc._SERIES_TERMS,) + w.shape)
    c[0], c[1] = 1.0, (w - 1.0) / 6.0
    for m in range(1, mc._SERIES_TERMS - 1):
        c[m + 1] = ((w - (4 * m + 1)) * c[m] - (2 * m - 1) / (2 * m + 1) * c[m - 1]) / ((2 * m + 2) * (2 * m + 3))
    y = A * q
    d = np.divide(np.arcsinh(y), A, out=q.copy(), where=y >= 1e-8)
    moving = q > 0
    for _ in range(50):
        if not moving.any():
            break
        v = d * d
        G = c[-1] * v  # by Horner's rule
        for c_m in c[-2:0:-1]:
            G = (G + c_m) * v
        G = (G + c[0]) * d
        step = (q - G) / (np.exp(-0.5 * v) * np.cosh(A * d))
        d = np.where(moving, d + step, d)
        moving &= np.abs(step) > 1e-8 * d
    return d


@settings(max_examples=200, deadline=None)
@given(
    A=st.one_of(st.floats(0.0, 2.0), st.floats(2.0, 40.0), st.floats(40.0, 1e3), st.just(0.0)),
    t=st.lists(st.one_of(st.floats(0.0, 1.0), st.floats(0.9, 1.1).map(lambda f: f * mc._REVERSION_CUT ** 0.5 / 0.5),
                         st.floats(1e-300, 1e-3)), min_size=1, max_size=40),
)
def test_short_root_matches_the_newton_solve(A, t):
    # t spans the domain q max(1, A) <= 1/2, and 0.9 to 1.1 times the cut
    q = np.minimum(np.array(t), 1.0) * 0.5 / max(1.0, A)
    A = np.array([A])
    new, old = mc._short_root(q, A), _newton_short_root(q, A)
    np.testing.assert_allclose(new, old, rtol=1e-15, atol=0)



def test_short_root_of_a_row_ignores_the_other_rows():
    # rows of short roots at 1e-6 to 1e-2, each alone and stacked with the others and a
    # row near the cut: every element takes the same terms wherever it is solved
    rng = np.random.default_rng(0)
    q = rng.random((100, 200)) * 10.0 ** rng.uniform(-6.0, -2.0, (100, 1))
    A = rng.uniform(0.0, 3.0, (100, 1))
    together = mc._short_root(np.vstack([q, np.full((1, 200), 0.3)]), np.vstack([A, [[0.5]]]))
    for row in range(len(q)):
        alone = mc._short_root(q[row : row + 1], A[row : row + 1])
        assert alone.tobytes() == together[row : row + 1].tobytes()

def _whole_array_erfc(z):
    """erfc with every rational on every element, as before the pieces: their oracle."""
    z = np.asarray(z, dtype=float).ravel()
    zc = np.clip(z, -0.5, 0.5)
    out = 1.0 - 2.0 * (zc * _special._ratio(_special._ERF_SMALL, zc * zc))
    tail = np.flatnonzero(zc != z)
    zt = z[tail]
    upper = _whole_array_erfcx(np.abs(zt)) * _special._exp_neg_square(zt, 1.0)
    out[tail] = np.where(zt < 0, 2.0 - upper, upper)
    return out


def _whole_array_erfcx(z):
    out = _special._ratio(_special._ERFCX_MID, np.minimum(z, 4.0))
    far = np.flatnonzero(z > 4.0)
    with np.errstate(over="ignore"):
        w = 1.0 / (z[far] * z[far])
    out[far] = (1.0 / math.sqrt(math.pi) + w * _special._ratio(_special._ERFCX_LARGE, w)) / z[far]
    return out


def _whole_array_log_ndtr(x):
    x = np.asarray(x, dtype=float).ravel()
    z = x * math.sqrt(0.5)
    zc = np.clip(z, -0.5, 0.5)
    out = np.log1p(zc * _special._ratio(_special._ERF_SMALL, zc * zc) - 0.5)
    tail = np.flatnonzero(zc != z)
    xt = x[tail]
    half = 0.5 * _whole_array_erfcx(np.abs(z[tail]))
    with np.errstate(over="ignore", divide="ignore"):
        out[tail] = np.log(half) - 0.5 * xt * xt
    upper = xt > 0
    out[tail[upper]] = np.log1p(-half[upper] * _special._exp_neg_square(xt[upper], 0.5))
    return out


_WIDE = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.floats(-8.0, 8.0), st.floats(-60.0, 40.0))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_WIDE, min_size=0, max_size=80), scale=st.sampled_from([1.0, 3.0, 20.0]))
def test_pieces_equal_every_rational_on_every_element(values, scale):
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.array(values, dtype=float).reshape(-1) * scale
        want = _whole_array_log_ndtr(x), _whole_array_erfc(x)
    assert log_ndtr(x).tobytes() == want[0].tobytes()  # and without a warning
    assert erfc(x).tobytes() == want[1].tobytes()
