"""erfc, log Phi and the logistic function in numpy, so that no route needs scipy.

erfc(z) = e^{-z^2} erfcx(z) from rationals in W. J. Cody's forms (Math. Comp.
23 (1969) 631), fitted with mpmath by ``tests/_fit_special.py``. e^{-y^2} is
taken with y^2 split exactly, as in Cephes, and log Phi(x) = log(erfcx/2) - x^2/2
for x < 0 does not underflow, so neither tail needs an asymptotic branch.
"""

import math
from functools import partial

import numpy as np

# (numerator, denominator), highest degree first: erf(z)/2 = z P(z^2)/Q(z^2) for
# |z| <= 1/2, erfcx(z) = P(z)/Q(z) up to 4 and (1/sqrt(pi) + w P(w)/Q(w))/z, w = 1/z^2, beyond
_ERF_SMALL = (
    (3.855292451291223e-05, -0.0006686688613842001, 0.01615382896197484, 0.023956857447256265,
     0.5641895835477563),
    (0.003010486327114195, 0.053897168873830496, 0.37579575757132266, 1.0),
)
_ERFCX_MID = (
    (-4.3022990295201735e-10, 0.0019096588288635096, 0.024308086857379018, 0.1450251996243466,
     0.5127117300678485, 1.1345642464156782, 1.5079121318950004, 1.000000000285139),
    (0.0033847488826035076, 0.04308565772167876, 0.2587335594663231, 0.9303896183978029,
     2.137143138622817, 3.109300400600815, 2.6362913033276154, 1.0),
)
_ERFCX_LARGE = (
    (-7.904791949481328, -142.51941290670356, -164.06486934596842, -56.022386181832964,
     -7.020126329833812, -0.28209479177387814),
    (470.21913381756195, 1184.4940560016123, 847.4075513501001, 234.42273809166457,
     26.385699894313838, 1.0),
)


def _ratio(coef, t):
    """P(t)/Q(t) by Horner's rule, in place."""
    num, den = (c[0] * t + c[1] for c in coef)
    for acc, c in zip((num, den), coef):
        for ci in c[2:]:
            acc *= t
            acc += ci
    return np.divide(num, den, out=num)


def _piecewise(flat, pieces):
    """Each function of ``pieces`` on the elements of a 1-D array where its mask holds.

    The masks partition the elements. A piece that holds them all takes the
    array whole; the others gather their elements and scatter their results.
    """
    out = np.empty_like(flat)
    for mask, f in pieces:
        index = np.flatnonzero(mask)
        if index.size == flat.size:
            return f(flat)
        if index.size:
            out[index] = f(flat[index])
    return out


def _erfcx_far(z):
    """e^{z^2} erfc(z) for z > 4."""
    with np.errstate(over="ignore"):
        w = 1.0 / (z * z)
    return (1.0 / math.sqrt(math.pi) + w * _ratio(_ERFCX_LARGE, w)) / z


def _erfcx(z):
    """e^{z^2} erfc(z) for z >= 1/2 (and nan)."""
    far = z > 4.0
    return _piecewise(z, ((~far, partial(_ratio, _ERFCX_MID)), (far, _erfcx_far)))


def _exp_neg_square(y, scale):
    """e^{-scale y^2} for scale 1 or 1/2, with y = m + f and scale m^2 exact."""
    y = np.minimum(np.abs(y), 40.0)  # e^{-800} is already 0
    m = np.round(y * 64.0) / 64.0
    f = y - m
    return np.exp(-scale * m * m) * np.exp(-scale * (2.0 * m + f) * f)


def _half_erf(z):
    """erf(z)/2 for |z| <= 1/2."""
    return z * _ratio(_ERF_SMALL, z * z)


def _erfc_tail(z):
    """erfc(z) for |z| > 1/2 (and nan)."""
    upper = _erfcx(np.abs(z)) * _exp_neg_square(z, 1.0)
    return np.where(z < 0, 2.0 - upper, upper)


def erfc(z):
    """The complementary error function, elementwise."""
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    central = np.abs(flat) <= 0.5
    return _piecewise(flat, (
        (central, lambda zc: 1.0 - 2.0 * _half_erf(zc)),
        (~central, _erfc_tail),
    )).reshape(z.shape)


def _log_ndtr_lower(x):
    """log Phi(x) for x < -1/sqrt(2) (and nan): log(erfcx(-x/sqrt(2))/2) - x^2/2."""
    with np.errstate(over="ignore", divide="ignore"):
        return np.log(0.5 * _erfcx(np.abs(x * math.sqrt(0.5)))) - 0.5 * x * x


def _log_ndtr_upper(x):
    """log Phi(x) = log(1 - Phi(-x)) for x > 1/sqrt(2)."""
    half = 0.5 * _erfcx(np.abs(x * math.sqrt(0.5)))  # Phi(-x) = half e^{-x^2/2}
    return np.log1p(-half * _exp_neg_square(x, 0.5))


def log_ndtr(x):
    """log Phi(x) for the standard normal CDF Phi, elementwise."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    z = flat * math.sqrt(0.5)
    central = np.abs(z) <= 0.5
    upper = ~central & (flat > 0)
    return _piecewise(flat, (
        (central, lambda xc: np.log1p(_half_erf(xc * math.sqrt(0.5)) - 0.5)),
        (~(central | upper), _log_ndtr_lower),
        (upper, _log_ndtr_upper),
    )).reshape(x.shape)


def expit(x):
    """The logistic function 1/(1 + e^{-x}), elementwise, without overflow."""
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)
