"""erfc, log Phi and the logistic function in numpy, so that no route needs scipy.

erfc(z) = e^{-z^2} erfcx(z) from rationals in W. J. Cody's forms (Math. Comp.
23 (1969) 631), fitted with mpmath by ``tests/_fit_special.py``. e^{-y^2} is
taken with y^2 split exactly, as in Cephes, and log Phi(x) = log(erfcx/2) - x^2/2
for x < 0 does not underflow, so neither tail needs an asymptotic branch.
"""

import math

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


def _erfcx(z):
    """e^{z^2} erfc(z) for z >= 1/2."""
    out = _ratio(_ERFCX_MID, np.minimum(z, 4.0))
    far = np.flatnonzero(z > 4.0)
    if far.size:
        with np.errstate(over="ignore"):
            w = 1.0 / (z[far] * z[far])
        out[far] = (1.0 / math.sqrt(math.pi) + w * _ratio(_ERFCX_LARGE, w)) / z[far]
    return out


def _exp_neg_square(y, scale):
    """e^{-scale y^2} for scale 1 or 1/2, with y = m + f and scale m^2 exact."""
    y = np.minimum(np.abs(y), 40.0)  # e^{-800} is already 0
    m = np.round(y * 64.0) / 64.0
    f = y - m
    return np.exp(-scale * m * m) * np.exp(-scale * (2.0 * m + f) * f)


def _central(z):
    """erf(z)/2 where |z| <= 1/2, and the indices of the other z (nan included)."""
    zc = np.clip(z, -0.5, 0.5)
    return zc * _ratio(_ERF_SMALL, zc * zc), np.flatnonzero(zc != z)


def erfc(z):
    """The complementary error function, elementwise."""
    z = np.asarray(z, dtype=float)
    half_erf, tail = _central(z.ravel())
    out = 1.0 - 2.0 * half_erf
    if tail.size:
        zt = z.ravel()[tail]
        upper = _erfcx(np.abs(zt)) * _exp_neg_square(zt, 1.0)
        out[tail] = np.where(zt < 0, 2.0 - upper, upper)
    return out.reshape(z.shape)


def log_ndtr(x):
    """log Phi(x) for the standard normal CDF Phi, elementwise."""
    x = np.asarray(x, dtype=float)
    z = x.ravel() * math.sqrt(0.5)
    half_erf, tail = _central(z)
    out = np.log1p(half_erf - 0.5)
    if tail.size:
        xt = x.ravel()[tail]
        half = 0.5 * _erfcx(np.abs(z[tail]))  # Phi(-|x|) = half e^{-x^2/2}
        with np.errstate(over="ignore", divide="ignore"):
            out[tail] = np.log(half) - 0.5 * xt * xt
        upper = xt > 0
        out[tail[upper]] = np.log1p(-half[upper] * _exp_neg_square(xt[upper], 0.5))
    return out.reshape(x.shape)


def expit(x):
    """The logistic function 1/(1 + e^{-x}), elementwise, without overflow."""
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)
