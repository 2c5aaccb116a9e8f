"""Extreme-value oracle for the best-of-k limit.

At T = 0 with a quadratic reward, the selected candidate's scaled penalty is
the minimum of k draws of a noncentral chi-squared variable with one degree
of freedom and noncentrality lambda. In the sign convention used here the
variable is v <= 0 with -v ~ chi^2_1(lambda), so the minimum penalty is the
maximum of the v's, whose right endpoint is 0. Its limit law is Weibull with
shape 1/2 and norming constant

    c_k = (pi / 2 k^2) e^lambda,

which is what produces the 1/k^2 tail of the best-of-k error (the Weibull
mean contributes Gamma(1 + 1/alpha) = Gamma(3) = 2, giving
E[min] ~ 2 c_k = (pi/k^2) e^lambda).

The CDF takes erfc from the package's numpy helper, so no route of the
package needs scipy.
"""

import math

import numpy as np

from ._special import erfc

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


def chisq1_cdf(v, lam: float):
    """CDF of v (v <= 0, -v ~ chi^2_1(lambda)).

    F(v) = (erfc((sqrt(-v) - sqrt(lam))/sqrt(2)) + erfc((sqrt(-v) + sqrt(lam))/sqrt(2))) / 2,
    which keeps its relative precision in the lower tail.
    """
    if lam < 0 or not math.isfinite(lam):
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    v = np.asarray(v, dtype=float)
    if np.any(v > 0):
        raise ValueError("v must be <= 0")
    root = np.sqrt(-v)
    sl = math.sqrt(lam)
    out = 0.5 * (erfc((root - sl) / _SQRT2) + erfc((root + sl) / _SQRT2))
    return float(out) if out.ndim == 0 else out


def chisq1_pdf(v, lam: float):
    """Density of v on v < 0: e^{(v - lam)/2} cosh(sqrt(-lam v)) / sqrt(-2 pi v)."""
    if lam < 0 or not math.isfinite(lam):
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    v = np.asarray(v, dtype=float)
    if np.any(v >= 0):
        raise ValueError("the density is supported on v < 0")
    out = np.exp(0.5 * (v - lam)) * np.cosh(np.sqrt(-lam * v)) / (_SQRT2PI * np.sqrt(-v))
    return float(out) if out.ndim == 0 else out


def chisq1_quantile(p: float, lam: float) -> float:
    """Inverse of :func:`chisq1_cdf` on (0, 1); returns v <= 0.

    ValueError where the bracket's lower end, doubled from -1, leaves the
    float range before the CDF there falls to p.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    lo = -1.0
    while chisq1_cdf(lo, lam) > p:
        lo *= 2.0
        if lo == -math.inf:
            raise ValueError(f"the {p:g} quantile at lambda = {lam:g} leaves the float range")
    hi = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chisq1_cdf(mid, lam) < p:
            lo = mid
        else:
            hi = mid
        if mid == 0.5 * (lo + hi):
            break
    return 0.5 * (lo + hi)


def weibull_norming(lam: float, k: int) -> float:
    """Norming constant c_k = (pi / 2 k^2) e^lambda of the minimum's Weibull limit."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    try:
        return math.pi / (2.0 * k**2) * math.exp(lam)
    except OverflowError as exc:
        raise ValueError(
            f"c_k = (pi / 2 k^2) e^lambda leaves the float range at lambda = {lam:g}"
        ) from exc
