"""Deterministic-equivalent ridge: fixed point, shrinkage factors, moments.

In the proportional limit (d, n -> infinity at fixed alpha = d/n < 1) the
posterior predictive for inputs x ~ N(0, S^2 I) concentrates on closed-form
moments parameterized by a renormalized ridge R solving

    g(R) = R (1 - alpha a) = R_hat = sigma^2 alpha / gamma^2,   a = S^2/(S^2 + R).

The shrinkage and residual factors are A = a I and B = b I, b = R/(S^2 + R),
so the predictive mean is a (x/sqrt(d))^T w_T and the predictive variance
is sigma^2 + gamma^2 b |x|^2/d.

There is one representation: the covariance is held as the scalar S^2, and
a and b are held as such, neither as 1 minus the other; m1 = (1/d) Tr A =
a and m2 = a^2. g(R)/R = 1 - alpha a is taken as (1 - alpha) + alpha b at
alpha <= 1, where no term cancels (1 - alpha a does as R -> 0 at alpha =
1), and as b - (alpha - 1) a above; g'(R) = 1 - alpha m2 = g(R)/R + alpha
a b, at the root R_hat/R plus a term >= 0. g' gives the noise-variance
check and, by implicit differentiation, dR/dalpha.

R comes in closed form: g(R) = R_hat is the quadratic R^2 +
(S^2 (1 - alpha) - R_hat) R - R_hat S^2 = 0, whose positive root is taken
in a form that cancels nowhere, in decimal arithmetic, and rounded once to
float (``_fixed_point``)."""

import decimal
import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import ModelConfig

_RESIDUAL_TOL = 1e-12
_FLOAT_TINY = float(np.finfo(float).tiny)  # the smallest normal float
_DECIMAL = decimal.Context(prec=40)

# The noise-term validity test sigma^2 <= VALIDITY_FACTOR * sigma_c^2 keeps a
# two-decade margin below the divergence threshold of the label-noise
# variance; the threshold itself is reported so callers can tighten it.
VALIDITY_FACTOR = 0.01


@dataclass(frozen=True)
class DetEquiv:
    """Solved renormalized ridge with its derived scalars.

    ``S2`` is S^2, the input covariance being S^2 I; ``a`` and ``b`` are the
    scalars of the shrinkage and residual factors A = a I and B = b I.
    """

    R: float
    R_hat: float
    alpha: float
    S2: float

    @property
    def a(self) -> float:
        """S^2/(S^2 + R)."""
        return self.S2 / (self.S2 + self.R)

    @property
    def b(self) -> float:
        """R/(S^2 + R) as 1/(1 + S^2/R), which rounds monotonically in R; R/S^2 where S^2/R overflows or R = 0."""
        if self.R and self.S2 / self.R < math.inf:
            return 1.0 / (1.0 + self.S2 / self.R)
        return self.R / self.S2

    @property
    def m1(self) -> float:
        return self.a

    @property
    def m2(self) -> float:
        return self.a * self.a

    @property
    def slope(self) -> float:
        """g'(R) = 1 - alpha m2, as g(R)/R + alpha a b: at the root R_hat/R plus a term >= 0."""
        return self.g_over_R + self.alpha * (self.a * self.b)

    @property
    def g_over_R(self) -> float:
        """g(R)/R = 1 - alpha a from 1 - a = b, in the form that cancels least; it rounds monotonically up in R."""
        if self.alpha <= 1.0:
            return (1.0 - self.alpha) + self.alpha * self.b
        return self.b - (self.alpha - 1.0) * self.a


def solve_ridge(alpha: float, sigma: float, gamma: float, S2: float) -> DetEquiv:
    """Solve the renormalized-ridge fixed point for Cov = S^2 I, S2 = S^2.

    Solves g(R) = R (1 - alpha m1(R)) = R_hat, which has one root for the
    admissible inputs, in closed form (``_fixed_point``). ValueError where
    S2 is not finite and > 0. The returned solution is finite with residual
    |g(R) - R_hat| <= 1e-12 max(1, R_hat, R), which covers the float
    rounding of g at a large R; ValueError where no finite R reaches R_hat.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if not gamma > 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    if not 0 < S2 < math.inf:
        raise ValueError(f"S^2 must be finite and > 0, Cov = S^2 I; got {S2}")

    try:
        sigma2, gamma2 = sigma**2, gamma**2
        in_range = min(sigma2, sigma2 * alpha, gamma2) >= _FLOAT_TINY
    except OverflowError:
        in_range = False
    # a factor that overflows, or is subnormal and so has lost digits, is not formed: ratio first
    R_hat = sigma2 * alpha / gamma2 if in_range else (sigma / gamma) * (sigma / gamma) * alpha
    if not math.isfinite(R_hat):
        raise ValueError(
            f"R_hat = sigma^2 alpha / gamma^2 overflows at sigma = {sigma:g}, gamma = {gamma:g}"
        )
    if R_hat == 0.0 and alpha >= 1:
        raise ValueError(
            f"ridgeless degenerate case: R_hat = sigma^2 alpha / gamma^2 = 0 with alpha = "
            f"{alpha:g} >= 1 is outside the alpha < 1 regime this solver supports"
        )

    de = DetEquiv(R=_fixed_point(alpha, S2, R_hat), R_hat=R_hat, alpha=alpha, S2=S2)
    residual = abs(de.R * de.g_over_R - R_hat)
    if not (math.isfinite(de.R) and residual <= _RESIDUAL_TOL * max(1.0, R_hat, de.R)):
        raise RuntimeError(f"fixed-point residual {residual:.3e} exceeds tolerance")
    return de


def _fixed_point(alpha: float, S2: float, R_hat: float) -> float:
    """The R >= 0 where g(R) = R (1 - alpha S^2/(S^2 + R)) reaches R_hat >= 0, rounded once to float.

    g(R) = R_hat is R^2 - 2 c R - R_hat S^2 = 0, c = (R_hat + S^2 (alpha - 1))/2,
    whose root c + h, h = sqrt(c^2 + R_hat S^2), is taken as R_hat S^2/(h - c)
    where c < 0, so that no branch cancels; in 40-digit decimals, whose
    exponents hold every product of floats, R is the float nearest the root.
    """
    with decimal.localcontext(_DECIMAL):
        r, s = decimal.Decimal(R_hat), decimal.Decimal(S2)
        c = (r + s * (decimal.Decimal(alpha) - 1)) / 2
        h = (c * c + r * s).sqrt()
        R = float(c + h if c >= 0 else r * s / (h - c))
    if R == math.inf:
        raise ValueError(f"no finite R solves R (1 - alpha m(R)) = R_hat = {R_hat:g}")
    return R


@functools.lru_cache(maxsize=16)
def solve_for_config(config: ModelConfig) -> DetEquiv:
    """Solve the fixed point for a model config, Cov = S^2 I.

    The solution is kept per config, so a subcommand's theory columns and
    its engine call share one solve.
    """
    return solve_ridge(config.alpha, config.sigma, config.gamma, config.input_var)


def de_moments_batch(u: np.ndarray, r2: np.ndarray, de: DetEquiv, config: ModelConfig):
    """Closed-form (means, variances) at test points x given by u = x.w_T/sqrt(d) and r2 = |x|^2/d.

    mean = (x/sqrt(d))^T A w_T = a u and variance = sigma^2 + gamma^2
    (x/sqrt(d))^T B (x/sqrt(d)) = sigma^2 + gamma^2 b r2.
    """
    return de.a * u, config.sigma**2 + config.prior_var * (de.b * r2)


@dataclass(frozen=True)
class NoiseVarianceCheck:
    """Deterministic equivalent of the label-noise variance and its validity.

    ``sigma_c`` is the critical threshold sqrt(slope/(alpha m2)), slope = 1 -
    alpha m2 (``DetEquiv.slope``); ``valid`` records sigma^2 <= VALIDITY_FACTOR * sigma_c^2. Note the
    threshold compares a variance against a dimensionless ratio, exactly as
    the closed form is stated; it is reported verbatim rather than silently
    rescaled.
    """

    var_z: float
    sigma_c: float
    valid: bool


def noise_variance_check(de: DetEquiv, sigma: float) -> NoiseVarianceCheck:
    """Variance of the omitted label-noise term and the small-noise test."""
    slope, am2 = de.slope, de.alpha * de.m2
    if slope <= 0.0:
        raise ValueError(f"1 - alpha m2 = {slope:.6g} <= 0: the deterministic equivalent of the noise variance diverges")
    if am2 == 0.0:
        return NoiseVarianceCheck(var_z=0.0, sigma_c=math.inf, valid=True)
    sigma_c = math.sqrt(slope / am2)
    return NoiseVarianceCheck(var_z=sigma**2 * am2 / slope, sigma_c=sigma_c, valid=sigma**2 <= VALIDITY_FACTOR * sigma_c**2)
