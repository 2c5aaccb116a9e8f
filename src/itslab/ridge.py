"""Deterministic-equivalent ridge: fixed point, shrinkage factors, moments.

In the proportional limit (d, n -> infinity at fixed alpha = d/n < 1) the
posterior predictive concentrates on closed-form moments parameterized by a
renormalized ridge R solving

    g(R) = R (1 - alpha m(R)) = R_hat = sigma^2 alpha / gamma^2,
    m(R) = (1/d) Tr[ Cov (Cov + R I)^{-1} ],

where Cov is the input covariance. The shrinkage and residual factors are

    A = Cov (Cov + R I)^{-1},   B = R (Cov + R I)^{-1} = I - A,

so the predictive mean is (x/sqrt(d))^T A w_T and the predictive variance is
sigma^2 + gamma^2 (x/sqrt(d))^T B (x/sqrt(d)).

There is one representation: Cov is diagonal and is held as its eigenvalues,
so A and B are held as theirs, a = lambda/(lambda + R) and b = R/(lambda + R),
neither as 1 minus the other. A length-1 spectrum [S^2] is Cov = S^2 I; it
broadcasts against any d-vector, so the isotropic case needs no branch.
g(R)/R = 1 - alpha m1 is taken as (1 - alpha) + alpha mean(b) at alpha <= 1,
where no term cancels (1 - alpha m1 does as R -> 0 at alpha = 1), and as
mean(b) - (alpha - 1) m1 above; g'(R) = 1 - alpha m2 = g(R)/R + alpha mean(a
b), at the root R_hat/R plus a term >= 0. g' gives the noise-variance check
and, by implicit differentiation, dR/dalpha.

R comes in closed form: the model draws x ~ N(0, S^2 I), so the spectrum
holds one distinct eigenvalue S^2, and g(R) = R_hat is the quadratic R^2 +
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

    ``spectrum`` holds the eigenvalues of the diagonal input covariance; a
    length-1 spectrum [S^2] is Cov = S^2 I and broadcasts over the d inputs.
    ``a`` and ``b`` are the eigenvalues of the shrinkage and residual factors
    A and B, in the same shape as ``spectrum``.
    """

    R: float
    R_hat: float
    alpha: float
    spectrum: np.ndarray
    m1: float
    m2: float

    @property
    def a(self) -> np.ndarray:
        """Eigenvalues of the shrinkage factor, lambda_i/(lambda_i + R)."""
        return self.spectrum / (self.spectrum + self.R)

    @property
    def b(self) -> np.ndarray:
        """Eigenvalues of the residual factor, R/(lambda_i + R)."""
        return _residual(self.spectrum, self.R)

    @property
    def slope(self) -> float:
        """g'(R) = 1 - alpha m2, as g(R)/R + alpha mean(a b): at the root R_hat/R plus a term >= 0."""
        return _g_over_R(self.alpha, self.spectrum, self.R) + self.alpha * float(np.mean(self.a * self.b))


def _residual(spectrum: np.ndarray, R: float) -> np.ndarray:
    """R/(lambda + R) as 1/(1 + lambda/R), which rounds monotonically in R; 0 at R = 0."""
    with np.errstate(divide="ignore", over="ignore"):  # lambda/R = inf: b = 0
        return 1.0 / (1.0 + spectrum / R)


def _g_over_R(alpha: float, spectrum: np.ndarray, R: float) -> float:
    """g(R)/R = 1 - alpha m1(R) from 1 - a = b, in the form that cancels least; it rounds monotonically up in R."""
    mean_b = float(_residual(spectrum, R).sum()) / spectrum.size
    if alpha <= 1.0:
        return (1.0 - alpha) + alpha * mean_b
    return mean_b - (alpha - 1.0) * (float((spectrum / (spectrum + R)).sum()) / spectrum.size)


def solve_ridge(alpha: float, sigma: float, gamma: float, spectrum) -> DetEquiv:
    """Solve the renormalized-ridge fixed point for Cov = S^2 I.

    Solves g(R) = R (1 - alpha m1(R)) = R_hat, which has one root for the
    admissible inputs, in closed form (``_fixed_point``). ``spectrum`` is
    [S^2], or S^2 repeated; ValueError where it holds another eigenvalue or
    none. The returned solution is finite with residual |g(R) - R_hat|
    <= 1e-12 max(1, R_hat, R), which covers the float rounding of g at a
    large R; ValueError where no finite R reaches R_hat.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if not gamma > 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    spectrum = np.atleast_1d(np.asarray(spectrum, dtype=float))
    if not (spectrum.size and spectrum[0] > 0 and np.all(spectrum == spectrum[0])):
        raise ValueError(f"the spectrum must hold one eigenvalue S^2 > 0, Cov = S^2 I; got {np.unique(spectrum)}")

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

    R = _fixed_point(alpha, float(spectrum[0]), R_hat)
    residual = abs(R * _g_over_R(alpha, spectrum, R) - R_hat)
    if not (math.isfinite(R) and residual <= _RESIDUAL_TOL * max(1.0, R_hat, R)):
        raise RuntimeError(f"fixed-point residual {residual:.3e} exceeds tolerance")

    a = spectrum / (spectrum + R)
    return DetEquiv(R=R, R_hat=R_hat, alpha=alpha, spectrum=spectrum, m1=float(a.mean()), m2=float((a * a).mean()))


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
    """Solve the fixed point for a model config: spectrum [S^2], Cov = S^2 I.

    The solution is kept per config (its spectrum read-only), so a
    subcommand's theory columns and its engine call share one solve.
    """
    de = solve_ridge(config.alpha, config.sigma, config.gamma, [config.input_var])
    de.spectrum.flags.writeable = False
    return de


def de_moments_batch(X: np.ndarray, w_T: np.ndarray, de: DetEquiv, config: ModelConfig):
    """Closed-form moments for rows of X; returns (means, variances).

    mean = (x/sqrt(d))^T A w_T and variance = sigma^2 + gamma^2 (x/sqrt(d))^T B
    (x/sqrt(d)). The variance takes an elementwise product and a sum, which
    broadcasts a length-1 ``b`` where a matrix product would not.
    """
    Xs = np.asarray(X, dtype=float) / math.sqrt(config.d)
    means = Xs @ (de.a * w_T)
    variances = config.sigma**2 + config.prior_var * np.sum(Xs * Xs * de.b, axis=1)
    return means, variances


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
