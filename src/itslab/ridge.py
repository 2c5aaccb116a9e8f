"""Deterministic-equivalent ridge: fixed point, shrinkage factors, moments.

In the proportional limit (d, n -> infinity at fixed alpha = d/n < 1) the
posterior predictive concentrates on closed-form moments parameterized by a
renormalized ridge R solving

    R (1 - alpha m(R)) = R_hat = sigma^2 alpha / gamma^2,
    m(R) = (1/d) Tr[ Cov (Cov + R I)^{-1} ],

where Cov is the input covariance. The shrinkage and residual factors are

    A = Cov (Cov + R I)^{-1},   B = R (Cov + R I)^{-1} = I - A,

so the predictive mean is (x/sqrt(d))^T A w_T and the predictive variance is
sigma^2 + gamma^2 (x/sqrt(d))^T B (x/sqrt(d)).

There is one representation: Cov is diagonal and is held as its eigenvalues,
so A and B are held as theirs. A length-1 spectrum [S^2] is Cov = S^2 I; it
broadcasts against any d-vector, so the isotropic case needs no branch.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelConfig

_RESIDUAL_TOL = 1e-12

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
        """Eigenvalues of the residual factor, R/(lambda_i + R) = 1 - a."""
        return 1.0 - self.a


def _m1(spectrum: np.ndarray, R: float) -> float:
    return float(np.mean(spectrum / (spectrum + R)))


def _m2(spectrum: np.ndarray, R: float) -> float:
    return float(np.mean((spectrum / (spectrum + R)) ** 2))


def solve_ridge(alpha: float, sigma: float, gamma: float, spectrum) -> DetEquiv:
    """Solve the renormalized-ridge fixed point for a diagonal spectrum.

    Uses bracketing bisection on g(R) = R (1 - alpha m(R)), which crosses
    R_hat exactly once for the admissible inputs; the bracket starts at
    [R_hat, 2 R_hat] and is grown by doubling. The returned solution has
    residual |g(R) - R_hat| <= 1e-12 max(1, R_hat).
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if not gamma > 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    spectrum = np.atleast_1d(np.asarray(spectrum, dtype=float))
    if spectrum.size == 0 or np.any(spectrum <= 0):
        raise ValueError("spectrum must contain at least one positive eigenvalue")

    try:
        R_hat = sigma**2 * alpha / gamma**2
    except ArithmeticError:  # sigma^2 or gamma^2 leaves the float range: ratio first
        R_hat = (sigma / gamma) * (sigma / gamma) * alpha
    if not math.isfinite(R_hat):
        raise ValueError(
            f"R_hat = sigma^2 alpha / gamma^2 overflows at sigma = {sigma:g}, gamma = {gamma:g}"
        )
    if R_hat == 0.0 and alpha >= 1:
        raise ValueError(
            f"ridgeless degenerate case: R_hat = sigma^2 alpha / gamma^2 = 0 with alpha = "
            f"{alpha:g} >= 1 is outside the alpha < 1 regime this solver supports"
        )

    if R_hat == 0.0:
        R = 0.0
    else:
        g = lambda R: R * (1.0 - alpha * _m1(spectrum, R))
        lo, hi = R_hat, 2.0 * R_hat
        while g(hi) < R_hat:
            hi *= 2.0
        R = _bisect(g, lo, hi, R_hat)

    residual = abs(R * (1.0 - alpha * _m1(spectrum, R)) - R_hat)
    if residual > _RESIDUAL_TOL * max(1.0, R_hat):
        raise RuntimeError(f"fixed-point residual {residual:.3e} exceeds tolerance")

    return DetEquiv(
        R=R,
        R_hat=R_hat,
        alpha=alpha,
        spectrum=spectrum,
        m1=_m1(spectrum, R),
        m2=_m2(spectrum, R),
    )


def _bisect(g, lo: float, hi: float, target: float) -> float:
    # Run to float resolution: the residual criterion is then met with a wide
    # margin even when R itself is many orders of magnitude below 1.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if g(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def isotropic_ridge(alpha: float, sigma: float, gamma: float, S: float) -> float:
    """Closed-form renormalized ridge for Cov = S^2 I."""
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if not gamma > 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    if not S > 0:
        raise ValueError(f"S must be > 0, got {S}")
    S2 = S * S
    r = sigma**2 * alpha / gamma**2 / S2  # R_hat / S^2
    return 0.5 * S2 * (alpha + r - 1.0 + math.sqrt((1.0 - alpha - r) ** 2 + 4.0 * r))


def solve_for_config(config: ModelConfig) -> DetEquiv:
    """Solve the fixed point for a model config: spectrum [S^2], Cov = S^2 I."""
    return solve_ridge(config.alpha, config.sigma, config.gamma, [config.S**2])


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

    ``sigma_c`` is the critical threshold sqrt((1 - alpha m2)/(alpha m2));
    ``valid`` records sigma^2 <= VALIDITY_FACTOR * sigma_c^2. Note the
    threshold compares a variance against a dimensionless ratio, exactly as
    the closed form is stated; it is reported verbatim rather than silently
    rescaled.
    """

    var_z: float
    sigma_c: float
    valid: bool


def noise_variance_check(de: DetEquiv, sigma: float) -> NoiseVarianceCheck:
    """Variance of the omitted label-noise term and the small-noise test."""
    am2 = de.alpha * de.m2
    if am2 >= 1.0:
        raise ValueError(
            f"alpha * m2 = {am2:.6f} >= 1: the deterministic equivalent of the "
            "noise variance diverges"
        )
    if am2 == 0.0:
        return NoiseVarianceCheck(var_z=0.0, sigma_c=math.inf, valid=True)
    var_z = sigma**2 * am2 / (1.0 - am2)
    sigma_c = math.sqrt((1.0 - am2) / am2)
    return NoiseVarianceCheck(
        var_z=var_z,
        sigma_c=sigma_c,
        valid=sigma**2 <= VALIDITY_FACTOR * sigma_c**2,
    )
