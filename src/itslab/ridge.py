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

R comes from bisection to float resolution, from an upper bound of the root,
in about 40-60 evaluations of m; ``solve_for_config`` keeps each config's
solution, so a process pays for them once per config.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import ModelConfig

_RESIDUAL_TOL = 1e-12
_FLOAT_MAX = float(np.finfo(float).max)

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
    return float((spectrum / (spectrum + R)).sum() / spectrum.size)


def _m2(spectrum: np.ndarray, R: float) -> float:
    return float(((spectrum / (spectrum + R)) ** 2).sum() / spectrum.size)


def solve_ridge(alpha: float, sigma: float, gamma: float, spectrum) -> DetEquiv:
    """Solve the renormalized-ridge fixed point for a diagonal spectrum.

    Solves g(R) = R (1 - alpha m(R)) = R_hat, which has one root for the
    admissible inputs, by bisection to float resolution (``_fixed_point``).
    The returned solution is finite with residual |g(R) - R_hat| <= 1e-12
    max(1, R_hat, R), which covers the float rounding of g at a large R;
    ValueError where no finite R reaches R_hat.
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

    R = _fixed_point(alpha, spectrum, R_hat) if R_hat > 0.0 else 0.0
    m1 = _m1(spectrum, R)
    residual = abs(R * (1.0 - alpha * m1) - R_hat)
    if not (math.isfinite(R) and residual <= _RESIDUAL_TOL * max(1.0, R_hat, R)):
        raise RuntimeError(f"fixed-point residual {residual:.3e} exceeds tolerance")

    return DetEquiv(R=R, R_hat=R_hat, alpha=alpha, spectrum=spectrum, m1=m1, m2=_m2(spectrum, R))


def _fixed_point(alpha: float, spectrum: np.ndarray, R_hat: float) -> float:
    """The float R where g(R) = R (1 - alpha m1(R)) reaches R_hat > 0, by bisection.

    In floats, g(R) < R_hat flips once as R grows (each operation of g rounds
    monotonically), so the bracket (lo = R_hat or g(lo) < R_hat, g(hi) >=
    R_hat) closes on one pair of adjacent floats whatever its path, and R is
    their midpoint as rounded. The bracket's first upper end is a bound of
    the root, which keeps a solve at about 40-60 evaluations of g (about 100
    at alpha = 1 and a tiny R_hat).
    """
    n = spectrum.size
    lo, hi = R_hat, math.inf
    x = R_hat + alpha * (float(spectrum.sum()) / n)  # g(R) >= R - alpha mean(lambda)
    if alpha < 1.0:
        x = min(x, R_hat / (1.0 - alpha))  # g(R) >= (1 - alpha) R
    x = min(max(x, math.nextafter(R_hat, math.inf)), _FLOAT_MAX)  # above lo, a float
    while True:
        g = x * (1.0 - alpha * (float((spectrum / (spectrum + x)).sum()) / n))
        if g < R_hat:
            lo = x
        else:
            hi = x
        if hi == math.inf:  # rounding kept g below R_hat at the bound: double, within the float range
            if lo == _FLOAT_MAX:
                raise ValueError(f"no finite R solves R (1 - alpha m(R)) = R_hat = {R_hat:g}")
            x = min(2.0 * lo, _FLOAT_MAX)
            continue
        x = 0.5 * lo + 0.5 * hi if lo > 1.0 else 0.5 * (lo + hi)  # 0.5 (lo + hi), without overflow
        if x == lo or x == hi:
            return x


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


@functools.lru_cache(maxsize=16)
def solve_for_config(config: ModelConfig) -> DetEquiv:
    """Solve the fixed point for a model config: spectrum [S^2], Cov = S^2 I.

    The solution is kept per config (its spectrum read-only), so a process
    solves a config once and a subcommand's theory columns and its engine call
    share that solve. The cache carries the cost of the bisection: uncached,
    every engine call would pay two solves of about 0.1 ms each.
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
