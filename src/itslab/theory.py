"""Closed-form predictions for the selection error.

Four regimes are covered:

* a high-temperature series in 1/t, t = T / (2 s^2), whose coefficients
  C_l = 2 Dt Dr + s^2 + (l-1) Dr^2 are built from the deviations of the
  predictive mean from the teacher (Dt) and reward (Dr) targets;
* the best-of-k tail law delta(x) = (pi/k^2) s^2 exp(Dt^2/s^2) for an
  aligned reward at T = 0, plus its x-averaged refinement
  (pi sigma^2/k^2) (1 - 2 u^T Cov u / (sigma^2 d))^{-1/2}, u = B w;
* stationary points of the series: the reward weight, sample count k and
  temperature that minimize the error;
* log-log derivatives of the best-of-k error with respect to k and n, the
  inference-vs-training compute trade-off (in n, exact through the fixed point).
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelConfig
from .ridge import DetEquiv, de_moments_batch

# Below this t the dropped 1/t^4 remainder is no longer a sub-percent
# correction in the regimes of interest; SeriesTerms.caveat flags it, nothing refuses it.
SERIES_T_WARN = 5.0


@dataclass(frozen=True)
class SeriesTerms:
    """Inputs of the high-temperature series at one (possibly averaged) point.

    delta_T = m - mu_T, delta_R = m - mu_R, s2 the predictive variance and
    t = T / (2 s2). ``C`` gives the three series coefficients.
    """

    delta_T: float
    delta_R: float
    s2: float
    t: float

    def __post_init__(self):
        if not self.s2 > 0:
            raise ValueError(f"s2 must be > 0, got {self.s2}")

    @property
    def C(self) -> tuple[float, float, float]:
        return _coefficients(self.delta_T, self.delta_R, self.s2)

    @property
    def caveat(self) -> str | None:
        """Why the series may be inaccurate at these terms (t < SERIES_T_WARN), or None."""
        if self.t < SERIES_T_WARN:
            return (f"series evaluated at t = {self.t:.3g} < {SERIES_T_WARN}; "
                    "the dropped remainder may not be negligible")
        return None

    @classmethod
    def from_radial_average(
        cls, config: ModelConfig, de: DetEquiv, w_T: np.ndarray, w_R: np.ndarray, T: float
    ) -> "SeriesTerms":
        """Test-point-averaged terms for rewards colinear with the teacher.

        Over x ~ N(0, Cov), the second moments of Dt and Dr are quadratic
        forms in avec = -B w_T and bvec = A w_T - w_R. When they are parallel
        (every radial reward), evaluating the terms at the root-mean-square
        point reproduces the x-averages of all C_l exactly; the constructor
        refuses non-parallel pairs, for which only a numeric average over
        sampled points is faithful (see :func:`high_t_delta_batch`).
        """
        w_T = np.asarray(w_T, dtype=float)
        # b scaled by 2^e into [0.5, 1), exactly: the forms in avec round as unscaled ones do where
        # those stay normal, and where b is tiny they do not underflow, nor does avec turn
        e = -math.frexp(de.b)[1]
        avec = -math.ldexp(de.b, e) * w_T
        bvec = de.a * w_T - np.asarray(w_R, dtype=float)
        # E[(u.x/sqrt(d))(v.x/sqrt(d))] = u^T Cov v / d for x ~ N(0, Cov)
        aa = _cov_form(avec, avec, de) / config.d
        ab = _cov_form(avec, bvec, de) / config.d
        bb = _cov_form(bvec, bvec, de) / config.d
        if aa > 0 and bb > 0 and abs(ab) < (1.0 - 1e-9) * math.sqrt(aa * bb):
            raise ValueError(
                "reward deviation is not colinear with the teacher deviation; "
                "average the pointwise series numerically instead"
            )
        s2_bar = config.sigma**2 + config.prior_var * (de.b * de.S2)
        if not s2_bar > 0:
            raise ValueError(f"the averaged predictive variance is {s2_bar}; the series needs s2 > 0")
        if bb > 0:
            delta_R = math.sqrt(bb)
            delta_T = math.ldexp(ab / delta_R, -e)
        else:
            delta_R = 0.0
            delta_T = math.ldexp(math.sqrt(aa), -e)
        return cls(delta_T=delta_T, delta_R=delta_R, s2=s2_bar, t=T / (2.0 * s2_bar))


def _cov_form(u: np.ndarray, v: np.ndarray, de: DetEquiv) -> float:
    """u^T Cov v for Cov = S^2 I."""
    return float((de.S2 * u) @ v)


def _coefficients(delta_T, delta_R, s2):
    """C_l = 2 Dt Dr + s^2 + (l-1) Dr^2, l = 1..3; plain arithmetic for floats or arrays."""
    c1 = 2.0 * delta_T * delta_R + s2
    dr2 = delta_R**2
    return c1, c1 + dr2, c1 + 2.0 * dr2


def _series(delta_T, delta_R, s2, t, k: int):
    """Dt^2 + s^2 + sum_l (-1)^l C_l t^-l prod_{j<=l} (1 - j/k), floats or arrays."""
    total = delta_T**2 + s2
    prod = 1.0
    for ell, c in enumerate(_coefficients(delta_T, delta_R, s2), start=1):
        prod *= 1.0 - ell / k
        if prod == 0.0:  # k = l: this term and every later one vanish, whatever c/t^l is
            break
        try:
            term = (-1) ** ell * c / t**ell
        except OverflowError:  # t^l leaves the float range where c/t^l need not: divide by t l times
            term = (-1) ** ell * c
            for _ in range(ell):
                term = term / t
        total = total + term * prod
    return total


def high_t_delta_x(st: SeriesTerms, k: int) -> float:
    """Three-term high-temperature series for delta(x).

    Exact at k = 1 (every correction carries a factor 1 - 1/k); accurate to
    O(t^{-4}) otherwise; ``st.caveat`` flags a t below SERIES_T_WARN.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not st.t > 0:
        raise ValueError(f"the series requires t > 0, got {st.t}")
    return _series(st.delta_T, st.delta_R, st.s2, st.t, k)


def high_t_delta_batch(
    config: ModelConfig,
    de: DetEquiv,
    w_T: np.ndarray,
    w_R: np.ndarray,
    T: float,
    k: int,
    X: np.ndarray,
) -> np.ndarray:
    """Pointwise series values at the rows of X (for numeric x-averaging)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not T > 0:
        raise ValueError(f"the series requires T > 0, got {T}")
    sqrt_d = math.sqrt(config.d)
    m, s2 = de_moments_batch(X, w_T, de, config)
    dT = m - X @ w_T / sqrt_d
    dR = m - X @ w_R / sqrt_d
    return _series(dT, dR, s2, T / (2.0 * s2), k)


@dataclass(frozen=True)
class RefinedBestOfK:
    """x-averaged best-of-k error with its validity diagnostics.

    ``concentration`` is 2 u^T Cov u / (sigma^2 d); the closed form needs it
    below 1. ``regime_ok`` records the variance-flatness condition
    (gamma^2/d) Tr(B Cov) <= 0.01 sigma^2 under which s^2(x) ~ sigma^2.
    """

    value: float
    regime_ok: bool
    concentration: float


def refined_best_of_k_delta(config: ModelConfig, de: DetEquiv, w: np.ndarray, k: int) -> RefinedBestOfK:
    """x-averaged best-of-k error (pi sigma^2/k^2)(1 - concentration)^{-1/2}."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    u = de.b * np.asarray(w, dtype=float)
    conc = 2.0 * _cov_form(u, u, de) / (config.sigma**2 * config.d)
    if conc >= 1.0:
        raise ValueError(
            f"2 u^T Cov u / (sigma^2 d) = {conc:.4f} >= 1: outside the closed form's domain"
        )
    regime_ok = config.prior_var * (de.b * de.S2) <= 0.01 * config.sigma**2
    value = math.pi * config.sigma**2 / k**2 / math.sqrt(1.0 - conc)
    return RefinedBestOfK(value=value, regime_ok=regime_ok, concentration=conc)


@dataclass(frozen=True)
class OptimalReward:
    """Error-minimizing reward weight and its relative shift off the teacher.

    The formula is a leading-order stationary point of the series; it is
    controlled only while ``shift_ratio`` = ||w_R - w_T|| / ||w_T|| stays
    small, which is reported rather than enforced.
    """

    w: np.ndarray
    shift_ratio: float


def optimal_reward(w_T: np.ndarray, de: DetEquiv, k: int, t: float) -> OptimalReward:
    """Reward weight minimizing the series error: w_T + (k/(k-2)) t B w_T."""
    if k <= 2:
        raise ValueError(f"k must be > 2, got {k}")
    w_T = np.asarray(w_T, dtype=float)
    shift = (k / (k - 2.0)) * t * (de.b * w_T)
    norm_T = float(np.linalg.norm(w_T))
    ratio = float(np.linalg.norm(shift)) / norm_T if norm_T > 0 else math.inf
    return OptimalReward(w=w_T + shift, shift_ratio=ratio)


def optimal_k(st: SeriesTerms) -> int | None:
    """Error-minimizing sample count, or None in the monotone regime.

    With t* = 3 C2 / C1: an interior optimum exists when C1 > 0, C2 > 0 and
    t < t*, at ceil((4/3) t* / (t* - t)); otherwise more samples only help.
    """
    c1, c2, _ = st.C
    if c1 <= 0 or c2 <= 0:
        return None
    t_star = 3.0 * c2 / c1
    if st.t >= t_star:
        return None
    return math.ceil((4.0 / 3.0) * t_star / (t_star - st.t))


def optimal_temperature(delta_T: float, delta_R: float, s2: float, k: int) -> float:
    """Error-minimizing temperature T_opt = 2 s^2 . 2 (1 - 2/k) C2 / C1."""
    if k <= 2:
        raise ValueError(f"k must be > 2, got {k}")
    if not s2 > 0:
        raise ValueError(f"s2 must be > 0, got {s2}")
    c1, c2, _ = _coefficients(delta_T, delta_R, s2)
    if c1 <= 0 or c2 <= 0:
        raise ValueError(f"stationary temperature requires C1 > 0 and C2 > 0, got {c1}, {c2}")
    t_opt = 2.0 * (1.0 - 2.0 / k) * c2 / c1
    return 2.0 * s2 * t_opt


@dataclass(frozen=True)
class ScalingDerivatives:
    """Log-log sensitivities of the aligned best-of-k error.

    dlogk is exactly -2 (the k^{-2} law). dlogn is the exact derivative of
    the deterministic equivalent in log n, through the ridge's dependence on
    alpha = d/n. ``small_ridge_ok`` records R <= 0.01 sigma^2,
    the conservative domain of the inference-over-training dominance claim;
    ``trace_ok`` is the variance-flatness condition shared with the refined
    best-of-k formula.
    """

    dlogk: float
    dlogn: float
    small_ridge_ok: bool
    trace_ok: bool


def scaling_derivatives(config: ModelConfig, de: DetEquiv, w: np.ndarray) -> ScalingDerivatives:
    """Trade-off derivatives d log delta / d log k and d log n.

    dlogn = -alpha dF/dalpha / (sigma^2 d - 2 F), F = u^T Cov u, u = B w, from
    the one solve ``de`` by implicit differentiation of g(R) = R_hat: dR/dalpha
    = (R_hat/alpha + R m1)/g'(R), dF/dR = 2 sum S^2 u w a/(S^2 + R) = 2 sum
    u w a^2, and dR/denominator first, as dR dF/dR can underflow where dlogn does not.
    """
    w = np.asarray(w, dtype=float)
    u = de.b * w
    denom = config.sigma**2 * config.d - 2.0 * _cov_form(u, u, de)
    if denom <= 0:
        raise ValueError("sigma^2 d - 2 u^T Cov u <= 0: outside the formula's domain")
    dR, dF_dR = (de.R_hat / de.alpha + de.R * de.m1) / de.slope, 2.0 * float(np.sum(u * w * de.m2))
    return ScalingDerivatives(dlogk=-2.0, dlogn=-de.alpha * (dR / denom) * dF_dR,
                              small_ridge_ok=de.R <= 0.01 * config.sigma**2,
                              trace_ok=config.prior_var * (de.b * de.S2) <= 0.01 * config.sigma**2)


def dlogn_flat_prior(config: ModelConfig, w: np.ndarray) -> float:
    """Closed-form dlogn in the flat-prior, ample-data regime.

    Uses u ~ (1/S^2)(sigma^2/gamma^2)(d/n) w, which is accurate when
    alpha << 1 and R << S^2; serves as an independent cross-check of the
    implicit derivative. Each of S, sigma, n and gamma outside
    [2^-100, 2^100] enters 2q as its mantissa, its power of two applied
    last, so no factor such as 1/S^2 or gamma^4 leaves the float range on
    its own; where 2q does, the result rounds to 1. Raises ValueError at the
    pole q = 1/2, and at n = 0, where alpha = d/n is not small.
    """
    if config.n == 0:
        raise ValueError("the flat-prior dlogn assumes alpha = d/n << 1; n = 0 has no training data")
    w = np.asarray(w, dtype=float)
    (S, e_S), (sigma, e_sigma), (n, e_n), (gamma, e_gamma) = (
        (x, 0) if 2.0**-100 <= x <= 2.0**100 else math.frexp(x)
        for x in (config.S, config.sigma, float(config.n), config.gamma)
    )
    q = (w @ w / config.d) * (1.0 / S**2) * (config.d**2 * sigma**2 / (n * n * gamma**4))
    try:
        two_q = math.ldexp(q, 1 + 2 * (e_sigma - e_S - e_n - 2 * e_gamma))
    except OverflowError:  # a tiny S: -2q/(1 - 2q) = 1/(1 - 1/(2q)) rounds to 1
        return 1.0
    if two_q == 1.0:
        raise ValueError("the flat-prior dlogn has a pole at q = 1/2")
    return -two_q / (1.0 - two_q)
