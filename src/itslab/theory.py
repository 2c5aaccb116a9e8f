"""Closed-form predictions for the selection error.

Four regimes are covered:

* a high-temperature series in 1/t, t = T / (2 s^2), whose coefficients
  C_l = 2 Dt Dr + s^2 + (l-1) Dr^2 are built from the deviations of the
  predictive mean from the teacher (Dt) and reward (Dr) targets, or from
  their second moments over x for any reward;
* the best-of-k tail law delta(x) = (pi/k^2) s^2 exp(Dt^2/s^2) for an
  aligned reward at T = 0, plus its x-averaged refinement
  (pi sigma^2/k^2) (1 - 2 E Dt^2/sigma^2)^{-1/2}, E Dt^2 = b^2 S^2 |w|^2/d;
* stationary points of the series: the reward weight, sample count k and
  temperature that minimize the error;
* log-log derivatives of the best-of-k error with respect to k and n, the
  inference-vs-training compute trade-off (in n, exact through the fixed point).
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelConfig
from .ridge import DetEquiv

# Below this t the dropped 1/t^4 remainder is no longer a sub-percent
# correction in the regimes of interest; SeriesTerms.caveat flags it, nothing refuses it.
SERIES_T_WARN = 5.0
# Past this ratio of the series' second term to its first, |C_2|/(|C_1| t), the caveat flags it
# too: on the figure config the series met Monte Carlo within 2 stderr at ratios up to 0.36 and
# missed it by 7 to 101 stderr (worst cell per c and T) at ratios 0.44 to 2.3 with c > 0.
SERIES_RATIO_WARN = 0.4


@dataclass(frozen=True)
class SeriesTerms:
    """Inputs of the high-temperature series at one point, or their x-averages (:meth:`averaged`).

    dt2 = Dt^2, dtdr = Dt Dr, dr2 = Dr^2 (Dt = m - mu_T, Dr = m - mu_R), s2 the
    predictive variance and t = T / (2 s2). ``C`` gives the three series coefficients.
    """

    dt2: float
    dtdr: float
    dr2: float
    s2: float
    t: float

    def __post_init__(self):
        if not self.s2 > 0:
            raise ValueError(f"s2 must be > 0, got {self.s2}")

    @property
    def C(self) -> tuple[float, float, float]:
        return _coefficients(self.dtdr, self.dr2, self.s2)

    @property
    def caveat(self) -> str | None:
        """Why the series may be inaccurate (t < SERIES_T_WARN or |C_2|/(|C_1| t) > SERIES_RATIO_WARN), or None."""
        if self.t < SERIES_T_WARN:
            return (f"series evaluated at t = {self.t:.3g} < {SERIES_T_WARN}; "
                    "the dropped remainder may not be negligible")
        c1, c2, _ = self.C
        ratio = abs(c2) / (abs(c1) * self.t) if c1 else math.inf
        if ratio > SERIES_RATIO_WARN:
            return (f"series terms fall slowly: |C_2|/(|C_1| t) = {ratio:.3g} > {SERIES_RATIO_WARN}; "
                    "the dropped remainder may not be negligible")
        return None

    @classmethod
    def averaged(
        cls, config: ModelConfig, de: DetEquiv, w_T: np.ndarray, w_R: np.ndarray, T: float
    ) -> "SeriesTerms":
        """The terms averaged over test points x ~ N(0, S^2 I), for any reward.

        Dt = -b w_T . x/sqrt(d) and Dr = ((w_T - w_R) - b w_T) . x/sqrt(d), a
        weight that does not cancel as w_R nears w_T; E (u.x)(v.x)/d = (S^2/d) u.v;
        s2 = sigma^2 + gamma^2 b S^2 is the x-average of s^2(x); where s^2 does
        not vary in x, the series of these terms is the x-average of the pointwise one.
        """
        w_T = np.asarray(w_T, dtype=float)
        dt = -de.b * w_T
        dr = (w_T - np.asarray(w_R, dtype=float)) + dt
        scale = de.S2 / config.d
        s2_bar = config.sigma**2 + _spread(config, de)
        if not s2_bar > 0:
            raise ValueError(f"the averaged predictive variance is {s2_bar}; the series needs s2 > 0")
        return cls(dt2=scale * float(dt @ dt), dtdr=scale * float(dt @ dr), dr2=scale * float(dr @ dr),
                   s2=s2_bar, t=T / (2.0 * s2_bar))


def _spread(config: ModelConfig, de: DetEquiv) -> float:
    """gamma^2 b S^2 = E s^2(x) - sigma^2, as gamma^2 (a R): equal, and a R keeps a subnormal b's digits."""
    return config.prior_var * (de.a * de.R)


def _teacher_rms(config: ModelConfig, de: DetEquiv, w: np.ndarray) -> float:
    """sqrt(E Dt^2) = b q over x ~ N(0, S^2 I), q^2 = S^2 |w|^2/d."""
    w = np.asarray(w, dtype=float)
    return de.b * math.sqrt(de.S2 * float(w @ w) / config.d)


def _coefficients(dtdr, dr2, s2):
    """C_l = 2 Dt Dr + s^2 + (l-1) Dr^2, l = 1..3; plain arithmetic for floats or arrays."""
    c1 = 2.0 * dtdr + s2
    return c1, c1 + dr2, c1 + 2.0 * dr2


def _series(dt2, dtdr, dr2, s2, t, k: int):
    """Dt^2 + s^2 + sum_l (-1)^l C_l t^-l prod_{j<=l} (1 - j/k), floats or arrays."""
    total = dt2 + s2
    prod = 1.0
    for ell, c in enumerate(_coefficients(dtdr, dr2, s2), start=1):
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
    """Three-term high-temperature series for delta(x), or its x-average.

    Exact at k = 1 (every correction carries a factor 1 - 1/k); accurate to
    O(t^{-4}) otherwise; ``st.caveat`` flags terms where that may not hold.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not st.t > 0:
        raise ValueError(f"the series requires t > 0, got {st.t}")
    return _series(st.dt2, st.dtdr, st.dr2, st.s2, st.t, k)


@dataclass(frozen=True)
class RefinedBestOfK:
    """x-averaged best-of-k error with its validity diagnostics.

    ``concentration`` is 2 E Dt^2 / sigma^2 = 2 (b q / sigma)^2, q^2 =
    S^2 |w|^2/d; the closed form needs it below 1. ``regime_ok`` records
    the variance-flatness condition gamma^2 b S^2 <= 0.01 sigma^2 under
    which s^2(x) ~ sigma^2.
    """

    value: float
    regime_ok: bool
    concentration: float


def refined_best_of_k_delta(config: ModelConfig, de: DetEquiv, w: np.ndarray, k: int) -> RefinedBestOfK:
    """x-averaged best-of-k error (pi sigma^2/k^2)(1 - concentration)^{-1/2}.

    The concentration 2 (b q/sigma)^2 is formed ratio first, so it keeps its digits where b^2 q^2 underflows.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    conc = 2.0 * (_teacher_rms(config, de, w) / config.sigma) ** 2
    if conc >= 1.0:
        raise ValueError(
            f"2 u^T Cov u / (sigma^2 d) = {conc:.4f} >= 1: outside the closed form's domain"
        )
    regime_ok = _spread(config, de) <= 0.01 * config.sigma**2
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


def optimal_temperature(st: SeriesTerms, k: int) -> float:
    """Error-minimizing temperature T_opt = 2 s^2 . 2 (1 - 2/k) C2 / C1 of terms ``st``; ``st.t`` is not read."""
    if k <= 2:
        raise ValueError(f"k must be > 2, got {k}")
    c1, c2, _ = st.C
    if c1 <= 0 or c2 <= 0:
        raise ValueError(f"stationary temperature requires C1 > 0 and C2 > 0, got {c1}, {c2}")
    t_opt = 2.0 * (1.0 - 2.0 / k) * c2 / c1
    return 2.0 * st.s2 * t_opt


@dataclass(frozen=True)
class ScalingDerivatives:
    """Log-log sensitivities of the aligned best-of-k error.

    dlogk is exactly -2 (the k^{-2} law). dlogn is the exact derivative of
    the deterministic equivalent in log n, through the ridge's dependence on
    alpha = d/n. ``small_ridge_ok`` records R <= 0.01 sigma^2,
    the conservative domain of the inference-over-training dominance claim.
    """

    dlogk: float
    dlogn: float
    small_ridge_ok: bool


def scaling_derivatives(config: ModelConfig, de: DetEquiv, w: np.ndarray) -> ScalingDerivatives:
    """Trade-off derivatives d log delta / d log k and d log n.

    dlogn = -alpha dE/dalpha / (sigma^2 - 2 E), E = E Dt^2 = b^2 q^2, from
    the one solve ``de`` by implicit differentiation of g(R) = R_hat: dR/dalpha
    = (R_hat/alpha + R m1)/g'(R), dE/dR = 2 b q^2 a^2/S^2 = 2 b m2 |w|^2/d,
    and dR/denominator first, as dR dE/dR can underflow where dlogn does not.
    """
    w = np.asarray(w, dtype=float)
    denom = config.sigma**2 - 2.0 * _teacher_rms(config, de, w) ** 2
    if denom <= 0:
        raise ValueError("sigma^2 d - 2 u^T Cov u <= 0: outside the formula's domain")
    dR, dE_dR = (de.R_hat / de.alpha + de.R * de.m1) / de.slope, 2.0 * de.b * de.m2 * (float(w @ w) / config.d)
    return ScalingDerivatives(dlogk=-2.0, dlogn=-de.alpha * (dR / denom) * dE_dR,
                              small_ridge_ok=de.R <= 0.01 * config.sigma**2)


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
