"""Teacher-student generative model: configuration, datasets, reward weights.

The data model is a linear teacher observed through Gaussian noise,

    y = w_T . x / sqrt(d) + eta,   x ~ N(0, S^2 I),   eta ~ N(0, sigma^2),

with an isotropic Gaussian prior N(0, gamma^2 I) used downstream for the
Bayesian fit. The fit reads a training set only through X^T X and X^T y, so
a dataset is drawn already rotated onto its column space: min(n, d) rows of
the Bartlett factor in place of the n x d design. The reward weight w_R
scores candidate outputs and may be misaligned with w_T; two
parameterizations are supported (a radial multiple of w_T, and a planar
offset at an angle from w_T).
"""

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

_TEACHER_MODES = ("sampled", "normalized")
_REWARD_MODES = ("radial_c", "polar")


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions and scales of the teacher-student setup.

    d: input dimension, n: training set size, S: input scale (covariance
    S^2 I), sigma: label noise std, gamma: prior std, tau: teacher sampling
    std. ``teacher_mode`` selects between sampling w_T ~ N(0, tau^2 I) and
    rescaling the draw so that ||w_T||^2 = d exactly. The fields are the
    whole schema: a config file and the CLI's model flags set these names,
    and what they leave out takes the defaults here.
    """

    d: int = 10
    n: int = 10_000
    S: float = 1.0
    sigma: float = 1e-4
    gamma: float = 1e-3
    tau: float = 2.0
    teacher_mode: str = "sampled"

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if not self.S > 0:
            raise ValueError(f"S must be > 0, got {self.S}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.tau < 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")
        if self.teacher_mode not in _TEACHER_MODES:
            raise ValueError(
                f"teacher_mode must be one of {_TEACHER_MODES}, got {self.teacher_mode!r}"
            )

    @property
    def alpha(self) -> float:
        """Aspect ratio d/n. Only defined for n > 0, and where d/n does not underflow to 0."""
        if self.n == 0:
            raise ValueError("alpha = d/n is undefined for n = 0")
        alpha = self.d / self.n
        if alpha == 0.0:
            raise ValueError(f"n is too large: alpha = d/n = {self.d}/n underflows to 0")
        return alpha

    @property
    def n_text(self) -> str:
        """n as printed: its digits up to 2**53, past that its short float form (1e+300)."""
        return str(self.n) if self.n <= 2**53 else repr(float(self.n))

    @property
    def prior_var(self) -> float:
        """The prior variance gamma^2; ValueError where it leaves the float range.

        The exact posterior (n > 0) and the ridge fixed point need only 1/gamma^2.
        """
        if not self.gamma * self.gamma < math.inf:
            raise ValueError(
                f"gamma = {self.gamma:g}: the prior variance gamma^2 leaves the float range"
            )
        return self.gamma**2

    @classmethod
    def from_file(cls, path, **overrides) -> "ModelConfig":
        """Build a config from a key=value file, applying keyword overrides.

        The keys are the field names, each parsed with its field's type; any
        may be left out. Lines may use ``key = value`` or ``key: value``;
        ``#`` starts a comment. A None override counts as not given.
        """
        types = {field.name: field.type for field in fields(cls)}
        merged: dict = {}
        for key, (lineno, value) in _parse_kv_file(path).items():
            if key not in types:
                raise ValueError(f"unknown config key {key!r} in {path}")
            try:
                merged[key] = types[key](value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: key {key!r}: {exc}") from None
        for key, value in overrides.items():
            if value is not None:
                merged[key] = value
        return cls(**merged)


def _parse_kv_file(path) -> dict:
    """Each key of a key=value file mapped to (line number, value text); a key may appear once."""
    raw = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        for sep in ("=", ":"):
            if sep in line:
                key, _, value = line.partition(sep)
                key = key.strip()
                if key in raw:
                    raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
                raw[key] = (lineno, value.strip())
                break
        else:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
    return raw


@dataclass(frozen=True)
class Dataset:
    """Training inputs (rows x d) and labels (rows,).

    generate_dataset gives min(n, d) rows with the X^T X and X^T y of n samples.
    """

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.inputs.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("inputs must be 2-d and labels 1-d")
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ValueError("inputs and labels disagree on n")
        if not (np.all(np.isfinite(self.inputs)) and np.all(np.isfinite(self.labels))):
            raise ValueError("dataset contains non-finite values")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def d(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True)
class RewardSpec:
    """How the reward weight w_R is derived from the teacher.

    radial_c: w_R = (1 + c R/(R + S^2)) w_T, a shrinkage-compensating multiple.
    polar: w_R = w_T + c (cos(theta_T + theta), sin(theta_T + theta)), d = 2
        only; theta is the angle between w_R - w_T and w_T, c its magnitude.
    """

    mode: str
    c: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        if self.mode not in _REWARD_MODES:
            raise ValueError(f"mode must be one of {_REWARD_MODES}, got {self.mode!r}")

    @classmethod
    def radial(cls, c: float) -> "RewardSpec":
        return cls(mode="radial_c", c=float(c))

    @classmethod
    def polar(cls, c: float, theta: float) -> "RewardSpec":
        return cls(mode="polar", c=float(c), theta=float(theta))


def sample_teacher(config: ModelConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw the teacher weight w_T.

    Entries are i.i.d. N(0, tau^2); in normalized mode the draw is rescaled
    so that ||w_T||^2 = d.
    """
    w = rng.normal(0.0, config.tau, size=config.d) if config.tau > 0 else np.zeros(config.d)
    if config.teacher_mode == "normalized":
        ss = float(np.dot(w, w))
        if ss == 0.0:
            raise ValueError("cannot normalize a zero teacher draw (tau = 0?)")
        w = w * math.sqrt(config.d / ss)
    return w


def generate_dataset(config: ModelConfig, w_T: np.ndarray, rng: np.random.Generator) -> Dataset:
    """Sample a training set of size n from the teacher, rotated onto its column space.

    The n x d design X (rows ~ N(0, S^2 I)) and labels y = X w_T / sqrt(d) +
    eta, eta ~ N(0, sigma^2 I_n), are never drawn. With X = S Q R (reduced
    QR), R has the Bartlett law: m x d upper trapezoidal, m = min(n, d),
    R[i, i]^2 ~ chi^2(n - i) and N(0, 1) above the diagonal, all independent,
    while Q^T eta ~ N(0, sigma^2 I_m) independently of R. The returned
    (S R, S R w_T / sqrt(d) + Q^T eta) thus has the X^T X and X^T y of (X, y)
    in law, which is all the posterior reads, at O(m d) variates and O(d^2)
    memory whatever n is.

    Draw order: the m chi-squares, an m x d standard normal matrix (its
    strict upper triangle kept), then the m noise values (none at sigma = 0).
    """
    if w_T.shape != (config.d,):
        raise ValueError(f"w_T has shape {w_T.shape}, expected ({config.d},)")
    m = min(config.n, config.d)
    chi2 = rng.chisquare(config.n - np.arange(m, dtype=float))  # n may pass the int64 range
    R = np.triu(rng.standard_normal((m, config.d)), 1)
    np.fill_diagonal(R, np.sqrt(chi2))
    X = config.S * R
    eta = rng.normal(0.0, config.sigma, size=m) if config.sigma > 0 else np.zeros(m)
    y = X @ w_T / math.sqrt(config.d) + eta
    return Dataset(inputs=X, labels=y)


def resolve_reward(spec: RewardSpec, w_T: np.ndarray, R: float, S: float) -> np.ndarray:
    """Materialize the reward weight w_R for the chosen parameterization."""
    if R < 0:
        raise ValueError(f"R must be >= 0, got {R}")
    if spec.mode == "radial_c":
        return (1.0 + spec.c * R / (R + S * S)) * w_T
    # polar
    if w_T.shape != (2,):
        raise ValueError("polar reward parameterization requires d = 2")
    theta_T = math.atan2(w_T[1], w_T[0])
    offset = spec.c * np.array(
        [math.cos(theta_T + spec.theta), math.sin(theta_T + spec.theta)]
    )
    return w_T + offset
