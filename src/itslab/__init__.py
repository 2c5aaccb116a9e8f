"""Inference-time scaling laboratory.

Bayesian linear regression with reward-weighted candidate selection:
Monte Carlo error estimation cross-validated against closed-form
deterministic-equivalent, high-temperature and best-of-k predictions, plus
the same selection metric on externally judge-scored records.
"""

from .evt import chisq1_cdf, chisq1_pdf, chisq1_quantile, weibull_norming
from .judge import JudgeDataset, JudgeRecordError, judge_sweep, load_records
from .mc import (
    SweepResult,
    classify_k_monotonicity,
    delta_c_curve,
    delta_k_curve,
    delta_t_curve,
)
from .model import (
    Dataset,
    ModelConfig,
    RewardSpec,
    generate_dataset,
    resolve_reward,
    sample_teacher,
)
from .posterior import (
    Posterior,
    fit_posterior,
    predictive_moments_batch,
)
from .ridge import (
    DetEquiv,
    NoiseVarianceCheck,
    de_moments_batch,
    noise_variance_check,
    solve_for_config,
    solve_ridge,
)
from .rngstreams import stream
from .theory import (
    RefinedBestOfK,
    ScalingDerivatives,
    SeriesTerms,
    dlogn_flat_prior,
    high_t_delta_x,
    optimal_c,
    optimal_k,
    optimal_temperature,
    refined_best_of_k_delta,
    scaling_derivatives,
)

__version__ = "0.1.0"
