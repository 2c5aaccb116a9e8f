"""Exact Bayesian linear-regression posterior and posterior predictive.

With features x/sqrt(d), noise variance sigma^2 and prior N(0, gamma^2 I),
the posterior over weights is N(mu, Omega) with

    Omega^{-1} = (1/sigma^2) sum_i (x^i/sqrt(d))(x^i/sqrt(d))^T + (1/gamma^2) I
    mu         = (1/sigma^2) Omega sum_i y^i x^i/sqrt(d)

and the predictive at a test point x is N(mu.x/sqrt(d),
(x/sqrt(d))^T Omega (x/sqrt(d)) + sigma^2). The precision matrix is factorized
by numpy.linalg.cholesky, which also gates positive definiteness, and both
mu and Omega are solved through that factor, never through an explicit
inverse of the precision.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import Dataset, ModelConfig


@dataclass(frozen=True)
class Posterior:
    """Posterior mean vector, covariance matrix, and the carried noise std."""

    mu: np.ndarray
    omega: np.ndarray
    sigma: float

    @property
    def d(self) -> int:
        return self.mu.shape[0]


def fit_posterior(data: Dataset, config: ModelConfig) -> Posterior:
    """Compute the exact posterior for a dataset.

    n = 0 returns the prior (mu = 0, Omega = gamma^2 I). sigma = 0 with
    n > 0 is rejected: the Gaussian likelihood is degenerate.
    """
    if data.d != config.d:
        raise ValueError(f"dataset dimension {data.d} != config d {config.d}")
    if data.n == 0:
        return Posterior(
            mu=np.zeros(config.d),
            omega=config.prior_var * np.eye(config.d),
            sigma=config.sigma,
        )
    if config.sigma == 0:
        raise ValueError("sigma = 0 with n > 0: likelihood is degenerate")
    if not (np.all(np.isfinite(data.inputs)) and np.all(np.isfinite(data.labels))):
        raise ValueError("dataset contains non-finite values")
    # reciprocal squares as products: past the float range they give 0 or inf, never raise
    inv_s2 = (1.0 / config.sigma) * (1.0 / config.sigma)
    inv_g2 = (1.0 / config.gamma) * (1.0 / config.gamma)
    Xs = data.inputs / math.sqrt(config.d)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
        prec = Xs.T @ Xs * inv_s2 + np.eye(config.d) * inv_g2
        prec = 0.5 * (prec + prec.T)  # suppress asymmetric rounding before factorizing
    if not np.all(np.isfinite(prec)):
        raise ValueError(f"the posterior precision leaves the float range at n = {config.n}, "
                         f"d = {config.d}, sigma = {config.sigma:g}, gamma = {config.gamma:g}")
    try:
        L = np.linalg.cholesky(prec)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"posterior precision is not numerically positive definite at n = {config.n}, "
            f"d = {config.d}, sigma = {config.sigma:g}, gamma = {config.gamma:g}"
        ) from exc
    # one solve gives L^{-1} X^T y and L^{-1}; then Omega = L^{-T} L^{-1}
    sol = np.linalg.solve(L, np.column_stack([Xs.T @ data.labels, np.eye(config.d)]))
    L_inv = sol[:, 1:]
    mu = L_inv.T @ sol[:, 0] * inv_s2
    omega = L_inv.T @ L_inv
    omega = 0.5 * (omega + omega.T)
    return Posterior(mu=mu, omega=omega, sigma=config.sigma)


def predictive_moments_batch(post: Posterior, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized predictive moments for rows of X; returns (means, variances)."""
    Xs = np.asarray(X, dtype=float) / math.sqrt(post.d)
    means = Xs @ post.mu
    variances = np.einsum("ij,ij->i", Xs @ post.omega, Xs) + post.sigma**2
    return means, variances
