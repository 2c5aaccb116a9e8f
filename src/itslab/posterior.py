"""Exact Bayesian linear-regression posterior, held in its own eigenbasis.

With features x/sqrt(d), noise variance sigma^2 and prior N(0, gamma^2 I),
the posterior over weights is N(mu, Omega) with

    Omega^{-1} = (1/sigma^2) sum_i (x^i/sqrt(d))(x^i/sqrt(d))^T + (1/gamma^2) I
    mu         = (1/sigma^2) Omega sum_i y^i x^i/sqrt(d)

The precision is factored once by numpy.linalg.eigh, V diag(lambda) V^T,
whose smallest eigenvalue also gates positive definiteness. In that basis
Omega is the diagonal 1/lambda and mu is V^T mu, so no d x d covariance is
formed. A test point is given by its coordinates z = V^T x in the same
basis, and its predictive N(z.(V^T mu)/sqrt(d), sigma^2 + sum_i z_i^2 /
(lambda_i d)) costs O(d). The prior (n = 0) is the same shape, with V = I.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import Dataset, ModelConfig


@dataclass(frozen=True)
class Posterior:
    """The posterior in its eigenbasis: N(basis @ mean, basis diag(var) basis^T).

    ``basis`` holds the eigenvectors of the precision as columns, ``mean``
    the posterior mean in their coordinates and ``var`` the eigenvalues of
    the covariance; ``sigma`` is the carried noise std.
    """

    basis: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    sigma: float

    @property
    def d(self) -> int:
        return self.mean.shape[0]


def fit_posterior(data: Dataset, config: ModelConfig) -> Posterior:
    """Compute the exact posterior for a dataset.

    n = 0 returns the prior (mean 0, var gamma^2, basis I). sigma = 0 with
    n > 0 is rejected: the Gaussian likelihood is degenerate.
    """
    if data.d != config.d:
        raise ValueError(f"dataset dimension {data.d} != config d {config.d}")
    if data.n == 0:
        return Posterior(basis=np.eye(config.d), mean=np.zeros(config.d),
                         var=np.full(config.d, config.prior_var), sigma=config.sigma)
    if config.sigma == 0:
        raise ValueError("sigma = 0 with n > 0: likelihood is degenerate")
    # reciprocal squares as products: past the float range they give 0 or inf, never raise
    inv_s2 = (1.0 / config.sigma) * (1.0 / config.sigma)
    inv_g2 = (1.0 / config.gamma) * (1.0 / config.gamma)
    Xs = data.inputs / math.sqrt(config.d)
    where = f"n = {config.n_text}, d = {config.d}, sigma = {config.sigma:g}, gamma = {config.gamma:g}"
    with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
        prec = Xs.T @ Xs * inv_s2 + np.eye(config.d) * inv_g2
        prec = 0.5 * (prec + prec.T)  # suppress asymmetric rounding before factorizing
    if not np.all(np.isfinite(prec)):
        raise ValueError(f"the posterior precision leaves the float range at {where}")
    lam, V = np.linalg.eigh(prec)
    if not lam[0] > 0:
        raise ValueError(f"posterior precision is not numerically positive definite at {where}")
    # one factor inv_s2 / lam <= 1 / eig(Xs^T Xs): at huge n, Xs^T y * inv_s2 alone can overflow
    mean = (V.T @ (Xs.T @ data.labels)) * (inv_s2 / lam)
    return Posterior(basis=V, mean=mean, var=1.0 / lam, sigma=config.sigma)


def predictive_moments_batch(post: Posterior, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictive (means, variances) at test points given as rows of Z = X @ post.basis."""
    Zs = np.asarray(Z, dtype=float) / math.sqrt(post.d)
    return Zs @ post.mean, (Zs * Zs) @ post.var + post.sigma**2
