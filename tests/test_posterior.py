import math

import numpy as np
import pytest

from itslab import (
    Dataset,
    ModelConfig,
    fit_posterior,
    generate_dataset,
    predictive_moments_batch,
    sample_teacher,
    stream,
)

from _synth import cholesky_moments, cholesky_posterior, input_coordinates


def ridge_solution_oracle(X, y, d, sigma, gamma):
    """Normal-equations ridge fit with penalty sigma^2/gamma^2 on x/sqrt(d)."""
    Xs = X / math.sqrt(d)
    A = Xs.T @ Xs + (sigma**2 / gamma**2) * np.eye(d)
    return np.linalg.solve(A, Xs.T @ y)


def test_empty_dataset_returns_prior():
    cfg = ModelConfig(d=3, n=0, sigma=0.2, gamma=1.5)
    post = fit_posterior(Dataset(np.zeros((0, 3)), np.zeros(0)), cfg)
    assert np.array_equal(post.basis, np.eye(3))
    assert np.array_equal(post.mean, np.zeros(3))
    np.testing.assert_allclose(post.var, np.full(3, 1.5**2), rtol=1e-15)


def test_single_observation_hand_solved():
    # d=1, x=1, y=1, sigma=1, gamma=1: precision = 1 + 1 so omega = 1/2,
    # mu = omega * 1 = 1/2.
    cfg = ModelConfig(d=1, n=1, sigma=1.0, gamma=1.0)
    post = fit_posterior(Dataset(np.array([[1.0]]), np.array([1.0])), cfg)
    assert abs(post.basis[0, 0]) == 1.0
    assert post.var[0] == pytest.approx(0.5, rel=1e-14)
    mu, _ = input_coordinates(post)
    assert mu[0] == pytest.approx(0.5, rel=1e-14)
    means, variances = predictive_moments_batch(post, post.basis)  # x = 1
    assert means[0] == pytest.approx(0.5, rel=1e-14)
    assert variances[0] == pytest.approx(1.5, rel=1e-14)


def test_sigma_zero_rejected():
    cfg = ModelConfig(d=2, n=1, sigma=0.0)
    with pytest.raises(ValueError, match="degenerate"):
        fit_posterior(Dataset(np.ones((1, 2)), np.ones(1)), cfg)


def test_nonfinite_rejected():
    cfg = ModelConfig(d=2, n=2, sigma=0.1)
    X = np.array([[1.0, 2.0], [np.inf, 0.0]])
    with pytest.raises(ValueError):
        fit_posterior(Dataset(X, np.ones(2)), cfg)


def test_mean_equals_ridge_regression():
    rng = np.random.default_rng(42)
    for _ in range(5):
        d = int(rng.integers(2, 20))
        n = int(rng.integers(d, 200))
        sigma = float(rng.uniform(0.05, 1.0))
        gamma = float(rng.uniform(0.2, 3.0))
        cfg = ModelConfig(d=d, n=n, sigma=sigma, gamma=gamma)
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        post = fit_posterior(Dataset(X, y), cfg)
        oracle = ridge_solution_oracle(X, y, d, sigma, gamma)
        np.testing.assert_allclose(input_coordinates(post)[0], oracle, rtol=1e-8)


def test_brute_force_covariance_agreement():
    rng = np.random.default_rng(1)
    for _ in range(5):
        d = int(rng.integers(2, 20))
        n = int(rng.integers(1, 200))
        cfg = ModelConfig(d=d, n=n, sigma=0.3, gamma=1.2)
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        post = fit_posterior(Dataset(X, y), cfg)
        Xs = X / math.sqrt(d)
        prec = Xs.T @ Xs / cfg.sigma**2 + np.eye(d) / cfg.gamma**2
        omega_oracle = np.linalg.solve(prec, np.eye(d))
        _, omega = input_coordinates(post)
        np.testing.assert_allclose(omega, omega_oracle, rtol=1e-8, atol=1e-14)


def test_omega_symmetric_spd_and_bounded_by_prior():
    # Omega = V diag(var) V^T with V orthonormal and 0 < var <= gamma^2
    cfg = ModelConfig(d=8, n=40, sigma=0.2, gamma=0.9)
    w = sample_teacher(cfg, stream(0, "teacher"))
    data = generate_dataset(cfg, w, stream(0, "data"))
    post = fit_posterior(data, cfg)
    V = post.basis
    assert np.max(np.abs(V.T @ V - np.eye(cfg.d))) <= 1e-14
    assert np.all(post.var > 0)
    assert np.all(post.var <= cfg.gamma**2 * (1 + 1e-12))


def test_predictive_at_origin_and_prior_point():
    cfg = ModelConfig(d=4, n=0, sigma=0.3, gamma=2.0)
    post = fit_posterior(Dataset(np.zeros((0, 4)), np.zeros(0)), cfg)
    means0, variances0 = predictive_moments_batch(post, np.zeros(4)[None, :])
    assert means0[0] == 0.0
    assert variances0[0] == pytest.approx(cfg.sigma**2, rel=1e-15)
    x = np.array([1.0, -2.0, 0.5, 3.0])
    means, variances = predictive_moments_batch(post, x[None, :])
    assert means[0] == 0.0
    assert variances[0] == pytest.approx(
        cfg.gamma**2 * (x @ x) / cfg.d + cfg.sigma**2, rel=1e-14
    )


def test_predictive_variance_strictly_above_noise():
    cfg = ModelConfig(d=6, n=30, sigma=0.2, gamma=1.0)
    w = sample_teacher(cfg, stream(4, "teacher"))
    data = generate_dataset(cfg, w, stream(4, "data"))
    post = fit_posterior(data, cfg)
    X = stream(4, "test_points").normal(size=(50, 6))
    _, variances = predictive_moments_batch(post, X @ post.basis)
    assert np.all(variances > cfg.sigma**2)


def test_duplicate_sample_never_increases_posterior_variance():
    # Adding an observation can only add information: the quadratic form
    # x^T Omega x is non-increasing for every x.
    rng = np.random.default_rng(7)
    for _ in range(10):
        d = int(rng.integers(1, 9))
        n = int(rng.integers(1, 17))
        cfg = ModelConfig(d=d, n=n, sigma=0.4, gamma=1.1)
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        post = fit_posterior(Dataset(X, y), cfg)
        dup = rng.integers(0, n)
        cfg2 = ModelConfig(d=d, n=n + 1, sigma=0.4, gamma=1.1)
        post2 = fit_posterior(
            Dataset(np.vstack([X, X[dup]]), np.append(y, y[dup])), cfg2
        )
        for _ in range(5):
            x = rng.normal(size=d)
            q1 = x @ input_coordinates(post)[1] @ x
            q2 = x @ input_coordinates(post2)[1] @ x
            assert q2 <= q1 * (1 + 1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_agrees_with_scipy_cholesky_oracle(seed):
    # the Cholesky route (scipy's cho_factor/cho_solve on the same precision)
    # as an independent oracle; n < d and gamma >> sigma make prec
    # ill-conditioned, and the bound scales with its condition number
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 60))
    n = int(rng.integers(1, d)) if seed % 3 == 0 else int(rng.integers(d, 4 * d))
    sigma = float(10 ** rng.uniform(-4, 0))
    gamma = sigma * float(10 ** rng.uniform(-1, 6)) if seed % 2 else float(10 ** rng.uniform(-3, 1))
    cfg = ModelConfig(d=d, n=n, sigma=sigma, gamma=gamma)
    X = rng.normal(size=(n, d))
    y = X @ rng.normal(size=d) / math.sqrt(d) + sigma * rng.normal(size=n)
    data = Dataset(X, y)
    post = fit_posterior(data, cfg)

    mu_ref, omega_ref, prec = cholesky_posterior(data, cfg)
    mu, omega = input_coordinates(post)
    tol = 50 * np.linalg.cond(prec) * np.finfo(float).eps
    assert np.linalg.norm(mu - mu_ref) <= tol * np.linalg.norm(mu_ref)
    assert np.linalg.norm(omega - omega_ref) <= tol * np.linalg.norm(omega_ref)
    # a test point x has eigen-coordinates x @ V: the moments agree point by point
    T = rng.normal(size=(200, d))
    m_ref, s2_ref = cholesky_moments(mu_ref, omega_ref, sigma, T)
    m, s2 = predictive_moments_batch(post, T @ post.basis)
    assert np.linalg.norm(m - m_ref) <= (1e-12 + tol) * np.linalg.norm(m_ref)
    assert np.max(np.abs(s2 / s2_ref - 1.0)) <= 1e-12 + tol


@pytest.mark.parametrize("d, n", [(200, 400), (50, 5000), (10, 10_000), (200, 50)])
def test_rotated_moments_match_the_cholesky_route(d, n):
    # the engine's configs (default sigma and gamma, Bartlett datasets): the
    # eigenbasis route reproduces the Cholesky route's m and s^2 at fixed x
    cfg = ModelConfig(d=d, n=n)
    w = sample_teacher(cfg, stream(d, "teacher"))
    data = generate_dataset(cfg, w, stream(d, "data", n))
    post = fit_posterior(data, cfg)
    mu, omega, _ = cholesky_posterior(data, cfg)
    X = stream(d, "test_points", n).normal(size=(300, d))
    m_ref, s2_ref = cholesky_moments(mu, omega, cfg.sigma, X)
    m, s2 = predictive_moments_batch(post, X @ post.basis)
    assert np.linalg.norm(m - m_ref) <= 1e-12 * np.linalg.norm(m_ref)
    assert np.max(np.abs(s2 / s2_ref - 1.0)) <= 1e-12


def test_numerically_indefinite_precision_names_the_config():
    # d = 30, n = 5, gamma = 1e5: cond(prec) ~ gamma^2/sigma^2 = 1e18 exceeds
    # 1/eps, so rounding drives the smallest computed eigenvalue to <= 0
    cfg = ModelConfig(d=30, n=5, gamma=1e5)
    data = generate_dataset(cfg, sample_teacher(cfg, stream(0, "teacher")), stream(0, "data", 0))
    with pytest.raises(ValueError, match=r"not numerically positive definite at n = 5, d = 30, "
                                         r"sigma = 0\.0001, gamma = 100000$"):
        fit_posterior(data, cfg)


@pytest.mark.parametrize("sigma, gamma", [(1e-170, 1.0), (1.0, 1e-170), (1e-154, 1.0)])
def test_precision_past_the_float_range_rejected(sigma, gamma):
    # 1/sigma^2 or 1/gamma^2 overflows, or (at 1e-154) X^T X / sigma^2 does
    cfg = ModelConfig(d=2, n=3, sigma=sigma, gamma=gamma)
    with pytest.raises(ValueError, match="the posterior precision leaves the float range"):
        fit_posterior(Dataset(np.ones((3, 2)), np.ones(3)), cfg)


def test_huge_sigma_gives_the_prior_without_overflow():
    # (1/sigma)^2 underflows to 0: the data carry no weight
    cfg = ModelConfig(d=2, n=3, sigma=1e200, gamma=0.5)
    post = fit_posterior(Dataset(np.ones((3, 2)), np.ones(3)), cfg)
    assert np.array_equal(post.mean, np.zeros(2))
    np.testing.assert_allclose(post.var, [0.25, 0.25], rtol=1e-15)
    np.testing.assert_allclose(input_coordinates(post)[1], 0.25 * np.eye(2), rtol=1e-15)
