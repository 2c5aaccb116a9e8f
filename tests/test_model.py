import math
import tracemalloc

import numpy as np
import pytest

from itslab import (
    Dataset,
    ModelConfig,
    RewardSpec,
    fit_posterior,
    generate_dataset,
    resolve_reward,
    sample_teacher,
    stream,
)

from _synth import iid_dataset, input_coordinates


class TestModelConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(d=0, n=10)
        with pytest.raises(ValueError):
            ModelConfig(d=3, n=-1)
        with pytest.raises(ValueError):
            ModelConfig(d=3, n=10, S=0.0)
        with pytest.raises(ValueError):
            ModelConfig(d=3, n=10, gamma=0.0)
        with pytest.raises(ValueError):
            ModelConfig(d=3, n=10, teacher_mode="bogus")
        for field in ("sigma", "tau"):  # NaN is not >= 0
            with pytest.raises(ValueError, match=rf"^{field} must be >= 0, got nan$"):
                ModelConfig(**{field: math.nan})

    def test_input_var(self):
        assert ModelConfig(S=3.0).input_var == 9.0
        assert ModelConfig(S=1e-160).input_var == 1e-160**2 > 0.0  # subnormal, still positive
        for S in (1e160, 1e-200, math.inf):
            with pytest.raises(ValueError, match=r"the input variance S\^2 leaves the float range$"):
                ModelConfig(S=S).input_var

    def test_alpha(self):
        assert ModelConfig(d=10, n=100).alpha == 0.1
        with pytest.raises(ValueError):
            ModelConfig(d=10, n=0).alpha
        with pytest.raises(ValueError, match=r"n is too large: alpha = d/n = 10/n underflows to 0"):
            ModelConfig(d=10, n=10**400).alpha

    def test_from_file(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text(
            "# comment\n"
            "d = 4\n"
            "n: 100\n"
            "sigma = 0.5  # trailing comment\n"
            "teacher_mode = normalized\n"
        )
        cfg = ModelConfig.from_file(path)
        assert (cfg.d, cfg.n, cfg.sigma, cfg.teacher_mode) == (4, 100, 0.5, "normalized")
        cfg2 = ModelConfig.from_file(path, n=200, gamma=2.0)
        assert (cfg2.n, cfg2.gamma) == (200, 2.0)

    def test_from_file_keys_are_optional(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text("# every key left out\n")
        assert ModelConfig.from_file(path) == ModelConfig()
        assert ModelConfig.from_file(path, n=None, tau=0.5) == ModelConfig(tau=0.5)

    def test_from_file_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text("dd = 4\n")
        with pytest.raises(ValueError, match="unknown config key"):
            ModelConfig.from_file(path)


class TestSampleTeacher:
    def test_zero_scale_degenerate(self):
        cfg = ModelConfig(d=3, n=10, tau=0.0)
        w = sample_teacher(cfg, stream(0, "teacher"))
        assert np.array_equal(w, np.zeros(3))

    def test_normalized_norm(self):
        cfg = ModelConfig(d=10, n=10, tau=2.0, teacher_mode="normalized")
        w = sample_teacher(cfg, stream(3, "teacher"))
        assert w @ w == pytest.approx(10.0, rel=1e-12)

    def test_sampled_second_moment(self):
        # chi-squared moment oracle: ||w||^2/d has mean tau^2 and variance
        # 2 tau^4 / d per draw.
        cfg = ModelConfig(d=1000, n=10, tau=2.0)
        vals = np.array(
            [sample_teacher(cfg, stream(s, "teacher")) for s in range(100)]
        )
        norms = (vals**2).sum(axis=1) / cfg.d
        se = math.sqrt(2 * cfg.tau**4 / cfg.d / 100)
        assert abs(norms.mean() - 4.0) < 3 * se

    def test_deterministic(self):
        cfg = ModelConfig(d=5, n=10)
        w1 = sample_teacher(cfg, stream(11, "teacher"))
        w2 = sample_teacher(cfg, stream(11, "teacher"))
        assert np.array_equal(w1, w2)


class TestGenerateDataset:
    def test_empty(self):
        cfg = ModelConfig(d=4, n=0)
        data = generate_dataset(cfg, np.zeros(4), stream(0, "data"))
        assert data.n == 0 and data.d == 4

    def test_noiseless_null_teacher(self):
        cfg = ModelConfig(d=4, n=50, sigma=0.0)
        data = iid_dataset(cfg, np.zeros(4), stream(0, "data"))
        assert np.array_equal(data.labels, np.zeros(50))

    def test_label_variance_decomposition(self):
        # Var(y) = w^T Cov w / d + sigma^2 with Cov = S^2 I.
        d, n = 8, 100_000
        cfg = ModelConfig(d=d, n=n, S=1.0, sigma=0.5)
        w = np.full(d, 2.0)  # ||w||^2/d = 4
        data = iid_dataset(cfg, w, stream(5, "data"))
        target = 4.0 * cfg.S**2 + cfg.sigma**2
        var = data.labels.var(ddof=1)
        se = target * math.sqrt(2.0 / n)
        assert abs(var - target) < 3 * se

    def test_bit_identical_across_runs(self):
        cfg = ModelConfig(d=6, n=100)
        w = sample_teacher(cfg, stream(2, "teacher"))
        d1 = generate_dataset(cfg, w, stream(2, "data"))
        d2 = generate_dataset(cfg, w, stream(2, "data"))
        assert np.array_equal(d1.inputs, d2.inputs)
        assert np.array_equal(d1.labels, d2.labels)

    def test_empirical_covariance_converges(self):
        d, n = 20, 10_000
        cfg = ModelConfig(d=d, n=n, S=1.5)
        w = sample_teacher(cfg, stream(9, "teacher"))
        data = generate_dataset(cfg, w, stream(9, "data"))
        emp = data.inputs.T @ data.inputs / n
        dev = np.max(np.abs(emp - cfg.S**2 * np.eye(d)))
        assert dev < 5 * cfg.S**2 * math.sqrt(math.log(d) / n)

    @pytest.mark.parametrize("n", [0, 1, 5, 6, 60])
    def test_rows_are_min_n_d(self, n):
        d = 6
        cfg = ModelConfig(d=d, n=n)
        data = generate_dataset(cfg, np.ones(d), stream(1, "data"))
        assert data.inputs.shape == (min(n, d), d)
        assert data.labels.shape == (min(n, d),)

    def test_documented_draw_order(self):
        # chi-squares, an m x d normal matrix (strict upper triangle kept), noise
        d, n = 5, 3
        cfg = ModelConfig(d=d, n=n, S=1.5, sigma=0.3)
        w = sample_teacher(cfg, stream(2, "teacher"))
        data = generate_dataset(cfg, w, stream(2, "data"))
        rng = stream(2, "data")
        chi2 = rng.chisquare(n - np.arange(n))
        R = np.triu(rng.standard_normal((n, d)), 1)
        R[np.arange(n), np.arange(n)] = np.sqrt(chi2)
        eta = rng.normal(0.0, cfg.sigma, size=n)
        np.testing.assert_array_equal(data.inputs, cfg.S * R)
        np.testing.assert_array_equal(data.labels, cfg.S * R @ w / math.sqrt(d) + eta)

    @pytest.mark.parametrize("n", [40, 5])
    def test_column_space_rotation_keeps_the_posterior(self, n):
        # the posterior reads the data only through X^T X and X^T y, which
        # Q^T leaves unchanged for the reduced QR factorization X = Q R
        d = 8
        cfg = ModelConfig(d=d, n=n, S=1.3, sigma=0.3, gamma=0.9)
        w = sample_teacher(cfg, stream(3, "teacher"))
        data = iid_dataset(cfg, w, stream(3, "data"))
        Q, _ = np.linalg.qr(data.inputs)
        full = input_coordinates(fit_posterior(data, cfg))
        rotated = input_coordinates(fit_posterior(Dataset(Q.T @ data.inputs, Q.T @ data.labels), cfg))
        assert rotated[0].shape == full[0].shape
        for got, want in zip(rotated, full):
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("d,n", [(5, 8), (6, 3)])
    def test_bartlett_law(self, d, n):
        # R = inputs / S: squared diagonal ~ chi^2(n - i), strict upper
        # triangle ~ N(0, 1), zeros below; each moment within 4 stderr
        cfg = ModelConfig(d=d, n=n, S=1.5)
        draws = 400
        R = np.stack(
            [generate_dataset(cfg, np.zeros(d), stream(4, "data", j)).inputs / cfg.S
             for j in range(draws)]
        )
        m = min(n, d)
        assert np.all(np.tril(R, -1) == 0)
        diag2 = R[:, np.arange(m), np.arange(m)] ** 2
        for i in range(m):
            k = n - i
            x = diag2[:, i]
            assert abs(x.mean() - k) < 4 * math.sqrt(2 * k / draws)
            assert abs(x.var(ddof=1) - 2 * k) < 4 * math.sqrt((8 * k * k + 48 * k) / draws)
        rows, cols = np.triu_indices(m, 1, d)
        upper = R[:, rows, cols].ravel()
        assert abs(upper.mean()) < 4 / math.sqrt(upper.size)
        assert abs(upper.var(ddof=1) - 1.0) < 4 * math.sqrt(2 / upper.size)

    @pytest.mark.parametrize("n", [200, 10])
    def test_posterior_matches_iid_in_law(self, n):
        # mean |mu - w_T|^2 and tr(Omega) over 200 datasets of each generator
        d, sets = 20, 200
        cfg = ModelConfig(d=d, n=n, sigma=0.1, gamma=1.0, teacher_mode="normalized")
        w = sample_teacher(cfg, stream(6, "teacher"))

        def stats(make, seed):
            out = np.empty((sets, 2))
            for j in range(sets):
                post = fit_posterior(make(cfg, w, stream(seed, "data", j)), cfg)
                out[j] = np.sum((post.basis @ post.mean - w) ** 2), np.sum(post.var)
            return out.mean(axis=0), out.std(axis=0, ddof=1) / math.sqrt(sets)

        mean_new, se_new = stats(generate_dataset, 6)
        mean_ref, se_ref = stats(iid_dataset, 7)
        assert np.all(np.abs(mean_new - mean_ref) < 4 * np.hypot(se_new, se_ref))

    def test_memory_independent_of_n(self):
        cfg = ModelConfig(d=50, n=200_000)
        w = np.ones(cfg.d)
        tracemalloc.start()
        try:
            generate_dataset(cfg, w, stream(8, "data"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestResolveReward:
    def test_radial_zero_is_identity(self):
        w = np.array([1.0, -2.0, 0.5])
        for R in (0.0, 0.3, 7.0):
            for S in (0.5, 1.0, 3.0):
                out = resolve_reward(RewardSpec.radial(0.0), w, R, S)
                assert np.array_equal(out, w)

    def test_radial_half_shift(self):
        # c = 1 with R = S^2 gives 1 + S^2/(2 S^2) = 1.5.
        w = np.array([2.0, 4.0])
        out = resolve_reward(RewardSpec.radial(1.0), w, 1.0, 1.0)
        np.testing.assert_allclose(out, 1.5 * w, rtol=1e-15)

    def test_polar_aligned_doubles(self):
        # theta = 0, c = ||w_T||: offset of length ||w_T|| along w_T.
        w = np.array([3.0, 4.0])
        out = resolve_reward(RewardSpec.polar(c=5.0, theta=0.0), w, 0.2, 1.0)
        np.testing.assert_allclose(out, 2.0 * w, rtol=1e-12)

    def test_polar_vector_addition(self):
        w = np.array([1.0, 1.0])
        theta = 1.234
        c = 0.7
        out = resolve_reward(RewardSpec.polar(c=c, theta=theta), w, 0.0, 1.0)
        theta_T = math.atan2(1.0, 1.0)
        expected = w + c * np.array(
            [math.cos(theta_T + theta), math.sin(theta_T + theta)]
        )
        np.testing.assert_allclose(out, expected, rtol=1e-12)
        assert np.linalg.norm(out - w) == pytest.approx(c, rel=1e-12)

    def test_polar_requires_d2(self):
        with pytest.raises(ValueError, match="d = 2"):
            resolve_reward(RewardSpec.polar(1.0, 0.0), np.ones(3), 0.1, 1.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            RewardSpec(mode="explicit")
