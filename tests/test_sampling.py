import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from itslab import ModelConfig, RewardSpec, delta_k_curve, delta_t_curve, judge_sweep, load_records, stream
from itslab import judge, mc
from itslab.sampling import select_prefixes

from _synth import record_rows, segmentwise_prefixes, select as brute_select, trap_judge_questions, write_records


def select(values, rewards, T):
    """The kernel's selection over all k entries of the last axis, one selection per row."""
    P = np.moveaxis(-np.asarray(rewards, dtype=float), -1, 0)[..., None]  # columns first, one row
    L = np.moveaxis(np.asarray(values, dtype=float), -1, 0)[..., None]
    return select_prefixes(P, L, np.array([P.shape[0]]), T)[..., 0]


def weights(rewards, T):
    """The kernel's selection weights: row i of eye(k) picks out weight i."""
    r = np.asarray(rewards, dtype=float)
    return select(np.eye(r.size), np.tile(r, (r.size, 1)), T)


class TestSoftmaxWeights:
    def test_equal_rewards_uniform(self):
        for k in (1, 2, 5):
            w = weights(np.full(k, -3.7), T=2.0)
            np.testing.assert_allclose(w, np.full(k, 1.0 / k), rtol=1e-15)

    def test_zero_temperature_one_hot(self):
        w = weights(np.array([-1.0, 0.0, -2.0]), T=0.0)
        np.testing.assert_array_equal(w, np.array([0.0, 1.0, 0.0]))

    def test_two_point_logistic(self):
        w = weights(np.array([1.0, 0.0]), T=1.0)
        e = math.e
        np.testing.assert_allclose(w, [e / (1 + e), 1 / (1 + e)], rtol=1e-14)
        assert w[0] == pytest.approx(0.73106, abs=5e-6)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            r = rng.normal(size=rng.integers(1, 20))
            w = weights(r, T=float(rng.uniform(0.01, 10)))
            assert abs(w.sum() - 1.0) <= 1e-12

    @given(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=12),
        st.integers(min_value=-30, max_value=30),
    )
    def test_shift_invariance_exact_on_integers(self, rewards, shift):
        # Integer rewards and shifts are exact in floats, so subtracting the
        # minimum penalty cancels the shift bit-for-bit.
        r = np.array(rewards, dtype=float)
        w1 = weights(r, T=1.5)
        w2 = weights(r + float(shift), T=1.5)
        np.testing.assert_array_equal(w1, w2)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=12))
    @settings(max_examples=100)
    def test_monotone_in_rewards(self, rewards):
        r = np.array(rewards)
        w = weights(r, T=0.7)
        order = np.argsort(r)
        assert np.all(np.diff(w[order]) >= 0)

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=10))
    def test_zero_t_equals_argmax_scan(self, rewards):
        # Integer-valued rewards force ties; the one-hot index must match a
        # left-to-right scan for the first maximum.
        r = np.array(rewards, dtype=float)
        w = weights(r, T=0.0)
        best, best_idx = -np.inf, 0
        for i, val in enumerate(r):
            if val > best:
                best, best_idx = val, i
        assert w[best_idx] == 1.0 and w.sum() == 1.0


class TestRewardWeightedSelect:
    def test_single_sample(self):
        for T in (0.0, 1e-300, 3.0, 1e300):
            assert select(np.array([4.2]), np.array([-17.0]), T) == 4.2

    def test_zero_t_tie_breaks_low_index(self):
        # an exact tie between the first two rewards
        assert select(np.array([0.9, 1.1, 2.0]), np.array([-0.01, -0.01, -1.0]), 0.0) == 0.9

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=1),
        st.floats(-1e6, 1e6),
        st.sampled_from([0.0, 1e-12, 0.3, 7.0, 1e12]),
    )
    def test_exact_at_k1_for_any_temperature(self, values, reward, T):
        assert select(np.array(values), np.array([reward]), T) == values[0]

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=12),
        st.sampled_from([0.0, 1e-9, 0.5, 1e9]),
        st.sampled_from([0.0, 1.0, 4.0]),
    )
    def test_constant_values_exact(self, rewards, T, c):
        # sum(w c)/sum(w) is exactly c when scaling by c is exact: an
        # all-correct subset scores exactly 1.0
        r = np.array(rewards)
        assert select(np.full(r.size, c), r, T) == c

    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=10, unique=True))
    def test_continuous_into_argmax_as_t_falls(self, rewards):
        # distinct rewards, gap >= 1/8: each losing weight is at most
        # exp(-gap/T) against the winner's 1, and underflows to 0 near T = 0
        r = np.array(rewards, dtype=float) / 8.0
        values = np.arange(r.size, dtype=float) ** 2
        best = select(values, r, 0.0)
        spread = np.abs(values - best).sum()
        for T in (1e-1, 1e-2, 1e-3):
            assert abs(select(values, r, T) - best) <= spread * math.exp(-0.125 / T) + 1e-12
        assert select(values, r, 1e-6) == best


class TestSoftmaxGuards:
    def test_partial_neg_inf_ok(self):
        w = weights(np.array([-np.inf, 0.0]), T=1.0)
        np.testing.assert_array_equal(w, [0.0, 1.0])


class TestPrefixes:
    @given(
        st.lists(st.integers(1, 12), min_size=1, max_size=5, unique=True),
        st.sampled_from([0.0, 1e-300, 1e-9, 0.5, 1e300]),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_prefix_equals_a_brute_force_selection(self, ks, T, seed, broadcast):
        # integer penalties in [0, 3]: ties fall within and across segments
        ks = np.array(sorted(ks))
        rng = np.random.default_rng(seed)
        P = rng.integers(0, 4, size=(ks[-1], 3, 5)).astype(float)
        L = rng.random((ks[-1], 1 if broadcast else 3, 5))
        got = select_prefixes(P.copy(), L, ks, T)
        assert got.shape == (3, len(ks))
        for j, k in enumerate(ks.tolist()):
            values = np.moveaxis(np.broadcast_to(L[:k], P[:k].shape), 0, -1)
            want = brute_select(values, np.moveaxis(-P[:k], 0, -1), T).sum(axis=-1)
            if T == 0:
                np.testing.assert_array_equal(got[:, j], want)
            else:
                np.testing.assert_allclose(got[:, j], want, rtol=1e-13, atol=0)


def _k_grids(kmax):
    """Sorted k grids: runs of equal-width segments (width 1 among them), or any sorted subset."""
    runs = st.lists(st.tuples(st.integers(1, 6), st.integers(1, 4)), min_size=1, max_size=5)
    return st.one_of(
        runs.map(lambda rs: np.cumsum([w for w, n in rs for _ in range(n)])),
        st.lists(st.integers(1, kmax), min_size=1, max_size=kmax, unique=True).map(sorted).map(np.array),
        st.integers(1, kmax).map(lambda k: np.arange(1, k + 1)),
    )


_TEMPERATURES = st.one_of(st.sampled_from([1e-300, 1e-9, 1.0, 1e300]), st.floats(-300, 300).map(lambda e: 10.0**e))
_SHAPES = st.one_of(
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 12)),  # points, targets, rows
    st.tuples(st.integers(1, 4), st.integers(1, 12)),  # the judge's questions, resamples
)


def _penalties_and_losses(ks, shape, scale, ties, seed):
    """Penalties spread over scale * chi^2_1 (integers for ties), and losses shared by targets or not.

    At small T most weights underflow to exactly 0. The engine's losses are
    shared by its targets; the judge's are per candidate.
    """
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((int(ks[-1]),) + shape) ** 2 * scale
    if ties:
        P = np.round(P)
    return P, rng.random(P.shape[:2] + (1,) + shape[2:] if len(shape) == 3 else P.shape)


class TestRunGroupedKernel:
    """The T > 0 branch to the bit against the kernel made one segment at a time."""

    @given(ks=_k_grids(30), T=_TEMPERATURES, shape=_SHAPES, scale=st.sampled_from([1e-3, 1.0, 1e3]),
           ties=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_segmentwise_kernel(self, ks, T, shape, scale, ties, seed):
        P, L = _penalties_and_losses(ks, shape, scale, ties, seed)
        want_P = P.copy()
        want = segmentwise_prefixes(want_P, L, ks, T)
        scratch = np.full((4 * len(ks) - 1) * P[0].size + 3, np.nan)  # spare and stale values
        for kw in ({}, {"scratch": scratch}):
            got_P = P.copy()
            got = select_prefixes(got_P, L, ks, T, **kw)
            assert np.array_equal(got, want)
            assert np.array_equal(got_P, want_P)  # the weighted losses it leaves in P


class TestTemperatureSequence:
    """A sequence of temperatures to the bit against one call per temperature."""

    @given(ks=_k_grids(30), temps=st.lists(_TEMPERATURES, min_size=1, max_size=6), shape=_SHAPES,
           scale=st.sampled_from([1e-3, 1.0, 1e3]), ties=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(ks=np.array([1, 2, 5, 9]), temps=[1e300, 1.0, 1e-300, 1.0, 1e-300], shape=(2, 3, 4), scale=1.0,
             ties=True, seed=0)
    @example(ks=np.array([3]), temps=[1e-300, 1e300, 1e300], shape=(4, 5), scale=1e3, ties=False, seed=1)
    @settings(max_examples=300, deadline=None)
    def test_equals_one_call_per_temperature(self, ks, temps, shape, scale, ties, seed):
        P, L = _penalties_and_losses(ks, shape, scale, ties, seed)
        want = []
        for T in temps:
            want_P = P.copy()
            want.append(select_prefixes(want_P, L, ks, T))
        # the statistics, the steps and the weights, with spare and stale values
        scratch = np.full((5 * len(ks) - 2 + ks[-1]) * P[0].size + 3, np.nan)
        for kw in ({}, {"scratch": scratch}):
            got_P = P.copy()
            got = select_prefixes(got_P, L, ks, temps, **kw)
            assert got.shape == (len(temps),) + want[0].shape
            assert np.array_equal(got, np.array(want))
            assert np.array_equal(got_P, want_P)  # the last temperature's weighted losses

    @pytest.mark.parametrize("T", [[0.0], [1.0, 0.0], [1.0, -1.0], [1.0, math.nan], [[1.0]]])
    def test_a_sequence_takes_positive_temperatures_only(self, T):
        P = np.ones((2, 3))
        with pytest.raises(ValueError, match="1-D sequence of temperatures > 0"):
            select_prefixes(P, P, np.array([1, 2]), T)


class TestOneKernel:
    """Every selection of the engine and of the judge goes through select_prefixes."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # a kernel that logs each call's T (a tuple for a sequence) and candidate count and
        # selects nothing: any selection made elsewhere would leave a nonzero value behind
        calls = []

        def zeroed(P, L, ks, T, **scratch):
            calls.append((T if np.ndim(T) == 0 else tuple(T), P.shape[0]))
            return np.zeros_like(select_prefixes(P, L, ks, T, **scratch))

        monkeypatch.setattr(mc, "select_prefixes", zeroed)
        monkeypatch.setattr(judge, "select_prefixes", zeroed)
        return calls

    def test_judge_sweep(self, calls, tmp_path):
        rows = record_rows(trap_judge_questions(np.random.default_rng(0), 12, 8))
        rows += record_rows({"short": [(0.3, 1), (0.3, 1), (0.1, 0)]})
        ds = load_records(write_records(tmp_path / "r.jsonl", rows))
        out = judge_sweep(ds, [1, 3, 8], [0.0, 4.0, 0.5, 4.0], 4, stream(0, "judge"))
        # two count groups (3 and 8 samples), each with one call at T = 0 and one for every distinct T > 0
        assert calls == [(0.0, 3), ((0.5, 4.0), 3), (0.0, 8), ((0.5, 4.0), 8)]
        assert all(row["delta"] == 0.0 for row in out)

    def test_mixed_temperature_curve(self, calls):
        cfg = ModelConfig(d=3, n=30)
        res = delta_t_curve(cfg, RewardSpec.radial(1.0), 5, [0.0, 1e-9, 2e-8, 0.0],
                            n_outer=20, n_inner=6, seed=1)
        # work units of 16 and 4 points, one chunk each: one call at T = 0 and one for both T > 0
        assert calls == [(0.0, 5), ((1e-9, 2e-8), 5)] * 2
        assert not res.per_x.any()

    @pytest.mark.parametrize("max_elems, per_batch", [(mc._MAX_ELEMS, 1), (15, 4)])
    def test_one_call_per_batch_and_stack_for_every_temperature(self, calls, monkeypatch, max_elems, per_batch):
        # 15 values: chunks of 3 of the 6 rows, and one target per penalty stack
        monkeypatch.setattr(mc, "_MAX_ELEMS", max_elems)
        temps = [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0]
        res = delta_t_curve(ModelConfig(d=3, n=30), [RewardSpec.radial(1.0), RewardSpec.radial(0.0)], 5, temps,
                            n_outer=20, n_inner=6, seed=1)
        # work units of 16 and 4 points, each one batch
        assert calls == [(tuple(temps), 5)] * (2 * per_batch)
        assert not res.per_x.any()

    def test_zero_temperature_sweep_uses_the_sampler(self, calls):
        cfg = ModelConfig(d=3, n=30)
        res = delta_k_curve(cfg, RewardSpec.radial(1.0), 0.0, [1, 4, 100], n_outer=20, n_inner=6)
        # the sampler's block winners, one per distinct k, are the candidates, not a kmax draw matrix
        assert calls and all(call == (0.0, 3) for call in calls)
        assert not res.per_x.any()
