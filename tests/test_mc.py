import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import ks_2samp

from itslab import (
    ModelConfig,
    RewardSpec,
    classify_k_monotonicity,
    de_moments_batch,
    delta_c_curve,
    delta_k_curve,
    delta_t_curve,
    fit_posterior,
    generate_dataset,
    refined_best_of_k_delta,
    resolve_reward,
    sample_teacher,
    solve_for_config,
    stream,
)
from itslab import mc
from itslab.mc import _best_of_k_cells, _plan_shared, _scan_layout, _softmax_cells, _winner_distance
from itslab.sampling import select_prefixes

from _synth import cholesky_moments, cholesky_posterior, delta_x, x_route_points

FIG_LIKE = dict(S=1.0, sigma=1e-4, gamma=1e-3)


def _kernel_rows(L, P, T):
    """The selection kernel over all k columns of each row of L and P, (rows, k)."""
    return select_prefixes(P.T[..., None].copy(), L.T[..., None], np.array([P.shape[1]]), T)[:, 0]


class TestSelectValues:
    def test_exchange_symmetry_exact_without_ties(self):
        # with distinct penalties the argmin branch is permutation-invariant
        # bit-for-bit (ties are the one place order matters, by the tie rule)
        rng = np.random.default_rng(0)
        Y = np.stack([rng.choice(16, size=6, replace=False) / 4.0 for _ in range(20)])
        L = (Y - 0.25) ** 2
        P = (Y + 0.5) ** 2
        base = _kernel_rows(L, P, T=0.0)
        for _ in range(5):
            perm = rng.permutation(6)
            np.testing.assert_array_equal(_kernel_rows(L[:, perm], P[:, perm], 0.0), base)

    def test_exchange_symmetry_generic(self):
        rng = np.random.default_rng(1)
        Y = rng.normal(size=(50, 8))
        L = (Y - 0.3) ** 2
        P = (Y + 0.1) ** 2
        base = _kernel_rows(L, P, T=0.7)
        for _ in range(5):
            perm = rng.permutation(8)
            np.testing.assert_allclose(_kernel_rows(L[:, perm], P[:, perm], 0.7), base, rtol=1e-12)

    def test_zero_t_lowest_index_ties(self):
        P = np.array([[1.0, 1.0, 2.0]])
        L = np.array([[10.0, 20.0, 30.0]])
        assert _kernel_rows(L, P, 0.0)[0] == 10.0


def _select_values(L, P, T):
    """Reference: mc's selection rule written on penalties P = (Y - mu_R)^2."""
    if T == 0:
        idx = np.argmin(P, axis=1)  # first minimum: lowest-index tie rule
        return np.take_along_axis(L, idx[:, None], axis=1)[:, 0]
    Pmin = P.min(axis=1, keepdims=True)
    with np.errstate(over="ignore"):
        W = np.exp((Pmin - P) / T)
    return (W * L).sum(axis=1) / W.sum(axis=1)


def _reference_cell_means(rng, m, s, mu_T, cell_k, cell_T, cell_muR, n_inner, kmax):
    """Reference: the sweep engine's inner loop on the penalty rule above."""
    out = np.zeros(len(cell_k))
    rows_per_chunk = max(1, mc._MAX_ELEMS // max(1, kmax))
    done = 0
    while done < n_inner:
        rows = min(rows_per_chunk, n_inner - done)
        Y = m + s * rng.standard_normal((rows, kmax))
        L = (Y - mu_T) ** 2
        for g in range(len(cell_k)):
            k = int(cell_k[g])
            P = (Y - cell_muR[g]) ** 2
            out[g] += _select_values(L[:, :k], P[:, :k], float(cell_T[g])).sum()
        done += rows
    return out / n_inner


def _reference_delta_x(m, s2, mu_T, mu_R, k, T, n_inner, rng):
    """Reference: delta_x on the penalty rule above."""
    s = math.sqrt(s2)
    values = np.empty(n_inner)
    done = 0
    rows_per_chunk = max(1, mc._MAX_ELEMS // max(1, k))
    while done < n_inner:
        rows = min(rows_per_chunk, n_inner - done)
        Y = m + s * rng.standard_normal((rows, k))
        values[done : done + rows] = _select_values((Y - mu_T) ** 2, (Y - mu_R) ** 2, T)
        done += rows
    stderr = values.std(ddof=1) / math.sqrt(n_inner) if n_inner > 1 else math.inf
    return float(values.mean()), float(stderr)


def _engine_cell_means(rng, m, s, mu_T, mu_R, cell_k, cell_T, cell_r, n_inner, kmax):
    """The sweep engine's shared-target kernel at one test point, one value per cell."""
    plan, cell_of = _plan_shared(np.asarray(cell_k), np.asarray(cell_T, dtype=float),
                                 np.asarray(cell_r))
    layout = _scan_layout(plan, n_inner, kmax)
    work = {name: np.empty(size) for name, size in layout[2].items()}
    values = _softmax_cells([rng], np.array([m]), np.array([s]), np.array([mu_T]),
                            np.asarray(mu_R, dtype=float)[None], plan, n_inner, kmax, layout, work)
    return values[0, cell_of]


def _assert_matches_reference(got, want, cell_T):
    """T = 0 cells to the byte; T > 0 cells to the rounding of segment-wise sums."""
    cold = np.asarray(cell_T) == 0
    np.testing.assert_array_equal(got[cold], want[cold])
    np.testing.assert_allclose(got[~cold], want[~cold], rtol=1e-13, atol=0)


class TestSelectReference:
    """The sweep engine's kernel and delta_x against the penalty-form rule."""

    @pytest.mark.parametrize("m, s, mu_T, mu_R", [
        (0.3, 0.8, 0.1, (0.2, -0.7)),
        (1.2, 1e-4, 1.19995, (1.20002, 1.2)),  # figure-like: s << |m|
        (0.3, 0.8, 0.1, (0.3 + 1e3 * 0.8, 0.3 - 1.5e3 * 0.8)),  # far targets, |a| ~ 1e3
    ])
    # one chunk; one target per stack; 5-row chunks of one target each
    @pytest.mark.parametrize("max_elems", [1 << 23, 300, 40])
    def test_cell_means_equal_reference(self, monkeypatch, m, s, mu_T, mu_R, max_elems):
        monkeypatch.setattr(mc, "_MAX_ELEMS", max_elems)
        temps = [0.0, 1e-9, 0.5, 1e9]
        cell_k = np.array([1, 3, 8, 5] * 4)
        cell_T = np.array([T * s * s if T else 0.0 for T in temps] * 2 + temps * 2)
        cell_r = np.repeat([0, 1, 0, 1], 4)
        got = _engine_cell_means(stream(9, "ref"), m, s, mu_T, mu_R, cell_k, cell_T, cell_r, 37, 8)
        want = _reference_cell_means(
            stream(9, "ref"), m, s, mu_T, cell_k, cell_T, np.array(mu_R)[cell_r], 37, 8
        )
        _assert_matches_reference(got, want, cell_T)

    @pytest.mark.parametrize("max_elems", [1 << 23, 300, 40])
    def test_cell_means_with_partial_target_groups(self, monkeypatch, max_elems):
        # per (k, T) the targets are: all three; the first two; 0 and 2; 1 twice
        monkeypatch.setattr(mc, "_MAX_ELEMS", max_elems)
        mu_R = np.array([0.2, -0.7, 0.5])
        cell_r = np.array([0, 1, 2, 0, 1, 0, 2, 1, 1])
        cell_k = np.array([2, 2, 2, 8, 8, 5, 5, 3, 3])
        cell_T = np.array([0.5, 0.5, 0.5, 0.0, 0.0, 0.1, 0.1, 1.0, 1.0])
        args = (0.3, 0.8, 0.1)
        got = _engine_cell_means(stream(9, "ref"), *args, mu_R, cell_k, cell_T, cell_r, 37, 8)
        want = _reference_cell_means(stream(9, "ref"), *args, cell_k, cell_T, mu_R[cell_r], 37, 8)
        _assert_matches_reference(got, want, cell_T)

    @pytest.mark.parametrize("max_elems", [1 << 23, 40])
    @pytest.mark.parametrize("T", [1e-300, 1e-9 * 0.8**2, 1e9 * 0.8**2, 1e300])
    def test_extreme_temperatures_and_per_t_grids(self, monkeypatch, T, max_elems):
        # each temperature has its own k grid, so each cuts its own segments
        monkeypatch.setattr(mc, "_MAX_ELEMS", max_elems)
        s = 0.8
        cell_k = np.array([1, 4, 8, 2, 3, 7, 8, 6])
        cell_T = np.array([T] * 3 + [0.5] * 3 + [0.0] * 2)
        cell_r = np.array([0, 0, 0, 1, 1, 1, 0, 1])
        mu_R = np.array([0.2, 40.0])
        got = _engine_cell_means(stream(10, "ref"), 0.3, s, 0.1, mu_R, cell_k, cell_T, cell_r, 37, 8)
        want = _reference_cell_means(
            stream(10, "ref"), 0.3, s, 0.1, cell_k, cell_T, mu_R[cell_r], 37, 8
        )
        assert np.all(np.isfinite(got))
        _assert_matches_reference(got, want, cell_T)

    @given(
        m=st.floats(-1e3, 1e3), s=st.floats(0.0, 1e3), mu_T=st.floats(-1e3, 1e3),
        mu_R=st.floats(-1e6, 1e6), T=st.floats(1e-300, 1e300),
        kmax=st.sampled_from([1, 2, 9]),
    )
    @settings(max_examples=60, deadline=None)
    def test_k1_cell_is_the_inner_mean_of_the_loss(self, m, s, mu_T, mu_R, T, kmax):
        cell_k = np.array([1, kmax])
        got = _engine_cell_means(stream(11, "k1"), m, s, mu_T, [mu_R], cell_k, [T, T], [0, 0],
                                 25, kmax)
        Y = m + s * stream(11, "k1").standard_normal((25, kmax))
        L = (Y - mu_T) ** 2
        assert got[0] == L[:, 0].sum() / 25

    @pytest.mark.parametrize("k, T", [(1, 0.7), (6, 0.0), (6, 1e-9), (6, 0.5), (6, 1e9)])
    def test_delta_x_equals_reference(self, k, T):
        args = (0.4, 0.6, -0.2, 0.9, k, T, 300)
        assert delta_x(*args, stream(8, "ref")) == _reference_delta_x(*args, stream(8, "ref"))

    @pytest.mark.parametrize("layout", ["k", "t_mixed", "exact_3_datasets", "two_grids"])
    def test_bytes_independent_of_threads_and_batch(self, monkeypatch, layout):
        cfg = ModelConfig(d=4, n=500, sigma=0.05, gamma=0.5)
        rewards = [RewardSpec.radial(0.0), RewardSpec.radial(3.0)]
        kw = dict(n_outer=37, n_inner=20, seed=17)
        if layout == "k":
            run = lambda threads: delta_k_curve(cfg, rewards, 1e-3, [1, 2, 5, 9, 30], threads=threads, **kw).per_x
        elif layout == "t_mixed":
            run = lambda threads: delta_t_curve(cfg, rewards, 7, [0.0, 1e-4, 1e-2], threads=threads, **kw).per_x
        elif layout == "exact_3_datasets":
            # the datasets are fitted in the pool, ahead of the blocks that wait on them
            run = lambda threads: delta_k_curve(cfg, rewards, 1e-3, [1, 2, 5, 9, 30], mode="exact_posterior",
                                                n_datasets=3, threads=threads, **kw).per_x
        else:
            # two plan entries whose penalty views are 30 and 7 columns long, cut from one
            # buffer, and 37 points in blocks of 16, 16 and 5: the last batch of a block is short
            run = lambda threads: mc._run_cells(cfg, rewards, [[1, 4, 30], [2, 3, 7]], [[1e-3], [0.5]],
                                                37, 20, "det_equiv", 17, threads, 1)[0]
        base = run(threads=1).tobytes()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # workers interleave often: a workspace they shared would show
        try:
            for threads in (2, 3):
                assert run(threads=threads).tobytes() == base
            for scan_elems in (1, 5_000):  # one test point per batch; a few
                monkeypatch.setattr(mc, "_SCAN_ELEMS", scan_elems)
                for threads in (1, 2, 3):
                    assert run(threads=threads).tobytes() == base
        finally:
            sys.setswitchinterval(switch)


class TestPointStreams:
    """A test point's draws come from its own key: its row depends on nothing else of the run."""

    CFG = ModelConfig(d=4, n=500, sigma=0.05, gamma=0.5)
    # a T = 0 target (the sampler) and two shared ones (the draw matrix)
    REWARDS = [RewardSpec.radial(3.0), RewardSpec.radial(0.0), RewardSpec.radial(-2.0)]
    TEMPS = [0.0, 1e-3, 1e-2]

    def run(self, n_outer, mode, threads=1, targets=(0, 1, 2)):
        return delta_k_curve(self.CFG, [self.REWARDS[r] for r in targets], [self.TEMPS[r] for r in targets],
                             [1, 3, 40], n_outer=n_outer, n_inner=6, seed=41, threads=threads, mode=mode).per_x

    @pytest.mark.parametrize("mode", ["det_equiv", "exact_posterior"])
    def test_rows_independent_of_n_outer_units_threads_and_targets(self, monkeypatch, mode):
        base = self.run(70, mode)
        np.testing.assert_array_equal(self.run(9, mode), base[:9])
        for r in range(3):
            np.testing.assert_array_equal(self.run(70, mode, targets=(r,))[:, 0], base[:, r])
        for block, per_thread in ((1, 4), (16, 1), (64, 4)):  # work units of 1 to 64 points
            monkeypatch.setattr(mc, "_BLOCK", block)
            monkeypatch.setattr(mc, "_UNITS_PER_THREAD", per_thread)
            for threads in (1, 2, 3):
                assert self.run(70, mode, threads).tobytes() == base.tobytes()

    def test_large_blocks_rows_independent_of_units_and_threads(self):
        # blocks of up to 99000 candidates, whose short roots lie far below the cut next to
        # those of 3-candidate blocks, solved in units of 50 points (1 thread), 25 (2 threads)
        # and 16 (40 points)
        def run(n_outer, threads):
            return delta_k_curve(self.CFG, self.REWARDS[1], 0.0, [3, 30, 1000, 100000], n_outer=n_outer, n_inner=200,
                                 seed=41, threads=threads, mode="det_equiv").per_x

        base = run(200, 1)
        assert run(200, 2).tobytes() == base.tobytes()
        assert run(40, 1).tobytes() == base[:40].tobytes()

    def test_units_grow_with_the_work_and_leave_every_thread_several(self, monkeypatch):
        units = []
        run_cells = mc._softmax_cells

        def spy(rngs, *args):
            units.append(len(rngs))
            return run_cells(rngs, *args)

        monkeypatch.setattr(mc, "_softmax_cells", spy)
        delta_k_curve(self.CFG, RewardSpec.radial(0.0), 1e-3, [1, 2, 4], n_outer=2000, n_inner=1, seed=3, threads=2)
        # one-draw points are cheap: 2000 points make 8 units of 250, 4 per thread, not 125 of 16
        assert units == [250] * 8
        units.clear()
        delta_k_curve(self.CFG, RewardSpec.radial(0.0), 1e-3, [1, 2, 4], n_outer=40, n_inner=1, seed=3, threads=2)
        assert sorted(units) == [8, 16, 16]  # never below 16 points


class TestScanWorkspace:
    """Each worker's workspace holds the softmax pass's large arrays, within _SCAN_ELEMS or one point."""

    @pytest.fixture
    def batches(self, monkeypatch):
        # per batch: its points, its workspace, the values that workspace holds, and
        # the traced memory the batch allocates beyond it
        batches = []
        softmax_cells = mc._softmax_cells

        def spy(rngs, *args):
            work = args[-1]
            traced = tracemalloc.is_tracing()
            if traced:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
            values = softmax_cells(rngs, *args)
            extra = tracemalloc.get_traced_memory()[1] - before if traced else 0
            batches.append((len(rngs), id(work), sum(b.size for b in work.values()), extra))
            return values

        monkeypatch.setattr(mc, "_softmax_cells", spy)
        return batches

    CASES = {
        # the benchmark's softmax cells: 13 k to 96, 3 targets at one T, 200 inner draws
        "workload": (dict(k_grid=[1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96], n_inner=200), {}),
        "kmax_1": (dict(k_grid=[1], n_inner=200), {}),
        # 40 one-column segments: the kernel's statistics outweigh the draws
        "every_k": (dict(k_grid=list(range(1, 41)), n_inner=200), {}),
        # 5-row chunks of 8 columns: one target per penalty stack of 3
        "per_stack_below_targets": (dict(k_grid=[1, 2, 3, 8], n_inner=20), {"_MAX_ELEMS": 40}),
        # a budget below one point's workspace: one point per batch
        "one_point": (dict(k_grid=[1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96], n_inner=200),
                      {"_SCAN_ELEMS": 1000}),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_workspace_bound(self, monkeypatch, batches, case):
        kw, caps = self.CASES[case]
        for name, value in caps.items():
            monkeypatch.setattr(mc, name, value)
        cfg = ModelConfig(d=10, n=1000, S=1.0, sigma=1e-4, gamma=1e-3)
        rewards = [RewardSpec.radial(c) for c in (0.0, 25.0, 50.0)]
        run = lambda n_outer, threads: delta_k_curve(cfg, rewards, 200 * 1e-8, kw["k_grid"], n_outer=n_outer,
                                                     n_inner=kw["n_inner"], seed=3, threads=threads)
        run(1, 1)
        one_point = batches[0][2]  # the workspace of a run with one test point
        batches.clear()
        tracemalloc.start()
        try:
            run(20, 1)
        finally:
            tracemalloc.stop()
        one_thread = list(batches)
        batches.clear()
        run(20, 2)
        for points, _, held, _ in one_thread + batches:
            assert held <= mc._SCAN_ELEMS or (points == 1 and held == one_point), (points, held, one_point)
        if case == "workload":
            # 4 points per batch: 20 points in blocks of 16 and 4 make 5 full batches per run
            assert [points for points, *_ in one_thread + batches] == [4] * 10
        # one workspace per worker and engine call
        assert len({work for _, work, _, _ in one_thread}) == 1
        assert len({work for _, work, _, _ in batches}) <= 2
        # a batch allocates nothing large beyond its workspace: numpy's iterator buffers for a
        # ufunc of 3 operands with broadcasting (np.getbufsize() values each) and small arrays
        assert max(extra for *_, extra in one_thread) <= 3 * 8 * np.getbufsize() + (16 << 10)


def _t0_cells(m, s2, mu_T, mu_R, k_grid, n_points, n_inner, seed):
    """The T = 0 sampler at n_points copies of one test point."""
    rngs = [stream(seed, "t0-oracle", i) for i in range(n_points)]
    per = _best_of_k_cells(
        rngs, np.full(n_points, m), np.full(n_points, math.sqrt(s2)),
        np.full(n_points, mu_T), np.full(n_points, mu_R), k_grid, n_inner,
    )
    return per.mean(axis=0), per.std(axis=0, ddof=1) / math.sqrt(n_points)


class TestBestOfKSampler:
    """The order-statistic T = 0 sampler against brute force and exact values."""

    @pytest.mark.parametrize("m, s2, mu_T, mu_R", [
        (0.0, 1.0, 0.0, 0.0),    # aligned, a = 0
        (0.4, 0.5, -0.3, -0.3),  # aligned, a = -1
        (0.3, 0.5, -0.2, 1.5),   # misaligned, a = 1.7
        (0.0, 2.0, 0.7, -7.0),   # misaligned, a = -4.9
    ])
    def test_matches_brute_force(self, m, s2, mu_T, mu_R):
        k_grid = [1, 2, 5, 20, 100]
        mean, se = _t0_cells(m, s2, mu_T, mu_R, k_grid, 300, 100, seed=21)
        for g, k in enumerate(k_grid):
            bf, bf_se = delta_x(m, s2, mu_T, mu_R, k, 0.0, n_inner=30_000,
                                rng=stream(22, "t0-brute", k))
            assert abs(mean[g] - bf) < 4 * math.hypot(se[g], bf_se), k

    def test_k1_is_plain_second_moment(self):
        rng = np.random.default_rng(23)
        for i in range(5):
            m, mu_T, mu_R = rng.normal(size=3) * 2
            s2 = float(rng.uniform(0.2, 2.0))
            mean, se = _t0_cells(m, s2, mu_T, mu_R, [1], 200, 100, seed=24 + i)
            assert abs(mean[0] - ((m - mu_T) ** 2 + s2)) < 4 * se[0]

    def test_zero_predictive_std_matches_brute_force(self):
        # sigma = 0, n > d in det_equiv mode: s = 0 and m = mu_T, so every
        # candidate sits at the teacher whatever the reward target
        cfg = ModelConfig(d=4, n=500, sigma=0.0, gamma=0.5)
        reward = RewardSpec.radial(5.0)
        kw = dict(n_outer=20, n_inner=10, seed=28)
        fast = delta_k_curve(cfg, reward, 0.0, [1, 7], **kw)
        brute = delta_t_curve(cfg, reward, 7, [0.0, 1.0], **kw)
        np.testing.assert_array_equal(fast.per_x[:, 1], brute.per_x[:, 0])
        np.testing.assert_array_equal(fast.per_x, 0.0)

    def test_winner_distance_solves_the_cdf(self):
        A = np.array([0.0, 5e-324, 2.2250738585e-313, 1e-7, 0.3, 1.0, 2.5, 5.0, 12.0, 45.0])[:, None]
        u = np.array([1e-20, 1e-9, 1e-4, 0.05, 0.5, 0.9, 0.999, 1 - 1e-12])
        x = np.log1p(-u)
        d = _winner_distance(x, A)
        assert np.all(np.isfinite(d)) and np.all(d > 0)
        np.testing.assert_allclose(d[1:3], d[[0, 0]], rtol=1e-12, atol=0)  # subnormal A: A = 0
        # residual on whichever tail is the smaller, where it is well conditioned
        lower = ndtr(d - A) - ndtr(-A - d)
        upper = ndtr(A - d) + ndtr(-A - d)
        p, q = -np.expm1(x), np.exp(x)
        small = np.broadcast_to(p <= 0.5, d.shape)
        moderate = small & (d > 1e-3)
        np.testing.assert_allclose(lower[moderate], np.broadcast_to(p, d.shape)[moderate], rtol=1e-8)
        np.testing.assert_allclose(upper[~small], np.broadcast_to(q, d.shape)[~small], rtol=1e-8)
        # tiny roots: F(d) = 2 phi(A) d (1 + O(A^2 d^2 + d^2))
        tiny = small & (d <= 1e-3) & (A < 10)
        linear = 2 * d * np.exp(-0.5 * A**2) / math.sqrt(2 * math.pi)
        np.testing.assert_allclose(linear[tiny], np.broadcast_to(p, d.shape)[tiny], rtol=1e-4)

    def test_aligned_reward_nonincreasing_along_k(self):
        # aligned reward: the winner's loss is s^2 D^2, and D is a running minimum
        cfg = ModelConfig(d=10, n=10_000, **FIG_LIKE)
        res = delta_k_curve(cfg, RewardSpec.radial(0.0), 0.0, [1, 2, 3, 5, 10, 100, 1000],
                            n_outer=40, n_inner=50, seed=25)
        assert np.all(np.diff(res.per_x, axis=1) <= 0)

    def test_rows_independent_of_threads_batching_and_longer_grids(self, monkeypatch):
        cfg = ModelConfig(d=4, n=500, sigma=0.05, gamma=0.5)
        kw = dict(n_outer=40, n_inner=20, seed=26)
        r1 = delta_k_curve(cfg, RewardSpec.radial(3.0), 0.0, [1, 4, 30], threads=1, **kw)
        r3 = delta_k_curve(cfg, RewardSpec.radial(3.0), 0.0, [1, 4, 30], threads=3, **kw)
        assert r1.per_x.tobytes() == r3.per_x.tobytes()
        # a longer grid draws further blocks after the existing ones
        longer = delta_k_curve(cfg, RewardSpec.radial(3.0), 0.0, [1, 4, 30, 200], **kw)
        assert longer.per_x[:, :3].tobytes() == r1.per_x.tobytes()
        # a memory cap that solves 3 points at a time leaves every row as it was
        monkeypatch.setattr(mc, "_SCAN_ELEMS", (34 + 2 * 3) * 20 * 3)
        capped = delta_k_curve(cfg, RewardSpec.radial(3.0), 0.0, [1, 4, 30], **kw)
        assert capped.per_x.tobytes() == r1.per_x.tobytes()

    def test_block_arrays_fit_the_memory_cap(self, monkeypatch):
        # 40 blocks of 50 winners per point, a cap of 3 points per sampler call: each
        # point holds 34 working arrays and 80 block arrays (17100 values in all), and
        # the rest of the cap is for the run's other arrays. Sized without the block
        # arrays, one call held all 16 points; sized with 16 working arrays, 4 points,
        # and the run peaked at 1.26x the cap
        monkeypatch.setattr(mc, "_SCAN_ELEMS", 21_600)
        cfg = ModelConfig(d=3, n=30)

        def run(k_grid, n_outer):
            return delta_k_curve(cfg, RewardSpec.radial(1.0), 0.0, k_grid, n_outer=n_outer, n_inner=50, seed=1)

        run([1, 8], 1)  # warm: first-call allocations are not the sampler's
        tracemalloc.start()
        try:
            run(np.arange(1, 41) ** 3, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * mc._SCAN_ELEMS, peak

    def test_large_k_precision(self):
        cfg = ModelConfig(d=10, n=10_000, **FIG_LIKE)
        res = delta_k_curve(cfg, RewardSpec.radial(0.0), 0.0, [10**6, 10**8],
                            n_outer=150, n_inner=150, seed=27)
        de = solve_for_config(cfg)
        w_T = sample_teacher(cfg, stream(27, "teacher"))
        assert np.all(np.isfinite(res.per_x)) and np.all(res.per_x > 0)
        for g, k in enumerate(res.grid):
            ref = refined_best_of_k_delta(cfg, de, w_T, int(k)).value
            assert abs(res.mean[g] / ref - 1.0) < 0.10, k


# multiples of 2^-10: in units of s = 2^e, every value and shifted sum below is exact
_UNITS = st.integers(-2**13, 2**13).map(lambda i: i / 1024)  # |value| <= 8 s
_SHIFTS = st.integers(-2**20, 2**20).map(lambda i: i / 1024)  # |c| <= 2^10 s


class TestShiftInvariance:
    """Cells depend on m, mu_T and mu_R only through their differences.

    m, mu_T and mu_R shift by the same c. The values are dyadic in units of a
    power-of-two s, so the shifted inputs are exact and the shift changes no
    difference between them; only the rounding of the draws y = m + s z moves.
    """

    @given(e=st.integers(-30, 30), m=_UNITS, mu_T=_UNITS, mu_R=st.tuples(_UNITS, _UNITS),
           c=_SHIFTS, t=st.floats(2**-4, 2**10))
    @settings(max_examples=60, deadline=None)
    def test_shared_cells(self, e, m, mu_T, mu_R, c, t):
        s = 2.0**e
        T = t * s * s
        cell_k = [1, 3, 9, 2, 9, 9]
        cell_T = [T, T, T, 0.0, 0.0, 4 * T]
        cell_r = [0, 0, 1, 1, 0, 1]

        def cells(shift):
            return _engine_cell_means(
                stream(12, "shift"), (m + shift) * s, s, (mu_T + shift) * s,
                [(r + shift) * s for r in mu_R], cell_k, cell_T, cell_r, 25, 9,
            )

        # Tolerance per cell, to first order. Rounding y = m + s z and then y - mu
        # moves each difference by at most delta = eps (|c| s + 2 D), where D
        # bounds |y - mu|. Losses and penalties, squares of differences, then
        # move by at most 2 D delta + delta^2, and the reductions' own rounding
        # adds a few dozen eps D^2. Where weights matter (k > 1, T > 0), each
        # weight's log moves by eta = 2 (2 D delta + delta^2) / T, and a
        # weighted mean of losses by 2 eta D^2 more. A T = 0 argmax could flip only
        # on two penalties equal to within that rounding, about 1e-5 per example
        # on this grid of values.
        eps = np.finfo(float).eps
        D = (16.0 + np.abs(stream(12, "shift").standard_normal((25, 9))).max()) * s
        delta = eps * (abs(c) * s + 2.0 * D)
        square = 2.0 * D * delta + delta**2
        weighted = (np.array(cell_k) > 1) & (np.array(cell_T) > 0)
        eta = 2.0 * square / np.where(weighted, cell_T, np.inf)
        tol = square + 64.0 * eps * D**2 + 2.0 * eta * D**2
        assert np.all(np.abs(cells(c) - cells(0.0)) <= tol)

    @given(e=st.integers(-30, 30), m=_UNITS, mu_T=_UNITS, mu_R=_UNITS, c=_SHIFTS)
    @settings(max_examples=60, deadline=None)
    def test_t0_sampler_cells(self, e, m, mu_T, mu_R, c):
        # the sampler reads only (mu_R - m) / s and mu_R - mu_T, which the exact
        # shift leaves unchanged, so the tolerance is zero
        s = 2.0**e

        def cells(shift):
            return _best_of_k_cells(
                [stream(13, "shift")], np.array([(m + shift) * s]), np.array([s]),
                np.array([(mu_T + shift) * s]), np.array([(mu_R + shift) * s]),
                [1, 2, 7, 100, 10**6], 25,
            )

        np.testing.assert_array_equal(cells(c), cells(0.0))



class TestColdLimit:
    """T -> 0+ in the shared-target kernel is the first-argmax rule of T = 0."""

    @given(k=st.integers(1, 40), c=st.floats(-50.0, 50.0), seed=st.integers(0, 2**16),
           mode=st.sampled_from(["det_equiv", "exact_posterior"]))
    @settings(max_examples=40, deadline=None)
    def test_tiny_temperature_cells_equal_zero_temperature(self, k, c, seed, mode):
        cfg = ModelConfig(d=4, n=200, sigma=0.05, gamma=0.5)
        res = delta_t_curve(cfg, RewardSpec.radial(c), k, [0.0, 1e-300],
                            n_outer=6, n_inner=8, mode=mode, seed=seed)
        assert res.per_x[:, 1].tobytes() == res.per_x[:, 0].tobytes()

class TestRewardTargets:
    """One call with several reward targets equals one call per target."""

    CFG = ModelConfig(d=4, n=500, sigma=0.05, gamma=0.5)
    REWARDS = [RewardSpec.radial(0.0), RewardSpec.radial(3.0), RewardSpec.radial(-40.0)]
    KW = dict(n_outer=20, n_inner=30, mode="exact_posterior", seed=31, n_datasets=2)

    # n_inner * kmax = 270: one chunk; two targets per stack; one target per
    # stack; 4-row chunks of one target each
    @pytest.mark.parametrize("max_elems", [1 << 23, 600, 270, 40])
    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("curve", ["k_hot", "k_zero_T", "t_mixed"])
    def test_columns_equal_single_target_calls(self, monkeypatch, curve, threads, max_elems):
        monkeypatch.setattr(mc, "_MAX_ELEMS", max_elems)
        kw = dict(self.KW, threads=threads)
        if curve == "t_mixed":  # every target mixes T = 0 and T > 0 cells
            run = lambda reward: delta_t_curve(self.CFG, reward, 9, [0.0, 1e-4, 1e-2], **kw)
        else:
            T = 1e-3 if curve == "k_hot" else 0.0
            run = lambda reward: delta_k_curve(self.CFG, reward, T, [1, 4, 9], **kw)
        multi = run(self.REWARDS)
        assert multi.per_x.shape == (40, 3, 3) and multi.mean.shape == (3, 3)
        for r, reward in enumerate(self.REWARDS):
            single = run(reward)
            assert multi.target(r).per_x.tobytes() == single.per_x.tobytes()
            assert multi.mean[r].tobytes() == single.mean.tobytes()
            assert multi.stderr[r].tobytes() == single.stderr.tobytes()

    @pytest.mark.parametrize("threads", [1, 3])
    def test_per_target_temperatures(self, threads):
        # tradeoff's shape: T = 0 targets take the sampler, the rest the shared matrix
        kw = dict(self.KW, threads=threads)
        temps = [0.0, 1e-3, 0.0]
        multi = delta_k_curve(self.CFG, self.REWARDS, temps, [1, 4, 9], **kw)
        for r, (reward, T) in enumerate(zip(self.REWARDS, temps)):
            single = delta_k_curve(self.CFG, reward, T, [1, 4, 9], **kw)
            assert multi.target(r).per_x.tobytes() == single.per_x.tobytes()
        assert multi.meta["T"] == temps

    @pytest.mark.parametrize("T", [0.0, 1e-3])
    def test_c_curve_columns_equal_single_calls(self, T):
        c_grid = [0.0, 2.0, 7.0]
        res = delta_c_curve(self.CFG, c_grid, T, 5, **self.KW)
        assert res.per_x.shape == (40, 3)
        for g, c in enumerate(c_grid):
            single = delta_k_curve(self.CFG, RewardSpec.radial(c), T, [5], **self.KW)
            assert res.per_x[:, g].tobytes() == single.per_x[:, 0].tobytes()

    def test_each_dataset_fitted_once(self, monkeypatch):
        fits = []
        monkeypatch.setattr(mc, "fit_posterior", lambda *a: fits.append(1) or fit_posterior(*a))
        delta_k_curve(self.CFG, self.REWARDS, 1e-3, [1, 4], **self.KW)
        assert len(fits) == self.KW["n_datasets"]


class TestRewardOffset:
    """The engine refuses a reward target past 2**32 predictive standard deviations."""

    CFG = ModelConfig(d=4, n=500, sigma=0.05, gamma=0.5)

    def _largest_offset(self, mode, reward):
        (make,) = mc._prepare_contexts(self.CFG, [reward], mode, 3, 20, 1)
        ctx = make()
        return np.max(np.abs(ctx.mu_R[:, 0] - ctx.m) / ctx.s)

    @pytest.mark.parametrize("mode", ["exact_posterior", "det_equiv"])
    def test_bound_is_inclusive(self, monkeypatch, mode):
        reward = RewardSpec.radial(1e4)
        largest = self._largest_offset(mode, reward)
        kw = dict(n_outer=20, n_inner=4, mode=mode, seed=3)
        monkeypatch.setattr(mc, "_MAX_REWARD_OFFSET", largest)
        delta_k_curve(self.CFG, reward, 0.0, [1, 4], **kw)
        monkeypatch.setattr(mc, "_MAX_REWARD_OFFSET", np.nextafter(largest, 0.0))
        with pytest.raises(ValueError, match=f"lies up to {largest:.3g} predictive standard deviations"):
            delta_k_curve(self.CFG, reward, 0.0, [1, 4], **kw)

    @pytest.mark.parametrize("T", [0.0, 1e-3])
    def test_points_without_spread_are_exempt(self, T):
        # sigma = 0 in det_equiv mode: s = 0 at every point, which the sampler handles exactly
        cfg = ModelConfig(d=4, n=500, sigma=0.0, gamma=0.5)
        res = delta_k_curve(cfg, RewardSpec.radial(1e100), T, [1, 4], n_outer=20, n_inner=4)
        assert np.all(np.isfinite(res.mean))


class TestExactContexts:
    """Exact mode draws its test points in the posterior's eigenbasis."""

    @pytest.mark.parametrize("d, n", [(6, 20), (12, 5)])
    def test_law_matches_the_input_coordinate_route(self, d, n):
        # the same posterior; the oracle draws x ~ N(0, S^2 I) in input
        # coordinates and takes the Cholesky route's moments. The first two
        # moments of (m, s^2, mu_T, mu_R) and E[s^2 m^2] agree within 4 stderr
        cfg = ModelConfig(d=d, n=n, S=1.3, sigma=0.3, gamma=1.0)
        seed, points = 11, 20_000
        rewards = [RewardSpec.radial(0.0), RewardSpec.radial(3.0)]
        (make_context,) = mc._prepare_contexts(cfg, rewards, "exact_posterior", seed, points, 1)
        ctx = make_context()
        got = np.column_stack([ctx.m, ctx.s**2, ctx.mu_T, ctx.mu_R])

        w_T = sample_teacher(cfg, stream(seed, "teacher"))
        mu, omega, _ = cholesky_posterior(generate_dataset(cfg, w_T, stream(seed, "data", 0)), cfg)
        X = stream(seed, "oracle points").normal(0.0, cfg.S, size=(points, d))
        m, s2 = cholesky_moments(mu, omega, cfg.sigma, X)
        R = solve_for_config(cfg).R
        W = np.column_stack([w_T] + [resolve_reward(r, w_T, R, cfg.S) for r in rewards])
        want = np.column_stack([m, s2, X @ W / math.sqrt(d)])

        def stats(v):
            i, j = np.triu_indices(v.shape[1])
            return np.column_stack([v, v[:, i] * v[:, j], v[:, 1] * v[:, 0] ** 2])

        a, b = stats(got), stats(want)
        se = np.hypot(a.std(axis=0, ddof=1), b.std(axis=0, ddof=1)) / math.sqrt(points)
        z = np.abs(a.mean(axis=0) - b.mean(axis=0)) / se
        assert z.max() < 4, z


class TestDePoints:
    """A det_equiv test point is its coordinates on a basis of every weight and |x|^2/d."""

    _SIGMA = dict(sigma=0.3, gamma=1.0)
    _RADIAL = [RewardSpec.radial(0.0), RewardSpec.radial(3.0)]
    CASES = {
        "d1": (ModelConfig(d=1, n=4, **_SIGMA), _RADIAL),
        "d2_polar": (ModelConfig(d=2, n=8, **_SIGMA), [RewardSpec.polar(0.5, 1.0), RewardSpec.polar(2.0, 3.0)]),
        "d3": (ModelConfig(d=3, n=12, **_SIGMA), _RADIAL),
        "d50": (ModelConfig(d=50, n=200, **_SIGMA), _RADIAL),
        "tau0": (ModelConfig(d=5, n=20, tau=0.0, **_SIGMA), _RADIAL),
    }

    def oracle(self, case, seed, points):
        """The X route's per-point (m, s2, mu_T, mu_R, r2) at the engine's teacher and rewards."""
        cfg, rewards = self.CASES[case]
        de = solve_for_config(cfg)
        w_T = sample_teacher(cfg, stream(seed, "teacher"))
        W_R = [resolve_reward(r, w_T, de.R, cfg.S) for r in rewards]
        return x_route_points(cfg, de, w_T, W_R, points, stream(seed, "oracle points")), w_T

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_law_matches_the_x_route(self, case, monkeypatch):
        # per coordinate, a two-sample KS test at a fixed seed, and E u^2 = q^2, E |x|^2/d = S^2
        # within 4 stderr
        cfg, rewards = self.CASES[case]
        seed, points = 5, 4000
        r2 = []

        def spy(u, x2, de, config):
            r2.append(x2)
            return de_moments_batch(u, x2, de, config)

        monkeypatch.setattr(mc, "de_moments_batch", spy)
        (make_context,) = mc._prepare_contexts(cfg, rewards, "det_equiv", seed, points, 1)
        ctx = make_context()
        got = np.column_stack([ctx.m, ctx.s**2, ctx.mu_T, ctx.mu_R, r2[0]])
        (m, s2, mu_T, mu_R, x2), w_T = self.oracle(case, seed, points)
        want = np.column_stack([m, s2, mu_T, mu_R, x2])
        assert got.shape == want.shape == (points, 6)
        p_values = [ks_2samp(got[:, i], want[:, i]).pvalue for i in range(got.shape[1])]
        assert min(p_values) > 1e-3, p_values
        q2 = cfg.S**2 * float(w_T @ w_T) / cfg.d
        for values, mean in ((ctx.mu_T**2, q2), (r2[0], cfg.S**2)):
            assert abs(values.mean() - mean) <= 4 * values.std(ddof=1) / math.sqrt(points)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_sweep_cell_matches_the_x_route(self, case):
        # one cell (k = 4, T = 20 sigma^2, the second target) within 3 stderr of the route that
        # draws every x in full and every batch of candidates through the oracle's selection
        cfg, rewards = self.CASES[case]
        seed, points, n_inner, k, T = 9, 400, 50, 4, 20 * cfg.sigma**2
        res = delta_k_curve(cfg, rewards[1], T, [k], n_outer=points, n_inner=n_inner, seed=seed)
        (m, s2, mu_T, mu_R, _), _ = self.oracle(case, seed, points)
        rng = stream(seed, "oracle candidates")
        per_x = [delta_x(m[i], s2[i], mu_T[i], mu_R[i, 1], k, T, n_inner, rng)[0] for i in range(points)]
        se = math.hypot(res.stderr[0], np.std(per_x, ddof=1) / math.sqrt(points))
        assert abs(res.mean[0] - np.mean(per_x)) <= 3 * se

    def test_one_call_at_large_d_holds_no_per_point_vector(self):
        # d = 1e5: the teacher, reward and basis vectors take O(d) values, an (n_outer, d)
        # matrix of test points 64 d
        d = 100_000
        cfg = ModelConfig(d=d, n=1000 * d)
        tracemalloc.start()
        try:
            delta_k_curve(cfg, [RewardSpec.radial(0.0), RewardSpec.radial(2.0)], [0.0, 20 * cfg.sigma**2],
                          [1, 2, 8], n_outer=64, n_inner=4, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * d * 8, peak


class TestDeltaX:
    def test_k1_is_plain_second_moment(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            m = float(rng.normal())
            s2 = float(rng.uniform(0.2, 2.0))
            mu_T = float(rng.normal())
            mu_R = float(rng.normal())
            T = float(rng.uniform(0.1, 5.0))
            mean, se = delta_x(m, s2, mu_T, mu_R, 1, T, n_inner=100_000, rng=stream(4, "inf"))
            target = (m - mu_T) ** 2 + s2
            assert abs(mean - target) < 4 * se

    def test_huge_t_uniform_weights(self):
        m, s2, mu_T = 0.5, 1.3, -0.2
        mean, se = delta_x(m, s2, mu_T, 4.0, 8, 1e12 * s2, n_inner=100_000, rng=stream(5, "inf"))
        target = (m - mu_T) ** 2 + s2
        assert abs(mean - target) < 4 * se

    def test_matches_quadrature_oracle(self):
        # k=2, T=2 s^2, m = mu_R = mu_T = 0, s = 1: frozen value from a
        # 200-point Gauss-Hermite evaluation of the 2-d integral (cross-checked
        # against an adaptive quadrature to 1.5e-15).
        oracle = 0.6495418382514772
        mean, se = delta_x(0.0, 1.0, 0.0, 0.0, 2, 2.0, n_inner=400_000, rng=stream(6, "inf"))
        assert abs(mean - oracle) < 0.01 * oracle
        assert abs(mean - oracle) < 4 * se

    def test_n_inner_validation(self):
        with pytest.raises(ValueError):
            delta_x(0.0, 1.0, 0.0, 0.0, 1, 1.0, 0, stream(0, "i"))


class TestDelta:
    """One cell (k, T) through the engine's single-curve entry point."""

    def test_nonnegative(self):
        cfg = ModelConfig(d=4, n=200, sigma=0.1, gamma=1.0)
        res = delta_k_curve(cfg, RewardSpec.radial(0.0), 0.01, [3], n_outer=50, n_inner=20, seed=1)
        assert res.mean[0] >= 0.0

    def test_prior_predictive_total_variance(self):
        # n = 0, null teacher, near-uniform weights: delta = gamma^2 S^2 + sigma^2.
        cfg = ModelConfig(d=6, n=0, S=1.0, sigma=0.3, gamma=0.8, tau=0.0)
        res = delta_k_curve(
            cfg, RewardSpec.radial(0.0), 1e9, [4],  # w_R = w_T = 0
            n_outer=3000, n_inner=60, mode="exact_posterior", seed=2,
        )
        target = cfg.gamma**2 * cfg.S**2 + cfg.sigma**2
        assert abs(res.mean[0] - target) < 4 * res.stderr[0]

    def test_prior_predictive_where_the_input_variance_rounds_to_0(self):
        # n = 0 has no ridge, R = 0: the radial family's B = R/(R + S^2) is 0 even where
        # S^2 rounds to 0, so w_R = w_T and delta = sigma^2 to rounding (gamma^2 S^2 = 0)
        cfg = ModelConfig(d=6, n=0, S=1e-200, sigma=0.3, gamma=0.8, tau=0.0)
        kw = dict(n_outer=3000, n_inner=60, mode="exact_posterior", seed=2)
        hot = delta_k_curve(cfg, RewardSpec.radial(0.0), 1e9, [4], **kw)
        assert abs(hot.mean[0] - cfg.sigma**2) < 4 * hot.stderr[0]
        best = delta_k_curve(cfg, RewardSpec.radial(0.0), 0.0, [4], **kw)  # the draw closest to mu_T = 0
        assert 0.0 < best.mean[0] < hot.mean[0]

    def test_bit_identical_across_runs_and_threads(self):
        cfg = ModelConfig(d=5, n=500, sigma=0.05, gamma=0.5)
        kwargs = dict(n_outer=40, n_inner=30, seed=9)
        a = delta_k_curve(cfg, RewardSpec.radial(1.0), 0.02, [5], threads=1, **kwargs)
        b = delta_k_curve(cfg, RewardSpec.radial(1.0), 0.02, [5], threads=3, **kwargs)
        c = delta_k_curve(cfg, RewardSpec.radial(1.0), 0.02, [5], threads=1, **kwargs)
        assert a.mean[0] == b.mean[0] == c.mean[0]
        assert a.stderr[0] == b.stderr[0] == c.stderr[0]

    def test_exact_and_de_modes_agree_in_validity_regime(self):
        cfg = ModelConfig(d=50, n=5000, S=1.0, sigma=1e-2, gamma=1.0)
        common = dict(n_outer=400, n_inner=100, seed=3)
        T = 20 * cfg.sigma**2
        exact = delta_k_curve(cfg, RewardSpec.radial(0.0), T, [4], mode="exact_posterior", **common)
        de = delta_k_curve(cfg, RewardSpec.radial(0.0), T, [4], mode="det_equiv", **common)
        tol = 3 * (exact.stderr[0] + de.stderr[0]) + 0.03 * de.mean[0]
        assert abs(exact.mean[0] - de.mean[0]) < tol

    def test_unknown_mode_rejected(self):
        cfg = ModelConfig(d=3, n=10)
        with pytest.raises(ValueError, match="mode"):
            delta_k_curve(cfg, RewardSpec.radial(0.0), 1.0, [1], n_outer=2, n_inner=2, mode="bogus")


class TestCurves:
    def test_aligned_reward_monotone_decrease(self):
        # teacher-matched reward at moderate temperature: more samples only help
        cfg = ModelConfig(d=10, n=10_000, **FIG_LIKE)
        res = delta_k_curve(
            cfg, RewardSpec.radial(0.0), T=20 * cfg.sigma**2,
            k_grid=[1, 2, 3, 5, 8, 12, 20, 35, 60, 100],
            n_outer=300, n_inner=100, seed=12,
        )
        for i in range(len(res.grid) - 1):
            rise = res.mean[i + 1] - res.mean[i]
            assert rise <= 2 * res.paired_stderr(i, i + 1)
        assert classify_k_monotonicity(res) == "monotone"

    def test_misaligned_reward_interior_minimum(self):
        cfg = ModelConfig(d=10, n=10_000, **FIG_LIKE)
        res = delta_k_curve(
            cfg, RewardSpec.radial(20.0), T=20 * cfg.sigma**2,
            k_grid=[1, 2, 3, 5, 8, 12, 20, 35, 60, 100],
            n_outer=400, n_inner=100, seed=13,
        )
        assert classify_k_monotonicity(res) == "non_monotone"
        interior = res.mean[1:-1]
        assert interior.min() < res.mean[0] and interior.min() < res.mean[-1]

    def test_t_curve_shares_draws(self):
        cfg = ModelConfig(d=4, n=1000, sigma=0.05, gamma=0.5)
        res = delta_t_curve(
            cfg, RewardSpec.radial(0.0), k=6,
            T_grid=[0.0, 1e-4, 1e-3, 1e-2], n_outer=60, n_inner=40, seed=14,
        )
        assert res.per_x.shape == (60, 4)
        # paired noise between close cells is far below the marginal noise
        assert res.paired_stderr(0, 1) < 0.5 * res.stderr[0]

    def test_curve_determinism_across_threads(self):
        cfg = ModelConfig(d=4, n=500, sigma=0.05, gamma=0.5)
        kw = dict(n_outer=30, n_inner=20, seed=15)
        r1 = delta_k_curve(cfg, RewardSpec.radial(0.5), 0.01, [1, 3, 9], threads=1, **kw)
        r2 = delta_k_curve(cfg, RewardSpec.radial(0.5), 0.01, [1, 3, 9], threads=4, **kw)
        np.testing.assert_array_equal(r1.per_x, r2.per_x)

    def test_dataset_averaging_mode(self):
        cfg = ModelConfig(d=4, n=100, sigma=0.1, gamma=1.0)
        res = delta_k_curve(
            cfg, RewardSpec.radial(0.0), T=0.01, k_grid=[1, 2],
            n_outer=25, n_inner=10, mode="exact_posterior", seed=16, n_datasets=3,
        )
        assert res.per_x.shape[0] == 75
        assert res.meta["n_datasets"] == 3

    def test_validation(self):
        cfg = ModelConfig(d=3, n=50)
        with pytest.raises(ValueError):
            delta_k_curve(cfg, RewardSpec.radial(0.0), 1.0, [0, 2], n_outer=5, n_inner=5)
        with pytest.raises(ValueError):
            delta_t_curve(cfg, RewardSpec.radial(0.0), 2, [-1.0], n_outer=5, n_inner=5)
