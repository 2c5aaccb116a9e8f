"""Monte Carlo estimation of the selection generalization error.

The error of reward-weighted selection at a test point x is

    delta(x) = E[ sum_i (y_i - mu_T)^2 e^{-(y_i - mu_R)^2 / T}
                  / sum_j e^{-(y_j - mu_R)^2 / T} ],

with y_1..y_k i.i.d. from the predictive at x, and delta = E_x delta(x).
The estimator averages the softmax-weighted loss inside each batch of k
draws (same expectation as sampling the categorical index, strictly lower
variance). One engine call evaluates a set of cells (k, T, reward target),
making the teacher, ridge fixed point, training sets, posteriors and test
points once, and mu_R = x.w_R/sqrt(d) once per (point, target). A target
whose cells all have T = 0 samples the winner's distance directly: in
standardized coordinates z = (y - m)/s the selected draw is the one closest
to a = (mu_R - m)/s, and its distance D has P(D > d) = (1 - F(d))^k with
F(d) = P(|z - a| <= d), so D is drawn by inverting that law and no k
candidates are materialised. Disjoint blocks of k_j - k_{j-1} candidates
each give one winner, at O(n_inner) cost per grid point. The other targets
reweight one shared (n_inner, kmax) Gaussian draw matrix per test point. So
two candidate generators, block winners and Gaussian draws, feed one
selection kernel (``sampling.select_prefixes``): a target's sorted k values
(block counts for the winners) cut the candidates into segments, and one
call per distinct T selects every prefix [:k] in one pass over them. For the
draw matrix that costs O(n_inner * kmax) per point, target and distinct T,
plus an O(grid length) scan, where selecting each prefix anew cost
O(n_inner * sum of k).
The pass runs on small batches of test points with the targets stacked, so
a work unit makes a few dozen large numpy calls per point rather than
thousands of small ones.

Every target restarts the test point's streams, so sweeps over k, T and the
reward (c, theta) share their random numbers (common random numbers): curves
are smooth at fixed seed and neighbouring grid points can be compared
through paired differences.

Reproducibility contract: all randomness is derived from (seed, purpose,
index) named streams. The outer loop over test points is processed in
fixed-size blocks, each test point owning its own substream, and the
reduction is performed in index order, so results are bit-identical for any
thread count.

The T = 0 sampler takes log Phi and the logistic function from the
package's numpy helper (``_special``), so no run loads scipy.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from ._special import expit, log_ndtr
from .model import ModelConfig, RewardSpec, generate_dataset, resolve_reward, sample_teacher
from .posterior import fit_posterior, predictive_moments_batch
from .ridge import de_moments_batch, solve_for_config
from .rngstreams import stream
from .sampling import select_prefixes

MODES = ("exact_posterior", "det_equiv")

_BLOCK = 16  # test points per work unit; fixed so results never depend on threading
_MAX_ELEMS = 1 << 23  # cap on draws held in memory at once (per work unit)
_SCAN_ELEMS = 1 << 18  # cap on the values one batch of test points holds (per work unit)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_NEWTON_STEPS = 50  # cap only: the root solve converges in at most a handful


def _stderr(values: np.ndarray) -> np.ndarray:
    """Standard error of the mean along axis 0; inf with fewer than two rows.

    Each column is scaled by a power of two before ``std``, which is exact: the
    result is plain ``std``'s wherever the squared deviations stay normal
    floats, and stays finite and accurate where they would overflow or
    underflow (values beyond about 1e154 or below about 1e-154).
    """
    n = values.shape[0]
    if n < 2:
        return np.full(values.shape[1:], math.inf)
    _, e = np.frexp(np.abs(values).max(axis=0))
    return np.ldexp(np.ldexp(values, -e).std(axis=0, ddof=1), e) / math.sqrt(n)


@dataclass(frozen=True)
class SweepResult:
    """A delta curve along one axis, with per-test-point values retained.

    ``per_x[i, g]`` is the inner-averaged estimate at test point i and grid
    cell g; columns share draws, so differences between cells should be
    assessed with :meth:`paired_stderr`, not the marginal ``stderr``. A curve
    asked for a sequence of reward targets holds one curve per target:
    ``mean[r, g]``, ``stderr[r, g]`` and ``per_x[i, r, g]``, and
    :meth:`target` gives target r's curve.
    """

    axis: str
    grid: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    per_x: np.ndarray
    n_outer: int
    n_inner: int
    mode: str
    seed: int
    meta: dict = field(default_factory=dict)

    def paired_stderr(self, i: int, j: int) -> float:
        """Standard error of mean[j] - mean[i] using the shared draws."""
        return float(_stderr(self.per_x[:, j] - self.per_x[:, i]))

    def target(self, r: int) -> "SweepResult":
        """The curve of reward target r of a multi-target sweep."""
        return replace(self, mean=self.mean[r], stderr=self.stderr[r], per_x=self.per_x[:, r])


# ---------------------------------------------------------------------------
# Sweep engine
# ---------------------------------------------------------------------------


def _plan_shared(cell_k, cell_T, cell_r):
    """Group the distinct shared cells for one pass over the k grid.

    A cell is (target r, T, k). Returns (plan, cell_of): ``cell_of`` maps each
    cell to its column among the distinct cells, and each plan entry
    (T, ks, targets, cols) gathers the targets whose cells at T have the same
    sorted distinct k values ks, with cols[i, j] the column of
    (targets[i], T, ks[j]). Only a target's own cells shape its entry, so its
    values do not depend on the other targets.
    """
    cells = list(zip(cell_r.tolist(), cell_T.tolist(), cell_k.tolist()))
    col = {c: j for j, c in enumerate(sorted(set(cells)))}
    ks_of = {}
    for r, T, k in col:
        ks_of.setdefault((r, T), []).append(k)
    groups = {}
    for (r, T), ks in ks_of.items():
        groups.setdefault((T, tuple(ks)), []).append(r)
    plan = [(T, np.array(ks), np.array(rs), np.array([[col[r, T, k] for k in ks] for r in rs]))
            for (T, ks), rs in groups.items()]
    return plan, np.array([col[c] for c in cells])


def _softmax_cells(rngs, m, s, mu_T, mu_R, plan, n_inner: int, kmax: int) -> np.ndarray:
    """Inner-averaged weighted losses of the distinct shared cells at a batch of test points.

    ``rngs`` holds one generator per point; ``m``, ``s`` and ``mu_T`` are
    per-point arrays and ``mu_R`` is (points, targets). One (n_inner, kmax)
    draw matrix per point backs every cell, drawn in row chunks that bound
    memory; cell (r, T, k) uses its first k columns. One call of
    :func:`select_prefixes` per plan entry and chunk serves every k of the
    entry at all points of the batch, whatever its T, with the targets
    stacked up to the same bound. Each point's row depends only on its own
    generator, and no sum depends on the batch size or on the other targets.
    """
    n_points = len(rngs)
    out = np.zeros((n_points, sum(cols.size for *_, cols in plan)))
    rows_per_chunk = max(1, _MAX_ELEMS // kmax)
    done = 0
    while done < n_inner:
        rows = min(rows_per_chunk, n_inner - done)
        Z = np.empty((n_points, rows, kmax))
        for p, rng in enumerate(rngs):
            rng.standard_normal(out=Z[p])
        # columns first, so each segment reduces over whole contiguous blocks
        Y = np.multiply(Z.transpose(2, 0, 1), s[:, None], out=np.empty((kmax, n_points, rows)))
        Y += m[:, None]
        del Z
        L = Y - mu_T[:, None]
        L *= L
        per_stack = max(1, _MAX_ELEMS // Y.size)
        for T, ks, rs, cols in plan:
            for lo in range(0, len(rs), per_stack):
                stack = slice(lo, lo + per_stack)
                P = Y[: ks[-1], :, None] - mu_R[:, rs[stack], None]
                P *= P
                out[:, cols[stack]] += select_prefixes(P, L[: ks[-1], :, None], ks, T)
        done += rows
    return out / n_inner


def _winner_distance(x: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Solve F(d) = -expm1(x) for d >= 0, elementwise, with x <= 0 and A >= 0.

    F(d) = P(|z - A| <= d) = Phi(d - A) - Phi(-A - d) for z ~ N(0, 1). Both
    terms are lower tails, so their difference keeps its relative precision
    at large A. Newton's method starts from the larger of two lower bounds on
    the root. Targets p = -expm1(x) <= 1/2 are solved on log F, which is
    concave (Prekopa), so the iterates rise monotonically onto the root;
    targets above 1/2 on log(1 - F) = x, which is exact near p = 1. Roots
    below 1e-5 are taken from the sinh bound, which is exact there to O(d^2).
    Every element stops on its own convergence test, so no result depends on
    its batch-mates.
    """
    x, A = np.broadcast_arrays(x, A)
    p = -np.expm1(x)
    upper = p > 0.5
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_p = np.log(p)
        # each upper bound on F is a lower bound on the root: F(d) <= Phi(d - A)
        # and F(d) <= 2 phi(A) sinh(A d) / A. The normal quantiles of p and
        # 1 - p lie at most sqrt(-2 log 4p(1 - p)) from 0 (Chu 1955) and at
        # least sqrt(-(pi/2) log 4p(1 - p)) (Polya 1949); 4p(1 - p) = 1 - (1 - 2e^x)^2
        log_4pq = np.log1p(-np.expm1(x + math.log(2.0)) ** 2)
        t = np.sqrt(np.where(upper, -0.5 * math.pi, -2.0) * log_4pq)
        normal_bound = A + np.where(upper, t, -t)
        log_sinh = log_p + np.log(A) + 0.5 * A * A + _LOG_SQRT_2PI - math.log(2.0)
        sinh_bound = np.where(
            log_sinh > 30.0, log_sinh + math.log(2.0), np.arcsinh(np.exp(log_sinh))
        ) / A
        # below A = 1e-8 the sinh bound is p sqrt(pi/2) to rounding, a bound at every A
        # (F_A(d) <= F_0(d) <= d sqrt(2/pi)) that skips the product p A, subnormal there
        sinh_bound = np.where(A >= 1e-8, sinh_bound, p * math.sqrt(0.5 * math.pi))
    d = np.maximum(normal_bound, sinh_bound).ravel()  # 0 where p = 0
    target = np.where(upper, x, log_p).ravel()
    A, upper = A.ravel(), upper.ravel()
    active = np.flatnonzero(d >= 1e-5)
    for _ in range(_NEWTON_STEPS):
        if active.size == 0:
            break
        da, Aa, up = d[active], A[active], upper[active]
        tail = log_ndtr(-Aa - da)  # log Phi(-A - d)
        near = log_ndtr(np.where(up, Aa - da, da - Aa))  # log Phi(+-(d - A))
        with np.errstate(divide="ignore"):  # log(1 - F) on the upper branch
            log_mass = np.where(up, np.logaddexp(near, tail), near + np.log(-np.expm1(tail - near)))
        log_density = np.logaddexp(-0.5 * (da - Aa) ** 2, -0.5 * (da + Aa) ** 2) - _LOG_SQRT_2PI
        # g = log F - log p rises in d; so does g = x - log(1 - F)
        g = np.where(up, target[active] - log_mass, log_mass - target[active])
        step = -g / np.exp(log_density - log_mass)
        d[active] = da + step
        # the log F branch approaches from below: a non-positive step is noise
        active = active[np.where(up, np.abs(step), step) > 1e-10 * da]
    return d.reshape(x.shape)


def _best_of_k_cells(rngs, m, s, mu_T, mu_R, cell_k, n_inner: int) -> np.ndarray:
    """Inner-averaged T = 0 losses for every k cell at a batch of test points.

    ``rngs`` holds one generator per test point; the other arguments are
    per-point arrays. Sorted distinct k values split the candidates into
    disjoint blocks of k_j - k_{j-1}; each block draws, per inner batch, one
    uniform for its winner's distance and one for the winner's side of a.
    The block winners are the candidates of one :func:`select_prefixes`
    call at T = 0, whose prefix j selects among the first j + 1 blocks. Each
    point's row depends only on its own generator.
    """
    ks, cell_of = np.unique(np.asarray(cell_k, dtype=int), return_inverse=True)
    positive = s > 0
    a = np.divide(mu_R - m, s, out=np.zeros_like(s), where=positive)[:, None]
    # the winner y = m + s (a +- d) has y - mu_T = (mu_R - mu_T) +- s d
    gap = np.where(positive, mu_R - mu_T, m - mu_T)[:, None]
    s = s[:, None]
    D = np.empty((len(ks), len(rngs), n_inner))  # block winners' distances: their penalties
    loss = np.empty_like(D)
    for j, block in enumerate(np.diff(ks, prepend=0)):
        U = np.stack([rng.random((2, n_inner)) for rng in rngs])
        D[j] = d = _winner_distance(np.log1p(-U[:, 0]) / block, np.abs(a))
        # P(winner at a + d) = phi(a + d) / (phi(a + d) + phi(a - d))
        offset = np.where(U[:, 1] < expit(-2.0 * a * d), s * d, -s * d)
        loss[j] = (gap + offset) ** 2
    return select_prefixes(D, loss, np.arange(1, len(ks) + 1), 0.0)[:, cell_of] / n_inner


@dataclass(frozen=True)
class _Context:
    """Per-dataset predictive scalars at the sampled test points."""

    dataset_index: int
    m: np.ndarray
    s: np.ndarray
    mu_T: np.ndarray
    mu_R: np.ndarray  # (test points, reward targets)


def _prepare_contexts(config, rewards, mode, seed, n_outer, n_datasets):
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    w_T = sample_teacher(config, stream(seed, "teacher"))
    de = solve_for_config(config) if config.n > 0 else None
    if de is None and any(r.mode == "radial_c" and r.c != 0 for r in rewards):
        # w_R = (1 + c R/(R + S^2)) w_T: without the ridge R every c would give c = 0's reward
        raise ValueError("the radial reward family requires n > 0 for c != 0")
    R = de.R if de is not None else 0.0
    W_R = [resolve_reward(reward, w_T, R, config.S) for reward in rewards]
    sqrt_d = math.sqrt(config.d)

    if mode == "det_equiv":
        if de is None:
            raise ValueError("det_equiv mode requires n > 0")
        n_datasets = 1

    contexts = []
    for j in range(n_datasets):
        X = stream(seed, "test_points", j).normal(0.0, config.S, size=(n_outer, config.d))
        if mode == "exact_posterior":
            data = generate_dataset(config, w_T, stream(seed, "data", j))
            post = fit_posterior(data, config)
            # X holds coordinates in the posterior's eigenbasis: x = V z has the law of x,
            # N(0, S^2 I) being rotation invariant, so the weights turn once, V^T w
            m, s2 = predictive_moments_batch(post, X)
            w_T_j, W_R_j = post.basis.T @ w_T, [post.basis.T @ w_R for w_R in W_R]
        else:
            m, s2 = de_moments_batch(X, w_T, de, config)
            w_T_j, W_R_j = w_T, W_R
        contexts.append(
            _Context(
                dataset_index=j,
                m=m,
                s=np.sqrt(s2),
                mu_T=X @ w_T_j / sqrt_d,
                mu_R=np.stack([X @ w_R / sqrt_d for w_R in W_R_j], axis=1),
            )
        )
    return contexts


@np.errstate(over="ignore", invalid="ignore")  # an overflow leaves a non-finite mean, refused below
def _run_cells(config, rewards, cell_k, cell_T, n_outer, n_inner, mode, seed, threads, n_datasets):
    """Evaluate every (k, T, reward target) cell at every test point.

    ``cell_k`` and ``cell_T`` broadcast to (targets, cells per target); row r
    belongs to ``rewards[r]``. A target whose cells all have T = 0 goes to the
    order-statistic sampler; the other targets share one Gaussian draw matrix.
    Each route restarts every test point's stream, so a target's bytes do not
    depend on the other targets as long as the shared targets' largest k does
    not. Returns per_x (points, targets, cells), mean, stderr and meta.
    """
    if n_outer < 1 or n_inner < 1:
        raise ValueError("n_outer and n_inner must be >= 1")
    shape = np.broadcast_shapes((len(rewards), 1), np.shape(cell_k), np.shape(cell_T))
    cell_k = np.broadcast_to(np.asarray(cell_k, dtype=int), shape).ravel()
    cell_T = np.broadcast_to(np.asarray(cell_T, dtype=float), shape).ravel()
    cell_r = np.repeat(np.arange(shape[0]), shape[1])
    if np.any(cell_k < 1):
        raise ValueError("every k must be >= 1")
    if np.any(cell_T < 0):
        raise ValueError("every T must be >= 0")
    t0_targets = [r for r in range(shape[0]) if not np.any(cell_T[cell_r == r])]
    shared = ~np.isin(cell_r, t0_targets)
    shared_targets, shared_r = np.unique(cell_r[shared], return_inverse=True)
    kmax = int(cell_k[shared].max()) if shared.any() else 0
    # points per call of the T = 0 sampler: its ~16 working arrays and 2 block arrays
    # per cell, each of n_inner values per point, then hold at most _MAX_ELEMS values
    t0_points = max(1, _MAX_ELEMS // ((16 + 2 * shape[1]) * n_inner))
    if kmax:
        plan, cell_of = _plan_shared(cell_k[shared], cell_T[shared], shared_r)
        # points per batch: their draws, losses, penalties and segment
        # statistics hold at most _SCAN_ELEMS values
        n_shared = len(shared_targets)
        per_row = kmax * (n_shared + 3) + 2 * sum(cols.size for T, *_, cols in plan if T)
        scan_points = max(1, _SCAN_ELEMS // (per_row * min(n_inner, max(1, _MAX_ELEMS // kmax))))

    contexts = _prepare_contexts(config, rewards, mode, seed, n_outer, n_datasets)
    n_rows = len(contexts) * n_outer
    per_x = np.empty((n_rows, len(cell_k)))

    @np.errstate(over="ignore", invalid="ignore")  # errstate is per thread
    def run_block(ctx: _Context, start: int, stop: int):
        base = ctx.dataset_index * n_outer
        for r in t0_targets:
            cells = cell_r == r
            for lo in range(start, stop, t0_points):
                hi = min(lo + t0_points, stop)
                rngs = [stream(seed, "inference", ctx.dataset_index, i) for i in range(lo, hi)]
                per_x[base + lo : base + hi, cells] = _best_of_k_cells(
                    rngs, ctx.m[lo:hi], ctx.s[lo:hi], ctx.mu_T[lo:hi], ctx.mu_R[lo:hi, r],
                    cell_k[cells], n_inner,
                )
        if not kmax:
            return
        for lo in range(start, stop, scan_points):
            hi = min(lo + scan_points, stop)
            rngs = [stream(seed, "inference", ctx.dataset_index, i) for i in range(lo, hi)]
            values = _softmax_cells(
                rngs, ctx.m[lo:hi], ctx.s[lo:hi], ctx.mu_T[lo:hi],
                ctx.mu_R[lo:hi][:, shared_targets], plan, n_inner, kmax,
            )
            per_x[base + lo : base + hi, shared] = values[:, cell_of]

    blocks = [
        (ctx, start, min(start + _BLOCK, n_outer))
        for ctx in contexts
        for start in range(0, n_outer, _BLOCK)
    ]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda b: run_block(*b), blocks))
    else:
        for b in blocks:
            run_block(*b)

    mean = per_x.mean(axis=0)
    if not np.isfinite(mean).all():  # a non-finite per-point value, or their sum
        raise ValueError(f"the squared losses leave the float range at sigma = {config.sigma:g}, gamma = {config.gamma:g}")
    return (per_x.reshape(n_rows, *shape), mean.reshape(shape),
            _stderr(per_x).reshape(shape), {"n_datasets": len(contexts)})


def _sweep(axis, grid, config, reward, cell_k, cell_T, n_outer, n_inner, mode, seed,
           threads, n_datasets, **meta) -> SweepResult:
    """Run a curve's cells; one RewardSpec gives one curve, a sequence one per target."""
    single = isinstance(reward, RewardSpec)
    per_x, mean, stderr, run_meta = _run_cells(
        config, [reward] if single else list(reward), cell_k, cell_T,
        n_outer, n_inner, mode, seed, threads, n_datasets,
    )
    result = SweepResult(
        axis=axis, grid=grid, mean=mean, stderr=stderr, per_x=per_x, n_outer=per_x.shape[0],
        n_inner=n_inner, mode=mode, seed=seed, meta={**run_meta, **meta},
    )
    return result.target(0) if single else result


def delta_k_curve(
    config: ModelConfig,
    reward,
    T,
    k_grid,
    n_outer: int = 2000,
    n_inner: int = 200,
    mode: str = "det_equiv",
    seed: int = 0,
    threads: int = 1,
    n_datasets: int = 1,
) -> SweepResult:
    """delta as a function of k at fixed T, with draws shared across k.

    ``reward`` is a RewardSpec or a sequence of them, and ``T`` one
    temperature or one per reward target.
    """
    k_grid = np.asarray(k_grid, dtype=int)
    T = np.asarray(T, dtype=float)
    return _sweep(
        "k", k_grid, config, reward, k_grid, T[..., None], n_outer, n_inner, mode, seed,
        threads, n_datasets, T=T.tolist(),
    )


def delta_t_curve(
    config: ModelConfig,
    reward,
    k: int,
    T_grid,
    n_outer: int = 2000,
    n_inner: int = 200,
    mode: str = "det_equiv",
    seed: int = 0,
    threads: int = 1,
    n_datasets: int = 1,
) -> SweepResult:
    """delta as a function of T at fixed k, with draws shared across T.

    ``reward`` is a RewardSpec or a sequence of them.
    """
    T_grid = np.asarray(T_grid, dtype=float)
    return _sweep(
        "T", T_grid, config, reward, int(k), T_grid, n_outer, n_inner, mode, seed,
        threads, n_datasets, k=int(k),
    )


def delta_c_curve(
    config: ModelConfig,
    c_grid,
    T: float,
    k: int,
    n_outer: int = 2000,
    n_inner: int = 200,
    mode: str = "det_equiv",
    seed: int = 0,
    threads: int = 1,
    n_datasets: int = 1,
) -> SweepResult:
    """delta across the radial reward family w_R = (1 + c B) w_T at fixed (k, T).

    Each c is one reward target with a single cell (k, T).
    """
    c_grid = np.asarray(c_grid, dtype=float)
    res = _sweep(
        "c", c_grid, config, [RewardSpec.radial(c) for c in c_grid], int(k), float(T),
        n_outer, n_inner, mode, seed, threads, n_datasets, T=float(T), k=int(k),
    )
    return replace(res, mean=res.mean[:, 0], stderr=res.stderr[:, 0], per_x=res.per_x[:, :, 0])


def classify_k_monotonicity(result: SweepResult, z: float = 3.0) -> str:
    """Label a delta(k) curve ``monotone`` or ``non_monotone``.

    The curve is non-monotone when some interior grid point sits at least z
    paired standard errors below both of the next two points toward larger
    k; paired errors use the shared draws, so the gate is immune to the
    common Monte Carlo offset along the curve.
    """
    if result.axis != "k":
        raise ValueError("classification applies to k-sweeps")
    mean = result.mean
    for i in range(1, len(mean) - 2):
        if all(mean[j] - mean[i] > z * result.paired_stderr(i, j) for j in (i + 1, i + 2)):
            return "non_monotone"
    return "monotone"
