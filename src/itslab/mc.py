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
candidates are materialised: a short distance, the rule once a block holds
many candidates, from the reversion of the Hermite series of F, and a long
one on log F.
Disjoint blocks of k_j - k_{j-1} candidates each give one winner, at
O(n_inner) cost per grid point. The other targets reweight one shared
(n_inner, kmax) Gaussian draw matrix per test point. So
two candidate generators, block winners and Gaussian draws, feed one
selection kernel (``sampling.select_prefixes``): a target's sorted k values
(block counts for the winners) cut the candidates into segments, and one
call per distinct T selects every prefix [:k] in one pass over them. For the
draw matrix that costs O(n_inner * kmax) per point, target and distinct T,
plus an O(grid length) scan, where selecting each prefix anew cost
O(n_inner * sum of k).
The pass runs on batches of test points with the targets stacked, so
a work unit makes a few dozen large numpy calls per point rather than
thousands of small ones; a batch makes about a hundred whatever its size,
so fewer, larger batches hold the Python interpreter lock less per point.
Each thread cuts a batch's draws, losses, penalties and kernel statistics
from one workspace of flat buffers, made once per engine call, so the batch
loop allocates nothing large; the workspace of a batch holds at most
_SCAN_ELEMS values (4 MB), or one test point's.
Work units hold at least _BLOCK test points and at most a batch's worth
(_SCAN_ELEMS values of the softmax pass and the T = 0 sampler together), as few as
leave each thread _UNITS_PER_THREAD of them: one-draw points are cheap, and
small units would spend a run on scheduling. With more than one thread the datasets (training
set, posterior and predictive moments) are fitted in the same pool as the
units of test points, each unit waiting on its own dataset only.

Every target restarts the test point's stream, so sweeps over k, T and the
reward (c, theta) share their random numbers (common random numbers): curves
are smooth at fixed seed and neighbouring grid points can be compared
through paired differences.

Reproducibility contract: all randomness is derived from (seed, purpose,
index) named streams. Each test point owns a keyed PCG64 generator
(``rngstreams.stream_keys``): one seed sequence per (seed, "inference",
dataset) gives every point four words, which do not depend on the number of
points, and each route makes the point's generator afresh from them. A
point's row therefore depends on nothing but its own key, the reduction runs
in index order, and results are bit-identical for any thread count and unit
size.

The T = 0 sampler takes log Phi (for long distances only) and the logistic
function from the package's numpy helper (``_special``), so no run loads
scipy.
"""

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from ._special import expit, log_ndtr
from .model import ModelConfig, RewardSpec, generate_dataset, resolve_reward, sample_teacher
from .posterior import fit_posterior, predictive_moments_batch
from .ridge import de_moments_batch, solve_for_config
from .rngstreams import keyed, stream, stream_keys
from .sampling import select_prefixes

MODES = ("exact_posterior", "det_equiv")

_BLOCK = 16  # fewest test points per work unit
_UNITS_PER_THREAD = 4  # work units per thread, unless that leaves them below _BLOCK points
# values per draw-matrix row chunk and per penalty stack: these fix the order of the
# softmax pass's sums, and so its bytes, whatever the batch
_MAX_ELEMS = 1 << 23
_SCAN_ELEMS = 1 << 19  # cap on the values one batch of test points holds: 4 MB per worker
# largest |mu_R - m| / s a run accepts: past it, rounding in y - mu_R costs more than
# about 5e-7 of a draw's offset from the predictive mean
_MAX_REWARD_OFFSET = 2.0**32
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_NEWTON_STEPS = 50  # cap only: the root solve converges in at most a handful
_SERIES_TERMS = 9  # He_0 to He_16 in the short-root series of F
# b_1 .. b_9 of the reversion of G(d)/d = sum_m c_m d^{2m} (see _short_root): row j holds
# b_j's coefficients in A^2 from the constant up, which tests/test_special.py derives exactly
_REVERSION = (
    (1/6, -1/6),
    (7/120, -7/60, 3/40),
    (127/5040, -127/1680, 463/5040, -5/112),
    (4369/362880, -4369/90720, 1709/20160, -779/10080, 35/1152),
    (34807/5702400, -34807/1140480, 465253/6652800, -608273/6652800, 299909/4435200, -63/2816),
    (20036983/6227020800, -20036983/1037836800, 338366599/6227020800, -47540027/518918400,
     40278503/415134720, -20996981/345945600, 231/13312),
    (2280356863/1307674368000, -2280356863/186810624000, 17731236979/435891456000,
     -36415268369/435891456000, 16527121453/145297152000, -329508463/3228825600,
     537116941/9686476800, -143/10240),
    (49020204823/50812489728000, -49020204823/6351561216000, 879989848891/29640619008000,
     -1062234934471/14820309504000, 468122186447/3952082534400, -404873645041/2964061900800,
     351472717571/3293402112000, -225343847/4391202816, 6435/557056),
    (65967241200001/121645100408832000, -65967241200001/13516122267648000,
     129385102762319/6082255020441600, -597221533023217/10137091700736000,
     210179045032823/1843107581952000, -6530092863547/40957946265600,
     232106738914571/1448155957248000, -125171958302381/1126343522304000,
     576201344573/12014330904576, -12155/1245184),
)
# b_1 .. b_8's coefficients by power of A^2, the terms every short root takes; b_9 gives their bound
_REVERSION_COEF = np.array([row + (0.0,) * (len(_REVERSION) - len(row)) for row in _REVERSION[:-1]]).T
_REVERSION_BOUND = [sum(map(abs, row)) for row in _REVERSION]
_ROUNDING = 2.0**-55  # the largest omitted term of a short root's series, relative to the root
_REVERSION_CUT = (_ROUNDING / _REVERSION_BOUND[-1]) ** (1 / len(_REVERSION))  # r where B_9 r^9 = 2^-55


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


def _scan_layout(plan, n_inner: int, kmax: int):
    """Rows per chunk, targets per penalty stack, and the workspace of one test point.

    The workspace maps each flat buffer of :func:`_softmax_cells` to the
    values it holds per test point in a batch: ``Y`` and ``L`` (kmax per
    row), ``P``, the largest stack of penalties, which first holds the draws,
    and ``stats``, the selection kernel's largest per-segment statistics.
    """
    rows = max(1, _MAX_ELEMS // kmax)
    chunk = min(rows, n_inner)
    per_stack = max(1, _MAX_ELEMS // (kmax * chunk))
    stacks = [(T, len(ks), ks[-1], min(per_stack, len(rs))) for T, ks, rs, _ in plan]
    sizes = {
        "Y": kmax * chunk,
        "L": kmax * chunk,
        "P": chunk * max(k * n for _, _, k, n in stacks),
        "stats": chunk * max((4 * J - 1) * n if T else 0 for T, J, _, n in stacks),
    }
    return rows, per_stack, sizes


def _cut(buffer: np.ndarray, shape) -> np.ndarray:
    """The leading values of a flat buffer as an array of ``shape``."""
    return buffer[: math.prod(shape)].reshape(shape)


def _softmax_cells(rngs, m, s, mu_T, mu_R, plan, n_inner: int, kmax: int, layout, work) -> np.ndarray:
    """Inner-averaged weighted losses of the distinct shared cells at a batch of test points.

    ``rngs`` holds one generator per point; ``m``, ``s`` and ``mu_T`` are
    per-point arrays and ``mu_R`` is (points, targets). One (n_inner, kmax)
    draw matrix per point backs every cell, drawn in row chunks that bound
    memory; cell (r, T, k) uses its first k columns. One call of
    :func:`select_prefixes` per plan entry and chunk serves every k of the
    entry at all points of the batch, whatever its T, with the targets
    stacked up to the same bound. Each point's row depends only on its own
    generator, and no sum depends on the batch size or on the other targets.
    ``layout`` is :func:`_scan_layout`'s result for these arguments. The
    large arrays are views of ``work``'s flat buffers, sized by it for at
    least this many points, so a caller that passes one layout and one
    workspace to batch after batch allocates nothing large.
    """
    n_points = len(rngs)
    rows_per_chunk, per_stack, _ = layout
    out = np.zeros((n_points, sum(cols.size for *_, cols in plan)))
    done = 0
    while done < n_inner:
        rows = min(rows_per_chunk, n_inner - done)
        Z = _cut(work["P"], (n_points, rows, kmax))  # the draws leave before the penalties come
        for p, rng in enumerate(rngs):
            rng.standard_normal(out=Z[p])
        # columns first, so each segment reduces over whole contiguous blocks; Z is read in order
        Y = _cut(work["Y"], (kmax, n_points, rows))
        np.multiply(Z, s[:, None, None], out=Y.transpose(1, 2, 0))
        Y += m[:, None]
        L = np.subtract(Y, mu_T[:, None], out=_cut(work["L"], (kmax, n_points, rows)))
        L *= L
        for T, ks, rs, cols in plan:
            for lo in range(0, len(rs), per_stack):
                stack = slice(lo, lo + per_stack)
                mu = mu_R[:, rs[stack], None]
                P = _cut(work["P"], (ks[-1], n_points, mu.shape[1], rows))
                np.subtract(Y[: ks[-1], :, None], mu, out=P)
                P *= P
                out[:, cols[stack]] += select_prefixes(P, L[: ks[-1], :, None], ks, T, scratch=work["stats"])
        done += rows
    return out / n_inner


def _winner_distance(x: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Solve F(d) = -expm1(x) for d >= 0, elementwise, with x <= 0 and A >= 0.

    F(d) = P(|z - A| <= d) = Phi(d - A) - Phi(-A - d) for z ~ N(0, 1), and
    F'(d) = 2 phi(A) e^{-d^2/2} cosh(A d). A short root, where
    q = p / (2 phi(A)) <= 1/2 and A q <= 1/2 for p = -expm1(x), is taken from
    the reversion of the Hermite series of F (:func:`_short_root`); every
    other root is solved on log F or log(1 - F) (:func:`_long_root`). Every element stops on its own
    convergence test, so no result depends on its batch-mates.
    """
    p = -np.expm1(x)
    with np.errstate(over="ignore", invalid="ignore"):  # A = inf or A^2 past the float range
        two_phi = math.sqrt(2.0 / math.pi) * np.exp(-0.5 * A * A)  # at A's own shape
        # q keeps its relative precision where 2 phi(A) is a normal float
        normal = two_phi >= np.finfo(float).tiny
        short = normal & (p <= 0.5 * two_phi) & (A * p <= 0.5 * two_phi)
    # q = 0, a root of 0, holds the place of each long root, and A = 0 that of an A
    # whose roots are all long
    q = np.divide(p, two_phi, out=np.zeros(short.shape), where=short)
    d = _short_root(q, np.where(normal, A, 0.0))
    if not short.all():
        long = ~short
        d[long] = _long_root(np.broadcast_to(x, d.shape)[long], np.broadcast_to(A, d.shape)[long])
    return d


def _short_root(q: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Solve G(d) = q where F(d) = 2 phi(A) G(d), with q <= 1/2 and A q <= 1/2.

    By the Hermite generating function (Abramowitz and Stegun 22.9.17),
    G(d) = int_0^d e^{-t^2/2} cosh(A t) dt = d sum_m c_m d^{2m}, with
    c_m = He_2m(A) / (2m+1)! from He_{n+2} = (A^2 - 2n - 1) He_n - n (n - 1)
    He_{n-2} (He_{n+1} = A He_n - n He_{n-1} taken twice), and
    G'(d) = e^{-d^2/2} cosh(A d). Its reversion is
    d = q (1 + sum_j b_j(A^2) q^{2j}), b_1 = -c_1, b_2 = 3 c_1^2 - c_2, ...
    (``_REVERSION``), and |b_j(A^2) q^{2j}| <= B_j r^j with r = q^2 max(1, A^2)
    <= 1/4 and B_j the sum of b_j's absolute coefficients. Every element
    takes the 8 terms b_1 .. b_8, whose first omitted one is below 2^-55 of
    the root up to r = _REVERSION_CUT; elements past that cut are solved by
    Newton's method on the terms of G to He_16 (at most 3e-15 of the root
    here, d <= 0.523 and A d <= 0.55), from the series less 4 B_9 r^9, a
    bound on the omitted terms, so from below. A step of relative size s
    leaves an error below 0.15 s^2, so an element stops after a step below
    1e-8 of its root. Each element's root depends on its own (q, A) only.
    """
    w = A * A
    Q = q * q
    b = np.zeros(w.shape + (len(_REVERSION) - 1,))  # b[..., j - 1] = b_j(w), by Horner's rule in w
    for coef in _REVERSION_COEF[::-1]:
        b *= w[..., None]
        b += coef
    d = np.zeros(np.broadcast_shapes(Q.shape, w.shape))  # d / q - 1, by Horner's rule in Q
    for j in range(len(_REVERSION) - 2, -1, -1):
        d += b[..., j]
        d *= Q
    d += 1.0
    d *= q
    r = Q * np.maximum(w, 1.0)
    past = r > _REVERSION_CUT
    if past.any():
        qp, Ap, rp = np.broadcast_to(q, d.shape)[past], np.broadcast_to(A, d.shape)[past], r[past]
        d[past] = _newton_short_root(qp, Ap, d[past] - 4.0 * qp * _REVERSION_BOUND[-1] * rp ** len(_REVERSION))
    return d


def _newton_short_root(q: np.ndarray, A: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Newton's method on G(d) = q from d, elementwise, on G's terms to He_16."""
    w = A * A
    c = np.empty((_SERIES_TERMS,) + w.shape)
    c[0], c[1] = 1.0, (w - 1.0) / 6.0
    for m in range(1, _SERIES_TERMS - 1):
        c[m + 1] = (w - (4 * m + 1)) * c[m] - (2 * m - 1) / (2 * m + 1) * c[m - 1]
        c[m + 1] /= (2 * m + 2) * (2 * m + 3)
    moving = q > 0
    for _ in range(_NEWTON_STEPS):
        if not moving.any():
            break
        v = d * d
        G = c[-1] * v  # G(d) = d sum_m c_m v^m, by Horner's rule in place
        for c_m in c[-2:0:-1]:
            G += c_m
            G *= v
        G += c[0]
        G *= d
        step = (q - G) / (np.exp(-0.5 * v) * np.cosh(A * d))
        d = np.where(moving, d + step, d)
        moving &= np.abs(step) > 1e-8 * d
    return d


def _long_root(x: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Solve F(d) = -expm1(x) on log F or log(1 - F).

    Both terms of F are lower tails, so their difference keeps its relative
    precision at large A. Newton's method starts from the larger of two lower
    bounds on the root. Targets p = -expm1(x) <= 1/2 are solved on log F,
    which is concave (Prekopa), so the iterates rise monotonically onto the
    root; targets above 1/2 on log(1 - F) = x, which is exact near p = 1.
    Roots below 1e-5 are taken from the sinh bound, which is exact there to
    O(d^2).
    """
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
    d = np.maximum(normal_bound, sinh_bound)  # 0 where p = 0
    target = np.where(upper, x, log_p)
    del p, log_p, log_4pq, t, normal_bound, log_sinh, sinh_bound  # not held through the loop
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
    return d


def _best_of_k_cells(rngs, m, s, mu_T, mu_R, cell_k, n_inner: int) -> np.ndarray:
    """Inner-averaged T = 0 losses for every k cell at a batch of test points.

    ``rngs`` yields one generator per test point, each drawn from once
    before the next is taken; the other arguments are per-point arrays.
    Sorted distinct k values split the candidates into disjoint blocks of
    k_j - k_{j-1}; each block draws, per inner batch, one uniform for its
    winner's distance and one for the winner's side of a, block after block
    in one call per point. The block winners are the candidates of one
    :func:`select_prefixes` call at T = 0, whose prefix j selects among the
    first j + 1 blocks. Each point's row depends only on its own generator.
    """
    ks, cell_of = np.unique(np.asarray(cell_k, dtype=int), return_inverse=True)
    positive = s > 0
    a = np.divide(mu_R - m, s, out=np.zeros_like(s), where=positive)[:, None]
    # the winner y = m + s (a +- d) has y - mu_T = (mu_R - mu_T) +- s d
    gap = np.where(positive, mu_R - mu_T, m - mu_T)[:, None]
    s = s[:, None]
    # each block's uniforms give way to its winners' distances (their penalties) and losses
    U = np.empty((len(s), len(ks), 2, n_inner))
    for rng, u in zip(rngs, U):
        rng.random(out=u)
    for j, block in enumerate(np.diff(ks, prepend=0)):
        d = _winner_distance(np.log1p(-U[:, j, 0]) / block, np.abs(a))
        # P(winner at a + d) = phi(a + d) / (phi(a + d) + phi(a - d))
        offset = np.where(U[:, j, 1] < expit(-2.0 * a * d), s * d, -s * d)
        U[:, j, 0], U[:, j, 1] = d, (gap + offset) ** 2
    D, loss = U[:, :, 0].swapaxes(0, 1), U[:, :, 1].swapaxes(0, 1)
    return select_prefixes(D, loss, np.arange(1, len(ks) + 1), 0.0)[:, cell_of] / n_inner


@dataclass(frozen=True)
class _Context:
    """Per-dataset predictive scalars and inference keys at the sampled test points."""

    dataset_index: int
    keys: np.ndarray  # (test points, 4): each point's inference generator (rngstreams.keyed)
    m: np.ndarray
    s: np.ndarray
    mu_T: np.ndarray
    mu_R: np.ndarray  # (test points, reward targets)


def _prepare_contexts(config, rewards, mode, seed, n_outer, n_datasets):
    """Check a run and make what its datasets share; returns one context maker per dataset.

    Maker j draws dataset j's test points (in exact mode also its training
    set and posterior) and returns its :class:`_Context`. Each maker reads
    only its own streams, so the makers may run in any order and thread.
    """
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

    def context(j):
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
        s = np.sqrt(s2)
        mu_R = np.stack([X @ w_R / sqrt_d for w_R in W_R_j], axis=1)
        # the reward's offset in predictive standard deviations; s = 0 points have none
        offset = np.abs(mu_R - m[:, None]) / np.where(s > 0, s, np.inf)[:, None]
        if np.any(offset > _MAX_REWARD_OFFSET):
            raise ValueError(
                f"the reward target lies up to {np.nanmax(offset):.3g} predictive standard deviations "
                "from the predictive mean, past 2^32: rounding in y - mu_R would wipe out the draws"
            )
        return _Context(
            dataset_index=j,
            keys=stream_keys(seed, "inference", j, count=n_outer),
            m=m,
            s=s,
            mu_T=X @ w_T_j / sqrt_d,
            mu_R=mu_R,
        )

    return [partial(context, j) for j in range(n_datasets)]


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
    # values per point of a batch: the T = 0 sampler's draws and root solve (at most 34
    # arrays, on the log branch) and 2 block arrays per cell, each of n_inner values, and
    # the softmax pass's workspace; a batch holds at most _SCAN_ELEMS of them, or one point's
    per_point = (34 + 2 * shape[1]) * n_inner if t0_targets else 0
    if kmax:
        plan, cell_of = _plan_shared(cell_k[shared], cell_T[shared], shared_r)
        layout = _scan_layout(plan, n_inner, kmax)
        per_point += sum(layout[2].values())
    batch = max(1, _SCAN_ELEMS // per_point)

    makers = _prepare_contexts(config, rewards, mode, seed, n_outer, n_datasets)
    n_rows = len(makers) * n_outer
    # points per work unit: at least _BLOCK, else at most a batch, and few enough that each
    # thread gets several units
    unit = max(_BLOCK, min(batch, -(-n_rows // (_UNITS_PER_THREAD * threads))))
    per_x = np.empty((n_rows, len(cell_k)))
    local = threading.local()  # one workspace per thread, reused by all its blocks

    def run_block(ctx: _Context, start: int, stop: int):
        base = ctx.dataset_index * n_outer
        if kmax and not hasattr(local, "work"):
            points = min(batch, unit, n_outer)
            local.work = {name: np.empty(points * size) for name, size in layout[2].items()}
        for lo in range(start, stop, batch):
            hi = min(lo + batch, stop)
            for r in t0_targets:
                cells = cell_r == r
                per_x[base + lo : base + hi, cells] = _best_of_k_cells(
                    map(keyed, ctx.keys[lo:hi]), ctx.m[lo:hi], ctx.s[lo:hi], ctx.mu_T[lo:hi],
                    ctx.mu_R[lo:hi, r], cell_k[cells], n_inner,
                )
            if kmax:
                values = _softmax_cells(
                    [keyed(key) for key in ctx.keys[lo:hi]], ctx.m[lo:hi], ctx.s[lo:hi], ctx.mu_T[lo:hi],
                    ctx.mu_R[lo:hi][:, shared_targets], plan, n_inner, kmax, layout, local.work,
                )
                per_x[base + lo : base + hi, shared] = values[:, cell_of]

    blocks = [
        (j, start, min(start + unit, n_outer))
        for j in range(len(makers))
        for start in range(0, n_outer, unit)
    ]
    if threads > 1:
        # errstate is per thread: a pool worker enters its own, for a fit as for a block
        in_errstate = np.errstate(over="ignore", invalid="ignore")
        with ThreadPoolExecutor(max_workers=threads) as pool:
            # every fit is queued ahead of every block, so a block waits only on a fit under way
            contexts = [pool.submit(in_errstate(make)) for make in makers]
            run = in_errstate(lambda j, start, stop: run_block(contexts[j].result(), start, stop))
            list(pool.map(lambda b: run(*b), blocks))
    else:
        contexts = [make() for make in makers]
        for j, start, stop in blocks:
            run_block(contexts[j], start, stop)

    mean = per_x.mean(axis=0)
    if not np.isfinite(mean).all():  # a non-finite per-point value, or their sum
        raise ValueError(f"the squared losses leave the float range at sigma = {config.sigma:g}, gamma = {config.gamma:g}")
    return (per_x.reshape(n_rows, *shape), mean.reshape(shape),
            _stderr(per_x).reshape(shape), {"n_datasets": len(makers)})


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
