"""The one selection kernel: reward-weighted selection among inference-time candidates.

A candidate carries a penalty p = -reward (the Monte Carlo estimator's
(y - mu_R)^2, or a judge reward negated or ranked) and a loss, and one
candidate is selected from the softmax Categorical(q), q_i proportional to
exp(-p_i / T). The kernel returns the expectation of the loss over that
draw, not a draw, which has the same mean and strictly lower variance. T = 0
is an exact argmin branch (best-of-k), never a tiny-T limit, and its ties
break to the lowest column. The T > 0 branch makes one numpy call per run
of equal-width segments for each reduction, runs the passes that do not
depend on T once for a whole sequence of temperatures, and writes into the
caller's scratch buffer when given one, so a caller that selects batch after
batch allocates nothing large.
"""

import numpy as np


def select_prefixes(P, L, ks, T, *, scratch=None) -> np.ndarray:
    """Row sums of the selected loss over the first k columns, for every k in ks.

    ``P`` holds the penalties as (ks[-1] columns, ..., rows), ``L`` the
    losses, broadcastable to P, and the sorted distinct ``ks`` cut the
    columns into segments. ``T`` is one temperature, for (..., len(ks)), or a
    1-D sequence of positive ones, for (len(T), ..., len(ks)), each row as a
    call at that T alone gives it. At T = 0 each segment reduces to its first
    argmin, and the running best passes to a segment only where its penalty
    is strictly lower, so ties keep the earlier column. At T > 0, P is
    overwritten with the last temperature's weighted losses: a column of
    segment j weighs w = exp((M_j - P) / T) <= 1, with M_j the minimum
    penalty of the first ks[j] columns, and one pass merges the segments'
    sums in order with the online-softmax rescale (Milakov and Gimelshein
    2018): the sums so far shrink by exp((M_j - M_{j-1}) / T) <= 1 and
    segment j's add on. The minimising column keeps a weight of exactly 1, so
    the denominator never underflows, at any T. The minima, M_j - P and the steps M_j - M_{j-1} do
    not depend on T, so a sequence makes them once, and each temperature but
    the last weighs in a buffer of its own. Each run of equal-width segments
    is reduced as one (segments, width, ...) view, whose sums add the
    columns in the same order as one segment at a time.

    ``scratch``, a flat float64 array of at least ``scratch_per_element(len(ks),
    ks[-1], len(T))`` P[0].size values, holds the T > 0 branch's statistics: the minima, then each segment's
    denominator and numerator side by side as (len(ks), 2, ...), so one
    multiply and one add merge both, the rescale factors, then the steps and
    the weights; without it they are allocated.
    """
    spans = list(zip([0] + ks[:-1].tolist(), ks.tolist()))
    scalar = np.ndim(T) == 0
    if scalar and T == 0:
        sums = np.empty(P.shape[1:-1] + (len(ks),))
        L = np.broadcast_to(L, P.shape)
        best_p, best_l = P[0], L[0]
        for j, (a, b) in enumerate(spans):
            if b - a == 1:  # one column, as each block winner of the T = 0 sampler: nothing to search
                seg_p, seg_l = P[a], L[a]
            else:
                seg_p = np.minimum.reduce(P[a:b], axis=0)  # argmin along axis 0 would copy the segment
                seg_l = np.take_along_axis(L[a:b], (P[a:b] == seg_p).argmax(axis=0)[None], 0)[0]
            lower = seg_p < best_p
            best_p, best_l = np.where(lower, seg_p, best_p), np.where(lower, seg_l, best_l)
            sums[..., j] = best_l.sum(axis=-1)
        return sums
    temps = [T] if scalar else np.ravel(T).tolist()
    if not (scalar or np.ndim(T) == 1) or not all(temp > 0 for temp in temps):
        raise ValueError(f"T must be one temperature >= 0 or a 1-D sequence of temperatures > 0, got {T}")
    J, shape, N = len(ks), P.shape[1:], P[0].size
    size = scratch_per_element(J, len(P), len(temps)) * N
    stats = np.empty(size) if scratch is None else scratch[:size]
    top = stats[: J * N].reshape((J,) + shape)
    den_num = stats[J * N : 3 * J * N].reshape((J, 2) + shape)  # [j] holds (denominator, numerator)
    den, num = den_num[:, 0], den_num[:, 1]
    shrink = stats[3 * J * N : (4 * J - 1) * N].reshape((J - 1,) + shape)
    steps = shrink if len(temps) == 1 else stats[(4 * J - 1) * N : (5 * J - 2) * N].reshape(shrink.shape)
    cuts = _runs(spans)

    def runs(A):  # each run of equal-width segments as one (segments, width, ...) view of A
        return [(slice(j, j + n), A[a : a + n * w].reshape((n, w) + shape)) for j, n, a, w in cuts]

    blocks = runs(P)
    for seg, block in blocks:
        np.minimum.reduce(block, axis=1, out=top[seg])
    for j in range(1, J):  # a running minimum; np.minimum.accumulate is several times slower
        np.minimum(top[j], top[j - 1], out=top[j])
    for seg, block in blocks:  # each segment's penalties are read before they turn into M_j - P
        np.subtract(top[seg, None], block, out=block)
    # every temperature but the last weighs in a buffer of its own, the last in P
    weights = stats[(5 * J - 2) * N :].reshape(P.shape) if len(temps) > 1 else P
    weight_blocks = runs(weights) if len(temps) > 1 else blocks
    rescaled = top[:2]  # the minima are spent; the merge runs only where J >= 2
    sums = np.empty((len(temps),) + P.shape[1:-1] + (J,))
    for t, temp in enumerate(temps):
        W, W_blocks = (P, blocks) if t == len(temps) - 1 else (weights, weight_blocks)
        with np.errstate(over="ignore"):  # -inf at tiny T: a weight of exactly 0
            if t == 0:  # the steps M_j - M_{j-1}, which do not depend on T
                np.subtract(top[1:], top[:-1], out=steps)
            np.divide(P, temp, out=W)
            np.divide(steps, temp, out=shrink)
        np.exp(W, out=W)
        np.exp(shrink, out=shrink)
        for seg, block in W_blocks:
            np.add.reduce(block, axis=1, out=den[seg])
        W *= L
        for seg, block in W_blocks:
            np.add.reduce(block, axis=1, out=num[seg])
        for j in range(1, J):  # the merge, in segment order
            den_num[j] += np.multiply(den_num[j - 1], shrink[j - 1], out=rescaled)
        np.sum(np.divide(num, den, out=num), axis=-1, out=np.moveaxis(sums[t], -1, 0))
    return sums[0] if scalar else sums


def scratch_per_element(n_ks: int, kmax: int, n_temps: int) -> int:
    """Values of ``select_prefixes``' scratch per element of P[0], for n_ks k values up to kmax."""
    return 4 * n_ks - 1 + (n_ks - 1 + kmax if n_temps > 1 else 0)


def _runs(spans):
    """The runs of equal-width segments: (first segment, segments, first column, width)."""
    runs = []
    for j, (a, b) in enumerate(spans):
        if runs and runs[-1][3] == b - a:
            runs[-1][1] += 1
        else:
            runs.append([j, 1, a, b - a])
    return runs
