"""The one selection kernel: reward-weighted selection among inference-time candidates.

A candidate carries a penalty p = -reward (the Monte Carlo estimator's
(y - mu_R)^2, or a judge reward negated or ranked) and a loss, and one
candidate is selected from the softmax Categorical(q), q_i proportional to
exp(-p_i / T). The kernel returns the expectation of the loss over that
draw, not a draw, which has the same mean and strictly lower variance. T = 0
is an exact argmin branch (best-of-k), never a tiny-T limit, and its ties
break to the lowest column.
"""

import numpy as np


def select_prefixes(P, L, ks, T) -> np.ndarray:
    """Row sums of the selected loss over the first k columns, for every k in ks.

    ``P`` holds the penalties as (columns, ..., rows), ``L`` the losses,
    broadcastable to P, and the sorted distinct ``ks`` cut the columns into
    segments. Returns (..., len(ks)). At T = 0 each segment reduces to its
    first argmin, and the running best passes to a segment only where its
    penalty is strictly lower, so ties keep the earlier column. At T > 0, P
    is overwritten with the weights: a column of segment j weighs
    w = exp((M_j - P) / T) <= 1, with M_j the minimum penalty of the first
    ks[j] columns, and one pass merges the segments' sums in order with the
    online-softmax rescale (Milakov and Gimelshein 2018): the sums so far
    shrink by exp((M_j - M_{j-1}) / T) <= 1 and segment j's add on. The
    minimising column keeps a weight of exactly 1, so the denominator never
    underflows, at any T.
    """
    spans = list(zip([0] + ks[:-1].tolist(), ks.tolist()))
    sums = np.empty(P.shape[1:-1] + (len(ks),))
    if T == 0:
        L = np.broadcast_to(L, P.shape)
        best_p, best_l = P[0], L[0]
        for j, (a, b) in enumerate(spans):
            seg_p = np.minimum.reduce(P[a:b], axis=0)  # argmin along axis 0 would copy the segment
            seg_l = np.take_along_axis(L[a:b], (P[a:b] == seg_p).argmax(axis=0)[None], 0)[0]
            lower = seg_p < best_p
            best_p, best_l = np.where(lower, seg_p, best_p), np.where(lower, seg_l, best_l)
            sums[..., j] = best_l.sum(axis=-1)
        return sums
    top = np.empty((len(ks),) + P.shape[1:])
    den = np.empty_like(top)
    W = P  # each segment's penalties are read before they turn into weights
    for j, (a, b) in enumerate(spans):
        np.minimum.reduce(P[a:b], axis=0, out=top[j])
        if j:
            np.minimum(top[j], top[j - 1], out=top[j])
        np.subtract(top[j], P[a:b], out=W[a:b])
    with np.errstate(over="ignore"):  # -inf at tiny T: a weight of exactly 0
        W /= T
        shrink = np.exp(np.diff(top, axis=0) / T)
    np.exp(W, out=W)
    for j, (a, b) in enumerate(spans):
        np.add.reduce(W[a:b], axis=0, out=den[j])
    W *= L
    for j, (a, b) in enumerate(spans):
        seg_num = np.add.reduce(W[a:b], axis=0)
        if j:
            d = d * shrink[j - 1] + den[j]
            n = n * shrink[j - 1] + seg_num
        else:
            d, n = den[0], seg_num
        sums[..., j] = (n / d).sum(axis=-1)
    return sums
