"""Reward-weighted selection among inference-time candidates.

Each of k candidates y_i drawn from the predictive is scored with the
quadratic reward r(y) = -(y - mu_R)^2, and one is selected from the softmax
Categorical(q), q_i proportional to exp(r_i / T). :func:`select` returns the
expectation of a value over that draw, not a draw: the q-weighted mean of the
candidates' values, which has the same expectation as the sampled index and
strictly lower variance. T = 0 is an exact argmax branch (best-of-k), never a
tiny-T limit, to avoid overflow; ties at T = 0 break to the lowest index.
"""

import numpy as np


def quadratic_reward(y, mu_R):
    """Reward -(y - mu_R)^2; maximal (zero) when y hits the reward target."""
    diff = np.asarray(y, dtype=float) - mu_R
    return -(diff * diff)


def select(values: np.ndarray, rewards: np.ndarray, T: float) -> np.ndarray:
    """Reward-weighted selection of ``values`` along the last axis.

    T = 0 returns the value at the first maximal reward; T > 0 returns the
    softmax(rewards / T)-weighted mean of the values. Rewards must be finite
    or -inf, with at least one finite reward per selection.
    """
    if T == 0:
        best = np.argmax(rewards, axis=-1)[..., None]
        return np.take_along_axis(values, best, axis=-1)[..., 0]
    w = rewards - rewards.max(axis=-1, keepdims=True)
    w /= T
    np.exp(w, out=w)
    # sum/sum returns constant values exactly (all-correct is exactly 1.0)
    return (w * values).sum(axis=-1) / w.sum(axis=-1)
