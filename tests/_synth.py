"""Synthetic data and oracles shared by the tests: judge records, the
per-line ``json.loads`` record loader, the i.i.d. training-set reference,
the Cholesky route to the exact posterior, a brute-force selection and the
per-point Monte Carlo estimator."""

import json
import math
from pathlib import Path

import numpy as np

from itslab import Dataset, JudgeRecordError
from itslab.judge import _grouped


def select(values, rewards, T):
    """Brute-force reward-weighted selection along the last axis, one selection per row.

    The independent oracle of ``itslab.sampling.select_prefixes``: T = 0
    returns the value at the first maximal reward, T > 0 the
    softmax(rewards / T)-weighted mean of the values.
    """
    if T == 0:
        best = np.argmax(rewards, axis=-1)[..., None]
        return np.take_along_axis(values, best, axis=-1)[..., 0]
    with np.errstate(over="ignore"):  # -inf at tiny T: a weight of exactly 0
        w = np.exp((rewards - rewards.max(axis=-1, keepdims=True)) / T)
    return (w * values).sum(axis=-1) / w.sum(axis=-1)


def iid_dataset(config, w_T, rng):
    """The full n x d training set, the reference that generate_dataset must match in law.

    x^i ~ N(0, S^2 I) and y^i = w_T . x^i / sqrt(d) + eta^i with
    eta^i ~ N(0, sigma^2). n = 0 yields an empty dataset.
    """
    X = rng.normal(0.0, config.S, size=(config.n, config.d))
    eta = rng.normal(0.0, config.sigma, size=config.n) if config.sigma > 0 else np.zeros(config.n)
    y = X @ w_T / math.sqrt(config.d) + eta
    return Dataset(inputs=X, labels=y)


def cholesky_posterior(data, config):
    """The exact posterior (mu, Omega) in input coordinates, through scipy's Cholesky factor.

    The independent oracle of ``itslab.posterior.fit_posterior``: it factors
    the same symmetrized precision and solves for mu and Omega with
    ``cho_solve``.
    """
    from scipy.linalg import cho_factor, cho_solve

    Xs = data.inputs / math.sqrt(config.d)
    inv_s2 = (1.0 / config.sigma) * (1.0 / config.sigma)
    prec = Xs.T @ Xs * inv_s2 + np.eye(config.d) * ((1.0 / config.gamma) * (1.0 / config.gamma))
    prec = 0.5 * (prec + prec.T)
    factor = cho_factor(prec, lower=True)
    return cho_solve(factor, Xs.T @ data.labels) * inv_s2, cho_solve(factor, np.eye(config.d)), prec


def cholesky_moments(mu, omega, sigma, X):
    """Predictive (means, variances) at rows of X in input coordinates, O(d^2) per point."""
    Xs = np.asarray(X, dtype=float) / math.sqrt(mu.shape[0])
    return Xs @ mu, np.einsum("ij,ij->i", Xs @ omega, Xs) + sigma**2


def input_coordinates(post):
    """A posterior's mean vector and covariance matrix in input coordinates."""
    return post.basis @ post.mean, (post.basis * post.var) @ post.basis.T


def delta_x(m, s2, mu_T, mu_R, k, T, n_inner, rng):
    """delta(x) from n_inner independent batches of k draws from N(m, s2), selected at T.

    The oracle of the sweep engine: every batch is drawn and selected in
    full, through :func:`select`. Returns (mean, stderr), the stderr
    over the per-batch weighted losses.
    """
    if n_inner < 1:
        raise ValueError(f"n_inner must be >= 1, got {n_inner}")
    s = math.sqrt(s2)
    values = np.empty(n_inner)
    rows_per_chunk = max(1, (1 << 23) // k)  # at most 2^23 draws held at once
    for done in range(0, n_inner, rows_per_chunk):
        Y = m + s * rng.standard_normal((min(rows_per_chunk, n_inner - done), k))
        values[done : done + len(Y)] = select((Y - mu_T) ** 2, -((Y - mu_R) ** 2), T)
    stderr = values.std(ddof=1) / math.sqrt(n_inner) if n_inner > 1 else math.inf
    return float(values.mean()), float(stderr)


def load_records_per_line(path):
    """``itslab.load_records`` with one ``json.loads`` call per line: the loader's oracle.

    It holds one parsed record at a time, as the loader must, and shares
    ``_grouped``, the column checks after the parse. A string reward is
    not a number. Each id is checked at its line: a string or an integer
    (not a boolean), an integer being its decimal text.
    """
    unparsed = object()
    qids, sids, rewards, correct, blanks = [], [], [], [], []
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, start=1):
            obj = unparsed
            try:
                obj = json.loads(line)
                qid, sid, reward, flag = obj["question_id"], obj["sample_id"], obj["reward"], obj["correct"]
                if isinstance(reward, str):
                    raise TypeError("a string reward")
                rewards.append(float(reward))
            except OverflowError:
                rewards.append(math.inf)
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
                if not line.strip():
                    blanks.append(len(qids))
                    continue
                _grouped(path, blanks, qids, sids, rewards, correct)
                if obj is unparsed:
                    fault = f"invalid JSON ({getattr(exc, 'msg', exc)})"
                elif isinstance(exc, KeyError):
                    fault = f"missing field {exc.args[0]!r}"
                else:
                    fault = "reward is not a number" if isinstance(obj, dict) else "expected a JSON object"
                raise JudgeRecordError(f"{path}:{lineno}: {fault}") from exc
            for name, value in (("question_id", qid), ("sample_id", sid)):
                if isinstance(value, bool) or not isinstance(value, (str, int)):
                    _grouped(path, blanks, qids, sids, rewards[:-1], correct)
                    raise JudgeRecordError(f"{path}:{lineno}: {name} must be a string or an integer")
            qids.append(str(qid))
            sids.append(str(sid))
            correct.append(flag)
    if not qids:
        raise JudgeRecordError(f"{path}: no records")
    return _grouped(path, blanks, qids, sids, rewards, correct)


def write_records(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path


def record_rows(questions):
    """questions: dict qid -> list of (reward, correct)."""
    rows = []
    for qid, samples in questions.items():
        for i, (reward, correct) in enumerate(samples):
            rows.append(
                {
                    "question_id": qid,
                    "sample_id": f"s{i:03d}",
                    "reward": float(reward),
                    "correct": int(correct),
                }
            )
    return rows


def trap_judge_questions(
    rng,
    n_questions=400,
    n_samples=64,
    p_correct=0.5,
    reward_noise=0.2,
    trap_rate=0.2,
    trap_reward=2.5,
):
    """Misspecified judge: rewards track correctness except for a trap tail.

    Correct samples score ~N(1, noise); wrong ones ~N(0, noise) except that a
    fraction ``trap_rate`` of them score ~N(trap_reward, noise) -- beyond
    that threshold the reward is anti-correlated with correctness. Aggressive
    selection (low T, large k) is eventually dominated by traps, which is
    what produces interior optima in both k and T.
    """
    questions = {}
    for q in range(n_questions):
        correct = (rng.random(n_samples) < p_correct).astype(int)
        reward = rng.normal(0.0, reward_noise, size=n_samples)
        reward[correct == 1] += 1.0
        trap = (correct == 0) & (rng.random(n_samples) < trap_rate)
        reward[trap] += trap_reward
        questions[f"q{q:04d}"] = list(zip(reward, correct))
    return questions


def noisy_judge_questions(rng, n_questions=2000, n_samples=3, eps=0.4, p_correct=0.5):
    """Well-specified judge: reward = correctness + N(0, eps)."""
    questions = {}
    patterns = {}
    for q in range(n_questions):
        correct = (rng.random(n_samples) < p_correct).astype(int)
        reward = correct + rng.normal(0.0, eps, size=n_samples)
        qid = f"q{q:04d}"
        questions[qid] = list(zip(reward, correct))
        patterns[qid] = correct
    return questions, patterns


def argmax_correct_probability(pattern, eps, n_grid=4001, span=8.0):
    """P(argmax of correctness + N(0, eps) noise lands on a correct sample.

    1-d quadrature: P = sum_{i correct} E_z[ prod_{j != i} Phi(z + (v_i - v_j)/eps) ].
    """
    from scipy.stats import norm

    v = np.asarray(pattern, dtype=float)
    z = np.linspace(-span, span, n_grid)
    phi = norm.pdf(z)
    total = 0.0
    for i in range(len(v)):
        if v[i] != 1:
            continue
        integrand = phi.copy()
        for j in range(len(v)):
            if j == i:
                continue
            integrand *= norm.cdf(z + (v[i] - v[j]) / eps)
        total += np.trapezoid(integrand, z)
    return float(total)
