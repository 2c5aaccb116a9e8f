"""Synthetic data and oracles shared by the tests: judge records, the
per-line ``json.loads`` record loader, the i.i.d. training-set reference,
the Cholesky route to the exact posterior, a brute-force selection, the
segment-at-a-time softmax prefix kernel, the per-point Monte Carlo
estimator, the exact law of the minimum of k chi-squares, the bisection
route to the renormalized ridge of Cov = S^2 I, and the mpmath routes to
the ridge, its derivative in alpha and the closed forms built on it."""

import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
from hypothesis import strategies as st

from itslab import Dataset, JudgeRecordError, de_moments_batch
from itslab.judge import _grouped
from itslab.theory import _series


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


def segmentwise_prefixes(P, L, ks, T):
    """The T > 0 branch of ``itslab.sampling.select_prefixes`` one segment at a time.

    The kernel's oracle to the bit, with its call signature: every reduction,
    frame subtraction and merge step is made per segment, on freshly
    allocated statistics, in the order the segments come. T must be > 0.
    """
    spans = list(zip([0] + ks[:-1].tolist(), ks.tolist()))
    sums = np.empty(P.shape[1:-1] + (len(ks),))
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


def bisect_ridge(alpha, S2, R_hat):
    """The renormalized ridge g(R) = R_hat > 0 for Cov = S^2 I by bisection to float resolution.

    The independent route to ``itslab.ridge.solve_ridge``'s closed form. It
    tests g(R)/R < R_hat/R, with g(R)/R = 1 - alpha a taken as (1 - alpha) +
    alpha b at alpha <= 1 and as b - (alpha - 1) a above, b = 1/(1 + S^2/R)
    and a = S^2/(S^2 + R), so that no term cancels; its bracket starts at
    [R_hat, 2 R_hat] and doubles its upper end until g reaches R_hat, past
    the float range if need be (then R is inf). Where S^2/R overflows, g
    rounds to 0 below the root and the bracket closes above it. The root
    itself is checked against mpmath (``mp_ridge``).
    """
    def below(R):
        b = 1.0 / (1.0 + S2 / R)
        g_over_R = (1.0 - alpha) + alpha * b if alpha <= 1.0 else b - (alpha - 1.0) * (S2 / (S2 + R))
        return g_over_R < R_hat / R

    lo, hi = R_hat, 2.0 * R_hat
    while below(hi):
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _decades(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


# the ridge oracles' range: alpha over nine decades, at 1 and 1e-6 to 0.1 off it, tiny sigma, huge
# gamma, and S^2 over six decades
MP_CONFIGS = dict(
    alpha=st.one_of(_decades(-6, 3), st.just(1.0), st.floats(-6, -1).flatmap(
        lambda e: st.sampled_from([1.0 - 10.0**e, 1.0 + 10.0**e]))),
    sigma=_decades(-150, 1), gamma=_decades(-3, 150), S2=_decades(-3, 3))


def assert_close(value, ref, rel=1e-12, atol=0.0):
    """|value - ref| <= rel |ref| + atol, give or take the smallest normal float, below which fewer digits exist."""
    assert abs(value - ref) <= rel * abs(ref) + atol + 2.0**-1022, (value, ref)


def mp_ridge(alpha, S2, R_hat, start):
    """The root of g(R) = R_hat for Cov = S^2 I in mpmath at its working precision, with a, b and g' there.

    The independent oracle of ``itslab.ridge.solve_ridge``: g(R) = R ((1 -
    alpha) + alpha R/(S^2 + R)) is evaluated in mpmath, Newton runs from
    ``start`` (the float root), and the root is proved by the sign change of
    g - R_hat across R (1 -+ 10^(10 - dps)), as g rises through R_hat only
    once. g'(R) = 1 - alpha a^2 is taken as (1 - alpha) + alpha b (1 + a),
    which at 50 digits loses at most log10(alpha/g') of them. Returns (R,
    a, b, slope) as mpf.
    """
    alpha, R_hat, S2 = mp.mpf(alpha), mp.mpf(R_hat), mp.mpf(S2)

    def g(R):
        return R * ((1 - alpha) + alpha * R / (S2 + R)) - R_hat

    R = mp.mpf(0)
    if R_hat > 0:
        R = mp.mpf(start)
        for _ in range(100):
            step = g(R) / ((1 - alpha) + alpha * R * (2 * S2 + R) / (S2 + R) ** 2)
            R -= step
            if abs(step) <= R * mp.mpf(10) ** (5 - mp.mp.dps):
                break
        eps = mp.mpf(10) ** (10 - mp.mp.dps)
        assert g(R * (1 - eps)) < 0 < g(R * (1 + eps)), "Newton did not close on the root"
    a, b = S2 / (S2 + R), R / (S2 + R)
    return R, a, b, (1 - alpha) + alpha * b * (1 + a)


def mp_dlogn(alpha, S2, R_hat, sigma, w, start):
    """d log delta / d log n of the refined best-of-k law, by central difference in mpmath.

    The independent oracle of ``itslab.theory.scaling_derivatives``' dlogn =
    -alpha F'(alpha) / (sigma^2 d - 2 F), F = S^2 sum (b w)^2: F' is the
    central difference of two ``mp_ridge`` solves at alpha (1 +- h), with
    R_hat (1 +- h), as R_hat is proportional to alpha; ``start`` is the float
    root. d log R / d log alpha is at most s = 1 + S^2/R (near alpha = 1 and
    a tiny R_hat, R ~ sqrt(R_hat S^2) moves by S^2/2 per unit of alpha), so
    h = 1e-20/s and 50 + log10 s digits keep the difference's error below
    1e-25 relative. Returns dlogn and its denominator, as mpf.
    """
    s = 1 + S2 / mp.mpf(start) if start else 1  # R_hat = 0: R = 0 at every alpha
    with mp.workdps(50 + int(mp.log10(s)) + 1):
        alpha, R_hat, h = mp.mpf(alpha), mp.mpf(R_hat), mp.mpf("1e-20") / s
        w = [mp.mpf(x) for x in np.ravel(w).tolist()]

        def F(step):
            b = mp_ridge(alpha * (1 + step), S2, R_hat * (1 + step), start)[2]
            return S2 * mp.fsum((b * v) ** 2 for v in w)

        dF = (F(h) - F(-h)) / (2 * alpha * h)
        denom = mp.mpf(sigma) ** 2 * len(w) - 2 * F(0)
        return -alpha * dF / denom, denom


def mp_refined_best_of_k(S2, b, sigma, w, k):
    """``itslab.theory.refined_best_of_k_delta``'s concentration and value, in mpmath from the ridge's b (an mpf).

    The concentration is 2 S^2 sum (b w)^2 / (sigma^2 d) and the value (pi
    sigma^2/k^2) (1 - concentration)^(-1/2), None where the concentration
    is >= 1. Returns (value, concentration).
    """
    sigma2, w = mp.mpf(sigma) ** 2, [mp.mpf(x) for x in np.ravel(w).tolist()]
    conc = 2 * S2 * mp.fsum((b * v) ** 2 for v in w) / (sigma2 * len(w))
    return (mp.pi * sigma2 / k**2 / mp.sqrt(1 - conc) if conc < 1 else None), conc


def mp_radial_terms(S2, b, sigma, gamma, w_T, w_R, T):
    """``itslab.theory.SeriesTerms.averaged``'s terms, in mpmath from the ridge's b (an mpf).

    Over x ~ N(0, S^2 I), Dt = u.x/sqrt(d) and Dr = v.x/sqrt(d) with u = -b
    w_T and v = (1 - b) w_T - w_R, taken as (w_T - w_R) - b w_T because 1 - b
    at 50 digits drops the digits of a tiny b; E Dt^2, E Dt Dr and E Dr^2
    are S^2 u.u/d, S^2 u.v/d and S^2 v.v/d; s2 = sigma^2 + gamma^2 b S^2 and
    t = T/(2 s2). Returns (E Dt^2, E Dt Dr, E Dr^2, s2, t, (C_1, C_2, C_3)).
    """
    w_T, w_R = ([mp.mpf(x) for x in np.ravel(w).tolist()] for w in (w_T, w_R))
    u, v = [-b * x for x in w_T], [(x - y) - b * x for x, y in zip(w_T, w_R)]
    dt2, dtdr, dr2 = (S2 * mp.fsum(x * y for x, y in zip(p, q)) / len(u) for p, q in ((u, u), (u, v), (v, v)))
    s2 = mp.mpf(sigma) ** 2 + mp.mpf(gamma) ** 2 * b * S2
    c1 = 2 * dtdr + s2
    return dt2, dtdr, dr2, s2, T / (2 * s2), (c1, c1 + dr2, c1 + 2 * dr2)


def mp_optimal_temperature(dtdr, dr2, s2, k):
    """``itslab.theory.optimal_temperature``'s 2 s^2 . 2 (1 - 2/k) C_2/C_1 in mpmath, from its float terms.

    C_1 = 2 E Dt Dr + s^2 and C_2 = C_1 + E Dr^2. Returns (T, C_1, C_2), T
    None where C_1 or C_2 is <= 0.
    """
    dtdr, dr2, s2 = (mp.mpf(x) for x in (dtdr, dr2, s2))
    c1 = 2 * dtdr + s2
    c2 = c1 + dr2
    return (4 * s2 * (1 - mp.mpf(2) / k) * c2 / c1 if c1 > 0 and c2 > 0 else None), c1, c2


def mp_dlogn_flat_prior(S, sigma, gamma, n, w):
    """``itslab.theory.dlogn_flat_prior``'s q = (w.w) d sigma^2 / (S^2 n^2 gamma^4) and -2q/(1 - 2q), in mpmath.

    The float inputs are exact in mpmath, whose exponents do not overflow.
    """
    with mp.workdps(50):
        S, sigma, gamma, n = (mp.mpf(x) for x in (S, sigma, gamma, n))
        q = mp.fsum(mp.mpf(x) ** 2 for x in np.ravel(w).tolist()) * len(w) * sigma**2 / (S**2 * n**2 * gamma**4)
        return q, -2 * q / (1 - 2 * q)


def iid_dataset(config, w_T, rng):
    """The full n x d training set, the reference that generate_dataset must match in law.

    x^i ~ N(0, S^2 I) and y^i = w_T . x^i / sqrt(d) + eta^i with
    eta^i ~ N(0, sigma^2). n = 0 yields an empty dataset.
    """
    X = rng.normal(0.0, config.S, size=(config.n, config.d))
    eta = rng.normal(0.0, config.sigma, size=config.n) if config.sigma > 0 else np.zeros(config.n)
    y = X @ w_T / math.sqrt(config.d) + eta
    return Dataset(inputs=X, labels=y)


def x_statistics(X, w_T):
    """(u, r2) = (x.w_T/sqrt(d), |x|^2/d) at the rows of X: what the det_equiv moments read of x."""
    d = X.shape[1]
    return X @ w_T / math.sqrt(d), np.sum(X * X, axis=1) / d


def x_route_points(config, de, w_T, W_R, n, rng):
    """Per-point (m, s2, mu_T, mu_R, r2) of n det_equiv test points x ~ N(0, S^2 I), drawn in full.

    The X route, the oracle of the engine's points, which hold only their
    coordinates on a basis of the weights and |x|^2/d: X is drawn as an
    (n, d) matrix, and mu_R has one column per weight of ``W_R``.
    """
    X = rng.normal(0.0, config.S, size=(n, config.d))
    u, r2 = x_statistics(X, w_T)
    m, s2 = de_moments_batch(u, r2, de, config)
    return m, s2, u, np.stack([X @ w / math.sqrt(config.d) for w in W_R], axis=1), r2


def high_t_delta_batch(config, de, w_T, w_R, T, k, X):
    """The pointwise high-temperature series at the rows of X, whose mean is the numeric x-average.

    The reference of ``SeriesTerms.averaged``: each x has its own
    det_equiv moments, so s^2 varies in x here.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not T > 0:
        raise ValueError(f"the series requires T > 0, got {T}")
    u, r2 = x_statistics(X, w_T)
    m, s2 = de_moments_batch(u, r2, de, config)
    dT, dR = m - u, m - X @ w_R / math.sqrt(config.d)
    return _series(dT**2, dT * dR, dR**2, s2, T / (2.0 * s2), k)


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


def min_chisq1(lam, k, n, rng):
    """n exact draws of the minimum of k i.i.d. chi^2_1(lambda) variables, by inversion.

    The minimum of k draws with CDF G is G^{-1}(1 - (1 - U)^{1/k}) (Devroye,
    *Non-Uniform Random Variate Generation*, 1986, sec. 2.1). G^{-1} is
    2 erfinv(p)^2 at lambda = 0, which keeps its relative precision at small
    p, and scipy's ``chndtrix`` otherwise. It uses nothing of ``itslab``, so
    it stays independent of ``itslab.mc._winner_distance``, which solves the
    same CDF.
    """
    from scipy.special import chndtrix, erfinv

    p = -np.expm1(np.log1p(-rng.random(n)) / k)
    return 2.0 * erfinv(p) ** 2 if lam == 0 else chndtrix(p, 1, lam)


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
