"""Reward-weighted accuracy on externally supplied judge-scored records.

Records pair a per-sample scalar reward with a binary correctness flag,
grouped by question. For a subset of k samples the metric is

    delta = - E_question [ sum_i softmax(r_i / T)_i * correct_i ],

so delta lies in [-1, 0] and -delta is an expected accuracy. T = 0 selects
the argmax reward (ties to the lowest sample_id). Record files are fixed, so
the resampling over candidate sets that fresh generation would provide is
approximated by bootstrap subsets drawn without replacement; subsets for
growing k extend a common permutation, which keeps curves in k smooth at a
fixed seed.

Questions with equal sample counts are stacked, so a sweep costs
O(|k| * |T| * Q * R * k) element operations (Q questions, R resamples) in a
few array calls per (k, T) cell, with the draws and summation order, and so
the output bytes, of a per-subset loop (the tests keep that loop).

Input format: one JSON object per line with fields question_id, sample_id,
reward, correct.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .sampling import select


class JudgeRecordError(ValueError):
    """A judge record file failed validation."""


@dataclass(frozen=True)
class _Question:
    sample_ids: tuple
    rewards: np.ndarray   # aligned with sample_ids, which are sorted
    correct: np.ndarray


@dataclass(frozen=True)
class JudgeDataset:
    """Validated records grouped by question."""

    questions: dict


def _group(rows, source: str) -> dict:
    """Validate (where, question_id, sample_id, reward, correct) rows; group by question.

    ``where`` prefixes a row's error messages and ``source`` the empty-input
    one. Rejects non-finite rewards, non-binary correctness flags (booleans
    pass), duplicate (question_id, sample_id) pairs and an empty input.
    """
    grouped: dict = {}
    seen: set = set()
    for where, qid, sid, reward, correct in rows:
        if not math.isfinite(reward):
            raise JudgeRecordError(f"{where}reward is not finite for ({qid!r}, {sid!r})")
        if correct not in (0, 1):
            raise JudgeRecordError(f"{where}correct must be 0 or 1, got {correct!r}")
        if (qid, sid) in seen:
            raise JudgeRecordError(f"{where}duplicate record ({qid!r}, {sid!r})")
        seen.add((qid, sid))
        grouped.setdefault(qid, []).append((sid, float(reward), int(correct)))
    if not grouped:
        raise JudgeRecordError(f"{source}no records")
    questions = {}
    for qid, entries in grouped.items():
        entries.sort(key=lambda e: e[0])
        questions[qid] = _Question(
            sample_ids=tuple(e[0] for e in entries),
            rewards=np.array([e[1] for e in entries]),
            correct=np.array([e[2] for e in entries], dtype=float),
        )
    return questions


_REQUIRED = ("question_id", "sample_id", "reward", "correct")


def load_records(path) -> JudgeDataset:
    """Parse and validate a newline-delimited record file.

    Raises JudgeRecordError with the offending line number for malformed
    JSON, missing fields, non-finite rewards, non-binary correctness flags
    and duplicate (question_id, sample_id) pairs.
    """
    with Path(path).open() as fh:
        return JudgeDataset(questions=_group(_parse_lines(path, fh), f"{path}: "))


def _parse_lines(path, fh):
    """Yield (where, question_id, sample_id, reward, correct) per non-blank line."""
    for lineno, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}: "
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise JudgeRecordError(f"{where}invalid JSON ({exc.msg})") from exc
        if not isinstance(obj, dict):
            raise JudgeRecordError(f"{where}expected a JSON object")
        for fieldname in _REQUIRED:
            if fieldname not in obj:
                raise JudgeRecordError(f"{where}missing field {fieldname!r}")
        try:
            reward = float(obj["reward"])
        except (TypeError, ValueError) as exc:
            raise JudgeRecordError(f"{where}reward is not a number") from exc
        yield where, str(obj["question_id"]), str(obj["sample_id"]), reward, obj["correct"]


def _draw_groups(ds: JudgeDataset, qids: list, counts: np.ndarray, n_resample: int, rng) -> list:
    """Stack the questions by sample count nq: (positions in qids, rewards, correct, perms).

    rewards and correct are (Q, nq); perms (Q, n_resample, nq) holds one
    ``rng.permutation(nq)`` per question and resample, drawn question-major in qids order.
    """
    groups, blocks = [], {}
    for nq in np.unique(counts).tolist():
        positions = np.flatnonzero(counts == nq)
        qs = [ds.questions[qids[i]] for i in positions]
        perms = np.empty((len(qs), n_resample, nq), dtype=np.int32)
        rewards, correct = np.array([q.rewards for q in qs]), np.array([q.correct for q in qs])
        groups.append((positions, rewards, correct, perms))
        blocks.update(zip(positions.tolist(), perms))
    for i, nq in enumerate(counts.tolist()):
        for r in range(n_resample):
            blocks[i][r] = rng.permutation(nq)
    return groups


def judge_sweep(
    ds: JudgeDataset, k_grid, T_grid, n_resample: int, rng: np.random.Generator
) -> list[dict]:
    """Grid evaluation of the judge metric, sharing permutations across cells.

    Returns one row dict per (k, T) with keys k, T, delta, stderr,
    n_questions_used, n_resample. Each question draws one permutation per
    resample; the size-k subset is its first k entries, so estimates are
    positively coupled along k. Questions with fewer than k samples are
    excluded; the stderr is taken across per-question means, so resampling
    noise is folded in. Raises when no question has k samples.
    """
    k_grid = [int(k) for k in k_grid]
    T_grid = [float(T) for T in T_grid]
    if any(k < 1 for k in k_grid):
        raise ValueError(f"every k must be >= 1, got {k_grid}")
    if any(T < 0 for T in T_grid):
        raise ValueError(f"every T must be >= 0, got {T_grid}")
    if n_resample < 1:
        raise ValueError(f"n_resample must be >= 1, got {n_resample}")
    qids = sorted(ds.questions)
    counts = np.array([len(ds.questions[qid].sample_ids) for qid in qids], dtype=int)
    groups = _draw_groups(ds, qids, counts, n_resample, rng)
    rows = []
    for k in k_grid:
        used = counts >= k
        n_used = int(used.sum())
        if not n_used:
            raise ValueError(f"no question has >= {k} samples")
        subsets = []
        for pos, rewards, correct, perms in groups:
            if perms.shape[-1] >= k:
                # sample_id order in a subset sets the T = 0 tie rule and the summation order
                idx = np.sort(perms[..., :k], axis=-1)
                subsets.append((pos, np.take_along_axis(rewards[:, None], idx, -1),
                                np.take_along_axis(correct[:, None], idx, -1)))
        for T in T_grid:
            per_question = np.empty(len(qids))
            for pos, rewards, correct in subsets:
                # cumsum adds the resamples in draw order, as a scalar loop does
                per_question[pos] = select(correct, rewards, T).cumsum(axis=1)[:, -1] / n_resample
            per_question = per_question[used]
            stderr = per_question.std(ddof=1) / math.sqrt(n_used) if n_used > 1 else math.inf
            rows.append({
                "k": k, "T": T, "delta": -float(per_question.mean()), "stderr": float(stderr),
                "n_questions_used": n_used, "n_resample": n_resample,
            })
    return rows

