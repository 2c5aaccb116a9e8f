"""Reward-weighted accuracy on externally supplied judge-scored records.

Records pair a per-sample scalar reward with a binary correctness flag and
stay columns sorted by (question_id, sample_id). For a subset of k samples
the metric is

    delta = - E_question [ sum_i softmax(r_i / T)_i * correct_i ],

so delta lies in [-1, 0] and -delta is an expected accuracy. T = 0 selects
the argmax reward (ties to the lowest sample_id). Record files are fixed, so
the resampling over candidate sets that fresh generation would provide is
approximated by bootstrap subsets drawn without replacement; subsets for
growing k extend a common permutation, which keeps curves in k smooth at a
fixed seed.

Questions with equal sample counts are gathered from the columns by offset
and their permutation prefixes once as (kmax, Q, R) (Q questions, R
resamples), so one selection-kernel call per T serves every k, at
O(|T| * Q * R * kmax). The
draws are those of a per-subset loop (the tests keep it): T = 0 rows are its
bytes, T > 0 rows differ by rounding (the kernel sums in permutation order).

Input format: one JSON object per line with fields question_id and
sample_id (a JSON string or integer; an integer id is its decimal text, so 1
and "1" name the same question), reward (a JSON number; booleans pass as 1
and 0) and correct. The loader streams the file: each line is decoded by the
json module's C scanner and its fields go straight onto the columns, so no
parsed record is held.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .sampling import select_prefixes


class JudgeRecordError(ValueError):
    """A judge record file failed validation."""


@dataclass(frozen=True)
class JudgeDataset:
    """Validated records as columns sorted by (question_id, sample_id); question i starts at row starts[i]."""

    question_ids: np.ndarray
    starts: np.ndarray
    rewards: np.ndarray
    correct: np.ndarray  # 0.0 or 1.0


def load_records(path) -> JudgeDataset:
    """Parse and validate a newline-delimited record file in one pass.

    Each line is decoded by the json module's C scanner, and the line is
    accepted only where the value ends at the line's end, as ``json.loads``
    accepts it; the four fields go straight onto the columns. Raises
    JudgeRecordError citing the first faulty line (blank lines count):
    malformed JSON, a missing field, an id that is neither a string nor an
    integer (a boolean is not an integer), a non-numeric or non-finite
    reward (a string is not a number; JSON booleans pass as 1 and 0), a
    correct flag other than 0 or 1 (booleans pass), a repeated
    (question_id, sample_id) pair, or no records at all.
    """
    scan = json.JSONDecoder().scan_once
    qids, sids, rewards, correct, blanks = [], [], [], [], []
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip(" \t\n\r")  # JSON whitespace only: a form feed stays invalid
            try:
                obj, end = scan(text, 0)
                qid, sid, reward, flag = obj["question_id"], obj["sample_id"], obj["reward"], obj["correct"]
                if end != len(text) or isinstance(reward, str):  # extra data; float() would parse a string
                    raise ValueError
                rewards.append(float(reward))  # last: a faulty line leaves the columns as they were
            except OverflowError:  # an integer reward beyond the float range: not finite
                rewards.append(math.inf)
            except (StopIteration, KeyError, TypeError, ValueError, RecursionError) as exc:
                if not line.strip():
                    blanks.append(len(qids))
                    continue
                _grouped(path, blanks, qids, sids, rewards, correct)  # earlier lines first
                try:  # the scanner's verdict, worded as json.loads words it
                    obj = json.loads(line)
                except (ValueError, RecursionError) as bad:  # bad syntax, nesting too deep or an integer too long
                    raise JudgeRecordError(f"{path}:{lineno}: invalid JSON ({getattr(bad, 'msg', bad)})") from bad
                if isinstance(exc, KeyError):  # the first missing field, in the order read
                    fault = f"missing field {exc.args[0]!r}"
                else:
                    fault = "reward is not a number" if isinstance(obj, dict) else "expected a JSON object"
                raise JudgeRecordError(f"{path}:{lineno}: {fault}") from exc
            qids.append(qid)
            sids.append(sid)
            correct.append(flag)
    if not qids:
        raise JudgeRecordError(f"{path}: no records")
    return _grouped(path, blanks, qids, sids, rewards, correct)


def _grouped(path, blanks: list, qids: list, sids: list, rewards: list, correct: list) -> JudgeDataset:
    """Sort the record columns by (question_id, sample_id) in one stable sort; find each question's start.

    Ids become text, an integer its decimal text. Raises the first faulty
    record in file order (``blanks`` holds the number of records above each
    blank line): an id neither string nor integer, then a non-finite reward,
    then a flag other than 0 or 1, then a pair that an earlier record has.
    """
    n = len(qids)
    (qids, q_ok), (sids, s_ok) = _as_text(qids), _as_text(sids)
    order = sorted(range(n), key=sids.__getitem__)
    order.sort(key=qids.__getitem__)  # stable: equal pairs stay in file order
    order = np.array(order, dtype=np.intp)
    q, s = np.array(qids, dtype=object)[order], np.array(sids, dtype=object)[order]
    first = np.ones(n, dtype=bool)  # the first record of its question
    first[1:] = q[1:] != q[:-1]
    repeat = np.zeros(n, dtype=bool)
    repeat[order[1:][~first[1:] & (s[1:] == s[:-1])]] = True
    r, c = np.array(rewards, dtype=float), np.fromiter(correct, dtype=object, count=n)
    checks = np.array([~q_ok, ~s_ok, ~np.isfinite(r), (c != 0) & (c != 1), repeat])
    if checks.any():
        i = int(checks.any(axis=0).argmax())
        lineno = i + 1 + int(np.searchsorted(blanks, i, side="right"))
        pair = f"({qids[i]!r}, {sids[i]!r})"
        message = ("question_id must be a string or an integer", "sample_id must be a string or an integer",
                   f"reward is not finite for {pair}", f"correct must be 0 or 1, got {correct[i]!r}",
                   f"duplicate record {pair}")[checks[:, i].argmax()]
        raise JudgeRecordError(f"{path}:{lineno}: {message}")
    starts = np.flatnonzero(first)
    return JudgeDataset(q[starts], starts, r[order], c[order].astype(float))


def _as_text(ids: list) -> tuple[list, np.ndarray]:
    """The ids as text and whether each is a string or an integer, with one pass over the types."""
    if set(map(type, ids)) <= {str}:
        return ids, np.ones(len(ids), dtype=bool)
    return [i if type(i) is str else str(i) for i in ids], np.array([type(i) in (str, int) for i in ids])


def _draw_groups(ds: JudgeDataset, counts: np.ndarray, n_resample: int, rng) -> list:
    """Gather the questions by sample count nq: (positions, rewards (Q, nq), correct, perms).

    perms (Q, n_resample, nq) gets one ``rng.permuted`` draw per run of consecutive equal-count
    questions in id order, the same as one ``rng.permutation(nq)`` per question and resample.
    """
    groups, perms_of, row = [], {}, np.empty(len(counts), dtype=int)
    for nq in np.unique(counts).tolist():
        positions = np.flatnonzero(counts == nq)
        row[positions] = np.arange(len(positions))
        rows = ds.starts[positions, None] + np.arange(nq)
        perms_of[nq] = perms = np.empty((len(positions), n_resample, nq), dtype=np.int32)
        groups.append((positions, ds.rewards[rows], ds.correct[rows], perms))
    runs = np.flatnonzero(np.diff(counts, prepend=0)).tolist()
    for a, b in zip(runs, runs[1:] + [len(counts)]):
        run = perms_of[counts[a]][row[a]:row[a] + b - a]
        rng.permuted(np.broadcast_to(np.arange(counts[a], dtype=np.int32), run.shape), axis=-1, out=run)
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
    counts = np.diff(ds.starts, append=len(ds.rewards))
    for k in k_grid:
        if not np.any(counts >= k):
            raise ValueError(f"no question has >= {k} samples")
    ks = np.unique(k_grid)
    per_question = np.empty((len(T_grid), len(counts), len(ks)))
    for pos, rewards, correct, perms in _draw_groups(ds, counts, n_resample, rng):
        ks_q = ks[ks <= perms.shape[-1]]
        if not ks_q.size:
            continue
        prefix = np.ascontiguousarray(perms[..., : ks_q[-1]].transpose(2, 0, 1))  # (kmax, Q, R)
        q = np.arange(len(pos))[:, None]
        if 0.0 in T_grid:  # a stable rank breaks T = 0 ties toward the lowest sample_id, whatever the column order
            rank = np.argsort(np.argsort(-rewards, axis=1, kind="stable"), axis=1)[q, prefix]
        r, c = rewards[q, prefix], correct[q, prefix]
        for t, T in enumerate(T_grid):
            sums = select_prefixes(rank if T == 0 else -r, c, ks_q, T)
            per_question[t, pos, : ks_q.size] = sums / n_resample
    rows = []
    for k in k_grid:
        used = counts >= k
        n_used = int(used.sum())
        for t, T in enumerate(T_grid):
            values = per_question[t, used, np.searchsorted(ks, k)]
            stderr = values.std(ddof=1) / math.sqrt(n_used) if n_used > 1 else math.inf
            rows.append({
                "k": k, "T": T, "delta": -float(values.mean()), "stderr": float(stderr),
                "n_questions_used": n_used, "n_resample": n_resample,
            })
    return rows
