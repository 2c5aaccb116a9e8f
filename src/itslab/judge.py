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

Questions with equal sample counts are gathered from the columns by offset.
Only the permutation prefixes that the grid reads are drawn: Durstenfeld's
shuffle (CACM 7(7), 1964, Algorithm 235), stopped after kmax steps, runs on
every (question, resample) lane of a group at once, one bounded-integer draw
per lane and step, and leaves each group's prefixes as (kmax, Q, R) (Q
questions, R resamples). Per group one selection-kernel call at T = 0 and one
for every distinct T > 0 serve every k, at O(|T| * Q * R * kmax). The draws
are those of a per-subset loop (the tests keep it): T = 0 rows are its bytes,
T > 0 rows differ by rounding (the kernel sums in permutation order).

Input format: one JSON object per line with fields question_id and
sample_id (a JSON string or integer; an integer id is its decimal text, so 1
and "1" name the same question), reward (a JSON number; booleans pass as 1
and 0) and correct. The loader streams the file a chunk of whole lines at a
time and holds no parsed record. A chunk whose lines are all json.dumps's
default text for the four fields (``_RECORD``) is split into the columns by
one regular expression; any other chunk is decoded line by line by the json
module's C scanner, which alone reports faults.
"""

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .sampling import select_prefixes


_CHUNK = 1 << 16  # characters of whole lines per read
_TEXT = r'"([^"\\\x00-\x1f]*+)"'  # a JSON string without escapes: json.loads gives this text
# One record line as json.dumps writes it, its reward with a fraction or an exponent (which json
# parses with float(); integers stay with the scanner: it reads -0 as 0.0, float() as -0.0).
# A str, so re compiles it on first use and caches it, not at import.
_RECORD = (r'\{"question_id": ' + _TEXT + r', "sample_id": ' + _TEXT
           + r', "reward": (-?+(?:0|[1-9][0-9]*+)(?:\.[0-9]++(?:[eE][-+]?+[0-9]++)?+|[eE][-+]?+[0-9]++))'
           + r', "correct": ([01])\}(?:\n|\Z)')


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

    The file is read ``_CHUNK`` characters of whole lines at a time. Where
    ``_RECORD``'s matches tile a chunk, one per line with nothing between
    them, the chunk goes onto the columns from one ``re.split``: each such
    line is one the scanner would decode to the same values. Any other
    chunk is decoded line by line by the json module's C scanner, a line
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
    lineno = 0
    with Path(path).open() as fh:
        while lines := fh.readlines(_CHUNK):
            parts = re.split(_RECORD, "".join(lines))
            if not any(parts[0::5]):  # nothing outside the matches, so each line is one record
                qids += parts[1::5]
                sids += parts[2::5]
                rewards += map(float, parts[3::5])
                correct += map(int, parts[4::5])
                lineno += len(lines)
                continue
            for lineno, line in enumerate(lines, start=lineno + 1):
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


def _draw_groups(ds: JudgeDataset, counts: np.ndarray, n_resample: int, kmax: int, rng) -> list:
    """Gather the questions by sample count nq: (positions, rewards (Q, nq), correct, prefix).

    prefix (min(kmax, nq), Q, n_resample) holds the first entries of one uniform permutation of
    range(nq) per question and resample (a lane), from Durstenfeld's shuffle stopped after kmax
    steps: step t draws j from t..nq - 1 for every lane of a group with one ``rng.integers``
    call and swaps the lane's entries t and j. Steps are the outer loop and the groups still
    shuffling (t < nq - 1), in ascending nq, the inner one, so a lane's first k entries come
    from the first k steps whatever kmax is.
    """
    groups = []
    for nq in np.unique(counts).tolist():
        positions = np.flatnonzero(counts == nq)
        rows = ds.starts[positions, None] + np.arange(nq)
        lanes = np.empty((nq, len(positions), n_resample), dtype=np.int32)
        lanes[...] = np.arange(nq, dtype=np.int32)[:, None, None]
        groups.append((positions, ds.rewards[rows], ds.correct[rows], lanes))
    for t in range(min(kmax, int(counts.max()) - 1)):
        for *_, lanes in groups:
            if t < len(lanes) - 1:
                entries, head = lanes.reshape(-1), lanes[t].reshape(-1)  # views
                at = rng.integers(t, len(lanes), size=lanes.shape[1:]).reshape(-1)
                at *= head.size
                at += np.arange(head.size)
                swapped = entries[at]
                entries[at] = head  # entry t of a lane is only written where j = t, with its own value
                head[...] = swapped
    return [(positions, rewards, correct, lanes[:kmax]) for positions, rewards, correct, lanes in groups]


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
    if not all(T >= 0 for T in T_grid):
        raise ValueError(f"every T must be >= 0, got {T_grid}")
    if n_resample < 1:
        raise ValueError(f"n_resample must be >= 1, got {n_resample}")
    counts = np.diff(ds.starts, append=len(ds.rewards))
    for k in k_grid:
        if not np.any(counts >= k):
            raise ValueError(f"no question has >= {k} samples")
    ks = np.unique(k_grid)
    temps = sorted(set(T_grid))  # T = 0, if there, first
    hot = [T for T in temps if T > 0]
    per_question = np.empty((len(ks), len(temps), len(counts)))  # each k's (T, question) values contiguous
    for pos, rewards, correct, prefix in _draw_groups(ds, counts, n_resample, int(ks[-1]), rng):
        ks_q = ks[ks <= rewards.shape[1]]
        if not ks_q.size:
            continue
        flat = prefix[: ks_q[-1]] + np.arange(0, rewards.size, rewards.shape[1])[:, None]  # into (Q, nq)
        c = correct.take(flat)
        if temps[0] == 0:  # a stable rank breaks T = 0 ties toward the lowest sample_id, whatever the column order
            rank = np.argsort(np.argsort(-rewards, axis=1, kind="stable"), axis=1)
            per_question[: ks_q.size, 0, pos] = select_prefixes(rank.take(flat), c, ks_q, 0.0).T / n_resample
        if hot:
            sums = select_prefixes(-rewards.take(flat), c, ks_q, hot)
            per_question[: ks_q.size, len(temps) - len(hot) :, pos] = sums.transpose(2, 0, 1) / n_resample
    rows = []
    for k in k_grid:
        used = counts >= k
        n_used = int(used.sum())
        # (T, questions used) in C order, so each row sums pairwise as one question axis does
        values = per_question[np.searchsorted(ks, k)].compress(used, axis=1)
        means = values.mean(axis=1)
        stderrs = values.std(axis=1, ddof=1) / math.sqrt(n_used) if n_used > 1 else [math.inf] * len(temps)
        for T in T_grid:
            t = temps.index(T)
            rows.append({
                "k": k, "T": T, "delta": -float(means[t]), "stderr": float(stderrs[t]),
                "n_questions_used": n_used, "n_resample": n_resample,
            })
    return rows
