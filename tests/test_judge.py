import itertools
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from itslab import JudgeRecordError, judge, judge_sweep, load_records, stream
from itslab.judge import JudgeDataset, _draw_groups

from _synth import (
    argmax_correct_probability,
    load_records_per_line,
    noisy_judge_questions,
    record_rows,
    trap_judge_questions,
    write_records,
)


def _load(tmp_path, questions, name="records.jsonl"):
    path = tmp_path / name
    write_records(path, record_rows(questions))
    return load_records(path)


class TestLoadRecords:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(JudgeRecordError, match="no records"):
            load_records(path)

    def test_grouping_counts(self, tmp_path):
        rows = record_rows({"a": [(0.1, 1), (0.2, 0), (0.3, 1)], "b": [(0.4, 0), (0.5, 1)]})
        ds = load_records(write_records(tmp_path / "r.jsonl", rows[::-1]))
        assert ds.question_ids.tolist() == ["a", "b"]
        assert ds.starts.tolist() == [0, 3]
        # distinct rewards: each question's rows come back in sample_id order
        assert ds.rewards.tolist() == [0.1, 0.2, 0.3, 0.4, 0.5]
        assert ds.correct.tolist() == [1.0, 0.0, 1.0, 0.0, 1.0]

    def test_non_binary_correct_cites_line(self, tmp_path):
        rows = record_rows({"a": [(0.5, 1)] * 6 + [(0.2, 0)]})
        rows[6]["correct"] = 2
        path = write_records(tmp_path / "bad.jsonl", rows)
        with pytest.raises(JudgeRecordError, match=r":7: correct must be 0 or 1"):
            load_records(path)

    def test_missing_field_cites_line(self, tmp_path):
        rows = record_rows({"a": [(0.5, 1), (0.1, 0)]})
        del rows[1]["reward"]
        path = write_records(tmp_path / "bad.jsonl", rows)
        with pytest.raises(JudgeRecordError, match=r":2: missing field 'reward'"):
            load_records(path)

    def test_duplicate_pair_rejected(self, tmp_path):
        rows = record_rows({"a": [(0.5, 1), (0.1, 0)]})
        rows.append(dict(rows[0]))
        path = write_records(tmp_path / "bad.jsonl", rows)
        with pytest.raises(JudgeRecordError, match=r":3: duplicate"):
            load_records(path)

    def test_invalid_json_cites_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"question_id": "a", "sample_id": "s", "reward": 1, "correct": 1}\nnot json\n')
        with pytest.raises(JudgeRecordError, match=r":2: invalid JSON"):
            load_records(path)

    @pytest.mark.parametrize("line5, message", [
        ({"sample_id": "s001"}, "duplicate record ('a', 's001')"),
        ({"reward": float("nan")}, "reward is not finite for ('a', 's009')"),
        ({"correct": 2}, "correct must be 0 or 1, got 2"),
        ({"sample_id": "s001", "reward": float("nan"), "correct": 2},
         "reward is not finite for ('a', 's001')"),
        ({"sample_id": "s001", "correct": 2}, "correct must be 0 or 1, got 2"),
        ("not json", "invalid JSON (Expecting value)"),
        ("[1]", "expected a JSON object"),
    ], ids=["duplicate", "nan", "correct", "nan+correct+duplicate", "correct+duplicate",
            "json", "not_object"])
    def test_first_faulty_line_is_cited(self, line5, message, tmp_path):
        # lines 2 and 4 are blank; line 5 is the first fault, and a duplicate, a NaN
        # reward, correct: 2, a reward past the float range, JSON nested too
        # deeply and bad JSON follow on later lines
        good = record_rows({"a": [(0.5, 1), (0.1, 0)]})
        row = {**good[0], "sample_id": "s009"}
        fifth = line5 if isinstance(line5, str) else json.dumps({**row, **line5})
        later = [good[1], {**row, "sample_id": "s7", "reward": float("nan")},
                 {**row, "sample_id": "s8", "correct": 2}, {**row, "sample_id": "s6", "reward": 10**400}]
        lines = [json.dumps(good[0]), "", json.dumps(good[1]), "   ", fifth,
                 *map(json.dumps, later), "[" * 100_000, "{bad"]
        path = tmp_path / "faults.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JudgeRecordError) as exc:
            load_records(path)
        assert str(exc.value) == f"{path}:5: {message}"

    @pytest.mark.parametrize("line, message", [
        ('{"question_id": "a", "sample_id": "s1", "reward": 1' + "0" * 400 + ', "correct": 1}',
         "reward is not finite for ('a', 's1')"),
        ('{"question_id": "a", "sample_id": "s1", "reward": -1' + "0" * 400 + ', "correct": 1}',
         "reward is not finite for ('a', 's1')"),
        ("[" * 100_000, "invalid JSON (maximum recursion depth exceeded"),
        ('{"a": ' * 100_000, "invalid JSON (maximum recursion depth exceeded"),
        ('{"question_id": "a", "sample_id": "s1", "reward": 1' + "0" * 5000 + ', "correct": 1}',
         "invalid JSON (Exceeds the limit"),
        ('{"question_id": "a", "sample_id": "s1", "reward": "0.7", "correct": 1}', "reward is not a number"),
        ('{"question_id": "a", "sample_id": "s1", "reward": " 1e3 ", "correct": 1}', "reward is not a number"),
        ('{"question_id": "a", "sample_id": "s1", "reward": "nan", "correct": 1}', "reward is not a number"),
        ('\ufeff{"question_id": "a", "sample_id": "s1", "reward": 1, "correct": 1}',
         "invalid JSON (Unexpected UTF-8 BOM"),
        ('\x0c{"question_id": "a", "sample_id": "s1", "reward": 1, "correct": 1}',
         "invalid JSON (Expecting value)"),
        ('{"question_id": "a", "sample_id": "s1", "reward": 1, "correct": 1} {"question_id": "a"}',
         "invalid JSON (Extra data)"),
        ('{"question_id": "a", "sample_id": "s1"', "invalid JSON (Expecting ',' delimiter)"),
        ('{"question_id": null, "sample_id": "s1", "reward": 1, "correct": 1}',
         "question_id must be a string or an integer"),
        ('{"question_id": {"a": 1}, "sample_id": "s1", "reward": 1, "correct": 1}',
         "question_id must be a string or an integer"),
        ('{"question_id": 1.0, "sample_id": "s1", "reward": 1, "correct": 1}',
         "question_id must be a string or an integer"),
        ('{"question_id": true, "sample_id": "s1", "reward": 1, "correct": 1}',
         "question_id must be a string or an integer"),
        ('{"question_id": "a", "sample_id": ["s1"], "reward": 1, "correct": 1}',
         "sample_id must be a string or an integer"),
        ('{"question_id": null, "sample_id": "s1", "reward": 1' + "0" * 400 + ', "correct": 1}',
         "question_id must be a string or an integer"),
    ], ids=["reward_past_float_range", "negative_reward_past_float_range", "deep_array",
            "deep_object", "integer_too_long", "string_reward", "padded_string_reward",
            "nan_string_reward", "bom", "form_feed", "two_records", "split_record",
            "null_id", "object_id", "float_id", "boolean_id", "array_sample_id",
            "null_id_reward_past_float_range"])
    def test_parse_faults_cite_the_line(self, line, message, tmp_path):
        # none of these escapes as an OverflowError, a RecursionError or a bare ValueError
        path = tmp_path / "faults.jsonl"
        path.write_text(json.dumps(record_rows({"a": [(0.5, 1)]})[0]) + "\n\n" + line + "\n")
        with pytest.raises(JudgeRecordError) as exc:
            load_records(path)
        assert str(exc.value).startswith(f"{path}:3: {message}")

    def test_nonfinite_reward_rejected(self, tmp_path):
        rows = record_rows({"a": [(0.5, 1)]})
        rows[0]["reward"] = float("nan")
        path = write_records(tmp_path / "bad.jsonl", rows)
        with pytest.raises(JudgeRecordError, match="finite"):
            load_records(path)

    def test_integer_id_is_its_decimal_text(self, tmp_path):
        path = tmp_path / "ids.jsonl"
        path.write_text('{"question_id": 7, "sample_id": 0, "reward": 0.5, "correct": 1}\n'
                        '{"question_id": "7", "sample_id": 1, "reward": 0.2, "correct": 0}\n'
                        '{"question_id": -3, "sample_id": "0", "reward": 0.1, "correct": 1}\n')
        ds = load_records(path)
        assert ds.question_ids.tolist() == ["-3", "7"] and ds.starts.tolist() == [0, 1]
        path.write_text(path.read_text() + '{"question_id": "7", "sample_id": "0", "reward": 1, "correct": 1}\n')
        with pytest.raises(JudgeRecordError, match=r":4: duplicate record \('7', '0'\)"):
            load_records(path)

    def test_boolean_reward_passes_as_one_and_zero(self, tmp_path):
        path = tmp_path / "bools.jsonl"
        path.write_text('{"question_id": "a", "sample_id": "s0", "reward": true, "correct": true}\n'
                        '{"question_id": "a", "sample_id": "s1", "reward": false, "correct": false}\n')
        ds = load_records(path)
        assert ds.rewards.tolist() == [1.0, 0.0] and ds.correct.tolist() == [1.0, 0.0]


# ---------------------------------------------------------------------------
# Reference: the per-line json.loads loader of tests/_synth.py. The scanner
# loader must give its columns or its exact error text on any file.

_LINE = '{"question_id": "a", "sample_id": "s9", "reward": 0.5, "correct": 1}'
_ODD_LINES = [
    "", "   ", "\t", "\x0c", "\x0c" + _LINE, "\ufeff" + _LINE, " \t" + _LINE + " ", _LINE + " x",
    _LINE + _LINE, _LINE + " " + _LINE,
    '{"question_id": "q", "sample_id": "a"', '"reward": 1, "correct": 1}',  # one record split in two
    "[" * 100_000, '{"a": ' * 100_000, '{"question_id": "a", "sample_id": "s8", "reward": 1' + "0" * 5000 + "}",
    "[1]", "1", '"text"', "null", "{}", '{"question_id": "a"}', "not json", "{bad",
]


def _record(qid, sid, reward, flag):
    return json.dumps({"question_id": qid, "sample_id": sid, "reward": reward, "correct": flag})


_ids = (st.sampled_from(["a", "b", 1, "1"]), st.integers(0, 99).map(lambda i: f"s{i}"))
_good = st.builds(_record, *_ids, st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                            st.integers(-3, 3), st.booleans()),
                  st.sampled_from([0, 1, True, False, 1.0]))
_odd = st.one_of(
    st.builds(_record, *_ids, st.one_of(st.floats(), st.sampled_from([10**400, -10**400, "0.7", " 1e3 ", "nan",
                                                                        None, [1]])),
              st.sampled_from([0, 1, 2, None, "1", [1]])),
    st.builds(_record, st.sampled_from(["a", 1, None, True, 1.0, [1], {"a": 1}]),
              st.sampled_from(["s1", 1, None, False, 2.5, ["s1"]]),
              st.sampled_from([0.5, 10**400, None]), st.sampled_from([0, 1, 2])),
    st.sampled_from(_ODD_LINES),
)
_end = st.sampled_from(["\n", "\r\n"])


def _outcome(loader, path):
    """The error text, or each column's dtype and values: bytes where numeric, so -0.0 is not 0.0."""
    try:
        ds = loader(path)
    except JudgeRecordError as exc:
        return str(exc)
    columns = (ds.question_ids, ds.starts, ds.rewards, ds.correct)
    return [(c.dtype, c.tolist() if c.dtype == object else c.tobytes()) for c in columns]


class TestLoaderOracle:
    @given(st.lists(st.tuples(_good, _end), max_size=10),
           st.lists(st.tuples(st.integers(0, 10), _odd, _end), max_size=3), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_columns_or_message_match_per_line_loads(self, good, odd, final_newline):
        lines = [line + end for line, end in good]
        for at, line, end in odd:
            lines.insert(at, line + end)
        text = "".join(lines)
        if not final_newline:
            text = text.rstrip("\r\n")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mixed.jsonl"
            path.write_bytes(text.encode())  # CRLF stays CRLF
            assert _outcome(load_records, path) == _outcome(load_records_per_line, path)

    def test_loader_holds_no_parsed_record(self, tmp_path):
        # a loader that scanned every line before filling the columns peaked at
        # 6.7 MB on this file, against 1.5 MB for the per-line loader
        path = write_records(tmp_path / "trap.jsonl",
                             record_rows(trap_judge_questions(np.random.default_rng(0), 100, 64)))
        peaks = []
        for loader in (load_records, load_records_per_line):
            loader(path)  # warm: first-call allocations are not the loader's
            tracemalloc.start()
            try:
                loader(path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1.25 * peaks[1], peaks


# ---------------------------------------------------------------------------
# Files of json.dumps's canonical record lines, which the loader splits a chunk
# at a time with one pattern, and at most one other line, which sends its
# chunk through the scanner. Small chunks make small files span several.

def _canonical(qid, sid, reward, flag):
    return json.dumps({"question_id": qid, "sample_id": sid, "reward": reward, "correct": flag}, ensure_ascii=False)


_id_text = st.text(st.one_of(st.just("\x7f"), st.characters(
    exclude_categories=("Cs",), exclude_characters='"\\' + "".join(map(chr, range(32))))), max_size=4)
_canonical_records = st.lists(
    st.tuples(_id_text, _id_text, st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([0, 1])),
    max_size=40, unique_by=lambda record: record[:2])
_FIELDS = '{{"question_id": {}, "sample_id": {}, "reward": {}, "correct": {}}}'
_NON_CANONICAL = [  # each alone would send its chunk to the scanner
    *(_FIELDS.format('"q"', '"integer reward"', reward, 1) for reward in ("-0", "0", "-12", "1" + "0" * 400)),
    _FIELDS.format('"q"', '"true flag"', 0.5, "true"),
    *(_FIELDS.format(qid, '"id"', -0.0, 1) for qid in ('"q\\u00e9"', '"q\\""', '"\\/"', "7", "-0")),
    " " + _canonical("q", "leading space", -0.0, 1),
    _canonical("q", "crlf", -0.0, 1) + "\r",  # the file's line ends in CRLF
    "",
    "not json",
    '{"question_id": "q", "sample_id": "missing"}',
    _canonical("q", "flag", 0.5, 2),
    _canonical("q", "nan", math.nan, 1),
    _canonical("q", "text reward", "0.5", 1),
    _canonical("q", "s", 0.5, 1) + _canonical("q", "t", 0.5, 1),
    _FIELDS.format('"q"', '"arabic-indic digit"', "0.\u0663", 1),
]


class TestCanonicalChunks:
    @given(_canonical_records, st.none() | st.tuples(st.integers(0, 40), st.sampled_from(_NON_CANONICAL)),
           st.integers(1, 800), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_columns_or_message_match_per_line_loads(self, records, odd, chunk, final_newline):
        lines = [_canonical(*record) + "\n" for record in records]
        if odd is not None:
            lines.insert(odd[0], odd[1] + "\n")
        text = "".join(lines)
        if not final_newline:
            text = text.removesuffix("\n")
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(judge, "_CHUNK", chunk)
            path = Path(tmp) / "canonical.jsonl"
            path.write_bytes(text.encode())
            assert _outcome(load_records, path) == _outcome(load_records_per_line, path)


class TestJudgeDelta:
    def test_all_correct_is_exactly_minus_one(self, tmp_path):
        qs = {f"q{i}": [(float(np.sin(i + j)), 1) for j in range(6)] for i in range(4)}
        ds = _load(tmp_path, qs)
        for k in (1, 3, 6):
            for T in (0.0, 0.5, 7.0):
                est = judge_sweep(ds, [k], [T], 3, stream(0, "judge"))[0]
                assert est["delta"] == -1.0

    def test_bounds(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = _load(tmp_path, trap_judge_questions(rng, n_questions=20, n_samples=10))
        for k in (1, 4, 10):
            for T in (0.0, 1.0, 100.0):
                est = judge_sweep(ds, [k], [T], 4, stream(1, "judge"))[0]
                assert -1.0 <= est["delta"] <= 0.0

    def test_huge_t_recovers_mean_accuracy(self, tmp_path):
        rng = np.random.default_rng(1)
        qs = trap_judge_questions(rng, n_questions=50, n_samples=16)
        ds = _load(tmp_path, qs)
        acc = np.mean([np.mean([c for _, c in rows]) for rows in qs.values()])
        est = judge_sweep(ds, [4], [1e12], 16, stream(2, "judge"))[0]
        assert abs(est["delta"] - (-acc)) < 4 * est["stderr"]

    def test_full_k_single_resample_deterministic(self, tmp_path):
        rng = np.random.default_rng(2)
        ds = _load(tmp_path, trap_judge_questions(rng, n_questions=10, n_samples=8))
        a = judge_sweep(ds, [8], [0.0], 1, stream(3, "judge"))[0]
        b = judge_sweep(ds, [8], [0.0], 1, stream(99, "judge"))[0]
        assert a["delta"] == b["delta"]

    def test_questions_below_k_excluded(self, tmp_path):
        qs = {"small": [(0.1, 1)] * 2, "big": [(0.2, 0)] * 5}
        ds = _load(tmp_path, qs)
        est = judge_sweep(ds, [4], [0.0], 1, stream(4, "judge"))[0]
        assert est["n_questions_used"] == 1  # only "big" is eligible
        assert est["delta"] == 0.0  # its single selection is incorrect

    def test_no_eligible_question_raises(self, tmp_path):
        ds = _load(tmp_path, {"a": [(0.1, 1)] * 2})
        with pytest.raises(ValueError, match="no question"):
            judge_sweep(ds, [5], [0.0], 1, stream(5, "judge"))

    def test_argmax_tie_breaks_to_lowest_sample_id(self, tmp_path):
        qs = {"a": [(1.0, 0), (1.0, 1)]}  # s000 wrong, s001 correct, tied reward
        ds = _load(tmp_path, qs)
        est = judge_sweep(ds, [2], [0.0], 1, stream(6, "judge"))[0]
        assert est["delta"] == 0.0

    def test_reward_scaling_invariance_at_zero_t(self, tmp_path):
        rng = np.random.default_rng(3)
        qs = trap_judge_questions(rng, n_questions=12, n_samples=8)
        scaled = {q: [(3.5 * r, c) for r, c in rows] for q, rows in qs.items()}
        ds1 = _load(tmp_path, qs, "a.jsonl")
        ds2 = _load(tmp_path, scaled, "b.jsonl")
        a = judge_sweep(ds1, [8], [0.0], 1, stream(7, "judge"))[0]
        b = judge_sweep(ds2, [8], [0.0], 1, stream(7, "judge"))[0]
        assert a["delta"] == b["delta"]

    def test_reward_shift_invariance_any_t(self, tmp_path):
        rng = np.random.default_rng(4)
        qs = trap_judge_questions(rng, n_questions=12, n_samples=8)
        shifted = {q: [(r + 11.0, c) for r, c in rows] for q, rows in qs.items()}
        ds1 = _load(tmp_path, qs, "a.jsonl")
        ds2 = _load(tmp_path, shifted, "b.jsonl")
        for T in (0.0, 0.7):
            a = judge_sweep(ds1, [6], [T], 4, stream(8, "judge"))[0]
            b = judge_sweep(ds2, [6], [T], 4, stream(8, "judge"))[0]
            assert a["delta"] == pytest.approx(b["delta"], rel=1e-12)

    def test_matches_enumeration_oracle(self, tmp_path):
        # T = 0 and k = all samples: the mean outcome across questions
        # estimates P(the noise-corrupted argmax is correct), computable by
        # quadrature per correctness pattern.
        eps = 0.4
        qs, patterns = noisy_judge_questions(
            np.random.default_rng(5), n_questions=2000, n_samples=3, eps=eps
        )
        ds = _load(tmp_path, qs)
        est = judge_sweep(ds, [3], [0.0], 1, stream(9, "judge"))[0]
        probs = np.array([argmax_correct_probability(p, eps) for p in patterns.values()])
        se = math.sqrt(float(np.mean(probs * (1 - probs))) / len(probs))
        assert abs(est["delta"] - (-probs.mean())) < 4 * se

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_bounds_property(self, seed):
        rng = np.random.default_rng(seed)
        qs = trap_judge_questions(rng, n_questions=5, n_samples=6)
        import tempfile, os

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "r.jsonl")
            write_records(path, record_rows(qs))
            ds = load_records(path)
        T = float(rng.uniform(0, 3))
        est = judge_sweep(ds, [3], [T], 2, np.random.default_rng(seed + 1))[0]
        assert -1.0 <= est["delta"] <= 0.0


class TestJudgeSweep:
    def test_single_cell_is_one_draw_independent_row(self, tmp_path):
        rng = np.random.default_rng(6)
        ds = _load(tmp_path, trap_judge_questions(rng, n_questions=15, n_samples=8))
        rows = judge_sweep(ds, [8], [0.0], n_resample=1, rng=stream(10, "judge"))
        other = judge_sweep(ds, [8], [0.0], n_resample=1, rng=stream(11, "judge"))
        assert len(rows) == 1
        assert rows[0]["delta"] == other[0]["delta"]  # full-k selection is draw-independent
        assert rows[0]["n_questions_used"] == 15

    def test_interior_optimum_in_k(self, tmp_path):
        # aggressive selection at moderate k beats both k=1 and large k when
        # traps poison large candidate sets
        rng = np.random.default_rng(7)
        ds = _load(tmp_path, trap_judge_questions(rng, n_questions=400, n_samples=64))
        k_grid = [1, 2, 4, 8, 16, 32]
        rows = judge_sweep(ds, k_grid, [0.5], n_resample=16, rng=stream(11, "judge"))
        deltas = np.array([r["delta"] for r in rows])
        errs = np.array([r["stderr"] for r in rows])
        best = int(np.argmin(deltas))
        assert 0 < best < len(k_grid) - 1
        assert deltas[best] < deltas[0] - 3 * (errs[best] + errs[0])
        assert deltas[best] < deltas[-1] - 3 * (errs[best] + errs[-1])

    def test_interior_optimum_in_t(self, tmp_path):
        rng = np.random.default_rng(8)
        ds = _load(tmp_path, trap_judge_questions(rng, n_questions=600, n_samples=64))
        T_grid = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 32.0, 1e6]
        rows = judge_sweep(ds, [16], T_grid, n_resample=16, rng=stream(12, "judge"))
        deltas = np.array([r["delta"] for r in rows])
        errs = np.array([r["stderr"] for r in rows])
        best = int(np.argmin(deltas))
        assert 0 < best < len(T_grid) - 1
        assert deltas[best] < deltas[0] - 3 * (errs[best] + errs[0])
        assert deltas[best] < deltas[-1] - 3 * (errs[best] + errs[-1])

    def test_count_column_tracks_eligibility(self, tmp_path):
        qs = {"a": [(0.1, 1)] * 4, "b": [(0.2, 0)] * 2}
        ds = _load(tmp_path, qs)
        rows = judge_sweep(ds, [2, 4], [1.0], n_resample=2, rng=stream(13, "judge"))
        assert rows[0]["n_questions_used"] == 2
        assert rows[1]["n_questions_used"] == 1


# ---------------------------------------------------------------------------
# Reference: the expectation over uniform k-subsets in closed form. At T = 0
# the record at stable reward rank i (ties to the lowest sample_id) wins a
# uniform k-subset of a question's n records with probability
# C(n - 1 - i, k - 1) / C(n, k); as T -> inf the selection is the subset's
# mean, whose expectation is the question's mean correct.


def _subset_oracle(questions, k):
    """(T = 0, T -> inf) expected correctness of each question with >= k records, in id order."""
    t0, flat = [], []
    for qid in sorted(questions):
        samples = questions[qid]  # in sample_id order
        n = len(samples)
        if n < k:
            continue
        ranked = sorted(range(n), key=lambda j: -samples[j][0])  # stable: ties keep sample_id order
        wins = sum(samples[j][1] * math.comb(n - 1 - i, k - 1) for i, j in enumerate(ranked))
        t0.append(wins / math.comb(n, k))
        flat.append(sum(c for _, c in samples) / n)
    return np.array(t0), np.array(flat)


def _oracle_files():
    """Trap-judge question sets: one size, two sizes, and integer rewards (ties across correctness)."""
    one = trap_judge_questions(np.random.default_rng(40), n_questions=30, n_samples=12)
    short = trap_judge_questions(np.random.default_rng(41), n_questions=20, n_samples=5)
    long = trap_judge_questions(np.random.default_rng(42), n_questions=15, n_samples=9)
    tied = trap_judge_questions(np.random.default_rng(43), n_questions=25, n_samples=10, reward_noise=0.6)
    return {
        "one_size": one,
        "two_sizes": {**{f"a{q}": v for q, v in short.items()}, **{f"b{q}": v for q, v in long.items()}},
        "tied": {q: [(float(round(r)), c) for r, c in v] for q, v in tied.items()},
    }


class TestSubsetOracle:
    """judge_sweep's rows against the exact expectation over uniform k-subsets."""

    @pytest.mark.parametrize("name", ["one_size", "two_sizes", "tied"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_within_three_stderr_and_exact_at_full_k(self, name, seed, tmp_path):
        questions = _oracle_files()[name]
        ds = _load(tmp_path, questions)
        n_max = max(len(v) for v in questions.values())
        k_grid = sorted({1, 2, 3, 5, n_max - 1, n_max})
        rows = judge_sweep(ds, k_grid, [0.0, 1e12], 8, stream(seed, "judge"))
        for row in rows:
            t0, flat = _subset_oracle(questions, row["k"])
            want = -(t0 if row["T"] == 0 else flat).mean()
            assert row["n_questions_used"] == len(t0)
            assert abs(row["delta"] - want) <= 3 * row["stderr"], row
            if row["k"] == n_max:  # every subset is the whole question: no resampling noise
                if row["T"] == 0:
                    assert row["delta"] == want
                else:  # the weights are 1 - O(1e-12), not exactly 1
                    assert row["delta"] == pytest.approx(want, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# Reference: the metric as one Python call per subset. The batched evaluator
# draws the same permutations, so T = 0 rows and every count must agree
# exactly. At T > 0 the kernel sums a subset in permutation order with the
# online-softmax rescale, where the loop sums in sample_id order, so delta and
# stderr agree to rounding: within 1e-13 relative.


def assert_rows_match(rows, ref):
    assert len(rows) == len(ref)
    for row, want in zip(rows, ref):
        if row["T"] > 0:
            for key in ("delta", "stderr"):
                assert math.isclose(row[key], want[key], rel_tol=1e-13), (row, want)
            row = {**row, "delta": want["delta"], "stderr": want["stderr"]}
        assert row == want


def _loop_subset_value(rewards, correct, T):
    if T == 0:
        return float(correct[np.argmax(rewards)])
    w = np.exp((rewards - rewards.max()) / T)
    return float(np.sum(w * correct) / np.sum(w))


def _loop_estimate(per_question):
    n = len(per_question)
    stderr = float(per_question.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return -float(per_question.mean()), stderr


def loop_shuffle(sizes, kmax, n_resample, rng):
    """qid -> n_resample lanes, each a list permuted by Durstenfeld's shuffle stopped after kmax steps.

    Steps are the outer loop; per step, every count still shuffling (t < n - 1),
    in ascending n, draws j for its (questions in id order, resample) lanes in
    one call, and each lane swaps its entries t and j in Python.
    """
    lanes = {qid: [list(range(n)) for _ in range(n_resample)] for qid, n in sizes.items()}
    by_count = {}
    for qid in sorted(sizes):
        by_count.setdefault(sizes[qid], []).append(qid)
    for t in range(kmax):
        for n in sorted(by_count):
            if t >= n - 1:
                continue
            js = rng.integers(t, n, size=(len(by_count[n]), n_resample))
            for qid, row in zip(by_count[n], js.tolist()):
                for lane, j in zip(lanes[qid], row):
                    lane[t], lane[j] = lane[j], lane[t]
    return lanes


def loop_judge_sweep(ds, k_grid, T_grid, n_resample, rng):
    bounds = [*ds.starts.tolist(), len(ds.rewards)]
    questions = {  # qid -> (rewards, correct), each in sample_id order
        qid: (ds.rewards[a:b], ds.correct[a:b])
        for qid, a, b in zip(ds.question_ids.tolist(), bounds, bounds[1:])
    }
    qids = sorted(questions)
    perms = loop_shuffle({qid: len(questions[qid][0]) for qid in qids}, max(k_grid), n_resample, rng)
    rows = []
    for k in k_grid:
        eligible = [qid for qid in qids if len(questions[qid][0]) >= k]
        for T in T_grid:
            per_question = np.empty(len(eligible))
            for qi, qid in enumerate(eligible):
                rewards, correct = questions[qid]
                acc = 0.0
                for perm in perms[qid]:
                    idx = np.sort(perm[:k])
                    acc += _loop_subset_value(rewards[idx], correct[idx], T)
                per_question[qi] = acc / n_resample
            mean, stderr = _loop_estimate(per_question)
            rows.append({"k": k, "T": T, "delta": mean, "stderr": stderr,
                         "n_questions_used": len(eligible), "n_resample": n_resample})
    return rows


def ragged_dataset(tmp_path, seed, n_questions=40, max_samples=19):
    """1 to max_samples samples per question, rewards rounded so that ties occur.

    Only question q000 has max_samples samples. Questions are written in
    shuffled order, and sample counts interleave in sorted-id order, so
    grouping by count must restore the id order.
    """
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, max_samples, size=n_questions)
    counts[0] = max_samples
    counts[1] = 1
    rows = []
    for q in rng.permutation(n_questions):
        for j in range(counts[q]):
            rows.append({"question_id": f"q{q:03d}", "sample_id": f"s{j:02d}",
                         "reward": round(float(rng.normal()), 1),
                         "correct": int(rng.random() < 0.5)})
    return load_records(write_records(tmp_path / "ragged.jsonl", rows))


ORACLE_T = [0.0, 1e-9, 0.25, 1.0, 32.0, 1e9]


class TestLoopOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_resample", [1, 5])
    def test_sweep_rows_equal_ragged(self, seed, n_resample, tmp_path):
        ds = ragged_dataset(tmp_path, seed)
        k_grid = [1, 2, 3, 7, 12, 19]  # 19 = the largest sample count: one question
        rows = judge_sweep(ds, k_grid, ORACLE_T, n_resample, stream(seed, "judge"))
        ref = loop_judge_sweep(ds, k_grid, ORACLE_T, n_resample, stream(seed, "judge"))
        assert_rows_match(rows, ref)
        assert rows[-1]["n_questions_used"] == 1 and rows[-1]["stderr"] == math.inf

    @pytest.mark.parametrize("seed", [3, 4])
    def test_sweep_rows_equal_trap(self, seed, tmp_path):
        # 16 resamples: numpy sums 8 or more terms pairwise, a scalar loop does not
        ds = _load(tmp_path, trap_judge_questions(np.random.default_rng(seed), 30, 16))
        k_grid = [1, 2, 4, 8, 16]
        rows = judge_sweep(ds, k_grid, ORACLE_T, 16, stream(seed, "judge"))
        assert_rows_match(rows, loop_judge_sweep(ds, k_grid, ORACLE_T, 16, stream(seed, "judge")))

    def test_ties_at_zero_temperature_follow_sample_id(self, tmp_path):
        # every reward tied: T = 0 must pick the lowest sample_id of each subset
        ds = _load(tmp_path, {f"q{q}": [(0.5, (q + j) % 2) for j in range(5)] for q in range(6)})
        rows = judge_sweep(ds, [1, 3, 5], [0.0], 3, stream(5, "judge"))
        assert rows == loop_judge_sweep(ds, [1, 3, 5], [0.0], 3, stream(5, "judge"))
        assert rows[-1]["delta"] == -0.5  # s000 is correct in q0, q2, q4

    def test_sweep_validates_n_resample(self, tmp_path):
        with pytest.raises(ValueError, match="n_resample"):
            judge_sweep(ragged_dataset(tmp_path, 0), [1], [0.0], 0, stream(0, "judge"))

    @pytest.mark.parametrize("T", [-1.0, math.nan])
    def test_sweep_validates_temperatures(self, T, tmp_path):
        with pytest.raises(ValueError, match="every T must be >= 0"):
            judge_sweep(ragged_dataset(tmp_path, 0), [1], [0.0, T], 1, stream(0, "judge"))


class TestPartialShuffle:
    """The stopped shuffle's prefixes are uniform, and a row reads only its own k steps."""

    @pytest.mark.parametrize("n, k, others", [(5, 2, ()), (4, 4, (3, 6))], ids=["5_choose_2", "all_4_among_3_6"])
    def test_ordered_prefixes_are_uniform(self, n, k, others):
        # every ordered k-prefix of the size-n group is one of n!/(n - k)! equally likely cells;
        # the other sizes share the steps, so they must not bias it
        n_per_size, n_resample = 500, 40
        counts = np.repeat([n, *others], n_per_size)
        ds = JudgeDataset(question_ids=np.arange(counts.size).astype(str),
                          starts=np.concatenate([[0], np.cumsum(counts)[:-1]]),
                          rewards=np.zeros(counts.sum()), correct=np.zeros(counts.sum()))
        groups = _draw_groups(ds, counts, n_resample, k, stream(0, "judge"))
        prefix = next(prefix for _, rewards, _, prefix in groups if rewards.shape[1] == n)
        assert prefix.shape == (k, n_per_size, n_resample) and prefix.dtype == np.int32
        codes = np.ravel_multi_index(tuple(prefix.reshape(k, -1)), (n,) * k)
        observed = np.bincount(codes, minlength=n**k)
        cells = [np.ravel_multi_index(p, (n,) * k) for p in itertools.permutations(range(n), k)]
        assert observed.sum() == observed[cells].sum()  # no entry repeats within a prefix
        expected = observed.sum() / len(cells)
        chisq = float(((observed[cells] - expected) ** 2).sum() / expected)
        assert chisq < chi2.ppf(0.999, len(cells) - 1), chisq

    @pytest.mark.parametrize("seed", [0, 1])
    def test_rows_do_not_depend_on_the_grid_beyond_their_k(self, seed, tmp_path):
        ds = ragged_dataset(tmp_path, seed)  # counts 1..19: several groups stop shuffling along the way
        short = judge_sweep(ds, [1, 2, 3, 7], ORACLE_T, 5, stream(seed, "judge"))
        long = judge_sweep(ds, [1, 2, 3, 7, 12, 19], ORACLE_T, 5, stream(seed, "judge"))
        assert short == long[: len(short)]


def test_extra_record_fields_tolerated(tmp_path):
    path = tmp_path / "extra.jsonl"
    path.write_text(
        '{"question_id": "a", "sample_id": "s0", "reward": 1.0, "correct": 1, "note": "x"}\n'
        '{"question_id": "a", "sample_id": "s1", "reward": 0.5, "correct": 0}\n'
    )
    ds = load_records(path)
    assert ds.question_ids.tolist() == ["a"] and ds.rewards.tolist() == [1.0, 0.5]
    est = judge_sweep(ds, [2], [0.0], 1, stream(0, "judge"))[0]
    assert est["delta"] == -1.0

