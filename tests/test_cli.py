import ast
import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import itslab.cli
import itslab.mc
from itslab import ModelConfig, dlogn_flat_prior, sample_teacher, stream
from itslab.cli import build_parser, main, parse_grid, parse_int_grid, write_csv

from _synth import assert_close, mp_ridge, record_rows, trap_judge_questions, write_records


def run(argv):
    return main(argv)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestParsing:
    def test_comma_grid(self):
        np.testing.assert_allclose(parse_grid("1,2,5.5"), [1, 2, 5.5])

    def test_log_grid(self):
        g = parse_grid("log:1,100,3")
        np.testing.assert_allclose(g, [1, 10, 100])

    def test_int_grid_sorted_unique(self):
        np.testing.assert_array_equal(parse_int_grid("5,1,5,2"), [1, 2, 5])
        np.testing.assert_array_equal(parse_int_grid("log:1,100,3"), [1, 10, 100])

    def test_bad_grid_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_grid("log:1,2")


class TestWriteCsv:
    def test_schema_mismatch_rejected(self, tmp_path):
        with pytest.raises(RuntimeError, match="schema"):
            write_csv(tmp_path / "x.csv", ["a", "b"], [{"a": 1}])

    def test_round_trip(self, tmp_path):
        path = write_csv(tmp_path / "x.csv", ["a", "b"], [{"a": 1, "b": 0.5}])
        assert path.read_text() == "a,b\n1,0.5\n"


class TestDeterminism:
    def test_sweep_k_byte_identical_across_threads(self, tmp_path):
        base = [
            "sweep-k", "--k-grid", "1,3", "--c-grid", "0,2", "--n-outer", "30",
            "--n-inner", "10", "--seed", "7",
        ]
        out1, out2, out3 = (str(tmp_path / f"{i}.csv") for i in range(3))
        assert run(base + ["--out", out1, "--threads", "1"]) == 0
        assert run(base + ["--out", out2, "--threads", "2"]) == 0
        assert run(base + ["--out", out3, "--threads", "1"]) == 0
        assert read_bytes(out1) == read_bytes(out2) == read_bytes(out3)

    def test_exact_sweep_k_byte_identical_across_threads_and_reruns(self, tmp_path):
        base = [
            "sweep-k", "--mode", "exact", "--n-datasets", "2", "--d", "6", "--n", "40",
            "--k-grid", "1,3", "--c-grid", "0,2", "--T", "0", "--n-outer", "20",
            "--n-inner", "10", "--seed", "7",
        ]
        outs = [tmp_path / f"{i}.csv" for i in range(4)]
        for out, threads in zip(outs, ["1", "2", "3", "1"]):
            assert run(base + ["--out", str(out), "--threads", threads]) == 0
        assert len({read_bytes(out) for out in outs}) == 1

    def test_judge_byte_identical(self, tmp_path):
        rec = tmp_path / "r.jsonl"
        write_records(rec, record_rows(trap_judge_questions(np.random.default_rng(0), 10, 8)))
        base = ["judge", "--records", str(rec), "--k-grid", "1,4", "--t-grid",
                "0,1", "--n-resample", "4", "--seed", "5"]
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run(base + ["--out", out1]) == 0
        assert run(base + ["--out", out2]) == 0
        assert read_bytes(out1) == read_bytes(out2)


_SMALL_MC = ["--n-outer", "3", "--n-inner", "4"]

# one small run per subcommand (judge's record file is added where it runs)
_EVERY_SUBCOMMAND = {
    "ridge": ["ridge", "--d", "3", "--n", "30"],
    "sweep-k": ["sweep-k", "--d", "3", "--n", "30", "--k-grid", "1,4", *_SMALL_MC],
    "sweep-t": ["sweep-t", "--d", "3", "--n", "30", "--k", "4", "--t-grid-sigma2", "1,10",
                *_SMALL_MC],
    "sweep-c": ["sweep-c", "--d", "3", "--n", "30", "--k", "4", "--c-grid", "1,10", *_SMALL_MC],
    "polar-map": ["polar-map", "--d", "2", "--n", "100", "--k-grid", "1,2,3,4", "--c-grid", "1e-3",
                  "--theta-grid", "0,1", *_SMALL_MC],
    "tradeoff": ["tradeoff", "--d", "3", "--n-grid", "30,60", "--k-grid", "2,4", *_SMALL_MC],
    "bestofk-check": ["bestofk-check", "--d", "3", "--n", "30", "--k-grid", "2,4", *_SMALL_MC],
    "judge": ["judge", "--k-grid", "1,4", "--t-grid", "0,1", "--n-resample", "2"],
}


# every subcommand at its default grids, with a small Monte Carlo budget
_DEFAULT_GRIDS = {
    "ridge": ["ridge"],
    "sweep-k": ["sweep-k", *_SMALL_MC],
    "sweep-t": ["sweep-t", *_SMALL_MC],
    "sweep-c": ["sweep-c", *_SMALL_MC],
    "polar-map": ["polar-map", "--d", "2", "--n", "100", *_SMALL_MC],
    "tradeoff": ["tradeoff", *_SMALL_MC],
    "bestofk-check": ["bestofk-check", *_SMALL_MC],
    "judge": ["judge", "--n-resample", "2"],
}


@pytest.mark.parametrize("sub", sorted(_DEFAULT_GRIDS))
def test_default_grids_byte_identical_within_one_process(sub, tmp_path):
    # the parser is built once per process, so every call shares its default
    # grids and lists: a subcommand that changed one in place would change the next run
    argv = _DEFAULT_GRIDS[sub]
    if sub == "judge":
        rec = tmp_path / "r.jsonl"
        write_records(rec, record_rows(trap_judge_questions(np.random.default_rng(2), 10, 32)))
        argv = argv + ["--records", str(rec)]
    outs = [tmp_path / f"{i}.csv" for i in range(2)]
    for out in outs:
        assert run(argv + ["--out", str(out)]) == 0
    assert read_bytes(outs[0]) == read_bytes(outs[1])


_MC4 = ["--n-outer", "4", "--n-inner", "4"]


def _alpha(value):
    return (f"alpha = d/n = {value} >= 1: the deterministic equivalent assumes alpha < 1, "
            "so det_equiv values here are extrapolated")


_SERIES_T = "series evaluated at t = {} < 5.0; the dropped remainder may not be negligible"
_SERIES_OUT = "the high-temperature series is {} at t = {}, k = {}, not a finite value >= 0"
_DERIVATIVES = "n = {}: sigma^2 d - 2 u^T Cov u <= 0: outside the formula's domain"

# argv at the default config, every warning it prints (in order, without the
# "itslab: warning: " prefix) and the first 16 hex digits of its CSV's SHA-256
_WARNED_RUNS = {
    # the series' accuracy warning comes before the first domain error, though k = 2 fails first
    "sweep_k_order": (["sweep-k", "--d", "2", "--n", "20", "--T-sigma2", "1e-6", "--k-grid", "2,3",
                       *_MC4],
                      [_SERIES_T.format("4.5e-07"),
                       _SERIES_OUT.format("-19.156139367659254", "4.5e-07", 2)],
                      "70dfd1751f2271c5"),
    "sweep_k_alpha": (["sweep-k", "--d", "20", "--n", "10", "--k-grid", "1,4", *_MC4],
                      [_alpha(2), _SERIES_T.format("0.192"),
                       _SERIES_OUT.format("-24.536275962535083", "0.192", 4)],
                      "92cac8dc288c2635"),
    # the series is exact at k = 1, so only k = 4's leaves the float range
    "sweep_k_no_series": (["sweep-k", "--T", "1e-300", "--k-grid", "1,4", "--c-grid", "0,2", *_MC4],
                          [_SERIES_T.format("5e-293"), _SERIES_OUT.format("nan", "5e-293", 4)],
                          "a358bff6877648a1"),
    "sweep_t_alpha": (["sweep-t", "--d", "20", "--n", "10", "--k", "2", "--t-grid-sigma2", "2,20",
                       *_MC4],
                      [_alpha(2), "k must be > 2, got 2"],
                      "40fe219f7d1851cc"),
    # a repeated n repeats its warnings
    "tradeoff_repeat": (["tradeoff", "--n-grid", "5,8,5", "--k-grid", "1,4", *_MC4],
                        [_alpha(2), _DERIVATIVES.format(5), _alpha(1.25), _DERIVATIVES.format(8),
                         _alpha(2), _DERIVATIVES.format(5)],
                        "a9aeae05c3fad14e"),
    "bestofk_alpha": (["bestofk-check", "--d", "20", "--n", "10", "--k-grid", "1,10", *_MC4],
                      [_alpha(2),
                       "2 u^T Cov u / (sigma^2 d) = 169030842.3488 >= 1: outside the closed form's domain",
                       "c_k = (pi / 2 k^2) e^lambda leaves the float range at lambda = 1.62648e+06"],
                      "07b888717242ec73"),
    "bestofk_sigma0": (["bestofk-check", "--sigma", "0", "--mode", "de", "--k-grid", "1,10", *_MC4],
                       ["the averaged predictive variance is 0.0; the series needs s2 > 0"],
                       "549a66dfbb3c19a3"),
    # one clean run per subcommand
    "ridge": (["ridge"], [], "a8d6635c9384d7dd"),
    "sweep-k": (["sweep-k", "--k-grid", "1,4", *_MC4], [], "a6782028baba174b"),
    "sweep-t": (["sweep-t", "--k", "4", "--t-grid-sigma2", "5,50", *_MC4], [], "ff35b2d0cfbf5f7a"),
    "sweep-c": (["sweep-c", "--k", "4", "--c-grid", "1,10", *_MC4], [], "79b02a2c9f7a14d0"),
    "polar-map": (["polar-map", "--d", "2", "--n", "100", "--k-grid", "1,2,3,4", "--c-grid", "1e-3",
                   "--theta-grid", "0,1", *_MC4], [], "c514b18c701ec4eb"),
    "tradeoff": (["tradeoff", "--n-grid", "10000,20000", "--k-grid", "2,4", *_MC4], [],
                 "76d243e28a04b4c6"),
    "bestofk-check": (["bestofk-check", "--k-grid", "100,1000", *_MC4], [], "853195f2ce783467"),
    "judge": (["judge", "--k-grid", "1,4", "--t-grid", "0,1", "--n-resample", "2"], [],
              "d3558f5f406f0642"),
}


def _run_warned(name, tmp_path):
    """Run ``_WARNED_RUNS[name]``; returns its expected warnings, its CSV digest and its output path."""
    argv, warned, digest = _WARNED_RUNS[name]
    if name == "judge":
        rec = write_records(tmp_path / "r.jsonl",
                            record_rows(trap_judge_questions(np.random.default_rng(0), 5, 4)))
        argv = argv + ["--records", str(rec)]
    out = tmp_path / "x.csv"
    assert run(argv + ["--out", str(out)]) == 0
    return warned, digest, out


@pytest.mark.parametrize("name", sorted(_WARNED_RUNS))
def test_warnings_and_csv_bytes_are_pinned(name, tmp_path, capsys):
    warned, digest, out = _run_warned(name, tmp_path)
    assert capsys.readouterr().err.splitlines() == [f"itslab: warning: {w}" for w in warned]
    assert hashlib.sha256(read_bytes(out)).hexdigest()[:16] == digest


@pytest.mark.parametrize("name", sorted(_WARNED_RUNS))
def test_manifest_lists_every_warning_printed(name, tmp_path, capsys):
    warned, _, out = _run_warned(name, tmp_path)
    printed = [line.removeprefix("itslab: warning: ") for line in capsys.readouterr().err.splitlines()]
    assert json.loads(Path(f"{out}.manifest.json").read_text())["warnings"] == printed == warned


def test_warned_run_that_exits_1_writes_no_manifest(tmp_path, capsys):
    # the alpha >= 1 warning is printed before the engine refuses the run
    assert run(["sweep-k", "--d", "20", "--n", "10", "--T", "0", "--c-grid", "0,1e100", "--k-grid", "1,4",
                *_MC4, "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == f"itslab: warning: {_alpha(2)}"
    assert err[1].startswith("itslab: error: the reward target lies up to ")
    assert list(tmp_path.iterdir()) == []


_FIG = ["--n-outer", "50", "--n-inner", "50"]


class TestRewardOffset:
    """A reward target past 2**32 predictive standard deviations is refused, not rounded away."""

    @pytest.mark.parametrize("argv", [
        ["sweep-k", "--T", "0", "--c-grid", "0,1e100", "--k-grid", "1,4", *_FIG],
        ["sweep-k", "--T", "0", "--c-grid", "0,1e100", "--k-grid", "1,4", *_MC4],
        ["sweep-k", "--mode", "exact", "--d", "10", "--n", "100", "--T", "0", "--c-grid", "0,1e100",
         "--k-grid", "1,4", *_FIG],
        ["sweep-c", "--T", "0", "--k", "4", "--c-grid", "1,1e100", *_FIG],
        ["sweep-k", "--T-sigma2", "20", "--c-grid", "0,1e100", "--k-grid", "1,4", *_FIG],
        ["sweep-k", "--mode", "exact", "--d", "10", "--n", "100", "--T-sigma2", "20",
         "--c-grid", "0,1e100", "--k-grid", "1,4", *_FIG],
        # past 1e160 the T = 0 root solve divided by zero
        ["sweep-k", "--T", "0", "--c-grid", "0,1e160", "--k-grid", "1,4", *_FIG],
        # the first c whose k = 1 cell drifted
        ["sweep-k", "--T", "0", "--c-grid", "1e16", "--k-grid", "1,4", *_FIG],
    ], ids=["de_T0", "de_T0_small", "exact_T0", "sweep_c_T0", "de_hot", "exact_hot", "de_T0_1e160",
            "de_T0_1e16"])
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_far_reward_exits_1(self, argv, threads, tmp_path, capsys):
        # pytest turns any numpy RuntimeWarning into an error, so none is raised on the way
        assert run(argv + ["--threads", threads, "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("itslab: error: the reward target lies up to ")
        assert err[0].endswith(" predictive standard deviations from the predictive mean, past 2^32: "
                               "rounding in y - mu_R would wipe out the draws")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, digest", [
        (["sweep-k", "--T", "0", "--c-grid", "0,1e6", "--k-grid", "1,4"], "394812a2e6fbc1a1"),
        (["sweep-k", "--T-sigma2", "20", "--c-grid", "0,1e6", "--k-grid", "1,4"], "91a26b312e4a2af3"),
        (["sweep-k", "--mode", "exact", "--d", "10", "--n", "100", "--T", "0", "--c-grid", "0,1e6",
          "--k-grid", "1,4"], "1cac6ff27ea93a1c"),
        (["sweep-c", "--T", "0", "--k", "4", "--c-grid", "1,1e6"], "02feadc1ff961847"),
    ], ids=["de_T0", "de_hot", "exact_T0", "sweep_c_T0"])
    def test_reward_a_million_sds_out_runs_unchanged(self, argv, digest, tmp_path):
        out = tmp_path / "x.csv"
        assert run(argv + [*_FIG, "--out", str(out)]) == 0
        assert hashlib.sha256(read_bytes(out)).hexdigest()[:16] == digest

    def test_k1_cells_at_positive_T_do_not_depend_on_the_reward(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["sweep-k", "--T-sigma2", "20", "--c-grid", "0,1,1e3,1e6", "--k-grid", "1,4", *_FIG,
                    "--out", str(out)]) == 0
        with open(out) as fh:
            k1 = {(r["delta"], r["stderr"]) for r in csv.DictReader(fh)
                  if r["mode"] == "det_equiv" and r["k"] == "1"}
        assert len(k1) == 1


class TestSubcommands:
    def test_ridge_writes_csv_and_manifest(self, tmp_path):
        out = tmp_path / "ridge.csv"
        assert run(["ridge", "--d", "10", "--n", "10000", "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "R,A,B,m1,m2,var_z,sigma_c"
        manifest = json.loads((tmp_path / "ridge.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "ridge"
        assert manifest["config"]["d"] == 10
        assert "wall_time_s" in manifest

    @pytest.mark.parametrize("spec", ["lin:1e-4,2e-4,1001", "log:1e-6,3e-2,17"])
    def test_manifest_stores_grids_exactly(self, spec, tmp_path):
        # numpy's print form kept 8 digits and elided grids past 1000 entries
        out = tmp_path / "t.csv"
        argv = ["sweep-t", "--t-grid", spec, "--k", "2", "--n-outer", "2", "--n-inner", "2"]
        assert run(argv + ["--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
        assert manifest["flags"]["t_grid"] == parse_grid(spec).tolist()

    def test_ridge_stdout_mode(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("ITSLAB_OUT_DIR", str(tmp_path / "env"))
        assert run(["ridge", "--d", "4", "--n", "100"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "R,A,B,m1,m2,var_z,sigma_c"
        assert len(lines) == 2
        assert list(tmp_path.iterdir()) == []  # no CSV and no manifest

    def test_sweep_k_columns_present(self, tmp_path):
        out = tmp_path / "sk.csv"
        assert run([
            "sweep-k", "--k-grid", "1,2", "--c-grid", "0", "--n-outer", "10",
            "--n-inner", "5", "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        for col in ("k", "c", "delta", "stderr", "theory_highT"):
            assert col in header
        modes = {line.split(",")[0] for line in lines[1:]}
        assert modes == {"det_equiv", "theory_highT"}

    def test_bestofk_check_theory_rows(self, tmp_path):
        out = tmp_path / "bk.csv"
        assert run([
            "bestofk-check", "--k-grid", "10,40", "--n-outer", "20",
            "--n-inner", "10", "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        for col in ("k2_delta", "asymptote"):
            assert col in header
        modes = {line.split(",")[0] for line in lines[1:]}
        assert modes == {"det_equiv", "theory_refined", "theory_bestofk"}
        # the two theory routes agree in the flat-variance regime
        import math

        by_mode = {}
        for line in lines[1:]:
            parts = line.split(",")
            by_mode.setdefault(parts[0], []).append(float(parts[10]))
        for a, b in zip(by_mode["theory_refined"], by_mode["theory_bestofk"]):
            assert math.isclose(a, b, rel_tol=0.05)

    def test_polar_map_labels(self, tmp_path):
        out = tmp_path / "pm.csv"
        assert run([
            "polar-map", "--d", "2", "--c-grid", "1e-4,1e-3,1e-2",
            "--theta-grid", "0,2,4", "--k-grid", "1,2,3,5,8,12",
            "--n-outer", "40", "--n-inner", "20", "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 10  # header + 9 cells
        labels = {line.split(",")[9] for line in lines[1:]}
        assert labels <= {"monotone", "non_monotone"}

    def test_sweep_k_at_zero_temperature_matches_bestofk_check(self, tmp_path):
        flags = ["--k-grid", "1,10,100", "--n-outer", "20", "--n-inner", "10", "--seed", "3"]
        sk, bk = tmp_path / "sk.csv", tmp_path / "bk.csv"
        assert run(["sweep-k", "--T", "0", "--c-grid", "0"] + flags + ["--out", str(sk)]) == 0
        assert run(["bestofk-check"] + flags + ["--out", str(bk)]) == 0

        def mc_deltas(path):
            rows = [line.split(",") for line in path.read_text().splitlines()]
            col = rows[0].index("delta")
            return [(r[6], r[col]) for r in rows[1:] if r[0] == "det_equiv"]

        sweep_rows = sk.read_text().splitlines()
        assert {line.split(",")[0] for line in sweep_rows[1:]} == {"det_equiv"}
        assert all(line.endswith(",") for line in sweep_rows[1:])  # theory_highT empty
        assert mc_deltas(sk) == mc_deltas(bk)
        assert len(mc_deltas(sk)) == 3

    def test_polar_map_passes_n_datasets(self, tmp_path):
        out = tmp_path / "pm.csv"
        assert run([
            "polar-map", "--d", "2", "--mode", "exact", "--n-datasets", "5",
            "--c-grid", "1e-3", "--theta-grid", "0", "--k-grid", "1,2,3",
            "--n-outer", "3", "--n-inner", "5", "--out", str(out),
        ]) == 0
        header, row = out.read_text().splitlines()
        assert row.split(",")[header.split(",").index("n_outer")] == "15"

    def test_sweep_k_prior_only(self, tmp_path, capsys):
        # n = 0: exact mode samples the prior; the series needs n > 0
        out = tmp_path / "sk.csv"
        flags = ["sweep-k", "--n", "0", "--k-grid", "1,4", "--n-outer", "5",
                 "--n-inner", "5", "--out", str(out)]
        for T in ("0", "1e-6"):
            assert run(flags + ["--mode", "exact", "--T", T]) == 0
            rows = out.read_text().splitlines()[1:]
            assert len(rows) == 2
            assert all(r.startswith("exact_posterior,") and r.endswith(",") for r in rows)
        assert run(flags + ["--mode", "de", "--T", "0"]) == 1
        assert "det_equiv mode requires n > 0" in capsys.readouterr().err

    def test_sweep_t_prior_only(self, tmp_path, capsys):
        out = tmp_path / "st.csv"
        flags = ["sweep-t", "--n", "0", "--k", "4", "--t-grid-sigma2", "2,20",
                 "--n-outer", "5", "--n-inner", "5", "--out", str(out)]
        assert run(flags + ["--mode", "exact"]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all(r.endswith(",") for r in rows)  # theory_T_opt empty
        assert run(flags + ["--mode", "de"]) == 1
        assert "det_equiv mode requires n > 0" in capsys.readouterr().err

    def test_bestofk_check_prior_only(self, tmp_path, capsys):
        # n = 0: the closed forms need the fixed point, so asymptote stays
        # empty and no theory rows are written
        out = tmp_path / "bk.csv"
        flags = ["bestofk-check", "--n", "0", "--k-grid", "1,4", "--n-outer", "5",
                 "--n-inner", "5", "--out", str(out)]
        assert run(flags + ["--mode", "exact"]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all(r.startswith("exact_posterior,") and r.endswith(",") for r in rows)
        assert run(flags + ["--mode", "de"]) == 1
        assert "det_equiv mode requires n > 0" in capsys.readouterr().err

    def test_tradeoff_prior_only(self, tmp_path, capsys):
        out = tmp_path / "to.csv"
        flags = ["tradeoff", "--n-grid", "0,10000", "--k-grid", "1,4",
                 "--n-outer", "5", "--n-inner", "5", "--out", str(out)]
        assert run(flags + ["--mode", "exact"]) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        assert [int(r[2]) for r in rows] == [0] * 4 + [10000] * 4
        assert all(r[-3:] == ["", "", ""] for r in rows[:4])  # dlogk, dlogn, closed form
        assert all("" not in r[-3:] for r in rows[4:])
        assert run(flags + ["--mode", "de"]) == 1
        assert "det_equiv mode requires n > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("sub, c_flags", [
        (["sweep-k", "--k-grid", "1,4"], ["--c-grid", "0,5"]),
        (["sweep-t", "--k", "4", "--t-grid-sigma2", "2,20"], ["--c", "5"]),
        (["sweep-c", "--k", "4"], ["--c-grid", "0,5"]),
    ], ids=["sweep-k", "sweep-t", "sweep-c"])
    def test_radial_offset_needs_n(self, sub, c_flags, tmp_path, capsys):
        # w_R = (1 + c R/(R + S^2)) w_T: without the ridge R of n > 0 every c is c = 0
        out = tmp_path / "x.csv"
        flags = sub + ["--n", "0", "--mode", "exact", *_SMALL_MC, "--out", str(out)]
        assert run(flags + c_flags) == 1
        assert capsys.readouterr().err == (
            "itslab: error: the radial reward family requires n > 0 for c != 0\n")
        assert not out.exists()
        assert run(flags + [c_flags[0], "0"]) == 0

    @pytest.mark.parametrize("mode", ["exact", "de"])
    def test_bestofk_check_outside_refined_domain(self, mode, tmp_path, capsys):
        # n = 1000 puts 2 u^T Cov u / (sigma^2 d) above 1: the refined column
        # stays empty, the extreme-value rows are still written
        out = tmp_path / "bk.csv"
        assert run([
            "bestofk-check", "--mode", mode, "--d", "10", "--n", "1000",
            "--k-grid", "1,10,100", "--n-outer", "5", "--n-inner", "5", "--out", str(out),
        ]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("itslab: warning: 2 u^T Cov u / (sigma^2 d) = ")
        assert err[0].endswith("outside the closed form's domain")
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        modes = [r[0] for r in rows]
        mc_mode = "exact_posterior" if mode == "exact" else "det_equiv"
        assert modes == [mc_mode, "theory_bestofk"] * 3
        assert all(r[-1] == "" for r in rows)  # asymptote
        assert all(float(r[10]) > 0 for r in rows)

    def test_bestofk_check_warns_once_per_failing_closed_form(self, tmp_path, capsys):
        # n = 20 leaves the refined law's domain, and c_k leaves the float range
        out = tmp_path / "bk.csv"
        assert run(["bestofk-check", "--n", "20", "--k-grid", "1,10,100", *_SMALL_MC,
                    "--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert err[0].startswith("itslab: warning: 2 u^T Cov u / (sigma^2 d) = ")
        assert err[1].startswith("itslab: warning: c_k = (pi / 2 k^2) e^lambda leaves the float range")
        assert [r.split(",")[0] for r in out.read_text().splitlines()[1:]] == ["det_equiv"] * 3

    def test_tradeoff_keeps_valid_n_outside_domain(self, tmp_path, capsys):
        # n = 1000 is outside the derivative formula's domain, n = 10000 is not
        out = tmp_path / "to.csv"
        assert run([
            "tradeoff", "--n-grid", "1000,10000", "--k-grid", "1,4",
            "--n-outer", "5", "--n-inner", "5", "--out", str(out),
        ]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "itslab: warning: n = 1000: sigma^2 d - 2 u^T Cov u <= 0: outside the formula's domain"
        ]
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        assert [int(r[2]) for r in rows] == [1000] * 4 + [10000] * 4
        assert all(float(r[10]) > 0 for r in rows)  # every Monte Carlo delta
        assert all(r[-3:] == ["", "", ""] for r in rows[:4])
        assert all("" not in r[-3:] for r in rows[4:])

    def test_sweep_t_warns_without_stationary_temperature(self, tmp_path, capsys):
        # k = 2 has no stationary temperature: the column stays empty, with a warning
        out = tmp_path / "st.csv"
        assert run([
            "sweep-t", "--k", "2", "--t-grid-sigma2", "2,20", "--n-outer", "5",
            "--n-inner", "5", "--out", str(out),
        ]) == 0
        assert capsys.readouterr().err.splitlines() == ["itslab: warning: k must be > 2, got 2"]
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 2 and all(r.endswith(",") for r in rows)  # theory_T_opt

    def test_bestofk_check_aligned_reward_at_huge_n(self, tmp_path, capsys):
        # b = 1e-12: the aligned reward's series terms are formed without cancelling, so both closed forms apply
        out = tmp_path / "bk.csv"
        assert run(["bestofk-check", "--n", "10000000000000", "--k-grid", "4", "--n-outer", "2",
                    "--n-inner", "2", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["mode"] for r in rows] == ["det_equiv", "theory_refined", "theory_bestofk"]
        assert all(float(r["asymptote"]) > 0 for r in rows)
        # with Dt^2 ~ 1e-20 << s^2 both are pi sigma^2/(2 k^2) (1 + ...)
        assert float(rows[2]["delta"]) == pytest.approx(float(rows[1]["delta"]), rel=1e-11)

    def test_sweep_k_flags_slowly_falling_series_terms(self, tmp_path, capsys):
        # t = 10 at T = 20 sigma^2, but at c = 50 the second term is 2.3 times the first
        out = tmp_path / "sk.csv"
        assert run(["sweep-k", "--T-sigma2", "20", "--k-grid", "1,4", "--c-grid", "0,5,50", "--n-outer", "5",
                    "--n-inner", "5", "--seed", "3", "--out", str(out)]) == 0
        assert capsys.readouterr().err == (
            "itslab: warning: series terms fall slowly: |C_2|/(|C_1| t) = 2.34 > 0.4; "
            "the dropped remainder may not be negligible\n")
        # at T = 200 sigma^2 the ratio is 0.23
        assert run(["sweep-k", "--T-sigma2", "200", "--k-grid", "1,4", "--c-grid", "0,5,50", "--n-outer", "5",
                    "--n-inner", "5", "--seed", "3", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""

    def test_bestofk_check_zero_predictive_variance(self, tmp_path, capsys):
        # sigma = 0 in de mode: s = 0 everywhere, so no closed form applies
        out = tmp_path / "bk.csv"
        assert run([
            "bestofk-check", "--sigma", "0", "--mode", "de", "--k-grid", "1,10",
            "--n-outer", "5", "--n-inner", "5", "--out", str(out),
        ]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("itslab: warning: the averaged predictive")
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["det_equiv"] * 2
        assert all(r[-1] == "" and float(r[10]) >= 0 for r in rows)  # asymptote empty

    @pytest.mark.parametrize("flags, warnings, series_ks", [
        # t = T / (2 s^2) leaves the float range in the series' c/t**l terms at k = 4; the series is
        # Dt^2 + s^2 at k = 1, whatever t is
        (["--T", "1e-300"], [_SERIES_T.format("5e-293"), _SERIES_OUT.format("nan", "5e-293", 4)], ["1"]),
        # t**l overflows where c/t^l does not, which the series forms without t**l
        (["--T", "1e300"], [], ["1", "4"]),
        # sigma = 0 in de mode: the averaged predictive variance is 0
        (["--sigma", "0", "--mode", "de", "--T", "1"],
         ["the averaged predictive variance is 0.0; the series needs s2 > 0"], []),
    ], ids=["T_tiny", "T_huge", "sigma_zero"])
    def test_sweep_k_without_series_keeps_monte_carlo_rows(self, flags, warnings, series_ks, tmp_path, capsys):
        out = tmp_path / "sk.csv"
        assert run(["sweep-k", "--k-grid", "1,4", "--c-grid", "0,2", "--n-outer", "5",
                    "--n-inner", "5", "--out", str(out)] + flags) == 0
        assert capsys.readouterr().err.splitlines() == [f"itslab: warning: {w}" for w in warnings]
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        modes = [mode for k in ("1", "4") for mode in ["det_equiv", *["theory_highT"] * (k in series_ks)]]
        assert [r["mode"] for r in rows] == modes * 2
        assert all(float(r["delta"]) >= 0 for r in rows)
        assert all((r["theory_highT"] != "") == (r["k"] in series_ks) for r in rows)

    def test_judge_overlay_keeps_each_files_bytes(self, tmp_path):
        # a file's rows depend on its name, not on its directory or on the other files of the run
        argv, _, digest = _WARNED_RUNS["judge"]
        paths = []
        for seed, name in enumerate(["a/r.jsonl", "b/q.jsonl"]):
            (tmp_path / name).parent.mkdir()
            rows = record_rows(trap_judge_questions(np.random.default_rng(seed), 5, 4))
            paths.append(write_records(tmp_path / name, rows))
        rec, other = paths
        out = tmp_path / "x.csv"
        assert run(argv + ["--records", str(other), "--records", str(rec), "--out", str(out)]) == 0
        lines = out.read_text().splitlines(keepends=True)
        assert {line.split(",")[0] for line in lines[1:]} == {"q.jsonl", "r.jsonl"}
        own = "".join([lines[0]] + [line for line in lines[1:] if line.startswith("r.jsonl,")])
        assert hashlib.sha256(own.encode()).hexdigest()[:16] == digest

    def test_judge_accuracy_column_is_minus_delta(self, tmp_path):
        rec = write_records(tmp_path / "r.jsonl",
                            record_rows(trap_judge_questions(np.random.default_rng(0), 6, 4)))
        base = ["judge", "--records", str(rec), "--k-grid", "1,4", "--t-grid", "0,1", "--n-resample", "2"]
        tables = {}
        for flags in ([], ["--accuracy"]):
            out = tmp_path / f"{len(flags)}.csv"
            assert run(base + flags + ["--out", str(out)]) == 0
            with open(out) as fh:
                reader = csv.DictReader(fh)
                tables[bool(flags)] = reader.fieldnames, list(reader)
        (header, rows), (scored_header, scored) = tables[False], tables[True]
        assert "accuracy" not in header and scored_header == header + ["accuracy"]
        assert len(rows) == 4 and [{c: r[c] for c in header} for r in scored] == rows
        assert all(float(r["accuracy"]) == -float(r["delta"]) for r in scored)

    def test_de_mode_warns_outside_its_regime(self, tmp_path, capsys):
        # alpha = d/n = 2: det_equiv still runs, with one warning; exact mode has no such regime.
        # Both modes flag the series, which is negative at k = 4 here (t = 0.192)
        out = tmp_path / "sk.csv"
        flags = ["sweep-k", "--d", "20", "--n", "10", "--k-grid", "1,4", "--n-outer", "5",
                 "--n-inner", "5", "--out", str(out)]
        series = [f"itslab: warning: {w}"
                  for w in (_SERIES_T.format("0.192"), _SERIES_OUT.format("-24.536275962535083", "0.192", 4))]
        assert run(flags + ["--mode", "de"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err[0] == (
            "itslab: warning: alpha = d/n = 2 >= 1: the deterministic equivalent assumes "
            "alpha < 1, so det_equiv values here are extrapolated"
        )
        assert err[1:] == series
        assert [r.split(",")[0] for r in out.read_text().splitlines()[1:]] == [
            "det_equiv", "theory_highT", "det_equiv"]
        assert run(flags + ["--mode", "exact"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == series

    def test_sweep_k_flags_series_outside_its_domain(self, tmp_path, capsys):
        # t = T / (2 s^2) is about 5e-5: the series is exact at k = 1 and negative beyond
        out = tmp_path / "sk.csv"
        assert run(["sweep-k", "--T", "1e-12", "--k-grid", "1,2,50", "--n-outer", "4",
                    "--n-inner", "4", "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"itslab: warning: {_SERIES_T.format('5e-05')}",
            f"itslab: warning: {_SERIES_OUT.format('-0.00010878513335015638', '5e-05', 2)}",
        ]
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        assert [(r[0], r[6]) for r in rows] == [
            ("det_equiv", "1"), ("theory_highT", "1"), ("det_equiv", "2"), ("det_equiv", "50")]
        assert rows[0][-1] == rows[1][-1] != "" and float(rows[1][-1]) > 0
        assert rows[2][-1] == rows[3][-1] == ""

    @pytest.mark.parametrize("sub", sorted(_EVERY_SUBCOMMAND))
    def test_one_csv_and_one_manifest(self, sub, tmp_path):
        argv = list(_EVERY_SUBCOMMAND[sub])
        if sub == "judge":
            rec = write_records(tmp_path / "r.jsonl",
                                record_rows(trap_judge_questions(np.random.default_rng(0), 5, 4)))
            argv += ["--records", str(rec)]
        out = tmp_path / "out" / "x.csv"
        assert run(argv + ["--seed", "3", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.parent.iterdir()) == ["x.csv", "x.csv.manifest.json"]
        manifest = json.loads((out.parent / "x.csv.manifest.json").read_text())
        assert list(manifest) == ["subcommand", "config", "flags", "seed", "version", "output",
                                  "wall_time_s", "warnings"]
        assert manifest["subcommand"] == sub
        assert manifest["output"] == str(out)
        assert manifest["seed"] == 3
        assert "func" not in manifest["flags"]
        assert manifest["wall_time_s"] > 0

    def test_every_subcommand_is_covered(self):
        subparsers = next(a for a in build_parser()._actions if a.dest == "subcommand")
        assert set(subparsers.choices) == set(_EVERY_SUBCOMMAND)

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ITSLAB_OUT_DIR", str(tmp_path))
        assert run(["ridge", "--d", "3", "--n", "30", "--out", "sub/r.csv"]) == 0
        assert (tmp_path / "sub" / "r.csv").exists()

    def test_config_file_plus_override(self, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("d = 6\nn = 600\nsigma = 0.01\n")
        out = tmp_path / "r.csv"
        assert run(["ridge", "--config", str(cfg), "--n", "1200", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
        assert manifest["config"]["n"] == 1200
        assert manifest["config"]["d"] == 6


def _model_flag_dests(subparser):
    group = next(g for g in subparser._action_groups if g.title == "model")
    return {a.dest for a in group._group_actions} - {"config"}


class TestConfigSchema:
    """ModelConfig's fields are the one schema of config files and model flags."""

    def test_fields_file_keys_and_flags_agree(self, tmp_path):
        names = {f.name for f in dataclasses.fields(ModelConfig)}
        subparsers = next(a for a in build_parser()._actions if a.dest == "subcommand").choices
        with_model = [p for p in subparsers.values() if "--config" in p._option_string_actions]
        assert len(with_model) == len(subparsers) - 1  # every subcommand but judge
        dests = [_model_flag_dests(p) for p in with_model]
        defaults = dataclasses.asdict(ModelConfig())

        def accepted(key):
            path = tmp_path / "key.cfg"
            path.write_text(f"{key} = {defaults.get(key, 1)}\n")
            try:
                return ModelConfig.from_file(path) == ModelConfig()
            except ValueError:
                return False

        candidates = names.union(*dests, {"alpha", "config", "seed", "dd"})
        assert {key for key in candidates if accepted(key)} == names
        assert all(d == names for d in dests)

    def test_file_key_alone_matches_its_flag(self, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("sigma = 1e-3\n")  # no d, no n: the defaults flags use
        flags = ["sweep-k", "--k-grid", "1,4", "--c-grid", "0,2", *_SMALL_MC]
        assert run(flags + ["--config", str(cfg), "--out", str(tmp_path / "file.csv")]) == 0
        assert run(flags + ["--sigma", "1e-3", "--out", str(tmp_path / "flag.csv")]) == 0
        assert read_bytes(tmp_path / "file.csv") == read_bytes(tmp_path / "flag.csv")

    def test_file_without_n_takes_the_flag(self, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("S = 2\n")  # no d either: it takes the default
        out = tmp_path / "r.csv"
        assert run(["ridge", "--config", str(cfg), "--n", "50", "--out", str(out)]) == 0
        config = json.loads((tmp_path / "r.csv.manifest.json").read_text())["config"]
        assert config == dataclasses.asdict(ModelConfig(d=10, n=50, S=2.0))

    @pytest.mark.parametrize("text, message", [
        ("dd = 4\n", "unknown config key 'dd' in {cfg}"),
        ("d = ten\n", "{cfg}:1: key 'd': invalid literal for int() with base 10: 'ten'"),
        ("sigma = small\n", "{cfg}:1: key 'sigma': could not convert string to float: 'small'"),
        ("d 4\n", "{cfg}:1: expected 'key = value', got 'd 4'"),
        ("d = 4\n# ten thousand\nn = 1e4\n",
         "{cfg}:3: key 'n': invalid literal for int() with base 10: '1e4'"),
        ("d = 4\nsigma = 0.1\nd = 5\n", "{cfg}:3: repeated key 'd'"),
        ("tau = nan\n", "tau must be >= 0, got nan"),
        ("sigma = nan\n", "sigma must be >= 0, got nan"),
    ], ids=["unknown_key", "bad_int", "bad_float", "no_separator", "int_in_float_form",
            "repeated_key", "tau_nan", "sigma_nan"])
    def test_faulty_file_is_2_with_its_message(self, text, message, tmp_path, capsys):
        cfg = tmp_path / "m.cfg"
        cfg.write_text(text)
        with pytest.raises(SystemExit) as exc:
            run(["ridge", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
        assert exc.value.code == 2
        assert f"error: {message.format(cfg=cfg)}\n" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["ridge"], ["sweep-k", "--mode", "exact", "--k-grid", "1,2", *_SMALL_MC],
    ], ids=["ridge", "sweep-k"])
    def test_n_past_the_float_range_names_n(self, argv, tmp_path, capsys):
        huge = "1" + "0" * 400  # d/n underflows to 0
        assert run(argv + ["--d", "3", "--n", huge, "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == "itslab: error: n is too large: alpha = d/n = 3/n underflows to 0\n"
        assert not (tmp_path / "x.csv").exists()


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["sweep-k", "--bogus-flag"])
        assert exc.value.code == 2

    def test_grid_value_with_a_leading_minus_is_the_flags_value(self, tmp_path, capsys):
        # argparse took '-5,0' for a flag of its own and exited 2: "expected one argument"
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        mc_flags = ["--k-grid", "1,4", "--n-outer", "4", "--n-inner", "4"]
        assert run(["sweep-k", "--c-grid", "-5,0", *mc_flags, "--out", str(spaced)]) == 0
        assert run(["sweep-k", "--c-grid=-5,0", *mc_flags, "--out", str(joined)]) == 0
        assert read_bytes(spaced) == read_bytes(joined)
        assert {row["c"] for row in csv.DictReader(spaced.read_text().splitlines())} == {"-5.0", "0.0"}
        # a negative infinity or NaN, in any case, is the flag's value too, refused by the flag's own type
        for sub, flag, value, message in [
            ("sweep-k", "--c-grid", "-inf", "cannot parse grid '-inf': '-inf' is not finite"),
            ("sweep-k", "--c-grid", "-Infinity,0", "cannot parse grid '-Infinity,0': '-Infinity' is not finite"),
            ("sweep-t", "--c", "-inf", "invalid finite_float value: '-inf'"),
            ("sweep-t", "--t-grid", "-nan", "cannot parse grid '-nan': '-nan' is not finite"),
            ("sweep-t", "--t-grid", "-NaN,1", "cannot parse grid '-NaN,1': '-NaN' is not finite"),
        ]:
            for argv in ([flag, value], [f"{flag}={value}"]):
                with pytest.raises(SystemExit) as exc:
                    run([sub, *argv, "--out", str(tmp_path / "x.csv")])
                assert exc.value.code == 2
                assert capsys.readouterr().err.endswith(f"error: argument {flag}: {message}\n")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [["--k-grid", "-1,4"], ["--k-grid=-1,4"]], ids=["spaced", "joined"])
    def test_negative_k_grid_prints_the_k_grid_rule(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["sweep-k", *argv, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --k-grid: k grid entries must be integers in [1, 2**63 - 1]\n")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["sweep-k", "--T", "1.0", "--T-sigma2", "10", "--k-grid", "1"],
        ["sweep-t", "--t-grid", "1e-8", "--t-grid-sigma2", "10", "--k", "1"],
    ], ids=["T", "t-grid"])
    def test_conflicting_temperature_flags_is_2(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(tmp_path / "x.csv"), "--n-outer", "2", "--n-inner", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert argv[1] in err and argv[3] in err  # the message names both flags

    def test_runtime_error_is_1(self, tmp_path, capsys):
        code = run(["judge", "--records", str(tmp_path / "missing.jsonl"),
                    "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_judge_records_of_one_name_is_2(self, tmp_path, capsys):
        # rows of two files named r.jsonl would share their source and their permutations
        rows = record_rows(trap_judge_questions(np.random.default_rng(0), 5, 4))
        recs = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            recs.append(write_records(tmp_path / sub / "r.jsonl", rows))
        with pytest.raises(SystemExit) as exc:
            run(["judge", "--records", str(recs[0]), "--records", str(recs[1]), "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: --records files must have distinct names; 'r.jsonl' is given more than once\n")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("line, message", [
        ('{"question_id": "a", "sample_id": "s1", "reward": 1' + "0" * 400 + ', "correct": 1}',
         "reward is not finite for ('a', 's1')"),
        ("[" * 100_000, "invalid JSON (maximum recursion depth exceeded"),
    ], ids=["reward_past_float_range", "deep_nesting"])
    def test_judge_record_fault_is_1_with_its_line(self, line, message, tmp_path, capsys):
        rec = tmp_path / "r.jsonl"
        rec.write_text(json.dumps(record_rows({"a": [(0.5, 1)]})[0]) + "\n" + line + "\n")
        assert run(["judge", "--records", str(rec), "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"itslab: error: {rec}:2: {message}") and err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["judge", "--records", "r.jsonl", "--threads", "3"],
        ["ridge", "--threads", "2"],
    ])
    def test_threads_only_on_monte_carlo_subcommands(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [
        ["--threads", "0"],
        ["--mode", "exact", "--n-datasets", "0"],
        ["--mode", "de", "--n-datasets", "3"],
        ["--n-outer", "0"],
        ["--n-inner", "0"],
        ["--k", "0"],
        ["--n-resample", "0"],
    ])
    def test_bad_engine_flags_are_2(self, flags, tmp_path, capsys):
        subs = {"--k": (["sweep-t"], ["sweep-c"]), "--n-resample": (["judge", "--records", "r"],)}
        for sub in subs.get(flags[-2], (["sweep-k", "--k-grid", "1,2"],
                                        ["bestofk-check", "--k-grid", "1,2"])):
            budget = [] if sub[0] == "judge" else ["--n-outer", "3", "--n-inner", "3"]
            with pytest.raises(SystemExit) as exc:
                run(sub + budget + flags + ["--out", str(tmp_path / "x.csv")])
            assert exc.value.code == 2
            assert flags[-2] in capsys.readouterr().err  # the message names the flag
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["sweep-k", "--T", "nan"], "--T"),
        (["sweep-k", "--T-sigma2", "inf"], "--T-sigma2"),
        (["sweep-k", "--c-grid", "nan"], "--c-grid"),
        (["sweep-k", "--c-grid", "inf"], "--c-grid"),
        (["sweep-k", "--k-grid", ","], "--k-grid"),
        (["sweep-k", "--c-grid", "lin:0,1,0"], "--c-grid"),
        (["sweep-c", "--c-grid", "log:1,inf,3", "--k", "2"], "--c-grid"),
        (["sweep-t", "--c", "nan", "--k", "2", "--t-grid-sigma2", "5"], "--c"),
        (["sweep-t", "--t-grid", "lin:-1e308,1e308,3", "--k", "2"], "--t-grid"),
        (["polar-map", "--d", "2", "--theta-grid", "nan", "--k-grid", "1,2"], "--theta-grid"),
        (["polar-map", "--d", "2", "--z-gate", "nan", "--k-grid", "1,2"], "--z-gate"),
        (["tradeoff", "--t-high-sigma2", "nan", "--n-grid", "100", "--k-grid", "2"],
         "--t-high-sigma2"),
        # negative temperatures and sample sizes, and k past the int64 range
        (["sweep-k", "--T", "-1"], "--T"),
        (["sweep-k", "--T-sigma2", "-1"], "--T-sigma2"),
        (["sweep-c", "--T", "-0.5", "--k", "2"], "--T"),
        (["polar-map", "--d", "2", "--T-sigma2", "-1", "--k-grid", "1,2"], "--T-sigma2"),
        (["sweep-t", "--t-grid", "1e-8,-1", "--k", "2"], "--t-grid"),
        (["sweep-t", "--t-grid-sigma2", "lin:-1,1,3", "--k", "2"], "--t-grid-sigma2"),
        (["judge", "--records", "r.jsonl", "--t-grid", "0,-1"], "--t-grid"),
        (["tradeoff", "--n-grid", "-5", "--k-grid", "2"], "--n-grid"),
        (["tradeoff", "--t-high-sigma2", "-1", "--n-grid", "100", "--k-grid", "2"],
         "--t-high-sigma2"),
        (["sweep-k", "--k-grid", "1e300"], "--k-grid"),
        (["bestofk-check", "--k-grid", "1,9.3e18"], "--k-grid"),
        # training set sizes are integers
        (["tradeoff", "--n-grid", "2.5", "--k-grid", "2"], "--n-grid"),
        (["tradeoff", "--n-grid", "lin:10,20,4", "--k-grid", "2"], "--n-grid"),
        # so are the sizes of a k grid: no rounding to the nearest
        (["sweep-k", "--k-grid", "2.5,3.5"], "--k-grid"),
        (["judge", "--records", "r.jsonl", "--k-grid", "lin:1,2,3"], "--k-grid"),
        (["tradeoff", "--n-grid", "100", "--k-grid", "log:1,10,3"], "--k-grid"),
        # the non-monotonicity gate is a nonnegative multiple of the paired stderr
        (["polar-map", "--d", "2", "--z-gate", "-5", "--k-grid", "1,2"], "--z-gate"),
        # a seed outside [0, 2**63 - 1] would alias one inside it (2**63 that of 0, -1 that of 2**63 - 1)
        (["sweep-k", "--seed", "-1", "--k-grid", "1,2"], "--seed"),
        (["sweep-k", "--seed", "9223372036854775808", "--k-grid", "1,2"], "--seed"),
        # a NaN scale fails the config's checks (not >= 0), not only the ones past them
        (["sweep-k", "--tau", "nan", "--k-grid", "1,2"], "--tau"),
        (["sweep-k", "--sigma", "nan", "--k-grid", "1,2"], "--sigma"),
    ])
    def test_non_finite_or_empty_values_are_2(self, argv, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv + [*_SMALL_MC, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        # a model flag is checked where the config is built, under its field's name
        expected = {"--tau": "error: tau must be >= 0, got nan\n",
                    "--sigma": "error: sigma must be >= 0, got nan\n"}.get(flag, f"argument {flag}:")
        assert expected in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("seed", ["0", "9223372036854775807"])
    def test_seeds_at_the_ends_of_the_range_run(self, seed, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["sweep-k", "--seed", seed, "--T", "0", "--k-grid", "1,2", *_SMALL_MC, "--out", str(out)]) == 0
        assert json.loads(Path(f"{out}.manifest.json").read_text())["seed"] == int(seed)

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("argv", [
        ["sweep-k", "--T", "1", "--k-grid", "1,1000000000000000000"],
        ["sweep-t", "--k", "1000000000000000000", "--t-grid", "1"],
    ], ids=["sweep-k", "sweep-t"])
    def test_arrays_past_any_memory_are_1(self, argv, threads, tmp_path, capsys):
        # k = 1e18 draws ask for exabytes, past any address space: the request fails at once
        out = tmp_path / "x.csv"
        assert run(argv + ["--n-outer", "2", "--n-inner", "2", "--threads", threads, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("itslab: error: Unable to allocate ") and err.count("\n") == 1
        assert not out.exists() and not Path(f"{out}.manifest.json").exists()

    def test_empty_judge_grid_is_2(self, tmp_path, capsys):
        rec = write_records(tmp_path / "r.jsonl", record_rows({"a": [(0.1, 1), (0.2, 0)]}))
        with pytest.raises(SystemExit) as exc:
            run(["judge", "--records", str(rec), "--t-grid", ",", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "argument --t-grid:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["ridge", "--config", "{cfg}"],
         "{cfg}:1: key 'n': invalid literal for int() with base 10: '1e4'"),
        (["polar-map", "--d", "3"], "polar-map requires d = 2"),
        (["judge"], "at least one --records file is required"),
        (["sweep-k", "--mode", "de", "--n-datasets", "2"],
         "--n-datasets applies to --mode exact only (det_equiv has no training sets)"),
    ], ids=["ridge", "polar-map", "judge", "sweep-k"])
    def test_usage_error_names_the_subcommand(self, argv, message, tmp_path, capsys):
        # errors found after parsing print the subcommand's usage, as its flag errors do
        cfg = tmp_path / "m.cfg"
        cfg.write_text("n = 1e4\n")
        argv = [a.format(cfg=cfg) for a in argv]
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: itslab {argv[0]} [-h]")
        assert err.endswith(f"\nitslab {argv[0]}: error: {message.format(cfg=cfg)}\n")
        assert not (tmp_path / "x.csv").exists()


class TestExtremeScales:
    """Every finite positive sigma and gamma either runs or exits 1 with one message."""

    def test_flat_prior_ridge_runs(self, capsys):
        # R_hat = sigma^2 alpha / gamma^2 underflows to 0: the ridgeless fixed point
        assert run(["ridge", "--gamma", "1e200", "--d", "3", "--n", "30"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert dict(zip(header.split(","), row.split(",")))["R"] == "0.0"

    def test_flat_prior_exact_mode_runs(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["sweep-k", "--mode", "exact", "--gamma", "1e200", "--d", "3", "--n", "30",
                    "--k-grid", "1,4", *_SMALL_MC, "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["exact_posterior"] * 2
        assert all(float(r[10]) > 0 for r in rows)
        # the closed-form column needs gamma^2, so it is left empty with a warning
        assert "prior variance gamma^2 leaves the float range" in capsys.readouterr().err

    def test_tradeoff_flat_prior_closed_form_at_a_tiny_S(self, tmp_path, capsys):
        # 1/S^2 and gamma^4 both leave the float range; their ratio does not
        out = tmp_path / "x.csv"
        assert run(["tradeoff", "--mode", "exact", "--S", "1e-160", "--gamma", "1e100", "--d", "3",
                    "--n-grid", "30", "--k-grid", "2,4", "--n-outer", "3", "--n-inner", "3",
                    "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        with open(out) as fh:
            cells = {r["dlogn_closed_form"] for r in csv.DictReader(fh)}
        cfg = ModelConfig(d=3, n=30, S=1e-160, gamma=1e100)
        assert cells == {repr(dlogn_flat_prior(cfg, sample_teacher(cfg, stream(0, "teacher"))))}
        assert -1e-80 < float(cells.pop()) < 0.0

    def test_ridge_at_alpha_1_matches_mpmath(self, capsys):
        # alpha = 1 and R_hat = 1e-24: R^2/(1 + R) = R_hat, where 1 - alpha m1 and 1 - alpha m2 cancel
        assert run(["ridge", "--d", "10", "--n", "10", "--sigma", "1e-6", "--gamma", "1e6"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        printed = dict(zip(header.split(","), map(float, row.split(","))))
        with mp.workdps(50):
            R, a, b, slope = mp_ridge(1.0, 1.0, mp.mpf(1e-6) ** 2 / mp.mpf(1e6) ** 2, printed["R"])
            m2 = a * a
            want = {"R": R, "A": a, "B": b, "m1": a, "m2": m2, "var_z": mp.mpf(1e-6) ** 2 * m2 / slope,
                    "sigma_c": mp.sqrt(slope / m2)}
            assert list(printed) == list(want)
            for column, value in printed.items():
                assert_close(value, want[column])

    def test_ridge_near_the_top_of_the_float_range_runs(self, capsys):
        # R_hat = 1e308: doubling the bracket from 2 R_hat left the float range
        assert run(["ridge", "--d", "1", "--n", "1000000", "--sigma", "1e154", "--gamma", "1e-3"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert dict(zip(header.split(","), row.split(",")))["R"] == "1e+308"

    def test_large_ridge_at_alpha_above_one_runs(self, capsys):
        # at R = 1e4 the float rounding of g (about eps R) is above 1e-12 max(1, R_hat)
        assert run(["ridge", "--d", "20", "--n", "10", "--S", "100", "--sigma", "1e-4", "--gamma", "1e-3"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        # the float nearest the root 10000.03999992000048, where R_hat = 0.02
        assert float(dict(zip(header.split(","), row.split(",")))["R"]) == 10000.03999992

    @pytest.mark.parametrize("argv, message", [
        (["ridge", "--sigma", "1e200", "--d", "3", "--n", "30"],
         "sigma = 1e+200: the noise variance sigma^2 leaves the float range"),
        (["sweep-k", "--gamma", "1e200", "--d", "3", "--n", "30", "--k-grid", "1,4", *_SMALL_MC],
         "gamma = 1e+200: the prior variance gamma^2 leaves the float range"),
        (["ridge", "--gamma", "1e-200", "--d", "3", "--n", "30"],
         "R_hat = sigma^2 alpha / gamma^2 overflows at sigma = 0.0001, gamma = 1e-200"),
        (["sweep-k", "--mode", "exact", "--sigma", "1e-200", "--d", "3", "--n", "30",
          "--k-grid", "1,4", *_SMALL_MC],
         "the posterior precision leaves the float range at n = 30, d = 3, sigma = 1e-200, "
         "gamma = 0.001"),
        (["ridge", "--gamma", "inf", "--d", "30", "--n", "3"],
         "ridgeless degenerate case: R_hat = sigma^2 alpha / gamma^2 = 0 with alpha = 10 >= 1 "
         "is outside the alpha < 1 regime this solver supports"),
        (["sweep-k", "--mode", "exact", "--d", "30", "--n", "5", "--gamma", "1e5",
          "--k-grid", "1,4", *_SMALL_MC],
         "posterior precision is not numerically positive definite at n = 5, d = 30, "
         "sigma = 0.0001, gamma = 100000"),
        (["tradeoff", "--mode", "exact", "--n-grid", "1e300", "--sigma", "1e-6", "--d", "3",
          "--k-grid", "1,4", *_SMALL_MC],
         "the posterior precision leaves the float range at n = 1e+300, d = 3, "
         "sigma = 1e-06, gamma = 0.001"),
        # a temperature in units of sigma^2 past the float range, while sigma^2 is finite
        (["sweep-k", "--T-sigma2", "1e300", "--sigma", "1e10", "--gamma", "1e12", "--d", "3", "--n", "30",
          "--k-grid", "1,4", *_SMALL_MC],
         "--T-sigma2 1e+300 times sigma^2 = 1e+20 leaves the float range"),
        (["sweep-c", "--sigma", "1.3e154", "--gamma", "1e155", "--d", "3", "--n", "30", *_SMALL_MC],
         "--T-sigma2 20 times sigma^2 = 1.69e+308 leaves the float range"),
        (["polar-map", "--T-sigma2", "1e300", "--sigma", "1e10", "--gamma", "1e12", "--d", "2", "--n", "30",
          *_SMALL_MC],
         "--T-sigma2 1e+300 times sigma^2 = 1e+20 leaves the float range"),
        (["sweep-t", "--t-grid-sigma2", "1,1e300", "--sigma", "1e10", "--gamma", "1e12", "--d", "3",
          "--n", "30", *_SMALL_MC],
         "--t-grid-sigma2 1e+300 times sigma^2 = 1e+20 leaves the float range"),
        (["sweep-t", "--sigma", "1.3e154", "--gamma", "1e155", "--d", "3", "--n", "30", *_SMALL_MC],
         "--t-grid-sigma2 200 times sigma^2 = 1.69e+308 leaves the float range"),
        (["tradeoff", "--t-high-sigma2", "1e300", "--sigma", "1e10", "--gamma", "1e12", "--d", "3",
          "--n-grid", "30", "--k-grid", "1,4", *_SMALL_MC],
         "--t-high-sigma2 1e+300 times sigma^2 = 1e+20 leaves the float range"),
        # sigma^2 is finite, the squared losses are not
        (["sweep-k", "--sigma", "1.2e154", "--gamma", "1e154", "--d", "3", "--n", "30", "--T", "1",
          "--k-grid", "1,4", "--n-outer", "4", "--n-inner", "4"],
         "the squared losses leave the float range at sigma = 1.2e+154, gamma = 1e+154"),
        (["bestofk-check", "--sigma", "1.2e154", "--gamma", "1e154", "--d", "3", "--n", "30",
          "--k-grid", "1,4", "--n-outer", "4", "--n-inner", "4"],
         "the squared losses leave the float range at sigma = 1.2e+154, gamma = 1e+154"),
        (["sweep-k", "--mode", "exact", "--sigma", "1.2e154", "--gamma", "1e154", "--d", "3", "--n", "30",
          "--T", "1", "--k-grid", "1,4", "--n-outer", "40", "--n-inner", "4", "--threads", "2"],
         "the squared losses leave the float range at sigma = 1.2e+154, gamma = 1e+154"),
        (["sweep-k", "--mode", "exact", "--gamma", "1.3e154", "--d", "3", "--n", "0", "--T", "0",
          "--k-grid", "1,4", *_SMALL_MC],
         "the squared losses leave the float range at sigma = 0.0001, gamma = 1.3e+154"),
        # alpha S^2 = 1e306: g(R) = R (1 - alpha m(R)) < R_hat = 1.79e308 up to the largest float
        (["ridge", "--d", "10000000000000000", "--n", "1", "--S", "1e145", "--sigma", "1e140",
          "--gamma", "7.47e-7"],
         "no finite R solves R (1 - alpha m(R)) = R_hat = 1.79209e+308"),
        # the input variance S^2 overflows, underflows to 0, or is inf
        (["ridge", "--S", "1e200"], "S = 1e+200: the input variance S^2 leaves the float range"),
        (["sweep-k", "--S", "1e-200", "--k-grid", "1,4", *_SMALL_MC],
         "S = 1e-200: the input variance S^2 leaves the float range"),
        (["sweep-k", "--mode", "exact", "--S", "inf", "--k-grid", "1,4", *_SMALL_MC],
         "S = inf: the input variance S^2 leaves the float range"),
    ], ids=["sigma_huge", "gamma_huge_de", "gamma_tiny", "sigma_tiny_exact", "ridgeless",
            "not_positive_definite", "n_huge_exact", "T_sigma2_sweep_k", "T_sigma2_default_sweep_c",
            "T_sigma2_polar_map", "t_grid_sigma2", "t_grid_sigma2_default", "t_high_sigma2",
            "losses_sweep_k", "losses_bestofk_check", "losses_exact_threads", "losses_from_gamma",
            "no_finite_ridge", "S_huge", "S_tiny", "S_inf"])
    def test_out_of_range_exits_1_with_message(self, argv, message, tmp_path, capsys):
        assert run(argv + ["--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == f"itslab: error: {message}\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["ridge"],
        ["sweep-k", "--k-grid", "1,4", *_SMALL_MC],
        ["sweep-k", "--mode", "exact", "--k-grid", "1,4", *_SMALL_MC],
        ["sweep-k", "--mode", "exact", "--n", "0", "--k-grid", "1,4", *_SMALL_MC],
        ["sweep-c", "--k", "4", *_SMALL_MC],
        ["sweep-t", "--k", "4", *_SMALL_MC],
        ["tradeoff", "--n-grid", "30,60", "--k-grid", "2,4", *_SMALL_MC],
        ["polar-map", "--d", "2", "--k-grid", "1,4", *_SMALL_MC],
        ["bestofk-check", "--k-grid", "2,4", *_SMALL_MC],
    ], ids=["ridge", "sweep_k_de", "sweep_k_exact", "sweep_k_exact_n0", "sweep_c", "sweep_t",
            "tradeoff", "polar_map", "bestofk_check"])
    def test_input_variance_past_the_float_range_names_S(self, argv, tmp_path, capsys):
        # S^2 overflows (1e160, 1e300), underflows to 0 (1e-200) or is inf
        for value in ("1e160", "1e300", "1e-200", "inf"):
            assert run(argv + ["--S", value, "--out", str(tmp_path / "x.csv")]) == 1, value
            assert capsys.readouterr().err == (
                f"itslab: error: S = {float(value):g}: the input variance S^2 leaves the float range\n")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["tradeoff", "--n-grid", "1e300"],
        ["tradeoff", "--mode", "exact", "--n-grid", "1e300"],
        ["tradeoff", "--mode", "exact", "--n-grid", "1e20"],
        ["tradeoff", "--n-grid", "1e20"],
        ["sweep-k", "--mode", "exact", "--n", "100000000000000000000"],
    ], ids=["tradeoff_de_1e300", "tradeoff_exact_1e300", "tradeoff_exact_1e20",
            "tradeoff_de_1e20", "sweep_k_exact_1e20"])
    def test_huge_n_runs(self, argv, tmp_path):
        # n past the int64 and the float range of n^2: the posterior and the
        # fixed point both reach the n -> inf limit, with no OverflowError
        out = tmp_path / "x.csv"
        assert run(argv + ["--d", "3", "--k-grid", "1,4", *_SMALL_MC, "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(math.isfinite(float(r["delta"])) for r in rows)

    @pytest.mark.parametrize("mode", ["exact", "de"])
    def test_huge_n_prints_in_short_float_form(self, mode, tmp_path):
        # n past 2**53 prints as its float; n below it and the seed keep every digit
        out = tmp_path / "x.csv"
        seed = str(2**53 + 1)
        assert run(["tradeoff", "--mode", mode, "--n-grid", f"30,{2**53},1e300", "--d", "3",
                    "--k-grid", "1,4", *_SMALL_MC, "--seed", seed, "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["n"] for r in rows] == ["30"] * 4 + [str(2**53)] * 4 + ["1e+300"] * 4
        assert {r["seed"] for r in rows} == {seed}

    @pytest.mark.parametrize("argv", [
        ["sweep-k", "--d", "3", "--n", "30", "--k-grid", "1,4"],
        ["sweep-k", "--mode", "exact", "--d", "3", "--n", "30", "--k-grid", "1,4"],
        ["sweep-t", "--d", "3", "--n", "30", "--k", "4", "--t-grid-sigma2", "1,10"],
        ["bestofk-check", "--d", "3", "--n", "30", "--k-grid", "2,4"],
    ], ids=["sweep_k_de", "sweep_k_exact", "sweep_t", "bestofk_check"])
    def test_stderr_finite_wherever_delta_is(self, argv, tmp_path):
        # the losses are O(sigma^2), so their squares leave the float range: the stderr need not
        out = tmp_path / "x.csv"
        assert run(argv + ["--sigma", "1e100", *_SMALL_MC, "--out", str(out)]) == 0
        with open(out) as fh:
            rows = [r for r in csv.DictReader(fh) if math.isfinite(float(r["delta"]))]
        assert rows
        assert all(math.isfinite(float(r["stderr"])) for r in rows)

    @pytest.mark.parametrize("argv", [
        ["ridge", "--d", "3", "--n", "30"],
        ["sweep-k", "--d", "3", "--n", "30", "--k-grid", "1,4", *_SMALL_MC],
        ["sweep-k", "--mode", "exact", "--d", "3", "--n", "30", "--k-grid", "1,4", *_SMALL_MC],
        ["sweep-t", "--mode", "exact", "--d", "3", "--n", "30", "--k", "4",
         "--t-grid-sigma2", "1,10", *_SMALL_MC],
        ["tradeoff", "--mode", "exact", "--d", "3", "--n-grid", "30,60", "--k-grid", "2,4",
         *_SMALL_MC],
        ["bestofk-check", "--d", "3", "--n", "30", "--k-grid", "2,4", *_SMALL_MC],
    ], ids=["ridge", "sweep_k_de", "sweep_k_exact", "sweep_t_exact", "tradeoff_exact",
            "bestofk_check"])
    def test_no_traceback_anywhere(self, argv, tmp_path, capsys):
        for flag in ("--sigma", "--gamma", "--S"):
            for value in ("1e-300", "1e-160", "1e-100", "1e100", "1e160", "1e300"):
                code = run(argv + [flag, value, "--out", str(tmp_path / "x.csv")])
                err = capsys.readouterr().err
                assert code in (0, 1), (flag, value)
                if code == 1:
                    assert err.splitlines()[-1].startswith("itslab: error: "), (flag, value, err)


def test_every_tracer_boundary_name_exists():
    # perfbench/tracer.py wraps these names in itslab.cli and itslab.mc by
    # attribute; its BOUNDARIES table is read from the source, not imported
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    table = next(node.value for node in ast.parse(path.read_text()).body
                 if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["BOUNDARIES"])
    boundaries = ast.literal_eval(table)
    modules = {"cli": itslab.cli, "mc": itslab.mc}
    assert set(boundaries) == set(modules)
    missing = [f"{ns}.{name}" for ns, names in boundaries.items() for name in names
               if not hasattr(modules[ns], name)]
    assert missing == []


# Every loaded scipy module, named by the public subpackage it belongs to; scipy's
# own plumbing (scipy, scipy._lib, scipy.version, ...) shows as "scipy" only when
# no public subpackage is loaded, so a bare `import scipy` is caught too.
_SCIPY_PROBE = """
import json, sys
import itslab
if sys.argv[1:]:
    from itslab.cli import main
    assert main(sys.argv[1:]) == 0
parts = {(m.split(".") + [""])[1] for m in sys.modules if m.split(".")[0] == "scipy"}
public = sorted("scipy." + p for p in parts if p and not p.startswith("_") and p != "version")
print(json.dumps(public or (["scipy"] if parts else [])))
"""


@pytest.mark.parametrize("argv", [
    [],
    ["ridge", "--d", "3", "--n", "30"],
    ["judge", "--k-grid", "1,4", "--t-grid", "0,1", "--n-resample", "2"],
    ["sweep-k", "--k-grid", "1,4"],
    ["sweep-t", "--k", "4", "--t-grid-sigma2", "1,10"],
    ["polar-map", "--d", "2", "--n", "100", "--k-grid", "1,2,3,4", "--c-grid", "1e-3",
     "--theta-grid", "0"],
    ["sweep-k", "--mode", "exact", "--k-grid", "1,4"],
    ["sweep-t", "--mode", "exact", "--k", "4", "--t-grid-sigma2", "1,10"],
    ["tradeoff", "--mode", "exact", "--d", "3", "--n-grid", "30,60", "--k-grid", "2,4"],
    ["sweep-k", "--T", "0", "--k-grid", "1,4"],
    ["sweep-c", "--T", "0", "--k", "4", "--c-grid", "1,10"],
    ["bestofk-check", "--k-grid", "1,4"],
], ids=["import", "ridge", "judge", "sweep_k_de", "sweep_t_de", "polar_map_de",
        "sweep_k_exact", "sweep_t_exact", "tradeoff_exact", "sweep_k_T0", "sweep_c_T0",
        "bestofk_check"])
def test_cold_start_loads_scipy_only_where_used(argv, tmp_path):
    # each case in a fresh interpreter: no route of the package loads scipy,
    # the T = 0 order-statistic sampler included
    if argv and argv[0] == "judge":
        rec = tmp_path / "r.jsonl"
        write_records(rec, record_rows(trap_judge_questions(np.random.default_rng(0), 5, 4)))
        argv = argv + ["--records", str(rec)]
    elif argv and argv[0] != "ridge":
        argv = argv + ["--n-outer", "3", "--n-inner", "3"]
    if argv:
        argv = argv + ["--out", str(tmp_path / "x.csv")]
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_csv_values_round_trip(tmp_path):
    # repr-formatted floats must parse back to the exact same doubles
    import csv

    out = tmp_path / "rt.csv"
    assert run([
        "sweep-k", "--k-grid", "1,2", "--c-grid", "0", "--n-outer", "10",
        "--n-inner", "5", "--seed", "3", "--out", str(out),
    ]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    from itslab import ModelConfig, RewardSpec, delta_k_curve

    cfg = ModelConfig(d=10, n=10_000)
    res = delta_k_curve(cfg, RewardSpec.radial(0.0), 20 * cfg.sigma**2, [1, 2],
                        n_outer=10, n_inner=5, seed=3)
    mc_rows = [r for r in rows if r["mode"] == "det_equiv"]
    for g, row in enumerate(mc_rows):
        assert float(row["delta"]) == res.mean[g]
        assert float(row["stderr"]) == res.stderr[g]
