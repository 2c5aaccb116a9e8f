"""The invocations of the agreement gate and the tool that pins their outputs.

Set (a) holds one small CSV per subcommand, as the current commit writes it;
``tests/test_golden.py`` compares a rerun with it cell by cell. Set (b)
holds, per Monte Carlo subcommand that writes estimates, the Monte Carlo
cells (delta, stderr) of a run with 16 times the test points of the rerun
that the gate compares with them in law (polar-map writes only a label per
target, from the engine call that sweep-k makes). A change that moves bytes on purpose re-pins set (a) and
leaves set (b) alone.

Run from the root of the repository:

    PYTHONPATH=src python tests/_golden.py a   # re-pin set (a); prints every cell that moves
    PYTHONPATH=src python tests/_golden.py b   # re-pin set (b): needs its own CHANGES.md entry
"""

import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from itslab.cli import main as cli_main

from _synth import record_rows, trap_judge_questions, write_records

HERE = Path(__file__).resolve().parent / "golden"

# set (a): the argv of acceptance 10 for each subcommand, and one exact-mode sweep
_MODEL = ["--d", "4", "--n", "500", "--sigma", "0.01", "--gamma", "0.1"]
_MC = ["--n-outer", "24", "--n-inner", "10", "--seed", "7"]
SET_A = {
    "ridge": ["ridge"] + _MODEL + ["--seed", "7"],
    "sweep-k": ["sweep-k"] + _MODEL + _MC + ["--k-grid", "1,3", "--c-grid", "0,1"],
    "sweep-k-exact": ["sweep-k", "--mode", "exact", "--n-datasets", "2"] + _MODEL + _MC
                     + ["--k-grid", "1,3", "--c-grid", "0,1"],
    "sweep-t": ["sweep-t"] + _MODEL + _MC + ["--k", "3", "--t-grid-sigma2", "5,50"],
    "sweep-c": ["sweep-c"] + _MODEL + _MC + ["--k", "3", "--c-grid", "0,2"],
    "polar-map": ["polar-map", "--d", "2", "--n", "500", "--sigma", "0.01", "--gamma", "0.1"] + _MC
                 + ["--c-grid", "1e-3,1e-1", "--theta-grid", "0,3", "--k-grid", "1,2,3,5"],
    "tradeoff": ["tradeoff"] + _MODEL + _MC + ["--n-grid", "500,1000", "--k-grid", "2,8"],
    "bestofk-check": ["bestofk-check"] + _MODEL + _MC + ["--k-grid", "4,16"],
    "judge": ["judge", "--records", "{records}", "--seed", "7", "--k-grid", "1,4", "--t-grid", "0,1",
              "--n-resample", "4"],
}

# set (b): one run per Monte Carlo subcommand; the pinned run has LAW_SCALE times its test points
LAW_SCALE = 16
_LAW_MODEL = ["--d", "6", "--n", "300", "--sigma", "0.05", "--gamma", "0.5", "--seed", "11"]
SET_B = {
    "sweep-k": ["sweep-k", "--mode", "exact", "--T-sigma2", "20", "--k-grid", "1,3,10,30",
                "--c-grid", "0,2", "--n-outer", "400", "--n-inner", "20"],
    "sweep-t": ["sweep-t", "--k", "8", "--t-grid-sigma2", "0,1,5,50", "--c", "1",
                "--n-outer", "400", "--n-inner", "20"],
    "sweep-c": ["sweep-c", "--T", "0", "--k", "20", "--c-grid", "0,1,3,10",
                "--n-outer", "400", "--n-inner", "20"],
    "tradeoff": ["tradeoff", "--n-grid", "300,3000", "--k-grid", "2,30",
                 "--n-outer", "400", "--n-inner", "20"],
    "bestofk-check": ["bestofk-check", "--k-grid", "4,30,1000,100000",
                      "--n-outer", "400", "--n-inner", "20"],
}
# columns that name a cell; the others are its estimate, its budget or closed forms
_VALUE_COLUMNS = {"delta", "stderr", "n_outer", "n_inner", "seed"}
MC_MODES = {"det_equiv", "exact_posterior"}


def records_file(directory: Path) -> Path:
    """The judge records of acceptance 10."""
    return write_records(directory / "records.jsonl", record_rows(
        trap_judge_questions(np.random.default_rng(3), n_questions=12, n_samples=8)))


def run_csv(argv, out: Path) -> str:
    """The CSV text that ``itslab argv --out out`` writes."""
    assert cli_main(argv + ["--out", str(out)]) == 0, argv
    return out.read_text()


def law_argv(name: str, scale: int = 1) -> list:
    """Set (b)'s argv of ``name``, with ``scale`` times its test points; its own flags win."""
    argv = SET_B[name][:1] + _LAW_MODEL + SET_B[name][1:]
    i = argv.index("--n-outer") + 1
    return argv[:i] + [str(int(argv[i]) * scale)] + argv[i + 1:]


def mc_cells(text: str) -> dict:
    """Monte Carlo cells of a CSV: the row's naming columns -> (delta, stderr)."""
    cells = {}
    for row in csv.DictReader(io.StringIO(text)):
        if row.get("mode") in MC_MODES:
            key = " ".join(f"{c}={v}" for c, v in row.items() if c not in _VALUE_COLUMNS
                           and not c.startswith(("theory_", "dlog", "k2_", "asymptote")))
            cells[key] = (float(row["delta"]), float(row["stderr"]))
    return cells


def moved_cells(name: str, old: str, new: str) -> list:
    """One line per cell of CSV ``new`` that differs from ``old``, with its relative change where both are numbers."""
    old_rows, new_rows = (list(csv.reader(io.StringIO(text))) for text in (old, new))
    if old_rows[:1] != new_rows[:1] or len(old_rows) != len(new_rows):
        return [f"{name}: the header or the number of rows changed"]
    lines = []
    for i, (old_row, new_row) in enumerate(zip(old_rows[1:], new_rows[1:]), start=1):
        for col, was, now in zip(old_rows[0], old_row, new_row):
            if was != now:
                try:
                    change = f" ({(float(now) - float(was)) / abs(float(was)):+.2e})"
                except (ValueError, ZeroDivisionError):
                    change = ""
                lines.append(f"{name} row {i} ({new_row[0]}) {col}: {was} -> {now}{change}")
    return lines


def main(which: str) -> None:
    scratch = HERE / ".pin"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if which == "a":
            records = records_file(scratch)
            for name, argv in SET_A.items():
                argv = [a.replace("{records}", str(records)) for a in argv]
                (HERE / "a").mkdir(exist_ok=True)
                path, text = HERE / "a" / f"{name}.csv", run_csv(argv, scratch / "out.csv")
                if path.exists():
                    print("\n".join(moved_cells(name, path.read_text(), text)) or f"{name}: unchanged")
                path.write_text(text)
        elif which == "b":
            pinned = {name: mc_cells(run_csv(law_argv(name, LAW_SCALE), scratch / "out.csv"))
                      for name in SET_B}
            (HERE / "b.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
        else:
            raise SystemExit("usage: _golden.py a|b")
    finally:
        for path in scratch.iterdir():
            path.unlink()
        scratch.rmdir()


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "")
