"""The agreement gate: a commit reproduces its parent's numbers.

Set (a) reruns one small invocation per subcommand and compares its CSV
with the pinned one cell by cell: exactly, except in exact-mode rows, whose
bytes depend on the BLAS thread count and whose numbers must agree within
1e-12 relative. Set (b) reruns one larger invocation per Monte Carlo
subcommand and requires each Monte Carlo cell to agree in law with a pinned
run of 16 times the test points: |z| <= 4 per cell, and the sum of z^2 over
all cells below the 0.999 quantile of its chi-square. A change that moves
bytes on purpose re-pins set (a) (``tests/_golden.py``) and keeps set (b).
"""

import csv
import io
import json
import math

import pytest
from scipy.stats import chi2

from _golden import HERE, SET_A, SET_B, law_argv, mc_cells, records_file, run_csv

Z_MAX = 4.0
CHI2_LEVEL = 0.999


def _rows(text: str):
    return list(csv.reader(io.StringIO(text)))


def _same_cell(got: str, want: str, relative: bool) -> bool:
    if got == want:
        return True
    if not relative:
        return False
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    return math.isclose(g, w, rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("name", SET_A)
def test_set_a_reproduces_the_pinned_csv(name, tmp_path):
    argv = [a.replace("{records}", str(records_file(tmp_path))) for a in SET_A[name]]
    got = _rows(run_csv(argv, tmp_path / "out.csv"))
    want = _rows((HERE / "a" / f"{name}.csv").read_text())
    assert got[0] == want[0]  # the header
    assert len(got) == len(want)
    mode = got[0].index("mode") if "mode" in got[0] else None
    for i, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=1):
        relative = mode is not None and w_row[mode] == "exact_posterior"
        bad = [(col, g, w) for col, g, w in zip(got[0], g_row, w_row) if not _same_cell(g, w, relative)]
        assert not bad, f"{name} row {i}: {bad}"


def law_z(got: dict, pinned: dict) -> dict:
    """Per cell, (delta - pinned delta) / hypot(stderr, pinned stderr)."""
    assert set(got) == set(pinned)
    z = {}
    for key, (delta, se) in got.items():
        delta0, se0 = pinned[key]
        scale = math.hypot(se, se0)
        z[key] = (delta - delta0) / scale if scale > 0 else (0.0 if delta == delta0 else math.inf)
    return z


def test_set_b_agrees_in_law(tmp_path):
    pinned = json.loads((HERE / "b.json").read_text())
    assert set(pinned) == set(SET_B)
    z = {}
    for name in SET_B:
        cells = law_z(mc_cells(run_csv(law_argv(name), tmp_path / "out.csv")), pinned[name])
        z.update({(name, key): value for key, value in cells.items()})
    worst = max(z, key=lambda c: abs(z[c]))
    assert abs(z[worst]) <= Z_MAX, (worst, z[worst])
    stat = sum(v * v for v in z.values())
    assert stat < chi2.ppf(CHI2_LEVEL, len(z)), (stat, len(z))
