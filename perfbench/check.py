"""Output checks behind ``fail_frac``.

An invocation's CSV passes when

* it has exactly the Monte Carlo (or judge) cells of the pinned reference;
* every such cell lies within ``Z`` combined standard errors of the
  reference mean pinned from the seed commit (reference.json);
* on ``bestofk_t0``, every Monte Carlo row agrees with its
  ``theory_refined`` row;
* on ``judge_trap``, every row keeps ``delta`` in [-1, 0] and
  ``accuracy == -delta``.

The combined standard error of a cell is
``sqrt(stderr**2 + between**2 + ref_stderr**2)``: the run's own stderr; the
seed-to-seed spread that the run's stderr cannot see (the sampled teacher,
the four training sets of exact mode, the questions of a record file), i.e.
``sqrt(max(0, sd**2 - mean_stderr**2))`` over the reference seeds; and the
stderr of the reference mean itself.

Byte-identity of repeated invocations is checked by the caller.
"""

import csv
import io
import json
import math
from pathlib import Path

Z = 6.0
# The refined best-of-k law is asymptotic in k; at k = 100 on the figure
# config it sits about 4% above the Monte Carlo mean on the seed commit.
REFINED_RTOL = 0.1
MC_MODES = ("det_equiv", "exact_posterior")
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def parse_csv(data: bytes) -> list:
    return list(csv.DictReader(io.StringIO(data.decode())))


def cells(rows: list) -> dict:
    """Estimated cells of an output: cell key -> (delta, stderr)."""
    out = {}
    for row in rows:
        if "source" in row:
            key = f"k={int(row['k'])},T={float(row['T'])!r}"
        elif row["mode"] in MC_MODES:
            key = f"k={int(row['k'])},c={float(row['c'])!r}"
        else:
            continue
        out[key] = (float(row["delta"]), float(row["stderr"]))
    return out


def load_reference(workload: str) -> dict:
    return json.loads(REFERENCE_PATH.read_text())[workload]


def _z_failures(estimates: dict, reference: dict, n_cases: int = 1) -> list:
    """Cells whose mean over ``n_cases`` independent outputs misses the bound."""
    problems = []
    if set(estimates) != set(reference):
        missing = sorted(set(reference) - set(estimates))
        extra = sorted(set(estimates) - set(reference))
        return [f"cells differ from the reference (missing {missing}, extra {extra})"]
    for key, (delta, stderr) in estimates.items():
        ref = reference[key]
        between2 = max(0.0, ref["sd"] ** 2 - ref["mean_stderr"] ** 2)
        combined = math.sqrt(stderr**2 + between2 / n_cases + ref["stderr"] ** 2)
        if not abs(delta - ref["mean"]) <= Z * combined:
            problems.append(
                f"cell {key}: delta {delta!r} is {abs(delta - ref['mean']) / combined:.1f} "
                f"combined stderr from the reference {ref['mean']!r}"
            )
    return problems


def check_output(workload: str, rows: list, reference: dict) -> list:
    """Problems found in one invocation's output; empty when it passes."""
    problems = _z_failures(cells(rows), reference)
    if workload == "bestofk_t0":
        refined = {int(r["k"]): float(r["delta"]) for r in rows if r["mode"] == "theory_refined"}
        for row in rows:
            if row["mode"] not in MC_MODES:
                continue
            k, delta, stderr = int(row["k"]), float(row["delta"]), float(row["stderr"])
            if k not in refined:
                problems.append(f"k={k}: no theory_refined row")
            elif not abs(delta - refined[k]) <= Z * stderr + REFINED_RTOL * refined[k]:
                problems.append(f"k={k}: delta {delta!r} disagrees with theory_refined {refined[k]!r}")
    if workload == "judge_trap":
        for row in rows:
            delta = float(row["delta"])
            if not -1.0 <= delta <= 0.0:
                problems.append(f"k={row['k']},T={row['T']}: delta {delta!r} outside [-1, 0]")
            if float(row["accuracy"]) != -delta:
                problems.append(f"k={row['k']},T={row['T']}: accuracy != -delta")
    return problems


def check_pooled(outputs: list, reference: dict) -> list:
    """Check the mean over a run's independent outputs against the reference.

    ``outputs`` holds the cells of invocations with distinct inputs; their
    pooled mean has a stderr about sqrt(len(outputs)) times smaller, which
    makes this check sensitive to biases that a single output hides.
    """
    if len(outputs) < 2:
        return []
    n = len(outputs)
    pooled = {}
    for key in outputs[0]:
        deltas = [o[key][0] for o in outputs]
        stderr2 = sum(o[key][1] ** 2 for o in outputs) / n
        pooled[key] = (sum(deltas) / n, math.sqrt(stderr2 / n))
    return [f"pooled over {n} outputs: {p}" for p in _z_failures(pooled, reference, n)]
