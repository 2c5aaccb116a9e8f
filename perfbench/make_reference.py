#!/usr/bin/env python3
"""Pin the reference values that check.py compares every output with.

Run from the root of a checkout, at the commit whose outputs are the
reference:

    python3 perfbench/make_reference.py [--seeds 40] [workload ...]

For each workload this runs one invocation per reference seed (each with
its own teacher, training sets or record file) at the benchmark's budget
and stores, per cell, the mean over seeds, its stderr, the seed-to-seed
standard deviation and the mean of the invocations' own stderr.  Workloads
not named keep their stored values.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

import run as bench
from check import REFERENCE_PATH, cells, parse_csv
from workloads import WORKLOADS


def reference_cells(cli, workload, n_seeds, workdir) -> dict:
    samples = []
    for j in range(n_seeds):
        seed = 1_000_000 + j  # disjoint from the seeds a benchmark run is given
        inputs = workload.make_inputs(seed, workdir)
        argv = workload.argv(workload.prog_seed(seed, 0), workdir / "out.csv", inputs[0])
        wall, data, problems = bench.invoke(cli, argv, workdir / "out.csv")
        if data is None:
            sys.exit(f"{workload.name}: reference seed {seed} failed: {problems}")
        samples.append(cells(parse_csv(data)))
        print(f"{workload.name} seed {seed}: {wall:.3f} s", file=sys.stderr)
    out = {}
    for key in samples[0]:
        deltas = [s[key][0] for s in samples]
        sd = statistics.stdev(deltas)
        out[key] = {
            "mean": statistics.fmean(deltas),
            "stderr": sd / math.sqrt(n_seeds),
            "sd": sd,
            "mean_stderr": math.sqrt(statistics.fmean(s[key][1] ** 2 for s in samples)),
        }
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=40)
    parser.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = parser.parse_args()
    cli, _ = bench.import_itslab()
    reference = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    workdir = bench.WORK / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for name in args.workloads:
            reference[name] = reference_cells(cli, WORKLOADS[name], args.seeds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    reference["_meta"] = {"commit": commit, "seeds": args.seeds}
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
