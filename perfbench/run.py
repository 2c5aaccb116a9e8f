#!/usr/bin/env python3
"""Benchmark of itslab: one workload per process, driven by a single client.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload bestofk_t0 --seed 1 --seconds 30 --trace 0

The workload is invoked in-process through ``itslab.cli.main(argv)`` in a
closed loop until ``--seconds`` have passed, importing ``itslab`` from the
checkout's ``src/``.  Every output is checked (see check.py).  With
``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
untraced and traced invocations alternate and the per-layer metrics of the
traced ones are reported, with the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

import os

# BLAS threads are pinned before numpy loads, so that --threads is the only
# source of parallelism and runs do not depend on the machine's core count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
from check import cells, check_output, check_pooled, load_reference, parse_csv  # noqa: E402
from tracer import PER_LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_SAMPLES = 5
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {**PER_LAYER_METRICS, "trace.overhead_s": "s", "mc_cost": "s"}
PRINTED_UNITS = {"wall_raw_s": "s", "mc_cost": "s"}  # printed with --trace 0, not bounded


def import_itslab():
    """Import ``itslab.cli`` and ``itslab.mc`` from this checkout's ``src/``."""
    package = SRC / "itslab"
    if not (package / "cli.py").is_file():
        sys.exit(f"perfbench: {package} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import itslab.cli
    import itslab.mc

    if Path(itslab.cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported itslab from {itslab.cli.__file__}, not {package}")
    return itslab.cli, itslab.mc


def environment() -> dict:
    """Machine, library and commit record printed with every run."""
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def invoke(cli, argv, out: Path, tracer=None):
    """Run ``cli.main(argv)``; returns (seconds, CSV bytes or None, problems)."""
    if out.exists():
        out.unlink()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            rc = cli.main(argv)
        else:
            rc = tracer.call("cli", cli.main, (argv,), {})
    except SystemExit as exc:  # argparse usage errors
        return time.perf_counter() - t0, None, [f"exited with {exc.code!r}"]
    except Exception as exc:  # a failed invocation is counted, not fatal
        traceback.print_exc()
        return time.perf_counter() - t0, None, [f"raised {exc!r}"]
    wall = time.perf_counter() - t0
    if rc != 0:
        return wall, None, [f"returned {rc}"]
    return wall, out.read_bytes(), []


def rel_variance(rows) -> float:
    """Mean over the estimated cells of (stderr / delta) ** 2."""
    values = [(se / d) ** 2 for d, se in cells(rows).values()]
    return sum(values) / len(values)


def mc_cost(wall: float, rel: dict) -> tuple:
    """Seconds per invocation x mean relative variance over the distinct cases."""
    mean_rel = sum(rel.values()) / len(rel) if rel else float("nan")
    return (wall * mean_rel, len(rel), f"mean (stderr/delta)^2 {mean_rel:.6g} over {len(rel)} outputs")


class Run:
    """State of one benchmark run: invocations, failures and outputs."""

    def __init__(self, cli, mc, workload, seed, workdir, budget=None, n_questions=None):
        self.cli, self.mc, self.w, self.seed = cli, mc, workload, seed
        self.out = workdir / "out.csv"
        self.budget = budget
        self.inputs = workload.make_inputs(seed, workdir, n_questions)
        self.reference = load_reference(workload.name)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_csv = {}  # case -> CSV bytes of its first invocation
        self.independent = {}  # independence key -> cells of one output

    def argv(self, case, threads=None):
        inputs = self.inputs[case % len(self.inputs)]
        return self.w.argv(self.w.prog_seed(self.seed, case), self.out, inputs, threads, self.budget)

    def invoke(self, case, threads=None, tracer=None):
        """One checked invocation of ``case``; returns (seconds, CSV) or None."""
        self.attempted += 1
        wall, data, problems = invoke(self.cli, self.argv(case, threads), self.out, tracer)
        if data is not None:
            rows = parse_csv(data)
            problems = check_output(self.w.name, rows, self.reference)
            if case in self.first_csv and data != self.first_csv[case]:
                problems.append(f"case {case}: output differs from its first invocation")
            self.first_csv.setdefault(case, data)
            self.independent.setdefault(case % len(self.inputs) if self.w.n_questions else case,
                                        cells(rows))
        if problems:
            self.failed += 1
            self.problems += [f"invocation {self.attempted}: {p}" for p in problems]
            return None
        return wall, rows

    def finish(self):
        """Pooled check over the run's independent outputs."""
        problems = check_pooled(list(self.independent.values()), self.reference)
        if problems:
            # the outputs fail jointly, so every invocation counts as failed
            self.failed = self.attempted
            self.problems += problems


def run_timed(run: Run, seconds: float) -> dict:
    """Closed loop of untraced invocations; case 0 runs twice, then new cases.

    The workload's calibration kernel runs before every invocation.  The
    first invocation and kernel call warm caches and are not counted.
    """
    walls, kernel_s, rel = [], [], {}
    deadline = time.perf_counter() + seconds
    i = 0
    while i < 2 or time.perf_counter() < deadline:
        case = max(0, i - 1)
        k = calibrate.measure(run.w.kernel)
        result = run.invoke(case)
        if result is not None:
            if i > 0:
                walls.append(result[0])
                kernel_s.append(k)
            rel.setdefault(case, rel_variance(result[1]))
        i += 1
    run.finish()
    wall_s = calibrate.scaled(walls, kernel_s, run.w.kernel)
    raw = statistics.median(walls) if walls else float("nan")
    q = statistics.quantiles(walls, n=4) if len(walls) > 1 else [raw] * 3
    return {
        "wall_s": (wall_s, len(walls), f"{run.w.kernel} kernel {len(kernel_s)} calls, "
                   f"reference {calibrate.REFERENCE_S[run.w.kernel]} s"),
        "wall_raw_s": (raw, len(walls), f"p25 {q[0]:.4f} p75 {q[2]:.4f} max {max(walls, default=0):.4f}"),
        "mc_cost": mc_cost(wall_s, rel),
    }


def run_traced(run: Run, seconds: float) -> dict:
    """Alternate untraced and traced invocations of the same case at one thread."""
    per_layer, walls_u, walls_t, rel = [], [], [], {}
    missing = []
    if run.w.threads not in (None, 1):
        # the timed thread count, so that the traced CSVs are compared with it
        run.invoke(0)
    deadline = time.perf_counter() + seconds
    case = 0
    while case < 1 or time.perf_counter() < deadline:
        untraced = run.invoke(case, threads=1)
        tracer = Tracer()
        tracer.install({"cli": run.cli, "mc": run.mc})
        try:
            traced = run.invoke(case, threads=1, tracer=tracer)
        finally:
            tracer.uninstall()
        missing = tracer.missing
        if untraced is not None and traced is not None:
            walls_u.append(untraced[0])
            walls_t.append(traced[0])
            rel[case] = rel_variance(untraced[1])
            per_layer.append(layer_metrics(tracer, run.w.n_datasets))
        case += 1
    run.finish()
    if missing:
        print(f"trace: missing boundaries: {', '.join(missing)}")
    n = len(per_layer)
    metrics = {
        name: (statistics.median(m[name] for m in per_layer) if n else float("nan"), n, "")
        for name in PER_LAYER_METRICS
    }
    overhead = statistics.median(walls_t) - statistics.median(walls_u) if n else float("nan")
    metrics["trace.overhead_s"] = (overhead, n, "median traced - median untraced wall_s")
    metrics["mc_cost"] = mc_cost(statistics.median(walls_u) if n else float("nan"), rel)
    return metrics


def _ready_seconds(argv) -> float:
    """Seconds from starting ``argv`` to the CLOCK_MONOTONIC reading it prints when ready.

    CLOCK_MONOTONIC is shared by all processes, so interpreter exit and the
    parent's polling for it are not counted.
    """
    t0 = time.monotonic()
    child = subprocess.run(argv, check=True, timeout=120, stdout=subprocess.PIPE, text=True)
    return float(child.stdout.split()[-1]) - t0


def measure_setup(workload: str, seed: int) -> tuple:
    """Set-up seconds of fresh processes, scaled to the reference machine speed.

    Each sample is a process that imports itslab and generates the
    workload's inputs, right after a bare interpreter that imports only
    numpy and scipy (calibrate.IMPORTS_KERNEL).  Returns the median of the
    per-pair ratios times the kernel's reference time, and the raw samples.
    """
    samples, ratios = [], []
    for _ in range(SETUP_SAMPLES):
        base = _ready_seconds([sys.executable, "-c", calibrate.IMPORTS_KERNEL])
        setup = _ready_seconds([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                                "--workload", workload, "--seed", str(seed)])
        samples.append(setup)
        ratios.append(setup / base)
    return statistics.median(ratios) * calibrate.REFERENCE_S["imports"], samples


def _number(value):
    """JSON has no NaN: a metric no invocation produced is null."""
    return value if math.isfinite(value) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli, mc = import_itslab()
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            workload.make_inputs(args.seed, workdir)
            print(repr(time.monotonic()))
            return 0
        print("env: " + json.dumps(environment(), sort_keys=True))
        setup = None if args.trace else measure_setup(args.workload, args.seed)
        run = Run(cli, mc, workload, args.seed, workdir)
        if args.trace:
            metrics = run_traced(run, args.seconds)
            units = PER_LAYER_UNITS
        else:
            metrics = run_timed(run, args.seconds)
            scaled_setup, samples = setup
            metrics["setup_s"] = (scaled_setup, len(samples),
                                  "raw samples " + " ".join(f"{s:.4f}" for s in samples))
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["peak_rss_mb"] = (rss, 1, "ru_maxrss of this process")
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass

    for problem in run.problems[:20]:
        print(f"check: {problem}")
    fail_frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"attempted {run.attempted} failed {run.failed} fail_frac {fail_frac:.4f}")
    for name, (value, n, note) in metrics.items():
        if name not in units:
            note += " (printed only, not bounded: see README)"
        unit = {**PRINTED_UNITS, **END_TO_END_UNITS, **PER_LAYER_UNITS}[name]
        print(f"  {name:28s} {value:14.6g} {unit:6s} n={n:<4d} {note}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": _number(metrics[name][0]), "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
