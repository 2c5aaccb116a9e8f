"""Experiment runner: sweeps and solvers behind one command-line tool.

Every subcommand resolves its model configuration from an optional key=value
file plus flag overrides, runs deterministically from a master seed, and
writes a CSV whose bytes are fully determined by (flags, seed) at any thread
count, accompanied by exactly one JSON manifest (<out>.manifest.json); ridge
without --out prints its CSV to stdout instead.

Exit codes: 0 success, 2 flag/usage errors, 1 runtime errors.
The ITSLAB_OUT_DIR environment variable supplies the default directory for
relative output paths.
"""

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .judge import judge_sweep, load_records
from .mc import classify_k_monotonicity, delta_c_curve, delta_k_curve, delta_t_curve
from .model import ModelConfig, RewardSpec, resolve_reward, sample_teacher
from .evt import weibull_norming
from .ridge import noise_variance_check, solve_for_config
from .rngstreams import stream
from .theory import (
    SeriesTerms,
    dlogn_flat_prior,
    high_t_delta_x,
    optimal_temperature,
    refined_best_of_k_delta,
    scaling_derivatives,
)

SWEEP_SCHEMA = [
    "mode", "d", "n", "S", "sigma", "gamma", "k", "T", "c", "theta",
    "delta", "stderr", "n_outer", "n_inner", "seed",
]

_MODE_ALIASES = {"exact": "exact_posterior", "de": "det_equiv"}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv_text(header, rows) -> str:
    """The CSV text of rows (dicts) under a fixed header, verifying each row's schema."""
    for i, row in enumerate(rows):
        if set(row) != set(header):
            missing = set(header) - set(row)
            extra = set(row) - set(header)
            raise RuntimeError(
                f"row {i} does not match the declared schema "
                f"(missing {sorted(missing)}, extra {sorted(extra)})"
            )
    text = ",".join(header) + "\n"
    for row in rows:
        text += ",".join(_fmt(row[col]) for col in header) + "\n"
    return text


def write_csv(path, header, rows):
    """Write rows (dicts) under a fixed header, verifying the schema on write."""
    path = Path(path)
    text = _csv_text(header, rows)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _write_manifest(path, subcommand, config, args, wall_time, warned):
    manifest = {
        "subcommand": subcommand,
        "config": dataclasses.asdict(config) if config is not None else {},
        "flags": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "seed": args.seed,
        "version": __version__,
        "output": str(path),
        "wall_time_s": wall_time,
        "warnings": warned,
    }
    Path(str(path) + ".manifest.json").write_text(json.dumps(manifest, indent=2, default=_json_value) + "\n")


def _json_value(value):
    """Arrays as lists and numpy scalars as Python numbers, so grids round-trip exactly."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return str(value)


def _resolve_out(out):
    out = Path(out)
    if not out.is_absolute():
        base = os.environ.get("ITSLAB_OUT_DIR", "")
        if base:
            out = Path(base) / out
    return out


def positive_int(text: str) -> int:
    """A count flag's value: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def seed_int(text: str) -> int:
    """A master seed: an integer in [0, 2**63 - 1], the seeds whose streams all differ."""
    value = int(text)
    if not 0 <= value <= np.iinfo(np.int64).max:  # the streams keep a seed's low 63 bits
        raise argparse.ArgumentTypeError(f"must be an integer in [0, 2**63 - 1], got {value}")
    return value


def finite_float(text: str) -> float:
    """A float flag's value, which must be finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not finite")
    return value


def parse_grid(text: str) -> np.ndarray:
    """Comma list ('1,2,5'), 'log:lo,hi,n' or 'lin:lo,hi,n', of one or more finite values."""
    text = text.strip()
    try:
        if text.startswith(("log:", "lin:")):
            lo, hi, n = text[4:].split(",")
            space = np.geomspace if text.startswith("log:") else np.linspace
            with np.errstate(over="ignore", invalid="ignore"):  # overflow is rejected below
                values = space(finite_float(lo), finite_float(hi), int(n))
        else:
            values = np.array([finite_float(v) for v in text.split(",") if v.strip() != ""])
        if values.size == 0 or not np.all(np.isfinite(values)):
            raise ValueError("expected one or more finite values")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse grid {text!r}: {exc}") from exc
    return values


def parse_n_grid(text: str) -> np.ndarray:
    """A grid of training set sizes: integers >= 0, in the order given."""
    values = parse_grid(text)
    if np.any(values < 0) or np.any(values % 1):
        raise argparse.ArgumentTypeError(f"grid entries must be integers >= 0, got {text.strip()!r}")
    return values


def parse_int_grid(text: str) -> np.ndarray:
    """A k grid: integers in [1, 2**63 - 1], sorted and deduplicated."""
    values = parse_grid(text)
    ints = sorted({int(v) for v in values})
    if np.any(values % 1) or ints[0] < 1 or ints[-1] > np.iinfo(np.int64).max:  # the engine holds k in int64
        raise argparse.ArgumentTypeError("k grid entries must be integers in [1, 2**63 - 1]")
    return np.array(ints)


def nonnegative(parse):
    """The argparse type of a flag read by ``parse`` whose every value must be >= 0."""
    def checked(text: str):
        value = parse(text)
        if np.any(np.asarray(value) < 0):
            raise argparse.ArgumentTypeError(f"must be >= 0, got {text.strip()!r}")
        return value
    return functools.update_wrapper(checked, parse)  # argparse's messages name parse


def _add_temperature_flags(p):
    t = p.add_mutually_exclusive_group()
    t.add_argument("--T", type=nonnegative(finite_float))
    t.add_argument("--T-sigma2", type=nonnegative(finite_float), dest="T_sigma2",
                   help="temperature as a multiple of sigma^2 (default 20)")


def build_config(args, parser) -> ModelConfig:
    """The config file's keys, then the model flags, over ModelConfig's defaults."""
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(ModelConfig)
             if getattr(args, f.name) is not None}
    try:
        config = ModelConfig.from_file(args.config, **given) if args.config else ModelConfig(**given)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    # runtime errors, not usage ones: temperatures and variances all scale with sigma^2,
    # and the inputs with S^2 (even at n = 0, where no ridge is solved)
    if not config.sigma * config.sigma < math.inf:
        raise ValueError(
            f"sigma = {config.sigma:g}: the noise variance sigma^2 leaves the float range"
        )
    config.input_var  # ValueError where S^2 leaves the float range
    return config


class _ClosedForms:
    """Every closed-form cell of a run, and the ``itslab: warning:`` lines they print."""

    def __init__(self):
        self.printed = []  # every warning line, for the manifest
        self._kept = {}  # label -> [first accuracy warning, first domain error], in first-call order

    def value(self, label, form, *args):
        """``form(*args)``, or None where it raises ValueError: the formula has left its domain."""
        kept = self._kept.setdefault(label, [None, None])
        try:
            return form(*args)
        except ValueError as exc:
            kept[1] = kept[1] or str(exc)
            return None

    def note(self, label, caveat) -> None:
        """Keep ``caveat`` (None: there is none) as the label's accuracy warning, unless it has one."""
        kept = self._kept.setdefault(label, [None, None])
        kept[0] = kept[0] or caveat

    def flush(self, prefix="") -> None:
        """Print what is kept, each label's accuracy warning before its error, and forget it."""
        for message in (m for kept in self._kept.values() for m in kept if m):
            print(f"itslab: warning: {prefix}{message}", file=sys.stderr)
            self.printed.append(prefix + message)
        self._kept.clear()


def _mc_args(args, parser, config, forms):
    """The engine mode and the keyword arguments every Monte Carlo sweep passes.

    ``config`` is the configuration the sweep runs at; tradeoff, which runs
    one per n, passes None and checks each through :func:`_check_de_regime`.
    """
    if args.mode == "de" and args.n_datasets != 1:
        parser.error("--n-datasets applies to --mode exact only (det_equiv has no training sets)")
    mode = _MODE_ALIASES[args.mode]
    if config is not None:
        forms.value("det_equiv", _check_de_regime, config, mode)
        forms.flush()  # before the run
    return mode, dict(n_outer=args.n_outer, n_inner=args.n_inner, mode=mode, seed=args.seed,
                      threads=args.threads, n_datasets=args.n_datasets)


def _check_de_regime(config, mode) -> None:
    """ValueError where det_equiv mode runs at alpha = d/n >= 1, outside the regime of ridge.py."""
    if mode == "det_equiv" and config.n > 0 and config.alpha >= 1:
        raise ValueError(f"alpha = d/n = {config.alpha:g} >= 1: the deterministic equivalent assumes "
                         "alpha < 1, so det_equiv values here are extrapolated")


def _temperature(args, config) -> float:
    if args.T is not None:
        return args.T
    return _times_sigma2(args.T_sigma2 if args.T_sigma2 is not None else 20.0, config, "--T-sigma2")


def _times_sigma2(mult, config, flag):
    """A temperature or grid in units of sigma^2, as a float or an array; exits 1 naming ``flag`` past the float range."""
    with np.errstate(over="ignore"):
        T = np.asarray(mult, dtype=float) * config.sigma**2
    if not np.all(np.isfinite(T)):
        raise ValueError(f"{flag} {np.max(mult):g} times sigma^2 = {config.sigma**2:g} leaves the float range")
    return T if T.ndim else float(T)


def _sweep_row(config, mode, seed, c, k, T, delta, stderr=0.0, n_outer=0, n_inner=0, **extra):
    """One row of SWEEP_SCHEMA plus ``extra``; the defaults are those of a closed-form row."""
    return {
        "mode": mode, "d": config.d, "n": config.n_text, "S": config.S, "sigma": config.sigma,
        "gamma": config.gamma, "k": k, "T": T, "c": c, "theta": "", "delta": delta,
        "stderr": stderr, "n_outer": n_outer, "n_inner": n_inner, "seed": seed, **extra,
    }


# ---------------------------------------------------------------------------
# Subcommands: each returns (config, header, rows), and main writes the CSV
# and its manifest
# ---------------------------------------------------------------------------


def cmd_ridge(args, forms, parser):
    config = build_config(args, parser)
    de = solve_for_config(config)
    nv = noise_variance_check(de, config.sigma)
    row = {
        "R": de.R, "A": de.a, "B": de.b, "m1": de.m1, "m2": de.m2,
        "var_z": nv.var_z, "sigma_c": nv.sigma_c,
    }
    return config, list(row), [row]


def _series_value(st, T, k):
    """The high-temperature series of terms ``st`` at (T, k).

    ValueError where the series has no finite value, or a negative one: a
    squared error below 0 lies outside the series' domain.
    """
    try:
        value = high_t_delta_x(st, int(k))
    except ArithmeticError as exc:  # t**l leaves the float range at extreme T
        raise ValueError(f"the high-temperature series has no value at T = {T!r}: {exc}") from exc
    if not math.isfinite(value):
        raise ValueError(f"the high-temperature series is {value} at T = {T!r}")
    if value < 0:
        raise ValueError(f"the high-temperature series is {value!r} < 0 at T = {T!r}, k = {k}")
    return value


def cmd_sweep_k(args, forms, parser):
    config = build_config(args, parser)
    mode, mc = _mc_args(args, parser, config, forms)
    T = _temperature(args, config)
    de = solve_for_config(config) if config.n > 0 else None
    w_T = sample_teacher(config, stream(args.seed, "teacher"))
    rewards = [RewardSpec.radial(float(c)) for c in args.c_grid]
    res = delta_k_curve(config, rewards, T, args.k_grid, **mc)
    rows = []
    for r, c in enumerate(args.c_grid):
        terms = None
        if T > 0 and de:  # the series has no T = 0 limit, and no fixed point exists at n = 0
            w_R = resolve_reward(rewards[r], w_T, de.R, config.S)  # the terms depend on c, not on k
            terms = forms.value("theory_highT", SeriesTerms.averaged, config, de, w_T, w_R, T)
        for g, k in enumerate(args.k_grid):
            series = None if terms is None else forms.value("theory_highT", _series_value, terms, T, k)
            rows.append(_sweep_row(config, mode, args.seed, float(c), int(k), T, res.mean[r, g],
                                   res.stderr[r, g], res.n_outer, args.n_inner, theory_highT=series))
            if series is not None:  # the accuracy caveat comes only with a value
                forms.note("theory_highT", terms.caveat)
                rows.append(_sweep_row(config, "theory_highT", args.seed, float(c), int(k), T,
                                       series, theory_highT=series))
    return config, SWEEP_SCHEMA + ["theory_highT"], rows


def cmd_sweep_t(args, forms, parser):
    config = build_config(args, parser)
    mode, mc = _mc_args(args, parser, config, forms)
    if args.t_grid is not None:
        T_grid = np.asarray(args.t_grid, dtype=float)
    else:
        mult = args.t_grid_sigma2 if args.t_grid_sigma2 is not None else parse_grid("log:2,200,30")
        T_grid = _times_sigma2(mult, config, "--t-grid-sigma2")
    res = delta_t_curve(config, RewardSpec.radial(args.c), args.k, T_grid, **mc)
    de = solve_for_config(config) if config.n > 0 else None
    w_T = sample_teacher(config, stream(args.seed, "teacher"))
    w_R = resolve_reward(RewardSpec.radial(args.c), w_T, de.R if de else 0.0, config.S)
    t_opt = None
    if de:  # the series needs the ridge fixed point, which n = 0 lacks
        st = forms.value("theory_T_opt", SeriesTerms.averaged, config, de, w_T, w_R, 1.0)
        if st is not None:
            t_opt = forms.value("theory_T_opt", optimal_temperature, st, args.k)
    rows = [
        _sweep_row(config, mode, args.seed, args.c, args.k, float(T), res.mean[g], res.stderr[g],
                   res.n_outer, args.n_inner, theory_T_opt=t_opt)
        for g, T in enumerate(T_grid)
    ]
    return config, SWEEP_SCHEMA + ["theory_T_opt"], rows


def cmd_sweep_c(args, forms, parser):
    config = build_config(args, parser)
    mode, mc = _mc_args(args, parser, config, forms)
    T = _temperature(args, config)
    res = delta_c_curve(config, args.c_grid, T, args.k, **mc)
    rows = [
        _sweep_row(config, mode, args.seed, float(c), args.k, T, res.mean[g], res.stderr[g],
                   res.n_outer, args.n_inner)
        for g, c in enumerate(args.c_grid)
    ]
    return config, SWEEP_SCHEMA, rows


def cmd_polar_map(args, forms, parser):
    config = build_config(args, parser)
    if config.d != 2:
        parser.error("polar-map requires d = 2")
    mode, mc = _mc_args(args, parser, config, forms)
    T = _temperature(args, config)
    cells = [(float(c), float(theta)) for c in args.c_grid for theta in args.theta_grid]
    rewards = [RewardSpec.polar(c, theta) for c, theta in cells]
    res = delta_k_curve(config, rewards, T, args.k_grid, **mc)
    rows = [
        {
            "mode": mode, "d": config.d, "n": config.n_text, "S": config.S,
            "sigma": config.sigma, "gamma": config.gamma, "c": c, "theta": theta, "T": T,
            "label": classify_k_monotonicity(res.target(r), z=args.z_gate),
            "n_outer": res.n_outer, "n_inner": args.n_inner, "seed": args.seed,
        }
        for r, (c, theta) in enumerate(cells)
    ]
    header = ["mode", "d", "n", "S", "sigma", "gamma", "c", "theta", "T",
              "label", "n_outer", "n_inner", "seed"]
    return config, header, rows


def cmd_tradeoff(args, forms, parser):
    base = build_config(args, parser)
    mode, mc = _mc_args(args, parser, None, forms)
    T_high = _times_sigma2(args.t_high_sigma2, base, "--t-high-sigma2")
    rows = []
    for n in args.n_grid:
        config = dataclasses.replace(base, n=int(n))
        forms.value("det_equiv", _check_de_regime, config, mode)
        forms.flush()
        theory = dict(dlogk=None, dlogn=None, dlogn_closed_form=None)
        if config.n > 0:  # the derivatives need the ridge fixed point, which n = 0 lacks
            de = solve_for_config(config)
            w_T = sample_teacher(config, stream(args.seed, "teacher"))
            sd = forms.value("dlogn", scaling_derivatives, config, de, w_T)
            if sd is not None:  # else empty, as at n = 0
                theory = dict(dlogk=sd.dlogk, dlogn=sd.dlogn,
                              dlogn_closed_form=forms.value("dlogn_closed_form", dlogn_flat_prior, config, w_T))
            forms.flush(f"n = {config.n_text}: ")
        # the T = 0 and T_high rows are two targets of one call
        res = delta_k_curve(config, [RewardSpec.radial(0.0)] * 2, [0.0, T_high], args.k_grid, **mc)
        for r, T in enumerate((0.0, T_high)):
            for g, k in enumerate(args.k_grid):
                rows.append(_sweep_row(config, mode, args.seed, 0.0, int(k), T, res.mean[r, g],
                                       res.stderr[r, g], res.n_outer, args.n_inner, **theory))
    return base, SWEEP_SCHEMA + ["dlogk", "dlogn", "dlogn_closed_form"], rows


def cmd_bestofk_check(args, forms, parser):
    config = build_config(args, parser)
    mode, mc = _mc_args(args, parser, config, forms)
    de = solve_for_config(config) if config.n > 0 else None
    w_T = sample_teacher(config, stream(args.seed, "teacher"))
    res = delta_k_curve(config, RewardSpec.radial(0.0), 0.0, args.k_grid, **mc)
    at_k = {}  # the closed forms at k, by row label; none without the series terms
    # aligned reward: the series terms reduce to the teacher deviation alone
    st = forms.value("series_terms", SeriesTerms.averaged, config, de, w_T, w_T, 1.0) if de else None
    if st is not None:  # else n = 0 or zero predictive variance: no closed form applies
        at_k = {
            "theory_refined": lambda k: refined_best_of_k_delta(config, de, w_T, k).value,
            # extreme-value route: mean of the scaled minimum is 2 c_k
            "theory_bestofk": lambda k: st.s2 * 2.0 * weibull_norming(st.dt2 / st.s2, k),
        }
    rows = []
    for g, k in enumerate(args.k_grid):
        theories = {label: forms.value(label, form, int(k)) for label, form in at_k.items()}
        refined = theories.get("theory_refined")
        rows.append(_sweep_row(config, mode, args.seed, 0.0, int(k), 0.0, res.mean[g],
                               res.stderr[g], res.n_outer, args.n_inner,
                               k2_delta=float(k) ** 2 * res.mean[g], asymptote=refined))
        rows += [
            _sweep_row(config, label, args.seed, 0.0, int(k), 0.0, value,
                       k2_delta=float(k) ** 2 * value, asymptote=refined)
            for label, value in theories.items() if value is not None
        ]
    return config, SWEEP_SCHEMA + ["k2_delta", "asymptote"], rows


def cmd_judge(args, forms, parser):
    if not args.records:
        parser.error("at least one --records file is required")
    header = ["source", "k", "T", "delta", "stderr", "n_questions_used", "n_resample", "seed"]
    if args.accuracy:
        header.append("accuracy")
    rows = []
    for path in args.records:
        ds, source = load_records(path), Path(path).name
        sweep = judge_sweep(
            ds, args.k_grid, np.asarray(args.t_grid, dtype=float),
            n_resample=args.n_resample, rng=stream(args.seed, "judge", source),
        )
        for r in sweep:
            row = {"source": source, "seed": args.seed, **r}
            if args.accuracy:
                row["accuracy"] = -r["delta"]
            rows.append(row)
    return None, header, rows


# ---------------------------------------------------------------------------


@functools.cache  # built once per process: no subcommand mutates a parsed default
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itslab",
        description="Inference-time scaling experiments at desk scale: "
                    "Monte Carlo sweeps cross-validated against closed forms.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, cmd, summary, model=True, mc=True):
        """Subcommand ``name`` with its shared flags; ``cmd`` reports usage errors on its parser."""
        p = sub.add_parser(name, help=summary)
        if model:
            g = p.add_argument_group("model", "a flag overrides the --config file, which overrides the defaults")
            g.add_argument("--config", help="key=value model configuration file")
            g.add_argument("--d", type=int, help="input dimension")
            g.add_argument("--n", type=int, help="training set size")
            g.add_argument("--S", type=float, help="input scale (covariance S^2 I)")
            g.add_argument("--sigma", type=float, help="label noise std")
            g.add_argument("--gamma", type=float, help="prior std")
            g.add_argument("--tau", type=float, help="teacher sampling std")
            g.add_argument("--teacher-mode", choices=["sampled", "normalized"], dest="teacher_mode")
        default_out = None if name == "ridge" else name.replace("-", "_") + ".csv"
        p.add_argument("--seed", type=seed_int, default=0, help="master seed in [0, 2**63 - 1] (default 0)")
        p.add_argument("--out", help=f"output CSV path (default {default_out or 'stdout, no manifest'})")
        if mc:
            p.add_argument("--n-outer", type=positive_int, default=2000, dest="n_outer")
            p.add_argument("--n-inner", type=positive_int, default=200, dest="n_inner")
            p.add_argument("--mode", choices=["exact", "de"], default="de")
            p.add_argument("--n-datasets", type=positive_int, default=1, dest="n_datasets",
                           help="training sets to average over (exact mode)")
            p.add_argument("--threads", type=positive_int, default=1)
        p.set_defaults(func=functools.partial(cmd, parser=p), default_out=default_out)
        return p

    add("ridge", cmd_ridge, "solve the renormalized ridge and print its scalars", mc=False)

    p = add("sweep-k", cmd_sweep_k, "delta vs k for a grid of radial reward offsets")
    p.add_argument("--k-grid", type=parse_int_grid, default=parse_int_grid("1,2,5,10,20,50,100"), dest="k_grid")
    p.add_argument("--c-grid", type=parse_grid, default=parse_grid("0"), dest="c_grid")
    _add_temperature_flags(p)

    p = add("sweep-t", cmd_sweep_t, "delta vs T at fixed k, with the stationary-T column")
    p.add_argument("--k", type=positive_int, default=50)
    p.add_argument("--c", type=finite_float, default=0.0)
    t = p.add_mutually_exclusive_group()
    t.add_argument("--t-grid", type=nonnegative(parse_grid), dest="t_grid")
    t.add_argument("--t-grid-sigma2", type=nonnegative(parse_grid), dest="t_grid_sigma2",
                   help="temperature grid in units of sigma^2 (default log:2,200,30)")

    p = add("sweep-c", cmd_sweep_c, "delta vs radial reward offset c at fixed (k, T)")
    p.add_argument("--k", type=positive_int, default=50)
    p.add_argument("--c-grid", type=parse_grid, default=parse_grid("log:1,100,12"), dest="c_grid")
    _add_temperature_flags(p)

    p = add("polar-map", cmd_polar_map, "monotone/non-monotone region of delta(k) over (c, theta), d = 2")
    p.add_argument("--k-grid", type=parse_int_grid, default=parse_int_grid("1,2,3,4,6,8,12,16,24,32"), dest="k_grid")
    p.add_argument("--c-grid", type=parse_grid, default=parse_grid("log:5e-5,5e-3,8"), dest="c_grid")
    p.add_argument("--theta-grid", type=parse_grid, default=parse_grid("lin:0,5.497787143782138,8"),
                   dest="theta_grid", help="angle grid in radians (default 8 points over [0, 2 pi))")
    _add_temperature_flags(p)
    p.add_argument("--z-gate", type=nonnegative(finite_float), default=3.0, dest="z_gate",
                   help="paired-stderr multiple for the non-monotonicity gate")

    p = add("tradeoff", cmd_tradeoff, "delta over an (n, k) grid with compute trade-off derivatives")
    p.add_argument("--n-grid", type=parse_n_grid, default=parse_grid("10000,31623,100000"), dest="n_grid")
    p.add_argument("--k-grid", type=parse_int_grid, default=parse_int_grid("100,1000,10000"), dest="k_grid")
    p.add_argument("--t-high-sigma2", type=nonnegative(finite_float), default=20.0, dest="t_high_sigma2")

    p = add("bestofk-check", cmd_bestofk_check, "k^2-scaled delta at T = 0 against the tail-law asymptote")
    p.add_argument("--k-grid", type=parse_int_grid, default=parse_int_grid("100,1000,10000"), dest="k_grid")

    p = add("judge", cmd_judge, "reward-weighted accuracy sweeps on judge-scored record files",
            model=False, mc=False)
    p.add_argument("--records", action="append", default=[],
                   help="newline-delimited record file (repeatable for overlays)")
    p.add_argument("--k-grid", type=parse_int_grid, default=parse_int_grid("1,2,4,8,16,32"), dest="k_grid")
    p.add_argument("--t-grid", type=nonnegative(parse_grid), default=parse_grid("log:0.25,32,8"), dest="t_grid")
    p.add_argument("--n-resample", type=positive_int, default=16, dest="n_resample")
    p.add_argument("--accuracy", action="store_true", help="also emit -delta as an accuracy column")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a value that starts with '-' and a digit or '.' ('-5,0') for a flag of its
    # own; joined to its flag ('--c-grid=-5,0') it is read as the flag's value
    for i in range(len(argv) - 1, 0, -1):
        if re.fullmatch(r"--[\w-]+", argv[i - 1]) and re.match(r"-[\d.]", argv[i]):
            argv[i - 1 : i + 1] = [argv[i - 1] + "=" + argv[i]]
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    forms = _ClosedForms()
    try:
        config, header, rows = args.func(args, forms)
        forms.flush()
        out = args.out or args.default_out
        if out is None:  # ridge without --out: the CSV goes to stdout, with no manifest
            sys.stdout.write(_csv_text(header, rows))
        else:
            path = write_csv(_resolve_out(out), header, rows)
            _write_manifest(path, args.subcommand, config, args, time.perf_counter() - t0, forms.printed)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"itslab: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
