"""Spans at the layer boundaries of ``itslab``, recorded from outside ``src/``.

The tracer replaces the public functions that ``itslab.cli`` and
``itslab.mc`` import by name, in those modules' namespaces, with wrappers
that record a span (layer, start, end, parent) per call.  ``stream`` is
wrapped so that the generator it returns records a span, with the number
of variates drawn, for every sampling method called on it.  Spans live in
memory; :func:`layer_metrics` reduces one invocation's spans to the
per-layer metrics.

A layer's self time is the sum over its spans of the span's duration minus
the durations of its direct children.  A draw span belongs to the layer of
the span that called the sampling method.
"""

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# module attribute -> layer key, per namespace.  Names missing from a
# module are reported, not fatal: later versions may rename them.
BOUNDARIES = {
    "cli": {
        "delta_k_curve": "mc", "delta_t_curve": "mc", "delta_c_curve": "mc",
        "solve_for_config": "ridge", "noise_variance_check": "ridge",
        "sample_teacher": "model", "resolve_reward": "model",
        "load_records": "judge.load", "judge_sweep": "judge.sweep",
        "write_csv": "cli.write", "_write_manifest": "cli.write",
        "SeriesTerms": "theory", "high_t_delta_x": "theory",
        "optimal_temperature": "theory", "refined_best_of_k_delta": "theory",
        "scaling_derivatives": "theory", "dlogn_flat_prior": "theory",
        "stream": "rngstreams",
    },
    "mc": {
        "solve_for_config": "ridge", "de_moments_batch": "ridge",
        "fit_posterior": "posterior.fit", "predictive_moments_batch": "posterior.moments",
        "sample_teacher": "model", "generate_dataset": "model", "resolve_reward": "model",
        "stream": "rngstreams",
    },
}

# The purpose label of the per-test-point streams that candidates are drawn from.
CANDIDATE_PURPOSE = "inference"

PER_LAYER_METRICS = {
    "mc.draw_s": "s", "mc.draws": "count", "mc.draws_per_batch": "count",
    "mc.self_s": "s", "mc.select_s": "s", "mc.calls": "count",
    "posterior.fit_s": "s", "posterior.moments_s": "s", "posterior.fit_calls": "count",
    "posterior.fits_per_dataset": "count", "model.s": "s", "model.calls": "count",
    "rngstreams.s": "s", "rngstreams.calls": "count",
    "judge.sweep_s": "s", "judge.draw_s": "s", "judge.subsets": "count",
    "judge.subsets_per_s": "1/s", "judge.load_s": "s", "judge.records": "count",
    "ridge.s": "s", "ridge.calls": "count", "theory.s": "s", "theory.calls": "count",
    "cli.self_s": "s", "cli.write_s": "s", "cli.write_bytes": "bytes",
    "trace.missing_boundaries": "count",
}


def _batches(args, result):
    return {"batches": getattr(result, "n_outer", 0) * getattr(result, "n_inner", 0)}


def _subsets(args, result):
    return {"subsets": sum(int(r["n_questions_used"]) * int(r["n_resample"]) for r in result)}


def _records(args, result):
    text = Path(args[0]).read_text()
    return {"records": sum(1 for line in text.splitlines() if line.strip())}


def _csv_bytes(args, result):
    return {"bytes": Path(result).stat().st_size}


def _manifest_bytes(args, result):
    return {"bytes": Path(str(args[0]) + ".manifest.json").stat().st_size}


# What a span records about its call, per boundary name.
MEASURES = {
    "delta_k_curve": _batches, "delta_t_curve": _batches, "delta_c_curve": _batches,
    "judge_sweep": _subsets, "load_records": _records,
    "write_csv": _csv_bytes, "_write_manifest": _manifest_bytes,
}


@dataclass
class Span:
    key: str
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    child_time: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def exclusive(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Records spans while installed; one instance per traced invocation."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._local = threading.local()
        self._saved = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, key, fn, args, kwargs, info=None, measure=None):
        """Call ``fn`` inside a span; ``measure(args, result)`` adds to its info."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(key, parent, info=info or {})
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_time += span.duration
            self.spans.append(span)
        if measure is not None:
            span.info.update(measure(args, result))
        return result

    def wrap(self, key, fn, measure=None):
        def traced(*args, **kwargs):
            return self.call(key, fn, args, kwargs, measure=measure)

        traced.__wrapped__ = fn
        return traced

    def _draw(self, purpose, method):
        def traced(*args, **kwargs):
            stack = self._stack()
            info = {"owner": stack[-1].key if stack else None, "purpose": purpose}
            return self.call("draw", method, args, kwargs, info, _variates)

        return traced

    def _boundary(self, name, key, original):
        if name == "stream":
            def traced_stream(*args, **kwargs):
                gen = self.call(key, original, args, kwargs)
                # stream(seed, purpose, *indices)
                purpose = str(args[1]) if len(args) > 1 else ""
                return _TracedGenerator(gen, self, purpose)

            return traced_stream
        if isinstance(original, type):
            return _ClassProxy(original, self, key)
        return self.wrap(key, original, MEASURES.get(name))

    def install(self, modules: dict) -> None:
        """Patch the boundaries of ``modules`` (namespace name -> module)."""
        for ns, names in BOUNDARIES.items():
            module = modules[ns]
            for name, key in names.items():
                original = getattr(module, name, None)
                if original is None:
                    self.missing.append(f"{ns}.{name}")
                    continue
                self._saved.append((module, name, original))
                setattr(module, name, self._boundary(name, key, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved = []


def _variates(args, result):
    size = getattr(result, "size", None)
    return {"variates": int(size) if size is not None else 1}


class _TracedGenerator:
    """Forwards to a numpy Generator, recording a span per sampling call."""

    def __init__(self, gen, tracer, purpose):
        self._gen = gen
        self._tracer = tracer
        self._purpose = purpose

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if name.startswith("_") or name in ("bit_generator", "spawn") or not callable(attr):
            return attr
        return self._tracer._draw(self._purpose, attr)


class _ClassProxy:
    """Stands in for a class in a module namespace; traces its callables."""

    def __init__(self, cls, tracer, key):
        self._cls = cls
        self._tracer = tracer
        self._key = key

    def __call__(self, *args, **kwargs):
        return self._tracer.call(self._key, self._cls, args, kwargs)

    def __getattr__(self, name):
        attr = getattr(self._cls, name)
        if name.startswith("_") or not callable(attr):
            return attr
        return self._tracer.wrap(self._key, attr)


def layer_metrics(tracer: Tracer, n_datasets: int) -> dict:
    """The metrics of PER_LAYER_METRICS for one traced invocation.

    ``n_datasets`` is the number of training sets the invocation asks for;
    it is the base of ``posterior.fits_per_dataset``.
    """
    self_s = {}
    calls = {}
    totals = {}
    for span in tracer.spans:
        key = span.key
        if key == "draw":
            key = span.info["owner"] or "unowned"
        else:
            calls[key] = calls.get(key, 0) + 1
        self_s[key] = self_s.get(key, 0.0) + span.exclusive
        for name in ("batches", "subsets", "records", "bytes"):
            totals[name] = totals.get(name, 0) + span.info.get(name, 0)

    def s(key):
        return self_s.get(key, 0.0)

    def n(key):
        return calls.get(key, 0)

    draws = [sp for sp in tracer.spans if sp.key == "draw"]
    cand = [sp for sp in draws
            if sp.info["owner"] == "mc" and sp.info["purpose"] == CANDIDATE_PURPOSE]
    n_draws = sum(sp.info["variates"] for sp in cand)
    draw_s = sum((sp.duration for sp in cand), 0.0)
    subsets = totals["subsets"]
    return {
        "mc.draw_s": draw_s,
        "mc.draws": n_draws,
        "mc.draws_per_batch": n_draws / totals["batches"] if totals["batches"] else 0.0,
        "mc.self_s": s("mc"),
        "mc.select_s": s("mc") - draw_s,
        "mc.calls": n("mc"),
        "posterior.fit_s": s("posterior.fit"),
        "posterior.moments_s": s("posterior.moments"),
        "posterior.fit_calls": n("posterior.fit"),
        "posterior.fits_per_dataset": n("posterior.fit") / n_datasets,
        "model.s": s("model"),
        "model.calls": n("model"),
        "rngstreams.s": s("rngstreams"),
        "rngstreams.calls": n("rngstreams"),
        "judge.sweep_s": s("judge.sweep"),
        "judge.draw_s": sum((sp.duration for sp in draws if sp.info["owner"] == "judge.sweep"), 0.0),
        "judge.subsets": subsets,
        "judge.subsets_per_s": subsets / s("judge.sweep") if subsets else 0.0,
        "judge.load_s": s("judge.load"),
        "judge.records": totals["records"],
        "ridge.s": s("ridge"),
        "ridge.calls": n("ridge"),
        "theory.s": s("theory"),
        "theory.calls": n("theory"),
        "cli.self_s": s("cli"),
        "cli.write_s": s("cli.write"),
        "cli.write_bytes": totals["bytes"],
        "trace.missing_boundaries": len(tracer.missing),
    }
