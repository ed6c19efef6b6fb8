"""In-memory span tracer that times calls into fedsynth's public functions.

Spans are recorded from outside the program: `instrument` swaps each public
function (and the few public methods on the hot path) for a wrapper that
opens a span on entry and closes it on exit. Only the outermost call of a
span name is recorded, so `Model.forward` calling `extract` and `classify`
yields one `autodiff.forward` span, not three.

A span's self time is its duration minus the time its child spans cover.
Every span below a root belongs to exactly one layer (the name up to the
first dot), so the layers' self times add up to the root's duration.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from pathlib import Path


class Tracer:
    """Spans as parallel lists (name, start, end, parent index) plus counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(index)
        self._active[name] += 1
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")
        self._active[self.names[index]] -= 1

    def wrap(self, fn, name: str, observe=None):
        """Wrap `fn` so its outermost calls record a span called `name`.

        `observe(tracer, args, result)` runs after the span closes, so the
        bookkeeping it does is charged to the caller, not to the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._active[name]:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def write(self, path: Path) -> Path:
        """Write every span as a CSV row: index,name,start_s,end_s,parent."""
        origin = self.starts[0] if self.starts else 0.0
        lines = ["index,name,start_s,end_s,parent"]
        for i, name in enumerate(self.names):
            lines.append(f"{i},{name},{self.starts[i] - origin!r},{self.ends[i] - origin!r},{self.parents[i]}")
        path = Path(path)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path


def self_times(tracer: Tracer) -> list[float]:
    """Per span: duration minus the summed durations of its direct children."""
    durations = [end - start for start, end in zip(tracer.starts, tracer.ends)]
    covered = [0.0] * len(durations)
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            covered[parent] += durations[i]
    return [d - c for d, c in zip(durations, covered)]


def roots(tracer: Tracer) -> list[int]:
    """Root index of every span (its own index for a root)."""
    out = []
    for i, parent in enumerate(tracer.parents):
        out.append(i if parent < 0 else out[parent])
    return out


def summarize(tracer: Tracer, root: int | None = None) -> dict:
    """Busy time, self time and call count per span name, plus self time per layer.

    With `root` given, only spans in that root's tree are counted.
    """
    selfs = self_times(tracer)
    owner = roots(tracer)
    spans: dict[str, dict] = {}
    layers: dict[str, float] = {}
    for i, name in enumerate(tracer.names):
        if root is not None and owner[i] != root:
            continue
        entry = spans.setdefault(name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
        entry["busy_s"] += tracer.ends[i] - tracer.starts[i]
        entry["self_s"] += selfs[i]
        entry["calls"] += 1
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + selfs[i]
    return {"spans": spans, "layers": layers}


def _count_sgd_step(tracer, args, result):
    tracer.counts["sgd_steps"] += 1


def _count_adam_step(tracer, args, result):
    tracer.counts["adam_steps"] += 1


def _count_synthesis(tracer, args, result):
    cfg = args[3]
    rows = len(result.samples)
    tracer.counts["syn_rows"] += rows
    tracer.counts["syn_row_steps"] += rows * cfg.steps
    tracer.counts["syn_improved"] += sum(s.final_loss < s.initial_loss for s in result.samples)


def instrument(tracer: Tracer, package) -> callable:
    """Replace fedsynth's public functions with traced wrappers; returns an undo.

    A module-level function is replaced wherever a fedsynth module holds a
    reference to it (the package re-exports names with `from .x import y`);
    methods are replaced on their class.
    """
    ad, cfgmod, data, engine, metrics, runner, synthesis = (
        package.autodiff,
        package.config,
        package.data,
        package.engine,
        package.metrics,
        package.runner,
        package.synthesis,
    )
    functions = [
        (cfgmod.config_from_dict, "config", None),
        (data.make_blobs, "data", None),
        (data.partition_dirichlet, "data", None),
        (data.partition_label_skew, "data", None),
        (ad.backward, "autodiff.backward", None),
        (ad.backward_params, "autodiff.backward", None),
        (ad.backward_input, "autodiff.backward", None),
        (synthesis.synthesize, "synthesis.synthesize", _count_synthesis),
        (engine.local_update, "engine.local_update", None),
        (engine.aggregate, "engine.aggregate", None),
        (engine.run_round, "engine.run_round", None),
        (metrics.accuracy, "metrics.accuracy", None),
        (metrics.class_feature_means, "metrics.alignment", None),
        (metrics.alignment_score, "metrics.alignment", None),
        (metrics.psnr, "metrics.psnr", None),
        (metrics.write_metrics_csv, "runner.write", None),
        (metrics.export_features, "runner.write", None),
        (synthesis.dump_synthetic_dataset, "runner.write", None),
        (runner.build_state, "runner.build_state", None),
        (runner.execute, "runner.execute", None),
        (runner.run_experiment, "runner.run_experiment", None),
    ]
    methods = [
        (ad.Model, "forward", "autodiff.forward", None),
        (ad.Model, "extract", "autodiff.forward", None),
        (ad.Model, "classify", "autodiff.forward", None),
        (ad.Sgd, "step", "autodiff.optimizer", _count_sgd_step),
        (ad.Adam, "step", "autodiff.optimizer", _count_adam_step),
    ]
    modules = [package, ad, cfgmod, data, engine, metrics, runner, synthesis]
    undo = []
    for fn, name, observe in functions:
        wrapper = tracer.wrap(fn, name, observe)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, fn))
    for cls, attr, name, observe in methods:
        original = vars(cls)[attr]
        setattr(cls, attr, tracer.wrap(original, name, observe))
        undo.append((cls, attr, original))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
