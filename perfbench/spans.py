"""Span tracer for the benchmark's traced runs.

The tracer times survrake's layers from the outside: it replaces every
module-level binding of a public function (and ``CohortData.take`` /
``with_design`` on the class) with a wrapper that records one span per
call. A span holds its id, the id of the span that was open when it started
(its parent), its name, the operation (replicate or CLI invocation) it
belongs to, start and end times, and counts read from the call's arguments
and returned object. Spans stay in memory until the run writes them out.

Self time is a span's duration minus the durations of its child spans; the
program is single-threaded in a traced run, so children never overlap.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import defaultdict


def _fit_name(args, kwargs):
    options = kwargs.get("options", args[1] if len(args) > 1 else None)
    if options is not None and options.compute_dfbetas:
        return "cox.fit_dfbeta"
    return "cox.fit"


def _cox_counts(args, kwargs, fit):
    return {"iterations": fit.iterations, "unconverged": int(not fit.converged)}


def _rsrc_counts(args, kwargs, fit):
    counts = _cox_counts(args, kwargs, fit)
    counts.update(
        windows=int(len(fit.cuts)),
        fallbacks=int(fit.window_fallbacks),
        n_clamped=int(fit.n_clamped),
    )
    return counts


def _raking_counts(args, kwargs, solution):
    return {"iterations": solution.iterations, "unconverged": int(not solution.converged)}


def _bootstrap_counts(args, kwargs, boot):
    return {"replicates": boot.b_effective + boot.n_failed, "failed": boot.n_failed}


def _write_counts(args, kwargs, _result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name or callable choosing it, counts callable).
# fit_cox_blocks keeps its binding inside survrake.cox, so that fit_cox's
# own call is not a second span: "cox.fit_blocks" means a direct block fit,
# which only rsrc makes.
TARGETS = (
    ("survrake.cox", "fit_cox", _fit_name, _cox_counts),
    ("survrake.cox", "fit_cox_blocks", "cox.fit_blocks", _cox_counts),
    ("survrake.calibration", "build_calibration", "calibration.build", None),
    ("survrake.calibration", "apply_rc", "calibration.apply_rc", None),
    ("survrake.calibration", "rc_fit", "calibration.rc_fit", _cox_counts),
    ("survrake.calibration", "rsrc_fit", "calibration.rsrc_fit", _rsrc_counts),
    ("survrake.raking", "solve_raking", "raking.solve", _raking_counts),
    ("survrake.raking", "grn_estimate", "raking.grn", None),
    ("survrake.raking", "grrc_estimate", "raking.grrc", None),
    ("survrake.raking", "ht_estimate", "raking.ht", None),
    ("survrake.design", "stratified_bootstrap", "design.bootstrap", _bootstrap_counts),
    ("survrake.design", "draw_validation", "design.draw_validation", None),
    ("survrake.simulation", "generate_cohort", "simulation.generate_cohort", None),
    ("survrake.simulation", "run_scenario", "simulation.run_scenario", None),
    ("survrake.io", "load_dataset", "io.load_dataset", None),
    ("survrake.io", "load_scenario", "io.load_scenario", None),
    ("survrake.io", "write_fit_csv", "io.write", _write_counts),
    ("survrake.io", "write_scenario_csv", "io.write", _write_counts),
    ("survrake.io", "write_text", "io.write", _write_counts),
)
COHORT_METHODS = {"take": "cohort.take", "with_design": "cohort.with_design"}
KEEP_BINDING = {("survrake.cox", "fit_cox_blocks")}


class Tracer:
    """Records spans while installed; ``op`` tags each span's operation."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, counts):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            span_id = len(spans)
            record = [span_id, stack[-1] if stack else -1, span_name, self.op, clock(), 0.0, None]
            spans.append(record)
            stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[5] = clock()
            if counts is not None:
                record[6] = counts(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every binding of every target in every loaded survrake module."""
        import survrake.cli  # noqa: F401  (load every module that binds a target)
        from survrake.cohort import CohortData

        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "survrake" or name.startswith("survrake.")
        }
        originals = {}
        for mod_name, attr, name, counts in TARGETS:
            fn = getattr(modules[mod_name], attr)
            originals[id(fn)] = (fn, self._wrap(name, fn, counts))

        def bindings():
            for mod_name, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    entry = originals.get(id(value))
                    if entry is not None and (mod_name, attr) not in KEEP_BINDING:
                        yield mod, attr, entry

        for mod, attr, (fn, wrapper) in bindings():
            setattr(mod, attr, wrapper)
            self._undo.append((mod, attr, fn))
        for attr, name in COHORT_METHODS.items():
            fn = CohortData.__dict__[attr]
            setattr(CohortData, attr, self._wrap(name, fn, None))
            self._undo.append((CohortData, attr, fn))
        leftovers = [f"{mod.__name__}.{attr}" for mod, attr, _ in bindings()]
        if leftovers:
            raise RuntimeError(f"bindings left unwrapped: {leftovers}")

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path):
        """One JSON array per span: id, parent, name, op, start, end, counts."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def summarize(spans):
    """Per span name: durations, self times and summed counts."""
    child_time = defaultdict(float)
    for span_id, parent, _name, _op, start, end, _counts in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"dur": [], "self": [], "counts": defaultdict(float)})
    for span_id, _parent, name, _op, start, end, counts in spans:
        entry = out[name]
        entry["dur"].append(end - start)
        entry["self"].append(end - start - child_time[span_id])
        for key, value in (counts or {}).items():
            entry["counts"][key] += value
    return dict(out)


def calls(summary, name):
    return len(summary[name]["dur"]) if name in summary else 0


def count(summary, name, key):
    return summary[name]["counts"].get(key, 0) if name in summary else 0


def _mean(total, n):
    return total / n if n else 0.0


def layer_metrics(summary, n_ops):
    """Per-layer metric values; calls, counts and self time are per operation."""
    def n_calls(name):
        return calls(summary, name)

    def total(name, key):
        return count(summary, name, key)

    def per_op(value):
        return value / n_ops

    def self_ms(*names):
        return per_op(sum(sum(summary[n]["self"]) for n in names if n in summary) * 1e3)

    def p50_ms(name):
        return statistics.median(summary[name]["dur"]) * 1e3 if n_calls(name) else 0.0

    def mean_ms(name):
        return _mean(sum(summary[name]["dur"]) * 1e3, n_calls(name)) if name in summary else 0.0

    cox_names = ("cox.fit", "cox.fit_dfbeta", "cox.fit_blocks")
    metrics = {
        "cox.fit.calls": per_op(n_calls("cox.fit")),
        "cox.fit.self_ms": self_ms("cox.fit"),
        "cox.fit.ms_p50": p50_ms("cox.fit"),
        "cox.newton_iters_mean": _mean(total("cox.fit", "iterations"), n_calls("cox.fit")),
        "cox.unconverged": per_op(sum(total(n, "unconverged") for n in cox_names)),
        "cox.fit_dfbeta.calls": per_op(n_calls("cox.fit_dfbeta")),
        "cox.fit_dfbeta.self_ms": self_ms("cox.fit_dfbeta"),
        "cox.fit_dfbeta.ms_p50": p50_ms("cox.fit_dfbeta"),
        "cox.fit_blocks.calls": per_op(n_calls("cox.fit_blocks")),
        "cox.fit_blocks.self_ms": self_ms("cox.fit_blocks"),
        "cox.fit_blocks.ms_p50": p50_ms("cox.fit_blocks"),
        "calibration.build.calls": per_op(n_calls("calibration.build")),
        "calibration.build.self_ms": self_ms("calibration.build"),
        "calibration.apply_rc.self_ms": self_ms("calibration.apply_rc"),
        "calibration.rc_fit.self_ms": self_ms("calibration.rc_fit"),
        "calibration.rsrc_fit.calls": per_op(n_calls("calibration.rsrc_fit")),
        "calibration.rsrc_fit.self_ms": self_ms("calibration.rsrc_fit"),
        "calibration.rsrc_fit.ms_p50": p50_ms("calibration.rsrc_fit"),
        "calibration.rsrc.windows_mean": _mean(
            total("calibration.rsrc_fit", "windows"), n_calls("calibration.rsrc_fit")
        ),
        "calibration.rsrc.fallbacks": per_op(total("calibration.rsrc_fit", "fallbacks")),
        "calibration.n_clamped": per_op(total("calibration.rsrc_fit", "n_clamped")),
        "raking.solve.calls": per_op(n_calls("raking.solve")),
        "raking.solve.self_ms": self_ms("raking.solve"),
        "raking.solve.iters_mean": _mean(total("raking.solve", "iterations"), n_calls("raking.solve")),
        "raking.solve.unconverged": per_op(total("raking.solve", "unconverged")),
        "raking.grn.self_ms": self_ms("raking.grn"),
        "raking.grrc.self_ms": self_ms("raking.grrc"),
        "raking.ht.self_ms": self_ms("raking.ht"),
        "cohort.rebuild.calls": per_op(n_calls("cohort.take") + n_calls("cohort.with_design")),
        "cohort.rebuild.self_ms": self_ms("cohort.take", "cohort.with_design"),
        "design.bootstrap.calls": per_op(n_calls("design.bootstrap")),
        "design.bootstrap.replicates": per_op(total("design.bootstrap", "replicates")),
        "design.bootstrap.failed": per_op(total("design.bootstrap", "failed")),
        "design.bootstrap.self_ms": self_ms("design.bootstrap"),
        "design.draw_validation.self_ms": self_ms("design.draw_validation"),
        "simulation.generate_cohort.self_ms": self_ms("simulation.generate_cohort"),
        "simulation.run_scenario.self_ms": self_ms("simulation.run_scenario"),
        "io.load_dataset.ms": mean_ms("io.load_dataset"),
        "io.load_scenario.ms": mean_ms("io.load_scenario"),
        "io.write.ms": mean_ms("io.write"),
        "io.write.bytes": per_op(total("io.write", "bytes")),
    }
    return metrics


def span_table(summary, n_ops):
    """Readable per-name totals for the result record."""
    return {
        name: {
            "calls_per_op": len(entry["dur"]) / n_ops,
            "ms_per_op": sum(entry["dur"]) * 1e3 / n_ops,
            "self_ms_per_op": sum(entry["self"]) * 1e3 / n_ops,
            "ms_p50": statistics.median(entry["dur"]) * 1e3,
            "counts_per_op": {k: v / n_ops for k, v in entry["counts"].items()},
        }
        for name, entry in sorted(summary.items())
    }

