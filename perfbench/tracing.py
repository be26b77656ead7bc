"""Span tracer for the per-layer breakdown, installed from outside the package.

The tracer replaces each layer function where its caller looks it up (the
module global that the calling module bound at import), so the package's
source stays untouched. Each call becomes one span: name, start, end, parent
span and a count (rows, Jacobian pairs or bytes). Spans stay in memory and are
written once, when the traced plan has finished.

A wrap target that no longer exists is reported by name in `missing`, and
the metrics it feeds are left out rather than reported as zero.

`summarize` and `layer_metrics` use only the standard library, so the parent
process can turn a span file into metrics without importing numpy.
"""
from __future__ import annotations

import importlib
import json
import os
import time

# (module that binds the name, attribute, layer span name, count kind).
# The same layer function appears once per calling module; its spans share
# one name. batch_scores and label_grad calls made inside augbias.models
# itself are not wrapped, so they count in the self time of their caller.
TARGETS = (
    ("augbias.cli", "run_plan", "cli.run_plan", None),
    ("augbias.cli", "gen_synthetic", "augment.gen_synthetic", None),
    ("augbias.cli", "best_found_floor", "theory.best_found_floor", None),
    ("augbias.theory", "best_found_floor", "theory.best_found_floor", None),
    ("augbias.cli", "estimate_constants", "theory.estimate_constants", None),
    ("augbias.models", "estimate_G", "models.estimate_G", "pairs"),
    ("augbias.cli", "run_scheme", "trainers.run_scheme", "run"),
    ("augbias.trainers", "sgd_step", "trainers.sgd_step", None),
    ("augbias.trainers", "combined_grad", "losses.combined_grad", None),
    ("augbias.trainers", "label_grad", "models.label_grad", "rows"),
    ("augbias.losses", "label_grad", "models.label_grad", "rows"),
    ("augbias.theory", "label_grad", "models.label_grad", "rows"),
    ("augbias.trainers", "batch_scores", "models.batch_scores", "rows"),
    ("augbias.losses", "batch_scores", "models.batch_scores", "rows"),
    ("augbias.theory", "batch_scores", "models.batch_scores", "rows"),
    ("augbias.cli", "write_trace_csv", "trainers.write_trace_csv", "bytes"),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Wraps the TARGETS in place; `uninstall` restores the originals."""

    def __init__(self):
        self.spans: list = []
        self.missing: list[str] = []
        self.installed: set[str] = set()
        self._stack = [-1]
        # Inputs of the evaluation set of the run_scheme call in progress: a
        # label_grad call on exactly that array is a trace record, any other
        # call inside run_scheme is a training step.
        self._eval_inputs: list = []
        self._restore: list = []

    def install(self) -> None:
        for module_name, attr, name, kind in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name, kind))
            self._restore.append((module, attr, fn))
            self.installed.add(name)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _wrap(self, fn, name, kind):
        spans, stack, evals = self.spans, self._stack, self._eval_inputs
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            count, tag = 0, ""
            if kind == "rows":
                x = _arg(args, kwargs, 1, "x")
                count = len(x)
                if evals:
                    tag = "eval" if x is evals[-1] else "step"
            elif kind == "pairs":
                count = len(_arg(args, kwargs, 2, "params_cloud")) * _arg(args, kwargs, 1, "dataset").n
            elif kind == "run":
                orig, cfg = _arg(args, kwargs, 1, "orig"), _arg(args, kwargs, 3, "cfg")
                ev = orig if orig is not None else cfg.eval_orig
                evals.append(ev.inputs if ev is not None else None)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if kind == "run":
                    evals.pop()
                elif kind == "bytes":
                    try:
                        count = os.path.getsize(_arg(args, kwargs, 1, "path"))
                    except OSError:
                        count = 0
                spans[idx] = (name, t0, t1, parent, count, tag)

        return wrapper

    def write(self, path) -> None:
        """Call once the traced plan has returned, so every span is closed."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing, "installed": sorted(self.installed),
                       "spans": self.spans}, fh)


def _zero():
    return {"s": 0.0, "self_s": 0.0, "calls": 0, "count": 0, "step_s": 0.0, "eval_s": 0.0}


def summarize(spans) -> dict:
    """Per span name: total and self seconds, calls, summed count, and the
    step/eval split of tagged spans. Self time is the span's duration minus
    the durations of its direct children."""
    child = [0.0] * len(spans)
    for _name, t0, t1, parent, _count, _tag in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    agg: dict = {}
    for i, (name, t0, t1, _parent, count, tag) in enumerate(spans):
        a = agg.setdefault(name, _zero())
        d = t1 - t0
        a["s"] += d
        a["self_s"] += d - child[i]
        a["calls"] += 1
        a["count"] += count
        if tag:
            a[tag + "_s"] += d
    return agg


def layer_metrics(trace: dict) -> dict:
    """Flat `<layer>.<field>` metrics from one span file's contents.

    Only layers with at least one installed wrapper appear; an installed
    layer that was never called reports zeros, which is a measurement.
    """
    agg = summarize(trace["spans"])
    kinds = {name: kind for _m, _a, name, kind in TARGETS}
    out = {}
    for name in trace["installed"]:
        a = agg.get(name, _zero())
        out[f"{name}.s"] = a["s"]
        out[f"{name}.self_s"] = a["self_s"]
        out[f"{name}.calls"] = a["calls"]
        if kinds[name] in ("rows", "pairs", "bytes"):
            out[f"{name}.{kinds[name]}"] = a["count"]
        if name == "models.label_grad":
            out[f"{name}.step_s"] = a["step_s"]
            out[f"{name}.eval_s"] = a["eval_s"]
        if name == "cli.run_plan":
            # what the CLI itself spends between layer calls: task set-up,
            # summaries, aggregate
            out["cli.overhead_s"] = a["self_s"]
    return out


def per_call_costs(trace: dict, records: int) -> dict:
    """Per-call costs in milliseconds from one span file.

    Mean span duration per call for the named layers; the label_grad step
    cost at 64-row batches; and, per trace record, the part of run_scheme
    that is not a training step (the record's scoring passes plus the loop's
    own bookkeeping), next to the scoring passes alone.
    """
    spans = trace["spans"]
    agg = summarize(spans)
    out = {}
    runs = {i for i, s in enumerate(spans) if s[0] == "trainers.run_scheme"}
    step = score = 0.0
    for name, t0, t1, parent, _count, tag in spans:
        if parent not in runs:
            continue
        if name in ("trainers.sgd_step", "losses.combined_grad") or tag == "step":
            step += t1 - t0
        elif name == "models.batch_scores" or tag == "eval":
            score += t1 - t0
    if runs and records:
        run_s = agg["trainers.run_scheme"]["s"]
        out["record.ms_per_record"] = 1e3 * (run_s - step) / records
        out["record.scoring_ms_per_record"] = 1e3 * score / records
        out["record.records"] = records
    for name in ("models.estimate_G", "theory.best_found_floor",
                 "theory.estimate_constants", "trainers.write_trace_csv",
                 "trainers.sgd_step", "losses.combined_grad"):
        a = agg.get(name)
        if a and a["calls"]:
            out[f"{name}.ms_per_call"] = 1e3 * a["s"] / a["calls"]
            out[f"{name}.calls"] = a["calls"]
    rows64 = [t1 - t0 for name, t0, t1, _p, count, tag in trace["spans"]
              if name == "models.label_grad" and tag == "step" and count == 64]
    if rows64:
        out["models.label_grad.step64.ms_per_call"] = 1e3 * sum(rows64) / len(rows64)
        out["models.label_grad.step64.calls"] = len(rows64)
    return out
