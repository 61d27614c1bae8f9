"""In-memory spans around calls into condisp's modules, for the traced run.

Nothing inside condisp changes. The tracer swaps module attributes for
timing wrappers at the place each name is looked up (for example
``condisp.gate.hamiltonian_fn``, which ``gate_columns`` calls) and puts
the originals back when the run ends. A span is (id, name, start, end,
parent id, op id); spans stay in memory and are written out once, at the
end of the run.

``sweep`` grid points run in pool workers. When the pool forks, workers
inherit the wrapped modules and the open op span, so their spans parent
onto the op; each worker writes its spans to a file after every grid
point, and the parent folds them in. Under a non-fork start method the
workers cannot inherit the wrappers and only the parent's view is kept.
"""
from __future__ import annotations

import functools
import glob
import json
import multiprocessing
import os
import statistics
from time import perf_counter

import numpy as np

# (module, attribute, span name). The provider that a wrapped
# hamiltonian_fn returns is itself wrapped as "model.h_eval".
TARGETS = (
    ("propagate", "hamiltonian_fn", "model.build"),
    ("gate", "hamiltonian_fn", "model.build"),
    ("cat", "hamiltonian_fn", "model.build"),
    ("propagate", "frame_phases", "model.frame_phases"),
    ("gate", "frame_phases", "model.frame_phases"),
    ("cat", "frame_phases", "model.frame_phases"),
    ("cli", "fidelity_trace", "propagate.fidelity_trace"),
    ("gate", "evolve_columns", "propagate.evolve_columns"),
    ("cat", "evolve_columns", "propagate.evolve_columns"),
    ("cli", "gate_columns", "gate.columns"),
    ("cli", "gate_fidelity_trials", "gate.trials"),
    ("cli", "cat_fidelity_experiment", "cat.experiment"),
    ("cli", "multi_step_cat", "cat.analytic"),
    ("cli", "decompose_cat", "cat.analytic"),
    ("cat", "multi_step_cat", "cat.analytic"),
    ("cli", "_metric_value", "cli.sweep.point"),
)

OP_SPAN = "cli.op"

# The tracer that pool workers reach through traced_metric_value. A worker
# gets the function by import path, so it cannot be a closure over the
# tracer; it is set only while a Tracer is installed.
_ACTIVE: "Tracer | None" = None


class Tracer:
    """Span recorder plus the module patches that feed it."""

    def __init__(self, worker_dir: str) -> None:
        self.pid = os.getpid()
        self.worker_dir = worker_dir
        self.spans: list[tuple] = []
        self.counters: dict[tuple, float] = {}
        self.stack: list[int] = []
        self.op: int | None = None
        self.absent: list[str] = []
        self.worker_spans = False
        self._next_id = 1
        self._saved: list[tuple] = []
        self._metric_value = None  # the unwrapped sweep grid-point function

    # ------------------------------------------------------------ spans

    def _begin(self):
        sid = self._next_id
        self._next_id += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent, perf_counter()

    def _end(self, name, sid, parent, t0) -> None:
        t1 = perf_counter()
        self.stack.pop()
        self.spans.append((sid, name, t0, t1, parent, self.op))

    def count(self, name: str, value: float) -> None:
        key = (self.op, name)
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, t0 = self._begin()
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(name, sid, parent, t0)
        return traced

    def run_op(self, op_id: int, modules: dict, fn, *args):
        """Run one op under a root span, with the wrappers installed only
        for its duration; returns fn's result."""
        self.op = op_id
        self.install(modules)
        try:
            return self.wrap(fn, OP_SPAN)(*args)
        finally:
            self.restore()

    def _wrap_counted(self, fn, name: str, counter: str):
        traced = self.wrap(fn, name)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = traced(*args, **kwargs)
            self.count(counter, len(result))
            return result
        return counted

    # ------------------------------------------------------ H(t) builds

    def _wrap_build(self, build):
        traced_build = self.wrap(build, "model.build")

        @functools.wraps(build)
        def build_and_wrap(*args, **kwargs):
            provider = traced_build(*args, **kwargs)
            return self._wrap_provider(provider)
        return build_and_wrap

    def _wrap_provider(self, provider):
        tracer = self

        def h_eval(t):
            sid, parent, t0 = tracer._begin()
            try:
                h = provider(t)
            finally:
                tracer._end("model.h_eval", sid, parent, t0)
            tracer.count("model.h_eval.bytes_computed", getattr(h, "nbytes", 0))
            if (tracer.op, "model.h_nnz_fraction") not in tracer.counters:
                # first H(t) of the op: the workload's lab-frame generator
                size = getattr(h, "size", 0)
                tracer.count("model.h_nnz_fraction",
                             np.count_nonzero(h) / size if size else 0.0)
            return h

        # the propagators read the step scale and layout off the provider
        h_eval.__dict__.update(provider.__dict__)
        return h_eval

    # ------------------------------------------------- install / restore

    def install(self, modules: dict) -> None:
        """Patch every target present; record the missing ones as absent."""
        global _ACTIVE
        self.absent = []
        for mod_name, attr, span in TARGETS:
            module = modules.get(mod_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"condisp.{mod_name}.{attr}")
                continue
            if attr == "_metric_value":
                if multiprocessing.get_start_method() != "fork":
                    continue  # spawned workers would not inherit the wrappers
                self._metric_value = original
                replacement = traced_metric_value
                self.worker_spans = True
            elif attr == "hamiltonian_fn":
                replacement = self._wrap_build(original)
            elif attr == "gate_fidelity_trials":
                replacement = self._wrap_counted(original, span, "gate.trials.count")
            else:
                replacement = self.wrap(original, span)
            self._saved.append((module, attr, original))
            setattr(module, attr, replacement)
        _ACTIVE = self

    def restore(self) -> None:
        global _ACTIVE
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        _ACTIVE = None

    # ----------------------------------------------------------- workers

    def collect_workers(self) -> None:
        """Fold in and delete the span files pool workers wrote."""
        for path in sorted(glob.glob(os.path.join(self.worker_dir, "worker-*.json"))):
            with open(path, encoding="utf-8") as f:
                data = json.load(f)
            os.remove(path)
            self.spans.extend(tuple(s) for s in data["spans"])
            for op, name, value in data["counters"]:
                if name == "model.h_nnz_fraction":  # a share, not a sum
                    self.counters.setdefault((op, name), value)
                else:
                    self.counters[(op, name)] = self.counters.get((op, name), 0) + value

    def _flush_worker(self) -> None:
        path = os.path.join(self.worker_dir,
                            f"worker-{os.getpid()}-{self._next_id}.json")
        data = {"spans": self.spans,
                "counters": [[op, name, v] for (op, name), v in self.counters.items()]}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(data, f)
        self.spans = []
        self.counters = {}

    def _enter_worker(self) -> None:
        if os.getpid() != self.pid:  # first grid point in a forked worker
            self.pid = os.getpid()
            self.spans = []
            self.counters = {}
            self._next_id = self.pid << 32  # ids stay unique across processes

    # ----------------------------------------------------------- output

    def write(self, path: str) -> None:
        """All spans as JSON lines: id, name, start, end, parent, op."""
        keys = ("id", "name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(dict(zip(keys, s))) + "\n")


def traced_metric_value(cfg):
    """Grid-point entry that pool workers receive in place of the original."""
    tracer = _ACTIVE
    tracer._enter_worker()
    try:
        return tracer.wrap(tracer._metric_value, "cli.sweep.point")(cfg)
    finally:
        tracer._flush_worker()


# ------------------------------------------------------------ analysis


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part its direct children cover."""
    children: dict[int, list] = {}
    for sid, _, t0, t1, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _, t0, t1, _, _ in spans:
        kids = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ()) if b > t0 and a < t1]
        out[sid] = (t1 - t0) - _covered(kids)
    return out


def per_op_layers(tracer: Tracer, op_ids) -> dict[int, dict[str, float]]:
    """Per-op layer figures from the recorded spans and counters."""
    selfs = self_times(tracer.spans)
    out = {}
    for op in op_ids:
        spans = [s for s in tracer.spans if s[5] == op]
        dur = {}
        own = {}
        calls = {}
        for s in spans:
            name = s[1]
            dur[name] = dur.get(name, 0.0) + (s[3] - s[2])
            own[name] = own.get(name, 0.0) + selfs[s[0]]
            calls[name] = calls.get(name, 0) + 1
        h_count = calls.get("model.h_eval", 0)
        prop_self = own.get("propagate.fidelity_trace", 0.0) \
            + own.get("propagate.evolve_columns", 0.0)
        trials = tracer.counters.get((op, "gate.trials.count"), 0)
        out[op] = {
            "model.h_eval.count": h_count,
            "model.h_eval.self_s": own.get("model.h_eval", 0.0),
            "model.h_eval.bytes_computed": tracer.counters.get(
                (op, "model.h_eval.bytes_computed"), 0),
            "model.h_nnz_fraction": tracer.counters.get((op, "model.h_nnz_fraction"), 0.0),
            "model.build.s": dur.get("model.build", 0.0),
            "model.frame_phases.count": calls.get("model.frame_phases", 0),
            "model.frame_phases.self_s": own.get("model.frame_phases", 0.0),
            "propagate.self_s": prop_self,
            "propagate.step_us": 1e6 * prop_self / h_count if h_count else 0.0,
            "gate.columns.s": dur.get("gate.columns", 0.0),
            "gate.trials.self_s": own.get("gate.trials", 0.0),
            "gate.trials.count": trials,
            "gate.trials.us_per_trial": 1e6 * own.get("gate.trials", 0.0) / trials
            if trials else 0.0,
            "cat.experiment.s": dur.get("cat.experiment", 0.0),
            "cat.analytic.s": dur.get("cat.analytic", 0.0),
            "cli.self_s": own.get(OP_SPAN, 0.0),
        }
    return out


def median_layers(per_op: dict[int, dict[str, float]]) -> dict[str, float]:
    """Lower median over ops of each per-op layer figure (exact for counts)."""
    rows = list(per_op.values())
    return {k: statistics.median_low(r[k] for r in rows) for k in rows[0]}
