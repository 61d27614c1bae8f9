#!/usr/bin/env python3
"""condisp benchmark: one closed-loop client running CLI experiments.

    python3 perfbench/run.py --workload trace --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Run from the root of a condisp checkout; the package is imported from
``src/`` there and nowhere else. One process starts an op, waits for it
to end, checks its output and starts the next, until ``--seconds`` have
passed (at least one op always runs). With ``--trace 0`` it prints the
end-to-end metrics listed in BENCHMARK.json; with ``--trace 1`` it runs
traced and untraced ops alternately and prints the per-layer metrics.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics. See perfbench/README.md for the definitions.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_RUNS = 11         # fresh-process set-ups per run; setup_s is their median
TAIL_BEYOND = 10        # samples a tail percentile must have beyond it


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_condisp():
    """Import condisp from this checkout's src/, refusing any other copy."""
    pkg = SRC / "condisp"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"no condisp package at {pkg}; run from a condisp checkout")
    sys.path.insert(0, str(SRC))
    import condisp
    from condisp import cat, cli, gate, model, propagate

    if Path(condisp.__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"imported condisp from {condisp.__file__}, not {pkg}")
    return {"cli": cli, "model": model, "propagate": propagate, "gate": gate, "cat": cat}


def metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
        # as found: the benchmark sets no thread variable
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "mp_start_method": multiprocessing.get_start_method(),
    }


# ------------------------------------------------------------------ ops


def run_op(mods, cfg, w, size, csv_path, reference, tracer=None, op_id=0):
    """One op: cli.run on the resolved config, timed, then checked."""
    if csv_path.exists():
        csv_path.unlink()  # a failed op must not pass on the previous op's file
    stdout = io.StringIO()
    cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            if tracer is None:
                status = mods["cli"].run(cfg)
            else:
                status = tracer.run_op(op_id, mods, mods["cli"].run, cfg)
        problems = [] if status == 0 else [f"exit status {status}"]
    except Exception:  # an op that raises is a failed op; the run goes on
        problems = ["raised:\n" + traceback.format_exc()]
    wall = perf_counter() - t0
    cpu1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    csv = csv_path.read_bytes() if csv_path.exists() else b""
    if not problems:
        problems = workloads.check_op(w, size, stdout.getvalue(), csv, reference)
    points = workloads.stdout_values(stdout.getvalue()).get("points", "0")
    return {
        "wall": wall,
        "traced": tracer is not None,
        "problems": problems,
        "csv_digest": hashlib.sha256(csv).hexdigest(),
        "csv_bytes": len(csv),
        "child_cpu": (cpu1.ru_utime + cpu1.ru_stime) - (cpu0.ru_utime + cpu0.ru_stime),
        "points": int(points),
    }


def op_loop(mods, w, size, seconds, trace, out_dir):
    """Closed loop: start each op only if the previous op's duration still
    fits in the `seconds` left, so a run ends near `seconds`; at least one."""
    from tracer import Tracer

    cfg = workloads.resolved_config(w, str(out_dir))
    csv_path = out_dir / w.csv_name
    reference = workloads.load_reference()
    tracer = Tracer(str(out_dir)) if trace else None
    ops = []
    start = perf_counter()
    while not ops or perf_counter() - start + ops[-1]["wall"] <= seconds:
        # traced runs alternate traced and untraced ops, traced first
        traced = tracer is not None and len(ops) % 2 == 0
        op = run_op(mods, cfg, w, size, csv_path, reference,
                    tracer if traced else None, op_id=len(ops))
        if traced:
            tracer.collect_workers()
        if ops and op["csv_digest"] != ops[0]["csv_digest"] and not op["problems"]:
            op["problems"].append("CSV differs from the run's first op")
        ops.append(op)
    return ops, tracer


# -------------------------------------------------------------- metrics


def setup_times(w, size, n) -> list[float]:
    """Wall time from spawning a fresh interpreter to condisp imported and
    the workload's first H(t) provider built, n times."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), w.name, size]
    times = []
    for _ in range(n):
        t0 = perf_counter()
        with subprocess.Popen(probe, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchError(f"set-up probe failed (exit {proc.returncode})")
        times.append(t1 - t0)
    return times


def tail(values):
    """(value, percentile, samples beyond) of the highest percentile with
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    xs = sorted(values)
    n = len(xs)
    k = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return xs[k - 1], 100.0 * k / n, n - k


def end_to_end(w, ops, peak_rss_kib, setups):
    ok = [op for op in ops if not op["problems"]]
    walls = [op["wall"] for op in (ok or ops)]
    value, pct, beyond = tail(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s_p50": statistics.median(walls),
        "op_s_tail": value,
        "sim_periods_per_s": w.periods * len(ok) / sum(op["wall"] for op in ok) if ok else 0.0,
        "peak_rss_mb": peak_rss_kib / 1024.0,
        "ok_ratio": len(ok) / len(ops),
    }
    notes = {
        "op_s_tail": f"p{pct:.4g} of n={len(walls)}, {beyond} beyond",
        "setup_s": f"median of {len(setups)} fresh processes",
        "ok_ratio": f"fail_ratio = {(len(ops) - len(ok)) / len(ops):.4g} "
                    f"({len(ops) - len(ok)} of {len(ops)} ops failed)",
        "peak_rss_mb": "largest pool worker" if w.name == "sweep" else "client process",
    }
    return metrics, notes


def per_layer(ops, tracer):
    from tracer import median_layers, per_op_layers

    traced = [i for i, op in enumerate(ops) if op["traced"]]
    untraced = [op["wall"] for op in ops if not op["traced"]]
    layers = per_op_layers(tracer, traced)
    metrics = median_layers(layers)
    metrics["cli.csv_bytes"] = statistics.median_low(ops[i]["csv_bytes"] for i in traced)
    metrics["cli.sweep.cpu_per_wall"] = statistics.median(
        ops[i]["child_cpu"] / ops[i]["wall"] for i in traced)
    metrics["cli.sweep.points"] = statistics.median_low(ops[i]["points"] for i in traced)
    traced_p50 = statistics.median(ops[i]["wall"] for i in traced)
    metrics["trace.overhead_frac"] = traced_p50 / statistics.median(untraced) - 1.0 \
        if untraced else 0.0
    metrics["trace.ops"] = len(traced)
    metrics["trace.absent_targets"] = len(tracer.absent)
    problems = []
    for name in ("model.h_eval.count", "model.h_eval.bytes_computed"):
        seen = {layers[i][name] for i in traced}
        if len(seen) > 1:
            problems.append(f"{name} differs between ops: {sorted(seen)}")
    if len({ops[i]["csv_bytes"] for i in traced}) > 1:
        problems.append("cli.csv_bytes differs between ops")
    notes = {
        "trace.overhead_frac": f"traced op p50 {traced_p50:.4g} s against untraced "
                               + (f"{statistics.median(untraced):.4g} s" if untraced
                                  else "(no untraced op fitted)"),
        "trace.absent_targets": ", ".join(tracer.absent) or "none",
    }
    if any(ops[i]["points"] for i in traced):
        notes["cli.sweep.points"] = ("layer figures summed over pool worker spans"
                                     if tracer.worker_spans else
                                     "parent view only: workers not forked, no worker spans")
    return metrics, notes, problems


# ----------------------------------------------------------------- main


def run_workload(args) -> dict:
    mods = import_condisp()
    specs = metric_specs()
    w = workloads.get(args.workload, args.size, args.seed)
    print("env " + json.dumps(environment(args.seed)), flush=True)
    print(f"workload {w.name} ({args.size}): condisp {w.command} "
          + " ".join(f"{k}={v}" for k, v in w.overrides.items()), flush=True)
    out_dir = OUT / f"{w.name}-{args.size}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    workloads.first_build(w)  # the client's own set-up, outside the ops

    ops, tracer = op_loop(mods, w, args.size, args.seconds, args.trace, out_dir)
    for i, op in enumerate(ops):
        for p in op["problems"]:
            print(f"op {i} FAILED: {p}", file=sys.stderr)
    failed = sum(1 for op in ops if op["problems"])
    problems = []
    if args.trace:
        metrics, notes, problems = per_layer(ops, tracer)
        units = specs["per_layer"]
        spans_path = OUT / f"spans-{w.name}-{args.size}.jsonl"  # the last traced run
        tracer.write(str(spans_path))
        print(f"spans written to {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    else:
        # children so far are the sweep's pool workers; the set-up probes
        # below are children too, so read the peak before they run
        who = resource.RUSAGE_CHILDREN if w.name == "sweep" else resource.RUSAGE_SELF
        peak = resource.getrusage(who).ru_maxrss
        metrics, notes = end_to_end(w, ops, peak, setup_times(w, args.size, SETUP_RUNS))
        units = specs["end_to_end"]
    for p in problems:
        print(f"check FAILED: {p}", file=sys.stderr)
    missing = [name for name in units if name not in metrics]
    if missing:
        raise BenchError(f"no value computed for {', '.join(missing)}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{w.name}  {name} = {metrics[name]:.6g} {unit}{note}")
    shutil.rmtree(out_dir, ignore_errors=True)
    return {"correct": failed == 0 and not problems, "attempted": len(ops),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def run_all(args) -> dict:
    """Every workload in its own process, so peak RSS stays per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            raise BenchError(f"workload {name} exited with status {proc.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="'small' is a seconds-long version for the benchmark's tests")
    args = parser.parse_args(argv)
    try:
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
