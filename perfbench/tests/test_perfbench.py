"""Self-tests of the benchmark, every workload at its reduced size.

    python3 -m pytest perfbench/tests -q

They run in well under a minute and check the output contract, that
traced counts repeat exactly, that a sweep's rows do not depend on the
worker count, and that the benchmark refuses to run without condisp.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT_COUNTS = ("model.h_eval.count", "model.h_eval.bytes_computed", "cli.csv_bytes")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


def small(workload: str, trace: int, seed: int = 5):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                 "--trace", str(trace), "--size", "small")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(stdout: str, result: dict, workload: str, specs: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        line = rf"^{workload}  {re.escape(m['name'])} = \S+ {re.escape(m['unit'])}\b"
        assert re.search(line, stdout, re.M), f"{m['name']} not printed with its unit"


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_end_to_end_metrics_print_by_name_and_unit(workload):
    stdout, result = small(workload, trace=0)
    assert_metrics(stdout, result, workload, SPEC["end_to_end"])
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    env = json.loads(next(l for l in stdout.splitlines() if l.startswith("env "))[4:])
    for key in ("python", "numpy", "blas", "nproc", "affinity", "git_commit", "seed",
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        assert key in env
    assert env["seed"] == 5


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_counts_repeat_exactly(workload):
    runs = [small(workload, trace=1) for _ in range(2)]
    for stdout, result in runs:
        assert_metrics(stdout, result, workload, SPEC["per_layer"])
    (_, a), (_, b) = runs
    for name in EXACT_COUNTS:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"], name
    assert a["metrics"]["model.h_eval.count"]["value"] > 0
    assert a["metrics"]["cli.csv_bytes"]["value"] > 0
    assert a["metrics"]["trace.absent_targets"]["value"] == 0


@pytest.fixture()
def workdir(request):
    """A scratch directory inside the checkout's ignored output tree."""
    path = run.OUT / "tests" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_sweep_rows_do_not_depend_on_worker_count(workdir, capsys):
    cli = run.import_condisp()["cli"]
    w = workloads.get("sweep", "small")
    cfg = workloads.resolved_config(w, str(workdir))
    csvs = {}
    for n in (2, 1):
        cfg["sweep.workers"] = n
        assert cli.run(cfg) == 0
        csvs[n] = (workdir / w.csv_name).read_text(encoding="utf-8")
    # the echoed config names the worker count; every other byte must agree
    assert csvs[2].replace("sweep.workers = 2\n", "sweep.workers = 1\n") == csvs[1]


def test_check_rejects_output_off_the_reference(workdir, capsys):
    cli = run.import_condisp()["cli"]
    w = workloads.get("cat", "small")
    assert cli.run(workloads.resolved_config(w, str(workdir))) == 0
    stdout = capsys.readouterr().out
    csv = (workdir / w.csv_name).read_bytes()
    reference = workloads.load_reference()
    assert workloads.check_op(w, "small", stdout, csv, reference) == []
    reference["cat"]["small"]["fidelity"] += 2 * workloads.VALUE_TOL
    assert workloads.check_op(w, "small", stdout, csv, reference)


def test_missing_wrap_target_is_reported_not_fatal(workdir):
    mods = dict(run.import_condisp())
    mods["gate"] = types.SimpleNamespace()  # a gate module with none of its functions
    t = tracer.Tracer(str(workdir))
    t.install(mods)
    t.restore()
    assert "condisp.gate.evolve_columns" in t.absent
    assert "condisp.cli.gate_columns" not in t.absent
    assert mods["propagate"].hamiltonian_fn is mods["model"].hamiltonian_fn  # restored


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail(range(1, 31)) == (20, 100.0 * 20 / 30, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_refuses_to_run_without_the_program(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(BENCH, workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "gate", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=workdir)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
