"""The four benchmark workloads: one condisp CLI experiment each.

An operation (op) is one experiment, run the way its CLI subcommand runs
it: ``condisp.cli.run`` on a resolved config, including its CSV write.
Each workload fixes its input sizes; only the gate trial seed comes from
the benchmark's ``--seed``. Every op is checked against the values the
seed commit produced (``reference.json``) or, for the gate, against the
acceptance band of criterion 3.

This module does not import condisp at import time, so the set-up probe
can start its clock before the package loads.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Check tolerances, none looser than the matching acceptance criterion.
VALUE_TOL = 1e-6          # criterion 8's step-halving bound
GATE_CENTRE = 0.9948      # criterion 3: mean gate fidelity at g = 0.2
GATE_TOL = 0.01


@dataclass(frozen=True)
class Workload:
    """One CLI experiment at a fixed input size.

    ``overrides`` are the dotted config keys the equivalent ``condisp``
    command line sets; ``periods`` is the simulated resonator time one op
    completes; ``csv_name`` is the file the op writes.
    """

    name: str
    command: str
    overrides: dict
    periods: float
    csv_name: str


# name -> (subcommand, CSV name, config keys, {size: (size keys, periods per op)}).
# "small" is a seconds-long version for the benchmark's own tests.
_TABLE = {
    "trace": ("validate-effective", "validate-effective-eta3-g0.5.csv",
              {"experiment": "validate-effective", "system.eta": 3.0, "system.g": 0.5,
               "drive.alpha1": 1.20242, "system.n_qubits": 2},
              {"full": ({"system.fock_dim": 64, "trace.periods": 1.0}, 1.0),
               "small": ({"system.fock_dim": 8, "trace.periods": 0.1}, 0.1)}),
    "gate": ("gate-fidelity", "gate-fidelity-trials-seed{seed}.csv",
             {"experiment": "gate-fidelity", "system.eta": 3.0, "system.g": 0.2,
              "drive.alpha1": 1.20242, "system.n_qubits": 2},
             {"full": ({"system.fock_dim": 32, "gate.trials": 20000}, 1.0),
              "small": ({"system.fock_dim": 8, "gate.trials": 500}, 1.0)}),
    "cat": ("cat-state", "cat-state-k{steps}.csv",
            {"experiment": "cat-state", "system.n_qubits": 1, "system.eta": 3.0,
             "system.g": 0.2, "drive.alpha1": 1.832},
            {"full": ({"system.fock_dim": 128, "cat.steps": 6}, 3.0),
             "small": ({"system.fock_dim": 16, "cat.steps": 1}, 0.5)}),
    "sweep": ("sweep", "sweep.csv",
              {"experiment": "sweep", "sweep.metric": "mean-f1", "system.n_qubits": 2,
               "sweep.axis1": "system.g", "sweep.start1": 0.1, "sweep.stop1": 0.4,
               "sweep.workers": 2},
              {"full": ({"system.fock_dim": 32, "sweep.points1": 6,
                         "trace.periods": 0.5}, 3.0),
               "small": ({"system.fock_dim": 8, "sweep.points1": 2,
                          "trace.periods": 0.05}, 0.1)}),
}

NAMES = tuple(_TABLE)
SIZES = ("full", "small")


def get(name: str, size: str = "full", seed: int = 7) -> Workload:
    """The workload ``name`` at ``size``; ``seed`` feeds the gate trials."""
    if name not in _TABLE:
        raise ValueError(f"unknown workload {name!r} (have {', '.join(NAMES)})")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r} (have {', '.join(SIZES)})")
    command, csv_name, base, sizes = _TABLE[name]
    extra, periods = sizes[size]
    overrides = {**base, **extra}
    if name == "gate":
        overrides["gate.seed"] = seed
    csv_name = csv_name.format(seed=seed, steps=overrides.get("cat.steps"))
    return Workload(name, command, overrides, periods, csv_name)


def resolved_config(w: Workload, out_dir: str) -> dict:
    """Full config for ``condisp.cli.run``, as the CLI would resolve it."""
    from condisp import cli

    cfg = cli.default_config()
    unknown = [k for k in w.overrides if k not in cfg]
    if unknown:
        raise ValueError(f"config keys not in this condisp: {', '.join(unknown)}")
    cfg.update(w.overrides)
    cfg["output.dir"] = out_dir
    if w.name == "gate":
        cfg["_per_trial"] = True  # what `gate-fidelity --per-trial` sets
    return cfg


def model_args(w: Workload):
    """(params, drive, layout) of the workload's first H(t) build.

    Applies the CLI's resolution rules (resonant modulation, opposite
    second index) through the public model API; a sweep builds its first
    grid point first.
    """
    from condisp import DriveParams, HilbertLayout, SystemParams

    cfg = resolved_config(w, ".")
    if w.name == "sweep":
        cfg[cfg["sweep.axis1"]] = cfg["sweep.start1"]
    nq = cfg["system.n_qubits"]
    omega_r = cfg["system.omega_r"]
    omega_q = cfg["system.eta"] * omega_r
    params = SystemParams(omega_q=omega_q, g=cfg["system.g"], n_qubits=nq, omega_r=omega_r)
    alpha = cfg["drive.alpha1"]
    drive = DriveParams.from_alpha((alpha,) if nq == 1 else (alpha, -alpha), omega_q,
                                   cfg["drive.phi"])
    return params, drive, HilbertLayout(n_qubits=nq, fock_dim=cfg["system.fock_dim"])


def first_build(w: Workload):
    """The workload's first ``model.hamiltonian_fn`` build (fills _blocks)."""
    from condisp import model

    params, drive, layout = model_args(w)
    return model.hamiltonian_fn(params, drive, "lab-driven", layout)


# ---------------------------------------------------------------- checks


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as f:
        return json.load(f)


def stdout_values(text: str) -> dict:
    """`key = value` lines that condisp prints after an experiment."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _close(name: str, got: float, want: float, tol: float) -> str | None:
    if not (math.isfinite(got) and abs(got - want) <= tol):
        return f"{name} = {got!r}, expected {want!r} +- {tol:g}"
    return None


def _csv_rows(data: bytes) -> list[list[str]]:
    lines = [l for l in data.decode("utf-8").splitlines() if l and not l.startswith("#")]
    return [l.split(",") for l in lines[1:]]  # drop the column header


def check_op(w: Workload, size: str, stdout: str, csv: bytes,
             reference: dict) -> list[str]:
    """Problems with one op's output; an empty list means it passed."""
    got = stdout_values(stdout)
    ref = reference.get(w.name, {}).get(size)
    problems = []
    try:
        if w.name == "trace":
            problems.append(_close("min_F1", float(got["min_F1"]), ref["min_F1"], VALUE_TOL))
            problems.append(_close("mean_F1", float(got["mean_F1"]), ref["mean_F1"], VALUE_TOL))
            n_rows = len(_csv_rows(csv))
            if n_rows != ref["rows"]:
                problems.append(f"trace CSV has {n_rows} rows, expected {ref['rows']}")
        elif w.name == "gate":
            problems.append(_close("mean_fidelity", float(got["mean_fidelity"]),
                                   GATE_CENTRE, GATE_TOL))
            trials = w.overrides["gate.trials"]
            if int(got["trials"]) != trials or len(_csv_rows(csv)) != trials:
                problems.append(f"gate wrote {got['trials']} trials, expected {trials}")
        elif w.name == "cat":
            problems.append(_close("fidelity", float(got["fidelity"]), ref["fidelity"],
                                   VALUE_TOL))
        else:
            rows = _csv_rows(csv)
            if len(rows) != len(ref["rows"]):
                problems.append(f"sweep wrote {len(rows)} rows, expected {len(ref['rows'])}")
            for row, want in zip(rows, ref["rows"]):
                problems.append(_close(f"sweep g={row[0]}", float(row[-1]), want, VALUE_TOL))
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        problems.append(f"output could not be read ({type(exc).__name__}: {exc})")
    return [p for p in problems if p]
