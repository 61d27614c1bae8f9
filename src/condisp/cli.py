"""Experiment runner CLI.

Everything is driven by a flat dotted-key config (system.g, drive.alpha1,
...) that can come from a file, a named preset, or command-line flags, in
that order of precedence. _build turns a config into model objects once
per run and once per sweep grid point, refusing every value the run
cannot use before anything warns or propagates; the result file's header
(condisp.output, which echoes the resolved config), the experiment and
the sweep metric all take the objects it built.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from .hilbert import HilbertLayout, basis_state
from .model import DriveParams, SystemParams, effective_couplings
from .numerics import bessel_j
from .output import _header_lines, _write_csv
from .propagate import (EvolutionConfig, PropagationAccuracyError, _top_level_record,
                        fidelity_trace)
from .gate import _trial_ratio, gate_columns, gate_fidelity_trials
from .cat import cat_fidelity_experiment, decompose_cat, multi_step_cat

__all__ = ["main", "run", "parse_config", "format_config", "PRESETS"]

EXPERIMENTS = ("validate-effective", "gate-fidelity", "cat-state", "bessel", "sweep")
METRICS = ("min-f1", "mean-f1", "gate-fidelity", "cat-fidelity")
SWEEPABLE = ("system.eta", "system.g", "drive.alpha1", "drive.alpha2")
MAX_GRID_POINTS = 10_000

_AUTO = "auto"  # sentinel for derived-unless-overridden values
# Largest population on the top Fock level a run may sample without a
# warning: a population p there moves the printed numbers by about p
# (gate-strong: 7.9e-6 at Fock 12 and 9.6e-8 at Fock 16 moved its mean
# fidelity by 6.4e-6 and 1.3e-7 against Fock 32), so above 1e-12 the last
# of their 12 significant digits may depend on the cutoff.
_TRUNCATION_WARN = 1e-12
# The qubit count an experiment or sweep metric needs, where it needs one.
_QUBITS = {"gate-fidelity": 2, "cat-state": 1, "cat-fidelity": 1}


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


def _parse_float(key, raw):
    try:
        v = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"{key}: must be finite, got {raw!r}")
    return v


def _parse_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_opt_float(key, raw):
    if raw == _AUTO:
        return None
    return _parse_float(key, raw)


def _choice(*options):
    def parse(key, raw):
        if raw not in options:
            raise ConfigError(f"{key}: must be one of {', '.join(options)}; got {raw!r}")
        return raw
    return parse


def _parse_str(key, raw):
    return raw


# key -> (parser, default). Order here is the canonical echo order.
_SCHEMA = {
    "experiment": (_choice(*EXPERIMENTS), "validate-effective"),
    "system.eta": (_parse_float, 3.0),
    "system.g": (_parse_float, 0.2),
    "system.omega_r": (_parse_float, 1.0),
    "system.n_qubits": (_parse_int, 2),
    "system.fock_dim": (_parse_int, 32),
    "system.d_coupling": (_parse_opt_float, None),
    "drive.alpha1": (_parse_float, 1.20242),
    "drive.alpha2": (_parse_opt_float, None),
    "drive.omega_d": (_parse_opt_float, None),
    "drive.phi": (_parse_float, math.pi / 2),
    "evolution.dt": (_parse_opt_float, None),
    "trace.periods": (_parse_float, 1.0),
    "gate.trials": (_parse_int, 50),
    "gate.seed": (_parse_int, 7),
    "cat.steps": (_parse_int, 1),
    "sweep.metric": (_choice(*METRICS), "mean-f1"),
    "sweep.workers": (_parse_int, 1),
    "sweep.axis1": (_parse_str, ""),
    "sweep.start1": (_parse_opt_float, None),
    "sweep.stop1": (_parse_opt_float, None),
    "sweep.points1": (_parse_int, 0),
    "sweep.axis2": (_parse_str, ""),
    "sweep.start2": (_parse_opt_float, None),
    "sweep.stop2": (_parse_opt_float, None),
    "sweep.points2": (_parse_int, 0),
    "output.dir": (_parse_str, "."),
}

PRESETS = {
    # effective-model validation traces; the second eta shows the ordering
    "effective-validation": {
        "experiment": "validate-effective",
        "system.eta": 3.5, "system.g": 0.2, "drive.alpha1": 1.20242,
    },
    "validity-breakdown": {
        "experiment": "validate-effective",
        "system.eta": 3.0, "system.g": 0.5, "drive.alpha1": 1.20242,
    },
    "gate-weak": {
        "experiment": "gate-fidelity",
        "system.eta": 3.0, "system.g": 0.2, "drive.alpha1": 1.20242,
        "gate.trials": 50,
    },
    "gate-strong": {
        "experiment": "gate-fidelity",
        "system.eta": 3.0, "system.g": 0.5, "drive.alpha1": 1.20242,
        "gate.trials": 50,
    },
    "cat-1step": {
        "experiment": "cat-state", "system.n_qubits": 1,
        "system.eta": 3.0, "system.g": 0.2, "drive.alpha1": 1.832,
        "cat.steps": 1,
    },
    "cat-2step": {
        "experiment": "cat-state", "system.n_qubits": 1,
        "system.eta": 3.0, "system.g": 0.2, "drive.alpha1": 1.832,
        "cat.steps": 2,
    },
}


def default_config() -> dict:
    return {key: default for key, (_, default) in _SCHEMA.items()}


def parse_config(text: str) -> dict:
    """Parse `key = value` lines into a typed partial config.

    '#' comments and blank lines are skipped. Unknown keys and malformed
    values are reported with their line number.
    """
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.rstrip()!r}")
        key, _, raw = body.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        parser, _ = _SCHEMA[key]
        try:
            out[key] = parser(key, raw)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return out


def _format_value(v) -> str:
    if v is None:
        return _AUTO
    if isinstance(v, float):
        return repr(v)  # shortest lossless form
    return str(v)


def format_config(cfg: dict) -> str:
    """Render a config as text that parse_config maps back to it (run
    refuses a config whose values would not read back)."""
    lines = [f"{key} = {_format_value(cfg[key])}" for key in _SCHEMA if key in cfg]
    return "\n".join(lines) + "\n"


def _check_echo(cfg) -> None:
    """Refuse a config that its echo in a result file's header would not
    map back to, such as a value holding a '#' or a line break."""
    for key in _SCHEMA:
        line = f"{key} = {_format_value(cfg[key])}"
        try:
            back = parse_config(line) if len(line.splitlines()) == 1 else {}
        except ConfigError:
            back = {}
        if key not in back or back[key] != cfg[key]:
            raise ConfigError(f"{key}: the value {cfg[key]!r} does not read back from "
                              f"its echo {line!r} in the result header")


class _Run(NamedTuple):
    """A config and the model objects _build made of it (picklable)."""
    cfg: dict
    params: SystemParams
    drive: DriveParams
    layout: HilbertLayout
    evo: EvolutionConfig


def _build(cfg) -> _Run:
    """Resolve a config into model objects, refusing a qubit count, cat.steps,
    gate trial setting or sweep.workers that its experiment or metric cannot use."""
    nq = cfg["system.n_qubits"]
    omega_r = cfg["system.omega_r"]
    omega_q = cfg["system.eta"] * omega_r
    try:
        params = SystemParams(omega_q=omega_q, g=cfg["system.g"], n_qubits=nq,
                              omega_r=omega_r, d_coupling=cfg["system.d_coupling"])
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from None
    alpha1 = cfg["drive.alpha1"]
    if nq == 1:
        if cfg["drive.alpha2"] is not None:
            raise ConfigError("drive.alpha2: not allowed with system.n_qubits = 1")
        alphas = (alpha1,)
    else:
        alpha2 = cfg["drive.alpha2"]
        alphas = (alpha1, -alpha1 if alpha2 is None else alpha2)
    omega_d = cfg["drive.omega_d"]
    if omega_d is None:
        omega_d = omega_q  # resonant modulation
    try:
        drive = DriveParams.from_alpha(alphas, omega_d, cfg["drive.phi"])
        layout = HilbertLayout(n_qubits=nq, fock_dim=cfg["system.fock_dim"])
        evo = EvolutionConfig(dt=cfg["evolution.dt"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    task = cfg["experiment"]
    if task == "sweep":
        if cfg["sweep.workers"] < 1:
            raise ConfigError(f"sweep.workers: must be >= 1, got {cfg['sweep.workers']}")
        task = cfg["sweep.metric"]
    need = _QUBITS.get(task)
    if need is not None and nq != need:
        raise ConfigError(f"system.n_qubits: {task} needs {need} qubit{'s' * (need > 1)}")
    if task == "gate-fidelity":
        _trial_ratio(params, drive, cfg["gate.trials"], cfg["gate.seed"])
    elif need == 1 and cfg["cat.steps"] < 1:
        raise ConfigError(f"cat.steps: must be >= 1, got {cfg['cat.steps']}")
    return _Run(cfg, params, drive, layout, evo)


def _warn_eta(etas) -> None:
    """One stderr warning naming each eta <= 2 of a run or a sweep's grid."""
    low = sorted({eta for eta in etas if eta <= 2.0})
    if low:
        print(f"warning: eta = {', '.join(f'{eta:g}' for eta in low)} <= 2; the effective "
              "model is outside its validity window, proceeding anyway", file=sys.stderr)


def _warn_truncation(top: float) -> None:
    """One stderr warning if a run's propagations at their full Fock cutoff
    put a population above _TRUNCATION_WARN on the top level."""
    if top > _TRUNCATION_WARN:
        print(f"warning: the top Fock level held a population of up to {top:.2g} (above "
              f"{_TRUNCATION_WARN:g}); results may depend on system.fock_dim, proceeding anyway",
              file=sys.stderr)


def _trace(cfg, params, drive, layout, evo):
    """The exact-vs-effective trace from the ground state over trace.periods."""
    psi0 = basis_state(layout, "g" * layout.n_qubits, 0)
    t_end = cfg["trace.periods"] * 2.0 * math.pi / params.omega_r
    return fidelity_trace(params, drive, psi0, t_end, evo)


# Each experiment returns its stdout lines and its result file, if it
# writes one: (name, comment lines below the header block, column header,
# columns); run prints and writes them.

def _run_validate(cfg, params, drive, layout, evo):
    trace = _trace(cfg, params, drive, layout, evo)
    name = f"validate-effective-eta{cfg['system.eta']:g}-g{cfg['system.g']:g}.csv"
    return ([f"min_F1 = {trace.min():.12g}", f"mean_F1 = {trace.mean():.12g}"],
            (name, [], "t_over_Tr,fidelity", (trace.t_over_period, trace.fidelities)))


def _run_gate(cfg, params, drive, layout, evo, per_trial: bool):
    columns = gate_columns(params, drive, evo, layout)
    fids = gate_fidelity_trials(params, drive, cfg["gate.trials"],
                                cfg["gate.seed"], evo, layout, columns=columns)
    stderr = float(np.std(fids, ddof=1) / math.sqrt(len(fids))) if len(fids) > 1 else 0.0
    printed = [f"trials = {len(fids)}", f"seed = {cfg['gate.seed']}",
               f"mean_fidelity = {float(np.mean(fids)):.12g}", f"stderr = {stderr:.12g}"]
    name = f"gate-fidelity-trials-seed{cfg['gate.seed']}.csv"
    return printed, (name, [], "trial,fidelity", (range(len(fids)), fids)) if per_trial else None


def _run_cat(cfg, params, drive, layout, evo):
    k = cfg["cat.steps"]
    # fidelity measures how close the full evolution lands on the target;
    # amplitude and probabilities characterize the target itself
    fid = cat_fidelity_experiment(params, drive, k, evo, layout)
    ratio = effective_couplings(params, drive)[0] / params.omega_r
    dec = decompose_cat(multi_step_cat(ratio, k, layout, params.omega_r))

    summary = [f"branch_amplitude = {abs(dec.beta):.12g}", f"p_even = {dec.p_even:.12g}",
               f"p_odd = {dec.p_odd:.12g}", f"fidelity = {fid:.12g}"]
    odd = np.zeros(layout.fock_dim) if dec.odd_state is None else dec.odd_state
    columns = (range(layout.fock_dim), abs(dec.even_state) ** 2, abs(odd) ** 2)
    name = f"cat-state-k{k}.csv"
    return [f"steps = {k}", *summary], (name, summary, "n,p_even_n,p_odd_n", columns)


def _metric_value(run: _Run) -> float:
    """Scalar metric for one sweep grid point's built run (top level:
    worker-picklable)."""
    cfg, params, drive, layout, evo = run
    metric = cfg["sweep.metric"]
    if metric in ("min-f1", "mean-f1"):
        trace = _trace(*run)
        return trace.min() if metric == "min-f1" else trace.mean()
    if metric == "gate-fidelity":
        return float(np.mean(gate_fidelity_trials(params, drive, cfg["gate.trials"],
                                                  cfg["gate.seed"], evo, layout)))
    return cat_fidelity_experiment(params, drive, cfg["cat.steps"], evo, layout)


@contextlib.contextmanager
def _at_point(overrides):
    """A with block whose library error, or size too large to allocate, is
    re-raised with the grid point's coordinates in front."""
    try:
        yield
    except (ValueError, PropagationAccuracyError, MemoryError) as exc:
        where = ", ".join(f"{key}={value:.12g}" for key, value in overrides)
        err = next(e for e in (PropagationAccuracyError, MemoryError, ValueError)
                   if isinstance(exc, e))
        raise err(f"sweep point {where}: {exc}") from exc


def _sweep_point(job) -> tuple[float, float]:
    """_metric_value for one (overrides, run) grid point, and the top Fock
    level's largest population its propagations sampled at their full
    cutoff; _at_point re-raises its errors (top level: worker-picklable)."""
    overrides, run = job
    with _at_point(overrides), _top_level_record() as top:
        value = _metric_value(run)
    return value, top[0]


def _sweep_axes(cfg):
    axes = []
    for i in ("1", "2"):
        key = cfg[f"sweep.axis{i}"]
        if not key:
            continue
        if key not in SWEEPABLE:
            raise ConfigError(
                f"sweep.axis{i}: {key!r} is not sweepable (choose from {', '.join(SWEEPABLE)})")
        start, stop = cfg[f"sweep.start{i}"], cfg[f"sweep.stop{i}"]
        points = cfg[f"sweep.points{i}"]
        if start is None or stop is None:
            raise ConfigError(f"sweep.start{i}/sweep.stop{i}: required for axis {key}")
        if points < 1:
            raise ConfigError(f"sweep.points{i}: must be >= 1, got {points}")
        axes.append((key, start, stop, points))
    if not axes:
        raise ConfigError("sweep.axis1: at least one sweep axis is required")
    if len(axes) == 2 and axes[0][0] == axes[1][0]:
        raise ConfigError(f"sweep.axis2: {axes[1][0]!r} is already swept as sweep.axis1")
    total = math.prod(points for *_, points in axes)
    if total > MAX_GRID_POINTS:  # before any grid is allocated
        raise ConfigError(
            f"sweep grid has {total} points, above the limit of {MAX_GRID_POINTS}")
    return [(key, np.linspace(start, stop, points)) for key, start, stop, points in axes]


def _run_sweep(cfg):
    """A sweep's stdout lines and result file, and the top Fock level's
    largest population over its points."""
    axes = _sweep_axes(cfg)  # the grid runs row-major: the first axis varies slowest
    grid = list(itertools.product(*[[(key, float(v)) for v in values] for key, values in axes]))
    jobs = []
    for overrides in grid:  # every point built, or refused, before the warning
        with _at_point(overrides):
            jobs.append((overrides, _build({**cfg, **dict(overrides)})))
    _warn_eta(run.cfg["system.eta"] for _, run in jobs)

    # the pool forks every worker at once: no more than the points or the CPUs
    workers = min(cfg["sweep.workers"], len(jobs), os.cpu_count() or 1)
    if workers == 1:
        points = [_sweep_point(job) for job in jobs]
    else:
        # imported here, so that no other command pays for the pool's import
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(_sweep_point, jobs, chunksize=1))
    values = [value for value, _ in points]
    metric = cfg["sweep.metric"]
    trend = "n/a"
    if len(axes) == 1 and len(values) > 1:
        diffs = np.diff(values)
        down, up = np.all(diffs <= 1e-12), np.all(diffs >= -1e-12)
        trend = ("constant" if down and up else "non-increasing" if down
                 else "non-decreasing" if up else "mixed")
    axis_keys = [k for k, _ in axes]
    trend_line = f"trend: {metric} is {trend}" \
        + (f" along {axis_keys[0]}" if len(axes) == 1 else "")
    columns = [[v for _, v in axis] for axis in zip(*grid)] + [values]
    return ([f"points = {len(values)}", trend_line],
            ("sweep.csv", [trend_line], ",".join(axis_keys + [metric]), columns),
            max(top for _, top in points))


def run(cfg: dict) -> int:
    """Execute a fully resolved config; returns a process exit status."""
    missing = [k for k in _SCHEMA if k not in cfg]
    if missing:
        raise ConfigError(f"config is missing keys: {', '.join(missing)}")
    _check_echo(cfg)
    try:  # before the experiment, which may run for long
        os.makedirs(cfg["output.dir"], exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output.dir: cannot create {cfg['output.dir']!r}: "
                          f"{exc.strerror or exc}") from None
    experiment = cfg["experiment"]
    built = _build(cfg)  # the run's one build, before anything warns or propagates
    if experiment == "sweep":  # a sweep builds, warns for and records each grid point
        printed, result, top = _run_sweep(cfg)
    else:
        _warn_eta([cfg["system.eta"]])
        with _top_level_record() as record:
            if experiment == "validate-effective":
                printed, result = _run_validate(*built)
            elif experiment == "gate-fidelity":
                printed, result = _run_gate(*built, per_trial=cfg.get("_per_trial", False))
            elif experiment == "cat-state":
                printed, result = _run_cat(*built)
            else:
                raise ConfigError(f"experiment: {experiment!r} is not runnable via run()")
        top = record[0]
    print("\n".join(printed))
    if result is not None:
        name, comments, header, columns = result
        path = os.path.join(cfg["output.dir"], name)
        comments = _header_lines(format_config(cfg), built.params, built.drive) + comments
        _write_csv(path, comments, header, columns)
        print(f"wrote {path}")
    _warn_truncation(top)
    return 0


def _merge_cli(cfg, args) -> set:
    """Apply CLI flag overrides onto the config dict; each config-backed
    flag stores under its dotted key. Returns the keys the flags set."""
    flags = {key: getattr(args, key) for key in _SCHEMA
             if getattr(args, key, None) is not None}
    cfg.update(flags)
    return set(flags)


def _load_layers(args, experiment: str) -> tuple[dict, set]:
    """The config from defaults, preset, config file and flags, in that
    order, and the keys that the config file or a flag set."""
    cfg = default_config()
    cfg["experiment"] = experiment
    if experiment == "cat-state":
        # The cat experiment is single-qubit by construction; a bare
        # `cat-state` invocation should run without extra flags.
        cfg["system.n_qubits"] = 1
    preset = getattr(args, "preset", None)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"preset: unknown preset {preset!r} (have {', '.join(sorted(PRESETS))})")
        overrides = PRESETS[preset]
        if overrides["experiment"] != experiment:
            raise ConfigError(
                f"preset: {preset!r} belongs to experiment {overrides['experiment']!r}")
        cfg.update(overrides)
    given = set()
    config_path = getattr(args, "config", None)
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as f:
                text = f.read()
        except OSError as exc:
            raise ConfigError(f"config: cannot read {config_path!r}: {exc}") from None
        overrides = parse_config(text)
        declared = overrides.get("experiment")
        if declared is not None and declared != experiment:
            raise ConfigError(
                f"experiment: config file says {declared!r} but the "
                f"subcommand is {experiment!r}")
        cfg.update(overrides)
        given.update(overrides)
    given |= _merge_cli(cfg, args)
    if getattr(args, "axis", None):
        if len(args.axis) > 2:
            raise ConfigError("--axis: at most 2 sweep axes")
        for i, (key, start, stop, points) in enumerate(args.axis, start=1):
            cfg[f"sweep.axis{i}"] = key
            cfg[f"sweep.start{i}"] = _parse_float(f"--axis {key} start", start)
            cfg[f"sweep.stop{i}"] = _parse_float(f"--axis {key} stop", stop)
            cfg[f"sweep.points{i}"] = _parse_int(f"--axis {key} points", points)
    return cfg, given


def _add_config(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="config file of key = value lines")


def _flag(sub: argparse.ArgumentParser, flag: str, key: str, **kw) -> None:
    """A config-backed flag stored under its dotted key; --help keeps argparse's metavar."""
    if "choices" not in kw:
        kw.setdefault("metavar", flag[2:].replace("-", "_").upper())
    sub.add_argument(flag, dest=key, **kw)


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    _flag(sub, "--out", "output.dir", metavar="DIR", help="output directory")
    _flag(sub, "--fock-dim", "system.fock_dim", type=int,
          help="resonator truncation dimension")
    _flag(sub, "--dt", "evolution.dt", type=float, help="integrator step, units 1/omega_r")
    _flag(sub, "--eta", "system.eta", type=float, help="omega_q / omega_r")
    _flag(sub, "--g", "system.g", type=float, help="coupling in units of omega_r")
    _flag(sub, "--alpha", "drive.alpha1", type=float, help="modulation index of qubit 1")
    _flag(sub, "--alpha2", "drive.alpha2", type=float,
          help="modulation index of qubit 2 (default -alpha)")
    _flag(sub, "--omega-d", "drive.omega_d", type=float,
          help="modulation frequency (default: resonant)")
    _flag(sub, "--phi", "drive.phi", type=float, help="modulation phase (default pi/2)")
    _flag(sub, "--n-qubits", "system.n_qubits", type=int, choices=[1, 2])


@functools.cache  # built once: each build leaves about 500 objects in cycles
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condisp",
        description="Conditional-displacement interaction simulator: "
                    "effective-model validation, phase-gate and cat-state "
                    "experiments on modulated qubits in a resonator.")
    parser.add_argument("--version", action="version", version=f"condisp {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate-effective",
                        help="exact-vs-effective fidelity trace over time")
    _add_config(p)
    _add_run_flags(p)
    _flag(p, "--periods", "trace.periods", type=float,
          help="trace length in resonator periods")
    p.add_argument("--preset", choices=["effective-validation", "validity-breakdown"])

    p = subs.add_parser("gate-fidelity",
                        help="average fidelity of the two-qubit phase gate")
    _add_config(p)
    _add_run_flags(p)
    _flag(p, "--trials", "gate.trials", type=int, help="number of random trial states")
    _flag(p, "--seed", "gate.seed", type=int, help="random seed of the trial states")
    p.add_argument("--per-trial", action="store_true",
                   help="also write a per-trial fidelity CSV")
    p.add_argument("--preset", choices=["gate-weak", "gate-strong"])

    p = subs.add_parser("cat-state",
                        help="conditional-displacement cat state experiment")
    _add_config(p)
    _add_run_flags(p)
    _flag(p, "--steps", "cat.steps", type=int, help="number of half-period steps")
    p.add_argument("--preset", choices=["cat-1step", "cat-2step"])

    p = subs.add_parser("bessel", help="evaluate J_l(x) (debug aid)")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--x", type=float, required=True)

    p = subs.add_parser("sweep", help="scan a metric over 1 or 2 parameters")
    _add_config(p)
    _add_run_flags(p)
    _flag(p, "--metric", "sweep.metric", choices=list(METRICS))
    p.add_argument("--axis", nargs=4, action="append",
                   metavar=("KEY", "START", "STOP", "POINTS"),
                   help="swept parameter, e.g. --axis system.g 0.05 0.5 10")
    _flag(p, "--workers", "sweep.workers", type=int, help="parallel workers for grid points")
    _flag(p, "--steps", "cat.steps", type=int, help="cat steps (cat-fidelity metric)")
    _flag(p, "--trials", "gate.trials", type=int, help="gate trials (gate-fidelity metric)")
    _flag(p, "--seed", "gate.seed", type=int, help="gate trial seed (gate-fidelity metric)")
    _flag(p, "--periods", "trace.periods", type=float, help="trace length for f1 metrics")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bessel":
            print(f"{bessel_j(args.order, args.x):.15g}")
            return 0
        cfg, given = _load_layers(args, args.command)
        if args.command == "gate-fidelity" and args.per_trial:
            cfg["_per_trial"] = True
        if args.command == "validate-effective" and getattr(args, "preset", None) \
                == "effective-validation" and "system.eta" not in given:
            # the preset is a pair of traces: the working point and a lower
            # eta that shows the approximation degrade
            status = 0
            for eta in (3.5, 2.5):
                sub_cfg = dict(cfg)
                sub_cfg["system.eta"] = eta
                status |= run(sub_cfg)
            return status
        return run(cfg)
    except (ValueError, PropagationAccuracyError, OSError) as exc:  # OSError: an unwritable file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size too large to allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
