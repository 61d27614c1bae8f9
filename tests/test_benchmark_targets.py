"""The benchmark's tracer wraps condisp attributes by name.

perfbench/tracer.py lists them in TARGETS as (module, attribute, span). A
refactor that drops or renames one would only show up as an absent
target in the benchmark's own, slower self-tests; here it fails the main
suite, as does one that moves a call where the tracer no longer sees it.
The tracer also wraps each provider hamiltonian_fn builds in a
function that copies the provider's attributes; such a wrapper must still
propagate as the provider does. The benchmark's set-up build,
perfbench/workloads.first_build, calls hamiltonian_fn by its positional
shape; a change to that shape fails here too.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    """perfbench/<name>.py, loaded by path and registered, as its
    dataclasses need."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads")
TRACER = _load("tracer")


@pytest.mark.parametrize("name", WORKLOADS.NAMES)
def test_first_build(name):
    """Each workload's first H(t) build, as the benchmark's set-up makes it,
    is the lab provider on the workload's layout."""
    from condisp import model

    w = WORKLOADS.get(name, "small")
    h = WORKLOADS.first_build(w)
    assert isinstance(h, model._LabProvider) and h.layout == WORKLOADS.model_args(w)[2]


@pytest.mark.parametrize("module, attr, span", TRACER.TARGETS)
def test_tracer_target_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(f"condisp.{module}"), attr, None)), \
        f"condisp.{module}.{attr} (span {span}) is gone"


@pytest.mark.parametrize("name, propagation", [("gate", "propagate.evolve_columns"),
                                               ("cat", "propagate.evolve_columns"),
                                               ("trace", "propagate.fidelity_trace")])
def test_tracer_reaches_condisp(name, propagation, tmp_path, capsys):
    """A small op run as the benchmark runs it, through Tracer.run_op on
    cli.run, records its build, frame phases and propagation spans, and
    evaluates the wrapped provider once, to check its parts."""
    from condisp import cat, cli, gate, model, propagate

    tracer = TRACER.Tracer(str(tmp_path))
    modules = {"cat": cat, "cli": cli, "gate": gate, "model": model, "propagate": propagate}
    cfg = WORKLOADS.resolved_config(WORKLOADS.get(name, "small"), str(tmp_path))
    assert tracer.run_op(3, modules, cli.run, cfg) == 0
    names = [s[1] for s in tracer.spans]
    assert tracer.absent == [] and {s[5] for s in tracer.spans} == {3}
    assert {"model.build", "model.frame_phases", propagation} <= set(names)
    assert names.count("model.h_eval") == 1


def _tracer_wrapper(provider, calls: list):
    """A counting wrapper that copies the provider's attributes the way the
    tracer's provider wrapper does."""
    def h_eval(t):
        calls.append(t)
        return provider(t)

    h_eval.__dict__.update(provider.__dict__)
    return h_eval


def _wraps_wrapper(provider, calls: list):
    @functools.wraps(provider)
    def h_eval(t):
        calls.append(t)
        return provider(t)
    return h_eval


@pytest.mark.parametrize("wrap", [_tracer_wrapper, _wraps_wrapper])
def test_wrapped_lab_provider(wrap, monkeypatch):
    """A wrapped lab provider carries its parts, omega_max and layout,
    propagates bit for bit as the provider does, and is evaluated once per
    cat experiment, to check the parts it carries, whatever the step count."""
    from condisp import DriveParams, HilbertLayout, SystemParams, cat, model
    from condisp.hilbert import basis_state
    from condisp.propagate import EvolutionConfig, evolve_columns

    lay = HilbertLayout(1, 24)  # room for the k = 6 cat
    p = SystemParams(omega_q=3.0, g=0.2, n_qubits=1)
    d = DriveParams.from_alpha((1.832,), 3.0)
    provider = model.hamiltonian_fn(p, d, "lab-driven", lay)
    calls = []
    h = wrap(provider, calls)
    assert (h.parts, h.omega_max, h.layout) == (provider.parts, provider.omega_max, lay)
    v0 = basis_state(lay, "g", 0).vec
    cfg = EvolutionConfig()
    assert np.array_equal(evolve_columns(h, v0, 1.0, cfg),
                          evolve_columns(provider, v0, 1.0, cfg))

    def build(*args):
        return wrap(model.hamiltonian_fn(*args), calls)

    monkeypatch.setattr(cat, "hamiltonian_fn", build)
    evaluations = []
    for k in (1, 2, 3, 6):
        calls.clear()
        cat.cat_fidelity_experiment(p, d, k, cfg, lay)
        evaluations.append(len(calls))
    assert evaluations == [1, 1, 1, 1]
