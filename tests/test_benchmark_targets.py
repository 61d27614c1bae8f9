"""The benchmark's tracer wraps condisp attributes by name.

perfbench/tracer.py lists them in TARGETS as (module, attribute, span). A
refactor that drops or renames one would only show up as an absent
target in the benchmark's own, slower self-tests; here it fails the main
suite.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module, attr, span", _targets())
def test_tracer_target_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(f"condisp.{module}"), attr, None)), \
        f"condisp.{module}.{attr} (span {span}) is gone"
