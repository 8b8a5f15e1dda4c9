"""Every function the benchmark's tracer wraps still exists under its name.

A missing target only shows as `trace.missing_targets` in a traced
benchmark run, so renaming or moving one of these names must fail here.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace_under_test", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_layertrace().TARGETS


@pytest.mark.parametrize("span, module_name, path", TARGETS, ids=[f"{t[1]}.{t[2]}" for t in TARGETS])
def test_target_resolves_to_a_callable(span, module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{span}: {module_name}.{path} is not callable"
