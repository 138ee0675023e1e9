"""The traced benchmark run (``bench/tracer.py``) wraps reordermon functions
and methods by name; a rename must fail here, not only in the slow
benchmark self-test."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("module_name,attr", [(m, a) for m, a, _ in tracer.FUNCTIONS])
def test_traced_function_resolves(module_name: str, attr: str) -> None:
    assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize(
    "module_name,cls_name,attr", [(m, c, a) for m, c, a, _, _ in tracer.METHODS]
)
def test_traced_method_resolves(module_name: str, cls_name: str, attr: str) -> None:
    cls = getattr(importlib.import_module(module_name), cls_name)
    # the tracer replaces the entry in the class's own namespace
    assert attr in cls.__dict__
