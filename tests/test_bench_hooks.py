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


def test_validate_lemma_runs_the_traced_simulator(monkeypatch: pytest.MonkeyPatch) -> None:
    """The traced run reports ``checkmodel.simulate_s`` by wrapping the
    module-level ``simulate_flow_checks``; the CLI must reach it through
    that name, or the metric reads 0."""
    from reordermon import checkmodel, cli

    calls = []
    real = checkmodel.simulate_flow_checks

    def recording(model, trials, seed=0):
        calls.append(trials)
        return real(model, trials, seed)

    monkeypatch.setattr(checkmodel, "simulate_flow_checks", recording)
    assert cli.main(["validate-lemma", "--preset", "two-equal-flows", "--trials", "3"]) == 0
    assert calls == [3]
