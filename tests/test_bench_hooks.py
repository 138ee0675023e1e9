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


def test_analyze_runs_the_traced_oracle(
    monkeypatch: pytest.MonkeyPatch, tmp_path: Path
) -> None:
    """The traced run reports ``oracle.compute_stats_s``,
    ``oracle.interarrival_s``, ``oracle.pcc_s``, ``oracle.ground_truth_s``
    and ``oracle.breakdown_s`` by wrapping these names inside
    ``reordermon.harness``; ``analyze`` must call each through them."""
    from reordermon import cli, harness

    trace = tmp_path / "trace.csv"
    assert cli.main(
        ["generate", "--out", str(trace), "--prefixes", "16", "--duration", "0.5",
         "--bad-fraction", "0.5", "--seed", "3"]
    ) == 0
    calls = []
    names = (
        "compute_stats",
        "interarrival_histogram",
        "mean_pearson_correlation",
        "ground_truth",
        "flow_size_reorder_breakdown",
    )
    for name in names:
        real = getattr(harness, name)

        def recording(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(harness, name, recording)
    out = tmp_path / "analysis"
    assert cli.main(
        ["analyze", "--trace", str(trace), "--out", str(out), "--pcc-reps", "3"]
    ) == 0
    assert sorted(set(calls)) == sorted(names)
    assert calls.count("mean_pearson_correlation") == 2  # DEF1 and DEF2
    assert calls.count("ground_truth") == 2


def test_generate_runs_the_traced_writers(
    monkeypatch: pytest.MonkeyPatch, tmp_path: Path
) -> None:
    """The traced run reports ``traceio.write_s`` by wrapping
    ``write_trace_csv`` and ``write_sidecar`` inside ``reordermon.cli``, and
    ``traceio.csv_mb`` from the ``tell()`` of the trace writer's second
    argument; ``generate`` must call both writers through those names."""
    from reordermon import cli

    calls = []
    for name in ("write_trace_csv", "write_sidecar"):
        real = getattr(cli, name)

        def recording(*args, _name=name, _real=real):
            _real(*args)
            calls.append((_name, args[1].tell() if _name == "write_trace_csv" else None))

        monkeypatch.setattr(cli, name, recording)
    trace, sidecar = tmp_path / "trace.csv", tmp_path / "truth.csv"
    assert cli.main(
        ["generate", "--out", str(trace), "--sidecar", str(sidecar), "--prefixes", "8",
         "--duration", "0.2", "--seed", "1"]
    ) == 0
    assert calls == [("write_trace_csv", trace.stat().st_size), ("write_sidecar", None)]


def test_traced_round_counts_what_it_runs(tmp_path: Path) -> None:
    """The traced run's counters read the arguments and results of the
    names it wraps (``len(result[0])`` of ``parse_trace``, the ``tell()``
    of the trace writer's file, the report columns, the simulated check
    matrix); a changed return shape must fail here, not only in the slow
    benchmark self-test."""
    from reordermon import cli

    trace = tmp_path / "trace.csv"
    common = ("--trace", str(trace), "--buckets", "16", "--seeds", "0")
    commands = [
        ["generate", "--out", str(trace), "--sidecar", str(tmp_path / "truth.csv"),
         "--prefixes", "16", "--duration", "0.5", "--bad-fraction", "0.5", "--seed", "3"],
        ["analyze", "--trace", str(trace), "--out", str(tmp_path / "analysis"),
         "--pcc-reps", "3"],
        ["sweep", *common, "--out", str(tmp_path / "array"), "--algo", "array"],
        ["sweep", *common, "--out", str(tmp_path / "hh"), "--algo", "hh"],
        ["grid-hybrid", *common, "--out", str(tmp_path / "grid"), "--hh-fraction", "0.5"],
        ["validate-lemma", "--preset", "two-equal-flows", "--trials", "3"],
    ]
    recorder = tracer.Tracer("hooks", "hooks:0")
    saved = tracer.install(recorder)
    try:
        main = recorder.wrap("cli.main", cli.main, per_packet=False)
        codes = [main(argv) for argv in commands]
    finally:
        tracer.uninstall(saved)
    assert codes == [0] * len(commands)
    rows = len(trace.read_text().splitlines()) - 1
    metrics = recorder.layer_metrics(1.0, rows)
    assert metrics["traceio.rows_read"] == 4 * rows  # analyze, two sweeps, grid-hybrid
    assert metrics["traceio.rows_dropped"] == 0  # a generated trace has no zero payload
    assert metrics["traceio.csv_mb"] * 2**20 == trace.stat().st_size
    assert metrics["sampling.reports"] > 0
    assert metrics["controlplane.reports_ingested"] > 0
    assert metrics["checkmodel.trials"] == 3
    assert metrics["checkmodel.checks"] > 0
