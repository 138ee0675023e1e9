"""Traced in-process run of one benchmark workload.

Usage: python3 bench/tracer.py PLAN.json

``run.py --trace 1`` starts this script.  It imports ``reordermon.cli``
(timing the cold import), then alternates untraced and traced rounds of the
workload's commands through ``reordermon.cli.main(argv)`` - the code path of
the ``reordermon`` command - until the plan's time is used.  Tracing wraps
each layer's public functions where the caller looks them up, so the program
itself is unchanged.  Per-packet methods are aggregated into a call count
and a total instead of one span per packet.

Spans stay in memory until the end, then go to the plan's ``spans`` path as
JSON lines.  The per-layer metrics of the traced round with the median wall
time go to the plan's ``metrics`` path.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute, span name).  Functions are wrapped in the namespace
# that calls them, e.g. the oracle functions inside reordermon.harness.
FUNCTIONS = (
    ("reordermon.cli", "generate_synthetic_arrays", "traceio.generate"),
    ("reordermon.cli", "write_trace_csv", "traceio.write"),
    ("reordermon.cli", "write_sidecar", "traceio.write_sidecar"),
    ("reordermon.cli", "load_trace_arrays", "harness.load_trace_arrays"),
    ("reordermon.cli", "analyze_trace", "harness.analyze_trace"),
    ("reordermon.cli", "run_experiment", "harness.run_experiment"),
    ("reordermon.cli", "grid_search_hybrid", "harness.grid_search_hybrid"),
    ("reordermon.cli", "result_rows", "harness.result_rows"),
    ("reordermon.cli", "check_model_presets", "harness.check_model_presets"),
    ("reordermon.cli", "write_csv", "harness.write_csv"),
    ("reordermon.cli", "empirical_guarantee", "checkmodel.empirical_guarantee"),
    ("reordermon.harness", "parse_trace", "traceio.parse"),
    ("reordermon.harness", "write_csv", "harness.write_csv"),
    ("reordermon.harness", "compute_stats", "oracle.compute_stats"),
    ("reordermon.harness", "interarrival_histogram", "oracle.interarrival"),
    ("reordermon.harness", "mean_pearson_correlation", "oracle.pcc"),
    ("reordermon.harness", "flow_size_reorder_breakdown", "oracle.breakdown"),
    ("reordermon.harness", "ground_truth", "oracle.ground_truth"),
    ("reordermon.harness", "accuracy", "metrics.score"),
    ("reordermon.harness", "false_positive_rate", "metrics.score"),
    ("reordermon.harness", "communication_overhead", "metrics.score"),
    ("reordermon.checkmodel", "simulate_flow_checks", "checkmodel.simulate"),
)

# (module, class, method, span name, per packet)
METHODS = (
    ("reordermon.traceio", "PacketArrays", "from_records", "traceio.from_records", False),
    ("reordermon.sampling", "FlowSamplingArray", "process_trace", "sampling.process_trace", False),
    ("reordermon.sampling", "FlowSamplingArray", "flush", "sampling.flush", False),
    ("reordermon.sampling", "FlowSamplingArray", "process_packet", "sampling.process_packet", True),
    ("reordermon.heavyhitter", "ReorderHeavyHitter", "process_packet", "heavyhitter.process_packet", True),
    ("reordermon.heavyhitter", "ReorderHeavyHitter", "flush", "heavyhitter.flush", False),
    ("reordermon.hybrid", "HybridDetector", "process_packet", "hybrid.process_packet", True),
    ("reordermon.hybrid", "HybridDetector", "flush", "hybrid.flush", False),
    ("reordermon.controlplane", "ReportAggregator", "ingest_all", "controlplane.ingest", False),
    ("reordermon.controlplane", "ReportAggregator", "finalize", "controlplane.finalize", False),
)

LAYERS = (
    "traceio", "oracle", "sampling", "heavyhitter", "hybrid", "controlplane",
    "metrics", "harness", "checkmodel", "cli",
)

# Per-layer metrics: name -> (unit, better).  ``<layer>.self_s`` is the
# layer's span time minus its children's; all self times plus
# trace.unattributed_s add up to trace.wall_s.
METRICS = {
    "traceio.generate_s": ("s", "lower"),
    "traceio.write_s": ("s", "lower"),
    "traceio.csv_mb": ("MiB", "lower"),
    "traceio.parse_s": ("s", "lower"),
    "traceio.from_records_s": ("s", "lower"),
    "traceio.rows_read": ("count", "higher"),
    "traceio.rows_dropped": ("count", "lower"),
    "oracle.compute_stats_s": ("s", "lower"),
    "oracle.interarrival_s": ("s", "lower"),
    "oracle.pcc_s": ("s", "lower"),
    "oracle.breakdown_s": ("s", "lower"),
    "oracle.ground_truth_s": ("s", "lower"),
    "sampling.process_trace_s": ("s", "lower"),
    "sampling.process_trace_calls": ("count", "higher"),
    "sampling.flush_s": ("s", "lower"),
    "sampling.reports": ("count", "lower"),
    "sampling.process_packet_s": ("s", "lower"),
    "sampling.process_packet_calls": ("count", "lower"),
    "heavyhitter.process_packet_s": ("s", "lower"),
    "heavyhitter.process_packet_calls": ("count", "lower"),
    "heavyhitter.resident_frac": ("frac", "higher"),
    "heavyhitter.reports": ("count", "lower"),
    "heavyhitter.flush_s": ("s", "lower"),
    "hybrid.array_frac": ("frac", "lower"),
    "controlplane.ingest_s": ("s", "lower"),
    "controlplane.finalize_s": ("s", "lower"),
    "controlplane.reports_ingested": ("count", "lower"),
    "metrics.score_s": ("s", "lower"),
    "harness.write_csv_s": ("s", "lower"),
    "checkmodel.simulate_s": ("s", "lower"),
    "checkmodel.trials": ("count", "higher"),
    "checkmodel.checks": ("count", "higher"),
    "cli.import_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.wall_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


class Tracer:
    """Span recorder for one traced round."""

    def __init__(self, workload: str, run_id: str) -> None:
        self.workload = workload
        self.run_id = run_id
        self.spans: list[dict] = []
        self.stack: list[list] = []  # open frames: [name, child seconds, span id]
        self.next_id = 0
        self.per_packet: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, per_packet: bool):
        count = COUNTERS.get(name)
        stack = self.stack
        clock = time.perf_counter

        if per_packet:
            agg = self.per_packet[name]

            def wrapper(*args, **kwargs):
                frame = [name, 0.0, None]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    stack[-1][1] += elapsed
                    agg[0] += 1
                    agg[1] += elapsed
                    agg[2] += elapsed - frame[1]
                if count is not None:
                    count(self.counts, args, result, stack[-1][0])
                return result

            return wrapper

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, self.next_id]
            self.next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                self.spans.append(
                    {
                        "id": frame[2],
                        "name": name,
                        "start": start,
                        "end": end,
                        "parent": None if parent is None else parent[2],
                        "self_s": end - start - frame[1],
                        "workload": self.workload,
                        "run_id": self.run_id,
                    }
                )
            if count is not None:
                count(self.counts, args, result, name)
            return result

        return wrapper

    def layer_metrics(self, wall: float, trace_rows: int) -> dict[str, float]:
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for span in self.spans:
            total[span["name"]] += span["end"] - span["start"]
            self_s[span["name"].split(".")[0]] += span["self_s"]
            calls[span["name"]] += 1
        for name, (n, tot, own) in self.per_packet.items():
            total[name] += tot
            self_s[name.split(".")[0]] += own
            calls[name] += n
        roots = total["cli.main"]
        c = self.counts
        hh_calls = calls["heavyhitter.process_packet"]
        hybrid_calls = calls["hybrid.process_packet"]
        out = {
            "traceio.generate_s": total["traceio.generate"],
            "traceio.write_s": total["traceio.write"] + total["traceio.write_sidecar"],
            "traceio.csv_mb": c["traceio.csv_bytes"] / 2**20,
            "traceio.parse_s": total["traceio.parse"],
            "traceio.from_records_s": total["traceio.from_records"],
            "traceio.rows_read": calls["traceio.parse"] * trace_rows,
            "traceio.rows_dropped": calls["traceio.parse"] * trace_rows - c["traceio.rows_kept"],
            "oracle.compute_stats_s": total["oracle.compute_stats"],
            "oracle.interarrival_s": total["oracle.interarrival"],
            "oracle.pcc_s": total["oracle.pcc"],
            "oracle.breakdown_s": total["oracle.breakdown"],
            "oracle.ground_truth_s": total["oracle.ground_truth"],
            "sampling.process_trace_s": total["sampling.process_trace"],
            "sampling.process_trace_calls": calls["sampling.process_trace"],
            "sampling.flush_s": total["sampling.flush"],
            "sampling.reports": c["sampling.reports"],
            "sampling.process_packet_s": total["sampling.process_packet"],
            "sampling.process_packet_calls": calls["sampling.process_packet"],
            "heavyhitter.process_packet_s": total["heavyhitter.process_packet"],
            "heavyhitter.process_packet_calls": hh_calls,
            "heavyhitter.resident_frac": c["heavyhitter.resident"] / hh_calls if hh_calls else 0.0,
            "heavyhitter.reports": c["heavyhitter.reports"],
            "heavyhitter.flush_s": total["heavyhitter.flush"],
            "hybrid.array_frac": (
                c["hybrid.array_calls"] / hybrid_calls if hybrid_calls else 0.0
            ),
            "controlplane.ingest_s": total["controlplane.ingest"],
            "controlplane.finalize_s": total["controlplane.finalize"],
            "controlplane.reports_ingested": c["controlplane.reports_ingested"],
            "metrics.score_s": total["metrics.score"],
            "harness.write_csv_s": total["harness.write_csv"],
            "checkmodel.simulate_s": total["checkmodel.simulate"],
            "checkmodel.trials": c["checkmodel.trials"],
            "checkmodel.checks": c["checkmodel.checks"],
            "trace.wall_s": wall,
            "trace.unattributed_s": wall - roots,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        return out


def _count_write(counts, args, result, parent):
    counts["traceio.csv_bytes"] += args[1].tell()


def _count_parse(counts, args, result, parent):
    counts["traceio.rows_kept"] += len(result[0])


def _count_sampling_batch(counts, args, result, parent):
    counts["sampling.reports"] += len(result)


def _count_sampling_packet(counts, args, result, parent):
    counts["sampling.reports"] += result is not None
    counts["hybrid.array_calls"] += parent == "hybrid.process_packet"


def _count_hh_packet(counts, args, result, parent):
    counts["heavyhitter.resident"] += result[0]
    counts["heavyhitter.reports"] += result[1] is not None


def _count_hh_flush(counts, args, result, parent):
    counts["heavyhitter.reports"] += len(result)


def _count_ingest(counts, args, result, parent):
    counts["controlplane.reports_ingested"] += len(args[1])


def _count_simulate(counts, args, result, parent):
    counts["checkmodel.trials"] += result.shape[0]
    counts["checkmodel.checks"] += int(result.sum())


COUNTERS = {
    "traceio.write": _count_write,
    "traceio.parse": _count_parse,
    "sampling.process_trace": _count_sampling_batch,
    "sampling.flush": _count_sampling_batch,
    "sampling.process_packet": _count_sampling_packet,
    "heavyhitter.process_packet": _count_hh_packet,
    "heavyhitter.flush": _count_hh_flush,
    "controlplane.ingest": _count_ingest,
    "checkmodel.simulate": _count_simulate,
}


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every traced callable; returns what ``uninstall`` restores."""
    saved = []
    for module_name, attr, name in FUNCTIONS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(name, original, per_packet=False))
    for module_name, cls_name, attr, name, per_packet in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        original = cls.__dict__[attr]
        saved.append((cls, attr, original))
        if isinstance(original, classmethod):
            wrapped = classmethod(tracer.wrap(name, original.__func__, per_packet))
        else:
            wrapped = tracer.wrap(name, original, per_packet)
        setattr(cls, attr, wrapped)
    return saved


def uninstall(saved: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def run_round(main, commands: list[list[str]], out_dir: Path) -> tuple[float, list[int]]:
    codes = []
    start = time.perf_counter()
    for argv in commands:
        codes.append(main([arg.replace("{round}", str(out_dir)) for arg in argv]))
    return time.perf_counter() - start, codes


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    start = time.perf_counter()
    import reordermon.cli as cli

    import_s = time.perf_counter() - start
    rounds_dir = Path(plan["rounds_dir"])
    untraced: list[float] = []
    traced: list[tuple[float, Tracer]] = []
    # an untimed round first, so both timed kinds run on warm interpreter state
    rounds = [{"dir": "w", "codes": run_round(cli.main, plan["commands"], rounds_dir / "w")[1]}]
    deadline = time.perf_counter() + plan["seconds"]
    while not traced or time.perf_counter() < deadline:
        index = len(traced)
        wall, codes = run_round(cli.main, plan["commands"], rounds_dir / f"u{index}")
        untraced.append(wall)
        rounds.append({"dir": f"u{index}", "codes": codes})

        tracer = Tracer(plan["workload"], f"{plan['workload']}:{plan['seed']}:t{index}")
        saved = install(tracer)
        try:
            traced_main = tracer.wrap("cli.main", cli.main, per_packet=False)
            wall, codes = run_round(traced_main, plan["commands"], rounds_dir / f"t{index}")
        finally:
            uninstall(saved)
        traced.append((wall, tracer))
        rounds.append({"dir": f"t{index}", "codes": codes})

    # the traced round with the median wall time (lower median when even)
    ranked = sorted(traced, key=lambda item: item[0])
    wall, chosen = ranked[(len(ranked) - 1) // 2]
    metrics = chosen.layer_metrics(wall, plan["trace_rows"])
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_frac"] = (
        statistics.median(w for w, _ in traced) / statistics.median(untraced) - 1.0
    )
    with open(plan["spans"], "w", encoding="ascii") as out:
        for _, tracer in traced:
            for span in tracer.spans:
                out.write(json.dumps(span) + "\n")
    Path(plan["metrics"]).write_text(
        json.dumps({"metrics": metrics, "rounds": rounds, "untraced_wall_s": untraced,
                    "traced_wall_s": [w for w, _ in traced]}, indent=1)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
