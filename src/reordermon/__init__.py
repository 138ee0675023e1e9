"""Streaming detection of IP prefixes with heavy TCP packet reordering.

Detectors (a flow-sampling bucket array, a reorder-tracking heavy-hitter
table, and their hybrid) run under data-plane-style memory constraints;
an exhaustive oracle provides ground truth; the harness reproduces the
evaluation metrics on synthetic workloads.
"""

from __future__ import annotations

import importlib

# Each public name is imported from its module on first access (PEP 562),
# so ``import reordermon`` loads nothing heavy: the CLI parses its
# arguments before numpy is imported.
_SOURCES = {
    "controlplane": ("AggregatorMode", "AggregatorParams", "ReportAggregator"),
    "heavyhitter": ("HHEntry", "HHParams", "ReorderHeavyHitter"),
    "hybrid": ("HybridDetector", "HybridParams"),
    "model": (
        "FlowId",
        "PacketRecord",
        "Prefix",
        "ReorderDef",
        "SeqState",
        "is_out_of_order",
        "prefix_of",
    ),
    "oracle": ("TraceStats", "compute_stats", "ground_truth"),
    "reports": ("Report", "ReportColumns", "ReportSource"),
    "sampling": ("BucketRecord", "FlowSamplingArray", "SamplerParams"),
    "traceio": (
        "PacketArrays",
        "SynthConfig",
        "TraceMeta",
        "generate_synthetic_arrays",
        "parse_trace",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
