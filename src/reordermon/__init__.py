"""Streaming detection of IP prefixes with heavy TCP packet reordering.

Detectors (a flow-sampling bucket array, a reorder-tracking heavy-hitter
table, and their hybrid) run under data-plane-style memory constraints;
an exhaustive oracle provides ground truth; the harness reproduces the
evaluation metrics on synthetic workloads.
"""

from .controlplane import AggregatorMode, AggregatorParams, ReportAggregator
from .heavyhitter import HHEntry, HHParams, ReorderHeavyHitter
from .hybrid import HybridDetector, HybridParams
from .model import (
    FlowId,
    PacketRecord,
    Prefix,
    ReorderDef,
    SeqState,
    is_out_of_order,
    prefix_of,
)
from .oracle import GroundTruth, TraceStats, compute_stats, ground_truth
from .reports import Report, ReportSource
from .sampling import BucketRecord, FlowSamplingArray, SamplerParams
from .traceio import (
    PacketArrays,
    SynthConfig,
    TraceMeta,
    generate_synthetic_arrays,
    parse_trace,
)

__all__ = [
    "AggregatorMode",
    "AggregatorParams",
    "BucketRecord",
    "FlowId",
    "FlowSamplingArray",
    "GroundTruth",
    "HHEntry",
    "HHParams",
    "HybridDetector",
    "HybridParams",
    "PacketArrays",
    "PacketRecord",
    "Prefix",
    "ReorderDef",
    "ReorderHeavyHitter",
    "Report",
    "ReportAggregator",
    "ReportSource",
    "SamplerParams",
    "SeqState",
    "SynthConfig",
    "TraceMeta",
    "TraceStats",
    "compute_stats",
    "generate_synthetic_arrays",
    "ground_truth",
    "is_out_of_order",
    "parse_trace",
    "prefix_of",
]
