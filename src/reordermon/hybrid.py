"""Hybrid detector: heavy-hitter table in front of the sampling array.

Memory is a single budget of B buckets split by a fraction x: the HH table
gets floor(x*B) entries (divided evenly over its stages), the array gets
the rest.  Packets go through the HH table first; the array only sees a
packet if its flow is not resident in the HH table after that step, so
heavy flows are monitored continuously while everything else is sampled.

An alternative filtering rule (skip the array when any flow of the same
prefix is HH-resident) is available behind ``filter_by_prefix``; it trades
accuracy for fewer reports and is off by default.

``process_packet`` is the reference implementation.  ``process_trace`` is
the batch twin for whole traces and does not meter: the HH table's batch
pass yields each packet's filter outcome, the array's batch pass runs on
the unfiltered packets, and the two report streams are merged by the
triggering packet, which is the per-packet emission order.  (A packet that
triggers an HH report was just admitted, so it never reaches the array:
no packet triggers both.)
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Optional

import numpy as np

from .heavyhitter import HHParams, ReorderHeavyHitter
from .model import PacketRecord, prefix_of
from .reports import Report
from .sampling import FlowSamplingArray, SamplerParams
from .traceio import PacketArrays


@dataclass(frozen=True)
class HybridParams:
    total_buckets: int
    hh_fraction: float
    sampler: SamplerParams
    hh: HHParams
    filter_by_prefix: bool = False

    def __post_init__(self) -> None:
        if self.total_buckets < 1:
            raise ValueError("total_buckets must be >= 1")
        if not 0.0 <= self.hh_fraction <= 1.0:
            raise ValueError("hh_fraction must lie in [0, 1]")

    @property
    def hh_buckets(self) -> int:
        return math.floor(self.hh_fraction * self.total_buckets)

    @property
    def array_buckets(self) -> int:
        return self.total_buckets - self.hh_buckets


class HybridDetector:
    """Composes the two structures; degenerate splits reproduce either one
    exactly (x=0: the array alone, x=1: the HH table alone)."""

    def __init__(self, params: HybridParams) -> None:
        self.params = params
        per_stage = params.hh_buckets // params.hh.n_stages
        self.hh: Optional[ReorderHeavyHitter] = None
        if per_stage >= 1:
            self.hh = ReorderHeavyHitter(
                replace(params.hh, buckets_per_stage=per_stage)
            )
        self.array: Optional[FlowSamplingArray] = None
        if params.array_buckets >= 1:
            self.array = FlowSamplingArray(
                replace(params.sampler, n_buckets=params.array_buckets)
            )

    def process_packet(self, pkt: PacketRecord) -> list[Report]:
        out: list[Report] = []
        filtered = False
        if self.hh is not None:
            resident, report = self.hh.process_packet(pkt)
            if report is not None:
                out.append(report)
            if self.params.filter_by_prefix:
                filtered = self.hh.contains_prefix(prefix_of(pkt.flow))
            else:
                filtered = resident
        if not filtered and self.array is not None:
            report = self.array.process_packet(pkt)
            if report is not None:
                out.append(report)
        return out

    def process_trace(self, arrays: PacketArrays) -> list[Report]:
        """Stream a whole columnar trace through a fresh detector; returns
        the reports ``process_packet`` would emit, in the same order, and
        leaves both structures as it would."""
        if self.hh is None:
            return [] if self.array is None else self.array.process_trace(arrays)
        hh_part, filtered = self.hh._process_trace_indexed(
            arrays, self.params.filter_by_prefix
        )
        if self.array is None:
            return [report for _, report in hh_part]
        keep = np.flatnonzero(~filtered)
        position = keep.tolist()
        array_part = [
            (position[j], report)
            for j, report in self.array._process_trace_indexed(arrays.subset(keep))
        ]
        merged = heapq.merge(hh_part, array_part, key=itemgetter(0))
        return [report for _, report in merged]

    def flush(self) -> list[Report]:
        out: list[Report] = []
        if self.hh is not None:
            out.extend(self.hh.flush())
        if self.array is not None:
            out.extend(self.array.flush())
        return out
