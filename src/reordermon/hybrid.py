"""Hybrid detector: heavy-hitter table in front of the sampling array.

Memory is a single budget of B buckets split by a fraction x: the HH table
gets floor(x*B) entries (divided evenly over its stages), the array gets
the rest.  The even division floors too: the up to d-1 HH buckets it
leaves over (d stages) go unused, not to the array, so a split can run on
fewer than B buckets (B=1024: x = 0.3, 0.4, 0.8 and 0.9 each lose one
with two stages).  A split that builds neither structure is legal here
but reports nothing; ``harness.detector_params`` rejects it.  Packets go
through the HH table first; the array only sees a
packet if its flow is not resident in the HH table after that step, so
heavy flows are monitored continuously while everything else is sampled.

An alternative filtering rule (skip the array when any flow of the same
prefix is HH-resident) is available behind ``filter_by_prefix``; it trades
accuracy for fewer reports and is off by default.

``process_packet`` is the reference implementation.  ``process_trace`` is
the batch twin for whole traces and does not meter: the HH table's batch
pass yields each packet's filter outcome, and the array's batch pass runs
on the unfiltered packets.  A packet that triggers an HH report was just
admitted, so it never reaches the array: ordered by triggering packet, the
two report streams interleave as the per-packet path emits them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .heavyhitter import HHParams, ReorderHeavyHitter
from .model import PacketRecord, prefix_of
from .reports import Report, ReportColumns
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

    @property
    def hh_buckets_per_stage(self) -> int:
        """HH buckets in each stage; the floored remainder goes unused."""
        return self.hh_buckets // self.hh.n_stages


class HybridDetector:
    """Composes the two structures; degenerate splits reproduce either one
    exactly (x=0: the array alone, x=1: the HH table alone)."""

    def __init__(self, params: HybridParams) -> None:
        self.params = params
        per_stage = params.hh_buckets_per_stage
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

    def process_trace(self, arrays: PacketArrays) -> ReportColumns:
        """Stream a whole columnar trace through a fresh detector; returns
        the reports ``process_packet`` would emit, in the same order, and
        leaves both structures as it would."""
        if self.hh is None:
            return self.array.process_trace(arrays) if self.array else ReportColumns.merge()
        hh_part, filtered = self.hh._process_trace(arrays, self.params.filter_by_prefix)
        if self.array is None:
            return hh_part
        keep = np.flatnonzero(~filtered)
        array_part = self.array.process_trace(arrays.subset(keep))
        # the array's triggers index the unfiltered packets only
        return ReportColumns.merge(hh_part, replace(array_part, trigger=keep[array_part.trigger]))

    def flush(self) -> ReportColumns:
        """The HH table's flush reports, then the array's, all triggered at
        the end of the stream, which only the HH table sees whole."""
        parts = [part for part in (self.hh, self.array) if part is not None]
        end = max((part.packets_processed for part in parts), default=0)
        flushed = [part.flush() for part in parts]
        return ReportColumns.merge(*(replace(f, trigger=np.full(len(f), end)) for f in flushed))
