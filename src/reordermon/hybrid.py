"""Hybrid detector: heavy-hitter table in front of the sampling array.

The hybrid runs two structures it is given already sized; either may be
absent, not both (``harness.detector_params`` splits one memory budget
between them).  Packets go through the HH table first; the array only sees
a packet if its flow is not resident in the HH table after that step, so
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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .heavyhitter import HHParams, ReorderHeavyHitter
from .model import PacketRecord, prefix_of
from .reports import Report, ReportColumns
from .sampling import FlowSamplingArray, SamplerParams
from .traceio import PacketArrays


@dataclass(frozen=True)
class HybridParams:
    """The array and the HH table to build (``None``: not built)."""

    array: Optional[SamplerParams]
    hh: Optional[HHParams]
    filter_by_prefix: bool = False

    def __post_init__(self) -> None:
        if self.array is None and self.hh is None:
            raise ValueError("a hybrid needs an array, an HH table or both")
        if self.array and self.hh and self.array.reorder_def != self.hh.reorder_def:
            raise ValueError("the array and the HH table must count the same reorder_def")


class HybridDetector:
    """Composes the two structures; a hybrid with one of them reproduces it
    exactly (x=0: the array alone, x=1: the HH table alone)."""

    def __init__(self, params: HybridParams) -> None:
        self.params = params
        self.hh = ReorderHeavyHitter(params.hh) if params.hh else None
        self.array = FlowSamplingArray(params.array) if params.array else None

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
            return self.array.process_trace(arrays)
        hh_part, filtered = self.hh._process_trace(arrays, self.params.filter_by_prefix)
        if self.array is None:
            return hh_part
        keep = np.flatnonzero(~filtered)
        array_part = self.array.process_trace(arrays.subset(keep))
        # the array's triggers index the unfiltered packets only
        return ReportColumns.merge(hh_part, array_part.with_trigger(keep[array_part.trigger]))

    def flush(self) -> ReportColumns:
        """The HH table's flush reports, then the array's, all triggered at
        the end of the stream, which only the HH table sees whole."""
        parts = [part for part in (self.hh, self.array) if part is not None]
        end = max(part.packets_processed for part in parts)
        flushed = [part.flush() for part in parts]
        return ReportColumns.merge(*(f.with_trigger(np.full(len(f), end)) for f in flushed))
