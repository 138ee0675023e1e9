"""Multi-stage heavy-hitter table that also tracks reordering.

A d-stage hash table with randomized admission: a new flow replaces the
minimum-count entry among its d candidate slots with probability
1/(min_count + 1), so heavy flows survive while the mass of tiny flows
mostly bounces off.  Entries are indexed by the flow's 24-bit source
prefix (not the flow id), which caps any one prefix at d resident flows.
Each entry carries the same sequence state and counters as the sampling
array, so heavy flows are monitored continuously for reordering.

Reports fire when an entry with enough observed packets has an
out-of-order fraction above the threshold, both on replacement of such an
entry and at the end-of-interval flush (sources tag which).

``process_packet`` is the reference implementation, instrumented so tests
can verify the access budget.  ``process_trace`` is the batch twin for
whole traces; it does not meter.  Like the sampling array's batch path,
it relies on a resident entry seeing every packet of its flow after
admission, so each packet's out-of-order flag against its flow predecessor
is read up front for the whole trace from ``traceio.flow_steps``, and the
table loop only moves plain integers and makes the same admission draws.
The two paths produce identical report streams and leave identical
tables; the test suite holds them to that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hashing import bucket_index, bucket_index_array, stage_seed
from .instrumentation import AccessMeter
from .model import (
    DETECTOR_DEFS,
    FlowId,
    PacketRecord,
    Prefix,
    ReorderDef,
    SeqState,
    advance_state,
    initial_state,
    is_out_of_order,
    prefix_of,
)
from .reports import Report, ReportColumns, ReportSource
from .traceio import PacketArrays, flow_steps


@dataclass(frozen=True)
class HHParams:
    n_stages: int
    buckets_per_stage: int
    report_fraction: float = 0.01
    min_report_packets: int = 16
    reorder_def: ReorderDef = ReorderDef.DEF1_DECREASE
    hash_seed: int = 0  # also seeds the admission draws

    def __post_init__(self) -> None:
        if self.n_stages < 1:
            raise ValueError("n_stages must be >= 1")
        if self.buckets_per_stage < 1:
            raise ValueError("buckets_per_stage must be >= 1")
        if not 0.0 < self.report_fraction < 1.0:
            raise ValueError("report_fraction must lie in (0, 1)")
        if self.min_report_packets < 1:
            raise ValueError("min_report_packets must be >= 1")
        if self.reorder_def not in DETECTOR_DEFS:
            raise ValueError("online detectors support DEF1 and DEF2 only")
        if self.hash_seed < 0:  # random.Random(-s) draws as random.Random(s)
            raise ValueError("hash_seed must be >= 0")


@dataclass(slots=True)
class HHEntry:
    flow: FlowId
    count_est: int
    seq_state: SeqState
    n: int
    o: int


class ReorderHeavyHitter:
    """d-stage table; at most d probes and one write per packet."""

    def __init__(self, params: HHParams) -> None:
        self.params = params
        self._stages: list[list[Optional[HHEntry]]] = [
            [None] * params.buckets_per_stage for _ in range(params.n_stages)
        ]
        self._seeds = [stage_seed(params.hash_seed, i) for i in range(params.n_stages)]
        self._rng = random.Random(params.hash_seed)
        self.meter = AccessMeter()
        self.packets_processed = 0

    def _slots(self, prefix_bits: int) -> list[int]:
        return [
            bucket_index(prefix_bits, seed, self.params.buckets_per_stage)
            for seed in self._seeds
        ]

    def _should_report(self, entry: HHEntry) -> bool:
        p = self.params
        return entry.n >= p.min_report_packets and entry.o / entry.n > p.report_fraction

    def process_packet(self, pkt: PacketRecord) -> tuple[bool, Optional[Report]]:
        """Returns (resident after this packet, optional eviction report)."""
        p = self.params
        self.packets_processed += 1
        self.meter.begin_packet()
        idxs = self._slots(prefix_of(pkt.flow).bits)

        min_stage = 0
        min_count = -1
        for stage, idx in enumerate(idxs):
            self.meter.read(stage, idx)
            entry = self._stages[stage][idx]
            if entry is not None and entry.flow == pkt.flow:
                if is_out_of_order(entry.seq_state, pkt, p.reorder_def):
                    entry.o += 1
                advance_state(entry.seq_state, pkt)
                entry.n += 1
                entry.count_est += 1
                self.meter.write(stage, idx)
                self.meter.end_packet()
                return True, None
            count = 0 if entry is None else entry.count_est
            if min_count < 0 or count < min_count:
                min_count = count
                min_stage = stage

        # randomized admission against the lightest candidate entry
        report: Optional[Report] = None
        resident = self._rng.random() < 1.0 / (min_count + 1)
        if resident:
            idx = idxs[min_stage]
            victim = self._stages[min_stage][idx]
            if victim is not None and self._should_report(victim):
                report = Report(
                    prefix_of(victim.flow), victim.n, victim.o, ReportSource.HH_EVICTION
                )
            self._stages[min_stage][idx] = HHEntry(
                pkt.flow, min_count + 1, initial_state(pkt), 0, 0
            )
            self.meter.write(min_stage, idx)
        self.meter.end_packet()
        return resident, report

    def flush(self) -> ReportColumns:
        rows = []
        for stage in self._stages:
            for idx, entry in enumerate(stage):
                if entry is None:
                    continue
                if self._should_report(entry):
                    bits = prefix_of(entry.flow).bits
                    rows.append((self.packets_processed, bits, entry.n, entry.o))
                stage[idx] = None
        return ReportColumns.of(ReportSource.HH_FLUSH, rows)

    def contains_prefix(self, prefix: Prefix) -> bool:
        """Whether any flow of ``prefix`` is currently resident."""
        for stage, idx in enumerate(self._slots(prefix.bits)):
            entry = self._stages[stage][idx]
            if entry is not None and prefix_of(entry.flow) == prefix:
                return True
        return False

    def occupied_entries(self) -> int:
        return sum(1 for stage in self._stages for entry in stage if entry is not None)

    # --- batch path ---------------------------------------------------------

    def process_trace(self, arrays: PacketArrays) -> ReportColumns:
        """Stream a whole columnar trace through a fresh table; returns the
        eviction reports in the per-packet path's emission order.

        Requires that no packets have been processed yet; leaves the table
        and ``packets_processed`` exactly as the per-packet path would, so
        ``flush`` afterwards behaves identically.
        """
        return self._process_trace(arrays)[0]

    def _process_trace(
        self, arrays: PacketArrays, by_prefix: bool = False
    ) -> tuple[ReportColumns, np.ndarray]:
        """``process_trace`` plus a per-packet mask: resident after the
        packet's step, or with ``by_prefix`` any flow of its prefix resident
        (the hybrid's two filtering rules)."""
        if self.packets_processed:
            raise RuntimeError("process_trace requires a fresh detector instance")
        p = self.params
        n_pkts = len(arrays)
        self.packets_processed = n_pkts
        filtered = np.ones(n_pkts, dtype=bool)

        # packets grouped by flow, time order kept: an entry's n packets after
        # its admission packet at position a are positions a+1 .. a+n
        fid = arrays.flow_id
        order, step = flow_steps(arrays)
        cum = np.cumsum(step == p.reorder_def.value)
        position = np.empty(n_pkts, dtype=np.int64)
        position[order] = np.arange(n_pkts)

        # the table as flat lists over stage * B + idx
        n_buckets = p.buckets_per_stage
        bits = arrays.flow_prefix_bits
        flow_slots = list(
            zip(
                *(
                    (bucket_index_array(bits, seed, n_buckets) + stage * n_buckets).tolist()
                    for stage, seed in enumerate(self._seeds)
                )
            )
        )
        n_slots = p.n_stages * n_buckets
        occupant = [-1] * n_slots
        count = [0] * n_slots  # count_est
        base = [0] * n_slots  # count_est at admission, so n = count - base
        admitted_at = [0] * n_slots  # index of the admission packet
        slot_of = [-1] * arrays.flow_count

        bits_list = bits.tolist()
        draw = self._rng.random
        min_n = p.min_report_packets
        fraction = p.report_fraction
        rows = []  # (triggering packet, prefix bits, n, o)
        rejected: list[int] = []

        for i, f in enumerate(fid.tolist()):
            k = slot_of[f]
            if k >= 0:
                count[k] += 1
                continue
            slots = flow_slots[f]
            k = slots[0]
            c = count[k]
            for s in slots[1:]:
                if count[s] < c:
                    k, c = s, count[s]
            if draw() < 1.0 / (c + 1):
                g = occupant[k]
                if g >= 0:
                    slot_of[g] = -1
                    n = c - base[k]
                    if n >= min_n:
                        a = position[admitted_at[k]]
                        o = int(cum[a + n] - cum[a])
                        if o / n > fraction:
                            rows.append((i, bits_list[g], n, o))
                occupant[k] = f
                slot_of[f] = k
                count[k] = base[k] = c + 1
                admitted_at[k] = i
            elif not by_prefix or all(
                occupant[s] < 0 or bits_list[occupant[s]] != bits_list[f] for s in slots
            ):
                rejected.append(i)
        filtered[rejected] = False

        for k, g in enumerate(occupant):
            if g < 0:
                continue
            n = count[k] - base[k]
            a = position[admitted_at[k]]
            last = int(order[a + n])
            seq = int(arrays.seq[last])
            self._stages[k // n_buckets][k % n_buckets] = HHEntry(
                arrays.flow(g),
                count[k],
                SeqState(seq, seq + int(arrays.payload_len[last])),
                n,
                int(cum[a + n] - cum[a]),
            )
        return ReportColumns.of(ReportSource.HH_EVICTION, rows), filtered
