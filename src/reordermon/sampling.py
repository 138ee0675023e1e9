"""The flow-sampling bucket array.

One hash-indexed array of B buckets, each holding at most one flow record.
Flows of the same 24-bit source prefix hash to the same bucket (prefixes are
hashed, not flow ids), so no prefix can dominate the structure.  Records
expire lazily: only a colliding packet can evict, under three conditions
(stale, hogging, or reorder-heavy), and only the reorder-heavy condition
emits a report (unless ``report_all``).

``process_packet`` is the reference implementation: one packet, one bucket
read-modify-write, instrumented so tests can verify the access budget.
``process_trace`` is the batch twin for multi-million packet traces; it
exploits that eviction checks can only fire when the arriving flow differs
from the resident one, so stretches of same-flow packets collapse into
precomputed per-run updates.  Like the heavy-hitter table's batch path, it
relies on a resident record seeing every packet of its flow after
admission, so each packet's out-of-order flag against its flow predecessor
(``traceio.flow_steps``) is the flag the resident would compute.  The two
paths produce identical report streams and leave identical buckets; the
test suite holds them to that.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .hashing import bucket_index, bucket_index_array
from .instrumentation import AccessMeter
from .model import (
    DETECTOR_DEFS,
    FlowId,
    PacketRecord,
    ReorderDef,
    SeqState,
    advance_state,
    initial_state,
    is_out_of_order,
    prefix_of,
)
from .reports import Report, ReportColumns, ReportSource
from .traceio import PacketArrays, flow_steps, group_order


@dataclass(frozen=True)
class SamplerParams:
    """B buckets; T staleness timeout (seconds, ``inf`` for never stale);
    C packet cap; R report threshold (report on eviction iff the record's o
    exceeds R)."""

    n_buckets: int
    stale_after: float = 2.0**-15
    max_packets: int = 16
    report_threshold: int = 1
    reorder_def: ReorderDef = ReorderDef.DEF1_DECREASE
    report_all: bool = False
    hash_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_buckets < 1:
            raise ValueError("n_buckets must be >= 1")
        if not self.stale_after > 0:  # NaN compares false
            raise ValueError("stale_after must be positive (inf: never stale)")
        if self.max_packets < 1:
            raise ValueError("max_packets must be >= 1")
        if self.report_threshold < 1:
            raise ValueError("report_threshold must be >= 1")
        if self.reorder_def not in DETECTOR_DEFS:
            raise ValueError("online detectors support DEF1 and DEF2 only")


@dataclass(slots=True)
class BucketRecord:
    """One monitored flow: counters start at zero on admission, so the
    admission packet itself is never counted."""

    flow: FlowId
    seq_state: SeqState
    last_ts: float
    n: int
    o: int


class FlowSamplingArray:
    """Data-plane flow sampler; single-threaded per instance."""

    def __init__(self, params: SamplerParams) -> None:
        self.params = params
        self._buckets: list[Optional[BucketRecord]] = [None] * params.n_buckets
        self.meter = AccessMeter()
        self.packets_processed = 0

    def _bucket_of(self, flow: FlowId) -> int:
        return bucket_index(prefix_of(flow).bits, self.params.hash_seed, self.params.n_buckets)

    def process_packet(self, pkt: PacketRecord) -> Optional[Report]:
        """Route one packet through its bucket; returns a report on a
        reorder-triggered eviction (or any eviction with ``report_all``)."""
        p = self.params
        self.packets_processed += 1
        b = self._bucket_of(pkt.flow)
        self.meter.begin_packet()
        self.meter.read(0, b)
        rec = self._buckets[b]
        report: Optional[Report] = None

        if rec is None:
            # empty bucket: always admit
            self.meter.write(0, b)
            self._buckets[b] = BucketRecord(pkt.flow, initial_state(pkt), pkt.ts, 0, 0)
        elif rec.flow == pkt.flow:
            # resident flow: plain per-flow update
            if is_out_of_order(rec.seq_state, pkt, p.reorder_def):
                rec.o += 1
            advance_state(rec.seq_state, pkt)
            rec.n += 1
            rec.last_ts = pkt.ts
            self.meter.write(0, b)
        else:
            # collision: evict-and-admit only if the resident earned it
            # (staleness compared as ts > last_ts + T so the batch path's
            # binary search evaluates the identical float predicate)
            stale = pkt.ts > rec.last_ts + p.stale_after
            hogging = rec.n > p.max_packets
            reordered = rec.o > p.report_threshold
            if stale or hogging or reordered:
                if reordered or (p.report_all and rec.n >= 1):
                    report = Report(prefix_of(rec.flow), rec.n, rec.o, ReportSource.ARRAY_EVICTION)
                self.meter.write(0, b)
                self._buckets[b] = BucketRecord(pkt.flow, initial_state(pkt), pkt.ts, 0, 0)
            # otherwise the packet is dropped and the resident is untouched
        self.meter.end_packet()
        return report

    def flush(self) -> ReportColumns:
        """End-of-interval scan: report remaining records per the eviction
        reporting rule, then clear every bucket."""
        p = self.params
        rows = []
        for b, rec in enumerate(self._buckets):
            if rec is None:
                continue
            if rec.o > p.report_threshold or (p.report_all and rec.n >= 1):
                rows.append((self.packets_processed, prefix_of(rec.flow).bits, rec.n, rec.o))
            self._buckets[b] = None
        return ReportColumns.of(ReportSource.ARRAY_FLUSH, rows)

    def occupied_buckets(self) -> int:
        return sum(1 for rec in self._buckets if rec is not None)

    # --- batch path ---------------------------------------------------------

    def process_trace(self, arrays: PacketArrays) -> ReportColumns:
        """Stream a whole columnar trace through a fresh array.

        Requires that no packets have been processed yet; leaves the bucket
        state exactly as the per-packet path would, so ``flush`` afterwards
        behaves identically.

        Packets are grouped by bucket (buckets never interact), and each
        bucket's substream is split into runs of consecutive same-flow
        packets.  Within a run only plain per-flow updates can happen, so a
        run collapses into precomputed counter increments; eviction logic
        runs once per run boundary, plus a binary search when the staleness
        timeout is crossed mid-run.
        """
        if self.packets_processed:
            raise RuntimeError("process_trace requires a fresh detector instance")
        p = self.params
        n_pkts = len(arrays)
        self.packets_processed = n_pkts
        if n_pkts == 0:
            return ReportColumns.merge()

        fid = arrays.flow_id
        bucket_per_flow = bucket_index_array(
            arrays.flow_prefix_bits, p.hash_seed, p.n_buckets
        )
        bid = bucket_per_flow[fid]
        order = group_order(bid, p.n_buckets)
        gflow = fid[order]
        gbid = bid[order]
        gts = arrays.ts[order]
        # each packet's flag against its flow predecessor, in bucket order
        by_flow, step = flow_steps(arrays)
        flag = np.zeros(n_pkts, dtype=bool)
        flag[by_flow] = step == p.reorder_def.value
        flag = flag[order]
        cum = np.cumsum(flag)

        # a flow maps to exactly one bucket, so flow changes delimit both
        # runs and bucket segments
        change = np.empty(n_pkts, dtype=bool)
        change[0] = True
        np.not_equal(gflow[1:], gflow[:-1], out=change[1:])
        run_start = np.flatnonzero(change)
        run_end = np.append(run_start[1:], n_pkts)

        r_flow = gflow[run_start].tolist()
        r_bucket = gbid[run_start].tolist()
        r_start = run_start.tolist()
        r_end = run_end.tolist()
        r_len = (run_end - run_start).tolist()
        r_first_ts = gts[run_start].tolist()
        r_last_ts = gts[run_end - 1].tolist()
        r_first_ooo = flag[run_start].tolist()
        r_inner = (cum[run_end - 1] - cum[run_start]).tolist()

        bits_list = arrays.flow_prefix_bits.tolist()
        num_b = p.n_buckets
        b_flow = [-1] * num_b
        b_run = [0] * num_b  # the resident's latest run
        b_n = [0] * num_b
        b_o = [0] * num_b

        T = p.stale_after
        C = p.max_packets
        R = p.report_threshold
        report_all = p.report_all
        rows = []  # (trigger's position in bucket order, prefix bits, n, o)

        for r in range(len(r_start)):
            b = r_bucket[r]
            f = r_flow[r]
            res = b_flow[b]
            if res == f:
                # the resident has seen every packet of its flow since
                # admission, so its last packet is the run's flow predecessor
                b_o[b] += r_inner[r] + r_first_ooo[r]
                b_n[b] += r_len[r]
            elif res >= 0:
                o_res = b_o[b]
                limit = r_last_ts[b_run[b]] + T
                if o_res > R or b_n[b] > C or r_first_ts[r] > limit:
                    evict_at = r_start[r]
                elif r_last_ts[r] > limit:
                    a = r_start[r]
                    evict_at = a + int(
                        np.searchsorted(gts[a : r_end[r]], limit, side="right")
                    )
                else:
                    continue  # resident survives; whole run is dropped
                if o_res > R or (report_all and b_n[b] >= 1):
                    rows.append((evict_at, bits_list[res], b_n[b], o_res))
                b_flow[b] = f
                if evict_at == r_start[r]:
                    b_n[b] = r_len[r] - 1
                    b_o[b] = r_inner[r]
                else:
                    b_n[b] = r_end[r] - 1 - evict_at
                    b_o[b] = int(cum[r_end[r] - 1] - cum[evict_at])
            else:
                b_flow[b] = f
                b_n[b] = r_len[r] - 1
                b_o[b] = r_inner[r]
            b_run[b] = r

        for b in range(num_b):
            f = b_flow[b]
            if f < 0:
                continue
            last = int(order[r_end[b_run[b]] - 1])
            seq = int(arrays.seq[last])
            self._buckets[b] = BucketRecord(
                arrays.flow(f),
                SeqState(seq, seq + int(arrays.payload_len[last])),
                r_last_ts[b_run[b]],
                b_n[b],
                b_o[b],
            )
        evicted = ReportColumns.of(ReportSource.ARRAY_EVICTION, rows)
        return ReportColumns.merge(replace(evicted, trigger=order[evicted.trigger]))
