from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from reordermon.hashing import bucket_index, stage_seed
from reordermon.heavyhitter import HHEntry, HHParams, ReorderHeavyHitter
from reordermon.model import (
    FlowId,
    PacketRecord,
    Prefix,
    ReorderDef,
    SeqState,
    prefix_of,
)
from reordermon.reports import Report, ReportColumns, ReportSource
from reordermon.traceio import PacketArrays, SynthConfig, generate_synthetic_arrays

from conftest import random_trace, report_columns, report_rows, stats_tables

DEF1 = ReorderDef.DEF1_DECREASE
DEF2 = ReorderDef.DEF2_GAP

PREFIX_A = 0x0A000000
FA1 = FlowId(PREFIX_A | 1, 0xAC100001, 443, 10001)
FA2 = FlowId(PREFIX_A | 2, 0xAC100001, 443, 10002)


def pkt(flow: FlowId, seq: int, ts: float, payload: int = 100) -> PacketRecord:
    return PacketRecord(flow, seq, payload, ts)


def params(**kwargs) -> HHParams:
    defaults = dict(n_stages=2, buckets_per_stage=4, report_fraction=0.01,
                    min_report_packets=16, hash_seed=0, rng_seed=0)
    defaults.update(kwargs)
    return HHParams(**defaults)


class StepThrough:
    """Independent replay of the randomized-admission table: explicit slot
    dicts, same hash placement, same RNG tape."""

    def __init__(self, p: HHParams) -> None:
        self.p = p
        self.slots: list[dict[int, list]] = [dict() for _ in range(p.n_stages)]
        self.seeds = [stage_seed(p.hash_seed, i) for i in range(p.n_stages)]
        self.rng = random.Random(p.rng_seed)

    def step(self, pkt: PacketRecord) -> tuple[bool, tuple | None]:
        bits = prefix_of(pkt.flow).bits
        idxs = [bucket_index(bits, s, self.p.buckets_per_stage) for s in self.seeds]
        for stage, idx in enumerate(idxs):
            entry = self.slots[stage].get(idx)
            if entry and entry[0] == pkt.flow:
                # entry: [flow, count, last_seq, expected, n, o]
                if pkt.seq < entry[2]:
                    entry[5] += 1
                entry[2] = pkt.seq
                entry[3] = pkt.seq + pkt.payload_len
                entry[4] += 1
                entry[1] += 1
                return True, None
        best_stage, best_count = 0, None
        for stage, idx in enumerate(idxs):
            entry = self.slots[stage].get(idx)
            count = entry[1] if entry else 0
            if best_count is None or count < best_count:
                best_stage, best_count = stage, count
        if self.rng.random() < 1.0 / (best_count + 1):
            victim = self.slots[best_stage].get(idxs[best_stage])
            emitted = None
            if (
                victim
                and victim[4] >= self.p.min_report_packets
                and victim[5] / victim[4] > self.p.report_fraction
            ):
                emitted = (prefix_of(victim[0]).bits, victim[4], victim[5])
            self.slots[best_stage][idxs[best_stage]] = [
                pkt.flow, best_count + 1, pkt.seq, pkt.seq + pkt.payload_len, 0, 0
            ]
            return True, emitted
        return False, None

    def dump(self):
        out = []
        for stage in self.slots:
            for idx in sorted(stage):
                e = stage[idx]
                out.append((idx, e[0], e[1], e[2], e[3], e[4], e[5]))
        return out


def dump_table(hh: ReorderHeavyHitter):
    out = []
    for stage in hh._stages:
        for idx, entry in enumerate(stage):
            if entry is not None:
                out.append(
                    (
                        idx,
                        entry.flow,
                        entry.count_est,
                        entry.seq_state.last_seq,
                        entry.seq_state.expected_next,
                        entry.n,
                        entry.o,
                    )
                )
    return out


def resident_flows(hh: ReorderHeavyHitter) -> list[FlowId]:
    return [entry.flow for stage in hh._stages for entry in stage if entry is not None]


def test_first_packet_always_admitted() -> None:
    hh = ReorderHeavyHitter(params())
    resident, report = hh.process_packet(pkt(FA1, 1000, 0.0))
    assert resident and report is None
    assert FA1 in resident_flows(hh)
    entry = next(e for stage in hh._stages for e in stage if e is not None)
    assert (entry.count_est, entry.n, entry.o) == (1, 0, 0)


def test_resident_update_increments_counters() -> None:
    hh = ReorderHeavyHitter(params())
    hh.process_packet(pkt(FA1, 1000, 0.0))
    resident, report = hh.process_packet(pkt(FA1, 1100, 0.1))
    assert resident and report is None
    entry = next(e for stage in hh._stages for e in stage if e is not None)
    assert (entry.count_est, entry.n, entry.o) == (2, 1, 0)
    hh.process_packet(pkt(FA1, 900, 0.2))
    assert (entry.count_est, entry.n, entry.o) == (3, 2, 1)


def seed_admitting_against(count: int) -> int:
    for seed in range(100_000):
        if random.Random(seed).random() < 1.0 / (count + 1):
            return seed
    raise AssertionError("no admitting seed found")


def test_replacement_of_reordered_victim_reports() -> None:
    p = params(n_stages=1, buckets_per_stage=1, rng_seed=seed_admitting_against(101))
    hh = ReorderHeavyHitter(p)
    # plant a victim: n=100, o=5 (five sequence decreases), count_est=101
    hh._stages[0][0] = HHEntry(FA1, 101, SeqState(10_000, 10_100), 100, 5)
    resident, report = hh.process_packet(pkt(FA2, 5000, 1.0))
    assert resident
    assert report == Report(Prefix(PREFIX_A), 100, 5, ReportSource.HH_EVICTION)
    assert FA2 in resident_flows(hh) and FA1 not in resident_flows(hh)


def test_rejected_admission_leaves_table_unchanged() -> None:
    for seed in range(100_000):
        if random.Random(seed).random() >= 1.0 / 102:
            break
    p = params(n_stages=1, buckets_per_stage=1, rng_seed=seed)
    hh = ReorderHeavyHitter(p)
    hh._stages[0][0] = HHEntry(FA1, 101, SeqState(10_000, 10_100), 100, 5)
    resident, report = hh.process_packet(pkt(FA2, 5000, 1.0))
    assert not resident and report is None
    assert FA1 in resident_flows(hh) and FA2 not in resident_flows(hh)


def test_flush_threshold_arithmetic() -> None:
    hh = ReorderHeavyHitter(params(n_stages=1, buckets_per_stage=2))
    assert report_rows(hh.flush()) == []
    hh._stages[0][0] = HHEntry(FA1, 200, SeqState(0, 100), 200, 1)  # 0.005 <= 0.01
    hh._stages[0][1] = HHEntry(FA2, 200, SeqState(0, 100), 200, 3)  # 0.015 > 0.01
    assert report_rows(hh.flush()) == [(0, PREFIX_A, 200, 3, ReportSource.HH_FLUSH)]
    assert hh.occupied_entries() == 0


def test_flush_respects_min_report_packets() -> None:
    hh = ReorderHeavyHitter(params(n_stages=1, buckets_per_stage=1, min_report_packets=16))
    hh._stages[0][0] = HHEntry(FA1, 10, SeqState(0, 100), 10, 5)  # 0.5 > 0.01 but n < 16
    assert report_rows(hh.flush()) == []


def test_contains_lifecycle() -> None:
    # the FA1 admission consumes the first draw; FA2 needs the second one
    for seed in range(100_000):
        rng = random.Random(seed)
        rng.random()
        if rng.random() < 0.5:
            break
    p = params(n_stages=1, buckets_per_stage=1, rng_seed=seed)
    hh = ReorderHeavyHitter(p)
    assert FA1 not in resident_flows(hh)
    hh.process_packet(pkt(FA1, 1000, 0.0))
    assert FA1 in resident_flows(hh)
    assert hh.contains_prefix(Prefix(PREFIX_A))
    resident, _ = hh.process_packet(pkt(FA2, 5000, 0.1))
    assert resident  # admitted against count 1 by the chosen seed
    assert FA1 not in resident_flows(hh)
    assert FA2 in resident_flows(hh)


def test_access_budget_d_probes_one_write() -> None:
    records = random_trace(5, n_packets=3000, n_flows=30, n_prefixes=7)
    hh = ReorderHeavyHitter(params(n_stages=3, buckets_per_stage=4, hash_seed=2))
    for rec in records:
        hh.process_packet(rec)
    assert hh.meter.max_distinct_per_packet <= 3 + 1
    assert hh.meter.max_writes_per_packet <= 1
    assert hh.meter.reads <= 3 * len(records)


def test_at_most_d_entries_per_prefix() -> None:
    records = random_trace(8, n_packets=4000, n_flows=24, n_prefixes=1)
    hh = ReorderHeavyHitter(params(n_stages=2, buckets_per_stage=8, hash_seed=1))
    for rec in records:
        hh.process_packet(rec)
        same_prefix = [f for f in resident_flows(hh) if prefix_of(f).bits == 0x0A000000]
        assert len(same_prefix) <= 2


def test_single_flow_matches_oracle_minus_first_packet() -> None:
    from reordermon.oracle import compute_stats

    records = [pkt(FA1, seq, 0.001 * i) for i, seq in enumerate([1000, 900, 1100, 1050, 1200])]
    hh = ReorderHeavyHitter(params(n_stages=1, buckets_per_stage=1))
    for rec in records:
        hh.process_packet(rec)
    entry = hh._stages[0][0]
    arrays = PacketArrays.from_records(records)
    n, o1, _, _ = stats_tables(compute_stats(arrays), arrays)[0][FA1]
    assert entry.n == n - 1
    assert entry.o == o1


def test_matches_independent_step_through() -> None:
    for seed in range(5):
        records = random_trace(seed, n_packets=800, n_flows=20, n_prefixes=4)
        p = params(n_stages=2, buckets_per_stage=2, hash_seed=seed, rng_seed=seed * 7)
        hh = ReorderHeavyHitter(p)
        ref = StepThrough(p)
        for i, rec in enumerate(records):
            resident, report = hh.process_packet(rec)
            ref_resident, ref_report = ref.step(rec)
            assert resident == ref_resident, f"seed {seed}, packet {i}"
            got = None if report is None else (report.prefix.bits, report.n, report.o)
            assert got == ref_report, f"seed {seed}, packet {i}"
            assert dump_table(hh) == ref.dump(), f"seed {seed}, packet {i}"


def test_twenty_packet_hand_trace_entry_evolution() -> None:
    p = params(n_stages=2, buckets_per_stage=2, hash_seed=3, rng_seed=11)
    records = random_trace(99, n_packets=20, n_flows=5, n_prefixes=2)
    hh = ReorderHeavyHitter(p)
    ref = StepThrough(p)
    for rec in records:
        hh.process_packet(rec)
        ref.step(rec)
    assert dump_table(hh) == ref.dump()


def test_determinism() -> None:
    records = random_trace(13, n_packets=1000, n_flows=16, n_prefixes=3)

    def run() -> tuple[list, list]:
        hh = ReorderHeavyHitter(params(n_stages=2, buckets_per_stage=4, rng_seed=5))
        out = [hh.process_packet(rec) for rec in records]
        return out, report_rows(hh.flush())

    assert run() == run()


def test_param_validation() -> None:
    with pytest.raises(ValueError):
        params(n_stages=0)
    with pytest.raises(ValueError):
        params(report_fraction=1.0)
    with pytest.raises(ValueError):
        params(buckets_per_stage=0)
    with pytest.raises(ValueError):
        HHParams(n_stages=2, buckets_per_stage=2, reorder_def=ReorderDef.DEF3_BELOW_MAX)
    # random.Random(-1) draws the same admission stream as random.Random(1)
    with pytest.raises(ValueError, match="rng_seed must be >= 0"):
        params(rng_seed=-1)


# --- batch path ---------------------------------------------------------------


def run_reference(records, p: HHParams) -> tuple[ReorderHeavyHitter, ReportColumns]:
    """The per-packet run and its eviction reports, as columns."""
    hh = ReorderHeavyHitter(p)
    emitted = [
        (i, rep) for i, rec in enumerate(records) if (rep := hh.process_packet(rec)[1]) is not None
    ]
    return hh, report_columns(emitted)


def assert_batch_matches_reference(records, p: HHParams) -> ReportColumns:
    ref, ref_evictions = run_reference(records, p)
    fast = ReorderHeavyHitter(p)
    batch = fast.process_trace(PacketArrays.from_records(records))
    assert report_rows(batch) == report_rows(ref_evictions)
    assert fast.packets_processed == ref.packets_processed
    assert fast._stages == ref._stages
    assert report_rows(fast.flush()) == report_rows(ref.flush())
    return ref_evictions


@pytest.mark.parametrize("def_", [DEF1, DEF2])
def test_fast_path_matches_reference_on_random_traces(def_: ReorderDef) -> None:
    n_evictions = 0
    for seed in range(6):
        records = random_trace(seed, n_packets=3000, n_flows=14, n_prefixes=5)
        for n_stages, buckets, min_packets in ((1, 2, 1), (2, 2, 4), (3, 4, 16)):
            p = params(
                n_stages=n_stages,
                buckets_per_stage=buckets,
                min_report_packets=min_packets,
                reorder_def=def_,
                hash_seed=seed + 11,
                rng_seed=seed,
            )
            n_evictions += len(assert_batch_matches_reference(records, p))
    assert n_evictions > 0


def test_fast_path_matches_reference_on_synthetic() -> None:
    arrays, _ = generate_synthetic_arrays(
        SynthConfig(n_prefixes=96, seed=31, duration_seconds=1.5, bad_prefix_fraction=0.3)
    )
    for def_ in (DEF1, DEF2):
        p = params(buckets_per_stage=8, min_report_packets=4, reorder_def=def_, hash_seed=2)
        assert assert_batch_matches_reference(list(arrays.iter_records()), p)


def test_fast_path_requires_fresh_instance() -> None:
    records = random_trace(1, n_packets=10)
    hh = ReorderHeavyHitter(params())
    hh.process_packet(records[0])
    with pytest.raises(RuntimeError):
        hh.process_trace(PacketArrays.from_records(records))


def test_fast_path_empty_trace() -> None:
    hh = ReorderHeavyHitter(params())
    assert report_rows(hh.process_trace(PacketArrays.from_records([]))) == []
    assert hh.packets_processed == 0
    assert report_rows(hh.flush()) == []


@settings(max_examples=40, deadline=None)
@given(
    trace_seed=st.integers(0, 10_000),
    n_stages=st.integers(1, 3),
    buckets=st.integers(1, 6),
    min_packets=st.integers(1, 16),
    fraction=st.sampled_from([0.001, 0.05, 0.3]),
    def_=st.sampled_from([DEF1, DEF2]),
)
def test_fast_path_equivalence_property(
    trace_seed: int,
    n_stages: int,
    buckets: int,
    min_packets: int,
    fraction: float,
    def_: ReorderDef,
) -> None:
    records = random_trace(trace_seed, n_packets=600, n_flows=9, n_prefixes=4)
    p = params(
        n_stages=n_stages,
        buckets_per_stage=buckets,
        report_fraction=fraction,
        min_report_packets=min_packets,
        reorder_def=def_,
        hash_seed=trace_seed ^ 0x5A5A,
        rng_seed=trace_seed,
    )
    assert_batch_matches_reference(records, p)
