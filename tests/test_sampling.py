from __future__ import annotations

import numpy as np
import pytest

from reordermon.hashing import bucket_index
from reordermon.model import FlowId, PacketRecord, Prefix, ReorderDef, prefix_of
from reordermon.reports import Report, ReportSource
from reordermon.sampling import FlowSamplingArray, SamplerParams
from reordermon.traceio import PacketArrays, SynthConfig, generate_synthetic_arrays, group_order

from conftest import random_trace, stats_tables

DEF1 = ReorderDef.DEF1_DECREASE
DEF2 = ReorderDef.DEF2_GAP

PREFIX_A = 0x0A000000
PREFIX_B = 0x0A000100

FA1 = FlowId(PREFIX_A | 1, 0xAC100001, 443, 10001)
FA2 = FlowId(PREFIX_A | 2, 0xAC100001, 443, 10002)
FB1 = FlowId(PREFIX_B | 1, 0xAC100001, 443, 10003)


def pkt(flow: FlowId, seq: int, ts: float, payload: int = 100) -> PacketRecord:
    return PacketRecord(flow, seq, payload, ts)


def seed_with_distinct_buckets(bits_a: int, bits_b: int, n_buckets: int) -> int:
    for seed in range(1000):
        if bucket_index(bits_a, seed, n_buckets) != bucket_index(bits_b, seed, n_buckets):
            return seed
    raise AssertionError("no separating seed found")


def find_injective_seed(prefix_bits: list[int], n_buckets: int) -> int:
    for seed in range(5000):
        idxs = {bucket_index(bits, seed, n_buckets) for bits in prefix_bits}
        if len(idxs) == len(prefix_bits):
            return seed
    raise AssertionError("no injective seed found")


def run_reference(records, params: SamplerParams):
    det = FlowSamplingArray(params)
    evictions = []
    for rec in records:
        report = det.process_packet(rec)
        if report is not None:
            evictions.append(report)
    return det, evictions


def assert_batch_matches_reference(records, arrays: PacketArrays, params: SamplerParams):
    """The batch path emits the reference's reports in its order and leaves
    the same buckets, so ``flush`` agrees too."""
    ref, ref_evictions = run_reference(records, params)
    fast = FlowSamplingArray(params)
    assert fast.process_trace(arrays) == ref_evictions
    assert fast.packets_processed == ref.packets_processed
    assert fast._buckets == ref._buckets
    assert fast.flush() == ref.flush()
    return ref_evictions


def test_empty_bucket_always_admits() -> None:
    det = FlowSamplingArray(SamplerParams(n_buckets=4, hash_seed=0))
    report = det.process_packet(pkt(FA1, 1000, 0.0))
    assert report is None
    assert det.occupied_buckets() == 1
    rec = next(b for b in det._buckets if b is not None)
    assert rec.flow == FA1
    assert (rec.n, rec.o, rec.last_ts) == (0, 0, 0.0)
    assert rec.seq_state.last_seq == 1000 and rec.seq_state.expected_next == 1100


def test_resident_update_counts_reorder_without_reporting() -> None:
    det = FlowSamplingArray(SamplerParams(n_buckets=4, hash_seed=0))
    det.process_packet(pkt(FA1, 1000, 0.0))
    report = det.process_packet(pkt(FA1, 900, 0.1))
    assert report is None
    rec = next(b for b in det._buckets if b is not None)
    assert (rec.n, rec.o) == (1, 1)
    assert rec.last_ts == 0.1


def test_reorder_heavy_eviction_reports() -> None:
    params = SamplerParams(
        n_buckets=2, stale_after=1.0, max_packets=8, report_threshold=1, hash_seed=0
    )
    det = FlowSamplingArray(params)
    det.process_packet(pkt(FA1, 1000, 0.0))
    det.process_packet(pkt(FA1, 900, 0.01))
    det.process_packet(pkt(FA1, 800, 0.02))  # n=2, o=2
    report = det.process_packet(pkt(FA2, 5000, 0.03))
    assert report == Report(Prefix(PREFIX_A), 2, 2, ReportSource.ARRAY_EVICTION)
    rec = next(b for b in det._buckets if b is not None)
    assert rec.flow == FA2 and rec.n == 0 and rec.o == 0


def test_collision_without_grounds_leaves_resident_untouched() -> None:
    params = SamplerParams(
        n_buckets=1, stale_after=1.0, max_packets=8, report_threshold=1, hash_seed=0
    )
    det = FlowSamplingArray(params)
    det.process_packet(pkt(FA1, 1000, 0.0))
    det.process_packet(pkt(FA1, 1100, 0.01))
    assert det.process_packet(pkt(FB1, 5000, 0.02)) is None
    rec = det._buckets[0]
    assert rec is not None and rec.flow == FA1
    assert (rec.n, rec.o, rec.last_ts) == (1, 0, 0.01)


def test_stale_and_hogging_evictions_are_silent_by_default() -> None:
    params = SamplerParams(
        n_buckets=1, stale_after=0.5, max_packets=2, report_threshold=5, hash_seed=0
    )
    det = FlowSamplingArray(params)
    det.process_packet(pkt(FA1, 1000, 0.0))
    assert det.process_packet(pkt(FB1, 5000, 1.0)) is None  # stale eviction
    assert det._buckets[0].flow == FB1
    for i in range(3):  # n=3 > C=2
        det.process_packet(pkt(FB1, 5100 + 100 * i, 1.0 + 0.01 * i))
    assert det.process_packet(pkt(FA1, 2000, 1.05)) is None  # hogging eviction
    assert det._buckets[0].flow == FA1


def test_report_all_reports_every_eviction_with_packets() -> None:
    params = SamplerParams(
        n_buckets=1, stale_after=0.5, max_packets=8, report_threshold=5,
        report_all=True, hash_seed=0,
    )
    det = FlowSamplingArray(params)
    det.process_packet(pkt(FA1, 1000, 0.0))
    # n=0 eviction: nothing to report even in report_all mode
    assert det.process_packet(pkt(FB1, 5000, 1.0)) is None
    det.process_packet(pkt(FB1, 5100, 1.01))
    report = det.process_packet(pkt(FA1, 2000, 2.0))
    assert report == Report(Prefix(PREFIX_B), 1, 0, ReportSource.ARRAY_EVICTION)


def test_six_packet_hand_trace() -> None:
    """Hand-stepped state machine: two prefixes in distinct buckets,
    T=1s, C=2, R=1."""
    seed = seed_with_distinct_buckets(PREFIX_A, PREFIX_B, 2)
    trace = [
        pkt(FA1, 1000, 0.0),
        pkt(FA1, 900, 0.1),   # o=1
        pkt(FA1, 800, 0.2),   # o=2
        pkt(FA2, 5000, 0.3),  # collision, o=2 > R=1: report + evict
        pkt(FB1, 7000, 0.4),  # other bucket, admit
        pkt(FB1, 7100, 0.5),  # in-order update, n=1
    ]
    params = SamplerParams(
        n_buckets=2, stale_after=1.0, max_packets=2, report_threshold=1, hash_seed=seed
    )
    det, evictions = run_reference(trace, params)
    assert evictions == [Report(Prefix(PREFIX_A), 2, 2, ReportSource.ARRAY_EVICTION)]
    assert det.flush() == []

    report_all = SamplerParams(
        n_buckets=2, stale_after=1.0, max_packets=2, report_threshold=1,
        report_all=True, hash_seed=seed,
    )
    det2, evictions2 = run_reference(trace, report_all)
    assert evictions2 == evictions
    assert det2.flush() == [Report(Prefix(PREFIX_B), 1, 0, ReportSource.ARRAY_FLUSH)]


def test_flush_rules() -> None:
    params = SamplerParams(n_buckets=4, report_threshold=1, hash_seed=0)
    det = FlowSamplingArray(params)
    assert det.flush() == []  # all buckets empty

    det.process_packet(pkt(FA1, 1000, 0.0))
    for i, seq in enumerate([900, 800, 1200, 1300, 1400]):
        det.process_packet(pkt(FA1, seq, 0.01 * (i + 1)))
    # n=5, o=2 under DEF1
    reports = det.flush()
    assert reports == [Report(Prefix(PREFIX_A), 5, 2, ReportSource.ARRAY_FLUSH)]
    assert det.occupied_buckets() == 0


def test_flush_report_all_includes_clean_records() -> None:
    params = SamplerParams(n_buckets=4, report_threshold=1, report_all=True, hash_seed=0)
    det = FlowSamplingArray(params)
    det.process_packet(pkt(FA1, 1000, 0.0))
    for i in range(5):
        det.process_packet(pkt(FA1, 1100 + 100 * i, 0.01 * (i + 1)))
    assert det.flush() == [Report(Prefix(PREFIX_A), 5, 0, ReportSource.ARRAY_FLUSH)]


def test_def3_rejected_and_param_validation() -> None:
    with pytest.raises(ValueError):
        SamplerParams(n_buckets=4, reorder_def=ReorderDef.DEF3_BELOW_MAX)
    with pytest.raises(ValueError):
        SamplerParams(n_buckets=0)
    with pytest.raises(ValueError):
        SamplerParams(n_buckets=4, stale_after=0.0)
    with pytest.raises(ValueError):
        SamplerParams(n_buckets=4, stale_after=float("nan"))
    with pytest.raises(ValueError):
        SamplerParams(n_buckets=4, report_threshold=0)
    SamplerParams(n_buckets=4, stale_after=float("inf"))  # never stale


def test_access_budget_one_bucket_per_packet() -> None:
    records = random_trace(21, n_packets=2000, n_flows=12, n_prefixes=5)
    params = SamplerParams(n_buckets=4, stale_after=1e-4, max_packets=4, hash_seed=1)
    det, _ = run_reference(records, params)
    assert det.packets_processed == len(records)
    assert det.meter.max_distinct_per_packet <= 1
    assert det.meter.reads == len(records)
    assert det.meter.max_writes_per_packet <= 1


def test_memory_is_exactly_bucket_count() -> None:
    records = random_trace(3, n_packets=3000, n_flows=40, n_prefixes=11)
    params = SamplerParams(n_buckets=8, hash_seed=2)
    det, _ = run_reference(records, params)
    assert len(det._buckets) == 8
    assert det.occupied_buckets() <= 8


def test_determinism_identical_runs() -> None:
    records = random_trace(9, n_packets=1500, n_flows=10, n_prefixes=4)
    params = SamplerParams(n_buckets=4, stale_after=1e-4, max_packets=4, hash_seed=7)
    _, first = run_reference(records, params)
    _, second = run_reference(records, params)
    assert first == second


def test_lowering_r_never_loses_reports() -> None:
    records = random_trace(17, n_packets=4000, n_flows=14, n_prefixes=6)
    counts = []
    for r in (1, 2, 3, 4):
        params = SamplerParams(
            n_buckets=4, stale_after=1e-4, max_packets=6, report_threshold=r, hash_seed=3
        )
        det, evictions = run_reference(records, params)
        counts.append(len(evictions) + len(det.flush()))
    assert counts == sorted(counts, reverse=True)


def test_no_collision_equivalence_small() -> None:
    """One flow per prefix, injective placement, T and C effectively
    infinite, report_all: per-prefix totals equal the oracle's counts minus
    the untracked first packet."""
    from reordermon.oracle import compute_stats

    records = []
    ts = 0.0
    import random as pyrandom

    rng = pyrandom.Random(5)
    flows = [FlowId(0x0A000000 + (i << 8) + 1, 0xAC100001, 443, 20000 + i) for i in range(12)]
    for _ in range(2500):
        flow = rng.choice(flows)
        ts += 1e-5
        records.append(PacketRecord(flow, rng.randrange(5000), rng.randrange(1, 1000), ts))
    prefix_bits = sorted({prefix_of(r.flow).bits for r in records})
    n_buckets = 64
    seed = find_injective_seed(prefix_bits, n_buckets)
    params = SamplerParams(
        n_buckets=n_buckets,
        stale_after=1e9,
        max_packets=10**9,
        report_threshold=1,
        report_all=True,
        hash_seed=seed,
    )
    det, evictions = run_reference(records, params)
    reports = evictions + det.flush()
    totals: dict[Prefix, list[int]] = {}
    for rep in reports:
        agg = totals.setdefault(rep.prefix, [0, 0])
        agg[0] += rep.n
        agg[1] += rep.o
    arrays = PacketArrays.from_records(records)
    _, prefixes = stats_tables(compute_stats(arrays), arrays)
    assert set(totals) == set(prefixes)
    for prefix, (sum_n, sum_o) in totals.items():
        n, flows, o1, _, _ = prefixes[prefix]
        assert sum_n == n - flows
        assert sum_o == o1


@pytest.mark.parametrize("def_", [DEF1, DEF2])
@pytest.mark.parametrize("report_all", [False, True])
def test_fast_path_matches_reference_on_random_traces(def_: ReorderDef, report_all: bool) -> None:
    for seed in range(6):
        records = random_trace(seed, n_packets=3000, n_flows=14, n_prefixes=5)
        arrays = PacketArrays.from_records(records)
        for n_buckets, stale in ((2, 1e-4), (4, 1e-5), (16, 1e-3)):
            params = SamplerParams(
                n_buckets=n_buckets,
                stale_after=stale,
                max_packets=5,
                report_threshold=1,
                reorder_def=def_,
                report_all=report_all,
                hash_seed=seed + 11,
            )
            for rep in assert_batch_matches_reference(records, arrays, params):
                assert 1 <= rep.n and rep.o <= rep.n


def test_fast_path_matches_reference_on_synthetic() -> None:
    arrays, _ = generate_synthetic_arrays(
        SynthConfig(n_prefixes=96, seed=31, duration_seconds=1.5, bad_prefix_fraction=0.3)
    )
    records = list(arrays.iter_records())
    assert_batch_matches_reference(records, arrays, SamplerParams(n_buckets=8, hash_seed=2))


def test_fast_path_requires_fresh_instance() -> None:
    records = random_trace(1, n_packets=10)
    arrays = PacketArrays.from_records(records)
    det = FlowSamplingArray(SamplerParams(n_buckets=2, hash_seed=0))
    det.process_packet(records[0])
    with pytest.raises(RuntimeError):
        det.process_trace(arrays)


def test_fast_path_empty_trace() -> None:
    det = FlowSamplingArray(SamplerParams(n_buckets=2, hash_seed=0))
    arrays = PacketArrays.from_records([])
    assert det.process_trace(arrays) == []
    assert det.flush() == []


def test_def2_gap_counts_in_resident_update() -> None:
    params = SamplerParams(n_buckets=2, reorder_def=DEF2, hash_seed=0)
    det = FlowSamplingArray(params)
    det.process_packet(pkt(FA1, 1000, 0.0))        # expects 1100 next
    det.process_packet(pkt(FA1, 1100, 0.1))        # exactly expected: in order
    det.process_packet(pkt(FA1, 1300, 0.2))        # past expected 1200: gap
    rec = next(b for b in det._buckets if b is not None)
    assert (rec.n, rec.o) == (2, 1)
    assert rec.seq_state.expected_next == 1400


from hypothesis import given, settings, strategies as st


@settings(max_examples=40, deadline=None)
@given(
    trace_seed=st.integers(0, 10_000),
    n_buckets=st.integers(1, 12),
    stale=st.sampled_from([1e-6, 1e-4, 1e-2, 10.0]),
    cap=st.integers(1, 8),
    threshold=st.integers(1, 3),
    def_=st.sampled_from([DEF1, DEF2]),
    report_all=st.booleans(),
)
def test_fast_path_equivalence_property(
    trace_seed: int,
    n_buckets: int,
    stale: float,
    cap: int,
    threshold: int,
    def_: ReorderDef,
    report_all: bool,
) -> None:
    records = random_trace(trace_seed, n_packets=600, n_flows=9, n_prefixes=4)
    arrays = PacketArrays.from_records(records)
    params = SamplerParams(
        n_buckets=n_buckets,
        stale_after=stale,
        max_packets=cap,
        report_threshold=threshold,
        reorder_def=def_,
        report_all=report_all,
        hash_seed=trace_seed ^ 0x5A5A,
    )
    assert_batch_matches_reference(records, arrays, params)


@settings(max_examples=30, deadline=None)
@given(
    n_buckets=st.sampled_from([1, 256, 257, 65_536, 65_537]),
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 3000),
)
def test_bucket_order_matches_int64_stable_argsort(n_buckets: int, seed: int, size: int) -> None:
    """The narrowed sort keeps the int64 stable order, at each width edge."""
    rng = np.random.default_rng(seed)
    # few distinct ids, so that ties (where stability shows) are common
    ids = rng.choice(
        np.unique(np.r_[0, n_buckets - 1, rng.integers(0, n_buckets, 8)]), size
    ).astype(np.int64)
    assert np.array_equal(group_order(ids, n_buckets), np.argsort(ids, kind="stable"))
