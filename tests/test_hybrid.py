from __future__ import annotations

import pytest
from hypothesis import given, reject, settings, strategies as st

from reordermon.harness import ExperimentSpec, detector_params
from reordermon.heavyhitter import HHParams, ReorderHeavyHitter
from reordermon.hybrid import HybridDetector, HybridParams
from reordermon.model import FlowId, PacketRecord, ReorderDef
from reordermon.reports import ReportSource
from reordermon.sampling import FlowSamplingArray, SamplerParams
from reordermon.traceio import PacketArrays, SynthConfig, generate_synthetic_arrays

from conftest import random_trace, report_columns, report_rows

FA1 = FlowId(0x0A000001, 0xAC100001, 443, 10001)
FA2 = FlowId(0x0A000002, 0xAC100001, 443, 10002)


def pkt(flow: FlowId, seq: int, ts: float) -> PacketRecord:
    return PacketRecord(flow, seq, 100, ts)


def hybrid_params(total: int, x: float, seed: int = 0, **fields) -> HybridParams:
    """The hybrid at B = ``total`` and x, sized as the harness sizes it; the
    other ``ExperimentSpec`` fields as given, else their defaults."""
    spec = ExperimentSpec(
        algorithm="hybrid", bucket_counts=(total,), hh_fractions=(x,), **fields
    )
    return detector_params(spec, total, x, seed)


def run_hybrid(records, params: HybridParams):
    """The per-packet run's reports and its flush, as columns."""
    det = HybridDetector(params)
    emitted = [(i, rep) for i, rec in enumerate(records) for rep in det.process_packet(rec)]
    return report_columns(emitted), det.flush()


def test_params_need_a_structure_and_one_definition() -> None:
    array = SamplerParams(n_buckets=4, reorder_def=ReorderDef.DEF2_GAP, hash_seed=3)
    hh = HHParams(n_stages=2, buckets_per_stage=2, hash_seed=5)
    with pytest.raises(ValueError, match="same reorder_def"):
        HybridParams(array=array, hh=hh)
    with pytest.raises(ValueError, match="needs an array, an HH table or both"):
        HybridParams(array=None, hh=None)
    HybridParams(array=array, hh=None)
    HybridParams(array=None, hh=hh)


def test_hh_resident_flow_never_reaches_array() -> None:
    det = HybridDetector(hybrid_params(16, 0.5))
    det.process_packet(pkt(FA1, 1000, 0.0))  # admitted into empty HH slot
    det.process_packet(pkt(FA1, 1100, 0.1))
    assert det.array is not None
    assert det.array.packets_processed == 0


def test_flow_rejected_by_hh_goes_to_array_as_standalone() -> None:
    import random as pyrandom

    # pre-fill the HH stages so the admission draw fails for the next flow
    for seed in range(100_000):
        if pyrandom.Random(seed).random() >= 1.0 / 102:
            break
    params = hybrid_params(4, 0.5, seed=seed)
    det = HybridDetector(params)
    assert det.hh is not None and det.array is not None
    from reordermon.heavyhitter import HHEntry
    from reordermon.model import SeqState

    for stage in det.hh._stages:
        for idx in range(len(stage)):
            stage[idx] = HHEntry(FA1, 101, SeqState(0, 100), 100, 0)
    report = det.process_packet(pkt(FA2, 5000, 0.0))
    assert report == []
    assert det.array.packets_processed == 1
    assert det.array.occupied_buckets() == 1


@pytest.mark.parametrize("reorder_def", [ReorderDef.DEF1_DECREASE, ReorderDef.DEF2_GAP])
def test_x_zero_is_bitwise_the_standalone_array(reorder_def: ReorderDef) -> None:
    records = random_trace(4, n_packets=3000, n_flows=12, n_prefixes=5)
    sampler = SamplerParams(
        n_buckets=8, stale_after=1e-4, max_packets=4, reorder_def=reorder_def, hash_seed=3
    )
    params = hybrid_params(8, 0.0, 3, stale_after=1e-4, max_packets=4, reorder_def=reorder_def)
    hybrid_reports, hybrid_flush = run_hybrid(records, params)

    standalone = FlowSamplingArray(sampler)
    solo_reports = report_columns(
        (i, r) for i, rec in enumerate(records) if (r := standalone.process_packet(rec))
    )
    assert report_rows(hybrid_reports) == report_rows(solo_reports)
    assert report_rows(hybrid_flush) == report_rows(standalone.flush())


def test_x_one_is_bitwise_the_standalone_hh() -> None:
    records = random_trace(6, n_packets=3000, n_flows=18, n_prefixes=4)
    hh = HHParams(n_stages=2, buckets_per_stage=8 // 2, hash_seed=5)
    hybrid_reports, hybrid_flush = run_hybrid(records, hybrid_params(8, 1.0, 5))

    standalone = ReorderHeavyHitter(hh)
    solo_reports = report_columns(
        (i, r) for i, rec in enumerate(records) if (r := standalone.process_packet(rec)[1])
    )
    assert report_rows(hybrid_reports) == report_rows(solo_reports)
    assert report_rows(hybrid_flush) == report_rows(standalone.flush())


def test_flush_degenerate_cases() -> None:
    reports, flushed = run_hybrid([], hybrid_params(8, 0.5))
    assert report_rows(reports) == report_rows(flushed) == []
    records = random_trace(2, n_packets=500, n_flows=10, n_prefixes=3)
    # x=0: flush equals the array's flush alone (no HH part)
    params = hybrid_params(8, 0.0, seed=1)
    det = HybridDetector(params)
    assert det.hh is None
    for rec in records:
        det.process_packet(rec)
    assert all(source.value.startswith("array") for *_, source in report_rows(det.flush()))


def test_access_budget_d_plus_one() -> None:
    records = random_trace(11, n_packets=2000, n_flows=16, n_prefixes=5)
    det = HybridDetector(hybrid_params(16, 0.5, seed=2))
    for rec in records:
        det.process_packet(rec)
    assert det.hh is not None and det.array is not None
    d = det.hh.params.n_stages
    assert det.hh.meter.max_distinct_per_packet <= d + 1
    assert det.array.meter.max_distinct_per_packet <= 1
    # per packet: at most d HH probes plus one array bucket
    assert det.hh.meter.max_writes_per_packet <= 1
    assert det.array.meter.max_writes_per_packet <= 1


def test_prefix_filter_variant_blocks_same_prefix_flows() -> None:
    det = HybridDetector(hybrid_params(16, 0.5, filter_by_prefix=True))
    det.process_packet(pkt(FA1, 1000, 0.0))  # FA1 resident in HH
    assert det.array is not None
    seen_before = det.array.packets_processed
    # FA2 shares FA1's prefix: whether or not FA2 itself gets admitted, the
    # prefix stays resident, so the array never sees the packet
    det.process_packet(pkt(FA2, 5000, 0.1))
    assert det.array.packets_processed == seen_before


def test_tiny_hh_budget_disables_hh() -> None:
    params = hybrid_params(8, 0.1)  # floor(0.8) = 0 HH buckets
    det = HybridDetector(params)
    assert det.hh is None
    assert det.array is not None and det.array.params.n_buckets == 8


# --- batch path ---------------------------------------------------------------


def batch_params(
    total: int,
    x: float,
    reorder_def: ReorderDef,
    filter_by_prefix: bool,
    seed: int,
    n_stages: int = 2,
    min_report_packets: int = 4,
) -> HybridParams:
    return hybrid_params(
        total, x, seed, stale_after=1e-4, max_packets=5, reorder_def=reorder_def,
        hh_stages=n_stages, min_report_packets=min_report_packets,
        filter_by_prefix=filter_by_prefix,
    )


def assert_batch_matches_reference(records, params: HybridParams) -> list[tuple]:
    ref = HybridDetector(params)
    emitted = [(i, rep) for i, rec in enumerate(records) for rep in ref.process_packet(rec)]
    ref_reports = report_rows(report_columns(emitted))
    fast = HybridDetector(params)
    assert report_rows(fast.process_trace(PacketArrays.from_records(records))) == ref_reports
    if ref.hh is not None:
        assert fast.hh.packets_processed == ref.hh.packets_processed
        assert fast.hh._stages == ref.hh._stages
    if ref.array is not None:
        assert fast.array.packets_processed == ref.array.packets_processed
        assert fast.array._buckets == ref.array._buckets
    flushed = fast.flush()
    assert report_rows(flushed) == report_rows(ref.flush())
    # flush reports come at the end of the whole stream, even the array's
    assert (flushed.trigger == len(records)).all()
    return ref_reports


@pytest.mark.parametrize("reorder_def", [ReorderDef.DEF1_DECREASE, ReorderDef.DEF2_GAP])
@pytest.mark.parametrize("filter_by_prefix", [False, True])
@pytest.mark.parametrize("x", [0.0, 1.0, 0.5, 0.3])
def test_fast_path_matches_reference_on_random_traces(
    reorder_def: ReorderDef, filter_by_prefix: bool, x: float
) -> None:
    sources = set()
    for seed in range(4):
        records = random_trace(seed, n_packets=2000, n_flows=14, n_prefixes=4)
        for total in (4, 9, 16):
            params = batch_params(total, x, reorder_def, filter_by_prefix, seed + 3)
            rows = assert_batch_matches_reference(records, params)
            sources.update(source for *_, source in rows)
    expected = set()
    if x > 0.0:
        expected.add(ReportSource.HH_EVICTION)
    if x < 1.0:
        expected.add(ReportSource.ARRAY_EVICTION)
    assert sources == expected


def test_fast_path_matches_reference_on_synthetic() -> None:
    arrays, _ = generate_synthetic_arrays(
        SynthConfig(n_prefixes=96, seed=31, duration_seconds=1.5, bad_prefix_fraction=0.3)
    )
    records = list(arrays.iter_records())
    for x in (0.2, 0.7):
        params = batch_params(32, x, ReorderDef.DEF2_GAP, False, seed=2, min_report_packets=16)
        assert assert_batch_matches_reference(records, params)


def test_fast_path_requires_fresh_instance() -> None:
    records = random_trace(1, n_packets=10)
    arrays = PacketArrays.from_records(records)
    for x in (0.0, 0.5, 1.0):
        det = HybridDetector(hybrid_params(8, x))
        det.process_packet(records[0])
        with pytest.raises(RuntimeError):
            det.process_trace(arrays)


def test_fast_path_empty_trace() -> None:
    for x in (0.0, 0.5, 1.0):
        det = HybridDetector(hybrid_params(8, x))
        assert report_rows(det.process_trace(PacketArrays.from_records([]))) == []
        assert report_rows(det.flush()) == []


@settings(max_examples=40, deadline=None)
@given(
    trace_seed=st.integers(0, 10_000),
    total=st.integers(1, 20),
    x=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    n_stages=st.integers(1, 3),
    min_packets=st.integers(1, 16),
    reorder_def=st.sampled_from([ReorderDef.DEF1_DECREASE, ReorderDef.DEF2_GAP]),
    filter_by_prefix=st.booleans(),
)
def test_fast_path_equivalence_property(
    trace_seed: int,
    total: int,
    x: float,
    n_stages: int,
    min_packets: int,
    reorder_def: ReorderDef,
    filter_by_prefix: bool,
) -> None:
    records = random_trace(trace_seed, n_packets=600, n_flows=9, n_prefixes=4)
    try:
        params = batch_params(
            total, x, reorder_def, filter_by_prefix, trace_seed ^ 0x5A5A, n_stages, min_packets
        )
    except ValueError as exc:  # a split with room for neither structure
        assert "builds neither" in str(exc)
        reject()
    assert_batch_matches_reference(records, params)
