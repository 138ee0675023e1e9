from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reordermon.model import FlowId, PacketRecord, int_to_ip
from reordermon.oracle import compute_stats
from reordermon.traceio import (
    PacketArrays,
    SynthConfig,
    TRACE_HEADER,
    TraceFormatError,
    filter_server_to_client,
    generate_synthetic_arrays,
    parse_trace,
    write_trace_csv,
)

from conftest import random_trace, stats_tables


def parse_text(text: str):
    return parse_trace(io.StringIO(text))


def trace_text(records: list[PacketRecord]) -> str:
    buf = io.StringIO()
    write_trace_csv(PacketArrays.from_records(records), buf)
    return buf.getvalue()


def test_empty_trace_parses_to_zero_meta() -> None:
    arrays, meta = parse_text(TRACE_HEADER + "\n")
    assert len(arrays) == 0 and arrays.flow_count == 0
    assert (meta.packet_count, meta.flow_count, meta.prefix_count) == (0, 0, 0)
    assert meta.duration_seconds == 0.0


def test_single_row_maps_fields_directly() -> None:
    arrays, meta = parse_text(
        TRACE_HEADER + "\n" + "0.000001,10.0.0.1,10.0.1.1,443,50000,1000,100\n"
    )
    assert len(arrays) == 1
    (rec,) = arrays.iter_records()
    assert rec.flow == FlowId(0x0A000001, 0x0A000101, 443, 50000)
    assert (rec.seq, rec.payload_len, rec.ts) == (1000, 100, 0.000001)
    assert meta.flow_count == 1 and meta.prefix_count == 1


def test_zero_payload_rows_are_dropped() -> None:
    arrays, meta = parse_text(
        TRACE_HEADER
        + "\n0.1,10.0.0.1,10.0.1.1,443,50000,1000,0"
        + "\n0.2,10.0.0.1,10.0.1.1,443,50000,1000,100\n"
    )
    assert len(arrays) == 1
    assert meta.packet_count == 1


NON_CANONICAL_ROWS = (
    "nan,10.0.0.1,10.0.1.1,443,50000,1000,100",
    "inf,10.0.0.1,10.0.1.1,443,50000,1000,100",
    "1e999,10.0.0.1,10.0.1.1,443,50000,1000,100",
    "0.2,10.0.0.1,10.0.1.1,443,50000,4294967296,100",
    "0.2,10.0.0.1,10.0.1.1,443,50000,1000,4294967296",
    "0.2,+10.0.0.1,10.0.1.1,443,50000,1000,100",
    "0.2,10.0.0.1,10.0.1.1, 80,50000,1000,100",
    "0.2,10.0.0.1,10.0.1.1,443,50000,1_0,100",
    "0.2,10.0.0.1,10.0.1.1,443,50000,1000,100\t",
    "0.2,10.0.0.1,10.0.1.1,443,\x0c50000,1000,100",
    "0.2,10.0.0.1,10.0.-0.1,443,50000,1000,100",
    "0.2,10.0.0.1,10.0.1.1,443,50000,\uff11000,100",  # fullwidth digit one
    "0.2,10.0.0.010,10.0.1.1,443,50000,1000,100",
    "0.2,10.0.0.1,10.0.01.1,443,50000,1000,100",
    "0.2,10.0.0.1,10.0.1.1,0443,50000,1000,100",
    "0.2,10.0.0.1,10.0.1.1,443,050000,1000,100",
    "0.2,10.0.0.1,10.0.1.1,443,50000,01000,100",
    "0.2,10.0.0.1,10.0.1.1,443,50000,1000,0100",
    "0.2,10.0.0.1,10.0.1.1,443,50000,00,100",
    "0.2,10.0.0.1,10.0.1.1,0443,050000,01000,0100",
)


def test_malformed_row_names_line(tmp_path) -> None:
    with pytest.raises(TraceFormatError, match="line 3"):
        parse_text(
            TRACE_HEADER
            + "\n0.1,10.0.0.1,10.0.1.1,443,50000,1000,100"
            + "\n0.2,not-an-ip,10.0.1.1,443,50000,1000,100\n"
        )
    with pytest.raises(TraceFormatError, match="line 2"):
        parse_text(TRACE_HEADER + "\n0.1,10.0.0.1,10.0.1.1,443\n")
    with pytest.raises(TraceFormatError, match="header"):
        parse_text("nope\n")
    for row in NON_CANONICAL_ROWS:
        with pytest.raises(TraceFormatError, match="line 3"):
            parse_text(TRACE_HEADER + "\n0.1,10.0.0.1,10.0.1.1,443,50000,900,100\n" + row + "\n")
    # a lone zero is canonical
    arrays, _ = parse_text(TRACE_HEADER + "\n0.1,10.0.0.1,10.0.1.1,0,50000,0,100\n")
    assert arrays.seq.tolist() == [0] and arrays.flow_src_port.tolist() == [0]
    # a negative first timestamp cannot be caught as a decrease
    for ts in ("-0.1", "-0.0", "-1e-05"):
        with pytest.raises(TraceFormatError, match="line 2: negative timestamp"):
            parse_text(TRACE_HEADER + f"\n{ts},10.0.0.1,10.0.1.1,443,50000,900,100\n")
    # a non-ASCII byte in a trace file, inside a field and after the last one
    for tail in (b"\xe9", b",100\xe9"):
        path = tmp_path / "bad.csv"
        path.write_bytes(
            TRACE_HEADER.encode() + b"\n0.1,10.0.0.1,10.0.1.1,443,50000,1000" + tail + b"\n"
        )
        with pytest.raises(TraceFormatError, match="line 2"):
            parse_trace(path)


def test_decreasing_timestamps_rejected() -> None:
    with pytest.raises(TraceFormatError, match="line 3.*timestamp"):
        parse_text(
            TRACE_HEADER
            + "\n0.2,10.0.0.1,10.0.1.1,443,50000,1000,100"
            + "\n0.1,10.0.0.1,10.0.1.1,443,50000,1100,100\n"
        )


@pytest.mark.parametrize(
    "src_port,dst_port,kept",
    [(443, 51234, True), (51234, 443, False), (80, 80, False)],
)
def test_server_to_client_port_heuristic(src_port: int, dst_port: int, kept: bool) -> None:
    other = PacketRecord(FlowId(3, 4, 443, 51234), 0, 10, 0.0)
    rec = PacketRecord(FlowId(1, 2, src_port, dst_port), 0, 10, 0.5)
    arrays = PacketArrays.from_records([other, rec, other])
    filtered = filter_server_to_client(arrays)
    assert list(filtered.iter_records()) == ([other, rec, other] if kept else [other, other])
    assert filtered.flow_count == arrays.flow_count


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_serialize_parse_round_trip(seed: int) -> None:
    records = random_trace(seed, n_packets=60)
    parsed, _ = parse_text(trace_text(records))
    assert list(parsed.iter_records()) == records


def test_arrays_round_trip_through_records() -> None:
    records = random_trace(3, n_packets=120)
    arrays = PacketArrays.from_records(records)
    assert list(arrays.iter_records()) == records
    assert len(arrays) == 120


def test_write_trace_csv_matches_record_serializer() -> None:
    records = random_trace(5, n_packets=80)
    expected = [TRACE_HEADER] + [
        f"{r.ts!r},{int_to_ip(r.flow.src_ip)},{int_to_ip(r.flow.dst_ip)},"
        f"{r.flow.src_port},{r.flow.dst_port},{r.seq},{r.payload_len}"
        for r in records
    ]
    assert trace_text(records) == "\n".join(expected) + "\n"


def test_generator_is_deterministic() -> None:
    cfg = SynthConfig(n_prefixes=32, seed=11, duration_seconds=1.0)
    a, inj_a = generate_synthetic_arrays(cfg)
    b, inj_b = generate_synthetic_arrays(cfg)
    assert np.array_equal(a.ts, b.ts)
    assert np.array_equal(a.seq, b.seq)
    assert np.array_equal(a.flow_id, b.flow_id)
    assert np.array_equal(inj_a, inj_b)


def test_generator_timestamps_nondecreasing_and_payloads_positive() -> None:
    arrays, _ = generate_synthetic_arrays(SynthConfig(n_prefixes=64, seed=2, duration_seconds=1.0))
    assert np.all(np.diff(arrays.ts) >= 0)
    assert int(arrays.payload_len.min()) >= 1


def test_no_displacement_means_no_reordering() -> None:
    cfg = SynthConfig(
        n_prefixes=24, seed=4, bad_reorder_prob=0.0, good_reorder_prob=0.0, duration_seconds=1.0
    )
    arrays, injected = generate_synthetic_arrays(cfg)
    assert int(injected.sum()) == 0
    stats = compute_stats(arrays)
    assert all(o1 == 0 for _, o1, _, _ in stats_tables(stats, arrays)[0].values())


def test_displacement_rate_drives_def1_rate() -> None:
    # every prefix on a bad path, unit displacement: each displaced packet
    # yields one sequence decrease, so the def1 fraction tracks the rate
    cfg = SynthConfig(
        n_prefixes=512,
        seed=6,
        bad_prefix_fraction=1.0,
        bad_reorder_prob=0.03,
        good_reorder_prob=0.0,
        displacement_max=1,
        duration_seconds=4.0,
        mean_flow_size=64,
    )
    arrays, injected = generate_synthetic_arrays(cfg)
    assert len(arrays) > 50_000
    stats = compute_stats(arrays)
    def1_total = sum(o1 for _, o1, _, _ in stats_tables(stats, arrays)[0].values())
    rate = def1_total / len(arrays)
    assert 0.8 * 0.03 <= rate <= 1.2 * 0.03
    # and the sidecar counts displaced packets exactly
    assert abs(def1_total - int(injected.sum())) <= 0.05 * injected.sum()


def test_invalid_configs_rejected() -> None:
    with pytest.raises(ValueError):
        SynthConfig(n_prefixes=0).validate()
    with pytest.raises(ValueError):
        SynthConfig(n_prefixes=4, bad_prefix_fraction=1.5).validate()
    with pytest.raises(ValueError):
        SynthConfig(n_prefixes=4, good_reorder_prob=0.5, bad_reorder_prob=0.1).validate()
    with pytest.raises(ValueError):
        SynthConfig(n_prefixes=4, displacement_max=0).validate()


def test_port_out_of_range_rejected() -> None:
    with pytest.raises(TraceFormatError, match="port"):
        parse_text(TRACE_HEADER + "\n0.1,10.0.0.1,10.0.1.1,70000,50000,1000,100\n")


def test_negative_fields_rejected() -> None:
    with pytest.raises(TraceFormatError, match="negative"):
        parse_text(TRACE_HEADER + "\n0.1,10.0.0.1,10.0.1.1,443,50000,-5,100\n")
