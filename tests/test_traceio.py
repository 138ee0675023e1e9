from __future__ import annotations

import dataclasses
import io
import math
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from reordermon import csvtext, traceio
from reordermon.model import (
    DETECTOR_DEFS,
    FlowId,
    PacketRecord,
    SeqState,
    advance_state,
    initial_state,
    int_to_ip,
    ip_to_int,
    is_out_of_order,
)
from reordermon.oracle import compute_stats
from reordermon.traceio import (
    MAX_FLOW_SIZE,
    PacketArrays,
    SIDECAR_HEADER,
    SynthConfig,
    TRACE_HEADER,
    TraceFormatError,
    TraceMeta,
    flow_steps,
    flow_table_meta,
    generate_synthetic_arrays,
    parse_trace,
    write_sidecar,
    write_trace_csv,
)

from conftest import random_trace, stats_tables


def write_text(path: Path, text: str) -> None:
    """``text`` as a file: Latin-1 where it fits ("\xe9" as one byte), else UTF-8."""
    try:
        path.write_bytes(text.encode("latin-1"))
    except UnicodeEncodeError:
        path.write_bytes(text.encode("utf-8"))


def parse_text(text: str):
    """``parse_trace`` of ``text`` written to a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_text(path, text)
        return parse_trace(path)


def trace_text(records: list[PacketRecord]) -> str:
    buf = io.StringIO()
    write_trace_csv(PacketArrays.from_records(records), buf)
    return buf.getvalue()


def packet_meta(arrays: PacketArrays) -> TraceMeta:
    """The reference ``flow_table_meta`` is held to: the counts over the
    flows that have packets, from a pass over the packets."""
    flows = np.unique(arrays.flow_id)
    return TraceMeta(
        packet_count=len(arrays),
        flow_count=int(flows.size),
        prefix_count=int(np.unique(arrays.flow_prefix_bits[flows]).size),
    )


def test_empty_trace_parses_to_zero_meta() -> None:
    arrays, meta = parse_text(TRACE_HEADER + "\n")
    assert len(arrays) == 0 and arrays.flow_count == 0
    assert (meta.packet_count, meta.flow_count, meta.prefix_count) == (0, 0, 0)
    assert arrays.duration_seconds == 0.0


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


PACKET_COLUMNS = ("ts", "seq", "payload_len", "flow_id")
FLOW_COLUMNS = ("flow_src_ip", "flow_dst_ip", "flow_src_port", "flow_dst_port")


@st.composite
def raw_columns(draw) -> dict[str, np.ndarray]:
    """``PacketArrays`` columns drawn with no regard for its rule: float ts
    (sorted most of the time), now and then one of them NaN or infinite,
    one payload_len -1 or -200, or one flow_id -1 or n_flows, and now and
    then one column a row longer or shorter."""
    n_flows = draw(st.integers(0, 4))
    n = draw(st.integers(0, 12))
    sizes = dict.fromkeys(PACKET_COLUMNS, n) | dict.fromkeys(FLOW_COLUMNS, n_flows)
    if draw(st.integers(0, 9)) == 0:
        name = draw(st.sampled_from(sorted(sizes)))
        sizes[name] = max(sizes[name] + draw(st.sampled_from([-1, 1])), 0)

    def column(name: str, strategy, bad=None, dtype=np.int64) -> np.ndarray:
        values = draw(st.lists(strategy, min_size=sizes[name], max_size=sizes[name]))
        if bad is not None and values and draw(st.integers(0, 3)) == 0:
            values[draw(st.integers(0, len(values) - 1))] = draw(bad)
        return np.array(values, dtype=dtype)

    ts = column("ts", st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from([math.nan, math.inf, -math.inf]), np.float64)
    if draw(st.integers(0, 3)):
        ts = np.sort(ts)  # NaN goes last
    return {
        "ts": ts,
        # multiples of 100 repeat seqs and hit the expected next seq exactly
        "seq": column("seq", st.integers(0, 8)) * 100,
        "payload_len": column("payload_len", st.sampled_from([0, 100, 200, 300]),
                              st.sampled_from([-1, -200])),
        "flow_id": column("flow_id", st.integers(0, max(n_flows - 1, 0)),
                          st.sampled_from([-1, n_flows])),
        "flow_src_ip": 0x0A000000 + column("flow_src_ip", st.integers(0, 2)),
        "flow_dst_ip": column("flow_dst_ip", st.just(0xAC100001)),
        "flow_src_port": column("flow_src_port", st.just(443)),
        "flow_dst_port": column("flow_dst_port", st.integers(10_000, 10_003)),
    }


def first_broken(columns: dict[str, np.ndarray]) -> str | None:
    """The error the trace rule gives for these columns, from a walk one
    packet at a time; None if they follow it."""
    for kind, names in (("packet", PACKET_COLUMNS), ("flow", FLOW_COLUMNS)):
        if len({len(columns[name]) for name in names}) > 1:
            return f"the {kind} columns differ in length"
    n_flows = len(columns["flow_src_ip"])
    prev = -math.inf
    rows = zip(*(columns[name].tolist() for name in ("ts", "payload_len", "flow_id")))
    for i, (ts, length, fid) in enumerate(rows):
        if length < 0:
            return f"packet {i} has negative payload_len {length}"
        if not math.isfinite(ts):
            return f"packet {i} has non-finite ts {ts!r}"
        if ts < prev:
            return f"packet {i} has ts {ts!r}, below the ts {prev!r} before it"
        if not 0 <= fid < n_flows:
            return f"packet {i} has flow_id {fid}, outside [0, {n_flows})"
        prev = ts
    return None


def example_columns(ts, flow_id=None, n_flows=1) -> dict[str, np.ndarray]:
    """Columns of a few packets at ``ts`` in flows of one /24, of 100 bytes
    each, their seqs 100 apart."""
    n = len(ts)
    hosts = np.arange(n_flows, dtype=np.int64)
    return {
        "ts": np.array(ts, dtype=np.float64),
        "seq": 1000 + 100 * np.arange(n, dtype=np.int64),
        "payload_len": np.full(n, 100, dtype=np.int64),
        "flow_id": np.array(flow_id or [0] * n, dtype=np.int64),
        "flow_src_ip": 0x0A000001 + hosts,
        "flow_dst_ip": np.full(n_flows, 0xAC100001, dtype=np.int64),
        "flow_src_port": np.full(n_flows, 443, dtype=np.int64),
        "flow_dst_port": 10_000 + hosts,
    }


def test_from_records_rejects_negative_payload() -> None:
    # with payload -200, seq 900 after seq 1000 would break DEF1 and DEF2 at once
    flow = FlowId(0x0A000001, 0xAC100001, 443, 50_000)
    records = [PacketRecord(flow, 1000, -200, 0.0), PacketRecord(flow, 900, 100, 0.1)]
    with pytest.raises(ValueError, match=re.escape("packet 0 has negative payload_len -200")):
        PacketArrays.from_records(records)


@pytest.mark.parametrize("ts", [math.nan, math.inf, -math.inf])
def test_from_records_rejects_non_finite_ts(ts: float) -> None:
    # a NaN gap has no inter-arrival bin; parse_trace refuses such a row too
    flow = FlowId(0x0A000001, 0xAC100001, 443, 10000)
    records = [PacketRecord(flow, 1000 + 100 * i, 100, t) for i, t in enumerate([0.0, ts, 1.0])]
    with pytest.raises(ValueError, match=re.escape(f"packet 1 has non-finite ts {ts!r}")):
        PacketArrays.from_records(records)


@settings(max_examples=400, deadline=None)
@given(columns=raw_columns())
# after this ts the per-packet array would leave flow 1 resident with n=1,
# but the batch array flow 0 with n=0
@example(columns=example_columns([0.0, 0.5, 5.0, 0.7], flow_id=[0, 1, 1, 1], n_flows=2))
# group_order would cast 257 to a uint8 and sort it as flow 1
@example(columns=example_columns([0.0, 0.1, 0.2, 0.3], flow_id=[0, 257, 0, 1], n_flows=2))
def test_packet_arrays_refuse_what_no_pass_can_judge(columns: dict[str, np.ndarray]) -> None:
    """A trace is built exactly when its columns follow the rule, else the
    error names the first bad packet, as it does for ``from_records`` of the
    same packets; every built trace has the per-packet walk's steps."""
    message = first_broken(columns)
    if message is None:
        arrays = PacketArrays(**columns)
        order, step = flow_steps(arrays)
        assert np.array_equal(order, np.argsort(arrays.flow_id, kind="stable"))
        assert step.tolist() == np.asarray(reference_steps(arrays))[order].tolist()
        return
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        PacketArrays(**columns)
    flows = list(zip(*(columns[name].tolist() for name in FLOW_COLUMNS)))
    if "length" not in message and all(0 <= fid < len(flows) for fid in columns["flow_id"]):
        records = [
            PacketRecord(FlowId(*flows[fid]), seq, length, ts)
            for ts, seq, length, fid in zip(*(columns[name].tolist() for name in PACKET_COLUMNS))
        ]
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            PacketArrays.from_records(records)


def test_a_built_trace_changes_only_through_a_checked_replace() -> None:
    arrays = PacketArrays(**example_columns([0.0, 0.5, 1.0]))
    with pytest.raises(dataclasses.FrozenInstanceError):
        arrays.ts = np.array([1.0, 0.5, 0.0])
    with pytest.raises(ValueError, match=re.escape("packet 1 has ts 0.5, below the ts 1.0")):
        dataclasses.replace(arrays, ts=np.array([1.0, 0.5, 0.0]))


def test_flow_steps_refuses_a_negative_payload() -> None:
    # flow_steps, which the oracle and every batch path read, is never handed
    # such a trace: swapping in the column refuses it as from_records does
    arrays = PacketArrays(**example_columns([0.0, 0.1]))
    with pytest.raises(ValueError, match=re.escape("packet 0 has negative payload_len -200")):
        dataclasses.replace(arrays, payload_len=np.array([-200, 100], dtype=np.int64))
    assert flow_steps(arrays)[1].tolist() == [-1, 0]


@pytest.mark.parametrize(
    "ts, message",
    [
        # its gaps would be binned at -2^63
        ([0.0, math.nan, 1.0], "packet 1 has non-finite ts nan"),
        # after it the per-packet array would leave flow 1 resident with n=1,
        # but the batch array flow 0 with n=0
        ([0.0, 0.5, 5.0, 0.7], "packet 3 has ts 0.7, below the ts 5.0 before it"),
    ],
    ids=["nan", "decreasing"],
)
def test_flow_steps_refuses_a_ts_that_is_not_finite_or_decreases(
    ts: list[float], message: str
) -> None:
    flow_id = [0, 1, 1, 1][: len(ts)]
    arrays = PacketArrays(**example_columns(list(range(len(ts))), flow_id=flow_id, n_flows=2))
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(arrays, ts=np.array(ts, dtype=np.float64))
    assert flow_steps(arrays)[1].tolist() == [-1, -1] + [0] * (len(ts) - 2)


def reference_steps(arrays: PacketArrays) -> list[int]:
    """Per packet in trace order, from a walk with ``is_out_of_order``: -1
    for a flow's first packet, else the value of the definition the packet
    breaks, else 0."""
    states: dict[int, SeqState] = {}
    steps = []
    for fid, seq, length in zip(
        arrays.flow_id.tolist(), arrays.seq.tolist(), arrays.payload_len.tolist()
    ):
        pkt = PacketRecord(arrays.flow(fid), seq, length, 0.0)
        state = states.get(fid)
        if state is None:
            states[fid] = initial_state(pkt)
            steps.append(-1)
            continue
        broken = [d.value for d in DETECTOR_DEFS if is_out_of_order(state, pkt, d)]
        assert len(broken) <= 1
        steps.append(broken[0] if broken else 0)
        advance_state(state, pkt)
    return steps


@settings(max_examples=40, deadline=None)
@given(
    n_flows=st.sampled_from([1, 9, 256, 257, 65_536, 65_537]),
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(0, 300),
)
def test_flow_steps_match_per_packet_walk(n_flows: int, seed: int, size: int) -> None:
    """On a subset whose flow table keeps packet-less flows (what the
    hybrid's array sees), at each sort-width edge of the flow count."""
    rng = np.random.default_rng(seed)
    ids = np.unique(np.r_[0, n_flows - 1, rng.integers(0, n_flows, 6)])
    hosts = np.arange(n_flows, dtype=np.int64)
    arrays = PacketArrays(
        ts=np.sort(rng.random(size)),
        # multiples of 100 repeat seqs and hit the expected next seq exactly
        seq=rng.integers(0, 20, size) * 100,
        payload_len=rng.integers(1, 4, size) * 100,
        flow_id=rng.choice(ids, size),
        flow_src_ip=0x0A000000 + hosts,
        flow_dst_ip=np.full(n_flows, 0xAC100001, dtype=np.int64),
        flow_src_port=np.full(n_flows, 443, dtype=np.int64),
        flow_dst_port=10_000 + hosts % 50_000,
    )
    arrays = arrays.subset(rng.random(size) < 0.7)
    order, step = flow_steps(arrays)
    assert step.dtype == np.int8
    assert np.array_equal(order, np.argsort(arrays.flow_id, kind="stable"))
    assert step.tolist() == np.asarray(reference_steps(arrays))[order].tolist()


def test_write_trace_csv_matches_record_serializer() -> None:
    records = random_trace(5, n_packets=80)
    expected = [TRACE_HEADER] + [
        f"{r.ts!r},{int_to_ip(r.flow.src_ip)},{int_to_ip(r.flow.dst_ip)},"
        f"{r.flow.src_port},{r.flow.dst_port},{r.seq},{r.payload_len}"
        for r in records
    ]
    assert trace_text(records) == "\n".join(expected) + "\n"


def per_row_csv(arrays: PacketArrays) -> str:
    """The reference writer: one f-string per row."""
    src = [int_to_ip(ip) for ip in arrays.flow_src_ip.tolist()]
    dst = [int_to_ip(ip) for ip in arrays.flow_dst_ip.tolist()]
    sport = arrays.flow_src_port.tolist()
    dport = arrays.flow_dst_port.tolist()
    rows = [TRACE_HEADER + "\n"]
    for fid, seq, length, ts in zip(
        arrays.flow_id.tolist(), arrays.seq.tolist(), arrays.payload_len.tolist(), arrays.ts.tolist()
    ):
        rows.append(f"{ts!r},{src[fid]},{dst[fid]},{sport[fid]},{dport[fid]},{seq},{length}\n")
    return "".join(rows)


def per_flow_sidecar(arrays: PacketArrays, counts: np.ndarray) -> str:
    """The reference sidecar: one f-string per flow."""
    lines = [SIDECAR_HEADER + "\n"]
    for fid in range(arrays.flow_count):
        flow = arrays.flow(fid)
        lines.append(
            f"{int_to_ip(flow.src_ip)}:{flow.src_port}>{int_to_ip(flow.dst_ip)}:{flow.dst_port},"
            f"{int(counts[fid])}\n"
        )
    return "".join(lines)


def float_texts(values) -> list[str]:
    """What the writer puts in the timestamp field for each value."""
    x = np.asarray(values, dtype=np.float64)
    return csvtext._text(csvtext._join(csvtext._float_text(x), b"\n")).split("\n")[:-1]


def _neighbours(value: float) -> list[float]:
    return [float(np.nextafter(value, -np.inf)), value, float(np.nextafter(value, np.inf))]


FLOAT_EXAMPLES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    math.nan, math.inf, -math.inf, -1.5, 0.1, 0.30000000000000004, 1e16, 123.456,
    *_neighbours(1e-4), *_neighbours(2.0**50),
    *(2.0**k for k in range(-20, 60)),
    *(v for k in range(-6, 18) for v in _neighbours(10.0**k)),
    *(k / 2 for k in range(1, 40, 2)),  # dyadic halves
    *(k / 8 for k in range(1, 40, 2)),
    # exact ties at the shortest precision: repr picks the even last digit
    221033635699240.125, 221033635699240.375, 221033635699240.625, 221033635699240.875,
]


def test_float_text_matches_repr_on_examples() -> None:
    assert float_texts(FLOAT_EXAMPLES) == [repr(v) for v in FLOAT_EXAMPLES]


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(), min_size=1, max_size=40))
def test_float_text_matches_repr(values: list[float]) -> None:
    assert float_texts(values) == [repr(v) for v in values]


@pytest.mark.parametrize("domain", ["exact", "finite"])
def test_float_text_matches_repr_on_random_bits(domain: str) -> None:
    """A million random bit patterns inside the exact domain (1e-4 <= x <
    2^50), and a million across all finite doubles."""
    rng = np.random.default_rng(20261019)
    n, chunk = 1_000_000, 250_000
    if domain == "exact":
        low, high = (int(np.float64(v).view(np.uint64)) for v in (1e-4, 2.0**50))
        bits = rng.integers(low, high, n, dtype=np.uint64)
    else:
        bits = rng.integers(0, 1 << 64, n + n // 100, dtype=np.uint64)
        bits = bits[(bits >> np.uint64(52)) & np.uint64(0x7FF) != 0x7FF][:n]
    x = bits.view(np.float64)
    assert len(x) == n
    mismatches = 0
    for start in range(0, n, chunk):
        part = x[start : start + chunk]
        mismatches += sum(a != b for a, b in zip(float_texts(part), map(repr, part.tolist())))
    assert mismatches == 0
    if domain == "exact":
        # only the ties that round-trip (about 0.8% of these, all above
        # 2^34) go to repr
        assert np.count_nonzero(~csvtext._shortest_decimal(x)[2]) < 0.01 * n


def test_generated_timestamps_take_the_exact_path() -> None:
    """Only the few timestamps below 1e-4, which repr writes with an
    exponent, are left to repr."""
    arrays, _ = generate_synthetic_arrays(SynthConfig(n_prefixes=64, seed=5, duration_seconds=10.0))
    exact = csvtext._shortest_decimal(arrays.ts)[2]
    assert exact[arrays.ts >= 1e-4].all() and exact.mean() > 0.999


@st.composite
def any_traces(draw) -> PacketArrays:
    """Traces with any finite float64 timestamps, sorted, and full-range
    fields: every trace ``PacketArrays`` builds, many of which the trace
    format cannot hold."""
    n_flows = draw(st.integers(0, 4))
    n = draw(st.integers(0, 12)) if n_flows else 0
    u32 = st.integers(0, 2**32 - 1)
    # -0.0, negative ts, 1e16 and up: what the writer refuses
    edges = st.sampled_from([-0.0, 0.0, -1.5, float(np.nextafter(1e16, 0.0)), 1e16, 1e300])

    def column(strategy, size, dtype=np.int64):
        return np.array(draw(st.lists(strategy, min_size=size, max_size=size)), dtype=dtype)

    return PacketArrays(
        ts=np.sort(column(edges | st.floats(allow_nan=False, allow_infinity=False), n, np.float64)),
        seq=column(st.sampled_from([0, 9, 10, 2**32 - 1]) | u32, n),
        payload_len=column(st.sampled_from([0, 1, 1460, 2**32 - 1]) | u32, n),
        flow_id=column(st.integers(0, max(n_flows - 1, 0)), n),
        flow_src_ip=column(st.sampled_from([0, 2**32 - 1]) | u32, n_flows),
        flow_dst_ip=column(u32, n_flows),
        flow_src_port=column(st.sampled_from([0, 80, 65535]) | st.integers(0, 65535), n_flows),
        flow_dst_port=column(st.integers(0, 65535), n_flows),
    )


def format_holds(arrays: PacketArrays) -> bool:
    """The trace format's rule, one value at a time: ts in [0, 1e16) without
    a sign and nondecreasing, seq, payload_len and addresses in [0, 2^32),
    payload_len at least 1 (the reader drops a zero-payload row), ports in
    [0, 2^16)."""
    ts = arrays.ts.tolist()
    u32 = [arrays.seq, arrays.payload_len, arrays.flow_src_ip, arrays.flow_dst_ip]
    u16 = [arrays.flow_src_port, arrays.flow_dst_port]
    return (
        all(0.0 <= t < traceio.MAX_TS and math.copysign(1.0, t) > 0 for t in ts)
        and all(a <= b for a, b in zip(ts, ts[1:]))
        and all(0 <= v < 2**32 for column in u32 for v in column.tolist())
        and all(v >= 1 for v in arrays.payload_len.tolist())
        and all(0 <= v < 2**16 for column in u16 for v in column.tolist())
    )


def held_traces():
    """``any_traces()`` brought inside the trace format: ts made
    non-negative, below 1e16 and sorted, payload_len at least 1."""

    def fit(arrays: PacketArrays) -> PacketArrays:
        ts = np.abs(arrays.ts)
        ts[ts >= traceio.MAX_TS] = 0.0
        return dataclasses.replace(
            arrays, ts=np.sort(ts), payload_len=np.maximum(arrays.payload_len, 1)
        )

    return any_traces().map(fit)


def first_row_numbering(arrays: PacketArrays) -> PacketArrays:
    """The reference numbering: ``arrays`` with its flows renumbered in the
    order of their first packet, flows with equal fields merged and flows
    without packets gone, walked one packet at a time."""
    index: dict[FlowId, int] = {}
    flow_id = [index.setdefault(arrays.flow(fid), len(index)) for fid in arrays.flow_id.tolist()]
    tables = {
        f"flow_{name}": np.array([getattr(flow, name) for flow in index], dtype=np.int64)
        for name in ("src_ip", "dst_ip", "src_port", "dst_port")
    }
    return dataclasses.replace(arrays, flow_id=np.array(flow_id, dtype=np.int64), **tables)


def test_from_records_keeps_every_flow_apart() -> None:
    """Flows at the corners of each field's range, and flows outside the
    trace format (only an in-memory trace holds them), each its own flow."""
    ips, ports = [0, 2**32 - 1], [0, 65535]
    corners = [FlowId(s, d, sp, dp) for s in ips for d in ips for sp in ports for dp in ports]
    outside = [
        FlowId(-(2**63), 2**63 - 1, -1, 2**40),
        FlowId(2**63 - 1, -(2**63), 2**40, -1),
        FlowId(-1, 0, 0, 0),
        FlowId(2**32, 0, 0, 0),
        FlowId(0, 0, 0, 2**16),
    ]
    for flows in (corners, outside):
        records = [PacketRecord(flow, 0, 1, 0.0) for flow in flows + flows[::-1]]
        arrays = PacketArrays.from_records(records)
        assert [arrays.flow(fid) for fid in range(arrays.flow_count)] == flows
        assert arrays.flow_id.tolist() == [*range(len(flows)), *reversed(range(len(flows)))]


@settings(max_examples=200, deadline=None)
@given(arrays=held_traces())
def test_from_records_numbers_flows_by_first_row(arrays: PacketArrays) -> None:
    assert format_holds(arrays)
    numbered = PacketArrays.from_records(arrays.iter_records())
    assert _columns(numbered) == _columns(first_row_numbering(arrays))


@settings(max_examples=150, deadline=None)
@given(arrays=held_traces())
def test_parse_numbers_flows_as_from_records(arrays: PacketArrays, tmp_path_factory) -> None:
    path = tmp_path_factory.getbasetemp() / "numbered.csv"
    with open(path, "w", encoding="ascii", newline="\n") as out:
        write_trace_csv(arrays, out)
    parsed, _ = parse_trace(path)
    assert _columns(parsed) == _columns(PacketArrays.from_records(arrays.iter_records()))


@pytest.mark.parametrize("block_rows", [csvtext._WRITE_ROWS, 1, 3])
@settings(max_examples=150, deadline=None)
@given(arrays=any_traces())
def test_write_trace_csv_matches_per_row_writer(arrays: PacketArrays, block_rows: int) -> None:
    buf = io.StringIO()
    with mock.patch.object(csvtext, "_WRITE_ROWS", block_rows):
        # the rows hold any float as repr writes it; the writer refuses the
        # traces that the format cannot hold
        rows = "".join(csvtext.trace_rows(arrays))
        if format_holds(arrays):
            write_trace_csv(arrays, buf)
            assert buf.getvalue() == TRACE_HEADER + "\n" + rows
        else:
            with pytest.raises(ValueError):
                write_trace_csv(arrays, buf)
            assert buf.getvalue() == ""
    assert TRACE_HEADER + "\n" + rows == per_row_csv(arrays)


def test_write_trace_csv_empty_trace_and_negative_field() -> None:
    arrays, _ = generate_synthetic_arrays(SynthConfig(n_prefixes=4, seed=1, duration_seconds=0.1))
    for empty in (arrays.subset(np.zeros(len(arrays), dtype=bool)), PacketArrays.from_records([])):
        buf = io.StringIO()
        write_trace_csv(empty, buf)
        assert buf.getvalue() == per_row_csv(empty) == TRACE_HEADER + "\n"
    arrays.seq[3] = -1
    with pytest.raises(ValueError, match="negative"):
        write_trace_csv(arrays, io.StringIO())


def one_flow(ts: list[float]) -> PacketArrays:
    """One flow's packets at ``ts``."""
    return PacketArrays(**example_columns(ts))


def test_write_trace_csv_refuses_ts_from_1e16(tmp_path) -> None:
    # repr writes 1e16 as "1e+16", whose sign the reader refuses
    below = float(np.nextafter(1e16, 0.0))
    path = tmp_path / "trace.csv"
    with open(path, "w", encoding="ascii", newline="\n") as out:
        write_trace_csv(one_flow([0.5, below]), out)
    assert parse_trace(path)[0].ts.tolist() == [0.5, below]
    # an infinite or NaN ts is refused when the trace is built
    for ts in (1e16, 1e17, float(np.finfo(np.float64).max)):
        buf = io.StringIO()
        with pytest.raises(ValueError, match=re.escape(f"packet 2 has ts {ts!r};")):
            write_trace_csv(one_flow([0.5, below, ts, ts]), buf)
        assert buf.getvalue() == ""  # not even the header


@pytest.mark.parametrize(
    "columns,message",
    [
        # the reader refuses each of these
        ({"ts": [-0.5, 1.0]}, "packet 0 has negative ts -0.5"),
        ({"ts": [-0.0, 1.0]}, "packet 0 has negative ts -0.0"),  # written as "-0.0"
        # and this one is refused when the trace is built
        ({"ts": [2.0, 1.0]}, "packet 1 has ts 1.0, below the ts 2.0 before it"),
        ({"seq": [2**32, 1100]}, "packet 0 has seq 4294967296;"),
        ({"seq": [1000, -3]}, "packet 1 has negative seq -3"),
        ({"payload_len": [100, 2**32]}, "packet 1 has payload_len 4294967296;"),
        ({"flow_src_port": [2**16]}, "flow 0 has src_port 65536;"),
        ({"flow_dst_port": [-1]}, "flow 0 has negative dst_port -1"),
        ({"flow_dst_ip": [-1]}, "flow 0 has negative dst_ip -1"),
        # and reads this one back as 10.0.0.1
        ({"flow_src_ip": [2**32 + 0x0A000001]}, "flow 0 has src_ip 4462739457;"),
        # the first bad packet is named, and a bad packet before a bad flow
        ({"ts": [1.0, 1e16], "seq": [-1, 1100], "flow_src_port": [-1]}, "packet 0 has negative"),
        ({"seq": [1000, 2**32], "flow_dst_port": [2**16]}, "packet 1 has seq"),
        # the reader would drop a zero-payload row, named after the ts faults
        ({"payload_len": [100, 0]}, "packet 1 has payload_len 0;"),
        ({"ts": [1.0, 1e16], "payload_len": [0, 100]}, "packet 0 has payload_len 0;"),
    ],
)
def test_write_trace_csv_refuses_what_the_format_cannot_hold(
    columns: dict[str, list], message: str
) -> None:
    arrays = one_flow([0.5, 1.5])
    columns = {name: np.array(v, dtype=getattr(arrays, name).dtype) for name, v in columns.items()}
    buf = io.StringIO()
    with pytest.raises(ValueError, match=re.escape(message)):
        write_trace_csv(dataclasses.replace(arrays, **columns), buf)
    assert buf.getvalue() == ""  # not even the header


@settings(max_examples=100, deadline=None)
@given(arrays=any_traces(), data=st.data())
def test_write_sidecar_matches_per_flow_writer(arrays: PacketArrays, data) -> None:
    counts = np.array(
        data.draw(st.lists(st.integers(0, 2**40), min_size=arrays.flow_count, max_size=arrays.flow_count)),
        dtype=np.int64,
    )
    buf = io.StringIO()
    write_sidecar(arrays, counts, buf)
    assert buf.getvalue() == per_flow_sidecar(arrays, counts)


def test_generated_trace_and_sidecar_match_reference_writers() -> None:
    arrays, injected = generate_synthetic_arrays(
        SynthConfig(n_prefixes=48, seed=7, duration_seconds=2.0, bad_prefix_fraction=0.3)
    )
    buf = io.StringIO()
    write_trace_csv(arrays, buf)
    assert buf.getvalue() == per_row_csv(arrays)
    buf = io.StringIO()
    write_sidecar(arrays, injected, buf)
    assert buf.getvalue() == per_flow_sidecar(arrays, injected)


def test_generator_is_deterministic() -> None:
    cfg = SynthConfig(n_prefixes=32, seed=11, duration_seconds=1.0)
    a, inj_a = generate_synthetic_arrays(cfg)
    b, inj_b = generate_synthetic_arrays(cfg)
    assert flow_table_meta(a) == packet_meta(a)  # every generated flow has packets
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
        SynthConfig(n_prefixes=0)
    with pytest.raises(ValueError):
        SynthConfig(n_prefixes=4, bad_prefix_fraction=1.5)
    with pytest.raises(ValueError):
        SynthConfig(n_prefixes=4, good_reorder_prob=0.5, bad_reorder_prob=0.1)
    with pytest.raises(ValueError):
        SynthConfig(n_prefixes=4, displacement_max=0)
    for field, value in (
        ("n_prefixes", 2**16 + 1),
        ("duration_seconds", math.nan),
        ("duration_seconds", math.inf),
        ("duration_seconds", 0.0),
        ("duration_seconds", float(np.nextafter(traceio.MAX_DURATION_SECONDS, math.inf))),
        ("duration_seconds", 1e17),
        ("mean_flow_size", math.nan),
        ("mean_flow_size", math.inf),
        ("mean_flow_size", 1.9),
        ("flows_per_prefix_zipf_exponent", math.nan),
        ("flow_size_zipf_exponent", -math.inf),
        ("noisy_flow_fraction", 1.5),
        ("noisy_flow_fraction", -0.1),
        ("noisy_flow_fraction", math.nan),
        ("max_flows_per_prefix", 0),
    ):
        with pytest.raises(ValueError):
            dataclasses.replace(SynthConfig(n_prefixes=4), **{field: value})
    SynthConfig(
        n_prefixes=2**16, noisy_flow_fraction=1.0, flow_size_zipf_exponent=-1.0,
        duration_seconds=traceio.MAX_DURATION_SECONDS,
    )


@pytest.mark.filterwarnings("error")
def test_huge_mean_flow_size_saturates() -> None:
    for mean in (1e6, 1e300, sys.float_info.max):
        arrays, _ = generate_synthetic_arrays(
            SynthConfig(n_prefixes=4, mean_flow_size=mean, max_flows_per_prefix=2,
                        duration_seconds=0.1)
        )
        assert set(np.bincount(arrays.flow_id).tolist()) == {MAX_FLOW_SIZE}


@pytest.mark.filterwarnings("error")
def test_overflowing_zipf_exponents_are_refused() -> None:
    # the largest flow-size exponent whose weights times k still sum to a
    # finite double, and the next one down
    fits, overflows = -83.86741197512957, -83.86741197512958
    for field, value in (
        ("flow_size_zipf_exponent", -400.0),
        ("flow_size_zipf_exponent", overflows),
        ("flows_per_prefix_zipf_exponent", -400.0),
    ):
        with pytest.raises(ValueError, match=f"{field} overflows"):
            dataclasses.replace(SynthConfig(n_prefixes=4), **{field: value})
    arrays, _ = generate_synthetic_arrays(
        SynthConfig(n_prefixes=4, flow_size_zipf_exponent=fits, max_flows_per_prefix=2,
                    duration_seconds=0.1)
    )
    # such a steep law draws every raw size near the top, which scales to
    # about the mean of 48, not to the 2-packet flows of an overflow
    assert np.bincount(arrays.flow_id).min() > 2


def test_port_out_of_range_rejected() -> None:
    with pytest.raises(TraceFormatError, match="port"):
        parse_text(TRACE_HEADER + "\n0.1,10.0.0.1,10.0.1.1,70000,50000,1000,100\n")


def test_negative_fields_rejected() -> None:
    with pytest.raises(TraceFormatError, match="negative"):
        parse_text(TRACE_HEADER + "\n0.1,10.0.0.1,10.0.1.1,443,50000,-5,100\n")


# --- the fast path against the line reader ------------------------------------

_MUTATION_CHARS = "0123456789,.-eE+_ \t\r\n\xe9"

# every row of test_malformed_row_names_line, and faults that few random
# mutations make, each placed after a good row
_SEED_ROWS = (
    *NON_CANONICAL_ROWS,
    "0.2,not-an-ip,10.0.1.1,443,50000,1000,100",
    "0.1,10.0.0.1,10.0.1.1,443",
    "0.1,10.0.0.1,10.0.1.1,0,50000,0,100",
    "-0.1,10.0.0.1,10.0.1.1,443,50000,900,100",
    "-0.0,10.0.0.1,10.0.1.1,443,50000,900,100",
    "-1e-05,10.0.0.1,10.0.1.1,443,50000,900,100",
    "0.1,10.0.0.1,10.0.1.1,443,50000,1000\xe9",
    "0.1,10.0.0.1,10.0.1.1,443,50000,1000,100\xe9",
    "0.05,10.0.0.1,10.0.1.1,443,50000,1100,100",
    "0.2 ,10.0.0.1,10.0.1.1,443,50000,1000,100",
    "+0.2,10.0.0.1,10.0.1.1,443,50000,1000,100",
    "0.2,10.0.0.1,10.0.1.1,443,50000,1e3,100",
    "0.2,10.0.0.1,10.0.1.1,443,5e4,1000,100",
    "0.2,100.100.100.1001,10.0.1.1,443,50000,1000,100",
    "0.2,1e.0.0.1,10.0.1.1,443,50000,1000,100",
    ",10.0.0.1,10.0.1.1,443,50000,1000,100",
    # eight fields, then six: seven on average
    "0.2,10.0.0.1,10.0.1.1,443,50000,1000,100,7\n0.3,10.0.0.1,10.0.1.1,443,50000,1000",
    "0.2,10.0.0.1,10.0.1.1,443,50000,1000\n0.3,10.0.0.1,10.0.1.1,443,50000,1000,100,7",
)


def _seed_text(row: str) -> str:
    good = "0.1,10.0.0.1,10.0.1.1,443,50000,900,100"
    return f"{TRACE_HEADER}\n{good}\n{row}\n"


@st.composite
def canonical_traces(draw) -> str:
    """The rows ``write_trace_csv`` writes for a small random trace,
    zero-payload rows included, and also for ts from 1e16 on, which the
    writer refuses and the reader must refuse as well."""
    n_flows = draw(st.integers(1, 4))
    flows = [
        (
            draw(st.integers(0, 2**32 - 1)),
            draw(st.integers(0, 2**32 - 1)),
            draw(st.sampled_from([0, 80, 443, 65535]) | st.integers(0, 65535)),
            draw(st.integers(0, 65535)),
        )
        for _ in range(n_flows)
    ]
    n = draw(st.integers(0, 10))
    ts = draw(st.sampled_from([0.0, 1e-07, 0.25, 3.0, 1e15, 1e16]))  # 1e+16 has a sign
    rows = []
    for _ in range(n):
        ts += draw(st.sampled_from([0.0, 1e-06, 2e-4, 0.1, 1.5]))
        rows.append(
            (
                ts,
                draw(st.integers(0, n_flows - 1)),
                draw(st.integers(0, 2**32 - 1)),
                draw(st.sampled_from([0, 1, 1460, 2**32 - 1]) | st.integers(0, 2**32 - 1)),
            )
        )
    arrays = PacketArrays(
        ts=np.array([r[0] for r in rows], dtype=np.float64),
        seq=np.array([r[2] for r in rows], dtype=np.int64),
        payload_len=np.array([r[3] for r in rows], dtype=np.int64),
        flow_id=np.array([r[1] for r in rows], dtype=np.int64),
        flow_src_ip=np.array([f[0] for f in flows], dtype=np.int64),
        flow_dst_ip=np.array([f[1] for f in flows], dtype=np.int64),
        flow_src_port=np.array([f[2] for f in flows], dtype=np.int64),
        flow_dst_port=np.array([f[3] for f in flows], dtype=np.int64),
    )
    return TRACE_HEADER + "\n" + "".join(csvtext.trace_rows(arrays))


@st.composite
def mutated_traces(draw) -> str:
    text = draw(canonical_traces())
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from(_MUTATION_CHARS))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        tail = text[pos:] if op == "insert" else text[pos + 1 :]
        text = text[:pos] + ("" if op == "delete" else char) + tail
    return text


def _columns(arrays: PacketArrays) -> dict:
    """Each column's dtype and bytes."""
    columns = {f.name: getattr(arrays, f.name) for f in dataclasses.fields(arrays)}
    return {name: (column.dtype, column.tobytes()) for name, column in columns.items()}


def _outcome(parse):
    """Every column with its dtype, and the meta, or the error text."""
    try:
        arrays, meta = parse()
    except TraceFormatError as exc:
        return str(exc)
    assert meta == packet_meta(arrays)
    return _columns(arrays), meta


def _reference(handle):
    """The line reader alone, as parse_trace read every trace before."""
    arrays = traceio._parse_lines(handle)
    return arrays, packet_meta(arrays)


def _check_against_reference(text: str, path) -> None:
    """parse_trace of ``text`` in a file gives what the line reader gives,
    with the default block size and with blocks of one row."""
    write_text(path, text)
    with open(path, encoding="ascii", errors="surrogateescape") as handle:
        expected = _outcome(lambda: _reference(handle))
    for block_bytes in (traceio._BLOCK_BYTES, 1):
        with mock.patch.object(traceio, "_BLOCK_BYTES", block_bytes):
            assert _outcome(lambda: parse_trace(path)) == expected


def _seeded(test):
    for row in _SEED_ROWS:
        test = example(text=_seed_text(row))(test)
    return test


@settings(max_examples=600, deadline=None)
@given(text=mutated_traces())
@_seeded
def test_parse_matches_line_reader(text: str, tmp_path_factory) -> None:
    _check_against_reference(text, tmp_path_factory.getbasetemp() / "mutated.csv")


def _refuse_line_reader(handle):
    raise AssertionError("the line reader ran")


def _expect_fast(data: bytes, tmp_path) -> PacketArrays:
    """Parse ``data`` from a file, first with the line reader alone, then
    with the line reader refused; both must agree."""
    path = tmp_path / "trace.csv"
    path.write_bytes(data)
    expected = _reference(io.StringIO(data.decode("ascii")))
    with mock.patch.object(traceio, "_read_rows", _refuse_line_reader):
        arrays, meta = parse_trace(path)
    assert _columns(arrays) == _columns(expected[0])
    assert meta == expected[1] == packet_meta(arrays)
    return arrays


@pytest.mark.parametrize("block_bytes", [traceio._BLOCK_BYTES, 4096])
def test_fast_path_is_taken_on_generated_traces(tmp_path, monkeypatch, block_bytes) -> None:
    monkeypatch.setattr(traceio, "_BLOCK_BYTES", block_bytes)
    arrays, _ = generate_synthetic_arrays(SynthConfig(n_prefixes=64, seed=5, duration_seconds=1.0))
    arrays.payload_len[::7] = 0  # zero-payload rows are read, then dropped
    # the writer refuses a zero payload, so the rows are written without it
    text = TRACE_HEADER + "\n" + "".join(csvtext.trace_rows(arrays))
    parsed = _expect_fast(text.encode("ascii"), tmp_path)
    assert len(parsed) == int(np.count_nonzero(arrays.payload_len)) > 1000


def test_fast_path_header_only(tmp_path) -> None:
    arrays = _expect_fast(f"{TRACE_HEADER}\n".encode(), tmp_path)
    assert len(arrays) == 0 and arrays.flow_count == 0


def test_fast_path_last_row_without_line_end(tmp_path) -> None:
    rows = "0.1,10.0.0.1,10.0.1.1,443,50000,1000,100\n0.2,10.0.0.2,10.0.1.1,80,50001,7,1"
    arrays = _expect_fast(f"{TRACE_HEADER}\n{rows}".encode(), tmp_path)
    assert arrays.payload_len.tolist() == [100, 1]


def test_fast_path_flow_with_only_zero_payload_gets_no_id(tmp_path) -> None:
    rows = (
        "0.1,10.0.7.9,10.0.1.1,443,50000,1000,0\n"  # a flow (and prefix) with no kept row
        "0.2,10.0.0.1,10.0.1.1,443,50000,1000,100\n"
        "0.3,10.0.7.9,10.0.1.1,443,50000,1000,0\n"
        "0.4,10.0.0.2,10.0.1.1,443,50000,1000,100\n"
        "0.5,10.0.0.1,10.0.1.1,443,50000,1100,100\n"
    )
    arrays = _expect_fast(f"{TRACE_HEADER}\n{rows}".encode(), tmp_path)
    assert arrays.flow_id.tolist() == [0, 1, 0]
    assert arrays.flow_src_ip.tolist() == [0x0A000001, 0x0A000002]
    meta = packet_meta(arrays)
    assert (meta.flow_count, meta.prefix_count) == (2, 1)


def test_crlf_file_reads_as_lf(tmp_path) -> None:
    rows = ["0.1,10.0.0.1,10.0.1.1,443,50000,1000,100", "0.2,10.0.0.1,10.0.1.1,443,50000,1100,5"]
    lf = "\n".join([TRACE_HEADER, *rows]) + "\n"
    crlf = lf.replace("\n", "\r\n")
    assert _columns(parse_text(crlf)[0]) == _columns(parse_text(lf)[0])
    _check_against_reference(crlf, tmp_path / "check.csv")


def test_blank_line_is_skipped(tmp_path) -> None:
    rows = ["0.1,10.0.0.1,10.0.1.1,443,50000,1000,100", "0.2,10.0.0.1,10.0.1.1,443,50000,1100,5"]
    text = f"{TRACE_HEADER}\n{rows[0]}\n\n{rows[1]}\n"
    _check_against_reference(text, tmp_path / "blank.csv")
    assert _columns(parse_text(text)[0]) == _columns(parse_text(text.replace("\n\n", "\n"))[0])


# --- the address decoder against ip_to_int ------------------------------------

@st.composite
def address_fields(draw) -> str:
    """Fields of the fast path's address bytes, 1 to 16 of them: quads,
    half of them damaged once (a leading zero, 256, an empty or a long
    octet, 3 or 5 octets, a trailing dot), or any digits and dots."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text("0123456789.", min_size=1, max_size=16))
    octets = [str(draw(st.integers(0, 255))) for _ in range(4)]
    i = draw(st.integers(0, 3))
    damage = draw(st.sampled_from(["none", "none", "none", "octet", "drop", "extra", "tail"]))
    if damage == "octet":
        bad = st.sampled_from(["256", "999", "1000", "00", "01", "010", "0255", ""])
        octets[i] = draw(bad | st.text("0123456789", max_size=4))
    elif damage == "drop":
        del octets[i]
    elif damage == "extra":
        octets.insert(i, str(draw(st.integers(0, 255))))
    field = ".".join(octets) + ("." if damage == "tail" else "")
    assume(len(field) <= 16)
    return field


def decode_addresses(fields: list[str]):
    """``traceio._addresses`` of ``fields``, laid out as in a block: each
    field followed by a comma, the whole padded."""
    text = np.frombuffer(("".join(f + "," for f in fields)).encode("ascii"), dtype=np.uint8)
    buf = np.zeros(len(text) + 2 * traceio._PAD, dtype=np.uint8)
    buf[traceio._PAD : traceio._PAD + len(text)] = text
    stop = traceio._PAD + np.flatnonzero(text == ord(","))
    first = np.r_[traceio._PAD, stop[:-1] + 1]
    values = traceio._addresses(buf, first, stop)
    return None if values is None else values.tolist()


def reference_address(field: str):
    try:
        return ip_to_int(field)
    except ValueError:
        return None


@settings(max_examples=600, deadline=None)
@given(fields=st.lists(address_fields(), min_size=1, max_size=4))
@example(fields=["0.0.0.0", "255.255.255.255", "172.16.0.1", "1.22.133.4"])
@example(fields=["10.0.0.010", "01.2.3.4", "1.2.3.256", "1..2.3", "1.2.3", "1.2.3.4.5"])
@example(fields=["1.2.3.4.", ".1.2.3", "1000.1.1.1", "100.100.100.1001", "0255.1.1.1"])
def test_address_decoder_reads_what_ip_to_int_reads(fields: list[str]) -> None:
    expected = [reference_address(field) for field in fields]
    for field, value in zip(fields, expected):
        assert decode_addresses([field]) == (None if value is None else [value])
    # a block decodes or not as a whole, each row to its own value
    assert decode_addresses(fields) == (None if None in expected else expected)


def test_canonical_parse_calls_no_ip_to_int(tmp_path, monkeypatch) -> None:
    arrays, _ = generate_synthetic_arrays(SynthConfig(n_prefixes=64, seed=5, duration_seconds=1.0))
    path = tmp_path / "trace.csv"
    with open(path, "w", encoding="ascii", newline="\n") as out:
        write_trace_csv(arrays, out)

    def refuse(dotted: str) -> int:
        raise AssertionError(f"ip_to_int({dotted!r}) was called")

    monkeypatch.setattr(traceio, "ip_to_int", refuse)
    parsed, _ = parse_trace(path)
    assert len(parsed) == len(arrays) > 1000
