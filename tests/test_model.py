from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from reordermon.model import (
    FlowId,
    PacketRecord,
    Prefix,
    ReorderDef,
    SeqState,
    advance_state,
    initial_state,
    int_to_ip,
    ip_to_int,
    is_out_of_order,
    prefix_of,
)

DEF1 = ReorderDef.DEF1_DECREASE
DEF2 = ReorderDef.DEF2_GAP
DEF3 = ReorderDef.DEF3_BELOW_MAX


def flow_with_src(src: str) -> FlowId:
    return FlowId(ip_to_int(src), ip_to_int("172.16.0.1"), 443, 50000)


def packet(seq: int, payload: int = 100, ts: float = 0.0) -> PacketRecord:
    return PacketRecord(flow_with_src("10.0.0.1"), seq, payload, ts)


@pytest.mark.parametrize(
    "src,expected",
    [
        ("10.1.2.3", "10.1.2.0/24"),
        ("10.1.2.0", "10.1.2.0/24"),
        ("255.255.255.255", "255.255.255.0/24"),
    ],
)
def test_prefix_of_masks_low_byte(src: str, expected: str) -> None:
    assert prefix_of(flow_with_src(src)).dotted() == expected


def test_prefix_of_idempotent_on_aligned_address() -> None:
    aligned = prefix_of(flow_with_src("10.1.2.0"))
    assert aligned.bits == ip_to_int("10.1.2.0")
    assert prefix_of(flow_with_src("10.1.2.99")) == aligned


def test_ip_round_trip() -> None:
    for dotted in ("0.0.0.0", "10.1.2.3", "255.255.255.255", "192.168.0.1"):
        assert int_to_ip(ip_to_int(dotted)) == dotted
    with pytest.raises(ValueError):
        ip_to_int("10.0.0")
    with pytest.raises(ValueError):
        ip_to_int("10.0.0.300")


def test_def1_decrease() -> None:
    state = SeqState(last_seq=1000, expected_next=1100)
    assert is_out_of_order(state, packet(900), DEF1)
    assert not is_out_of_order(state, packet(1000), DEF1)


def test_def2_gap_exact_expected_is_in_order() -> None:
    state = SeqState(last_seq=1000, expected_next=1100)
    assert not is_out_of_order(state, packet(1100), DEF2)
    assert is_out_of_order(state, packet(1200), DEF2)


def test_def3_is_offline_only() -> None:
    state = SeqState(last_seq=1000, expected_next=1100)
    with pytest.raises(ValueError, match="offline"):
        is_out_of_order(state, packet(900), DEF3)


def test_initial_and_advance_state() -> None:
    first = packet(1000, payload=50)
    state = initial_state(first)
    assert state.last_seq == 1000 and state.expected_next == 1050
    advance_state(state, packet(1050, payload=10))
    assert state.last_seq == 1050 and state.expected_next == 1060
    advance_state(state, packet(900, payload=10))
    assert state.last_seq == 900 and state.expected_next == 910


@given(start=st.integers(0, 1 << 20), payloads=st.lists(st.integers(1, 1500), min_size=2, max_size=40))
def test_perfectly_in_order_stream_has_no_events(start: int, payloads: list[int]) -> None:
    seq = start
    state = initial_state(packet(seq, payloads[0]))
    seq += payloads[0]
    for payload in payloads[1:]:
        pkt = packet(seq, payload)
        assert not is_out_of_order(state, pkt, DEF1)
        assert not is_out_of_order(state, pkt, DEF2)
        advance_state(state, pkt)
        seq += payload


def test_flow_equality_is_field_wise() -> None:
    a = FlowId(1, 2, 3, 4)
    assert a == FlowId(1, 2, 3, 4)
    assert a != FlowId(1, 2, 3, 5)
    assert Prefix(0x0A000100) == Prefix(0x0A000100)
