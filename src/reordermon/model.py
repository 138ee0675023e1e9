"""Core packet/flow/prefix types and the out-of-order predicate.

All detectors and the ground-truth tracker share these definitions, so the
notion of "out of order" is decided in exactly one place.  Sequence numbers
are compared as plain unsigned integers; TCP sequence rollover is a
documented non-goal.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional


class ReorderDef(Enum):
    """The three ways a packet can count as out of order.

    DEF1_DECREASE: sequence number lower than its predecessor's.
    DEF2_GAP:      sequence number past the one expected from its predecessor.
    DEF3_BELOW_MAX: sequence number below the flow's running maximum.
                    Only the offline tracker supports this one; the online
                    detectors reject it at construction.
    """

    DEF1_DECREASE = 1
    DEF2_GAP = 2
    DEF3_BELOW_MAX = 3


#: Detectors process packet pairs only, so they handle exactly these two.
DETECTOR_DEFS = (ReorderDef.DEF1_DECREASE, ReorderDef.DEF2_GAP)

#: The detector definitions by the number the CLI and result files use.
DEF_BY_NUMBER = {1: ReorderDef.DEF1_DECREASE, 2: ReorderDef.DEF2_GAP}

PREFIX_MASK = 0xFFFF_FF00  # top 24 bits of a 32-bit source address


@dataclass(frozen=True, slots=True)
class FlowId:
    """A TCP flow: (src ip, dst ip, src port, dst port), all integers."""

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int


@dataclass(frozen=True, slots=True)
class Prefix:
    """A 24-bit source prefix; ``bits`` has the low 8 address bits cleared."""

    bits: int

    def dotted(self) -> str:
        return f"{int_to_ip(self.bits)}/24"


@dataclass(slots=True)
class PacketRecord:
    """One TCP data packet.  ``payload_len`` is at least 1 after ingestion
    filtering; ``ts`` is fractional seconds relative to the trace start."""

    flow: FlowId
    seq: int
    payload_len: int
    ts: float


@dataclass(slots=True)
class SeqState:
    """Per-flow sequence state after the most recent packet.

    ``max_seq`` is maintained only where DEF3 is needed (the offline
    tracker); detectors leave it as None.
    """

    last_seq: int
    expected_next: int
    max_seq: Optional[int] = None


def ip_to_int(dotted: str) -> int:
    parts = dotted.split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted-quad address: {dotted!r}")
    value = 0
    for part in parts:
        if len(part) > 1 and part[0] == "0":
            raise ValueError(f"octet with a leading zero in {dotted!r}")
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"octet out of range in {dotted!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def prefix_of(flow: FlowId) -> Prefix:
    """The 24-bit source prefix a flow belongs to."""
    return Prefix(flow.src_ip & PREFIX_MASK)


def initial_state(pkt: PacketRecord, track_max: bool = False) -> SeqState:
    """Sequence state right after observing ``pkt`` as the flow's first packet."""
    return SeqState(
        last_seq=pkt.seq,
        expected_next=pkt.seq + pkt.payload_len,
        max_seq=pkt.seq if track_max else None,
    )


def advance_state(state: SeqState, pkt: PacketRecord) -> None:
    """Update ``state`` in place to reflect ``pkt`` as the newest packet."""
    state.last_seq = pkt.seq
    state.expected_next = pkt.seq + pkt.payload_len
    if state.max_seq is not None and pkt.seq > state.max_seq:
        state.max_seq = pkt.seq


def is_out_of_order(state: SeqState, pkt: PacketRecord, def_: ReorderDef) -> bool:
    """Whether ``pkt`` is out of order given the state of its predecessor.

    Pure function; ``state`` must reflect the immediately preceding packet
    of the same flow (and, for DEF3, the maximum over all prior packets).
    """
    if def_ is ReorderDef.DEF1_DECREASE:
        return pkt.seq < state.last_seq
    if def_ is ReorderDef.DEF2_GAP:
        return pkt.seq > state.expected_next
    if def_ is ReorderDef.DEF3_BELOW_MAX:
        if state.max_seq is None:
            raise ValueError("DEF3 requires max_seq to be tracked in SeqState")
        return pkt.seq < state.max_seq
    raise ValueError(f"unknown reorder definition: {def_!r}")
