from __future__ import annotations

import random

from reordermon.model import FlowId, PacketRecord, Prefix
from reordermon.oracle import TraceStats
from reordermon.traceio import PacketArrays


def make_flow(i: int, prefix: int = 0x0A000000) -> FlowId:
    """Distinct flows; flows with the same ``prefix`` share the /24."""
    return FlowId(prefix | (i % 200 + 1), 0xAC100001, 443, 10000 + i)


def random_trace(
    seed: int,
    n_packets: int = 400,
    n_flows: int = 8,
    n_prefixes: int = 3,
    seq_range: int = 2000,
    burstiness: float = 0.6,
) -> list[PacketRecord]:
    """Small adversarial traces: few flows, colliding prefixes, short random
    sequence numbers (plenty of reordering), bursty-or-not arrivals."""
    rng = random.Random(seed)
    prefixes = [0x0A000000 + (p << 8) for p in range(n_prefixes)]
    flows = [make_flow(i, prefixes[i % n_prefixes]) for i in range(n_flows)]
    records = []
    ts = 0.0
    current = rng.randrange(n_flows)
    for _ in range(n_packets):
        if rng.random() > burstiness:
            current = rng.randrange(n_flows)
        ts += rng.choice([0.0, 1e-6, 5e-6, 2e-4, 5e-3])
        records.append(
            PacketRecord(
                flow=flows[current],
                seq=rng.randrange(seq_range),
                payload_len=rng.randrange(1, 1500),
                ts=ts,
            )
        )
    return records


def stats_tables(
    stats: TraceStats, arrays: PacketArrays
) -> tuple[dict[FlowId, tuple[int, ...]], dict[Prefix, tuple[int, ...]]]:
    """``stats`` as ``{flow: (n, o1, o2, o3)}`` in flow-row order and
    ``{prefix: (n, flows, o1, o2, o3)}`` in prefix-row order."""
    flows = {
        arrays.flow(fid): (n, *ooo)
        for fid, n, ooo in zip(
            stats.flow_id.tolist(), stats.flow_n.tolist(), stats.flow_ooo.tolist()
        )
    }
    prefixes = {
        Prefix(bits): (n, count, *ooo)
        for bits, n, count, ooo in zip(
            stats.prefix_bits.tolist(),
            stats.prefix_n.tolist(),
            stats.prefix_flows.tolist(),
            stats.prefix_ooo.tolist(),
        )
    }
    return flows, prefixes
