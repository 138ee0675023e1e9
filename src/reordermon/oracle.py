"""Exhaustive per-flow ground truth and the traffic-characterization analyses.

This is the memory-unconstrained baseline: one state record per flow, exact
out-of-order counts under all three definitions at once.  It exists to
produce ground truth and workload characterizations for the detectors, not
to be a detector itself.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import FlowId, Prefix, PREFIX_MASK, ReorderDef
from .traceio import PacketArrays


class UndefinedCorrelationError(ValueError):
    """Raised when the correlation coefficient has a zero-variance input."""


@dataclass(slots=True)
class FlowStats:
    flow: FlowId
    n: int
    ooo: dict[ReorderDef, int]


@dataclass(slots=True)
class PrefixStats:
    prefix: Prefix
    n: int
    ooo: dict[ReorderDef, int]
    flow_count: int


@dataclass
class TraceStats:
    flows: dict[FlowId, FlowStats]
    prefixes: dict[Prefix, PrefixStats]
    packet_count: int


@dataclass(frozen=True)
class GroundTruth:
    """Prefixes that must be reported and prefixes too small to report."""

    heavy_set: frozenset[Prefix]
    small_exempt_set: frozenset[Prefix]


_DEF1 = ReorderDef.DEF1_DECREASE
_DEF2 = ReorderDef.DEF2_GAP
_DEF3 = ReorderDef.DEF3_BELOW_MAX


def compute_stats(arrays: PacketArrays) -> TraceStats:
    """One pass over the trace's columns, exact counters for DEF1/DEF2/DEF3."""
    # state per flow id: [n, o1, o2, o3, last_seq, expected_next, max_seq]
    state: dict[int, list[int]] = {}
    for fid, seq, length in zip(
        arrays.flow_id.tolist(), arrays.seq.tolist(), arrays.payload_len.tolist()
    ):
        st = state.get(fid)
        if st is None:
            state[fid] = [1, 0, 0, 0, seq, seq + length, seq]
            continue
        if seq < st[4]:
            st[1] += 1
        if seq > st[5]:
            st[2] += 1
        if seq < st[6]:
            st[3] += 1
        elif seq > st[6]:
            st[6] = seq
        st[0] += 1
        st[4] = seq
        st[5] = seq + length

    flows: dict[FlowId, FlowStats] = {}
    for fid, st in state.items():
        flow = arrays.flow(fid)
        flows[flow] = FlowStats(flow, st[0], {_DEF1: st[1], _DEF2: st[2], _DEF3: st[3]})

    prefixes: dict[Prefix, PrefixStats] = {}
    for flow, fs in flows.items():
        prefix = Prefix(flow.src_ip & PREFIX_MASK)
        ps = prefixes.get(prefix)
        if ps is None:
            prefixes[prefix] = PrefixStats(prefix, fs.n, dict(fs.ooo), 1)
        else:
            ps.n += fs.n
            ps.flow_count += 1
            for d in (_DEF1, _DEF2, _DEF3):
                ps.ooo[d] += fs.ooo[d]
    return TraceStats(flows, prefixes, len(arrays))


def ground_truth(
    stats: TraceStats, eps: float, alpha: int, beta: int, def_: ReorderDef
) -> GroundTruth:
    """Prefixes with at least ``beta`` packets and more than an ``eps``
    fraction out of order, plus the at-most-``alpha``-packets exemption set."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if alpha >= beta:
        raise ValueError("alpha must be smaller than beta")
    heavy = frozenset(
        ps.prefix
        for ps in stats.prefixes.values()
        if ps.n >= beta and ps.ooo[def_] > eps * ps.n
    )
    small = frozenset(ps.prefix for ps in stats.prefixes.values() if ps.n <= alpha)
    return GroundTruth(heavy, small)


def eligible_flows(stats: TraceStats) -> list[FlowStats]:
    """Flows whose prefix has at least two flows (the correlation sample space)."""
    return [
        fs
        for fs in stats.flows.values()
        if stats.prefixes[Prefix(fs.flow.src_ip & PREFIX_MASK)].flow_count >= 2
    ]


def pearson_correlation(
    stats: TraceStats,
    n_samples: int,
    def_: ReorderDef,
    rng: np.random.Generator,
) -> float:
    """Correlation between a sampled flow's out-of-order fraction and that
    of the rest of its prefix.

    Draws ``n_samples`` flows i.i.d. uniformly from the eligible ones, sets
    x = O_f/N_f and y = (O_g-O_f)/(N_g-N_f), and returns their sample
    correlation coefficient.  Raises ``UndefinedCorrelationError`` when
    either side has zero variance.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    pool = eligible_flows(stats)
    if not pool:
        raise UndefinedCorrelationError("no prefix has two or more flows")
    picks = rng.integers(0, len(pool), n_samples)
    xs = np.empty(n_samples)
    ys = np.empty(n_samples)
    for i, idx in enumerate(picks.tolist()):
        fs = pool[idx]
        ps = stats.prefixes[Prefix(fs.flow.src_ip & PREFIX_MASK)]
        xs[i] = fs.ooo[def_] / fs.n
        ys[i] = (ps.ooo[def_] - fs.ooo[def_]) / (ps.n - fs.n)
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    denom = math.sqrt(float(np.dot(dx, dx))) * math.sqrt(float(np.dot(dy, dy)))
    if denom == 0.0:
        raise UndefinedCorrelationError("zero variance in sampled fractions")
    # rounding can push a perfectly linear sample a hair past 1
    return min(1.0, max(-1.0, float(np.dot(dx, dy) / denom)))


@dataclass(frozen=True)
class PccSummary:
    mean_r: float
    repetitions: int
    undefined_repetitions: int
    n_samples: int


def mean_pearson_correlation(
    stats: TraceStats,
    def_: ReorderDef,
    repetitions: int = 100,
    sample_fraction: float = 0.005,
    seed: int = 0,
) -> PccSummary:
    """Average correlation over repeated tests, each drawing a fresh sample
    of ``sample_fraction`` of the eligible flows (at least 2)."""
    pool_size = len(eligible_flows(stats))
    n_samples = max(2, round(sample_fraction * pool_size))
    rng = np.random.default_rng(seed)
    values = []
    undefined = 0
    for _ in range(repetitions):
        try:
            values.append(pearson_correlation(stats, n_samples, def_, rng))
        except UndefinedCorrelationError:
            undefined += 1
    if not values:
        raise UndefinedCorrelationError("every repetition had zero variance")
    return PccSummary(float(np.mean(values)), len(values), undefined, n_samples)


@dataclass
class GapDistribution:
    counts: dict[int, int] = field(default_factory=dict)
    total_gap: float = 0.0
    packets: int = 0

    def add(self, gap: float) -> None:
        bin_ = int(math.floor(math.log2(max(gap, 1e-9))))
        self.counts[bin_] = self.counts.get(bin_, 0) + 1
        self.total_gap += gap
        self.packets += 1

    @property
    def mean_gap(self) -> float:
        return self.total_gap / self.packets if self.packets else math.nan


@dataclass
class InterarrivalHistogram:
    """Same-flow inter-arrival gaps in log2 bins, split by packet class."""

    in_order: GapDistribution
    def1_ooo: GapDistribution
    def2_ooo: GapDistribution


def interarrival_histogram(arrays: PacketArrays) -> InterarrivalHistogram:
    """Classify every non-first packet by its reorder outcome and bin the
    gap to its same-flow predecessor.  DEF1 and DEF2 are mutually exclusive
    per packet pair, so the three distributions partition the packets."""
    hist = InterarrivalHistogram(GapDistribution(), GapDistribution(), GapDistribution())
    state: dict = {}  # flow id -> [last_seq, expected_next, last_ts]
    for fid, seq, length, ts in zip(
        arrays.flow_id.tolist(),
        arrays.seq.tolist(),
        arrays.payload_len.tolist(),
        arrays.ts.tolist(),
    ):
        st = state.get(fid)
        if st is not None:
            gap = ts - st[2]
            if seq < st[0]:
                hist.def1_ooo.add(gap)
            elif seq > st[1]:
                hist.def2_ooo.add(gap)
            else:
                hist.in_order.add(gap)
            st[0] = seq
            st[1] = seq + length
            st[2] = ts
        else:
            state[fid] = [seq, seq + length, ts]
    return hist


@dataclass
class PrefixBreakdown:
    """Per-prefix flow-size distribution and where the reordering lives.

    ``ooo_fraction_by_bin`` is None for prefixes with no out-of-order
    packets (the fraction is undefined there)."""

    prefix: Prefix
    flow_count_by_bin: dict[int, int]
    ooo_fraction_by_bin: dict[int, float] | None


DEFAULT_SIZE_BINS = tuple(2**k for k in range(0, 21))


def flow_size_reorder_breakdown(
    stats: TraceStats,
    def_: ReorderDef,
    size_bins: Sequence[int] = DEFAULT_SIZE_BINS,
) -> dict[Prefix, PrefixBreakdown]:
    """For each prefix: how many flows fall in each size bin, and what
    fraction of the prefix's out-of-order packets those flows contribute.

    ``size_bins`` are inclusive upper bounds; sizes above the last bound go
    to an overflow bin with index ``len(size_bins)``."""
    edges = list(size_bins)
    if edges != sorted(edges):
        raise ValueError("size_bins must be sorted ascending")
    per_prefix_counts: dict[Prefix, dict[int, int]] = {}
    per_prefix_ooo: dict[Prefix, dict[int, int]] = {}
    for fs in stats.flows.values():
        prefix = Prefix(fs.flow.src_ip & PREFIX_MASK)
        bin_ = bisect_left(edges, fs.n)
        counts = per_prefix_counts.setdefault(prefix, {})
        counts[bin_] = counts.get(bin_, 0) + 1
        ooo = per_prefix_ooo.setdefault(prefix, {})
        ooo[bin_] = ooo.get(bin_, 0) + fs.ooo[def_]
    out: dict[Prefix, PrefixBreakdown] = {}
    for prefix, counts in per_prefix_counts.items():
        o_g = stats.prefixes[prefix].ooo[def_]
        fractions = None
        if o_g > 0:
            fractions = {b: c / o_g for b, c in per_prefix_ooo[prefix].items()}
        out[prefix] = PrefixBreakdown(prefix, counts, fractions)
    return out
