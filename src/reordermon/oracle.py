"""Exhaustive per-flow ground truth and the traffic-characterization analyses.

This is the memory-unconstrained baseline: one row of counters per flow, exact
out-of-order counts under all three definitions at once.  It exists to
produce ground truth and workload characterizations for the detectors, not
to be a detector itself.  Each analysis returns what its callers read: the
ground truth is a set of prefixes, the inter-arrival histogram is bin counts
per packet class, and the flow-size breakdown is four aligned columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import Prefix, ReorderDef
from .traceio import PacketArrays, flow_steps


class UndefinedCorrelationError(ValueError):
    """Raised when the correlation coefficient has a zero-variance input."""


@dataclass(frozen=True, eq=False)
class TraceStats:
    """Exact per-flow and per-prefix counters, one array per column.

    Flow rows are in the order of each flow's first packet in the trace;
    prefix rows are in ascending ``bits``.  ``flow_ooo`` and ``prefix_ooo``
    hold one column per definition, at ``def_.value - 1``."""

    flow_id: np.ndarray  # the PacketArrays flow id
    flow_n: np.ndarray
    flow_ooo: np.ndarray  # flows x 3
    flow_prefix: np.ndarray  # row of the flow's prefix
    prefix_bits: np.ndarray
    prefix_n: np.ndarray
    prefix_ooo: np.ndarray  # prefixes x 3
    prefix_flows: np.ndarray
    packet_count: int


def compute_stats(arrays: PacketArrays) -> TraceStats:
    """Exact counters for DEF1/DEF2/DEF3 from one stable sort by flow.

    DEF1 and DEF2 come from ``flow_steps``; DEF3 compares each packet with
    the running maximum of its flow's earlier seqs.  Flows without packets
    have no row."""
    if len(arrays) == 0:
        none = np.zeros(0, dtype=np.int64)
        table = np.zeros((0, 3), dtype=np.int64)
        return TraceStats(none, none, table, none, none, none, table, none, 0)
    order, step = flow_steps(arrays)
    fid = arrays.flow_id[order]
    seq = arrays.seq[order]
    first = step < 0
    # segmented running maximum: each flow's keys lie above every earlier
    # flow's, so one cumulative maximum restarts at each flow
    low = int(seq.min())
    span = int(seq.max()) - low + 1
    rank = np.cumsum(first) - 1
    if span * (int(rank[-1]) + 1) >= 1 << 63:
        raise ValueError("seq values span too wide a range")
    keys = rank * span + (seq - low)
    below_max = np.zeros(len(order), dtype=bool)
    below_max[1:] = keys[1:] < np.maximum.accumulate(keys)[:-1]

    n_ids = arrays.flow_count
    # the flows that have packets, in the order of their first packet
    starts = np.flatnonzero(first)
    present = fid[starts][np.argsort(order[starts])]
    flow_n = np.bincount(fid, minlength=n_ids)[present]
    flow_ooo = np.stack(
        [
            np.bincount(fid[outcome], minlength=n_ids)[present]
            for outcome in (step == 1, step == 2, below_max)
        ],
        axis=1,
    )

    prefix_bits, flow_prefix = np.unique(
        arrays.flow_prefix_bits[present], return_inverse=True
    )
    prefix_n = np.zeros(len(prefix_bits), dtype=np.int64)
    np.add.at(prefix_n, flow_prefix, flow_n)
    prefix_ooo = np.zeros((len(prefix_bits), 3), dtype=np.int64)
    np.add.at(prefix_ooo, flow_prefix, flow_ooo)
    return TraceStats(
        flow_id=present,
        flow_n=flow_n,
        flow_ooo=flow_ooo,
        flow_prefix=flow_prefix,
        prefix_bits=prefix_bits,
        prefix_n=prefix_n,
        prefix_ooo=prefix_ooo,
        prefix_flows=np.bincount(flow_prefix, minlength=len(prefix_bits)),
        packet_count=len(arrays),
    )


def ground_truth(stats: TraceStats, eps: float, beta: int, def_: ReorderDef) -> frozenset[Prefix]:
    """Prefixes with at least ``beta`` packets and more than an ``eps``
    fraction out of order."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    n = stats.prefix_n
    heavy = (n >= beta) & (stats.prefix_ooo[:, def_.value - 1] > eps * n)
    return frozenset(Prefix(bits) for bits in stats.prefix_bits[heavy].tolist())


def _pcc_pool(stats: TraceStats, def_: ReorderDef) -> tuple[np.ndarray, np.ndarray]:
    """x = O_f/N_f and y = (O_g-O_f)/(N_g-N_f) of every flow whose prefix
    has at least two flows (the correlation sample space), in flow order."""
    eligible = stats.prefix_flows[stats.flow_prefix] >= 2
    prefix = stats.flow_prefix[eligible]
    n_f = stats.flow_n[eligible]
    o_f = stats.flow_ooo[eligible, def_.value - 1]
    o_g = stats.prefix_ooo[prefix, def_.value - 1]
    return o_f / n_f, (o_g - o_f) / (stats.prefix_n[prefix] - n_f)


def _sampled_correlation(
    pool: tuple[np.ndarray, np.ndarray], n_samples: int, rng: np.random.Generator
) -> float:
    pool_x, pool_y = pool
    if len(pool_x) == 0:
        raise UndefinedCorrelationError("no prefix has two or more flows")
    picks = rng.integers(0, len(pool_x), n_samples)
    xs = pool_x[picks]
    ys = pool_y[picks]
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    denom = math.sqrt(float(np.dot(dx, dx))) * math.sqrt(float(np.dot(dy, dy)))
    if denom == 0.0:
        raise UndefinedCorrelationError("zero variance in sampled fractions")
    # rounding can push a perfectly linear sample a hair past 1
    return min(1.0, max(-1.0, float(np.dot(dx, dy) / denom)))


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
    return _sampled_correlation(_pcc_pool(stats, def_), n_samples, rng)


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
    of ``sample_fraction`` of the eligible flows (at least 2).  The same as
    ``pearson_correlation`` called ``repetitions`` times with one generator,
    but the pool of eligible flows is built once."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    pool = _pcc_pool(stats, def_)
    n_samples = max(2, round(sample_fraction * len(pool[0])))
    rng = np.random.default_rng(seed)
    values = []
    undefined = 0
    for _ in range(repetitions):
        try:
            values.append(_sampled_correlation(pool, n_samples, rng))
        except UndefinedCorrelationError:
            undefined += 1
    if not values:
        raise UndefinedCorrelationError("every repetition had zero variance")
    return PccSummary(float(np.mean(values)), len(values), undefined, n_samples)


INTERARRIVAL_CLASSES = ("in_order", "def1_ooo", "def2_ooo")


def _log2_bins(gaps: np.ndarray) -> dict[int, int]:
    """Count ``floor(log2(max(gap, 1e-9)))`` per bin, bins ascending."""
    logs = np.log2(np.maximum(gaps, 1e-9))
    bins = np.floor(logs)
    # np.log2 may differ from math.log2 in the last bits, which moves the
    # floor only next to an integer: take math.log2 there
    for i in np.flatnonzero(np.abs(logs - np.rint(logs)) < 1e-9).tolist():
        bins[i] = math.floor(math.log2(max(float(gaps[i]), 1e-9)))
    values, counts = np.unique(bins.astype(np.int64), return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def interarrival_histogram(arrays: PacketArrays) -> dict[str, dict[int, int]]:
    """Same-flow inter-arrival gaps in log2 bins, per packet class.

    Every non-first packet of a flow is classed by its ``flow_steps``
    outcome (in order, DEF1 or DEF2; the two exclude each other) and its
    gap to its flow predecessor is binned.  Returns ``{class: {bin_log2:
    count}}`` for the ``INTERARRIVAL_CLASSES``."""
    order, step = flow_steps(arrays)
    # the gap of each sorted packet to the one before it, which is its
    # flow predecessor unless the packet is the first of its flow (step -1)
    gaps = np.diff(arrays.ts[order])
    step = step[1:]
    return {name: _log2_bins(gaps[step == k]) for k, name in enumerate(INTERARRIVAL_CLASSES)}


DEFAULT_SIZE_BINS = tuple(2**k for k in range(0, 21))


def flow_size_reorder_breakdown(
    stats: TraceStats,
    def_: ReorderDef,
    size_bins: Sequence[int] = DEFAULT_SIZE_BINS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For each prefix: how many flows fall in each size bin, and what
    fraction of the prefix's out-of-order packets those flows contribute.

    ``size_bins`` are inclusive upper bounds; sizes above the last bound go
    to an overflow bin with index ``len(size_bins)``.  Returns four aligned
    columns, one row per (prefix, bin) with flows, ordered by prefix and
    then by bin: prefix bits, size bin, flow count and out-of-order
    fraction.  The fraction is NaN where the prefix has no out-of-order
    packet."""
    edges = list(size_bins)
    if edges != sorted(edges):
        raise ValueError("size_bins must be sorted ascending")
    # side="left" puts a size equal to a bound in that bound's bin
    bins = np.searchsorted(np.asarray(edges, dtype=np.int64), stats.flow_n, side="left")
    n_bins = len(edges) + 1
    groups, group = np.unique(stats.flow_prefix * n_bins + bins, return_inverse=True)
    group_ooo = np.zeros(len(groups), dtype=np.int64)
    np.add.at(group_ooo, group, stats.flow_ooo[:, def_.value - 1])
    rows, group_bins = np.divmod(groups, n_bins)
    prefix_ooo = stats.prefix_ooo[rows, def_.value - 1]
    fraction = np.divide(
        group_ooo, prefix_ooo, out=np.full(len(groups), math.nan), where=prefix_ooo > 0
    )
    flow_count = np.bincount(group, minlength=len(groups))
    return stats.prefix_bits[rows], group_bins, flow_count, fraction
