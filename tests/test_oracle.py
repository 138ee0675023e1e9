from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reordermon.harness import ExperimentSpec, truth_sets
from reordermon.model import PREFIX_MASK, FlowId, PacketRecord, Prefix, ReorderDef
from reordermon.oracle import (
    DEFAULT_SIZE_BINS,
    INTERARRIVAL_CLASSES,
    PccSummary,
    TraceStats,
    UndefinedCorrelationError,
    _pcc_pool,
    compute_stats,
    flow_size_reorder_breakdown,
    ground_truth,
    interarrival_histogram,
    mean_pearson_correlation,
    pearson_correlation,
)
from reordermon.traceio import PacketArrays, SynthConfig, generate_synthetic_arrays

from conftest import make_flow, random_trace, stats_tables

DEF1 = ReorderDef.DEF1_DECREASE
DEF2 = ReorderDef.DEF2_GAP
DEF3 = ReorderDef.DEF3_BELOW_MAX

# the reference tables: {flow: (n, o1, o2, o3)} and {prefix: (n, flows, o1, o2, o3)}
FlowTable = dict[FlowId, tuple[int, ...]]
PrefixTable = dict[Prefix, tuple[int, ...]]


def reference_compute_stats(arrays: PacketArrays) -> tuple[FlowTable, PrefixTable]:
    """Per-packet walk with one state record per flow: the reference for
    the sort-based ``compute_stats``.  Both tables are in the order of first
    appearance."""
    # state per flow id: [n, o1, o2, o3, last_seq, expected_next, max_seq]
    state: dict[int, list[int]] = {}
    for fid, seq, length in zip(
        arrays.flow_id.tolist(), arrays.seq.tolist(), arrays.payload_len.tolist()
    ):
        st_ = state.get(fid)
        if st_ is None:
            state[fid] = [1, 0, 0, 0, seq, seq + length, seq]
            continue
        if seq < st_[4]:
            st_[1] += 1
        if seq > st_[5]:
            st_[2] += 1
        if seq < st_[6]:
            st_[3] += 1
        elif seq > st_[6]:
            st_[6] = seq
        st_[0] += 1
        st_[4] = seq
        st_[5] = seq + length

    flows = {arrays.flow(fid): tuple(st_[:4]) for fid, st_ in state.items()}
    prefixes: dict[Prefix, list[int]] = {}
    for flow, (n, o1, o2, o3) in flows.items():
        entry = prefixes.setdefault(Prefix(flow.src_ip & PREFIX_MASK), [0, 0, 0, 0, 0])
        for i, value in enumerate((n, 1, o1, o2, o3)):
            entry[i] += value
    return flows, {prefix: tuple(entry) for prefix, entry in prefixes.items()}


def _ooo(entry: tuple[int, ...], def_: ReorderDef) -> int:
    """The out-of-order count of a reference table entry (flow or prefix)."""
    return entry[def_.value - 4]


def reference_ground_truth(
    prefixes: PrefixTable, eps: float, beta: int, def_: ReorderDef
) -> frozenset[Prefix]:
    return frozenset(
        prefix
        for prefix, entry in prefixes.items()
        if entry[0] >= beta and _ooo(entry, def_) > eps * entry[0]
    )


def reference_alpha_set(
    prefixes: PrefixTable, eps: float, alpha: int, def_: ReorderDef
) -> frozenset[Prefix]:
    """The false-positive reference set: more than ``alpha`` packets."""
    return frozenset(
        prefix
        for prefix, entry in prefixes.items()
        if entry[0] > alpha and _ooo(entry, def_) > eps * entry[0]
    )


def reference_pcc_pool(
    flows: FlowTable, prefixes: PrefixTable, def_: ReorderDef
) -> tuple[np.ndarray, np.ndarray]:
    pool = [
        (flow, entry)
        for flow, entry in flows.items()
        if prefixes[Prefix(flow.src_ip & PREFIX_MASK)][1] >= 2
    ]
    xs = np.empty(len(pool))
    ys = np.empty(len(pool))
    for i, (flow, entry) in enumerate(pool):
        group = prefixes[Prefix(flow.src_ip & PREFIX_MASK)]
        xs[i] = _ooo(entry, def_) / entry[0]
        ys[i] = (_ooo(group, def_) - _ooo(entry, def_)) / (group[0] - entry[0])
    return xs, ys


def reference_breakdown(
    flows: FlowTable, prefixes: PrefixTable, def_: ReorderDef, size_bins=DEFAULT_SIZE_BINS
) -> list[tuple[int, int, int, float]]:
    """(prefix bits, size bin, flow count, fraction) rows, ordered by prefix
    and then by bin; the fraction is NaN for a prefix with no out-of-order
    packet."""
    edges = list(size_bins)
    per_prefix_counts: dict[Prefix, dict[int, int]] = {}
    per_prefix_ooo: dict[Prefix, dict[int, int]] = {}
    for flow, entry in flows.items():
        prefix = Prefix(flow.src_ip & PREFIX_MASK)
        bin_ = bisect_left(edges, entry[0])
        counts = per_prefix_counts.setdefault(prefix, {})
        counts[bin_] = counts.get(bin_, 0) + 1
        ooo = per_prefix_ooo.setdefault(prefix, {})
        ooo[bin_] = ooo.get(bin_, 0) + _ooo(entry, def_)
    rows = []
    for prefix in sorted(per_prefix_counts, key=lambda p: p.bits):
        o_g = _ooo(prefixes[prefix], def_)
        for bin_, count in sorted(per_prefix_counts[prefix].items()):
            fraction = per_prefix_ooo[prefix][bin_] / o_g if o_g > 0 else math.nan
            rows.append((prefix.bits, bin_, count, fraction))
    return rows


def reference_interarrival_histogram(arrays: PacketArrays) -> dict[str, dict[int, int]]:
    """Per-packet walk binning one gap at a time: the reference for the
    sort-based ``interarrival_histogram``."""
    hist: dict[str, dict[int, int]] = {name: {} for name in INTERARRIVAL_CLASSES}
    state: dict = {}  # flow id -> [last_seq, expected_next, last_ts]
    for fid, seq, length, ts in zip(
        arrays.flow_id.tolist(),
        arrays.seq.tolist(),
        arrays.payload_len.tolist(),
        arrays.ts.tolist(),
    ):
        st_ = state.get(fid)
        if st_ is not None:
            bin_ = math.floor(math.log2(max(ts - st_[2], 1e-9)))
            if seq < st_[0]:
                counts = hist["def1_ooo"]
            elif seq > st_[1]:
                counts = hist["def2_ooo"]
            else:
                counts = hist["in_order"]
            counts[bin_] = counts.get(bin_, 0) + 1
            st_[0] = seq
            st_[1] = seq + length
            st_[2] = ts
        else:
            state[fid] = [seq, seq + length, ts]
    return {name: dict(sorted(counts.items())) for name, counts in hist.items()}


def _row_bits(rows) -> list[tuple[int, int, int, str]]:
    """Breakdown rows with each fraction as its exact bits."""
    return [(bits, bin_, count, fraction.hex()) for bits, bin_, count, fraction in rows]


def assert_oracle_matches_reference(arrays: PacketArrays) -> None:
    stats = compute_stats(arrays)
    flows, prefixes = stats_tables(stats, arrays)
    ref_flows, ref_prefixes = reference_compute_stats(arrays)
    # list comparison: the row order must match as well
    assert list(flows.items()) == list(ref_flows.items())
    assert list(prefixes.items()) == sorted(ref_prefixes.items(), key=lambda kv: kv[0].bits)
    assert int(stats.prefix_n.sum()) == len(arrays)
    assert stats.flow_prefix.tolist() == [
        list(prefixes).index(Prefix(flow.src_ip & PREFIX_MASK)) for flow in flows
    ]

    # alpha and beta at, just below and just above every prefix size, and
    # eps at every observed fraction (the strict ">" boundary)
    sizes = {entry[0] for entry in prefixes.values()}
    thresholds = {(n + da, n + da + db) for n in sizes for da in (-1, 0) for db in (1, 2)}
    for def_ in (DEF1, DEF2, DEF3):
        cases = [(eps, alpha, beta) for eps in (0.01, 0.5) for alpha, beta in thresholds]
        cases += [
            (_ooo(entry, def_) / entry[0], 0, 1)
            for entry in prefixes.values()
            if 0 < _ooo(entry, def_) < entry[0]
        ]
        for eps, alpha, beta in cases:
            assert ground_truth(stats, eps, beta, def_) == reference_ground_truth(
                ref_prefixes, eps, beta, def_
            ), (eps, beta, def_)
            if def_ is not DEF3 and alpha >= 1:
                spec = ExperimentSpec(reorder_def=def_, alpha=alpha, beta=beta, eps=eps)
                assert truth_sets(stats, spec)[1] == reference_alpha_set(
                    ref_prefixes, eps, alpha, def_
                ), (eps, alpha, def_)

        xs, ys = _pcc_pool(stats, def_)
        ref_xs, ref_ys = reference_pcc_pool(ref_flows, ref_prefixes, def_)
        assert xs.tobytes() == ref_xs.tobytes()
        assert ys.tobytes() == ref_ys.tobytes()

        for size_bins in (DEFAULT_SIZE_BINS, (1, 2, 4, 8), (3,), ()):
            columns = flow_size_reorder_breakdown(stats, def_, size_bins)
            got = zip(*(column.tolist() for column in columns))
            want = reference_breakdown(ref_flows, ref_prefixes, def_, size_bins)
            assert _row_bits(got) == _row_bits(want)

    hist = interarrival_histogram(arrays)
    ref_hist = reference_interarrival_histogram(arrays)
    # list comparison: the bins must come in ascending order as well
    assert [(name, list(counts.items())) for name, counts in hist.items()] == [
        (name, list(counts.items())) for name, counts in ref_hist.items()
    ]


def _below(x: float) -> float:
    return float(np.nextafter(x, 0.0))


# exact powers of two and the doubles just below them, plus zero and
# sub-1e-9 gaps that take the 1e-9 floor
GAPS = (
    [0.0, 1e-12, 1e-9, _below(1e-9), 3e-4, 0.1]
    + [2.0**k for k in range(-30, 5)]
    + [_below(2.0**k) for k in range(-30, 5)]
)


@st.composite
def packet_columns(draw) -> PacketArrays:
    """A small trace built column by column.  Flow ids are drawn freely, so
    they need not follow appearance order and some flows have no packets;
    seqs come from a narrow range (ties for DEF3), optionally just below
    2^32; gaps are powers of two, the doubles below them, or tiny."""
    n_flows = draw(st.integers(1, 7))
    n = draw(st.integers(0, 80))

    def ints(lo: int, hi: int) -> st.SearchStrategy[list[int]]:
        return st.lists(st.integers(lo, hi), min_size=n, max_size=n)

    fids = draw(ints(0, n_flows - 1))
    base = draw(st.sampled_from([0, 2**32 - 3000]))
    seqs = [base + s for s in draw(ints(0, 2999))]
    lens = draw(ints(0, 1500))
    gaps = draw(st.lists(st.sampled_from(GAPS), min_size=n, max_size=n))
    ts = np.cumsum(np.asarray(gaps, dtype=np.float64)) + draw(st.sampled_from([0.0, 0.75, 1e3]))
    src = [0x0A000000 + (draw(st.integers(0, 2)) << 8) + i + 1 for i in range(n_flows)]
    return PacketArrays(
        ts=ts,
        seq=np.asarray(seqs, dtype=np.int64),
        payload_len=np.asarray(lens, dtype=np.int64),
        flow_id=np.asarray(fids, dtype=np.int64),
        flow_src_ip=np.asarray(src, dtype=np.int64),
        flow_dst_ip=np.full(n_flows, 0xAC100001, dtype=np.int64),
        flow_src_port=np.full(n_flows, 443, dtype=np.int64),
        flow_dst_port=np.arange(10000, 10000 + n_flows, dtype=np.int64),
    )


@settings(max_examples=300, deadline=None)
@given(arrays=packet_columns())
def test_oracle_matches_reference_on_random_columns(arrays: PacketArrays) -> None:
    assert_oracle_matches_reference(arrays)


@pytest.mark.parametrize("seed", [3, 66])
def test_oracle_matches_reference_on_synthetic_and_subsets(seed: int) -> None:
    arrays, _ = generate_synthetic_arrays(
        SynthConfig(n_prefixes=48, seed=seed, duration_seconds=1.0, bad_prefix_fraction=0.3)
    )
    assert_oracle_matches_reference(arrays)
    # drop whole flows (the flow tables keep them) and single packets
    assert_oracle_matches_reference(arrays.subset(arrays.flow_id % 3 != 1))
    assert_oracle_matches_reference(arrays.subset(np.arange(len(arrays)) % 5 != 0))
    assert_oracle_matches_reference(arrays.subset(np.arange(len(arrays)) < 1))


@pytest.mark.parametrize("gap", GAPS)
def test_interarrival_bin_at_and_below_powers_of_two(gap: float) -> None:
    arrays = PacketArrays.from_records(
        [PacketRecord(make_flow(0), 1000, 100, 0.0), PacketRecord(make_flow(0), 1100, 100, gap)]
    )
    assert interarrival_histogram(arrays)["in_order"] == {
        int(math.floor(math.log2(max(gap, 1e-9)))): 1
    }
    assert_oracle_matches_reference(arrays)


def quadratic_recount(records: list[PacketRecord]) -> dict[FlowId, tuple[int, int, int, int]]:
    """Independent quadratic-time recomputation of per-flow counters."""
    by_flow: dict[FlowId, list[PacketRecord]] = {}
    for rec in records:
        by_flow.setdefault(rec.flow, []).append(rec)
    out = {}
    for flow, pkts in by_flow.items():
        o1 = o2 = o3 = 0
        for i in range(1, len(pkts)):
            if pkts[i].seq < pkts[i - 1].seq:
                o1 += 1
            if pkts[i].seq > pkts[i - 1].seq + pkts[i - 1].payload_len:
                o2 += 1
            if pkts[i].seq < max(p.seq for p in pkts[:i]):
                o3 += 1
        out[flow] = (len(pkts), o1, o2, o3)
    return out


def flow_packets(flow: FlowId, seqs: list[int], ts_start: float = 0.0) -> list[PacketRecord]:
    return [
        PacketRecord(flow, seq, 100, ts_start + i * 1e-4) for i, seq in enumerate(seqs)
    ]


def merge(*streams: list[PacketRecord]) -> list[PacketRecord]:
    return sorted((r for s in streams for r in s), key=lambda r: r.ts)


def test_in_order_flow_has_zero_counts() -> None:
    arrays = PacketArrays.from_records(flow_packets(make_flow(0), [1000, 1100, 1200]))
    n, o1, o2, o3 = next(iter(stats_tables(compute_stats(arrays), arrays)[0].values()))
    assert n == 3
    assert (o1, o2, o3) == (0, 0, 0)


def test_single_swap_counts_once_under_each_definition() -> None:
    arrays = PacketArrays.from_records(flow_packets(make_flow(0), [1000, 1200, 1100]))
    _, o1, o2, o3 = next(iter(stats_tables(compute_stats(arrays), arrays)[0].values()))
    assert o1 == 1  # 1100 < 1200
    assert o2 == 1  # 1200 > 1100 expected
    assert o3 == 1  # 1100 below the running max 1200


def test_matches_quadratic_recount_on_random_traces() -> None:
    traces = [random_trace(seed, n_packets=500, n_flows=6) for seed in range(8)]
    synthetic, _ = generate_synthetic_arrays(
        SynthConfig(n_prefixes=24, seed=66, duration_seconds=1.0, bad_prefix_fraction=0.3)
    )
    traces.append(list(synthetic.iter_records()))
    for records in traces:
        arrays = PacketArrays.from_records(records)
        flows, _ = stats_tables(compute_stats(arrays), arrays)
        expected = quadratic_recount(records)
        assert set(flows) == set(expected)
        for flow, (n, o1, o2, o3) in expected.items():
            assert flows[flow] == (n, o1, o2, o3)


def test_prefix_sums_and_def1_le_def3() -> None:
    records = random_trace(42, n_packets=800, n_flows=10, n_prefixes=4)
    arrays = PacketArrays.from_records(records)
    stats = compute_stats(arrays)
    flows, prefixes = stats_tables(stats, arrays)
    assert sum(entry[0] for entry in prefixes.values()) == len(records)
    for def_ in (DEF1, DEF2, DEF3):
        assert sum(_ooo(entry, def_) for entry in prefixes.values()) == sum(
            _ooo(entry, def_) for entry in flows.values()
        )
    for entry in flows.values():
        assert _ooo(entry, DEF1) <= _ooo(entry, DEF3)
        for def_ in (DEF1, DEF2, DEF3):
            assert 0 <= _ooo(entry, def_) < entry[0]


def _stats_with_prefixes(entries: list[tuple[int, int, int]]) -> TraceStats:
    """TraceStats with synthetic per-prefix counters (n, o, flow_count)."""
    none = np.zeros(0, dtype=np.int64)
    n, o, flows = (np.asarray(column, dtype=np.int64) for column in zip(*entries))
    return TraceStats(
        flow_id=none,
        flow_n=none,
        flow_ooo=np.zeros((0, 3), dtype=np.int64),
        flow_prefix=none,
        prefix_bits=0x0A000000 + (np.arange(len(entries), dtype=np.int64) << 8),
        prefix_n=n,
        prefix_ooo=np.stack([o, o, o], axis=1),
        prefix_flows=flows,
    )


def test_ground_truth_threshold_arithmetic() -> None:
    stats = _stats_with_prefixes([(128, 2, 3), (127, 100, 3), (128, 1, 3)])
    truth = ground_truth(stats, eps=0.01, beta=128, def_=DEF1)
    bits = sorted(p.bits & 0xFF00 for p in truth)
    assert bits == [0 << 8]  # only the first prefix: 2 > 1.28


def test_ground_truth_size_threshold_and_validation() -> None:
    stats = _stats_with_prefixes([(10, 5, 2), (200, 50, 2)])
    truth = ground_truth(stats, eps=0.01, beta=128, def_=DEF1)
    assert [p.bits & 0xFF00 for p in truth] == [1 << 8]
    with pytest.raises(ValueError):
        ground_truth(stats, eps=0.0, beta=128, def_=DEF1)


def two_flow_prefix(i: int, seqs: list[int]) -> list[PacketRecord]:
    prefix = 0x0A000000 + (i << 8)
    a = FlowId(prefix | 1, 0xAC100001, 443, 10000)
    b = FlowId(prefix | 2, 0xAC100001, 443, 10001)
    return merge(flow_packets(a, seqs, 0.0), flow_packets(b, seqs, 1.0))


def test_pcc_perfect_linear_correlation() -> None:
    # each prefix holds two identical flows, so x equals y exactly for every
    # sample; prefixes differ, giving the sample variance r = 1 needs
    streams = [
        two_flow_prefix(0, [1000, 1100, 1200, 1300]),          # 0 events
        two_flow_prefix(1, [1000, 1200, 1100, 1300]),          # 1 event
        two_flow_prefix(2, [1000, 1200, 1100, 1050]),          # 2 events
    ]
    stats = compute_stats(PacketArrays.from_records(merge(*streams)))
    r = pearson_correlation(stats, 40, DEF1, np.random.default_rng(0))
    assert r == pytest.approx(1.0)


def test_pcc_zero_variance_is_an_error() -> None:
    records = merge(two_flow_prefix(0, [1000, 1100]), two_flow_prefix(1, [1000, 1100]))
    stats = compute_stats(PacketArrays.from_records(records))
    with pytest.raises(UndefinedCorrelationError):
        pearson_correlation(stats, 10, DEF1, np.random.default_rng(0))


def test_pcc_requires_multi_flow_prefixes() -> None:
    records = flow_packets(make_flow(0), [1000, 1100])
    stats = compute_stats(PacketArrays.from_records(records))
    assert len(_pcc_pool(stats, DEF1)[0]) == 0
    with pytest.raises(UndefinedCorrelationError):
        pearson_correlation(stats, 5, DEF1, np.random.default_rng(0))


def test_pcc_bounded_on_synthetic_trace() -> None:
    arrays, _ = generate_synthetic_arrays(
        SynthConfig(n_prefixes=128, seed=5, duration_seconds=2.0, bad_prefix_fraction=0.2)
    )
    stats = compute_stats(arrays)
    summary = mean_pearson_correlation(stats, DEF1, repetitions=20, seed=1)
    assert -1.0 <= summary.mean_r <= 1.0
    assert summary.repetitions + summary.undefined_repetitions == 20


def repeated_pearson(
    stats: TraceStats, def_: ReorderDef, repetitions: int, sample_fraction: float, seed: int
) -> PccSummary:
    """The mean over a loop of ``pearson_correlation`` with one shared rng."""
    n_samples = max(2, round(sample_fraction * len(_pcc_pool(stats, def_)[0])))
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


def test_mean_pcc_matches_repeated_pearson() -> None:
    arrays, _ = generate_synthetic_arrays(
        SynthConfig(n_prefixes=128, seed=5, duration_seconds=2.0, bad_prefix_fraction=0.2)
    )
    stats = compute_stats(arrays)
    saw_undefined = False
    for def_ in (DEF1, DEF2):
        for repetitions, fraction, seed in ((20, 0.005, 1), (50, 0.0, 7), (5, 0.2, 0), (1, 1.0, 3)):
            summary = mean_pearson_correlation(stats, def_, repetitions, fraction, seed)
            assert summary == repeated_pearson(stats, def_, repetitions, fraction, seed)
            saw_undefined |= summary.undefined_repetitions > 0
    assert saw_undefined
    # every repetition undefined: both raise
    flat = compute_stats(
        PacketArrays.from_records(
            merge(two_flow_prefix(0, [1000, 1100]), two_flow_prefix(1, [1000, 1100]))
        )
    )
    for summarize in (mean_pearson_correlation, repeated_pearson):
        with pytest.raises(UndefinedCorrelationError):
            summarize(flat, DEF1, 10, 0.5, 0)


def test_mean_pcc_rejects_no_repetitions() -> None:
    stats = compute_stats(PacketArrays.from_records(flow_packets(make_flow(0), [1000])))
    for repetitions in (0, -3):
        with pytest.raises(ValueError, match="repetitions"):
            mean_pearson_correlation(stats, DEF1, repetitions=repetitions)


def test_interarrival_uniform_gaps_single_bin() -> None:
    records = flow_packets(make_flow(0), [1000 + 100 * i for i in range(11)])
    for i, rec in enumerate(records):
        rec.ts = i * 0.001
    hist = interarrival_histogram(PacketArrays.from_records(records))
    assert hist == {"in_order": {-10: 10}, "def1_ooo": {}, "def2_ooo": {}}  # floor(log2(0.001))


def test_interarrival_empty_trace() -> None:
    hist = interarrival_histogram(PacketArrays.from_records([]))
    assert hist == {"in_order": {}, "def1_ooo": {}, "def2_ooo": {}}


def test_interarrival_displaced_packets_arrive_later() -> None:
    arrays, _ = generate_synthetic_arrays(
        SynthConfig(
            n_prefixes=64,
            seed=8,
            bad_prefix_fraction=1.0,
            bad_reorder_prob=0.05,
            good_reorder_prob=0.0,
            displacement_max=1,
            duration_seconds=2.0,
        )
    )
    hist = interarrival_histogram(arrays)

    def mean_bin(counts: dict[int, int]) -> float:
        return sum(bin_ * count for bin_, count in counts.items()) / sum(counts.values())

    assert sum(hist["def1_ooo"].values()) > 50
    assert mean_bin(hist["def1_ooo"]) >= mean_bin(hist["in_order"])


def test_breakdown_single_flow_prefix() -> None:
    records = flow_packets(make_flow(0), [1000, 1200, 1100] + [1300 + 100 * i for i in range(7)])
    stats = compute_stats(PacketArrays.from_records(records))
    _, bins, counts, fractions = flow_size_reorder_breakdown(stats, DEF1, size_bins=(4, 16, 64))
    assert bins.tolist() == [1] and counts.tolist() == [1]  # 10 packets -> bin (4, 16]
    assert fractions.tolist() == [1.0]


def test_breakdown_zero_ooo_prefix_flagged() -> None:
    records = flow_packets(make_flow(0), [1000, 1100, 1200])
    stats = compute_stats(PacketArrays.from_records(records))
    fractions = flow_size_reorder_breakdown(stats, DEF1)[3]
    assert len(fractions) == 1 and math.isnan(fractions[0])


def test_breakdown_fractions_sum_to_one() -> None:
    arrays = PacketArrays.from_records(random_trace(13, n_packets=600, n_flows=12, n_prefixes=3))
    stats = compute_stats(arrays)
    _, prefixes = stats_tables(stats, arrays)
    bits, _, counts, fractions = flow_size_reorder_breakdown(stats, DEF1)
    for prefix, (_, flows, *_) in prefixes.items():
        rows = bits == prefix.bits
        assert counts[rows].sum() == flows
        if not np.isnan(fractions[rows]).all():
            assert math.isclose(fractions[rows].sum(), 1.0)
