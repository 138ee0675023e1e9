from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from reordermon.controlplane import (
    AggregatorMode,
    AggregatorParams,
    ReportAggregator,
)
from reordermon.model import Prefix
from reordermon.reports import Report, ReportColumns, ReportSource

from conftest import report_columns, report_rows

GA = Prefix(0x0A000000)
GB = Prefix(0x0A000100)
GC = Prefix(0x0A000200)


def columns(*rows: tuple[Prefix, int, int]) -> ReportColumns:
    """(prefix, n, o) rows as one report stream, one packet apart."""
    return report_columns(
        (i, Report(prefix, n, o, ReportSource.ARRAY_EVICTION))
        for i, (prefix, n, o) in enumerate(rows)
    )


def tallies(agg: ReportAggregator) -> dict[Prefix, tuple[int, int]]:
    return {
        Prefix(bits): (n, o)
        for bits, n, o in zip(agg.prefix_bits.tolist(), agg.sum_n.tolist(), agg.sum_o.tolist())
    }


# --- the reference: one dict tally per prefix, one report at a time ----------


def reference_tallies(streams: list[ReportColumns]) -> dict[Prefix, tuple[int, int]]:
    out: dict[Prefix, tuple[int, int]] = {}
    for stream in streams:
        for _, bits, n, o, _ in report_rows(stream):
            sum_n, sum_o = out.get(Prefix(bits), (0, 0))
            out[Prefix(bits)] = (sum_n + n, sum_o + o)
    return out


def reference_finalize(
    tally: dict[Prefix, tuple[int, int]], params: AggregatorParams
) -> set[Prefix]:
    out: set[Prefix] = set()
    for prefix, (sum_n, sum_o) in tally.items():
        if sum_n < params.min_packets:
            continue
        if params.mode is AggregatorMode.FRACTION:
            if sum_o / sum_n <= params.scale * params.eps:
                continue
        out.add(prefix)
    return out


def test_tally_accumulates() -> None:
    agg = ReportAggregator()
    agg.ingest_all(columns((GA, 10, 2)))
    assert tallies(agg) == {GA: (10, 2)}
    agg.ingest_all(columns((GA, 8, 1)))
    assert tallies(agg) == {GA: (18, 3)}


def test_distinct_prefixes_get_independent_tallies() -> None:
    agg = ReportAggregator()
    agg.ingest_all(columns((GB, 5, 1), (GA, 10, 2)))
    assert tallies(agg) == {GA: (10, 2), GB: (5, 1)}
    # one row per prefix, in ascending prefix order
    assert agg.prefix_bits.tolist() == [GA.bits, GB.bits]


def test_count_only_threshold() -> None:
    agg = ReportAggregator()
    agg.ingest_all(columns((GA, 10, 2), (GA, 8, 1), (GB, 12, 5)))  # GA (18, 3); GB below alpha
    out = agg.finalize(AggregatorParams(min_packets=16, mode=AggregatorMode.COUNT_ONLY))
    assert out == {GA}


def test_fraction_mode_examples() -> None:
    agg = ReportAggregator()
    agg.ingest_all(columns((GA, 18, 3)))
    params = AggregatorParams(
        min_packets=16, eps=0.01, scale=1.0, mode=AggregatorMode.FRACTION
    )
    assert agg.finalize(params) == {GA}  # 3/18 > 0.01

    clean = ReportAggregator()
    clean.ingest_all(columns((GB, 200, 1)))  # 0.005 <= 0.01
    assert clean.finalize(params) == set()


def test_fraction_boundary_is_strict() -> None:
    agg = ReportAggregator()
    agg.ingest_all(columns((GA, 100, 1)))  # exactly c*eps with c=1, eps=0.01
    params = AggregatorParams(min_packets=16, eps=0.01, scale=1.0, mode=AggregatorMode.FRACTION)
    assert agg.finalize(params) == set()


def test_fraction_output_is_subset_of_count_only() -> None:
    rng = random.Random(0)
    rows = []
    for _ in range(300):
        prefix = Prefix(0x0A000000 + (rng.randrange(20) << 8))
        n = rng.randrange(1, 40)
        rows.append((prefix, n, rng.randrange(0, n + 1)))
    agg = ReportAggregator()
    agg.ingest_all(columns(*rows))
    count_only = agg.finalize(AggregatorParams(min_packets=16, mode=AggregatorMode.COUNT_ONLY))
    fraction = agg.finalize(
        AggregatorParams(min_packets=16, eps=0.2, scale=1.0, mode=AggregatorMode.FRACTION)
    )
    assert fraction <= count_only


def test_ingest_order_does_not_matter() -> None:
    rows = [(GA, 10, 2), (GB, 30, 1), (GA, 8, 1), (GC, 2, 1)]
    params = AggregatorParams(min_packets=16, eps=0.05, scale=0.5, mode=AggregatorMode.FRACTION)
    forward = ReportAggregator()
    forward.ingest_all(columns(*rows))
    backward = ReportAggregator()
    backward.ingest_all(columns(*reversed(rows)))
    assert forward.finalize(params) == backward.finalize(params)
    assert tallies(forward) == tallies(backward)


def test_param_validation() -> None:
    with pytest.raises(ValueError):
        AggregatorParams(min_packets=0)
    with pytest.raises(ValueError):
        AggregatorParams(scale=0.0)
    with pytest.raises(ValueError):
        AggregatorParams(scale=1.5)


@st.composite
def _report(draw) -> tuple[Prefix, int, int]:
    n = draw(st.integers(1, 60))
    return Prefix(0x0A000000 + (draw(st.integers(0, 7)) << 8)), n, draw(st.integers(0, n))


@settings(max_examples=60, deadline=None)
@given(
    streams=st.lists(st.lists(_report(), max_size=30), max_size=4),
    min_packets=st.integers(1, 80),
    eps=st.sampled_from([0.01, 0.05, 0.1, 0.25]),
    scale=st.sampled_from([0.5, 1.0]),
)
def test_columnar_aggregator_matches_dict_reference(
    streams: list[list[tuple[Prefix, int, int]]], min_packets: int, eps: float, scale: float
) -> None:
    """Tallies and output sets equal the per-report dict tally, over any
    number of ``ingest_all`` calls, empty streams included."""
    parts = [columns(*rows) for rows in streams]
    agg = ReportAggregator()
    for part in parts:
        agg.ingest_all(part)
    expected = reference_tallies(parts)
    assert tallies(agg) == expected
    for mode in AggregatorMode:
        params = AggregatorParams(min_packets=min_packets, eps=eps, scale=scale, mode=mode)
        assert agg.finalize(params) == reference_finalize(expected, params)
