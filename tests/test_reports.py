from __future__ import annotations

from reordermon.model import Prefix
from reordermon.reports import Report, ReportColumns, ReportSource

from conftest import report_rows

A, H = ReportSource.ARRAY_EVICTION, ReportSource.HH_EVICTION


def test_report_invariants_on_construction() -> None:
    rep = Report(Prefix(0x0A000100), 18, 3, ReportSource.HH_EVICTION)
    assert rep.o <= rep.n and rep.n >= 1


def test_merge_orders_by_trigger_and_keeps_part_order_on_ties() -> None:
    first = ReportColumns.of(A, [(5, 0x100, 4, 1), (1, 0x200, 5, 2), (9, 0x300, 6, 3)])
    second = ReportColumns.of(H, [(9, 0x400, 7, 0), (3, 0x500, 8, 1)])
    assert report_rows(ReportColumns.merge(first, second)) == [
        (1, 0x200, 5, 2, A),
        (3, 0x500, 8, 1, H),
        (5, 0x100, 4, 1, A),
        (9, 0x300, 6, 3, A),
        (9, 0x400, 7, 0, H),
    ]
    assert len(ReportColumns.merge(first, second)) == 5
    # many equal triggers keep their order too: Python's sort is stable
    rows_a = [(n * 7 % 5, 0x100, n, 0) for n in range(50)]
    rows_h = [(n * 3 % 5, 0x200, n, 0) for n in range(50, 120)]
    merged = ReportColumns.merge(ReportColumns.of(A, rows_a), ReportColumns.of(H, rows_h))
    expected = sorted(rows_a + rows_h, key=lambda row: row[0])
    assert merged.n.tolist() == [row[2] for row in expected]


def test_merge_of_nothing_is_the_empty_stream() -> None:
    assert report_rows(ReportColumns.merge()) == []
    assert report_rows(ReportColumns.merge(ReportColumns.of(A, []))) == []
