from __future__ import annotations

from reordermon.model import Prefix
from reordermon.reports import Report, ReportSource


def test_report_invariants_on_construction() -> None:
    rep = Report(Prefix(0x0A000100), 18, 3, ReportSource.HH_EVICTION)
    assert rep.o <= rep.n and rep.n >= 1
