"""The detector-to-aggregator report record."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import Prefix


class ReportSource(Enum):
    ARRAY_EVICTION = "array_eviction"
    ARRAY_FLUSH = "array_flush"
    HH_EVICTION = "hh_eviction"
    HH_FLUSH = "hh_flush"


@dataclass(frozen=True, slots=True)
class Report:
    """(prefix, packets monitored, out-of-order count) plus provenance."""

    prefix: Prefix
    n: int
    o: int
    source: ReportSource
