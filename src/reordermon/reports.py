"""Detector reports: at most one ``Report`` per packet step; streams are ``ReportColumns``."""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .model import Prefix


class ReportSource(Enum):
    ARRAY_EVICTION = "array_eviction"
    ARRAY_FLUSH = "array_flush"
    HH_EVICTION = "hh_eviction"
    HH_FLUSH = "hh_flush"


#: The ``source`` column holds each report's index in this tuple.
SOURCES = tuple(ReportSource)


@dataclass(frozen=True, slots=True)
class Report:
    """(prefix, packets monitored, out-of-order count) plus provenance."""

    prefix: Prefix
    n: int
    o: int
    source: ReportSource


@dataclass(frozen=True, eq=False)
class ReportColumns:
    """Reports as int64 columns, one row each in emission order; ``trigger``
    is the triggering packet's index (``packets_processed`` for a flush)."""

    trigger: np.ndarray
    prefix_bits: np.ndarray
    n: np.ndarray
    o: np.ndarray
    source: np.ndarray

    def __len__(self) -> int:
        return len(self.trigger)

    @classmethod
    def of(cls, source: ReportSource, rows: list[tuple[int, int, int, int]]) -> ReportColumns:
        """One source's reports from (trigger, prefix bits, n, o) rows."""
        table = np.array(rows, dtype=np.int64).reshape(-1, 4).T.copy()
        return cls(*table, np.full(table.shape[1], SOURCES.index(source), dtype=np.int64))

    @classmethod
    def merge(cls, *parts: ReportColumns) -> ReportColumns:
        """All rows of ``parts``, stably ordered by trigger; none: no rows."""
        columns = [
            np.concatenate([np.empty(0, dtype=np.int64), *(getattr(p, f.name) for p in parts)])
            for f in fields(cls)
        ]
        order = np.argsort(columns[0], kind="stable")
        return cls(*(column[order] for column in columns))
