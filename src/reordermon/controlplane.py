"""Control-plane aggregation of detector reports.

Keeps one running tally per reported prefix and applies the output rule at
the end of the interval.  ``COUNT_ONLY`` outputs a prefix once enough
packets were reported for it (arrival of a report already signals
reordering, since the default array only reports on reorder-triggered
evictions).  ``FRACTION`` additionally requires the aggregated out-of-order
fraction to clear a scaled threshold; paired with ``report_all`` it trades
communication volume for fewer false positives.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .model import Prefix

if TYPE_CHECKING:
    from .reports import ReportColumns


class AggregatorMode(Enum):
    COUNT_ONLY = "count"
    FRACTION = "fraction"


@dataclass(frozen=True)
class AggregatorParams:
    min_packets: int = 16       # alpha
    eps: float = 0.01
    scale: float = 1.0          # c, compensates for partial monitoring
    mode: AggregatorMode = AggregatorMode.COUNT_ONLY

    def __post_init__(self) -> None:
        if self.min_packets < 1:
            raise ValueError("min_packets must be >= 1")
        if not 0.0 < self.scale <= 1.0:
            raise ValueError("scale must lie in (0, 1]")


class ReportAggregator:
    """Per-prefix tallies as columns, one row per reported prefix by ascending
    ``prefix_bits``: the ``sum_n`` and ``sum_o`` of its reports."""

    def __init__(self) -> None:
        # numpy loads here, not with the module: the CLI imports this module
        # for AggregatorMode while it checks options
        import numpy as np

        self.prefix_bits = self.sum_n = self.sum_o = np.empty(0, dtype=np.int64)

    def ingest_all(self, reports: ReportColumns) -> None:
        """Add a report stream to the tallies; repeated calls accumulate."""
        import numpy as np

        bits = np.concatenate((self.prefix_bits, reports.prefix_bits))
        self.prefix_bits, row = np.unique(bits, return_inverse=True)
        # float64 sums of int64 counts are exact below 2^53 packets
        self.sum_n = np.bincount(row, np.concatenate((self.sum_n, reports.n))).astype(np.int64)
        self.sum_o = np.bincount(row, np.concatenate((self.sum_o, reports.o))).astype(np.int64)

    def finalize(self, params: AggregatorParams) -> set[Prefix]:
        """The output set; a pure function of the tallies."""
        out = self.sum_n >= params.min_packets
        if params.mode is AggregatorMode.FRACTION:
            # sum_n >= min_packets >= 1 on every row the mask keeps
            out[out] = self.sum_o[out] / self.sum_n[out] > params.scale * params.eps
        return {Prefix(bits) for bits in self.prefix_bits[out].tolist()}
