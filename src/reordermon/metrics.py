"""Evaluation metrics for a detector's output against ground truth."""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Optional

from .model import Prefix


class UndefinedMetricError(ValueError):
    """Raised when a metric's denominator set is empty."""


def accuracy(output_set: AbstractSet[Prefix], truth_beta: AbstractSet[Prefix]) -> float:
    """Fraction of the ground-truth heavy prefixes that were output."""
    if not truth_beta:
        raise UndefinedMetricError("ground-truth set is empty")
    return len(output_set & truth_beta) / len(truth_beta)


def false_positive_rate(
    output_set: AbstractSet[Prefix], truth_alpha: AbstractSet[Prefix]
) -> float:
    """Output prefixes outside the alpha-level truth set, relative to that
    set's size; can exceed 1 by construction."""
    if not truth_alpha:
        raise UndefinedMetricError("alpha-level truth set is empty")
    return len(output_set - truth_alpha) / len(truth_alpha)


def communication_overhead(report_count: int, stream_length: int) -> float:
    """Reports sent (eviction plus flush) per packet of the stream."""
    if stream_length <= 0:
        raise ValueError("stream_length must be positive")
    return report_count / stream_length


@dataclass(frozen=True)
class EvalResult:
    """One configuration's scores: the ``results.csv`` cells of one row but
    the run-level ones.  ``hh_fraction`` is None outside the hybrid."""

    buckets: int
    hh_fraction: Optional[float]
    seed: int
    accuracy: float
    false_positive_rate: float
    communication_overhead: float
    report_count: int
    output_size: int
    truth_size: int
