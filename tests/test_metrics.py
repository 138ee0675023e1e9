from __future__ import annotations

import pytest

from reordermon.metrics import (
    UndefinedMetricError,
    accuracy,
    communication_overhead,
    false_positive_rate,
)
from reordermon.model import Prefix


def prefixes(*names: str) -> set[Prefix]:
    return {Prefix(0x0A000000 + (int(n) << 8)) for n in names}


def test_accuracy_set_arithmetic() -> None:
    assert accuracy(prefixes("1", "2", "3"), prefixes("1", "2", "4", "5")) == 0.5
    assert accuracy(prefixes("1", "2"), prefixes("1", "2")) == 1.0
    assert accuracy(set(), prefixes("1", "2")) == 0.0


def test_accuracy_monotone_under_inclusion() -> None:
    truth = prefixes("1", "2", "3", "4")
    small = prefixes("1")
    large = prefixes("1", "2", "9")
    assert accuracy(small, truth) <= accuracy(large, truth)


def test_accuracy_empty_truth_is_error() -> None:
    with pytest.raises(UndefinedMetricError):
        accuracy(prefixes("1"), set())


def test_false_positive_rate() -> None:
    assert false_positive_rate(prefixes("1", "9"), prefixes("1", "2")) == 0.5
    assert false_positive_rate(prefixes("1"), prefixes("1", "2")) == 0.0
    # can exceed 1: four wrong outputs against a truth set of two
    assert false_positive_rate(prefixes("5", "6", "7", "8"), prefixes("1", "2")) == 2.0
    with pytest.raises(UndefinedMetricError):
        false_positive_rate(prefixes("1"), set())


def test_communication_overhead() -> None:
    assert communication_overhead(0, 1000) == 0.0
    assert communication_overhead(100, 10_000) == 0.01
    with pytest.raises(ValueError):
        communication_overhead(5, 0)


def test_eval_result_shape() -> None:
    from reordermon.metrics import EvalResult

    res = EvalResult(
        buckets=32,
        hh_fraction=None,
        seed=3,
        accuracy=0.5,
        false_positive_rate=0.1,
        communication_overhead=0.01,
        report_count=10,
        output_size=2,
        truth_size=4,
    )
    assert res.accuracy == 0.5
    assert res.buckets == 32 and res.hh_fraction is None
