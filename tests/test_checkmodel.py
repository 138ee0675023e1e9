from __future__ import annotations

import math

import numpy as np
import pytest

from reordermon.checkmodel import (
    CheckModel,
    empirical_guarantee,
    simulate_check_counts,
    simulate_flow_checks,
)
from reordermon.harness import check_model_presets


def single_flow_model(stream_length: int = 1000, c: int = 8) -> CheckModel:
    return CheckModel(
        flow_probs=(1.0,),
        flow_prefix=(0,),
        prefix_bucket=(0,),
        bucket=0,
        target_prefix=0,
        p_min=0.0,
        packets_per_check=c,
        stream_length=stream_length,
        epsilon=0.5,
        delta=0.5,
    )


def test_single_flow_checks_are_deterministic() -> None:
    # one flow, no eligibility cutoff: a check consumes exactly C+1 packets
    model = single_flow_model(stream_length=1000, c=8)
    counts = simulate_check_counts(model, trials=50, seed=1)
    assert np.all(counts == 1000 // 9)
    model2 = single_flow_model(stream_length=1000, c=3)
    counts2 = simulate_check_counts(model2, trials=20, seed=2)
    assert np.all(counts2 == 250)


def test_zero_p_min_makes_the_bound_vacuous() -> None:
    model = single_flow_model()
    assert model.failure_bound >= 1.0
    result = empirical_guarantee(model, trials=10, seed=0)
    assert result.vacuous and result.holds


def test_two_equal_flows_mean_checks_match_prediction() -> None:
    # small epsilon: the predicted t1 * p(g|b) should sit within 5% of the
    # simulated per-flow mean
    model = CheckModel(
        flow_probs=(0.5, 0.5),
        flow_prefix=(0, 1),
        prefix_bucket=(0, 0),
        bucket=0,
        target_prefix=0,
        p_min=0.4,
        packets_per_check=16,
        stream_length=20_000,
        epsilon=0.05,
        delta=0.5,
    )
    predicted = model.t1 * model.target_conditional_prob
    counts = simulate_check_counts(model, trials=300, seed=3)
    mean = float(counts.mean())
    assert abs(mean - predicted) / predicted < 0.05


def test_derived_quantities() -> None:
    model = CheckModel(
        flow_probs=(0.5, 0.25, 0.25),
        flow_prefix=(0, 0, 1),
        prefix_bucket=(0, 1),
        bucket=0,
        target_prefix=0,
        p_min=0.4,  # only the 0.5 flow is eligible: 0.5/0.75 vs 0.25/0.75
        packets_per_check=4,
        stream_length=1000,
        epsilon=0.5,
        delta=0.5,
    )
    assert model.bucket_prob == pytest.approx(0.75)
    assert model.eligible_flow_count == 1
    assert model.target_conditional_prob == pytest.approx(0.5 / 0.75)
    assert model.t1 == math.floor(1000 * 0.75 / (1.25 * 4 * 1))


def test_model_validation() -> None:
    with pytest.raises(ValueError):
        CheckModel((0.5, 0.4), (0, 1), (0, 0), 0, 0, 0.0, 4, 100, 0.5, 0.5)
    with pytest.raises(ValueError):
        CheckModel((1.0,), (0,), (1,), 0, 0, 0.0, 4, 100, 0.5, 0.5)  # wrong bucket
    with pytest.raises(ValueError):
        CheckModel((1.0,), (0,), (0,), 0, 0, 0.0, 0, 100, 0.5, 0.5)


def test_presets_have_usable_bounds() -> None:
    presets = check_model_presets()
    assert len(presets) >= 3
    for name, model in presets.items():
        assert model.failure_bound < 0.5, name
        assert model.t1 > 0


def test_preset_guarantees_hold_at_small_scale() -> None:
    for name, model in check_model_presets().items():
        result = empirical_guarantee(model, trials=300, seed=7)
        assert not result.vacuous
        assert result.holds, name


def test_added_heavy_flow_barely_changes_small_flow_checks() -> None:
    # fifty small flows in the studied bucket; background traffic moves from
    # another bucket into a heavy flow in this bucket, growing the bucket's
    # share of the stream while the small flows keep their own rates
    smalls = (0.01,) * 50
    base = CheckModel(
        flow_probs=smalls + (0.5,),
        flow_prefix=tuple(range(50)) + (50,),
        prefix_bucket=(0,) * 50 + (1,),
        bucket=0,
        target_prefix=0,
        p_min=0.005,
        packets_per_check=8,
        stream_length=20_000,
        epsilon=0.5,
        delta=0.5,
    )
    plus_heavy = CheckModel(
        flow_probs=smalls + (0.25, 0.25),
        flow_prefix=tuple(range(50)) + (50, 51),
        prefix_bucket=(0,) * 50 + (1, 0),
        bucket=0,
        target_prefix=0,
        p_min=0.005,
        packets_per_check=8,
        stream_length=20_000,
        epsilon=0.5,
        delta=0.5,
    )
    trials = 1500
    before = simulate_flow_checks(base, trials, seed=11)[:, 0].mean()
    after = simulate_flow_checks(plus_heavy, trials, seed=11)[:, 0].mean()
    assert before > 0
    assert abs(after - before) / before < 0.10


def test_flow_checks_matrix_shape() -> None:
    model = check_model_presets()["two-equal-flows"]
    matrix = simulate_flow_checks(model, trials=5, seed=0)
    assert matrix.shape == (5, 2)
    assert np.all(matrix >= 0)
