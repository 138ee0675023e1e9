from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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


@pytest.mark.parametrize(
    "probs",
    [(math.nan,), (1.5, -0.5), (math.inf, -math.inf), (math.inf,), (-0.0, -1e-12, 1.0), (True,)],
)
def test_model_rejects_bad_flow_probs(probs: tuple) -> None:
    flows = tuple(range(len(probs)))
    with pytest.raises(ValueError, match="flow_probs"):
        CheckModel(probs, flows, (0,) * len(probs), 0, 0, 0.0, 4, 100, 0.5, 0.5)


@pytest.mark.parametrize(
    "field,value",
    [
        ("target_prefix", 0.5),
        ("stream_length", 10.5),
        ("packets_per_check", 2.5),
        ("bucket", 0.0),
        ("stream_length", True),
        ("flow_prefix", (0.0,)),
        ("prefix_bucket", (False,)),
        ("flow_prefix", (1,)),
        ("target_prefix", -1),
        ("epsilon", "0.5"),
    ],
)
def test_model_rejects_bad_field_values(field: str, value) -> None:
    fields = dict(
        flow_probs=(1.0,), flow_prefix=(0,), prefix_bucket=(0,), bucket=0, target_prefix=0,
        p_min=0.0, packets_per_check=4, stream_length=100, epsilon=0.5, delta=0.5,
    )
    fields[field] = value
    with pytest.raises(ValueError, match=field):
        CheckModel(**fields)


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


# --- the vectorized walk against a per-packet reference ------------------------


def reference_flow_checks(model: CheckModel, trials: int, seed: int = 0) -> np.ndarray:
    """The per-packet walk: each check looks up its flow's packet positions
    and searches them for its end, then searches for the next eligible packet."""
    rng = np.random.default_rng(seed)
    probs = np.asarray(model.flow_probs)
    n_flows = len(probs)
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    _, eligible = model._masks()
    C = model.packets_per_check

    out = np.zeros((trials, n_flows), dtype=np.int64)
    for trial in range(trials):
        draws = np.searchsorted(cdf, rng.random(model.stream_length), side="right")
        order = np.argsort(draws, kind="stable")
        counts = np.bincount(draws, minlength=n_flows)
        offsets = np.zeros(n_flows + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        elig_pos = np.flatnonzero(eligible[draws])
        if elig_pos.size == 0:
            continue
        checks = out[trial]
        i = int(elig_pos[0])
        while True:
            f = draws[i]
            pos_f = order[offsets[f] : offsets[f + 1]]
            rank = int(np.searchsorted(pos_f, i))
            if rank + C >= len(pos_f):
                break  # stream ends before the check completes
            end = int(pos_f[rank + C])
            checks[f] += 1
            nxt = int(np.searchsorted(elig_pos, end, side="right"))
            if nxt >= len(elig_pos):
                break
            i = int(elig_pos[nxt])
    return out


def assert_matches_reference(model: CheckModel, trials: int, seed: int) -> None:
    fast = simulate_flow_checks(model, trials, seed)
    ref = reference_flow_checks(model, trials, seed)
    assert fast.dtype == ref.dtype == np.int64
    assert np.array_equal(fast, ref)


@pytest.mark.parametrize("name", sorted(check_model_presets()))
@pytest.mark.parametrize(
    "trials,seed",
    [(trials, seed) for trials in (1, 7) for seed in (0, 1, 5, 2024)] + [(300, 0), (300, 2024)],
)
def test_presets_match_reference(name: str, trials: int, seed: int) -> None:
    assert_matches_reference(check_model_presets()[name], trials, seed)


def small_model(probs: tuple[float, ...], c: int = 2, stream_length: int = 300) -> CheckModel:
    return CheckModel(
        flow_probs=probs,
        flow_prefix=tuple(range(len(probs))),
        prefix_bucket=(0,) * len(probs),
        bucket=0,
        target_prefix=0,
        p_min=0.0,
        packets_per_check=c,
        stream_length=stream_length,
        epsilon=0.5,
        delta=0.5,
    )


def test_unsorted_cdf_matches_reference() -> None:
    # rounding that leaves one or more entries above the final 1.0 makes the
    # cumulative distribution unsorted; numpy's search over an unsorted
    # array depends on the order of its keys
    for probs in ((0.2, 0.8 + 5e-10, 0.0, 0.0, 0.0), (0.5, 0.5 + 4e-10, 0.0)):
        assert_matches_reference(small_model(probs), trials=5, seed=9)


def test_cdf_values_in_first_and_last_grid_cell_match_reference() -> None:
    # 0.0001 and 0.9999 lie inside the lookup grid's first and last cells
    model = small_model((0.0001, 0.9998, 0.0001), c=1, stream_length=20_000)
    assert_matches_reference(model, trials=3, seed=4)


def random_model(
    layout_seed: int,
    n_flows: int,
    dyadic_bits: int | None,
    n_prefixes: int,
    p_min: float,
    c: int,
    stream_length: int,
) -> CheckModel:
    """A small random model.  With ``dyadic_bits`` set, the probabilities
    are multiples of 2**-dyadic_bits summing to exactly 1, so every cdf
    value sits on an edge of the simulator's 2**12-cell lookup grid when
    dyadic_bits <= 12; otherwise they are integer weights over their sum."""
    gen = np.random.default_rng(layout_seed)
    if dyadic_bits is None:
        weights = gen.integers(0, 5, n_flows)
        weights[gen.integers(n_flows)] += 1
        probs = weights / weights.sum()
    else:
        total = 1 << dyadic_bits
        cuts = np.sort(gen.integers(0, total + 1, n_flows - 1))
        probs = np.diff(np.concatenate(([0], cuts, [total]))) / total
    flow_prefix = gen.integers(0, n_prefixes, n_flows)
    prefix_bucket = gen.integers(0, 3, n_prefixes)
    # the target's bucket must carry probability mass
    target = int(flow_prefix[gen.choice(np.flatnonzero(probs > 0))])
    return CheckModel(
        flow_probs=tuple(probs.tolist()),
        flow_prefix=tuple(flow_prefix.tolist()),
        prefix_bucket=tuple(prefix_bucket.tolist()),
        bucket=int(prefix_bucket[target]),
        target_prefix=target,
        p_min=p_min,
        packets_per_check=c,
        stream_length=stream_length,
        epsilon=0.5,
        delta=0.5,
    )


@settings(max_examples=60, deadline=None)
@given(
    layout_seed=st.integers(0, 2**32 - 1),
    # up to 255 flows the walk sorts uint8 flow ids, from 256 on uint16
    n_flows=st.one_of(st.integers(1, 12), st.integers(250, 300)),
    dyadic_bits=st.sampled_from([None, 0, 4, 12, 13, 16]),
    n_prefixes=st.integers(1, 6),
    # 1.5 leaves no flow eligible
    p_min=st.sampled_from([0.0, 0.05, 0.3, 1.5]),
    c=st.integers(1, 6),
    stream_length=st.integers(1, 400),
    trials=st.integers(1, 3),
    seed=st.integers(0, 10_000),
)
# cdf values on grid edges, with more than 255 flows
@example(0, 300, 4, 4, 0.0, 1, 400, 2, 0)
@example(8, 256, 4, 5, 0.05, 1, 400, 2, 1)
# no eligible flow
@example(1, 6, None, 2, 1.5, 2, 200, 2, 2)
# every check is incomplete: the stream is no longer than C
@example(2, 3, None, 1, 0.0, 5, 5, 2, 3)
# flows in other buckets, ineligible flows in the studied one
@example(1, 10, None, 6, 0.05, 2, 300, 3, 4)
def test_simulation_matches_reference_property(
    layout_seed: int,
    n_flows: int,
    dyadic_bits: int | None,
    n_prefixes: int,
    p_min: float,
    c: int,
    stream_length: int,
    trials: int,
    seed: int,
) -> None:
    model = random_model(layout_seed, n_flows, dyadic_bits, n_prefixes, p_min, c, stream_length)
    assert_matches_reference(model, trials, seed)


@pytest.mark.parametrize("trials", [0, -3])
def test_trials_below_one_rejected(trials: int) -> None:
    model = check_model_presets()["two-equal-flows"]
    with pytest.raises(ValueError, match="trials"):
        simulate_flow_checks(model, trials, seed=0)
    with pytest.raises(ValueError, match="trials"):
        empirical_guarantee(model, trials, seed=0)
