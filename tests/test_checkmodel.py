from __future__ import annotations

import bisect
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reordermon.checkmodel import (
    _BLOCK,
    _LAM_CAP,
    _SPAN_ROOM,
    CheckModel,
    check_model_presets,
    empirical_guarantee,
    simulate_check_counts,
    simulate_flow_checks,
)


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
        ("stream_length", 2**60 + 1),
        ("p_min", math.nan),
        ("p_min", math.inf),
        ("p_min", -math.inf),
        ("p_min", -0.1),
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


def test_model_rejects_a_bucket_without_mass() -> None:
    # prefix 1 is alone in bucket 1, and its only flow never sends a packet
    with pytest.raises(ValueError, match="bucket"):
        CheckModel((1.0, 0.0), (0, 1), (0, 1), 1, 1, 0.0, 4, 100, 0.5, 0.5)


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


# --- the check-level sampler against the per-packet walk ------------------------


def walk_checks(draws: np.ndarray, eligible: np.ndarray, c: int) -> np.ndarray:
    """Per-flow checks of one stream (an array of flow ids), walked packet
    by packet: the first packet of an eligible flow starts a check of that
    flow, which completes at its flow's C-th next packet; the next eligible
    packet after that starts the next check."""
    n_flows = len(eligible)
    checks = np.zeros(n_flows, dtype=np.int64)
    order = np.argsort(draws, kind="stable")
    offsets = np.zeros(n_flows + 1, dtype=np.int64)
    np.cumsum(np.bincount(draws, minlength=n_flows), out=offsets[1:])
    positions = [order[offsets[f] : offsets[f + 1]].tolist() for f in range(n_flows)]
    elig_pos = np.flatnonzero(eligible[draws]).tolist()
    if not elig_pos:
        return checks
    i = elig_pos[0]
    while True:
        f = int(draws[i])
        pos_f = positions[f]
        rank = bisect.bisect_left(pos_f, i)
        if rank + c >= len(pos_f):
            return checks  # the stream ends before the check completes
        end = pos_f[rank + c]
        checks[f] += 1
        nxt = bisect.bisect_right(elig_pos, end)
        if nxt >= len(elig_pos):
            return checks
        i = elig_pos[nxt]


def reference_flow_checks(model: CheckModel, trials: int, seed: int = 0) -> np.ndarray:
    """The per-packet walk over ``trials`` streams of i.i.d. packets."""
    rng = np.random.default_rng(seed)
    probs = np.asarray(model.flow_probs)
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    _, eligible = model._masks()
    # small flow ids: the walk's stable argsort is numpy's radix sort
    flow_type = np.min_scalar_type(len(probs))
    out = np.zeros((trials, len(probs)), dtype=np.int64)
    for trial in range(trials):
        u = rng.random(model.stream_length)
        draws = np.searchsorted(cdf, u, side="right").astype(flow_type)
        out[trial] = walk_checks(draws, eligible, model.packets_per_check)
    return out


def exact_law(model: CheckModel) -> dict[tuple[int, ...], float]:
    """The exact law of the per-flow check counts: every stream walked."""
    probs = model.flow_probs
    _, eligible = model._masks()
    law: dict[tuple[int, ...], float] = {}
    for stream in itertools.product(range(len(probs)), repeat=model.stream_length):
        weight = math.prod(probs[f] for f in stream)
        counts = tuple(walk_checks(np.array(stream), eligible, model.packets_per_check).tolist())
        law[counts] = law.get(counts, 0.0) + weight
    return law


def tiny_model(
    probs: tuple[float, ...], c: int, stream_length: int, p_min: float = 0.0,
    prefix_bucket: tuple[int, ...] | None = None,
) -> CheckModel:
    """One flow per prefix, every prefix in bucket 0 unless told otherwise."""
    return CheckModel(
        flow_probs=probs,
        flow_prefix=tuple(range(len(probs))),
        prefix_bucket=prefix_bucket or (0,) * len(probs),
        bucket=0,
        target_prefix=0,
        p_min=p_min,
        packets_per_check=c,
        stream_length=stream_length,
        epsilon=0.5,
        delta=0.5,
    )


@pytest.mark.parametrize(
    "model",
    [
        # the 0.2 flow is ineligible: 0.2 < p_min
        tiny_model((0.5, 0.3, 0.2), c=2, stream_length=9, p_min=0.25),
        tiny_model((0.6, 0.4), c=1, stream_length=12),
        # the 0.25 flow hashes to another bucket
        tiny_model((0.45, 0.3, 0.25), c=2, stream_length=9, prefix_bucket=(0, 0, 1)),
    ],
    ids=["ineligible-flow", "two-flows", "other-bucket"],
)
def test_sampler_law_matches_enumerated_walk(model: CheckModel) -> None:
    # an off-by-one start or end moves this distance to ~0.1
    law = exact_law(model)
    assert math.isclose(sum(law.values()), 1.0)
    sample = simulate_flow_checks(model, trials=200_000, seed=12)
    outcomes, counts = np.unique(sample, axis=0, return_counts=True)
    observed = {tuple(row.tolist()): n / len(sample) for row, n in zip(outcomes, counts)}
    distance = 0.5 * sum(
        abs(law.get(key, 0.0) - observed.get(key, 0.0)) for key in law.keys() | observed.keys()
    )
    assert distance <= 0.02


@pytest.mark.parametrize("name", sorted(check_model_presets()))
def test_preset_means_match_reference(name: str) -> None:
    model = check_model_presets()[name]
    trials = 2_000
    fast = simulate_flow_checks(model, trials, seed=31)
    ref = reference_flow_checks(model, trials, seed=32)
    assert fast.shape == ref.shape and fast.dtype == ref.dtype == np.int64
    stderr = np.sqrt((fast.var(axis=0) + ref.var(axis=0)) / trials)
    diff = np.abs(fast.mean(axis=0) - ref.mean(axis=0))
    assert np.all((diff <= 4 * stderr) | (diff == 0)), (diff, stderr)


# --- the vectorized sampler against a scalar transcription of it ----------------


def renewal_reference_flow_checks(model: CheckModel, trials: int, seed: int = 0) -> np.ndarray:
    """The renewal process of checks, walked one candidate check at a time
    in Python integers, with no span capped: from the last end (-1 at the
    start) the next check starts a geometric gap later and ends C plus a
    negative binomial count of positions after its start; it counts if it
    ends at a position <= stream_length - 1.  It makes the sampler's numpy
    draws in the same order for the same blocks of trials, so a seed gives
    both the same matrix."""
    rng = np.random.default_rng(seed)
    probs = np.asarray(model.flow_probs, dtype=float)
    _, eligible = model._masks()
    out = np.zeros((trials, len(probs)), dtype=np.int64)
    flows = np.flatnonzero(eligible & (probs > 0.0)).tolist()
    L = model.stream_length
    C = model.packets_per_check
    if not flows or C >= L:
        return out
    p = probs[flows]
    q = min(1.0, p.sum() / probs.sum())
    cdf = np.cumsum(p) / p.sum()
    cdf[-1] = 1.0
    cdf = cdf.tolist()
    p = p.tolist()
    last_end = [-1] * trials
    queue = list(range(trials))
    while queue:
        rows, queue = queue[:_BLOCK], queue[_BLOCK:]
        k = max(1, min(_BLOCK // len(rows), _SPAN_ROOM // (L + 1)))
        u = rng.random((len(rows), k)).tolist()
        picks = [[bisect.bisect_right(cdf, x) for x in row] for row in u]
        gamma = rng.standard_gamma(C, (len(rows), k)).tolist()
        # NegBin(C, p) drawn as Poisson(Gamma(C) * (1 - p) / p)
        lam = [
            [min(g * ((1.0 - p[f]) / p[f]), _LAM_CAP) for g, f in zip(g_row, f_row)]
            for g_row, f_row in zip(gamma, picks)
        ]
        gaps = rng.geometric(q, (len(rows), k)).tolist()
        extra = rng.poisson(lam).tolist()
        going_on = []
        for trial, f_row, gap_row, extra_row in zip(rows, picks, gaps, extra):
            for f, gap, more in zip(f_row, gap_row, extra_row):
                end = last_end[trial] + gap + C + more
                if end > L - 1:
                    break
                out[trial, flows[f]] += 1
                last_end[trial] = end
            else:
                going_on.append(trial)
        queue = going_on + queue
    return out


def assert_matches_reference(model: CheckModel, trials: int, seed: int) -> None:
    fast = simulate_flow_checks(model, trials, seed)
    ref = renewal_reference_flow_checks(model, trials, seed)
    assert fast.dtype == ref.dtype == np.int64
    assert np.array_equal(fast, ref)


@pytest.mark.parametrize("name", sorted(check_model_presets()))
@pytest.mark.parametrize(
    "trials,seed",
    [(trials, seed) for trials in (1, 7) for seed in (0, 1, 5, 2024)] + [(300, 0), (300, 2024)],
)
def test_presets_match_reference(name: str, trials: int, seed: int) -> None:
    assert_matches_reference(check_model_presets()[name], trials, seed)


def test_unsorted_cdf_matches_reference() -> None:
    # probabilities that sum a little above 1 leave the sampler's eligible
    # cdf sorted: it is normalized by the eligible mass, its last entry 1.0
    for probs in ((0.2, 0.8 + 5e-10, 0.0, 0.0, 0.0), (0.5, 0.5 + 4e-10, 0.0)):
        assert_matches_reference(tiny_model(probs, c=2, stream_length=300), trials=5, seed=9)


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
    are multiples of 2**-dyadic_bits summing to exactly 1, so the eligible
    cdf holds exact ties and zero-width steps; otherwise they are integer
    weights over their sum."""
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
# dyadic probabilities, with more than 255 flows
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


def test_no_eligible_flow_gives_zeros() -> None:
    model = tiny_model((0.5, 0.3, 0.2), c=2, stream_length=500, p_min=1.5)
    assert model.eligible_flow_count == 0
    assert not simulate_flow_checks(model, trials=20, seed=0).any()


@pytest.mark.parametrize("stream_length", [1, 4, 5])
def test_stream_no_longer_than_c_gives_zeros(stream_length: int) -> None:
    model = tiny_model((0.6, 0.4), c=5, stream_length=stream_length)
    assert not simulate_flow_checks(model, trials=50, seed=1).any()


def test_stream_of_c_plus_one_packets_completes_at_most_one_check() -> None:
    model = tiny_model((1.0,), c=5, stream_length=6)
    assert np.all(simulate_flow_checks(model, trials=10, seed=1) == 1)


def test_zero_probability_eligible_flow_is_never_checked() -> None:
    model = tiny_model((0.0, 0.6, 0.0, 0.4), c=2, stream_length=400)
    assert model.eligible_flow_count == 4
    counts = simulate_flow_checks(model, trials=500, seed=2)
    assert not counts[:, [0, 2]].any()
    assert counts[:, [1, 3]].all()


@pytest.mark.parametrize(
    "probs,prefix_bucket,stream_length",
    [
        # the only flow of the studied bucket is tiny: q is tiny as well
        ((1e-300, 1.0), (0, 1), 10**6),
        ((1e-300, 1.0), (0, 1), 2**60),
        # a tiny eligible flow next to a heavy one
        ((1e-300, 1.0), (0, 0), 5_000),
    ],
)
def test_tiny_eligible_flow_raises_and_overflows_nothing(
    probs: tuple[float, ...], prefix_bucket: tuple[int, ...], stream_length: int
) -> None:
    model = tiny_model(probs, c=3, stream_length=stream_length, prefix_bucket=prefix_bucket)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        counts = simulate_flow_checks(model, trials=200, seed=3)
    assert not counts[:, 0].any()
    assert np.all(counts[:, 1] == (stream_length // 4 if prefix_bucket == (0, 0) else 0))


def test_same_seed_gives_same_matrix() -> None:
    model = check_model_presets()["one-heavy"]
    first = simulate_flow_checks(model, trials=40, seed=5)
    assert np.array_equal(first, simulate_flow_checks(model, trials=40, seed=5))
    assert not np.array_equal(first, simulate_flow_checks(model, trials=40, seed=6))


@pytest.mark.parametrize("trials", [0, -3])
def test_trials_below_one_rejected(trials: int) -> None:
    model = check_model_presets()["two-equal-flows"]
    with pytest.raises(ValueError, match="trials"):
        simulate_flow_checks(model, trials, seed=0)
    with pytest.raises(ValueError, match="trials"):
        empirical_guarantee(model, trials, seed=0)
