"""Monte Carlo validation of the sampler's check-count guarantee.

This models an idealized version of the flow-sampling process: packets are
i.i.d. draws from a flow distribution, a bucket monitors ("checks") one
eligible flow at a time for exactly C+1 of that flow's packets, and only
flows above a minimum conditional probability ever get checked.  Under
those assumptions a prefix hashed to bucket b is checked at least
(1-delta) * t1 * p(g|b) times, except with a probability bounded by three
exponential terms; the simulator measures how often the guarantee holds
over many trials so the analytic bound can be checked empirically.

The simulator draws checks, not packets.  Packets are i.i.d., so the
stream has no memory: after a check ends, the next one starts a geometric
number of positions later, checks a flow drawn in proportion to its
probability among the eligible flows, and lasts C plus a negative binomial
number of positions.  Sampling that renewal process directly, in blocks
vectorized across trials, costs O(checks) instead of O(stream length).  The
test suite holds its law to a per-packet walk, exactly on tiny models
(every stream enumerated) and in the per-flow means on the presets.

The real sampler differs on purpose (it does not evict a record that
exceeds C packets until a collision arrives), so this module is a model
validator, not a detector.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

# longest stream a model may ask for: the sampler's int64 positions stay exact
_MAX_STREAM = 1 << 60


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class CheckModel:
    """Flow/prefix/bucket layout and the guarantee's parameters.

    ``flow_probs`` must sum to 1; ``prefix_bucket`` maps every prefix id to
    a bucket id; the guarantee is evaluated for ``target_prefix`` inside
    ``bucket``.  A check consumes exactly ``packets_per_check`` + 1 packets
    of the checked flow.
    """

    flow_probs: tuple[float, ...]
    flow_prefix: tuple[int, ...]
    prefix_bucket: tuple[int, ...]
    bucket: int
    target_prefix: int
    p_min: float
    packets_per_check: int
    stream_length: int
    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        # values may come from a JSON file: check types before arithmetic
        for name in ("bucket", "target_prefix", "packets_per_check", "stream_length"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer")
        for name in ("flow_prefix", "prefix_bucket"):
            if not all(_is_int(v) for v in getattr(self, name)):
                raise ValueError(f"{name} entries must be integers")
        for name in ("p_min", "epsilon", "delta"):
            if not _is_real(getattr(self, name)):
                raise ValueError(f"{name} must be a number")
        # the chained comparisons are False for NaN as well
        if not 0.0 <= self.p_min < math.inf:
            raise ValueError("p_min must be finite and >= 0")
        if not all(_is_real(p) and 0.0 <= p < math.inf for p in self.flow_probs):
            raise ValueError("flow_probs entries must be finite and >= 0")
        n_prefixes = len(self.prefix_bucket)
        if not all(0 <= v < n_prefixes for v in self.flow_prefix):
            raise ValueError("flow_prefix entries must index prefix_bucket")
        if not 0 <= self.target_prefix < n_prefixes:
            raise ValueError("target_prefix must index prefix_bucket")
        if abs(sum(self.flow_probs) - 1.0) > 1e-9:
            raise ValueError("flow_probs must sum to 1")
        if len(self.flow_probs) != len(self.flow_prefix):
            raise ValueError("flow_probs and flow_prefix must align")
        if not 0.0 < self.epsilon < 1.0 or not 0.0 < self.delta < 1.0:
            raise ValueError("epsilon and delta must lie in (0, 1)")
        if self.packets_per_check < 1:
            raise ValueError("packets_per_check must be >= 1")
        if not 1 <= self.stream_length <= _MAX_STREAM:
            raise ValueError("stream_length must lie in [1, 2**60]")
        if self.prefix_bucket[self.target_prefix] != self.bucket:
            raise ValueError("target_prefix is not assigned to the studied bucket")
        bucket_mass = sum(
            p
            for p, prefix in zip(self.flow_probs, self.flow_prefix)
            if self.prefix_bucket[prefix] == self.bucket
        )
        if bucket_mass == 0.0:
            raise ValueError("the studied bucket carries no probability mass")

    @classmethod
    def from_dict(cls, raw: dict) -> CheckModel:
        """A model from a decoded JSON object whose keys are exactly the
        field names; the three per-flow/per-prefix fields are lists."""
        names = [f.name for f in fields(cls)]
        missing = [name for name in names if name not in raw]
        if missing:
            raise ValueError("missing key(s): " + ", ".join(missing))
        unknown = sorted(raw.keys() - set(names))
        if unknown:
            raise ValueError("unknown key(s): " + ", ".join(unknown))
        for key in ("flow_probs", "flow_prefix", "prefix_bucket"):
            if not isinstance(raw[key], list):
                raise ValueError(f"{key} must be a list")
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()})

    # --- derived quantities --------------------------------------------------

    def _masks(self) -> tuple[np.ndarray, np.ndarray]:
        probs = np.asarray(self.flow_probs)
        prefix = np.asarray(self.flow_prefix)
        bucket_of_flow = np.asarray(self.prefix_bucket)[prefix]
        in_bucket = bucket_of_flow == self.bucket
        p_b = probs[in_bucket].sum()
        eligible = in_bucket & (probs / p_b >= self.p_min)
        return in_bucket, eligible

    @property
    def bucket_prob(self) -> float:
        in_bucket, _ = self._masks()
        return float(np.asarray(self.flow_probs)[in_bucket].sum())

    @property
    def eligible_flow_count(self) -> int:
        _, eligible = self._masks()
        return int(eligible.sum())

    @property
    def target_conditional_prob(self) -> float:
        """p(g|b): eligible probability mass of the target prefix within b."""
        _, eligible = self._masks()
        probs = np.asarray(self.flow_probs)
        prefix = np.asarray(self.flow_prefix)
        mass = probs[eligible & (prefix == self.target_prefix)].sum()
        return float(mass / self.bucket_prob)

    @property
    def t1(self) -> int:
        f_b = self.eligible_flow_count
        if f_b == 0:
            return 0
        return math.floor(
            self.stream_length
            * self.bucket_prob
            / ((1.0 + self.epsilon / 2.0) * self.packets_per_check * f_b)
        )

    @property
    def check_threshold(self) -> float:
        return (1.0 - self.delta) * self.t1 * self.target_conditional_prob

    @property
    def failure_bound(self) -> float:
        """Sum of the three exponential failure terms; may exceed 1, in
        which case the guarantee is vacuous."""
        c = self.packets_per_check
        f_b = self.eligible_flow_count
        t1 = self.t1
        term1 = math.exp(-self.p_min * t1 * c * f_b * self.epsilon**2 / 24.0)
        term2 = math.exp(-(self.epsilon**2) * self.stream_length * self.bucket_prob / 3.0)
        term3 = math.exp(-(self.delta**2) * t1 * self.target_conditional_prob / 2.0)
        return term1 + term2 + term3


# candidate checks drawn per numpy call, whatever the trial count or
# stream length: enough to amortize the call, few enough to stay in cache
_BLOCK = 4096
# spans are capped at stream_length + 1, and one row of a block sums at most
# this much of them, so the int64 check ends never overflow
_SPAN_ROOM = 1 << 62
# numpy's Poisson sampler takes no larger mean; a tail this long never
# completes, since stream_length <= _MAX_STREAM
_LAM_CAP = float(1 << 62)


def simulate_flow_checks(model: CheckModel, trials: int, seed: int = 0) -> np.ndarray:
    """Per-trial, per-flow check counts (shape: trials x flows).

    The process is the per-packet walk over ``stream_length`` i.i.d.
    packets: the first packet of an eligible flow starts a check of that
    flow, which completes once ``packets_per_check`` (C) more of its packets
    arrive; the next eligible packet after completion starts the next
    check.  Only completed checks count.

    Packets are i.i.d., so after each check's end the stream starts afresh,
    and the sampler draws whole checks instead of packets: the next check
    starts Geometric(q) positions after the last end (q the eligible
    probability mass; the first start is at Geometric(q) - 1), checks a
    flow f drawn in proportion to p_f among the eligible flows, and ends
    C + NegBin(C, p_f) positions after its start, where NegBin counts the
    other packets before f's C-th.  A check counts if it ends at a position
    <= stream_length - 1.  The work is O(checks), not O(stream_length).

    Candidate checks are drawn in blocks of about ``_BLOCK``, vectorized
    across the unfinished trials.  The law is that of the per-packet walk
    (the test suite compares the two); a seed fixes the matrix, but it is
    not the walk's sample for that seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    probs = np.asarray(model.flow_probs, dtype=float)
    _, eligible = model._masks()
    out = np.zeros((trials, len(probs)), dtype=np.int64)
    # a zero-probability flow never sends the packet that would start a check
    flows = np.flatnonzero(eligible & (probs > 0.0))
    L = model.stream_length
    C = model.packets_per_check
    if flows.size == 0 or C >= L:  # a check needs C + 1 packets
        return out
    p = probs[flows]
    q = min(1.0, p.sum() / probs.sum())
    cdf = np.cumsum(p) / p.sum()
    cdf[-1] = 1.0
    # NegBin(C, p) is Poisson(Gamma(C) * (1 - p) / p), as numpy draws it; numpy's
    # own negative_binomial refuses p below ~1e-18
    with np.errstate(over="ignore"):  # an infinite ratio is capped below
        odds = (1.0 - p) / p
    cap = L + 1  # a longer span cannot end inside the stream
    # positions left after each trial's last completed check
    room = np.full(trials, L, dtype=np.int64)
    active = np.arange(trials)
    while active.size:
        rows = active[:_BLOCK]
        m = rows.size
        k = max(1, min(_BLOCK // m, _SPAN_ROOM // cap))
        pick = np.searchsorted(cdf, rng.random((m, k)), side="right")
        with np.errstate(over="ignore"):  # inf is capped
            lam = np.minimum(rng.standard_gamma(C, (m, k)) * odds[pick], _LAM_CAP)
        # geometric saturates at the int64 maximum for tiny q
        span = np.minimum(rng.geometric(q, (m, k)), cap) + C + np.minimum(rng.poisson(lam), cap)
        ends = np.cumsum(np.minimum(span, cap), axis=1)
        # spans are >= 1, so each row's fitting checks are a prefix
        fits = ends <= room[rows, None]
        n_fit = fits.sum(axis=1)
        np.add.at(out, (np.repeat(rows, n_fit), flows[pick[fits]]), 1)
        room[rows] -= np.where(n_fit > 0, ends[np.arange(m), n_fit - 1], 0)
        # a trial whose block ran past the stream's end is finished
        active = np.concatenate((rows[n_fit == k], active[_BLOCK:]))
    return out


def simulate_check_counts(model: CheckModel, trials: int, seed: int = 0) -> np.ndarray:
    """Per-trial number of checks the target prefix receives."""
    _, eligible = model._masks()
    prefix = np.asarray(model.flow_prefix)
    target_flows = eligible & (prefix == model.target_prefix)
    per_flow = simulate_flow_checks(model, trials, seed)
    return per_flow[:, target_flows].sum(axis=1)


@dataclass(frozen=True)
class GuaranteeResult:
    threshold_checks: float
    success_fraction: float
    failure_bound: float
    trials: int
    mean_checks: float
    vacuous: bool

    @property
    def holds(self) -> bool:
        return self.vacuous or self.success_fraction >= 1.0 - self.failure_bound


def empirical_guarantee(model: CheckModel, trials: int, seed: int = 0) -> GuaranteeResult:
    """Measure how often the check-count guarantee holds.

    When the analytic failure bound is >= 1 the guarantee is vacuous and the
    result is flagged instead of asserted.
    """
    bound = model.failure_bound
    counts = simulate_check_counts(model, trials, seed)
    threshold = model.check_threshold
    success = float(np.mean(counts >= threshold))
    return GuaranteeResult(
        threshold_checks=threshold,
        success_fraction=success,
        failure_bound=bound,
        trials=trials,
        mean_checks=float(counts.mean()),
        vacuous=bound >= 1.0,
    )


# --- presets ----------------------------------------------------------------


def check_model_presets() -> dict[str, CheckModel]:
    """Hand-built flow distributions whose analytic failure bound is small
    enough to test the check-count guarantee empirically."""
    two_flows = CheckModel(
        flow_probs=(0.5, 0.5),
        flow_prefix=(0, 1),
        prefix_bucket=(0, 0),
        bucket=0,
        target_prefix=0,
        p_min=0.4,
        packets_per_check=8,
        stream_length=8_000,
        epsilon=0.5,
        delta=0.5,
    )
    uniform_fifty = CheckModel(
        flow_probs=(0.02,) * 50,
        flow_prefix=(0,) * 10 + tuple(range(1, 41)),
        prefix_bucket=(0,) * 41,
        bucket=0,
        target_prefix=0,
        p_min=0.01,
        packets_per_check=8,
        stream_length=24_000,
        epsilon=0.6,
        delta=0.6,
    )
    one_heavy = CheckModel(
        flow_probs=(0.5,) + (0.025,) * 20,
        flow_prefix=(0,) + tuple(1 + (i // 5) for i in range(20)),
        prefix_bucket=(0,) * 5,
        bucket=0,
        target_prefix=1,
        p_min=0.01,
        packets_per_check=8,
        stream_length=20_000,
        epsilon=0.6,
        delta=0.5,
    )
    return {
        "two-equal-flows": two_flows,
        "uniform-fifty": uniform_fifty,
        "one-heavy": one_heavy,
    }
