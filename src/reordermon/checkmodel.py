"""Monte Carlo validation of the sampler's check-count guarantee.

This models an idealized version of the flow-sampling process: packets are
i.i.d. draws from a flow distribution, a bucket monitors ("checks") one
eligible flow at a time for exactly C+1 of that flow's packets, and only
flows above a minimum conditional probability ever get checked.  Under
those assumptions a prefix hashed to bucket b is checked at least
(1-delta) * t1 * p(g|b) times, except with a probability bounded by three
exponential terms; the simulator measures how often the guarantee holds
over many trials so the analytic bound can be checked empirically.

The real sampler differs on purpose (it does not evict a record that
exceeds C packets until a collision arrives), so this module is a model
validator, not a detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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
        if abs(sum(self.flow_probs) - 1.0) > 1e-9:
            raise ValueError("flow_probs must sum to 1")
        if len(self.flow_probs) != len(self.flow_prefix):
            raise ValueError("flow_probs and flow_prefix must align")
        if not 0.0 < self.epsilon < 1.0 or not 0.0 < self.delta < 1.0:
            raise ValueError("epsilon and delta must lie in (0, 1)")
        if self.packets_per_check < 1:
            raise ValueError("packets_per_check must be >= 1")
        if self.stream_length < 1:
            raise ValueError("stream_length must be >= 1")
        if self.prefix_bucket[self.target_prefix] != self.bucket:
            raise ValueError("target_prefix is not assigned to the studied bucket")

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


def simulate_flow_checks(model: CheckModel, trials: int, seed: int = 0) -> np.ndarray:
    """Per-trial, per-flow check counts (shape: trials x flows).

    Each trial draws ``stream_length`` i.i.d. packets, then walks the
    stream: the first packet of an eligible flow starts a check of that
    flow, which completes once ``packets_per_check`` more of its packets
    arrive; the next eligible packet after completion starts the next
    check.
    """
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
