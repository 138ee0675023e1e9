"""Monte Carlo validation of the sampler's check-count guarantee.

This models an idealized version of the flow-sampling process: packets are
i.i.d. draws from a flow distribution, a bucket monitors ("checks") one
eligible flow at a time for exactly C+1 of that flow's packets, and only
flows above a minimum conditional probability ever get checked.  Under
those assumptions a prefix hashed to bucket b is checked at least
(1-delta) * t1 * p(g|b) times, except with a probability bounded by three
exponential terms; the simulator measures how often the guarantee holds
over many trials so the analytic bound can be checked empirically.

The simulator is vectorized within each trial: an exact table over a
2^12-cell grid of [0, 1) maps draws to flows (a search runs only in the
few cells a cdf value splits), one stable sort by flow (numpy's radix
sort below 2^16 flows) gives every check's successor, and a Python loop
walks those successors, one step per check.  It consumes the seeded draws in the order a per-packet walk does,
so a seed's results do not depend on the implementation; the test suite
holds it equal to such a walk.

The real sampler differs on purpose (it does not evict a record that
exceeds C packets until a collision arrives), so this module is a model
validator, not a detector.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


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
        # the chained comparison is False for NaN as well
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


# cells of the exact flow lookup; a power of two, so u * _GRID is exact
_GRID = 1 << 12


def _flow_lookup(cdf: np.ndarray, flow_type: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """The flow of each grid cell of [0, 1), and the cells that need a search.

    ``searchsorted(cdf, u, side="right")`` takes one value for every u in
    cell k = floor(u * _GRID), unless a cdf value lies strictly inside the
    cell; such a cell is mixed.  A cdf value on a cell edge splits nothing.
    An unsorted cdf (from rounding that leaves an entry above the final
    1.0; negative probabilities are rejected) makes every cell mixed: numpy's
    search over it depends on the order of the keys, so it must see every
    draw, in stream order.
    """
    table = np.searchsorted(cdf, np.arange(_GRID) / _GRID, side="right").astype(flow_type)
    mixed = np.zeros(_GRID, dtype=bool)
    if np.any(np.diff(cdf) < 0):
        mixed[:] = True
    else:
        inside = cdf[(cdf > 0.0) & (cdf < 1.0)] * _GRID
        mixed[inside[inside != np.floor(inside)].astype(np.intp)] = True
    return table, mixed


def simulate_flow_checks(model: CheckModel, trials: int, seed: int = 0) -> np.ndarray:
    """Per-trial, per-flow check counts (shape: trials x flows).

    Each trial draws ``stream_length`` i.i.d. packets, then walks the
    stream: the first packet of an eligible flow starts a check of that
    flow, which completes once ``packets_per_check`` more of its packets
    arrive; the next eligible packet after completion starts the next
    check.

    A check ends on a packet of its own, eligible flow, so the walk never
    needs an ineligible packet: on the eligible substream, the check that
    starts at index r ends at the C-th next packet of r's flow, and the next
    check starts one index later.  Those successors come from one stable
    sort by flow per trial; only the walk along them is a Python loop, one
    step per check.  Draws are consumed exactly as by a per-packet walk
    (one ``rng.random(stream_length)`` per trial, in trial order), so a
    seed gives the same matrix.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    probs = np.asarray(model.flow_probs)
    n_flows = len(probs)
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    _, eligible = model._masks()
    all_eligible = bool(eligible.all())
    C = model.packets_per_check
    # holds every search result 0..n_flows; up to 16 bits, the stable
    # argsort below is numpy's radix sort
    table, mixed = _flow_lookup(cdf, np.min_scalar_type(n_flows))

    out = np.zeros((trials, n_flows), dtype=np.int64)
    for trial in range(trials):
        u = rng.random(model.stream_length)
        cell = (u * _GRID).astype(np.intp)
        draws = table[cell]
        slow = np.flatnonzero(mixed[cell])
        if slow.size:
            draws[slow] = np.searchsorted(cdf, u[slow], side="right")
        if not all_eligible:
            draws = draws[eligible[draws]]
        n = draws.size
        order = np.argsort(draws, kind="stable")
        flows = draws[order]
        # succ[r]: where the next check starts after the one starting at r,
        # or n + 1 if the stream ends before that check completes
        succ = np.full(n, n + 1)
        succ[order[:-C]] = np.where(flows[C:] == flows[:-C], order[C:] + 1, n + 1)
        chain = []
        r = 0
        while r < n:
            chain.append(r)
            r = succ[r]
        if r > n:
            chain.pop()  # the last check never completed
        out[trial] = np.bincount(draws[chain], minlength=n_flows)
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
