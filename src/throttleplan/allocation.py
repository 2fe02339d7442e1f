"""Shared-link allocation model for threshold/rate throttling plans.

A plan (T, r) throttles a user to rate r once their consumption in a billing
cycle exceeds the threshold T.  Over a cycle a throttled user consumes
T + r * y * (1 - T / d) where d is their unthrottled demand and y their
post-throttle activity; unthrottled users consume d.  Which users end up
throttled depends on the access mode:

* download: a user is throttled iff d > max(T, r).  Demands fold the
  activity in (they would finish the same bytes sooner at a higher rate),
  so the post-throttle activity is 1.
* streaming: a user is throttled iff d > T and their rate exceeds r.
  Streams cannot time-shift, so activity stays at x and a user whose codec
  rate is below r never notices the throttle.

The total consumption is continuous and strictly increasing in both T and r
wherever somebody is throttled, which is what the solvers below rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError
from .population import Population, UserProfile


class Mode(Enum):
    STREAMING = "streaming"
    DOWNLOAD = "download"


@dataclass(frozen=True)
class Plan:
    """A throttling plan: threshold T, post-throttle rate r, access mode."""

    threshold: float
    rate: float
    mode: Mode

    def __post_init__(self):
        # written as "not >= 0" so that NaN fails too; inf is the no-throttling sentinel
        if not self.threshold >= 0:
            raise ValidationError(f"threshold must be >= 0, got {self.threshold}")
        if not self.rate >= 0:
            raise ValidationError(f"rate must be >= 0, got {self.rate}")

    @property
    def throttles(self) -> bool:
        """False for the no-throttling sentinel (infinite threshold)."""
        return math.isfinite(self.threshold)

    @classmethod
    def no_throttling(cls, mode: Mode) -> "Plan":
        """Sentinel plan meaning capacity covers all demand; nobody throttles."""
        return cls(math.inf, math.inf, mode)


@dataclass(frozen=True)
class Partition:
    """User indices split by how a plan treats them.

    throttled: consumption capped by the plan.
    low_demand: demand fits under the threshold; never throttled.
    low_rate: above the threshold but the post-throttle rate does not bind
    (download: demand <= r; streaming: desired rate <= r).
    """

    throttled: tuple[int, ...]
    low_demand: tuple[int, ...]
    low_rate: tuple[int, ...]


@dataclass(frozen=True)
class ThresholdBound:
    """Largest feasible threshold and the throttled set it leaves behind.

    ``threshold`` is the T at which capacity is met with the post-throttle
    rate forced to zero; no plan meeting capacity exactly can use a larger T.
    ``throttled`` holds the indices still above that threshold.
    """

    threshold: float
    throttled: frozenset[int]


def post_throttle_activity(user: UserProfile, rate: float, mode: Mode) -> float:
    """Activity ratio of a throttled user under post-throttle rate ``rate``.

    Streaming users keep their activity (a stream runs in real time).
    Download users stretch their active time to finish the same bytes, up to
    always-on: y = min(demand / rate, 1).  A zero rate delivers nothing, so
    y is reported as 1 (it multiplies a zero rate either way).
    """
    if mode is Mode.STREAMING:
        return user.activity
    return _download_activity(user.demand, rate)


def _download_activity(demand: float, rate: float) -> float:
    """Post-throttle activity of a download user with this demand."""
    return 1.0 if rate <= 0 else min(demand / rate, 1.0)


def _throttled_mask(pop: Population, threshold: float, rate: float, mode: Mode) -> np.ndarray:
    d = pop.demands
    gate = d if mode is Mode.DOWNLOAD else pop.rates
    return (d > threshold) & (gate > rate)


def partition(pop: Population, plan: Plan) -> Partition:
    """Split the population into throttled / low-demand / low-rate sets."""
    d = pop.demands
    hot = _throttled_mask(pop, plan.threshold, plan.rate, plan.mode)
    low_demand = ~hot & (d <= plan.threshold)
    low_rate = ~hot & ~low_demand
    idx = np.arange(len(pop))
    return Partition(
        throttled=tuple(int(i) for i in idx[hot]),
        low_demand=tuple(int(i) for i in idx[low_demand]),
        low_rate=tuple(int(i) for i in idx[low_rate]),
    )


def _consumption_arrays(
    demands: np.ndarray,
    rates: np.ndarray,
    activities: np.ndarray,
    threshold: float,
    rate: float,
    mode: Mode,
) -> float:
    gate = demands if mode is Mode.DOWNLOAD else rates
    hot = (demands > threshold) & (gate > rate)
    if not hot.any():
        return float(demands.sum())
    d_hot = demands[hot]
    y = np.ones(d_hot.size) if mode is Mode.DOWNLOAD else activities[hot]
    capped = threshold + rate * y * (1.0 - threshold / d_hot)
    return float(demands[~hot].sum() + capped.sum())


def consumption(pop: Population, plan: Plan) -> float:
    """Total expected consumption of the population under a plan."""
    if not plan.throttles:
        return pop.total_demand
    return _consumption_arrays(
        pop.demands, pop.rates, pop.activities, plan.threshold, plan.rate, plan.mode
    )


def allocation(user: UserProfile, plan: Plan) -> float:
    """Expected consumption of a single user under a plan."""
    if not plan.throttles:
        return user.demand
    d = user.demand
    gate = d if plan.mode is Mode.DOWNLOAD else user.rate
    if d > plan.threshold and gate > plan.rate:
        y = post_throttle_activity(user, plan.rate, plan.mode)
        return plan.threshold + plan.rate * y * (1.0 - plan.threshold / d)
    return d


def _max_threshold_sorted(ds: np.ndarray, prefix: np.ndarray, capacity: float) -> tuple[float, int]:
    """Shrinking fixed point for the zero-rate threshold on sorted demands.

    Returns (t_hat, k) where ds[k:] is the surviving throttled set.  Starts
    from everyone throttled and evicts users whose demand drops below the
    candidate threshold; t_hat only grows, so this terminates in <= n steps.
    """
    n = ds.size
    k = 0
    while True:
        t = (capacity - prefix[k]) / (n - k)
        k2 = int(np.searchsorted(ds, t, side="right"))
        if k2 == k:
            return float(t), k
        if k2 >= n:
            raise AssertionError("threshold bound exceeded all demands with capacity < demand")
        k = k2


def max_threshold(pop: Population, capacity: float, mode: Mode = Mode.DOWNLOAD) -> ThresholdBound:
    """Largest threshold any capacity-tight plan can use.

    The bound comes from setting the post-throttle rate to zero, which makes
    it independent of the access mode.  With capacity at or above total
    demand there is no bound; the sentinel (inf, empty set) is returned.
    """
    if capacity < 0:
        raise ValidationError(f"capacity must be >= 0, got {capacity}")
    demands = pop.demands
    if capacity >= demands.sum():
        return ThresholdBound(math.inf, frozenset())
    order = np.argsort(demands, kind="stable")
    ds = demands[order]
    prefix = np.concatenate(([0.0], np.cumsum(ds)))
    t_hat, k = _max_threshold_sorted(ds, prefix, capacity)
    return ThresholdBound(t_hat, frozenset(int(i) for i in order[k:]))


_BISECT_MAX_ITERS = 200


def _polish_threshold(
    pop: Population, capacity: float, rate: float, mode: Mode, t_mid: float
) -> float | None:
    """Closed-form T for the throttled set active at t_mid, if consistent."""
    d = pop.demands
    hot = _throttled_mask(pop, t_mid, rate, mode)
    if not hot.any():
        return None
    d_hot = d[hot]
    y = np.ones(d_hot.size) if mode is Mode.DOWNLOAD else pop.activities[hot]
    denom = float(np.sum(1.0 - rate * y / d_hot))
    if denom <= 0:
        return None
    t = (capacity - float(d[~hot].sum()) - rate * float(y.sum())) / denom
    if t < 0:
        return None
    # accept only if the throttled set at t matches the one we solved with
    hot2 = _throttled_mask(pop, t, rate, mode)
    if not np.array_equal(hot, hot2):
        return None
    return float(t)


def threshold_for_rate(
    pop: Population,
    capacity: float,
    rate: float,
    mode: Mode = Mode.DOWNLOAD,
    epsilon: float | None = None,
) -> float | None:
    """Threshold that makes consumption meet capacity exactly at this rate.

    Returns inf when capacity covers total demand (no throttling needed) and
    None when no T >= 0 can bring consumption down to capacity (the rate is
    too generous).  Otherwise bisects on the monotone consumption curve and
    polishes with the closed form for the final throttled set, so the
    capacity residual is usually at machine precision and always within
    epsilon * capacity (default epsilon 1e-9 / max(1, C)-scaled).
    """
    if capacity < 0:
        raise ValidationError(f"capacity must be >= 0, got {capacity}")
    if rate < 0:
        raise ValidationError(f"rate must be >= 0, got {rate}")
    total = pop.total_demand
    if capacity >= total:
        return math.inf
    if epsilon is None:
        eps = 1e-9 * max(1.0, capacity)
    elif epsilon <= 0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    else:
        eps = epsilon * max(capacity, 1e-300)
    d, R, x = pop.demands, pop.rates, pop.activities
    floor = _consumption_arrays(d, R, x, 0.0, rate, mode)
    if floor > capacity + eps:
        return None
    bound = max_threshold(pop, capacity, mode)
    lo, hi = 0.0, bound.threshold
    for _ in range(_BISECT_MAX_ITERS):
        mid = 0.5 * (lo + hi)
        if _consumption_arrays(d, R, x, mid, rate, mode) < capacity:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, bound.threshold):
            break
    mid = 0.5 * (lo + hi)
    polished = _polish_threshold(pop, capacity, rate, mode, mid)
    if polished is not None and polished <= bound.threshold + eps:
        return min(polished, bound.threshold)
    return mid


def rate_for_threshold(
    pop: Population, capacity: float, threshold: float, mode: Mode = Mode.DOWNLOAD
) -> float | None:
    """Post-throttle rate that meets capacity exactly at this threshold.

    The inverse of :func:`threshold_for_rate`: returns inf when capacity
    covers total demand, None when even rate 0 leaves consumption above
    capacity (threshold too generous).  Solved by a shrinking fixed point:
    each candidate rate can only evict users from the throttled set, and
    eviction only raises the next candidate.
    """
    if capacity < 0:
        raise ValidationError(f"capacity must be >= 0, got {capacity}")
    if threshold < 0:
        raise ValidationError(f"threshold must be >= 0, got {threshold}")
    total = pop.total_demand
    if capacity >= total:
        return math.inf
    d, R, x = pop.demands, pop.rates, pop.activities
    eps = 1e-9 * max(1.0, capacity)
    if _consumption_arrays(d, R, x, threshold, 0.0, mode) > capacity + eps:
        return None
    rate = 0.0
    for _ in range(len(pop) + 1):
        hot = _throttled_mask(pop, threshold, rate, mode)
        if not hot.any():
            # everyone already fits at this threshold with the current rate
            return rate
        d_hot = d[hot]
        y = np.ones(d_hot.size) if mode is Mode.DOWNLOAD else x[hot]
        spare = capacity - float(d[~hot].sum()) - threshold * d_hot.size
        denom = float(np.sum(y * (1.0 - threshold / d_hot)))
        if denom <= 0:
            return rate
        new_rate = max(spare / denom, 0.0)
        hot2 = _throttled_mask(pop, threshold, new_rate, mode)
        if np.array_equal(hot, hot2):
            return float(new_rate)
        rate = float(new_rate)
    raise AssertionError("rate fixed point failed to settle")
