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

Both are one rule: a user is throttled iff d > T and their *gate* exceeds
r, where the gate is the demand d for downloads and the rate R for streams
(:func:`_gate`, :func:`_throttled_mask`).  The gate is also what r is
delivered against, so a throttled user's rate penalty is 1 - r / gate.

The total consumption is continuous and strictly increasing in both T and r
wherever somebody is throttled, and piecewise linear in each: in T it bends
at the sorted demands, in r at the sorted gates.  The solvers below find
the segment where it meets capacity exactly, with no iteration.
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


def _gate(demands, rates, mode: Mode):
    """What the post-throttle rate is compared with: demands for download, rates for streaming."""
    return demands if mode is Mode.DOWNLOAD else rates


def _throttled_mask(demands, gate, threshold: float, rate: float):
    """Whether each user is throttled: demand above the threshold, gate above the rate.

    Takes floats or numpy columns alike.
    """
    return (demands > threshold) & (gate > rate)


def partition(pop: Population, plan: Plan) -> Partition:
    """Split the population into throttled / low-demand / low-rate sets."""
    d = pop.demands
    hot = _throttled_mask(d, _gate(d, pop.rates, plan.mode), plan.threshold, plan.rate)
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
    hot = _throttled_mask(demands, _gate(demands, rates, mode), threshold, rate)
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
    d, rate, x = (np.array([v]) for v in (user.demand, user.rate, user.activity))
    return _consumption_arrays(d, rate, x, plan.threshold, plan.rate, plan.mode)


def _check_capacity(capacity: float) -> None:
    if not 0 <= capacity < math.inf:
        raise ValidationError(f"capacity must be >= 0 and finite, got {capacity}")


def _suffix_sums(v: np.ndarray) -> np.ndarray:
    return np.cumsum(v[::-1])[::-1]


def _tight_segments(
    breaks: np.ndarray, a: np.ndarray, b: np.ndarray, capacity: np.ndarray
) -> np.ndarray:
    """Segment on which each row's piecewise-linear consumption curve meets capacity.

    ``breaks`` is (m, s), each row sorted and positive; a row's segment k is
    [breaks[k-1], breaks[k]) (from 0 for k = 0), where its consumption is
    a[k] + b[k] * u.  ``a`` and ``b`` broadcast against ``breaks`` and
    ``capacity`` is (m,).  Every segment's root is solved at once.
    Consumption rises with u, so the roots of earlier segments lie at or
    past their right ends: the answer is the first segment whose root does
    not, or the last non-empty one if rounding leaves none.  Empty segments
    (tied breaks) are never returned: an empty top segment would leave
    nobody throttled, and the entries from the returned k on share no value
    with those before it.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # b == 0 only after rounding
        roots = (capacity[:, None] - a) / b
    nonempty = np.empty(breaks.shape, dtype=bool)
    np.greater(breaks[:, :1], 0.0, out=nonempty[:, :1])
    np.greater(breaks[:, 1:], breaks[:, :-1], out=nonempty[:, 1:])
    hits = nonempty & (roots < breaks)
    k = hits.argmax(axis=1)
    found = hits[np.arange(k.size), k]
    if not found.all():
        missed = ~found
        k[missed] = breaks.shape[1] - 1 - nonempty[missed, ::-1].argmax(axis=1)
    return k


def _tight_segment(breaks: np.ndarray, a: np.ndarray, b: np.ndarray, capacity: float) -> int:
    """:func:`_tight_segments` of one curve."""
    return int(_tight_segments(breaks[None], a, b, np.array([capacity]))[0])


def _zero_rate_bounds(ds: np.ndarray, prefix: np.ndarray, capacity: np.ndarray) -> np.ndarray:
    """Threshold meeting capacity at rate 0 over each row of sorted demands ds (m, s).

    ``prefix`` holds each row's s + 1 running sums; each capacity must be
    below its row's sum.
    """
    m, s = ds.shape
    k = _tight_segments(ds, prefix[:, :-1], np.arange(s, 0, -1), capacity)
    return (capacity - prefix[np.arange(m), k]) / (s - k)


def _zero_rate_bound(ds: np.ndarray, prefix: np.ndarray, capacity: float) -> float:
    """:func:`_zero_rate_bounds` of one row of n demands, with its n + 1 running sums."""
    return float(_zero_rate_bounds(ds[None], prefix[None], np.array([capacity]))[0])


def max_threshold(pop: Population, capacity: float, mode: Mode = Mode.DOWNLOAD) -> ThresholdBound:
    """Largest threshold any capacity-tight plan can use.

    The bound comes from setting the post-throttle rate to zero, which makes
    it independent of the access mode.  With capacity at or above total
    demand there is no bound; the sentinel (inf, empty set) is returned.
    """
    _check_capacity(capacity)
    demands = pop.demands
    if capacity >= demands.sum():
        return ThresholdBound(math.inf, frozenset())
    order = np.argsort(demands, kind="stable")
    ds = demands[order]
    prefix = np.concatenate(([0.0], np.cumsum(ds)))
    t_hat = _zero_rate_bound(ds, prefix, capacity)
    above = int(np.searchsorted(ds, t_hat, side="right"))
    return ThresholdBound(t_hat, frozenset(int(i) for i in order[above:]))


def threshold_for_rate(
    pop: Population, capacity: float, rate: float, mode: Mode = Mode.DOWNLOAD
) -> float | None:
    """Threshold that makes consumption meet capacity exactly at this rate.

    Returns inf when capacity covers total demand (no throttling needed) and
    None when even T = 0 leaves consumption above capacity by more than
    1e-9 * max(1, C) (the rate is too generous).  Otherwise the throttled
    set is found exactly on the sorted demands of the users the rate can
    throttle, and T comes from the closed form for that set.
    """
    _check_capacity(capacity)
    if not rate >= 0:
        raise ValidationError(f"rate must be >= 0, got {rate}")
    if capacity >= pop.total_demand:
        return math.inf
    d, R, x = pop.demands, pop.rates, pop.activities
    if _consumption_arrays(d, R, x, 0.0, rate, mode) > capacity + 1e-9 * max(1.0, capacity):
        return None
    gate = _gate(d, R, mode)
    idx = np.flatnonzero(gate > rate)
    if idx.size == 0:
        return 0.0  # nobody can be throttled; consumption is within tolerance anyway
    idx = idx[np.argsort(d[idx], kind="stable")]
    ds = d[idx]
    ry = rate * (1.0 if mode is Mode.DOWNLOAD else x[idx])
    # with users idx[k:] throttled, consumption is a[k] + b[k] * T
    k = _tight_segment(
        ds, pop.total_demand - _suffix_sums(ds - ry), _suffix_sums(1.0 - ry / ds), capacity
    )
    hot = _throttled_mask(d, gate, float(ds[k - 1]) if k else 0.0, rate)
    d_hot = d[hot]
    y = np.ones(d_hot.size) if mode is Mode.DOWNLOAD else x[hot]
    denom = float(np.sum(1.0 - rate * y / d_hot))
    if denom <= 0:
        return 0.0  # rounding flattened the segment: T no longer moves consumption
    t = (capacity - float(d[~hot].sum()) - rate * float(y.sum())) / denom
    return max(t, 0.0)


def rate_for_threshold(
    pop: Population, capacity: float, threshold: float, mode: Mode = Mode.DOWNLOAD
) -> float | None:
    """Post-throttle rate that meets capacity exactly at this threshold.

    The inverse of :func:`threshold_for_rate`: returns inf when capacity
    covers total demand, None when even rate 0 leaves consumption above
    capacity (threshold too generous).  The throttled set is found exactly
    on the sorted gates (download: demands, streaming: rates) of the users
    above the threshold, and r comes from the closed form for that set.
    """
    _check_capacity(capacity)
    if not threshold >= 0:
        raise ValidationError(f"threshold must be >= 0, got {threshold}")
    if capacity >= pop.total_demand:
        return math.inf
    d, R, x = pop.demands, pop.rates, pop.activities
    if _consumption_arrays(d, R, x, threshold, 0.0, mode) > capacity + 1e-9 * max(1.0, capacity):
        return None
    gate = _gate(d, R, mode)
    idx = np.flatnonzero(d > threshold)
    if idx.size == 0:
        return 0.0  # everyone already fits at this threshold
    idx = idx[np.argsort(gate[idx], kind="stable")]
    ds = d[idx]
    y = 1.0 if mode is Mode.DOWNLOAD else x[idx]
    # with users idx[k:] throttled, consumption is a[k] + b[k] * r
    k = _tight_segment(
        gate[idx],
        pop.total_demand - _suffix_sums(ds - threshold),
        _suffix_sums(y * (1.0 - threshold / ds)),
        capacity,
    )
    hot = _throttled_mask(d, gate, threshold, float(gate[idx[k - 1]]) if k else 0.0)
    d_hot = d[hot]
    y_hot = np.ones(d_hot.size) if mode is Mode.DOWNLOAD else x[hot]
    spare = capacity - float(d[~hot].sum()) - threshold * d_hot.size
    denom = float(np.sum(y_hot * (1.0 - threshold / d_hot)))
    if denom <= 0:
        return 0.0  # rounding flattened the segment: r no longer moves consumption
    return max(spare / denom, 0.0)
