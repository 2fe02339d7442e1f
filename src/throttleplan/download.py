"""Optimal download-mode plans via exact interval minimization.

For download traffic the throttled set only changes at finitely many
thresholds: a user *kicks in* when the capacity-tight rate r(T) falls to
their demand, and *kicks out* when T grows past their demand.  Between
consecutive events the throttled set is fixed, capacity pins r to a smooth
function of T, and with equal exponents the within-interval minimum has a
closed form: the smaller root of

    (C - sum_L d) - 2 h T + (sum_H 1/d) T^2 = 0

which is precisely where r(T) crosses T.  Scanning all O(n) intervals and
clamping the root into each yields the exact global optimum, no search
required.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .allocation import Mode, Plan, _check_capacity, _zero_rate_bound
from .errors import ValidationError
from .population import Population
from .regret import RegretParams


class KickKind(Enum):
    KICK_IN = 0
    KICK_OUT = 1


class KickEvent(NamedTuple):
    """A threshold where the throttled set changes membership."""

    threshold: float
    kind: KickKind
    user: int


class IntervalResult(NamedTuple):
    """Best plan found inside one constant-membership interval [lo, hi)."""

    lo: float
    hi: float
    throttled: tuple[int, ...]
    threshold: float
    regret: float


@dataclass(frozen=True)
class DownloadSolution:
    plan: Plan
    regret: float
    intervals: tuple[IntervalResult, ...]


#: Most points a sampled curve or a split sweep may have; a finer step is
#: rejected before its grid is allocated.
MAX_GRID_POINTS = 10**6


def _check_grid_size(points: float) -> None:
    if points > MAX_GRID_POINTS:
        raise ValidationError(
            f"a grid of {points:.3g} points exceeds the cap of {MAX_GRID_POINTS}; "
            "use a coarser step"
        )


def _check_params(params: RegretParams) -> None:
    if params.tau != params.rho:
        raise ValidationError(
            "download optimization requires equal rate/time exponents (rho == tau)"
        )
    if params.rho < 2:
        raise ValidationError(
            "download optimization requires rho >= 2; smaller exponents break the "
            "per-interval convexity the closed form relies on"
        )


class _Ladder:
    """Sorted demands with the prefix/suffix sums every formula needs."""

    def __init__(self, demands: np.ndarray, capacity: float):
        self.order = np.argsort(demands, kind="stable")
        self.ds = demands[self.order]
        self.n = self.ds.size
        self.capacity = capacity
        self.prefix = np.concatenate(([0.0], np.cumsum(self.ds)))
        inv = 1.0 / self.ds
        self.suf_inv = np.concatenate((np.cumsum(inv[::-1])[::-1], [0.0]))
        self.t_hat = _zero_rate_bound(self.ds, self.prefix, capacity)

    def fixed_point_vec(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized fixed point: (k, capacity-tight r) for many thresholds."""
        k = np.searchsorted(self.ds, ts, side="right").astype(np.int64)
        for _ in range(self.n + 1):
            r = self.rate_vec(k, ts)
            k2 = np.searchsorted(self.ds, np.maximum(ts, r), side="right").astype(np.int64)
            if np.array_equal(k2, k):
                break
            k = k2
        return k, r

    def rate_vec(self, k: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Capacity-tight rates for (suffix, threshold) pairs, clamped at 0."""
        h = self.n - k
        denom = h - ts * self.suf_inv[k]
        safe = (denom > 1e-12) & (h > 0)
        r = np.where(
            safe,
            (self.capacity - self.prefix[k] - h * ts) / np.where(safe, denom, 1.0),
            0.0,
        )
        return np.clip(r, 0.0, None)

    def regret_at(self, k: int, t: float, r: float, rho: float) -> float:
        tail = self.ds[k:]
        if tail.size == 0:
            return 0.0
        term = np.clip(1.0 - r / tail, 0.0, None) * np.clip(1.0 - t / tail, 0.0, None)
        return float(np.sum(term**rho))

    def regret_vec(self, k: np.ndarray, ts: np.ndarray, rs: np.ndarray, rho: float) -> np.ndarray:
        """Aggregate regrets for many (suffix, threshold, rate) triples.

        Chunked so the broadcast never materializes more than a few million
        terms at once.
        """
        out = np.empty(ts.size)
        cols = np.arange(self.n)
        chunk = max(1, int(5_000_000 // max(self.n, 1)))
        for s in range(0, ts.size, chunk):
            e = min(s + chunk, ts.size)
            mask = cols[None, :] >= k[s:e, None]
            term = np.clip(1.0 - rs[s:e, None] / self.ds[None, :], 0.0, None)
            term *= np.clip(1.0 - ts[s:e, None] / self.ds[None, :], 0.0, None)
            out[s:e] = np.sum(np.where(mask, term**rho, 0.0), axis=1)
        return out


def _kick_thresholds(lad: _Ladder) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Membership-change thresholds in [0, t_hat) as (t_in, who_in, t_out, who_out)."""
    ds, n = lad.ds, lad.n
    # kick-ins: r(T) falls to d_i while T is still below d_i
    k = np.searchsorted(ds, ds, side="right")
    h = n - k
    denom = h - ds * lad.suf_inv[k]
    good = (k < n) & (np.abs(denom) > 1e-12)
    t_in = np.where(good, (lad.capacity - lad.prefix[k] - ds * h) / np.where(good, denom, 1.0), -1.0)
    good &= (t_in >= 0.0) & (t_in < np.minimum(lad.t_hat, ds))
    # kick-outs: T grows past d_i.  Only users who were actually throttled on
    # the way up leave the set: those kicked in earlier, or throttled from
    # T = 0.  Without this filter a d_i below the running rate would emit a
    # phantom event, splitting a constant-membership interval in two.
    _, r0 = lad.fixed_point_vec(np.zeros(1))
    out = (ds < lad.t_hat) & (good | (ds > r0[0]))
    idx = np.arange(n)
    return t_in[good], idx[good], ds[out], idx[out]


def _kick_events(lad: _Ladder) -> list[tuple[float, KickKind, int]]:
    """All membership-change events, sorted by (threshold, kind, user)."""
    t_in, who_in, t_out, who_out = _kick_thresholds(lad)
    events = [(float(t), KickKind.KICK_IN, int(i)) for t, i in zip(t_in, who_in)]
    events += [(float(t), KickKind.KICK_OUT, int(i)) for t, i in zip(t_out, who_out)]
    events.sort(key=lambda e: (e[0], e[1].value, e[2]))
    return events


def kick_points(pop: Population, capacity: float) -> list[KickEvent]:
    """Thresholds where the capacity-tight throttled set changes.

    Requires capacity below total demand.  Users are reported by their
    population index; events are sorted by threshold, kick-ins first on ties.
    """
    _check_capacity(capacity)
    if capacity >= pop.total_demand:
        raise ValidationError("kick points are undefined when capacity covers demand")
    lad = _Ladder(pop.demands, capacity)
    return [
        KickEvent(t, kind, int(lad.order[i])) for t, kind, i in _kick_events(lad)
    ]


def _optimize_ladder(
    lad: _Ladder, rho: float, want_intervals: bool
) -> tuple[float, float, float, list[IntervalResult]]:
    """Exact minimum over [0, t_hat]: returns (t, r, regret, intervals).

    Per interval the candidates are the interior root (where r(T) = T), then
    the left endpoint, then the right.  Comparisons carry a relative float
    tolerance: on a single-member plateau the regret is constant, and an
    endpoint must not displace the r = T point by an ulp.  Within tolerance
    the root wins, then the leftmost candidate, keeping ties deterministic.
    """
    if lad.t_hat <= 0:
        reg = lad.regret_at(0, 0.0, 0.0, rho)
        recs = [IntervalResult(0.0, 0.0, tuple(range(lad.n)), 0.0, reg)] if want_intervals else []
        return 0.0, 0.0, reg, recs
    t_in, _, t_out, _ = _kick_thresholds(lad)
    bounds = np.unique(np.concatenate(([0.0], t_in, t_out, [lad.t_hat])))
    a, b = bounds[:-1], bounds[1:]
    k, _ = lad.fixed_point_vec(0.5 * (a + b))
    live = lad.n - k > 0
    a, b, k = a[live], b[live], k[live]
    h = (lad.n - k).astype(float)

    spare = lad.capacity - lad.prefix[k]
    s_inv = lad.suf_inv[k]
    disc = h * h - spare * s_inv
    t_loc = (h - np.sqrt(np.clip(disc, 0.0, None))) / s_inv
    interior = (disc >= 0.0) & (a <= t_loc) & (t_loc < b)

    def eval_at(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rs = lad.rate_vec(k, ts)
        return rs, lad.regret_vec(k, ts, rs, rho)

    r_loc, reg_loc = eval_at(np.where(interior, t_loc, a))
    reg_loc = np.where(interior, reg_loc, math.inf)
    r_a, reg_a = eval_at(a)
    r_b, reg_b = eval_at(b)

    # candidate priority (root, a, b) with a relative tolerance band
    tol = 1e-12
    floor = np.minimum(reg_loc, np.minimum(reg_a, reg_b))
    band = floor + tol * (1.0 + np.abs(floor))
    pick_loc = interior & (reg_loc <= band)
    pick_a = ~pick_loc & (reg_a <= band)
    t_best = np.where(pick_loc, t_loc, np.where(pick_a, a, b))
    r_best = np.where(pick_loc, r_loc, np.where(pick_a, r_a, r_b))
    reg_best = np.where(pick_loc, reg_loc, np.where(pick_a, reg_a, reg_b))

    best = float(reg_best.min())
    tied = reg_best <= best + tol * (1.0 + abs(best))
    rooted = tied & pick_loc
    # the r(T) = T crossing is unique, so at most one tied interval holds it
    i = int(np.argmax(rooted)) if rooted.any() else int(np.argmax(tied))
    records: list[IntervalResult] = []
    if want_intervals:
        records = [
            IntervalResult(
                float(a[m]), float(b[m]),
                tuple(int(j) for j in lad.order[k[m]:]),
                float(t_best[m]), float(reg_best[m]),
            )
            for m in range(a.size)
        ]
    return float(t_best[i]), float(r_best[i]), float(reg_best[i]), records


def optimize_download(
    pop: Population, capacity: float, params: RegretParams, with_intervals: bool = True
) -> DownloadSolution:
    """Exact regret-minimizing download plan meeting capacity.

    Demands fold activity in (a downloader shifted to off-hours consumes the
    same bytes), so the optimum depends only on d_i = rate * activity.  The
    returned plan satisfies capacity exactly and, away from degenerate
    single-user plateaus, has rate equal to threshold.
    """
    _check_params(params)
    _check_capacity(capacity)
    if capacity >= pop.total_demand:
        return DownloadSolution(Plan.no_throttling(Mode.DOWNLOAD), 0.0, ())
    lad = _Ladder(pop.demands, capacity)
    t, r, reg, records = _optimize_ladder(lad, params.rho, with_intervals)
    return DownloadSolution(Plan(t, r, Mode.DOWNLOAD), reg, tuple(records))


def optimize_demands(demands: np.ndarray, capacity: float, rho: float) -> tuple[float, float, float]:
    """Array-level fast path: (threshold, rate, regret) for raw demands.

    Same computation as :func:`optimize_download` without building
    population or interval records; the tier game calls this in bulk.
    """
    total = float(demands.sum())
    if capacity >= total:
        return math.inf, math.inf, 0.0
    lad = _Ladder(np.asarray(demands, dtype=float), capacity)
    t, r, reg, _ = _optimize_ladder(lad, rho, want_intervals=False)
    return t, r, reg


def threshold_curve(
    pop: Population, capacity: float, params: RegretParams, step: float
) -> np.ndarray:
    """Sampled (T, r, regret) rows along the capacity-tight curve.

    T runs over the grid {0, step, 2*step, ...} up to and including the
    zero-rate threshold, r is the capacity-tight rate at each T, regret the
    aggregate at (T, r).
    """
    _check_params(params)
    _check_capacity(capacity)
    if not step > 0:
        raise ValidationError(f"step must be positive, got {step}")
    if capacity >= pop.total_demand:
        raise ValidationError("curve is undefined when capacity covers demand")
    lad = _Ladder(pop.demands, capacity)
    _check_grid_size(lad.t_hat / step)
    grid = np.arange(0.0, lad.t_hat, step)
    grid = np.append(grid, lad.t_hat)
    k, r = lad.fixed_point_vec(grid)
    reg = lad.regret_vec(k, grid, r, params.rho)
    return np.column_stack((grid, r, reg))


def grid_oracle(
    pop: Population, capacity: float, params: RegretParams, step: float
) -> DownloadSolution:
    """Brute-force reference optimizer: best point on a dense threshold grid."""
    _check_capacity(capacity)
    if capacity >= pop.total_demand:
        return DownloadSolution(Plan.no_throttling(Mode.DOWNLOAD), 0.0, ())
    curve = threshold_curve(pop, capacity, params, step)
    i = int(np.argmin(curve[:, 2]))
    t, r, reg = curve[i]
    return DownloadSolution(Plan(float(t), float(r), Mode.DOWNLOAD), float(reg), ())
