"""Optimal download-mode plans via interval minimization.

For download traffic the throttled set only changes at finitely many
thresholds: a user *kicks in* when the capacity-tight rate r(T) falls to
their demand, and *kicks out* when T grows past their demand.  Between
consecutive events the throttled set is fixed, capacity pins r to a smooth
function of T, and with equal exponents the regret is symmetric in (T, r),
so it is stationary at the smaller root of

    (C - sum_L d) - 2 h T + (sum_H 1/d) T^2 = 0

which is precisely where r(T) crosses T.  The scan scores that root and
both ends of each of the O(n) intervals and keeps the best.  The crossing
can be a local maximum, so a minimum off the r = T diagonal is missed.

Each interval's throttled suffix is read off the sorted events, counted
from the suffix at T = 0.  For integer rho a candidate's regret is then
sum_m (-1)^m c_m S[m, k]: c are the coefficients of
(1 + (r + t) x + r t x^2)^rho and S[m, k] the suffix moments of x = 1/d
for m <= 2 rho, built once per solve.  That costs O(rho^2) per candidate
instead of the dense sum's O(n).  The alternating sum cancels, so it only
bounds each candidate's regret.  The candidates that can still decide the
pick, usually one, are re-scored with the dense sum, and the pick follows
the dense values: the result is bit for bit that of scoring every candidate
densely.  When rho is not an integer, or interval records are requested,
every candidate is scored densely, and so is every candidate of a small
solve, where the dense sum costs less than the moment filter.

Many small solves at once, as the two-tier enumeration makes, go through a
row-batched dense scan (:func:`_optimize_rows`).  Each row of an (m, s)
demand array gets its own ladder from a stable row sort and sequential row
sums, searchsorted becomes a per-row count, and the interval bounds a row
sort with equal neighbours merged.  Both scans share the rest: t_hat from
the row-wise segment rule of :mod:`allocation`, the fixed point at T = 0,
the kick formulas and filters, and the candidate and pick code.  The
intervals of all rows run flat, tagged by row, and each row keeps its first
rooted, else first tied, interval, so every row gets bit for bit what
:func:`optimize_demands` gives it.  Single solves stay on the single scan:
one row costs the batch about twice as much.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .allocation import Mode, Plan, _check_capacity, _zero_rate_bound, _zero_rate_bounds
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


#: Relative tie band of the interval scan: candidates and intervals whose
#: regrets agree to within it count as equal.
_TIE_TOL = 1e-12

#: Solves with at most this many dense terms (candidates times members)
#: score every candidate densely: below it the moment filter costs more.
_DENSE_TERMS = 4096

#: Most terms a dense regret batch materializes at once.
_CHUNK_TERMS = 1_000_000


def _dense_regret(
    ds: np.ndarray, k: np.ndarray, ts: np.ndarray, rs: np.ndarray, rho: float
) -> np.ndarray:
    """Regret of each (suffix, threshold, rate) triple, summed densely over a sorted row.

    ``ds`` is one sorted demand row (1, n) shared by every triple, or one
    row per triple; each sum runs over all n columns, zeros outside the
    suffix, so every triple's sum has the same shape.
    """
    mask = np.arange(ds.shape[1]) >= k[:, None]
    term = np.clip(1.0 - rs[:, None] / ds, 0.0, None)
    term *= np.clip(1.0 - ts[:, None] / ds, 0.0, None)
    return np.sum(np.where(mask, term**rho, 0.0), axis=1)


def _candidates(
    a: np.ndarray, b: np.ndarray, h: np.ndarray, spare: np.ndarray, s_inv: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (root, a, b) candidates of live intervals [a, b): (ts (3, m), rs (3, m), interior).

    ``h`` is each interval's throttled count, ``spare`` the capacity left
    after the unthrottled prefix and ``s_inv`` the suffix sum of 1/d.  The
    root is where r(T) = T; ``interior`` marks the intervals holding it, the
    others carry a in its place.  Rates are capacity-tight, clamped at 0.
    """
    disc = h * h - spare * s_inv
    t_loc = (h - np.sqrt(np.clip(disc, 0.0, None))) / s_inv
    interior = (disc >= 0.0) & (a <= t_loc) & (t_loc < b)
    ts = np.stack((np.where(interior, t_loc, a), a, b))
    denom = h - ts * s_inv
    safe = (denom > 1e-12) & (h > 0)
    rs = np.where(safe, (spare - h * ts) / np.where(safe, denom, 1.0), 0.0)
    return ts, np.clip(rs, 0.0, None), interior


def _pick(
    ts: np.ndarray, rs: np.ndarray, reg: np.ndarray, interior: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each interval's pick among its candidates: (t, r, regret, rooted pick).

    Candidate priority is (root, a, b) within a relative tie band of the
    interval's floor; a non-interior root never counts.
    """
    r_loc, r_a, r_b = rs
    reg_loc, reg_a, reg_b = reg
    reg_loc = np.where(interior, reg_loc, math.inf)
    floor = np.minimum(reg_loc, np.minimum(reg_a, reg_b))
    band = floor + _TIE_TOL * (1.0 + np.abs(floor))
    pick_loc = interior & (reg_loc <= band)
    pick_a = ~pick_loc & (reg_a <= band)
    t_best = np.where(pick_loc, ts[0], np.where(pick_a, ts[1], ts[2]))
    r_best = np.where(pick_loc, r_loc, np.where(pick_a, r_a, r_b))
    reg_best = np.where(pick_loc, reg_loc, np.where(pick_a, reg_a, reg_b))
    return t_best, r_best, reg_best, pick_loc


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

    def fixed_point_at_zero(self) -> tuple[int, float]:
        """:meth:`fixed_point_vec` at the single threshold T = 0: (k0, r0)."""
        return _fixed_point_at_zero(self.ds, self.prefix, self.capacity)

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

        Chunked so the broadcast never materializes more than a million
        terms at once; each row still sums the same n terms.
        """
        out = np.empty(ts.size)
        chunk = max(1, int(_CHUNK_TERMS // max(self.n, 1)))
        for s in range(0, ts.size, chunk):
            e = min(s + chunk, ts.size)
            out[s:e] = _dense_regret(self.ds[None, :], k[s:e], ts[s:e], rs[s:e], rho)
        return out

    def moments(self, top: int) -> np.ndarray:
        """Suffix moments: column j sums d^-m over the j largest demands, m = 0..top.

        The suffix from sorted index k is column n - k.  The running sums are
        a doubling scan, so each is a balanced tree of additions, accurate to
        ceil(log2 n) eps rather than a sequential cumsum's n eps.
        """
        n = self.n
        table = np.empty((top + 1, n + 1))
        table[:, 0] = 0.0
        table[0, 1:] = 1.0
        inv = 1.0 / self.ds[::-1]
        for m in range(1, top + 1):
            np.multiply(table[m - 1, 1:], inv, out=table[m, 1:])
        step = 1
        while step < n:
            table[:, step + 1 :] = table[:, step + 1 :] + table[:, 1 : n + 1 - step]
            step *= 2
        return table

    def regret_moments(
        self, k: np.ndarray, ts: np.ndarray, rs: np.ndarray, rho: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Moment-form regrets for many (suffix, threshold, rate) triples, with error bounds.

        With x = 1/d a member's term (1 - r x)^rho (1 - t x)^rho is
        (1 - s x + p x^2)^rho, s = r + t, p = r t, whose x^m coefficient is
        (-1)^m c_m for the non-negative coefficients c of
        (1 + s x + p x^2)^rho.  The suffix sum is sum_m (-1)^m c_m S[m, k].
        Returns it with a bound on its distance to :meth:`regret_vec`: a
        multiple of eps times the scale sum_m c_m S[m, k], or inf where t or
        r exceeds the smallest member's demand by more than 1e-9 relative.
        Below that the dense form's clipping moves a member's term by at
        most (1e-9)^rho, far under eps times its share of the scale.
        """
        table = self.moments(2 * rho)
        est, err = np.empty(ts.size), np.empty(ts.size)
        # first-order rounding of both forms is (6 rho + log2 n + 10) eps times
        # the scale, the log2 n from the tree sums of the table and of the
        # dense row; doubled
        ulps = 2 * (6 * rho + math.ceil(math.log2(self.n)) + 10)
        chunk = 1_000_000 // (2 * rho + 1)
        for lo in range(0, ts.size, chunk):
            part = slice(lo, lo + chunk)
            s, p = rs[part] + ts[part], rs[part] * ts[part]
            c = np.zeros((2 * rho + 1, s.size))
            c[0] = 1.0
            for j in range(rho):
                low = c[: 2 * j + 1]
                gain_s, gain_p = s * low, p * low
                c[1 : 2 * j + 2] += gain_s
                c[2 : 2 * j + 3] += gain_p
            c *= table[:, self.n - k[part]]
            scale = c.sum(axis=0)
            est[part] = c[0::2].sum(axis=0) - c[1::2].sum(axis=0)
            err[part] = ulps * np.finfo(float).eps * scale
        clipped = np.maximum(ts, rs) > self.ds[k] * (1.0 + 1e-9)
        return est, np.where(clipped, math.inf, err)


def _fixed_point_at_zero(
    ds: Sequence[float], prefix: Sequence[float], capacity: float
) -> tuple[int, float]:
    """Capacity-tight fixed point at T = 0 over sorted demands: (k0, r0).

    ``prefix`` holds the running sums of ``ds``.  k0 is the suffix start of
    the throttled set and r0 its rate.  It runs in scalar arithmetic on one
    row: the single scan passes its arrays, the row scan each row's lists.
    """
    n = len(ds)
    k = bisect_right(ds, 0.0)
    for _ in range(n + 1):
        h = n - k
        r = max(float(capacity - prefix[k]) / h, 0.0) if h > 0 else 0.0
        k2 = bisect_right(ds, r)
        if k2 == k:
            break
        k = k2
    return k, r


def _kick_masks(
    ds: np.ndarray, k: np.ndarray, prefix_k: np.ndarray, suf_inv_k: np.ndarray,
    cap: np.ndarray | float, t_hat: np.ndarray | float, r0: np.ndarray | float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kick thresholds over sorted demands ds: (t_in, good, out).

    ``k`` counts each row's demands at or below d_i, ``prefix_k`` and
    ``suf_inv_k`` are the row sums read at k, and ``cap``, ``t_hat`` and
    ``r0`` (the rate at T = 0) broadcast against ds, so one row or many go
    through the same arithmetic.  ``good`` marks the kick-ins, at t_in, and
    ``out`` the kick-outs, at d_i; both lie in [0, t_hat).
    """
    s = ds.shape[-1]
    # kick-ins: r(T) falls to d_i while T is still below d_i
    h = s - k
    denom = h - ds * suf_inv_k
    good = (k < s) & (np.abs(denom) > 1e-12)
    t_in = np.where(good, (cap - prefix_k - ds * h) / np.where(good, denom, 1.0), -1.0)
    good &= (t_in >= 0.0) & (t_in < np.minimum(t_hat, ds))
    # kick-outs: T grows past d_i.  Only users who were actually throttled on
    # the way up leave the set: those kicked in earlier, or throttled from
    # T = 0.  Without this filter a d_i below the running rate would emit a
    # phantom event, splitting a constant-membership interval in two.
    out = (ds < t_hat) & (good | (ds > r0))
    return t_in, good, out


def _kick_thresholds(
    lad: _Ladder,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Membership-change thresholds in [0, t_hat) as (t_in, who_in, t_out, who_out, k0).

    k0 is the suffix start of the throttled set at T = 0.
    """
    ds = lad.ds
    k = np.searchsorted(ds, ds, side="right")
    k0, r0 = lad.fixed_point_at_zero()
    t_in, good, out = _kick_masks(ds, k, lad.prefix[k], lad.suf_inv[k], lad.capacity, lad.t_hat, r0)
    idx = np.arange(lad.n)
    return t_in[good], idx[good], ds[out], idx[out], k0


def _kick_events(lad: _Ladder) -> list[tuple[float, KickKind, int]]:
    """All membership-change events, sorted by (threshold, kind, user)."""
    t_in, who_in, t_out, who_out, _ = _kick_thresholds(lad)
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


def _intervals(lad: _Ladder) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constant-membership intervals [a, b) covering [0, t_hat), with suffix starts k."""
    t_in, _, t_out, _, k0 = _kick_thresholds(lad)
    bounds = np.unique(np.concatenate(([0.0], t_in, t_out, [lad.t_hat])))
    a, b = bounds[:-1], bounds[1:]
    # every kick-in at or before a has joined the suffix, every kick-out left it
    k = (
        k0
        - np.searchsorted(np.sort(t_in), a, side="right")
        + np.searchsorted(t_out, a, side="right")
    )
    return a, b, k


def _near_best(
    lad: _Ladder, k: np.ndarray, ts: np.ndarray, rs: np.ndarray, rho: int, interior: np.ndarray
) -> np.ndarray:
    """Candidates whose dense regret can decide the pick, from moment-form bounds.

    ``k``, ``ts`` and ``rs`` are (3, m): the root, a and b candidates of
    every interval.  An interval's pick lies within the tie band of its
    floor, and the best pick within the band of the smallest floor, so a
    candidate above its interval's highest possible band can be neither its
    floor nor its pick, and an interval above the highest possible tie bar
    cannot tie the best.  Everything else is kept.
    """
    est, err = lad.regret_moments(k.ravel(), ts.ravel(), rs.ravel(), rho)
    lo, hi = (est - err).reshape(3, -1), (est + err).reshape(3, -1)
    lo[0, ~interior] = math.inf
    hi[0, ~interior] = math.inf
    upper = hi.min(axis=0)
    upper += _TIE_TOL * (1.0 + np.abs(upper))
    bar = float(upper.min())
    bar += _TIE_TOL * (1.0 + abs(bar))
    return ~(lo > upper) & ~(lo.min(axis=0) > bar)


def _optimize_ladder(
    lad: _Ladder, rho: float, want_intervals: bool
) -> tuple[float, float, float, list[IntervalResult]]:
    """Best candidate over [0, t_hat]: returns (t, r, regret, intervals).

    Per interval the candidates are the interior root (where r(T) = T), then
    the left endpoint, then the right.  Comparisons carry a relative float
    tolerance: on a single-member plateau the regret is constant, and an
    endpoint must not displace the r = T point by an ulp.  Within tolerance
    the root wins, then the leftmost candidate, keeping ties deterministic.
    Only the candidates :func:`_near_best` keeps get their dense regret,
    except in small solves: with at most 4096 dense terms (candidates times
    members) the moment filter costs more than the dense sum it would save,
    so every candidate is scored densely.  The pick is the same either way.
    """
    if lad.t_hat <= 0:
        reg = lad.regret_at(0, 0.0, 0.0, rho)
        recs = [IntervalResult(0.0, 0.0, tuple(range(lad.n)), 0.0, reg)] if want_intervals else []
        return 0.0, 0.0, reg, recs
    a, b, k = _intervals(lad)
    live = lad.n - k > 0
    a, b, k = a[live], b[live], k[live]
    ts, rs, interior = _candidates(
        a, b, (lad.n - k).astype(float), lad.capacity - lad.prefix[k], lad.suf_inv[k]
    )
    # candidates that cannot decide the pick score inf, as a non-interior root does
    ks = np.broadcast_to(k, ts.shape)
    if want_intervals or not float(rho).is_integer() or ts.size * lad.n <= _DENSE_TERMS:
        need = np.ones(ts.shape, dtype=bool)
    else:
        need = _near_best(lad, ks, ts, rs, int(rho), interior)
    reg = np.full(ts.shape, math.inf)
    reg[need] = lad.regret_vec(ks[need], ts[need], rs[need], rho)
    t_best, r_best, reg_best, pick_loc = _pick(ts, rs, reg, interior)

    best = float(reg_best.min())
    tied = reg_best <= best + _TIE_TOL * (1.0 + abs(best))
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
    """Least-regret download plan meeting capacity, as the interval scan finds it.

    Demands fold activity in (a downloader shifted to off-hours consumes the
    same bytes), so the plan depends only on d_i = rate * activity.  The
    returned plan satisfies capacity exactly; its rate equals its threshold
    unless the pick is an interval end.  The scan can miss a minimum off
    the r = T diagonal (see the module docstring).
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


def _optimize_rows(
    rows: np.ndarray, capacities: np.ndarray, rho: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`optimize_demands` of every row: (t, r, regret) arrays, bit for bit.

    ``rows`` is (m, s), one demand set per row, and ``capacities`` (m,).
    Every candidate is scored densely, so this pays off for many small
    rows; rows are scanned in chunks whose largest temporary, the dense
    candidate sums, stays near :data:`_CHUNK_TERMS` terms.
    """
    rows = np.asarray(rows, dtype=float)
    capacities = np.asarray(capacities, dtype=float)
    m, s = rows.shape
    t, r, reg = np.full(m, math.inf), np.full(m, math.inf), np.zeros(m)
    todo = np.flatnonzero(capacities < rows.sum(axis=1))
    # at most 2 s + 1 intervals a row, three candidates each, s terms a sum
    chunk = max(1, _CHUNK_TERMS // max(3 * (2 * s + 1) * s, 1))
    for lo in range(0, todo.size, chunk):
        part = todo[lo : lo + chunk]
        t[part], r[part], reg[part] = _scan_rows(rows[part], capacities[part], rho)
    return t, r, reg


@dataclass(frozen=True)
class _RowLadders:
    """:class:`_Ladder` of every row of an (m, s) demand array, without ``order``.

    A stable row sort and sequential row cumsums give each row the sorted
    demands, prefix, suffix of 1/d and t_hat that its single ladder holds,
    bit for bit.  ``searchsorted`` becomes a per-row count of ds <= x.
    """

    ds: np.ndarray
    prefix: np.ndarray
    suf_inv: np.ndarray
    caps: np.ndarray
    t_hat: np.ndarray

    @classmethod
    def build(cls, rows: np.ndarray, caps: np.ndarray) -> _RowLadders:
        """Ladders of rows whose caps lie below their sums."""
        m, s = rows.shape
        ds = np.take_along_axis(rows, np.argsort(rows, axis=1, kind="stable"), axis=1)
        prefix = np.zeros((m, s + 1))
        np.cumsum(ds, axis=1, out=prefix[:, 1:])
        suf_inv = np.zeros((m, s + 1))
        suf_inv[:, :s] = np.cumsum((1.0 / ds)[:, ::-1], axis=1)[:, ::-1]
        return cls(ds, prefix, suf_inv, caps, _zero_rate_bounds(ds, prefix, caps))

    def take(self, rows: np.ndarray) -> _RowLadders:
        return _RowLadders(self.ds[rows], self.prefix[rows], self.suf_inv[rows],
                           self.caps[rows], self.t_hat[rows])

    def fixed_points_at_zero(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_Ladder.fixed_point_at_zero` of every row: (k0, r0)."""
        k, r = np.zeros(self.caps.size, dtype=np.intp), np.zeros(self.caps.size)
        rows = zip(self.ds.tolist(), self.prefix.tolist(), self.caps.tolist())
        for i, row in enumerate(rows):
            k[i], r[i] = _fixed_point_at_zero(*row)
        return k, r

    def intervals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:func:`_intervals` of every row with t_hat > 0, flat: (row, a, b, k).

        The kick thresholds are :func:`_kick_masks`', with searchsorted a
        per-row count.  Each row's bounds are sorted with unused slots last
        as inf; a kick-in shrinks the suffix and a kick-out grows it, so the
        running count of events from k0 is the suffix start, and merging
        equal bounds into the last of their run counts every event at a
        bound, as searchsorted does.
        """
        ds, t_hat = self.ds, self.t_hat
        m, s = ds.shape
        k = np.count_nonzero(ds[:, None, :] <= ds[:, :, None], axis=2)
        k0, r0 = self.fixed_points_at_zero()
        t_in, good, out = _kick_masks(
            ds, k, np.take_along_axis(self.prefix, k, axis=1),
            np.take_along_axis(self.suf_inv, k, axis=1),
            self.caps[:, None], t_hat[:, None], r0[:, None],
        )

        bounds = np.concatenate(
            (np.zeros((m, 1)), np.where(good, t_in, math.inf), np.where(out, ds, math.inf),
             t_hat[:, None]), axis=1)
        step = np.zeros(bounds.shape, dtype=np.intp)
        step[:, 1 : s + 1] -= good
        step[:, s + 1 : 2 * s + 1] += out
        order = np.argsort(bounds, axis=1)
        bounds = np.take_along_axis(bounds, order, axis=1)
        suffix = k0[:, None] + np.cumsum(np.take_along_axis(step, order, axis=1), axis=1)
        keep = np.isfinite(bounds)
        keep[:, :-1] &= bounds[:, :-1] != bounds[:, 1:]
        row, col = np.nonzero(keep)
        starts = np.flatnonzero(row[:-1] == row[1:])
        b = bounds[row[starts], col[starts + 1]]
        row, col = row[starts], col[starts]
        return row, bounds[row, col], b, suffix[row, col]


def _scan_rows(
    rows: np.ndarray, caps: np.ndarray, rho: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_optimize_ladder`'s dense scan of rows whose caps lie below their sums.

    Rows with t_hat <= 0 are planned T = r = 0.  The other rows' intervals
    run flat, tagged by row, through the single scan's candidate and pick
    code, with each candidate's dense regret summed over its own row.
    """
    m, s = rows.shape
    lad = _RowLadders.build(rows, caps)
    t, r, reg = np.zeros(m), np.zeros(m), np.zeros(m)
    flat = np.flatnonzero(lad.t_hat <= 0)
    if flat.size:  # T = r = 0 throttles everyone
        zero = np.zeros(flat.size)
        reg[flat] = _dense_regret(lad.ds[flat], zero.astype(np.intp), zero, zero, rho)
    live = np.flatnonzero(lad.t_hat > 0)
    if not live.size:
        return t, r, reg
    lad = lad.take(live)
    row, a, b, k = lad.intervals()
    open_ = s - k > 0
    row, a, b, k = row[open_], a[open_], b[open_], k[open_]
    ts, rs, interior = _candidates(
        a, b, (s - k).astype(float), lad.caps[row] - lad.prefix[row, k], lad.suf_inv[row, k]
    )
    regs = _dense_regret(lad.ds[np.tile(row, 3)], np.tile(k, 3), ts.ravel(), rs.ravel(), rho)
    t_best, r_best, reg_best, pick_loc = _pick(ts, rs, regs.reshape(3, -1), interior)

    # per row: the first tied interval holding its root, else the first tied one
    best = np.full(live.size, math.inf)
    np.minimum.at(best, row, reg_best)
    tied = reg_best <= best[row] + _TIE_TOL * (1.0 + np.abs(best[row]))
    n_int = row.size
    rank = np.where(tied & pick_loc, 0, np.where(tied, 1, 2)) * n_int + np.arange(n_int)
    first = np.full(live.size, 3 * n_int)
    np.minimum.at(first, row, rank)
    i = first % n_int
    t[live], r[live], reg[live] = t_best[i], r_best[i], reg_best[i]
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
