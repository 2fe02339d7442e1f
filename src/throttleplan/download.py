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
from the suffix at T = 0.  There capacity pins r by sum min(d, r) = C, the
equation that defines the zero-rate threshold t_hat, so r = t_hat and the
suffix holds the demands above it.  When t_hat reaches the largest demand,
capacity covers demand up to rounding and the plan is no throttling.

For integer rho a candidate's regret in its interval's suffix k is
sum_m (-1)^m c_m S[m, k]: c are the coefficients of
(1 + (r + t) x + r t x^2)^rho and S[m, k] the suffix moments of x = 1/d
for m <= 2 rho, built once per solve.  That costs O(rho^2) per candidate
instead of the dense sum's O(n).  The alternating sum cancels, so it only
bounds each candidate's regret.  The candidates that can still decide the
pick, usually one, are re-scored with the dense sum, and the pick follows
the dense values: the result is bit for bit that of scoring every candidate
densely.  When rho is not an integer every candidate is scored densely, and
so is every candidate of a small solve, where the dense sum costs less than
the moment filter.

There is one scan (:func:`_scan_rows`), and it solves rows: each row of an
(m, s) demand array is one solve.  The two-tier enumeration and the
Stackelberg deviations send many rows at once; :func:`optimize_download`
and :func:`optimize_demands` send one.  Each row gets its ladder from a
stable row sort and sequential row sums, and searchsorted becomes a per-row
count read off the runs of equal values.  One builder
(:meth:`_RowLadders.intervals`) takes the finite interval bounds of all
rows, tagged by row, sorts them once and reads each row's suffix starts off
a running count of its events.  The candidate, moment-filter and pick code
takes the intervals of all rows flat; the filter bounds each row's
candidates against that row's own tie bar, and each row keeps its first
rooted, else first tied, interval, so a row's plan does not depend on the
rows batched with it.  The dense-terms rule is judged from the intervals
found, with the moment filter's fixed cost counted as a few rows more: a
single row of up to 20,480 dense terms, and the enumeration's subset rows of
up to 25 members, are always scored densely.  On a 2-vCPU host (numpy 2.4,
rho = 2, lognormal(0, 0.5) demands at C/D 0.3 to 0.95) a one-row solve of
90, 300 or 4,000 demands takes about 0.35, 0.5 or 2 ms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, NamedTuple

import numpy as np

from .allocation import Mode, Plan, _check_capacity, _zero_rate_bounds
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


@dataclass(frozen=True)
class DownloadSolution:
    """A plan with its regret.

    The scan keeps no per-interval records, so ``intervals`` is an empty class
    constant, not a field; the benchmark's tracer (``perfbench/tracing.py``) reads it.
    """

    intervals: ClassVar[tuple[()]] = ()

    plan: Plan
    regret: float


#: Most points a sampled curve or a split sweep may have; a finer step is
#: rejected before its grid is allocated.
MAX_GRID_POINTS = 10**6


def _check_grid_size(points: float) -> None:
    if points > MAX_GRID_POINTS:
        raise ValidationError(
            f"a grid of {points:.3g} points exceeds the cap of {MAX_GRID_POINTS}; "
            "use a coarser step"
        )


def _threshold_grid(bound: float, step: float) -> np.ndarray:
    """{0, step, 2*step, ...} below ``bound``, then ``bound``; a bad or too fine step is refused."""
    if not step > 0:
        raise ValidationError(f"step must be positive, got {step}")
    if not math.isfinite(step):
        raise ValidationError(f"step must be finite, got {step}")
    _check_grid_size(bound / step)
    return np.append(np.arange(0.0, bound, step), bound)


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

#: The moment filter costs about as much as this many dense terms
#: (candidates times members) a row, plus :data:`_FILTER_ROWS` rows' worth a
#: scan: a scan with fewer dense terms scores every candidate densely.  On a
#: 2-vCPU host (numpy 2.4, rho = 2) one row broke even near 20,000 dense
#: terms, batches of 16 rows of 40-90 members near 4,000-6,000 a row.
_DENSE_TERMS = 4096
_FILTER_ROWS = 4

#: Most terms a row batch of the scan materializes at once.
_CHUNK_TERMS = 1_000_000

#: Terms of one block of :func:`_dense_regrets`: its two float buffers then
#: take 512 kB each and stay in a 4 MB L2 cache.  On a 2-vCPU Xeon host
#: (numpy 2.4, rho = 2, best of 7) the sum of a 4,000-member, 1,001-point
#: curve took 19 ms at 2^16 terms a block, 20-21 ms at 2^15 and 2^17,
#: 22-24 ms at 2^13, 2^14 and 2^18, and 49-58 ms in million-term chunks of
#: fresh arrays.
_BLOCK_TERMS = 2**16


def _dense_regrets(
    ds: np.ndarray, row: np.ndarray, k: np.ndarray, ts: np.ndarray, rs: np.ndarray, rho: float
) -> np.ndarray:
    """Regret of each (row, suffix, threshold, rate) candidate, summed densely over its row.

    ``ds`` holds sorted demand rows (m, s); a single row (m = 1) is shared
    by every candidate, not gathered.  Each sum runs over all s columns,
    zeros outside the suffix, so every candidate's sum has the same shape:
    numpy's pairwise reduction of a full row.  Candidates go in blocks of
    about :data:`_BLOCK_TERMS` terms, at least one candidate a block,
    through two float buffers and a mask written in place: a member's term
    is max(1 - r/d, 0) max(1 - t/d, 0), dividing by d, raised to rho by the
    same scalar power as ``term**rho`` (rho = 2 squares), and the columns
    before the suffix start are zeroed after it.
    """
    m, s = ds.shape
    out = np.empty(ts.size)
    block = max(1, _BLOCK_TERMS // max(s, 1))
    size = min(block, ts.size)
    term_buf, other_buf = np.empty((size, s)), np.empty((size, s))
    skip_buf = np.empty((size, s), dtype=bool)
    cols = np.arange(s)
    for lo in range(0, ts.size, block):
        n = min(block, ts.size - lo)
        part = slice(lo, lo + n)
        term, other, skip = term_buf[:n], other_buf[:n], skip_buf[:n]
        # the rows are the scan's own indices; "clip" gathers without the
        # bounds-checked copy that "raise" makes into a temporary
        mine = ds if m == 1 else np.take(ds, row[part], axis=0, out=other, mode="clip")
        np.divide(rs[part, None], mine, out=term)
        np.divide(ts[part, None], mine, out=other)
        for buf in (term, other):
            np.subtract(1.0, buf, out=buf)
            np.maximum(buf, 0.0, out=buf)
        term *= other
        term **= rho
        np.less(cols, k[part, None], out=skip)
        np.copyto(term, 0.0, where=skip)
        out[part] = term.sum(axis=1)
    return out


def _tight_rates(
    h: np.ndarray, spare: np.ndarray, s_inv: np.ndarray, ts: np.ndarray
) -> np.ndarray:
    """Capacity-tight rates at thresholds ``ts`` of throttled suffixes, clamped at 0.

    ``h`` is each suffix's size, ``spare`` the capacity left after the
    unthrottled prefix and ``s_inv`` the suffix sum of 1/d.
    """
    denom = h - ts * s_inv
    safe = (denom > 1e-12) & (h > 0)
    rs = np.where(safe, (spare - h * ts) / np.where(safe, denom, 1.0), 0.0)
    return np.clip(rs, 0.0, None)


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
    return ts, _tight_rates(h, spare, s_inv, ts), interior


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


def _moments(ds: np.ndarray, top: int) -> np.ndarray:
    """Suffix moments of sorted rows ds (m, s): [p, i, j] sums d^-p over row i's j largest demands.

    p runs over 0..top, and the suffix from sorted index k is column s - k.
    The running sums are a doubling scan, so each is a balanced tree of
    additions, accurate to ceil(log2 s) eps rather than a sequential
    cumsum's s eps.
    """
    m, s = ds.shape
    table = np.empty((top + 1, m, s + 1))
    table[:, :, 0] = 0.0
    table[0, :, 1:] = 1.0
    inv = 1.0 / ds[:, ::-1]
    for p in range(1, top + 1):
        np.multiply(table[p - 1, :, 1:], inv, out=table[p, :, 1:])
    step = 1
    while step < s:
        table[:, :, step + 1 :] = table[:, :, step + 1 :] + table[:, :, 1 : s + 1 - step]
        step *= 2
    return table


def _regret_moments(
    ds: np.ndarray, row: np.ndarray, k: np.ndarray, ts: np.ndarray, rs: np.ndarray, rho: int
) -> tuple[np.ndarray, np.ndarray]:
    """Moment-form regrets of (row, suffix, threshold, rate) candidates, with error bounds.

    ``ds`` holds sorted demand rows (m, s).  With x = 1/d a member's term
    (1 - r x)^rho (1 - t x)^rho is (1 - s x + p x^2)^rho, s = r + t,
    p = r t, whose x^m coefficient is (-1)^m c_m for the non-negative
    coefficients c of (1 + s x + p x^2)^rho.  The suffix sum is
    sum_m (-1)^m c_m S[m, k] over the row's moments S.  Returns it with a
    bound on its distance to :func:`_dense_regrets`: a multiple of eps times
    the scale sum_m c_m S[m, k], or inf where t or r exceeds the smallest
    member's demand by more than 1e-9 relative.  Below that the dense
    form's clipping moves a member's term by at most (1e-9)^rho, far under
    eps times its share of the scale.
    """
    width = ds.shape[1]
    table = _moments(ds, 2 * rho)
    est, err = np.empty(ts.size), np.empty(ts.size)
    # first-order rounding of both forms is (6 rho + log2 s + 10) eps times
    # the scale, the log2 s from the tree sums of the table and of the
    # dense row; doubled
    ulps = 2 * (6 * rho + math.ceil(math.log2(width)) + 10)
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
        c *= table[:, row[part], width - k[part]]
        scale = c.sum(axis=0)
        est[part] = c[0::2].sum(axis=0) - c[1::2].sum(axis=0)
        err[part] = ulps * np.finfo(float).eps * scale
    clipped = np.maximum(ts, rs) > ds[row, k] * (1.0 + 1e-9)
    return est, np.where(clipped, math.inf, err)


def _kick_masks(
    ds: np.ndarray, k: np.ndarray, prefix_k: np.ndarray, suf_inv_k: np.ndarray,
    cap: np.ndarray | float, t_hat: np.ndarray | float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kick thresholds over sorted demands ds: (t_in, good, out).

    ``k`` counts each row's demands at or below d_i, ``prefix_k`` and
    ``suf_inv_k`` are the row sums read at k, and ``cap`` and ``t_hat``
    broadcast against ds, so one row or many go through the same
    arithmetic.  ``good`` marks the kick-ins, at t_in, and ``out`` the
    kick-outs, at d_i; both lie in [0, t_hat).
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
    # T = 0, but those lie above r = t_hat and T never passes them.  Without
    # this filter a d_i below the running rate would emit a phantom event,
    # splitting a constant-membership interval in two.
    out = (ds < t_hat) & good
    return t_in, good, out


def kick_points(pop: Population, capacity: float) -> list[KickEvent]:
    """Thresholds where the capacity-tight throttled set changes.

    Requires capacity below total demand.  Users are reported by their
    population index; events are sorted by threshold, kick-ins first on ties.
    """
    _check_capacity(capacity)
    if capacity >= pop.total_demand:
        raise ValidationError("kick points are undefined when capacity covers demand")
    order = np.argsort(pop.demands, kind="stable")
    lad = _RowLadders.build(pop.demands[None], np.array([float(capacity)]))
    t_in, good, out, _ = lad.kicks()
    good, out = good[0], out[0]
    ts = np.concatenate((t_in[0, good], lad.ds[0, out]))
    kinds = np.repeat([KickKind.KICK_IN.value, KickKind.KICK_OUT.value],
                      [np.count_nonzero(good), np.count_nonzero(out)])
    who = np.concatenate((np.flatnonzero(good), np.flatnonzero(out)))
    return [
        KickEvent(float(ts[i]), KickKind(int(kinds[i])), int(order[who[i]]))
        for i in np.lexsort((who, kinds, ts))
    ]


def _near_best(
    ds: np.ndarray, row: np.ndarray, k: np.ndarray, ts: np.ndarray, rs: np.ndarray, rho: int,
    interior: np.ndarray,
) -> np.ndarray:
    """Candidates whose dense regret can decide their row's pick, from moment-form bounds.

    ``row`` and ``k`` hold each interval's row of ds (m, s) and suffix
    start, ``ts`` and ``rs`` are (3, intervals): the root, a and b
    candidates.  An interval's pick lies within the tie band of its floor,
    and a row's best pick within the band of its smallest floor, so a
    candidate above its interval's highest possible band can be neither its
    floor nor its pick, and an interval above its row's highest possible
    tie bar cannot tie the row's best.  Everything else is kept.
    """
    est, err = _regret_moments(
        ds, np.concatenate((row, row, row)), np.concatenate((k, k, k)), ts.ravel(), rs.ravel(), rho)
    lo, hi = (est - err).reshape(3, -1), (est + err).reshape(3, -1)
    lo[0, ~interior] = math.inf
    hi[0, ~interior] = math.inf
    upper = hi.min(axis=0)
    upper += _TIE_TOL * (1.0 + np.abs(upper))
    bar = np.full(ds.shape[0], math.inf)
    np.minimum.at(bar, row, upper)
    bar += _TIE_TOL * (1.0 + np.abs(bar))
    return ~(lo > upper) & ~(lo.min(axis=0) > bar[row])


def _interval_picks(
    ds: np.ndarray, row: np.ndarray, a: np.ndarray, b: np.ndarray, k: np.ndarray,
    spare: np.ndarray, s_inv: np.ndarray, rho: float, dense: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_pick` of live intervals [a, b), flat and tagged by their row of ds (m, s).

    ``k`` is each interval's suffix start, ``spare`` and ``s_inv`` its
    row's capacity left after the prefix and suffix sum of 1/d.  Unless
    ``dense``, only the candidates :func:`_near_best` keeps get their dense
    regret; the others score inf, as a non-interior root does, and cannot
    change any pick.
    """
    ts, rs, interior = _candidates(a, b, (ds.shape[1] - k).astype(float), spare, s_inv)
    if dense:
        need = np.ones(ts.shape, dtype=bool)
    else:
        need = _near_best(ds, row, k, ts, rs, int(rho), interior)
    _, col = np.nonzero(need)
    reg = np.full(ts.shape, math.inf)
    reg[need] = _dense_regrets(ds, row[col], k[col], ts[need], rs[need], rho)
    return _pick(ts, rs, reg, interior)


def _first_best(row: np.ndarray, m: int, reg: np.ndarray, rooted: np.ndarray) -> np.ndarray:
    """Per row of m: the first interval tied with its best that holds its root, else the first tied.

    The r(T) = T crossing is unique, so at most one tied interval holds it.
    """
    best = np.full(m, math.inf)
    np.minimum.at(best, row, reg)
    tied = reg <= best[row] + _TIE_TOL * (1.0 + np.abs(best[row]))
    n = row.size
    rank = np.where(tied & rooted, 0, np.where(tied, 1, 2)) * n + np.arange(n)
    first = np.full(m, 3 * n)
    np.minimum.at(first, row, rank)
    return first % n


@dataclass(frozen=True)
class _RowLadders:
    """Sorted demand rows of an (m, s) array with the running sums every formula needs.

    A stable row sort and sequential row cumsums give each row its sorted
    demands, prefix sums, suffix sums of 1/d and t_hat; ``searchsorted``
    becomes a per-row count of ds <= x.
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
        ds = np.sort(rows, axis=1, kind="stable")
        prefix = np.zeros((m, s + 1))
        np.cumsum(ds, axis=1, out=prefix[:, 1:])
        suf_inv = np.zeros((m, s + 1))
        suf_inv[:, :s] = np.cumsum((1.0 / ds)[:, ::-1], axis=1)[:, ::-1]
        return cls(ds, prefix, suf_inv, caps, _zero_rate_bounds(ds, prefix, caps))

    def take(self, rows: np.ndarray) -> _RowLadders:
        return _RowLadders(self.ds[rows], self.prefix[rows], self.suf_inv[rows],
                           self.caps[rows], self.t_hat[rows])

    def kicks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:func:`_kick_masks` of every row, with its suffix start at T = 0: (t_in, good, out, k0).

        k0 counts each row's demands at or below t_hat, the rate at T = 0.
        """
        ds, t_hat = self.ds, self.t_hat
        m, s = ds.shape
        # the count of ds <= d_i is one past the end of d_i's run of equal values
        cols = np.arange(1, s + 1)
        last = np.ones((m, s), dtype=bool)
        last[:, :-1] = ds[:, 1:] != ds[:, :-1]
        k = np.minimum.accumulate(np.where(last, cols, s)[:, ::-1], axis=1)[:, ::-1]
        k0 = np.count_nonzero(ds <= t_hat[:, None], axis=1)
        at_k = k + (s + 1) * np.arange(m)[:, None]
        t_in, good, out = _kick_masks(
            ds, k, np.take(self.prefix, at_k), np.take(self.suf_inv, at_k),
            self.caps[:, None], t_hat[:, None],
        )
        return t_in, good, out, k0

    def intervals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Constant-membership intervals [a, b) covering [0, t_hat) of rows with t_hat > 0.

        Returns them flat, in row order: (row, a, b, k), k the suffix start.
        The finite bounds of all rows, 0, the kick-ins, the kick-outs and
        t_hat, are sorted once by (row, bound).  A kick-in shrinks the
        suffix and a kick-out grows it, so k0 plus the running count of a
        row's events is its suffix start; merging equal bounds into the last
        of their run counts every event at a bound, as searchsorted does.
        """
        t_in, good, out, k0 = self.kicks()
        m = k0.size
        in_row, out_row = np.nonzero(good)[0], np.nonzero(out)[0]
        first = np.arange(m)
        rows = np.concatenate((first, in_row, out_row, first))
        bounds = np.concatenate((np.zeros(m), t_in[good], self.ds[out], self.t_hat))
        step = np.zeros(rows.size, dtype=np.intp)
        step[m : m + in_row.size] = -1
        step[m + in_row.size : rows.size - m] = 1
        order = np.lexsort((bounds, rows))
        rows, bounds = rows[order], bounds[order]
        count = np.cumsum(step[order])
        # a row's first entry is its bound 0, which moves nobody; the last, t_hat, ends it
        suffix = count + (k0 - count[np.searchsorted(rows, first)])[rows]
        keep = np.flatnonzero(np.append(bounds[:-1] != bounds[1:], True))
        lo, hi = keep[:-1], keep[1:]
        same = rows[lo] == rows[hi]
        lo, hi = lo[same], hi[same]
        return rows[lo], bounds[lo], bounds[hi], suffix[lo]


def _scan_rows(
    rows: np.ndarray, caps: np.ndarray, rho: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best candidate over [0, t_hat] of each row whose cap lies below its sum: (t, r, regret).

    Per interval the candidates are the interior root (where r(T) = T), then
    the left endpoint, then the right.  Comparisons carry a relative float
    tolerance: on a single-member plateau the regret is constant, and an
    endpoint must not displace the r = T point by an ulp.  Within tolerance
    the root wins, then the leftmost candidate, keeping ties deterministic.
    Rows with t_hat <= 0 are planned T = r = 0, at regret s, and rows with
    t_hat at or past their largest demand, covered up to rounding, are not
    throttled: (inf, inf, 0.0).  The other rows' intervals run flat, tagged
    by row, each candidate's dense regret summed over its own row and each
    row's filter against its own tie bar.

    The :data:`_DENSE_TERMS` rule is judged from the intervals found: when
    their candidates could all be summed densely in that many terms a row,
    counting :data:`_FILTER_ROWS` rows more, or rho is not an integer, every
    candidate is scored densely; otherwise only those :func:`_near_best`
    keeps.  The picks are the same either way.
    """
    m, s = rows.shape
    lad = _RowLadders.build(rows, caps)
    t, r, reg = np.zeros(m), np.zeros(m), np.full(m, float(s))
    covered = lad.t_hat >= lad.ds[:, -1]
    t[covered], r[covered], reg[covered] = math.inf, math.inf, 0.0
    live = np.flatnonzero((lad.t_hat > 0) & ~covered)
    if not live.size:
        return t, r, reg
    if live.size < m:
        lad = lad.take(live)
    row, a, b, k = lad.intervals()
    open_ = k < s
    row, a, b, k = row[open_], a[open_], b[open_], k[open_]
    terms = 3 * row.size * s
    dense = not float(rho).is_integer() or terms <= _DENSE_TERMS * (live.size + _FILTER_ROWS)
    t_best, r_best, reg_best, pick_loc = _interval_picks(
        lad.ds, row, a, b, k, lad.caps[row] - lad.prefix[row, k], lad.suf_inv[row, k], rho, dense)
    i = _first_best(row, live.size, reg_best, pick_loc)
    t[live], r[live], reg[live] = t_best[i], r_best[i], reg_best[i]
    return t, r, reg


def _optimize_rows(
    rows: np.ndarray, capacities: np.ndarray, rho: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-regret (t, r, regret) arrays of every row, each row planned as if alone.

    ``rows`` is (m, s), one demand set per row, and ``capacities`` (m,);
    a row whose capacity reaches its sum is not throttled: (inf, inf, 0.0).
    Rows are scanned in chunks of about :data:`_CHUNK_TERMS` moment terms:
    a row has at most 2 s + 1 intervals of three candidates, each of
    2 rho + 1 terms.  The dense sums run in blocks of their own.
    """
    rows = np.asarray(rows, dtype=float)
    capacities = np.asarray(capacities, dtype=float)
    m, s = rows.shape
    t, r, reg = np.full(m, math.inf), np.full(m, math.inf), np.zeros(m)
    todo = np.flatnonzero(capacities < rows.sum(axis=1))
    per_row = 3 * (2 * s + 1) * (2 * math.ceil(rho) + 1)
    chunk = max(1, _CHUNK_TERMS // per_row)
    for lo in range(0, todo.size, chunk):
        part = todo[lo : lo + chunk]
        t[part], r[part], reg[part] = _scan_rows(rows[part], capacities[part], rho)
    return t, r, reg


def optimize_download(
    pop: Population, capacity: float, params: RegretParams
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
        return DownloadSolution(Plan.no_throttling(Mode.DOWNLOAD), 0.0)
    t, r, reg = optimize_demands(pop.demands, capacity, params.rho)
    return DownloadSolution(Plan(t, r, Mode.DOWNLOAD), reg)


def optimize_demands(demands: np.ndarray, capacity: float, rho: float) -> tuple[float, float, float]:
    """Array-level fast path: (threshold, rate, regret) for raw demands.

    The one-row case of :func:`_optimize_rows`, without building a
    population; the tier game calls this in bulk.
    """
    t, r, reg = _optimize_rows(np.asarray(demands, dtype=float)[None], np.array([capacity]), rho)
    return float(t[0]), float(r[0]), float(reg[0])


def _tight_suffixes(
    ds: np.ndarray, prefix: np.ndarray, suf_inv: np.ndarray, capacity: float, ts: np.ndarray
) -> np.ndarray:
    """Suffix start of the capacity-tight throttled set at each threshold of ``ts``.

    Demands at or below T are never throttled.  Past them,
    c_j(T) = P[j + 1] + h T + d_j (h - T S[j + 1]), h = n - j - 1, is the
    consumption at rate r = d_j with the demands above d_j throttled.  It
    rises with j, by (d_{j+1} - d_j) times the throttled members' sum of
    1 - T/d, so the suffix starts at the first j with c_j(T) >= C, found by
    bisection over the sorted demands ds.
    """
    n = ds.size
    lo = np.searchsorted(ds, ts, side="right")
    hi = np.full(ts.size, n)
    while True:
        active = lo < hi
        if not active.any():
            return lo
        mid = (lo + hi) // 2
        j = np.minimum(mid, n - 1)
        h = n - j - 1
        below = prefix[j + 1] + h * ts + ds[j] * (h - ts * suf_inv[j + 1]) < capacity
        lo = np.where(active & below, mid + 1, lo)
        hi = np.where(active & ~below, mid, hi)


def threshold_curve(
    pop: Population, capacity: float, params: RegretParams, step: float
) -> np.ndarray:
    """Sampled (T, r, regret) rows along the capacity-tight curve.

    T runs over the grid {0, step, 2*step, ...} up to and including the
    zero-rate threshold, r is the capacity-tight rate at each T, regret the
    aggregate at (T, r).  Each row's throttled set comes from
    :func:`_tight_suffixes`, not from the kick events the scan reads.
    """
    _check_params(params)
    _check_capacity(capacity)
    if capacity >= pop.total_demand:
        raise ValidationError("curve is undefined when capacity covers demand")
    lad = _RowLadders.build(pop.demands[None], np.array([float(capacity)]))
    ds, prefix, suf_inv, t_hat = lad.ds[0], lad.prefix[0], lad.suf_inv[0], float(lad.t_hat[0])
    grid = _threshold_grid(t_hat, step)
    k = _tight_suffixes(ds, prefix, suf_inv, capacity, grid)
    r = _tight_rates(ds.size - k, capacity - prefix[k], suf_inv[k], grid)
    reg = _dense_regrets(lad.ds, np.zeros(k.size, dtype=np.intp), k, grid, r, params.rho)
    return np.column_stack((grid, r, reg))


def grid_oracle(
    pop: Population, capacity: float, params: RegretParams, step: float
) -> DownloadSolution:
    """Brute-force reference optimizer: best point on a dense threshold grid."""
    _check_capacity(capacity)
    if capacity >= pop.total_demand:
        return DownloadSolution(Plan.no_throttling(Mode.DOWNLOAD), 0.0)
    curve = threshold_curve(pop, capacity, params, step)
    i = int(np.argmin(curve[:, 2]))
    t, r, reg = curve[i]
    return DownloadSolution(Plan(float(t), float(r), Mode.DOWNLOAD), float(reg))
