"""Hourly Monte Carlo simulation of staggered billing cycles.

Each user gets a uniform-random start day inside a 30-day cycle.  Every hour
they are active with probability x (optionally modulated by a diurnal sine)
and consume their rate divided by the cycle's hours; once the bytes
accumulated since their own cycle start reach the plan threshold they switch
to the post-throttle rate, capped at their own rate as for a low-rate user in
``allocation.partition``, until the cycle resets.  Simulation begins one
cycle before the recorded window so hour 0 already sees users mid-cycle.

Per-user randomness comes from spawned seed-sequence substreams, so the
trace is reproducible and independent of evaluation order.  Users run in
chunks of ``CHUNK_USERS`` rows that start at each user's burn-in start, so
cycles begin on the same columns in every row; totals still add users one at
a time, in order.  One run yields the plan's trace and, from the same draws,
the unthrottled baseline.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .allocation import Mode, Plan, _download_activity
from .download import MAX_GRID_POINTS
from .errors import ValidationError
from .population import DEFAULT_SEED, Population, _check_seed

logger = logging.getLogger(__name__)

HOURS_PER_DAY = 24
DAYS_PER_CYCLE = 30
#: Users simulated together as one block of (user, hour) columns.
CHUNK_USERS = 16


class UserState(IntEnum):
    INACTIVE = 0
    UNTHROTTLED = 1
    THROTTLED = 2


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings: plan, horizon, diurnal flag, seed."""

    plan: Plan
    horizon_days: int = DAYS_PER_CYCLE
    diurnal: bool = False
    seed: int = DEFAULT_SEED
    days_per_cycle: int = DAYS_PER_CYCLE
    hours_per_day: int = HOURS_PER_DAY
    record_states: bool = False

    def __post_init__(self):
        if self.days_per_cycle <= 0 or self.hours_per_day <= 0:
            raise ValidationError("cycle dimensions must be positive")
        if self.horizon_days < self.days_per_cycle:
            raise ValidationError(
                f"horizon must cover at least one {self.days_per_cycle}-day cycle"
            )
        hours = self.horizon_days * self.hours_per_day
        if hours > MAX_GRID_POINTS:
            raise ValidationError(f"a horizon of {hours} hours exceeds the cap of {MAX_GRID_POINTS}")
        _check_seed(self.seed)


@dataclass(frozen=True)
class CycleTrace:
    """Aggregate hourly consumption plus optional per-user detail.

    hourly_total is in raw rate units (divide by C / cycle hours for the
    normalized view).  per_user_state, when recorded, is an (n_users, hours)
    array of UserState values.  start_days echoes each user's cycle offset.
    unthrottled holds the same users and draws under no throttling, without
    states (None on that attached trace itself).
    """

    hourly_total: np.ndarray
    per_user_total: np.ndarray
    start_days: np.ndarray
    hours_per_day: int
    per_user_state: np.ndarray | None = None
    unthrottled: CycleTrace | None = None


def diurnal_activity(x, hour_of_day) -> float | np.ndarray:
    """Hour-dependent activity probability around the mean level x.

    A sine with daily period, peaking at 16:00 and crossing the mean at
    10:00, scaled so the result stays in [0, 1] for any x in (0, 1].  x and
    hour_of_day broadcast against each other.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all((0 < xs) & (xs <= 1)):
        raise ValidationError(f"x must be in (0, 1], got {x}")
    hour = np.asarray(hour_of_day)
    if np.any(hour < 0) or np.any(hour > 23):
        raise ValidationError("hour_of_day must be in 0..23")
    swing = 0.5 * np.minimum(xs, 1.0 - xs)
    out = swing * np.sin(2.0 * np.pi / 24.0 * (hour - 10)) + xs
    if out.ndim == 0:
        return float(out)
    return out


def _active(uniforms: np.ndarray, x: np.ndarray, hours_per_day: int, diurnal: bool) -> np.ndarray:
    """uniforms < each row's activity probability; column j is hour j % hours_per_day."""
    if not diurnal:
        return uniforms < x[:, None]
    table = diurnal_activity(x[:, None], np.arange(hours_per_day))
    days = uniforms.reshape(len(x), -1, hours_per_day)
    return (days < table[:, None, :]).reshape(uniforms.shape)


def _chunk(uniforms, burns, rates, activities, demands, config):
    """(consumption, states, unthrottled consumption) in each row's window from burns[i]."""
    plan, hpd = config.plan, config.hours_per_day
    cycle = config.days_per_cycle * hpd
    k, width = uniforms.shape
    step_full = rates[:, None] / cycle
    active_x = _active(uniforms, activities, hpd, config.diurnal)
    # earlier active hours in the cycle (int32: at most MAX_GRID_POINTS) never
    # decrease, so pre-onset hours are exactly those with full-rate bytes < T
    blocks = active_x.reshape(k, -1, cycle)
    before = np.cumsum(blocks, axis=2, dtype=np.int32)
    before -= blocks
    pre = ~(before * step_full[:, :, None] >= plan.threshold).reshape(k, width)
    slow = np.minimum(rates, plan.rate)
    active = active_x
    if plan.throttles and plan.mode is Mode.DOWNLOAD:
        ys = np.array([_download_activity(d, r) for d, r in zip(demands.tolist(), slow.tolist())])
        active = np.where(pre, active_x, _active(uniforms, ys, hpd, config.diurnal))
    flat = np.arange(config.horizon_days * hpd) + (np.arange(k) * width + burns)[:, None]
    active, pre, active_x = active.take(flat), pre.take(flat), active_x.take(flat)
    consume = np.where(active, np.where(pre, step_full, slow[:, None] / cycle), 0.0)
    state = None
    if config.record_states:
        state = np.where(active, np.where(pre, UserState.UNTHROTTLED, UserState.THROTTLED), 0)
    return consume, state, np.where(active_x, step_full, 0.0)


def simulate(pop: Population, config: SimConfig) -> CycleTrace:
    """Run the hourly three-state simulation; ``unthrottled`` reuses its draws."""
    n = len(pop)
    hpd = config.hours_per_day
    hours = config.horizon_days * hpd
    cycle = config.days_per_cycle * hpd
    total, free_total = np.zeros(hours), np.zeros(hours)
    per_user, free_per_user = np.zeros(n), np.zeros(n)
    starts = np.zeros(n, dtype=np.int64)
    states = np.zeros((n, hours), dtype=np.int8) if config.record_states else None

    seq = np.random.SeedSequence(config.seed)
    # one row per user from its burn-in start, padded to whole cycles
    buffer = np.empty((CHUNK_USERS, -(-(cycle + hours) // cycle) * cycle))
    for lo in range(0, n, CHUNK_USERS):
        hi = min(lo + CHUNK_USERS, n)
        burns = np.empty(hi - lo, dtype=np.int64)
        for i, child in enumerate(seq.spawn(hi - lo)):
            rng = np.random.default_rng(child)
            starts[lo + i] = rng.integers(0, config.days_per_cycle)
            burns[i] = (cycle - starts[lo + i] * hpd) % cycle
            rng.random(out=buffer[i, : burns[i] + hours])
        cols = pop.rates[lo:hi], pop.activities[lo:hi], pop.demands[lo:hi]
        consume, state, free = _chunk(buffer[: hi - lo], burns, *cols, config)
        for rows, sums, per in ((consume, total, per_user), (free, free_total, free_per_user)):
            for row in rows:  # one user at a time, in user order, as a running sum
                sums += row
            per[lo:hi] = rows.sum(axis=1)
        if states is not None:
            states[lo:hi] = state
    free = CycleTrace(free_total, free_per_user, starts, hpd)
    return CycleTrace(total, per_user, starts, hpd, states, free)


def daily_average(trace: CycleTrace | np.ndarray) -> np.ndarray:
    """Mean hourly consumption per full day; a trailing partial day is dropped."""
    series = trace.hourly_total if isinstance(trace, CycleTrace) else np.asarray(trace)
    hpd = trace.hours_per_day if isinstance(trace, CycleTrace) else HOURS_PER_DAY
    days = series.size // hpd
    if days == 0:
        return np.empty(0)
    return series[: days * hpd].reshape(days, hpd).mean(axis=1)


def variability_ratio(throttled: CycleTrace, unthrottled: CycleTrace) -> float:
    """Std over hours of throttled / unthrottled aggregate consumption.

    Hours where the unthrottled trace is zero are excluded (logged when any
    are).  Pass a trace and its ``unthrottled`` baseline, which shares its
    draws, so activity noise cancels.
    """
    t = throttled.hourly_total
    u = unthrottled.hourly_total
    if t.shape != u.shape:
        raise ValidationError("traces must cover the same hours")
    mask = u > 0
    excluded = int(np.size(mask) - np.count_nonzero(mask))
    if excluded:
        logger.warning("variability_ratio: excluded %d zero-consumption hours", excluded)
    if not mask.any():
        raise ValidationError("unthrottled trace is zero everywhere")
    return float(np.std(t[mask] / u[mask]))
