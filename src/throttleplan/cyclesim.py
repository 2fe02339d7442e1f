"""Hourly Monte Carlo simulation of staggered billing cycles.

Each user gets a uniform-random start day inside a 30-day cycle.  Every hour
they are active with probability x (optionally modulated by a diurnal sine)
and consume their rate divided by the cycle's hours; once the bytes
accumulated since their own cycle start reach the plan threshold they switch
to the post-throttle rate until the cycle resets.  Simulation begins one
cycle before the recorded window so hour 0 already sees users mid-cycle.

Per-user randomness comes from spawned seed-sequence substreams, so the
trace is reproducible and independent of evaluation order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .allocation import Mode, Plan, _download_activity
from .errors import ValidationError
from .population import DEFAULT_SEED, Population

logger = logging.getLogger(__name__)

HOURS_PER_DAY = 24
DAYS_PER_CYCLE = 30


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


@dataclass(frozen=True)
class CycleTrace:
    """Aggregate hourly consumption plus optional per-user detail.

    hourly_total is in raw rate units (divide by C / cycle hours for the
    normalized view).  per_user_state, when recorded, is an (n_users, hours)
    array of UserState values.  start_days echoes each user's cycle offset.
    """

    hourly_total: np.ndarray
    per_user_total: np.ndarray
    start_days: np.ndarray
    hours_per_day: int
    per_user_state: np.ndarray | None = None


def diurnal_activity(x: float, hour_of_day) -> float | np.ndarray:
    """Hour-dependent activity probability around the mean level x.

    A sine with daily period, peaking at 16:00 and crossing the mean at
    10:00, scaled so the result stays in [0, 1] for any x in (0, 1].
    """
    if not (0 < x <= 1):
        raise ValidationError(f"x must be in (0, 1], got {x}")
    hour = np.asarray(hour_of_day)
    if np.any(hour < 0) or np.any(hour > 23):
        raise ValidationError("hour_of_day must be in 0..23")
    swing = 0.5 * min(x, 1.0 - x)
    out = swing * np.sin(2.0 * np.pi / 24.0 * (hour - 10)) + x
    if out.ndim == 0:
        return float(out)
    return out


def _activity_profile(x: float, hods: np.ndarray, diurnal: bool) -> np.ndarray:
    if not diurnal:
        return np.full(hods.size, x)
    return np.asarray(diurnal_activity(x, hods), dtype=float)


def simulate(pop: Population, config: SimConfig) -> CycleTrace:
    """Run the hourly three-state simulation and return the trace."""
    n = len(pop)
    hours = config.horizon_days * config.hours_per_day
    cycle = config.days_per_cycle * config.hours_per_day
    plan = config.plan
    total = np.zeros(hours)
    per_user = np.zeros(n)
    starts = np.zeros(n, dtype=np.int64)
    states = np.zeros((n, hours), dtype=np.int8) if config.record_states else None

    children = np.random.SeedSequence(config.seed).spawn(n)
    columns = zip(pop.rates.tolist(), pop.activities.tolist(), pop.demands.tolist(), children)
    for u, (rate, activity, demand, child) in enumerate(columns):
        rng = np.random.default_rng(child)
        start_day = int(rng.integers(0, config.days_per_cycle))
        starts[u] = start_day
        burn = (cycle - start_day * config.hours_per_day) % cycle
        span = burn + hours
        uniforms = rng.random(span)
        hods = (np.arange(span) - burn) % config.hours_per_day
        x_prob = _activity_profile(activity, hods, config.diurnal)

        if not plan.throttles:
            active = uniforms < x_prob
            consume = np.where(active, rate / cycle, 0.0)
            state = active.astype(np.int8)
        else:
            if plan.mode is Mode.DOWNLOAD:
                y = _download_activity(demand, plan.rate)
                y_prob = _activity_profile(y, hods, config.diurnal)
            else:
                y_prob = x_prob
            consume = np.empty(span)
            state = np.empty(span, dtype=np.int8)
            step_full = rate / cycle
            step_slow = plan.rate / cycle
            for c0 in range(0, span, cycle):
                c1 = min(c0 + cycle, span)
                sl = slice(c0, c1)
                active_x = uniforms[sl] < x_prob[sl]
                # bytes accumulated before each hour, assuming full rate so far;
                # valid up to the throttling onset, which is all we need
                ranks = np.cumsum(active_x)
                pre_acc = (ranks - active_x) * step_full
                hit = pre_acc >= plan.threshold
                onset = int(np.argmax(hit)) if hit.any() else c1 - c0
                idx = np.arange(c1 - c0)
                pre = idx < onset
                active_y = uniforms[sl] < y_prob[sl]
                active = np.where(pre, active_x, active_y)
                consume[sl] = np.where(
                    active, np.where(pre, step_full, step_slow), 0.0
                )
                state[sl] = np.where(
                    active, np.where(pre, UserState.UNTHROTTLED, UserState.THROTTLED), 0
                ).astype(np.int8)
        rec = consume[burn:]
        total += rec
        per_user[u] = rec.sum()
        if states is not None:
            states[u] = state[burn:]
    return CycleTrace(total, per_user, starts, config.hours_per_day, states)


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
    are).  Run both traces from the same seed so activity noise cancels.
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
