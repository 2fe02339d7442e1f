"""Hourly Monte Carlo simulation of staggered billing cycles.

Each user gets a uniform-random start day inside a 30-day cycle.  Every hour
they are active with probability x (optionally modulated by a diurnal sine)
and consume their rate divided by the cycle's hours; once the bytes
accumulated since their own cycle start reach the plan threshold they switch
to the post-throttle rate, capped at their own rate as for a low-rate user in
``allocation.partition``, until the cycle resets.  Simulation begins one
cycle before the recorded window so hour 0 already sees users mid-cycle.

Per-user randomness: user i draws from ``default_rng`` of child i of
``SeedSequence(seed).spawn``, so the trace is reproducible and independent
of evaluation order.  No ``SeedSequence`` is built per user: ``_child_seeds``
runs numpy's SeedSequence mixing over uint32 columns, one row per user and
about a thousand users at a time, to get each child's ``generate_state(4,
np.uint64)`` words, and numpy's PCG64 seeds itself from that row, so the
streams are the same bit for bit.  Users run in
chunks of ``CHUNK_USERS`` rows that start at each user's burn-in start, so
cycles begin on the same columns in every row; each row's recorded window
is then copied out as one slice, and totals still add users one at a time,
in order.  One run yields the plan's trace and, from the same draws, the
unthrottled baseline.

Throttling onset as a count.  With full-rate hourly step s = fl(R / cycle
hours), a user is throttled from the first hour of a cycle whose count c of
earlier active hours has fl(c * s) >= T.  That test is an integer one,
c < m for a fixed m per user: c is exact in binary64, c * s never falls as c
grows when s >= 0, and rounding to nearest is monotone, so fl(c * s) never
falls either and the c passing the test are exactly those from some least m
on.  ``_onset_counts`` finds m once per run from floor(T / s), stepping it
until fl((m - 1) * s) < T <= fl(m * s).  It caps m at the cycle length, which
no count reaches (T = inf, or s = 0 < T); T = 0 gives m = 0.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import IntEnum
from itertools import islice

import numpy as np

from .allocation import Mode, Plan
from .download import MAX_GRID_POINTS
from .errors import ValidationError
from .population import DEFAULT_SEED, Population, _check_seed

logger = logging.getLogger(__name__)

HOURS_PER_DAY = 24
DAYS_PER_CYCLE = 30
#: Users simulated together as one block of (user, hour) columns.
CHUNK_USERS = 16
#: Users whose stream seeds are derived together.
_SEED_BLOCK = 1024
#: A one-word spawn key holds indices below 2**32; numpy uses two words from there.
_MAX_STREAMS = 1 << 32

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4
_WORD = 0xFFFFFFFF


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
        if self.diurnal and self.hours_per_day == 1:
            raise ValidationError("a diurnal profile needs at least 2 hours per day")
        if self.horizon_days < self.days_per_cycle:
            raise ValidationError(
                f"horizon must cover at least one {self.days_per_cycle}-day cycle"
            )
        if self.plan.throttles and self.plan.rate == math.inf:
            raise ValidationError(
                f"a throttling plan needs a finite rate, got T={self.plan.threshold} r=inf"
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


def diurnal_activity(x, hour_of_day, hours_per_day: int = HOURS_PER_DAY) -> float | np.ndarray:
    """Hour-dependent activity probability around the mean level x.

    A sine with a period of one day of ``hours_per_day`` hours, peaking at
    16:00 and crossing the mean at 10:00 on a 24-hour clock scaled to that
    day, and scaled so the result stays in [0, 1] for any x in (0, 1].  Over
    a day of two or more hours it averages to x.  x and hour_of_day
    broadcast against each other.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all((0 < xs) & (xs <= 1)):
        raise ValidationError(f"x must be in (0, 1], got {x}")
    hpd = hours_per_day
    hour = np.asarray(hour_of_day)
    if np.any(hour < 0) or np.any(hour >= hpd):
        raise ValidationError(f"hour_of_day must be in 0..{hpd - 1}")
    swing = 0.5 * np.minimum(xs, 1.0 - xs)
    out = swing * np.sin(2.0 * np.pi / hpd * (hour - 10 * hpd / 24)) + xs
    if out.ndim == 0:
        return float(out)
    return out


def _active(uniforms: np.ndarray, x: np.ndarray, hours_per_day: int, diurnal: bool) -> np.ndarray:
    """uniforms < each row's activity probability; column j is hour j % hours_per_day."""
    if not diurnal:
        return uniforms < x[:, None]
    table = diurnal_activity(x[:, None], np.arange(hours_per_day), hours_per_day)
    days = uniforms.reshape(len(x), -1, hours_per_day)
    return (days < table[:, None, :]).reshape(uniforms.shape)


def _onset_counts(step: np.ndarray, threshold: float, cycle: int) -> np.ndarray:
    """Each user's least count m with fl(m * step) >= threshold, at most ``cycle``."""
    with np.errstate(all="ignore"):
        m = np.nan_to_num(np.floor(threshold / step), nan=0.0, posinf=cycle)
        m = np.clip(m, 0, cycle).astype(np.int64)
        while True:
            up = (m < cycle) & (m * step < threshold)
            down = (m > 0) & ((m - 1) * step >= threshold)
            if not (up.any() or down.any()):
                return m.astype(np.int32)
            m += up.astype(np.int64) - down


def _chunk(uniforms, burns, cols, config, work):
    """(consumption, states, unthrottled consumption) in each row's window from burns[i].

    The rows' columns come in ``cols`` (see ``simulate``); the results are views into ``work``.
    """
    hpd = config.hours_per_day
    cycle = config.days_per_cycle * hpd
    k = len(burns)
    step_full, step_slow, onset, x, y = cols
    before, p, ax, a, consume, free = (w[:k] for w in work)
    hours = p.shape[1]
    active_x = _active(uniforms, x, hpd, config.diurnal)
    # exclusive count of earlier active hours in each cycle
    blocks, counts = active_x.reshape(k, -1, cycle), before.reshape(k, -1, cycle)
    counts[..., 0] = 0
    np.cumsum(blocks[..., :-1], axis=2, dtype=before.dtype, out=counts[..., 1:])
    pre = before < onset[:, None]
    active = active_x if y is None else _active(uniforms, y, hpd, config.diurnal)
    for i, b in enumerate(burns):
        w = slice(b, b + hours)
        p[i], ax[i], a[i] = pre[i, w], active_x[i, w], active[i, w]
    np.copyto(a, ax, where=p)
    # every step is finite and >= 0, so these are the nested wheres' bits
    np.copyto(consume, step_slow[:, None])
    np.copyto(consume, step_full[:, None], where=p)
    consume *= a
    state = None
    if config.record_states:
        state = np.where(a, np.where(p, UserState.UNTHROTTLED, UserState.THROTTLED), 0)
    return consume, state, np.multiply(ax, step_full[:, None], out=free)


def _hasher(const: int, mult: int):
    """numpy's SeedSequence hash step: xor the running constant, advance it, multiply, xorshift."""

    def step(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _WORD
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    return step


def _mix(x, y):
    out = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return out ^ (out >> _XSHIFT)


def _child_seeds(seed: int, lo: int, count: int) -> np.ndarray:
    """(count, 4) uint64: row i is child lo + i of ``SeedSequence(seed).spawn``'s
    ``generate_state(4, np.uint64)``, bit for bit.

    numpy's mixing, run once over uint32 columns with one row per child: the
    entropy is the seed's 32-bit words, little end first, padded with zeros to
    the pool size, then the child's spawn index.  Only that last word differs
    between rows, and the hash constants advance the same way in every row.
    """
    if not 0 <= lo <= lo + count <= _MAX_STREAMS:
        raise ValidationError(
            f"spawn indices must lie in [0, {_MAX_STREAMS}), got [{lo}, {lo + count})"
        )
    words = [(seed >> s) & _WORD for s in range(0, seed.bit_length() or 1, 32)]
    words += [0] * (_POOL_SIZE - len(words))
    entropy = [np.array([w], dtype=np.uint32) for w in words]
    entropy.append(np.arange(lo, lo + count, dtype=np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state: 8 words cycling over the pool, paired little end first
    generate = _hasher(_INIT_B, _MULT_B)
    state = np.empty((count, 2 * _POOL_SIZE), dtype="<u4")
    for j in range(2 * _POOL_SIZE):
        state[:, j] = generate(pool[j % _POOL_SIZE])
    return state.view("<u8").astype(np.uint64, copy=False)


def _user_rngs(seed: int, n: int):
    """Each user's ``default_rng(SeedSequence(seed).spawn(n)[i])``, in user order."""
    # numpy.random loads here, on the first draw, not when the package is imported
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class Seeded(ISeedSequence):
        """Hands PCG64 a child's precomputed ``generate_state(4, np.uint64)``."""

        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    for lo in range(0, n, _SEED_BLOCK):
        for row in _child_seeds(seed, lo, min(_SEED_BLOCK, n - lo)):
            yield Generator(PCG64(Seeded(row)))


def simulate(pop: Population, config: SimConfig) -> CycleTrace:
    """Run the hourly three-state simulation; ``unthrottled`` reuses its draws."""
    n = len(pop)
    if n > _MAX_STREAMS:
        raise ValidationError(f"at most {_MAX_STREAMS} users get their own stream, got {n}")
    plan, hpd = config.plan, config.hours_per_day
    hours = config.horizon_days * hpd
    cycle = config.days_per_cycle * hpd
    total, free_total = np.zeros(hours), np.zeros(hours)
    per_user, free_per_user = np.zeros(n), np.zeros(n)
    states = np.zeros((n, hours), dtype=np.int8) if config.record_states else None

    step_full = pop.rates / cycle
    slow = np.minimum(pop.rates, plan.rate)
    ys = None
    if plan.throttles and plan.mode is Mode.DOWNLOAD:
        with np.errstate(all="ignore"):  # as _download_activity: 1 at a zero rate
            ys = np.where(slow > 0, np.minimum(pop.demands / slow, 1.0), 1.0)
    # full and slow hourly steps, onset counts, x, and y (None: throttled users keep x)
    cols = (step_full, slow / cycle, _onset_counts(step_full, plan.threshold, cycle),
            pop.activities, ys)

    rngs = _user_rngs(config.seed, n)
    # one row per user from its burn-in start, padded to whole cycles
    buffer = np.empty((CHUNK_USERS, -(-(cycle + hours) // cycle) * cycle))
    # separate chunk-sized buffers: no block of the run outgrows the draws
    work = (np.empty(buffer.shape, dtype=np.int32),
            *(np.empty((CHUNK_USERS, hours), dtype=dt) for dt in (bool, bool, bool, float, float)))
    starts = []
    for lo in range(0, n, CHUNK_USERS):
        hi = min(lo + CHUNK_USERS, n)
        burns = []
        for i, rng in enumerate(islice(rngs, hi - lo)):
            starts.append(int(rng.integers(0, config.days_per_cycle)))
            burns.append((cycle - starts[-1] * hpd) % cycle)
            rng.random(out=buffer[i, : burns[-1] + hours])
        chunk_cols = tuple(None if c is None else c[lo:hi] for c in cols)
        consume, state, free = _chunk(buffer[: hi - lo], burns, chunk_cols, config, work)
        for rows, sums, per in ((consume, total, per_user), (free, free_total, free_per_user)):
            for row in rows:  # one user at a time, in user order, as a running sum
                sums += row
            per[lo:hi] = rows.sum(axis=1)
        if states is not None:
            states[lo:hi] = state
    starts = np.array(starts, dtype=np.int64)
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
