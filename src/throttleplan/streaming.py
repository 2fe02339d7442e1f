"""Optimal streaming-mode plans over a discrete codec ladder.

Streaming throttles snap to a codec rate: the post-throttle rate r must be
one of the ladder's rates, and a throttled stream keeps its activity.  For a
fixed r the capacity-tight threshold is unique because consumption rises
monotonically in T, so the optimizer simply solves T for every codec and
keeps the feasible (T, r) with the least aggregate regret, preferring the
larger rate on ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .allocation import (
    Mode,
    Plan,
    _check_capacity,
    _consumption_arrays,
    max_threshold,
    threshold_for_rate,
)
from .download import _threshold_grid
from .errors import InfeasibleError, ValidationError
from .population import Population
from .regret import RegretParams, aggregate_regret


@dataclass(frozen=True)
class CodecSet:
    """Ascending, distinct codec rates a throttled stream may fall back to."""

    rates: tuple[float, ...]

    def __init__(self, rates: Iterable[float]):
        ordered = tuple(sorted(set(float(r) for r in rates)))
        if not ordered:
            raise ValidationError("codec set must not be empty")
        bad = [r for r in ordered if not 0 <= r < math.inf]
        if bad:
            raise ValidationError(f"codec rates must be >= 0 and finite, got {bad[0]}")
        object.__setattr__(self, "rates", ordered)

    def __iter__(self):
        return iter(self.rates)

    def __len__(self) -> int:
        return len(self.rates)

    @classmethod
    def parse(cls, text: str) -> "CodecSet":
        """Parse a comma-separated rate list like '0.2,0.4,0.6'."""
        try:
            return cls(float(p) for p in text.split(","))
        except ValueError as exc:
            raise ValidationError(f"bad codec list {text!r}: {exc}") from None


class CodecCandidate(NamedTuple):
    """One evaluated codec: its capacity-tight threshold and regret."""

    rate: float
    threshold: float
    regret: float


@dataclass(frozen=True)
class StreamSolution:
    plan: Plan
    regret: float
    candidates: tuple[CodecCandidate, ...]


def solve_threshold(pop: Population, capacity: float, rate: float) -> float | None:
    """Capacity-tight streaming threshold for a fixed post-throttle rate.

    None when the rate is too generous for the capacity, inf when capacity
    covers total demand.
    """
    return threshold_for_rate(pop, capacity, rate, Mode.STREAMING)


def optimize_streaming(
    pop: Population, capacity: float, codecs: CodecSet, params: RegretParams
) -> StreamSolution:
    """Least-regret feasible (threshold, codec rate) pair.

    Raises :class:`InfeasibleError` when no codec admits a feasible
    threshold; ties in regret go to the larger rate (gentler throttle).
    """
    _check_capacity(capacity)
    if capacity >= pop.total_demand:
        return StreamSolution(Plan.no_throttling(Mode.STREAMING), 0.0, ())
    candidates = []
    for r in codecs:
        t = solve_threshold(pop, capacity, r)
        if t is None:
            continue
        plan = Plan(t, r, Mode.STREAMING)
        candidates.append(CodecCandidate(r, t, aggregate_regret(pop, plan, params)))
    if not candidates:
        detail = ", ".join(f"rate {r}: floor consumption exceeds capacity" for r in codecs)
        raise InfeasibleError(
            f"no codec rate admits a feasible threshold at capacity {capacity} ({detail})"
        )
    # scan ascending and accept >= so equal regret settles on the larger rate
    best = candidates[0]
    for cand in candidates[1:]:
        if cand.regret <= best.regret:
            best = cand
    return StreamSolution(
        Plan(best.threshold, best.rate, Mode.STREAMING), best.regret, tuple(candidates)
    )


def streaming_curve(
    pop: Population, capacity: float, codecs: CodecSet, params: RegretParams, step: float
) -> np.ndarray:
    """Sampled (T, r, regret) rows with the best feasible codec at each T.

    At each grid threshold the largest codec keeping consumption within
    capacity is selected; thresholds where even the smallest codec overshoots
    are skipped.  Useful for plotting and as a brute-force reference.
    """
    _check_capacity(capacity)
    if capacity >= pop.total_demand:
        raise ValidationError("curve is undefined when capacity covers demand")
    grid = _threshold_grid(max_threshold(pop, capacity).threshold, step)
    d, R, x = pop.demands, pop.rates, pop.activities
    rows = []
    for t in grid:
        chosen = None
        for r in codecs:
            if _consumption_arrays(d, R, x, float(t), r, Mode.STREAMING) <= capacity:
                chosen = r
        if chosen is None:
            continue
        plan = Plan(float(t), chosen, Mode.STREAMING)
        rows.append((float(t), chosen, aggregate_regret(pop, plan, params)))
    return np.array(rows, dtype=float).reshape(-1, 3)
