import math
import warnings

import numpy as np
import pytest

from throttleplan import (
    Assignment,
    CodecSet,
    Mode,
    Plan,
    Population,
    RegretParams,
    UserProfile,
    ValidationError,
    allocation,
    consumption,
    grid_oracle,
    kick_points,
    max_threshold,
    optimize_download,
    optimize_streaming,
    partition,
    post_throttle_activity,
    rate_for_threshold,
    solve_multi_tier,
    streaming_curve,
    threshold_curve,
    threshold_for_rate,
)


def test_plan_rejects_negative_fields():
    with pytest.raises(ValidationError):
        Plan(-0.1, 0.5, Mode.DOWNLOAD)
    with pytest.raises(ValidationError):
        Plan(0.1, -0.5, Mode.DOWNLOAD)


def test_no_throttling_sentinel():
    plan = Plan.no_throttling(Mode.STREAMING)
    assert not plan.throttles
    assert math.isinf(plan.threshold)
    assert Plan(0.3, 0.1, Mode.DOWNLOAD).throttles


def test_post_throttle_activity_streaming_keeps_x():
    u = UserProfile(0, 1.0, 0.5)
    assert post_throttle_activity(u, 0.2, Mode.STREAMING) == 0.5


def test_post_throttle_activity_download_stretches():
    u = UserProfile(0, 1.0, 0.5)  # demand 0.5
    assert post_throttle_activity(u, 2.0, Mode.DOWNLOAD) == pytest.approx(0.25)
    assert post_throttle_activity(u, 0.25, Mode.DOWNLOAD) == 1.0
    assert post_throttle_activity(u, 0.0, Mode.DOWNLOAD) == 1.0


def test_partition_download(pop4):
    part = partition(pop4, Plan(0.3, 0.4, Mode.DOWNLOAD))
    assert part.throttled == (1, 2, 3)
    assert part.low_demand == (0,)
    assert part.low_rate == ()

    part = partition(pop4, Plan(0.45, 0.6, Mode.DOWNLOAD))
    assert part.throttled == (3,)
    assert part.low_demand == (0, 1)
    assert part.low_rate == (2,)


def test_partition_streaming(stream3):
    part = partition(stream3, Plan(0.25, 0.5, Mode.STREAMING))
    assert part.throttled == (1, 2)
    assert part.low_demand == (0,)
    assert part.low_rate == ()

    part = partition(stream3, Plan(0.25, 0.9, Mode.STREAMING))
    assert part.throttled == (2,)
    assert part.low_rate == (1,)


def test_partition_is_exact_cover(pop4, stream3):
    for pop in (pop4, stream3):
        for plan in (
            Plan(0.2, 0.3, Mode.DOWNLOAD),
            Plan(0.2, 0.3, Mode.STREAMING),
            Plan(0.0, 0.0, Mode.DOWNLOAD),
            Plan.no_throttling(Mode.DOWNLOAD),
        ):
            part = partition(pop, plan)
            combined = sorted(part.throttled + part.low_demand + part.low_rate)
            assert combined == list(range(len(pop)))


def test_consumption_is_sum_of_allocations(pop4, stream3):
    plans = [
        Plan(0.3, 0.4, Mode.DOWNLOAD),
        Plan(0.1, 0.05, Mode.DOWNLOAD),
        Plan(0.25, 0.5, Mode.STREAMING),
        Plan.no_throttling(Mode.STREAMING),
    ]
    for pop in (pop4, stream3):
        for plan in plans:
            total = sum(allocation(u, plan) for u in pop)
            assert consumption(pop, plan) == pytest.approx(total, rel=1e-12)


def test_consumption_unthrottled_equals_demand(pop4):
    plan = Plan.no_throttling(Mode.DOWNLOAD)
    assert consumption(pop4, plan) == pytest.approx(pop4.total_demand)


def test_consumption_monotone_in_threshold_and_rate(pop4):
    c = [consumption(pop4, Plan(t, 0.2, Mode.DOWNLOAD)) for t in np.linspace(0, 0.6, 25)]
    assert all(a <= b + 1e-12 for a, b in zip(c, c[1:]))
    c = [consumption(pop4, Plan(0.2, r, Mode.DOWNLOAD)) for r in np.linspace(0, 1.1, 25)]
    assert all(a <= b + 1e-12 for a, b in zip(c, c[1:]))


def test_max_threshold_download(pop4):
    bound = max_threshold(pop4, 1.8)
    assert bound.threshold == pytest.approx(0.55)
    assert bound.throttled == frozenset({3})
    # consumption at (t_hat, 0) meets capacity exactly
    got = consumption(pop4, Plan(bound.threshold, 0.0, Mode.DOWNLOAD))
    assert got == pytest.approx(1.8, abs=1e-12)


def test_max_threshold_streaming(stream3):
    bound = max_threshold(stream3, 0.9, Mode.STREAMING)
    assert bound.threshold == pytest.approx(0.35)
    assert bound.throttled == frozenset({1, 2})


def test_max_threshold_no_throttling_needed(pop4):
    bound = max_threshold(pop4, 5.0)
    assert math.isinf(bound.threshold)
    assert bound.throttled == frozenset()


def test_max_threshold_rejects_negative_capacity(pop4):
    with pytest.raises(ValidationError):
        max_threshold(pop4, -1.0)


def test_threshold_for_rate_download(pop4):
    t = threshold_for_rate(pop4, 1.8, 0.5)
    assert t == pytest.approx(0.1, abs=1e-12)
    got = consumption(pop4, Plan(t, 0.5, Mode.DOWNLOAD))
    assert got == pytest.approx(1.8, abs=1e-9)


def test_threshold_for_rate_streaming(stream3):
    t = threshold_for_rate(stream3, 0.9, 0.4, Mode.STREAMING)
    assert t == pytest.approx(3 / 11, abs=1e-12)
    t = threshold_for_rate(stream3, 0.9, 0.6, Mode.STREAMING)
    assert t == pytest.approx(2 / 13, abs=1e-12)


def test_threshold_for_rate_too_generous_returns_none(pop4):
    # at T=0 the unthrottled demands alone leave consumption above capacity
    assert threshold_for_rate(pop4, 1.8, 0.8) is None


def test_threshold_for_rate_no_throttling_needed(pop4):
    assert threshold_for_rate(pop4, 5.0, 0.2) == math.inf


def test_solvers_survive_a_segment_that_rounding_flattens():
    # a stream one ulp above the rate: r * x / d rounds to 1, so T moves nothing
    rate = 0.1
    pop = Population([UserProfile(0, math.nextafter(rate, 1.0), 0.1)])
    capacity = math.nextafter(pop.total_demand, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = threshold_for_rate(pop, capacity, rate, Mode.STREAMING)
        assert t == 0.0
        assert consumption(pop, Plan(t, rate, Mode.STREAMING)) == pytest.approx(capacity)
        # a subnormal activity: x * (1 - T / d) underflows to 0, so r moves nothing
        tiny = Population([UserProfile(0, 2.0, 5e-324)])
        assert rate_for_threshold(tiny, 5e-324, 5e-324, Mode.STREAMING) == 0.0


def test_rate_for_threshold_download(pop4):
    r = rate_for_threshold(pop4, 1.8, 0.1)
    assert r == pytest.approx(0.5, abs=1e-12)
    assert rate_for_threshold(pop4, 1.8, 0.0) == pytest.approx(0.55, abs=1e-12)


def test_rate_for_threshold_sentinels(pop4):
    assert rate_for_threshold(pop4, 5.0, 0.1) == math.inf
    # threshold beyond the zero-rate bound cannot meet capacity
    assert rate_for_threshold(pop4, 1.8, 0.7) is None


def test_inverse_solvers_round_trip(pop4):
    capacity = 1.8
    for rate in (0.05, 0.2, 0.35, 0.5):
        t = threshold_for_rate(pop4, capacity, rate)
        assert t is not None and math.isfinite(t)
        got = consumption(pop4, Plan(t, rate, Mode.DOWNLOAD))
        assert got == pytest.approx(capacity, abs=1e-9)
        back = rate_for_threshold(pop4, capacity, t)
        assert back == pytest.approx(rate, abs=1e-9)


def test_threshold_for_rate_decreasing_in_rate(stream3):
    rates = (0.0, 0.1, 0.2, 0.3, 0.4)
    ts = [threshold_for_rate(stream3, 0.9, r, Mode.STREAMING) for r in rates]
    assert all(t is not None for t in ts)
    assert all(a >= b - 1e-12 for a, b in zip(ts, ts[1:]))


def test_plan_rejects_nan_fields():
    with pytest.raises(ValidationError, match="threshold must be >= 0, got nan"):
        Plan(math.nan, 0.1, Mode.DOWNLOAD)
    with pytest.raises(ValidationError, match="rate must be >= 0, got nan"):
        Plan(0.3, math.nan, Mode.STREAMING)


CAPACITY_ENTRY_POINTS = {
    "max_threshold": lambda pop, c: max_threshold(pop, c),
    "threshold_for_rate": lambda pop, c: threshold_for_rate(pop, c, 0.2),
    "rate_for_threshold": lambda pop, c: rate_for_threshold(pop, c, 0.2),
    "optimize_download": lambda pop, c: optimize_download(pop, c, RegretParams()),
    "kick_points": lambda pop, c: kick_points(pop, c),
    "grid_oracle": lambda pop, c: grid_oracle(pop, c, RegretParams(), 0.01),
    "threshold_curve": lambda pop, c: threshold_curve(pop, c, RegretParams(), 0.01),
    "optimize_streaming": lambda pop, c: optimize_streaming(
        pop, c, CodecSet([0.2, 0.4]), RegretParams()
    ),
    "streaming_curve": lambda pop, c: streaming_curve(
        pop, c, CodecSet([0.2, 0.4]), RegretParams(), 0.01
    ),
    "solve_multi_tier": lambda pop, c: solve_multi_tier(
        pop, Assignment.from_class_id("0111", 2), c, RegretParams()
    ),
}


@pytest.mark.parametrize("capacity", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("entry", sorted(CAPACITY_ENTRY_POINTS))
def test_entry_points_reject_bad_capacity(pop4, entry, capacity):
    with pytest.raises(ValidationError, match="capacity must be >= 0 and finite"):
        CAPACITY_ENTRY_POINTS[entry](pop4, capacity)
