import logging
import math

import numpy as np
import pytest

from throttleplan import (
    CycleTrace,
    Mode,
    Plan,
    Population,
    SimConfig,
    UserProfile,
    UserState,
    ValidationError,
    daily_average,
    diurnal_activity,
    generate_codec_uniform,
    simulate,
    variability_ratio,
)

CYCLE_HOURS = 720


def test_diurnal_activity_values():
    assert diurnal_activity(0.9, 10) == pytest.approx(0.9, abs=1e-15)
    assert diurnal_activity(0.9, 16) == pytest.approx(0.95, rel=1e-12)
    assert diurnal_activity(0.9, 4) == pytest.approx(0.85, rel=1e-12)
    assert diurnal_activity(0.5, 16) == pytest.approx(0.75, rel=1e-12)
    got = diurnal_activity(0.5, np.array([10, 16]))
    assert got == pytest.approx([0.5, 0.75], rel=1e-12)


def test_diurnal_activity_validation():
    with pytest.raises(ValidationError):
        diurnal_activity(0.0, 12)
    with pytest.raises(ValidationError):
        diurnal_activity(1.2, 12)
    with pytest.raises(ValidationError):
        diurnal_activity(0.5, -1)
    with pytest.raises(ValidationError):
        diurnal_activity(0.5, 24)


@pytest.mark.parametrize("hpd", [2, 12, 24, 25, 48])
def test_diurnal_profile_averages_to_x_over_any_day(hpd):
    x = np.array([[0.05], [0.5], [0.9], [1.0]])
    profile = diurnal_activity(x, np.arange(hpd), hpd)
    assert np.all((0.0 <= profile) & (profile <= 1.0))
    assert profile.mean(axis=1) == pytest.approx(x[:, 0], abs=1e-15)
    with pytest.raises(ValidationError, match=f"0..{hpd - 1}"):
        diurnal_activity(0.5, hpd, hpd)


def test_diurnal_profile_at_24_hours_is_the_default():
    hours = np.arange(24)
    assert diurnal_activity(0.3, hours, 24).tobytes() == diurnal_activity(0.3, hours).tobytes()


def test_diurnal_simulation_runs_on_a_long_day():
    pop = Population([UserProfile(0, 1.0, 0.5), UserProfile(1, 0.4, 0.9)])
    config = SimConfig(Plan(0.3, 0.1, Mode.STREAMING), horizon_days=3, days_per_cycle=2,
                       hours_per_day=25, diurnal=True, seed=2)
    assert simulate(pop, config).hourly_total.shape == (75,)


def test_config_rejects_a_diurnal_one_hour_day():
    plan = Plan(0.3, 0.1, Mode.DOWNLOAD)
    with pytest.raises(ValidationError, match="at least 2 hours per day"):
        SimConfig(plan, hours_per_day=1, diurnal=True)
    SimConfig(plan, hours_per_day=1)


def test_config_validation():
    plan = Plan(0.3, 0.1, Mode.DOWNLOAD)
    with pytest.raises(ValidationError, match="at least one 30-day cycle"):
        SimConfig(plan, horizon_days=29)
    with pytest.raises(ValidationError):
        SimConfig(plan, horizon_days=30, hours_per_day=0)


def test_always_on_user_consumes_flat():
    pop = Population([UserProfile(0, 1.0, 1.0)])
    plan = Plan.no_throttling(Mode.DOWNLOAD)
    trace = simulate(pop, SimConfig(plan, horizon_days=30, seed=1))
    assert trace.hourly_total.shape == (CYCLE_HOURS,)
    assert np.all(trace.hourly_total == 1.0 / CYCLE_HOURS)
    assert trace.per_user_total[0] == pytest.approx(1.0, abs=1e-12)
    assert 0 <= trace.start_days[0] < 30


def test_states_reconstruct_consumption_exactly():
    pop = generate_codec_uniform(20, (0.4, 0.8, 1.2), seed=9)
    plan = Plan(0.2, 0.1, Mode.STREAMING)
    trace = simulate(pop, SimConfig(plan, horizon_days=45, seed=9, record_states=True))
    states = trace.per_user_state
    assert states.shape == (20, 45 * 24)
    rates = pop.rates
    rebuilt = (
        (states == UserState.UNTHROTTLED) * rates[:, None]
        + (states == UserState.THROTTLED) * plan.rate
    ) / CYCLE_HOURS
    assert np.array_equal(rebuilt.sum(axis=0), trace.hourly_total)
    assert np.array_equal(rebuilt.sum(axis=1), trace.per_user_total)


def _complete_windows(start_day: int, hours: int):
    """Recorded index ranges of full billing cycles for one user."""
    w = start_day * 24
    while w + CYCLE_HOURS <= hours:
        yield w, w + CYCLE_HOURS
        w += CYCLE_HOURS


def test_onset_respects_threshold():
    pop = generate_codec_uniform(15, (0.6, 1.0), seed=4)
    plan = Plan(0.3, 0.05, Mode.STREAMING)
    hours = 60 * 24
    trace = simulate(pop, SimConfig(plan, horizon_days=60, seed=4, record_states=True))
    checked = 0
    for u, user in enumerate(pop):
        step = user.rate / CYCLE_HOURS
        for lo, hi in _complete_windows(int(trace.start_days[u]), hours):
            window = trace.per_user_state[u, lo:hi]
            full_bytes = np.count_nonzero(window == UserState.UNTHROTTLED) * step
            # full-rate bytes stop within one hour of crossing the threshold
            assert full_bytes < plan.threshold + step
            if np.any(window == UserState.THROTTLED):
                assert full_bytes >= plan.threshold
                checked += 1
    assert checked >= 5  # the instance is tight enough to throttle regularly


def test_download_throttle_fills_idle_hours():
    # rate 0.1 against demand 0.5 stretches active time to always-on
    pop = Population([UserProfile(i, 1.0, 0.5) for i in range(4)])
    plan = Plan(0.3, 0.1, Mode.DOWNLOAD)
    hours = 60 * 24
    trace = simulate(pop, SimConfig(plan, horizon_days=60, seed=0, record_states=True))
    saw_throttle = 0
    for u in range(4):
        for lo, hi in _complete_windows(int(trace.start_days[u]), hours):
            window = trace.per_user_state[u, lo:hi]
            hit = np.nonzero(window == UserState.THROTTLED)[0]
            if hit.size:
                saw_throttle += 1
                assert np.all(window[hit[0]:] == UserState.THROTTLED)
    assert saw_throttle > 0


def test_streaming_throttle_keeps_idle_hours():
    pop = Population([UserProfile(i, 1.0, 0.5) for i in range(4)])
    plan = Plan(0.3, 0.1, Mode.STREAMING)
    trace = simulate(pop, SimConfig(plan, horizon_days=60, seed=0, record_states=True))
    post_idle = 0
    for u in range(4):
        row = trace.per_user_state[u]
        hit = np.nonzero(row == UserState.THROTTLED)[0]
        if hit.size:
            post_idle += int(np.count_nonzero(row[hit[0]:] == UserState.INACTIVE))
    assert post_idle > 0


def test_unthrottled_mean_matches_demand():
    pop = generate_codec_uniform(50, (0.5,), seed=2)
    plan = Plan.no_throttling(Mode.DOWNLOAD)
    trace = simulate(pop, SimConfig(plan, horizon_days=60, seed=2))
    expected = pop.total_demand / CYCLE_HOURS
    assert trace.hourly_total.mean() == pytest.approx(expected, rel=0.02)


def test_simulation_is_deterministic():
    pop = generate_codec_uniform(10, (0.2, 0.8), seed=3)
    cfg = SimConfig(Plan(0.2, 0.1, Mode.STREAMING), horizon_days=30, seed=5)
    a = simulate(pop, cfg)
    b = simulate(pop, cfg)
    assert np.array_equal(a.hourly_total, b.hourly_total)
    assert np.array_equal(a.start_days, b.start_days)
    c = simulate(pop, SimConfig(Plan(0.2, 0.1, Mode.STREAMING), horizon_days=30, seed=6))
    assert not np.array_equal(a.hourly_total, c.hourly_total)


def test_daily_average_from_trace():
    pop = Population([UserProfile(0, 1.0, 1.0)])
    trace = simulate(pop, SimConfig(Plan.no_throttling(Mode.DOWNLOAD), horizon_days=31, seed=1))
    days = daily_average(trace)
    assert days.shape == (31,)
    assert days == pytest.approx(np.full(31, 1.0 / CYCLE_HOURS))


def test_daily_average_drops_partial_day():
    series = np.arange(50, dtype=float)
    days = daily_average(series)
    assert days.shape == (2,)
    assert days == pytest.approx([11.5, 35.5])
    assert daily_average(np.arange(5, dtype=float)).size == 0


def _trace(values) -> CycleTrace:
    arr = np.asarray(values, dtype=float)
    return CycleTrace(arr, np.array([arr.sum()]), np.array([0]), 24)


def test_variability_ratio_of_identical_traces_is_zero():
    t = _trace([1.0, 2.0, 3.0, 4.0])
    assert variability_ratio(t, t) == 0.0


def test_variability_ratio_excludes_zero_hours(caplog):
    throttled = _trace([1.0, 1.0, 5.0])
    unthrottled = _trace([2.0, 2.0, 0.0])
    with caplog.at_level(logging.WARNING, logger="throttleplan.cyclesim"):
        ratio = variability_ratio(throttled, unthrottled)
    assert ratio == 0.0  # the surviving hours have identical ratios
    assert "excluded 1" in caplog.text


def test_variability_ratio_validation():
    with pytest.raises(ValidationError):
        variability_ratio(_trace([1.0, 2.0]), _trace([1.0, 2.0, 3.0]))
    with pytest.raises(ValidationError):
        variability_ratio(_trace([1.0, 2.0]), _trace([0.0, 0.0]))


def _staggering_ratio(n: int, seed: int) -> float:
    rates = tuple(round(0.1 * k, 1) for k in range(1, 10))
    pop = generate_codec_uniform(n, rates, seed=seed)
    plan = Plan(0.3, 0.1, Mode.STREAMING)
    throttled = simulate(pop, SimConfig(plan, horizon_days=60, diurnal=True, seed=seed))
    return variability_ratio(throttled, throttled.unthrottled)


def test_staggered_cycles_smooth_out_with_scale():
    small = np.mean([_staggering_ratio(30, s) for s in range(3)])
    large = np.mean([_staggering_ratio(300, s) for s in range(3)])
    assert large < small


def test_config_rejects_negative_seed():
    with pytest.raises(ValidationError, match="seed must be a non-negative integer, got -1"):
        SimConfig(Plan(0.3, 0.1, Mode.STREAMING), seed=-1)


def test_config_refuses_a_throttling_plan_with_an_infinite_rate():
    # a user past T would be recorded THROTTLED at full rate
    for mode in Mode:
        with pytest.raises(ValidationError, match="a throttling plan needs a finite rate"):
            SimConfig(Plan(0.3, math.inf, mode))
        with pytest.raises(ValidationError, match="a throttling plan needs a finite rate"):
            SimConfig(Plan(0.0, math.inf, mode))
        # an infinite threshold is no throttling, whatever the rate
        assert not SimConfig(Plan(math.inf, 0.1, mode)).plan.throttles
        assert not SimConfig(Plan.no_throttling(mode)).plan.throttles


def test_config_rejects_a_horizon_over_the_cap():
    # checked before anything is allocated: the states alone would be 24 GB
    with pytest.raises(ValidationError, match="exceeds the cap"):
        SimConfig(Plan(0.3, 0.1, Mode.STREAMING), horizon_days=10**8, record_states=True)
    SimConfig(Plan(0.3, 0.1, Mode.STREAMING), horizon_days=10**6 // 24)


@pytest.mark.parametrize("mode", list(Mode))
def test_a_throttle_above_the_users_rate_keeps_their_consumption(mode):
    # 0.2 * 0.5 and back divide exactly, so download activity stays 0.5
    pop = Population([UserProfile(0, 0.2, 1.0), UserProfile(1, 0.2, 0.5)])
    free = simulate(pop, SimConfig(Plan.no_throttling(mode), horizon_days=60, seed=1))
    for plan in (Plan(0.1, 0.3, mode), Plan(0.01, 1e300, mode)):
        trace = simulate(pop, SimConfig(plan, horizon_days=60, seed=1, record_states=True))
        assert trace.hourly_total.tobytes() == free.hourly_total.tobytes()
        assert trace.per_user_total.tobytes() == free.per_user_total.tobytes()
        assert np.any(trace.per_user_state == UserState.THROTTLED)
