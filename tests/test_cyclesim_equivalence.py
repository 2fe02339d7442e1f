"""The chunked simulator against the per-user loop it replaced.

``_loop_simulate`` below is the billing-cycle simulator as it stood before
chunked columns: one user at a time, one numpy pass per billing cycle, the
onset found with ``argmax``, and a separate branch for plans that never
throttle; its post-throttle rate is capped at the user's own rate, as the
library's is.  It is kept here as a test-only reference.  The library must give
the same hourly totals, per-user totals, start days and states bit for bit,
and the unthrottled trace it attaches must equal a separate no-throttling
run on the same seed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from throttleplan import (
    Mode,
    Plan,
    Population,
    SimConfig,
    UserProfile,
    UserState,
    diurnal_activity,
    generate_codec_uniform,
    generate_lognormal,
    simulate,
)
from throttleplan.allocation import _download_activity
from throttleplan.cyclesim import CHUNK_USERS, DAYS_PER_CYCLE, HOURS_PER_DAY, _onset_counts


def _profile(x, hods, config):
    if not config.diurnal:
        return np.full(hods.size, x)
    return np.asarray(diurnal_activity(x, hods), dtype=float)


def _loop_simulate(pop, config):
    """(hourly_total, per_user_total, start_days, per_user_state) of the loop."""
    n = len(pop)
    hours = config.horizon_days * HOURS_PER_DAY
    cycle = DAYS_PER_CYCLE * HOURS_PER_DAY
    plan = config.plan
    total = np.zeros(hours)
    per_user = np.zeros(n)
    starts = np.zeros(n, dtype=np.int64)
    states = np.zeros((n, hours), dtype=np.int8) if config.record_states else None

    children = np.random.SeedSequence(config.seed).spawn(n)
    columns = zip(pop.rates.tolist(), pop.activities.tolist(), pop.demands.tolist(), children)
    for u, (rate, activity, demand, child) in enumerate(columns):
        rng = np.random.default_rng(child)
        start_day = int(rng.integers(0, DAYS_PER_CYCLE))
        starts[u] = start_day
        burn = (cycle - start_day * HOURS_PER_DAY) % cycle
        span = burn + hours
        uniforms = rng.random(span)
        hods = (np.arange(span) - burn) % HOURS_PER_DAY
        x_prob = _profile(activity, hods, config)

        if not plan.throttles:
            active = uniforms < x_prob
            consume = np.where(active, rate / cycle, 0.0)
            state = active.astype(np.int8)
        else:
            slow = min(rate, plan.rate)
            if plan.mode is Mode.DOWNLOAD:
                y_prob = _profile(_download_activity(demand, slow), hods, config)
            else:
                y_prob = x_prob
            consume = np.empty(span)
            state = np.empty(span, dtype=np.int8)
            step_full = rate / cycle
            step_slow = slow / cycle
            for c0 in range(0, span, cycle):
                c1 = min(c0 + cycle, span)
                sl = slice(c0, c1)
                active_x = uniforms[sl] < x_prob[sl]
                ranks = np.cumsum(active_x)
                pre_acc = (ranks - active_x) * step_full
                hit = pre_acc >= plan.threshold
                onset = int(np.argmax(hit)) if hit.any() else c1 - c0
                pre = np.arange(c1 - c0) < onset
                active_y = uniforms[sl] < y_prob[sl]
                active = np.where(pre, active_x, active_y)
                consume[sl] = np.where(active, np.where(pre, step_full, step_slow), 0.0)
                state[sl] = np.where(
                    active, np.where(pre, UserState.UNTHROTTLED, UserState.THROTTLED), 0
                ).astype(np.int8)
        rec = consume[burn:]
        total += rec
        per_user[u] = rec.sum()
        if states is not None:
            states[u] = state[burn:]
    return total, per_user, starts, states


def _assert_same(trace, want):
    total, per_user, starts, states = want
    assert trace.hourly_total.tobytes() == total.tobytes()
    assert trace.per_user_total.tobytes() == per_user.tobytes()
    assert np.array_equal(trace.start_days, starts)
    if states is None:
        assert trace.per_user_state is None
    else:
        assert trace.per_user_state.dtype == np.int8
        assert np.array_equal(trace.per_user_state, states)


# around one chunk, and several chunks with a partial last one
SIZES = st.sampled_from(
    [1, 2, CHUNK_USERS - 1, CHUNK_USERS, CHUNK_USERS + 1, 3 * CHUNK_USERS + 5, 100]
)
PLANS = st.one_of(
    st.builds(Plan, st.floats(0.0, 0.6), st.floats(0.0, 1.2), st.sampled_from(Mode)),
    st.builds(Plan, st.just(0.0), st.floats(0.0, 1.2), st.sampled_from(Mode)),
    st.builds(Plan, st.floats(0.0, 0.6), st.just(0.0), st.sampled_from(Mode)),
    st.builds(Plan.no_throttling, st.sampled_from(Mode)),
)


@st.composite
def populations(draw):
    n = draw(SIZES)
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return generate_codec_uniform(n, (0.2, 0.4, 0.6, 0.8, 1.0), seed=seed)
    activity = draw(st.sampled_from([0.05, 0.3, 0.5, 1.0]))
    return generate_lognormal(n, -1.0, 0.6, activity, seed=seed)


# 30-45 days: a partial last cycle for most horizons
CONFIGS = st.builds(
    SimConfig,
    plan=PLANS,
    horizon_days=st.integers(30, 45) | st.sampled_from([60, 61]),
    diurnal=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    record_states=st.booleans(),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(populations(), CONFIGS)
def test_chunked_simulator_matches_loop(pop, config):
    trace = simulate(pop, config)
    _assert_same(trace, _loop_simulate(pop, config))
    free = SimConfig(Plan.no_throttling(config.plan.mode), config.horizon_days,
                     config.diurnal, config.seed)
    _assert_same(trace.unthrottled, _loop_simulate(pop, free))
    assert trace.unthrottled.unthrottled is None


def test_attached_trace_equals_a_separate_run():
    pop = generate_codec_uniform(2 * CHUNK_USERS + 3, (0.2, 0.6, 1.0), seed=1)
    for mode in Mode:
        config = SimConfig(Plan(0.1, 0.05, mode), horizon_days=40, diurnal=True, seed=3)
        free = simulate(pop, SimConfig(Plan.no_throttling(mode), 40, True, 3))
        got = simulate(pop, config).unthrottled
        assert got.hourly_total.tobytes() == free.hourly_total.tobytes()
        assert got.per_user_total.tobytes() == free.per_user_total.tobytes()
        assert got.per_user_state is None


# onset edges: full-activity users reach count c in the c-th active hour, so a
# threshold at fl(c * step) or one ulp either side moves the onset by an hour
EDGE_RATES = (0.1, 0.3, 0.7, 1.0, 2.9)
EDGE_POP = Population(
    UserProfile(i, rate, activity)
    for i, (rate, activity) in enumerate((r, x) for x in (1.0, 0.5) for r in EDGE_RATES)
)


def _check_plan(plan, diurnal=False):
    config = SimConfig(plan, horizon_days=37, diurnal=diurnal, seed=11, record_states=True)
    trace = simulate(EDGE_POP, config)
    _assert_same(trace, _loop_simulate(EDGE_POP, config))
    free = SimConfig(Plan.no_throttling(plan.mode), 37, diurnal, 11)
    _assert_same(trace.unthrottled, _loop_simulate(EDGE_POP, free))


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("rate", EDGE_RATES)
def test_threshold_at_and_one_ulp_around_a_step_multiple(rate, mode):
    cycle = 30 * 24
    for c in (1, 2, 7, 100, 359, 719):
        t = c * (rate / cycle)
        for threshold in (np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf)):
            _check_plan(Plan(float(threshold), 0.2, mode))


@pytest.mark.parametrize("diurnal", [False, True])
@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize(
    "plan",
    [(0.0, 0.2), (0.0, 0.0), (0.05, 0.0), (0.05, 5.0), (0.0, 5.0), None],
    ids=["T=0", "T=0,r=0", "r=0", "r>rates", "T=0,r>rates", "no-throttling"],
)
def test_edge_plans_match_the_loop(plan, mode, diurnal):
    _check_plan(Plan.no_throttling(mode) if plan is None else Plan(*plan, mode), diurnal)


def test_onset_counts_split_the_float_test_exactly():
    cycle = 720
    counts = np.arange(cycle + 1, dtype=float)
    tiny = np.nextafter(0.0, 1.0)
    steps = np.array([0.0, tiny, 1e-300, 0.1 / cycle, 1.0 / 3, 2.9 / cycle, 1e300, 1.7e308])
    for threshold in (0.0, tiny, 0.1, 0.3, 1.0 / 7, 1e-310, 250.0, 1e308, np.inf):
        m = _onset_counts(steps, threshold, cycle)
        with np.errstate(over="ignore"):
            below = counts[None, :] * steps[:, None] < threshold
        want = np.where(below.all(axis=1), cycle, np.argmin(below, axis=1))
        assert np.array_equal(m, want), threshold
