"""Randomized properties of the capacity solvers.

Sizes, tied and duplicated demands, kinked capacities and extreme scales
are drawn by hypothesis, in both access modes.  The solvers must meet
capacity within their tolerance of 1e-9 * max(1, C), move the right way
in the rate, report infeasibility exactly when T = 0 overshoots, and agree
with each other: rate_for_threshold inverts threshold_for_rate, and the
zero-rate bound is the threshold at r = 0.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from throttleplan import (
    Mode,
    Plan,
    Population,
    UserProfile,
    consumption,
    max_threshold,
    rate_for_threshold,
    threshold_for_rate,
)

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)

# a small pool makes tied demands likely; the scale spans 18 decades
BASES = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 3.0]), st.floats(1e-3, 1e3))
ACTIVITIES = st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.01, 1.0))
SCALES = st.sampled_from([1e-9, 1e-3, 1.0, 1e3, 1e9])
MODES = st.sampled_from([Mode.DOWNLOAD, Mode.STREAMING])


@st.composite
def populations(draw):
    pairs = draw(st.lists(st.tuples(BASES, ACTIVITIES), min_size=1, max_size=30))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=5))  # duplicated users
    scale = draw(SCALES)
    return Population(
        [UserProfile(i, rate * scale, act) for i, (rate, act) in enumerate(pairs)]
    )


def gates(pop, mode):
    return pop.demands if mode is Mode.DOWNLOAD else pop.rates


@st.composite
def instances(draw, mode=MODES, zero_rate=False):
    """(pop, mode, capacity, rate): capacity below demand, often at a kink."""
    pop = draw(populations())
    mode = draw(mode)
    top = float(gates(pop, mode).max())
    rate = 0.0 if zero_rate else draw(st.one_of(
        st.just(0.0),
        st.sampled_from(sorted(set(gates(pop, mode).tolist()))),
        st.floats(0.0, 1.0).map(lambda f: f * top),
    ))
    kind = draw(st.sampled_from(["fraction", "kink", "ulp"]))
    if kind == "kink":
        # consumption at a breakpoint: a user's own demand as the threshold
        kink = float(draw(st.sampled_from(pop.demands.tolist())))
        capacity = consumption(pop, Plan(kink, rate, mode))
    elif kind == "ulp":
        # the root sits at the largest demand, within rounding of the top kink
        capacity = float(np.nextafter(pop.total_demand, 0.0))
    else:
        capacity = draw(st.floats(0.01, 0.999)) * pop.total_demand
    assume(capacity < pop.total_demand)
    return pop, mode, capacity, rate


def tolerance(capacity):
    return 1e-9 * max(1.0, capacity)


@PROPERTY_SETTINGS
@given(instances())
def test_threshold_meets_capacity_or_is_none_exactly_when_infeasible(case):
    pop, mode, capacity, rate = case
    t = threshold_for_rate(pop, capacity, rate, mode)
    floor = consumption(pop, Plan(0.0, rate, mode))
    assert (t is None) == (floor > capacity + tolerance(capacity))
    if t is not None:
        assert 0.0 <= t < math.inf
        got = consumption(pop, Plan(t, rate, mode))
        assert abs(got - capacity) <= tolerance(capacity)


@PROPERTY_SETTINGS
@given(instances(), st.floats(0.0, 1.0))
def test_threshold_is_non_increasing_in_rate(case, frac):
    pop, mode, capacity, rate = case
    lower = frac * rate
    t_low = threshold_for_rate(pop, capacity, lower, mode)
    t_high = threshold_for_rate(pop, capacity, rate, mode)
    if t_high is None:
        return
    assert t_low is not None  # a gentler rate can only lower consumption
    assert t_high <= t_low * (1.0 + 1e-12)


@PROPERTY_SETTINGS
@given(instances(mode=st.just(Mode.DOWNLOAD)))
def test_rate_for_threshold_inverts_threshold_for_rate(case):
    pop, mode, capacity, rate = case
    t = threshold_for_rate(pop, capacity, rate, mode)
    assume(t is not None and t > 0.0)
    back = rate_for_threshold(pop, capacity, t, mode)
    assert back is not None
    got = consumption(pop, Plan(t, back, mode))
    assert abs(got - capacity) <= tolerance(capacity)
    if rate > 0.0:
        # unique wherever consumption still rises with the rate
        slope = float(np.sum(1.0 - t / pop.demands[pop.demands > max(t, rate)]))
        assert abs(back - rate) * slope <= 2 * tolerance(capacity)


@PROPERTY_SETTINGS
@given(instances(zero_rate=True))
def test_max_threshold_is_the_zero_rate_threshold(case):
    pop, mode, capacity, _ = case
    bound = max_threshold(pop, capacity)
    t0 = threshold_for_rate(pop, capacity, 0.0, mode)
    assert bound.threshold == pytest.approx(t0, rel=1e-12, abs=0.0)
    assert bound.throttled == frozenset(np.flatnonzero(pop.demands > bound.threshold).tolist())
    got = consumption(pop, Plan(bound.threshold, 0.0, mode))
    assert abs(got - capacity) <= tolerance(capacity)
