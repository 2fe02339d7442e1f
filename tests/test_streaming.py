import math

import numpy as np
import pytest

from throttleplan import (
    CodecSet,
    InfeasibleError,
    Mode,
    Plan,
    Population,
    RegretParams,
    UserProfile,
    ValidationError,
    consumption,
    optimize_streaming,
    solve_threshold,
    streaming_curve,
)

P2 = RegretParams()
LADDER = CodecSet([0.2, 0.4, 0.6, 0.8, 1.0])


def test_codec_set_sorts_and_dedupes():
    cs = CodecSet([0.4, 0.2, 0.4, 1.0])
    assert cs.rates == (0.2, 0.4, 1.0)
    assert len(cs) == 3
    assert list(cs) == [0.2, 0.4, 1.0]


def test_codec_set_parse():
    assert CodecSet.parse("0.2,0.4,0.6").rates == (0.2, 0.4, 0.6)
    with pytest.raises(ValidationError):
        CodecSet.parse("0.2,fast")


def test_codec_set_validation():
    with pytest.raises(ValidationError):
        CodecSet([])
    with pytest.raises(ValidationError):
        CodecSet([-0.1, 0.5])


def test_solve_threshold_values(stream3):
    assert solve_threshold(stream3, 0.9, 0.2) == pytest.approx(10 / 31, abs=1e-12)
    assert solve_threshold(stream3, 0.9, 0.4) == pytest.approx(3 / 11, abs=1e-12)
    assert solve_threshold(stream3, 0.9, 0.8) is None
    assert solve_threshold(stream3, 2.0, 0.4) == math.inf


def test_optimize_streaming_worked_instance(stream3):
    sol = optimize_streaming(stream3, 0.9, LADDER, P2)
    assert sol.plan.rate == 0.4
    assert sol.plan.threshold == pytest.approx(3 / 11, abs=1e-12)
    assert sol.plan.mode is Mode.STREAMING
    assert sol.regret == pytest.approx(193 / 1936, rel=1e-10)
    # the two over-generous codecs are dropped, not reported
    assert [c.rate for c in sol.candidates] == [0.2, 0.4, 0.6]
    assert sol.candidates[0].threshold == pytest.approx(10 / 31, abs=1e-12)
    assert sol.candidates[0].regret == pytest.approx(0.10165452653485962, rel=1e-10)
    assert sol.candidates[2].threshold == pytest.approx(2 / 13, abs=1e-12)
    assert sol.candidates[2].regret == pytest.approx(0.10035502958579891, rel=1e-10)
    # winner dominates every candidate and meets capacity
    assert all(sol.regret <= c.regret for c in sol.candidates)
    assert consumption(stream3, sol.plan) == pytest.approx(0.9, abs=1e-9)


def test_optimize_streaming_tie_prefers_larger_rate():
    pop = Population([UserProfile(0, 1.0, 1.0)])
    sol = optimize_streaming(pop, 0.75, CodecSet([0.5, 0.75]), P2)
    # both codecs reach regret 1/16 exactly; the gentler throttle wins
    assert [c.regret for c in sol.candidates] == [0.0625, 0.0625]
    assert sol.plan.rate == 0.75
    assert sol.plan.threshold == pytest.approx(0.0, abs=1e-12)


def test_optimize_streaming_infeasible(stream3):
    with pytest.raises(InfeasibleError, match="no codec rate admits"):
        optimize_streaming(stream3, 0.9, CodecSet([0.8, 1.0]), P2)


def test_optimize_streaming_no_throttling_needed(stream3):
    sol = optimize_streaming(stream3, 2.0, LADDER, P2)
    assert not sol.plan.throttles
    assert sol.regret == 0.0
    assert sol.candidates == ()


def test_optimize_streaming_rejects_negative_capacity(stream3):
    with pytest.raises(ValidationError):
        optimize_streaming(stream3, -1.0, LADDER, P2)


def test_streaming_curve(stream3):
    curve = streaming_curve(stream3, 0.9, LADDER, P2, step=0.005)
    assert curve.shape[1] == 3
    assert np.all(curve[:, 0] >= 0.0)
    assert np.all(curve[:, 0] <= 0.35 + 1e-12)
    assert set(np.unique(curve[:, 1])) <= set(LADDER.rates)
    # the widest feasible codec only narrows as the threshold grows
    assert np.all(np.diff(curve[:, 1]) <= 1e-12)
    sol = optimize_streaming(stream3, 0.9, LADDER, P2)
    assert sol.regret <= curve[:, 2].min() + 1e-9


def test_streaming_curve_validation(stream3):
    with pytest.raises(ValidationError):
        streaming_curve(stream3, 0.9, LADDER, P2, step=0.0)
    with pytest.raises(ValidationError):
        streaming_curve(stream3, 2.0, LADDER, P2, step=0.01)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_codec_set_rejects_non_finite_rates(bad):
    with pytest.raises(ValidationError, match="codec rates must be >= 0 and finite"):
        CodecSet([0.2, bad])


def test_streaming_curve_caps_the_grid(stream3):
    # never run uncapped: a 1e-12 step would ask for a grid of ~1e12 points
    with pytest.raises(ValidationError, match="exceeds the cap of 1000000"):
        streaming_curve(stream3, 0.9, LADDER, P2, step=1e-12)


@pytest.mark.parametrize("step, message", [
    (0.0, "step must be positive, got 0.0"),
    (math.nan, "step must be positive, got nan"),
    (math.inf, "step must be finite, got inf"),
])
def test_streaming_curve_refuses_bad_steps(stream3, step, message):
    with pytest.raises(ValidationError) as exc:
        streaming_curve(stream3, 0.9, LADDER, P2, step=step)
    assert str(exc.value) == message
