import math

import numpy as np
import pytest

from throttleplan import (
    KickKind,
    Mode,
    Plan,
    Population,
    RegretParams,
    UserProfile,
    ValidationError,
    consumption,
    generate_lognormal,
    grid_oracle,
    kick_points,
    optimize_download,
    threshold_curve,
)
from throttleplan.download import (
    MAX_GRID_POINTS,
    _interval_picks,
    _optimize_rows,
    _RowLadders,
    optimize_demands,
)

P2 = RegretParams()


def test_kick_events_worked_instance(pop4):
    events = kick_points(pop4, 1.8)
    assert [(e.kind, e.user) for e in events] == [
        (KickKind.KICK_IN, 2),
        (KickKind.KICK_IN, 1),
        (KickKind.KICK_OUT, 1),
        (KickKind.KICK_OUT, 2),
    ]
    assert events[0].threshold == pytest.approx(0.1, abs=1e-12)
    assert events[1].threshold == pytest.approx(3 / 13, abs=1e-12)
    assert events[2].threshold == pytest.approx(0.45, abs=1e-12)
    assert events[3].threshold == pytest.approx(0.5, abs=1e-12)


def test_kick_events_sorted_and_bounded():
    for seed in range(6):
        pop = generate_lognormal(25, 0.0, 0.7, seed=seed)
        capacity = 0.7 * pop.total_demand
        events = kick_points(pop, capacity)
        assert len(events) <= 2 * len(pop)
        ts = [e.threshold for e in events]
        assert ts == sorted(ts)
        assert all(0 <= t for t in ts)
        # nobody kicks in or out twice
        for kind in KickKind:
            users = [e.user for e in events if e.kind is kind]
            assert len(users) == len(set(users))


def test_kick_points_validation(pop4):
    with pytest.raises(ValidationError):
        kick_points(pop4, pop4.total_demand)
    with pytest.raises(ValidationError):
        kick_points(pop4, -0.5)


def test_optimum_worked_instance(pop4):
    sol = optimize_download(pop4, 1.8, P2)
    assert sol.plan.threshold == pytest.approx(0.36764, abs=1e-4)
    assert sol.regret == pytest.approx(0.16594, abs=1e-4)
    # tighter frozen values, and the rate sits on the threshold
    assert sol.plan.threshold == pytest.approx(0.367635935157196, rel=1e-12)
    assert sol.regret == pytest.approx(0.1659410854222299, rel=1e-12)
    assert abs(sol.plan.rate - sol.plan.threshold) <= 1e-9
    got = consumption(pop4, sol.plan)
    assert abs(got - 1.8) <= 1e-9 * 1.8


def test_optimum_threshold_does_not_depend_on_exponent(pop4):
    t2 = optimize_download(pop4, 1.8, P2).plan.threshold
    t3 = optimize_download(pop4, 1.8, RegretParams(rho=3.0)).plan.threshold
    t4 = optimize_download(pop4, 1.8, RegretParams(rho=4.0)).plan.threshold
    assert t2 == t3 == t4


def test_intervals_worked_instance(pop4):
    lad = _RowLadders.build(pop4.demands[None], np.array([1.8]))
    row, lo, hi, k = lad.intervals()
    assert row.tolist() == [0] * 5
    # the demands are already sorted, so the suffix from k holds users k..3
    assert k.tolist() == [3, 2, 1, 2, 3]
    # contiguous cover of [0, t_hat)
    assert lo[0] == 0.0
    assert hi[-1] == pytest.approx(0.55, abs=1e-12)
    assert lo[1:].tolist() == hi[:-1].tolist()
    t, _, regret, _ = _interval_picks(
        lad.ds, row, lo, hi, k, 1.8 - lad.prefix[0, k], lad.suf_inv[0, k], 2.0, True)
    sol = optimize_download(pop4, 1.8, P2)
    # the global optimum lives in the middle interval
    assert t[2] == pytest.approx(sol.plan.threshold, rel=1e-12)
    assert regret[2] == pytest.approx(sol.regret, rel=1e-12)
    # single-member plateaus at both ends carry the same constant regret,
    # and the two-member intervals mirror each other
    assert regret[0] == pytest.approx(0.2025, rel=1e-12)
    assert regret[4] == pytest.approx(0.2025, rel=1e-12)
    assert regret[1] == pytest.approx(regret[3], rel=1e-9)
    assert sol.regret < regret[1] < regret[0]


def test_solution_carries_no_interval_records(pop4):
    sol = optimize_download(pop4, 1.8, P2)
    assert sol.intervals == ()
    assert sol.regret == pytest.approx(0.1659410854222299, rel=1e-12)


def test_single_user_plateau():
    pop = Population([UserProfile(0, 1.0, 1.0)])
    sol = optimize_download(pop, 0.5, P2)
    # capacity equality T + r(1 - T) = 0.5 with r = T gives T = 1 - sqrt(0.5)
    assert sol.plan.threshold == pytest.approx(1 - math.sqrt(0.5), rel=1e-12)
    assert abs(sol.plan.rate - sol.plan.threshold) <= 1e-9
    assert sol.regret == pytest.approx(0.25, rel=1e-12)


def test_duplicate_demands():
    pop = Population([UserProfile(i, 0.5, 1.0) for i in range(3)])
    assert kick_points(pop, 1.0) == []
    sol = optimize_download(pop, 1.0, P2)
    assert sol.plan.threshold == pytest.approx(0.21132486540518713, rel=1e-12)
    assert abs(sol.plan.rate - sol.plan.threshold) <= 1e-9
    assert consumption(pop, sol.plan) == pytest.approx(1.0, abs=1e-9)


def test_no_throttling_when_capacity_covers_demand(pop4):
    sol = optimize_download(pop4, 5.0, P2)
    assert not sol.plan.throttles
    assert sol.regret == 0.0
    assert sol.intervals == ()


def test_zero_capacity(pop4):
    sol = optimize_download(pop4, 0.0, P2)
    assert sol.plan.threshold == 0.0
    assert sol.plan.rate == 0.0
    assert sol.regret == pytest.approx(4.0)


# capacity one ulp below this row's sum: t_hat rounds up to the largest demand
NEAR_FULL = [0.364, 0.395, 0.54, 0.288, 0.609, 0.11, 0.22, 0.294]


def test_capacity_covering_demand_up_to_rounding_is_no_throttling():
    demands = np.array(NEAR_FULL)
    assert 2.82 < demands.sum()
    assert optimize_demands(demands, 2.82, 2.0) == (math.inf, math.inf, 0.0)
    pop = Population([UserProfile(i, d, 1.0) for i, d in enumerate(NEAR_FULL)])
    sol = optimize_download(pop, 2.82, P2)
    assert not sol.plan.throttles and sol.regret == 0.0


def test_near_full_row_keeps_its_own_plan_in_a_batch():
    rows = np.array([NEAR_FULL, [0.3, 0.5, 0.2, 0.9, 0.4, 0.6, 0.7, 0.8]])
    caps = np.array([2.82, 2.0])
    t, r, reg = _optimize_rows(rows, caps, 2.0)
    for i in range(2):
        assert (t[i], r[i], reg[i]) == optimize_demands(rows[i], float(caps[i]), 2.0)
    assert (t[0], r[0], reg[0]) == (math.inf, math.inf, 0.0)


def test_parameter_validation(pop4):
    with pytest.raises(ValidationError):
        optimize_download(pop4, 1.8, RegretParams(rho=1.5))
    with pytest.raises(ValidationError):
        optimize_download(pop4, 1.8, RegretParams(rho=2.0, tau=3.0))
    with pytest.raises(ValidationError):
        optimize_download(pop4, -1.0, P2)


def test_optimize_demands_matches_full_solver(pop4):
    t, r, reg = optimize_demands(pop4.demands, 1.8, 2.0)
    sol = optimize_download(pop4, 1.8, P2)
    assert t == sol.plan.threshold
    assert r == sol.plan.rate
    assert reg == sol.regret
    assert optimize_demands(pop4.demands, 5.0, 2.0) == (math.inf, math.inf, 0.0)


def test_threshold_curve_worked_instance(pop4):
    curve = threshold_curve(pop4, 1.8, P2, step=0.01)
    assert curve.shape[1] == 3
    t, r, reg = curve[0]
    assert (t, r) == (0.0, pytest.approx(0.55, abs=1e-12))
    assert reg == pytest.approx(0.2025, rel=1e-12)
    t, r, reg = curve[-1]
    assert t == pytest.approx(0.55, abs=1e-12)
    assert r == pytest.approx(0.0, abs=1e-12)
    assert reg == pytest.approx(0.2025, rel=1e-12)
    # capacity-tight rate only falls as the threshold grows
    assert np.all(np.diff(curve[:, 1]) <= 1e-12)
    # the exact optimizer is never beaten by its own sampled curve
    sol = optimize_download(pop4, 1.8, P2)
    assert curve[:, 2].min() >= sol.regret - 1e-12


def test_threshold_curve_meets_capacity_near_full_demand():
    # C = 4.082 lies one ulp below the demand sum.  A fixed-point iteration
    # for the throttled set stops at r = 0.51025 at T = 0, consuming 3.04
    # where the capacity-tight rate t_hat = 0.976 consumes C; every row must
    # meet C.
    rates = [0.168, 0.228, 0.27, 0.421, 0.423, 0.747, 0.849, 0.976]
    pop = Population([UserProfile(i, rate, 1.0) for i, rate in enumerate(rates)])
    assert 4.082 < pop.total_demand
    curve = threshold_curve(pop, 4.082, P2, step=0.1)
    used = [consumption(pop, Plan(t, r, Mode.DOWNLOAD)) for t, r, _ in curve]
    assert all(abs(u - 4.082) <= 1e-9 * 4.082 for u in used), used


def test_threshold_curve_validation(pop4):
    with pytest.raises(ValidationError):
        threshold_curve(pop4, 1.8, P2, step=0.0)
    with pytest.raises(ValidationError):
        threshold_curve(pop4, 5.0, P2, step=0.01)


def test_optimizer_beats_grid_oracle_on_random_instances():
    for seed in range(8):
        pop = generate_lognormal(12, 0.0, 0.5, seed=seed)
        capacity = 0.75 * pop.total_demand
        sol = optimize_download(pop, capacity, P2)
        oracle = grid_oracle(pop, capacity, P2, step=1e-3 * capacity)
        assert sol.regret <= oracle.regret + 1e-12
        assert consumption(pop, sol.plan) == pytest.approx(capacity, abs=1e-9 * capacity)


def test_threshold_curve_caps_the_grid(pop4):
    # never run uncapped: a 1e-12 step would ask for a grid of 5.5e11 points
    with pytest.raises(ValidationError, match="exceeds the cap of 1000000"):
        threshold_curve(pop4, 1.8, P2, step=1e-12)
    with pytest.raises(ValidationError, match="exceeds the cap of 1000000"):
        grid_oracle(pop4, 1.8, P2, step=1e-12)
    assert len(threshold_curve(pop4, 1.8, P2, step=0.55 / MAX_GRID_POINTS)) == MAX_GRID_POINTS + 1


@pytest.mark.parametrize("step, message", [
    (0.0, "step must be positive, got 0.0"),
    (math.nan, "step must be positive, got nan"),
    (math.inf, "step must be finite, got inf"),
])
def test_threshold_curve_refuses_bad_steps(pop4, step, message):
    with pytest.raises(ValidationError) as exc:
        threshold_curve(pop4, 1.8, P2, step=step)
    assert str(exc.value) == message
