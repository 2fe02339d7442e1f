import math

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import OptimizeResult

from throttleplan import (
    Assignment,
    InfeasibleError,
    Plan,
    Population,
    RegretParams,
    ThrottlePlanError,
    TierConfig,
    UserProfile,
    ValidationError,
    check_equilibrium,
    deviation_regret,
    enumerate_equilibria,
    generate_lognormal,
    optimize_tier,
    solve_multi_tier,
    stackelberg_iterate,
    sweep_splits,
    tiergame,
)
from throttleplan.allocation import Mode

P2 = RegretParams()


@pytest.fixture
def config():
    """Two tiers priced 0.5 / 1.0 sharing capacity 1.8 as 0.3 + 1.5."""
    return TierConfig((0.5, 1.0), 0.01, (0.3, 1.5))


def test_config_validation():
    with pytest.raises(ValidationError, match="strictly ascending"):
        TierConfig((1.0, 0.5), 0.01, (0.5, 0.5))
    with pytest.raises(ValidationError, match="match prices in length"):
        TierConfig((0.5, 1.0), 0.01, (0.5,))
    with pytest.raises(ValidationError, match="kappa"):
        TierConfig((0.5, 1.0), -0.01, (0.5, 0.5))
    with pytest.raises(ValidationError, match="capacity shares must be >= 0"):
        TierConfig((0.5, 1.0), 0.01, (-0.5, 0.5))
    with pytest.raises(ValidationError):
        TierConfig((), 0.01, ())


def test_config_properties(config):
    assert config.n_tiers == 2
    assert config.capacity == pytest.approx(1.8)
    resized = config.with_shares((0.9, 0.9))
    assert resized.capacity_shares == (0.9, 0.9)
    assert resized.prices == config.prices


def test_assignment_round_trip():
    a = Assignment.from_class_id("0111", 2)
    assert a.class_id == "0111"
    assert a.members() == [(0,), (1, 2, 3)]
    with pytest.raises(ValidationError):
        Assignment((0, 2), 2)


def test_optimize_tier_branches(pop4):
    empty = optimize_tier(pop4, (), 0.5, P2)
    assert (empty.threshold, empty.rate) == (0.0, 0.0)
    # share covers the members' demand: finite no-throttle convention
    roomy = optimize_tier(pop4, (0, 1), 2.0, P2)
    assert (roomy.threshold, roomy.rate) == (2.0, 2.0)
    tight = optimize_tier(pop4, (1, 2, 3), 1.5, P2)
    assert abs(tight.rate - tight.threshold) <= 1e-9
    assert 0.0 < tight.threshold < 1.0
    for bad_share in (-0.1, math.nan, math.inf):
        with pytest.raises(ValidationError, match="share must be >= 0 and finite"):
            optimize_tier(pop4, (1, 2, 3), bad_share, P2)
    with pytest.raises(ValidationError):
        optimize_tier(pop4, (0, 0), 0.5, P2)
    with pytest.raises(ValidationError):
        optimize_tier(pop4, (7,), 0.5, P2)


def test_tier_covered_up_to_rounding_is_planned_at_its_share():
    # the rates sum to one ulp above 4.082: t_hat reaches the largest demand
    rates = (0.168, 0.228, 0.27, 0.421, 0.423, 0.747, 0.849, 0.976)
    pop = Population([UserProfile(i, r, 1.0) for i, r in enumerate(rates)])
    assert 4.082 < pop.demands.sum()
    want = Plan(4.082, 4.082, Mode.DOWNLOAD)
    assert optimize_tier(pop, range(8), 4.082, P2) == want
    table = tiergame._SubsetPlans(pop.demands, (4.082, 1.0), P2.rho)
    assert table.plan(0, (1 << 8) - 1) == want
    others = [0, 1, 2, 4, 5, 6, 7]
    plan = tiergame._download_plan(pop.demands, tuple(others), 4.082, P2.rho)
    tier = tiergame._Tier(pop.demands, others, 4.082, plan, 0.0, P2)
    assert tier.join(3, lambda: np.array([], dtype=int)) == want


def _plan_bytes(plan):
    return np.array([plan.threshold, plan.rate]).tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_a_move_leaves_both_tiers_fresh(seed):
    """After leave and enter, both tiers' floors, plans and tables are those of their new members."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 40))
    pop = generate_lognormal(n, 0.0, 0.5, seed=seed)
    params = RegretParams(rho=float(rng.choice([2.0, 3.0])), kappa=0.05)
    split = rng.permutation(n)
    cut = int(rng.integers(2, n - 1))
    groups = [sorted(split[:cut].tolist()), sorted(split[cut:].tolist())]
    tiers = []
    for members, price in zip(groups, (0.5, 1.0)):
        share = float(rng.uniform(0.3, 1.1)) * float(pop.demands[members].sum())
        plan = tiergame._download_plan(pop.demands, tuple(members), share, params.rho)
        tiers.append(tiergame._Tier(pop.demands, members, share, plan, params.kappa * price, params))
    a = int(rng.integers(2))
    source, target = tiers[a], tiers[1 - a]
    user = int(rng.choice(source.members))
    # fill both tables before the move; each tier's outsiders are the other's members
    source.join(target.members[0], lambda: np.array(target.members[1:]))
    joined = target.join(user, lambda: np.setdiff1d(source.members, [user]))
    assert source.joins and target.joins and target.batch > tiergame._JOIN_BATCH
    source.leave(user)
    target.enter(user, joined)
    assert user not in source.members and user in target.members
    for tier in tiers:
        assert tier.members == sorted(tier.members)
        assert tier.joins == {} and tier.batch == tiergame._JOIN_BATCH
        t_zero, t_cross = tiergame._join_levels(pop.demands, tier.members, tier.share)
        floor = tiergame._join_floor(tier.price_term, t_zero, pop.demands, 2 * params.rho, t_cross)
        assert tier.floor.tobytes() == floor.tobytes()
        fresh = tiergame._download_plan(pop.demands, tuple(tier.members), tier.share, params.rho)
        assert _plan_bytes(tier.plan) == _plan_bytes(fresh)


def test_deviation_regret_worked_instance(pop4, config):
    nash = Assignment.from_class_id("0111", 2)
    # the cheap user would pay more regret in the expensive tier
    dev0 = deviation_regret(pop4, config, nash, 0, 1)
    assert dev0 == pytest.approx(0.010330924217514696, rel=1e-10)
    assert dev0 > 0.01 * 0.5  # current regret: price term only, unthrottled
    # the heaviest user would be crushed by the small tier's share
    dev3 = deviation_regret(pop4, config, nash, 3, 0)
    assert dev3 == pytest.approx(0.7275, rel=1e-10)


def test_deviation_regret_validation(pop4, config):
    nash = Assignment.from_class_id("0111", 2)
    with pytest.raises(ValidationError):
        deviation_regret(pop4, config, nash, 0, 0)
    with pytest.raises(ValidationError):
        deviation_regret(pop4, config, nash, 0, 5)


def test_config_kappa_overrides_params(pop4, config):
    nash = Assignment.from_class_id("0111", 2)
    base = deviation_regret(pop4, config, nash, 0, 1)
    inflated = deviation_regret(pop4, config, nash, 0, 1, RegretParams(kappa=99.0))
    assert inflated == base


def test_check_equilibrium(pop4, config):
    ok, moves = check_equilibrium(pop4, config, Assignment.from_class_id("0111", 2))
    assert ok
    assert moves == []
    ok, moves = check_equilibrium(pop4, config, Assignment.from_class_id("0000", 2))
    assert not ok
    assert len(moves) == 4
    assert all(drop > 0 for _, _, drop in moves)
    with pytest.raises(ValidationError):
        check_equilibrium(pop4, config, Assignment.from_class_id("011", 2))


def test_enumerate_equilibria(pop4, config):
    assert enumerate_equilibria(pop4, config, 1 / 6) == ["0111"]


def test_enumerate_equilibria_validation(pop4, config):
    big = generate_lognormal(21, 0.0, 0.5, seed=0)
    with pytest.raises(ValidationError, match="stackelberg_iterate"):
        enumerate_equilibria(big, config, 0.5)
    with pytest.raises(ValidationError):
        enumerate_equilibria(pop4, config, 1.5)
    with pytest.raises(ValidationError):
        enumerate_equilibria(pop4, TierConfig((0.5, 1.0, 2.0), 0.01, (0.6, 0.6, 0.6)), 0.5)


def test_sweep_splits(pop4, config):
    points = sweep_splits(pop4, config, step=0.01)
    assert len(points) == 101
    assert points[0].split == 0.0
    assert points[-1].split == 1.0
    # symmetric four-user game: six balanced 2-2 equilibria at the even split
    at_half = points[50]
    assert sorted(cid for cid, _ in at_half.equilibria) == [
        "0011", "0101", "0110", "1001", "1010", "1100",
    ]
    near_sixth = points[17]
    assert [cid for cid, _ in near_sixth.equilibria] == ["0111"]
    for p in points:
        if p.equilibria:
            assert p.min_regret <= p.avg_regret <= p.max_regret
        else:
            assert p.min_regret is None


def test_sweep_splits_validation(pop4, config):
    with pytest.raises(ValidationError):
        sweep_splits(pop4, config, step=0.0)
    with pytest.raises(ValidationError):
        sweep_splits(pop4, config, step=1.0)


UNSUPPORTED_EXPONENTS = {
    "rho-1.5": (RegretParams(rho=1.5), "download optimization requires rho >= 2"),
    "tau-3": (RegretParams(rho=2, tau=3), "requires equal rate/time exponents"),
}


@pytest.mark.parametrize("case", sorted(UNSUPPORTED_EXPONENTS))
def test_two_tier_game_refuses_exponents_the_download_scan_does_not_support(pop4, config, case):
    params, message = UNSUPPORTED_EXPONENTS[case]
    nash = Assignment.from_class_id("0111", 2)
    calls = [
        lambda: enumerate_equilibria(pop4, config, 0.5, params),
        lambda: sweep_splits(pop4, config, 0.5, params),
        lambda: check_equilibrium(pop4, config, nash, params),
        lambda: deviation_regret(pop4, config, nash, 0, 1, params),
        lambda: optimize_tier(pop4, (1, 2, 3), 1.5, params),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match=message):
            call()


def test_solve_multi_tier_worked_instance(pop4):
    nash = Assignment.from_class_id("0111", 2)
    ts = solve_multi_tier(pop4, nash, 1.8, P2)
    assert ts[0] == pytest.approx(0.3, rel=1e-9)
    assert ts[1] == pytest.approx(0.367635935157196, rel=1e-6)


def test_solve_multi_tier_degenerate_cases(pop4):
    # one occupied tier reduces to the plain download optimum
    ts = solve_multi_tier(pop4, Assignment.from_class_id("0000", 2), 1.8, P2)
    assert ts[0] == pytest.approx(0.367635935157196, rel=1e-9)
    assert ts[1] == 0.0
    # capacity covering demand reports everyone unthrottled
    ts = solve_multi_tier(pop4, Assignment.from_class_id("0111", 2), 5.0, P2)
    assert ts == [pytest.approx(0.3), pytest.approx(1.0)]


def test_solve_multi_tier_validation(pop4):
    nash = Assignment.from_class_id("0111", 2)
    with pytest.raises(ValidationError):
        solve_multi_tier(pop4, nash, 1.8, RegretParams(rho=1.5))
    with pytest.raises(ValidationError):
        solve_multi_tier(pop4, nash, 1.8, RegretParams(rho=2.0, tau=3.0))
    with pytest.raises(ValidationError):
        solve_multi_tier(pop4, Assignment.from_class_id("011", 2), 1.8, P2)


def test_solve_multi_tier_raises_when_slsqp_fails(pop4, monkeypatch):
    # there is no fallback solver: an SLSQP failure surfaces with its message
    def failing_minimize(fun, x0, **kwargs):
        return OptimizeResult(
            x=np.asarray(x0, dtype=float), success=False,
            message="Positive directional derivative for linesearch",
        )

    monkeypatch.setattr(scipy.optimize, "minimize", failing_minimize)
    nash = Assignment.from_class_id("0111", 2)
    with pytest.raises(ThrottlePlanError, match="Positive directional derivative for linesearch"):
        solve_multi_tier(pop4, nash, 1.8, P2)


def test_stackelberg_small_instance():
    pop = generate_lognormal(12, 0.0, 0.5, seed=3)
    capacity = 0.9 * pop.total_demand
    report = stackelberg_iterate(pop, (0.5, 1.0), capacity, kappa=0.05, seed=3)
    assert report.converged
    assert report.iterations == 2
    assert report.assignment.class_id == "000000111111"
    assert sum(report.capacity_shares) == pytest.approx(capacity, rel=1e-9)
    assert report.regret == pytest.approx(0.5358191666920051, rel=1e-9)
    for plan in report.tier_plans:
        assert plan.rate == plan.threshold
    # thresholds ascend with tier price here: the dear tier throttles later
    assert report.tier_plans[0].threshold < report.tier_plans[1].threshold
    # the assignment it settles on is a genuine equilibrium of the final shares
    cfg = TierConfig((0.5, 1.0), 0.05, report.capacity_shares)
    ok, _ = check_equilibrium(pop, cfg, report.assignment)
    assert ok


def test_stackelberg_is_deterministic():
    pop = generate_lognormal(12, 0.0, 0.5, seed=3)
    capacity = 0.9 * pop.total_demand
    a = stackelberg_iterate(pop, (0.5, 1.0), capacity, kappa=0.05, seed=3)
    b = stackelberg_iterate(pop, (0.5, 1.0), capacity, kappa=0.05, seed=3)
    assert a == b


def test_stackelberg_zero_iterations():
    pop = generate_lognormal(10, 0.0, 0.5, seed=1)
    report = stackelberg_iterate(pop, (0.5, 1.0), 0.8 * pop.total_demand, 0.05, max_iters=0)
    assert not report.converged
    assert report.iterations == 0
    assert report.tier_plans == ()
    assert math.isnan(report.regret)
    # rate-order halves seed the two-tier game
    assert report.assignment.class_id == "0000011111"


def test_stackelberg_progress_callback():
    pop = generate_lognormal(12, 0.0, 0.5, seed=3)
    calls = []
    report = stackelberg_iterate(
        pop,
        (0.5, 1.0),
        0.9 * pop.total_demand,
        kappa=0.05,
        seed=3,
        progress=lambda i, ts, moves: calls.append((i, ts, moves)),
    )
    assert len(calls) == report.iterations
    assert [i for i, _, _ in calls] == list(range(1, report.iterations + 1))
    assert all(len(ts) == 2 for _, ts, _ in calls)
    assert calls[-1][2] == 0  # final pass moves nobody


def test_stackelberg_validation():
    pop = generate_lognormal(10, 0.0, 0.5, seed=1)
    with pytest.raises(ValidationError):
        stackelberg_iterate(pop, (0.5,), 1.0, 0.05)
    with pytest.raises(ValidationError):
        stackelberg_iterate(pop, (1.0, 0.5), 1.0, 0.05)
    with pytest.raises(ValidationError):
        stackelberg_iterate(pop, (0.5, 1.0), 1.0, 0.05, max_iters=-1)


def test_stackelberg_refuses_a_negative_seed_before_any_solve(monkeypatch):
    # only the three-tier start draws from the seed; it is refused before that draw
    def unreachable(*args, **kwargs):
        raise AssertionError("reached past the input check")

    monkeypatch.setattr(tiergame, "assign_tiers_binomial", unreachable)
    monkeypatch.setattr(tiergame, "solve_multi_tier", unreachable)
    pop = generate_lognormal(10, 0.0, 0.5, seed=1)
    with pytest.raises(ValidationError, match="seed must be a non-negative integer, got -1"):
        stackelberg_iterate(pop, (0.5, 0.75, 1.0), 0.8 * pop.total_demand, 0.05, seed=-1)
    with pytest.raises(ValidationError, match="seed must be a non-negative integer, got -1"):
        stackelberg_iterate(pop, (0.5, 0.75, 1.0), 0.8 * pop.total_demand, 0.05, max_iters=0,
                            seed=-1)


@pytest.mark.xfail(raises=InfeasibleError, strict=True,
                   reason="ROADMAP item 2: the leader's search box starts at the smallest "
                          "demand, so a low capacity is refused though T = r = 0 is feasible")
def test_stackelberg_accepts_a_low_capacity():
    # criterion 8's seed-0 population at C = 0.3 D
    pop = generate_lognormal(300, 0.0, 0.5, seed=0)
    capacity = 0.3 * pop.total_demand
    report = stackelberg_iterate(pop, (0.5, 0.75, 1.0), capacity, 0.05, max_iters=1, seed=0)
    assert report.iterations == 1
    assert sum(report.capacity_shares) <= capacity * (1 + 1e-9)


def test_config_rejects_non_finite_values():
    with pytest.raises(ValidationError, match="prices must be >= 0 and finite"):
        TierConfig((0.5, math.nan), 0.01, (0.5, 0.5))
    with pytest.raises(ValidationError, match="kappa must be >= 0 and finite"):
        TierConfig((0.5, 1.0), math.nan, (0.5, 0.5))
    with pytest.raises(ValidationError, match="capacity shares must be >= 0 and finite"):
        TierConfig((0.5, 1.0), 0.01, (math.inf, 0.5))


def test_sweep_caps_the_split_grid(pop4, config):
    # never run uncapped: a 1e-9 step would ask for 1e9 splits
    with pytest.raises(ValidationError, match="exceeds the cap of 1000000"):
        sweep_splits(pop4, config, step=1e-9)
