"""The tier game's pruned best-response loops against unpruned references.

``stackelberg_iterate`` skips a target tier whose regret floor already
reaches the mover's best option, and ``check_equilibrium`` skips a target
whose price term reaches the user's current regret.  The references below
solve every deviation, plan every tier up front and rebuild the assignment
after every move, as the loops did before the floors.  The library must
give identical reports, identical improving-move lists in the same order,
and the same error wherever a game raises.  The floor itself is checked
against the regret ``_move_regret`` reports on random tiers, and against
any plan inside its stated margin.  The Stackelberg loop's floor, from the
tier's zero-rate level and r = T crossing as they would be with one more
member, is checked against solved deviations, against every capacity-tight
plan of the grown tier, and against the tier's plain t_hat floor it refines;
that floor and the tier's t_hat are kept below as references.
"""

import math
from functools import cache, partial
from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from throttleplan import (
    Assignment,
    Plan,
    Population,
    RegretParams,
    ThrottlePlanError,
    TierConfig,
    UserProfile,
    check_equilibrium,
    enumerate_equilibria,
    generate_lognormal,
    sweep_splits,
    solve_multi_tier,
    stackelberg_iterate,
    tiergame,
)
from throttleplan.allocation import Mode
from throttleplan.allocation import _zero_rate_bound
from throttleplan.download import _RowLadders, _tight_rates, optimize_demands
from throttleplan.population import assign_tiers_binomial
from throttleplan.regret import _regret
from throttleplan.tiergame import (
    EquilibriumReport,
    SweepPoint,
    _download_plan,
    _join_floor,
    _join_levels,
    _move_regret,
    _tier_consumption,
)
from throttleplan.regret import tiered_aggregate_regret

KAPPAS = (0.0, 0.01, 0.05, 0.2)


def _zero_rate_threshold(demands, members, share):
    """t_hat of a tier: the threshold meeting its share at rate 0.

    Every plan of the tier, or of the tier with members added, keeps T and r
    within it.  inf for an empty tier or a share covering the members'
    demand, where no finite bound holds.
    """
    if not members:
        return math.inf
    ds = np.sort(demands[list(members)])
    prefix = np.concatenate(([0.0], np.cumsum(ds)))
    if share >= prefix[-1]:
        return math.inf
    return _zero_rate_bound(ds, prefix, share)


def _zero_rate_floor(price_term, t_hat, demand, exponent):
    """The tier's plain floor: ``_join_floor`` with both levels at t_hat.

    It bounds every plan with T and r at most t_hat, and the crossing floor
    refines it.
    """
    factor = np.clip(1.0 - t_hat * (1.0 + 1e-9) / demand, 0.0, None)
    gap = factor * factor
    return price_term + gap ** (0.5 * exponent) * (1.0 - 1e-9)


def _reference_deviation(demands, plan, target, user, share, price, params):
    target_plan = plan(tuple(sorted((*target, user))), share)
    return params.kappa * price + _regret(demands[user], 1.0, target_plan, params), target_plan


def _reference_stackelberg(pop, prices, capacity, kappa, seed, max_iters=tiergame.MAX_ITERS):
    """``stackelberg_iterate`` with every deviation solved and no floors."""
    prices = tuple(float(p) for p in prices)
    params = RegretParams(kappa=kappa)
    n, k = len(pop), len(prices)
    if k == 3:
        tier_of = tuple(assign_tiers_binomial(pop, seed=seed).tiers())
    else:
        base, rem = divmod(n, k)
        chunks: list[int] = []
        for j in range(k):
            chunks.extend([j] * (base + rem if j == 0 else base))
        tier_of = tuple(chunks[:n])
    assignment = Assignment(tier_of, k)
    plan = partial(_download_plan, pop.demands, rho=params.rho)
    demands = pop.demands.tolist()
    seen = {assignment.tier_of}
    prev_ts = None
    converged = False
    iterations = 0
    members = assignment.members()
    for _ in range(max_iters):
        iterations += 1
        ts = np.array(solve_multi_tier(pop, assignment, capacity, params), dtype=float)
        shares = tuple(
            _tier_consumption(pop.demands[list(m)], float(t)) for m, t in zip(members, ts)
        )
        plans = tuple(Plan(float(t), float(t), Mode.DOWNLOAD) for t in ts)
        moved = False
        member_lists = [list(m) for m in members]
        cur_plans = list(plans)
        for u in range(n):
            a = assignment.tier_of[u]
            throttle = _regret(demands[u], 1.0, cur_plans[a], params)
            if a == 0 and throttle == 0.0:
                continue
            best_dev, best_b, best_plan = params.kappa * prices[a] + throttle, None, None
            for b in range(k):
                if b == a:
                    continue
                dev, plan_b = _reference_deviation(
                    demands, plan, member_lists[b], u, shares[b], prices[b], params)
                if dev < best_dev:
                    best_dev, best_b, best_plan = dev, b, plan_b
            if best_b is not None:
                member_lists[a].remove(u)
                member_lists[best_b].append(u)
                member_lists[best_b].sort()
                cur_plans[a] = plan(tuple(member_lists[a]), shares[a])
                cur_plans[best_b] = best_plan
                new_tiers = list(assignment.tier_of)
                new_tiers[u] = best_b
                assignment = Assignment(tuple(new_tiers), k)
                moved = True
        members = [tuple(m) for m in member_lists]
        if not moved and prev_ts is not None and np.max(np.abs(ts - prev_ts)) <= 1e-9:
            converged = True
            break
        prev_ts = ts
        if moved:
            if assignment.tier_of in seen:
                break
            seen.add(assignment.tier_of)
    tier_plans = [plan(m, share) for m, share in zip(members, shares)]
    regret = tiered_aggregate_regret(pop, members, tier_plans, list(prices), params)
    return EquilibriumReport(converged, iterations, assignment, plans, regret, shares)


def _reference_moves(demands, config, assignment, params, plan):
    """``check_equilibrium``'s moves, planning every tier up front and solving every target."""
    members = assignment.members()
    shares, prices = config.capacity_shares, config.prices
    plans = [plan(m, share) for m, share in zip(members, shares)]
    out = []
    for u in range(len(demands)):
        a = assignment.tier_of[u]
        cur = params.kappa * prices[a] + _regret(demands[u], 1.0, plans[a], params)
        for b in range(config.n_tiers):
            if b == a:
                continue
            dev, _ = _reference_deviation(demands, plan, members[b], u, shares[b], prices[b], params)
            if dev < cur:
                out.append((u, b, cur - dev))
    return out


def _outcome(fn):
    try:
        return fn()
    except ThrottlePlanError as exc:
        return type(exc), str(exc)


def _random_population(rng, n):
    """Lognormal rates; mixed activities half the time, so demand order leaves rate order."""
    rates = rng.lognormal(0.0, float(rng.uniform(0.3, 1.0)), n)
    activities = rng.uniform(0.2, 1.0, n) if rng.random() < 0.5 else np.ones(n)
    return Population(
        [UserProfile(i, float(r), float(x)) for i, (r, x) in enumerate(zip(rates, activities))]
    )


def _random_game(rng):
    n = int(rng.integers(6, 70))
    k = int(rng.integers(2, 5))
    pop = _random_population(rng, n)
    prices = tuple(np.cumsum(rng.uniform(0.1, 0.6, k)).tolist())
    kappa = KAPPAS[int(rng.integers(len(KAPPAS)))]
    capacity = float(rng.uniform(0.55, 0.99)) * pop.total_demand
    return pop, prices, capacity, kappa


@pytest.mark.parametrize("block", range(4))
def test_stackelberg_matches_unpruned_reference(block):
    rng = np.random.default_rng(7100 + block)
    raised = 0
    for _ in range(10):
        pop, prices, capacity, kappa = _random_game(rng)
        seed = int(rng.integers(100))
        got = _outcome(lambda: stackelberg_iterate(pop, prices, capacity, kappa, seed=seed))
        want = _outcome(lambda: _reference_stackelberg(pop, prices, capacity, kappa, seed))
        assert got == want, (len(pop), prices, capacity, kappa, seed)
        raised += isinstance(want, tuple)
    assert raised < 10  # the draws must exercise the loop, not only its errors


def test_stackelberg_seed_zero_matches_unpruned_reference():
    """The benchmark's instance shape: 300 users, three tiers, kappa 0.05."""
    pop = generate_lognormal(300, 0.0, 0.5, seed=0)
    capacity = 0.95 * pop.total_demand
    got = stackelberg_iterate(pop, (0.5, 0.75, 1.0), capacity, 0.05, seed=0, max_iters=6)
    want = _reference_stackelberg(pop, (0.5, 0.75, 1.0), capacity, 0.05, 0, max_iters=6)
    assert got == want


def test_check_equilibrium_matches_eager_reference():
    rng = np.random.default_rng(7200)
    for _ in range(40):
        n = int(rng.integers(6, 41))
        k = int(rng.integers(2, 5))
        pop = _random_population(rng, n)
        shares = rng.dirichlet(np.ones(k)) * float(rng.uniform(0.55, 0.99)) * pop.total_demand
        prices = np.cumsum(rng.uniform(0.1, 0.6, k)).tolist()
        config = TierConfig(prices, KAPPAS[int(rng.integers(len(KAPPAS)))], shares.tolist())
        assignment = Assignment(tuple(rng.integers(k, size=n).tolist()), k)
        params = tiergame._game_params(config, None)
        plan = partial(_download_plan, pop.demands, rho=params.rho)
        want = _reference_moves(pop.demands.tolist(), config, assignment, params, plan)
        assert check_equilibrium(pop, config, assignment) == (not want, want)


def test_enumeration_matches_eager_reference():
    rng = np.random.default_rng(7300)
    for _ in range(12):
        n = int(rng.integers(2, 8))
        pop = _random_population(rng, n)
        kappa = KAPPAS[int(rng.integers(len(KAPPAS)))]
        config = TierConfig((0.5, 1.0), kappa, (0.9 * pop.total_demand, 0.0))
        split = float(rng.uniform())
        cfg = tiergame._split_config(config, split)
        params = tiergame._game_params(config, None)
        plan = cache(partial(_download_plan, pop.demands, rho=params.rho))
        demands = pop.demands.tolist()
        assignments = [
            Assignment(tuple((bits >> i) & 1 for i in range(n)), 2) for bits in range(1 << n)
        ]
        want = [
            a.class_id for a in assignments
            if not _reference_moves(demands, cfg, a, params, plan)
        ]
        assert enumerate_equilibria(pop, config, split) == want


def _lazy_nash(pop, cfg, params, plan):
    """The enumeration as a loop: each assignment built and checked by ``_reference_moves``."""
    n = len(pop)
    demands = pop.demands.tolist()
    assignments = (Assignment(tuple((bits >> i) & 1 for i in range(n)), 2) for bits in range(1 << n))
    return [a for a in assignments if not _reference_moves(demands, cfg, a, params, plan)]


def _lazy_sweep(pop, config, step, params):
    """``sweep_splits`` solving each (members, share) key once, on demand, through a memo."""
    params = tiergame._game_params(config, params)
    n_steps = int(math.floor(1.0 / step + 1e-9))
    splits = [min(i * step, 1.0) for i in range(n_steps + 1)]
    if splits[-1] < 1.0 - 1e-12:
        splits.append(1.0)
    points = []
    for split in splits:
        cfg = tiergame._split_config(config, split)
        plan = cache(partial(_download_plan, pop.demands, rho=params.rho))
        pairs = tuple(
            (a.class_id, tiered_aggregate_regret(
                pop, a.members(), [plan(m, s) for m, s in zip(a.members(), cfg.capacity_shares)],
                list(cfg.prices), params))
            for a in _lazy_nash(pop, cfg, params, plan)
        )
        regs = [r for _, r in pairs]
        points.append(SweepPoint(
            split, pairs,
            min(regs) if regs else None,
            (sum(regs) / len(regs)) if regs else None,
            max(regs) if regs else None,
        ))
    return points


def _tied_population(rng, n):
    """Codec rates times percent activities, so demands often tie."""
    rates = rng.choice([0.2, 0.4, 0.8, 1.5, 3.0], n)
    activities = rng.integers(1, 101, n) / 100
    return Population(
        [UserProfile(i, float(r), float(x)) for i, (r, x) in enumerate(zip(rates, activities))]
    )


def _check_subset_table(block, rho):
    """Sizes 1-10 spread over the blocks, every kappa, splits 0 and 1 included."""
    rng = np.random.default_rng(7400 + block)
    kappa = KAPPAS[block]
    given = RegretParams(rho=rho)
    found = 0
    for n in range(1 + block, 11, len(KAPPAS)):
        for make in (_tied_population, _random_population):
            pop = make(rng, n)
            prices = tuple(np.cumsum(rng.uniform(0.1, 0.6, 2)).tolist())
            capacity = float(rng.uniform(0.3, 0.99)) * pop.total_demand
            config = TierConfig(prices, kappa, (capacity, 0.0))
            step = float(rng.choice([0.25, 0.5]))
            got = sweep_splits(pop, config, step, given)
            want = _lazy_sweep(pop, config, step, given)
            assert repr(got) == repr(want), (n, prices, capacity, kappa)
            assert got[0].split == 0.0 and got[-1].split == 1.0
            found += sum(len(p.equilibria) for p in got)
            split = float(rng.uniform())
            cfg = tiergame._split_config(config, split)
            params = tiergame._game_params(config, given)
            plan = cache(partial(_download_plan, pop.demands, rho=params.rho))
            ids = [a.class_id for a in _lazy_nash(pop, cfg, params, plan)]
            assert enumerate_equilibria(pop, config, split, given) == ids
    assert found > 0


@pytest.mark.parametrize("block", range(len(KAPPAS)))
def test_subset_table_matches_the_lazy_path(block):
    _check_subset_table(block, 2.0)


@pytest.mark.parametrize("rho", [2.5, 3.0])
@pytest.mark.parametrize("block", range(len(KAPPAS)))
def test_subset_table_matches_the_lazy_path_at_other_powers(block, rho):
    """numpy squares by multiplication but takes other powers with its own
    vector code, so the array Nash check meets both kinds of last-bit
    disagreement with the scalar regrets."""
    _check_subset_table(block, rho)


@pytest.mark.parametrize("rho", [2.0, 2.5, 3.0])
def test_indifferent_users_do_not_move(rho):
    """Three equal demands at split 0.5 and kappa 0: a member of the two-user tier
    joining the lone user's tier meets the same plan and the same regret, bit for bit,
    so every 2-1 assignment is Nash, and only they are."""
    pop = Population([UserProfile(i, 1.0, 1.0) for i in range(3)])
    config = TierConfig((0.5, 1.0), 0.0, (0.8 * pop.total_demand, 0.0))
    params = tiergame._game_params(config, RegretParams(rho=rho))
    cfg = tiergame._split_config(config, 0.5)
    pair = tiergame._download_plan(pop.demands, (0, 1), cfg.capacity_shares[0], rho)
    assert _regret(1.0, 1.0, pair, params) > 0.0
    want = ["100", "010", "110", "001", "101", "011"]
    assert enumerate_equilibria(pop, config, 0.5, params) == want
    plan = cache(partial(_download_plan, pop.demands, rho=rho))
    assert [a.class_id for a in _lazy_nash(pop, cfg, params, plan)] == want


def test_near_ties_are_decided_by_the_scalar_regret(monkeypatch):
    """The tie above with every nonzero array regret one ulp off, the current one up
    and the deviation down, as a numpy power may be: the scalar re-check keeps the
    indifferent users in place."""
    pop = Population([UserProfile(i, 1.0, 1.0) for i in range(3)])
    config = TierConfig((0.5, 1.0), 0.0, (0.8 * pop.total_demand, 0.0))
    calls = count()
    exact = tiergame._regrets

    def skewed(*args):
        out = exact(*args)  # the check asks for the current regrets, then the deviations
        return np.where(out > 0.0, np.nextafter(out, np.inf if next(calls) % 2 == 0 else 0.0), out)

    monkeypatch.setattr(tiergame, "_regrets", skewed)
    assert enumerate_equilibria(pop, config, 0.5) == ["100", "010", "110", "001", "101", "011"]


DEMANDS = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 3.0]), st.floats(1e-2, 1e2))


@settings(max_examples=300, deadline=None)
@given(
    members=st.lists(DEMANDS, min_size=0, max_size=30),
    mover=DEMANDS,
    fraction=st.floats(0.0, 1.2),
    price_term=st.sampled_from([0.0, 0.005, 0.05, 0.2]),
    rho=st.sampled_from([2.0, 3.0]),
)
def test_floor_never_exceeds_the_solved_deviation(members, mover, fraction, price_term, rho):
    demands = np.array(members + [mover])
    tier = tuple(range(len(members)))
    share = fraction * float(sum(members))
    params = RegretParams(rho=rho, kappa=1.0)
    t_hat = _zero_rate_threshold(demands, tier, share)
    dev = _move_regret(demands, tier, len(members), share, price_term, params)
    assert _zero_rate_floor(price_term, t_hat, mover, 2 * rho) <= dev
    if share < demands.sum():
        grown = _zero_rate_threshold(demands, tuple(range(demands.size)), share)
        t, r, _ = optimize_demands(demands, share, rho)
        assert max(t, r) <= grown
        # the grown tier's bound sits at or below the tier's own
        assert grown <= t_hat * (1.0 + 1e-9)


@settings(max_examples=400, deadline=None)
@given(
    t_hat=st.floats(1e-3, 1e3),
    gap=st.one_of(st.floats(1e-13, 1e-6), st.floats(1e-6, 10.0)),
    slack=st.sampled_from([0.0, 0.5, 1.0]),
    price_term=st.sampled_from([0.0, 0.05]),
    rho=st.sampled_from([2.0, 3.0]),
)
def test_floor_holds_for_any_plan_inside_its_margin(t_hat, gap, slack, price_term, rho):
    """Any t, r up to t_hat (1 + 1e-9), t_hat's rounding allowance, keep the floor."""
    demand = t_hat * (1.0 + gap)
    params = RegretParams(rho=rho, kappa=1.0)
    edge = t_hat * (1.0 + slack * 1e-9)
    for t, r in ((edge, edge), (edge, 0.5 * edge), (0.0, edge)):
        regret = price_term + _regret(demand, 1.0, Plan(t, r, Mode.DOWNLOAD), params)
        assert _zero_rate_floor(price_term, t_hat, demand, 2 * rho) <= regret


def test_zero_rate_threshold_conventions():
    demands = np.array([1.0, 2.0, 4.0])
    assert _zero_rate_threshold(demands, (), 1.0) == math.inf
    assert _zero_rate_threshold(demands, (0, 1, 2), 7.0) == math.inf
    # min(1, t) + min(2, t) + min(4, t) = 5 at t = 2
    assert _zero_rate_threshold(demands, (0, 1, 2), 5.0) == 2.0
    assert _zero_rate_threshold(demands, (2,), 0.0) == 0.0
    # no finite bound: only the price term is certain
    assert _zero_rate_floor(0.1, math.inf, 3.0, 4.0) == 0.1
    assert _zero_rate_floor(0.1, 2.0, 2.0, 4.0) == 0.1
    assert 0.1 < _zero_rate_floor(0.1, 2.0, 4.0, 4.0) <= 0.1 + 0.5**4


def _share(members, mover, pick, fraction):
    """A drawn share: a fraction of the members' sum, or that sum or the grown one, or one ulp below."""
    total = float(sum(members))
    if pick == "fraction":
        return fraction * total
    grown = total + mover if pick.startswith("grown") else total
    return float(np.nextafter(grown, 0.0)) if pick.endswith("ulp") else grown


SHARES = st.sampled_from(["fraction"] * 4 + ["member", "member-ulp", "grown", "grown-ulp"])


def _joiner(members, share, mover, scale):
    """The drawn mover, or a multiple of the tier's t_hat, so joiners fall both sides of it."""
    t_hat = _zero_rate_threshold(np.array(members), tuple(range(len(members))), share)
    if scale is None or not 1e-2 <= t_hat * scale <= 1e2:  # DEMANDS' range
        return mover
    return t_hat * scale


@settings(max_examples=600, deadline=None, derandomize=True)
@given(
    members=st.lists(DEMANDS, min_size=0, max_size=30),
    mover=DEMANDS,
    scale=st.one_of(st.none(), st.sampled_from([0.5, 1.0, 1.0 + 1e-12, 1.5]), st.floats(0.5, 3.0)),
    pick=SHARES,
    fraction=st.floats(0.0, 1.2),
    price_term=st.sampled_from([0.0, 0.005, 0.05, 0.2]),
    rho=st.sampled_from([2.0, 3.0]),
)
def test_crossing_floor_never_exceeds_the_solved_deviation(
    members, mover, scale, pick, fraction, price_term, rho
):
    share = _share(members, mover, pick, fraction)
    mover = _joiner(members, share, mover, scale)
    demands = np.array(members + [mover])
    tier = tuple(range(len(members)))
    params = RegretParams(rho=rho, kappa=1.0)
    dev = _move_regret(demands, tier, len(members), share, price_term, params)
    t_zero, t_cross = _join_levels(demands, tier, share)
    assert _join_floor(price_term, t_zero, mover, 2 * rho, t_cross) <= dev


def _tight_plans(demands, share):
    """Capacity-tight (T, r) of these demands: per interval, its ends and inner points, on the exact formula."""
    lad = _RowLadders.build(demands[None], np.array([share]))
    _, a, b, k = lad.intervals()
    n, t_hat = demands.size, float(lad.t_hat[0])
    live = n - k > 0
    a, b, k = a[live], b[live], k[live]
    ts = np.concatenate([a + (b - a) * w for w in (0.0, 0.1, 0.5, 0.9, 1.0)])
    ks = np.tile(k, 5)
    rs = _tight_rates((n - ks).astype(float), share - lad.prefix[0, ks], lad.suf_inv[0, ks], ts)
    return [(0.0, t_hat), (t_hat, 0.0), *zip(ts.tolist(), rs.tolist())]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    members=st.lists(DEMANDS, min_size=0, max_size=30),
    mover=DEMANDS,
    scale=st.one_of(st.none(), st.floats(0.5, 3.0)),
    pick=SHARES,
    fraction=st.floats(0.0, 1.2),
    rho=st.sampled_from([2.0, 3.0]),
)
def test_crossing_floor_holds_on_the_grown_tiers_tight_curve(
    members, mover, scale, pick, fraction, rho
):
    """Every capacity-tight plan of the grown tier, and the floor's own extreme plan, keep the floor."""
    share = _share(members, mover, pick, fraction)
    mover = _joiner(members, share, mover, scale)
    demands = np.array(members + [mover])
    tier = tuple(range(len(members)))
    params = RegretParams(rho=rho, kappa=1.0)
    t_zero, t_cross = _join_levels(demands, tier, share)
    floor = _join_floor(0.0, t_zero, mover, 2 * rho, t_cross)
    # the most uneven split of T + r = 2 t_cross with T, r <= t_zero, at the margins' edge
    high = t_zero * (1.0 + 1e-9)
    low = 2.0 * t_cross * (1.0 + 1e-9) - high
    plans = [(high, low), (low, high)]
    if 0.0 < share < demands.sum():
        plans += _tight_plans(demands, share)
    for t, r in plans:
        assert floor <= _regret(mover, 1.0, Plan(t, r, Mode.DOWNLOAD), params), (t, r)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    members=st.lists(DEMANDS, min_size=0, max_size=30),
    mover=DEMANDS,
    scale=st.one_of(st.none(), st.floats(1.0, 3.0)),
    pick=SHARES,
    fraction=st.floats(0.0, 1.2),
    price_term=st.sampled_from([0.0, 0.05]),
    rho=st.sampled_from([2.0, 3.0]),
)
def test_crossing_floor_is_at_least_the_zero_rate_floor(
    members, mover, scale, pick, fraction, price_term, rho
):
    """Wherever d > t_hat the floor reaches (1 - t_hat / d)^(2 rho), the bound of any plan within t_hat."""
    share = _share(members, mover, pick, fraction)
    mover = _joiner(members, share, mover, scale)
    tier = tuple(range(len(members)))
    demands = np.array(members + [mover])
    t_hat = _zero_rate_threshold(demands, tier, share)
    t_zero, t_cross = _join_levels(demands, tier, share)
    assert t_cross <= t_zero <= t_hat
    if mover > t_hat:
        new = _join_floor(price_term, t_zero, mover, 2 * rho, t_cross)
        assert new >= _zero_rate_floor(price_term, t_hat, mover, 2 * rho)
