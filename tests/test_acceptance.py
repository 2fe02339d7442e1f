"""End-to-end acceptance gates.

Each test prints one [PASS]/[FAIL] line with its measured numbers and then
asserts, so a plain ``pytest -v -s tests/test_acceptance.py`` reads as a
checklist.  Tolerances and runtime budgets are part of the gates.
"""

import hashlib
import time

import numpy as np
import pytest

from throttleplan import (
    Assignment,
    CodecSet,
    KickKind,
    Mode,
    Plan,
    RegretParams,
    TierConfig,
    allocation,
    check_equilibrium,
    consumption,
    diurnal_activity,
    generate_codec_uniform,
    generate_lognormal,
    grid_oracle,
    kick_points,
    max_threshold,
    optimize_download,
    optimize_streaming,
    optimize_tier,
    partition,
    post_throttle_activity,
    rate_for_threshold,
    simulate,
    solve_multi_tier,
    stackelberg_iterate,
    sweep_splits,
    tiered_user_regret,
    user_regret,
    variability_ratio,
    SimConfig,
    UserProfile,
)

P2 = RegretParams()
LADDER = CodecSet([0.2, 0.4, 0.6, 0.8, 1.0])


def _gate(name: str, failures: list, detail: str) -> None:
    tag = "PASS" if not failures else "FAIL"
    print(f"[{tag}] {name}: {detail}")
    assert not failures, "; ".join(failures)


def test_criterion_01_membership_events(pop4):
    t0 = time.perf_counter()
    events = {(e.kind, e.user): e.threshold for e in kick_points(pop4, 1.8)}
    elapsed = time.perf_counter() - t0
    failures = []
    kickin = events.get((KickKind.KICK_IN, 2))
    kickout = events.get((KickKind.KICK_OUT, 2))
    if kickin is None or abs(kickin - 0.1) > 1e-9:
        failures.append(f"kickin for the 0.5-demand user at {kickin}, want 0.1")
    if kickout is None or abs(kickout - 0.5) > 1e-9:
        failures.append(f"kickout for the 0.5-demand user at {kickout}, want 0.5")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    _gate(
        "criterion 1 (membership change events)",
        failures,
        f"kickin={kickin} kickout={kickout} elapsed={elapsed:.3f}s",
    )


def test_criterion_02_single_tier_optimum(pop4):
    t0 = time.perf_counter()
    sol = optimize_download(pop4, 1.8, P2)
    t3 = optimize_download(pop4, 1.8, RegretParams(rho=3.0)).plan.threshold
    t4 = optimize_download(pop4, 1.8, RegretParams(rho=4.0)).plan.threshold
    elapsed = time.perf_counter() - t0
    failures = []
    if abs(sol.plan.threshold - 0.36764) > 1e-4:
        failures.append(f"T*={sol.plan.threshold}, want 0.36764 +- 1e-4")
    if abs(sol.plan.rate - 0.36764) > 1e-4:
        failures.append(f"r*={sol.plan.rate}, want 0.36764 +- 1e-4")
    if abs(sol.regret - 0.16593) > 1e-4:
        failures.append(f"regret={sol.regret}, want 0.16593 +- 1e-4")
    if abs(t3 - sol.plan.threshold) > 1e-9 or abs(t4 - sol.plan.threshold) > 1e-9:
        failures.append(f"T* moved with the exponent: {sol.plan.threshold}, {t3}, {t4}")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    _gate(
        "criterion 2 (single-tier optimum)",
        failures,
        f"T={sol.plan.threshold:.6f} r={sol.plan.rate:.6f} "
        f"regret={sol.regret:.6f} elapsed={elapsed:.3f}s",
    )


def test_criterion_03_oracle_equivalence():
    t0 = time.perf_counter()
    failures = []
    worst = 0.0
    for seed in range(100):
        pop = generate_lognormal(20, 0.0, 0.5, seed=seed)
        cap = 0.8 * pop.total_demand
        sol = optimize_download(pop, cap, P2)
        step = 1e-4 * max_threshold(pop, cap).threshold
        oracle = grid_oracle(pop, cap, P2, step)
        gap = sol.regret - oracle.regret
        worst = max(worst, gap)
        if gap > 1e-6:
            failures.append(f"seed {seed}: optimizer regret beats oracle by {gap:.3e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.1f}s, budget 120s")
    _gate(
        "criterion 3 (oracle equivalence, 100 instances)",
        failures,
        f"worst regret gap={worst:.3e} elapsed={elapsed:.2f}s",
    )


def test_criterion_04_streaming_optimizer(stream3):
    t0 = time.perf_counter()
    failures = []
    small = optimize_streaming(stream3, 0.9, LADDER, P2)
    if abs(small.plan.threshold - 0.27273) > 1e-4 or small.plan.rate != 0.4:
        failures.append(f"3-user plan ({small.plan.threshold}, {small.plan.rate}), want (0.27273, 0.4)")
    if abs(small.regret - 0.09969) > 1e-4:
        failures.append(f"3-user regret {small.regret}, want 0.09969 +- 1e-4")
    pop = generate_codec_uniform(1000, LADDER.rates, seed=20260819)
    cap = 0.95 * pop.total_demand
    big = optimize_streaming(pop, cap, LADDER, P2)
    if any(big.regret > c.regret + 1e-12 for c in big.candidates):
        failures.append("a candidate beats the returned plan")
    residual = abs(consumption(pop, big.plan) - cap)
    if residual > 1e-9 * cap:
        failures.append(f"capacity residual {residual:.3e} above 1e-9*C")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f}s, budget 5s")
    _gate(
        "criterion 4 (streaming optimizer)",
        failures,
        f"small=({small.plan.threshold:.5f}, {small.plan.rate}) "
        f"big=({big.plan.threshold:.5f}, {big.plan.rate}) residual={residual:.2e} "
        f"elapsed={elapsed:.2f}s",
    )


def test_criterion_05_rate_scale_check():
    t0 = time.perf_counter()
    rates = []
    for seed in range(200):
        pop = generate_lognormal(1000, 1.0, 0.25, seed=seed)
        rates.append(rate_for_threshold(pop, 2700.0, 3.0))
    mean = float(np.mean(rates))
    elapsed = time.perf_counter() - t0
    failures = []
    # single draws scatter with sd ~ 0.33, so the gate goes on the seeded mean
    if abs(mean - 1.9) > 0.15:
        failures.append(f"mean rate {mean:.4f}, want 1.9 +- 0.15")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    _gate(
        "criterion 5 (population-limit rate scale)",
        failures,
        f"mean r={mean:.4f} over 200 seeds (sd={np.std(rates):.3f}) elapsed={elapsed:.2f}s",
    )


def test_criterion_06_two_tier_equilibrium(pop4):
    config = TierConfig((0.5, 1.0), 0.01, (0.3, 1.5))
    nash = Assignment.from_class_id("0111", 2)
    ok, moves = check_equilibrium(pop4, config, nash)
    plans = [
        optimize_tier(pop4, m, config.capacity_shares[j], P2)
        for j, m in enumerate(nash.members())
    ]
    failures = []
    if not ok:
        failures.append(f"assignment 0|111 is not Nash: improving moves {moves}")
    if abs(plans[0].threshold - 0.3) > 0.01:
        failures.append(f"tier-1 threshold {plans[0].threshold}, want 0.3 +- 0.01")
    if abs(plans[1].threshold - 0.37) > 0.01:
        failures.append(f"tier-2 threshold {plans[1].threshold}, want 0.37 +- 0.01")
    _gate(
        "criterion 6 (two-tier equilibrium)",
        failures,
        f"nash={ok} plans=[{plans[0].threshold:.4f}, {plans[1].threshold:.4f}]",
    )


def _brute_force_nash(pop, prices, kappa, shares, class_id) -> bool:
    """Deviation check built only from optimize_tier + tiered_user_regret."""
    params = RegretParams(rho=2.0, kappa=kappa)
    tiers = [int(c) for c in class_id]
    members = [
        [i for i, t in enumerate(tiers) if t == j] for j in range(len(prices))
    ]
    plans = [optimize_tier(pop, m, shares[j], params) for j, m in enumerate(members)]
    for u in range(len(pop)):
        a = tiers[u]
        cur = tiered_user_regret(pop[u], plans[a], prices[a], params)
        for b in range(len(prices)):
            if b == a:
                continue
            plan_b = optimize_tier(pop, sorted(members[b] + [u]), shares[b], params)
            if tiered_user_regret(pop[u], plan_b, prices[b], params) < cur - 1e-12:
                return False
    return True


def test_criterion_07_sweep_structure(pop4):
    t0 = time.perf_counter()
    config = TierConfig((0.5, 1.0), 0.01, (1.8, 0.0))
    points = sweep_splits(pop4, config, step=0.01)
    failures = []
    checked = 0
    for pt in points:
        if pt.equilibria:
            if not pt.min_regret <= pt.avg_regret <= pt.max_regret:
                failures.append(f"split {pt.split}: statistics out of order")
        for cid, _ in pt.equilibria:
            shares = (pt.split * 1.8, (1.0 - pt.split) * 1.8)
            if not _brute_force_nash(pop4, config.prices, config.kappa, shares, cid):
                failures.append(f"split {pt.split}: {cid} fails the brute-force check")
            checked += 1
    at_half = next(pt for pt in points if abs(pt.split - 0.5) < 1e-12)
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, budget 30s")
    # the count at the even split is informational, not gated
    _gate(
        "criterion 7 (sweep structure)",
        failures,
        f"verified {checked} equilibria across {len(points)} splits; "
        f"split-0.5 count={len(at_half.equilibria)} (expect 6) elapsed={elapsed:.2f}s",
    )


def _monotone_up_to_ties(rates, tiers) -> bool:
    """Every strictly faster user sits in an equal-or-higher tier."""
    order = np.argsort(rates, kind="stable")
    r_sorted = np.asarray(rates)[order]
    t_sorted = np.asarray(tiers)[order]
    run_max = -1
    i = 0
    while i < len(r_sorted):
        j = i
        while j < len(r_sorted) and r_sorted[j] == r_sorted[i]:
            j += 1
        group = t_sorted[i:j]
        if group.min() < run_max:
            return False
        run_max = max(run_max, int(group.max()))
        i = j
    return True


# SHA-256 over the ten seeds' "class_id,iterations,converged" lines, recorded
# before the tier game's plan path was refactored: the dynamics must not move
CRITERION_08_OUTCOMES_SHA256 = "2c2c881be17a7f6e6615bafd72aac74a3835e5fd8f02901dd8b29bd1ffa0265c"


def test_criterion_08_stackelberg_convergence():
    t0 = time.perf_counter()
    prices = (0.5, 0.75, 1.0)
    converged = 0
    failures = []
    outcomes = hashlib.sha256()
    for seed in range(10):
        pop = generate_lognormal(300, 0.0, 0.5, seed=seed)
        report = stackelberg_iterate(
            pop, prices, 0.95 * pop.total_demand, kappa=0.05, max_iters=100, seed=seed
        )
        line = f"{report.assignment.class_id},{report.iterations},{report.converged}\n"
        outcomes.update(line.encode())
        if report.converged:
            converged += 1
            if not _monotone_up_to_ties(pop.rates, report.assignment.tier_of):
                failures.append(f"seed {seed}: converged assignment not monotone in rate")
    elapsed = time.perf_counter() - t0
    if outcomes.hexdigest() != CRITERION_08_OUTCOMES_SHA256:
        failures.append("final class IDs, iteration counts or convergence flags changed")
    if converged < 8:
        failures.append(f"only {converged}/10 seeds converged, want >= 8")
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.1f}s, budget 300s")
    _gate(
        "criterion 8 (leader/follower convergence)",
        failures,
        f"converged {converged}/10, all monotone in rate; elapsed={elapsed:.1f}s",
    )


def _variability_at(n: int, seed: int) -> float:
    rates = tuple(round(0.1 * k, 1) for k in range(1, 10))
    pop = generate_codec_uniform(n, rates, seed=seed)
    plan = Plan(0.3, 0.1, Mode.STREAMING)
    throttled = simulate(pop, SimConfig(plan, horizon_days=60, diurnal=True, seed=seed))
    return variability_ratio(throttled, throttled.unthrottled)


def test_criterion_09_simulator_variability():
    t0 = time.perf_counter()
    sizes = (30, 100, 1000, 10000)
    means = {
        n: float(np.mean([_variability_at(n, seed) for seed in range(5)])) for n in sizes
    }
    elapsed = time.perf_counter() - t0
    failures = []
    if means[30] >= 0.12:
        failures.append(f"ratio {means[30]:.4f} at N=30, want < 0.12")
    if means[10000] > 0.03:
        failures.append(f"ratio {means[10000]:.4f} at N=10000, want <= 0.03")
    for a, b in zip(sizes, sizes[1:]):
        if means[b] > means[a] + 0.02:
            failures.append(f"ratio rose from {means[a]:.4f} (N={a}) to {means[b]:.4f} (N={b})")
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.1f}s, budget 120s")
    _gate(
        "criterion 9 (variability vs population size)",
        failures,
        " ".join(f"N={n}:{means[n]:.4f}" for n in sizes) + f" elapsed={elapsed:.1f}s",
    )


def test_criterion_10a_fairness_ordering():
    failures = []
    pairs = 0
    for seed in (0, 1):
        pop = generate_lognormal(40, 0.0, 0.5, seed=seed)
        cap = 0.8 * pop.total_demand
        plan = optimize_download(pop, cap, P2).plan
        hot = partition(pop, plan).throttled
        users = [pop[i] for i in hot]
        allocs = [allocation(u, plan) for u in users]
        regrets = [user_regret(u, plan, P2) for u in users]
        for i in range(len(users)):
            for j in range(len(users)):
                if users[i].demand > users[j].demand:
                    pairs += 1
                    if allocs[i] <= allocs[j] - 1e-15:
                        failures.append(
                            f"seed {seed}: heavier user {hot[i]} got less ({allocs[i]} vs {allocs[j]})"
                        )
                    if regrets[i] <= regrets[j] - 1e-15:
                        failures.append(
                            f"seed {seed}: heavier user {hot[i]} regrets less"
                        )
    if pairs < 1000:
        failures.append(f"only {pairs} throttled pairs sampled, want >= 1000")
    _gate(
        "criterion 10a (throttled fairness ordering)",
        failures[:5],
        f"{pairs} pairs, allocation and regret both rise with demand",
    )


def test_criterion_10b_rate_meets_threshold():
    failures = []
    worst = 0.0
    rng = np.random.default_rng(0)
    for k in range(100):
        n = int(rng.integers(1, 31))
        pop = generate_lognormal(n, 0.0, 0.6, seed=1000 + k)
        cap = float(rng.uniform(0.5, 0.95)) * pop.total_demand
        plan = optimize_download(pop, cap, P2).plan
        gap = abs(plan.rate - plan.threshold)
        worst = max(worst, gap)
        if gap > 1e-9:
            failures.append(f"instance {k}: |r - T| = {gap:.3e}")
    _gate(
        "criterion 10b (optimal rate equals threshold)",
        failures[:5],
        f"worst |r - T| = {worst:.2e} over 100 instances",
    )


def test_criterion_10c_post_throttle_activity():
    u_half = UserProfile(0, 1.0, 0.5)
    failures = []
    cases = [
        (post_throttle_activity(u_half, 0.25, Mode.DOWNLOAD), 1.0),
        (post_throttle_activity(u_half, 2.0, Mode.DOWNLOAD), 0.25),
        (post_throttle_activity(u_half, 0.5, Mode.DOWNLOAD), 1.0),
        (post_throttle_activity(u_half, 0.0, Mode.DOWNLOAD), 1.0),
        (post_throttle_activity(u_half, 0.25, Mode.STREAMING), 0.5),
    ]
    for got, want in cases:
        if got != pytest.approx(want, rel=1e-12):
            failures.append(f"got {got}, want {want}")
    _gate(
        "criterion 10c (post-throttle activity formula)",
        failures,
        f"{len(cases)} cases: stretch capped at always-on, streams keep x",
    )


def test_criterion_10d_capacity_conservation(stream3, pop4):
    failures = []
    worst = 0.0

    def check(label: str, got: float, cap: float) -> None:
        nonlocal worst
        residual = abs(got - cap) / max(cap, 1e-300)
        worst = max(worst, residual)
        if residual > 1e-6:
            failures.append(f"{label}: relative residual {residual:.3e}")

    for seed in range(25):
        pop = generate_lognormal(20, 0.0, 0.5, seed=seed)
        cap = 0.8 * pop.total_demand
        plan = optimize_download(pop, cap, P2).plan
        check(f"download seed {seed}", consumption(pop, plan), cap)
    for seed in range(10):
        pop = generate_codec_uniform(50, LADDER.rates, seed=seed)
        cap = 0.9 * pop.total_demand
        plan = optimize_streaming(pop, cap, LADDER, P2).plan
        check(f"streaming seed {seed}", consumption(pop, plan), cap)
    check("streaming 3-user", consumption(stream3, optimize_streaming(stream3, 0.9, LADDER, P2).plan), 0.9)
    nash = Assignment.from_class_id("0111", 2)
    ts = solve_multi_tier(pop4, nash, 1.8, P2)
    total = sum(
        consumption(pop4.select(m), Plan(t, t, Mode.DOWNLOAD))
        for m, t in zip(nash.members(), ts)
    )
    check("joint tier solve", total, 1.8)
    pop12 = generate_lognormal(12, 0.0, 0.5, seed=3)
    cap12 = 0.9 * pop12.total_demand
    report = stackelberg_iterate(pop12, (0.5, 1.0), cap12, kappa=0.05, seed=3)
    check("leader/follower shares", sum(report.capacity_shares), cap12)
    _gate(
        "criterion 10d (capacity conservation)",
        failures[:5],
        f"worst relative residual {worst:.2e} across 38 optimizer outputs",
    )


def test_criterion_10e_diurnal_bounds():
    failures = []
    hours = np.arange(24)
    for k in range(1, 101):
        x = 0.01 * k
        profile = np.asarray(diurnal_activity(x, hours))
        if profile.min() < 0.0 or profile.max() > 1.0:
            failures.append(f"x={x:.2f}: profile leaves [0, 1]")
        if abs(float(profile.mean()) - x) > 1e-12:
            failures.append(f"x={x:.2f}: daily mean {profile.mean():.15f} drifts from x")
    _gate(
        "criterion 10e (diurnal profile bounds)",
        failures[:5],
        "100 x-levels x 24 hours stay in [0, 1] with daily mean x",
    )
