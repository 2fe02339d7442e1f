"""Multi-tier plan games over a shared link.

Users pick one of several priced tiers; each tier j holds a capacity share
C_j and throttles with its own plan (T_j, r_j).  A member's regret is
kappa * price_j plus the usual throttle regret, so cheap tiers attract
low-demand users and the game resembles a leader/follower pricing game:

* two tiers: exact Nash enumeration over all assignments plus a sweep over
  capacity splits.  Each split first plans every member subset at both
  tiers' shares, one row batch per subset size, into a table keyed by the
  members' bitmask; the enumeration then only reads plans;
* many tiers: the operator's joint threshold problem (capacity used exactly,
  r_j = T_j) solved with SLSQP, alternated with sequential best responses
  by the users.  There is no fallback solver: an SLSQP failure raises
  ThrottlePlanError with the solver's message.

All tier games run on download traffic; demands fold activity in.

Most deviations are ruled out before their plan is solved.  A user joining
tier b pays dev = fl(kappa p_b) + R with R >= 0, so a target whose price term
alone reaches the regret to beat cannot win.  The Stackelberg loop also
bounds R: the new plan's t and r never exceed the zero-rate threshold t_hat
of the grown membership (the scan only searches [0, t_hat]), and adding a
member only lowers t_hat, so t_hat_b of the tier as it stands bounds both,
and R >= (1 - t_hat_b / d_u)^(rho + tau) when d_u > t_hat_b.  The floor
gives t_hat_b a 1e-9 relative margin for the grown tier's different
summation order, and the power another 1e-9 for its rounding
(:func:`_join_floor`).  A deviation moves a user only if it strictly
beats the best option so far, and a skipped one provably cannot, so every
move, plan and report is the same as with every deviation solved.

The Stackelberg deviations that are solved are read off a per-round table
(:class:`_JoinPlans`): tier b's plan for its members joined by user u.  Such
a plan depends only on b's members and share, and shares are fixed for a
round, so b's table is cleared only when a move changes b's members, that
is for both the source and the target tier of every move.  A miss solves u
together with the next users whose floor for b lies below their current
regret, in one row batch; every row is the single solve's plan bit for bit,
so the table changes no move.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from itertools import chain, combinations, islice
from typing import Callable, Sequence

import numpy as np

from .allocation import Mode, Plan, _check_capacity, _zero_rate_bound
from .download import _check_grid_size, _check_params, _optimize_rows, optimize_demands
from .errors import InfeasibleError, ThrottlePlanError, ValidationError
from .population import DEFAULT_SEED, Population, assign_tiers_binomial
from .regret import DEFAULT_RHO, RegretParams, _regret, _regrets, tiered_aggregate_regret

ENUMERATION_CAP = 20
SWEEP_STEP = 0.01
MAX_ITERS = 100
#: Member subsets of one size planned together in one row batch.
_SUBSET_BLOCK = 1 << 14
#: Rows of the first deviation batch a Stackelberg tier table solves after it
#: is cleared; each further miss doubles the batch, up to the cap.
_JOIN_BATCH = 4
_JOIN_BATCH_CAP = 64

# (tier index, its ascending member indices) -> the tier's download plan at its share
PlanFn = Callable[[int, tuple[int, ...]], Plan]


@dataclass(frozen=True)
class TierConfig:
    """Prices, price weight and capacity shares for a set of tiers."""

    prices: tuple[float, ...]
    kappa: float
    capacity_shares: tuple[float, ...]

    def __init__(self, prices: Sequence[float], kappa: float, capacity_shares: Sequence[float]):
        prices = tuple(float(p) for p in prices)
        shares = tuple(float(c) for c in capacity_shares)
        if len(prices) < 1:
            raise ValidationError("need at least one tier")
        if len(prices) > 10:
            raise ValidationError("at most 10 tiers (single-digit class encoding)")
        if not all(0 <= p < math.inf for p in prices):
            raise ValidationError("prices must be >= 0 and finite")
        if any(b <= a for a, b in zip(prices, prices[1:])):
            raise ValidationError("prices must be strictly ascending")
        if not (0 <= kappa < math.inf):
            raise ValidationError(f"kappa must be >= 0 and finite, got {kappa}")
        if len(shares) != len(prices):
            raise ValidationError("capacity_shares must match prices in length")
        if not all(0 <= c < math.inf for c in shares):
            raise ValidationError("capacity shares must be >= 0 and finite")
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "kappa", float(kappa))
        object.__setattr__(self, "capacity_shares", shares)

    @property
    def n_tiers(self) -> int:
        return len(self.prices)

    @property
    def capacity(self) -> float:
        return float(sum(self.capacity_shares))

    def with_shares(self, shares: Sequence[float]) -> "TierConfig":
        return TierConfig(self.prices, self.kappa, shares)


@dataclass(frozen=True)
class Assignment:
    """Which tier each user picked, indexed by rate-sorted user position."""

    tier_of: tuple[int, ...]
    n_tiers: int

    def __post_init__(self):
        if any(not (0 <= t < self.n_tiers) for t in self.tier_of):
            raise ValidationError("tier indices out of range")

    @property
    def class_id(self) -> str:
        """Digit string, one digit per user: digit i is user i's tier index."""
        return "".join(str(t) for t in self.tier_of)

    @classmethod
    def from_class_id(cls, class_id: str, n_tiers: int) -> "Assignment":
        return cls(tuple(int(c) for c in class_id), n_tiers)

    def members(self) -> list[tuple[int, ...]]:
        """Per-tier tuples of user indices, ascending."""
        out: list[list[int]] = [[] for _ in range(self.n_tiers)]
        for i, t in enumerate(self.tier_of):
            out[t].append(i)
        return [tuple(m) for m in out]


@dataclass(frozen=True)
class EquilibriumReport:
    converged: bool
    iterations: int
    assignment: Assignment
    tier_plans: tuple[Plan, ...]
    regret: float
    capacity_shares: tuple[float, ...] = ()


@dataclass(frozen=True)
class SweepPoint:
    """Equilibria found at one capacity split, with regret order statistics."""

    split: float
    equilibria: tuple[tuple[str, float], ...]
    min_regret: float | None
    avg_regret: float | None
    max_regret: float | None


def _game_params(config: TierConfig, params: RegretParams | None) -> RegretParams:
    # the config's kappa is authoritative inside tier games
    base = params if params is not None else RegretParams()
    return replace(base, kappa=config.kappa)


def optimize_tier(
    pop: Population,
    members: Sequence[int],
    share: float,
    params: RegretParams,
) -> Plan:
    """Best download plan for one tier's members under its capacity share.

    Empty tiers get the zero plan.  A share covering the members' demand
    returns the no-throttling convention T = r = share, so reported tier
    plans stay finite.
    """
    if not 0 <= share < math.inf:
        raise ValidationError(f"share must be >= 0 and finite, got {share}")
    members = tuple(sorted(int(i) for i in members))
    if len(set(members)) != len(members):
        raise ValidationError("duplicate member indices")
    if members and not (0 <= members[0] and members[-1] < len(pop)):
        raise ValidationError("member index out of range")
    return _download_plan(pop.demands, members, share, params.rho)


def _covered_at_share(t, r, share):
    """Tier plan (T, r) from a download solve's (t, r): a covered tier is planned T = r = share.

    The solve plans a tier no throttling, t = r = inf, when its share covers
    the members' demand, exactly or up to rounding (t_hat at or past the
    largest demand).  Scalars or arrays alike.
    """
    covered = np.isinf(t)
    return np.where(covered, share, t), np.where(covered, share, r)


def _download_plan(demands: np.ndarray, members: tuple[int, ...], share: float, rho: float) -> Plan:
    """The one single-solve path from a tier's members (ascending) and share to its plan.

    Empty tiers get the zero plan; a share covering the members' demand gets
    the no-throttling convention T = r = share.  The two-tier enumeration
    and the Stackelberg deviations read the same plans, bit for bit, off
    their row-batched tables (:class:`_SubsetPlans`, :class:`_JoinPlans`).
    """
    if not members:
        return Plan(0.0, 0.0, Mode.DOWNLOAD)
    t, r, _ = optimize_demands(demands[list(members)], share, rho)
    t, r = _covered_at_share(t, r, share)
    return Plan(float(t), float(r), Mode.DOWNLOAD)


def _share_plans(demands: np.ndarray, shares: Sequence[float], rho: float) -> PlanFn:
    """The :data:`PlanFn` of tiers at these shares: each call solves its plan."""
    return lambda tier, members: _download_plan(demands, members, shares[tier], rho)


def _move_regret(
    demand: float, plan: PlanFn, target: Sequence[int], user: int,
    tier: int, price: float, params: RegretParams,
) -> tuple[float, Plan]:
    """(regret, re-planned target) of ``user``, of this demand, joining ``tier``.

    ``target`` holds the tier's members before the join; the tier keeps its
    share.  A download user's regret reads only the demand: it passes as a
    rate at activity 1."""
    target_plan = plan(tier, tuple(sorted((*target, user))))
    return params.kappa * price + _regret(demand, 1.0, target_plan, params), target_plan


def _zero_rate_threshold(demands: np.ndarray, members: Sequence[int], share: float) -> float:
    """t_hat of a tier: the threshold meeting its share at rate 0.

    inf for an empty tier or a share covering the members' demand, where no
    finite bound holds.
    """
    if not members:
        return math.inf
    ds = np.sort(demands[list(members)])
    prefix = np.concatenate(([0.0], np.cumsum(ds)))
    if share >= prefix[-1]:
        return math.inf
    return _zero_rate_bound(ds, prefix, share)


def _join_floor(price_term: float, t_hat: float, demand, exponent: float):
    """Lower bound on the regret of a user of this demand joining a tier.

    ``t_hat`` is the tier's zero-rate threshold before the join and
    ``exponent`` is rho + tau.  It holds for any plan of the grown tier with
    t and r at most t_hat (1 + 1e-9).  :func:`_download_plan`'s plans are
    such plans: the scan keeps t and r within the grown tier's own t_hat,
    and joining only lowers t_hat.  ``demand`` is one demand or a column.
    """
    edge = t_hat * (1.0 + 1e-9)
    gap = np.clip(1.0 - edge / demand, 0.0, None)
    return price_term + gap**exponent * (1.0 - 1e-9)


def _total_regret(
    pop: Population, plan: PlanFn, members: list[tuple[int, ...]],
    prices: Sequence[float], params: RegretParams,
) -> float:
    """Regret over all tiers, each planned at its share, price terms included."""
    plans = [plan(j, m) for j, m in enumerate(members)]
    return tiered_aggregate_regret(pop, members, plans, list(prices), params)


def deviation_regret(
    pop: Population,
    config: TierConfig,
    assignment: Assignment,
    user: int,
    target_tier: int,
    params: RegretParams | None = None,
) -> float:
    """Regret the user would carry after unilaterally switching tiers.

    The target tier re-optimizes its plan for the new membership at its
    unchanged capacity share; the mover then pays the target tier's price
    plus its throttle regret.
    """
    params = _game_params(config, params)
    current = assignment.tier_of[user]
    if target_tier == current:
        raise ValidationError("target tier equals the user's current tier")
    if not (0 <= target_tier < config.n_tiers):
        raise ValidationError(f"no such tier {target_tier}")
    plan = _share_plans(pop.demands, config.capacity_shares, params.rho)
    regret, _ = _move_regret(
        float(pop.demands[user]), plan, assignment.members()[target_tier], user,
        target_tier, config.prices[target_tier], params,
    )
    return regret


def _improving_moves(
    demands: list[float],
    config: TierConfig,
    assignment: Assignment,
    params: RegretParams,
    plan: PlanFn,
    first_only: bool = False,
) -> list[tuple[int, int, float]]:
    """All (user, target tier, regret drop) strict improvements.

    A tier is planned when one of its members is first checked, so an early
    exit leaves the rest unsolved.  A target whose price term alone reaches
    the user's current regret is skipped unsolved: it cannot be strictly
    better (see the module docstring).
    """
    members = assignment.members()
    prices = config.prices
    price_terms = [params.kappa * p for p in prices]
    plans: list[Plan | None] = [None] * config.n_tiers
    out: list[tuple[int, int, float]] = []
    for u in range(len(demands)):
        a = assignment.tier_of[u]
        if plans[a] is None:
            plans[a] = plan(a, members[a])
        cur = price_terms[a] + _regret(demands[u], 1.0, plans[a], params)
        for b in range(config.n_tiers):
            if b == a or price_terms[b] >= cur:
                continue
            dev, _ = _move_regret(demands[u], plan, members[b], u, b, prices[b], params)
            if dev < cur:
                out.append((u, b, cur - dev))
                if first_only:
                    return out
    return out


def check_equilibrium(
    pop: Population,
    config: TierConfig,
    assignment: Assignment,
    params: RegretParams | None = None,
) -> tuple[bool, list[tuple[int, int, float]]]:
    """Nash test: no user can strictly cut their regret by switching tiers.

    Returns (is_nash, improving) where improving lists every profitable
    (user, target tier, regret drop); indifferent users do not move.
    """
    params = _game_params(config, params)
    if len(assignment.tier_of) != len(pop):
        raise ValidationError("assignment size must match population")
    plan = _share_plans(pop.demands, config.capacity_shares, params.rho)
    improving = _improving_moves(pop.demands.tolist(), config, assignment, params, plan)
    return (not improving, improving)


def _check_two_tier(pop: Population, config: TierConfig) -> None:
    if config.n_tiers != 2:
        raise ValidationError("equilibrium enumeration handles exactly 2 tiers")
    if len(pop) > ENUMERATION_CAP:
        raise ValidationError(
            f"{len(pop)} users exceeds the enumeration cap of {ENUMERATION_CAP} "
            f"(2^n assignments); use stackelberg_iterate instead"
        )


class _SubsetPlans:
    """:func:`_download_plan` of every member subset at both shares of a two-tier split.

    A subset is the bitmask of its members; plan (t[j, mask], r[j, mask]) is
    the subset's plan at tier j's share.  Subsets of one size are solved
    together, up to ``_SUBSET_BLOCK`` at a time, in one
    :func:`download._optimize_rows` batch for both shares, which reads the
    covering off their member-order sums as :func:`_download_plan` does.
    Two float64 arrays of 2^n
    per share keep the table at 32 MB at the enumeration cap.  Called with
    a tier and its members, the table is the split's :data:`PlanFn`.
    """

    def __init__(self, demands: np.ndarray, shares: tuple[float, float], rho: float):
        n = demands.size
        self.shares = shares
        self.t = np.zeros((2, 1 << n))
        self.r = np.zeros((2, 1 << n))
        for size in range(1, n + 1):
            subsets = combinations(range(n), size)
            total = math.comb(n, size)
            for start in range(0, total, _SUBSET_BLOCK):
                count = min(_SUBSET_BLOCK, total - start)
                members = np.fromiter(
                    chain.from_iterable(islice(subsets, count)), dtype=np.intp, count=count * size
                ).reshape(count, size)
                self._solve(demands[members], np.sum(np.left_shift(1, members), axis=1), rho)

    def _solve(self, rows: np.ndarray, masks: np.ndarray, rho: float) -> None:
        """Plans the subsets ``masks``, of member-order demands ``rows``, at both shares."""
        tier = np.repeat([0, 1], masks.size)
        mask = np.tile(masks, 2)
        caps = np.asarray(self.shares)[tier]
        t, r, _ = _optimize_rows(np.tile(rows, (2, 1)), caps, rho)
        self.t[tier, mask], self.r[tier, mask] = _covered_at_share(t, r, caps)

    def __call__(self, tier: int, members: tuple[int, ...]) -> Plan:
        mask = sum(1 << i for i in members)
        return Plan(float(self.t[tier, mask]), float(self.r[tier, mask]), Mode.DOWNLOAD)


def _nash_assignments(
    demands: list[float], config: TierConfig, params: RegretParams, plan: PlanFn
) -> list[Assignment]:
    """Every Nash assignment of a two-tier game at the config's shares.

    Bit i of an assignment's index puts user i in the second tier.
    """
    n = len(demands)
    found: list[Assignment] = []
    for bits in range(1 << n):
        assignment = Assignment(tuple((bits >> i) & 1 for i in range(n)), 2)
        if not _improving_moves(demands, config, assignment, params, plan, first_only=True):
            found.append(assignment)
    return found


def _split_config(config: TierConfig, split: float) -> TierConfig:
    total = config.capacity
    return config.with_shares((split * total, (1.0 - split) * total))


def enumerate_equilibria(
    pop: Population,
    config: TierConfig,
    split: float,
    params: RegretParams | None = None,
) -> list[str]:
    """Class IDs of all Nash assignments of a two-tier game at one split.

    The first tier receives split * C, the second the rest.  Exhaustive over
    all 2^n assignments, so populations are capped at ENUMERATION_CAP users;
    use stackelberg_iterate beyond that.
    """
    _check_two_tier(pop, config)
    if not (0.0 <= split <= 1.0):
        raise ValidationError(f"split must be in [0, 1], got {split}")
    params = _game_params(config, params)
    cfg = _split_config(config, split)
    table = _SubsetPlans(pop.demands, cfg.capacity_shares, params.rho)
    found = _nash_assignments(pop.demands.tolist(), cfg, params, table)
    return [a.class_id for a in found]


def sweep_splits(
    pop: Population,
    config: TierConfig,
    step: float = SWEEP_STEP,
    params: RegretParams | None = None,
) -> list[SweepPoint]:
    """Nash sets and regret statistics across two-tier capacity splits.

    Splits run over {0, step, 2*step, ..., 1}.  Splits with no equilibrium
    produce an empty point (None statistics).
    """
    if not (0.0 < step < 1.0):
        raise ValidationError(f"step must be in (0, 1), got {step}")
    _check_grid_size(1.0 / step)
    _check_two_tier(pop, config)
    params = _game_params(config, params)
    n_steps = int(math.floor(1.0 / step + 1e-9))
    splits = [min(i * step, 1.0) for i in range(n_steps + 1)]
    if splits[-1] < 1.0 - 1e-12:
        splits.append(1.0)
    demands = pop.demands.tolist()
    points: list[SweepPoint] = []
    for split in splits:
        cfg = _split_config(config, split)
        # the enumeration and the regret statistics share one table per split
        table = _SubsetPlans(pop.demands, cfg.capacity_shares, params.rho)
        pairs = tuple(
            (a.class_id, _total_regret(pop, table, a.members(), cfg.prices, params))
            for a in _nash_assignments(demands, cfg, params, table)
        )
        regs = [r for _, r in pairs]
        points.append(
            SweepPoint(
                split,
                pairs,
                min(regs) if regs else None,
                (sum(regs) / len(regs)) if regs else None,
                max(regs) if regs else None,
            )
        )
    return points


def _tier_consumption(demands: np.ndarray, t: float) -> float:
    """Download consumption of one tier at threshold t with rate r = t."""
    if demands.size == 0:
        return 0.0
    hot = demands > t
    return float(demands[~hot].sum() + np.sum(2.0 * t - t * t / demands[hot]))


def _tier_objective(demands: np.ndarray, t: float, rho: float) -> float:
    hot = demands > t
    if not hot.any():
        return 0.0
    return float(np.sum((1.0 - t / demands[hot]) ** (2.0 * rho)))


def solve_multi_tier(
    pop: Population,
    assignment: Assignment,
    capacity: float,
    params: RegretParams,
) -> list[float]:
    """Joint per-tier thresholds minimizing total regret at fixed membership.

    Rates are pinned to thresholds (r_j = T_j), so the operator chooses one
    T_j per tier subject to total consumption equaling capacity.  Each T_j
    is box-bounded by the min and max demand over the whole population
    and solved with SLSQP from a feasible start.  There is no fallback
    solver and no repair step: raises ThrottlePlanError carrying SLSQP's
    message when SLSQP reports failure, and ThrottlePlanError when the
    capacity residual exceeds 1e-6 * max(1, C).  Tiers that end up
    unthrottled report their largest member demand; empty tiers report 0.
    """
    _check_params(params)
    if len(assignment.tier_of) != len(pop):
        raise ValidationError("assignment size must match population")
    _check_capacity(capacity)
    members = assignment.members()
    tier_demands = [pop.demands[list(m)] for m in members]
    active = [j for j, d in enumerate(tier_demands) if d.size > 0]
    out = [0.0] * assignment.n_tiers

    def clamp(j: int, t: float) -> float:
        top = float(tier_demands[j].max())
        return top if not (tier_demands[j] > t).any() else t

    if capacity >= pop.total_demand:
        # equality is unreachable; report everyone unthrottled
        for j in active:
            out[j] = float(tier_demands[j].max())
        return out
    if len(active) == 1:
        j = active[0]
        t, _, _ = optimize_demands(tier_demands[j], capacity, params.rho)
        out[j] = clamp(j, t)
        return out

    # imported here: scipy.optimize costs about 0.5 s and 40 MB that only this solve needs
    from scipy.optimize import brentq, minimize

    lo, hi = float(pop.demands.min()), float(pop.demands.max())
    ds = [tier_demands[j] for j in active]
    m = len(active)

    def total_consumption(ts: np.ndarray) -> float:
        return sum(_tier_consumption(d, float(t)) for d, t in zip(ds, ts))

    def objective(ts: np.ndarray) -> float:
        return sum(_tier_objective(d, float(t), params.rho) for d, t in zip(ds, ts))

    floor = total_consumption(np.full(m, lo))
    ceil = total_consumption(np.full(m, hi))
    if floor > capacity:
        raise InfeasibleError(
            f"no feasible start: consumption {floor:.6g} at the lower bound "
            f"already exceeds capacity {capacity:.6g}"
        )
    # uniform threshold meeting capacity exactly: a start with zero slack
    if floor == capacity:
        start = np.full(m, lo)
    elif ceil <= capacity:
        start = np.full(m, hi)
    else:
        t0 = brentq(lambda t: total_consumption(np.full(m, t)) - capacity, lo, hi, xtol=1e-13)
        start = np.full(m, float(t0))

    tol = 1e-6 * max(capacity, 1.0)

    def residual(ts: np.ndarray) -> float:
        return capacity - total_consumption(ts)

    res = minimize(
        objective,
        start,
        method="SLSQP",
        bounds=[(lo, hi)] * m,
        constraints=[{"type": "eq", "fun": residual}],
        options={"ftol": 1e-12, "maxiter": 500},
    )
    if not res.success:
        raise ThrottlePlanError(f"SLSQP failed on the joint threshold problem: {res.message}")
    ts = np.clip(res.x, lo, hi)
    if abs(residual(ts)) > tol:
        raise ThrottlePlanError(
            f"capacity residual {abs(residual(ts)):.3g} exceeds tolerance {tol:.3g}"
        )
    for j, t in zip(active, ts):
        out[j] = clamp(j, float(t))
    return out


class _JoinPlans:
    """One Stackelberg round's deviation table: tier b's plan for its members joined by u.

    ``plans[b]`` maps a user u outside tier b to :func:`_download_plan` of
    b's members and u at b's share, bit for bit.  Such a plan depends only
    on b's members and share, and shares are fixed for the round, so a
    tier's table holds until a move changes its members; :meth:`clear`
    empties it then.  A miss plans the asked user and the next users the
    walk may ask for, in one :func:`download._optimize_rows` batch of
    ``_JOIN_BATCH`` rows, doubled on each further miss up to
    ``_JOIN_BATCH_CAP``.
    """

    def __init__(self, demands: np.ndarray, shares: Sequence[float], rho: float):
        self.demands, self.shares, self.rho = demands, shares, rho
        self.plans: list[dict[int, Plan]] = [{} for _ in shares]
        self.batch = [_JOIN_BATCH] * len(shares)

    def clear(self, tier: int) -> None:
        self.plans[tier].clear()
        self.batch[tier] = _JOIN_BATCH

    def plan(
        self, tier: int, user: int, members: list[int], later: Callable[[], np.ndarray]
    ) -> Plan:
        """The tier's plan with ``user`` joining its ascending ``members``.

        ``later()`` lists, in walk order, the users after ``user`` likely to
        ask for the same tier; a miss plans the first of them not yet planned.
        """
        plans = self.plans[tier]
        if user not in plans:
            users = [user]
            for v in later().tolist():
                if len(users) == self.batch[tier]:
                    break
                if v not in plans:
                    users.append(v)
            self._solve(tier, members, np.array(users))
            self.batch[tier] = min(2 * self.batch[tier], _JOIN_BATCH_CAP)
        return plans[user]

    def _solve(self, tier: int, members: list[int], users: np.ndarray) -> None:
        """Plans each of ``users`` joining the tier, one row of member-order demands each."""
        s, m = len(members), users.size
        pos = np.searchsorted(members, users)
        cols = np.arange(s + 1)
        src = np.where(cols < pos[:, None], cols, cols - 1)
        src[np.arange(m), pos] = s + np.arange(m)
        pool = np.concatenate((self.demands[members], self.demands[users]))
        share = self.shares[tier]
        t, r, _ = _optimize_rows(pool[src], np.full(m, share), self.rho)
        t, r = _covered_at_share(t, r, share)
        table = self.plans[tier]
        for v, tv, rv in zip(users.tolist(), t.tolist(), r.tolist()):
            table[v] = Plan(tv, rv, Mode.DOWNLOAD)


def _later_joiners(
    demands: np.ndarray, tiers: np.ndarray, plans: Sequence[Plan], price_terms: np.ndarray,
    floor: np.ndarray, tier: int, user: int, params: RegretParams,
) -> np.ndarray:
    """Users after ``user``, outside ``tier``, whose join ``floor`` lies below their current regret.

    These are the deviations to the tier the Stackelberg walk may still
    solve this round, unless a move changes the tier first.
    """
    later = slice(user + 1, None)
    own = tiers[later]
    d = demands[later]
    t = np.array([p.threshold for p in plans])[own]
    r = np.array([p.rate for p in plans])[own]
    cur = price_terms[own] + _regrets(d, d, t, r, params)
    return user + 1 + np.flatnonzero((own != tier) & (floor[later] < cur))


def stackelberg_iterate(
    pop: Population,
    prices: Sequence[float],
    capacity: float,
    kappa: float,
    max_iters: int = MAX_ITERS,
    seed: int = DEFAULT_SEED,
    rho: float = DEFAULT_RHO,
    progress=None,
) -> EquilibriumReport:
    """Leader/follower loop: joint threshold solve, then user best responses.

    The leader re-solves all tier thresholds for the current membership;
    capacity shares are whatever each tier consumes at that solution.  Users
    then take turns (ascending rate) moving to any tier that strictly cuts
    their regret, anticipating the re-optimized plans.  Converged when a
    full pass moves nobody and the leader's thresholds are stable to 1e-9.
    Detected assignment cycles end the loop early as non-converged.

    A target tier is solved only when :func:`_join_floor`, from the tier's
    zero-rate threshold t_hat, is below the mover's best option so far;
    otherwise its plan cannot beat that option and no solve could move the
    user (see the module docstring).  Each tier's t_hat, and every user's
    floor from it, is computed at the start of a round and again whenever a
    move changes the tier.

    The deviation plans come from a :class:`_JoinPlans` table per round.
    A move clears the tables of both tiers it changes, the source and the
    target, since their members change and every plan read off them would
    be stale; the other tiers' tables stay valid.  A miss plans the asked
    user and the next users after it who may ask the same tier, in one
    :func:`download._optimize_rows` batch of 4 rows, doubling on each
    further miss up to 64.  Each row is :func:`_download_plan`'s plan bit for
    bit, so moves, progress lines and reports are those of one solve per
    deviation.

    ``progress``, if given, is called after each round with
    (iteration, thresholds, moves).
    """
    prices = tuple(float(p) for p in prices)
    if len(prices) < 2:
        raise ValidationError("stackelberg game needs at least 2 tiers")
    TierConfig(prices, kappa, (0.0,) * len(prices))  # validates prices and kappa
    if max_iters < 0:
        raise ValidationError(f"max_iters must be >= 0, got {max_iters}")
    params = RegretParams(rho=rho, kappa=kappa)
    n = len(pop)
    k = len(prices)
    if k == 3:
        tier_of = tuple(assign_tiers_binomial(pop, 3, seed).tiers())
    else:
        # deterministic rate-order chunks when the coin scheme does not apply
        base, rem = divmod(n, k)
        tier_of_list: list[int] = []
        for j in range(k):
            tier_of_list.extend([j] * (base + rem if j == 0 else base))
        tier_of = tuple(tier_of_list[:n])
    assignment = Assignment(tier_of, k)

    if max_iters == 0:
        return EquilibriumReport(False, 0, assignment, (), math.nan, ())

    demands = pop.demands.tolist()
    price_terms = np.array([params.kappa * p for p in prices])
    exponent = params.rho + params.tau
    seen = {assignment.tier_of}
    prev_ts: np.ndarray | None = None
    converged = False
    iterations = 0
    plans: tuple[Plan, ...] = ()
    shares: tuple[float, ...] = ()
    members = assignment.members()

    def floors_of(j: int) -> np.ndarray:
        """Every user's :func:`_join_floor` for tier j as it stands."""
        t_hat = _zero_rate_threshold(pop.demands, member_lists[j], shares[j])
        return _join_floor(price_terms[j], t_hat, pop.demands, exponent)

    for _ in range(max_iters):
        iterations += 1
        ts = np.array(solve_multi_tier(pop, assignment, capacity, params), dtype=float)
        tier_demands = [pop.demands[list(mber)] for mber in members]
        shares = tuple(
            _tier_consumption(d, float(t)) for d, t in zip(tier_demands, ts)
        )
        plans = tuple(Plan(float(t), float(t), Mode.DOWNLOAD) for t in ts)
        # the source tiers' re-plans and the final regret, one solve each
        plan = _share_plans(pop.demands, shares, params.rho)
        joins = _JoinPlans(pop.demands, shares, params.rho)

        moves = 0
        tiers = np.array(assignment.tier_of)
        member_lists = [list(mm) for mm in members]
        cur_plans = list(plans)
        floors = [floors_of(j) for j in range(k)]
        for u in range(n):
            a = tiers[u]
            d_u = demands[u]
            throttle = _regret(d_u, 1.0, cur_plans[a], params)
            if a == 0 and throttle == 0.0:
                continue  # cheapest tier, unthrottled: nothing can beat it
            best_dev, best_b, best_plan = price_terms[a] + throttle, None, None
            for b in range(k):
                if b == a or floors[b][u] >= best_dev:
                    continue
                plan_b = joins.plan(b, u, member_lists[b], lambda: _later_joiners(
                    pop.demands, tiers, cur_plans, price_terms, floors[b], b, u, params))
                dev = price_terms[b] + _regret(d_u, 1.0, plan_b, params)
                if dev < best_dev:
                    best_dev, best_b, best_plan = dev, b, plan_b
            if best_b is not None:
                member_lists[a].remove(u)
                bisect.insort(member_lists[best_b], u)
                cur_plans[a] = plan(a, tuple(member_lists[a]))
                cur_plans[best_b] = best_plan
                for j in (a, best_b):
                    floors[j] = floors_of(j)
                    joins.clear(j)
                tiers[u] = best_b
                moves += 1
        members = [tuple(mm) for mm in member_lists]
        assignment = Assignment(tuple(tiers.tolist()), k)
        if progress is not None:
            progress(iterations, tuple(float(t) for t in ts), moves)

        if not moves and prev_ts is not None and np.max(np.abs(ts - prev_ts)) <= 1e-9:
            converged = True
            break
        prev_ts = ts
        if moves:
            if assignment.tier_of in seen:
                break  # deterministic dynamics revisiting a state: a cycle
            seen.add(assignment.tier_of)

    regret = _total_regret(pop, plan, members, prices, params)
    return EquilibriumReport(converged, iterations, assignment, plans, regret, shares)
