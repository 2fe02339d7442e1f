"""Multi-tier plan games over a shared link.

Users pick one of several priced tiers; each tier j holds a capacity share
C_j and throttles with its own plan (T_j, r_j).  A member's regret is
kappa * price_j plus the usual throttle regret, so cheap tiers attract
low-demand users and the game resembles a leader/follower pricing game:

* two tiers: exact Nash enumeration over all assignments plus a sweep over
  capacity splits.  Each split first plans every member subset at both
  tiers' shares, one row batch per subset size, into a table keyed by the
  members' bitmask; the Nash check reads them in array passes (:func:`_nash_masks`);
* many tiers: the operator's joint threshold problem (capacity used exactly,
  r_j = T_j) solved with SLSQP, alternated with sequential best responses
  by the users.  There is no fallback solver: an SLSQP failure raises
  ThrottlePlanError with the solver's message.

All tier games run on download traffic; demands fold activity in.

Most deviations are ruled out before their plan is solved.  A user joining
tier b pays dev = fl(kappa p_b) + R with R >= 0, so a target whose price term
alone reaches the regret to beat cannot win.  The Stackelberg loop also
bounds R = ((1 - T/d)(1 - r/d))^rho (rho = tau for downloads) from two
levels of b, each counting the joiner u as consuming exactly t
(:func:`_join_levels`): t0, the root of sum_b min(d, t) + t = C_b, and tc,
the root of sum_b c_t(d) + t = C_b with c_t(d) = d for d <= t and
2 t - t^2 / d above.

* Every plan the scan returns for b + u lies on the grown tier's
  capacity-tight curve with T, r <= t_hat', its zero-rate threshold.
* On each fixed-membership piece of the curve
  d(T + r)/dT = S (r - T) / (h - T S), with h the throttled count and S
  their sum of 1/d, so T + r peaks where the curve crosses r = T, at t*:
  T + r <= 2 t*.  At T = t_hat', r = 0, so t_hat' <= 2 t*.
* For a fixed sum with T, r <= t_hat' the product (d - T)(d - r) is
  smallest at the most uneven split, so for d_u > t_hat'
  R >= ((1 - t_hat'/d)(1 - (2 t* - t_hat')/d))^rho.  This falls as t*
  grows, and as t_hat' grows past t*.
* If d_u > t0, u consumes exactly t at zero rate, so t_hat' = t0, and at
  least t on the r = T diagonal, so t* <= tc <= t0: the bound holds with
  t0 and tc.  Otherwise its first factor, and the floor, is 0.
* It is never below the tier's plain bound (1 - t_hat_b/d)^(2 rho), the
  bound of any plan with T, r <= t_hat_b, as 2 tc - t0 <= tc <= t0 <= t_hat_b.

:func:`_join_floor` raises t0 and tc by 1e-9 relative and lowers the power
by 1e-9.  The levels are closed forms over running sums of at most n terms,
and the scan's T and r come from the grown tier's own sums in another order,
so each is off by about n eps relative; a segment picked one off at a tie
moves a root by as little.  1e-9 is about 4.5e6 eps, thousands of times that
for the tiers the game plans, and the power's margin covers the rounding of
the power and of the regret's two factors.  A deviation moves a user only
if it strictly beats the best option so far, and a skipped one provably
cannot, so every move, plan and report is the same as with every deviation
solved.

The Stackelberg walk keeps one record per tier per round (:class:`_Tier`):
its members, plan, join floors and deviation table, tier b's plan for its
members joined by user u.  Such a plan, and the floors, depend only on b's
members and share, and shares are fixed for a round, so they hold until b's
members change; a move changes them only through the source's
:meth:`_Tier.leave` and the target's :meth:`_Tier.enter`, which rebuild the
floors and empty the table.  A miss solves u together with the next users
whose floor for b lies below their current regret, in one row batch; every
row is the single solve's plan bit for bit, so the table changes no move.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from itertools import chain, combinations, islice
from typing import Callable, Sequence

import numpy as np

from .allocation import Mode, Plan, _check_capacity
from .download import _check_grid_size, _check_params, _optimize_rows, optimize_demands
from .errors import InfeasibleError, ThrottlePlanError, ValidationError
from .population import DEFAULT_SEED, Population, _check_seed, assign_tiers_binomial
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
#: Relative band where array and scalar regrets may order differently (:func:`_nash_masks`).
_NASH_TIE = 32 * np.finfo(float).eps


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
    # the config's kappa is authoritative inside tier games, which plan downloads
    base = params if params is not None else RegretParams()
    _check_params(base)
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
    _check_params(params)
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
    their row-batched tables (:class:`_SubsetPlans`, :meth:`_Tier.join`).
    """
    if not members:
        return Plan(0.0, 0.0, Mode.DOWNLOAD)
    t, r, _ = optimize_demands(demands[list(members)], share, rho)
    t, r = _covered_at_share(t, r, share)
    return Plan(float(t), float(r), Mode.DOWNLOAD)


def _move_regret(
    demands: np.ndarray, target: Sequence[int], user: int, share: float, price: float,
    params: RegretParams,
) -> float:
    """Regret of ``user`` joining the tier of members ``target``, ``share`` and ``price``.

    The tier re-plans with ``user`` at its unchanged share.  A download
    user's regret reads only the demand: it passes as a rate at activity 1.
    """
    plan = _download_plan(demands, tuple(sorted((*target, user))), share, params.rho)
    return params.kappa * price + _regret(float(demands[user]), 1.0, plan, params)


def _join_levels(demands: np.ndarray, members: Sequence[int], share: float) -> tuple[float, float]:
    """(zero-rate level, r = T crossing) of a tier about to take one more member.

    The joiner is counted as consuming exactly t at both: the level is the
    root of sum min(d, t) + t = share, the crossing the root of
    sum c_t(d) + t = share, with c_t(d) = d for d <= t and 2 t - t^2 / d
    above, both summed over the members.  Each comes in closed form on the
    segment of the sorted demands holding it: a linear root for the level
    and the smaller quadratic root for the crossing.  Both are finite for
    any finite share, empty tiers included.
    """
    ds = np.sort(demands[list(members)])
    n = ds.size
    prefix = np.concatenate(([0.0], np.cumsum(ds)))
    suf_inv = np.concatenate((np.cumsum(1.0 / ds[::-1])[::-1], [0.0]))
    # each curve at t = d_j; the root lies past every d_j whose curve stays within the share
    above = n - 1 - np.arange(n)
    at_zero = prefix[1:] + (above + 1) * ds
    at_cross = prefix[1:] + ds * (2 * above + 1 - ds * suf_inv[1:])
    k = int(np.searchsorted(at_zero, share, side="right"))
    zero = (share - float(prefix[k])) / (n - k + 1)
    k = int(np.searchsorted(at_cross, share, side="right"))
    spare, b = share - float(prefix[k]), 2 * (n - k) + 1
    # the stable form of (b - sqrt(b^2 - 4 S spare)) / (2 S), exact at S = 0
    cross = 2.0 * spare / (b + math.sqrt(max(b * b - 4.0 * float(suf_inv[k]) * spare, 0.0)))
    return zero, cross


def _join_floor(price_term: float, t_zero: float, demand, exponent: float, t_cross: float):
    """Lower bound on the regret of a user of this demand joining a tier.

    ``exponent`` is rho + tau, with rho = tau, and ``demand`` is one demand
    or a column.  The bound is ((1 - high/d)(1 - low/d))^rho, each factor
    clipped at 0, with high = ``t_zero`` and low = 2 ``t_cross`` - high,
    both levels raised by 1e-9 relative and the power lowered by 1e-9.
    With :func:`_join_levels`' two levels it bounds every plan the tier
    can take with the joiner.  The module docstring derives it and the
    margins.
    """
    high = t_zero * (1.0 + 1e-9)
    low = 2.0 * t_cross * (1.0 + 1e-9) - high
    gap = np.clip(1.0 - high / demand, 0.0, None) * np.clip(1.0 - low / demand, 0.0, None)
    return price_term + gap ** (0.5 * exponent) * (1.0 - 1e-9)


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
    return _move_regret(
        pop.demands, assignment.members()[target_tier], user,
        config.capacity_shares[target_tier], config.prices[target_tier], params,
    )


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
    members = assignment.members()
    shares, prices = config.capacity_shares, config.prices
    plans = [_download_plan(pop.demands, m, s, params.rho) for m, s in zip(members, shares)]
    improving: list[tuple[int, int, float]] = []
    for u, (d, a) in enumerate(zip(pop.demands.tolist(), assignment.tier_of)):
        cur = params.kappa * prices[a] + _regret(d, 1.0, plans[a], params)
        for b in range(config.n_tiers):
            if b == a or params.kappa * prices[b] >= cur:
                continue  # unsolved: a price term alone at cur cannot be strictly better
            dev = _move_regret(pop.demands, members[b], u, shares[b], prices[b], params)
            if dev < cur:
                improving.append((u, b, cur - dev))
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
    covering off their member-order sums as :func:`_download_plan` does.  Two
    float64 arrays of 2^n per share keep the table at 32 MB at the enumeration cap.
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

    def plan(self, tier: int, mask: int) -> Plan:
        """The plan of the subset ``mask`` at tier ``tier``'s share."""
        return Plan(float(self.t[tier, mask]), float(self.r[tier, mask]), Mode.DOWNLOAD)


def _nash_masks(
    demands: np.ndarray, config: TierConfig, params: RegretParams, table: _SubsetPlans
) -> np.ndarray:
    """Ascending masks of every Nash assignment of a two-tier game at the table's split.

    Bit i of a mask puts user i in the second tier.  Pass u drops each mask
    left where u's regret joining tier 1 - a, read off the table like its
    current one in tier a, is strictly lower; indifferent users stay.

    Array and scalar (:func:`regret._regret`) regrets differ only in the
    powers: numpy squares by multiplication and has its own vector ``pow``.
    With each power within an ulp of exact, a power differs between paths
    by 2 eps relative (eps = 2^-52), R by 5 eps and p + R (p >= 0 the price
    term) by 6 eps, so cur and dev may order differently only where
    |dev - cur| <= 12 eps max(cur, dev).  Entries within :data:`_NASH_TIE`,
    32 eps to allow powers two ulps off, are decided again by the scalar
    regrets, unless both regrets are 0 and each side is its price term.
    """
    full = (1 << demands.size) - 1
    terms = np.array([params.kappa * p for p in config.prices])
    live = np.arange(full + 1)  # masks no user has left so far, ascending
    for u, d in enumerate(demands.tolist()):
        tier = (live >> u) & 1
        own = np.where(tier == 1, live, full ^ live)
        join = (full ^ own) | (1 << u)
        cur_r = _regrets(d, d, table.t[tier, own], table.r[tier, own], params)
        dev_r = _regrets(d, d, table.t[1 - tier, join], table.r[1 - tier, join], params)
        cur, dev = terms[tier] + cur_r, terms[1 - tier] + dev_r
        moves = dev < cur
        near = ((cur_r != 0.0) | (dev_r != 0.0)) & (
            np.abs(dev - cur) <= _NASH_TIE * np.maximum(cur, dev))
        for m in np.flatnonzero(near).tolist():
            a = int(tier[m])
            cur_s = terms[a] + _regret(d, 1.0, table.plan(a, int(own[m])), params)
            dev_s = terms[1 - a] + _regret(d, 1.0, table.plan(1 - a, int(join[m])), params)
            moves[m] = dev_s < cur_s
        live = live[~moves]
    return live


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
    masks = _nash_masks(pop.demands, cfg, params, table).tolist()
    return [Assignment(tuple((m >> i) & 1 for i in range(len(pop))), 2).class_id for m in masks]


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
    n, full, prices = len(pop), (1 << len(pop)) - 1, list(config.prices)
    points: list[SweepPoint] = []
    for split in splits:
        cfg = _split_config(config, split)
        # the enumeration and the regret statistics share one table per split
        table = _SubsetPlans(pop.demands, cfg.capacity_shares, params.rho)
        pairs = []
        for m in _nash_masks(pop.demands, cfg, params, table).tolist():
            a = Assignment(tuple((m >> i) & 1 for i in range(n)), 2)
            plans = [table.plan(0, full ^ m), table.plan(1, m)]
            regret = tiered_aggregate_regret(pop, a.members(), plans, prices, params)
            pairs.append((a.class_id, regret))
        regs = [r for _, r in pairs]
        stats = (min(regs), sum(regs) / len(regs), max(regs)) if regs else (None, None, None)
        points.append(SweepPoint(split, tuple(pairs), *stats))
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


class _Tier:
    """One tier of a Stackelberg round: members, plan, join floors and deviation table.

    ``members`` lists the tier's users ascending, ``floor`` every user's
    :func:`_join_floor` for the tier, and ``joins`` maps a user u outside it
    to :func:`_download_plan` of its members and u at its share, bit for
    bit.  The share is fixed for the round, so floors and table hold until
    :meth:`leave` or :meth:`enter` changes the members; each sets the plan,
    rebuilds the floors, empties the table and resets its batch size.
    """

    def __init__(self, demands: np.ndarray, members: Sequence[int], share: float, plan: Plan,
                 price_term: float, params: RegretParams):
        self.demands, self.share, self.price_term, self.params = demands, share, price_term, params
        self.members = list(members)
        self._changed(plan)

    def _changed(self, plan: Plan) -> None:
        self.plan = plan
        t_zero, t_cross = _join_levels(self.demands, self.members, self.share)
        exponent = self.params.rho + self.params.tau
        self.floor = _join_floor(self.price_term, t_zero, self.demands, exponent, t_cross)
        self.joins: dict[int, Plan] = {}
        self.batch = _JOIN_BATCH

    def leave(self, user: int) -> None:
        """Drops ``user`` and re-plans the tier with one solve."""
        self.members.remove(user)
        members = tuple(self.members)
        self._changed(_download_plan(self.demands, members, self.share, self.params.rho))

    def enter(self, user: int, plan: Plan) -> None:
        """Adds ``user`` with ``plan``, the tier's plan with it as :meth:`join` gave it."""
        bisect.insort(self.members, user)
        self._changed(plan)

    def join(self, user: int, later: Callable[[], np.ndarray]) -> Plan:
        """The tier's plan with ``user`` joining its members.

        ``later()`` lists, in walk order, the users after ``user`` likely to
        ask for the same tier.  A miss plans ``user`` and the first of them
        not yet planned in one :func:`download._optimize_rows` batch of
        ``batch`` rows, then doubles ``batch`` up to ``_JOIN_BATCH_CAP``.
        """
        if user not in self.joins:
            users = [user]
            for v in later().tolist():
                if len(users) == self.batch:
                    break
                if v not in self.joins:
                    users.append(v)
            self._solve(np.array(users))
            self.batch = min(2 * self.batch, _JOIN_BATCH_CAP)
        return self.joins[user]

    def _solve(self, users: np.ndarray) -> None:
        """Plans each of ``users`` joining the tier, one row of member-order demands each."""
        members = self.members
        s, m = len(members), users.size
        pos = np.searchsorted(members, users)
        cols = np.arange(s + 1)
        src = np.where(cols < pos[:, None], cols, cols - 1)
        src[np.arange(m), pos] = s + np.arange(m)
        pool = np.concatenate((self.demands[members], self.demands[users]))
        t, r, _ = _optimize_rows(pool[src], np.full(m, self.share), self.params.rho)
        t, r = _covered_at_share(t, r, self.share)
        for v, tv, rv in zip(users.tolist(), t.tolist(), r.tolist()):
            self.joins[v] = Plan(tv, rv, Mode.DOWNLOAD)


def _later_joiners(
    tiers: Sequence[_Tier], tier_of: np.ndarray, target: int, user: int
) -> np.ndarray:
    """Users after ``user``, outside ``target``, whose floor for it is below their current regret.

    These are the deviations to the target tier the Stackelberg walk may
    still solve this round, unless a move changes the tier first.
    """
    later = slice(user + 1, None)
    own = tier_of[later]
    tier = tiers[target]
    d = tier.demands[later]
    t = np.array([other.plan.threshold for other in tiers])[own]
    r = np.array([other.plan.rate for other in tiers])[own]
    cur = np.array([other.price_term for other in tiers])[own] + _regrets(d, d, t, r, tier.params)
    return user + 1 + np.flatnonzero((own != target) & (tier.floor[later] < cur))


def _stackelberg_params(
    prices: Sequence[float], kappa: float, max_iters: int, rho: float, seed: int
) -> tuple[tuple[float, ...], RegretParams]:
    """(prices, regret params) of :func:`stackelberg_iterate`, refusing its inputs as it does."""
    prices = tuple(float(p) for p in prices)
    if len(prices) < 2:
        raise ValidationError("stackelberg game needs at least 2 tiers")
    TierConfig(prices, kappa, (0.0,) * len(prices))  # validates prices and kappa
    if max_iters < 0:
        raise ValidationError(f"max_iters must be >= 0, got {max_iters}")
    if len(prices) == 3:  # only the three-tier start draws from the seed
        _check_seed(seed)
    params = RegretParams(rho=rho, kappa=kappa)
    _check_params(params)
    return prices, params


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
    zero-rate level and r = T crossing with one more member
    (:func:`_join_levels`), is below the mover's best option so far;
    otherwise its plan cannot beat that option and no solve could move the
    user (see the module docstring).

    Each round keeps one :class:`_Tier` record per tier: its members, plan,
    floors and deviation table.  A move changes tiers only by the source's
    :meth:`_Tier.leave` and the target's :meth:`_Tier.enter`; each re-plans
    or sets the plan, rebuilds the tier's floors and empties its table,
    whose plans would be stale, and the other tiers' records stay valid.
    A miss plans the asked user and the next users after it who may ask the
    same tier, in one :func:`download._optimize_rows` batch of 4 rows,
    doubling on each further miss up to 64.  Each row is
    :func:`_download_plan`'s plan bit for bit, so moves, progress lines and
    reports are those of one solve per deviation.

    ``progress``, if given, is called after each round with
    (iteration, thresholds, moves).
    """
    prices, params = _stackelberg_params(prices, kappa, max_iters, rho, seed)
    n = len(pop)
    k = len(prices)
    if k == 3:
        tier_of = tuple(assign_tiers_binomial(pop, seed=seed).tiers())
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
    seen = {assignment.tier_of}
    prev_ts: np.ndarray | None = None
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
        tiers = [
            _Tier(pop.demands, m, share, plan, params.kappa * price, params)
            for m, share, plan, price in zip(members, shares, plans, prices)
        ]
        tier_of = np.array(assignment.tier_of)
        moves = 0
        for u in range(n):
            a = tier_of[u]
            d_u = demands[u]
            throttle = _regret(d_u, 1.0, tiers[a].plan, params)
            if a == 0 and throttle == 0.0:
                continue  # cheapest tier, unthrottled: nothing can beat it
            best_dev, best_b, best_plan = tiers[a].price_term + throttle, None, None
            for b, target in enumerate(tiers):
                if b == a or target.floor[u] >= best_dev:
                    continue
                plan_b = target.join(u, lambda: _later_joiners(tiers, tier_of, b, u))
                dev = target.price_term + _regret(d_u, 1.0, plan_b, params)
                if dev < best_dev:
                    best_dev, best_b, best_plan = dev, b, plan_b
            if best_b is not None:
                tiers[a].leave(u)
                tiers[best_b].enter(u, best_plan)
                tier_of[u] = best_b
                moves += 1
        members = [tuple(tier.members) for tier in tiers]
        assignment = Assignment(tuple(tier_of.tolist()), k)
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

    final = [_download_plan(pop.demands, m, s, params.rho) for m, s in zip(members, shares)]
    regret = tiered_aggregate_regret(pop, members, final, list(prices), params)
    return EquilibriumReport(converged, iterations, assignment, plans, regret, shares)
