"""User dissatisfaction (regret) under throttling plans.

A throttled user's regret is the product of a rate penalty and a time
penalty, each raised to a tunable exponent:

    regret = (1 - delivered_rate_fraction)^rho * (1 - T / d)^tau

Unthrottled users have zero regret.  The delivered fraction is r over the
user's gate (see :mod:`allocation`): their demand for download users, their
codec rate for streaming users, since a stream that still fits in r is
delivered in full.  Tiered plans add a price term kappa * price that
every member of a tier pays, throttled or not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocation import Plan, _gate, _throttled_mask
from .errors import ValidationError
from .population import Population, UserProfile

DEFAULT_RHO = 2.0
DEFAULT_KAPPA = 0.01


@dataclass(frozen=True)
class RegretParams:
    """Exponents for the rate/time penalties and the price weight.

    tau defaults to rho.  Exponents below 1 would reward partial throttling
    more than proportionally and are rejected.
    """

    rho: float = DEFAULT_RHO
    tau: float | None = None
    kappa: float = DEFAULT_KAPPA

    def __post_init__(self):
        if self.tau is None:
            object.__setattr__(self, "tau", self.rho)
        for name in ("rho", "tau"):
            if not (1 <= getattr(self, name) < math.inf):
                raise ValidationError(f"{name} must be >= 1 and finite, got {getattr(self, name)}")
        if not (0 <= self.kappa < math.inf):
            raise ValidationError(f"kappa must be >= 0 and finite, got {self.kappa}")


def _regret(rate: float, activity: float, plan: Plan, params: RegretParams) -> float:
    """:func:`user_regret` from a user's rate and activity, for loops over columns."""
    d = rate * activity
    gate = _gate(d, rate, plan.mode)
    if not _throttled_mask(d, gate, plan.threshold, plan.rate):
        return 0.0
    rate_term = max(1.0 - plan.rate / gate, 0.0)
    time_term = max(1.0 - plan.threshold / d, 0.0)
    return rate_term**params.rho * time_term**params.tau


def user_regret(user: UserProfile, plan: Plan, params: RegretParams) -> float:
    """Regret of a single user under a plan (0 when unthrottled)."""
    return _regret(user.rate, user.activity, plan, params)


def _regrets(d, gate, threshold, rate, params: RegretParams) -> np.ndarray:
    """:func:`_regret` of demand and gate columns, 0 where unthrottled.

    ``threshold`` and ``rate`` are one plan's or one per user.
    """
    hot = _throttled_mask(d, gate, threshold, rate)
    rate_term = np.clip(1.0 - rate / gate, 0.0, None)
    time_term = np.clip(1.0 - threshold / d, 0.0, None)
    return np.where(hot, rate_term**params.rho * time_term**params.tau, 0.0)


def aggregate_regret(pop: Population, plan: Plan, params: RegretParams) -> float:
    """Sum of user regrets over the population."""
    d = pop.demands
    gate = _gate(d, pop.rates, plan.mode)
    hot = _throttled_mask(d, gate, plan.threshold, plan.rate)
    if not hot.any():
        return 0.0
    return float(np.sum(_regrets(d, gate, plan.threshold, plan.rate, params)[hot]))


def tiered_user_regret(
    user: UserProfile, plan: Plan, price: float, params: RegretParams
) -> float:
    """Regret of a tier member: price term plus the usual throttle term."""
    if price < 0:
        raise ValidationError(f"price must be >= 0, got {price}")
    return params.kappa * price + user_regret(user, plan, params)


def tiered_aggregate_regret(
    pop: Population,
    tier_members: list[tuple[int, ...]],
    tier_plans: list[Plan],
    prices: list[float],
    params: RegretParams,
) -> float:
    """Total regret across tiers, price terms included for every member.

    ``tier_members`` must partition the population's indices exactly.
    """
    if not (len(tier_members) == len(tier_plans) == len(prices)):
        raise ValidationError("tier_members, tier_plans and prices must align")
    seen: set[int] = set()
    total = 0.0
    rates, activities = pop.rates.tolist(), pop.activities.tolist()
    for members, plan, price in zip(tier_members, tier_plans, prices):
        if price < 0:
            raise ValidationError(f"price must be >= 0, got {price}")
        for i in members:
            if i in seen:
                raise ValidationError(f"user index {i} assigned to more than one tier")
            seen.add(i)
            total += params.kappa * price + _regret(rates[i], activities[i], plan, params)
    if len(seen) != len(pop):
        missing = sorted(set(range(len(pop))) - seen)
        raise ValidationError(f"user indices {missing} not assigned to any tier")
    return total
