"""User populations: profiles, CSV persistence, and synthetic generators.

A user is described by a desired bandwidth rate (the rate they consume while
active, in the same units as link capacity), an activity ratio in (0, 1]
(the fraction of time they are active), and an optional tier index for
multi-tier plans.  Populations keep their users sorted by rate ascending so
that downstream code can rely on the ordering.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ParseError, ValidationError

#: Seed used by the command line interface whenever --seed is omitted.
DEFAULT_SEED = 20260819

#: Default activity grid for synthetic users: {0.01, 0.02, ..., 1.00}.
DEFAULT_ACTIVITY_GRID = tuple(np.round(np.arange(1, 101) / 100.0, 2))


@dataclass(frozen=True)
class UserProfile:
    """One subscriber: desired rate, activity ratio, optional tier index."""

    id: int
    rate: float
    activity: float
    tier: int | None = None

    def __post_init__(self):
        if self.rate <= 0:
            raise ValidationError(f"user {self.id}: rate must be positive, got {self.rate}")
        if not (0 < self.activity <= 1):
            raise ValidationError(
                f"user {self.id}: activity must be in (0, 1], got {self.activity}"
            )
        if self.tier is not None and self.tier < 0:
            raise ValidationError(f"user {self.id}: tier must be >= 0, got {self.tier}")

    @property
    def demand(self) -> float:
        """Expected long-run consumption rate: rate * activity."""
        return self.rate * self.activity


@dataclass(frozen=True)
class Population:
    """An immutable collection of users, sorted by rate ascending."""

    users: tuple[UserProfile, ...] = field(default_factory=tuple)

    def __init__(self, users: Iterable[UserProfile]):
        ordered = tuple(sorted(users, key=lambda u: u.rate))
        if not ordered:
            raise ValidationError("population must contain at least one user")
        seen: set[int] = set()
        for u in ordered:
            if u.id in seen:
                raise ValidationError(f"duplicate user id {u.id}")
            seen.add(u.id)
        object.__setattr__(self, "users", ordered)

    def __len__(self) -> int:
        return len(self.users)

    def __iter__(self) -> Iterator[UserProfile]:
        return iter(self.users)

    def __getitem__(self, i: int) -> UserProfile:
        return self.users[i]

    @cached_property
    def rates(self) -> np.ndarray:
        return np.array([u.rate for u in self.users], dtype=float)

    @cached_property
    def activities(self) -> np.ndarray:
        return np.array([u.activity for u in self.users], dtype=float)

    @cached_property
    def demands(self) -> np.ndarray:
        return self.rates * self.activities

    @cached_property
    def total_demand(self) -> float:
        return float(self.demands.sum())

    def tiers(self) -> list[int | None]:
        return [u.tier for u in self.users]

    def select(self, indices: Sequence[int]) -> "Population":
        """Sub-population of the given user indices (order-preserving)."""
        return Population(self.users[i] for i in indices)

    def with_tiers(self, tiers: Sequence[int | None]) -> "Population":
        """Copy of this population with tier indices replaced."""
        if len(tiers) != len(self.users):
            raise ValidationError("tier list length must match population size")
        return Population(
            UserProfile(u.id, u.rate, u.activity, t) for u, t in zip(self.users, tiers)
        )


def _format_value(x: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(x))


def save_population(pop: Population, path) -> None:
    """Write a population as CSV with header ``id,rate,activity,tier``."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "rate", "activity", "tier"])
        for u in pop:
            tier = "" if u.tier is None else str(u.tier)
            writer.writerow([u.id, _format_value(u.rate), _format_value(u.activity), tier])


def load_population(path) -> Population:
    """Read a population CSV written by :func:`save_population`.

    Raises :class:`ParseError` with a 1-based line number on malformed rows.
    """
    users = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        if [h.strip() for h in header] != ["id", "rate", "activity", "tier"]:
            raise ParseError(f"expected header id,rate,activity,tier, got {','.join(header)}", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4:
                raise ParseError(f"expected 4 columns, got {len(row)}", line=lineno)
            try:
                uid = int(row[0])
                rate = float(row[1])
                activity = float(row[2])
                tier = int(row[3]) if row[3].strip() else None
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            try:
                users.append(UserProfile(uid, rate, activity, tier))
            except ValidationError as exc:
                raise ParseError(str(exc), line=lineno) from None
    if not users:
        raise ParseError("no user rows", line=2)
    return Population(users)


def generate_codec_uniform(
    n: int,
    codec_rates: Sequence[float],
    activity_grid: Sequence[float] | None = None,
    seed: int = DEFAULT_SEED,
) -> Population:
    """Users with rates drawn uniformly from a codec ladder.

    Activities are drawn uniformly from ``activity_grid`` (defaults to the
    percent grid {0.01, ..., 1.00}).  Ids are assigned 0..n-1 by rate
    ascending, so the same seed always produces the identical population.
    """
    if n <= 0:
        raise ValidationError(f"n must be positive, got {n}")
    rates = np.asarray(sorted(codec_rates), dtype=float)
    if rates.size == 0 or rates[0] <= 0:
        raise ValidationError("codec rates must be positive")
    grid = np.asarray(
        DEFAULT_ACTIVITY_GRID if activity_grid is None else sorted(activity_grid), dtype=float
    )
    rng = np.random.default_rng(seed)
    chosen_rates = rng.choice(rates, size=n)
    chosen_acts = rng.choice(grid, size=n)
    # a stable sort keeps draw order among equal codec rates
    order = np.argsort(chosen_rates, kind="stable")
    pairs = zip(chosen_rates[order].tolist(), chosen_acts[order].tolist())
    return Population(UserProfile(i, r, a) for i, (r, a) in enumerate(pairs))


def generate_lognormal(
    n: int,
    mu: float,
    sigma: float,
    activity: float = 1.0,
    seed: int = DEFAULT_SEED,
) -> Population:
    """Users with lognormal(mu, sigma) rates and a fixed activity ratio."""
    if n <= 0:
        raise ValidationError(f"n must be positive, got {n}")
    if sigma < 0:
        raise ValidationError(f"sigma must be >= 0, got {sigma}")
    if not (0 < activity <= 1):
        raise ValidationError(f"activity must be in (0, 1], got {activity}")
    rng = np.random.default_rng(seed)
    rates = np.sort(rng.lognormal(mean=mu, sigma=sigma, size=n), kind="stable")
    return Population(UserProfile(i, r, activity) for i, r in enumerate(rates.tolist()))


def assign_tiers_binomial(pop: Population, n_tiers: int = 3, seed: int = DEFAULT_SEED) -> Population:
    """Random initial tier assignment biased by desired rate.

    Each user flips ``n_tiers - 1`` coins and joins the tier indexed by the
    number of heads.  The heads probability grows with the user's rate third:
    0.2 for the bottom third, 0.5 for the middle, 0.8 for the top, so faster
    users tend to start in more expensive tiers.  Requires three tiers (the
    thirds scheme does not generalize cleanly).
    """
    if n_tiers != 3:
        raise ValidationError("binomial tier seeding is defined for exactly 3 tiers")
    n = len(pop)
    base, rem = divmod(n, 3)
    # remainder goes to the bottom third
    sizes = (base + rem, base, base)
    probs = np.empty(n)
    probs[: sizes[0]] = 0.2
    probs[sizes[0] : sizes[0] + sizes[1]] = 0.5
    probs[sizes[0] + sizes[1] :] = 0.8
    rng = np.random.default_rng(seed)
    tiers = rng.binomial(n_tiers - 1, probs)
    return pop.with_tiers([int(t) for t in tiers])
