"""User populations: profiles, CSV persistence, and synthetic generators.

A user is described by a desired bandwidth rate (the rate they consume while
active, in the same units as link capacity), an activity ratio in (0, 1]
(the fraction of time they are active), and an optional tier index for
multi-tier plans.  A population stores its users as columns sorted by rate
ascending, so downstream code can rely on the ordering and read whole
columns at once.

The CSV codec works on columns too.  The writer formats a chunk of rows
at a time, and each distinct rate, activity or tier of a chunk once.  The
reader parses the rows in one ``np.loadtxt`` pass; a file that pass
refuses, or whose columns fail validation, is read again by a row loop
with ``csv`` and Python's ``int``/``float``, which words every error with
its line and also accepts the few valid spellings numpy does not (see
:func:`load_population`).
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ParseError, ValidationError

#: Seed used by the command line interface whenever --seed is omitted.
DEFAULT_SEED = 20260819

#: Default activity grid for synthetic users: {0.01, 0.02, ..., 1.00}.
DEFAULT_ACTIVITY_GRID = tuple(np.round(np.arange(1, 101) / 100.0, 2))


_NO_TIER = -1  # tier column entry of a user without a tier


@dataclass(frozen=True)
class UserProfile:
    """One subscriber: desired rate, activity ratio, optional tier index."""

    id: int
    rate: float
    activity: float
    tier: int | None = None

    def __post_init__(self):
        if not (0 < self.rate < math.inf):
            raise ValidationError(
                f"user {self.id}: rate must be positive and finite, got {self.rate}"
            )
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


def _int64(values, bad: Callable[[int, str], ValidationError], name: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        i = next(i for i, v in enumerate(values) if not -(2**63) <= v < 2**63)
        raise bad(i, f"{name} {values[i]} does not fit in int64") from None


class Population:
    """Users stored as read-only numpy columns, sorted by rate.

    ``ids``, ``rates``, ``activities`` and ``demands`` keep users of equal
    rate in their input order.  ``pop[i]`` and iteration give
    :class:`UserProfile` views, which hot loops should avoid.
    """

    __slots__ = ("ids", "rates", "activities", "demands", "total_demand", "_tiers")

    def __init__(self, users: Iterable[UserProfile]):
        users = list(users)
        self._set_columns([u.id for u in users], [u.rate for u in users],
                          [u.activity for u in users], [u.tier for u in users])

    @classmethod
    def _from_columns(cls, *columns, line_of=None) -> "Population":
        pop = cls.__new__(cls)
        pop._set_columns(*columns, line_of=line_of)
        return pop

    def _set_columns(self, ids, rates, activities, tiers=None, line_of=None) -> None:
        """Validate rows in input order, then store them stable-sorted by rate.

        ``tiers`` has a tier index or None per user, or is None for no tiers.
        A bad row raises ValidationError, or ParseError at ``line_of(row)``."""

        def bad(i: int, message: str) -> ValidationError:
            return ValidationError(message) if line_of is None else ParseError(message, line_of(i))

        n = len(rates)
        if n == 0:
            raise bad(0, "population must contain at least one user")
        ids = _int64(ids, bad, "id")
        rates, activities = np.asarray(rates, dtype=float), np.asarray(activities, dtype=float)
        flagged = ~((rates > 0) & (rates < math.inf) & (activities > 0) & (activities <= 1))
        tier_col = np.full(n, _NO_TIER)
        if tiers is not None and any(t is not None for t in tiers):
            flagged |= np.array([t is not None and t < 0 for t in tiers])
            tier_col = _int64([_NO_TIER if t is None else t for t in tiers], bad, "tier")
        if flagged.any():
            i = int(np.argmax(flagged))
            try:  # the row's own checks word the message
                UserProfile(int(ids[i]), float(rates[i]), float(activities[i]),
                            None if tiers is None else tiers[i])
            except ValidationError as exc:
                raise bad(i, str(exc)) from None
        _, first = np.unique(ids, return_index=True)
        if first.size < n:
            i = int(np.setdiff1d(np.arange(n), first)[0])  # the first repeat, in input order
            raise bad(i, f"duplicate user id {ids[i]}")
        order = np.argsort(rates, kind="stable")
        self.ids, self.rates, self.activities, self._tiers = (
            col[order] for col in (ids, rates, activities, tier_col))
        self.demands = self.rates * self.activities
        self.total_demand = float(self.demands.sum())
        for col in (self.ids, self.rates, self.activities, self.demands, self._tiers):
            col.flags.writeable = False

    def __len__(self) -> int:
        return len(self.rates)

    def __iter__(self) -> Iterator[UserProfile]:
        return map(UserProfile, self.ids.tolist(), self.rates.tolist(),
                   self.activities.tolist(), self.tiers())

    def __getitem__(self, i: int) -> UserProfile:
        tier = int(self._tiers[i])
        return UserProfile(int(self.ids[i]), float(self.rates[i]), float(self.activities[i]),
                           None if tier == _NO_TIER else tier)

    def __eq__(self, other) -> bool:
        return isinstance(other, Population) and all(
            np.array_equal(getattr(self, c), getattr(other, c))
            for c in ("ids", "rates", "activities", "_tiers"))

    def tiers(self) -> list[int | None]:
        return [None if t == _NO_TIER else t for t in self._tiers.tolist()]

    def select(self, indices: Sequence[int]) -> "Population":
        """Sub-population of the given user indices (order-preserving)."""
        idx = np.asarray(indices, dtype=np.intp)
        tiers = self.tiers()
        return Population._from_columns(
            self.ids[idx], self.rates[idx], self.activities[idx], [tiers[i] for i in idx])

    def with_tiers(self, tiers: Sequence[int | None]) -> "Population":
        """Copy of this population with tier indices replaced."""
        if len(tiers) != len(self):
            raise ValidationError("tier list length must match population size")
        return Population._from_columns(self.ids, self.rates, self.activities, tiers)


#: Rows the writer formats per write: enough to amortize the per-chunk work,
#: few enough that the chunk's text stays small next to the columns.
_WRITE_CHUNK = 65_536

_HEADER = ["id", "rate", "activity", "tier"]

#: Bytes numpy's number parsing strips as whitespace where int() and float() refuse them.
_NUMPY_SPACES = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")

#: Row layout of the columnar parse; tiers stay text until checked for blanks.
_CSV_DTYPE = [("id", np.int64), ("rate", np.float64), ("activity", np.float64),
              ("tier", object)]


def _texts(col: np.ndarray, word: Callable) -> list[str]:
    """``word(v)`` for each entry of ``col``, called once per distinct value.

    Distinct values are found by ``np.unique``, which counts -0.0 and 0.0
    as one value although their reprs differ; that is safe here only
    because rates and activities are validated positive and tiers are
    integers.
    """
    values, inverse = np.unique(col, return_inverse=True)
    return np.array([word(v) for v in values.tolist()], dtype=object)[inverse].tolist()


def _tier_word(tier: int) -> str:
    return "" if tier == _NO_TIER else str(tier)


def save_population(pop: Population, path) -> None:
    """Write a population as CSV with header ``id,rate,activity,tier``.

    Floats are written with ``repr`` (they read back exactly) and a missing
    tier as an empty field, as ``csv.writer`` writes them.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(_HEADER) + "\n")
        for lo in range(0, len(pop), _WRITE_CHUNK):
            part = slice(lo, lo + _WRITE_CHUNK)
            fh.write("".join(
                f"{i},{r},{a},{t}\n" for i, r, a, t in zip(
                    pop.ids[part].tolist(), _texts(pop.rates[part], repr),
                    _texts(pop.activities[part], repr), _texts(pop._tiers[part], _tier_word))))


def _check_header(header: list[str] | None) -> None:
    if header is None:
        raise ParseError("empty file", line=1)
    if [h.strip() for h in header] != _HEADER:
        raise ParseError(f"expected header id,rate,activity,tier, got {','.join(header)}", line=1)


def _text(data: bytes) -> io.TextIOWrapper:
    """The file's text as ``open(path, newline="")`` decodes it."""
    return io.TextIOWrapper(io.BytesIO(data), newline="")


def _load_columns(fh) -> Population:
    """Check the header, then parse the rows in one pass; raises on any bad field."""
    _check_header(next(csv.reader(fh), None))
    first = next((line for line in fh if not line.isspace()), None)
    if first is None:  # loadtxt warns on a body without data; the row loop words the error
        raise ValueError("no rows")
    cols = np.loadtxt(chain([first], fh), delimiter=",", dtype=_CSV_DTYPE, comments=None,
                      quotechar='"', ndmin=1)
    tiers = cols["tier"]
    tiers = [int(t) if t.strip() else None for t in tiers] if any(map(str.strip, tiers)) else None
    return Population._from_columns(cols["id"], cols["rate"], cols["activity"], tiers)


def _load_rows(fh) -> Population:
    """Parse the file row by row; words every error with its line number."""
    ids, rates, activities, lines = array("q"), array("d"), array("d"), array("q")
    tiers: list[int | None] = []
    reader = csv.reader(fh)
    _check_header(next(reader, None))
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 4:
            raise ParseError(f"expected 4 columns, got {len(row)}", line=lineno)
        try:
            ids.append(int(row[0]))
            rates.append(float(row[1]))
            activities.append(float(row[2]))
            tiers.append(int(row[3]) if row[3].strip() else None)
            lines.append(lineno)
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        except OverflowError:
            raise ParseError(f"id {row[0].strip()} does not fit in int64", line=lineno) from None
    line_of = lines.__getitem__ if lines else lambda row: 2  # no rows: where the first belongs
    return Population._from_columns(ids, rates, activities, tiers, line_of=line_of)


def load_population(path) -> Population:
    """Read a population CSV written by :func:`save_population`.

    ``path`` is a file path or a binary file object, read to its end.

    The rows after the header are parsed in one columnar pass
    (``np.loadtxt``).  Where that pass refuses the file or its columns fail
    validation, the file is read again row by row with ``csv`` and Python's
    ``int``/``float``, and that row loop words the error.  The row loop also
    reads the valid files numpy refuses, such as ``1_0`` digits,
    whitespace-only lines or lone carriage-return line ends.  Only ASCII
    text free of the control characters 0x1c-0x1f takes the columnar pass:
    numpy strips those as whitespace where ``int``/``float`` refuse them,
    and misreads non-ASCII digits.  Where both passes accept a file they
    read the same values.

    Raises :class:`ParseError` with a 1-based line number on malformed rows.
    """
    if hasattr(path, "read"):
        data = path.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    if data.isascii() and not any(sep in data for sep in _NUMPY_SPACES):
        try:
            return _load_columns(_text(data))
        except (ValueError, OverflowError, ValidationError):
            pass  # the row loop words the error or reads what numpy refused
    return _load_rows(_text(data))


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")


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
    _check_seed(seed)
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
    return Population._from_columns(np.arange(n), chosen_rates[order], chosen_acts[order])


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
    if not math.isfinite(mu):
        raise ValidationError(f"mu must be finite, got {mu}")
    if not (0 <= sigma < math.inf):
        raise ValidationError(f"sigma must be >= 0 and finite, got {sigma}")
    if not (0 < activity <= 1):
        raise ValidationError(f"activity must be in (0, 1], got {activity}")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    rates = np.sort(rng.lognormal(mean=mu, sigma=sigma, size=n), kind="stable")
    return Population._from_columns(np.arange(n), rates, np.full(n, activity))


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
    _check_seed(seed)
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
