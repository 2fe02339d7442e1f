"""Randomized properties of the columnar Population.

Sizes, tied and duplicated rates and extreme finite scales are drawn by
hypothesis; each property compares the column path against a plain-Python
reference built from UserProfile objects.
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from throttleplan import (
    ParseError,
    Population,
    UserProfile,
    generate_codec_uniform,
    generate_lognormal,
    load_population,
    save_population,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

INT64 = st.integers(-(2**63), 2**63 - 1)
# a small pool makes ties likely; the wide range covers extreme finite scales
RATES = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0, 3.0]),
    st.floats(min_value=5e-324, max_value=1e300, allow_nan=False, allow_infinity=False),
)
ACTIVITIES = st.one_of(
    st.sampled_from([0.01, 0.5, 1.0]),
    st.floats(min_value=5e-324, max_value=1.0, allow_nan=False),
)
TIERS = st.one_of(st.none(), st.integers(0, 2**63 - 1))


@st.composite
def users(draw, min_size=1, max_size=40):
    n = draw(st.integers(min_size, max_size))
    ids = draw(st.lists(INT64, min_size=n, max_size=n, unique=True))
    return [UserProfile(i, draw(RATES), draw(ACTIVITIES), draw(TIERS)) for i in ids]


def columns(pop):
    return list(pop.ids), list(pop.rates), list(pop.activities), pop.tiers()


def reference_columns(profiles):
    ordered = sorted(profiles, key=lambda u: u.rate)  # Python's sort is stable
    return ([u.id for u in ordered], [u.rate for u in ordered],
            [u.activity for u in ordered], [u.tier for u in ordered])


def save_and_load(pop):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.csv"), os.path.join(tmp, "b.csv")
        save_population(pop, first)
        back = load_population(first)
        save_population(back, second)
        with open(first, "rb") as a, open(second, "rb") as b:
            return back, a.read(), b.read()


@PROPERTY_SETTINGS
@given(users())
def test_columns_match_the_stable_sorted_profiles(profiles):
    pop = Population(profiles)
    assert columns(pop) == reference_columns(profiles)
    assert list(pop.demands) == [u.rate * u.activity for u in sorted(profiles, key=lambda u: u.rate)]
    assert list(pop) == sorted(profiles, key=lambda u: u.rate)
    assert all(pop[i] == u for i, u in enumerate(pop))


@PROPERTY_SETTINGS
@given(st.integers(1, 300), st.integers(0, 2**32), st.floats(-5.0, 5.0), st.floats(0.0, 3.0),
       st.sampled_from([1.0, 0.5, 0.01]))
def test_lognormal_generator_matches_profile_path(n, seed, mu, sigma, activity):
    pop = generate_lognormal(n, mu, sigma, activity=activity, seed=seed)
    assert list(pop.ids) == list(range(n))
    assert Population(list(pop)) == pop


@PROPERTY_SETTINGS
@given(st.integers(1, 300), st.integers(0, 2**32),
       st.lists(st.sampled_from([0.1, 0.2, 0.2, 0.6, 1e-300, 1e300]), min_size=1, max_size=5))
def test_codec_generator_matches_profile_path(n, seed, ladder):
    pop = generate_codec_uniform(n, ladder, seed=seed)
    assert list(pop.ids) == list(range(n))
    assert set(pop.rates.tolist()) <= set(ladder)
    assert Population(list(pop)) == pop


@PROPERTY_SETTINGS
@given(users())
def test_save_load_round_trip_is_byte_identical(profiles):
    pop = Population(profiles)
    back, first, second = save_and_load(pop)
    assert back == pop
    assert first == second


@PROPERTY_SETTINGS
@given(users(), st.data())
def test_select_and_with_tiers_keep_order_and_ids(profiles, data):
    pop = Population(profiles)
    n = len(pop)
    picked = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    sub = pop.select(picked)
    assert sub == Population([pop[i] for i in picked])
    ascending = sorted(picked)
    assert list(pop.select(ascending).ids) == [pop.ids[i] for i in ascending]
    tiers = data.draw(st.lists(st.one_of(st.none(), st.integers(0, 9)), min_size=n, max_size=n))
    tiered = pop.with_tiers(tiers)
    assert tiered.tiers() == tiers
    assert list(tiered.ids) == list(pop.ids)
    assert np.array_equal(tiered.rates, pop.rates)


BAD_VALUES = {
    "rate nan": lambda row, ids: {**row, "rate": "nan"},
    "rate inf": lambda row, ids: {**row, "rate": "inf"},
    "rate zero": lambda row, ids: {**row, "rate": "0.0"},
    "rate negative": lambda row, ids: {**row, "rate": "-1.5"},
    "activity above one": lambda row, ids: {**row, "activity": "1.0000001"},
    "duplicate id": lambda row, ids: {**row, "id": str(ids[0])},
    "id above int64": lambda row, ids: {**row, "id": str(2**63)},
    "id below int64": lambda row, ids: {**row, "id": str(-(2**63) - 1)},
}


@PROPERTY_SETTINGS
@given(users(min_size=2), st.data(), st.sampled_from(sorted(BAD_VALUES)))
def test_bad_row_raises_parse_error_at_its_line(profiles, data, kind):
    n = len(profiles)
    bad_row = data.draw(st.integers(1, n - 1))
    blanks = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    lines = ["id,rate,activity,tier"]
    bad_line = None
    for k, u in enumerate(profiles):
        if blanks[k]:
            lines.append("")
        row = {"id": str(u.id), "rate": repr(u.rate), "activity": repr(u.activity),
               "tier": "" if u.tier is None else str(u.tier)}
        if k == bad_row:
            row = BAD_VALUES[kind](row, [p.id for p in profiles])
            bad_line = len(lines) + 1
        lines.append(",".join(row[c] for c in ("id", "rate", "activity", "tier")))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pop.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        try:
            load_population(path)
        except ParseError as exc:
            assert exc.line == bad_line, (str(exc), bad_line)
            assert str(exc).startswith(f"line {bad_line}: ")
        else:
            raise AssertionError(f"{kind} at line {bad_line} was accepted")


def test_extreme_scales_keep_exact_values():
    tiny, huge = 5e-324, 1.7e308
    pop = Population([UserProfile(0, huge, 1.0), UserProfile(1, tiny, 1.0)])
    assert list(pop.rates) == [tiny, huge]
    assert pop.total_demand == huge
    back, first, second = save_and_load(pop)
    assert back == pop and first == second
