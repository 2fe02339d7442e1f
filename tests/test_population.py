import math

import numpy as np
import pytest

from throttleplan import (
    DEFAULT_SEED,
    ParseError,
    Population,
    UserProfile,
    ValidationError,
    assign_tiers_binomial,
    generate_codec_uniform,
    generate_lognormal,
    load_population,
    save_population,
)


def test_profile_rejects_bad_fields():
    with pytest.raises(ValidationError):
        UserProfile(0, 0.0, 0.5)
    with pytest.raises(ValidationError):
        UserProfile(0, -1.0, 0.5)
    with pytest.raises(ValidationError):
        UserProfile(0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        UserProfile(0, 1.0, 1.2)
    with pytest.raises(ValidationError):
        UserProfile(0, 1.0, 0.5, tier=-1)


def test_profile_demand():
    u = UserProfile(7, 2.5, 0.4)
    assert u.demand == pytest.approx(1.0)
    assert u.tier is None


def test_population_sorts_by_rate_and_keeps_ids():
    pop = Population(
        [UserProfile(10, 0.9, 1.0), UserProfile(11, 0.2, 0.5), UserProfile(12, 0.5, 1.0)]
    )
    assert [u.id for u in pop] == [11, 12, 10]
    assert list(pop.rates) == [0.2, 0.5, 0.9]
    assert pop.total_demand == pytest.approx(0.2 * 0.5 + 0.5 + 0.9)


def test_population_sort_is_stable_for_equal_rates():
    pop = Population(
        [UserProfile(3, 0.5, 0.1), UserProfile(1, 0.5, 0.2), UserProfile(2, 0.5, 0.3)]
    )
    assert [u.id for u in pop] == [3, 1, 2]


def test_population_rejects_empty_and_duplicate_ids():
    with pytest.raises(ValidationError):
        Population([])
    with pytest.raises(ValidationError):
        Population([UserProfile(0, 1.0, 1.0), UserProfile(0, 2.0, 1.0)])


def test_select_keeps_order_and_subsets(pop4):
    sub = pop4.select([0, 2])
    assert [u.id for u in sub] == [0, 2]
    assert list(sub.rates) == [0.3, 0.5]


def test_csv_round_trip(tmp_path):
    pop = Population(
        [
            UserProfile(0, 0.1 + 0.2, 1.0, tier=None),
            UserProfile(1, 1.0 / 3.0, 0.25, tier=2),
        ]
    )
    path = tmp_path / "pop.csv"
    save_population(pop, path)
    text = path.read_text()
    assert text.splitlines()[0] == "id,rate,activity,tier"
    back = load_population(path)
    assert len(back) == 2
    for a, b in zip(pop, back):
        assert a.id == b.id
        assert a.rate == b.rate  # repr floats survive exactly
        assert a.activity == b.activity
        assert a.tier == b.tier


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text("id,rate,act\n0,1.0,0.5\n")
    with pytest.raises(ParseError):
        load_population(path)


def test_load_reports_line_number(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text("id,rate,activity,tier\n0,1.0,0.5,\n1,zero,0.5,\n")
    with pytest.raises(ParseError) as exc:
        load_population(path)
    assert "line 3" in str(exc.value)


def test_generate_lognormal_is_deterministic():
    a = generate_lognormal(50, 0.0, 0.5, seed=7)
    b = generate_lognormal(50, 0.0, 0.5, seed=7)
    c = generate_lognormal(50, 0.0, 0.5, seed=8)
    assert list(a.rates) == list(b.rates)
    assert list(a.rates) != list(c.rates)
    assert all(u.activity == 1.0 for u in a)


def test_generate_lognormal_scale():
    # mean of lognormal(1, 0.25) is exp(1 + 0.25^2/2) ~ 2.8045; n=1000 draws
    # should land within a few percent of n times that.
    pop = generate_lognormal(1000, 1.0, 0.25, seed=DEFAULT_SEED)
    expected = 1000 * math.exp(1.0 + 0.25**2 / 2)
    assert abs(pop.total_demand - expected) / expected < 0.03


def test_generate_codec_uniform_draws_from_grids():
    rates = (0.2, 0.4, 0.6, 0.8, 1.0)
    pop = generate_codec_uniform(200, rates, seed=3)
    grid = {round(0.01 * k, 2) for k in range(1, 101)}
    for u in pop:
        assert u.rate in rates
        assert round(u.activity, 2) in grid
        assert u.activity > 0.0


def test_generate_codec_uniform_custom_activity_grid():
    pop = generate_codec_uniform(50, (0.5,), activity_grid=(0.25, 0.75), seed=1)
    assert {u.activity for u in pop} <= {0.25, 0.75}


def test_assign_tiers_binomial_three_tiers():
    pop = generate_lognormal(1000, 0.0, 0.5, seed=1)
    tiered = assign_tiers_binomial(pop, seed=1)
    tiers = np.asarray(tiered.tiers())
    assert set(np.unique(tiers)) <= {0, 1, 2}
    again = assign_tiers_binomial(pop, seed=1)
    assert list(again.tiers()) == list(tiered.tiers())
    # low-rate users should skew toward tier 0 and high-rate toward tier 2
    third = len(pop) // 3
    assert tiers[:third].mean() < tiers[-third:].mean()


def test_assign_tiers_binomial_rejects_other_counts():
    pop = generate_lognormal(10, 0.0, 0.5, seed=1)
    with pytest.raises(ValidationError):
        assign_tiers_binomial(pop, n_tiers=2, seed=1)


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
def test_profile_rejects_non_finite_rate(rate):
    with pytest.raises(ValidationError, match="rate must be positive and finite"):
        UserProfile(0, rate, 0.5)


def test_population_columns_are_read_only_and_views_are_python_values():
    pop = Population([UserProfile(5, 0.5, 0.25, tier=1), UserProfile(4, 0.25, 1.0)])
    assert list(pop.ids) == [4, 5]
    assert list(pop.demands) == [0.25, 0.125]
    with pytest.raises(ValueError):
        pop.rates[0] = 1.0
    user = pop[1]
    assert user == UserProfile(5, 0.5, 0.25, tier=1)
    assert type(user.id) is int and type(user.rate) is float and type(user.tier) is int
    assert repr(user.rate) == "0.5"
    assert list(pop) == [pop[0], pop[1]]


def test_population_equality_compares_every_column():
    a = Population([UserProfile(0, 0.5, 1.0), UserProfile(1, 0.7, 1.0)])
    assert a == Population([UserProfile(1, 0.7, 1.0), UserProfile(0, 0.5, 1.0)])
    assert a != Population([UserProfile(0, 0.5, 1.0), UserProfile(2, 0.7, 1.0)])
    assert a != a.with_tiers([0, None])
    assert a != Population([UserProfile(0, 0.5, 1.0), UserProfile(1, 0.7, 0.5)])


def test_with_tiers_rejects_negative_tier():
    pop = Population([UserProfile(0, 0.5, 1.0), UserProfile(1, 0.7, 1.0)])
    with pytest.raises(ValidationError, match="user 1: tier must be >= 0, got -1"):
        pop.with_tiers([0, -1])


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,nan,0.5,", "user 1: rate must be positive and finite, got nan"),
        ("1,inf,0.5,", "user 1: rate must be positive and finite, got inf"),
        ("1,0,0.5,", "user 1: rate must be positive and finite, got 0.0"),
        ("1,1.0,1.5,", "user 1: activity must be in (0, 1], got 1.5"),
        ("1,1.0,nan,", "user 1: activity must be in (0, 1], got nan"),
        ("1,1.0,0.5,-1", "user 1: tier must be >= 0, got -1"),
        ("0,1.0,0.5,", "duplicate user id 0"),
        ("9223372036854775808,1.0,0.5,", "id 9223372036854775808 does not fit in int64"),
        ("1,1.0,0.5,9223372036854775808", "tier 9223372036854775808 does not fit in int64"),
    ],
)
def test_load_reports_bad_value_with_line_number(tmp_path, row, message):
    # a blank line before the bad row moves it from line 3 to line 4
    path = tmp_path / "pop.csv"
    path.write_text(f"id,rate,activity,tier\n0,2.0,0.5,\n\n{row}\n2,3.0,0.5,\n")
    with pytest.raises(ParseError) as exc:
        load_population(path)
    assert str(exc.value) == f"line 4: {message}"
    assert exc.value.line == 4


def test_load_rejects_file_without_rows(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text("id,rate,activity,tier\n")
    with pytest.raises(ParseError, match="line 2: population must contain at least one user"):
        load_population(path)


@pytest.mark.parametrize("mu, sigma", [(math.nan, 0.5), (math.inf, 0.5), (0.0, math.nan),
                                       (0.0, math.inf)])
def test_generate_lognormal_rejects_non_finite_parameters(mu, sigma):
    with pytest.raises(ValidationError, match="mu must be finite" if sigma == 0.5 else "sigma"):
        generate_lognormal(3, mu, sigma)


def test_generated_rates_that_overflow_are_rejected():
    with pytest.raises(ValidationError, match="rate must be positive and finite, got inf"):
        generate_lognormal(3, 1000.0, 0.5)
