import pytest

from throttleplan import (
    Mode,
    Plan,
    RegretParams,
    UserProfile,
    ValidationError,
    aggregate_regret,
    generate_codec_uniform,
    tiered_aggregate_regret,
    tiered_user_regret,
    user_regret,
)

P2 = RegretParams()


def test_params_defaults():
    assert P2.rho == 2.0
    assert P2.tau == 2.0  # follows rho when unset
    assert P2.kappa == 0.01
    assert RegretParams(rho=3.0).tau == 3.0
    assert RegretParams(rho=3.0, tau=2.0).tau == 2.0


def test_params_validation():
    with pytest.raises(ValidationError):
        RegretParams(rho=0.5)
    with pytest.raises(ValidationError):
        RegretParams(rho=2.0, tau=0.9)
    with pytest.raises(ValidationError):
        RegretParams(kappa=-0.01)
    RegretParams(rho=1.0, tau=1.0, kappa=0.0)  # boundary values are fine


def test_user_regret_download_hand_value():
    u = UserProfile(0, 1.0, 1.0)
    plan = Plan(0.2, 0.4, Mode.DOWNLOAD)
    # (1 - 0.4)^2 * (1 - 0.2)^2
    assert user_regret(u, plan, P2) == pytest.approx(0.2304, rel=1e-12)


def test_user_regret_asymmetric_exponents():
    u = UserProfile(0, 1.0, 1.0)
    plan = Plan(0.4, 0.4, Mode.DOWNLOAD)
    params = RegretParams(rho=2.0, tau=3.0)
    # 0.6^2 * 0.6^3
    assert user_regret(u, plan, params) == pytest.approx(0.07776, rel=1e-12)


def test_user_regret_streaming_hand_values(stream3):
    plan = Plan(3 / 11, 0.4, Mode.STREAMING)
    # rate term is 1 - r/R; time term is 1 - T/d with d = R*x
    assert user_regret(stream3[2], plan, P2) == pytest.approx(9 / 121, rel=1e-12)
    assert user_regret(stream3[1], plan, P2) == pytest.approx(49 / 1936, rel=1e-12)
    # codec rate not above r: the throttle is invisible to this user
    assert user_regret(stream3[0], plan, P2) == 0.0


def test_user_regret_zero_when_not_throttled():
    u = UserProfile(0, 0.5, 1.0)
    assert user_regret(u, Plan.no_throttling(Mode.DOWNLOAD), P2) == 0.0
    # demand exactly at the threshold stays unthrottled (strict inequality)
    assert user_regret(u, Plan(0.5, 0.1, Mode.DOWNLOAD), P2) == 0.0
    # demand at or below the rate never throttles in download mode
    assert user_regret(u, Plan(0.1, 0.5, Mode.DOWNLOAD), P2) == 0.0


def test_aggregate_matches_sum_of_users(pop4, stream3):
    pops = [pop4, stream3, generate_codec_uniform(40, (0.2, 0.5, 1.0), seed=5)]
    plans = [
        Plan(0.2, 0.1, Mode.DOWNLOAD),
        Plan(0.05, 0.3, Mode.DOWNLOAD),
        Plan(0.2, 0.4, Mode.STREAMING),
        Plan(0.0, 0.0, Mode.DOWNLOAD),
        Plan.no_throttling(Mode.STREAMING),
    ]
    for pop in pops:
        for plan in plans:
            expected = sum(user_regret(u, plan, P2) for u in pop)
            assert aggregate_regret(pop, plan, P2) == pytest.approx(expected, abs=1e-14)


def test_aggregate_regret_streaming_winner(stream3):
    plan = Plan(3 / 11, 0.4, Mode.STREAMING)
    assert aggregate_regret(stream3, plan, P2) == pytest.approx(193 / 1936, rel=1e-10)


def test_tiered_user_regret_adds_price():
    u = UserProfile(0, 1.0, 1.0)
    plan = Plan(0.2, 0.4, Mode.DOWNLOAD)
    got = tiered_user_regret(u, plan, 2.0, P2)
    assert got == pytest.approx(0.01 * 2.0 + 0.2304, rel=1e-12)
    # price applies even when unthrottled
    free = tiered_user_regret(u, Plan.no_throttling(Mode.DOWNLOAD), 2.0, P2)
    assert free == pytest.approx(0.02, rel=1e-12)


def test_tiered_user_regret_rejects_negative_price():
    u = UserProfile(0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        tiered_user_regret(u, Plan(0.2, 0.4, Mode.DOWNLOAD), -1.0, P2)


def test_tiered_aggregate_regret(pop4):
    plans = [Plan(0.3, 0.3, Mode.DOWNLOAD), Plan(0.4, 0.4, Mode.DOWNLOAD)]
    members = [(0, 1), (2, 3)]
    prices = [0.5, 1.0]
    expected = (
        tiered_user_regret(pop4[0], plans[0], 0.5, P2)
        + tiered_user_regret(pop4[1], plans[0], 0.5, P2)
        + tiered_user_regret(pop4[2], plans[1], 1.0, P2)
        + tiered_user_regret(pop4[3], plans[1], 1.0, P2)
    )
    got = tiered_aggregate_regret(pop4, members, plans, prices, P2)
    assert got == pytest.approx(expected, rel=1e-12)


def test_tiered_aggregate_regret_validates_partition(pop4):
    plans = [Plan(0.3, 0.3, Mode.DOWNLOAD), Plan(0.4, 0.4, Mode.DOWNLOAD)]
    prices = [0.5, 1.0]
    with pytest.raises(ValidationError):
        tiered_aggregate_regret(pop4, [(0, 1), (1, 2, 3)], plans, prices, P2)
    with pytest.raises(ValidationError):
        tiered_aggregate_regret(pop4, [(0, 1), (3,)], plans, prices, P2)
    with pytest.raises(ValidationError):
        tiered_aggregate_regret(pop4, [(0, 1, 2, 3)], plans, prices, P2)


@pytest.mark.parametrize("field", ["rho", "tau", "kappa"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_params_reject_non_finite_values(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be >= [01] and finite"):
        RegretParams(**{field: value})
