"""The moment-form interval scan against the dense scan it replaced.

``_dense_optimize`` below is the interval scan as it stood before suffix
moments: membership from the vectorized fixed point at every interval
midpoint, and every candidate of every interval scored with the dense
(intervals x users) regret sum.  It is kept here as a test-only reference.
The library must return the same (t, r, regret) bit for bit on random
instances; its event-read membership must equal the fixed point at every
midpoint, and its state at T = 0, read off t_hat, the fixed point at 0; and
its moment-form estimate must lie within its stated error of
the dense regret at every candidate of every interval, not only the winner.
The ladders are ``test_download_rows``' reference single ladders, and the
library's intervals come from its row builder run on one row.
"""

import math

import numpy as np
import pytest

from test_download_rows import _Ladder
from throttleplan import Population, RegretParams, UserProfile, threshold_curve
from throttleplan.download import _moments, _regret_moments, _RowLadders, optimize_demands


def _row_ladder(lad):
    """The library's one-row ladder of a reference ladder's demands and capacity."""
    return _RowLadders.build(lad.ds[None], np.array([lad.capacity]))


def _intervals(lad):
    """The library's interval bounds [a, b) and suffix starts k of one ladder."""
    _, a, b, k = _row_ladder(lad).intervals()
    return a, b, k


def _fixed_point_vec(lad, ts):
    k = np.searchsorted(lad.ds, ts, side="right").astype(np.int64)
    for _ in range(lad.n + 1):
        r = _rate_vec(lad, k, ts)
        k2 = np.searchsorted(lad.ds, np.maximum(ts, r), side="right").astype(np.int64)
        if np.array_equal(k2, k):
            break
        k = k2
    return k, r


def _rate_vec(lad, k, ts):
    h = lad.n - k
    denom = h - ts * lad.suf_inv[k]
    safe = (denom > 1e-12) & (h > 0)
    r = np.where(
        safe,
        (lad.capacity - lad.prefix[k] - h * ts) / np.where(safe, denom, 1.0),
        0.0,
    )
    return np.clip(r, 0.0, None)


def _regret_vec(lad, k, ts, rs, rho):
    out = np.empty(ts.size)
    cols = np.arange(lad.n)
    chunk = max(1, int(5_000_000 // max(lad.n, 1)))
    for s in range(0, ts.size, chunk):
        e = min(s + chunk, ts.size)
        mask = cols[None, :] >= k[s:e, None]
        term = np.clip(1.0 - rs[s:e, None] / lad.ds[None, :], 0.0, None)
        term *= np.clip(1.0 - ts[s:e, None] / lad.ds[None, :], 0.0, None)
        out[s:e] = np.sum(np.where(mask, term**rho, 0.0), axis=1)
    return out


def _kick_thresholds(lad):
    ds, n = lad.ds, lad.n
    k = np.searchsorted(ds, ds, side="right")
    h = n - k
    denom = h - ds * lad.suf_inv[k]
    good = (k < n) & (np.abs(denom) > 1e-12)
    t_in = np.where(good, (lad.capacity - lad.prefix[k] - ds * h) / np.where(good, denom, 1.0), -1.0)
    good &= (t_in >= 0.0) & (t_in < np.minimum(lad.t_hat, ds))
    _, r0 = _fixed_point_vec(lad, np.zeros(1))
    out = (ds < lad.t_hat) & (good | (ds > r0[0]))
    return t_in[good], ds[out]


def _dense_optimize(lad, rho):
    """(t, r, regret) of the dense interval scan."""
    if lad.t_hat <= 0:
        zero = np.zeros(1)
        return 0.0, 0.0, float(_regret_vec(lad, zero.astype(np.int64), zero, zero, rho)[0])
    t_in, t_out = _kick_thresholds(lad)
    bounds = np.unique(np.concatenate(([0.0], t_in, t_out, [lad.t_hat])))
    a, b = bounds[:-1], bounds[1:]
    k, _ = _fixed_point_vec(lad, 0.5 * (a + b))
    live = lad.n - k > 0
    a, b, k = a[live], b[live], k[live]
    h = (lad.n - k).astype(float)

    spare = lad.capacity - lad.prefix[k]
    s_inv = lad.suf_inv[k]
    disc = h * h - spare * s_inv
    t_loc = (h - np.sqrt(np.clip(disc, 0.0, None))) / s_inv
    interior = (disc >= 0.0) & (a <= t_loc) & (t_loc < b)

    def eval_at(ts):
        rs = _rate_vec(lad, k, ts)
        return rs, _regret_vec(lad, k, ts, rs, rho)

    r_loc, reg_loc = eval_at(np.where(interior, t_loc, a))
    reg_loc = np.where(interior, reg_loc, math.inf)
    r_a, reg_a = eval_at(a)
    r_b, reg_b = eval_at(b)

    tol = 1e-12
    floor = np.minimum(reg_loc, np.minimum(reg_a, reg_b))
    band = floor + tol * (1.0 + np.abs(floor))
    pick_loc = interior & (reg_loc <= band)
    pick_a = ~pick_loc & (reg_a <= band)
    t_best = np.where(pick_loc, t_loc, np.where(pick_a, a, b))
    r_best = np.where(pick_loc, r_loc, np.where(pick_a, r_a, r_b))
    reg_best = np.where(pick_loc, reg_loc, np.where(pick_a, reg_a, reg_b))

    best = float(reg_best.min())
    tied = reg_best <= best + tol * (1.0 + abs(best))
    rooted = tied & pick_loc
    i = int(np.argmax(rooted)) if rooted.any() else int(np.argmax(tied))
    return float(t_best[i]), float(r_best[i]), float(reg_best[i])


def _random_instance(rng):
    """(demands, capacity) with ties, rounding, and scales from 1e-6 to 1e6."""
    n = int(rng.integers(1, 401)) if rng.random() < 0.7 else int(rng.integers(1, 13))
    shape = rng.integers(4)
    if shape == 0:
        demands = rng.lognormal(0.0, rng.uniform(0.1, 1.2), n)
    elif shape == 1:  # a few repeated values, as from a codec ladder
        demands = rng.choice(rng.uniform(0.1, 2.0, int(rng.integers(1, 6))), n)
    elif shape == 2:  # rounded to 0.1, so many ties
        demands = np.maximum(np.round(rng.uniform(0.05, 3.0, n), 1), 0.1)
    else:
        demands = rng.uniform(0.01, 1.0, n)
    demands = demands * 10.0 ** rng.integers(-6, 7)
    fraction = rng.uniform(0.05, 0.999)
    return demands, fraction * float(demands.sum())


def _candidates(lad):
    """(k, ts, rs, interior) of the (root, a, b) candidates of every live interval."""
    a, b, k = _intervals(lad)
    live = lad.n - k > 0
    a, b, k = a[live], b[live], k[live]
    h = (lad.n - k).astype(float)
    spare = lad.capacity - lad.prefix[k]
    s_inv = lad.suf_inv[k]
    disc = h * h - spare * s_inv
    t_loc = (h - np.sqrt(np.clip(disc, 0.0, None))) / s_inv
    interior = (disc >= 0.0) & (a <= t_loc) & (t_loc < b)
    ts = np.concatenate((np.where(interior, t_loc, a), a, b))
    ks = np.concatenate((k, k, k))
    return ks, ts, _rate_vec(lad, ks, ts), interior


@pytest.mark.parametrize("block", range(6))
def test_moment_scan_matches_dense_scan(block):
    rng = np.random.default_rng(20260 + block)
    for _ in range(250):
        demands, capacity = _random_instance(rng)
        rho = float(rng.choice([2.0, 3.0, 4.0, 2.5]))
        got = optimize_demands(demands, capacity, rho)
        if capacity < float(demands.sum()):
            want = _dense_optimize(_Ladder(demands, capacity), rho)
        else:
            want = (math.inf, math.inf, 0.0)
        assert got == want, (demands.tolist(), capacity, rho)


def test_event_membership_equals_fixed_point():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(1200):
        demands, capacity = _random_instance(rng)
        lad = _Ladder(demands, capacity)
        if lad.t_hat <= 0:
            continue
        a, b, k = _intervals(lad)
        want, _ = _fixed_point_vec(lad, 0.5 * (a + b))
        assert np.array_equal(k, want), (demands.tolist(), capacity)
        checked += k.size
        _assert_zero_state_is_t_hat(lad)
    assert checked > 20_000


def _assert_zero_state_is_t_hat(lad):
    """The events start from (#ds <= t_hat, t_hat), the fixed point at T = 0."""
    k0, r0 = _fixed_point_vec(lad, np.zeros(1))
    assert (int(k0[0]), float(r0[0]).hex()) == (
        int(_row_ladder(lad).kicks()[3][0]), float(lad.t_hat).hex())


@pytest.mark.parametrize(
    "demands, capacity",
    [
        # t_hat lands exactly on a demand, which stays unthrottled at T = 0
        ([1.0, 2.0, 3.0], 5.0),
        ([0.5, 0.5, 1.0, 1.0, 2.0], 4.0),
        ([0.25, 1.0, 1.0, 1.0, 4.0], 4.25),
    ],
)
def test_zero_state_with_t_hat_on_a_demand(demands, capacity):
    lad = _Ladder(np.array(demands), capacity)
    assert lad.t_hat in lad.ds
    _assert_zero_state_is_t_hat(lad)
    a, b, k = _intervals(lad)
    want, _ = _fixed_point_vec(lad, 0.5 * (a + b))
    assert np.array_equal(k, want)


def test_moment_estimates_bound_every_candidate():
    rng = np.random.default_rng(11)
    for _ in range(300):
        demands, capacity = _random_instance(rng)
        lad = _Ladder(demands, capacity)
        if lad.t_hat <= 0:
            continue
        rho = int(rng.choice([2, 3, 4]))
        ks, ts, rs, _ = _candidates(lad)
        est, err = _regret_moments(lad.ds[None], np.zeros_like(ks), ks, ts, rs, rho)
        dense = _regret_vec(lad, ks, ts, rs, float(rho))
        assert np.all(np.abs(est - dense) <= err), (demands.tolist(), capacity, rho)
        # the bound is informative: most candidates never need the dense sum
        assert np.mean(np.isfinite(err)) > 0.5


def test_moment_bound_gives_up_where_the_dense_form_clips():
    # T = 1.5 passes the smaller member's demand: the dense term clips to 0,
    # the polynomial does not, so the estimate carries no finite bound
    lad = _Ladder(np.array([1.0, 2.0]), 2.5)
    k, ts, rs = np.array([0, 0]), np.array([1.5, 0.5]), np.array([0.0, 0.5])
    est, err = _regret_moments(lad.ds[None], np.zeros_like(k), k, ts, rs, 2)
    dense = _regret_vec(lad, k, ts, rs, 2.0)
    assert abs(est[0] - dense[0]) > 0.01 and err[0] == math.inf
    assert abs(est[1] - dense[1]) <= err[1] < math.inf


def test_moment_table_is_the_suffix_sum_of_powers():
    ds = np.array([0.25, 0.5, 2.0, 4.0, 5.0])
    table = _moments(ds[None], 4)
    for m in range(5):
        for k in range(6):
            assert table[m, 0, 5 - k] == pytest.approx(float(np.sum(ds[k:] ** -m)), rel=1e-15)


def test_curve_rates_equal_the_fixed_point():
    """Away from full demand the curve's bisected suffixes give the fixed point's rates, bit for bit."""
    rng = np.random.default_rng(13)
    for _ in range(200):
        demands, capacity = _random_instance(rng)
        pop = Population([UserProfile(i, float(d), 1.0) for i, d in enumerate(demands)])
        if capacity >= float(np.sort(demands).cumsum()[-1]):
            continue
        curve = threshold_curve(pop, capacity, RegretParams(), step=float(demands.max()) / 37)
        lad = _Ladder(pop.demands, capacity)
        _, want = _fixed_point_vec(lad, curve[:, 0])
        assert curve[:, 1].tobytes() == want.tobytes(), (demands.tolist(), capacity)
