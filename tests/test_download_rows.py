"""The row-batched interval scan, its one interval builder, and reference single ladders.

``_optimize_rows`` solves many demand sets at once, for the two-tier
enumeration's subset table and the Stackelberg deviation tables, and a
single solve is its one-row case.  Every row must give exactly what its own
one-row batch gives: the same (t, r, regret), bit for bit, signs of zeros
included.  The draws cover tied demands (codec rates times percent
activities), lognormal demands over many scales, capacities of 0, inside
(0, row sum), one ulp below the row sum, at it and above it, and batches
that cross the scan's row chunks, under the default budget and under
budgets shrunk to a few rows a chunk.  Small rows are scored densely; rows
of 50-250 members, one shared base plus one extra demand each as the
Stackelberg loop builds them, go through the moment filter, which must pick
what the dense scan picks with every candidate scored, whichever of the two
the dense-terms rule selects.

``_Ladder``, ``_kick_thresholds`` and ``_intervals`` below are the single
scan's ladder, kick thresholds and interval bounds, kept here as the
reference: one row at a time, the bounds merged by ``np.unique`` and the
suffix starts read by ``searchsorted``.  The row ladders, their moment
tables and the flat builder's bounds with suffix starts must equal them bit
for bit, since a user exactly at a kick threshold consumes and regrets the
same in or out of the suffix: a wrong count there can hide in the rounding
of the final pick.
"""
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from throttleplan import Population, UserProfile, kick_points
from throttleplan import download
from throttleplan.allocation import _zero_rate_bound
from throttleplan.download import (
    _kick_masks,
    _moments,
    _optimize_rows,
    _RowLadders,
    optimize_demands,
)


class _Ladder:
    """Sorted demands of one row with the prefix/suffix sums every formula needs."""

    def __init__(self, demands, capacity):
        self.order = np.argsort(demands, kind="stable")
        self.ds = demands[self.order]
        self.n = self.ds.size
        self.capacity = capacity
        self.prefix = np.concatenate(([0.0], np.cumsum(self.ds)))
        inv = 1.0 / self.ds
        self.suf_inv = np.concatenate((np.cumsum(inv[::-1])[::-1], [0.0]))
        self.t_hat = _zero_rate_bound(self.ds, self.prefix, capacity)


def _kick_thresholds(lad):
    """Membership-change thresholds in [0, t_hat) as (t_in, who_in, t_out, who_out, k0).

    k0 is the suffix start of the throttled set at T = 0: the demands above
    r = t_hat.
    """
    ds = lad.ds
    k = np.searchsorted(ds, ds, side="right")
    t_in, good, out = _kick_masks(ds, k, lad.prefix[k], lad.suf_inv[k], lad.capacity, lad.t_hat)
    idx = np.arange(lad.n)
    k0 = int(np.searchsorted(ds, lad.t_hat, side="right"))
    return t_in[good], idx[good], ds[out], idx[out], k0


def _intervals(lad):
    """Constant-membership intervals [a, b) covering [0, t_hat), with suffix starts k."""
    t_in, _, t_out, _, k0 = _kick_thresholds(lad)
    bounds = np.unique(np.concatenate(([0.0], t_in, t_out, [lad.t_hat])))
    a, b = bounds[:-1], bounds[1:]
    # every kick-in at or before a has joined the suffix, every kick-out left it
    k = (
        k0
        - np.searchsorted(np.sort(t_in), a, side="right")
        + np.searchsorted(t_out, a, side="right")
    )
    return a, b, k


CODEC_RATES = np.array([0.2, 0.4, 0.8, 1.5, 3.0])
RHOS = st.sampled_from([2.0, 3.0, 2.5])


def _tied_rows(rng, m, s):
    """Codec rates times percent activities: many equal demands."""
    return rng.choice(CODEC_RATES, (m, s)) * (rng.integers(1, 101, (m, s)) / 100)


def _lognormal_rows(rng, m, s):
    return rng.lognormal(0.0, rng.uniform(0.1, 1.2), (m, s)) * 10.0 ** rng.integers(-6, 7)


def _capacities(rng, rows):
    """Per row: 0, a fraction of the row sum, one ulp below it, the sum itself, or more."""
    sums = np.array([float(row.sum()) for row in rows])
    kind = rng.integers(5, size=sums.size)
    inside = sums * rng.uniform(0.05, 0.999, sums.size)
    return np.select(
        [kind == 0, kind == 1, kind == 2, kind == 3],
        [0.0, inside, np.nextafter(sums, 0), sums], sums * 1.5,
    )


def _bits(values):
    return tuple(float(v).hex() for v in values)


def _assert_rows_match(rows, caps, rho):
    t, r, reg = _optimize_rows(rows, caps, rho)
    for i, row in enumerate(rows):
        want = optimize_demands(row, float(caps[i]), rho)
        assert _bits((t[i], r[i], reg[i])) == _bits(want), (row.tolist(), float(caps[i]), rho)


@st.composite
def batches(draw):
    s = draw(st.integers(1, 20))
    m = draw(st.one_of(st.integers(1, 8), st.integers(1, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    make = draw(st.sampled_from([_tied_rows, _lognormal_rows]))
    rows = make(rng, m, s)
    return rows, _capacities(rng, rows)


@settings(max_examples=120, deadline=None)
@given(batch=batches(), rho=RHOS, budget=st.sampled_from([None, 1, 2000, 20_000]))
def test_every_row_matches_the_single_solve(batch, rho, budget):
    rows, caps = batch
    terms = download._CHUNK_TERMS if budget is None else budget
    with mock.patch.object(download, "_CHUNK_TERMS", terms):
        _assert_rows_match(rows, caps, rho)


@settings(max_examples=120, deadline=None)
@given(batch=batches())
def test_row_ladders_and_intervals_match_the_single_ladder(batch):
    _assert_ladders_match(*batch)


def test_row_ladders_with_t_hat_on_a_demand():
    # sum min(d, t) meets each capacity at t = a demand, which stays unthrottled at T = 0
    rows = np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [0.5, 1.0, 2.0]])
    caps = np.array([5.0, 5.0, 2.5])
    assert [_Ladder(row, cap).t_hat for row, cap in zip(rows, caps)] == [2.0, 2.0, 1.0]
    _assert_ladders_match(rows, caps)
    _assert_rows_match(rows, caps, 2.0)


def _assert_ladders_match(rows, caps):
    below = np.array([cap < float(row.sum()) for row, cap in zip(rows, caps)], dtype=bool)
    rows, caps = rows[below], caps[below]
    ladders = _RowLadders.build(rows, caps)
    singles = [_Ladder(row, float(cap)) for row, cap in zip(rows, caps)]
    for i, one in enumerate(singles):
        for name in ("ds", "prefix", "suf_inv"):
            assert getattr(ladders, name)[i].tobytes() == getattr(one, name).tobytes(), name
        assert _bits([ladders.t_hat[i]]) == _bits([one.t_hat])
        assert _moments(ladders.ds, 4)[:, i].tobytes() == _moments(one.ds[None], 4)[:, 0].tobytes()
    live = np.flatnonzero(ladders.t_hat > 0)
    ladders = ladders.take(live)
    row, a, b, k = ladders.intervals()
    for j, i in enumerate(live):
        want_a, want_b, want_k = _intervals(singles[i])
        mine = row == j
        assert a[mine].tobytes() == want_a.tobytes(), (rows[i].tolist(), float(caps[i]))
        assert b[mine].tobytes() == want_b.tobytes(), (rows[i].tolist(), float(caps[i]))
        assert k[mine].tolist() == want_k.tolist(), (rows[i].tolist(), float(caps[i]))


@st.composite
def joined_rows(draw):
    """One shared base of s - 1 demands plus one extra demand a row, at a random member position.

    Capacities lie mostly inside the row sums, else one ulp below them.
    """
    s = draw(st.integers(50, 250))
    m = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    make = draw(st.sampled_from([_tied_rows, _lognormal_rows]))
    pool = make(rng, 1, s - 1 + m)[0]
    base, extra = pool[: s - 1], pool[s - 1 :]
    rows = np.array([np.insert(base, rng.integers(s), d) for d in extra])
    sums = np.array([float(row.sum()) for row in rows])
    # mostly inside the row sum, where the scan runs, else one ulp below it
    inside = rng.random(m) < 0.8
    return rows, np.where(inside, sums * rng.uniform(0.05, 0.999, m), np.nextafter(sums, 0))


@settings(max_examples=150, deadline=None)
@given(
    batch=joined_rows(), rho=st.sampled_from([2.0, 3.0]),
    dense_terms=st.sampled_from([0, 10**12]), budget=st.sampled_from([None, 20_000]),
)
def test_large_rows_match_the_dense_single_solve(batch, rho, dense_terms, budget):
    rows, caps = batch
    with mock.patch.object(download, "_DENSE_TERMS", 10**12):
        want = [_bits(optimize_demands(row, float(cap), rho)) for row, cap in zip(rows, caps)]
    terms = download._CHUNK_TERMS if budget is None else budget
    with mock.patch.object(download, "_DENSE_TERMS", dense_terms), \
            mock.patch.object(download, "_CHUNK_TERMS", terms):
        t, r, reg = _optimize_rows(rows, caps, rho)
        singles = [_bits(optimize_demands(row, float(cap), rho)) for row, cap in zip(rows, caps)]
    assert singles == want
    for i, row in enumerate(rows):
        assert _bits((t[i], r[i], reg[i])) == want[i], (row.tolist(), float(caps[i]), rho)


def test_rows_across_the_default_chunk_boundary():
    s = 20
    # 2 s + 1 intervals of three candidates a row, 2 rho + 1 = 5 moment terms each
    chunk = download._CHUNK_TERMS // (3 * (2 * s + 1) * 5)
    rng = np.random.default_rng(5)
    rows = np.concatenate((_tied_rows(rng, chunk + 40, s), _lognormal_rows(rng, chunk + 40, s)))
    _assert_rows_match(rows, _capacities(rng, rows), 2.0)


def test_zero_capacity_throttles_everyone_at_zero():
    rows = np.array([[0.5, 1.0, 1.0], [2.0, 0.25, 3.0]])
    t, r, reg = _optimize_rows(rows, np.zeros(2), 2.0)
    assert t.tolist() == r.tolist() == [0.0, 0.0]
    assert reg.tolist() == [3.0, 3.0]


def test_covered_and_empty_rows():
    rows = np.array([[0.5, 1.0], [2.0, 0.25]])
    t, r, reg = _optimize_rows(rows, np.array([1.5, 9.0]), 2.0)
    assert t.tolist() == r.tolist() == [np.inf, np.inf]
    assert reg.tolist() == [0.0, 0.0]
    t, r, reg = _optimize_rows(np.empty((3, 0)), np.zeros(3), 2.0)
    assert t.tolist() == [np.inf] * 3 and reg.tolist() == [0.0] * 3


def test_mixed_batch_matches_the_reference_and_one_row_batches():
    """One row of each kind in a batch: every row as the reference reads it and as it plans alone."""
    s = 4000
    rng = np.random.default_rng(3)
    no_kicks = np.full(s, 0.5)
    zero_rate = _lognormal_rows(rng, 1, s)[0]
    # one ulp below these sums, rounding puts t_hat past the largest demand
    covered = np.tile([0.168, 0.228, 0.27, 0.421, 0.423, 0.747, 0.849, 0.976], s // 8)
    tied = _tied_rows(rng, 1, s)[0]
    filtered = rng.lognormal(0.0, 0.5, s)
    rows = np.array([no_kicks, zero_rate, covered, tied, filtered])
    caps = np.array([0.5 * no_kicks.sum(), 0.0, np.nextafter(covered.sum(), 0),
                     0.6 * tied.sum(), 0.8 * filtered.sum()])
    singles = [_Ladder(row, float(cap)) for row, cap in zip(rows, caps)]
    assert _kick_thresholds(singles[0])[0].size == _kick_thresholds(singles[0])[2].size == 0
    assert singles[1].t_hat <= 0
    assert singles[2].t_hat >= singles[2].ds[-1]
    assert np.unique(tied).size < s // 10
    assert 3 * _intervals(singles[4])[0].size * s > download._DENSE_TERMS
    _assert_ladders_match(rows, caps)
    t, r, reg = _optimize_rows(rows, caps, 2.0)
    for i in range(rows.shape[0]):
        alone = _optimize_rows(rows[i : i + 1], caps[i : i + 1], 2.0)
        assert _bits((t[i], r[i], reg[i])) == _bits(v[0] for v in alone), i
    assert (t[1], r[1], reg[1]) == (0.0, 0.0, float(s))
    assert (t[2], r[2], reg[2]) == (np.inf, np.inf, 0.0)


@settings(max_examples=60, deadline=None)
@given(batch=batches())
def test_kick_points_match_the_reference_thresholds(batch):
    for row, cap in zip(*batch):
        pop = Population([UserProfile(i, float(d), 1.0) for i, d in enumerate(row)])
        if not 0.0 <= cap < pop.total_demand or cap >= float(row.sum()):
            continue
        lad = _Ladder(pop.demands, float(cap))
        t_in, who_in, t_out, who_out, _ = _kick_thresholds(lad)
        want = sorted([(float(t), 0, int(i)) for t, i in zip(t_in, who_in)]
                      + [(float(t), 1, int(i)) for t, i in zip(t_out, who_out)])
        got = [(e.threshold, e.kind.value, e.user) for e in kick_points(pop, float(cap))]
        assert got == [(t, kind, int(lad.order[i])) for t, kind, i in want]
