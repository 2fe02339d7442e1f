"""The row-batched interval scan against the single solve.

``_optimize_rows`` solves many small demand sets at once, for the two-tier
enumeration's subset table.  Every row must give exactly what
``optimize_demands`` gives for that row alone: the same (t, r, regret), bit
for bit, signs of zeros included.  The draws cover tied demands (codec rates
times percent activities), lognormal demands over many scales, capacities of
0, inside (0, row sum), at the row sum and above it, and batches that cross
the scan's row chunks, under the default budget and under budgets shrunk to
a few rows a chunk.  The row ladders, their fixed points at T = 0 and
their interval bounds with suffix starts must equal each single ladder's,
since a user exactly at a kick threshold consumes and regrets the same in
or out of the suffix: a wrong count there can hide in the rounding of the
final pick.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from throttleplan import download
from throttleplan.download import (
    _intervals,
    _Ladder,
    _optimize_rows,
    _RowLadders,
    optimize_demands,
)

CODEC_RATES = np.array([0.2, 0.4, 0.8, 1.5, 3.0])
RHOS = st.sampled_from([2.0, 3.0, 2.5])


def _tied_rows(rng, m, s):
    """Codec rates times percent activities: many equal demands."""
    return rng.choice(CODEC_RATES, (m, s)) * (rng.integers(1, 101, (m, s)) / 100)


def _lognormal_rows(rng, m, s):
    return rng.lognormal(0.0, rng.uniform(0.1, 1.2), (m, s)) * 10.0 ** rng.integers(-6, 7)


def _capacities(rng, rows):
    """Per row: 0, a fraction of the row sum, the row sum itself, or more."""
    sums = np.array([float(row.sum()) for row in rows])
    kind = rng.integers(4, size=sums.size)
    inside = sums * rng.uniform(0.05, 0.999, sums.size)
    return np.select([kind == 0, kind == 1, kind == 2], [0.0, inside, sums], sums * 1.5)


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
    rows, caps = batch
    below = np.array([cap < float(row.sum()) for row, cap in zip(rows, caps)], dtype=bool)
    rows, caps = rows[below], caps[below]
    ladders = _RowLadders.build(rows, caps)
    singles = [_Ladder(row, float(cap)) for row, cap in zip(rows, caps)]
    for i, one in enumerate(singles):
        for name in ("ds", "prefix", "suf_inv"):
            assert getattr(ladders, name)[i].tobytes() == getattr(one, name).tobytes(), name
        assert _bits([ladders.t_hat[i]]) == _bits([one.t_hat])
    live = np.flatnonzero(ladders.t_hat > 0)
    ladders = ladders.take(live)
    k0, r0 = ladders.fixed_points_at_zero()
    row, a, b, k = ladders.intervals()
    for j, i in enumerate(live):
        want_k0, want_r0 = singles[i].fixed_point_at_zero()
        assert int(k0[j]) == want_k0 and _bits([r0[j]]) == _bits([want_r0])
        want_a, want_b, want_k = _intervals(singles[i])
        mine = row == j
        assert a[mine].tobytes() == want_a.tobytes(), (rows[i].tolist(), float(caps[i]))
        assert b[mine].tobytes() == want_b.tobytes(), (rows[i].tolist(), float(caps[i]))
        assert k[mine].tolist() == want_k.tolist(), (rows[i].tolist(), float(caps[i]))


def test_rows_across_the_default_chunk_boundary():
    s = 20
    chunk = download._CHUNK_TERMS // (3 * (2 * s + 1) * s)
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
