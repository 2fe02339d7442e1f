"""The blocked, in-place dense regret kernel against the plain array form.

``download._dense_regrets`` scores candidates in cache-sized blocks through
buffers written in place.  Every value must equal, bit for bit, the plain
form kept here as the reference: clip the two factors, multiply, raise to
rho, zero the columns before the suffix with ``np.where`` and sum each full
row.  The draws cover one shared demand row and gathered rows, rows of one
member, suffix starts of 0 and of s, thresholds and rates past a member's
demand (clipped factors), exponents 2, 3, 4 and 2.5, and block sizes patched
down to a few terms, so blocks end inside the candidates and a row longer
than a block gets a block of its own.
"""
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from throttleplan import download
from throttleplan.download import _dense_regrets

RHOS = st.sampled_from([2.0, 3.0, 4.0, 2.5])
BLOCKS = st.sampled_from([1, 2, 3, 7, 16, 64, download._BLOCK_TERMS])


def _reference(ds, row, k, ts, rs, rho):
    """The unblocked kernel: fresh arrays for every step, one pass."""
    m, s = ds.shape
    mine = ds if m == 1 else ds[row]
    mask = np.arange(s) >= k[:, None]
    term = np.clip(1.0 - rs[:, None] / mine, 0.0, None)
    term *= np.clip(1.0 - ts[:, None] / mine, 0.0, None)
    return np.sum(np.where(mask, term**rho, 0.0), axis=1)


@st.composite
def candidates(draw):
    """(ds, row, k, ts, rs): sorted demand rows and candidates over them."""
    s = draw(st.one_of(st.integers(1, 3), st.integers(1, 150)))
    m = draw(st.sampled_from([1, 1, 2, 9]))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ds = np.sort(rng.lognormal(0.0, rng.uniform(0.1, 1.5), (m, s)), axis=1)
    ds *= 10.0 ** rng.integers(-6, 7)
    if draw(st.booleans()):
        ds = np.sort(rng.choice(ds.ravel(), (m, s)), axis=1)  # tied demands
    row = rng.integers(0, m, n)
    # suffix starts from 0 to s, both ends always present
    k = rng.integers(0, s + 1, n)
    k[0], k[-1] = 0, s
    # up to twice the largest demand, so some factors clip at 0
    top = 2.0 * ds.max()
    ts, rs = rng.uniform(0.0, top, n), rng.uniform(0.0, top, n)
    if draw(st.booleans()):
        rs = ts.copy()  # the r = T diagonal the scan's roots sit on
    return ds, row, k, ts, rs


@settings(max_examples=300, deadline=None)
@given(candidates(), RHOS, BLOCKS)
def test_blocked_kernel_matches_reference_bits(case, rho, block):
    ds, row, k, ts, rs = case
    with mock.patch.object(download, "_BLOCK_TERMS", block):
        got = _dense_regrets(ds, row, k, ts, rs, rho)
    assert np.array_equal(got, _reference(ds, row, k, ts, rs, rho))


def test_row_longer_than_a_block_gets_its_own_block():
    rng = np.random.default_rng(3)
    ds = np.sort(rng.lognormal(0.0, 0.5, (3, 500)), axis=1)
    row, k = np.array([0, 2, 1, 2]), np.array([0, 500, 17, 250])
    ts, rs = rng.uniform(0.0, 2.0, 4), rng.uniform(0.0, 2.0, 4)
    for rho in (2.0, 3.0, 4.0, 2.5):
        with mock.patch.object(download, "_BLOCK_TERMS", 64):
            got = _dense_regrets(ds, row, k, ts, rs, rho)
        assert np.array_equal(got, _reference(ds, row, k, ts, rs, rho))
        assert got[1] == 0.0  # k = s: an empty suffix


def test_no_candidates():
    ds = np.array([[1.0, 2.0]])
    empty = np.array([], dtype=np.intp)
    assert _dense_regrets(ds, empty, empty, np.array([]), np.array([]), 2.0).size == 0
