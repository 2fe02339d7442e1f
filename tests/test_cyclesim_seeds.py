"""The simulator's per-user stream seeds against numpy's own SeedSequence.

``cyclesim._child_seeds`` derives every user's ``generate_state(4,
np.uint64)`` words in one vectorized pass instead of spawning a
``SeedSequence`` per user; each row must equal numpy's bit for bit, and each
user's generator must draw what ``default_rng`` of the spawned child draws.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from throttleplan import Mode, Plan, SimConfig, ValidationError, simulate
from throttleplan.cyclesim import _MAX_STREAMS, _SEED_BLOCK, _child_seeds, _user_rngs

SEEDS = [0, 1, 20260819, 2**32 - 1, 2**32, 2**64 + 5, 2**127 + 3, 2**130 + 7]
# seeds of one to seven 32-bit words, up to 2**200: more than four words take numpy's extra mixing
WIDE_SEEDS = st.integers(1, 7).flatmap(
    lambda k: st.integers(2 ** (32 * k - 32) if k > 1 else 0, min(2 ** (32 * k) - 1, 2**200))
)


def _spawned_states(seed, lo, count):
    children = np.random.SeedSequence(seed).spawn(lo + count)[lo:]
    return np.array([child.generate_state(4, np.uint64) for child in children])


def _keyed_states(seed, lo, count):
    # a spawned child is the SeedSequence with spawn key (its index,)
    return np.array([np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64)
                     for i in range(lo, lo + count)])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("lo, count", [(0, 5), (37, 1), (_SEED_BLOCK - 3, 6)],
                         ids=["first", "mid", "across-a-block-edge"])
def test_child_seeds_match_spawn(seed, lo, count):
    got = _child_seeds(seed, lo, count)
    assert got.dtype == np.uint64 and got.shape == (count, 4)
    assert got.tobytes() == _spawned_states(seed, lo, count).tobytes()


@settings(max_examples=60, deadline=None)
@given(WIDE_SEEDS, st.integers(0, _MAX_STREAMS - 8), st.integers(1, 8))
def test_child_seeds_match_numpy_at_any_seed_and_index(seed, lo, count):
    assert _child_seeds(seed, lo, count).tobytes() == _keyed_states(seed, lo, count).tobytes()


def test_user_generators_draw_as_default_rng_of_the_spawned_children():
    n = _SEED_BLOCK + 3
    children = np.random.SeedSequence(7).spawn(n)
    rngs = list(_user_rngs(7, n))
    assert len(rngs) == n
    for rng, child in zip(rngs, children):
        want = np.random.default_rng(child)
        assert rng.integers(0, 30) == want.integers(0, 30)
        assert rng.random(3).tobytes() == want.random(3).tobytes()


def test_spawn_indices_need_one_key_word():
    last = _child_seeds(5, _MAX_STREAMS - 2, 2)
    assert last.tobytes() == _keyed_states(5, _MAX_STREAMS - 2, 2).tobytes()
    for lo, count in ((_MAX_STREAMS - 1, 2), (_MAX_STREAMS, 1), (-1, 2)):
        with pytest.raises(ValidationError, match="spawn indices must lie in"):
            _child_seeds(5, lo, count)


def test_simulate_refuses_more_users_than_one_word_indices():
    class Huge:  # refused on its length, before any column is read
        def __len__(self):
            return _MAX_STREAMS + 1

    with pytest.raises(ValidationError, match=f"at most {_MAX_STREAMS} users"):
        simulate(Huge(), SimConfig(Plan(0.3, 0.1, Mode.STREAMING)))
