"""The numpy step's draw feed against the generators it replays.

:class:`~repro.simulation.rng.NodeUniformBuffer` serves ``random()`` and
``integers(low, high)`` for many lanes at once from pre-drawn raw PCG64
words.  Algorithm 9.1 interleaves the two kinds on one node's stream
(a label at every phase start, uniforms in between), so every draw of
every lane must equal what the lane's own ``Generator`` returns for the
same call sequence — including label spaces where Lemire's method
rejects often (ranges just above a power of two) and the widest range
on numpy's 32-bit path, 2³² values.

CI reruns this file with ``--hypothesis-profile=ci``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.simulation.rng import NodeUniformBuffer, spawn_node_rngs

LANES = 5
# Ranges where a draw is rejected with probability close to 1/2 or 1/4,
# and the widest range the 32-bit path serves.
HEAVY = (2**31 + 1, 3 * 2**30, 2**32)
LABEL_SPACES = st.one_of(
    st.sampled_from(HEAVY), st.integers(min_value=2, max_value=2**32)
)
# One call: which lanes draw (at most once each), and what kind.
CALLS = st.tuples(
    st.lists(st.integers(0, LANES - 1), unique=True, max_size=LANES),
    st.one_of(st.none(), LABEL_SPACES),  # None: random()
)


@given(
    seed=st.integers(0, 2**32 - 1),
    chunk=st.integers(1, 9),
    calls=st.lists(CALLS, max_size=40),
)
def test_mixed_takes_match_each_lanes_generator(seed, chunk, calls):
    feed = NodeUniformBuffer(spawn_node_rngs(LANES, seed), chunk=chunk)
    reference = spawn_node_rngs(LANES, seed)
    for lanes, labels in calls:
        idx = np.asarray(lanes, dtype=np.intp)
        if labels is None:
            got = feed.take(idx).tolist()
            want = [reference[lane].random() for lane in lanes]
        else:
            got = feed.integers(idx, 1, np.full(idx.size, labels + 1)).tolist()
            want = [int(reference[lane].integers(1, labels + 1)) for lane in lanes]
        assert got == want


@pytest.mark.parametrize("labels", [3, 64, 1551, 1688, 1782, *HEAVY])
def test_label_draws_interleaved_with_uniforms(labels):
    """A long fixed interleaving per label space, crossing refills."""
    lanes = 16
    feed = NodeUniformBuffer(spawn_node_rngs(lanes, 7), chunk=5)
    reference = spawn_node_rngs(lanes, 7)
    pick = np.random.default_rng(labels % 997)
    for step in range(120):
        idx = np.flatnonzero(pick.random(lanes) < 0.6)
        if step % 3 == 0:
            got = feed.integers(idx, 1, np.full(idx.size, labels + 1))
            want = [int(reference[i].integers(1, labels + 1)) for i in idx]
        else:
            got = feed.take(idx)
            want = [reference[i].random() for i in idx]
        assert got.tolist() == want


def test_feed_continues_a_generator_mid_stream():
    """A lane picks up the buffered 32-bit half its generator holds."""
    used = spawn_node_rngs(2, 3)
    reference = spawn_node_rngs(2, 3)
    for rng in (*used, *reference):
        rng.integers(1, 100)  # leaves the upper half buffered
    feed = NodeUniformBuffer(used)
    idx = np.arange(2)
    assert feed.integers(idx, 1, np.full(2, 1000)).tolist() == [
        int(rng.integers(1, 1000)) for rng in reference
    ]


def test_integers_refuses_ranges_off_the_32_bit_path():
    feed = NodeUniformBuffer(spawn_node_rngs(1, 0))
    idx = np.zeros(1, dtype=np.intp)
    with pytest.raises(ValueError):
        feed.integers(idx, 1, np.array([2**32 + 2]))
    with pytest.raises(ValueError):
        feed.integers(idx, 1, np.array([2]))
