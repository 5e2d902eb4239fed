"""Batched SINR kernels: equivalence with the single-trial reference.

:func:`successful_receptions` stays the reference: trial ``b``'s slice
of the batch's flat ``(trial, listener, sender)`` decodes must equal its
dict items, in order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.deployment import uniform_disk
from repro.geometry.points import pairwise_distances
from repro.sinr.params import SINRParameters
from repro.sinr.physics import (
    _check_unique_listeners,
    batch_tensor,
    check_batch_tensor_budget,
    gain_matrix,
    received_power,
    sinr_matrix,
    successful_receptions,
    successful_receptions_batch,
)


@pytest.fixture
def params() -> SINRParameters:
    return SINRParameters(
        power=1.0, alpha=3.0, beta=1.5, noise=1.0e-4, epsilon=0.1
    )


def random_trials(params, trials=6, n=14, seed=0):
    """Distance stack + heterogeneous transmitter sets for testing."""
    rng = np.random.default_rng(seed)
    matrices = []
    tx_sets = []
    for t in range(trials):
        points = uniform_disk(n, radius=8.0, seed=1000 + seed * 100 + t)
        matrices.append(pairwise_distances(points.coords))
        k = int(rng.integers(0, n + 1))
        tx_sets.append(
            np.sort(rng.choice(n, size=k, replace=False)).astype(np.intp)
        )
    return np.stack(matrices), tx_sets


def per_trial(flat, trials):
    """The batch's flat decodes as one ``[(listener, sender), ...]``
    list per trial, in the batch's order."""
    t_idx, u_idx, s_idx = flat
    out = [[] for _ in range(trials)]
    for t, u, s in zip(t_idx.tolist(), u_idx.tolist(), s_idx.tolist()):
        out[t].append((u, s))
    return out


def reference(params, stack, tx_sets):
    """Per-trial successful_receptions items — the reference decodes."""
    return [
        list(successful_receptions(params, stack[b], tx).items())
        for b, tx in enumerate(tx_sets)
    ]


class TestGainMatrix:
    def test_matches_received_power(self, params):
        dists = pairwise_distances(uniform_disk(10, 8.0, seed=3).coords)
        assert np.array_equal(
            gain_matrix(params, dists), received_power(params, dists)
        )

    def test_clamps_degenerate_distances(self, params):
        gains = gain_matrix(params, np.array([[0.0, 1e-15], [1e-15, 0.0]]))
        assert np.all(np.isfinite(gains))
        assert gains.max() > 1e20  # clamped, astronomically strong

    def test_batched_shape(self, params):
        stack, _ = random_trials(params, trials=3, n=7)
        assert gain_matrix(params, stack).shape == (3, 7, 7)


class TestSinrMatrixGainsPath:
    def test_gains_path_bit_identical(self, params):
        dists = pairwise_distances(uniform_disk(12, 8.0, seed=5).coords)
        gains = gain_matrix(params, dists)
        tx = np.array([0, 3, 7], dtype=np.intp)
        direct = sinr_matrix(params, dists, tx)
        cached = sinr_matrix(params, dists, tx, gains=gains)
        assert np.array_equal(direct, cached)

    def test_tx_powers_ignores_gains(self, params):
        dists = pairwise_distances(uniform_disk(8, 8.0, seed=6).coords)
        gains = gain_matrix(params, dists)
        tx = np.array([1, 4], dtype=np.intp)
        powered = sinr_matrix(
            params, dists, tx, tx_powers=np.array([2.0, 3.0]), gains=gains
        )
        assert not np.array_equal(powered, sinr_matrix(params, dists, tx))


class TestBatchedReceptions:
    def test_matches_sequential_per_trial(self, params):
        stack, tx_sets = random_trials(params, trials=8, n=14, seed=1)
        batch = successful_receptions_batch(params, stack, tx_sets)
        assert per_trial(batch, 8) == reference(params, stack, tx_sets)

    def test_precomputed_gains_identical(self, params):
        stack, tx_sets = random_trials(params, trials=5, n=12, seed=2)
        gains = gain_matrix(params, stack)
        cached = successful_receptions_batch(
            params, stack, tx_sets, gains=gains
        )
        direct = successful_receptions_batch(params, stack, tx_sets)
        for got, want in zip(cached, direct):
            assert np.array_equal(got, want)

    def test_empty_transmitter_trials(self, params):
        stack, tx_sets = random_trials(params, trials=4, n=10, seed=3)
        tx_sets[1] = np.empty(0, dtype=np.intp)
        batch = per_trial(
            successful_receptions_batch(params, stack, tx_sets), 4
        )
        assert batch[1] == []
        assert batch == reference(params, stack, tx_sets)

    def test_all_trials_silent(self, params):
        stack, _ = random_trials(params, trials=3, n=6, seed=4)
        empty = [np.empty(0, dtype=np.intp)] * 3
        batch = successful_receptions_batch(params, stack, empty)
        assert per_trial(batch, 3) == [[], [], []]

    def test_half_duplex_in_batch(self, params):
        # Node 0 transmits in trial 0 only; it must still be able to
        # listen in trial 1 (padding/masking must be per-trial).
        points = uniform_disk(6, radius=4.0, seed=9)
        dists = pairwise_distances(points.coords)
        stack = np.stack([dists, dists])
        batch = per_trial(
            successful_receptions_batch(
                params, stack, [np.array([0]), np.array([1])]
            ),
            2,
        )
        assert 0 not in dict(batch[0])
        assert dict(batch[1]).get(0) == 1  # dense disk: 0 decodes 1

    def test_rejects_wrong_rank(self, params):
        dists = pairwise_distances(uniform_disk(5, 6.0, seed=1).coords)
        with pytest.raises(ValueError, match="trials, n, n"):
            successful_receptions_batch(params, dists, [np.array([0])])

    def test_rejects_mismatched_trial_count(self, params):
        stack, tx_sets = random_trials(params, trials=3, n=8, seed=6)
        with pytest.raises(ValueError, match="one transmitter set"):
            successful_receptions_batch(params, stack, tx_sets[:2])


class TestFlatIndexMode:
    """The batch returns (trial, listener, sender) arrays in (trial,
    transmitter, listener) order."""

    def test_flat_matches_dicts(self, params):
        stack, tx_sets = random_trials(params, trials=7, n=14, seed=7)
        t_idx, u_idx, s_idx = successful_receptions_batch(
            params, stack, tx_sets
        )
        rebuilt = [dict() for _ in range(len(tx_sets))]
        for t, u, s in zip(t_idx.tolist(), u_idx.tolist(), s_idx.tolist()):
            rebuilt[t][u] = s
        assert rebuilt == [
            successful_receptions(params, stack[b], tx)
            for b, tx in enumerate(tx_sets)
        ]
        # trial indices come back sorted (trial-major flat layout)
        assert np.all(np.diff(t_idx) >= 0)

    def test_flat_empty_batch(self, params):
        stack, _ = random_trials(params, trials=3, n=6, seed=8)
        empty = [np.empty(0, dtype=np.intp)] * 3
        t_idx, u_idx, s_idx = successful_receptions_batch(
            params, stack, empty
        )
        assert t_idx.size == u_idx.size == s_idx.size == 0


class TestBatchTensorBudget:
    """The memory guard: oversized (trials, n, n) stacks refuse loudly."""

    def test_within_budget_passes(self):
        check_batch_tensor_budget(4, 100, max_bytes=4 * 100 * 100 * 8)

    def test_over_budget_raises_with_chunk_hint(self):
        with pytest.raises(MemoryError, match="chunks of <= 2 trial"):
            check_batch_tensor_budget(5, 100, max_bytes=2 * 100 * 100 * 8)

    def test_single_trial_too_big_says_so(self):
        with pytest.raises(MemoryError, match="already needs"):
            check_batch_tensor_budget(2, 1000, max_bytes=100)

    def test_zero_budget_disables_guard(self):
        check_batch_tensor_budget(10_000, 10_000, max_bytes=0)

    def test_batch_tensor_guarded(self, monkeypatch):
        budget = str(3 * 20 * 20 * 16)
        monkeypatch.setenv("REPRO_BATCH_TENSOR_BUDGET", budget)
        distinct = [np.full((20, 20), float(i)) for i in range(6)]
        with pytest.raises(MemoryError, match="REPRO_BATCH_TENSOR_BUDGET"):
            batch_tensor(distinct)
        assert np.array_equal(batch_tensor(distinct[:3])[2], distinct[2])
        # One shared matrix costs nothing: a zero-stride view, whatever
        # the trial count.
        shared = np.ones((20, 20))
        view = batch_tensor([shared] * 6)
        assert view.shape == (6, 20, 20)
        assert view.strides[0] == 0
        assert np.shares_memory(view, shared)

    def test_default_budget_admits_engine_scale(self):
        # The default must not get in the way of the recorded
        # 8-seed / 1000-node sweeps.
        check_batch_tensor_budget(8, 1000)


class TestUniquenessCheck:
    """The β > 1 invariant is enforced identically with and without -O."""

    def test_duplicate_listeners_raise(self):
        with pytest.raises(RuntimeError, match="beta > 1 violated"):
            _check_unique_listeners(np.array([3, 1, 3], dtype=np.intp))

    def test_unique_listeners_pass(self):
        _check_unique_listeners(np.array([2, 0, 5], dtype=np.intp))
        _check_unique_listeners(np.empty(0, dtype=np.intp))

    def test_single_trial_kernel_raises_on_double_decode(self, params):
        # Force the impossible: with beta < 1, a listener midway between
        # two transmitters decodes both (SINR just under 1 each).
        object.__setattr__(params, "beta", 0.4)
        dists = pairwise_distances(
            np.array([[0.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
        )
        with pytest.raises(RuntimeError, match="beta > 1 violated"):
            successful_receptions(params, dists, np.array([1, 2]))
