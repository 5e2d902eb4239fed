"""The experiment engine: shared-cache sweeps vs the legacy per-trial loop.

Every statistical claim in this reproduction (Table 1 rows, the decay /
approximate-progress ablations) averages dozens of seeded trials.  The
legacy harness ran them one at a time, re-deriving the deployment's
distance matrix, gain matrix, connectivity graphs and metrics for every
trial.  The engine (:mod:`repro.experiments`) memoizes those artifacts
once per deployment, runs columnar-eligible plans as one batch on
array-state kernels, and can ship plan chunks to a process pool
(``workers=N``) — the designed route to multi-fold sweep speedups on
multi-core hosts.

This benchmark runs one Table-1-style multi-trial sweep (f_ack local
broadcast, 8 seeds over one deployment) through the legacy per-trial
loop (artifact cache cleared between trials — exactly what the
pre-engine benchmarks paid), through the engine's object path
(``vectorize=False``: the same ``run_trial`` per plan, with one shared
cache), and through the columnar fast path (``vectorize=True`` —
array-state kernels instead of per-node ``on_slot`` dispatch, see
:mod:`repro.vectorized` and ``bench_vectorized_stack.py`` for the
at-scale numbers), asserts all results are **bit-identical**, and
reports the wall-clock comparison.
When the host has more than one core it also times the process-pool
mode; on a single-core container the pool can only add overhead, so it
is reported but never asserted on.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.analysis.harness import format_table
from repro.experiments import (
    DeploymentSpec,
    ExecutionPolicy,
    GLOBAL_CACHE,
    TrialPlan,
    run_trials,
    seeded_plans,
)
from repro.experiments.engine import run_trial
from repro.simulation.rng import spawn_trial_seeds

N = 16
RADIUS = 9.0
TRIALS = 8


def make_plans() -> list[TrialPlan]:
    base = TrialPlan(
        deployment=DeploymentSpec.of(
            "uniform_disk", n=N, radius=RADIUS, seed=116
        ),
        stack="ack",
        workload="local_broadcast",
        eps_ack=0.1,
        label="engine-sweep",
    )
    return seeded_plans(base, spawn_trial_seeds(TRIALS, seed=7))


def run_legacy(plans) -> tuple[list, float]:
    """One trial at a time, nothing shared — the pre-engine cost model."""
    GLOBAL_CACHE.clear()
    start = time.perf_counter()
    results = []
    for plan in plans:
        GLOBAL_CACHE.clear()  # no cross-trial artifact reuse
        results.append(run_trial(plan))
    return results, time.perf_counter() - start


def run_object_path(plans) -> tuple[list, float]:
    """The engine's object path: one run_trial per plan over one shared
    artifact cache (the columnar fast path explicitly opted out)."""
    GLOBAL_CACHE.clear()
    start = time.perf_counter()
    results = run_trials(plans, ExecutionPolicy(vectorize=False))
    return results, time.perf_counter() - start


def run_vectorized(plans) -> tuple[list, float]:
    """The columnar fast path: array-state kernels over the lattice."""
    GLOBAL_CACHE.clear()
    start = time.perf_counter()
    results = run_trials(plans, ExecutionPolicy(vectorize=True))
    return results, time.perf_counter() - start


def run_pooled(plans, workers: int) -> tuple[list, float]:
    """The engine's process-pool mode (contiguous plan chunks)."""
    GLOBAL_CACHE.clear()
    start = time.perf_counter()
    results = run_trials(plans, ExecutionPolicy(workers=workers))
    return results, time.perf_counter() - start


@pytest.mark.benchmark(group="engine-batching")
def test_engine_batching_speedup(benchmark, emit):
    plans = make_plans()
    cores = os.cpu_count() or 1
    pool_workers = min(4, cores) if cores > 1 else 0

    def sweep_modes():
        legacy, legacy_time = run_legacy(plans)
        shared, shared_time = run_object_path(plans)
        vectorized, vectorized_time = run_vectorized(plans)
        pooled = pooled_time = None
        if pool_workers:
            pooled, pooled_time = run_pooled(plans, pool_workers)
        return (
            legacy, legacy_time, shared, shared_time,
            vectorized, vectorized_time, pooled, pooled_time,
        )

    (
        legacy, legacy_time, shared, shared_time,
        vectorized, vectorized_time, pooled, pooled_time,
    ) = benchmark.pedantic(sweep_modes, rounds=1, iterations=1)

    rows = [
        [
            "legacy sequential",
            TRIALS,
            f"{legacy_time:.3f}",
            f"{1000 * legacy_time / TRIALS:.1f}",
        ],
        [
            "engine object path",
            TRIALS,
            f"{shared_time:.3f}",
            f"{1000 * shared_time / TRIALS:.1f}",
        ],
        [
            "engine vectorized",
            TRIALS,
            f"{vectorized_time:.3f}",
            f"{1000 * vectorized_time / TRIALS:.1f}",
        ],
    ]
    if pool_workers:
        rows.append(
            [
                f"engine pool x{pool_workers}",
                TRIALS,
                f"{pooled_time:.3f}",
                f"{1000 * pooled_time / TRIALS:.1f}",
            ]
        )
    speedup = legacy_time / shared_time
    mean = sum(r.ack_mean_latency for r in shared) / len(shared)
    emit(
        "",
        "=== Experiment engine: shared-cache sweep vs legacy per-trial loop ===",
        format_table(["mode", "trials", "wall-clock (s)", "per-trial (ms)"], rows),
        f"host cores: {cores}; object-path speedup {speedup:.2f}x, "
        f"columnar {legacy_time / vectorized_time:.2f}x "
        f"(n={N}, {TRIALS} seeds, mean f_ack {mean:.0f} slots)",
    )
    if pool_workers:
        emit(f"pool speedup {legacy_time / pooled_time:.2f}x on {pool_workers} workers")
    else:
        emit(
            "single-core host: pool mode skipped (workers only pay off "
            "with >1 core; determinism is covered by the engine tests)"
        )

    # The engine's defining contract: same seeds => bit-identical
    # per-trial metrics, whatever the executor.
    assert shared == legacy, "object-path results diverged from sequential"
    assert vectorized == legacy, "vectorized results diverged from sequential"
    if pooled is not None:
        assert pooled == legacy, "pooled results diverged from sequential"
    # Wall-clock regression guard (loose: CI boxes are noisy; the
    # interesting numbers are the emitted ones above).
    assert speedup > 0.7, f"cache sharing regressed badly: {speedup:.2f}x"
