"""ExecutionPolicy: every execution knob as one frozen value.

``run_trials(plans, policy=None, *, cache=None)`` is the one spelling:
the policy's five fields select executors and resource bounds, never
results, and the removed ``mode`` field and legacy keyword arguments
fail loudly instead of being ignored.
"""

from __future__ import annotations

import dataclasses
import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.core.ack_protocol import AckConfig
from repro.experiments import (
    DeploymentSpec,
    ExecutionPolicy,
    TrialPlan,
    run_trials,
    seeded_plans,
)
from repro.simulation.rng import spawn_trial_seeds

DEPLOYMENT = DeploymentSpec.of("uniform_disk", n=10, radius=6.0, seed=21)


def make_plans(trials=3, stack="decay", **kwargs):
    base = TrialPlan(
        deployment=DEPLOYMENT,
        stack=stack,
        workload="local_broadcast",
        **kwargs,
    )
    return seeded_plans(base, spawn_trial_seeds(trials, seed=5))


class TestExecutionPolicy:
    def test_defaults(self):
        policy = ExecutionPolicy()
        assert policy == ExecutionPolicy(
            workers=1,
            vectorize=None,
            native=None,
            native_threads=None,
            share_cache=True,
        )

    def test_frozen_hashable_picklable(self):
        policy = ExecutionPolicy(workers=3, vectorize=False)
        with pytest.raises(FrozenInstanceError):
            policy.workers = 1
        assert hash(policy) == hash(ExecutionPolicy(workers=3, vectorize=False))
        assert pickle.loads(pickle.dumps(policy)) == policy

    def test_fields_and_methods(self):
        names = [f.name for f in dataclasses.fields(ExecutionPolicy)]
        assert names == [
            "workers",
            "vectorize",
            "native",
            "native_threads",
            "share_cache",
        ]
        methods = [
            name
            for name, value in vars(ExecutionPolicy).items()
            if callable(value) and not name.startswith("_")
        ]
        assert methods == ["for_worker"]
        with pytest.raises(TypeError, match="mode"):
            ExecutionPolicy(**{"mode": "sequential"})

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ExecutionPolicy(workers=0)

    def test_rejects_nonpositive_native_threads(self):
        with pytest.raises(ValueError, match="native_threads"):
            ExecutionPolicy(native_threads=0)
        # None defers to REPRO_NATIVE_THREADS; 1 is explicit serial.
        assert ExecutionPolicy(native_threads=1).native_threads == 1

    def test_for_worker_flattens_parallelism_only(self):
        policy = ExecutionPolicy(workers=4, vectorize=True, native=False,
                                 share_cache=False)
        worker = policy.for_worker()
        assert worker.workers == 1
        assert worker == ExecutionPolicy(
            workers=1, vectorize=True, native=False, share_cache=False
        )
        # Already-flat policies come back as the same object.
        assert worker.for_worker() is worker


class TestRunTrialsShim:
    """``run_trials``, the thin entry over ``execute_plans``, has one
    spelling: ``run_trials(plans, policy, *, cache)``."""

    def test_policy_accepts_mixed_stacks(self):
        plans = make_plans(stack="decay") + make_plans(
            stack="ack", ack_config=AckConfig(contention_bound=16.0)
        )
        default = run_trials(plans)
        explicit = run_trials(plans, ExecutionPolicy())
        assert default == explicit

    def test_run_trials_rejects_legacy_kwargs(self):
        plans = make_plans(trials=1)
        for legacy in ("mode", "workers", "vectorize", "native"):
            with pytest.raises(TypeError, match=legacy):
                run_trials(plans, **{legacy: None})

    def test_run_trials_rejects_positional_mode_string(self):
        plans = make_plans(trials=1)
        with pytest.raises(TypeError, match="ExecutionPolicy"):
            run_trials(plans, "sequential")

    def test_private_cache_policy_matches_shared(self):
        # share_cache only changes *where* artifacts are memoized,
        # never the results.
        plans = make_plans(trials=2)
        assert run_trials(plans, ExecutionPolicy(share_cache=False)) == (
            run_trials(plans, ExecutionPolicy())
        )
