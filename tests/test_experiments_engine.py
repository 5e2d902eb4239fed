"""The experiment engine: dispatch, equivalence, determinism, workloads."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.harness import (
    build_ack_stack,
    run_local_broadcast_experiment,
)
from repro.core.ack_protocol import AckConfig
from repro.core.approx_progress import ApproxProgressConfig
from repro.experiments import (
    GLOBAL_CACHE,
    ArtifactCache,
    DeploymentSpec,
    ExecutionPolicy,
    TrialPlan,
    resolve_deployment,
    run_trials,
    seeded_plans,
)
from repro.experiments import engine
from repro.experiments.engine import execute_plans, run_trial
from repro.experiments.workloads import get_workload, workload_names
from repro.simulation.rng import spawn_trial_seeds
from repro.sinr.params import SINRParameters, SparseResolution
from repro.topology import WaypointMobility

PARAMS = SINRParameters()
DISK = DeploymentSpec.of("uniform_disk", n=10, radius=8.0, seed=55)
SMALL_DISK = DeploymentSpec.of("uniform_disk", n=8, radius=8.0, seed=9)
OBJECT_PATH = ExecutionPolicy(vectorize=False)
SPACING = PARAMS.approx_range * 0.9
LINE = DeploymentSpec.of("line_deployment", n=4, spacing=SPACING)
APPROG_CFG = ApproxProgressConfig(
    lambda_bound=2.0, eps_approg=0.2, alpha=PARAMS.alpha, t_scale=0.25
)


def ack_sweep_plans(trials=3) -> list[TrialPlan]:
    base = TrialPlan(
        deployment=DISK, stack="ack", workload="local_broadcast"
    )
    return seeded_plans(base, spawn_trial_seeds(trials, seed=7))


class TestBatchedEquivalence:
    """The default dispatch (columnar batches where eligible) against
    the object path, one run_trial per plan."""

    def test_same_seeds_identical_results(self):
        plans = ack_sweep_plans()
        sequential = run_trials(plans, OBJECT_PATH)
        batched = run_trials(plans)
        assert sequential == batched  # bit-identical TrialResults

    def test_mixed_sizes_group_correctly(self):
        # Two node counts -> two columnar batches; order preserved.
        plans = [
            TrialPlan(deployment=DISK, stack="ack", seed=1),
            TrialPlan(deployment=SMALL_DISK, stack="ack", seed=2),
            TrialPlan(deployment=DISK, stack="ack", seed=3),
        ]
        sequential = run_trials(plans, OBJECT_PATH)
        batched = run_trials(plans)
        assert sequential == batched
        assert [r.n for r in batched] == [10, 8, 10]

    def test_fixed_slots_workload_equivalence(self):
        base = TrialPlan(
            deployment=DISK,
            stack="approg",
            workload="fixed_slots",
            approg_config=APPROG_CFG,
            options=TrialPlan.pack_options(epochs=1),
        )
        plans = seeded_plans(base, spawn_trial_seeds(2, seed=4))
        assert run_trials(plans, OBJECT_PATH) == run_trials(plans)

    def test_global_workloads_equivalence(self):
        plans = [
            TrialPlan(
                deployment=LINE,
                stack="combined",
                workload="smb",
                seed=5,
                approg_config=APPROG_CFG,
            ),
            TrialPlan(
                deployment=LINE,
                stack="combined",
                workload="consensus",
                seed=3,
                approg_config=APPROG_CFG,
                options=TrialPlan.pack_options(waves=8),
            ),
            TrialPlan(
                deployment=LINE,
                stack="combined",
                workload="mmb",
                seed=2,
                approg_config=APPROG_CFG,
                options=TrialPlan.pack_options(
                    arrivals=((0, ("m0", "m1")),)
                ),
            ),
        ]
        sequential = [run_trial(plan) for plan in plans]
        batched = run_trials(plans)
        assert sequential == batched
        smb, consensus, mmb = batched
        assert smb.completion == smb.slots
        assert consensus.extra_value("agreed") is True
        assert consensus.extra_value("decided_value") == (4 - 1) % 2
        assert mmb.completion is not None

    def test_extra_slots_respected(self):
        plan = TrialPlan(
            deployment=DISK, stack="ack", seed=1, extra_slots=32
        )
        sequential = run_trial(plan)
        (batched,) = run_trials([plan])
        assert sequential == batched
        assert batched.slots == batched.completion + 32


class TestDispatch:
    """execute_plans: columnar batches for eligible plans, run_trial for
    every other plan, results and callbacks once per plan index."""

    def interleaved_plans(self) -> list[TrialPlan]:
        # Labels above 2**32 keep Algorithm 11.1 off the columnar path.
        combined = dict(
            stack="combined",
            approg_config=replace(APPROG_CFG, label_space=2**32 + 1),
        )
        return [
            TrialPlan(deployment=SMALL_DISK, seed=1, **combined),
            TrialPlan(deployment=DISK, stack="decay", seed=2),
            TrialPlan(deployment=SMALL_DISK, stack="ack", seed=3),
            TrialPlan(deployment=DISK, seed=4, **combined),
            TrialPlan(deployment=SMALL_DISK, stack="decay", seed=5),
            TrialPlan(deployment=DISK, stack="ack", seed=6),
            TrialPlan(deployment=DISK, stack="decay", seed=7),
        ]

    def test_interleaved_plans_route_and_return_in_order(self, monkeypatch):
        plans = self.interleaved_plans()
        object_runs: list[int] = []
        vector_groups: list[list[int]] = []
        real_run_trial = engine.run_trial
        real_run_vector_group = engine.run_vector_group

        def spy_run_trial(plan, cache=None):
            object_runs.append(plans.index(plan))
            return real_run_trial(plan, cache)

        def spy_run_vector_group(group, cache=None, **kwargs):
            vector_groups.append([index for index, _ in group])
            return real_run_vector_group(group, cache, **kwargs)

        monkeypatch.setattr(engine, "run_trial", spy_run_trial)
        monkeypatch.setattr(engine, "run_vector_group", spy_run_vector_group)
        calls: list[int] = []
        results = execute_plans(
            plans,
            ExecutionPolicy(),
            on_result=lambda index, result: calls.append(index),
        )
        # Ineligible plans run alone on the object path, in plan order;
        # columnar plans batch by (node count, stack).
        assert object_runs == [0, 3]
        assert sorted(vector_groups) == [[1, 6], [2], [4], [5]]
        assert sorted(calls) == list(range(len(plans)))
        assert [r.seed for r in results] == [p.seed for p in plans]
        monkeypatch.undo()
        assert results == run_trials(plans, OBJECT_PATH)


class TestCacheIsolation:
    """Every artifact lookup of a run goes to the engine's cache: the
    harness builders' and the Channel's (sparse grids, mobility epochs)
    included."""

    PLANS = {
        "combined": TrialPlan(
            deployment=SMALL_DISK,
            stack="combined",
            approg_config=APPROG_CFG,
        ),
        "sparse": TrialPlan(
            deployment=DISK,
            stack="decay",
            workload="fixed_slots",
            options=TrialPlan.pack_options(slots=16),
            params=SINRParameters(
                sparse=SparseResolution(mode="exact", min_n=1)
            ),
        ),
        "mobility": TrialPlan(
            deployment=DISK,
            stack="approg",
            workload="fixed_slots",
            approg_config=APPROG_CFG,
            options=TrialPlan.pack_options(epochs=1),
            topology=WaypointMobility(epoch_slots=8, speed=0.5, seed=2),
        ),
    }
    FILLED = {
        "combined": "artifact_entries",
        "sparse": "sparse_entries",
        "mobility": "geometry_entries",
    }

    @pytest.mark.parametrize("kind", sorted(PLANS))
    def test_private_cache_leaves_global_untouched(self, kind):
        before = GLOBAL_CACHE.stats()
        run_trials([self.PLANS[kind]], ExecutionPolicy(share_cache=False))
        assert GLOBAL_CACHE.stats() == before

    @pytest.mark.parametrize("kind", sorted(PLANS))
    def test_caller_cache_holds_the_artifacts(self, kind):
        mine = ArtifactCache()
        before = GLOBAL_CACHE.stats()
        run_trials([self.PLANS[kind]], cache=mine)
        stats = mine.stats()
        assert stats["points_entries"] == 1
        assert stats["artifact_entries"] == 1
        assert stats[self.FILLED[kind]] >= 1
        assert GLOBAL_CACHE.stats() == before


def test_default_approg_config_eligibility_uses_the_runs_cache():
    """A default Algorithm 9.1 config takes its label space from the
    deployment's Λ; deciding eligibility looks Λ up in the run's own
    cache, never in the process-wide one."""
    plan = TrialPlan(
        deployment=SMALL_DISK,
        stack="combined",
        ack_config=AckConfig(contention_bound=8.0, eps_ack=0.3, gamma_prime=1.0),
    )
    GLOBAL_CACHE.clear()
    before = GLOBAL_CACHE.stats()
    policy = ExecutionPolicy(vectorize=True, share_cache=False)
    assert run_trials([plan], policy) == run_trials([plan], OBJECT_PATH)
    mine = ArtifactCache()
    run_trials([plan], ExecutionPolicy(vectorize=True), cache=mine)
    assert mine.stats()["artifact_entries"] == 1
    # Only the object-path reference run above filled the global cache.
    after = GLOBAL_CACHE.stats()
    assert after["artifact_entries"] == before["artifact_entries"] + 1


class TestLegacyWrapperFidelity:
    def test_matches_direct_harness_run(self):
        """run_trial is a thin wrapper over the legacy harness path."""
        plan = TrialPlan(deployment=DISK, stack="ack", seed=42)
        result = run_trial(plan)
        points = resolve_deployment(DISK)
        stack = build_ack_stack(points, PARAMS, eps_ack=0.1, seed=42)
        report, _ = run_local_broadcast_experiment(
            stack, list(range(len(points)))
        )
        assert result.slots == stack.runtime.slot
        assert result.ack_latencies == tuple(report.latencies())
        assert result.ack_completeness == report.completeness_fraction()


class TestProcessPool:
    def test_pool_matches_in_process(self):
        plans = ack_sweep_plans(trials=4)
        in_process = run_trials(plans)
        pooled = run_trials(plans, ExecutionPolicy(workers=2))
        assert pooled == in_process

    def test_pool_more_workers_than_plans(self):
        plans = ack_sweep_plans(trials=2)
        assert run_trials(plans, ExecutionPolicy(workers=4)) == run_trials(
            plans
        )


class TestEngineGuards:
    def test_budget_exhaustion_raises(self):
        plan = TrialPlan(deployment=DISK, stack="ack", seed=1, max_slots=8)
        with pytest.raises(RuntimeError, match="slot budget"):
            run_trials([plan])
        with pytest.raises(RuntimeError, match="slot budget"):
            run_trials([plan], OBJECT_PATH)

    def test_empty_plan_list(self):
        assert run_trials([]) == []

    def test_bad_mode_and_workers(self):
        # `mode` is gone: a stale caller fails loudly, never silently.
        plans = ack_sweep_plans(trials=1)
        with pytest.raises(TypeError, match="mode"):
            run_trials(plans, **{"mode": "sequential"})
        with pytest.raises(ValueError, match="workers"):
            run_trials(plans, ExecutionPolicy(workers=0))

    def test_unknown_workload_listed(self):
        plan = TrialPlan(deployment=DISK, workload="nope")
        with pytest.raises(ValueError, match="registered"):
            run_trials([plan])

    def test_registry_contents(self):
        assert {
            "local_broadcast",
            "fixed_slots",
            "smb",
            "mmb",
            "consensus",
        } <= set(workload_names())
        assert get_workload("smb").name == "smb"
