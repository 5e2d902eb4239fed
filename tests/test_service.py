"""The job server: sharded execution, faults, streaming, and the TCP front.

The acceptance pin lives here: a 3-worker service run of a mixed
Decay/Ack + protocol-workload batch returns results dataclass-equal to
in-process :func:`run_trials` — the engine's bit-identity contract
extended across process boundaries.  Around it: plan-order streaming,
duplicate-submission cache hits, deterministic cancellation and
worker-crash requeue (via the ``REPRO_SERVICE_FAULT`` hooks in
:mod:`repro.service.worker` — no sleeps, no timing races), and a
round trip through the asyncio TCP front with
:class:`~repro.service.client.ServiceClient`.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.ack_protocol import AckConfig
from repro.core.decay import DecayConfig
from repro.experiments import (
    DeploymentSpec,
    ExecutionPolicy,
    TrialPlan,
    run_trials,
    seeded_plans,
)
from repro.experiments.plans import TrialResult
from repro.service import (
    JobState,
    Scheduler,
    ServiceClient,
    SimulationService,
    shard_plans,
    start_service,
)
from repro.service.jobs import Job, JobQueue
from repro.simulation.rng import spawn_trial_seeds

DEPLOYMENT = DeploymentSpec.of("uniform_disk", n=10, radius=6.0, seed=41)


def make_plans(stack="decay", trials=2, workload="local_broadcast", **kwargs):
    if stack == "decay":
        kwargs.setdefault(
            "decay_config", DecayConfig(contention_bound=16.0)
        )
    elif stack in ("ack", "combined"):
        kwargs.setdefault("ack_config", AckConfig(contention_bound=16.0))
    base = TrialPlan(
        deployment=DEPLOYMENT,
        stack=stack,
        workload=workload,
        label=f"svc-{stack}-{workload}",
        **kwargs,
    )
    return seeded_plans(base, spawn_trial_seeds(trials, seed=13))


def mixed_batch():
    """Decay + Ack + a protocol workload, the acceptance-criteria mix."""
    return (
        make_plans("decay", trials=3)
        + make_plans("ack", trials=3)
        + make_plans("decay", trials=2, workload="smb")
    )


# -- sharding ---------------------------------------------------------------


class TestShardPlans:
    def test_shards_are_contiguous_and_cover(self):
        plans = make_plans(trials=9)
        shards = shard_plans(plans, ExecutionPolicy(workers=2), job_id=1,
                             workers=2)
        assert [s.shard_id for s in shards] == sorted(
            s.shard_id for s in shards
        )
        covered = []
        cursor = 0
        for shard in shards:
            assert shard.start == cursor
            covered.extend(shard.plans)
            cursor = shard.stop
        assert covered == plans

    def test_never_more_shards_than_plans(self):
        plans = make_plans(trials=3)
        shards = shard_plans(plans, ExecutionPolicy(workers=8), job_id=1,
                             workers=8)
        assert len(shards) == 3

    def test_empty_plan_list_means_no_shards(self):
        assert shard_plans([], ExecutionPolicy(), job_id=1, workers=2) == []


# -- job bookkeeping --------------------------------------------------------


def _dummy_results(plans):
    return run_trials(plans, ExecutionPolicy(vectorize=False))


class TestJobStreaming:
    def test_out_of_order_results_stream_in_plan_order(self):
        plans = tuple(make_plans(trials=3))
        results = _dummy_results(plans)
        job = Job(job_id=1, plans=plans, policy=ExecutionPolicy())
        job.record(2, results[2])
        job.record(0, results[0])
        job.record(1, results[1])
        job.finish(JobState.DONE)
        seen = [e for e in job.stream(timeout=1.0) if e[0] == "result"]
        assert [index for _, index, _ in seen] == [0, 1, 2]
        assert [r for _, _, r in seen] == list(results)

    def test_record_is_idempotent(self):
        plans = tuple(make_plans(trials=2))
        results = _dummy_results(plans)
        job = Job(job_id=1, plans=plans, policy=ExecutionPolicy())
        job.record(0, results[0])
        job.record(0, results[0])  # a requeued shard replays its trials
        assert job.completed == 1

    def test_wait_raises_on_failure(self):
        job = Job(
            job_id=1,
            plans=tuple(make_plans(trials=1)),
            policy=ExecutionPolicy(),
        )
        job.finish(JobState.FAILED, "shard exploded")
        with pytest.raises(RuntimeError, match="shard exploded"):
            job.wait(timeout=1.0)

    def test_duplicate_submission_is_a_cache_hit(self):
        queue = JobQueue()
        plans = make_plans(trials=2)
        first = queue.submit(plans)
        for index, result in enumerate(_dummy_results(plans)):
            first.record(index, result)
        first.finish(JobState.DONE)
        queue.publish(first)

        second = queue.submit(plans)
        assert second.cached
        assert second.state is JobState.DONE
        assert second.wait(timeout=1.0) == first.results
        assert queue.stats()["cache_hits"] == 1


class TestStreamJobEvents:
    """The TCP front's streaming loop: bounded queue polls plus terminal
    synthesis, so a job whose producer dies without a terminal event
    ends the stream instead of pinning an executor thread forever
    (reprolint C102 regression)."""

    @staticmethod
    def _drive(job, poll=0.05, timeout=5.0):
        from repro.service import server as server_module

        sent = []

        async def main():
            loop = asyncio.get_running_loop()
            await asyncio.wait_for(
                server_module._stream_job_events(job, sent.append, loop),
                timeout=timeout,
            )

        original = server_module._STREAM_POLL_SECONDS
        server_module._STREAM_POLL_SECONDS = poll
        try:
            asyncio.run(main())
        finally:
            server_module._STREAM_POLL_SECONDS = original
        return sent

    def test_events_pass_through_to_the_real_terminal(self):
        plans = tuple(make_plans(trials=2))
        results = _dummy_results(plans)
        job = Job(job_id=1, plans=plans, policy=ExecutionPolicy())
        for index, result in enumerate(results):
            job.record(index, result)
        job.finish(JobState.DONE)
        sent = self._drive(job)
        assert [e["event"] for e in sent if e["event"] == "result"] == [
            "result",
            "result",
        ]
        assert sent[-1] == {"event": "done"}

    def test_dead_job_without_terminal_event_ends_the_stream(self):
        job = Job(
            job_id=1,
            plans=tuple(make_plans(trials=1)),
            policy=ExecutionPolicy(),
        )
        # The failure mode the bounded poll exists for: the drain thread
        # died before finish() ran, so no terminal event was ever queued.
        job.state = JobState.FAILED
        job.error = "drain thread died"
        sent = self._drive(job)
        assert sent == [{"event": "failed", "error": "drain thread died"}]

    def test_dead_job_drains_queued_results_before_synthesizing(self):
        plans = tuple(make_plans(trials=1))
        results = _dummy_results(plans)
        job = Job(job_id=1, plans=plans, policy=ExecutionPolicy())
        job.record(0, results[0])
        job.state = JobState.CANCELLED
        sent = self._drive(job)
        assert [e["event"] for e in sent] == [
            "result",
            "progress",
            "cancelled",
        ]

    def test_poll_is_bounded(self):
        from repro.service import server as server_module

        job = Job(
            job_id=1,
            plans=tuple(make_plans(trials=1)),
            policy=ExecutionPolicy(),
        )
        original = server_module._STREAM_POLL_SECONDS
        server_module._STREAM_POLL_SECONDS = 0.01
        try:
            assert server_module._next_event(job) is None
        finally:
            server_module._STREAM_POLL_SECONDS = original


# -- the scheduler against a real pool --------------------------------------


class TestSchedulerPool:
    def test_three_worker_mixed_batch_matches_in_process(self):
        plans = mixed_batch()
        expected = run_trials(plans)
        with SimulationService(workers=3) as service:
            job = service.submit(plans, ExecutionPolicy(workers=3))
            got = service.results(job.job_id, timeout=120.0)
        assert got == expected  # dataclass-equal, i.e. bit-identical
        assert job.state is JobState.DONE

    def test_run_trials_workers_rides_the_scheduler(self):
        plans = make_plans(trials=4)
        assert run_trials(plans, ExecutionPolicy(workers=2)) == run_trials(
            plans
        )

    def test_streamed_events_arrive_in_plan_order(self):
        plans = make_plans(trials=4)
        with SimulationService(workers=2) as service:
            job = service.submit(plans, ExecutionPolicy(workers=2))
            indices = [
                event[1]
                for event in service.stream(job.job_id, timeout=120.0)
                if event[0] == "result"
            ]
        assert indices == [0, 1, 2, 3]

    def test_duplicate_submission_skips_the_pool(self):
        plans = make_plans(trials=3)
        with SimulationService(workers=2) as service:
            first = service.submit(plans)
            results = service.results(first.job_id, timeout=120.0)
            dispatched = service.stats()["shards_dispatched"]
            second = service.submit(plans)
            assert second.cached
            assert second.wait(timeout=1.0) == results
            stats = service.stats()
        assert stats["shards_dispatched"] == dispatched  # no new work
        assert stats["cache_hits"] == 1

    def test_cancellation_discards_late_results(self, tmp_path, monkeypatch):
        release = tmp_path / "release-the-worker"
        monkeypatch.setenv("REPRO_SERVICE_FAULT", f"stall:{release}")
        plans = make_plans(trials=4)
        with Scheduler(workers=2) as scheduler:
            job = scheduler.submit(plans, ExecutionPolicy(workers=2))
            # Workers are stalled on the flag file: results cannot have
            # arrived, so the cancel is deterministic.
            assert scheduler.cancel(job.job_id)
            assert not scheduler.cancel(job.job_id)  # already terminal
            release.write_text("go\n")
            with pytest.raises(RuntimeError, match="cancelled"):
                job.wait(timeout=60.0)
            assert job.state is JobState.CANCELLED

    def test_worker_crash_requeues_and_completes(self, tmp_path, monkeypatch):
        crashed = tmp_path / "crashed-once"
        monkeypatch.setenv("REPRO_SERVICE_FAULT", f"crash-once:{crashed}")
        plans = make_plans(trials=4)
        expected = run_trials(plans)
        with Scheduler(workers=1, poll_interval=0.02) as scheduler:
            job = scheduler.submit(plans, ExecutionPolicy(workers=1))
            got = job.wait(timeout=120.0)
            stats = scheduler.stats()
        assert crashed.exists()  # the fault actually fired
        assert stats["workers_respawned"] >= 1
        assert stats["shards_requeued"] >= 1
        assert got == expected  # replayed shards are bit-identical

    def test_shard_exception_fails_the_job(self):
        # An unknown workload passes plan validation (it is just a
        # string) but raises inside the worker — a deterministic error,
        # so no retry: the job fails with the traceback.
        plans = [
            TrialPlan(
                deployment=DEPLOYMENT,
                stack="decay",
                workload="local_broadcast",
            ),
            TrialPlan(
                deployment=DEPLOYMENT,
                stack="decay",
                workload="no-such-workload",
            ),
        ]
        with SimulationService(workers=2) as service:
            job = service.submit(plans, ExecutionPolicy(workers=2))
            with pytest.raises(RuntimeError, match="no-such-workload"):
                service.results(job.job_id, timeout=60.0)
        assert job.state is JobState.FAILED


# -- the TCP front ----------------------------------------------------------


class TestTcpService:
    def test_client_run_matches_in_process(self):
        plans = mixed_batch()
        expected = run_trials(plans)
        with start_service(workers=3) as handle:
            client = ServiceClient(handle.host, handle.port)
            got = client.run(plans, ExecutionPolicy(workers=3))
            assert got == expected
            assert all(isinstance(r, TrialResult) for r in got)

    def test_status_cancel_and_stats_ops(self):
        plans = make_plans(trials=2)
        with start_service(workers=2) as handle:
            client = ServiceClient(handle.host, handle.port)
            submitted = client.submit(plans)
            assert submitted["total"] == 2
            status = client.status(submitted["job_id"])
            assert status["state"] in ("running", "done")
            # Drain to done, then duplicate-submit: a wire-level cache hit.
            events = list(
                client.submit_stream(plans)
            )
            assert events[-1][0] == "done"
            duplicate = client.submit(plans)
            assert duplicate["cached"] is True
            assert client.stats()["cache_hits"] >= 1
            # Cancelling a finished job is a clean no-op.
            assert client.cancel(submitted["job_id"]) is False

    def test_protocol_errors_keep_the_connection_alive(self):
        with start_service(workers=1) as handle:
            client = ServiceClient(handle.host, handle.port)
            with pytest.raises(RuntimeError, match="unknown op"):
                client._call({"op": "reticulate"})
            with pytest.raises(RuntimeError, match="service error"):
                client._call({"op": "status", "job_id": 999})
            assert client.stats()["workers"] == 1

    def test_policy_carrying_mode_is_refused(self):
        """``mode`` left the policy: a stale payload gets an error reply
        and no job, never a silent default run."""
        request = ServiceClient()._submit_request(
            make_plans(trials=1), ExecutionPolicy(), stream=False
        )
        request["policy"]["mode"] = "sequential"
        with start_service(workers=1) as handle:
            client = ServiceClient(handle.host, handle.port)
            with pytest.raises(RuntimeError, match="mode"):
                client._call(request)
            assert client.stats()["submitted"] == 0
