"""The scheduler: contiguous-shard dispatch over a process pool.

This is the one parallel-execution path in the repository.  The job
server runs on it, and so does plain
``run_trials(plans, ExecutionPolicy(workers=N))`` — the library call is
a thin client (:func:`run_sharded`) of the very same scheduler, so the
executors (object / columnar numpy / native) are reached identically
from both entry points and the old ad-hoc
``ProcessPoolExecutor`` chunking in the engine is gone.

Sharding
--------
A job's plan list is cut into *contiguous* trial batches with the same
``np.linspace`` bounds the engine used for ``workers=N`` since PR 1.
Contiguity matters twice: plan builders order sweeps so neighbouring
plans share deployments (a shard reuses its worker's artifact cache the
way the in-process run reuses :data:`~repro.experiments.cache.GLOBAL_CACHE`
— same keys, one cache per worker process, persistent across shards
*and jobs*), and contiguous index ranges make plan-order streaming a
cheap prefix merge in :meth:`~repro.service.jobs.Job.record`.

Fault model
-----------
Workers are long-lived ``fork`` processes fed per-worker task queues
(the scheduler therefore always knows which shards a worker holds — a
shard can never vanish into a shared queue with no owner).  A drain
thread multiplexes one shared result queue; its poll timeout doubles as
the crash watchdog: a dead worker is respawned and its outstanding
shards are requeued (bounded by ``max_shard_retries``, then the job
fails).  Requeued shards recompute trials the dead worker may already
have streamed; :meth:`Job.record` is idempotent and the engine is
deterministic, so replays are invisible.  A shard that raises a Python
exception (rather than dying) fails its job immediately — deterministic
errors do not deserve retries.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import threading
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.experiments.plans import TrialPlan, TrialResult
from repro.experiments.policy import ExecutionPolicy
from repro.service.jobs import Job, JobQueue, JobState

__all__ = ["Scheduler", "Shard", "run_sharded", "shard_plans"]


@dataclass(frozen=True)
class Shard:
    """A contiguous slice of one job's plans, dispatched as a unit."""

    job_id: int
    shard_id: int
    start: int
    plans: tuple[TrialPlan, ...]
    policy: ExecutionPolicy

    @property
    def stop(self) -> int:
        return self.start + len(self.plans)


def shard_plans(
    plans: Sequence[TrialPlan],
    policy: ExecutionPolicy,
    job_id: int,
    workers: int,
    shards_per_worker: int = 4,
) -> list[Shard]:
    """Cut a plan list into contiguous shards.

    More shards than workers (``shards_per_worker`` ×) keeps the pool
    load-balanced when shard runtimes differ (a 200-node trial next to
    a 20-node one), without shrinking shards so far that per-dispatch
    overhead and cache-warming dominate.  Bounds come from the same
    ``np.linspace`` split the engine's ``workers=N`` path has always
    used, so a sharded run groups plans exactly like the old pool did.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    total = len(plans)
    if total == 0:
        return []
    count = min(total, max(1, workers * shards_per_worker))
    bounds = np.linspace(0, total, count + 1).astype(int)
    shards = []
    for shard_id, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        if hi <= lo:
            continue
        shards.append(
            Shard(
                job_id=job_id,
                shard_id=shard_id,
                start=int(lo),
                plans=tuple(plans[lo:hi]),
                policy=policy,
            )
        )
    return shards


@dataclass
class _WorkerHandle:
    worker_id: int
    process: multiprocessing.process.BaseProcess
    task_q: "multiprocessing.queues.Queue"
    # (job_id, shard_id) -> (shard, attempts); dispatch adds, shard_done
    # removes, the watchdog requeues whatever a dead worker still held.
    outstanding: dict[tuple[int, int], tuple[Shard, int]] = field(
        default_factory=dict
    )


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork keeps worker start cheap and inherits the parent's imported
    # modules; fall back to the platform default where fork is absent.
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class Scheduler:
    """Shard dispatcher over a pool of long-lived worker processes."""

    def __init__(
        self,
        workers: int = 2,
        jobs: JobQueue | None = None,
        max_shard_retries: int = 2,
        shards_per_worker: int = 4,
        poll_interval: float = 0.05,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.jobs = jobs if jobs is not None else JobQueue()
        self.max_shard_retries = max_shard_retries
        self.shards_per_worker = shards_per_worker
        self.poll_interval = poll_interval
        self._ctx = _pool_context()
        self._lock = threading.RLock()
        self._handles: dict[int, _WorkerHandle] = {}
        self._next_worker_id = 0
        self._result_q: "multiprocessing.queues.Queue | None" = None
        self._drain: threading.Thread | None = None
        self._stopping = threading.Event()
        self._started = False
        # Observability counters (read by tests and service stats()).
        self.shards_dispatched = 0
        self.shards_requeued = 0
        self.workers_respawned = 0

    # -- lifecycle ----------------------------------------------------

    def start(self) -> "Scheduler":
        """Spawn the pool, then the drain thread.

        Processes are forked *before* any scheduler thread exists, so
        the children never inherit a lock held by a thread that does
        not survive the fork.
        """
        if self._started:
            return self
        self._result_q = self._ctx.Queue()
        for _ in range(self.workers):
            self._spawn_worker()
        self._stopping.clear()
        self._drain = threading.Thread(
            target=self._drain_loop, name="repro-service-drain", daemon=True
        )
        self._drain.start()
        self._started = True
        return self

    def _spawn_worker(self) -> _WorkerHandle:
        from repro.service.worker import worker_main

        worker_id = self._next_worker_id
        self._next_worker_id += 1
        task_q = self._ctx.Queue()
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, task_q, self._result_q),
            name=f"repro-service-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        handle = _WorkerHandle(
            worker_id=worker_id, process=process, task_q=task_q
        )
        self._handles[worker_id] = handle
        return handle

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the pool; idempotent."""
        if not self._started:
            return
        self._stopping.set()
        if self._drain is not None:
            self._drain.join(timeout=timeout)
        with self._lock:
            handles = list(self._handles.values())
            self._handles.clear()
        for handle in handles:
            try:
                handle.task_q.put(("stop",))
            except (ValueError, OSError):
                pass
        for handle in handles:
            handle.process.join(timeout=timeout)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=timeout)
            handle.task_q.close()
        if self._result_q is not None:
            self._result_q.close()
            self._result_q = None
        self._started = False

    def __enter__(self) -> "Scheduler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- submission ---------------------------------------------------

    def submit(
        self,
        plans: Sequence[TrialPlan],
        policy: ExecutionPolicy | None = None,
    ) -> Job:
        """Submit a job; returns immediately with a streaming handle."""
        if not self._started:
            raise RuntimeError("scheduler is not started")
        job = self.jobs.submit(plans, policy)
        if job.cached:
            return job
        with self._lock:
            job.state = JobState.RUNNING
            shards = shard_plans(
                job.plans,
                job.policy,
                job.job_id,
                self.workers,
                self.shards_per_worker,
            )
            for shard in shards:
                self._dispatch(shard, attempts=0)
        return job

    def cancel(self, job_id: int) -> bool:
        """Cancel a job: terminal event now, late results discarded.

        Shards already on worker queues still run to completion (a
        worker cannot be safely interrupted mid-trial), but the drain
        thread drops their results because the job is terminal.
        """
        job = self.jobs.get(job_id)
        with self._lock:
            if job.state.terminal:
                return False
            job.finish(JobState.CANCELLED)
            return True

    def stats(self) -> dict:
        with self._lock:
            outstanding = sum(
                len(handle.outstanding) for handle in self._handles.values()
            )
            return {
                **self.jobs.stats(),
                "workers": len(self._handles),
                "shards_dispatched": self.shards_dispatched,
                "shards_requeued": self.shards_requeued,
                "workers_respawned": self.workers_respawned,
                "shards_outstanding": outstanding,
            }

    # -- dispatch / drain ---------------------------------------------

    def _dispatch(self, shard: Shard, attempts: int) -> None:
        """Hand a shard to the least-loaded live worker (lock held)."""
        handle = min(
            self._handles.values(), key=lambda h: len(h.outstanding)
        )
        handle.outstanding[(shard.job_id, shard.shard_id)] = (shard, attempts)
        handle.task_q.put(("run", shard))
        self.shards_dispatched += 1

    def _drain_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                message = self._result_q.get(timeout=self.poll_interval)
            except queue_mod.Empty:
                self._reap_dead_workers()
                continue
            except (ValueError, OSError):  # queue closed under us
                return
            with self._lock:
                self._handle_message(message)

    def _handle_message(self, message: tuple) -> None:
        kind = message[0]
        if kind == "result":
            _, _, job_id, index, result = message
            job = self.jobs.get(job_id)
            if not job.state.terminal:
                job.record(index, result)
        elif kind == "shard_done":
            _, worker_id, job_id, shard_id = message
            handle = self._handles.get(worker_id)
            if handle is not None:
                handle.outstanding.pop((job_id, shard_id), None)
            job = self.jobs.get(job_id)
            if not job.state.terminal and job.completed == job.total:
                job.finish(JobState.DONE)
                self.jobs.publish(job)
        elif kind == "shard_error":
            _, worker_id, job_id, shard_id, error = message
            handle = self._handles.get(worker_id)
            if handle is not None:
                handle.outstanding.pop((job_id, shard_id), None)
            job = self.jobs.get(job_id)
            if not job.state.terminal:
                job.finish(
                    JobState.FAILED,
                    f"shard {shard_id} raised:\n{error}",
                )

    def _reap_dead_workers(self) -> None:
        """Watchdog: respawn dead workers and requeue their shards."""
        with self._lock:
            dead = [
                handle
                for handle in self._handles.values()
                if not handle.process.is_alive()
            ]
            if not dead:
                return
            orphans: list[tuple[Shard, int]] = []
            for handle in dead:
                del self._handles[handle.worker_id]
                orphans.extend(handle.outstanding.values())
                handle.task_q.close()
            while len(self._handles) < self.workers:
                self._spawn_worker()
                self.workers_respawned += 1
            for shard, attempts in orphans:
                job = self.jobs.get(shard.job_id)
                if job.state.terminal:
                    continue
                if attempts + 1 > self.max_shard_retries:
                    job.finish(
                        JobState.FAILED,
                        f"shard {shard.shard_id} lost its worker "
                        f"{attempts + 1} times (max_shard_retries="
                        f"{self.max_shard_retries})",
                    )
                    continue
                self.shards_requeued += 1
                self._dispatch(shard, attempts=attempts + 1)


def run_sharded(
    plans: Sequence[TrialPlan],
    policy: ExecutionPolicy,
    timeout: float = 600.0,
) -> list[TrialResult]:
    """One plan batch through a transient pool — ``run_trials``'s
    ``workers > 1`` backend.

    Spins up a scheduler sized to the batch, runs the single job, and
    tears the pool down; the job server keeps a long-lived
    :class:`Scheduler` instead, but the shard/execute path is the same
    object either way.  The pool never outlives the call, so worker
    caches warm within the batch exactly like the engine's old
    per-chunk pool workers did.
    """
    plan_list = list(plans)
    if len(plan_list) < 2:
        raise ValueError("run_sharded needs >= 2 plans; run in-process")
    workers = min(policy.workers, len(plan_list))
    with Scheduler(workers=workers) as scheduler:
        # The per-shard policy still says workers=N; each worker
        # flattens it via for_worker() before executing.
        job = scheduler.submit(plan_list, replace(policy, workers=workers))
        return job.wait(timeout=timeout)
