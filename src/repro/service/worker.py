"""The pool worker: one process, one artifact cache, many shards.

A worker is a plain loop over its task queue: take a shard, run its
plans through :func:`repro.experiments.engine.execute_plans` under
``shard.policy.for_worker()`` (same executors as everywhere else,
``workers`` flattened to 1 so a worker never recurses into a pool), and
stream every finished trial straight onto the shared result queue — the
scheduler's drain thread re-orders across shards, a worker only
guarantees in-shard order.

The worker's :data:`~repro.experiments.cache.GLOBAL_CACHE` persists
across shards *and jobs* for the life of the process, keyed identically
to the in-process cache (coordinate bytes + physics-stripped
parameters), so repeated jobs over the same deployments skip placement
work just like repeated ``run_trials`` calls do in the library.

Deterministic fault injection
-----------------------------
Crash and hang tests cannot rely on timing.  ``REPRO_SERVICE_FAULT``
(read per shard, before execution) makes failures reproducible:

``crash-once:<path>``
    If ``<path>`` does not exist yet: create it and hard-exit the
    process (``os._exit``) — the canonical "worker died mid-shard".
    The respawned worker sees the file and proceeds, so exactly one
    crash happens per test.
``stall:<path>``
    Sleep until ``<path>`` exists — holds a shard in-flight so a test
    can cancel its job deterministically, then release the worker.
"""

from __future__ import annotations

import os
import time
import traceback

from repro.experiments import cache as cache_module
from repro.experiments.engine import execute_plans

__all__ = ["worker_main"]

FAULT_ENV = "REPRO_SERVICE_FAULT"


def _fault_hook() -> None:
    """Apply the configured deterministic fault, if any."""
    spec = os.environ.get(FAULT_ENV)
    if not spec:
        return
    kind, _, path = spec.partition(":")
    if kind == "crash-once":
        if not os.path.exists(path):
            with open(path, "w") as flag:
                flag.write("crashed\n")
            os._exit(17)
    elif kind == "stall":
        while not os.path.exists(path):
            time.sleep(0.01)


def worker_main(worker_id: int, task_q, result_q) -> None:
    """Entry point of one pool process; loops until a ``stop`` message."""
    while True:
        message = task_q.get()  # reprolint: ignore[C102] — idle workers block on the task queue by design; shutdown arrives as a ("stop",) message on this same queue, so there is no producer-death case a timeout would catch
        if message[0] == "stop":
            return
        _, shard = message
        try:
            _fault_hook()
            policy = shard.policy.for_worker()

            def emit(local_index, result, _start=shard.start, _job=shard.job_id):
                result_q.put(("result", worker_id, _job, _start + local_index, result))

            # GLOBAL_CACHE is this process's cache — persistent across
            # shards and jobs; execute_plans swaps in a private one
            # itself when the policy says share_cache=False.
            execute_plans(
                shard.plans, policy, cache_module.GLOBAL_CACHE, on_result=emit
            )
            result_q.put(
                ("shard_done", worker_id, shard.job_id, shard.shard_id)
            )
        except Exception:
            result_q.put(
                (
                    "shard_error",
                    worker_id,
                    shard.job_id,
                    shard.shard_id,
                    traceback.format_exc(),
                )
            )
