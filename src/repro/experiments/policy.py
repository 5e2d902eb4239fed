"""Execution policy: *how* a plan sweep runs, as one frozen value.

:class:`ExecutionPolicy` holds every execution knob of
:func:`~repro.experiments.engine.run_trials` in a single frozen,
hashable, picklable dataclass, so

* the in-process call (``run_trials(plans, policy)``), the pool-worker
  entry point, and the service wire format all carry *one* object —
  library and service can never drift;
* policies batch, pickle, and serialize like
  :class:`~repro.experiments.plans.TrialPlan` does (they ride the same
  JSON wire codec, :mod:`repro.service.wire`);
* a policy never changes results — every field selects an executor or
  a resource bound, and all executors are bit-identical by contract.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["ExecutionPolicy"]


@dataclass(frozen=True)
class ExecutionPolicy:
    """How to execute a batch of :class:`TrialPlan`\\ s.

    Attributes
    ----------
    workers:
        Process-level parallelism.  ``1`` runs in-process; ``> 1``
        shards the plan list into contiguous trial batches over the
        scheduler's worker pool (:mod:`repro.service.scheduler` — the
        same path the job server uses).
    vectorize:
        Columnar fast-path selection (:mod:`repro.vectorized`):
        ``None`` auto-selects it for eligible plans, ``False`` runs
        every plan on the object path (one
        :func:`~repro.experiments.engine.run_trial` at a time),
        ``True`` demands the columnar executor and raises when a
        plan is ineligible.
    native:
        Backend selection *inside* the columnar executor
        (:mod:`repro.native`): ``None`` defers to ``REPRO_NATIVE`` and
        auto-detects the compiled kernel, ``False`` pins the pure-numpy
        reference, ``True`` demands the compiled kernel.
    native_threads:
        Kernel threads partitioning the trials axis inside the fused C
        slot loop.  ``None`` (default) defers to the
        ``REPRO_NATIVE_THREADS`` environment variable (itself defaulting
        to 1); an explicit count must be >= 1.  Like every other field
        this never changes results — threads share nothing but
        read-only gains and the equivalence suite pins bit-identity
        across counts — it only shapes wall-clock.
    share_cache:
        When True (default), execution uses the shared artifact cache
        (the caller-supplied one, or the process-wide
        :data:`~repro.experiments.cache.GLOBAL_CACHE`; service workers
        each keep a persistent per-process cache across shards and
        jobs).  ``False`` gives every execution a fresh private cache —
        cold-cache benchmarking and memory isolation for huge one-off
        deployments.

    None of these fields ever changes results: the executors (object /
    columnar numpy / native) are bit-identical by contract, so a policy
    is pure *execution* configuration and two runs of equal plans under
    different policies compare dataclass-equal.
    """

    workers: int = 1
    vectorize: bool | None = None
    native: bool | None = None
    native_threads: int | None = None
    share_cache: bool = True

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.native_threads is not None and self.native_threads < 1:
            raise ValueError("native_threads must be >= 1")

    def for_worker(self) -> "ExecutionPolicy":
        """The policy a single pool worker runs its shard under.

        Identical except ``workers=1`` — sharding happens once, at the
        scheduler; a worker must never recursively spawn its own pool.
        """
        if self.workers == 1:
            return self
        return replace(self, workers=1)
