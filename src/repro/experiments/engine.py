"""The multi-trial experiment engine.

Two in-process executors and a process pool, one contract — a
:class:`~repro.experiments.plans.TrialPlan` yields the *same*
:class:`~repro.experiments.plans.TrialResult` (dataclass-equal, i.e.
bit-identical metrics) whichever way it runs:

object path
    One trial at a time: :func:`run_trial` builds the stack with the
    harness builders and drives ``Runtime.run_until`` / ``Runtime.run``
    over per-node automata.  Every plan runs here that the columnar
    kernels cannot run (the combined Algorithm 11.1 MAC, approximate
    progress alone, workloads without columnar hooks), and every plan
    under ``ExecutionPolicy(vectorize=False)``.

columnar path
    Eligible plans (:func:`~repro.vectorized.engine.vector_eligible`)
    sharing node count, physical parameters, stack, workload and
    tracing run as one batch on
    :func:`~repro.vectorized.engine.run_vector_group` — numpy kernels
    over the ``trials × n`` lattice, or the fused C slot loop of
    :mod:`repro.native`.

``workers > 1``
    Plan shards are shipped to the scheduler's worker pool
    (:mod:`repro.service.scheduler` — the same sharding machinery the
    :mod:`repro.service` job server runs); each worker executes its
    contiguous shard through :func:`execute_plans` below.  Determinism
    is unconditional because every trial's randomness comes from its
    plan's seed alone (see :func:`repro.simulation.rng.spawn_trial_seeds`
    for deriving per-trial seeds from one master seed).

All execution knobs travel as one frozen
:class:`~repro.experiments.policy.ExecutionPolicy`.  :func:`run_trials`
itself is a thin client of the scheduler path: :func:`execute_plans` is
the one in-process funnel through which both executors are reached,
whether the caller is this module, a pool worker, or the job server.

Deployment-derived artifacts (distances, gains, graphs, metrics) come
from the keyed cache in :mod:`repro.experiments.cache`, so a
many-seed sweep over one deployment derives them once.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.analysis.harness import (
    StackBundle,
    build_ack_stack,
    build_approg_stack,
    build_combined_stack,
    build_decay_stack,
)
from repro.core.spec import broadcast_intervals
from repro.experiments.cache import (
    ArtifactCache,
    deployment_artifacts,
    resolve_deployment,
)
from repro.experiments.plans import TrialPlan, TrialResult
from repro.experiments.policy import ExecutionPolicy
from repro.experiments.workloads import Workload, get_workload
from repro.vectorized.engine import run_vector_group, vector_eligible

__all__ = [
    "build_stack",
    "execute_plans",
    "run_trial",
    "run_trials",
]


def build_stack(
    plan: TrialPlan, cache: ArtifactCache | None = None
) -> StackBundle:
    """Materialize a plan's deployment + MAC stack (harness builders)."""
    points = resolve_deployment(plan.deployment, cache)
    workload = get_workload(plan.workload)
    adversary = None
    if plan.adversary is not None:
        graph = deployment_artifacts(points, plan.params, cache).graph
        adversary = plan.adversary.build(graph, plan.seed)
    common = dict(
        cache=cache,
        client_factory=workload.client_factory(plan),
        seed=plan.seed,
        max_slots=plan.max_slots,
        record_physical=plan.record_physical,
        adversary=adversary,
        topology=plan.topology,
    )
    if plan.stack == "combined":
        return build_combined_stack(
            points,
            plan.params,
            eps_ack=plan.eps_ack,
            eps_approg=plan.eps_approg,
            ack_config=plan.ack_config,
            approg_config=plan.approg_config,
            **common,
        )
    if plan.stack == "ack":
        return build_ack_stack(
            points,
            plan.params,
            eps_ack=plan.eps_ack,
            ack_config=plan.ack_config,
            **common,
        )
    if plan.stack == "approg":
        return build_approg_stack(
            points,
            plan.params,
            eps_approg=plan.eps_approg,
            approg_config=plan.approg_config,
            **common,
        )
    if plan.stack == "decay":
        return build_decay_stack(
            points,
            plan.params,
            eps_ack=plan.eps_ack,
            decay_config=plan.decay_config,
            **common,
        )
    raise ValueError(f"unknown stack {plan.stack!r}")  # guarded by TrialPlan


def _result(
    stack: StackBundle,
    plan: TrialPlan,
    workload: Workload,
    completion: int,
) -> TrialResult:
    # One broadcast-interval scan serves both measurements; traces of
    # big all-broadcast trials run to millions of events.
    intervals = broadcast_intervals(stack.runtime.trace)
    ack = stack.ack_report(intervals)
    approg = stack.approg_report(intervals)
    metrics = stack.metrics
    channel = stack.runtime.channel
    return TrialResult(
        label=plan.display_label,
        seed=plan.seed,
        n=metrics.n,
        degree=metrics.degree,
        degree_tilde=metrics.degree_tilde,
        diameter=metrics.diameter,
        diameter_tilde=metrics.diameter_tilde,
        lam=metrics.lam,
        slots=stack.runtime.slot,
        broadcasts=len(ack.records),
        ack_latencies=tuple(ack.latencies()),
        ack_completeness=ack.completeness_fraction(),
        approg_latencies=tuple(approg.latencies()),
        approg_episodes=len(approg.records),
        transmissions=channel.total_transmissions,
        receptions=channel.total_receptions,
        extra=tuple(
            sorted(workload.finalize(stack, plan, completion).items())
        ),
    )


def run_trial(
    plan: TrialPlan, cache: ArtifactCache | None = None
) -> TrialResult:
    """Run one plan on the object path.

    Builds the stack with the harness builders and drives the runtime
    with ``run_until``/``run`` exactly as the pre-engine benchmarks did;
    the columnar executor is verified bit-identical against this.
    """
    stack = build_stack(plan, cache)
    workload = get_workload(plan.workload)
    workload.start(stack, plan)
    target = workload.target_slots(stack, plan)
    if target is not None:
        stack.runtime.run(target)
        completion = stack.runtime.slot
    else:
        completion = stack.runtime.run_until(
            lambda _rt: workload.done(stack, plan),
            check_every=workload.check_every,
        )
    if plan.extra_slots:
        stack.runtime.run(plan.extra_slots)
    return _result(stack, plan, workload, completion)


def validate_plans(
    plans: Sequence[TrialPlan], policy: ExecutionPolicy
) -> None:
    """Raise early when a policy demand cannot be met by these plans.

    Policy-only constraints live in ``ExecutionPolicy.__post_init__``;
    this adds the plan-dependent one — ``vectorize=True`` demands every
    plan be columnar-eligible.  Called by :func:`run_trials` before any
    dispatch (so the caller gets the error synchronously, not as a pool
    failure) and again by :func:`execute_plans` inside workers.
    """
    if policy.vectorize is True:
        bad = [p.display_label for p in plans if not vector_eligible(p)]
        if bad:
            raise ValueError(
                "vectorize=True but these plans are not columnar-"
                f"eligible: {bad}"
            )


def execute_plans(
    plans: Sequence[TrialPlan],
    policy: ExecutionPolicy,
    cache: ArtifactCache | None = None,
    on_result: Callable[[int, TrialResult], None] | None = None,
) -> list[TrialResult]:
    """Execute a plan list in-process under a policy — the one funnel.

    Every entry point reaches the executors through this function:
    :func:`run_trials` calls it directly for ``workers == 1``, the
    scheduler's pool workers call it for their shards, and the
    :mod:`repro.service` job server's workers call it for job shards.
    ``policy.workers`` is ignored here (sharding is the caller's job —
    see :func:`repro.service.scheduler.run_sharded`).

    Columnar-eligible plans group into batches for
    :func:`~repro.vectorized.engine.run_vector_group`; every other plan
    runs alone through :func:`run_trial`, with the same cache.  Units
    run in the order of their first plan.  ``on_result`` is invoked as
    ``on_result(index, result)`` exactly once per plan, in plan-index
    order within each batch, as units complete — the streaming hook the
    service's per-trial progress rides.  Results are also returned as a
    list in plan order.
    """
    plan_list = list(plans)
    validate_plans(plan_list, policy)
    if not plan_list:
        return []
    if not policy.share_cache:
        # A private cold cache for this execution only: nothing read
        # from, nothing published to, the shared process-wide cache.
        cache = ArtifactCache()
    units: dict[object, list[tuple[int, TrialPlan]]] = {}
    for index, plan in enumerate(plan_list):
        # One columnar batch needs one node count, one MAC kernel and
        # one client population; an object-path plan is a unit alone.
        key: object = index
        if policy.vectorize is not False and vector_eligible(plan):
            points = resolve_deployment(plan.deployment, cache)
            key = (
                len(points),
                plan.params,
                plan.stack,
                plan.workload,
                plan.record_physical,
            )
        units.setdefault(key, []).append((index, plan))
    out: list[TrialResult | None] = [None] * len(plan_list)
    for key, group in units.items():
        if isinstance(key, int):
            ((index, plan),) = group
            results = {index: run_trial(plan, cache)}
        else:
            results = run_vector_group(
                group,
                cache,
                native=policy.native,
                native_threads=policy.native_threads,
            )
        for index in sorted(results):
            out[index] = results[index]
            if on_result is not None:
                on_result(index, results[index])
    return out  # type: ignore[return-value]


def run_trials(
    plans: Iterable[TrialPlan],
    policy: ExecutionPolicy | None = None,
    *,
    cache: ArtifactCache | None = None,
) -> list[TrialResult]:
    """Run many plans; results come back in plan order.

    ``policy`` (an :class:`~repro.experiments.policy.ExecutionPolicy`)
    says *how*: process-level sharding, columnar fast-path and native
    backend selection, artifact-cache sharing.  ``None`` is the default
    policy (one process, auto-selected fast paths, shared cache).  A
    policy never changes results — all executors are bit-identical by
    contract, so equal plans yield dataclass-equal results under every
    policy.

    ``run_trials`` is a thin client of the scheduler path: a
    single-worker policy executes in-process through
    :func:`execute_plans`, and ``policy.workers > 1`` shards the plan
    list into contiguous trial batches over the same worker-pool
    machinery the :mod:`repro.service` job server runs
    (:func:`repro.service.scheduler.run_sharded`), so both entry
    points reach the executors identically.
    """
    if policy is None:
        policy = ExecutionPolicy()
    elif not isinstance(policy, ExecutionPolicy):
        raise TypeError(f"policy must be an ExecutionPolicy; got {policy!r}")
    plan_list = list(plans)
    validate_plans(plan_list, policy)
    if not plan_list:
        return []
    if policy.workers > 1 and len(plan_list) > 1:
        # Lazy import: repro.service.scheduler imports this module for
        # execute_plans, so importing it eagerly would close a cycle.
        from repro.service.scheduler import run_sharded

        return run_sharded(plan_list, policy)
    return execute_plans(plan_list, policy, cache)
