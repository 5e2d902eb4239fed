"""Plan-level entry points of the columnar fast path.

:func:`vector_eligible` decides whether a
:class:`~repro.experiments.plans.TrialPlan` can run columnar;
:func:`run_vector_group` advances one batch-compatible group of eligible
plans slot-synchronously on a
:class:`~repro.vectorized.runtime.VectorRuntime`, reproducing the object
path's phase machinery (done-predicate cadence, ``extra_slots``
observation tail, slot budgets) so the
:class:`~repro.experiments.plans.TrialResult` of every plan is
dataclass-equal to what the object path produces.

Eligibility — all of:

* ``plan.stack`` has a columnar kernel: ``"decay"``, ``"ack"``,
  ``"approg"`` (Algorithm 9.1) or ``"combined"`` (Algorithm 11.1);
* the plan's workload opted in via ``Workload.vector_ready`` — bare
  ``MacClient`` workloads (local_broadcast, fixed_slots) and the
  protocol workloads with columnar client populations (smb, mmb,
  consensus; :mod:`repro.vectorized.protocols`);
* an Algorithm 9.1 label space of at most 2³² labels: numpy draws wider
  labels on its 64-bit path, which the columnar feed does not replay.

Everything else runs on the object path, one
:func:`~repro.experiments.engine.run_trial` at a time — the selection
happens inside :func:`repro.experiments.engine.execute_plans`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.harness import (
    default_ack_config,
    default_approg_config,
    default_decay_config,
)
from repro.core.spec import (
    broadcast_intervals,
    measure_acknowledgments,
    measure_approximate_progress,
)
from repro.experiments.cache import (
    ArtifactCache,
    deployment_artifacts,
    resolve_deployment,
)
from repro.experiments.plans import TrialPlan, TrialResult
from repro.experiments.workloads import Workload, get_workload
from repro.simulation.rng import NodeUniformBuffer
from repro.sinr.channel import Channel
from repro.vectorized.kernels import (
    AckKernel,
    ApproxProgressKernel,
    CombinedKernel,
    DecayKernel,
)
from repro.vectorized.protocols import VectorMacAdapter
from repro.vectorized.runtime import VectorRuntime

__all__ = ["vector_eligible", "run_vector_group", "plan_protocol_config"]

_VECTOR_STACKS = ("decay", "ack", "approg", "combined")


def vector_eligible(plan: TrialPlan, cache: ArtifactCache | None = None) -> bool:
    """May this plan run on the columnar fast path?

    A default Algorithm 9.1 config derives its label space from the
    deployment's Λ, looked up through ``cache``.
    """
    if plan.stack not in _VECTOR_STACKS:
        return False
    if not get_workload(plan.workload).vector_ready(plan):
        return False
    if plan.stack in ("approg", "combined"):
        approg = _approg_config(plan, cache)
        return approg.labels <= NodeUniformBuffer.MAX_INTEGER_RANGE
    return True


def _lam(plan: TrialPlan, cache: ArtifactCache | None) -> float:
    points = resolve_deployment(plan.deployment, cache)
    return deployment_artifacts(points, plan.params, cache).metrics.lam


def _approg_config(plan: TrialPlan, cache: ArtifactCache | None):
    if plan.approg_config is not None:
        return plan.approg_config
    return default_approg_config(
        _lam(plan, cache), plan.eps_approg, plan.params.alpha
    )


def plan_protocol_config(plan: TrialPlan, cache: ArtifactCache | None = None):
    """The plan's effective protocol config — explicit, or the shared
    paper-formula default the harness builders use
    (:func:`~repro.analysis.harness.default_decay_config`,
    :func:`~repro.analysis.harness.default_ack_config`,
    :func:`~repro.analysis.harness.default_approg_config`; bit-identical
    configuration is the first precondition of bit-identical runs).
    ``"combined"`` plans get an ``(ack, approg)`` pair."""
    if plan.stack == "decay":
        if plan.decay_config is not None:
            return plan.decay_config
        points = resolve_deployment(plan.deployment, cache)
        return default_decay_config(len(points), plan.eps_ack)
    if plan.stack == "approg":
        return _approg_config(plan, cache)
    if plan.stack in ("ack", "combined"):
        ack = plan.ack_config
        if ack is None:
            ack = default_ack_config(_lam(plan, cache), plan.eps_ack)
        if plan.stack == "ack":
            return ack
        return ack, _approg_config(plan, cache)
    raise ValueError(f"stack {plan.stack!r} has no columnar kernel")


def _kernel(stack: str, configs: list, n: int):
    """The stack's columnar kernel over the batch's per-trial configs."""
    if stack == "decay":
        return DecayKernel(configs, n)
    if stack == "ack":
        return AckKernel(configs, n)
    if stack == "approg":
        return ApproxProgressKernel(configs, n)
    return CombinedKernel(
        [ack for ack, _ in configs], [approg for _, approg in configs], n
    )


@dataclass
class _VectorTrialState:
    """Phase bookkeeping for one trial in a columnar batch.

    The transitions mirror :func:`~repro.experiments.engine.run_trial`:
    the done predicate is polled every ``check_every`` slots (or the
    fixed target reached), the completion slot is recorded, then
    ``extra_slots`` more slots run before the result is measured."""

    index: int  # position in the caller's plan list
    row: int  # position in the batch lattice
    plan: TrialPlan
    workload: Workload
    target: int | None
    phase: str = "run"  # run -> extra -> done
    steps: int = 0
    extra_left: int = 0
    completion: int | None = None
    result: TrialResult | None = field(default=None, repr=False)


def run_vector_group(
    group: Sequence[tuple[int, TrialPlan]],
    cache: ArtifactCache | None = None,
    native: bool | None = None,
    native_threads: int | None = None,
) -> dict[int, TrialResult]:
    """Advance one batch-compatible group of eligible plans together.

    ``group`` pairs each plan with its position in the caller's plan
    list; all plans must share node count, SINR parameters, stack kind
    and workload (one columnar client population serves the whole
    batch).  ``native`` selects the runtime backend and
    ``native_threads`` its trial-axis thread count (see
    :class:`VectorRuntime`); the results are bit-identical either way.
    """
    stack_kind = group[0][1].stack
    params = group[0][1].params
    workload_name = group[0][1].workload
    artifacts = []
    for _index, plan in group:
        if (
            plan.stack != stack_kind
            or plan.params != params
            or plan.workload != workload_name
        ):
            raise ValueError(
                "vector groups must share stack, params and workload"
            )
        points = resolve_deployment(plan.deployment, cache)
        artifacts.append(deployment_artifacts(points, plan.params, cache))

    n = artifacts[0].metrics.n
    kernel = _kernel(
        stack_kind, [plan_protocol_config(plan, cache) for _, plan in group], n
    )
    channels = [
        Channel(
            art.points,
            params,
            adversary=(
                plan.adversary.build(art.graph, plan.seed)
                if plan.adversary is not None
                else None
            ),
            distances=art.distances,
            gains=art.gains,
            topology=plan.topology,
            cache=cache,
        )
        for art, (_index, plan) in zip(artifacts, group)
    ]
    record_physical = group[0][1].record_physical
    for _index, plan in group:
        if plan.record_physical != record_physical:
            raise ValueError("vector groups must agree on record_physical")
    shared_workload = get_workload(workload_name)
    runtime = VectorRuntime(
        channels,
        kernel,
        seeds=[plan.seed for _, plan in group],
        max_slots=[plan.max_slots for _, plan in group],
        record_physical=record_physical,
        native=native,
        native_threads=native_threads,
    )
    # Reactive-protocol workloads bring a columnar client population,
    # wired to the runtime through the MAC adapter; bare workloads
    # return None and the runtime runs adapter-free as before.
    adapter = VectorMacAdapter(runtime)
    clients = shared_workload.vector_clients(
        adapter, [plan for _, plan in group]
    )
    if clients is not None:
        adapter.install(clients)

    states: list[_VectorTrialState] = []
    for row, (index, plan) in enumerate(group):
        workload = get_workload(plan.workload)
        workload.vector_start(runtime, row, plan)
        states.append(
            _VectorTrialState(
                index=index,
                row=row,
                plan=plan,
                workload=workload,
                target=workload.vector_target_slots(runtime, row, plan),
            )
        )

    def finish(st: _VectorTrialState) -> TrialResult:
        art = artifacts[st.row]
        trace = runtime.traces[st.row]
        channel = channels[st.row]
        intervals = broadcast_intervals(trace)
        ack = measure_acknowledgments(trace, art.graph_csr, intervals)
        approg = measure_approximate_progress(
            trace, art.graph_csr, art.approx_csr, intervals
        )
        metrics = art.metrics
        return TrialResult(
            label=st.plan.display_label,
            seed=st.plan.seed,
            n=metrics.n,
            degree=metrics.degree,
            degree_tilde=metrics.degree_tilde,
            diameter=metrics.diameter,
            diameter_tilde=metrics.diameter_tilde,
            lam=metrics.lam,
            slots=runtime.slots[st.row],
            broadcasts=len(ack.records),
            ack_latencies=tuple(ack.latencies()),
            ack_completeness=ack.completeness_fraction(),
            approg_latencies=tuple(approg.latencies()),
            approg_episodes=len(approg.records),
            transmissions=channel.total_transmissions,
            receptions=channel.total_receptions,
            extra=tuple(
                sorted(
                    st.workload.vector_finalize(
                        runtime, st.row, st.plan, st.completion
                    ).items()
                )
            ),
        )

    results: dict[int, TrialResult] = {}
    while True:
        live: list[_VectorTrialState] = []
        for st in states:
            if st.phase == "done":
                continue
            # Phase transitions due at the top of a slot — the cadence
            # of Runtime.run_until's check_every polling in run_trial.
            if st.phase == "run":
                finished = (
                    st.steps >= st.target
                    if st.target is not None
                    else (
                        st.steps % st.workload.check_every == 0
                        and st.workload.vector_done(runtime, st.row, st.plan)
                    )
                )
                if finished:
                    st.completion = runtime.slots[st.row]
                    st.extra_left = st.plan.extra_slots
                    st.phase = "extra"
            if st.phase == "extra" and st.extra_left <= 0:
                st.phase = "done"
                st.result = finish(st)
                results[st.index] = st.result
                continue
            live.append(st)
        if not live:
            return results
        # Advance by the longest stride that cannot cross any live
        # trial's next observation point — the target slot, the next
        # check_every multiple of a predicate workload, or the end of
        # the extra tail.  Each transition is then evaluated on exactly
        # the slot the per-slot loop would have evaluated it, while the
        # runtime gets whole strides to hand to the native kernel.
        stride = min(_stride(st) for st in live)
        runtime.advance_slots(stride, [st.row for st in live])
        for st in live:
            st.steps += stride
            if st.phase == "extra":
                st.extra_left -= stride


def _stride(st: _VectorTrialState) -> int:
    """Slots until this trial's next phase-transition check (>= 1)."""
    if st.phase == "extra":
        return st.extra_left
    if st.target is not None:
        return st.target - st.steps
    check_every = st.workload.check_every
    return check_every - st.steps % check_every
