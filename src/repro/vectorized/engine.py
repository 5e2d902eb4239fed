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

* ``plan.stack`` is ``"decay"`` or ``"ack"`` (homogeneous populations
  whose per-node engines have columnar kernels);
* the plan's workload opted in via ``Workload.vector_ready`` — bare
  ``MacClient`` workloads (local_broadcast, fixed_slots) and the
  protocol workloads with columnar client populations (smb, mmb,
  consensus; :mod:`repro.vectorized.protocols`).

Everything else runs on the object path, one
:func:`~repro.experiments.engine.run_trial` at a time — the selection
happens inside :func:`repro.experiments.engine.execute_plans`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.harness import default_ack_config, default_decay_config
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
from repro.sinr.channel import Channel
from repro.vectorized.kernels import AckKernel, DecayKernel
from repro.vectorized.protocols import VectorMacAdapter
from repro.vectorized.runtime import VectorRuntime

__all__ = ["vector_eligible", "run_vector_group", "plan_protocol_config"]

_VECTOR_STACKS = ("decay", "ack")


def vector_eligible(plan: TrialPlan) -> bool:
    """May this plan run on the columnar fast path?"""
    if plan.stack not in _VECTOR_STACKS:
        return False
    return get_workload(plan.workload).vector_ready(plan)


def plan_protocol_config(plan: TrialPlan, cache: ArtifactCache | None = None):
    """The plan's effective Decay/Ack config — explicit, or the shared
    paper-formula default the harness builders use
    (:func:`~repro.analysis.harness.default_decay_config` /
    :func:`~repro.analysis.harness.default_ack_config`; bit-identical
    configuration is the first precondition of bit-identical runs)."""
    if plan.stack == "decay":
        if plan.decay_config is not None:
            return plan.decay_config
        points = resolve_deployment(plan.deployment, cache)
        return default_decay_config(len(points), plan.eps_ack)
    if plan.stack == "ack":
        if plan.ack_config is not None:
            return plan.ack_config
        points = resolve_deployment(plan.deployment, cache)
        metrics = deployment_artifacts(points, plan.params, cache).metrics
        return default_ack_config(metrics.lam, plan.eps_ack)
    raise ValueError(f"stack {plan.stack!r} has no columnar kernel")


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
    configs = [plan_protocol_config(plan, cache) for _, plan in group]
    kernel_cls = DecayKernel if stack_kind == "decay" else AckKernel
    kernel = kernel_cls(configs, n)
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
    # When every trial's slot horizon is known up front (fixed-slot
    # workloads), pre-size the uniform buffers to it: each node lane
    # then refills at most once for the whole run, hoisting the
    # per-slot refill check out of the hot loop on both backends.  The
    # served streams are chunk-independent (one PCG64 output per
    # double), so draw-for-draw equivalence is untouched; the buffer's
    # own byte ceiling caps oversized horizons.
    targets = [
        shared_workload.vector_target_slots(plan) for _, plan in group
    ]
    chunk = 512
    if all(target is not None for target in targets):
        horizon = max(
            target + plan.extra_slots
            for target, (_index, plan) in zip(targets, group)
        )
        chunk = max(chunk, horizon)
    runtime = VectorRuntime(
        channels,
        kernel,
        seeds=[plan.seed for _, plan in group],
        max_slots=[plan.max_slots for _, plan in group],
        record_physical=record_physical,
        chunk=chunk,
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
                target=targets[row],
            )
        )

    def finish(st: _VectorTrialState) -> TrialResult:
        art = artifacts[st.row]
        trace = runtime.traces[st.row]
        channel = channels[st.row]
        intervals = broadcast_intervals(trace)
        ack = measure_acknowledgments(trace, art.graph, intervals)
        approg = measure_approximate_progress(
            trace, art.graph, art.approx_graph, intervals
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
