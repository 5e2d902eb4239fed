"""The columnar fast path's defining contract: decode-for-decode
identity with the object runtime.

Three layers of evidence:

* **results** — a parametrized sweep over {Decay, Ack} × {1, 8 trials}
  × {synchronous, staggered wakeup} asserting ``run_trials`` returns
  dataclass-equal :class:`TrialResult` lists with ``vectorize=True``
  and ``vectorize=False`` (the ``TrialResult`` equality is the engine's
  bit-identity check: every latency, counter and completion slot);
* **traces** — a direct :class:`VectorRuntime` vs :class:`Runtime`
  comparison of the full event streams (transmitters, receptions with
  sender/mid, ack slots, wakes, rcv deliveries), per kind — the two
  executors interleave one slot's events differently but every per-kind
  stream must match event for event;
* **randomness** — :class:`NodeUniformBuffer` must reproduce each
  node's scalar ``Generator.random()`` stream exactly, in arbitrary
  take patterns, because that stream identity is what makes the two
  upper layers possible.
"""

from __future__ import annotations

import numpy as np
import pytest

from dataclasses import replace

from repro.analysis.harness import build_approg_stack, build_combined_stack
from repro.core.ack_protocol import AckConfig, AckMacLayer
from repro.core.approx_progress import ApproxProgressConfig, EpochSchedule
from repro.core.decay import DecayConfig, DecayMacLayer
from repro.core.events import MessageRegistry
from repro.experiments import (
    DeploymentSpec,
    ExecutionPolicy,
    TrialPlan,
    run_trials,
    seeded_plans,
)
from repro.experiments.cache import deployment_artifacts, resolve_deployment
from repro.simulation.rng import NodeUniformBuffer, spawn_node_rngs, spawn_trial_seeds
from repro.simulation.runtime import Runtime, RuntimeConfig
from repro.sinr.channel import Channel, JammingAdversary
from repro.vectorized import AckKernel, DecayKernel, VectorRuntime, vector_eligible
from repro.vectorized.kernels import ApproxProgressKernel, CombinedKernel

N = 12
RADIUS = 9.0
DEPLOYMENT = DeploymentSpec.of("uniform_disk", n=N, radius=RADIUS, seed=33)


# The paper's MAC at test size: Algorithm B.1 halts within ~300 slots,
# and one Algorithm 9.1 epoch is 252 virtual slots (one phase: est1 and
# est2 of T=34 slots, 5 MIS rounds, a 14-slot bcast block).
FAST_ACK = AckConfig(contention_bound=8.0, eps_ack=0.3, gamma_prime=1.0)
SMALL_APPROG = ApproxProgressConfig(
    lambda_bound=2.0, eps_approg=0.2, alpha=3.0, t_scale=0.1
)


def make_plans(stack, trials, broadcasters, **kwargs):
    base = TrialPlan(
        deployment=DEPLOYMENT,
        stack=stack,
        workload=kwargs.pop("workload", "local_broadcast"),
        broadcasters=broadcasters,
        label=f"eq-{stack}",
        **kwargs,
    )
    return seeded_plans(base, spawn_trial_seeds(trials, seed=5))


@pytest.mark.parametrize("stack", ["decay", "ack"])
@pytest.mark.parametrize("trials", [1, 8])
@pytest.mark.parametrize(
    "broadcasters", [None, (0, 1, 2)], ids=["sync", "staggered"]
)
def test_results_bit_identical(stack, trials, broadcasters):
    """The acceptance matrix: vectorized == object, field for field."""
    plans = make_plans(stack, trials, broadcasters)
    vec = run_trials(plans, ExecutionPolicy(vectorize=True))
    obj = run_trials(plans, ExecutionPolicy(vectorize=False))
    assert vec == obj
    # Guard against the trivial way this could pass: the runs did work.
    assert all(result.transmissions > 0 for result in vec)


@pytest.mark.parametrize("stack", ["decay", "ack"])
def test_results_bit_identical_fixed_slots(stack):
    """Fixed-budget workloads (incl. an observation tail) also match."""
    plans = make_plans(
        stack,
        4,
        None,
        workload="fixed_slots",
        options=TrialPlan.pack_options(slots=400),
        extra_slots=25,
    )
    assert run_trials(plans, ExecutionPolicy(vectorize=True)) == run_trials(
        plans, ExecutionPolicy(vectorize=False)
    )


def test_fixed_slots_defines_its_own_vector_finalize():
    """X101 regression: fixed_slots overrides finalize(), so it must
    carry its own vector_finalize twin — before reprolint, the vector
    path silently inherited the base hook and only matched the object
    path by coincidence of the eligible stacks having no schedule.
    Both hooks add ``epoch_slots`` exactly for stacks with a schedule."""
    from repro.core.approx_progress import ApproxProgressConfig, EpochSchedule
    from repro.experiments.workloads import FixedSlotsWorkload, get_workload

    assert "vector_finalize" in FixedSlotsWorkload.__dict__
    workload = get_workload("fixed_slots")
    plan = TrialPlan(
        deployment=DEPLOYMENT,
        workload="fixed_slots",
        options=TrialPlan.pack_options(slots=64),
    )
    assert workload.vector_ready(plan)
    schedule = EpochSchedule(ApproxProgressConfig(lambda_bound=4.0))

    for mac_schedule in (None, schedule):

        class Mac:  # Decay/Ack have none, Algorithms 9.1/11.1 one
            pass

        if mac_schedule is not None:
            Mac.schedule = mac_schedule

        class Stack:
            macs = [Mac()]

        class Runtime:
            def schedule(self, trial):
                return mac_schedule

        assert workload.vector_finalize(
            Runtime(), 0, plan, 64
        ) == workload.finalize(Stack(), plan, 64)


def test_results_bit_identical_without_physical_trace():
    """record_physical=False (production-throughput mode) matches too."""
    plans = make_plans("decay", 4, None, record_physical=False)
    vec = run_trials(plans, ExecutionPolicy(vectorize=True))
    assert vec == run_trials(plans, ExecutionPolicy(vectorize=False))
    assert all(result.approg_latencies == () for result in vec)
    assert all(result.ack_latencies for result in vec)


def test_heterogeneous_configs_one_batch():
    """An ε-sweep batches trials with different Ack configs; per-trial
    config columns must keep every trial on its own parameters."""
    plans = [
        TrialPlan(
            deployment=DEPLOYMENT,
            stack="ack",
            workload="local_broadcast",
            seed=11,
            eps_ack=eps,
            label=f"eps{eps}",
        )
        for eps in (0.4, 0.1, 0.01)
    ]
    assert run_trials(plans, ExecutionPolicy(vectorize=True)) == run_trials(
        plans, ExecutionPolicy(vectorize=False)
    )


def test_vectorize_true_rejects_ineligible_plans():
    """A label space above 2³² draws labels on numpy's 64-bit path,
    which the columnar feed does not replay: such plans stay on the
    object path."""
    plan = TrialPlan(
        deployment=DEPLOYMENT,
        stack="combined",
        workload="local_broadcast",
        ack_config=FAST_ACK,
        approg_config=replace(SMALL_APPROG, label_space=2**32 + 1),
    )
    assert not vector_eligible(plan)
    assert vector_eligible(replace(plan, approg_config=SMALL_APPROG))
    with pytest.raises(ValueError, match="not columnar-eligible"):
        run_trials([plan], ExecutionPolicy(vectorize=True))
    # Auto-selection silently routes it to the object path instead.
    assert run_trials([plan]) == run_trials(
        [plan], ExecutionPolicy(vectorize=False)
    )


@pytest.mark.parametrize("stack", ["combined", "approg"])
@pytest.mark.parametrize("trials", [1, 8])
@pytest.mark.parametrize(
    "broadcasters", [None, (0, 1, 2)], ids=["sync", "staggered"]
)
def test_paper_mac_results_bit_identical(stack, trials, broadcasters):
    """Algorithms 11.1 (local broadcast until every ack) and 9.1 (two
    epochs of a fixed budget) on the columnar path == object path."""
    kwargs = dict(approg_config=SMALL_APPROG)
    if stack == "combined":
        kwargs["ack_config"] = FAST_ACK
    else:
        kwargs["workload"] = "fixed_slots"
        kwargs["options"] = TrialPlan.pack_options(epochs=2)
    plans = make_plans(stack, trials, broadcasters, **kwargs)
    assert all(vector_eligible(plan) for plan in plans)
    vec = run_trials(plans, ExecutionPolicy(vectorize=True))
    obj = run_trials(plans, ExecutionPolicy(vectorize=False))
    assert vec == obj
    assert all(result.transmissions > 0 for result in vec)
    assert all(result.approg_latencies for result in vec)
    if stack == "approg":
        epoch = EpochSchedule(SMALL_APPROG).epoch_slots
        assert all(result.slots == 2 * epoch for result in vec)


@pytest.mark.parametrize("stack", ["ack", "combined"])
def test_rcv_dedup_without_the_seen_matrix(stack, monkeypatch):
    """Batches too big for the rcv-dedup matrix fall back to per-trial
    delivered sets; the results do not change."""
    import repro.vectorized.runtime as runtime_module

    plans = make_plans(
        stack, 2, None, ack_config=FAST_ACK, approg_config=SMALL_APPROG
    )
    obj = run_trials(plans, ExecutionPolicy(vectorize=False))
    monkeypatch.setattr(runtime_module, "SEEN_MATRIX_CAP", 0)
    assert run_trials(plans, ExecutionPolicy(vectorize=True)) == obj


def test_combined_epoch_budget_covers_whole_epochs():
    """Algorithm 9.1 owns every other slot of Algorithm 11.1, so an
    epoch budget on the combined stack is twice the schedule's slots
    (it used to run half an epoch); approg budgets are unchanged."""
    epoch = EpochSchedule(SMALL_APPROG).epoch_slots
    for stack, factor in (("combined", 2), ("approg", 1)):
        plans = make_plans(
            stack,
            2,
            None,
            workload="fixed_slots",
            options=TrialPlan.pack_options(epochs=1),
            ack_config=FAST_ACK,
            approg_config=SMALL_APPROG,
        )
        obj = run_trials(plans, ExecutionPolicy(vectorize=False))
        assert obj == run_trials(plans, ExecutionPolicy(vectorize=True))
        for result in obj:
            assert result.slots == factor * epoch
            assert result.extra_value("epoch_slots") == epoch


# -- trace-level equivalence ------------------------------------------------


def _object_stack(stack, config, seed, broadcasters, slots):
    points = resolve_deployment(DEPLOYMENT)
    params = TrialPlan(deployment=DEPLOYMENT).params
    artifacts = deployment_artifacts(points, params)
    registry = MessageRegistry()
    layer = DecayMacLayer if stack == "decay" else AckMacLayer
    macs = [layer(i, registry, config) for i in range(N)]
    channel = Channel(
        points,
        params,
        distances=artifacts.distances,
        gains=artifacts.gains,
    )
    runtime = Runtime(channel, macs, RuntimeConfig(seed=seed))
    for node in broadcasters:
        macs[node].bcast(payload=f"m{node}")
    runtime.run(slots)
    return runtime


def _vector_stack(stack, config, seed, broadcasters, slots):
    points = resolve_deployment(DEPLOYMENT)
    params = TrialPlan(deployment=DEPLOYMENT).params
    artifacts = deployment_artifacts(points, params)
    kernel_cls = DecayKernel if stack == "decay" else AckKernel
    channel = Channel(
        points,
        params,
        distances=artifacts.distances,
        gains=artifacts.gains,
    )
    runtime = VectorRuntime(
        [channel], kernel_cls([config], N), seeds=[seed]
    )
    for node in broadcasters:
        runtime.bcast(0, node, payload=f"m{node}")
    runtime.run(slots)
    return runtime


def _stream(trace, kind):
    """The (slot, node, data) stream of one event kind, normalizing
    message objects to their mids."""
    out = []
    for event in trace:
        if event.kind != kind:
            continue
        data = event.data
        if kind == "transmit":
            data = data.mid
        elif kind == "receive":
            sender, payload = data
            data = (sender, payload.mid)
        out.append((event.slot, event.node, data))
    return out


@pytest.mark.parametrize("stack", ["decay", "ack"])
@pytest.mark.parametrize(
    "broadcasters", [range(N), (0, 3, 7)], ids=["sync", "staggered"]
)
def test_trace_streams_bit_identical(stack, broadcasters):
    """Transmitters, receptions, ack slots, wakes, bcasts and rcv
    deliveries must match the object runtime event for event.

    Within one slot the object runtime interleaves events node by node
    while the columnar runtime groups them by kind, so the comparison
    is per kind — each kind's stream is fully ordered and must be
    equal, which pins slots, nodes, senders and message ids exactly.
    """
    config = (
        DecayConfig(contention_bound=16.0, eps_ack=0.2)
        if stack == "decay"
        else AckConfig(contention_bound=24.0, eps_ack=0.2)
    )
    slots = 300
    obj = _object_stack(stack, config, 77, broadcasters, slots)
    vec = _vector_stack(stack, config, 77, broadcasters, slots)
    for kind in ("bcast", "wake", "transmit", "receive", "rcv", "ack"):
        assert _stream(vec.trace, kind) == _stream(obj.trace, kind), kind
    assert len(vec.trace) == len(obj.trace)
    assert vec.slot == obj.slot == slots
    assert (
        vec.channels[0].total_transmissions
        == obj.channel.total_transmissions
    )
    assert vec.channels[0].total_receptions == obj.channel.total_receptions
    # The runs actually exercised the machinery under comparison.
    assert _stream(obj.trace, "transmit")
    assert _stream(obj.trace, "receive")


# Two phases per epoch and three MIS rounds of T=55 slots: phase 0 runs
# est1 on virtual slots 0-54, est2 on 55-109 and MIS rounds on 110-164,
# 165-219 and 220-274; an epoch is 560 virtual slots.
PHASED_APPROG = ApproxProgressConfig(
    lambda_bound=4.0,
    eps_approg=0.2,
    alpha=3.0,
    t_scale=0.1,
    bcast_scale=1.0,
    mis_round_budget=3,
)
PHASED_EPOCH = EpochSchedule(PHASED_APPROG).epoch_slots


def _paper_mac_pair(stack, config, broadcasters, slots, jam_slots=()):
    """The same Algorithm 9.1 / 11.1 run on the object runtime and on
    a one-trial VectorRuntime (fresh adversary each)."""
    points = resolve_deployment(DEPLOYMENT)
    params = TrialPlan(deployment=DEPLOYMENT).params
    artifacts = deployment_artifacts(points, params)

    def jammer():
        return JammingAdversary(jam_slots=set(jam_slots)) if jam_slots else None

    if stack == "approg":
        bundle = build_approg_stack(
            points, params, approg_config=config, seed=77, adversary=jammer()
        )
        kernel = ApproxProgressKernel([config], N)
    else:
        bundle = build_combined_stack(
            points,
            params,
            ack_config=FAST_ACK,
            approg_config=config,
            seed=77,
            adversary=jammer(),
        )
        kernel = CombinedKernel([FAST_ACK], [config], N)
    channel = Channel(
        points,
        params,
        adversary=jammer(),
        distances=artifacts.distances,
        gains=artifacts.gains,
    )
    vec = VectorRuntime([channel], kernel, seeds=[77])
    for node in broadcasters:
        bundle.macs[node].bcast(payload=f"m{node}")
        vec.bcast(0, node, payload=f"m{node}")
    bundle.runtime.run(slots)
    vec.run(slots)
    engines = [
        getattr(mac, "engine", None) or getattr(mac, "approg_engine", None)
        for mac in bundle.macs
    ]
    return bundle.runtime, vec, engines


def _raw_stream(trace, kind):
    """(slot, node, data) of one kind; payloads compare by value."""
    return [(e.slot, e.node, e.data) for e in trace if e.kind == kind]


@pytest.mark.parametrize(
    "case",
    ["dropout-rejoin", "label-collision", "mid-epoch-wake", "combined"],
)
def test_paper_mac_trace_streams_bit_identical(case):
    """Every event of Algorithms 9.1 / 11.1 — transmissions with their
    est1 / est2 / mis / bcast payloads, receptions, wakes, rcvs and
    acks — matches the object runtime per kind, on runs that reach what
    the Table 1 sweeps do not:

    * an MIS round end with dropouts (round 1 of epoch 0 jammed), and
      the dropped nodes rejoining at the next epoch boundary;
    * label collisions (a label space of 2);
    * nodes woken mid-epoch by a decode, observing until the boundary;
    * Algorithm 11.1's interleave with acknowledgments.
    """
    # Into phase 0 of epoch 1, past its est1 block.
    stack, config, broadcasters = "approg", PHASED_APPROG, range(N)
    slots, jam = PHASED_EPOCH + 60, ()
    if case == "dropout-rejoin":
        jam = range(165, 220)
    elif case == "label-collision":
        config = replace(PHASED_APPROG, label_space=2)
        slots = PHASED_EPOCH // 2 + 60  # into phase 1
    elif case == "mid-epoch-wake":
        broadcasters = (0, 3, 7)
    else:
        stack, broadcasters, slots = "combined", (0, 3, 7), 2 * PHASED_EPOCH
    obj, vec, engines = _paper_mac_pair(stack, config, broadcasters, slots, jam)
    for kind in ("bcast", "wake", "transmit", "receive", "rcv", "ack"):
        assert _raw_stream(vec.trace, kind) == _raw_stream(obj.trace, kind), kind
    assert len(vec.trace) == len(obj.trace)
    assert vec.channels[0].total_receptions == obj.channel.total_receptions
    kernel = vec.kernel.approg if stack == "combined" else vec.kernel
    assert kernel.drops.tolist() == [e.drops if e else 0 for e in engines]
    assert kernel.label.tolist() == [e._label if e else 0 for e in engines]
    # The runs reach what they are meant to reach.
    payloads = {e.data[0] for e in obj.trace.of_kind("transmit") if type(e.data) is tuple}
    assert payloads == {"est1", "est2", "mis"}
    assert obj.trace.count("rcv") > 0  # bcast-block deliveries
    if case == "dropout-rejoin":
        dropped = np.flatnonzero(kernel.drops)
        assert dropped.size
        rejoined = {
            e.node
            for e in obj.trace.of_kind("transmit")
            if PHASED_EPOCH <= e.slot < PHASED_EPOCH + 55
        }
        assert rejoined & set(dropped.tolist())
    elif case == "label-collision":
        assert len(set(kernel.label.tolist())) < N
    elif case == "mid-epoch-wake":
        woken = [
            e.slot for e in obj.trace.of_kind("wake") if e.node not in broadcasters
        ]
        assert any(slot % PHASED_EPOCH for slot in woken)
    else:
        assert obj.trace.count("ack") == len(broadcasters)


def test_ack_kernel_fallback_state_matches_engine():
    """Drive one AckEngine and the kernel through the same uniform
    stream with reception feedback; the columnar state columns must
    track the scalar engine's fields exactly (incl. fallbacks)."""
    from repro.core.ack_protocol import AckEngine

    config = AckConfig(
        contention_bound=8.0, eps_ack=0.3, rc_factor=0.5, gamma_prime=1.0
    )
    rng = np.random.default_rng(3)
    uniforms = rng.random(2000)

    class _FixedRng:
        def __init__(self, values):
            self._it = iter(values)

        def random(self):
            return next(self._it)

    engine = AckEngine(config, _FixedRng(uniforms))
    kernel = AckKernel([config], 1)
    idx = np.array([0], dtype=np.intp)
    step = 0
    while not engine.halted and step < uniforms.size:
        transmit = engine.step()
        k_transmit, k_halted = kernel.step(
            idx, np.array([uniforms[step]])
        )
        assert bool(k_transmit[0]) == transmit
        assert bool(k_halted[0]) == engine.halted
        assert kernel.probability[0] == engine.probability
        assert kernel.tp[0] == engine.tp
        assert kernel.rc[0] == engine.rc
        assert kernel.fallbacks[0] == engine.fallbacks
        # Feed overheard traffic periodically to exercise fallback.
        if step % 25 == 0 and not engine.halted:
            engine.notify_reception()
            kernel.notify(idx)
            assert bool(kernel.fallback_pending[0]) == engine._fallback_pending
        step += 1
    assert engine.halted, "test must reach the halting line"
    assert engine.fallbacks > 0, "test must exercise the fallback path"


# -- bulk RNG pre-draw ------------------------------------------------------


def test_bulk_uniforms_match_scalar_stream():
    """NodeUniformBuffer serves exactly each node's scalar stream, in
    order, under an adversarial (irregular, chunk-crossing) take
    pattern."""
    n = 7
    buffered = NodeUniformBuffer(spawn_node_rngs(n, seed=123), chunk=5)
    scalar = spawn_node_rngs(n, seed=123)
    drawn: dict[int, list[float]] = {i: [] for i in range(n)}
    rng = np.random.default_rng(9)
    for _round in range(40):
        lanes = np.flatnonzero(rng.random(n) < 0.6)
        if lanes.size == 0:
            continue
        values = buffered.take(lanes)
        for lane, value in zip(lanes.tolist(), values.tolist()):
            drawn[lane].append(value)
    for lane in range(n):
        expected = [scalar[lane].random() for _ in drawn[lane]]
        assert drawn[lane] == expected
    assert any(len(v) > 5 for v in drawn.values()), "must cross a refill"


def test_bulk_uniforms_validate_chunk():
    with pytest.raises(ValueError):
        NodeUniformBuffer(spawn_node_rngs(2, seed=0), chunk=0)
