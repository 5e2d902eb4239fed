"""Columnar protocol kernels (BSMB/BMMB/consensus): decode-for-decode
identity with the object runtime.

The same three layers of evidence as ``test_vectorized_equivalence.py``
pins for the Decay/Ack MAC kernels, one level up the stack:

* **results** — ``run_trials`` over {smb, mmb, consensus} × {decay, ack}
  × {1, 8 trials} × {sync, staggered start} (and k ∈ {1, 4} messages
  for BMMB) returns dataclass-equal :class:`TrialResult` lists with
  ``vectorize=True`` and ``vectorize=False``;
* **traces** — direct :class:`VectorRuntime`-with-adapter vs object
  :class:`Runtime` comparisons of the full per-kind event streams,
  including the protocol-layer kinds (``bcast`` of relays/waves,
  ``decide``);
* **state machinery** — rebroadcast kernel resets, FIFO queue columns,
  and the max-(id, value) flood columns behave exactly like their
  object twins, including under failure injection (the adversary
  delivery path).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.harness import build_ack_stack, build_decay_stack
from repro.core.ack_protocol import AckConfig
from repro.core.decay import DecayConfig
from repro.experiments import (
    DeploymentSpec,
    ExecutionPolicy,
    TrialPlan,
    run_trials,
    seeded_plans,
)
from repro.experiments.cache import deployment_artifacts, resolve_deployment
from repro.protocols.bmmb import BmmbClient
from repro.protocols.bsmb import BsmbClient
from repro.protocols.consensus import ConsensusClient
from repro.simulation.rng import spawn_trial_seeds
from repro.sinr.channel import Channel, JammingAdversary
from repro.vectorized import (
    AckKernel,
    BmmbClients,
    BsmbClients,
    ConsensusClients,
    DecayKernel,
    VectorMacAdapter,
    VectorRuntime,
    vector_eligible,
)

N = 12
RADIUS = 9.0
DEPLOYMENT = DeploymentSpec.of("uniform_disk", n=N, radius=RADIUS, seed=33)

WAVES = 4
EVENT_KINDS = (
    "bcast",
    "wake",
    "transmit",
    "receive",
    "rcv",
    "ack",
    "decide",
)


def protocol_plan(workload, stack, **kwargs):
    if workload == "smb":
        options = TrialPlan.pack_options(
            source=kwargs.pop("source", 0)
        )
    elif workload == "mmb":
        options = TrialPlan.pack_options(arrivals=kwargs.pop("arrivals"))
    else:
        options = TrialPlan.pack_options(
            waves=WAVES, values=kwargs.pop("values", None)
        )
    return TrialPlan(
        deployment=DEPLOYMENT,
        stack=stack,
        workload=workload,
        options=options,
        label=f"eq-{workload}-{stack}",
        **kwargs,
    )


# -- result-level equivalence (the acceptance matrix) -----------------------


@pytest.mark.slow
@pytest.mark.parametrize("stack", ["decay", "ack"])
@pytest.mark.parametrize("trials", [1, 8])
@pytest.mark.parametrize("source", [0, 7], ids=["sync", "staggered"])
def test_smb_results_bit_identical(stack, trials, source):
    plans = seeded_plans(
        protocol_plan("smb", stack, source=source),
        spawn_trial_seeds(trials, seed=5),
    )
    assert all(vector_eligible(plan) for plan in plans)
    vec = run_trials(plans, ExecutionPolicy(vectorize=True))
    obj = run_trials(plans, ExecutionPolicy(vectorize=False))
    assert vec == obj
    # The broadcast really crossed the network: every completion is a
    # positive slot count and relays transmitted beyond the source.
    assert all(result.completion > 0 for result in vec)
    assert all(result.broadcasts == N for result in vec)


@pytest.mark.slow
@pytest.mark.parametrize("stack", ["decay", "ack"])
@pytest.mark.parametrize("trials", [1, 8])
@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("spread", [False, True], ids=["sync", "staggered"])
def test_mmb_results_bit_identical(stack, trials, k, spread):
    tokens = tuple(f"msg-{j}" for j in range(k))
    if spread:
        arrivals = tuple(
            (j % N, (token,)) for j, token in enumerate(tokens)
        )
    else:
        arrivals = ((0, tokens),)
    plans = seeded_plans(
        protocol_plan("mmb", stack, arrivals=arrivals),
        spawn_trial_seeds(trials, seed=6),
    )
    assert all(vector_eligible(plan) for plan in plans)
    vec = run_trials(plans, ExecutionPolicy(vectorize=True))
    obj = run_trials(plans, ExecutionPolicy(vectorize=False))
    assert vec == obj
    assert all(result.completion > 0 for result in vec)
    # Relaying happened (the final relays may still await their acks at
    # the completion slot, so the acked count is below n·k).
    assert all(result.broadcasts >= N for result in vec)


@pytest.mark.slow
@pytest.mark.parametrize("stack", ["decay", "ack"])
@pytest.mark.parametrize("trials", [1, 8])
@pytest.mark.parametrize("explicit_values", [False, True])
def test_consensus_results_bit_identical(stack, trials, explicit_values):
    values = tuple(1 - (i % 2) for i in range(N)) if explicit_values else None
    plans = seeded_plans(
        protocol_plan("consensus", stack, values=values),
        spawn_trial_seeds(trials, seed=7),
    )
    assert all(vector_eligible(plan) for plan in plans)
    vec = run_trials(plans, ExecutionPolicy(vectorize=True))
    obj = run_trials(plans, ExecutionPolicy(vectorize=False))
    assert vec == obj
    expected = (
        values[N - 1] if explicit_values else (N - 1) % 2
    )  # max-id node's input
    for result in vec:
        assert result.extra_value("agreed") is True
        assert result.extra_value("decided_value") == expected
        # Every node performed all its waves: n·waves acked broadcasts.
        assert result.broadcasts == N * WAVES


def test_mixed_protocol_sweep_one_call():
    """One run_trials call mixing all three protocol workloads (and a
    bare one) over one deployment: the engine must split them into
    per-workload vector batches and still match the object path."""
    plans = [
        protocol_plan("smb", "decay", seed=3),
        protocol_plan("consensus", "decay", seed=4),
        protocol_plan("mmb", "decay", arrivals=((0, ("a", "b")),), seed=5),
        TrialPlan(
            deployment=DEPLOYMENT,
            stack="decay",
            workload="local_broadcast",
            seed=6,
        ),
    ]
    assert run_trials(plans, ExecutionPolicy(vectorize=True)) == run_trials(
        plans, ExecutionPolicy(vectorize=False)
    )


def test_combined_stack_protocols_stay_on_object_path():
    """The Table-1 headline stack (Algorithm 11.1) has no columnar
    kernel: protocol plans over it are ineligible and auto-selection
    must route them to the object executor unchanged."""
    plan = protocol_plan("smb", "decay")
    combined = TrialPlan(
        deployment=DEPLOYMENT,
        stack="combined",
        workload="smb",
        options=TrialPlan.pack_options(source=0),
    )
    assert vector_eligible(plan)
    assert not vector_eligible(combined)
    with pytest.raises(ValueError, match="not columnar-eligible"):
        run_trials([combined], ExecutionPolicy(vectorize=True))


# -- trace-level equivalence ------------------------------------------------


def _artifacts():
    points = resolve_deployment(DEPLOYMENT)
    params = TrialPlan(deployment=DEPLOYMENT).params
    return points, params, deployment_artifacts(points, params)


def _mac_config(stack):
    return (
        DecayConfig(contention_bound=16.0, eps_ack=0.2)
        if stack == "decay"
        else AckConfig(contention_bound=24.0, eps_ack=0.2)
    )


def _object_protocol_stack(stack, workload, seed, slots, drop=0.0):
    points, params, artifacts = _artifacts()
    config = _mac_config(stack)
    builder = build_decay_stack if stack == "decay" else build_ack_stack
    if workload == "smb":
        factory = lambda i: BsmbClient()  # noqa: E731
    elif workload == "mmb":
        factory = lambda i: BmmbClient()  # noqa: E731
    else:
        factory = lambda i: ConsensusClient(i, i % 2, waves=WAVES)  # noqa: E731
    adversary = (
        JammingAdversary(drop_probability=drop, rng=np.random.default_rng(1))
        if drop
        else None
    )
    kwargs = dict(
        client_factory=factory,
        seed=seed,
        adversary=adversary,
    )
    if stack == "decay":
        stack_bundle = builder(points, params, decay_config=config, **kwargs)
    else:
        stack_bundle = builder(points, params, ack_config=config, **kwargs)
    _start_object_workload(stack_bundle, workload)
    stack_bundle.runtime.run(slots)
    return stack_bundle.runtime


def _start_object_workload(bundle, workload):
    if workload == "smb":
        bundle.clients[0].start_as_source(bundle.macs[0], "smb-message")
    elif workload == "mmb":
        arrivals = {0: ["m-a", "m-b"], 3: ["m-c"]}
        for node, tokens in arrivals.items():
            bundle.macs[node].wake()
            for token in tokens:
                bundle.clients[node].arrive(token, slot=0)
    else:
        for mac in bundle.macs:
            mac.wake()


def _vector_protocol_stack(stack, workload, seed, slots, drop=0.0):
    points, params, artifacts = _artifacts()
    config = _mac_config(stack)
    kernel_cls = DecayKernel if stack == "decay" else AckKernel
    adversary = (
        JammingAdversary(drop_probability=drop, rng=np.random.default_rng(1))
        if drop
        else None
    )
    channel = Channel(
        points,
        params,
        adversary=adversary,
        distances=artifacts.distances,
        gains=artifacts.gains,
    )
    runtime = VectorRuntime([channel], kernel_cls([config], N), seeds=[seed])
    adapter = VectorMacAdapter(runtime)
    if workload == "smb":
        clients = BsmbClients(adapter)
        adapter.install(clients)
        clients.start_as_source(0, 0, "smb-message")
    elif workload == "mmb":
        clients = BmmbClients(adapter, [["m-a", "m-b", "m-c"]])
        adapter.install(clients)
        for node, tokens in ((0, ["m-a", "m-b"]), (3, ["m-c"])):
            runtime.wake_node(0, node)
            for token in tokens:
                clients.arrive(0, node, token)
    else:
        clients = ConsensusClients(
            adapter, waves=[WAVES], values=[[i % 2 for i in range(N)]]
        )
        adapter.install(clients)
        clients.start(0)
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
@pytest.mark.parametrize("workload", ["smb", "mmb", "consensus"])
def test_trace_streams_bit_identical(stack, workload):
    """Every per-kind event stream — including the protocol-layer
    ``bcast`` rebroadcasts and consensus ``decide`` outputs — must
    match the object runtime event for event."""
    slots = 420 if stack == "decay" else 700
    if workload == "consensus" and stack == "ack":
        slots = 4200  # four Algorithm-B.1 waves need room to complete
    obj = _object_protocol_stack(stack, workload, 77, slots)
    vec = _vector_protocol_stack(stack, workload, 77, slots)
    for kind in EVENT_KINDS:
        assert _stream(vec.trace, kind) == _stream(obj.trace, kind), kind
    assert len(vec.trace) == len(obj.trace)
    assert vec.slot == obj.slot == slots
    assert (
        vec.channels[0].total_transmissions
        == obj.channel.total_transmissions
    )
    assert vec.channels[0].total_receptions == obj.channel.total_receptions
    # The run exercised the reactive layer: relays/waves rebroadcast.
    assert len(_stream(obj.trace, "bcast")) > 1
    assert _stream(obj.trace, "rcv")
    if workload == "consensus":
        assert _stream(obj.trace, "decide")


@pytest.mark.parametrize("workload", ["mmb", "consensus"])
def test_trace_streams_with_failure_injection(workload):
    """The adversary delivery path: erased receptions must suppress the
    same wakes/rcvs/client reactions on both executors (same adversary
    RNG stream), including the Ack fallback feedback."""
    slots = 700
    obj = _object_protocol_stack("ack", workload, 11, slots, drop=0.3)
    vec = _vector_protocol_stack("ack", workload, 11, slots, drop=0.3)
    for kind in EVENT_KINDS:
        assert _stream(vec.trace, kind) == _stream(obj.trace, kind), kind
    assert (
        vec.channels[0].adversary.erased_count
        == obj.channel.adversary.erased_count
        > 0
    )


# -- rebroadcast state machinery --------------------------------------------


@pytest.mark.parametrize("kernel_cls", [DecayKernel, AckKernel])
def test_kernel_reset_restores_fresh_engine_state(kernel_cls):
    """reset() must reproduce freshly constructed engine columns — the
    rebroadcast rule's foundation."""
    config = (
        DecayConfig(contention_bound=16.0)
        if kernel_cls is DecayKernel
        else AckConfig(contention_bound=8.0, eps_ack=0.3)
    )
    fresh = kernel_cls([config], 4)
    used = kernel_cls([config], 4)
    idx = np.arange(4, dtype=np.intp)
    rng = np.random.default_rng(2)
    for _ in range(30):
        used.step(idx, rng.random(4))
        used.notify(idx)
    used.reset(idx)
    for name, column in vars(fresh).items():
        if isinstance(column, np.ndarray):
            assert np.array_equal(
                column, getattr(used, name)
            ), f"column {name} not restored by reset()"


def test_rebroadcast_requires_idle_cell():
    points, params, artifacts = _artifacts()
    channel = Channel(
        points,
        params,
        distances=artifacts.distances,
        gains=artifacts.gains,
    )
    runtime = VectorRuntime(
        [channel],
        DecayKernel([DecayConfig(contention_bound=16.0)], N),
        seeds=[0],
    )
    runtime.bcast(0, 2, payload="first")
    with pytest.raises(RuntimeError, match="already broadcasting"):
        runtime.bcast(0, 2, payload="second")
