"""Executable lower-bound experiments.

Each function runs a protocol (or an idealized scheduler) on one of the
adversarial geometries and returns the measured progress latencies, so
the benchmarks and tests can compare them against the predicted
Ω-bounds.
"""

from __future__ import annotations

import numpy as np

from repro.core.approx_progress import (
    ApproxProgressConfig,
    ApproxProgressMacLayer,
    EpochSchedule,
)
from repro.core.decay import DecayConfig, DecayMacLayer
from repro.core.events import MessageRegistry
from repro.lowerbounds.constructions import (
    DecayLowerBoundNetwork,
    ProgressLowerBoundNetwork,
)
from repro.simulation.runtime import Runtime, RuntimeConfig
from repro.simulation.trace import ABSENT, RECEIVE

__all__ = [
    "optimal_schedule_progress",
    "power_controlled_progress",
    "measure_decay_progress",
    "measure_approx_progress_on",
]


def optimal_schedule_progress(network: ProgressLowerBoundNetwork) -> dict:
    """Theorem 6.1's centralized adversary argument, executed.

    An omniscient scheduler serves the Δ broadcasting V-nodes one per
    slot (the best possible, since the geometry blocks any two
    concurrent cross links).  Returns the per-U-node progress slots and
    their maximum, which equals Δ — the lower bound — and verifies that
    scheduling two pairs at once yields zero receptions.

    The concurrency probe needs two V-nodes; on a degenerate Δ < 2
    network it is skipped, flagged by ``concurrency_probed=False`` with
    ``concurrent_receptions=None`` (it used to index nodes 0 and 1
    unconditionally, a ``KeyError`` waiting for the first Δ=1 input).
    """
    channel = network.channel()
    registry = MessageRegistry()
    messages = {
        v: registry.mint(v, payload=f"lb-{v}") for v in network.v_nodes
    }
    progress_slot: dict[int, int] = {}
    # Optimal: round-robin, one V-node per slot.
    for slot, v in enumerate(network.v_nodes):
        outcome = channel.resolve_slot({v: messages[v]})
        for listener, (sender, payload) in outcome.receptions.items():
            if listener in network.u_nodes and listener not in progress_slot:
                if network.graph.has_edge(payload.origin, listener):
                    progress_slot[listener] = slot + 1  # 1-based latency
    # Sanity: concurrent cross transmissions deliver nothing to U —
    # probed with the first two V-nodes (not hard-coded ids).
    if len(network.v_nodes) >= 2:
        first, second = network.v_nodes[:2]
        pair = channel.resolve_slot(
            {first: messages[first], second: messages[second]}
        )
        concurrent = sum(1 for u in pair.receptions if u in network.u_nodes)
        probed = True
    else:
        concurrent = None
        probed = False
    return {
        "per_node_progress": progress_slot,
        "max_progress": max(progress_slot.values()) if progress_slot else None,
        "served_all": len(progress_slot) == network.delta,
        "concurrent_receptions": concurrent,
        "concurrency_probed": probed,
    }


def power_controlled_progress(
    network: ProgressLowerBoundNetwork,
    concurrency: int = 4,
    trials: int = 200,
    power_spread: float = 100.0,
    seed: int = 0,
) -> dict:
    """Theorem 6.1's strongest form: power control does not help.

    The theorem allows the central scheduler to pick an *arbitrary
    power assignment*.  This experiment schedules ``concurrency``
    simultaneous cross pairs with random per-sender powers in
    ``[P, power_spread·P]`` over many trials and counts how many
    U-nodes ever decode their partner in one slot.  The geometry makes
    boosting self-defeating: every V-node is nearly equidistant from
    every U-node, so raising one sender's power raises the interference
    at all other receivers by the same factor.  At most one pair per
    slot succeeds, so f_prog >= Δ survives power control.
    """
    from repro.sinr.physics import successful_receptions

    if concurrency < 2:
        raise ValueError("concurrency must be >= 2 to probe blocking")
    if concurrency > network.delta:
        raise ValueError("concurrency cannot exceed delta")
    rng = np.random.default_rng(seed)
    channel = network.channel()
    distances = channel.distances
    max_successes = 0
    total_successes = 0
    for _ in range(trials):
        senders = rng.choice(
            network.delta, size=concurrency, replace=False
        ).astype(np.intp)
        powers = network.params.power * (
            1.0 + rng.random(concurrency) * (power_spread - 1.0)
        )
        decoded = successful_receptions(
            network.params, distances, senders, tx_powers=powers
        )
        cross = sum(
            1
            for listener, sender in decoded.items()
            if listener in network.u_nodes
            and listener == network.partner(int(sender))
        )
        max_successes = max(max_successes, cross)
        total_successes += cross
    return {
        "trials": trials,
        "concurrency": concurrency,
        "max_cross_successes_per_slot": max_successes,
        "mean_cross_successes_per_slot": total_successes / trials,
        "implied_fprog_lower_bound": network.delta
        / max(max_successes, 1),
    }


def _first_b1_progress_slot(runtime: Runtime, network) -> int | None:
    """Slot of the first physical bcast-message reception inside B1
    from a G-neighbor (read off the trace's columns: the done-predicate
    polls this every few slots)."""
    columns = runtime.trace.columns()
    rows = np.flatnonzero(
        (columns.code == RECEIVE)
        & (columns.origin != ABSENT)
        & np.isin(columns.node, list(network.b1_nodes))
    )
    for node, origin, slot in zip(
        columns.node[rows].tolist(),
        columns.origin[rows].tolist(),
        columns.slot[rows].tolist(),
    ):
        if network.graph.has_edge(origin, node):
            return slot
    return None


def measure_decay_progress(
    network: DecayLowerBoundNetwork,
    eps: float = 0.1,
    max_slots: int = 400_000,
    seed: int = 0,
    vectorized: bool = True,
) -> dict:
    """Run Decay with everyone broadcasting; time B1's first progress.

    The Theorem 8.1 scenario: both balls broadcast under Decay, and the
    measured quantity is how long until one B1 node receives the other's
    message.  Expected to scale linearly with Δ (· log(1/ε)).

    ``vectorized`` (default) advances the homogeneous Decay population
    on the columnar :class:`~repro.vectorized.VectorRuntime` —
    decode-for-decode identical to the object runtime (same seeds, same
    trace, same progress slot; the equivalence tests pin it), so the
    flag only changes wall-clock, which matters because this experiment
    is rerun for every (Δ, seed) point of the Theorem 8.1 sweep.
    """
    n = 2 + network.delta
    config = DecayConfig(
        contention_bound=max(float(n), 2.0), eps_ack=eps, ack_factor=8.0
    )
    if vectorized:
        from repro.vectorized import DecayKernel, VectorRuntime

        runtime = VectorRuntime(
            [network.channel()],
            DecayKernel([config], n),
            seeds=[seed],
            max_slots=max_slots,
        )
        for node in range(n):
            runtime.bcast(0, node, payload=f"decay-{node}")
    else:
        registry = MessageRegistry()
        macs = [DecayMacLayer(i, registry, config) for i in range(n)]
        runtime = Runtime(
            network.channel(),
            macs,
            RuntimeConfig(seed=seed, max_slots=max_slots),
        )
        for mac in macs:
            mac.bcast(payload=f"decay-{mac.node_id}")

    def b1_done(rt) -> bool:
        return _first_b1_progress_slot(rt, network) is not None

    try:
        runtime.run_until(b1_done, check_every=64)
        slot = _first_b1_progress_slot(runtime, network)
    except RuntimeError:
        slot = None  # budget exhausted: worse than max_slots
    return {
        "progress_slot": slot,
        "slots_simulated": runtime.slot,
        "completed": slot is not None,
    }


def measure_approx_progress_on(
    network: DecayLowerBoundNetwork,
    eps: float = 0.1,
    max_slots: int = 400_000,
    seed: int = 0,
    config: ApproxProgressConfig | None = None,
) -> dict:
    """Run Algorithm 9.1 on the same geometry; time B1's first progress.

    Expected to stay polylogarithmic in Δ — the upper-bound half of the
    Theorem 8.1 separation.
    """
    from repro.sinr.graphs import link_length_ratio

    n = 2 + network.delta
    registry = MessageRegistry()
    if config is None:
        lam = max(link_length_ratio(network.graph), 2.0)
        config = ApproxProgressConfig(
            lambda_bound=lam,
            eps_approg=eps,
            alpha=network.params.alpha,
        )
    schedule = EpochSchedule(config)
    macs = [
        ApproxProgressMacLayer(i, registry, schedule) for i in range(n)
    ]
    runtime = Runtime(
        network.channel(),
        macs,
        RuntimeConfig(seed=seed, max_slots=max_slots),
    )
    for mac in macs:
        mac.bcast(payload=f"approg-{mac.node_id}")

    def b1_done(rt: Runtime) -> bool:
        return _first_b1_progress_slot(rt, network) is not None

    try:
        runtime.run_until(b1_done, check_every=64)
        slot = _first_b1_progress_slot(runtime, network)
    except RuntimeError:
        slot = None
    return {
        "progress_slot": slot,
        "slots_simulated": runtime.slot,
        "completed": slot is not None,
        "epoch_slots": schedule.epoch_slots,
    }
