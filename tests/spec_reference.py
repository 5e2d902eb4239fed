"""Reference loop implementations of the absMAC spec measurements.

These are the event-by-event scans :mod:`repro.core.spec` used before
it measured traces as array operations, kept verbatim (only the report
types are imported from the library) as the differential oracle of
``tests/test_spec_oracle.py``: for any trace and graphs, the library's
reports must equal these.
"""

from __future__ import annotations

import networkx as nx

from repro.core.events import BcastMessage
from repro.core.spec import (
    AbsMacContract,
    AckRecord,
    AckReport,
    EpochProgressReport,
    ProgressRecord,
    ProgressReport,
)
from repro.simulation.trace import EventTrace


def broadcast_intervals(trace: EventTrace) -> dict[int, tuple[int, int, int]]:
    """Extract per-message active intervals from a trace.

    Returns ``mid -> (origin, bcast_slot, end_slot)`` where ``end_slot``
    is the ack/abort slot or the end of the trace for still-active
    broadcasts.
    """
    intervals: dict[int, tuple[int, int, int]] = {}
    horizon = trace.last_slot() + 1
    for event in trace:
        if event.kind == "bcast":
            intervals[event.data] = (event.node, event.slot, horizon)
        elif event.kind in ("ack", "abort") and event.data in intervals:
            origin, start, _ = intervals[event.data]
            intervals[event.data] = (origin, start, event.slot)
    return intervals


def _first_deliveries(trace: EventTrace) -> dict[tuple[int, int], int]:
    """(node, mid) -> slot of the node's rcv event for that message."""
    deliveries: dict[tuple[int, int], int] = {}
    for event in trace:
        if event.kind == "rcv":
            key = (event.node, event.data)
            if key not in deliveries:
                deliveries[key] = event.slot
    return deliveries


def measure_acknowledgments(
    trace: EventTrace,
    graph: nx.Graph,
    intervals: dict[int, tuple[int, int, int]] | None = None,
) -> AckReport:
    """Measure every broadcast's ack latency and neighbor coverage.

    ``intervals`` optionally reuses a precomputed
    :func:`broadcast_intervals` scan — callers measuring several
    quantities over one big trace (the experiment engine's per-trial
    result assembly) share one pass instead of rescanning per measure.
    """
    if intervals is None:
        intervals = broadcast_intervals(trace)
    deliveries = _first_deliveries(trace)
    acks = {
        event.data: event.slot for event in trace if event.kind == "ack"
    }
    report = AckReport()
    for mid, (origin, bcast_slot, _end) in sorted(intervals.items()):
        ack_slot = acks.get(mid)
        neighbors = [v for v in graph.neighbors(origin)]
        if ack_slot is None:
            covered = 0
        else:
            covered = sum(
                1
                for v in neighbors
                if deliveries.get((v, mid), ack_slot + 1) <= ack_slot
            )
        report.records.append(
            AckRecord(
                mid=mid,
                origin=origin,
                bcast_slot=bcast_slot,
                ack_slot=ack_slot,
                neighbor_count=len(neighbors),
                covered_by_ack=covered,
            )
        )
    return report


def _neighbor_origin_receptions(
    trace: EventTrace, graph: nx.Graph
) -> dict[int, list[int]]:
    """node -> sorted slots of physical receptions of bcast-messages
    originating at a G-neighbor of the node."""
    receptions: dict[int, list[int]] = {}
    # Raw adjacency-dict lookups instead of has_node/has_edge calls:
    # physical receive events are the bulkiest trace kind (one per
    # decode), so this scan is measurement's hottest loop on big
    # populations and the Mapping-protocol wrappers around `graph.adj`
    # cost more than the membership tests themselves.
    adjacency = _plain_adjacency(graph)
    for event in trace:
        if event.kind != "receive":
            continue
        _sender, payload = event.data
        if not isinstance(payload, BcastMessage):
            continue
        neighbors = adjacency.get(event.node)
        if neighbors is None:
            continue
        if payload.origin == event.node:
            continue
        if payload.origin in neighbors:
            receptions.setdefault(event.node, []).append(event.slot)
    for slots in receptions.values():
        slots.sort()
    return receptions


def _plain_adjacency(graph: nx.Graph) -> dict:
    """The graph's node -> neighbor-dict mapping as plain dicts.

    ``graph._adj`` is the stable networkx backing store (dict of
    dicts); falling back to materializing ``graph.adj`` keeps exotic
    graph subclasses working.
    """
    adjacency = getattr(graph, "_adj", None)
    if isinstance(adjacency, dict):
        return adjacency
    return {node: dict(neighbors) for node, neighbors in graph.adj.items()}


def _measure_episodes(
    trace: EventTrace,
    comm_graph: nx.Graph,
    trigger_graph: nx.Graph,
    intervals: dict[int, tuple[int, int, int]] | None = None,
) -> ProgressReport:
    """Shared core of progress and approximate-progress measurement.

    An *episode* starts at the earliest slot at which some
    ``trigger_graph``-neighbor of v has an active broadcast; it is
    satisfied when v physically receives a bcast-message originating at a
    ``comm_graph``-neighbor.  One episode per (receiver, broadcast) pair:
    we take the earliest trigger per receiver for a conservative
    measurement (longest exposure).
    """
    if intervals is None:
        intervals = broadcast_intervals(trace)
    receptions = _neighbor_origin_receptions(trace, comm_graph)
    # Earliest broadcast start per origin, then one adjacency walk per
    # receiver: min over a node's broadcasting neighbors equals the old
    # min over every (interval, has_edge) pair, without the
    # O(nodes × broadcasts) edge probes that dominated measurement on
    # thousand-node all-broadcast sweeps.
    earliest_start: dict[int, int] = {}
    for origin, start, _end in intervals.values():
        known = earliest_start.get(origin)
        if known is None or start < known:
            earliest_start[origin] = start
    report = ProgressReport()
    adjacency = _plain_adjacency(trigger_graph)
    for v in trigger_graph.nodes:
        triggers = [
            earliest_start[u] for u in adjacency[v] if u in earliest_start
        ]
        if not triggers:
            continue
        start = min(triggers)
        after = [s for s in receptions.get(v, []) if s >= start]
        latency = (after[0] - start) if after else None
        report.records.append(ProgressRecord(v, start, latency))
    return report


def measure_progress(trace: EventTrace, graph: nx.Graph) -> ProgressReport:
    """Standard progress: trigger and reception both w.r.t. G."""
    return _measure_episodes(trace, graph, graph)


def measure_approximate_progress(
    trace: EventTrace,
    comm_graph: nx.Graph,
    approx_graph: nx.Graph,
    intervals: dict[int, tuple[int, int, int]] | None = None,
) -> ProgressReport:
    """Definition 7.1: triggers in G̃, receptions from G-neighbors.

    ``intervals`` optionally shares a :func:`broadcast_intervals` scan
    (see :func:`measure_acknowledgments`).
    """
    return _measure_episodes(trace, comm_graph, approx_graph, intervals)


def measure_epoch_progress(
    trace: EventTrace,
    comm_graph: nx.Graph,
    approx_graph: nx.Graph,
    epoch_slots: int,
    first_epoch: int = 0,
) -> EpochProgressReport:
    """Validate Theorem 9.1 statistically, epoch by epoch.

    The theorem promises: in every epoch, a node whose G̃-neighbor has
    an ongoing broadcast receives some G-origin message within the
    epoch, with probability ≥ 1 − ε_approg.  Each (node, epoch) pair
    where some G̃-neighbor's broadcast covers the *entire* epoch is one
    Bernoulli trial; the report aggregates successes.  ``epoch_slots``
    is the physical epoch length (double the schedule's virtual length
    for the combined layer).  ``first_epoch`` skips warm-up epochs
    (nodes that woke mid-epoch join only at the next boundary).
    """
    if epoch_slots < 1:
        raise ValueError("epoch_slots must be >= 1")
    intervals = broadcast_intervals(trace)
    receptions = _neighbor_origin_receptions(trace, comm_graph)
    horizon = trace.last_slot() + 1
    n_epochs = horizon // epoch_slots
    report = EpochProgressReport()
    for epoch in range(first_epoch, n_epochs):
        start = epoch * epoch_slots
        end = start + epoch_slots
        epoch_trials = 0
        epoch_successes = 0
        for v in approx_graph.nodes:
            covered = any(
                approx_graph.has_edge(origin, v)
                and bcast_start <= start
                and bcast_end >= end
                for origin, bcast_start, bcast_end in intervals.values()
            )
            if not covered:
                continue
            epoch_trials += 1
            got = any(
                start <= slot < end for slot in receptions.get(v, [])
            )
            if got:
                epoch_successes += 1
        report.trials += epoch_trials
        report.successes += epoch_successes
        report.per_epoch[epoch] = (epoch_successes, epoch_trials)
    return report


def check_contract(
    trace: EventTrace,
    comm_graph: nx.Graph,
    approx_graph: nx.Graph | None,
    contract: AbsMacContract,
) -> dict:
    """Check a trace against an :class:`AbsMacContract`.

    Returns a summary dict with the measured reports, success fractions
    and pass booleans.  Passing means the empirical success fraction
    meets ``1 − ε`` (these are statistical guarantees, so callers running
    few broadcasts should interpret fractions, not booleans).
    """
    ack_report = measure_acknowledgments(trace, comm_graph)
    ack_fraction = ack_report.success_fraction(contract.fack)
    summary = {
        "ack_report": ack_report,
        "ack_success_fraction": ack_fraction,
        "ack_ok": ack_fraction >= 1.0 - contract.eps_ack,
    }
    if contract.fapprog is not None and approx_graph is not None:
        prog_report = measure_approximate_progress(
            trace, comm_graph, approx_graph
        )
        prog_fraction = prog_report.success_fraction(contract.fapprog)
        summary.update(
            {
                "approg_report": prog_report,
                "approg_success_fraction": prog_fraction,
                "approg_ok": prog_fraction >= 1.0 - contract.eps_approg,
            }
        )
    return summary
