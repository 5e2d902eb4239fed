"""Differential oracle: array spec measurement vs. the loop reference.

:mod:`repro.core.spec` measures traces with sorts, ``searchsorted`` and
``bincount`` over the event log's columns and CSR graphs.
``spec_reference`` keeps the event-by-event loops it replaced.  The
generated cases mix every shape the loops had to handle: re-broadcast
mids, aborts, unacked broadcasts, acks of unknown mids, duplicate rcvs
and an rcv in the ack slot, receive rows whose payload is not a
``BcastMessage``, self-receptions, events at nodes outside the graph,
isolated nodes, and node labels that are neither ``0..n-1`` nor in
order.  The example budget comes from the hypothesis profile
(``tests/conftest.py``); CI runs this module again under the larger
``ci`` profile.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, strategies as st

import spec_reference as ref
from repro.core import spec
from repro.core.events import BcastMessage
from repro.simulation.trace import ABSENT, ACK, RCV, WAKE, EventTrace, event_rows
from repro.sinr.graphs import CsrGraph

OUTSIDE = (40, 41)  # labels never in a generated graph
BULK = {"ack": ACK, "rcv": RCV, "wake": WAKE}
MIDS = st.integers(min_value=0, max_value=7)
SLOTS = st.integers(min_value=0, max_value=24)


@st.composite
def graphs(draw):
    """A labelled graph (labels out of order, some isolated, a few
    self-loops) and a spanning subgraph with its own node order."""
    labels = draw(
        st.lists(
            st.integers(min_value=0, max_value=30),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges += [(v, v) for v in draw(st.lists(st.sampled_from(labels), max_size=2))]
    graph = nx.Graph()
    graph.add_nodes_from(labels)
    graph.add_edges_from(edges)
    kept = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    sub = nx.Graph()
    sub.add_nodes_from(draw(st.permutations(labels)))
    sub.add_edges_from(e for e, keep in zip(edges, kept) if keep)
    return graph, sub


def events(labels):
    """One trace event; bcasts start at graph nodes only (the loop
    reference raises on an origin outside G)."""
    anywhere = st.sampled_from([*labels, *OUTSIDE])
    payload = st.one_of(
        st.builds(BcastMessage, MIDS, anywhere),
        st.sampled_from(["noise", None, 3]),
    )
    return st.one_of(
        st.tuples(SLOTS, st.just("bcast"), st.sampled_from(labels), MIDS),
        st.tuples(SLOTS, st.sampled_from(["ack", "abort"]), anywhere, MIDS),
        st.tuples(SLOTS, st.just("rcv"), anywhere, MIDS),
        st.tuples(
            SLOTS, st.just("receive"), anywhere, st.tuples(anywhere, payload)
        ),
        st.tuples(SLOTS, st.just("transmit"), anywhere, payload),
        st.tuples(SLOTS, st.just("wake"), anywhere, st.none()),
        st.tuples(SLOTS, st.just("decide"), anywhere, st.integers(-2, 2)),
    )


@st.composite
def episode(draw, graph):
    """One broadcast as the runtimes trace it: bcast, rcvs and physical
    receptions at the origin's neighbors (itself included, through a
    self-loop) around the ack slot, duplicates included, then maybe
    the ack."""
    origin = draw(st.sampled_from(list(graph)))
    mid = draw(MIDS)
    start = draw(SLOTS)
    ack = draw(st.integers(min_value=start, max_value=start + 8))
    around = st.sampled_from([start, ack - 1, ack, ack + 1])
    listeners = st.sampled_from([origin, *graph.adj[origin]])
    events = [(start, "bcast", origin, mid)]
    for node in draw(st.lists(listeners, max_size=4)):
        events.append((draw(around), "rcv", node, mid))
        message = BcastMessage(mid, origin)
        events.append((draw(around), "receive", node, (origin, message)))
    if draw(st.booleans()):
        events.append((ack, draw(st.sampled_from(["ack", "abort"])), origin, mid))
    return events


@st.composite
def cases(draw):
    graph, sub = draw(graphs())
    trace_events = draw(st.lists(events(list(graph)), max_size=30))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        trace_events += draw(episode(graph))
    trace_events = draw(st.permutations(trace_events))
    trace = EventTrace()
    # Int-data MAC events may also arrive as bulk rows, as the columnar
    # runtimes append them.
    for event in trace_events:
        slot, kind, node, data = event
        if kind in BULK and draw(st.booleans()):
            mid = ABSENT if data is None else data
            trace.append_rows(
                event_rows(0, slot, BULK[kind], np.array([node]), mid)
            )
        else:
            trace.record(*event)
    return graph, sub, trace


@given(cases())
def test_intervals_and_acks_match_reference(case):
    graph, _sub, trace = case
    intervals = spec.broadcast_intervals(trace)
    assert intervals == ref.broadcast_intervals(trace)
    expected = ref.measure_acknowledgments(trace, graph)
    assert spec.measure_acknowledgments(trace, graph) == expected
    csr = CsrGraph.from_graph(graph)
    assert spec.measure_acknowledgments(trace, csr, intervals) == expected


@given(cases())
def test_progress_matches_reference(case):
    graph, sub, trace = case
    assert spec.measure_progress(trace, graph) == ref.measure_progress(
        trace, graph
    )
    assert spec.measure_approximate_progress(
        trace, graph, sub
    ) == ref.measure_approximate_progress(trace, graph, sub)


@given(
    cases(),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=3),
)
def test_epoch_progress_matches_reference(case, epoch_slots, first_epoch):
    graph, sub, trace = case
    assert spec.measure_epoch_progress(
        trace, graph, sub, epoch_slots, first_epoch
    ) == ref.measure_epoch_progress(trace, graph, sub, epoch_slots, first_epoch)


@given(
    cases(),
    st.integers(min_value=1, max_value=30),
    st.sampled_from([0.05, 0.5, 0.95]),
    st.booleans(),
)
def test_contract_matches_reference(case, bound, eps, approg):
    graph, sub, trace = case
    contract = spec.AbsMacContract(
        fack=bound,
        eps_ack=eps,
        fapprog=bound if approg else None,
        eps_approg=eps if approg else None,
    )
    assert spec.check_contract(trace, graph, sub, contract) == (
        ref.check_contract(trace, graph, sub, contract)
    )


def test_every_listed_case_at_once_matches_reference():
    """One hand-built trace holding each case the generator is asked
    for, so they are covered whatever the examples drawn."""
    graph = nx.Graph()
    graph.add_nodes_from([9, 4, 6, 2, 7])  # 7 is isolated
    graph.add_edges_from([(9, 4), (4, 6), (6, 2), (9, 2)])
    sub = nx.Graph()
    sub.add_nodes_from([2, 7, 6, 9, 4])
    sub.add_edges_from([(9, 4), (6, 2)])
    trace = EventTrace()
    for event in [
        (0, "bcast", 9, 1),
        (0, "bcast", 6, 2),  # never acked
        (1, "bcast", 2, 3),
        (2, "rcv", 4, 1),
        (2, "rcv", 4, 1),  # duplicate rcv
        (3, "receive", 4, (9, BcastMessage(1, 9))),
        (3, "receive", 9, (9, BcastMessage(1, 9))),  # self-reception
        (3, "receive", 2, (6, "noise")),  # not a BcastMessage
        (4, "receive", 40, (9, BcastMessage(1, 9))),  # outside the graph
        (4, "rcv", 41, 1),  # outside the graph
        (5, "rcv", 2, 1),  # in the ack slot
        (5, "ack", 9, 1),
        (6, "abort", 2, 3),
        (7, "ack", 4, 5),  # unknown mid
        (9, "receive", 6, (2, BcastMessage(3, 2))),
    ]:
        trace.record(*event)
    assert spec.broadcast_intervals(trace) == ref.broadcast_intervals(trace)
    assert spec.measure_acknowledgments(
        trace, graph
    ) == ref.measure_acknowledgments(trace, graph)
    assert spec.measure_approximate_progress(
        trace, graph, sub
    ) == ref.measure_approximate_progress(trace, graph, sub)
    assert spec.measure_epoch_progress(
        trace, graph, sub, 2
    ) == ref.measure_epoch_progress(trace, graph, sub, 2)
    report = spec.measure_acknowledgments(trace, graph)
    assert [r.covered_by_ack for r in report.records] == [2, 0, 0]


def test_origin_outside_graph_raises():
    trace = EventTrace()
    trace.record(0, "bcast", 9, 1)
    with pytest.raises(ValueError, match="origin 9"):
        spec.measure_acknowledgments(trace, nx.path_graph(3))
