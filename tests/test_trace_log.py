"""The columnar event log and the CSR graphs the spec reads.

:class:`~repro.simulation.trace.EventTrace` stores int64 rows and a side
column, and builds :class:`TraceEvent` values only when read.  These
tests pin it against the plain list of events it replaced, for any mix
of ``record()`` calls and bulk row appends; pin the kind codes shared
with the C kernel; and pin the deployment artifacts' CSR adjacency
against the networkx graphs built from the same distances.
"""

import re
from dataclasses import replace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import native
from repro.native.build import SOURCE
from repro.core.events import BcastMessage
from repro.experiments.cache import ArtifactCache
from repro.geometry.deployment import uniform_disk
from repro.geometry.points import PointSet
from repro.simulation.trace import (
    ABSENT,
    ACK,
    KINDS,
    RCV,
    WAKE,
    EventTrace,
    TraceBatch,
    TraceEvent,
    event_rows,
)
from repro.sinr.graphs import CsrGraph
from repro.sinr.params import SparseResolution

BULK = {"ack": ACK, "rcv": RCV, "wake": WAKE}
NODES = st.integers(min_value=0, max_value=5)


class ListTrace:
    """The list-backed trace the columnar log replaced, as reference."""

    def __init__(self):
        self.events = []

    def record(self, slot, kind, node, data=None):
        self.events.append(TraceEvent(slot, kind, node, data))

    def of_kind(self, kind):
        return [e for e in self.events if e.kind == kind]

    def at_node(self, node):
        return [e for e in self.events if e.node == node]

    def first(self, kind, predicate=None):
        for event in self.events:
            if event.kind == kind and (predicate is None or predicate(event)):
                return event
        return None

    def last_slot(self):
        return max((e.slot for e in self.events), default=-1)

    def count(self, kind):
        return sum(1 for e in self.events if e.kind == kind)


def data_for(kind):
    if kind in ("ack", "rcv"):
        return st.integers(min_value=0, max_value=2**40)
    if kind == "wake":
        return st.none()
    payloads = st.one_of(
        st.builds(BcastMessage, st.integers(0, 9), NODES),
        st.text(max_size=3),
        st.none(),
        st.integers(),  # includes ints outside int64
        st.just(ABSENT),
        st.just(True),
        st.just(np.int64(4)),
    )
    if kind == "receive":
        return st.one_of(st.tuples(NODES, payloads), payloads)
    return payloads


@st.composite
def event_lists(draw):
    kinds = st.sampled_from(
        ["ack", "rcv", "wake", "bcast", "transmit", "receive", "decide"]
    )
    events = []
    for _ in range(draw(st.integers(min_value=0, max_value=25))):
        kind = draw(kinds)
        events.append(
            (draw(st.integers(0, 30)), kind, draw(NODES), draw(data_for(kind)))
        )
    return events


def build(events, bulk_flags):
    """The same events through both traces; int-data MAC events go in
    as bulk rows where flagged."""
    trace, reference = EventTrace(), ListTrace()
    for (slot, kind, node, data), bulk in zip(events, bulk_flags):
        reference.record(slot, kind, node, data)
        if bulk and kind in BULK:
            mid = ABSENT if data is None else data
            trace.append_rows(event_rows(3, slot, BULK[kind], [node], mid))
        else:
            trace.record(slot, kind, node, data)
    return trace, reference


@given(event_lists(), st.data())
def test_log_reads_like_the_list_it_replaced(events, data):
    flags = data.draw(
        st.lists(st.booleans(), min_size=len(events), max_size=len(events))
    )
    trace, reference = build(events, flags)
    assert len(trace) == len(reference.events)
    listed = list(trace)
    assert listed == reference.events
    # Objects come back by identity, not as equal copies.
    for got, want in zip(listed, reference.events):
        if want.data is not None and type(want.data) is not int:
            assert got.data is want.data
    for kind in ("ack", "rcv", "wake", "bcast", "receive", "decide", "none"):
        assert trace.of_kind(kind) == reference.of_kind(kind)
        assert trace.count(kind) == reference.count(kind)
        assert trace.first(kind) == reference.first(kind)
    odd = lambda e: e.node % 2 == 1  # noqa: E731
    assert trace.first("receive", odd) == reference.first("receive", odd)
    for node in range(6):
        assert trace.at_node(node) == reference.at_node(node)
    assert trace.last_slot() == reference.last_slot()
    assert trace.events == reference.events


@st.composite
def physical_slots(draw):
    """Slots of a 2-trial batch: each trial's transmitters with their
    payloads, receptions from those transmitters, and MAC events."""
    payloads = st.one_of(
        st.builds(BcastMessage, st.integers(0, 9), NODES),
        st.tuples(st.just("est1"), st.integers(0, 3), st.integers(1, 9)),
        st.none(),
    )
    slots = []
    for slot in range(draw(st.integers(0, 6))):
        per_trial = []
        for _trial in range(2):
            senders = draw(st.lists(NODES, unique=True, max_size=3))
            sent = {node: draw(payloads) for node in sorted(senders)}
            listeners = draw(
                st.lists(
                    NODES.filter(lambda v: v not in sent),
                    unique=True,
                    max_size=3,
                )
            )
            heard = [
                (listener, draw(st.sampled_from(sorted(sent))))
                for listener in listeners
                if sent
            ]
            rcvs = [
                (v, draw(st.integers(0, 99)))
                for v in draw(st.lists(NODES, max_size=2))
            ]
            per_trial.append((sent, heard, rcvs))
        slots.append((slot, per_trial, draw(st.booleans())))
    return slots


def _message_fields(payload):
    if isinstance(payload, BcastMessage):
        return payload.mid, payload.origin
    return ABSENT, ABSENT


@settings(max_examples=40)
@given(physical_slots())
def test_bulk_physical_rows_read_like_recorded_events(slots):
    """TraceBatch's transmit and receive rows, staged for a batch and
    flushed now and then, give each trace the columns record() gives
    for the same events, and a view that rebuilds every receive's
    ``(sender, payload)`` from the sender's transmit row."""
    traces = [EventTrace(), EventTrace()]
    references = [EventTrace(), EventTrace()]
    lists = [ListTrace(), ListTrace()]
    batch = TraceBatch(traces)
    for slot, per_trial, flush in slots:
        for trial, (sent, heard, rcvs) in enumerate(per_trial):
            if not sent:
                continue
            nodes = np.array(sorted(sent))
            batch.add_transmits(
                np.full(nodes.size, trial), slot, nodes, list(sent.values())
            )
            for node, payload in sent.items():
                references[trial].record(slot, "transmit", node, payload)
                lists[trial].record(slot, "transmit", node, payload)
        for trial, (sent, heard, rcvs) in enumerate(per_trial):
            if heard:
                listeners, senders = map(np.array, zip(*heard))
                fields = [_message_fields(sent[s]) for _, s in heard]
                mids, origins = map(np.array, zip(*fields))
                batch.add_receives(
                    np.full(listeners.size, trial),
                    slot,
                    listeners,
                    senders,
                    mids,
                    origins,
                )
            for listener, sender in heard:
                datum = (sender, sent[sender])
                references[trial].record(slot, "receive", listener, datum)
                lists[trial].record(slot, "receive", listener, datum)
            if rcvs:
                nodes, mids = map(np.array, zip(*rcvs))
                batch.add_rows(event_rows(trial, slot, RCV, nodes, mids))
            for node, mid in rcvs:
                references[trial].record(slot, "rcv", node, mid)
                lists[trial].record(slot, "rcv", node, mid)
        if flush:
            batch.flush()
    batch.flush()
    for trace, reference, listed in zip(traces, references, lists):
        assert np.array_equal(trace.columns(), reference.columns())
        events = list(trace)
        assert events == listed.events
        for got, want in zip(events, listed.events):
            if want.kind == "transmit" and want.data is not None:
                assert got.data is want.data  # one shared reference
            if want.kind == "receive" and want.data[1] is not None:
                assert got.data[1] is want.data[1]
        assert trace.of_kind("receive") == listed.of_kind("receive")


def test_reads_between_appends_keep_append_order():
    trace = EventTrace()
    trace.record(0, "bcast", 1, 5)
    assert len(trace.columns().slot) == 1  # folds the first record
    trace.append_rows(event_rows(0, 1, RCV, [2, 3], [5, 5]))
    trace.record(1, "decide", 2, "x")
    trace.append_rows(event_rows(0, 2, WAKE, [4], -1))
    assert list(trace) == [
        TraceEvent(0, "bcast", 1, 5),
        TraceEvent(1, "rcv", 2, 5),
        TraceEvent(1, "rcv", 3, 5),
        TraceEvent(1, "decide", 2, "x"),
        TraceEvent(2, "wake", 4, None),
    ]
    assert trace.kind_code("decide") >= len(KINDS)
    assert trace.kind_code("never") is None


def test_receive_payload_fields_reach_the_columns():
    trace = EventTrace()
    trace.record(4, "receive", 2, (1, BcastMessage(9, 3)))
    trace.record(5, "receive", 2, (1, "noise"))
    trace.record(6, "receive", 2, 7)
    columns = trace.columns()
    assert columns.mid.tolist() == [9, ABSENT, 7]
    assert columns.sender.tolist() == [1, 1, ABSENT]
    assert columns.origin.tolist() == [3, ABSENT, ABSENT]


def test_slots_and_nodes_must_fit_the_compact_columns():
    """Slots, kind codes and node ids are stored as int32; a value
    beyond that range is refused, never wrapped."""
    trace = EventTrace()
    trace.record(2**31, "wake", 0)
    with pytest.raises(OverflowError):
        trace.columns()
    with pytest.raises(OverflowError):
        EventTrace().append_rows(event_rows(0, 0, WAKE, [2**31]))
    trace = EventTrace()
    trace.record(2**31 - 1, "rcv", 2**31 - 1, 5)
    assert trace.columns().slot.tolist() == [2**31 - 1]
    assert trace.columns().slot.dtype == np.int64


def test_kind_codes_are_the_kernel_event_codes():
    assert (ACK, WAKE, RCV) == (native.EV_ACK, native.EV_WAKE, native.EV_RCV)
    source = SOURCE.read_text(encoding="utf-8")
    enum = re.search(
        r"enum \{ EV_ACK = (\d+), EV_WAKE = (\d+), EV_RCV = (\d+) \}", source
    )
    assert enum is not None
    assert tuple(map(int, enum.groups())) == (ACK, WAKE, RCV)


# -- CSR adjacency of the deployment artifacts -------------------------------


def csr_rows(csr):
    return [
        csr.nodes[csr.indices[lo:hi]].tolist()
        for lo, hi in zip(csr.indptr[:-1], csr.indptr[1:])
    ]


def assert_csr_matches(artifacts):
    for graph, csr in (
        (artifacts.graph, artifacts.graph_csr),
        (artifacts.approx_graph, artifacts.approx_csr),
    ):
        assert csr.nodes.tolist() == list(graph)
        assert csr_rows(csr) == [sorted(graph.adj[v]) for v in graph]
        converted = CsrGraph.from_graph(graph)
        assert csr_rows(converted) == csr_rows(csr)


@pytest.mark.parametrize(
    "points",
    [
        uniform_disk(60, radius=20.0, seed=3),
        # Two far-off nodes stay isolated in both graphs.
        PointSet(np.array([[0.0, 0.0], [3.0, 0.0], [500.0, 0.0], [0.0, 900.0]])),
        PointSet(np.array([[0.0, 0.0]])),
        PointSet(np.array([[0.0, 0.0], [5.0, 0.0]])),
        PointSet(np.array([[0.0, 0.0], [500.0, 0.0]])),
    ],
    ids=["dense-disk", "isolated", "n1", "n2", "n2-apart"],
)
def test_artifact_csr_equals_networkx_adjacency(points, params):
    assert_csr_matches(ArtifactCache().artifacts(points, params))


def test_sparse_exact_plan_artifacts_carry_the_same_csr(params):
    sparse = replace(params, sparse=SparseResolution(mode="exact", min_n=1))
    points = uniform_disk(80, radius=30.0, seed=5)
    artifacts = ArtifactCache().artifacts(points, sparse)
    assert_csr_matches(artifacts)
    assert artifacts.graph_csr.indices.size  # the disk has edges


def test_csr_positions_of_unordered_labels():
    graph = nx.Graph()
    graph.add_nodes_from([7, 2, 9])
    graph.add_edge(7, 9)
    csr = CsrGraph.from_graph(graph)
    assert csr.positions(np.array([9, 2, 7, 3, -1])).tolist() == [2, 1, 0, -1, -1]
    assert csr.has_edges(np.array([0, 0]), np.array([2, 1])).tolist() == [
        True,
        False,
    ]


def test_csr_needs_integer_labels():
    with pytest.raises(TypeError):
        CsrGraph.from_graph(nx.path_graph(["a", "b"]))
