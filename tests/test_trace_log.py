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
from hypothesis import given, strategies as st

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
