"""Unit tests for the absMAC spec checker (repro.core.spec).

The checker is exercised on hand-written traces with known answers so
that measurement bugs cannot hide behind protocol behaviour.
"""

import networkx as nx
import pytest

from repro.core.events import BcastMessage
from repro.core.spec import (
    AbsMacContract,
    broadcast_intervals,
    check_contract,
    measure_acknowledgments,
    measure_approximate_progress,
    measure_progress,
)
from repro.simulation.trace import EventTrace


def path3():
    """0 - 1 - 2."""
    g = nx.Graph()
    g.add_edges_from([(0, 1), (1, 2)])
    return g


def trace_with(events):
    trace = EventTrace()
    for slot, kind, node, data in events:
        trace.record(slot, kind, node, data)
    return trace


class TestBroadcastIntervals:
    def test_bcast_ack_pair(self):
        trace = trace_with([(0, "bcast", 0, 11), (9, "ack", 0, 11)])
        assert broadcast_intervals(trace) == {11: (0, 0, 9)}

    def test_abort_closes_interval(self):
        trace = trace_with([(0, "bcast", 0, 11), (4, "abort", 0, 11)])
        assert broadcast_intervals(trace)[11] == (0, 0, 4)

    def test_unclosed_interval_runs_to_horizon(self):
        trace = trace_with([(2, "bcast", 1, 5), (10, "transmit", 1, None)])
        assert broadcast_intervals(trace)[5] == (1, 2, 11)


class TestMeasureAcknowledgments:
    def test_complete_ack(self):
        g = path3()
        trace = trace_with(
            [
                (0, "bcast", 1, 7),
                (3, "rcv", 0, 7),
                (4, "rcv", 2, 7),
                (8, "ack", 1, 7),
            ]
        )
        report = measure_acknowledgments(trace, g)
        assert len(report.records) == 1
        rec = report.records[0]
        assert rec.latency == 8
        assert rec.complete
        assert rec.covered_by_ack == 2

    def test_incomplete_ack_detected(self):
        g = path3()
        trace = trace_with(
            [
                (0, "bcast", 1, 7),
                (3, "rcv", 0, 7),
                # neighbor 2 never receives
                (8, "ack", 1, 7),
            ]
        )
        rec = measure_acknowledgments(trace, g).records[0]
        assert not rec.complete
        assert rec.covered_by_ack == 1

    def test_rcv_after_ack_does_not_count(self):
        g = path3()
        trace = trace_with(
            [
                (0, "bcast", 1, 7),
                (8, "ack", 1, 7),
                (9, "rcv", 0, 7),
                (9, "rcv", 2, 7),
            ]
        )
        rec = measure_acknowledgments(trace, g).records[0]
        assert not rec.complete

    def test_missing_ack(self):
        trace = trace_with([(0, "bcast", 1, 7)])
        rec = measure_acknowledgments(trace, path3()).records[0]
        assert rec.ack_slot is None
        assert rec.latency is None

    def test_success_fraction(self):
        g = path3()
        trace = trace_with(
            [
                (0, "bcast", 1, 7),
                (1, "rcv", 0, 7),
                (1, "rcv", 2, 7),
                (5, "ack", 1, 7),
                (0, "bcast", 0, 8),
                (30, "rcv", 1, 8),
                (40, "ack", 0, 8),
            ]
        )
        report = measure_acknowledgments(trace, g)
        assert report.success_fraction(fack=10) == pytest.approx(0.5)
        assert report.success_fraction(fack=100) == pytest.approx(1.0)

    def test_empty_trace(self):
        report = measure_acknowledgments(EventTrace(), path3())
        assert report.records == []
        assert report.success_fraction(10) == 1.0
        assert report.max_latency() is None
        assert report.mean_latency() is None


def receive(slot, node, sender, origin, mid=99):
    """A physical reception of a bcast-message at `node`."""
    return (slot, "receive", node, (sender, BcastMessage(mid, origin)))


class TestMeasureProgress:
    def test_simple_progress(self):
        g = path3()
        trace = trace_with(
            [
                (0, "bcast", 0, 1),
                receive(4, 1, 0, origin=0, mid=1),
            ]
        )
        report = measure_progress(trace, g)
        by_node = {r.node: r for r in report.records}
        assert by_node[1].latency == 4

    def test_unsatisfied_episode(self):
        g = path3()
        trace = trace_with([(0, "bcast", 0, 1)])
        report = measure_progress(trace, g)
        by_node = {r.node: r for r in report.records}
        assert by_node[1].latency is None

    def test_non_neighbor_origin_does_not_satisfy(self):
        g = path3()
        trace = trace_with(
            [
                (0, "bcast", 0, 1),
                (0, "bcast", 2, 2),
                # node 1 triggers (neighbors 0 and 2 broadcast).  Node 2
                # also triggers (neighbor 1... no, neighbor of 2 is 1,
                # which does not broadcast) - only via its own bcast's
                # effect on node 1.  Node 1 hears a message originating
                # at 0 relayed by 2: origin 0 IS 1's neighbor, so it
                # satisfies; but a message originating at a non-neighbor
                # must not.  Check that with a fresh receiver: node 0
                # hears a message originating at 2 (not its neighbor).
                receive(4, 0, 1, origin=2, mid=2),
            ]
        )
        report = measure_progress(trace, g)
        by_node = {r.node: r for r in report.records}
        # Node 0's only broadcasting neighbor is... none (1 is silent),
        # so node 0 has no episode; node 1 triggered but never received.
        assert 0 not in by_node
        assert by_node[1].latency is None

    def test_nodes_without_broadcasting_neighbors_skipped(self):
        g = path3()
        trace = trace_with([(0, "bcast", 0, 1)])
        report = measure_progress(trace, g)
        nodes = {r.node for r in report.records}
        assert nodes == {1}  # only node 1 neighbors the broadcaster


class TestMeasureApproximateProgress:
    def make_graphs(self):
        """G has edges (0,1),(1,2); G-tilde only (0,1)."""
        g = path3()
        gt = nx.Graph()
        gt.add_nodes_from([0, 1, 2])
        gt.add_edge(0, 1)
        return g, gt

    def test_trigger_requires_gtilde_neighbor(self):
        g, gt = self.make_graphs()
        trace = trace_with([(0, "bcast", 2, 1)])  # node 2 broadcasts
        report = measure_approximate_progress(trace, g, gt)
        # 2's only G-neighbor is 1, but (1,2) is not a G-tilde edge:
        # no episode triggers.
        assert report.records == []

    def test_reception_from_any_g_neighbor_satisfies(self):
        g, gt = self.make_graphs()
        trace = trace_with(
            [
                (0, "bcast", 0, 1),
                # node 1 hears a message originating at its G-neighbor 2
                # (not the G-tilde trigger node 0) - still satisfies
                # Definition 7.1.
                receive(6, 1, 2, origin=2, mid=3),
            ]
        )
        report = measure_approximate_progress(trace, g, gt)
        by_node = {r.node: r for r in report.records}
        assert by_node[1].latency == 6

    def test_latency_measured_from_trigger(self):
        g, gt = self.make_graphs()
        trace = trace_with(
            [
                (10, "bcast", 0, 1),
                receive(17, 1, 0, origin=0, mid=1),
            ]
        )
        report = measure_approximate_progress(trace, g, gt)
        by_node = {r.node: r for r in report.records}
        assert by_node[1].start_slot == 10
        assert by_node[1].latency == 7


class TestContract:
    def test_validation(self):
        with pytest.raises(ValueError):
            AbsMacContract(fack=0, eps_ack=0.1)
        with pytest.raises(ValueError):
            AbsMacContract(fack=10, eps_ack=1.5)
        with pytest.raises(ValueError):
            AbsMacContract(fack=10, eps_ack=0.1, fapprog=5.0)

    @pytest.mark.parametrize(
        "fapprog, eps_approg",
        [(-5, 7.0), (0, 0.1), (-5, 0.1), (5.0, 7.0), (5.0, 0.0), (5.0, 1.0)],
    )
    def test_approx_progress_pair_validated(self, fapprog, eps_approg):
        with pytest.raises(ValueError):
            AbsMacContract(
                fack=10, eps_ack=0.1, fapprog=fapprog, eps_approg=eps_approg
            )

    def test_check_contract_passing(self):
        g = path3()
        trace = trace_with(
            [
                (0, "bcast", 1, 7),
                (1, "rcv", 0, 7),
                (1, "rcv", 2, 7),
                (5, "ack", 1, 7),
            ]
        )
        contract = AbsMacContract(fack=10, eps_ack=0.2)
        result = check_contract(trace, g, None, contract)
        assert result["ack_ok"]
        assert result["ack_success_fraction"] == 1.0

    def test_check_contract_with_approg(self):
        g = path3()
        trace = trace_with(
            [
                (0, "bcast", 0, 1),
                receive(4, 1, 0, origin=0, mid=1),
            ]
        )
        contract = AbsMacContract(
            fack=10, eps_ack=0.2, fapprog=10.0, eps_approg=0.2
        )
        result = check_contract(trace, g, g, contract)
        assert "approg_ok" in result
        assert result["approg_success_fraction"] == 1.0
