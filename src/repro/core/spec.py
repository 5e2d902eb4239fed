"""The probabilistic absMAC specification and its trace checker.

The absMAC contract (§4.4 and Definition 7.1) makes three probabilistic
timing promises for local broadcast over a communication graph G (here
G_{1-ε}), with approximate progress measured against a subgraph
G̃ ⊆ G (here G_{1-2ε}):

* **acknowledgment**: every bcast(m) is ack'ed within ``f_ack`` slots
  with probability ≥ 1 − ε_ack, and by then every G-neighbor of the
  origin received m;
* **progress**: while some G-neighbor of v is broadcasting, v receives
  *some* message originating at a G-neighbor within ``f_prog`` slots
  (Theorem 6.1: no SINR implementation can make this beat Δ);
* **approximate progress** (Definition 7.1, this paper's contribution):
  while some *G̃*-neighbor of v is broadcasting, v receives some message
  originating at a G-neighbor within ``f_approg`` slots with probability
  ≥ 1 − ε_approg.

These are statistical statements, so the checker measures empirical
latency distributions over a trace and compares success fractions
against the contract.  All measurement is trace-based: protocols are
never trusted to self-report.

Every measurement is a handful of array operations — sorts,
``searchsorted`` and ``bincount`` — over the trace's int64 columns
(:meth:`~repro.simulation.trace.EventTrace.columns`) and the CSR
adjacency of the graphs (:class:`~repro.sinr.graphs.CsrGraph`; the
deployment artifacts carry G_{1-ε} and G̃ in that form, and a bare
``nx.Graph`` with integer labels is converted on entry).  MAC events
carry integer message ids; a physical reception counts when its datum
is a ``(sender, BcastMessage)`` pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import networkx as nx
import numpy as np

from repro.simulation.trace import (
    ABORT,
    ABSENT,
    ACK,
    BCAST,
    RCV,
    RECEIVE,
    EventTrace,
)
from repro.sinr.graphs import CsrGraph

__all__ = [
    "AbsMacContract",
    "AckRecord",
    "AckReport",
    "ProgressRecord",
    "ProgressReport",
    "EpochProgressReport",
    "broadcast_intervals",
    "measure_acknowledgments",
    "measure_progress",
    "measure_approximate_progress",
    "measure_epoch_progress",
    "check_contract",
]


@dataclass(frozen=True)
class AbsMacContract:
    """Numerical absMAC guarantees to check a trace against."""

    fack: float
    eps_ack: float
    fapprog: float | None = None
    eps_approg: float | None = None

    def __post_init__(self) -> None:
        if self.fack <= 0:
            raise ValueError("fack must be positive")
        if not 0.0 < self.eps_ack < 1.0:
            raise ValueError("eps_ack must be in (0, 1)")
        if (self.fapprog is None) != (self.eps_approg is None):
            raise ValueError("fapprog and eps_approg must come together")
        if self.fapprog is not None:
            if self.fapprog <= 0:
                raise ValueError("fapprog must be positive")
            if not 0.0 < self.eps_approg < 1.0:
                raise ValueError("eps_approg must be in (0, 1)")


@dataclass(frozen=True)
class AckRecord:
    """Measured fate of one broadcast."""

    mid: int
    origin: int
    bcast_slot: int
    ack_slot: int | None
    neighbor_count: int
    covered_by_ack: int  # neighbors that received m before the ack

    @property
    def latency(self) -> int | None:
        """Slots from bcast to ack (None if never acked)."""
        if self.ack_slot is None:
            return None
        return self.ack_slot - self.bcast_slot

    @property
    def complete(self) -> bool:
        """True iff every neighbor had the message when the ack fired."""
        return (
            self.ack_slot is not None
            and self.covered_by_ack == self.neighbor_count
        )


@dataclass
class AckReport:
    """All acknowledgment measurements of a trace."""

    records: list[AckRecord] = field(default_factory=list)

    def latencies(self) -> list[int]:
        """Latencies of acked broadcasts, in slot counts."""
        return [r.latency for r in self.records if r.latency is not None]

    def success_fraction(self, fack: float) -> float:
        """Fraction of broadcasts acked within ``fack`` *and* complete."""
        if not self.records:
            return 1.0
        good = sum(
            1
            for r in self.records
            if r.complete and r.latency is not None and r.latency <= fack
        )
        return good / len(self.records)

    def completeness_fraction(self) -> float:
        """Fraction of acked broadcasts whose neighbors all received."""
        acked = [r for r in self.records if r.ack_slot is not None]
        if not acked:
            return 1.0
        return sum(1 for r in acked if r.complete) / len(acked)

    def max_latency(self) -> int | None:
        """Largest observed ack latency."""
        lats = self.latencies()
        return max(lats) if lats else None

    def mean_latency(self) -> float | None:
        """Mean observed ack latency."""
        lats = self.latencies()
        return sum(lats) / len(lats) if lats else None


@dataclass(frozen=True)
class ProgressRecord:
    """Measured (approximate-)progress episode at one receiver."""

    node: int
    start_slot: int  # earliest slot a relevant neighbor was broadcasting
    latency: int | None  # slots until a G-origin message arrived


@dataclass
class ProgressReport:
    """All progress measurements of a trace."""

    records: list[ProgressRecord] = field(default_factory=list)

    def latencies(self) -> list[int]:
        """Latencies of satisfied episodes."""
        return [r.latency for r in self.records if r.latency is not None]

    def success_fraction(self, bound: float) -> float:
        """Fraction of episodes satisfied within ``bound`` slots."""
        if not self.records:
            return 1.0
        good = sum(
            1
            for r in self.records
            if r.latency is not None and r.latency <= bound
        )
        return good / len(self.records)

    def max_latency(self) -> int | None:
        """Largest observed latency."""
        lats = self.latencies()
        return max(lats) if lats else None

    def mean_latency(self) -> float | None:
        """Mean observed latency."""
        lats = self.latencies()
        return sum(lats) / len(lats) if lats else None


Graph = nx.Graph | CsrGraph
Intervals = dict[int, tuple[int, int, int]]

_NEVER = int(np.iinfo(np.int64).max)  # "no slot" in min-reductions


def _csr(graph: Graph) -> CsrGraph:
    return graph if isinstance(graph, CsrGraph) else CsrGraph.from_graph(graph)


def _last(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ``keys`` (ascending) and the index of each one's last
    occurrence."""
    distinct, back = np.unique(keys[::-1], return_index=True)
    return distinct, len(keys) - 1 - back


def _find(ordered: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Index of each ``wanted`` value in the ascending distinct
    ``ordered`` array; -1 where absent."""
    if not len(ordered):
        return np.full(len(wanted), -1, dtype=np.int64)
    at = np.minimum(np.searchsorted(ordered, wanted), len(ordered) - 1)
    return np.where(ordered[at] == wanted, at, -1)


def _rows_of(columns, *codes: int) -> np.ndarray:
    """Rows of the given kinds that carry an integer datum."""
    kind = columns.code == codes[0]
    for code in codes[1:]:
        kind |= columns.code == code
    return np.flatnonzero(kind & (columns.mid != ABSENT))


def _interval_arrays(
    intervals: Intervals,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(mids, origins, bcast slots, end slots)``, ascending by mid."""
    mids = np.fromiter(intervals.keys(), dtype=np.int64, count=len(intervals))
    spans = np.fromiter(
        chain.from_iterable(intervals.values()),
        dtype=np.int64,
        count=3 * len(intervals),
    ).reshape(-1, 3)
    if not (mids[1:] > mids[:-1]).all():  # broadcast_intervals sorts them
        order = np.argsort(mids)
        mids, spans = mids[order], spans[order]
    return mids, spans[:, 0], spans[:, 1], spans[:, 2]


def _neighbor_entries(
    csr: CsrGraph, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(owner, neighbour)`` for every neighbour of every ``rows[i]``:
    ``owner`` indexes ``rows``."""
    counts = csr.degrees[rows]
    owner = np.repeat(np.arange(len(rows)), counts)
    offset = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, csr.indices[csr.indptr[rows][owner] + offset]


def broadcast_intervals(trace: EventTrace) -> Intervals:
    """Extract per-message active intervals from a trace.

    Returns ``mid -> (origin, bcast_slot, end_slot)``.  A mid's interval
    starts at its last bcast event; ``end_slot`` is the slot of the last
    ack/abort of the mid after that bcast, or the end of the trace for
    still-active broadcasts.
    """
    columns = trace.columns()
    horizon = trace.last_slot() + 1
    bcasts = _rows_of(columns, BCAST)
    mids, last = _last(columns.mid[bcasts])
    started = bcasts[last]
    endings = _rows_of(columns, ACK, ABORT)
    end_mids, end_last = _last(columns.mid[endings])
    ended = endings[end_last]
    hit = _find(end_mids, mids)
    closed = hit >= 0
    closed[closed] = ended[hit[closed]] > started[closed]
    ends = np.full(len(mids), horizon, dtype=np.int64)
    ends[closed] = columns.slot[ended[hit[closed]]]
    return dict(
        zip(
            mids.tolist(),
            zip(
                columns.node[started].tolist(),
                columns.slot[started].tolist(),
                ends.tolist(),
            ),
        )
    )


def _first_deliveries(
    columns, csr: CsrGraph, mids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted keys ``i · len(csr) + row`` of (``mids[i]``, graph row)
    pairs with an rcv event, and the slot of each pair's first one."""
    rcvs = _rows_of(columns, RCV)
    at = csr.positions(columns.node[rcvs])
    which = _find(mids, columns.mid[rcvs])
    keep = (at >= 0) & (which >= 0)
    keys, first = np.unique(which[keep] * len(csr) + at[keep], return_index=True)
    return keys, columns.slot[rcvs[keep]][first]


def measure_acknowledgments(
    trace: EventTrace,
    graph: Graph,
    intervals: Intervals | None = None,
) -> AckReport:
    """Measure every broadcast's ack latency and neighbor coverage.

    ``intervals`` optionally reuses a precomputed
    :func:`broadcast_intervals` scan — callers measuring several
    quantities over one big trace (the experiment engine's per-trial
    result assembly) share one pass instead of rescanning per measure.
    Records come in ascending mid order.
    """
    if intervals is None:
        intervals = broadcast_intervals(trace)
    csr = _csr(graph)
    columns = trace.columns()
    mids, origins, starts, _ends = _interval_arrays(intervals)
    acks = _rows_of(columns, ACK)
    ack_mids, last = _last(columns.mid[acks])
    hit = _find(ack_mids, mids)
    acked = hit >= 0
    ack_slots = np.zeros(len(mids), dtype=np.int64)
    ack_slots[acked] = columns.slot[acks[last[hit[acked]]]]
    rows = csr.positions(origins)
    if (rows < 0).any():
        missing = origins[rows < 0][0]
        raise ValueError(f"broadcast origin {missing} is not a graph node")
    # A neighbor covers an acked broadcast when its first rcv of the
    # message came no later than the ack.  Keys are broadcast-major,
    # so the neighbor entries query them in ascending order.
    which = np.flatnonzero(acked)
    owner, neighbors = _neighbor_entries(csr, rows[which])
    owner = which[owner]
    keys, first_slots = _first_deliveries(columns, csr, mids)
    at = _find(keys, owner * len(csr) + neighbors)
    got = at >= 0
    got[got] = first_slots[at[got]] <= ack_slots[owner[got]]
    covered = np.bincount(owner[got], minlength=len(mids))
    ack_list = ack_slots.tolist()
    for i in np.flatnonzero(~acked).tolist():
        ack_list[i] = None
    return AckReport(
        list(
            map(
                AckRecord,
                mids.tolist(),
                origins.tolist(),
                starts.tolist(),
                ack_list,
                csr.degrees[rows].tolist(),
                covered.tolist(),
            )
        )
    )


def _neighbor_origin_receptions(
    trace: EventTrace, csr: CsrGraph
) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, slots)`` of the physical receptions of bcast-messages
    originating at a G-neighbor of the receiver (graph rows of
    ``csr``); self-receptions and receivers outside G do not count."""
    columns = trace.columns()
    receives = np.flatnonzero(
        (columns.code == RECEIVE) & (columns.origin != ABSENT)
    )
    nodes = columns.node[receives]
    origins = columns.origin[receives]
    at = csr.positions(nodes)
    sources = csr.positions(origins)
    keep = (at >= 0) & (sources >= 0) & (origins != nodes)
    keep[keep] = csr.has_edges(at[keep], sources[keep])
    return at[keep], columns.slot[receives[keep]]


def _measure_episodes(
    trace: EventTrace,
    comm_graph: Graph,
    trigger_graph: Graph,
    intervals: Intervals | None = None,
) -> ProgressReport:
    """Shared core of progress and approximate-progress measurement.

    An *episode* starts at the earliest slot at which some
    ``trigger_graph``-neighbor of v has an active broadcast; it is
    satisfied when v physically receives a bcast-message originating at a
    ``comm_graph``-neighbor.  One episode per receiver, from its
    earliest trigger: a conservative measurement (longest exposure).
    Records come in the trigger graph's node order.
    """
    if intervals is None:
        intervals = broadcast_intervals(trace)
    comm = _csr(comm_graph)
    trigger = _csr(trigger_graph)
    _mids, origins, starts, _ends = _interval_arrays(intervals)
    # Earliest broadcast start per origin, then the minimum over each
    # receiver's neighbors.
    earliest = np.full(len(trigger), _NEVER, dtype=np.int64)
    at = trigger.positions(origins)
    np.minimum.at(earliest, at[at >= 0], starts[at >= 0])
    start = np.full(len(trigger), _NEVER, dtype=np.int64)
    busy = trigger.degrees > 0
    if busy.any():
        start[busy] = np.minimum.reduceat(
            earliest[trigger.indices], trigger.indptr[:-1][busy]
        )
    # First reception at or after each receiver's trigger.
    rows, slots = _neighbor_origin_receptions(trace, comm)
    receivers = trigger.positions(comm.nodes[rows])
    keep = receivers >= 0
    receivers, slots = receivers[keep], slots[keep]
    after = slots >= start[receivers]
    first = np.full(len(trigger), _NEVER, dtype=np.int64)
    np.minimum.at(first, receivers[after], slots[after])
    triggered = np.flatnonzero(start != _NEVER)
    start, first = start[triggered], first[triggered]
    latencies = (first - start).tolist()
    for i in np.flatnonzero(first == _NEVER).tolist():
        latencies[i] = None
    return ProgressReport(
        list(
            map(
                ProgressRecord,
                trigger.nodes[triggered].tolist(),
                start.tolist(),
                latencies,
            )
        )
    )


def measure_progress(trace: EventTrace, graph: Graph) -> ProgressReport:
    """Standard progress: trigger and reception both w.r.t. G."""
    csr = _csr(graph)
    return _measure_episodes(trace, csr, csr)


def measure_approximate_progress(
    trace: EventTrace,
    comm_graph: Graph,
    approx_graph: Graph,
    intervals: Intervals | None = None,
) -> ProgressReport:
    """Definition 7.1: triggers in G̃, receptions from G-neighbors.

    ``intervals`` optionally shares a :func:`broadcast_intervals` scan
    (see :func:`measure_acknowledgments`).
    """
    return _measure_episodes(trace, comm_graph, approx_graph, intervals)


@dataclass
class EpochProgressReport:
    """Per-epoch success statistics for the Theorem 9.1 probability
    claim: each (node, epoch) trial succeeds iff the node — having a
    G̃-neighbor with an ongoing broadcast for the whole epoch — received
    a G-origin bcast-message *within that epoch*."""

    trials: int = 0
    successes: int = 0
    per_epoch: dict[int, tuple[int, int]] = field(default_factory=dict)

    @property
    def success_fraction(self) -> float:
        """Overall empirical per-epoch success probability."""
        if self.trials == 0:
            return 1.0
        return self.successes / self.trials


def measure_epoch_progress(
    trace: EventTrace,
    comm_graph: Graph,
    approx_graph: Graph,
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
    comm = _csr(comm_graph)
    approx = _csr(approx_graph)
    n_epochs = (trace.last_slot() + 1) // epoch_slots
    report = EpochProgressReport()
    width = n_epochs - first_epoch  # epochs measured, from first_epoch
    if width <= 0:
        return report
    # Epochs (counted from first_epoch) each broadcast covers whole:
    # start <= e·E and end >= (e + 1)·E.
    _mids, origins, starts, ends = _interval_arrays(intervals)
    lo = np.maximum(-(-starts // epoch_slots), first_epoch) - first_epoch
    hi = np.minimum(ends // epoch_slots, n_epochs) - 1 - first_epoch
    at = approx.positions(origins)
    keep = (at >= 0) & (lo <= hi)
    owner, nodes = _neighbor_entries(approx, at[keep])
    lo, hi = lo[keep][owner], hi[keep][owner]
    # Merge each node's covering ranges: sorted by (node, lo), a range
    # opens a new run unless it overlaps the running maximum before it.
    # Keys node·span + epoch keep every node's runs apart.
    span = width + 1
    order = np.lexsort((lo, nodes))
    nodes, lo, hi = nodes[order], lo[order], hi[order]
    reach = np.maximum.accumulate(nodes * span + hi)
    opens = np.ones(len(nodes), dtype=bool)
    opens[1:] = nodes[1:] * span + lo[1:] > reach[:-1]
    firsts = np.flatnonzero(opens)
    run_node = nodes[firsts]
    run_lo = lo[firsts]
    closes = np.append(firsts[1:], len(nodes))[: len(firsts)] - 1
    run_hi = reach[closes] - run_node * span
    trials = np.cumsum(
        np.bincount(run_lo, minlength=span)
        - np.bincount(run_hi + 1, minlength=span)
    )[:width]
    # A trial succeeds on any in-epoch reception at its node.
    rows, slots = _neighbor_origin_receptions(trace, comm)
    receivers = approx.positions(comm.nodes[rows])
    epochs = slots // epoch_slots - first_epoch
    keep = (receivers >= 0) & (epochs >= 0) & (epochs < width)
    heard = np.unique(receivers[keep] * span + epochs[keep])
    run = np.searchsorted(run_node * span + run_lo, heard, side="right") - 1
    node, epoch = heard // span, heard % span
    inside = run >= 0
    inside[inside] = (run_node[run[inside]] == node[inside]) & (
        epoch[inside] <= run_hi[run[inside]]
    )
    successes = np.bincount(epoch[inside], minlength=width)[:width]
    report.trials = int(trials.sum())
    report.successes = int(successes.sum())
    report.per_epoch = dict(
        zip(
            range(first_epoch, n_epochs),
            zip(successes.tolist(), trials.tolist()),
        )
    )
    return report


def check_contract(
    trace: EventTrace,
    comm_graph: Graph,
    approx_graph: Graph | None,
    contract: AbsMacContract,
) -> dict:
    """Check a trace against an :class:`AbsMacContract`.

    Returns a summary dict with the measured reports, success fractions
    and pass booleans.  Passing means the empirical success fraction
    meets ``1 − ε`` (these are statistical guarantees, so callers running
    few broadcasts should interpret fractions, not booleans).
    """
    comm = _csr(comm_graph)
    intervals = broadcast_intervals(trace)
    ack_report = measure_acknowledgments(trace, comm, intervals)
    ack_fraction = ack_report.success_fraction(contract.fack)
    summary = {
        "ack_report": ack_report,
        "ack_success_fraction": ack_fraction,
        "ack_ok": ack_fraction >= 1.0 - contract.eps_ack,
    }
    if contract.fapprog is not None and approx_graph is not None:
        prog_report = measure_approximate_progress(
            trace, comm, approx_graph, intervals
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
