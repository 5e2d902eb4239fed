"""Execution traces.

Every externally visible event of a run — transmissions, receptions,
wakeups, MAC-layer events (bcast/rcv/ack/abort), protocol outputs — is
recorded in an :class:`EventTrace`.  The spec-conformance checker
(:mod:`repro.core.spec`) and all latency measurements operate on traces,
decoupling measurement from protocol code.

Event log
---------
A trace is a columnar log: one int64 row per event, in append order,
with the columns of :data:`COLUMNS` — slot, kind code, node, and the
integer fields the spec reads (message id, sender, and the origin of a
:class:`~repro.core.events.BcastMessage` payload), :data:`ABSENT` where
a row has none.  The kind codes of :data:`KINDS` are fixed (the C
kernel's ``EV_*`` codes are the same numbers); any other kind string
gets the next free code of its own trace.

A row's datum is its ``mid`` column when the datum is an int, absent
when it is None, and otherwise a Python object kept in a side column
(a row -> object dict) — in practice the physical transmit / receive
payloads.  :class:`TraceEvent` values are built only when a caller
iterates or queries, so the list-like API reads as before.

Producers append in two ways.  :meth:`EventTrace.record` appends one
event to a plain Python list.  :meth:`EventTrace.append_rows` (and
:func:`append_trial_rows` for a batch of per-trial traces) appends an
int64 array in the C kernel's event-row format :data:`ROW`, so the
native drain hands over the kernel's rows as they are.  Appends only
queue blocks; the next read converts every queued block into columns,
one bulk pass per block format.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import attrgetter, itemgetter
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "ABSENT",
    "COLUMNS",
    "ROW",
    "KINDS",
    "ACK",
    "WAKE",
    "RCV",
    "BCAST",
    "ABORT",
    "TRANSMIT",
    "RECEIVE",
    "TraceEvent",
    "TraceColumns",
    "EventTrace",
    "event_rows",
    "append_trial_rows",
]

# The fixed kind codes; ack / wake / rcv double as the C kernel's
# event-row codes (repro.native.EV_ACK / EV_WAKE / EV_RCV).
KINDS = ("ack", "wake", "rcv", "bcast", "abort", "transmit", "receive")
ACK, WAKE, RCV, BCAST, ABORT, TRANSMIT, RECEIVE = range(len(KINDS))
_CODES = {kind: code for code, kind in enumerate(KINDS)}

COLUMNS = ("slot", "code", "node", "mid", "sender", "origin")
# The bulk-append format: the C kernel's event rows.  The log keeps
# slot, code, node and mid; a wake's mid is absent (wakes carry no
# datum), and trial and sender are not kept (the trial picks the trace;
# an rcv's datum is its mid).
ROW = ("trial", "slot", "code", "node", "mid", "sender")
# "No value" in the mid / sender / origin columns.  An int datum equal
# to it goes to the side column instead, so the log stays lossless.
ABSENT = int(np.iinfo(np.int64).min)
_INT_MAX = int(np.iinfo(np.int64).max)


class TraceEvent(NamedTuple):
    """One timestamped event, as the trace's lazy view builds it.

    Attributes
    ----------
    slot:
        Slot index at which the event occurred.
    kind:
        Event type tag, e.g. ``"transmit"``, ``"receive"``, ``"wake"``,
        ``"bcast"``, ``"rcv"``, ``"ack"``, ``"abort"``, ``"decide"``.
    node:
        Node id the event happened at.
    data:
        Event-specific payload (message id, sender id, value, ...).
    """

    slot: int
    kind: str
    node: int
    data: Any = None


class TraceColumns(NamedTuple):
    """The log's int64 columns, one entry per event (see :data:`COLUMNS`)."""

    slot: np.ndarray
    code: np.ndarray
    node: np.ndarray
    mid: np.ndarray
    sender: np.ndarray
    origin: np.ndarray


def event_rows(
    trials: np.ndarray | int,
    slots: np.ndarray | int,
    code: int,
    nodes: np.ndarray,
    mids: np.ndarray | Sequence[int] | int = ABSENT,
) -> np.ndarray:
    """:data:`ROW` rows for ``len(nodes)`` events of one kind whose data
    are ints (``mids``) or absent."""
    rows = np.empty((len(nodes), len(ROW)), dtype=np.int64)
    rows[:, 0] = trials
    rows[:, 1] = slots
    rows[:, 2] = code
    rows[:, 3] = nodes
    rows[:, 4] = mids
    rows[:, 5] = ABSENT
    return rows


def append_trial_rows(traces: Sequence["EventTrace"], rows: np.ndarray) -> None:
    """Append each :data:`ROW` row to the trace of its trial; the trial
    column must be ascending, so each trace receives one slice."""
    bounds = np.searchsorted(rows[:, 0], np.arange(len(traces) + 1)).tolist()
    for trace, lo, hi in zip(traces, bounds, bounds[1:]):
        if hi > lo:
            trace.append_rows(rows[lo:hi])


def _reception_fields(data: list) -> tuple[np.ndarray, np.ndarray]:
    """The receive data that are ``(sender, payload)`` pairs, and each
    pair's ``(mid, sender, origin)``: its int sender, and the mid and
    origin of a :class:`~repro.core.events.BcastMessage` payload;
    :data:`ABSENT` for whatever a pair lacks."""
    from repro.core.events import BcastMessage

    pairs = np.fromiter(
        (type(d) is tuple and len(d) == 2 for d in data),
        dtype=bool,
        count=len(data),
    )
    if not pairs.all():
        data = list(compress(data, pairs))
    fields = np.full((len(data), 3), ABSENT, dtype=np.int64)
    senders = list(map(itemgetter(0), data))
    fields[:, 1] = [
        x if type(x) is int and ABSENT < x <= _INT_MAX else ABSENT
        for x in senders
    ]
    payloads = list(map(itemgetter(1), data))
    messages = np.fromiter(
        map(isinstance, payloads, repeat(BcastMessage)),
        dtype=bool,
        count=len(payloads),
    )
    carried = list(compress(payloads, messages))
    fields[messages, 0] = list(map(attrgetter("mid"), carried))
    fields[messages, 2] = list(map(attrgetter("origin"), carried))
    return pairs, fields


def _columns_of(rows: np.ndarray) -> np.ndarray:
    """Log columns of :data:`ROW` rows."""
    table = np.empty((len(rows), len(COLUMNS)), dtype=np.int64)
    table[:, :3] = rows[:, 1:4]
    table[:, 3] = np.where(rows[:, 2] == WAKE, ABSENT, rows[:, 4])
    table[:, 4:] = ABSENT
    return table


class EventTrace:
    """Append-only columnar event log with list-like query helpers."""

    def __init__(self, events: Iterable[TraceEvent] = ()) -> None:
        self._table = np.empty((0, len(COLUMNS)), dtype=np.int64)
        self._buffer = self._table  # _table is its leading rows
        # Appended since the last read, in order: ROW arrays and closed
        # lists of record() tuples; _pending is the open list.
        self._blocks: list[np.ndarray | list[tuple]] = []
        self._pending: list[tuple] = []
        self._queued = 0  # rows in _blocks
        # Side column: row i's datum when it is neither an int nor
        # None, else None; it stops at the last record()ed row.
        self._side: list[Any] = []
        self._kinds: Sequence[str] = KINDS
        self._codes: dict[str, int] = _CODES
        for event in events:
            self.record(*event)

    # -- producers ---------------------------------------------------------

    def record(self, slot: int, kind: str, node: int, data: Any = None) -> None:
        """Append one event.

        A plain list append: the object runtime records every
        transmission and reception this way, and the next read turns
        all pending events into rows in one pass.
        """
        self._pending.append((slot, kind, node, data))

    def append_rows(self, rows: np.ndarray) -> None:
        """Append events given as int64 :data:`ROW` rows.

        The trace keeps ``rows`` without copying, so the caller hands
        over an array it no longer writes.
        """
        if self._pending:
            self._close_pending()
        self._blocks.append(rows)
        self._queued += len(rows)

    def _close_pending(self) -> None:
        """Queue the open record() list as a block (append order)."""
        self._blocks.append(self._pending)
        self._queued += len(self._pending)
        self._pending = []

    def _code(self, kind: str) -> int:
        """The kind's code, interning a kind this trace has not seen."""
        code = self._codes.get(kind)
        if code is None:
            if isinstance(self._kinds, tuple):  # still the shared table
                self._codes = dict(self._codes)
                self._kinds = list(self._kinds)
            code = len(self._kinds)
            self._kinds.append(kind)
            self._codes[kind] = code
        return code

    def _convert(self, lists: list[tuple[int, list[tuple]]]) -> np.ndarray:
        """Log rows of the ``(first row, events)`` record() blocks, in
        order; data that are neither ints nor None fill the side column."""
        flat = [event for _first, events in lists for event in events]
        # Column by column: zip(*flat) would make one iterator object
        # per event, and on a big heap the collector they wake up costs
        # more than the transposition itself.
        slots, kinds, nodes, data = (
            list(map(itemgetter(column), flat)) for column in range(4)
        )
        codes = list(map(self._codes.get, kinds))
        if None in codes:  # intern new kinds in order of appearance
            for kind in dict.fromkeys(kinds):
                self._code(kind)
            codes = list(map(self._codes.__getitem__, kinds))
        table = np.empty((len(flat), len(COLUMNS)), dtype=np.int64)
        table[:, 0] = slots
        table[:, 1] = codes
        table[:, 2] = nodes
        table[:, 3] = [
            d if type(d) is int and ABSENT < d <= _INT_MAX else ABSENT
            for d in data
        ]
        table[:, 4:] = ABSENT
        side = self._side
        at = 0
        for first, events in lists:
            side.extend([None] * (first - len(side)))
            side.extend(data[at : at + len(events)])
            at += len(events)
        ints = np.flatnonzero(table[:, 3] != ABSENT)
        if ints.size:  # an int datum lives in the mid column only
            row_of = np.concatenate(
                [np.arange(first, first + len(events)) for first, events in lists]
            )
            for row in row_of[ints].tolist():
                side[row] = None
        receptions = np.flatnonzero(table[:, 1] == RECEIVE)
        if receptions.size:
            pairs, fields = _reception_fields(
                list(map(data.__getitem__, receptions.tolist()))
            )
            table[receptions[pairs], 3:] = fields
        return table

    # -- the columns -------------------------------------------------------

    def _log(self) -> np.ndarray:
        """Every event as one ``(len, 6)`` array of :data:`COLUMNS`: the
        first read after an append converts the queued blocks, one bulk
        pass per block format."""
        if self._pending:
            self._close_pending()
        blocks = self._blocks
        if not blocks:
            return self._table
        listed = [type(block) is list for block in blocks]
        arrays = [block for block, is_list in zip(blocks, listed) if not is_list]
        if len(arrays) == len(blocks):
            new = _columns_of(np.concatenate(arrays))
        else:
            sizes = [len(block) for block in blocks]
            firsts = (len(self._table) + np.cumsum(sizes) - sizes).tolist()
            from_list = np.repeat(listed, sizes)
            new = np.empty((len(from_list), len(COLUMNS)), dtype=np.int64)
            new[from_list] = self._convert(
                [(first, block) for first, block in zip(firsts, blocks)
                 if type(block) is list]
            )
            if arrays:
                new[~from_list] = _columns_of(np.concatenate(arrays))
        # Reads between appends (a done-predicate polling the trace)
        # grow a doubling buffer, so each row is copied O(1) times.
        size = len(self._table)
        if not size:
            self._buffer = new
        elif size + len(new) > len(self._buffer):
            grown = np.empty(
                (max(size + len(new), 2 * size), len(COLUMNS)), dtype=np.int64
            )
            grown[:size] = self._table
            self._buffer = grown
        if size:
            self._buffer[size : size + len(new)] = new
        self._table = self._buffer[: size + len(new)]
        self._blocks = []
        self._queued = 0
        return self._table

    def columns(self) -> TraceColumns:
        """The int64 columns of every event, in append order."""
        return TraceColumns(*self._log().T)

    def kind_code(self, kind: str) -> int | None:
        """The code rows of ``kind`` carry here (None: no such rows)."""
        self._log()
        return self._codes.get(kind)

    # -- the lazy TraceEvent view -----------------------------------------

    def _events(self, rows: np.ndarray | None = None) -> list[TraceEvent]:
        """TraceEvents of ``rows`` (default: all), in append order."""
        table = self._log()
        if rows is None:
            numbers, values = range(len(table)), table[:, :4].tolist()
        else:
            numbers, values = rows.tolist(), table[rows, :4].tolist()
        kinds = self._kinds
        side = self._side
        known = len(side)
        make = TraceEvent._make
        events = []
        for row, (slot, code, node, mid) in zip(numbers, values):
            datum = side[row] if row < known else None
            if datum is None and mid != ABSENT:
                datum = mid
            events.append(make((slot, kinds[code], node, datum)))
        return events

    @property
    def events(self) -> list[TraceEvent]:
        """A fresh list of every event, in append order."""
        return self._events()

    def __len__(self) -> int:
        return len(self._table) + self._queued + len(self._pending)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventTrace):
            return NotImplemented
        return self._events() == other._events()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"EventTrace({len(self)} events)"

    def _rows_where(self, column: int, value: int) -> np.ndarray:
        return np.flatnonzero(self._log()[:, column] == value)

    def of_kind(self, kind: str) -> list[TraceEvent]:
        """All events with the given kind, in append order."""
        code = self.kind_code(kind)
        if code is None:
            return []
        return self._events(self._rows_where(1, code))

    def at_node(self, node: int) -> list[TraceEvent]:
        """All events at the given node, in append order."""
        return self._events(self._rows_where(2, node))

    def first(
        self, kind: str, predicate: Callable[[TraceEvent], bool] | None = None
    ) -> TraceEvent | None:
        """Earliest event of ``kind`` satisfying ``predicate`` (if any)."""
        code = self.kind_code(kind)
        if code is None:
            return None
        for row in self._rows_where(1, code).tolist():
            event = self._events(np.array([row]))[0]
            if predicate is None or predicate(event):
                return event
        return None

    def last_slot(self) -> int:
        """Slot of the latest event; -1 for an empty trace."""
        table = self._log()
        if not len(table):
            return -1
        return int(table[:, 0].max())

    def count(self, kind: str) -> int:
        """Number of events of the given kind."""
        code = self.kind_code(kind)
        if code is None:
            return 0
        return int(np.count_nonzero(self._log()[:, 1] == code))

