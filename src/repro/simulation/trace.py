"""Execution traces.

Every externally visible event of a run — transmissions, receptions,
wakeups, MAC-layer events (bcast/rcv/ack/abort), protocol outputs — is
recorded in an :class:`EventTrace`.  The spec-conformance checker
(:mod:`repro.core.spec`) and all latency measurements operate on traces,
decoupling measurement from protocol code.

Event log
---------
A trace is a columnar log: one row per event, in append order, with
the int64 columns of :data:`COLUMNS` — slot, kind code, node, and the
integer fields the spec reads (message id, sender, and the origin of a
:class:`~repro.core.events.BcastMessage` payload), :data:`ABSENT` where
a row has none.  The kind codes of :data:`KINDS` are fixed (the C
kernel's ``EV_*`` codes are the same numbers); any other kind string
gets the next free code of its own trace.  Storage is compact: slot,
code and node are kept as int32, and sender and origin only for the
rows that have one; :meth:`EventTrace.columns` widens them.

A row's datum is its ``mid`` column when the datum is an int, absent
when it is None, and otherwise a Python object kept in a side column
(one entry per row, None for rows without one) — in practice the
physical transmit payloads.  A receive row appended in bulk keeps no
object of its own: its datum ``(sender, payload)`` is rebuilt from the
sender's transmit row in the same slot.  :class:`TraceEvent` values are
built only when a caller iterates or queries, so the list-like API
reads as before.

Producers append in three ways.  :meth:`EventTrace.record` appends one
event to a plain Python list, which the next read (or bulk append)
converts in one pass — the object runtime records every event this
way.  :meth:`EventTrace.append_rows` appends an int64 array in the C
kernel's event-row format :data:`ROW`.  :meth:`EventTrace.append_log`
appends rows already in the log's :data:`COLUMNS`, with their side
objects.  Bulk rows are copied into growable buffers, so a trace
holds one set of arrays however many small blocks it was fed.  A
:class:`TraceBatch` stages the rows of a batch of trials — MAC rows,
and the transmit and receive rows of :meth:`TraceBatch.add_transmits`
and :meth:`TraceBatch.add_receives`, each over all trials at once — and
hands every trace its share in one append per flush; the columnar
runtime feeds its traces this way.
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
    "TraceBatch",
    "event_rows",
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


class EventTrace:
    """Append-only columnar event log with list-like query helpers.

    The log is stored compactly: slot, kind code and node as int32
    (``record()`` and the appends raise ``OverflowError`` beyond that
    range), the mid as int64, and sender and origin only for the rows
    that have one (receive rows).  :meth:`columns` hands out the six
    int64 columns.
    """

    def __init__(self, events: Iterable[TraceEvent] = ()) -> None:
        # Rows [0, _size) of the growable _narrow (slot, code, node)
        # and _mid arrays are the log; the record() events of _pending
        # follow them.  _extra holds (row, sender, origin) of the
        # first _extras rows with a sender or origin, rows ascending.
        self._narrow = np.empty((0, 3), dtype=np.int32)
        self._mid = np.empty(0, dtype=np.int64)
        self._size = 0
        self._extra = np.empty((0, 3), dtype=np.int64)
        self._extras = 0
        self._pending: list[tuple] = []
        # Side column: row i's datum when it is neither an int nor
        # None, else None; rows past its end have none.
        self._side: list[Any] = []
        self._kinds: Sequence[str] = KINDS
        self._codes: dict[str, int] = _CODES
        # Whether append_log() brought receive rows, whose lazy data
        # come from the sorted (slot, node) keys of the transmit rows
        # and their row numbers (cached).
        self._bulk_receives = False
        self._transmits: tuple | None = None
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
        """Append events given as int64 :data:`ROW` rows (copied)."""
        narrow, mid = self._reserve(len(rows))
        narrow[:] = _int32(rows[:, 1:4])
        mid[:] = np.where(rows[:, 2] == WAKE, ABSENT, rows[:, 4])

    def append_log(
        self, rows: np.ndarray, data: Sequence[Any] | None = None
    ) -> None:
        """Append rows given in :data:`COLUMNS` form (copied).

        ``data`` gives each row's side object (None for none), aligned
        with ``rows``; leave it out when no row has one.  A receive row
        whose sender is set and whose side object is None reads its
        ``(sender, payload)`` off the sender's transmit row in the same
        slot.
        """
        start = len(self)
        self._append_table(rows)
        if not self._bulk_receives:
            self._bulk_receives = bool((rows[:, 1] == RECEIVE).any())
        if data is not None:
            side = self._side
            side.extend(repeat(None, start - len(side)))
            side.extend(data)

    def _append_table(self, rows: np.ndarray) -> None:
        """Append :data:`COLUMNS` rows to the compact columns."""
        start = self._size + len(self._pending)
        narrow, mid = self._reserve(len(rows))
        narrow[:] = _int32(rows[:, :3])
        mid[:] = rows[:, 3]
        carried = (rows[:, 4] != ABSENT) | (rows[:, 5] != ABSENT)
        if carried.any():
            count = int(np.count_nonzero(carried))
            extras = self._extras
            if extras + count > len(self._extra):
                self._extra = _grown(self._extra[:extras], extras + count)
            extra = self._extra[extras : extras + count]
            extra[:, 0] = carried.nonzero()[0] + start
            extra[:, 1:] = rows[carried, 4:]
            self._extras = extras + count

    def _reserve(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """``count`` fresh rows at the end of the log (narrow and mid
        columns), to be filled in; pending record() events are
        converted first, so rows stay in append order."""
        if self._pending:
            self._fold()
        size = self._size
        if size + count > len(self._mid):
            self._narrow = _grown(self._narrow[:size], size + count)
            self._mid = _grown(self._mid[:size], size + count)
        self._size = size + count
        return (
            self._narrow[size : size + count],
            self._mid[size : size + count],
        )

    def _fold(self) -> None:
        """Convert the pending record() events into rows."""
        events, self._pending = self._pending, []
        self._append_table(self._convert(events, self._size))

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

    def _convert(self, events: list[tuple], first: int) -> np.ndarray:
        """Log rows of record() ``events`` that become rows ``first``
        on; data that are neither ints nor None fill the side column."""
        # Column by column: zip(*events) would make one iterator object
        # per event, and on a big heap the collector they wake up costs
        # more than the transposition itself.
        slots, kinds, nodes, data = (
            list(map(itemgetter(column), events)) for column in range(4)
        )
        codes = list(map(self._codes.get, kinds))
        if None in codes:  # intern new kinds in order of appearance
            for kind in dict.fromkeys(kinds):
                self._code(kind)
            codes = list(map(self._codes.__getitem__, kinds))
        table = np.empty((len(events), len(COLUMNS)), dtype=np.int64)
        table[:, 0] = slots
        table[:, 1] = codes
        table[:, 2] = nodes
        table[:, 3] = [
            d if type(d) is int and ABSENT < d <= _INT_MAX else ABSENT
            for d in data
        ]
        table[:, 4:] = ABSENT
        ints = (table[:, 3] != ABSENT).nonzero()[0]
        if ints.size:  # an int datum lives in the mid column only
            data = list(data)
            for row in ints.tolist():
                data[row] = None
        side = self._side
        side.extend(repeat(None, first - len(side)))
        side.extend(data)
        receptions = (table[:, 1] == RECEIVE).nonzero()[0]
        if receptions.size:
            pairs, fields = _reception_fields(
                list(map(data.__getitem__, receptions.tolist()))
            )
            table[receptions[pairs], 3:] = fields
        return table

    # -- the columns -------------------------------------------------------

    def _rows(self) -> np.ndarray:
        """The ``(len, 3)`` int32 slot, code and node columns; the first
        read after record() calls converts them."""
        if self._pending:
            self._fold()
        return self._narrow[: self._size]

    def columns(self) -> TraceColumns:
        """The int64 columns of every event, in append order."""
        narrow = self._rows().astype(np.int64)
        size = self._size
        sender = np.full(size, ABSENT, dtype=np.int64)
        origin = np.full(size, ABSENT, dtype=np.int64)
        extra = self._extra[: self._extras]
        sender[extra[:, 0]] = extra[:, 1]
        origin[extra[:, 0]] = extra[:, 2]
        return TraceColumns(
            narrow[:, 0],
            narrow[:, 1],
            narrow[:, 2],
            self._mid[:size],
            sender,
            origin,
        )

    def kind_code(self, kind: str) -> int | None:
        """The code rows of ``kind`` carry here (None: no such rows)."""
        self._rows()
        return self._codes.get(kind)

    # -- the lazy TraceEvent view -----------------------------------------

    def _transmit_rows(self) -> tuple[int, np.ndarray, np.ndarray]:
        """``(width, keys, rows)``: the transmit rows' sorted
        ``slot·width + node`` keys and their row numbers (cached until
        the log grows)."""
        cached = self._transmits
        if cached is None or cached[0] != self._size:
            narrow = self._rows().astype(np.int64)
            rows = (narrow[:, 1] == TRANSMIT).nonzero()[0]
            width = int(narrow[:, 2].max()) + 1 if len(narrow) else 1
            keys = narrow[rows, 0] * width + narrow[rows, 2]
            order = np.argsort(keys, kind="stable")
            cached = (self._size, width, keys[order], rows[order])
            self._transmits = cached
        return cached[1:]

    def _received(self, rows: np.ndarray) -> dict[int, tuple]:
        """``(sender, payload)`` of the bulk receive rows among ``rows``:
        the payload of the sender's transmit row in the same slot."""
        if not self._bulk_receives:
            return {}
        side = self._side
        known = len(side)
        narrow = self._rows()
        extra = self._extra[: self._extras]
        extra = extra[
            (narrow[extra[:, 0], 1] == RECEIVE)
            & (extra[:, 1] != ABSENT)
            & np.isin(extra[:, 0], rows)
        ]
        picked = [
            (row, sender)
            for row, sender in extra[:, :2].tolist()
            if row >= known or side[row] is None
        ]
        if not picked:
            return {}
        width, keys, tx_rows = self._transmit_rows()
        payloads: list[Any] = [None] * len(picked)
        if len(keys):
            want = np.array(
                [narrow[row, 0] * width + sender for row, sender in picked],
                dtype=np.int64,
            )
            at = np.minimum(keys.searchsorted(want), len(keys) - 1)
            hits = (keys[at] == want).nonzero()[0]
            for i, src in zip(hits.tolist(), tx_rows[at[hits]].tolist()):
                payloads[i] = side[src] if src < known else None
        return {
            row: (sender, payload)
            for (row, sender), payload in zip(picked, payloads)
        }

    def _events(self, rows: np.ndarray | None = None) -> list[TraceEvent]:
        """TraceEvents of ``rows`` (default: all), in append order."""
        narrow = self._rows()
        if rows is None:
            rows = np.arange(self._size)
            values = narrow.tolist()
            mids = self._mid[: self._size].tolist()
        else:
            values = narrow[rows].tolist()
            mids = self._mid[rows].tolist()
        received = self._received(rows)
        kinds = self._kinds
        side = self._side
        known = len(side)
        make = TraceEvent._make
        events = []
        for row, (slot, code, node), mid in zip(rows.tolist(), values, mids):
            datum = side[row] if row < known else None
            if datum is None:
                if row in received:
                    datum = received[row]
                elif mid != ABSENT:
                    datum = mid
            events.append(make((slot, kinds[code], node, datum)))
        return events

    @property
    def events(self) -> list[TraceEvent]:
        """A fresh list of every event, in append order."""
        return self._events()

    def __len__(self) -> int:
        return self._size + len(self._pending)

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
        """Rows whose slot, code or node (``column`` 0-2) is ``value``."""
        return (self._rows()[:, column] == value).nonzero()[0]

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
        narrow = self._rows()
        if not len(narrow):
            return -1
        return int(narrow[:, 0].max())

    def count(self, kind: str) -> int:
        """Number of events of the given kind."""
        code = self.kind_code(kind)
        if code is None:
            return 0
        return int(np.count_nonzero(self._rows()[:, 1] == code))


_INT32 = np.iinfo(np.int32)


def _int32(values: np.ndarray) -> np.ndarray:
    """``values`` (slots, kind codes, node ids), checked to fit int32."""
    if values.size and (
        values.min() < _INT32.min or values.max() > _INT32.max
    ):
        raise OverflowError("trace slots and node ids must fit in int32")
    return values


def _grown(array: np.ndarray, needed: int) -> np.ndarray:
    """A copy of ``array`` with room for ``needed`` rows: a quarter
    more each time, so a row is copied O(1) times and at most a fifth of
    the buffer idles."""
    capacity = max(needed, len(array) * 5 // 4, 64)
    grown = np.empty((capacity, *array.shape[1:]), dtype=array.dtype)
    grown[: len(array)] = array
    return grown


# The staged row format of :class:`TraceBatch`: the trial, then the
# log's COLUMNS.
_STAGED = 1 + len(COLUMNS)


class TraceBatch:
    """The event logs of a batch of trials, fed in bulk.

    Producers add the rows of every trial at once, in a trial column
    beside the log's :data:`COLUMNS`, with each row's side object; the
    rows wait in one growable buffer until :meth:`flush` hands each
    trial's trace its share, in append order, as one
    :meth:`EventTrace.append_log` call.  So a per-slot producer pays a
    few array writes per slot, not a call per trial.
    """

    def __init__(self, traces: Sequence[EventTrace]) -> None:
        self.traces = traces
        self._rows = np.empty((0, _STAGED), dtype=np.int64)
        self._data = np.empty(0, dtype=object)
        self._size = 0
        self._objects = False  # a staged row carries a side object

    def __len__(self) -> int:
        return self._size

    def _take(self, count: int) -> np.ndarray:
        size = self._size
        if size + count > len(self._rows):
            capacity = max(size + count, 2 * len(self._rows), 256)
            grown = np.empty((capacity, _STAGED), dtype=np.int64)
            grown[:size] = self._rows[:size]
            self._rows = grown
            data = np.full(capacity, None, dtype=object)
            data[:size] = self._data[:size]
            self._data = data
        self._size = size + count
        return self._rows[size : size + count]

    def add_rows(self, rows: np.ndarray) -> None:
        """Stage :data:`ROW` rows (any trial order)."""
        out = self._take(len(rows))
        out[:, :5] = rows[:, :5]
        out[:, 5:] = ABSENT
        wakes = rows[:, 2] == WAKE
        if wakes.any():
            out[wakes, 4] = ABSENT  # a wake carries no datum

    def add_transmits(
        self,
        trials: np.ndarray,
        slots: np.ndarray | int,
        nodes: np.ndarray,
        payloads: Sequence[Any],
    ) -> None:
        """Stage transmit rows; ``payloads`` are the transmitted
        objects, aligned with ``nodes``, kept by reference."""
        start = self._size
        out = self._take(len(nodes))
        out[:, 0] = trials
        out[:, 1] = slots
        out[:, 2] = TRANSMIT
        out[:, 3] = nodes
        out[:, 4:] = ABSENT
        self._data[start : self._size] = payloads
        self._objects = True

    def add_receives(
        self,
        trials: np.ndarray,
        slots: np.ndarray | int,
        listeners: np.ndarray,
        senders: np.ndarray,
        mids: np.ndarray,
        origins: np.ndarray,
    ) -> None:
        """Stage receive rows.  ``mids`` / ``origins`` are the received
        message's fields, :data:`ABSENT` for a payload that is not a
        :class:`~repro.core.events.BcastMessage`; the ``(sender,
        payload)`` datum is read off the sender's transmit row."""
        out = self._take(len(listeners))
        out[:, 0] = trials
        out[:, 1] = slots
        out[:, 2] = RECEIVE
        out[:, 3] = listeners
        out[:, 4] = mids
        out[:, 5] = senders
        out[:, 6] = origins

    def append_rows(self, rows: np.ndarray) -> None:
        """Append :data:`ROW` rows, trial column ascending, straight to
        the traces (after the staged rows): one slice per trace, no
        staging copy — the form for big blocks such as the C kernel's."""
        self.flush()
        bounds = np.searchsorted(
            rows[:, 0], np.arange(len(self.traces) + 1)
        ).tolist()
        for trace, lo, hi in zip(self.traces, bounds, bounds[1:]):
            if hi > lo:
                trace.append_rows(rows[lo:hi])

    def flush(self) -> None:
        """Append every staged row to its trial's trace."""
        size = self._size
        if not size:
            return
        rows = self._rows[:size]
        data = self._data[:size] if self._objects else None
        trials = rows[:, 0]
        if (trials[1:] < trials[:-1]).any():
            order = np.argsort(trials, kind="stable")
            rows = rows[order]
            trials = rows[:, 0]
            if data is not None:
                data = data[order]
        bounds = np.searchsorted(
            trials, np.arange(len(self.traces) + 1)
        ).tolist()
        for trace, lo, hi in zip(self.traces, bounds, bounds[1:]):
            if hi > lo:
                trace.append_log(
                    rows[lo:hi, 1:], None if data is None else data[lo:hi]
                )
        if self._objects:
            self._data[:size] = None
        self._size = 0
        self._objects = False
