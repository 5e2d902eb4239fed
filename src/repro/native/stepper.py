"""Marshalling layer between :class:`VectorRuntime` and the C kernel.

A :class:`NativeStepper` is created lazily by the runtime the first
time a batch advances through the native backend, and reused for the
batch's whole life: it pins the gain base pointer (dense stack, or the
shared dense matrix the sparse CSR path gathers from), allocates the
event sink and per-thread scratch blocks once, and on every call

1. caps the stride at the tightest per-trial slot budget and writes the
   per-trial absolute slot targets,
2. hands the runtime's *live* columnar state (kernel columns, busy /
   awake / seen / tx_mid, the NodeUniformBuffer storage) to
   ``repro_advance_slots`` by pointer — the C kernel mutates the very
   arrays the numpy path reads, so the two backends can interleave
   slot by slot without any copying or divergence,
3. collects each thread's event segment (segment order is ascending
   trial-range order, so per-trial event order is thread-count
   invariant), refills exhausted uniform lanes whole-chunk exactly as
   ``NodeUniformBuffer.take`` would before re-entering C, and folds the
   counter accumulators into each trial's channel.

Adapter-free batches run the whole stride in as few calls as the event
sink allows and drain the events straight into the per-trial
:class:`~repro.simulation.trace.EventTrace` objects.  With a protocol
adapter attached (BSMB / BMMB / consensus clients), client reactions
may start broadcasts between any two slots, so the kernel runs one slot
per call and the slot's events replay through the runtime's own slot
phases before the next call, in the numpy step's order: acks and
``on_ack`` (rebroadcasts staged), wakes and ``on_wake``, rcvs and
``on_rcv`` (each rcv row carries its decoded sender), then the end of
slot (acked detach, staged attach, ``flush``, slot counters).

The stepper never runs unless the runtime's eligibility probe passed
(counters-only, adversary-free, deterministic physics — dense, or
sparse-exact over one shared resolver — no churn mask); every other
slot shape falls back to the numpy step, transparently, in
``VectorRuntime.advance_slots``.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.native import (
    ERR_BETA_VIOLATION,
    EV_ACK,
    EV_COLS,
    EV_RCV,
    EV_WAKE,
    NativeState,
    load,
)
from repro.simulation.trace import TraceEvent

__all__ = ["NativeStepper"]

_EVENT_KINDS = {EV_ACK: "ack", EV_WAKE: "wake", EV_RCV: "rcv"}


def _ptr(array: np.ndarray | None):
    if array is None:
        return None
    return array.ctypes.data_as(ctypes.c_void_p)


class NativeStepper:
    """One batch's bridge to ``repro_advance_slots`` (see module doc)."""

    def __init__(self, runtime, threads: int = 1) -> None:
        lib = load()
        if lib is None:
            raise RuntimeError("native kernel is not built")
        self._lib = lib
        self._runtime = runtime
        n = runtime.n
        trials = runtime.trials
        kernel = runtime.kernel
        # More threads than trials would only spawn idle workers; the
        # partition stays deterministic for a fixed clamped count, so a
        # trial's event segment never moves between calls.
        self._nthreads = max(1, min(int(threads), trials))

        sparse = bool(runtime._sparse)
        # The gains are immutable for native-eligible batches (no
        # dynamic topology): pin the base pointer once.  A zero-stride
        # broadcast view (shared deployment, the common sweep) gathers
        # through its base matrix, exactly like the numpy kernel.  The
        # sparse-exact path has no stack at all — eligibility demands
        # one shared resolver, hence one deployment, and the C side
        # gathers the *dense* matrix entries the numpy sparse resolver
        # provably reproduces (recomputing powers in C is off the table:
        # libm pow is not bit-identical to numpy's).
        gains = runtime._gain_stack
        if gains is None:
            self._gains = np.ascontiguousarray(runtime.channels[0].gains)
            gain_stride = 0
        elif gains.ndim == 3 and gains.strides[0] == 0:
            self._gains = np.ascontiguousarray(gains[0])
            gain_stride = 0
        else:
            self._gains = np.ascontiguousarray(gains)
            gain_stride = n * n
        if sparse:
            resolver = runtime.channels[0]._resolver
            self._nbr = np.ascontiguousarray(resolver._nbr, dtype=np.int64)
            self._indptr = np.ascontiguousarray(
                resolver._indptr, dtype=np.int64
            )
        else:
            self._nbr = None
            self._indptr = None

        self._live = np.zeros(trials, dtype=np.uint8)
        self._trial_target = np.zeros(trials, dtype=np.int64)
        self._trial_slots = np.zeros(trials, dtype=np.int64)
        self._slot_counts = np.zeros(trials, dtype=np.int64)
        self._tx_totals = np.zeros(trials, dtype=np.int64)
        self._rx_totals = np.zeros(trials, dtype=np.int64)
        # Event sink: one segment per thread.  The C side checks a
        # worst case of 3n rows before entering a slot, so a segment of
        # at least 6n guarantees every thread at least one slot of
        # progress per call while letting sparse-event stretches (the
        # common case) run for thousands of slots.
        self._ev_seg = max(
            6 * n,
            (max(6 * trials * n, 1 << 14) + self._nthreads - 1)
            // self._nthreads,
        )
        self._events = np.empty((self._nthreads * self._ev_seg, EV_COLS),
                                dtype=np.int64)
        self._ev_lens = np.zeros(self._nthreads, dtype=np.int64)

        state = NativeState()
        state.trials = trials
        state.n = n
        state.nthreads = self._nthreads
        state.kind = kernel.NATIVE_KIND
        state.sparse = 1 if sparse else 0
        state.trial_target = _ptr(self._trial_target)
        state.live = _ptr(self._live)
        state.busy = _ptr(runtime._busy)
        state.awake = _ptr(runtime._awake)
        state.tx_mid = _ptr(runtime._tx_mid)
        state.seen = _ptr(runtime._seen)
        state.uni_buf = _ptr(runtime._uniforms._buf)
        state.uni_cursor = _ptr(runtime._uniforms._cursor)
        state.chunk = runtime._uniforms.chunk
        state.gains = _ptr(self._gains)
        state.gain_stride = gain_stride
        state.noise = float(runtime.params.noise)
        state.beta = float(runtime.params.beta)
        state.nbr = _ptr(self._nbr)
        state.indptr = _ptr(self._indptr)
        for name, column in kernel.native_columns().items():
            setattr(state, name, _ptr(column))
        state.trial_slots = _ptr(self._trial_slots)
        state.slot_counts = _ptr(self._slot_counts)
        state.tx_totals = _ptr(self._tx_totals)
        state.rx_totals = _ptr(self._rx_totals)
        state.events = _ptr(self._events)
        state.ev_seg = self._ev_seg
        state.ev_lens = _ptr(self._ev_lens)
        self._scratch = {
            "sc_tx": np.empty(self._nthreads * n, dtype=np.int64),
            "sc_tot": np.empty(self._nthreads * n, dtype=np.float64),
            "sc_txflag": np.empty(self._nthreads * n, dtype=np.uint8),
            "sc_stepped": np.empty(self._nthreads * n, dtype=np.uint8),
            "sc_decoded": np.empty(self._nthreads * n, dtype=np.uint8),
            "sc_rx_listener": np.empty(self._nthreads * n, dtype=np.int64),
            "sc_rx_sender": np.empty(self._nthreads * n, dtype=np.int64),
            "sc_cand": np.empty(self._nthreads * n, dtype=np.int64),
            "sc_candflag": np.empty(self._nthreads * n, dtype=np.uint8),
        }
        for name, array in self._scratch.items():
            setattr(state, name, _ptr(array))
        state.error = 0
        self._state = state

    def advance(self, k: int, rows: list[int]) -> int:
        """Advance ``rows`` (non-empty) by up to ``k`` native slots;
        return the count.

        The stride is capped at the tightest per-trial slot budget so
        the numpy path's budget ``RuntimeError`` still fires on the
        exact slot it would have (the caller falls back to ``advance``
        when 0 comes back).
        """
        runtime = self._runtime
        budget = min(
            runtime.max_slots[t] - runtime.slots[t] for t in rows
        )
        k = min(int(k), int(budget))
        if k <= 0:
            return 0
        self._live[:] = 0
        self._live[rows] = 1
        self._slot_counts[:] = 0
        self._tx_totals[:] = 0
        self._rx_totals[:] = 0
        row_idx = np.asarray(rows, dtype=np.intp)
        if runtime.adapter is None:
            self._run(row_idx, k, self._drain_events)
            slots = self._trial_slots.tolist()
            for t in rows:
                runtime.slots[t] = slots[t]
        else:
            for _ in range(k):
                self._replay(self._slot_events(row_idx), rows)
        self._sync_counters(rows)
        return k

    def _run(self, row_idx: np.ndarray, k: int, sink) -> None:
        """Run the kernel until ``row_idx`` stand ``k`` slots further on.

        Each call's event segments go to ``sink`` (thread order) before
        the next call overwrites them.  A call returns early when a
        stepping lane runs out of uniforms or a thread's segment fills;
        the loop refills and re-enters.
        """
        self._trial_slots[:] = self._runtime.slots
        self._trial_target[:] = self._trial_slots
        self._trial_target[row_idx] += k
        while True:
            before = self._trial_slots[row_idx].sum()
            rc = int(self._lib.repro_advance_slots(ctypes.byref(self._state)))
            if rc < 0:
                if rc == ERR_BETA_VIOLATION:
                    raise RuntimeError(
                        "beta > 1 violated: two decodable senders at "
                        "one listener"
                    )
                raise RuntimeError(
                    f"native kernel failed with code {rc}"
                )  # pragma: no cover - no other codes exist
            seg = self._ev_seg
            sink(
                [
                    self._events[th * seg : th * seg + count]
                    for th, count in enumerate(self._ev_lens.tolist())
                    if count
                ]
            )
            pending = self._trial_slots[row_idx] < self._trial_target[row_idx]
            if not pending.any():
                return
            progressed = self._trial_slots[row_idx].sum() > before
            if not self._refill_uniforms() and not progressed:
                raise RuntimeError(
                    "native kernel made no progress"
                )  # pragma: no cover - defensive

    def _drain_events(self, segments: list[np.ndarray]) -> None:
        """Append the C event records to the per-trial traces.

        Segments drain in thread order — ascending contiguous trial
        ranges — and a trial's events always land in the same segment,
        so each trial's event stream is in slot order regardless of
        thread count or how many calls the stride took.  Ack events
        also detach the acked broadcast from ``_current`` (adapter-free
        batches never rebroadcast mid-advance, so the message at drain
        time is the message that acked)."""
        runtime = self._runtime
        traces = runtime.traces
        current = runtime._current
        make = TraceEvent._make
        for segment in segments:
            for trial, slot, code, node, mid, _sender in segment.tolist():
                kind = _EVENT_KINDS[code]
                data = None if code == EV_WAKE else mid
                traces[trial].events.append(make((slot, kind, node, data)))
                if code == EV_ACK:
                    current[trial][node] = None

    def _slot_events(self, row_idx: np.ndarray) -> np.ndarray:
        """Run one slot of ``row_idx``; its event rows in trial order.

        A trial parked for a uniform refill finishes the slot in a
        later call (each trial's slot is whole within one call), so the
        calls' rows are copied and stably sorted by trial.
        """
        parts: list[np.ndarray] = []

        def keep(segments: list[np.ndarray]) -> None:
            parts.extend(segment.copy() for segment in segments)

        self._run(row_idx, 1, keep)
        if not parts:
            return self._events[:0]
        events = np.concatenate(parts)
        return events[np.argsort(events[:, 0], kind="stable")]

    def _replay(self, events: np.ndarray, rows: list[int]) -> None:
        """Finish one slot the C kernel ran, through the runtime's slot
        phases in the numpy step's order (acks and their reactions,
        wakes, rcvs, end of slot)."""
        runtime = self._runtime
        n = runtime.n
        codes = events[:, 2]
        cells = events[:, 0] * n + events[:, 3]
        woken = cells[codes == EV_WAKE]
        # The numpy step decides wakeups after the ack reactions (a
        # rebroadcast may wake a cell first): hand the cells C woke
        # back asleep and let the wake phase redo it.
        runtime._awake[woken] = False
        acked = runtime._ack_phase(cells[codes == EV_ACK])
        runtime._wake_phase(woken)
        rcv = events[codes == EV_RCV]
        base = rcv[:, 0] * n
        runtime._rcv_phase(base + rcv[:, 3], base + rcv[:, 5], rcv[:, 4])
        runtime._end_slot(rows, acked)

    def _refill_uniforms(self) -> bool:
        """Refill exhausted lanes that will step next slot; True if any.

        Whole-chunk refills of exactly the busy live lanes — the same
        lanes, the same ``Generator.random(chunk)`` calls, and the same
        per-lane stream positions ``NodeUniformBuffer.take`` would
        produce on the numpy path next slot."""
        runtime = self._runtime
        uniforms = runtime._uniforms
        live_cells = np.repeat(self._live.astype(bool), runtime.n)
        lanes = np.flatnonzero(
            runtime._busy & live_cells & (uniforms._cursor >= uniforms.chunk)
        )
        if not lanes.size:
            return False
        uniforms.refill(lanes)
        return True

    def _sync_counters(self, rows: list[int]) -> None:
        """Fold the per-trial channel accumulators into the channels."""
        runtime = self._runtime
        slot_counts = self._slot_counts.tolist()
        tx_totals = self._tx_totals.tolist()
        rx_totals = self._rx_totals.tolist()
        for t in rows:
            channel = runtime.channels[t]
            channel._slot_count += slot_counts[t]
            channel.total_transmissions += tx_totals[t]
            channel.total_receptions += rx_totals[t]
