"""Marshalling layer between :class:`VectorRuntime` and the C kernel.

A :class:`NativeStepper` is built by the runtime when it picks the
native backend for a batch, and serves the batch's whole life: it pins
the gain base pointer (dense stack, or the shared dense matrix the
sparse CSR path gathers from), allocates the event sink and per-thread
scratch blocks once, and on every call

1. writes the per-trial absolute slot targets (the runtime has already
   capped the stride at the tightest slot budget),
2. hands the runtime's columnar state (kernel columns, busy / awake /
   seen / tx_mid, and the per-node PCG64 words the kernel draws from)
   to ``repro_advance_slots`` by pointer — the C kernel mutates those
   very arrays, so nothing is copied in or out,
3. collects each thread's event segment (segment order is ascending
   trial-range order, so per-trial event order is thread-count
   invariant), re-entering C when a segment filled before the stride
   ended, and folds the counter accumulators into each trial's
   channel.

The kernel's ``[trial, slot, code, node, mid, sender]`` event rows are
the event log's own bulk format (its codes are the trace's kind
codes), so no event is ever turned into a Python object here.
Adapter-free batches run the whole stride in as few calls as the event
sink allows and append each call's rows to the per-trial
:class:`~repro.simulation.trace.EventTrace` objects as one slice per
trial.  With a protocol adapter attached (BSMB / BMMB / consensus
clients), client reactions may start broadcasts between any two slots,
so the kernel runs one slot per call and the slot's rows replay through
the runtime's own slot phases before the next call, in the numpy
step's order: acks and ``on_ack`` (rebroadcasts staged), wakes and
``on_wake``, rcvs and ``on_rcv`` (each rcv row carries its decoded
sender), then the end of slot (acked detach, staged attach, ``flush``,
slot counters).  Each phase appends its slice of the slot's rows to the
traces before the reactions run.

The runtime builds a stepper only when its eligibility probe passes
(counters-only, adversary-free, deterministic static physics — dense,
or sparse-exact over one shared resolver); every other batch runs the
numpy step for its whole life.
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
    MAX_THREADS,
    NativeState,
    load,
)

__all__ = ["NativeStepper"]


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
        # More threads than trials would only spawn idle workers, and C
        # runs at most MAX_THREADS; the partition stays deterministic
        # for a fixed clamped count, so a trial's event segment never
        # moves between calls.
        self._nthreads = max(1, min(int(threads), trials, MAX_THREADS))

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
        # Event sink: one segment per thread.  The C side enters a slot
        # only with a worst case of 3n rows left, so 6n rows per trial
        # of a thread's range let one call finish a slot of every trial
        # (the one-slot calls of adapter batches need exactly that) and
        # let sparse-event stretches (the common case) run for
        # thousands of slots.
        per_thread = -(-trials // self._nthreads)
        self._ev_seg = max(
            6 * n * per_thread, -(-(1 << 14) // self._nthreads)
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
        state.pcg = _ptr(runtime._pcg)
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
        """Advance ``rows`` (non-empty, each with ``k`` slots of budget
        left) by ``k`` native slots; return ``k``."""
        runtime = self._runtime
        self._live[:] = 0
        self._live[rows] = 1
        self._slot_counts[:] = 0
        self._tx_totals[:] = 0
        self._rx_totals[:] = 0
        row_idx = np.asarray(rows, dtype=np.intp)
        if runtime.adapter is None:
            self._set_targets(row_idx, k)
            # A call returns short of the targets only when a thread's
            # event segment filled: drain it and re-enter.
            while True:
                self._drain_events(self._call())
                if not self._unfinished():
                    break
            slots = self._trial_slots.tolist()
            for t in rows:
                runtime.slots[t] = slots[t]
        else:
            self._set_targets(row_idx, 1)
            for step in range(k):
                if step:  # C and the replay moved every row one slot on
                    self._trial_target[row_idx] += 1
                segments = self._call()
                if self._unfinished():
                    raise RuntimeError("native kernel returned mid-slot")
                # Segments come in ascending trial-range order and each
                # holds whole slots, so the rows are already in trial
                # order.
                self._replay(
                    np.concatenate(segments or [self._events[:0]]), rows
                )
        self._sync_counters(rows)
        return k

    def _set_targets(self, row_idx: np.ndarray, k: int) -> None:
        """Aim ``row_idx`` at ``k`` slots past the runtime's counts."""
        self._trial_slots[:] = self._runtime.slots
        self._trial_target[:] = self._trial_slots
        self._trial_target[row_idx] += k

    def _unfinished(self) -> bool:
        """Is a row short of its target?  (Other trials sit at theirs.)"""
        return bool((self._trial_slots < self._trial_target).any())

    def _call(self) -> list[np.ndarray]:
        """One kernel call; the event rows it wrote, one array per
        non-empty thread segment, in thread order."""
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
        return [
            self._events[th * seg : th * seg + count]
            for th, count in enumerate(self._ev_lens.tolist())
            if count
        ]

    def _drain_events(self, segments: list[np.ndarray]) -> None:
        """Append the C event rows to the per-trial traces in bulk.

        Segments drain in thread order — ascending contiguous trial
        ranges — and a thread runs its trials one after another, so
        the rows of one call are trial-major and each trial's rows are
        in slot order, whatever the thread count or however many calls
        the stride took: each trace receives one slice per call.  Ack
        rows also detach the acked broadcast from ``_current``
        (adapter-free batches never rebroadcast mid-advance, so the
        message at drain time is the message that acked)."""
        if not segments:
            return
        events = np.concatenate(segments)
        runtime = self._runtime
        runtime._log.append_rows(events)
        acks = events[events[:, 2] == EV_ACK]
        runtime._current[acks[:, 0] * runtime.n + acks[:, 3]] = None

    def _replay(self, events: np.ndarray, rows: list[int]) -> None:
        """Finish one slot the C kernel ran, through the runtime's slot
        phases in the numpy step's order (acks and their reactions,
        wakes, rcvs, end of slot).  Most slots carry no event or only
        rcvs, and skip the per-kind split."""
        runtime = self._runtime
        acked = []
        if len(events):
            base = events[:, 0] * runtime.n
            cells = base + events[:, 3]
            codes = events[:, 2]
            if codes.min() != EV_RCV:
                wakes = codes == EV_WAKE
                woken = cells[wakes]
                # The numpy step decides wakeups after the ack reactions
                # (a rebroadcast may wake a cell first): hand the cells
                # C woke back asleep and let the wake phase redo it.
                runtime._awake[woken] = False
                acks = codes == EV_ACK
                acked = runtime._ack_phase(cells[acks], events[acks])
                runtime._wake_phase(woken, events[wakes])
                rcvs = codes == EV_RCV
                events, base, cells = events[rcvs], base[rcvs], cells[rcvs]
            runtime._rcv_phase(cells, base + events[:, 5], events[:, 4], events)
        runtime._end_slot(rows, acked)

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
