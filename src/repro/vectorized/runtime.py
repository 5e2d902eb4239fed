"""The columnar population runtime.

:class:`VectorRuntime` is the fast-path counterpart of
:class:`~repro.simulation.runtime.Runtime`: it advances the MAC
populations of many batched trials one slot at a time, but where the
object runtime makes N ``on_slot`` calls per trial per slot, this one
makes a fixed number of array operations over the ``trials × n``
lattice — the per-node protocol state lives in a columnar kernel
(:mod:`repro.vectorized.kernels`), the per-slot draws come from a bulk
pre-draw of each node's PCG64 words
(:class:`~repro.simulation.rng.NodeUniformBuffer`), and the SINR
physics of the whole batch resolves through the flat
``(trial, listener, sender)`` decodes of
:func:`~repro.sinr.physics.successful_receptions_batch`.  Batches the
fused C kernel covers run there instead (:mod:`repro.native`), each
node drawing from its own PCG64 state stepped in place.

Equivalence contract
--------------------
A trial advanced here is **decode-for-decode identical** to the same
trial on the object runtime: same per-node RNG streams (drawn in the
same order), same transmit decisions and payloads, same receptions,
same wake/bcast/rcv/ack slots, same channel counters, and the same
:class:`~repro.simulation.trace.EventTrace` content.  The only visible
difference is intra-slot event interleaving: the object runtime
interleaves events node by node, while this runtime records each slot's
events grouped by kind (all transmits, then acks, then the delivery
events) — within one kind the order is identical, and every
measurement in :mod:`repro.core.spec` is ordering-free within a slot.
Every event reaches the traces as rows appended in bulk: the numpy step
stages each slot's rows of all trials in a
:class:`~repro.simulation.trace.TraceBatch` (the physical transmit rows
with a reference to their payload, the receive rows with none), and the
native path hands over the C kernel's own rows.

Scope: every node of a trial runs the same MAC — Decay, Algorithm B.1,
Algorithm 9.1, or Algorithm 11.1, which interleaves the last two on
alternate slots.  Bare ``MacClient`` populations (the Table-1 and
Theorem-8.1 experiment shape) run exactly as before; reactive protocol
clients (BSMB relays, BMMB queues, consensus waves) attach through a
:class:`~repro.vectorized.protocols.VectorMacAdapter`, which receives
this runtime's MAC events (wake / rcv / ack) as cell index arrays and
may start new broadcasts in response.  Rebroadcasting detaches the
single-shot restriction: each new broadcast resets the cell's kernel
state to a fresh engine (``kernel.reset``), mirroring the object MACs'
fresh-``Engine``-per-broadcast rule.  Sleeping nodes remain pure
listeners woken by their first decode (conditional wakeup,
Definition 4.4).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.core.events import BcastMessage, MessageRegistry
from repro.native import resolve_backend, resolve_threads
from repro.simulation.rng import (
    NodeUniformBuffer,
    pcg64_columns,
    spawn_node_rngs,
)
from repro.simulation.trace import (
    ABSENT,
    ACK,
    BCAST,
    RCV,
    ROW,
    WAKE,
    EventTrace,
    TraceBatch,
    event_rows,
)
from repro.sinr.channel import Channel
from repro.sinr.physics import batch_tensor, successful_receptions_batch
from repro.vectorized.kernels import ApproxProgressKernel, CombinedKernel

__all__ = ["VectorRuntime"]

_EMPTY_IDS = np.empty(0, dtype=np.intp)

# Byte ceiling for the rcv-dedup boolean matrix ((trials·n, n) cells);
# batches beyond it use the per-decode set fallback instead.  256 MiB
# admits a single n=10000 trial (1e8 cells) — the sparse-native bench
# shape — while still refusing the quadratic blowup of big-n *many*
# trial batches.
SEEN_MATRIX_CAP = 256 << 20


class VectorRuntime:
    """Lockstep columnar executor for a batch of homogeneous trials.

    Parameters
    ----------
    channels:
        One :class:`~repro.sinr.channel.Channel` per trial; all must
        share the node count and SINR parameters (the engine's batch
        key).  Each trial keeps its own adversary, counters and trace.
    kernel:
        A columnar protocol kernel sized for ``len(channels)`` trials of
        ``n`` nodes (:mod:`repro.vectorized.kernels`): Decay or Ack,
        stepped on the cells with a broadcast in flight; Algorithm 9.1,
        stepped on every awake cell; or Algorithm 11.1, the two
        interleaved on alternate slots.
    seeds:
        Per-trial master seeds; node generators are spawned exactly as
        the object runtime spawns them, so streams line up node for
        node.
    max_slots:
        Per-trial slot budget (int applies to all trials); exceeding it
        raises ``RuntimeError`` like the object runtime's budget check.
    record_physical:
        When True (default), every physical transmit/receive is traced,
        as bulk rows (:meth:`~repro.simulation.trace.TraceBatch.add_transmits`).
    native:
        Backend selector for the fused C slot loop (:mod:`repro.native`):
        ``False`` pins the pure-numpy reference path, ``True`` demands
        the compiled kernel (raising when it is not built), ``None``
        (default) defers to the ``REPRO_NATIVE`` environment variable
        and otherwise auto-selects whatever is available.  The backend
        is chosen once, here: a batch the C kernel does not cover
        (tracing, fading, churn, adversaries, approximate-sparse
        physics) runs the numpy step for its whole life — the backends
        produce bit-identical results, so this is purely a speed knob.
        Sparse-*exact* batches over one shared resolver ride the fused
        CSR decode path; batches with a protocol adapter attached ride
        the kernel one slot per call, their client reactions replayed
        between slots.
    native_threads:
        Kernel threads partitioning the trials axis inside the C loop
        (``None`` defers to ``REPRO_NATIVE_THREADS``, default 1).
        Purely wall-clock: results are bit-identical for every count.
    """

    def __init__(
        self,
        channels: Sequence[Channel],
        kernel,
        seeds: Sequence[int | None],
        max_slots: Sequence[int] | int = 2_000_000,
        record_physical: bool = True,
        native: bool | None = None,
        native_threads: int | None = None,
    ) -> None:
        self.channels = list(channels)
        if not self.channels:
            raise ValueError("need at least one trial channel")
        trials = len(self.channels)
        if len(seeds) != trials:
            raise ValueError("need one seed per trial")
        n = self.channels[0].n
        params = self.channels[0].params
        for channel in self.channels[1:]:
            if channel.n != n or channel.params != params:
                raise ValueError(
                    "all trials of one vector batch must share node "
                    "count and SINR parameters"
                )
        kernel_cells = len(kernel.configs) * kernel.n
        if kernel.n != n or kernel_cells != trials * n:
            raise ValueError("kernel lattice does not match the batch")
        self.kernel = kernel
        # The busy-cell MAC kernel (Decay, Ack, Algorithm 11.1's even
        # slots) and the Algorithm 9.1 kernel, either one possibly None.
        self._mac = kernel
        self._approg = None
        if isinstance(kernel, CombinedKernel):
            self._mac, self._approg = kernel.ack, kernel.approg
        elif isinstance(kernel, ApproxProgressKernel):
            self._mac, self._approg = None, kernel
        self.params = params
        self.trials = trials
        self._n = n
        self.record_physical = bool(record_physical)
        if isinstance(max_slots, int):
            max_slots = [max_slots] * trials
        self.max_slots = [int(m) for m in max_slots]
        if len(self.max_slots) != trials:
            raise ValueError("need one max_slots per trial")

        self._has_adversary = any(
            c.adversary is not None for c in self.channels
        )
        # Sparse resolution (params.sparse; shared — params is the
        # batch key) swaps the batched tensor reduction for per-trial
        # grid resolution: no (trials, n, n) stack is built, keeping
        # the columnar path free of the O(n²) matrices too.
        self._sparse = self.channels[0].sparse_active
        # Sparse-exact batches where every trial shares ONE resolver
        # object (same deployment + spec through the artifact cache)
        # stay native-eligible: the C kernel walks the shared CSR
        # candidate lists and gathers the shared dense gain matrix —
        # bit-identical to the numpy sparse resolver by construction.
        # Approximate modes and per-trial resolvers take the numpy step.
        self._sparse_native_ok = False
        if self._sparse:
            resolver = self.channels[0]._resolver
            spec = self.channels[0].sparse_spec
            self._sparse_native_ok = (
                spec is not None
                and spec.mode == "exact"
                and all(c._resolver is resolver for c in self.channels)
            )
        if self._sparse:
            self._dist_stack = None
            self._gain_stack = None
        else:
            self._dist_stack = batch_tensor(
                [c.distances for c in self.channels]
            )
            self._gain_stack = batch_tensor(
                [c.gains for c in self.channels]
            )
        # Arm each trial's channel with its own master seed, exactly as
        # the object Runtime does: the stochastic model (shared params ⇒
        # all trials or none) gets its per-trial channel streams, and
        # any dynamic topology provider binds fresh per-trial state.
        # Both arms are no-ops for plain channels, so static
        # deterministic batches stay byte-identical.
        self._stochastic = self.channels[0].stochastic
        self._dynamic = any(c.dynamic_topology for c in self.channels)
        if self._stochastic or self._dynamic:
            for channel, seed in zip(self.channels, seeds):
                channel.bind_trial_seed(seed)

        self.traces = [EventTrace() for _ in range(trials)]
        self._trial_bounds = np.arange(trials + 1)  # searchsorted probes
        # Every event row goes through one staging batch, handed to the
        # traces when the public call that produced it returns.
        self._log = TraceBatch(self.traces)
        self._holding = False
        self.registries = [MessageRegistry() for _ in range(trials)]
        self.slots = [0] * trials
        self._awake = np.zeros(trials * n, dtype=bool)
        self._busy = np.zeros(trials * n, dtype=bool)
        self._has_broadcast = np.zeros(trials * n, dtype=bool)
        # Each cell's in-flight message (None when idle).
        self._current = np.full(trials * n, None, dtype=object)
        self._delivered: list[set[tuple[int, int]]] = [
            set() for _ in range(trials)
        ]
        self.adapter = None
        # Broadcasts requested while this slot's transmissions are being
        # resolved swap in only after delivery: receivers of the final
        # (halting) transmission must still see the message that was on
        # the air, exactly like the object runtime's payload snapshot.
        self._in_phase1 = False
        self._staged_current: list[tuple[int, int, BcastMessage]] = []
        self._tx_mid = np.full(trials * n, -1, dtype=np.int64)
        # Columnar rcv dedup: because only a message's origin ever
        # transmits it (every MAC mints its own messages), "listener
        # already delivered the sender's current message" is exactly
        # the per-mid dedup rule of MacLayerBase._deliver — one boolean
        # gather replaces the per-decode set probes, and duplicate
        # decodes (the common case under Decay/Ack repetition) cost no
        # Python at all.  Falls back to the per-decode sets when the
        # matrix would be large (big-n many-trial batches).
        self._seen = None
        if trials * n * n <= SEEN_MATRIX_CAP:
            self._seen = np.zeros((trials * n, n), dtype=bool)
        # Churn liveness over the flat lattice: None while every node of
        # every trial is up (the overwhelmingly common case — the fast
        # paths then skip all masking), else a (trials·n,) bool mask.
        self._alive = self._gather_alive()

        # The backend, chosen once: nothing _native_ok() reads changes
        # inside a batch.  A native batch hands each node's PCG64 state
        # to the C kernel, which steps it in place; a numpy batch feeds
        # its step from a bulk pre-draw of the same generators.
        # native_slots counts the slots the compiled kernel advanced.
        self._use_native = resolve_backend(native)
        threads = resolve_threads(native_threads)
        rngs = [
            rng
            for seed in seeds
            for rng in spawn_node_rngs(n, seed)
        ]
        self._stepper = None
        if self._native_ok():
            from repro.native.stepper import NativeStepper

            self._pcg = pcg64_columns(rngs)
            self._stepper = NativeStepper(self, threads=threads)
        else:
            self._uniforms = NodeUniformBuffer(rngs)
        self.native_slots = 0

    def _gather_alive(self) -> np.ndarray | None:
        """Flatten the per-channel churn masks (None = all alive)."""
        if not any(c.alive is not None for c in self.channels):
            return None
        n = self._n
        alive = np.ones(self.trials * n, dtype=bool)
        for t, channel in enumerate(self.channels):
            if channel.alive is not None:
                alive[t * n : (t + 1) * n] = channel.alive
        return alive

    def attach_adapter(self, adapter) -> None:
        """Install a protocol client adapter
        (:class:`~repro.vectorized.protocols.VectorMacAdapter`)."""
        self.adapter = adapter

    # -- population facts --------------------------------------------------

    @property
    def n(self) -> int:
        """Nodes per trial."""
        return self._n

    @property
    def slot(self) -> int:
        """Current slot of trial 0 (the single-trial convenience view)."""
        return self.slots[0]

    @property
    def trace(self) -> EventTrace:
        """Trace of trial 0 (the single-trial convenience view)."""
        return self.traces[0]

    def schedule(self, trial: int):
        """The trial's Algorithm 9.1
        :class:`~repro.core.approx_progress.EpochSchedule` (None when
        the stack has none)."""
        return None if self._approg is None else self._approg.schedules[trial]

    def busy_nodes(self, trial: int) -> np.ndarray:
        """Ids of the trial's nodes with a broadcast in flight."""
        row = self._busy[trial * self._n : (trial + 1) * self._n]
        return np.flatnonzero(row)

    def any_busy(self, trial: int, nodes=None) -> bool:
        """True while any (given) node of the trial is broadcasting."""
        row = self._busy[trial * self._n : (trial + 1) * self._n]
        if nodes is None:
            return bool(row.any())
        return bool(row[np.asarray(list(nodes), dtype=np.intp)].any())

    def busy_cells(self, cells: np.ndarray) -> np.ndarray:
        """Broadcast-in-flight flags for flat lattice cells."""
        return self._busy[cells]

    # -- environment inputs ------------------------------------------------

    def wake_node(self, trial: int, node: int) -> None:
        """Wake one node (environment input or conditional wakeup)."""
        cell = trial * self._n + node
        if not self._awake[cell]:
            self._awake[cell] = True
            self._log.flush()
            self.traces[trial].record(self.slots[trial], "wake", node)

    def record_events(
        self, cells: np.ndarray, kind: str, values: np.ndarray
    ) -> None:
        """Record one event of any kind (a protocol output such as
        ``decide``) per cell, after every staged row."""
        self._log.flush()
        n = self._n
        for cell, value in zip(cells.tolist(), values.tolist()):
            trial, node = divmod(cell, n)
            self.traces[trial].record(self.slots[trial], kind, node, value)

    def bcast(self, trial: int, node: int, payload: Any = None) -> BcastMessage:
        """Begin a local broadcast at the node, as MacLayer.bcast (the
        one-cell form of :meth:`bcast_cells`)."""
        cell = np.array([trial * self._n + node], dtype=np.intp)
        return self.bcast_cells(cell, [payload])[0]

    def bcast_cells(
        self, cells: np.ndarray, payloads: Sequence[Any]
    ) -> list[BcastMessage]:
        """Begin one local broadcast per cell (``payloads`` aligned).

        A node may broadcast again once its previous broadcast acked;
        every new broadcast resets the cell's kernel state to a fresh
        engine (the object MACs construct a fresh ``Engine`` per
        broadcast), one batched ``kernel.reset`` for all of them.
        Requests arriving while this slot's transmissions resolve
        (phase 1: ack-triggered rebroadcasts) stage the in-flight
        message swap until after delivery.  Messages are minted per
        cell in the given order, and each trace gets the cells' events
        — a sleeping cell's wake, then its bcast — as one block of rows.
        """
        ordered = np.sort(cells)
        taken = np.concatenate(  # a repeated cell's second bcast finds it busy
            [cells[self._busy[cells]], ordered[1:][ordered[1:] == ordered[:-1]]]
        )
        if taken.size:
            trial, node = divmod(int(taken[0]), self._n)
            raise RuntimeError(
                f"node {node} of trial {trial} is already broadcasting"
            )
        reset_cells = cells[self._has_broadcast[cells]]
        if reset_cells.size:
            self.kernel.reset(reset_cells)
        n = self._n
        trials = cells // n
        nodes = cells - trials * n
        placed = list(zip(trials.tolist(), nodes.tolist()))
        messages = [
            self.registries[t].mint(node, payload)
            for (t, node), payload in zip(placed, payloads)
        ]
        asleep = ~self._awake[cells]
        self._awake[cells] = True
        self._has_broadcast[cells] = True
        self._busy[cells] = True
        for (t, node), message in zip(placed, messages):
            if self._in_phase1:
                self._staged_current.append((t, node, message))
            else:
                self._attach_message(t, node, message)
        at = np.arange(len(cells)) + np.cumsum(asleep)  # each bcast row
        woke = at[asleep] - 1
        rows = np.empty((len(at) + len(woke), len(ROW)), dtype=np.int64)
        rows[at] = self._event_rows(
            trials, BCAST, nodes, [message.mid for message in messages]
        )
        rows[woke] = self._event_rows(trials[asleep], WAKE, nodes[asleep])
        self._log.add_rows(rows)
        self._release()
        return messages

    def _attach_message(
        self, trial: int, node: int, message: BcastMessage
    ) -> None:
        """Make ``message`` the cell's in-flight broadcast: payload
        source for deliveries, mid column for rcv events, and a fresh
        dedup column (nobody has delivered the new message yet)."""
        n = self._n
        self._current[trial * n + node] = message
        self._tx_mid[trial * n + node] = message.mid
        if self._seen is not None:
            self._seen[trial * n : (trial + 1) * n, node] = False

    def _release(self) -> None:
        """Hand the staged rows to the traces, unless a slot loop is
        running (it flushes once, when it returns)."""
        if not self._holding:
            self._log.flush()

    # -- the slot loop -----------------------------------------------------

    def advance(self, rows: Sequence[int] | None = None) -> None:
        """Advance the given trials (default: all) by one slot."""
        if self._stepper is not None:
            self.advance_slots(1, rows)
            return
        if self._holding:  # one slot of advance_slots
            self._step(rows)
            return
        self._holding = True
        try:
            self._step(rows)
        finally:
            self._holding = False
            self._log.flush()

    def _row_cells(self, mask: np.ndarray, rows: list[int]) -> np.ndarray:
        """The cells of ``mask`` in trials ``rows`` that are not crashed."""
        if len(rows) < self.trials:
            live = np.zeros(self.trials, dtype=bool)
            live[rows] = True
            mask = mask & live.repeat(self._n)
        if self._alive is not None:
            # Crashed cells are frozen: no kernel step, no RNG draw, no
            # transmission — the columnar twin of the object runtime
            # skipping their on_slot call.
            mask = mask & self._alive
        return mask.nonzero()[0]

    def _step(self, rows: Sequence[int] | None) -> None:
        """One slot of the numpy step."""
        n = self._n
        trials = self.trials
        rows = list(range(trials)) if rows is None else list(rows)
        self._check_budget(rows)

        if self._dynamic:
            # Epoch contract: per-trial topology changes land before
            # this slot's transmit decisions (as in Runtime.step); any
            # geometry move restacks the batch tensors, and the churn
            # mask is re-gathered so crashed cells freeze below.
            geometry_moved = False
            for t in rows:
                geometry_moved |= self.channels[t].advance_topology(
                    self.slots[t]
                )
            if geometry_moved and not self._sparse:
                self._dist_stack = batch_tensor(
                    [c.distances for c in self.channels]
                )
                self._gain_stack = batch_tensor(
                    [c.gains for c in self.channels]
                )
            self._alive = self._gather_alive()

        # Which kernel each trial steps: Algorithm 9.1 on its virtual
        # slots (every slot alone, the odd ones inside Algorithm 11.1),
        # the busy-cell MAC kernel on all others.
        approg = self._approg
        if approg is None:
            mac_rows, approg_rows = rows, []
        else:
            stride = approg.stride
            last = stride - 1
            approg_rows = [t for t in rows if self.slots[t] % stride == last]
            mac_rows = (
                [t for t in rows if self.slots[t] % stride != last]
                if self._mac is not None
                else []
            )

        # Phase 1: every stepped cell decides transmit/listen (drawing
        # from its node's private stream).
        tx_cells = ack_cells = _EMPTY_IDS
        feedback_ok = None
        if mac_rows:
            idx = self._row_cells(self._busy, mac_rows)
            transmit, halted = self._mac.step(idx, self._uniforms.take(idx))
            tx_cells = idx[transmit]
            ack_cells = idx[halted]
            # Reception feedback (Ack fallback counting) is owed to
            # exactly the engines that ran this slot and did not halt:
            # on the object path a halting cell's engine is gone before
            # delivery, and a same-slot (re)broadcast has no engine
            # until its first step.
            if self.kernel.needs_reception_feedback:
                feedback_ok = np.zeros(trials * n, dtype=bool)
                feedback_ok[idx[~halted]] = True
        # Cells whose payload this slot is not their broadcast message
        # (Algorithm 9.1's est1 / est2 / mis tuples); None: there are
        # none.
        tuples = None
        if approg_rows:
            awake = self._row_cells(self._awake, approg_rows)
            sent, carries = approg.step(
                approg_rows, self.slots, awake, self._busy, self._uniforms
            )
            if not carries.all():
                tuples = np.zeros(trials * n, dtype=bool)
                tuples[sent[~carries]] = True
            tx_cells = (
                np.sort(np.concatenate([tx_cells, sent]))
                if tx_cells.size
                else sent
            )

        tx_trial = tx_cells // n
        tx_node = tx_cells - tx_trial * n
        slots = np.asarray(self.slots, dtype=np.int64)
        payloads = None
        if self.record_physical or self._has_adversary:
            payloads = self._payloads(tx_cells, tuples)
        if self.record_physical and tx_cells.size:
            self._log.add_transmits(
                tx_trial, slots[tx_trial], tx_node, payloads
            )
        bounds = tx_trial.searchsorted(self._trial_bounds).tolist()
        tx_ids: list[np.ndarray] = [_EMPTY_IDS] * trials
        for t in rows:
            if bounds[t] < bounds[t + 1]:
                tx_ids[t] = tx_node[bounds[t] : bounds[t + 1]]

        acked = self._ack_phase(ack_cells)

        # One flat SINR reduction for the whole batch.  Under an active
        # channel model each trial contributes its own effective-power
        # block (static multipliers + this slot's fading draws from the
        # trial's private channel stream), concatenated in trial order
        # to match the kernel's ragged row layout.
        if self._sparse:
            # Per-trial grid resolution in trial order (each channel
            # consumes its own fading stream exactly as the dense block
            # concat below would); concatenated flat arrays reproduce
            # the batched kernel's (trial, transmitter, listener)
            # ordering, so everything downstream is unchanged.
            parts_t: list[np.ndarray] = []
            parts_l: list[np.ndarray] = []
            parts_s: list[np.ndarray] = []
            for t in range(trials):
                if not tx_ids[t].size:
                    continue
                listeners, senders = self.channels[t].resolve_raw_flat(
                    tx_ids[t]
                )
                if listeners.size:
                    parts_t.append(
                        np.full(listeners.size, t, dtype=np.intp)
                    )
                    parts_l.append(listeners)
                    parts_s.append(senders)
            if parts_t:
                hit_trial = np.concatenate(parts_t)
                hit_listener = np.concatenate(parts_l)
                hit_sender = np.concatenate(parts_s)
            else:
                hit_trial = hit_listener = hit_sender = _EMPTY_IDS
        else:
            link_powers = None
            if self._stochastic:
                blocks = [
                    self.channels[t].slot_link_powers(tx_ids[t])
                    for t in range(trials)
                    if tx_ids[t].size
                ]
                if blocks:
                    link_powers = np.concatenate(blocks)
            hit_trial, hit_listener, hit_sender = (
                successful_receptions_batch(
                    self.params,
                    self._dist_stack,
                    tx_ids,
                    gains=self._gain_stack,
                    link_powers=link_powers,
                )
            )
        if self._alive is not None and hit_trial.size:
            # Churn: a crashed listener's radio is off — drop its
            # decodes before any counter, wakeup or adversary sees them
            # (Channel.finalize_slot applies the same mask on the
            # object executors).
            keep = self._alive[hit_trial * n + hit_listener]
            if not keep.all():
                hit_trial = hit_trial[keep]
                hit_listener = hit_listener[keep]
                hit_sender = hit_sender[keep]

        if self._has_adversary:
            hit_trial, hit_listener, hit_sender = self._filter(
                rows,
                tx_ids,
                tx_cells,
                payloads,
                hit_trial,
                hit_listener,
                hit_sender,
            )
        else:
            rx_bounds = hit_trial.searchsorted(self._trial_bounds).tolist()
            for t in rows:
                # finalize_slot's bookkeeping, no dict traffic.
                channel = self.channels[t]
                channel._slot_count += 1
                channel.total_transmissions += int(tx_ids[t].size)
                channel.total_receptions += rx_bounds[t + 1] - rx_bounds[t]
        self._deliver(
            hit_trial,
            hit_listener,
            hit_sender,
            slots,
            tuples,
            approg_rows,
            feedback_ok,
        )
        self._end_slot(rows, acked)

    def _payloads(self, cells, tuples) -> np.ndarray:
        """What each transmitting cell sends (an object array): its
        broadcast message, or (``tuples``) an Algorithm 9.1 payload
        tuple."""
        payloads = self._current[cells]
        if tuples is not None:
            marked = tuples[cells]
            payloads[marked] = self._approg.payloads(cells[marked])
        return payloads

    def _filter(
        self,
        rows,
        tx_ids,
        tx_cells,
        payloads,
        hit_trial,
        hit_listener,
        hit_sender,
    ):
        """The decodes that survive ``Channel.finalize_slot``, for
        batches with failure injection: the adversary filters the same
        receptions dict in the same order as the object runtime
        (consuming its RNG stream identically) and keeps the channel
        counters.  Returns the surviving ``(trial, listener, sender)``
        arrays, in delivery order."""
        n = self._n
        payload_of = dict(zip(tx_cells.tolist(), payloads))
        bounds = hit_trial.searchsorted(self._trial_bounds).tolist()
        kept_t: list[int] = []
        kept_l: list[int] = []
        kept_s: list[int] = []
        for t in rows:
            lo, hi = bounds[t], bounds[t + 1]
            raw = dict(
                zip(hit_listener[lo:hi].tolist(), hit_sender[lo:hi].tolist())
            )
            sent = {
                node: payload_of[t * n + node] for node in tx_ids[t].tolist()
            }
            outcome = self.channels[t].finalize_slot(sent, tx_ids[t], raw)
            for listener, (sender, _payload) in outcome.receptions.items():
                kept_t.append(t)
                kept_l.append(listener)
                kept_s.append(sender)
        return (
            np.asarray(kept_t, dtype=np.intp),
            np.asarray(kept_l, dtype=np.intp),
            np.asarray(kept_s, dtype=np.intp),
        )

    def _deliver(
        self,
        hit_trial,
        hit_listener,
        hit_sender,
        slots,
        tuples,
        approg_rows,
        feedback_ok,
    ) -> None:
        """Phase 2: this slot's delivered decodes, in delivery order —
        conditional wakeups, receive rows, Algorithm 9.1 bookkeeping,
        then the deduplicated rcv events of broadcast messages and the
        reception feedback."""
        n = self._n
        hit_cells = hit_trial * n + hit_listener
        sender_cells = hit_trial * n + hit_sender
        self._wake_phase(hit_cells)
        # Decodes of a broadcast message (not an Algorithm 9.1 tuple).
        message = None if tuples is None else ~tuples[sender_cells]
        if self.record_physical and hit_cells.size:
            mids = self._tx_mid[sender_cells]
            origins = hit_sender
            if message is not None:
                mids = np.where(message, mids, ABSENT)
                origins = np.where(message, origins, ABSENT)
            self._log.add_receives(
                hit_trial,
                slots[hit_trial],
                hit_listener,
                hit_sender,
                mids,
                origins,
            )
        if approg_rows and hit_cells.size:
            if len(approg_rows) < self.trials:
                stepped = np.zeros(self.trials, dtype=bool)
                stepped[approg_rows] = True
                mine = stepped[hit_trial]
                self._approg.receive(hit_cells[mine], sender_cells[mine])
            else:
                self._approg.receive(hit_cells, sender_cells)
        if message is not None:
            hit_cells = hit_cells[message]
            sender_cells = sender_cells[message]
        if hit_cells.size:
            fresh = self._first_deliveries(hit_cells, sender_cells)
            senders = sender_cells[fresh]
            self._rcv_phase(hit_cells[fresh], senders, self._tx_mid[senders])
            if feedback_ok is not None:
                feedback = hit_cells[feedback_ok[hit_cells]]
                if feedback.size:
                    self.kernel.notify(feedback)

    def _first_deliveries(
        self, cells: np.ndarray, sender_cells: np.ndarray
    ) -> np.ndarray:
        """Which decodes deliver the sender's message to the listener
        for the first time (and mark them delivered)."""
        n = self._n
        if self._seen is not None:
            # Columnar dedup: one boolean gather finds the first
            # deliveries; duplicate decodes cost no Python (see the
            # _seen comment in __init__).
            senders = sender_cells % n
            fresh = ~self._seen[cells, senders]
            self._seen[cells[fresh], senders[fresh]] = True
            return fresh
        fresh = np.zeros(cells.size, dtype=bool)
        for i, (cell, mid) in enumerate(
            zip(cells.tolist(), self._tx_mid[sender_cells].tolist())
        ):
            delivered = self._delivered[cell // n]
            if (cell, mid) not in delivered:
                delivered.add((cell, mid))
                fresh[i] = True
        return fresh

    # -- slot phases shared with the native replay -------------------------
    #
    # The numpy step above and the native stepper's per-slot replay
    # (adapter batches, repro.native.stepper) both run a slot's MAC
    # events through these four phases in this order, so the staging
    # rules live in one place.

    def _ack_phase(
        self, cells: np.ndarray, rows: np.ndarray | None = None
    ) -> list[tuple[int, BcastMessage]]:
        """Acknowledge the ascending ``cells`` whose broadcasts ended.

        Acks fire in the slot the budget runs out, with the final
        transmission still on the air: the messages stay attached until
        :meth:`_end_slot`, so this slot's receptions of them still
        resolve their payload (the object path snapshots payloads into
        the transmissions dict for the same reason).  Client reactions
        (queue pumps, next waves) run now, in ascending cell order like
        the object runtime's phase-1 node loop; any rebroadcast they
        request stages its message swap until after delivery.  Returns
        the acked ``(cell, message)`` pairs.

        ``rows`` (here and in the other phases) are the cells' event
        rows (:data:`~repro.simulation.trace.ROW`) when the caller
        already holds them, aligned with ``cells``: the native replay
        passes the kernel's own rows.
        """
        if not cells.size:
            return []
        n = self._n
        self._busy[cells] = False
        trials = cells // n
        nodes = cells - trials * n
        acked = list(zip(cells.tolist(), self._current[cells].tolist()))
        if rows is None:
            rows = self._event_rows(trials, ACK, nodes, self._tx_mid[cells])
        self._log.add_rows(rows)
        if self.adapter is not None:
            self._in_phase1 = True
            try:
                self.adapter.on_ack(cells)
            finally:
                self._in_phase1 = False
        return acked

    def _wake_phase(
        self, cells: np.ndarray, rows: np.ndarray | None = None
    ) -> None:
        """Conditional wakeup (Definition 4.4): the sleeping cells among
        this slot's decoding listeners wake, in delivery order, and the
        adapter hears of them."""
        asleep = ~self._awake[cells]
        woken = cells[asleep]
        if not woken.size:
            return
        self._awake[woken] = True
        if rows is None:
            trials = woken // self._n
            rows = self._event_rows(trials, WAKE, woken - trials * self._n)
        else:
            rows = rows[asleep]
        self._log.add_rows(rows)
        if self.adapter is not None:
            self.adapter.on_wake(woken)

    def _rcv_phase(
        self,
        cells: np.ndarray,
        sender_cells: np.ndarray,
        mids: np.ndarray,
        rows: np.ndarray | None = None,
    ) -> None:
        """Trace this slot's first deliveries (delivery order) as rcv
        events and hand them to the adapter."""
        if not cells.size:
            return
        if rows is None:
            trials = cells // self._n
            rows = self._event_rows(trials, RCV, cells - trials * self._n, mids)
        self._log.add_rows(rows)
        if self.adapter is not None:
            self.adapter.on_rcv(cells, sender_cells)

    def _event_rows(
        self, trials: np.ndarray, code: int, nodes: np.ndarray, mids=ABSENT
    ) -> np.ndarray:
        """Event rows of one kind, each at its trial's current slot."""
        slots = np.asarray(self.slots, dtype=np.int64)[trials]
        return event_rows(trials, slots, code, nodes, mids)

    def _end_slot(
        self, rows: Sequence[int], acked: list[tuple[int, BcastMessage]]
    ) -> None:
        """Close the slot of ``rows``.

        Acked broadcasts detach only now (see :meth:`_ack_phase`), then
        staged rebroadcasts swap in — a cell may ack and rebroadcast
        within one slot — and the adapter applies its staged
        transmit-side columns.  Only the acked message detaches: a
        reception during this very slot may already have started the
        cell's next broadcast (direct write).
        """
        for cell, message in acked:
            if self._current[cell] is message:
                self._current[cell] = None
        if self._staged_current:
            for t, node, message in self._staged_current:
                self._attach_message(t, node, message)
            self._staged_current.clear()
        if self.adapter is not None:
            self.adapter.flush()
        for t in rows:
            self.slots[t] += 1

    # -- backend dispatch --------------------------------------------------

    def _native_ok(self) -> bool:
        """Can this batch run through the fused C kernel?

        The compiled loop covers exactly the counters-only deterministic
        fast path — dense physics, or sparse-exact over one shared
        resolver (the CSR decode path), with or without a protocol
        adapter (one slot per kernel call, see
        :mod:`repro.native.stepper`): everything else — physical
        tracing, adversaries, approximate-sparse / stochastic / dynamic
        physics (churn masks exist only under a dynamic topology),
        kernels without native columns (Algorithms 9.1 and 11.1) —
        takes the numpy step.
        """
        return (
            self._use_native
            and not self._has_adversary
            and (not self._sparse or self._sparse_native_ok)
            and not self._stochastic
            and not self._dynamic
            and not self.record_physical
            and self._seen is not None
            and hasattr(self.kernel, "native_columns")
        )

    def _check_budget(self, rows: Sequence[int]) -> None:
        for t in rows:
            if self.slots[t] >= self.max_slots[t]:
                raise RuntimeError(
                    f"slot budget exhausted ({self.max_slots[t]}); "
                    "protocol appears not to terminate"
                )

    # Staged rows beyond this many are flushed between slots, so a long
    # stride holds them once, in the traces.
    STAGED_ROWS = 1 << 16

    def advance_slots(
        self, k: int, rows: Sequence[int] | None = None
    ) -> None:
        """Advance the given trials (default: all) by ``k`` slots.

        The multi-slot form of :meth:`advance`: a native batch runs the
        whole stride in the fused C kernel, a numpy batch steps it slot
        by slot.  Either way the slot budget ``RuntimeError`` fires
        after the same slot.  An empty ``rows`` advances nothing.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        k = int(k)
        rows = list(range(self.trials)) if rows is None else list(rows)
        if not rows:
            return
        self._holding = True
        try:
            if self._stepper is None:
                for _ in range(k):
                    self.advance(rows)
                    if len(self._log) > self.STAGED_ROWS:
                        self._log.flush()
                return
            budget = min(self.max_slots[t] - self.slots[t] for t in rows)
            if budget > 0:
                self.native_slots += self._stepper.advance(
                    min(k, budget), rows
                )
            if k > budget:
                self._check_budget(rows)
        finally:
            self._holding = False
            self._log.flush()

    # -- single-batch drivers (Runtime-compatible) -------------------------

    def run(self, slots: int) -> None:
        """Advance every trial a fixed number of slots."""
        if slots < 0:
            raise ValueError("slots must be >= 0")
        self.advance_slots(slots)

    def run_until(
        self,
        predicate: Callable[["VectorRuntime"], bool],
        check_every: int = 1,
    ) -> int:
        """Advance all trials until ``predicate(self)`` holds.

        Same contract as :meth:`Runtime.run_until` (budget exhaustion
        raises ``RuntimeError``); returns trial 0's slot count.
        """
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        while not predicate(self):
            self.advance_slots(check_every)
        return self.slot
