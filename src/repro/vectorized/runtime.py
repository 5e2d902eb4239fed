"""The columnar population runtime.

:class:`VectorRuntime` is the fast-path counterpart of
:class:`~repro.simulation.runtime.Runtime`: it advances the MAC
populations of many batched trials one slot at a time, but where the
object runtime makes N ``on_slot`` calls per trial per slot, this one
makes a fixed number of array operations over the ``trials × n``
lattice — the per-node protocol state lives in a columnar kernel
(:mod:`repro.vectorized.kernels`), the per-slot uniforms come from a
bulk pre-draw (:class:`~repro.simulation.rng.NodeUniformBuffer`), and
the SINR physics of the whole batch resolves through the flat
``(trial, listener, sender)`` decodes of
:func:`~repro.sinr.physics.successful_receptions_batch`.

Equivalence contract
--------------------
A trial advanced here is **decode-for-decode identical** to the same
trial on the object runtime: same per-node RNG streams (drawn in the
same order), same transmit decisions, same receptions, same
wake/bcast/rcv/ack slots, same channel counters, and the same
:class:`~repro.simulation.trace.EventTrace` content.  The only visible
difference is intra-slot event interleaving: the object runtime
interleaves events node by node, while this runtime records each slot's
events grouped by kind (all transmits, then acks, then the delivery
events) — within one kind the order is identical, and every
measurement in :mod:`repro.core.spec` is ordering-free within a slot.

Scope: homogeneous populations — every node runs the same Decay/Ack
protocol.  Bare ``MacClient`` populations (the Table-1 and Theorem-8.1
experiment shape) run exactly as before; reactive protocol clients
(BSMB relays, BMMB queues, consensus waves) attach through a
:class:`~repro.vectorized.protocols.VectorMacAdapter`, which receives
this runtime's MAC events (wake / rcv / ack) as cell index arrays and
may start new broadcasts in response.  Rebroadcasting detaches the
single-shot restriction: each new broadcast resets the cell's kernel
state to a fresh engine (``kernel.reset``), mirroring the object MACs'
fresh-``Engine``-per-broadcast rule.  Sleeping nodes remain pure
listeners woken by their first decode (conditional wakeup,
Definition 4.4).  Heterogeneous stacks (the combined Algorithm 11.1
MAC) stay on the object runtime.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.core.events import BcastMessage, MessageRegistry
from repro.native import resolve_backend, resolve_threads
from repro.simulation.rng import NodeUniformBuffer, spawn_node_rngs
from repro.simulation.trace import EventTrace, TraceEvent
from repro.sinr.channel import Channel
from repro.sinr.physics import batch_tensor, successful_receptions_batch

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
        ``n`` nodes (:class:`~repro.vectorized.kernels.DecayKernel` or
        :class:`~repro.vectorized.kernels.AckKernel`).
    seeds:
        Per-trial master seeds; node generators are spawned exactly as
        the object runtime spawns them, so streams line up node for
        node.
    max_slots:
        Per-trial slot budget (int applies to all trials); exceeding it
        raises ``RuntimeError`` like the object runtime's budget check.
    record_physical:
        When True (default), every physical transmit/receive is traced.
    native:
        Backend selector for the fused C slot loop (:mod:`repro.native`):
        ``False`` pins the pure-numpy reference path, ``True`` demands
        the compiled kernel (raising when it is not built), ``None``
        (default) defers to the ``REPRO_NATIVE`` environment variable
        and otherwise auto-selects whatever is available.  Either way
        every slot shape the C kernel does not cover (tracing, fading,
        churn, adversaries, adapters, approximate-sparse physics)
        transparently runs the numpy step — the backends produce
        bit-identical results, so this is purely a speed knob.
        Sparse-*exact* batches over one shared resolver ride the fused
        CSR decode path.
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
        chunk: int = 512,
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

        rngs = [
            rng
            for seed in seeds
            for rng in spawn_node_rngs(n, seed)
        ]
        self._uniforms = NodeUniformBuffer(rngs, chunk=chunk)

        self.traces = [EventTrace() for _ in range(trials)]
        self.registries = [MessageRegistry() for _ in range(trials)]
        self.slots = [0] * trials
        self._awake = np.zeros(trials * n, dtype=bool)
        self._busy = np.zeros(trials * n, dtype=bool)
        self._has_broadcast = np.zeros(trials * n, dtype=bool)
        self._current: list[list[BcastMessage | None]] = [
            [None] * n for _ in range(trials)
        ]
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
        # Columnar rcv dedup for the counters-only mode: because only a
        # message's origin ever transmits it (every MAC mints its own
        # messages), "listener already delivered the sender's current
        # message" is exactly the per-mid dedup rule of
        # MacLayerBase._deliver — one boolean gather replaces the
        # per-decode set probes, and duplicate decodes (the common case
        # under Decay/Ack repetition) cost no Python at all.  Falls
        # back to the per-decode sets when the matrix would be large
        # (big-n many-trial batches) or when full physical tracing
        # walks every decode anyway.
        self._seen = None
        if not self.record_physical and trials * n * n <= SEEN_MATRIX_CAP:
            self._seen = np.zeros((trials * n, n), dtype=bool)
        # Churn liveness over the flat lattice: None while every node of
        # every trial is up (the overwhelmingly common case — the fast
        # paths then skip all masking), else a (trials·n,) bool mask.
        self._alive = self._gather_alive()

        # Native backend: resolved once per batch; the stepper (the
        # marshalling bridge to the C kernel) is built lazily on the
        # first slot that actually qualifies.  native_slots counts the
        # slots the compiled kernel advanced — 0 under the fallback.
        self._use_native = resolve_backend(native)
        self._native_threads = resolve_threads(native_threads)
        self._native_stepper = None
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
            self.traces[trial].record(self.slots[trial], "wake", node)

    def bcast(self, trial: int, node: int, payload: Any = None) -> BcastMessage:
        """Begin a local broadcast at the node, as MacLayer.bcast.

        A node may broadcast again once its previous broadcast acked;
        every new broadcast resets the cell's kernel state to a fresh
        engine (the object MACs construct a fresh ``Engine`` per
        broadcast).  Requests arriving while this slot's transmissions
        resolve (phase 1: ack-triggered rebroadcasts) stage the
        in-flight message swap until after delivery.
        """
        cell = trial * self._n + node
        self._check_idle(cell)
        if self._has_broadcast[cell]:
            self.kernel.reset(np.array([cell], dtype=np.intp))
        return self._begin_broadcast(cell, payload)

    def bcast_cells(self, cells: np.ndarray, payloads: Sequence[Any]) -> None:
        """Population form of :meth:`bcast` (``payloads`` cell-aligned).

        One batched ``kernel.reset`` serves every rebroadcasting cell;
        messages are minted and traced per cell in the given order.
        """
        busy = self._busy[cells]
        if busy.any():
            self._check_idle(int(cells[busy][0]))
        reset_cells = cells[self._has_broadcast[cells]]
        if reset_cells.size:
            self.kernel.reset(reset_cells)
        for cell, payload in zip(cells.tolist(), payloads):
            self._begin_broadcast(cell, payload)

    def _check_idle(self, cell: int) -> None:
        if self._busy[cell]:
            trial, node = divmod(cell, self._n)
            raise RuntimeError(
                f"node {node} of trial {trial} is already broadcasting"
            )

    def _begin_broadcast(self, cell: int, payload: Any) -> BcastMessage:
        """Mint, trace and arm one broadcast (cell idle, kernel reset)."""
        trial, node = divmod(cell, self._n)
        message = self.registries[trial].mint(node, payload)
        self.wake_node(trial, node)
        self._has_broadcast[cell] = True
        self._busy[cell] = True
        if self._in_phase1:
            self._staged_current.append((trial, node, message))
        else:
            self._attach_message(trial, node, message)
        self.traces[trial].record(self.slots[trial], "bcast", node, message.mid)
        return message

    def _attach_message(
        self, trial: int, node: int, message: BcastMessage
    ) -> None:
        """Make ``message`` the cell's in-flight broadcast: payload
        source for deliveries, mid column for rcv events, and a fresh
        dedup column (nobody has delivered the new message yet)."""
        n = self._n
        self._current[trial][node] = message
        self._tx_mid[trial * n + node] = message.mid
        if self._seen is not None:
            self._seen[trial * n : (trial + 1) * n, node] = False

    # -- the slot loop -----------------------------------------------------

    def advance(self, rows: Sequence[int] | None = None) -> None:
        """Advance the given trials (default: all) by one slot."""
        n = self._n
        trials = self.trials
        rows = list(range(trials)) if rows is None else list(rows)
        for t in rows:
            if self.slots[t] >= self.max_slots[t]:
                raise RuntimeError(
                    f"slot budget exhausted ({self.max_slots[t]}); "
                    "protocol appears not to terminate"
                )

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

        live = np.zeros(trials, dtype=bool)
        live[rows] = True
        busy_mask = self._busy & np.repeat(live, n)
        if self._alive is not None:
            # Crashed cells are frozen: no kernel step, no RNG draw, no
            # transmission — the columnar twin of the object runtime
            # skipping their on_slot call.
            busy_mask &= self._alive
        idx = np.flatnonzero(busy_mask)

        # Phase 1: every broadcasting cell decides transmit/listen in
        # one kernel step (drawing its node's next private uniform).
        uniforms = self._uniforms.take(idx)
        transmit, halted = self.kernel.step(idx, uniforms)
        tx_cells = idx[transmit]
        ack_cells = idx[halted]

        # Reception feedback (Ack fallback counting) is owed to exactly
        # the engines that ran this slot and did not halt: on the object
        # path a halting cell's engine is gone before delivery, and a
        # same-slot (re)broadcast has no engine until its first step.
        feedback_ok = None
        if self.kernel.needs_reception_feedback:
            feedback_ok = np.zeros(trials * n, dtype=bool)
            feedback_ok[idx[~halted]] = True

        tx_trial = tx_cells // n
        tx_node = tx_cells - tx_trial * n
        bounds = np.searchsorted(tx_trial, np.arange(trials + 1))
        make = TraceEvent._make  # tuple.__new__, ~4x cheaper per event
        tx_ids: list[np.ndarray] = [_EMPTY_IDS] * trials
        for t in rows:
            lo, hi = bounds[t], bounds[t + 1]
            if lo == hi:
                continue
            nodes = tx_node[lo:hi]
            tx_ids[t] = nodes
            if self.record_physical:
                current = self._current[t]
                events = self.traces[t].events
                slot = self.slots[t]
                for node in nodes.tolist():
                    events.append(
                        make((slot, "transmit", node, current[node]))
                    )

        # Acknowledgments fire in the same slot the budget runs out,
        # with the final transmission still on the air; the message
        # stays attached until after delivery so this slot's receptions
        # of it still resolve their payload (the object path snapshots
        # payloads into the transmissions dict for the same reason).
        acked: list[tuple[int, int, BcastMessage]] = []
        if ack_cells.size:
            ack_trial = ack_cells // n
            ack_node = ack_cells - ack_trial * n
            self._busy[ack_cells] = False
            for t, node in zip(ack_trial.tolist(), ack_node.tolist()):
                message = self._current[t][node]
                acked.append((t, node, message))
                self.traces[t].record(self.slots[t], "ack", node, message.mid)
            if self.adapter is not None:
                # Client reactions to the acks (queue pumps, next waves)
                # run now, in ascending cell order like the object
                # runtime's phase-1 node loop; any rebroadcast they
                # request stages its message swap until after delivery.
                self._in_phase1 = True
                try:
                    self.adapter.on_ack(ack_cells)
                finally:
                    self._in_phase1 = False

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
            # object executors, so the filter here is load-bearing only
            # for the adversary-free fast delivery below).
            keep = self._alive[hit_trial * n + hit_listener]
            if not keep.all():
                hit_trial = hit_trial[keep]
                hit_listener = hit_listener[keep]
                hit_sender = hit_sender[keep]

        rx_bounds = np.searchsorted(hit_trial, np.arange(trials + 1))
        if self._has_adversary:
            self._deliver_filtered(
                rows,
                tx_ids,
                hit_trial,
                hit_listener,
                hit_sender,
                rx_bounds,
                feedback_ok,
            )
        else:
            # Fast delivery (no failure injection anywhere in the
            # batch): every raw decode is a delivered reception, so
            # conditional wakeup and rc feedback vectorize over the
            # flat hit arrays and only the per-reception trace/dedup
            # work stays in Python.
            hit_cells = hit_trial * n + hit_listener
            woken = hit_cells[~self._awake[hit_cells]]
            if woken.size:
                self._awake[woken] = True
                wk_trial = woken // n
                wk_node = woken - wk_trial * n
                for t, node in zip(wk_trial.tolist(), wk_node.tolist()):
                    self.traces[t].record(self.slots[t], "wake", node)
                if self.adapter is not None:
                    self.adapter.on_wake(woken)
            feedback = (
                hit_cells[feedback_ok[hit_cells]]
                if feedback_ok is not None
                else None
            )
            adapter = self.adapter
            if self._seen is not None:
                # Columnar dedup: one boolean gather finds the decodes
                # that are first deliveries; duplicate decodes cost no
                # Python (see the _seen comment in __init__).
                for t in rows:
                    lo, hi = rx_bounds[t], rx_bounds[t + 1]
                    channel = self.channels[t]
                    channel._slot_count += 1
                    channel.total_transmissions += int(tx_ids[t].size)
                    channel.total_receptions += int(hi - lo)
                fresh = ~self._seen[hit_cells, hit_sender]
                fr_cells = hit_cells[fresh]
                if fr_cells.size:
                    fr_sender = hit_sender[fresh]
                    self._seen[fr_cells, fr_sender] = True
                    fr_trial = fr_cells // n
                    fr_node = fr_cells - fr_trial * n
                    fr_sender_cells = fr_trial * n + fr_sender
                    mids = self._tx_mid[fr_sender_cells]
                    slots = self.slots
                    traces = self.traces
                    for t, listener, mid in zip(
                        fr_trial.tolist(), fr_node.tolist(), mids.tolist()
                    ):
                        traces[t].events.append(
                            make((slots[t], "rcv", listener, mid))
                        )
                    if adapter is not None:
                        adapter.on_rcv(fr_cells, fr_sender_cells)
            else:
                rcv_cells: list[int] = []
                rcv_senders: list[int] = []
                for t in rows:
                    lo, hi = rx_bounds[t], rx_bounds[t + 1]
                    slot = self.slots[t]
                    channel = self.channels[t]
                    # finalize_slot's bookkeeping, no dict traffic.
                    channel._slot_count += 1
                    channel.total_transmissions += int(tx_ids[t].size)
                    channel.total_receptions += int(hi - lo)
                    if lo == hi:
                        continue
                    current = self._current[t]
                    events = self.traces[t].events
                    delivered = self._delivered[t]
                    record = self.record_physical
                    base = t * n
                    for listener, sender in zip(
                        hit_listener[lo:hi].tolist(),
                        hit_sender[lo:hi].tolist(),
                    ):
                        payload = current[sender]
                        if record:
                            events.append(
                                make(
                                    (slot, "receive", listener,
                                     (sender, payload))
                                )
                            )
                        key = (listener, payload.mid)
                        if payload.origin != listener and key not in delivered:
                            delivered.add(key)
                            events.append(
                                make((slot, "rcv", listener, payload.mid))
                            )
                            if adapter is not None:
                                rcv_cells.append(base + listener)
                                rcv_senders.append(base + sender)
                if adapter is not None and rcv_cells:
                    adapter.on_rcv(
                        np.asarray(rcv_cells, dtype=np.intp),
                        np.asarray(rcv_senders, dtype=np.intp),
                    )
            if feedback is not None and feedback.size:
                self.kernel.notify(feedback)

        # Acked broadcasts detach only now (see the ack comment above);
        # staged rebroadcasts swap in afterwards — a cell may ack and
        # rebroadcast within one slot.  Detach only the message that
        # was acked: a reception during this very slot may already have
        # started the cell's next broadcast (direct write).
        for t, node, message in acked:
            if self._current[t][node] is message:
                self._current[t][node] = None
        if self._staged_current:
            for t, node, message in self._staged_current:
                self._attach_message(t, node, message)
            self._staged_current.clear()
        if self.adapter is not None:
            self.adapter.flush()
        for t in rows:
            self.slots[t] += 1

    def _deliver_filtered(
        self,
        rows,
        tx_ids,
        hit_trial,
        hit_listener,
        hit_sender,
        rx_bounds,
        feedback_ok,
    ) -> None:
        """Delivery through ``Channel.finalize_slot`` for batches with
        failure injection: the adversary filters the same receptions
        dict in the same order as the object runtime (consuming its RNG
        stream identically), and wakeup / rcv / rc feedback see only the
        surviving receptions."""
        n = self._n
        adapter = self.adapter
        feedback_cells: list[int] = []
        for t in rows:
            lo, hi = rx_bounds[t], rx_bounds[t + 1]
            raw = dict(
                zip(hit_listener[lo:hi].tolist(), hit_sender[lo:hi].tolist())
            )
            current = self._current[t]
            sent = {
                node: current[node] for node in tx_ids[t].tolist()
            }
            outcome = self.channels[t].finalize_slot(sent, tx_ids[t], raw)
            slot = self.slots[t]
            trace = self.traces[t]
            delivered = self._delivered[t]
            base = t * n
            # Conditional wakeups first (surviving receptions, delivery
            # order), then the rcv processing — per-kind streams match
            # the object runtime's per-listener interleave.
            woken = [
                base + listener
                for listener in outcome.receptions
                if not self._awake[base + listener]
            ]
            if woken:
                woken_arr = np.asarray(woken, dtype=np.intp)
                self._awake[woken_arr] = True
                for cell in woken:
                    trace.record(slot, "wake", cell - base)
                if adapter is not None:
                    adapter.on_wake(woken_arr)
            rcv_cells: list[int] = []
            rcv_senders: list[int] = []
            for listener, (sender, payload) in outcome.receptions.items():
                cell = base + listener
                if self.record_physical:
                    trace.events.append(
                        TraceEvent(slot, "receive", listener, (sender, payload))
                    )
                key = (listener, payload.mid)
                if payload.origin != listener and key not in delivered:
                    delivered.add(key)
                    trace.record(slot, "rcv", listener, payload.mid)
                    if adapter is not None:
                        rcv_cells.append(cell)
                        rcv_senders.append(base + sender)
                if feedback_ok is not None and feedback_ok[cell]:
                    feedback_cells.append(cell)
            if adapter is not None and rcv_cells:
                adapter.on_rcv(
                    np.asarray(rcv_cells, dtype=np.intp),
                    np.asarray(rcv_senders, dtype=np.intp),
                )
        if feedback_cells:
            self.kernel.notify(np.asarray(feedback_cells, dtype=np.intp))

    # -- native backend dispatch -------------------------------------------

    def _native_ok(self) -> bool:
        """Can the *next* slot run through the fused C kernel?

        The compiled loop covers exactly the counters-only deterministic
        fast path — dense physics, or sparse-exact over one shared
        resolver (the CSR decode path): everything else — physical
        tracing, adversaries, approximate-sparse / stochastic / dynamic
        physics, churn masks, attached adapters, kernels without native
        columns — takes the numpy step.  Checked per stride because
        eligibility can change mid-batch (e.g. an adapter attaching,
        churn starting).
        """
        return (
            self._use_native
            and self.adapter is None
            and not self._has_adversary
            and (not self._sparse or self._sparse_native_ok)
            and not self._stochastic
            and not self._dynamic
            and self._alive is None
            and not self.record_physical
            and self._seen is not None
            and hasattr(self.kernel, "native_columns")
        )

    def _advance_native(self, k: int, rows: list[int]) -> int:
        from repro.native.stepper import NativeStepper

        if self._native_stepper is None:
            self._native_stepper = NativeStepper(
                self, threads=self._native_threads
            )
        done = self._native_stepper.advance(k, rows)
        self.native_slots += done
        return done

    def advance_slots(
        self, k: int, rows: Sequence[int] | None = None
    ) -> None:
        """Advance the given trials (default: all) by ``k`` slots.

        The multi-slot form of :meth:`advance`: eligible stretches run
        through the fused native kernel in one call, everything else
        falls back to the per-slot numpy step — slot for slot the two
        backends produce identical state, so mixing them inside one
        stride is safe.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        rows = list(range(self.trials)) if rows is None else list(rows)
        remaining = int(k)
        while remaining > 0:
            if self._native_ok():
                done = self._advance_native(remaining, rows)
                if done:
                    remaining -= done
                    continue
                # 0 = budget exhausted; the numpy step raises the
                # budget RuntimeError with its usual message.
            self.advance(rows)
            remaining -= 1

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
