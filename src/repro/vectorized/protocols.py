"""Columnar client-state kernels for the absMAC protocol layer.

PR 2's kernels stopped at the MAC primitives: the columnar fast path
could advance homogeneous Decay/Ack populations whose clients were bare
``MacClient`` listeners.  This module extends the struct-of-arrays
treatment one layer up the paper's stack, to the protocols that *use*
the absMAC (Khabbazian et al. [37] via Theorem 12.6/12.7, Newport [44]
via Corollary 5.5):

* :class:`BsmbClients` — single-message broadcast: a ``delivered_slot``
  column records each node's first rcv, and the relay-once rule becomes
  one masked bcast over the freshly delivered cells;
* :class:`BmmbClients` — multi-message broadcast: the per-node FIFO
  ``bcastq`` becomes a padded ``(cells, k)`` index array with head/tail
  pointers, and the dedup set becomes a ``has_token`` bit matrix;
* :class:`ConsensusClients` — flood-based consensus: the max-(id, value)
  wave state lives in ``best_id``/``best_value`` columns, wave counting
  and the decide rule in ``waves_done``/``decision`` columns.

The :class:`VectorMacAdapter` is the seam that keeps the protocol
modules MAC-agnostic, exactly like :class:`~repro.absmac.layer.MacClient`
does for the object stack: the
:class:`~repro.vectorized.runtime.VectorRuntime` reports MAC events
(wake / rcv / ack) as *cell index arrays*, the adapter fans them into
the installed client kernel's whole-population column updates, and the
client kernel requests new broadcasts back through :meth:`VectorMacAdapter.bcast`
— which works over any MAC kernel that supports
:meth:`~repro.vectorized.kernels.AckKernel.reset` (fresh engine per
broadcast, the object MACs' ``_start_broadcast`` rule).

Equivalence contract (pinned by ``tests/test_vectorized_protocols.py``):
every column update reproduces the corresponding object client's
transition on the same event in the same order, so traces, RNG streams
and :class:`~repro.experiments.plans.TrialResult`\\ s stay bit-identical
to :mod:`repro.protocols.bsmb` / :mod:`repro.protocols.bmmb` /
:mod:`repro.protocols.consensus` driven by the object runtime.

Intra-slot ordering mirrors the object runtime's two phases: ack-driven
effects (wave/queue advancement, rebroadcasts) run in ascending node
order during phase 1, delivery-driven effects (wakes, then rcv updates
and relays) run in delivery order during phase 2.  Writes to the
*transmit-side* columns (``tx_token``, ``tx_id``/``tx_value``) from
phase 1 are staged and applied only after delivery, because this slot's
receivers must still observe the payload that was on the air — the
columnar form of the object runtime snapshotting payloads into its
transmissions dict.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.experiments.workloads import consensus_outcome

__all__ = [
    "VectorMacAdapter",
    "BsmbClients",
    "BmmbClients",
    "ConsensusClients",
]


class VectorMacAdapter:
    """Maps the absMAC client event interface onto array operations.

    One adapter serves one :class:`~repro.vectorized.runtime.VectorRuntime`
    batch.  The runtime calls the ``on_*`` methods with flat lattice-cell
    index arrays (``cell = trial * n + node``), in the object runtime's
    event order; the installed client kernel updates its state columns
    and may call :meth:`bcast` / :meth:`emit` back.  ``install`` is
    separate from construction because client kernels need the adapter
    (their MAC handle) while they build their columns.
    """

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        self.client = None

    def install(self, client) -> "VectorMacAdapter":
        """Wire a client kernel in and register with the runtime."""
        self.client = client
        self.runtime.attach_adapter(self)
        return self

    # -- runtime-facing event fan-in ---------------------------------------

    def on_wake(self, cells: np.ndarray) -> None:
        """Conditional wakeup: first decode woke these sleeping cells."""
        self.client.on_mac_start(cells)

    def on_ack(self, cells: np.ndarray) -> None:
        """These cells' broadcasts completed this slot (ascending order)."""
        self.client.on_ack(cells)

    def on_rcv(self, cells: np.ndarray, sender_cells: np.ndarray) -> None:
        """Deduplicated deliveries of this slot, in delivery order."""
        self.client.on_rcv(cells, sender_cells)

    def flush(self) -> None:
        """End of slot: apply the client's staged transmit-column writes."""
        self.client.flush()

    # -- client-facing population operations -------------------------------

    def slot_of(self, cells: np.ndarray) -> np.ndarray:
        """Current slot of each cell's trial, aligned with ``cells``."""
        slots = np.asarray(self.runtime.slots, dtype=np.int64)
        return slots[cells // self.runtime.n]

    def busy(self, cells: np.ndarray) -> np.ndarray:
        """Broadcast-in-flight flags, aligned with ``cells``."""
        return self.runtime.busy_cells(cells)

    def bcast(self, cells: np.ndarray, payloads: Sequence[Any]) -> None:
        """Begin one broadcast per cell (``payloads`` aligned with cells).

        Cells must be idle; the runtime mints the messages, records the
        ``bcast`` trace events and resets the MAC kernel state of every
        rebroadcasting cell to a fresh engine in one batched reset,
        exactly as the object MACs do per broadcast.  During phase 1
        the in-flight message swap is staged until after delivery (see
        the module docstring).
        """
        self.runtime.bcast_cells(cells, payloads)

    def emit(self, cells: np.ndarray, kind: str, values) -> None:
        """Record one protocol-output trace event per cell (e.g. decide)."""
        self.runtime.record_events(cells, kind, values)


class BsmbClients:
    """Columnar :class:`~repro.protocols.bsmb.BsmbClient` population.

    ``delivered_slot[cell]`` (−1 = not yet) is the quantity global-SMB
    completion is measured by; ``relayed`` enforces the relay-once rule
    of [37].  The protocol has no transmit-side payload columns: every
    relay re-broadcasts the trial's single message payload.
    """

    def __init__(self, adapter: VectorMacAdapter) -> None:
        self.adapter = adapter
        runtime = adapter.runtime
        self._n = runtime.n
        size = runtime.trials * runtime.n
        self.delivered_slot = np.full(size, -1, dtype=np.int64)
        self.relayed = np.zeros(size, dtype=bool)
        self.payloads: list[Any] = [None] * runtime.trials

    def start_as_source(self, trial: int, node: int, payload: Any) -> None:
        """Make ``node`` the trial's i0: it holds and broadcasts."""
        cell = trial * self._n + node
        self.payloads[trial] = payload
        self.delivered_slot[cell] = 0
        self.relayed[cell] = True
        self.adapter.bcast(
            np.array([cell], dtype=np.intp), [payload]
        )

    def on_mac_start(self, cells: np.ndarray) -> None:
        """Woken listeners have nothing pending (rcv arrives next)."""

    def on_rcv(self, cells: np.ndarray, sender_cells: np.ndarray) -> None:
        fresh = cells[self.delivered_slot[cells] < 0]
        if fresh.size == 0:
            return
        self.delivered_slot[fresh] = self.adapter.slot_of(fresh)
        # First delivery at a non-source node: deliver upward and relay
        # exactly once.  A first-rcv node cannot be busy (it has never
        # broadcast), so the object client's idle check always passes.
        relay = fresh[~self.relayed[fresh]]
        if relay.size == 0:
            return
        self.relayed[relay] = True
        trials = (relay // self._n).tolist()
        self.adapter.bcast(relay, [self.payloads[t] for t in trials])

    def on_ack(self, cells: np.ndarray) -> None:
        """BSMB clients ignore acks (the relay already happened)."""

    def flush(self) -> None:
        """No transmit-side columns to stage."""

    def done(self, trial: int) -> bool:
        """True once every node of the trial delivered the message."""
        row = self.delivered_slot[trial * self._n : (trial + 1) * self._n]
        return bool((row >= 0).all())


class BmmbClients:
    """Columnar :class:`~repro.protocols.bmmb.BmmbClient` population.

    Tokens are indexed per trial (position in the trial's arrival
    order); ``has_token`` is the ``rcvd`` dedup set, ``delivered_slot``
    the delivery map, and the FIFO ``bcastq`` is a ``(cells, k)`` index
    array with head/tail pointers — each token enters a cell's queue at
    most once, so capacity ``k`` never wraps.  Trials of one batch may
    carry different ``k`` (the Table-1 MMB sweep); columns pad to the
    largest.
    """

    def __init__(
        self, adapter: VectorMacAdapter, token_lists: Sequence[Sequence[Any]]
    ) -> None:
        self.adapter = adapter
        runtime = adapter.runtime
        if len(token_lists) != runtime.trials:
            raise ValueError("need one token list per trial")
        self._n = runtime.n
        self.tokens = [list(tokens) for tokens in token_lists]
        self._index = [
            {token: k for k, token in enumerate(tokens)}
            for tokens in self.tokens
        ]
        kmax = max((len(t) for t in self.tokens), default=0)
        size = runtime.trials * runtime.n
        self.has_token = np.zeros((size, max(kmax, 1)), dtype=bool)
        self.delivered_slot = np.full(
            (size, max(kmax, 1)), -1, dtype=np.int64
        )
        self.queue = np.full((size, max(kmax, 1)), -1, dtype=np.int64)
        self.q_head = np.zeros(size, dtype=np.int64)
        self.q_tail = np.zeros(size, dtype=np.int64)
        self.tx_token = np.full(size, -1, dtype=np.int64)
        self._staged: list[tuple[np.ndarray, np.ndarray]] = []

    def arrive(self, trial: int, node: int, token: Any) -> None:
        """arrive(m): the environment injects ``token`` at ``node``."""
        cell = trial * self._n + node
        tok = self._index[trial][token]
        if self.has_token[cell, tok]:
            return
        self.has_token[cell, tok] = True
        self.delivered_slot[cell, tok] = self.adapter.runtime.slots[trial]
        self.queue[cell, self.q_tail[cell]] = tok
        self.q_tail[cell] += 1
        self._pump(np.array([cell], dtype=np.intp), staged=False)

    def on_mac_start(self, cells: np.ndarray) -> None:
        """Woken listeners have empty queues (tokens arrive via rcv)."""

    def on_rcv(self, cells: np.ndarray, sender_cells: np.ndarray) -> None:
        toks = self.tx_token[sender_cells]
        fresh = ~self.has_token[cells, toks]
        cells, toks = cells[fresh], toks[fresh]
        if cells.size == 0:
            return
        self.has_token[cells, toks] = True
        self.delivered_slot[cells, toks] = self.adapter.slot_of(cells)
        self.queue[cells, self.q_tail[cells]] = toks
        self.q_tail[cells] += 1
        self._pump(cells, staged=False)

    def on_ack(self, cells: np.ndarray) -> None:
        self._pump(cells, staged=True)

    def _pump(self, cells: np.ndarray, staged: bool) -> None:
        """Broadcast the queue head of every idle cell with a backlog."""
        mask = ~self.adapter.busy(cells)
        mask &= self.q_tail[cells] > self.q_head[cells]
        go = cells[mask]
        if go.size == 0:
            return
        toks = self.queue[go, self.q_head[go]]
        self.q_head[go] += 1
        trials = (go // self._n).tolist()
        self.adapter.bcast(
            go,
            [self.tokens[t][k] for t, k in zip(trials, toks.tolist())],
        )
        if staged:
            self._staged.append((go, toks))
        else:
            self.tx_token[go] = toks

    def flush(self) -> None:
        for go, toks in self._staged:
            self.tx_token[go] = toks
        self._staged.clear()

    def done(self, trial: int) -> bool:
        """True once every node of the trial delivered every token."""
        k = len(self.tokens[trial])
        if k == 0:
            return True
        block = self.has_token[trial * self._n : (trial + 1) * self._n, :k]
        return bool(block.all())


class ConsensusClients:
    """Columnar :class:`~repro.protocols.consensus.ConsensusClient`
    population: flood the largest (id, value) pair via acknowledged
    broadcast waves, decide after ``waves`` completed waves."""

    def __init__(
        self,
        adapter: VectorMacAdapter,
        waves: Sequence[int],
        values: Sequence[Sequence[int]],
    ) -> None:
        self.adapter = adapter
        runtime = adapter.runtime
        n = runtime.n
        if len(waves) != runtime.trials or len(values) != runtime.trials:
            raise ValueError("need waves and values per trial")
        self._n = n
        size = runtime.trials * n
        for trial_values in values:
            if any(v not in (0, 1) for v in trial_values):
                raise ValueError("initial values are binary (paper §4.5)")
        for w in waves:
            if w < 1:
                raise ValueError("waves must be >= 1")
        self.waves = np.repeat(
            np.asarray(waves, dtype=np.int64), n
        )
        self.best_id = np.tile(np.arange(n, dtype=np.int64), runtime.trials)
        self.best_value = np.concatenate(
            [np.asarray(v, dtype=np.int64) for v in values]
        )
        self.waves_done = np.zeros(size, dtype=np.int64)
        self.decision = np.full(size, -1, dtype=np.int64)
        self.decision_slot = np.full(size, -1, dtype=np.int64)
        self.tx_id = np.full(size, -1, dtype=np.int64)
        self.tx_value = np.full(size, -1, dtype=np.int64)
        self._staged: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def _bcast_best(self, cells: np.ndarray, staged: bool) -> None:
        ids = self.best_id[cells]
        vals = self.best_value[cells]
        self.adapter.bcast(
            cells, list(zip(ids.tolist(), vals.tolist()))
        )
        if staged:
            self._staged.append((cells, ids, vals))
        else:
            self.tx_id[cells] = ids
            self.tx_value[cells] = vals

    def start(self, trial: int) -> None:
        """Wake every node; each starts its first wave immediately."""
        runtime = self.adapter.runtime
        base = trial * self._n
        for node in range(self._n):
            runtime.wake_node(trial, node)
        self._bcast_best(
            np.arange(base, base + self._n, dtype=np.intp), staged=False
        )

    def on_mac_start(self, cells: np.ndarray) -> None:
        """A node joining mid-run starts flooding its current best."""
        self._bcast_best(cells, staged=False)

    def on_rcv(self, cells: np.ndarray, sender_cells: np.ndarray) -> None:
        cand = self.tx_id[sender_cells]
        upd = cand > self.best_id[cells]
        cells, senders = cells[upd], sender_cells[upd]
        self.best_id[cells] = self.tx_id[senders]
        self.best_value[cells] = self.tx_value[senders]

    def on_ack(self, cells: np.ndarray) -> None:
        self.waves_done[cells] += 1
        deciding = self.waves_done[cells] >= self.waves[cells]
        decide = cells[deciding]
        if decide.size:
            values = self.best_value[decide]
            self.decision[decide] = values
            self.decision_slot[decide] = self.adapter.slot_of(decide)
            self.adapter.emit(decide, "decide", values)
        again = cells[~deciding]
        if again.size:
            self._bcast_best(again, staged=True)

    def flush(self) -> None:
        for cells, ids, vals in self._staged:
            self.tx_id[cells] = ids
            self.tx_value[cells] = vals
        self._staged.clear()

    def done(self, trial: int) -> bool:
        """True once every node of the trial decided."""
        row = self.decision[trial * self._n : (trial + 1) * self._n]
        return bool((row >= 0).all())

    def finalize(self, trial: int, completion: int) -> dict[str, Any]:
        """The consensus workload's result metrics for one trial."""
        base = trial * self._n
        decided = self.decision[base : base + self._n].tolist()
        decisions = tuple(
            (node, value if value >= 0 else None)
            for node, value in enumerate(decided)
        )
        return consensus_outcome(decisions, completion)
