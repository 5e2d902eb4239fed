"""Columnar (struct-of-arrays) protocol kernels.

The object runtime advances a population by calling ``on_slot`` on N
``MacLayerBase`` automata, each of which steps a per-broadcast engine
(:class:`~repro.core.decay.DecayEngine` /
:class:`~repro.core.ack_protocol.AckEngine`) holding a handful of Python
scalars.  For homogeneous populations — every node of a trial running
the same protocol — that object layout wastes almost all of its time on
attribute lookups and method dispatch.

A kernel here holds the *same* state transposed into flat numpy arrays
over the ``trials × n`` lattice (cell ``t*n + node``): ``slots_run``,
``probability``, ``tp``, ``halted``, … become columns, and one
:meth:`step` call advances every broadcasting node of every batched
trial with a fixed number of array operations.

Decision-for-decision, draw-for-draw equivalence with the scalar
engines is the design invariant (the equivalence tests pin it):

* every arithmetic step reproduces the scalar engine's float operations
  exactly (same operands, same order — powers of two, ``min``/``max``
  clamps and running sums are all bitwise-stable under broadcasting);
* the caller feeds each stepped cell the draw its node's private
  generator would have produced on that owned slot (the numpy step
  serves it from :class:`~repro.simulation.rng.NodeUniformBuffer`;
  the native kernel steps each node's PCG64 state itself);
* per-trial configuration scalars are expanded to per-cell columns at
  construction, so one columnar batch may mix trials with different
  protocol parameters (e.g. an ε-sweep over one deployment);
* :meth:`reset` restores the cells of a new broadcast to freshly
  constructed engine state — the columnar form of the object MACs'
  fresh-``Engine``-per-broadcast rule, which is what lets reactive
  clients (BSMB relays, BMMB queues, consensus waves; see
  :mod:`repro.vectorized.protocols`) rebroadcast through one kernel.

Decay and Ack step the cells with a broadcast in flight, one uniform
each.  :class:`ApproxProgressKernel` (Algorithm 9.1) steps every awake
cell on the virtual slots of the epoch schedule, and
:class:`CombinedKernel` (Algorithm 11.1) interleaves it with an
:class:`AckKernel` on alternate slots; see their docstrings.

Kernels know nothing about channels or traces — the
:class:`~repro.vectorized.runtime.VectorRuntime` owns that choreography.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.ack_protocol import AckConfig
from repro.core.approx_progress import ApproxProgressConfig, EpochSchedule
from repro.core.decay import DecayConfig
from repro.core.mis import COMPETITOR, DOMINATED, DOMINATOR

__all__ = [
    "DecayKernel",
    "AckKernel",
    "ApproxProgressKernel",
    "CombinedKernel",
]


def _expand(values, n: int, dtype) -> np.ndarray:
    """Per-trial scalars -> one value per lattice cell (trial-major)."""
    return np.repeat(np.asarray(values, dtype=dtype), n)


class DecayKernel:
    """Array-state form of :class:`~repro.core.decay.DecayEngine`.

    One probability sweep per phase: in step ``j`` of a phase the node
    transmits with probability ``2^-(j+1)``; after ``ack_budget_slots``
    owned slots the broadcast halts (and the MAC acknowledges).
    """

    needs_reception_feedback = False
    # Protocol selector for the fused C kernel (repro.native).
    NATIVE_KIND = 0

    def __init__(self, configs: Sequence[DecayConfig], n: int) -> None:
        self.configs = list(configs)
        self.n = int(n)
        size = len(self.configs) * self.n
        self.phase_length = _expand(
            [c.phase_length for c in self.configs], n, np.int64
        )
        self.ack_budget_slots = _expand(
            [c.ack_budget_slots for c in self.configs], n, np.int64
        )
        self.slots_run = np.zeros(size, dtype=np.int64)
        self.transmissions = np.zeros(size, dtype=np.int64)

    def step(self, idx: np.ndarray, uniforms: np.ndarray):
        """Run one owned slot for the lattice cells ``idx``.

        Returns ``(transmit, halted)`` boolean arrays aligned with
        ``idx`` — ``halted`` marks cells whose acknowledgment budget is
        exhausted *after* this slot (the MAC acks in the same slot, with
        the final transmission still on the air, exactly like the
        scalar engine).
        """
        step_in_phase = self.slots_run[idx] % self.phase_length[idx]
        self.slots_run[idx] += 1
        probability = 2.0 ** -(step_in_phase + 1.0)
        transmit = uniforms < probability
        self.transmissions[idx] += transmit
        halted = self.slots_run[idx] >= self.ack_budget_slots[idx]
        return transmit, halted

    def notify(self, idx: np.ndarray) -> None:
        """Decay ignores overheard traffic (no fallback machinery)."""

    def reset(self, idx: np.ndarray) -> None:
        """Restore ``idx`` to fresh-engine state (new broadcast)."""
        self.slots_run[idx] = 0
        self.transmissions[idx] = 0

    def native_columns(self) -> dict[str, np.ndarray]:
        """Column arrays by their ``repro_state`` field names.

        The native backend steps these very arrays in place, so nothing
        is copied into or out of the kernel.
        """
        return {
            "slots_run": self.slots_run,
            "transmissions": self.transmissions,
            "phase_length": self.phase_length,
            "ack_budget": self.ack_budget_slots,
        }


class AckKernel:
    """Array-state form of :class:`~repro.core.ack_protocol.AckEngine`.

    Algorithm B.1's nested loops become masked column updates: the
    outer loop (probability fallback on overheard traffic) fires on
    cells whose ``fallback_pending`` flag armed last slot, the inner
    loop (probability doubling every ``inner_block_slots``) on cells
    whose block ran out, and the spent-probability budget ``tp`` halts
    — and acknowledges — exactly as in the scalar engine.
    """

    needs_reception_feedback = True
    # Protocol selector for the fused C kernel (repro.native).
    NATIVE_KIND = 1

    def __init__(self, configs: Sequence[AckConfig], n: int) -> None:
        self.configs = list(configs)
        self.n = int(n)
        size = len(self.configs) * self.n

        self.halt_budget = _expand(
            [c.halt_budget for c in self.configs], n, np.float64
        )
        self.rc_threshold = _expand(
            [c.rc_threshold for c in self.configs], n, np.float64
        )
        self.inner_block_slots = _expand(
            [c.inner_block_slots for c in self.configs], n, np.int64
        )
        self.prob_cap = _expand(
            [c.prob_cap for c in self.configs], n, np.float64
        )
        self.fallback_divisor = _expand(
            [c.fallback_divisor for c in self.configs], n, np.float64
        )
        self.floor_probability = _expand(
            [c.floor_probability for c in self.configs], n, np.float64
        )

        self.initial_probability = _expand(
            [c.initial_probability for c in self.configs], n, np.float64
        )
        self.probability = np.zeros(size, dtype=np.float64)
        self.block_remaining = np.zeros(size, dtype=np.int64)
        self.tp = np.zeros(size, dtype=np.float64)
        self.rc = np.zeros(size, dtype=np.int64)
        self.halted = np.zeros(size, dtype=bool)
        self.fallback_pending = np.zeros(size, dtype=bool)
        self.slots_run = np.zeros(size, dtype=np.int64)
        self.transmissions = np.zeros(size, dtype=np.int64)
        self.fallbacks = np.zeros(size, dtype=np.int64)
        self.reset(np.arange(size, dtype=np.intp))

    def reset(self, idx: np.ndarray) -> None:
        """Restore ``idx`` to fresh-engine state (new broadcast).

        AckEngine.__init__ runs one fallback + one inner-block entry
        before the first slot: p = min(cap, 2·max(floor, p0/divisor)).
        """
        self.probability[idx] = np.minimum(
            self.prob_cap[idx],
            2.0
            * np.maximum(
                self.floor_probability[idx],
                self.initial_probability[idx] / self.fallback_divisor[idx],
            ),
        )
        self.block_remaining[idx] = self.inner_block_slots[idx]
        self.tp[idx] = 0.0
        self.rc[idx] = 0
        self.halted[idx] = False
        self.fallback_pending[idx] = False
        self.slots_run[idx] = 0
        self.transmissions[idx] = 0
        self.fallbacks[idx] = 0

    def step(self, idx: np.ndarray, uniforms: np.ndarray):
        """Run one owned slot for the lattice cells ``idx``.

        Returns ``(transmit, halted)`` aligned with ``idx``; ``halted``
        marks cells whose probability budget overflowed this slot.
        """
        # Lines 4-8 (outer loop entry): fallback armed by last slot's
        # overheard traffic — divide the probability, reset the counter,
        # and open a fresh inner block at the doubled probability.
        pending = self.fallback_pending[idx]
        if pending.any():
            fidx = idx[pending]
            self.fallback_pending[fidx] = False
            self.fallbacks[fidx] += 1
            fallen = np.maximum(
                self.floor_probability[fidx],
                self.probability[fidx] / self.fallback_divisor[fidx],
            )
            self.rc[fidx] = 0
            self.probability[fidx] = np.minimum(
                self.prob_cap[fidx], 2.0 * fallen
            )
            self.block_remaining[fidx] = self.inner_block_slots[fidx]

        self.slots_run[idx] += 1
        probability = self.probability[idx]
        transmit = uniforms < probability
        self.transmissions[idx] += transmit

        # Lines 13-15: budget accounting and halting.
        tp = self.tp[idx] + probability
        self.tp[idx] = tp
        halted = tp > self.halt_budget[idx]
        self.halted[idx] |= halted

        remaining = self.block_remaining[idx] - 1
        self.block_remaining[idx] = remaining
        renew = (remaining <= 0) & ~halted
        if renew.any():
            ridx = idx[renew]
            self.probability[ridx] = np.minimum(
                self.prob_cap[ridx], 2.0 * self.probability[ridx]
            )
            self.block_remaining[ridx] = self.inner_block_slots[ridx]
        return transmit, halted

    def notify(self, idx: np.ndarray) -> None:
        """Lines 17-21: count overheard messages; arm fallback on overflow.

        ``idx`` holds the lattice cells of this slot's *still-busy*
        listeners (at most one decode per listener per slot, so a +1 is
        exact); halted engines are gone on the object path (the MAC
        drops them at ack), which busy-only indexing reproduces.
        """
        if idx.size == 0:
            return
        self.rc[idx] += 1
        self.fallback_pending[idx] |= self.rc[idx] > self.rc_threshold[idx]

    def native_columns(self) -> dict[str, np.ndarray]:
        """Column arrays by their ``repro_state`` field names.

        The native backend steps these very arrays in place, so nothing
        is copied into or out of the kernel.
        """
        return {
            "slots_run": self.slots_run,
            "transmissions": self.transmissions,
            "probability": self.probability,
            "block_remaining": self.block_remaining,
            "tp": self.tp,
            "rc": self.rc,
            "halted_col": self.halted,
            "fallback_pending": self.fallback_pending,
            "fallbacks": self.fallbacks,
            "halt_budget": self.halt_budget,
            "rc_threshold": self.rc_threshold,
            "inner_block_slots": self.inner_block_slots,
            "prob_cap": self.prob_cap,
            "fallback_divisor": self.fallback_divisor,
            "floor_probability": self.floor_probability,
        }


# Block codes of ApproxProgressKernel, in epoch-schedule order.
EST1, EST2, MIS, BCAST = range(4)
_BLOCKS = {
    EpochSchedule.EST1: EST1,
    EpochSchedule.EST2: EST2,
    EpochSchedule.MIS: MIS,
    EpochSchedule.BCAST: BCAST,
}
# MIS state codes; the strings are what the "mis" payload carries.
_STATES = (COMPETITOR, DOMINATOR, DOMINATED)
_COMPETITOR, _DOMINATOR, _DOMINATED = range(3)
_EMPTY = np.empty(0, dtype=np.int64)


def _member(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which ``keys`` occur in the ascending ``sorted_keys``."""
    if not sorted_keys.size:
        return np.zeros(keys.shape, dtype=bool)
    at = sorted_keys.searchsorted(keys)
    at[at == sorted_keys.size] = 0
    return sorted_keys[at] == keys


class ApproxProgressKernel:
    """Array-state form of
    :class:`~repro.core.approx_progress.ApproxProgressEngine`.

    Every awake cell steps on each virtual slot (every slot alone, the
    odd slots inside Algorithm 11.1: ``stride`` 2 maps physical slot
    ``s`` to virtual slot ``s // 2``).  Each trial's schedule is located
    once per slot; the per-node state lives in columns — ``epoch`` /
    ``phase`` (what the cell last stepped through), ``in_s`` (member of
    the current sender set S_φ, which implies having joined the epoch),
    ``alive`` (not dropped out), ``label``, ``state`` and ``mis_round``
    of the MIS, and the replay schedule τ as a ``(cells, max T)`` bool
    array.  A cell whose epoch or phase moved on begins it as the engine
    does: it joins at an epoch boundary (or observes until the next),
    leaves S at a phase change unless it survived as a dominator, and
    draws a fresh label.

    The MIS runs on the estimated reliability graph H̃̃, which exists
    only as label-keyed bookkeeping (key ``cell · span + label``):

    * est1 receptions of active cells queue one key per decode; at
      est2's first slot ``np.unique`` counts them, and keys heard at
      least ``(1-γ/2)·μ·T`` times become the trial's sorted potentials;
    * an est2 decode makes its sender's label a neighbour when each
      side's label is among the other's potentials — two
      ``searchsorted`` probes into the potentials;
    * an MIS decode from a neighbour queues ``(key, state)``; a round
      end keeps each label's last state (the engine's dict overwrite),
      drops a cell that missed a neighbour, and applies
      :func:`~repro.core.mis.next_state` as array reductions.

    Draws match the engine lane by lane: ``integers(1, L+1)`` at every
    phase start a cell steps through, then ``random()`` when active in
    est1, est2 and the bcast block.  Payload tuples are built once per
    cell and phase (est1, est2) or round (mis) and reused.
    """

    needs_reception_feedback = False

    def __init__(
        self, configs: Sequence[ApproxProgressConfig], n: int, stride: int = 1
    ) -> None:
        self.configs = list(configs)
        self.n = int(n)
        self.stride = int(stride)
        self.schedules = [EpochSchedule(c) for c in self.configs]
        trials = len(self.configs)
        size = trials * self.n
        self.p = _expand([c.p for c in self.configs], n, np.float64)
        self.bcast_p = _expand(
            [c.p / c.q_factor for c in self.configs], n, np.float64
        )
        self.labels = _expand([c.labels for c in self.configs], n, np.int64)
        self.threshold = np.array(
            [c.potential_threshold for c in self.configs], dtype=np.float64
        )
        # Bookkeeping keys are cell * span + label.
        self.span = int(self.labels.max()) + 1 if size else 1

        self.epoch = np.full(size, -1, dtype=np.int64)
        self.phase = np.full(size, -1, dtype=np.int64)
        self.in_s = np.zeros(size, dtype=bool)
        self.alive = np.zeros(size, dtype=bool)
        self.label = np.zeros(size, dtype=np.int64)
        self.state = np.zeros(size, dtype=np.int8)
        self.mis_round = np.full(size, -1, dtype=np.int64)
        self.tau = np.zeros(
            (size, max((s.t for s in self.schedules), default=1)), dtype=bool
        )
        self.drops = np.zeros(size, dtype=np.int64)

        self._est1: list[np.ndarray] = []  # queued est1 keys
        self._est2: list[np.ndarray] = []  # queued neighbour keys
        self._mis: list[np.ndarray] = []  # queued (key, state) rows
        self.potentials = _EMPTY  # sorted keys
        self.neighbors = _EMPTY  # sorted keys

        # Each trial's coordinates at the slot it last stepped: epoch,
        # phase, block, offset (in the MIS: in the round), MIS round,
        # and the payload version (epoch, phase, est1/est2/MIS round).
        self._coords = np.full((trials, 6), -1, dtype=np.int64)
        (
            self._t_epoch,
            self._t_phase,
            self._t_block,
            self._t_off,
            self._t_round,
            self._t_stamp,
        ) = self._coords.T
        self._blocks: set[int] = set()  # blocks of this slot's trials
        self._payload = np.full(size, None, dtype=object)
        self._payload_stamp = np.full(size, -1, dtype=np.int64)

    def reset(self, idx: np.ndarray) -> None:
        """A new broadcast changes only the message the cells send."""

    def step(
        self,
        trials: Sequence[int],
        slots: Sequence[int],
        cells: np.ndarray,
        busy: np.ndarray,
        feed,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run one virtual slot of ``trials`` (at physical ``slots[t]``)
        for their awake cells ``cells`` (ascending).

        ``busy`` flags the cells with a broadcast in flight (lattice
        wide) and ``feed`` serves the draws
        (:class:`~repro.simulation.rng.NodeUniformBuffer`).  Returns the
        transmitting cells, ascending, and which of them send their
        broadcast message (the bcast block) rather than a payload tuple.
        """
        n = self.n
        freeze, gather, rounds, closing = [], [], [], []
        coords = []
        for t in trials:
            schedule = self.schedules[t]
            epoch, phase, name, off = schedule.locate(slots[t] // self.stride)
            block = _BLOCKS[name]
            rnd, sub = divmod(off, schedule.t) if block == MIS else (0, off)
            stamp = (epoch << 36) + (phase << 16) + block + rnd
            coords.append((epoch, phase, block, sub, rnd, stamp))
            if off == 0 and block == EST2:
                freeze.append(t)
            elif block == MIS and sub == 0:
                if rnd == 0:
                    gather.append(t)
                rounds.append(t)
            elif off == 0 and block == BCAST:
                closing.append(t)
        self._coords[trials] = coords
        self._blocks = {c[2] for c in coords}

        trial_of = cells // n
        stale = (self.epoch[cells] != self._t_epoch[trial_of]) | (
            self.phase[cells] != self._t_phase[trial_of]
        )
        if stale.any():
            self._begin(cells[stale], trial_of[stale], busy, feed)
        if freeze:
            self._freeze(freeze, cells, trial_of)
        if gather:
            keys = self._take(self._est2, gather)
            self.neighbors = self._replace(
                self.neighbors, gather, np.unique(keys)
            )
        if rounds or closing:
            self._round_end(rounds, closing, cells, trial_of)

        active = cells[self.in_s[cells] & self.alive[cells]]
        if not active.size:
            return _EMPTY, np.zeros(0, dtype=bool)
        if len(self._blocks) == 1:
            (block,) = self._blocks
            tx = self._transmit(block, active, busy, feed)
        else:
            block_of = self._t_block[active // n]
            tx = np.sort(
                np.concatenate(
                    [
                        self._transmit(block, active[block_of == block], busy, feed)
                        for block in sorted(self._blocks)
                    ]
                )
            )
        if BCAST not in self._blocks:
            return tx, np.zeros(tx.size, dtype=bool)
        return tx, self._t_block[tx // n] == BCAST

    def _transmit(self, block, active, busy, feed) -> np.ndarray:
        """The active cells of one block that transmit this slot."""
        if block == MIS:  # replay τ, no draw
            return active[self.tau[active, self._t_off[active // self.n]]]
        if block == BCAST:
            active = active[busy[active]]
            return active[feed.take(active) < self.bcast_p[active]]
        send = feed.take(active) < self.p[active]
        if block == EST1:
            self.tau[active, self._t_off[active // self.n]] = send
        return active[send]

    def _begin(self, cells, trial_of, busy, feed) -> None:
        """Epoch and phase transitions of cells that moved on."""
        new_epoch = self.epoch[cells] != self._t_epoch[trial_of]
        joining = cells[new_epoch]
        if joining.size:
            t = trial_of[new_epoch]
            # Joined at the epoch's first slot with a broadcast in
            # flight; anyone else observes until the next boundary.
            boundary = (
                (self._t_phase[t] == 0)
                & (self._t_block[t] == EST1)
                & (self._t_off[t] == 0)
            )
            self.in_s[joining] = boundary & busy[joining]
            self.alive[joining] = True
            self.epoch[joining] = self._t_epoch[t]
        moving = cells[~new_epoch]  # same epoch, next phase
        self.in_s[moving] &= self.alive[moving] & (
            self.state[moving] == _DOMINATOR
        )
        self.phase[cells] = self._t_phase[trial_of]
        self.label[cells] = feed.integers(cells, 1, self.labels[cells] + 1)
        self.tau[cells] = False
        self.state[cells] = _COMPETITOR
        self.mis_round[cells] = -1
        self._drop_mis(cells)

    def _take(self, queue: list[np.ndarray], trials: list[int]) -> np.ndarray:
        """Dequeue the keys of ``trials``, keeping the others queued."""
        if not queue:
            return _EMPTY
        keys = np.concatenate(queue)
        mine = np.isin(keys // (self.span * self.n), trials)
        queue[:] = [] if mine.all() else [keys[~mine]]
        return keys[mine]

    def _replace(self, keys, trials, new) -> np.ndarray:
        """``keys`` with the trials' entries replaced by ``new``."""
        kept = keys[~np.isin(keys // (self.span * self.n), trials)]
        return np.sort(np.concatenate([kept, new]))

    def _freeze(self, trials, cells, trial_of) -> None:
        """est2's first slot: est1 counts become the potentials of the
        trials' stepped active cells; everyone else's are empty."""
        keys = self._take(self._est1, trials)
        new = _EMPTY
        if keys.size:
            keys, counts = np.unique(keys, return_counts=True)
            owner = keys // self.span
            ready = np.zeros(self.in_s.size, dtype=bool)
            mine = cells[np.isin(trial_of, trials)]
            ready[mine] = self.in_s[mine] & self.alive[mine]
            new = keys[
                ready[owner] & (counts >= self.threshold[owner // self.n])
            ]
        self.potentials = self._replace(self.potentials, trials, new)

    def _drop_mis(self, cells) -> np.ndarray:
        """Dequeue the MIS receptions of ``cells`` (they reset)."""
        if not self._mis:
            return np.empty((0, 2), dtype=np.int64)
        rows = np.concatenate(self._mis)
        marked = np.zeros(self.in_s.size, dtype=bool)
        marked[cells] = True
        mine = marked[rows[:, 0] // self.span]
        self._mis[:] = [] if mine.all() else [rows[~mine]]
        return rows[mine]

    def _round_end(self, rounds, closing, cells, trial_of) -> None:
        """MIS round boundaries: each stepped cell's heard pairs reset,
        and the active ones first finish the round just ended (round
        starts after the first, and the bcast block's first slot)."""
        n = self.n
        ending = rounds + closing
        stepped = cells[np.isin(trial_of, ending)]
        heard = self._drop_mis(stepped)
        finishing = stepped[
            self.in_s[stepped]
            & self.alive[stepped]
            & ((self._t_round[stepped // n] > 0) | np.isin(stepped // n, closing))
        ]
        if finishing.size:
            self._finish(finishing, heard)
        at_start = stepped[np.isin(stepped // n, rounds)]
        self.mis_round[at_start] = self._t_round[at_start // n]

    def _finish(self, cells, heard) -> None:
        """Apply one MIS round's receptions to ``cells``: drop out on a
        missed neighbour, else :func:`~repro.core.mis.next_state`."""
        size = self.in_s.size
        owner = heard[:, 0] // self.span
        mine = np.zeros(size, dtype=bool)
        mine[cells] = True
        heard = heard[mine[owner]]
        # The last state heard per (cell, label) wins, as in the
        # engine's dict.
        keys, last = np.unique(heard[::-1, 0], return_index=True)
        states = heard[::-1, 1][last]
        owner = keys // self.span
        labels = keys - owner * self.span
        neighbors = np.bincount(self.neighbors // self.span, minlength=size)
        heard_count = np.bincount(owner, minlength=size)
        missing = heard_count[cells] < neighbors[cells]
        dropped = cells[missing]
        self.alive[dropped] = False
        self.drops[dropped] += 1
        settle = cells[~missing]
        settle = settle[self.state[settle] == _COMPETITOR]
        if not settle.size:
            return
        dominated = np.zeros(size, dtype=bool)
        dominated[owner[states == _DOMINATOR]] = True
        competing = states == _COMPETITOR
        lowest = np.full(size, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(lowest, owner[competing], labels[competing])
        self.state[settle] = np.where(
            dominated[settle],
            _DOMINATED,
            np.where(
                self.label[settle] < lowest[settle], _DOMINATOR, _COMPETITOR
            ),
        )

    def receive(self, listeners: np.ndarray, senders: np.ndarray) -> None:
        """Route this slot's decodes (listener and sender cells of the
        stepped trials) into the bookkeeping of the listener's block.
        Only cells active in S_φ keep what they hear: the engine's
        counts, neighbours and MIS views of anyone else are never read.
        """
        active = self.in_s[listeners] & self.alive[listeners]
        if not active.any():
            return
        listeners, senders = listeners[active], senders[active]
        keys = listeners * self.span + self.label[senders]
        for block in self._blocks:
            if len(self._blocks) > 1:
                mine = self._t_block[listeners // self.n] == block
                ls, ss, ks = listeners[mine], senders[mine], keys[mine]
            else:
                ls, ss, ks = listeners, senders, keys
            if block == EST1:
                self._est1.append(ks)
            elif block == EST2:
                mutual = _member(self.potentials, ks) & _member(
                    self.potentials, ss * self.span + self.label[ls]
                )
                self._est2.append(ks[mutual])
            elif block == MIS:
                heard = (
                    self.mis_round[ls] == self._t_round[ls // self.n]
                ) & _member(self.neighbors, ks)
                rows = np.empty((np.count_nonzero(heard), 2), dtype=np.int64)
                rows[:, 0] = ks[heard]
                rows[:, 1] = self.state[ss[heard]]
                self._mis.append(rows)

    def payloads(self, cells: np.ndarray) -> np.ndarray:
        """The payload tuples ``cells`` send this slot (est1, est2 or
        mis blocks), built once per cell and phase or round (an object
        array)."""
        n = self.n
        stamp = self._t_stamp[cells // n]
        stale = (self._payload_stamp[cells] != stamp).nonzero()[0]
        for i in stale.tolist():
            cell = int(cells[i])
            t = cell // n
            phase = int(self._t_phase[t])
            label = int(self.label[cell])
            block = self._t_block[t]
            if block == EST1:
                payload = ("est1", phase, label)
            elif block == EST2:
                lo, hi = np.searchsorted(
                    self.potentials, [cell * self.span, (cell + 1) * self.span]
                )
                payload = (
                    "est2",
                    phase,
                    label,
                    frozenset(
                        (self.potentials[lo:hi] - cell * self.span).tolist()
                    ),
                )
            else:
                payload = (
                    "mis",
                    phase,
                    int(self._t_round[t]),
                    label,
                    _STATES[self.state[cell]],
                )
            self._payload[cell] = payload
            self._payload_stamp[cell] = stamp[i]
        return self._payload[cells]


class CombinedKernel:
    """Algorithm 11.1: an :class:`AckKernel` (Algorithm B.1) on the
    even slots for the cells with a broadcast in flight, and an
    :class:`ApproxProgressKernel` (Algorithm 9.1) on the odd slots for
    every awake cell, at virtual slot ``slot // 2``.

    A new broadcast starts a fresh B.1 engine; Algorithm 9.1 keeps its
    state and only sends the new message.  Reception feedback (the B.1
    fallback counter) comes from even-slot decodes only.
    """

    needs_reception_feedback = True

    def __init__(
        self,
        ack_configs: Sequence[AckConfig],
        approg_configs: Sequence[ApproxProgressConfig],
        n: int,
    ) -> None:
        self.ack = AckKernel(ack_configs, n)
        self.approg = ApproxProgressKernel(approg_configs, n, stride=2)
        self.configs = list(zip(ack_configs, approg_configs))
        self.n = int(n)

    def reset(self, idx: np.ndarray) -> None:
        self.ack.reset(idx)

    def notify(self, idx: np.ndarray) -> None:
        self.ack.notify(idx)
