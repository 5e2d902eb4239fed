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
* the caller feeds each stepped cell the uniform its node's private
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

Kernels know nothing about slots, channels or traces — the
:class:`~repro.vectorized.runtime.VectorRuntime` owns that choreography.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.ack_protocol import AckConfig
from repro.core.decay import DecayConfig

__all__ = ["DecayKernel", "AckKernel"]


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
