"""Algorithm B.1: local broadcast with fast acknowledgments.

This is the Halldórsson–Mitra ``LocalBroadcast`` algorithm restated by the
paper in Appendix B with *local* parameters: the contention bound ``Ñ_x``
replaces the network size, which is what makes Theorem 5.1's bound

    f_ack = O(Δ·log(Λ/ε_ack) + log Λ · log(Λ/ε_ack))

depend only on local quantities (Theorem 5.1 instantiates ``Ñ_x = 4Λ²``).

The structure is exactly the paper's (nested loops, multiplicative
probability adaptation, fallback on overheard traffic, halting on spent
probability budget); the leading constants are configuration knobs
because the proof constants are far too conservative to simulate — see
DESIGN.md §3 (substitution 1).

Intuition (paper App. B): the "right" transmission probability is about
``1/Ñ_x``.  A broadcaster starts low and doubles every block; receiving
many messages from others signals that the neighborhood has reached the
productive probability regime, so the node falls back and lingers there.
The spent-probability budget ``tp`` caps total channel pressure and
doubles as the halting (acknowledgment) condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.absmac.layer import MacClient, MacLayerBase
from repro.core.events import BcastMessage, MessageRegistry

__all__ = ["AckConfig", "AckEngine", "AckMacLayer"]


@dataclass(frozen=True)
class AckConfig:
    """Parameters of Algorithm B.1.

    Attributes
    ----------
    contention_bound:
        Ñ_x, the known upper bound on local contention.  Theorem 5.1 uses
        the packing bound ``4Λ²``; tighter application knowledge may pass
        less.  Must be >= 1.
    eps_ack:
        Target failure probability ε_ack of the acknowledgment guarantee.
    delta:
        Inner-block length multiplier (paper constant δ): each inner block
        runs ``ceil(delta · log2(Ñ/ε))`` slots at a fixed probability.
    gamma_prime:
        Halting budget multiplier (paper constant γ′): the node halts — and
        acknowledges — once the accumulated transmission probability
        exceeds ``gamma_prime · log2(Ñ/ε)``.
    rc_factor:
        Fallback threshold multiplier (paper constant 8): overhearing more
        than ``rc_factor · log2(2Ñ/ε)`` messages since the last fallback
        triggers a probability fallback.
    fallback_divisor, floor_divisor, prob_cap:
        The paper's structural constants 32, 128, 1/16: on fallback the
        probability divides by ``fallback_divisor`` but never below
        ``1/(floor_divisor·Ñ)``, and it never exceeds ``prob_cap``.
    """

    contention_bound: float
    eps_ack: float = 0.1
    delta: float = 1.0
    gamma_prime: float = 4.0
    rc_factor: float = 2.0
    fallback_divisor: float = 32.0
    floor_divisor: float = 128.0
    prob_cap: float = 1.0 / 16.0

    def __post_init__(self) -> None:
        if self.contention_bound < 1:
            raise ValueError("contention_bound must be >= 1")
        if not 0.0 < self.eps_ack < 1.0:
            raise ValueError("eps_ack must be in (0, 1)")
        for name in (
            "delta",
            "gamma_prime",
            "rc_factor",
            "fallback_divisor",
            "floor_divisor",
        ):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.prob_cap <= 0.5:
            raise ValueError("prob_cap must be in (0, 1/2]")

    @property
    def log_term(self) -> float:
        """log2(Ñ/ε), the recurring factor in every bound."""
        return math.log2(max(self.contention_bound / self.eps_ack, 2.0))

    @property
    def inner_block_slots(self) -> int:
        """Length of one fixed-probability inner block."""
        return max(1, math.ceil(self.delta * self.log_term))

    @property
    def halt_budget(self) -> float:
        """Total transmission probability at which the node halts."""
        return self.gamma_prime * self.log_term

    @property
    def rc_threshold(self) -> float:
        """Received-message count that triggers a fallback."""
        return self.rc_factor * math.log2(
            max(2.0 * self.contention_bound / self.eps_ack, 2.0)
        )

    @property
    def initial_probability(self) -> float:
        """Starting transmission probability 1/(4Ñ)."""
        return 1.0 / (4.0 * self.contention_bound)

    @property
    def floor_probability(self) -> float:
        """Lowest probability reachable by fallbacks, 1/(128Ñ)."""
        return 1.0 / (self.floor_divisor * self.contention_bound)

    def expected_slot_bound(self, contention: float | None = None) -> float:
        """The Theorem B.3 runtime shape for a given actual contention N_x:
        ``O(N_x·log(Ñ/ε) + log(Ñ)·log(Ñ/ε))`` in owned slots.

        Used by the benchmarks as the predicted curve to compare measured
        latencies against (shape, not constants).
        """
        n_x = self.contention_bound if contention is None else contention
        log_n = math.log2(max(self.contention_bound, 2.0))
        return n_x * self.log_term + log_n * self.log_term


class AckEngine:
    """Per-broadcast state machine of Algorithm B.1.

    Owns one slot at a time through :meth:`step`; the caller reports
    overheard messages through :meth:`notify_reception`.  The engine is
    independent of the MAC plumbing so it can be reused by the combined
    layer (Algorithm 11.1), which feeds it only the even slots.
    """

    def __init__(self, config: AckConfig, rng: np.random.Generator) -> None:
        self.config = config
        self.rng = rng
        self.tp = 0.0  # accumulated transmission probability
        self.rc = 0  # messages overheard since last fallback
        self.probability = config.initial_probability
        self.halted = False
        self.slots_run = 0
        self.transmissions = 0
        self.fallbacks = 0  # observability: Claim B.19 counts these
        self._fallback_pending = False
        self._block_remaining = 0
        # Config scalars read every owned slot; snapshotting them here
        # keeps the log2-deriving properties out of the hot loop (a
        # multi-trial sweep steps these engines hundreds of thousands of
        # times).
        self._halt_budget = config.halt_budget
        self._rc_threshold = config.rc_threshold
        self._inner_block_slots = config.inner_block_slots
        self._begin_outer()

    # -- paper loop structure ---------------------------------------------

    def _begin_outer(self) -> None:
        """Line 4-5: fallback the probability and reset the counter."""
        self.probability = max(
            self.config.floor_probability,
            self.probability / self.config.fallback_divisor,
        )
        self.rc = 0
        self._begin_inner()

    def _begin_inner(self) -> None:
        """Line 7-8: double the probability and start a fixed block."""
        self.probability = min(self.config.prob_cap, 2.0 * self.probability)
        self._block_remaining = self._inner_block_slots

    # -- public interface ---------------------------------------------------

    def step(self) -> bool:
        """Run one owned slot; return True if the node transmits.

        After the engine halts further steps are no-ops returning False.
        """
        if self.halted:
            return False
        if self._fallback_pending:
            self._fallback_pending = False
            self.fallbacks += 1
            self._begin_outer()
        self.slots_run += 1
        transmit = self.rng.random() < self.probability
        if transmit:
            self.transmissions += 1
        # Line 13-15: budget accounting and halting.
        self.tp += self.probability
        if self.tp > self._halt_budget:
            self.halted = True
        self._block_remaining -= 1
        if self._block_remaining <= 0 and not self.halted:
            self._begin_inner()
        return transmit

    def notify_reception(self) -> None:
        """Line 17-21: count overheard messages; arm fallback on overflow."""
        if self.halted:
            return
        self.rc += 1
        if self.rc > self._rc_threshold:
            self._fallback_pending = True


class AckMacLayer(MacLayerBase):
    """A MAC layer driven purely by Algorithm B.1.

    Provides the acknowledgment guarantee of Theorem 5.1; its progress
    behaviour is the one Theorem 6.1 proves cannot be improved past Δ.
    Used standalone by the f_ack experiments and as the even-slot engine
    of the combined layer.
    """

    def __init__(
        self,
        node_id: int,
        registry: MessageRegistry,
        config: AckConfig,
        client: MacClient | None = None,
    ) -> None:
        super().__init__(node_id, registry, client)
        self.config = config
        self.engine: AckEngine | None = None

    def _start_broadcast(self, message: BcastMessage) -> None:
        # Engine creation is deferred to the first slot if the node has
        # not been bound yet (bcast() may arrive before Runtime.bind).
        self.engine = None

    def _stop_broadcast(self, message: BcastMessage, aborted: bool) -> None:
        self.engine = None

    def on_slot(self, slot: int) -> Any | None:
        if not self.busy:
            return None
        if self.engine is None:
            self.engine = AckEngine(self.config, self.api.rng)
        transmit = self.engine.step()
        payload = self.current if transmit else None
        if self.engine.halted:
            self._acknowledge(slot)
        return payload

    def on_receive(self, slot: int, sender: int, payload: Any) -> None:
        if not isinstance(payload, BcastMessage):
            return
        if self._sender_in_range(sender):
            self._deliver(slot, payload)
        # The fallback counter tracks raw channel pressure, so even
        # filtered messages count (Remark 4.6 only constrains rcv).
        if self.engine is not None:
            self.engine.notify_reception()
