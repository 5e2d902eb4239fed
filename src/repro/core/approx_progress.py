"""Algorithm 9.1: fast approximate progress (Theorem 9.1).

The algorithm runs an endless sequence of *epochs*.  Each epoch performs
Φ = Θ(log Λ) *phases*; phase φ works on a sender set S_φ (S_1 = the
nodes with an ongoing broadcast) and consists of four slot blocks:

1. **est1** (T slots): every S_φ node transmits its random temporary
   label with probability p; everybody counts which labels they hear and
   how often.  A label heard at least ``(1-γ/2)·μ·T`` times marks a
   *potential* neighbor in the reliability graph H^μ_p[S_φ] (§9.3.1).
   Each node records its own send pattern — the schedule τ_φ.
2. **est2** (T slots): S_φ nodes transmit their potential-neighbor lists
   with probability p; mutual potentials become H̃̃^μ_p[S_φ] edges.
3. **mis** (R·T slots): R synchronous rounds of the temporary-label MIS
   of :mod:`repro.core.mis`, each round simulated by replaying the
   schedule τ_φ (re-sending in exactly the slots one sent in during
   est1, so the interference pattern — and hence every reliable link —
   reproduces; §9.3.2).  A node that fails to hear one of its H̃̃
   neighbors during a round declares its communication unsuccessful and
   drops out of the epoch.  Survivors in state *dominator* form S_{φ+1}.
4. **bcast** (B = Θ(Q·log(1/ε)) slots, Q = Θ(log^α Λ)): S_φ nodes
   transmit their actual bcast-message with probability p/Q
   (Lines 10–13).  Any node hearing a bcast-message records it; the
   first one of an epoch is delivered as the rcv output (Lines 17–18).

Sparsification intuition (§9.1): S_{φ+1} is an independent set of a
constant-degree reliability graph, so the minimum distance inside the
sender set doubles every phase (Lemma 10.15).  After ≤ Φ phases the set
around any receiver is so sparse that a G_{1-ε}-neighbor transmitting
with probability p/Q gets through — giving *approximate progress* with
respect to G̃ = G_{1-2ε} within one epoch, w.p. ≥ 1 − ε_approg.

All nodes derive the identical epoch schedule from public parameters
(the known bound on Λ, ε_approg, α), so slot-index arithmetic keeps them
aligned; a node waking mid-epoch listens until the next epoch boundary
(§9.3: nodes join at the beginning of the next epoch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.absmac.layer import MacClient, MacLayerBase
from repro.core.events import BcastMessage, MessageRegistry
from repro.core.mis import COMPETITOR, DOMINATOR, next_state
from repro.geometry.growth import growth_bound_function

__all__ = [
    "ApproxProgressConfig",
    "EpochSchedule",
    "ApproxProgressEngine",
    "ApproxProgressMacLayer",
]


def _log_star(x: float) -> int:
    """Iterated base-2 logarithm."""
    count = 0
    while x > 1.0:
        x = math.log2(x)
        count += 1
    return count


@dataclass(frozen=True)
class ApproxProgressConfig:
    """Parameters of Algorithm 9.1.

    The formulas for Φ, T, Q, R and the label space follow the paper
    exactly; the ``*_scale`` knobs set the leading constants (the proof
    constants are simulation-hostile; DESIGN.md §3, substitution 1).

    Attributes
    ----------
    lambda_bound:
        The known (polynomial) upper bound on Λ (§4.6 assumes one).
    eps_approg:
        Target failure probability ε_approg of approximate progress.
    alpha:
        Path-loss exponent; enters through Q = Θ(log^α Λ).
    p:
        Estimation/MIS transmission probability, p ∈ (0, 1/2].
    mu:
        Reliability threshold defining H^μ_p, μ ∈ (0, p).
    gamma:
        Approximation slack γ ∈ (0, 1) of the (1-γ)-approximation.
    """

    lambda_bound: float
    eps_approg: float = 0.1
    alpha: float = 3.0
    p: float = 0.5
    mu: float = 0.08
    gamma: float = 0.5
    phi_scale: float = 1.0
    t_scale: float = 0.6
    q_scale: float = 0.15
    bcast_scale: float = 6.0
    mis_round_budget: int | None = None
    label_space: int | None = None

    def __post_init__(self) -> None:
        if self.lambda_bound < 1:
            raise ValueError("lambda_bound must be >= 1")
        if not 0.0 < self.eps_approg < 1.0:
            raise ValueError("eps_approg must be in (0, 1)")
        if self.alpha <= 2:
            raise ValueError("alpha must exceed 2")
        if not 0.0 < self.p <= 0.5:
            raise ValueError("p must be in (0, 1/2]")
        if not 0.0 < self.mu < self.p:
            raise ValueError("mu must be in (0, p)")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        for name in ("phi_scale", "t_scale", "q_scale", "bcast_scale"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")

    # -- derived parameters (paper formulas) ------------------------------

    @property
    def phi_count(self) -> int:
        """Φ = Θ(log Λ): phases per epoch."""
        return max(
            1, math.ceil(self.phi_scale * math.log2(max(self.lambda_bound, 2.0)))
        )

    @property
    def log_star_term(self) -> int:
        """log*(Λ/ε_approg), the MIS runtime factor."""
        return max(1, _log_star(self.lambda_bound / self.eps_approg))

    def h_values(self) -> tuple[list[int], list[int]]:
        """The locality radii of Definition 9.2.

        Returns ``(h, h_prime)`` as lists indexed by phase (0-based for
        phases 1..Φ): ``h_Φ = h'_Φ = 1``, and going downward
        ``h'_φ = 3·h_{φ+1}``, ``h_φ = h'_φ + c·log*(Λ/ε) + 1``.
        """
        phi = self.phi_count
        h = [0] * phi
        h_prime = [0] * phi
        h[phi - 1] = 1
        h_prime[phi - 1] = 1
        for idx in range(phi - 2, -1, -1):
            h_prime[idx] = 3 * h[idx + 1]
            h[idx] = h_prime[idx] + self.log_star_term + 1
        return h, h_prime

    @property
    def h1(self) -> int:
        """h_1, the largest locality radius (enters T through f(h_1))."""
        return self.h_values()[0][0]

    @property
    def repetitions(self) -> int:
        """T = Θ(log(f(h_1)/ε) / (γ²μ)): estimation/replay slots."""
        f_h1 = growth_bound_function(float(self.h1))
        raw = math.log2(max(f_h1 / self.eps_approg, 2.0)) / (
            self.gamma**2 * self.mu
        )
        return max(8, math.ceil(self.t_scale * raw))

    @property
    def q_factor(self) -> int:
        """Q = Θ(log^α Λ): bcast-block probability divisor (Line 11)."""
        raw = math.log2(max(self.lambda_bound, 2.0)) ** self.alpha
        return max(1, math.ceil(self.q_scale * raw))

    @property
    def bcast_block_slots(self) -> int:
        """B = Θ(Q·log(1/ε)): Lines 10–13 block length."""
        log_eps = math.log2(max(1.0 / self.eps_approg, 2.0))
        return max(4, math.ceil(self.bcast_scale * self.q_factor * log_eps))

    @property
    def mis_rounds(self) -> int:
        """R = c·log*(Λ/ε) + 2: the fixed MIS round budget (§9.3.2)."""
        if self.mis_round_budget is not None:
            return max(1, self.mis_round_budget)
        return self.log_star_term + 2

    @property
    def labels(self) -> int:
        """Temporary-label space size, poly(Λ/ε) (§9.3.2)."""
        if self.label_space is not None:
            return max(2, self.label_space)
        return max(64, math.ceil((self.lambda_bound / self.eps_approg) ** 2))

    @property
    def potential_threshold(self) -> float:
        """Reception-count threshold (1-γ/2)·μ·T marking potentials."""
        return (1.0 - self.gamma / 2.0) * self.mu * self.repetitions


class EpochSchedule:
    """Slot layout of one epoch, shared by all nodes.

    An epoch is Φ phases of ``(2 + R)·T + B`` slots each.  ``locate``
    maps a virtual slot index to its (epoch, phase, block, offset)
    coordinates; everything else in the engine is driven off that.
    """

    EST1 = "est1"
    EST2 = "est2"
    MIS = "mis"
    BCAST = "bcast"

    def __init__(self, config: ApproxProgressConfig) -> None:
        self.config = config
        self.t = config.repetitions
        self.rounds = config.mis_rounds
        self.bcast_slots = config.bcast_block_slots
        self.phase_slots = (2 + self.rounds) * self.t + self.bcast_slots
        self.phi = config.phi_count
        self.epoch_slots = self.phi * self.phase_slots

    def locate(self, virtual_slot: int) -> tuple[int, int, str, int]:
        """Map a virtual slot to (epoch, phase, block, offset).

        For the MIS block the offset is encoded as
        ``round * T + slot_in_round``.
        """
        if virtual_slot < 0:
            raise ValueError("virtual_slot must be >= 0")
        epoch, in_epoch = divmod(virtual_slot, self.epoch_slots)
        phase, off = divmod(in_epoch, self.phase_slots)
        if off < self.t:
            return epoch, phase, self.EST1, off
        off -= self.t
        if off < self.t:
            return epoch, phase, self.EST2, off
        off -= self.t
        if off < self.rounds * self.t:
            return epoch, phase, self.MIS, off
        off -= self.rounds * self.t
        return epoch, phase, self.BCAST, off

    def describe(self) -> str:
        """One-line summary for experiment logs."""
        return (
            f"epoch={self.epoch_slots} slots (phi={self.phi}, T={self.t}, "
            f"R={self.rounds}, B={self.bcast_slots}, "
            f"Q={self.config.q_factor})"
        )


class ApproxProgressEngine:
    """Per-node state machine executing Algorithm 9.1.

    Fed one *virtual slot* at a time through :meth:`step` (the combined
    layer maps odd physical slots to consecutive virtual slots);
    receptions are routed in through :meth:`on_reception`.  The engine
    never acknowledges — Remark 10.19: Algorithm 9.1 only implements
    approximate progress; acknowledgments come from Algorithm B.1.
    """

    def __init__(
        self,
        schedule: EpochSchedule,
        rng: np.random.Generator,
        node_id: int,
    ) -> None:
        self.schedule = schedule
        self.config = schedule.config
        self.rng = rng
        self.node_id = node_id
        self.message: BcastMessage | None = None  # ongoing broadcast (m)
        self.first_bcast: BcastMessage | None = None  # m' of this epoch
        self.epochs_completed = 0
        # Per-epoch / per-phase state (reset by _begin_epoch/_begin_phase).
        self._joined_epoch = False  # in S_1 of the current epoch
        self._in_s = False  # member of the current S_phi
        self._alive = False  # not dropped out (unsuccessful communication)
        self._current_epoch = -1
        self._current_phase = -1
        self._label = 0
        self._send_pattern: list[bool] = []
        self._counts: dict[int, int] = {}
        self._potentials: frozenset[int] = frozenset()
        self._neighbors: set[int] = set()
        self._mis_state = COMPETITOR
        self._mis_round = -1
        self._heard_round: dict[int, str] = {}
        self.drops = 0  # dropout counter (observability)

    # -- block transitions ---------------------------------------------------

    def _begin_epoch(self, epoch: int) -> None:
        self._current_epoch = epoch
        self.first_bcast = None
        # Line 3-5: S_1 := nodes with an ongoing broadcast.
        self._joined_epoch = self.message is not None
        self._in_s = self._joined_epoch
        self._alive = True
        if epoch > 0:
            self.epochs_completed += 1

    def _observe_epoch(self, epoch: int) -> None:
        """Enter an epoch already in progress as a passive listener.

        §9.3: nodes that wake mid-epoch "join the algorithm at the
        beginning of the next epoch"; until then they only listen (and
        may still deliver bcast-messages they overhear).
        """
        self._current_epoch = epoch
        self.first_bcast = None
        self._joined_epoch = False
        self._in_s = False
        self._alive = True

    def _begin_phase(self, phase: int) -> None:
        self._current_phase = phase
        t = self.schedule.t
        self._label = int(self.rng.integers(1, self.config.labels + 1))
        self._send_pattern = [False] * t
        self._counts = {}
        self._potentials = frozenset()
        self._neighbors = set()
        self._mis_state = COMPETITOR
        self._mis_round = -1
        self._heard_round = {}

    def _finish_mis_round(self) -> None:
        """Apply one MIS round's results; drop out on missed neighbors."""
        if not (self._in_s and self._alive):
            return
        missing = self._neighbors - set(self._heard_round)
        if missing:
            # §9.3.2: communication unsuccessful -> leave this epoch.
            self._alive = False
            self.drops += 1
            return
        views = [
            (label, state) for label, state in self._heard_round.items()
        ]
        self._mis_state = next_state(self._label, self._mis_state, views)
        self._heard_round = {}

    def _finish_phase(self) -> None:
        """Membership transition: S_{φ+1} = surviving dominators."""
        if self._in_s:
            self._in_s = self._alive and self._mis_state == DOMINATOR

    # -- slot execution --------------------------------------------------------

    def step(self, virtual_slot: int) -> Any | None:
        """Advance one virtual slot; return a payload to transmit or None."""
        epoch, phase, block, off = self.schedule.locate(virtual_slot)
        if epoch != self._current_epoch:
            at_boundary = (
                phase == 0 and block == EpochSchedule.EST1 and off == 0
            )
            if at_boundary:
                self._begin_epoch(epoch)
            else:
                # Woken mid-epoch: listen only until the next boundary.
                self._observe_epoch(epoch)
            self._begin_phase(phase)
        elif phase != self._current_phase:
            self._finish_phase()
            self._begin_phase(phase)

        cfg = self.config
        active = self._joined_epoch and self._in_s and self._alive
        if block == EpochSchedule.EST1:
            if not active:
                return None
            send = self.rng.random() < cfg.p
            self._send_pattern[off] = send
            if send:
                return ("est1", phase, self._label)
            return None

        if block == EpochSchedule.EST2:
            if off == 0:
                self._freeze_potentials()
            if not active:
                return None
            if self.rng.random() < cfg.p:
                return ("est2", phase, self._label, self._potentials)
            return None

        if block == EpochSchedule.MIS:
            rnd, slot_in_round = divmod(off, self.schedule.t)
            if slot_in_round == 0:
                if rnd > 0:
                    self._finish_mis_round()
                self._mis_round = rnd
                self._heard_round = {}
            active = self._joined_epoch and self._in_s and self._alive
            if not active:
                return None
            if self._send_pattern[slot_in_round]:  # replay schedule tau
                return ("mis", phase, rnd, self._label, self._mis_state)
            return None

        # BCAST block.
        if off == 0:
            self._finish_mis_round()
        active = self._joined_epoch and self._in_s and self._alive
        if not active or self.message is None:
            return None
        if self.rng.random() < cfg.p / cfg.q_factor:
            return self.message
        return None

    def _freeze_potentials(self) -> None:
        """Convert est1 counts into the potential-neighbor label set."""
        if not (self._joined_epoch and self._in_s and self._alive):
            self._potentials = frozenset()
            return
        threshold = self.config.potential_threshold
        self._potentials = frozenset(
            label for label, count in self._counts.items() if count >= threshold
        )

    # -- receptions -------------------------------------------------------------

    def on_reception(self, virtual_slot: int, payload: Any) -> None:
        """Route a decoded payload into the current block's bookkeeping."""
        epoch, phase, block, off = self.schedule.locate(virtual_slot)
        if isinstance(payload, BcastMessage):
            if self.first_bcast is None and epoch == self._current_epoch:
                self.first_bcast = payload
            return
        if not isinstance(payload, tuple) or not payload:
            return
        kind = payload[0]
        if kind == "est1" and block == EpochSchedule.EST1:
            _, msg_phase, label = payload
            if msg_phase == self._current_phase:
                self._counts[label] = self._counts.get(label, 0) + 1
        elif kind == "est2" and block == EpochSchedule.EST2:
            _, msg_phase, label, their_potentials = payload
            if (
                msg_phase == self._current_phase
                and self._in_s
                and self._alive
                and label in self._potentials
                and self._label in their_potentials
            ):
                self._neighbors.add(label)
        elif kind == "mis" and block == EpochSchedule.MIS:
            _, msg_phase, rnd, label, state = payload
            if (
                msg_phase == self._current_phase
                and rnd == self._mis_round
                and label in self._neighbors
            ):
                self._heard_round[label] = state


class ApproxProgressMacLayer(MacLayerBase):
    """A MAC layer driven purely by Algorithm 9.1.

    Provides fast approximate progress (Theorem 9.1) but **no
    acknowledgments** (Remark 10.19): broadcasts stay active until
    explicitly aborted.  Used standalone by the f_approg experiments;
    production use goes through
    :class:`~repro.core.combined.CombinedMacLayer`.
    """

    def __init__(
        self,
        node_id: int,
        registry: MessageRegistry,
        schedule: EpochSchedule,
        client: MacClient | None = None,
    ) -> None:
        super().__init__(node_id, registry, client)
        self.schedule = schedule
        self.engine: ApproxProgressEngine | None = None

    def _ensure_engine(self) -> ApproxProgressEngine:
        if self.engine is None:
            self.engine = ApproxProgressEngine(
                self.schedule, self.api.rng, self.node_id
            )
        return self.engine

    def _start_broadcast(self, message: BcastMessage) -> None:
        if self.engine is not None:
            self.engine.message = message

    def _stop_broadcast(self, message: BcastMessage, aborted: bool) -> None:
        if self.engine is not None:
            self.engine.message = None

    def on_slot(self, slot: int) -> Any | None:
        engine = self._ensure_engine()
        engine.message = self.current
        return engine.step(slot)

    def on_receive(self, slot: int, sender: int, payload: Any) -> None:
        engine = self._ensure_engine()
        engine.on_reception(slot, payload)
        if isinstance(payload, BcastMessage) and self._sender_in_range(
            sender
        ):
            self._deliver(slot, payload)
