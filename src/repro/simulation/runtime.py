"""The slot-synchronous runtime.

Advances a population of :class:`~repro.simulation.node.ProtocolNode`
automata slot by slot over a :class:`~repro.sinr.channel.Channel`:

1. each awake node chooses transmit/listen for the slot,
2. the channel resolves the slot with the SINR rule,
3. receptions are delivered; sleeping receivers are woken first
   (conditional wakeup, Definition 4.4).

The runtime also exposes ``run_until`` so experiments can stop on
arbitrary predicates (e.g. "all nodes delivered message m").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.simulation.node import NodeAPI, ProtocolNode
from repro.simulation.rng import spawn_node_rngs
from repro.simulation.trace import EventTrace
from repro.sinr.channel import Channel

__all__ = ["Runtime", "RuntimeConfig"]


@dataclass(frozen=True)
class RuntimeConfig:
    """Runtime options.

    Attributes
    ----------
    seed:
        Master seed for all node randomness.
    max_slots:
        Hard safety cap; ``run_until`` raises if exceeded, so broken
        protocols fail loudly instead of spinning forever.
    record_physical:
        When True, every physical transmit/receive is traced (heavier but
        needed by the spec checker and the channel-utilization metrics).
    """

    seed: int | None = 0
    max_slots: int = 2_000_000
    record_physical: bool = True


class Runtime:
    """Slot-synchronous executor binding nodes to a channel."""

    def __init__(
        self,
        channel: Channel,
        nodes: Sequence[ProtocolNode],
        config: RuntimeConfig | None = None,
    ) -> None:
        if len(nodes) != channel.n:
            raise ValueError(
                f"node count {len(nodes)} != channel size {channel.n}"
            )
        ids = sorted(node.node_id for node in nodes)
        if ids != list(range(len(nodes))):
            raise ValueError("node ids must be exactly 0..n-1")
        self.channel = channel
        self.config = config or RuntimeConfig()
        self.trace = EventTrace()
        self.slot = 0
        self.nodes: list[ProtocolNode] = sorted(nodes, key=lambda x: x.node_id)
        rngs = spawn_node_rngs(len(nodes), self.config.seed)
        for node, rng in zip(self.nodes, rngs):
            node.bind(NodeAPI(node.node_id, rng, self))
        # Arm the stochastic channel model (no-op when inactive) with
        # the same master seed: the channel stream is child n of the
        # seed sequence, independent of every node stream above.
        channel.bind_trial_seed(self.config.seed)

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    def wake_node(self, node_id: int) -> None:
        """Environment input that wakes a node (e.g. a bcast request)."""
        self.nodes[node_id].wake()

    def wake_all(self) -> None:
        """Wake every node (synchronous-start experiments, lower bounds)."""
        for node in self.nodes:
            node.wake()

    def collect_transmissions(self) -> dict[int, Any]:
        """Phase 1 of a slot: every awake node decides transmit/listen.

        Records transmit trace events; does not advance the slot counter.
        :meth:`step` resolves the result on the channel and hands the
        outcome to :meth:`deliver_outcome`.
        """
        transmissions: dict[int, Any] = {}
        alive = self.channel.alive
        for node in self.nodes:
            if not node.awake:
                continue
            # Churn: a crashed node's automaton is frozen — no on_slot
            # call, no RNG draw, no transmission — until it recovers.
            if alive is not None and not alive[node.node_id]:
                continue
            payload = node.on_slot(self.slot)
            if payload is not None:
                transmissions[node.node_id] = payload
                if self.config.record_physical:
                    self.trace.record(
                        self.slot, "transmit", node.node_id, payload
                    )
        return transmissions

    def deliver_outcome(self, outcome) -> dict[int, tuple[int, Any]]:
        """Phase 2 of a slot: deliver a resolved outcome's receptions.

        Wakes sleeping receivers (conditional wakeup, Definition 4.4),
        records receive trace events, and advances the slot counter.
        """
        for listener, (sender, payload) in outcome.receptions.items():
            node = self.nodes[listener]
            # Conditional wakeup: the decode itself wakes a sleeping node.
            node.wake()
            if self.config.record_physical:
                self.trace.record(
                    self.slot, "receive", listener, (sender, payload)
                )
            node.on_receive(self.slot, sender, payload)
        self.slot += 1
        return outcome.receptions

    def step(self) -> dict[int, tuple[int, Any]]:
        """Advance one slot; return the slot's receptions.

        Dynamic topology (mobility/churn) advances first — the epoch
        contract of :meth:`~repro.sinr.channel.Channel.advance_topology`
        puts every scheduled change before the slot's transmit
        decisions, on every executor.
        """
        self.channel.advance_topology(self.slot)
        transmissions = self.collect_transmissions()
        outcome = self.channel.resolve_slot(transmissions)
        return self.deliver_outcome(outcome)

    def run(self, slots: int) -> None:
        """Advance a fixed number of slots."""
        if slots < 0:
            raise ValueError("slots must be >= 0")
        for _ in range(slots):
            self._check_budget()
            self.step()

    def run_until(
        self,
        predicate: Callable[["Runtime"], bool],
        check_every: int = 1,
    ) -> int:
        """Advance until ``predicate(self)`` holds; return the slot count.

        Raises ``RuntimeError`` when ``config.max_slots`` is exhausted, so
        a livelocked protocol surfaces as a test failure rather than a
        hang.
        """
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        while not predicate(self):
            for _ in range(check_every):
                self._check_budget()
                self.step()
        return self.slot

    def _check_budget(self) -> None:
        if self.slot >= self.config.max_slots:
            raise RuntimeError(
                f"slot budget exhausted ({self.config.max_slots}); "
                "protocol appears not to terminate"
            )
