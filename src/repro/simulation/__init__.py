"""Slot-synchronous distributed-protocol simulator.

Nodes are event-driven automata (paper §4.4) advanced in synchronous slots;
the channel resolves concurrent transmissions with the SINR rule.
Conditional (non-spontaneous) wakeup per Definition 4.4 is built in: a
sleeping node participates only as a listener and is woken by its first
received message or by an explicit environment input.
"""

from repro.simulation.node import ProtocolNode, NodeAPI
from repro.simulation.runtime import Runtime, RuntimeConfig
from repro.simulation.trace import EventTrace, TraceEvent
from repro.simulation.rng import spawn_node_rngs, spawn_trial_seeds

__all__ = [
    "ProtocolNode",
    "NodeAPI",
    "Runtime",
    "RuntimeConfig",
    "EventTrace",
    "TraceEvent",
    "spawn_node_rngs",
    "spawn_trial_seeds",
]
