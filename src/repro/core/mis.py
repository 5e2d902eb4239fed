"""Distributed maximal independent set with temporary labels.

Algorithm 9.1 sparsifies its sender sets by computing an MIS of each
estimated reliability graph.  The paper modifies the Schneider–
Wattenhofer algorithm [47] in two ways (§9.3.2):

1. nodes use *random, possibly non-unique temporary labels* from
   ``[1, poly(Λ/ε_approg)]`` instead of unique ids, and
2. the algorithm stops at a *predetermined round budget* instead of
   waiting for every node to settle; only nodes that reached state
   ``dominator`` join the next sender set.

With these modifications the result is always an independent set and is
maximal with probability ≥ 1 − ε/3 around any fixed location
(Lemma 10.1).  We implement the same interface with the classic
label-minimum rule (a competitor whose label is strictly smaller than
every competing neighbor's becomes a dominator; competitors adjacent to a
dominator become dominated), which on the constant-degree growth-bounded
graphs involved settles in a logarithmic number of rounds with high
probability — see DESIGN.md §3 (substitution 2).  Independence holds
unconditionally: two adjacent competitors can never both win a round,
and equal labels (collisions) make neither win.

The per-round transition is exposed as a pure function
(:func:`next_state`) so :class:`~repro.core.approx_progress.
ApproxProgressEngine` can drive the identical logic from inside the
slot-level simulation, and :class:`DistributedMIS` runs it standalone on
an abstract graph for testing and analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

__all__ = [
    "COMPETITOR",
    "DOMINATOR",
    "DOMINATED",
    "next_state",
    "DistributedMIS",
    "greedy_mis",
    "is_independent_set",
    "is_maximal_independent_set",
]

COMPETITOR = "competitor"
DOMINATOR = "dominator"
DOMINATED = "dominated"


def next_state(
    my_label: int,
    my_state: str,
    neighbor_views: list[tuple[int, str]],
) -> str:
    """One synchronous MIS round transition for a single node.

    ``neighbor_views`` holds the (label, state) pairs the node heard from
    its graph neighbors this round.  Neighbors it failed to hear from are
    simply absent (the caller decides separately whether missing a
    neighbor means dropping out, per §9.3.2's unsuccessful-communication
    rule).

    Rules (from the SW description in §9.3.2, collapsed to the
    three-state version):

    * settled states never change,
    * a competitor hearing a dominator becomes dominated,
    * a competitor with a label strictly smaller than every *competitor*
      neighbor's label becomes a dominator (no competitor neighbors ⇒
      vacuously smaller),
    * otherwise it stays a competitor.

    Adjacent competitors can never both satisfy the strict-minimum rule
    in the same round, so the dominator set stays independent even with
    label collisions.
    """
    if my_state != COMPETITOR:
        return my_state
    if any(state == DOMINATOR for _, state in neighbor_views):
        return DOMINATED
    competitor_labels = [
        label for label, state in neighbor_views if state == COMPETITOR
    ]
    if not competitor_labels or my_label < min(competitor_labels):
        return DOMINATOR
    return my_state


@dataclass
class DistributedMIS:
    """Standalone synchronous execution of the modified MIS algorithm.

    Runs :func:`next_state` for every node in synchronous rounds on an
    abstract graph for a fixed ``round_budget``.  This is the model-level
    counterpart of the slot-level execution inside Algorithm 9.1 and the
    object Lemma 10.1 reasons about.
    """

    graph: nx.Graph
    labels: dict
    round_budget: int

    def __post_init__(self) -> None:
        if self.round_budget < 1:
            raise ValueError("round_budget must be >= 1")
        missing = [v for v in self.graph.nodes if v not in self.labels]
        if missing:
            raise ValueError(f"labels missing for nodes {missing[:5]}")
        self.states = {v: COMPETITOR for v in self.graph.nodes}
        self.rounds_run = 0

    def run(self) -> dict:
        """Execute the full round budget; return the final state map."""
        for _ in range(self.round_budget):
            self.step()
        return self.states

    def step(self) -> None:
        """One synchronous round over all nodes."""
        snapshot = dict(self.states)
        updated = {}
        for v in self.graph.nodes:
            views = [
                (self.labels[u], snapshot[u]) for u in self.graph.neighbors(v)
            ]
            updated[v] = next_state(self.labels[v], snapshot[v], views)
        self.states = updated
        self.rounds_run += 1

    def dominators(self) -> set:
        """The computed independent set (S_{φ+1} in Algorithm 9.1)."""
        return {v for v, s in self.states.items() if s == DOMINATOR}

    def unsettled(self) -> set:
        """Nodes still in competitor state when the budget ran out."""
        return {v for v, s in self.states.items() if s == COMPETITOR}

    @staticmethod
    def random_labels(
        nodes, label_space: int, rng: np.random.Generator
    ) -> dict:
        """Draw i.i.d. uniform temporary labels from [1, label_space]."""
        if label_space < 1:
            raise ValueError("label_space must be >= 1")
        return {v: int(rng.integers(1, label_space + 1)) for v in nodes}


def greedy_mis(graph: nx.Graph, order=None) -> set:
    """Sequential greedy MIS (reference implementation for tests)."""
    result: set = set()
    blocked: set = set()
    nodes = list(graph.nodes) if order is None else list(order)
    for v in nodes:
        if v in blocked or v in result:
            continue
        result.add(v)
        blocked.update(graph.neighbors(v))
    return result


def is_independent_set(graph: nx.Graph, candidate: set) -> bool:
    """True iff no two candidate nodes are adjacent."""
    nodes = list(candidate)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            if graph.has_edge(u, v):
                return False
    return True


def is_maximal_independent_set(graph: nx.Graph, candidate: set) -> bool:
    """True iff candidate is independent and no node can be added."""
    if not is_independent_set(graph, candidate):
        return False
    for v in graph.nodes:
        if v in candidate:
            continue
        if not any(u in candidate for u in graph.neighbors(v)):
            return False
    return True
