"""SINR-induced connectivity graphs (paper §4.3).

``G_a = (V, E_a)`` connects two nodes iff their Euclidean distance is at
most ``R_a = a·R``.  The paper's communication graph is the *strong
connectivity graph* ``G_{1-ε}``; approximate progress is measured against
``G̃ = G_{1-2ε}``; the *weak* graph ``G_1`` bounds which messages can ever
be overheard.

These graphs drive all of the analysis-side quantities: degree Δ, diameter
D, and the length ratio Λ.  :class:`CsrGraph` holds the same adjacency
as arrays for the trace measurements of :mod:`repro.core.spec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import networkx as nx

from repro.geometry.points import PointSet, pairwise_distances
from repro.sinr.params import SINRParameters

__all__ = [
    "CsrGraph",
    "induced_graph",
    "strong_connectivity_graph",
    "weak_connectivity_graph",
    "approx_connectivity_graph",
    "link_length_ratio",
    "graph_degree",
    "graph_diameter",
    "require_connected",
]


def induced_graph(
    points: PointSet,
    params: SINRParameters,
    strength: float,
    *,
    distances: np.ndarray | None = None,
) -> nx.Graph:
    """Build ``G_a`` for ``a = strength``: edges at distance <= a·R.

    Nodes are integers ``0..n-1`` with a ``pos`` attribute; edges carry
    their Euclidean ``length``.  ``distances`` is the deployment's
    :func:`~repro.geometry.points.pairwise_distances` matrix when the
    caller already holds it (the artifact cache builds both graphs from
    its one matrix); otherwise it is computed here.
    """
    if strength <= 0 or strength > 1:
        raise ValueError("strength must be in (0, 1]")
    n = len(points)
    if distances is None:
        distances = pairwise_distances(points.coords)
    elif distances.shape != (n, n):
        raise ValueError(
            f"distances must have shape ({n}, {n}); got {distances.shape!r}"
        )
    radius = params.range_at(strength)
    graph = nx.Graph(strength=strength, radius=radius)
    for i in range(n):
        graph.add_node(i, pos=points[i])
    upper = np.triu(distances <= radius, k=1)
    for i, j in zip(*np.nonzero(upper)):
        graph.add_edge(int(i), int(j), length=float(distances[i, j]))
    return graph


@dataclass(frozen=True, eq=False)
class CsrGraph:
    """Adjacency of an undirected graph as CSR arrays.

    Row ``i`` belongs to node ``nodes[i]`` (int labels, in the graph's
    node order); its neighbours are the positions
    ``indices[indptr[i]:indptr[i + 1]]``, ascending.  The deployment
    artifacts build G_{1-ε} and G̃ this way from their distance matrix
    (:meth:`from_distances`, labels ``0..n-1``); any ``nx.Graph`` with
    integer labels converts through :meth:`from_graph`.
    """

    nodes: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_distances(cls, distances: np.ndarray, radius: float) -> CsrGraph:
        """``G_a`` over labels ``0..n-1``: the edges of
        :func:`induced_graph` at ``radius``, read from the same upper
        triangle."""
        n = len(distances)
        lo, hi = np.nonzero(np.triu(distances <= radius, k=1))
        rows = np.concatenate([lo, hi])
        cols = np.concatenate([hi, lo])
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        order = np.argsort(rows * n + cols, kind="stable")
        return cls(np.arange(n), indptr, cols[order].astype(np.int64))

    @classmethod
    def from_graph(cls, graph: nx.Graph) -> CsrGraph:
        """The adjacency of ``graph`` (self-loops included)."""
        labels = list(graph)
        if not all(
            type(v) is int or isinstance(v, np.integer) for v in labels
        ):
            raise TypeError("CsrGraph needs integer node labels")
        index = {v: i for i, v in enumerate(labels)}
        adj = graph.adj
        sizes = [len(adj[v]) for v in labels]
        rows = np.repeat(np.arange(len(labels)), sizes)
        cols = np.fromiter(
            (index[u] for v in labels for u in adj[v]),
            dtype=np.int64,
            count=int(sum(sizes)),
        )
        indptr = np.zeros(len(labels) + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        order = np.lexsort((cols, rows))
        return cls(np.array(labels, dtype=np.int64), indptr, cols[order])

    def __len__(self) -> int:
        return len(self.nodes)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Neighbour count of every row."""
        return np.diff(self.indptr)

    @cached_property
    def _label_order(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(sorted labels, their rows)``; None when label == row."""
        if np.array_equal(self.nodes, np.arange(len(self.nodes))):
            return None
        order = np.argsort(self.nodes, kind="stable")
        return self.nodes[order], order

    def positions(self, labels: np.ndarray) -> np.ndarray:
        """Row of each label, -1 where the label is not a node."""
        labels = np.asarray(labels, dtype=np.int64)
        lookup = self._label_order
        if lookup is None:
            inside = (labels >= 0) & (labels < len(self.nodes))
            return np.where(inside, labels, -1)
        ordered, rows = lookup
        if not len(ordered):
            return np.full(labels.shape, -1, dtype=np.int64)
        at = np.minimum(np.searchsorted(ordered, labels), len(ordered) - 1)
        return np.where(ordered[at] == labels, rows[at], -1)

    @cached_property
    def _edge_keys(self) -> np.ndarray:
        """``row · n + column`` of every stored entry, ascending."""
        rows = np.repeat(np.arange(len(self.nodes)), self.degrees)
        return rows * len(self.nodes) + self.indices

    def has_edges(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Whether each ``(rows[i], cols[i])`` row pair is an edge."""
        keys = self._edge_keys
        if not len(keys):
            return np.zeros(len(rows), dtype=bool)
        wanted = rows * len(self.nodes) + cols
        at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        return keys[at] == wanted


def strong_connectivity_graph(
    points: PointSet,
    params: SINRParameters,
    *,
    distances: np.ndarray | None = None,
) -> nx.Graph:
    """G_{1-ε}: the graph in which local broadcast is implemented."""
    return induced_graph(
        points, params, 1.0 - params.epsilon, distances=distances
    )


def approx_connectivity_graph(
    points: PointSet,
    params: SINRParameters,
    *,
    distances: np.ndarray | None = None,
) -> nx.Graph:
    """G_{1-2ε}: the approximation graph G̃ of Definition 7.1."""
    return induced_graph(
        points, params, 1.0 - 2.0 * params.epsilon, distances=distances
    )


def weak_connectivity_graph(
    points: PointSet, params: SINRParameters
) -> nx.Graph:
    """G_1: nodes within the full transmission range R."""
    return induced_graph(points, params, 1.0)


def link_length_ratio(graph: nx.Graph) -> float:
    """Λ_G: ratio of the longest to the shortest edge length.

    For ``G = G_{1-ε}`` this is the paper's Λ (§4.3).  Returns 1.0 for
    graphs with no edges (a degenerate but legal input for which every
    bound trivializes).
    """
    lengths = [data["length"] for _, _, data in graph.edges(data=True)]
    if not lengths:
        return 1.0
    shortest = min(lengths)
    if shortest <= 0:
        raise ValueError("graph contains a zero-length edge")
    return max(lengths) / shortest


def graph_degree(graph: nx.Graph) -> int:
    """Δ_G: maximum degree (0 for an empty or edgeless graph)."""
    if graph.number_of_nodes() == 0:
        return 0
    return max(deg for _, deg in graph.degree)


def _closed_neighbourhoods(graph: nx.Graph) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(starts, cols)`` of every node's closed neighbourhood.

    Row ``i`` lists the position of node ``i`` (in ``graph`` iteration
    order) followed by its neighbours' positions, so node labels need
    not be ``0..n-1`` and no row is empty.
    """
    nodes = list(graph)
    index = {node: i for i, node in enumerate(nodes)}
    adj = graph.adj
    sizes = np.fromiter(
        (len(adj[v]) + 1 for v in nodes), dtype=np.intp, count=len(nodes)
    )
    starts = np.zeros(len(nodes), dtype=np.intp)
    np.cumsum(sizes[:-1], out=starts[1:])
    cols = np.fromiter(
        (index[u] for v in nodes for u in (v, *adj[v])),
        dtype=np.intp,
        count=int(sizes.sum()),
    )
    return starts, cols


# Sources per BFS block: one uint64 word of source bits per node.  On a
# 5000-node disk of degree 16, blocks of 4 to 64 words per node took
# 1.2x to 3x the CPU time of one word.
_BLOCK = 64
_ALL_BITS = np.uint64(2**64 - 1)


def graph_diameter(graph: nx.Graph) -> int:
    """D_G: hop diameter.  Raises for disconnected graphs.

    Exact all-sources BFS, run bit-parallel: sources go in blocks of 64,
    and every node holds one 64-bit word whose bit ``j`` says whether
    source ``j`` of the block has reached it.  One round ORs each node's
    closed neighbourhood into its word (a CSR gather plus
    ``np.bitwise_or.reduceat``); after ``r`` rounds bit ``j`` of node
    ``v`` is set iff ``dist(j, v) <= r``, so the rounds until every word
    is full are the block's largest eccentricity, and D is the largest
    over the blocks.  A round that changes nothing before that means
    some node never hears some source: the graph is disconnected.
    Scratch memory per block is about ``8·(3n + 2m)`` bytes for ``m``
    edges, however many blocks there are.
    """
    n = graph.number_of_nodes()
    if n == 0:
        raise ValueError("diameter of the empty graph is undefined")
    starts, cols = _closed_neighbourhoods(graph)
    diameter = 0
    for first in range(0, n, _BLOCK):
        size = min(_BLOCK, n - first)
        full = _ALL_BITS >> np.uint64(_BLOCK - size)
        reach = np.zeros(n, dtype=np.uint64)
        reach[first : first + size] = np.left_shift(
            np.uint64(1), np.arange(size, dtype=np.uint64)
        )
        rounds = 0
        while not (reach == full).all():
            grown = np.bitwise_or.reduceat(reach[cols], starts)
            if np.array_equal(grown, reach):
                raise ValueError("graph is disconnected; diameter undefined")
            reach = grown
            rounds += 1
        diameter = max(diameter, rounds)
    return diameter


def require_connected(graph: nx.Graph, context: str = "G_{1-eps}") -> None:
    """Assert the standing assumption (§4.6) that the graph is connected."""
    if graph.number_of_nodes() == 0 or not nx.is_connected(graph):
        raise ValueError(
            f"{context} must be connected (paper assumption, §4.6); "
            "increase density or transmission range"
        )
