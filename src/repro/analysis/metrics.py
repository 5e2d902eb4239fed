"""Network metrics: the quantities the bounds are parameterized by."""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.geometry.points import PointSet, pairwise_distances
from repro.sinr.graphs import (
    approx_connectivity_graph,
    graph_degree,
    graph_diameter,
    link_length_ratio,
    strong_connectivity_graph,
)
from repro.sinr.params import SINRParameters

__all__ = ["NetworkMetrics", "compute_metrics", "metrics_from_graphs"]


@dataclass(frozen=True)
class NetworkMetrics:
    """The paper's parameters for one deployment.

    Attributes mirror §2's notation: n, Δ and D for both G_{1-ε} and
    G_{1-2ε}, and the length ratio Λ of G_{1-ε}.
    """

    n: int
    degree: int  # Δ_{G_{1-ε}}
    degree_tilde: int  # Δ_{G_{1-2ε}}
    diameter: int | None  # D_{G_{1-ε}} (None if disconnected)
    diameter_tilde: int | None  # D_{G_{1-2ε}} (None if disconnected)
    lam: float  # Λ
    connected: bool
    connected_tilde: bool

    def describe(self) -> str:
        """One-line summary for experiment logs."""
        return (
            f"n={self.n} Δ={self.degree} Δ̃={self.degree_tilde} "
            f"D={self.diameter} D̃={self.diameter_tilde} Λ={self.lam:.2f}"
        )


def metrics_from_graphs(
    n: int, strong: nx.Graph, approx: nx.Graph
) -> NetworkMetrics:
    """Derive the bound parameters from already-built G_{1-ε} / G_{1-2ε}.

    Used by the experiment engine's artifact cache, which builds both
    graphs once per deployment and shares them across trials.
    """
    connected = strong.number_of_nodes() > 0 and nx.is_connected(strong)
    connected_tilde = approx.number_of_nodes() > 0 and nx.is_connected(approx)
    return NetworkMetrics(
        n=n,
        degree=graph_degree(strong),
        degree_tilde=graph_degree(approx),
        diameter=graph_diameter(strong) if connected else None,
        diameter_tilde=graph_diameter(approx) if connected_tilde else None,
        lam=link_length_ratio(strong),
        connected=connected,
        connected_tilde=connected_tilde,
    )


def compute_metrics(
    points: PointSet, params: SINRParameters
) -> NetworkMetrics:
    """Compute all bound parameters for a deployment."""
    distances = pairwise_distances(points.coords)
    strong = strong_connectivity_graph(points, params, distances=distances)
    approx = approx_connectivity_graph(points, params, distances=distances)
    return metrics_from_graphs(len(points), strong, approx)
