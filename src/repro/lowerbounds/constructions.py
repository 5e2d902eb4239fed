"""The paper's two adversarial network geometries.

Both are packaged as small classes bundling the point set, the SINR
parameters prescribed by the proof, and the induced graphs, so tests and
benchmarks can assert the structural properties the proofs rely on
(matching degree, blocked concurrent links, interference ratios) before
measuring behaviour on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from repro.geometry.deployment import two_balls, two_parallel_lines
from repro.geometry.points import PointSet, pairwise_distances
from repro.sinr.channel import Channel
from repro.sinr.graphs import (
    approx_connectivity_graph,
    strong_connectivity_graph,
)
from repro.sinr.params import SINRParameters

__all__ = ["ProgressLowerBoundNetwork", "DecayLowerBoundNetwork"]


@dataclass
class ProgressLowerBoundNetwork:
    """Theorem 6.1 / Figure 1: two parallel lines of Δ nodes each.

    Δ nodes V = {0..Δ-1} sit on a line with unit spacing; Δ nodes
    U = {Δ..2Δ-1} sit on a parallel line at distance R_{1-ε} = 10·Δ.
    In G_{1-ε}:

    * every node has degree exactly Δ (its own line forms a clique of
      Δ-1 plus one cross partner),
    * node ``i`` of V has exactly one U-neighbor, its partner ``Δ+i``,
    * a cross transmission (v_i → u_i) succeeds iff **no other node**
      of V ∪ U transmits in the same slot — any second transmitter sits
      within a whisker of the same distance to u_i and pushes the SINR
      under β.

    Hence at most one U-node can make progress per slot, and with all of
    V broadcasting, some U-node waits ≥ Δ slots: ``f_prog ≥ Δ``, even
    for an optimal centralized scheduler (the experiment in
    :func:`repro.lowerbounds.experiments.optimal_schedule_progress`
    realizes exactly that scheduler).

    Note the cross links have length exactly R_{1-ε} > R_{1-2ε}: they
    are absent from G̃ = G_{1-2ε}, so the *approximate* progress
    contract (Definition 7.1) never triggers on them — precisely the
    spec weakening that makes an efficient implementation possible.
    """

    delta: int
    base_params: SINRParameters = field(default_factory=SINRParameters)

    def __post_init__(self) -> None:
        if self.delta < 2:
            raise ValueError("delta must be >= 2")
        self.line_distance = 10.0 * self.delta
        self.points: PointSet = two_parallel_lines(
            self.delta, line_distance=self.line_distance, spacing=1.0
        )
        # The proof prescribes R_{1-eps} = 10*delta (so partners at
        # distance 10Δ are connected while diagonal pairs at distance
        # sqrt((10Δ)² + k²), k >= 1, are not).  Floating-point round-trips
        # through the power formula can land the radius a hair under the
        # partner distance, so we aim halfway into the gap between the
        # partner distance and the nearest diagonal distance.
        nearest_diagonal = (self.line_distance**2 + 1.0) ** 0.5
        self.params = self.base_params.with_strong_range(
            0.5 * (self.line_distance + nearest_diagonal)
        )
        distances = pairwise_distances(self.points.coords)
        self.graph: nx.Graph = strong_connectivity_graph(
            self.points, self.params, distances=distances
        )
        self.approx_graph: nx.Graph = approx_connectivity_graph(
            self.points, self.params, distances=distances
        )

    @property
    def v_nodes(self) -> list[int]:
        """The broadcasting line V."""
        return list(range(self.delta))

    @property
    def u_nodes(self) -> list[int]:
        """The receiving line U."""
        return list(range(self.delta, 2 * self.delta))

    def partner(self, v: int) -> int:
        """The unique cross G_{1-ε}-neighbor of a V-node."""
        if v not in self.v_nodes:
            raise ValueError(f"{v} is not a V-node")
        return v + self.delta

    def channel(self) -> Channel:
        """A fresh channel over this geometry."""
        return Channel(self.points, self.params)

    def verify_structure(self) -> dict:
        """Check the structural claims of the proof; return a summary.

        Raises ``AssertionError`` on violation — used by tests and run
        defensively by the benchmark before measuring.
        """
        ch = self.channel()
        degrees = dict(self.graph.degree)
        for node in self.graph.nodes:
            assert degrees[node] == self.delta, (
                f"node {node} has degree {degrees[node]}, expected "
                f"{self.delta}"
            )
        for v in self.v_nodes:
            cross = [u for u in self.graph.neighbors(v) if u in self.u_nodes]
            assert cross == [self.partner(v)], (
                f"V-node {v} crosses to {cross}, expected "
                f"[{self.partner(v)}]"
            )
        # Lone cross transmission decodes; any concurrent one blocks.
        v0, u0 = 0, self.partner(0)
        assert ch.link_sinr(v0, u0, [v0]) >= self.params.beta
        blocked = ch.link_sinr(v0, u0, [v0, 1])
        assert blocked < self.params.beta, (
            f"concurrent transmitter did not block: SINR={blocked:.3f}"
        )
        # Cross links are absent from the approximation graph.
        for v in self.v_nodes:
            assert not self.approx_graph.has_edge(v, self.partner(v))
        return {
            "delta": self.delta,
            "degree": self.delta,
            "cross_links_in_G": self.delta,
            "cross_links_in_Gtilde": 0,
        }


@dataclass
class DecayLowerBoundNetwork:
    """Theorem 8.1: a sparse ball crushed by a dense ball's interference.

    Ball B1 (2 nodes) and ball B2 (Δ nodes) have radius R/4 and centers
    at distance R_2 = 2R: out of communication range of each other, but
    well inside interference range.  All nodes want to broadcast.  Under
    Decay, whenever the probability sweep is high enough for B1's two
    nodes to transmit, B2's Δ nodes transmit in droves and bury the
    SINR; progress inside B1 therefore costs Ω(Δ·log(1/ε)) slots.
    Algorithm 9.1 instead sparsifies B2 through its MIS cascade and
    thins transmissions by Q, achieving polylog approximate progress —
    the gap measured by ``bench_thm81_decay_approg.py``.

    ``center_factor`` and ``two_sided`` control a *hardened* variant
    used by the benchmark: the paper places one Δ-ball at distance 2R,
    which crushes B1 only for asymptotically large Δ; placing the dense
    population as two balls at ±1.5R (still strictly out of
    communication range of B1, so the graph structure of the proof is
    unchanged) brings the crushing regime down to laptop-scale Δ.  The
    interference mechanism — B2's aggregate far field tracking B1's own
    transmission probability — is identical (DESIGN.md §3).
    """

    delta: int
    base_params: SINRParameters = field(default_factory=SINRParameters)
    seed: int = 0
    center_factor: float = 2.0
    two_sided: bool = False

    def __post_init__(self) -> None:
        if self.delta < 2:
            raise ValueError("delta must be >= 2")
        if self.center_factor <= 1.25:
            raise ValueError(
                "center_factor must exceed 1.25 to keep the balls "
                "out of communication range"
            )
        # Scale the range so B2 fits delta nodes at unit separation:
        # a ball of radius R/4 packs ~ (R/4)^2 / (1/2)^2 unit-separated
        # nodes; R = 16*sqrt(delta) gives comfortable headroom.
        target_range = max(16.0 * self.delta**0.5, 40.0)
        self.params = self.base_params.with_range(target_range)
        r = self.params.transmission_range
        radius = r / 4.0
        center = self.center_factor * r
        if self.two_sided:
            halves = (self.delta // 2, self.delta - self.delta // 2)
            dense_parts = [
                two_balls(
                    n_sparse=1,  # placeholder replaced by the B1 pair
                    n_dense=count,
                    ball_radius=radius,
                    center_distance=side * center,
                    min_separation=1.0,
                    seed=self.seed + idx,
                ).coords[1:]
                for idx, (side, count) in enumerate(
                    zip((1.0, -1.0), halves)
                )
            ]
            dense = np.vstack(dense_parts)
        else:
            dense = two_balls(
                n_sparse=1,
                n_dense=self.delta,
                ball_radius=radius,
                center_distance=center,
                min_separation=1.0,
                seed=self.seed,
            ).coords[1:]
        # B1's two nodes sit at the extremes of their R/4-ball (the
        # proof's worst case): separation R/2, so the link's SINR budget
        # is thin enough for B2's aggregate far-field interference to
        # bury it once delta is large.
        b1 = np.array([[-radius, 0.0], [radius, 0.0]])
        self.points = PointSet(
            np.vstack([b1, dense]),
            name=f"thm81(delta={self.delta})",
        )
        distances = pairwise_distances(self.points.coords)
        self.graph: nx.Graph = strong_connectivity_graph(
            self.points, self.params, distances=distances
        )
        self.approx_graph: nx.Graph = approx_connectivity_graph(
            self.points, self.params, distances=distances
        )

    @property
    def b1_nodes(self) -> list[int]:
        """The two-node sparse ball."""
        return [0, 1]

    @property
    def b2_nodes(self) -> list[int]:
        """The Δ-node dense ball."""
        return list(range(2, 2 + self.delta))

    def channel(self) -> Channel:
        """A fresh channel over this geometry."""
        return Channel(self.points, self.params)

    def verify_structure(self) -> dict:
        """Check the proof's structural claims; return a summary."""
        # B1's two nodes are strong neighbors of each other...
        assert self.graph.has_edge(0, 1), "B1 nodes must be G-neighbors"
        assert self.approx_graph.has_edge(0, 1), (
            "B1 nodes must be G-tilde neighbors"
        )
        # ...and have no edges into B2 (balls are out of range).
        for b1 in self.b1_nodes:
            crossing = [
                u for u in self.graph.neighbors(b1) if u in self.b2_nodes
            ]
            assert not crossing, f"B1 node {b1} reaches into B2: {crossing}"
        # With all of B2 transmitting, the B1 link is buried for large
        # delta (the interference mechanism of the proof).
        ch = self.channel()
        lone = ch.link_sinr(0, 1, [0])
        assert lone >= self.params.beta, "lone B1 transmission must decode"
        return {
            "delta": self.delta,
            "b1_link_lone_sinr": lone,
            "b1_link_all_b2_sinr": ch.link_sinr(0, 1, [0] + self.b2_nodes),
        }
