"""Unit tests for repro.sinr.graphs (induced connectivity graphs)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.deployment import (
    cluster_deployment,
    line_deployment,
    uniform_disk,
)
from repro.geometry.points import PointSet, pairwise_distances
from repro.sinr.graphs import (
    approx_connectivity_graph,
    graph_degree,
    graph_diameter,
    induced_graph,
    link_length_ratio,
    require_connected,
    strong_connectivity_graph,
    weak_connectivity_graph,
)
from repro.sinr.params import SINRParameters


PARAMS = SINRParameters(power=1.0, alpha=3.0, beta=1.5, noise=1e-4)


@pytest.fixture
def params():
    return PARAMS


class TestInducedGraph:
    def test_edges_respect_radius(self, params):
        # Nodes spaced so only adjacent pairs are within R_{1-eps}.
        spacing = params.strong_range * 0.9
        pts = line_deployment(4, spacing=spacing)
        g = strong_connectivity_graph(pts, params)
        assert set(g.edges) == {(0, 1), (1, 2), (2, 3)}

    def test_edge_lengths_attached(self, params):
        pts = line_deployment(3, spacing=5.0)
        g = strong_connectivity_graph(pts, params)
        assert g.edges[0, 1]["length"] == pytest.approx(5.0)

    def test_strength_validation(self, params):
        pts = line_deployment(2, spacing=5.0)
        with pytest.raises(ValueError):
            induced_graph(pts, params, 0.0)
        with pytest.raises(ValueError):
            induced_graph(pts, params, 1.5)

    def test_nested_graphs(self, params):
        """G_{1-2eps} ⊆ G_{1-eps} ⊆ G_1 (paper §4.3)."""
        pts = uniform_disk(25, radius=20.0, seed=9)
        g_weak = weak_connectivity_graph(pts, params)
        g_strong = strong_connectivity_graph(pts, params)
        g_approx = approx_connectivity_graph(pts, params)
        assert set(g_approx.edges) <= set(g_strong.edges)
        assert set(g_strong.edges) <= set(g_weak.edges)

    def test_single_node(self, params):
        g = strong_connectivity_graph(line_deployment(1), params)
        assert g.number_of_nodes() == 1
        assert g.number_of_edges() == 0

    def test_positions_stored(self, params):
        pts = PointSet(np.array([[1.0, 2.0], [3.0, 4.0]]))
        g = strong_connectivity_graph(pts, params)
        assert g.nodes[0]["pos"] == (1.0, 2.0)

    @pytest.mark.parametrize("strength", [0.8, 0.9, 1.0])
    def test_given_distances_build_the_same_graph(self, params, strength):
        """Nodes, edges, lengths and adjacency order all match.

        Gray-zone adversaries and the spec scans iterate adjacency, so
        its order is part of the contract, not just the edge set.
        """
        pts = uniform_disk(60, radius=30.0, seed=4)
        built = induced_graph(pts, params, strength)
        shared = induced_graph(
            pts, params, strength, distances=pairwise_distances(pts.coords)
        )
        assert shared.graph == built.graph
        assert list(shared.nodes(data=True)) == list(built.nodes(data=True))
        assert list(shared.edges(data=True)) == list(built.edges(data=True))
        assert [list(shared.adj[v]) for v in shared] == [
            list(built.adj[v]) for v in built
        ]

    def test_distances_shape_checked(self, params):
        pts = line_deployment(3, spacing=2.0)
        with pytest.raises(ValueError, match="shape"):
            induced_graph(pts, params, 0.9, distances=np.zeros((2, 2)))


class TestLinkLengthRatio:
    def test_known_ratio(self, params):
        # Distances 2 and 10 both within strong range (~16.9).
        pts = PointSet(np.array([[0.0, 0.0], [2.0, 0.0], [12.0, 0.0]]))
        g = strong_connectivity_graph(pts, params)
        assert link_length_ratio(g) == pytest.approx(12.0 / 2.0)

    def test_edgeless_graph_returns_one(self, params):
        far = 5 * params.transmission_range
        pts = PointSet(np.array([[0.0, 0.0], [far, 0.0]]))
        g = strong_connectivity_graph(pts, params)
        assert link_length_ratio(g) == 1.0


class TestDegreeDiameter:
    def test_path_graph_metrics(self, params):
        spacing = params.strong_range * 0.9
        pts = line_deployment(5, spacing=spacing)
        g = strong_connectivity_graph(pts, params)
        assert graph_degree(g) == 2
        assert graph_diameter(g) == 4

    def test_diameter_requires_connectivity(self, params):
        far = 5 * params.transmission_range
        pts = PointSet(np.array([[0.0, 0.0], [far, 0.0]]))
        g = strong_connectivity_graph(pts, params)
        with pytest.raises(ValueError, match="disconnected"):
            graph_diameter(g)

    def test_degree_of_empty_graph(self):
        assert graph_degree(nx.Graph()) == 0


def _assert_diameter_matches_networkx(graph: nx.Graph) -> None:
    """graph_diameter against nx.diameter, the reference kept for tests."""
    if nx.is_connected(graph):
        assert graph_diameter(graph) == nx.diameter(graph)
    else:
        with pytest.raises(ValueError, match="disconnected"):
            graph_diameter(graph)


# Sources go 64 to a block, one uint64 word per node: sizes on both
# sides of one and two words.
BLOCK_EDGE_SIZES = (1, 2, 63, 64, 65, 127, 128, 129)
sizes = st.one_of(
    st.sampled_from(BLOCK_EDGE_SIZES), st.integers(min_value=1, max_value=140)
)


class TestDiameterOracle:
    @given(
        n=sizes,
        degree=st.floats(min_value=2.0, max_value=12.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_uniform_disk(self, n, degree, seed):
        radius = PARAMS.strong_range * max(1.0, (n / degree) ** 0.5)
        pts = uniform_disk(n, radius=radius, seed=seed)
        _assert_diameter_matches_networkx(
            strong_connectivity_graph(pts, PARAMS)
        )
        _assert_diameter_matches_networkx(
            approx_connectivity_graph(pts, PARAMS)
        )

    @given(
        n_clusters=st.integers(min_value=1, max_value=8),
        per_cluster=st.integers(min_value=1, max_value=20),
        spacing=st.floats(min_value=4.0, max_value=20.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_cluster_deployment(self, n_clusters, per_cluster, spacing, seed):
        pts = cluster_deployment(
            n_clusters,
            per_cluster,
            cluster_radius=4.0,
            cluster_spacing=spacing,
            seed=seed,
        )
        _assert_diameter_matches_networkx(
            strong_connectivity_graph(pts, PARAMS)
        )

    @given(
        n=sizes,
        degree=st.floats(min_value=0.5, max_value=8.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_gnp(self, n, degree, seed):
        p = min(1.0, degree / max(1, n - 1))
        _assert_diameter_matches_networkx(nx.gnp_random_graph(n, p, seed=seed))

    def test_single_node_is_zero(self):
        graph = nx.Graph()
        graph.add_node("only")
        assert graph_diameter(graph) == 0

    def test_empty_graph_raises(self):
        with pytest.raises(ValueError, match="empty"):
            graph_diameter(nx.Graph())

    def test_periphery_in_the_last_block(self):
        # A 130-node path whose two ends are the last nodes inserted:
        # only the third, two-source block reaches eccentricity 129.
        graph = nx.Graph()
        graph.add_nodes_from(range(1, 129))
        graph.add_nodes_from((0, 129))
        nx.add_path(graph, range(130))
        assert graph_diameter(graph) == nx.diameter(graph) == 129

    def test_isolated_node_in_a_later_block(self):
        # Node 129 is a source of the third block, yet the first block's
        # rounds already stall short of it.
        graph = nx.path_graph(129)
        graph.add_node(129)
        with pytest.raises(
            ValueError, match="graph is disconnected; diameter undefined"
        ):
            graph_diameter(graph)

    def test_labels_need_not_be_contiguous(self):
        base = nx.connected_watts_strogatz_graph(150, 4, 0.1, seed=3)
        order = np.random.default_rng(5).permutation(150)
        graph = nx.Graph()
        graph.add_nodes_from(f"v{7 * int(i)}" for i in order)
        graph.add_edges_from(
            (f"v{7 * u}", f"v{7 * v}") for u, v in base.edges
        )
        assert graph_diameter(graph) == nx.diameter(base)


class TestRequireConnected:
    def test_passes_connected(self, params):
        pts = line_deployment(3, spacing=2.0)
        require_connected(strong_connectivity_graph(pts, params))

    def test_raises_disconnected(self, params):
        far = 5 * params.transmission_range
        pts = PointSet(np.array([[0.0, 0.0], [far, 0.0]]))
        with pytest.raises(ValueError, match="connected"):
            require_connected(strong_connectivity_graph(pts, params))
