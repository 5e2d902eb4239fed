"""Keyed memoization of deployment-derived artifacts.

Every trial over a deployment re-derives the same expensive objects: the
pairwise-distance matrix, the uniform-power gain matrix ``P / d^α``, the
connectivity graphs G_{1-ε} / G_{1-2ε}, and the network metrics (Δ, D,
Λ) that parameterize every bound.  A multi-trial sweep (dozens of seeds
over one deployment) used to pay that cost per trial; the
:class:`ArtifactCache` pays it once and shares the artifacts across
trials, executors, and the harness builders.

Cache keys
----------
* A :class:`~repro.experiments.plans.DeploymentSpec` is keyed by its
  ``(kind, options)`` pair — two specs with equal generator name and
  arguments resolve to one shared PointSet.
* Artifacts are keyed by ``(coords.tobytes(), SINRParameters)`` — the
  *exact bytes* of the coordinate array plus the physical parameters.
  Mutating a deployment (any coordinate change, however produced) gives
  a different key, so stale artifacts can never be served; the cached
  numpy arrays are additionally frozen read-only so accidental in-place
  mutation of a shared artifact raises instead of corrupting the cache.

The cache is bounded LRU on both maps; the module-level
:data:`GLOBAL_CACHE` serves the harness and engine defaults, and
worker processes each grow their own (artifact arrays are cheaper to
recompute in the worker than to pickle across the fork for every task).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace

import networkx as nx
import numpy as np

from repro.analysis.metrics import NetworkMetrics, metrics_from_graphs
from repro.experiments.plans import DeploymentSpec
from repro.geometry.points import PointSet, pairwise_distances
from repro.sinr.graphs import (
    approx_connectivity_graph,
    strong_connectivity_graph,
)
from repro.sinr.params import SINRParameters
from repro.sinr.physics import gain_matrix
from repro.sinr.sparse import SparseResolver

__all__ = [
    "DeploymentArtifacts",
    "ArtifactCache",
    "GLOBAL_CACHE",
    "deployment_artifacts",
    "geometry_artifacts",
    "sparse_resolver",
    "resolve_deployment",
]


def _dense_params(params: SINRParameters) -> SINRParameters:
    """Strip the per-trial/per-resolver configuration from a cache key.

    Every dense artifact — distances, base gains, graphs, metrics — is
    defined by the deterministic constants alone: a fading sweep or a
    sparse-resolution sweep over one deployment shares one entry
    (per-trial multipliers live on the per-trial Channel; the sparse
    grids have their own keyed memo below).
    """
    if params.channel_model is None and params.sparse is None:
        return params
    return replace(params, channel_model=None, sparse=None)


@dataclass(frozen=True)
class DeploymentArtifacts:
    """Everything derivable from (deployment, params) alone.

    Attributes
    ----------
    distances:
        ``(n, n)`` pairwise-distance matrix (read-only).
    gains:
        ``(n, n)`` uniform-power link gains ``P / d^α`` (read-only) —
        the per-slot SINR kernels take these instead of re-evaluating
        the power law every slot.
    graph / approx_graph:
        G_{1-ε} and G_{1-2ε} = G̃, both built from ``distances``.
    metrics:
        The paper's parameters (n, Δ, D, Λ) for this deployment.
    """

    points: PointSet
    params: SINRParameters
    distances: np.ndarray
    gains: np.ndarray
    graph: nx.Graph
    approx_graph: nx.Graph
    metrics: NetworkMetrics


class ArtifactCache:
    """Bounded LRU cache for deployments and their derived artifacts."""

    def __init__(self, maxsize: int = 64) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._points: OrderedDict[tuple, PointSet] = OrderedDict()
        self._artifacts: OrderedDict[tuple, DeploymentArtifacts] = (
            OrderedDict()
        )
        self._geometry: OrderedDict[
            tuple, tuple[np.ndarray, np.ndarray]
        ] = OrderedDict()
        self._sparse: OrderedDict[tuple, SparseResolver] = OrderedDict()
        self.hits = 0
        self.misses = 0

    # -- deployments -----------------------------------------------------

    def resolve(self, spec: DeploymentSpec) -> PointSet:
        """Materialize a spec, memoized on its ``(kind, options)`` key."""
        key = (spec.kind, spec.options)
        cached = self._points.get(key)
        if cached is not None:
            self._points.move_to_end(key)
            self.hits += 1
            return cached
        self.misses += 1
        points = spec.build()
        self._points[key] = points
        while len(self._points) > self.maxsize:
            self._points.popitem(last=False)
        return points

    # -- derived artifacts -----------------------------------------------

    def artifacts(
        self, points: PointSet, params: SINRParameters
    ) -> DeploymentArtifacts:
        """Distances, gains, graphs and metrics for one deployment.

        Keyed by the exact coordinate bytes + params, so any mutation of
        the deployment produces a fresh entry rather than a stale hit.
        A stochastic ``channel_model`` and a ``sparse`` resolution spec
        are stripped from the key (and the stored params): every
        artifact here — distances, base gains, graphs, metrics — is
        defined by the deterministic constants alone, so a fading or
        sparse-resolution sweep over one deployment shares one entry
        (per-trial multipliers live on the per-trial
        :class:`~repro.sinr.channel.Channel`, sparse grids in the
        :meth:`sparse_resolver` memo).
        """
        params = _dense_params(params)
        key = (points.coords.tobytes(), params)
        cached = self._artifacts.get(key)
        if cached is not None:
            self._artifacts.move_to_end(key)
            self.hits += 1
            return cached
        self.misses += 1
        distances = pairwise_distances(points.coords)
        gains = gain_matrix(params, distances)
        distances.setflags(write=False)
        gains.setflags(write=False)
        strong = strong_connectivity_graph(
            points, params, distances=distances
        )
        approx = approx_connectivity_graph(
            points, params, distances=distances
        )
        built = DeploymentArtifacts(
            points=points,
            params=params,
            distances=distances,
            gains=gains,
            graph=strong,
            approx_graph=approx,
            metrics=metrics_from_graphs(len(points), strong, approx),
        )
        self._artifacts[key] = built
        while len(self._artifacts) > self.maxsize:
            self._artifacts.popitem(last=False)
        return built

    # -- per-epoch geometry ----------------------------------------------

    def geometry(
        self, points: PointSet, params: SINRParameters
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distances and gains alone — the epoch-refresh artifact.

        Dynamic-topology runs (:mod:`repro.topology`) re-derive the
        distance and gain matrices at every mobility epoch; the graphs
        and metrics of the full :meth:`artifacts` entry stay defined by
        the *initial* deployment (the measurement contract), so epochs
        need only this cheap pair.  Keyed exactly like :meth:`artifacts`
        — coordinate bytes + deterministic params — which gives two
        kinds of sharing for free: epochs whose coordinates equal the
        initial deployment (static segments, zero-speed pauses) are
        served from the full-artifact entry itself, and trials sharing
        one provider trajectory (the default: providers carry their own
        seed) share each epoch's matrices across the whole sweep, so
        the columnar executor's tensor stacks collapse to zero-stride
        views again.
        """
        params = _dense_params(params)
        key = (points.coords.tobytes(), params)
        full = self._artifacts.get(key)
        if full is not None:
            self._artifacts.move_to_end(key)
            self.hits += 1
            return full.distances, full.gains
        cached = self._geometry.get(key)
        if cached is not None:
            self._geometry.move_to_end(key)
            self.hits += 1
            return cached
        self.misses += 1
        distances = pairwise_distances(points.coords)
        gains = gain_matrix(params, distances)
        distances.setflags(write=False)
        gains.setflags(write=False)
        self._geometry[key] = (distances, gains)
        while len(self._geometry) > self.maxsize:
            self._geometry.popitem(last=False)
        return distances, gains

    # -- sparse resolvers ------------------------------------------------

    def sparse_resolver(
        self, points: PointSet, params: SINRParameters
    ) -> SparseResolver:
        """Memoized :class:`~repro.sinr.sparse.SparseResolver`.

        Keyed by coordinate bytes + params with the channel model
        stripped but the ``sparse`` spec *kept* — the grid and its
        thresholds depend on mode/ε/cell size, so differing specs get
        their own resolver while a fading sweep over one spec shares
        it.  Dynamic-topology epochs call this per geometry change;
        trials sharing a provider trajectory share each epoch's grid
        exactly like the dense :meth:`geometry` pairs.
        """
        if params.sparse is None:
            raise ValueError(
                "params.sparse must be set to resolve a sparse grid"
            )
        key_params = (
            params
            if params.channel_model is None
            else replace(params, channel_model=None)
        )
        key = (points.coords.tobytes(), key_params)
        cached = self._sparse.get(key)
        if cached is not None:
            self._sparse.move_to_end(key)
            self.hits += 1
            return cached
        self.misses += 1
        built = SparseResolver(points, params)
        self._sparse[key] = built
        while len(self._sparse) > self.maxsize:
            self._sparse.popitem(last=False)
        return built

    # -- maintenance -----------------------------------------------------

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        self._points.clear()
        self._artifacts.clear()
        self._geometry.clear()
        self._sparse.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict[str, int]:
        """Hit/miss/size counters (for tests and benchmark reports)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "points_entries": len(self._points),
            "artifact_entries": len(self._artifacts),
            "geometry_entries": len(self._geometry),
            "sparse_entries": len(self._sparse),
        }


GLOBAL_CACHE = ArtifactCache()


def deployment_artifacts(
    points: PointSet,
    params: SINRParameters,
    cache: ArtifactCache | None = None,
) -> DeploymentArtifacts:
    """Memoized artifacts from the given (or global) cache."""
    return (cache or GLOBAL_CACHE).artifacts(points, params)


def geometry_artifacts(
    points: PointSet,
    params: SINRParameters,
    cache: ArtifactCache | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Memoized (distances, gains) for one epoch's coordinates."""
    return (cache or GLOBAL_CACHE).geometry(points, params)


def sparse_resolver(
    points: PointSet,
    params: SINRParameters,
    cache: ArtifactCache | None = None,
) -> SparseResolver:
    """Memoized sparse-grid resolver for one (deployment, params)."""
    return (cache or GLOBAL_CACHE).sparse_resolver(points, params)


def resolve_deployment(
    spec: DeploymentSpec, cache: ArtifactCache | None = None
) -> PointSet:
    """Memoized PointSet for a spec from the given (or global) cache."""
    return (cache or GLOBAL_CACHE).resolve(spec)
