"""Shared experiment plumbing for tests, examples and benchmarks.

A :class:`StackBundle` wires a deployment, its SINR channel, a MAC
population and optional per-node clients into a ready-to-run
:class:`~repro.simulation.runtime.Runtime`, and carries the induced
graphs and metrics every measurement needs.

Deployment-derived artifacts (distance/gain matrices, connectivity
graphs, metrics) come from the keyed cache in
:mod:`repro.experiments.cache`, so building several stacks over one
deployment — a multi-trial sweep, or merely a builder that needs the
metrics before assembling — derives them once.  Every builder takes a
keyword-only ``cache`` (default: the process-wide
:data:`~repro.experiments.cache.GLOBAL_CACHE`), which the stack's
:class:`~repro.sinr.channel.Channel` keeps for its sparse-grid and
mobility-epoch lookups.  For multi-trial experiments prefer the engine
(:func:`repro.experiments.run_trials`), whose object path drives these
same builders with the engine's cache and whose columnar path is
verified bit-identical against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import networkx as nx
import numpy as np

from repro.absmac.layer import MacClient, MacLayerBase
from repro.analysis.metrics import NetworkMetrics
from repro.core.ack_protocol import AckConfig, AckMacLayer
from repro.core.approx_progress import (
    ApproxProgressConfig,
    ApproxProgressMacLayer,
    EpochSchedule,
)
from repro.core.combined import CombinedMacLayer
from repro.core.decay import DecayConfig, DecayMacLayer
from repro.core.events import MessageRegistry
from repro.core.spec import (
    AckReport,
    ProgressReport,
    measure_acknowledgments,
    measure_approximate_progress,
)
from repro.experiments.cache import ArtifactCache, deployment_artifacts
from repro.geometry.points import PointSet
from repro.simulation.runtime import Runtime, RuntimeConfig
from repro.sinr.channel import Channel, JammingAdversary
from repro.sinr.graphs import CsrGraph
from repro.sinr.params import SINRParameters
from repro.topology import TopologyProvider

__all__ = [
    "StackBundle",
    "default_ack_config",
    "default_approg_config",
    "default_decay_config",
    "build_combined_stack",
    "build_decay_stack",
    "build_approg_stack",
    "build_ack_stack",
    "attach_exact_local_broadcast",
    "run_local_broadcast_experiment",
    "format_table",
    "correlation_with_shape",
]


@dataclass
class StackBundle:
    """Everything one experiment needs, wired together."""

    points: PointSet
    params: SINRParameters
    runtime: Runtime
    macs: list[MacLayerBase]
    clients: list[MacClient]
    registry: MessageRegistry
    metrics: NetworkMetrics
    graph: nx.Graph  # G_{1-ε}
    approx_graph: nx.Graph  # G_{1-2ε}
    graph_csr: CsrGraph  # G_{1-ε} as the spec measurements read it
    approx_csr: CsrGraph  # G_{1-2ε}, likewise

    def ack_report(self, intervals=None) -> AckReport:
        """Acknowledgment measurements of the run so far."""
        return measure_acknowledgments(
            self.runtime.trace, self.graph_csr, intervals
        )

    def approg_report(self, intervals=None) -> ProgressReport:
        """Approximate-progress measurements of the run so far."""
        return measure_approximate_progress(
            self.runtime.trace, self.graph_csr, self.approx_csr, intervals
        )


def default_ack_config(lam: float, eps_ack: float) -> AckConfig:
    """The paper-formula Algorithm B.1 default: Ñ = 4Λ² at the measured Λ.

    Single source of truth shared by the harness builders and the
    columnar fast path (``repro.vectorized.engine.plan_protocol_config``)
    — the two executors' bit-identity contract requires equal configs,
    so the formula must never fork.
    """
    return AckConfig(
        contention_bound=SINRParameters.max_contention_bound(max(lam, 2.0)),
        eps_ack=eps_ack,
    )


def default_approg_config(
    lam: float, eps_approg: float, alpha: float
) -> ApproxProgressConfig:
    """The paper-formula Algorithm 9.1 default: the measured Λ stands in
    for the known bound on Λ, and α is the channel's path-loss exponent.

    Shared with the columnar fast path exactly like
    :func:`default_ack_config`.
    """
    return ApproxProgressConfig(
        lambda_bound=max(lam, 2.0), eps_approg=eps_approg, alpha=alpha
    )


def default_decay_config(n: int, eps_ack: float) -> DecayConfig:
    """The Decay baseline default: contention bound = population size.

    Shared with the columnar fast path exactly like
    :func:`default_ack_config`.
    """
    return DecayConfig(
        contention_bound=max(float(n), 2.0), eps_ack=eps_ack
    )


def _assemble(
    points: PointSet,
    params: SINRParameters,
    mac_factory: Callable[[int, MessageRegistry, MacClient], MacLayerBase],
    client_factory: Callable[[int], MacClient] | None,
    seed: int,
    max_slots: int,
    adversary: JammingAdversary | None,
    record_physical: bool,
    topology: TopologyProvider | None,
    cache: ArtifactCache | None,
) -> StackBundle:
    artifacts = deployment_artifacts(points, params, cache)
    registry = MessageRegistry()
    n = len(points)
    clients = [
        client_factory(i) if client_factory else MacClient() for i in range(n)
    ]
    macs = [mac_factory(i, registry, clients[i]) for i in range(n)]
    channel = Channel(
        points,
        params,
        adversary=adversary,
        distances=artifacts.distances,
        gains=artifacts.gains,
        topology=topology,
        cache=cache,
    )
    runtime = Runtime(
        channel,
        macs,
        RuntimeConfig(
            seed=seed,
            max_slots=max_slots,
            record_physical=record_physical,
        ),
    )
    return StackBundle(
        points=points,
        params=params,
        runtime=runtime,
        macs=macs,
        clients=clients,
        registry=registry,
        metrics=artifacts.metrics,
        graph=artifacts.graph,
        approx_graph=artifacts.approx_graph,
        graph_csr=artifacts.graph_csr,
        approx_csr=artifacts.approx_csr,
    )


def build_combined_stack(
    points: PointSet,
    params: SINRParameters,
    eps_ack: float = 0.1,
    eps_approg: float = 0.1,
    client_factory: Callable[[int], MacClient] | None = None,
    seed: int = 0,
    max_slots: int = 2_000_000,
    adversary: JammingAdversary | None = None,
    ack_config: AckConfig | None = None,
    approg_config: ApproxProgressConfig | None = None,
    record_physical: bool = True,
    topology: TopologyProvider | None = None,
    *,
    cache: ArtifactCache | None = None,
) -> StackBundle:
    """The paper's full absMAC (Algorithm 11.1) over a deployment.

    Configs default to the paper formulas evaluated at the deployment's
    measured Λ (standing in for the "known polynomial bound on Λ").
    """
    lam = deployment_artifacts(points, params, cache).metrics.lam
    if ack_config is None:
        ack_config = default_ack_config(lam, eps_ack)
    if approg_config is None:
        approg_config = default_approg_config(lam, eps_approg, params.alpha)
    schedule = EpochSchedule(approg_config)

    def factory(i: int, reg: MessageRegistry, client: MacClient):
        return CombinedMacLayer(i, reg, ack_config, schedule, client)

    return _assemble(
        points, params, factory, client_factory, seed, max_slots,
        adversary, record_physical, topology, cache,
    )


def build_ack_stack(
    points: PointSet,
    params: SINRParameters,
    eps_ack: float = 0.1,
    client_factory: Callable[[int], MacClient] | None = None,
    seed: int = 0,
    max_slots: int = 2_000_000,
    adversary: JammingAdversary | None = None,
    ack_config: AckConfig | None = None,
    record_physical: bool = True,
    topology: TopologyProvider | None = None,
    *,
    cache: ArtifactCache | None = None,
) -> StackBundle:
    """Algorithm B.1 alone (the Theorem 5.1 object of study)."""
    metrics = deployment_artifacts(points, params, cache).metrics
    lam = max(metrics.lam, 2.0)
    if ack_config is None:
        ack_config = default_ack_config(lam, eps_ack)

    def factory(i: int, reg: MessageRegistry, client: MacClient):
        return AckMacLayer(i, reg, ack_config, client)

    return _assemble(
        points, params, factory, client_factory, seed, max_slots,
        adversary, record_physical, topology, cache,
    )


def build_approg_stack(
    points: PointSet,
    params: SINRParameters,
    eps_approg: float = 0.1,
    client_factory: Callable[[int], MacClient] | None = None,
    seed: int = 0,
    max_slots: int = 2_000_000,
    adversary: JammingAdversary | None = None,
    approg_config: ApproxProgressConfig | None = None,
    record_physical: bool = True,
    topology: TopologyProvider | None = None,
    *,
    cache: ArtifactCache | None = None,
) -> StackBundle:
    """Algorithm 9.1 alone (the Theorem 9.1 object of study)."""
    if approg_config is None:
        lam = deployment_artifacts(points, params, cache).metrics.lam
        approg_config = default_approg_config(lam, eps_approg, params.alpha)
    schedule = EpochSchedule(approg_config)

    def factory(i: int, reg: MessageRegistry, client: MacClient):
        return ApproxProgressMacLayer(i, reg, schedule, client)

    return _assemble(
        points, params, factory, client_factory, seed, max_slots,
        adversary, record_physical, topology, cache,
    )


def build_decay_stack(
    points: PointSet,
    params: SINRParameters,
    eps_ack: float = 0.1,
    client_factory: Callable[[int], MacClient] | None = None,
    seed: int = 0,
    max_slots: int = 2_000_000,
    adversary: JammingAdversary | None = None,
    decay_config: DecayConfig | None = None,
    record_physical: bool = True,
    topology: TopologyProvider | None = None,
    *,
    cache: ArtifactCache | None = None,
) -> StackBundle:
    """The Decay MAC baseline over the same deployment."""
    if decay_config is None:
        decay_config = default_decay_config(len(points), eps_ack)

    def factory(i: int, reg: MessageRegistry, client: MacClient):
        return DecayMacLayer(i, reg, decay_config, client)

    return _assemble(
        points, params, factory, client_factory, seed, max_slots,
        adversary, record_physical, topology, cache,
    )


def attach_exact_local_broadcast(bundle: StackBundle) -> None:
    """Enable Remark 4.6's exact local broadcast on a stack.

    Equips every MAC node with a range oracle built from G_{1-ε}, so
    rcv events fire only for messages transmitted by strong neighbors.
    Models the platform capability ("nodes can detect in which range a
    received message originated") the remark discusses; the default
    stacks leave it off, matching the paper's main setting.
    """
    graph = bundle.graph
    for mac in bundle.macs:
        me = mac.node_id
        mac.neighbor_oracle = (
            lambda sender, me=me: graph.has_edge(me, sender)
        )


def run_local_broadcast_experiment(
    bundle: StackBundle,
    broadcasters: Sequence[int],
    extra_slots: int = 0,
) -> tuple[AckReport, ProgressReport]:
    """Broadcast from the given nodes, run until all are acked.

    Returns the acknowledgment and approximate-progress reports.
    MAC layers that never acknowledge (the standalone Algorithm 9.1
    layer) must be run with explicit slot counts instead.
    """
    for node in broadcasters:
        bundle.macs[node].bcast(payload=f"payload-{node}")

    def all_acked(rt: Runtime) -> bool:
        return all(not bundle.macs[i].busy for i in broadcasters)

    bundle.runtime.run_until(all_acked, check_every=16)
    if extra_slots:
        bundle.runtime.run(extra_slots)
    return bundle.ack_report(), bundle.approg_report()


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Plain-text aligned table for benchmark/experiment output."""
    cells = [[str(h) for h in headers]] + [
        [str(c) for c in row] for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        )
        if idx == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def correlation_with_shape(
    measured: Sequence[float], predicted: Sequence[float]
) -> dict:
    """How well measured latencies track a predicted Θ-shape.

    Returns the Pearson correlation and the spread of the
    measured/predicted ratio (max/min); a correct shape shows high
    correlation and a bounded ratio spread even though absolute
    constants differ.
    """
    if len(measured) != len(predicted) or len(measured) < 2:
        raise ValueError("need two aligned samples at least")
    m = np.asarray(measured, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if np.all(p > 0) and np.all(m > 0):
        ratios = m / p
        spread = float(ratios.max() / ratios.min())
    else:
        spread = float("inf")
    if np.std(m) == 0 or np.std(p) == 0:
        corr = 1.0 if np.allclose(m / m.max(), p / p.max()) else 0.0
    else:
        corr = float(np.corrcoef(m, p)[0, 1])
    return {"pearson": corr, "ratio_spread": spread}
