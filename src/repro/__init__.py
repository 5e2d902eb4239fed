"""repro — a local broadcast layer for the SINR network model.

A from-scratch reproduction of Halldórsson, Holzer & Lynch,
*A Local Broadcast Layer for the SINR Network Model* (PODC 2015,
arXiv:1505.04514): a probabilistic abstract MAC layer — with the
paper's new *approximate progress* guarantee — implemented over a
slot-synchronous SINR wireless simulator, plus the higher-level
broadcast and consensus algorithms it unlocks.

Quick start::

    from repro import (
        SINRParameters, uniform_disk, build_combined_stack,
        run_local_broadcast_experiment,
    )

    points = uniform_disk(50, radius=20.0, seed=1)
    params = SINRParameters(epsilon=0.1)
    stack = build_combined_stack(points, params)
    acks, progress = run_local_broadcast_experiment(stack, [0, 10, 20])
    print(acks.mean_latency(), progress.mean_latency())

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.geometry` — deployments and growth-bounded metrics,
* :mod:`repro.sinr` — the physical model and its induced graphs,
* :mod:`repro.topology` — dynamic topology (mobility & churn) advancing
  at epoch boundaries, identical on every executor,
* :mod:`repro.simulation` — the slotted distributed-protocol runtime,
* :mod:`repro.core` — the paper's algorithms (B.1, 9.1, 11.1, Decay)
  and the absMAC spec checker,
* :mod:`repro.absmac` — the MAC service interface + ideal layer,
* :mod:`repro.protocols` — BSMB / BMMB / consensus over any MAC,
* :mod:`repro.lowerbounds` — the Theorem 6.1 and 8.1 constructions,
* :mod:`repro.analysis` — bound formulas, metrics, experiment harness,
* :mod:`repro.experiments` — the multi-trial experiment engine
  (declarative :class:`~repro.experiments.TrialPlan` sweeps over a keyed
  artifact cache, columnar batches or one object run per plan,
  process-pool execution).
"""

from repro.geometry import (
    PointSet,
    uniform_disk,
    uniform_square,
    grid_deployment,
    line_deployment,
    cluster_deployment,
    two_parallel_lines,
    two_balls,
)
from repro.sinr import (
    SINRParameters,
    Channel,
    GrayZoneAdversary,
    JammingAdversary,
    strong_connectivity_graph,
    weak_connectivity_graph,
    link_length_ratio,
    graph_degree,
    graph_diameter,
)
from repro.sinr.graphs import approx_connectivity_graph
from repro.simulation import Runtime, RuntimeConfig, ProtocolNode
from repro.core import (
    BcastMessage,
    MessageRegistry,
    AbsMacContract,
    AckConfig,
    AckMacLayer,
    ApproxProgressConfig,
    EpochSchedule,
    ApproxProgressMacLayer,
    CombinedMacLayer,
    DecayConfig,
    DecayMacLayer,
    measure_acknowledgments,
    measure_progress,
    measure_approximate_progress,
    check_contract,
)
from repro.absmac import MacClient, MacLayerBase, IdealMacConfig, IdealMacLayer
from repro.protocols import (
    BsmbClient,
    run_single_message_broadcast,
    BmmbClient,
    run_multi_message_broadcast,
    ConsensusClient,
    ConsensusResult,
    run_consensus,
)
from repro.analysis import (
    NetworkMetrics,
    compute_metrics,
    build_combined_stack,
    build_decay_stack,
    build_approg_stack,
    run_local_broadcast_experiment,
)

__version__ = "1.0.0"

__all__ = [
    "PointSet",
    "uniform_disk",
    "uniform_square",
    "grid_deployment",
    "line_deployment",
    "cluster_deployment",
    "two_parallel_lines",
    "two_balls",
    "SINRParameters",
    "Channel",
    "GrayZoneAdversary",
    "JammingAdversary",
    "strong_connectivity_graph",
    "weak_connectivity_graph",
    "approx_connectivity_graph",
    "link_length_ratio",
    "graph_degree",
    "graph_diameter",
    "Runtime",
    "RuntimeConfig",
    "ProtocolNode",
    "BcastMessage",
    "MessageRegistry",
    "AbsMacContract",
    "AckConfig",
    "AckMacLayer",
    "ApproxProgressConfig",
    "EpochSchedule",
    "ApproxProgressMacLayer",
    "CombinedMacLayer",
    "DecayConfig",
    "DecayMacLayer",
    "measure_acknowledgments",
    "measure_progress",
    "measure_approximate_progress",
    "check_contract",
    "MacClient",
    "MacLayerBase",
    "IdealMacConfig",
    "IdealMacLayer",
    "BsmbClient",
    "run_single_message_broadcast",
    "BmmbClient",
    "run_multi_message_broadcast",
    "ConsensusClient",
    "ConsensusResult",
    "run_consensus",
    "NetworkMetrics",
    "compute_metrics",
    "build_combined_stack",
    "build_decay_stack",
    "build_approg_stack",
    "run_local_broadcast_experiment",
    "__version__",
]
