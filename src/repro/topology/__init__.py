"""repro.topology — dynamic-topology providers (mobility & churn).

A :class:`TopologyProvider` turns "geometry is a constant" from an
implicit invariant of every executor into an explicit, swappable layer:
attach one to a :class:`~repro.experiments.plans.TrialPlan` (or pass it
to :class:`~repro.sinr.channel.Channel`) and the deployment evolves at
epoch boundaries — identically on the object and columnar executors.  See :mod:`repro.topology.providers` for the epoch
contract and the RNG-stream allocation rules.
"""

from repro.topology.providers import (
    ChurnSchedule,
    CompositeTopology,
    StaticTopology,
    TopologyProvider,
    TopologyState,
    TopologyUpdate,
    WaypointMobility,
    random_churn_schedule,
)

__all__ = [
    "ChurnSchedule",
    "CompositeTopology",
    "StaticTopology",
    "TopologyProvider",
    "TopologyState",
    "TopologyUpdate",
    "WaypointMobility",
    "random_churn_schedule",
]
