"""Topology dynamics: mobility and churn as an explicit, swappable layer.

Every executor in this codebase used to assume *frozen geometry*:
distances and gains were computed once per trial, cached by deployment
key, and stacked into ``(trials, n, n)`` tensors by the batched paths.
This module converts that implicit invariant into an explicit layer — a
:class:`TopologyProvider` describes how a deployment evolves over the
course of a trial, and every runtime advances it at the same slot
boundaries:

* :class:`StaticTopology` — today's behavior.  ``is_dynamic`` is False,
  no state is bound, no RNG is spawned, and every run is byte-identical
  to a run without a provider.
* :class:`WaypointMobility` — random-waypoint motion on an epoch
  schedule: every ``epoch_slots`` slots each node moves up to ``speed``
  distance units toward its private waypoint (drawn uniformly in the
  deployment's bounding box, or an explicit one), picking a fresh
  waypoint on arrival.  Distances → gains are re-derived per epoch
  through the shared geometry cache
  (:meth:`repro.experiments.cache.ArtifactCache.geometry`).
* :class:`ChurnSchedule` — nodes crash and recover at scheduled slots.
  A crashed node is masked out of the protocol population (its automaton
  is frozen: no ``on_slot`` call, no RNG draw, no kernel step) and out
  of the SINR physics (it neither transmits, interferes, nor decodes).
* :class:`CompositeTopology` — mobility and churn together.

Epoch contract
--------------
``Channel.advance_topology(slot)`` is called exactly once per trial per
slot, in increasing slot order, *before* that slot's transmit decisions
— by the object :class:`~repro.simulation.runtime.Runtime` and the
columnar :class:`~repro.vectorized.runtime.VectorRuntime` alike.  All
provider state transitions therefore happen at identical slot
boundaries on every executor, which is what keeps dynamic-topology
trials dataclass-equal across them.

RNG-stream allocation
---------------------
Mobility draws come from a generator seeded by the *provider's own*
``seed`` field, never from the trial's master seed: node protocol
streams (children ``0..n-1``) and the stochastic-channel stream (child
``n``, PR 4) are untouched, so attaching a provider perturbs only the
geometry.  A further consequence: every trial of a sweep sharing one
provider traverses the *same* trajectory, so per-epoch geometry is
cache-shared across trials (and the batched tensor stacks collapse to
zero-stride views).  :class:`ChurnSchedule` is fully deterministic and
consumes no randomness at all; :func:`random_churn_schedule` derives a
reproducible schedule from an explicit seed ahead of time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.geometry.points import PointSet, bounding_box

__all__ = [
    "TopologyUpdate",
    "TopologyState",
    "TopologyProvider",
    "StaticTopology",
    "WaypointMobility",
    "ChurnSchedule",
    "CompositeTopology",
    "random_churn_schedule",
]


@dataclass
class TopologyUpdate:
    """What changed at one slot boundary.

    ``points`` is the full new deployment (None = geometry unchanged);
    ``alive`` is the full new liveness mask (None = membership
    unchanged).  Returning the complete state rather than deltas keeps
    the consumers (one per executor) trivially idempotent.
    """

    points: PointSet | None = None
    alive: np.ndarray | None = None


class TopologyState:
    """Per-trial mutable state of a provider (one per ``Channel``)."""

    def initial_alive(self) -> np.ndarray | None:
        """Liveness mask in force before slot 0 (None = all alive)."""
        return None

    def advance(self, slot: int) -> TopologyUpdate | None:
        """Apply every change scheduled at ``slot``; None = no change.

        Called once per slot in increasing order (the epoch contract
        above); implementations may rely on that to keep a cursor.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class TopologyProvider:
    """Base class: a frozen, hashable, picklable dynamics recipe.

    Providers are plan-level configuration
    (:class:`~repro.experiments.plans.TrialPlan.topology`); all per-trial
    mutable state lives in the :class:`TopologyState` returned by
    :meth:`bind`.
    """

    @property
    def is_dynamic(self) -> bool:
        """Does this provider ever change anything?  Non-dynamic
        providers are treated exactly like ``topology=None``."""
        return True

    def bind(self, points: PointSet, seed: int | None) -> TopologyState:
        """Fresh per-trial state for a deployment.

        ``seed`` is the trial's master seed, passed for forward
        compatibility; the built-in providers deliberately ignore it
        (see the RNG-stream allocation notes in the module docstring).
        """
        raise NotImplementedError


@dataclass(frozen=True)
class StaticTopology(TopologyProvider):
    """The explicit spelling of the default: geometry is a constant."""

    @property
    def is_dynamic(self) -> bool:
        return False

    def bind(self, points: PointSet, seed: int | None) -> TopologyState:
        raise RuntimeError("StaticTopology has no per-trial state")


class _WaypointState(TopologyState):
    """Random-waypoint motion, advanced one epoch at a time."""

    def __init__(self, provider: "WaypointMobility", points: PointSet) -> None:
        self.provider = provider
        self.positions = points.coords.copy()
        self.name = points.name
        self.rng = np.random.default_rng(
            np.random.SeedSequence(provider.seed)
        )
        bounds = provider.bounds or bounding_box(points.coords)
        self.low = np.array([bounds[0], bounds[1]], dtype=np.float64)
        self.high = np.array([bounds[2], bounds[3]], dtype=np.float64)
        self.epoch = 0
        self.waypoints = self._draw_waypoints(len(points))

    def _draw_waypoints(self, count: int) -> np.ndarray:
        span = self.high - self.low
        return self.low + self.rng.random((count, 2)) * span

    def advance(self, slot: int) -> TopologyUpdate | None:
        if slot == 0 or slot % self.provider.epoch_slots != 0:
            return None
        self.epoch += 1
        speed = self.provider.speed
        delta = self.waypoints - self.positions
        dist = np.hypot(delta[:, 0], delta[:, 1])
        arrived = dist <= speed
        moving = ~arrived
        if moving.any():
            step = delta[moving] * (speed / dist[moving])[:, None]
            self.positions[moving] += step
        if arrived.any():
            self.positions[arrived] = self.waypoints[arrived]
            self.waypoints[arrived] = self._draw_waypoints(
                int(arrived.sum())
            )
        return TopologyUpdate(
            points=PointSet(
                self.positions.copy(),
                name=f"{self.name}@epoch{self.epoch}",
            )
        )


@dataclass(frozen=True)
class WaypointMobility(TopologyProvider):
    """Random-waypoint / bounded-velocity motion on an epoch schedule.

    Attributes
    ----------
    epoch_slots:
        Geometry refresh period: positions move at slots ``k·epoch_slots``
        (k >= 1), i.e. every node is stationary within an epoch (the
        standard quasi-static mobility discretization).
    speed:
        Maximum displacement per epoch, in the deployment's distance
        units (the paper normalizes d_min to 1, so ``speed=1`` moves a
        node one minimum-separation per epoch).
    seed:
        Seed of the provider's private waypoint stream (see the module
        docstring: trial RNG streams are never touched, and all trials
        of one provider share one trajectory).
    bounds:
        Optional explicit ``(xmin, ymin, xmax, ymax)`` motion box;
        default is the initial deployment's bounding box.
    """

    epoch_slots: int = 64
    speed: float = 1.0
    seed: int = 0
    bounds: tuple[float, float, float, float] | None = None

    def __post_init__(self) -> None:
        if self.epoch_slots < 1:
            raise ValueError("epoch_slots must be >= 1")
        if self.speed <= 0:
            raise ValueError(
                "speed must be positive (use StaticTopology or "
                "topology=None for a frozen deployment)"
            )
        if self.bounds is not None:
            xmin, ymin, xmax, ymax = self.bounds
            if not (xmin < xmax and ymin < ymax):
                raise ValueError("bounds must be (xmin, ymin, xmax, ymax)")

    def bind(self, points: PointSet, seed: int | None) -> TopologyState:
        return _WaypointState(self, points)


class _ChurnState(TopologyState):
    """Scheduled crash/recover events, applied slot by slot."""

    def __init__(self, provider: "ChurnSchedule", n: int) -> None:
        self.alive = np.ones(n, dtype=bool)
        for node in provider.initially_down:
            if not 0 <= node < n:
                raise ValueError(f"churn node {node} outside 0..{n - 1}")
            self.alive[node] = False
        # Stable sort by slot: same-slot events apply in schedule order.
        self.events = sorted(provider.events, key=lambda e: e[0])
        for _slot, node, _kind in self.events:
            if not 0 <= node < n:
                raise ValueError(f"churn node {node} outside 0..{n - 1}")
        self.cursor = 0

    def initial_alive(self) -> np.ndarray | None:
        return self.alive.copy() if not self.alive.all() else None

    def advance(self, slot: int) -> TopologyUpdate | None:
        changed = False
        while (
            self.cursor < len(self.events)
            and self.events[self.cursor][0] <= slot
        ):
            _slot, node, kind = self.events[self.cursor]
            self.alive[node] = kind == "recover"
            self.cursor += 1
            changed = True
        if not changed:
            return None
        return TopologyUpdate(alive=self.alive.copy())


@dataclass(frozen=True)
class ChurnSchedule(TopologyProvider):
    """Deterministic node crash/recover schedule.

    Attributes
    ----------
    events:
        Tuple of ``(slot, node, kind)`` with ``kind`` in
        ``{"crash", "recover"}``.  An event takes effect at the *top* of
        its slot (before transmit decisions), on every executor.
        Same-slot events for one node apply in schedule order (last
        wins).
    initially_down:
        Nodes that are crashed before slot 0 (e.g. late joiners whose
        ``recover`` event is their join).

    A crashed node's automaton is frozen, not reset: its MAC engine,
    client state and private RNG stream resume exactly where they
    stopped when the node recovers — the paper-side interpretation is a
    transient radio failure, not a reboot.
    """

    events: tuple[tuple[int, int, str], ...] = ()
    initially_down: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for event in self.events:
            slot, node, kind = event
            if slot < 0 or node < 0:
                raise ValueError(f"invalid churn event {event!r}")
            if kind not in ("crash", "recover"):
                raise ValueError(
                    f"churn event kind must be 'crash' or 'recover'; "
                    f"got {kind!r}"
                )

    @property
    def is_dynamic(self) -> bool:
        return bool(self.events) or bool(self.initially_down)

    def bind(self, points: PointSet, seed: int | None) -> TopologyState:
        return _ChurnState(self, len(points))


class _CompositeState(TopologyState):
    def __init__(self, states: list[TopologyState]) -> None:
        self.states = states

    def initial_alive(self) -> np.ndarray | None:
        masks = [s.initial_alive() for s in self.states]
        masks = [m for m in masks if m is not None]
        if not masks:
            return None
        combined = masks[0]
        for mask in masks[1:]:
            combined &= mask
        return combined

    def advance(self, slot: int) -> TopologyUpdate | None:
        points = alive = None
        for state in self.states:
            update = state.advance(slot)
            if update is None:
                continue
            if update.points is not None:
                points = update.points
            if update.alive is not None:
                alive = update.alive
        if points is None and alive is None:
            return None
        return TopologyUpdate(points=points, alive=alive)


@dataclass(frozen=True)
class CompositeTopology(TopologyProvider):
    """Several providers advancing together (e.g. mobility + churn).

    Parts advance in order each slot; if two parts move the geometry or
    the liveness mask at the same slot, the later part wins (built-in
    parts never conflict: mobility owns positions, churn owns liveness).
    """

    parts: tuple[TopologyProvider, ...] = ()

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("CompositeTopology needs at least one part")
        for part in self.parts:
            if not isinstance(part, TopologyProvider):
                raise TypeError(f"not a TopologyProvider: {part!r}")

    @property
    def is_dynamic(self) -> bool:
        return any(part.is_dynamic for part in self.parts)

    def bind(self, points: PointSet, seed: int | None) -> TopologyState:
        return _CompositeState(
            [
                part.bind(points, seed)
                for part in self.parts
                if part.is_dynamic
            ]
        )


def random_churn_schedule(
    n: int,
    crash_rate: float,
    horizon: int,
    downtime: int,
    seed: int = 0,
    spare: Iterable[int] = (),
) -> ChurnSchedule:
    """A reproducible random churn schedule (benchmark helper).

    Each node independently suffers ``Poisson(crash_rate · horizon)``
    transient failures at uniform slots in ``[1, horizon]``, each
    lasting ``downtime`` slots (``crash_rate`` is thus the per-node
    crash probability per slot).  Nodes listed in ``spare`` never crash
    — e.g. a broadcast source whose permanent loss would make the
    workload undecidable.  The schedule is a pure function of the
    arguments; attach it to plans like any other provider.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if crash_rate < 0:
        raise ValueError("crash_rate must be >= 0")
    if horizon < 1 or downtime < 1:
        raise ValueError("horizon and downtime must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    spared = set(spare)
    events: list[tuple[int, int, str]] = []
    for node in range(n):
        crashes = int(rng.poisson(crash_rate * horizon))
        if node in spared or crashes == 0:
            continue
        slots = rng.integers(1, horizon + 1, size=crashes)
        # Merge overlapping outage windows: a crash landing inside an
        # earlier outage extends it, so every emitted window really
        # lasts (at least) ``downtime`` slots — interleaved
        # crash/recover pairs would otherwise let the first window's
        # recover revive the node mid-second-outage.
        down_until = None
        for slot in sorted(int(s) for s in slots):
            if down_until is not None and slot <= down_until:
                events[-1] = (max(down_until, slot + downtime), node, "recover")
                down_until = events[-1][0]
                continue
            events.append((slot, node, "crash"))
            events.append((slot + downtime, node, "recover"))
            down_until = slot + downtime
    events.sort(key=lambda e: e[0])
    return ChurnSchedule(events=tuple(events))
