"""The dynamic-topology layer (:mod:`repro.topology`).

Four layers of evidence:

* **providers** — unit behavior of :class:`WaypointMobility` (bounded
  displacement, box confinement, private RNG), :class:`ChurnSchedule`
  (validation, scheduling, initial liveness), :class:`CompositeTopology`
  and :func:`random_churn_schedule`;
* **channel** — the epoch contract on :class:`Channel`:
  ``advance_topology`` refreshes geometry only at epoch boundaries,
  re-binding restarts deterministically, per-epoch geometry is shared
  through the artifact cache, and the channel model's static
  multipliers re-fold without extra draws;
* **equivalence** — the acceptance matrix: mobility and churn plans
  produce dataclass-equal :class:`TrialResult`s on the object and
  columnar executors over {decay, ack} × {1, 8 trials}, plus protocol
  workloads, stochastic channels, counters-only mode, mixed
  static/dynamic batches and the process pool;
* **static identity** — a plan with ``topology=None`` or
  :class:`StaticTopology` is byte-identical to the pre-topology seed
  (same TrialResults, zero provider state, zero extra draws).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.ack_protocol import AckConfig
from repro.core.approx_progress import ApproxProgressConfig
from repro.experiments import (
    ArtifactCache,
    DeploymentSpec,
    ExecutionPolicy,
    TrialPlan,
    run_trials,
    seeded_plans,
)
from repro.experiments.cache import deployment_artifacts, resolve_deployment
from repro.experiments.engine import build_stack, run_trial
from repro.geometry.points import bounding_box
from repro.simulation.rng import spawn_trial_seeds
from repro.sinr.channel import Channel
from repro.sinr.params import ChannelModel, SINRParameters
from repro.topology import (
    ChurnSchedule,
    CompositeTopology,
    StaticTopology,
    TopologyProvider,
    WaypointMobility,
    random_churn_schedule,
)

N = 12
DEPLOYMENT = DeploymentSpec.of("uniform_disk", n=N, radius=9.0, seed=33)

MOBILITY = WaypointMobility(epoch_slots=32, speed=0.6, seed=3)
CHURN = ChurnSchedule(
    events=(
        (5, 0, "crash"),
        (60, 0, "recover"),
        (10, 3, "crash"),
        (200, 3, "recover"),
    )
)
COMPOSITE = CompositeTopology(parts=(MOBILITY, CHURN))


# Algorithm 11.1 at test size (see test_vectorized_equivalence).
PAPER_MAC = dict(
    ack_config=AckConfig(contention_bound=8.0, eps_ack=0.3, gamma_prime=1.0),
    approg_config=ApproxProgressConfig(
        lambda_bound=2.0, eps_approg=0.2, alpha=3.0, t_scale=0.1
    ),
)


def make_plans(stack, trials, topology, **kwargs):
    if stack == "combined":
        kwargs = {**PAPER_MAC, **kwargs}
    base = TrialPlan(
        deployment=DEPLOYMENT,
        stack=stack,
        workload=kwargs.pop("workload", "local_broadcast"),
        topology=topology,
        label=f"topo-{stack}",
        **kwargs,
    )
    return seeded_plans(base, spawn_trial_seeds(trials, seed=5))


def assert_executors_agree(plans):
    """The object path and the columnar path must be dataclass-equal."""
    sequential = [run_trial(plan) for plan in plans]
    assert sequential == run_trials(plans, ExecutionPolicy(vectorize=True))
    assert all(result.transmissions > 0 for result in sequential)
    return sequential


# -- providers ---------------------------------------------------------------


class TestWaypointMobility:
    def test_validation(self):
        with pytest.raises(ValueError, match="epoch_slots"):
            WaypointMobility(epoch_slots=0)
        with pytest.raises(ValueError, match="speed"):
            WaypointMobility(speed=0.0)
        with pytest.raises(ValueError, match="bounds"):
            WaypointMobility(bounds=(1.0, 0.0, 0.0, 1.0))

    def test_epoch_displacement_bounded_and_in_box(self):
        points = resolve_deployment(DEPLOYMENT)
        provider = WaypointMobility(epoch_slots=10, speed=0.5, seed=1)
        state = provider.bind(points, seed=None)
        xmin, ymin, xmax, ymax = bounding_box(points.coords)
        previous = points.coords
        for slot in range(1, 101):
            update = state.advance(slot)
            if slot % 10 != 0:
                assert update is None
                continue
            assert update is not None and update.points is not None
            coords = update.points.coords
            moved = np.hypot(*(coords - previous).T)
            assert (moved <= 0.5 + 1e-12).all()
            assert (coords[:, 0] >= xmin - 1e-12).all()
            assert (coords[:, 0] <= xmax + 1e-12).all()
            assert (coords[:, 1] >= ymin - 1e-12).all()
            assert (coords[:, 1] <= ymax + 1e-12).all()
            previous = coords
        # Something actually moved over ten epochs.
        assert np.hypot(*(previous - points.coords).T).max() > 0.5

    def test_trajectory_is_provider_seeded_not_trial_seeded(self):
        points = resolve_deployment(DEPLOYMENT)
        provider = WaypointMobility(epoch_slots=4, speed=1.0, seed=9)
        a = provider.bind(points, seed=123)
        b = provider.bind(points, seed=456)
        for slot in range(1, 13):
            ua, ub = a.advance(slot), b.advance(slot)
            assert (ua is None) == (ub is None)
            if ua is not None:
                assert (
                    ua.points.coords.tobytes() == ub.points.coords.tobytes()
                )


class TestChurnSchedule:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            ChurnSchedule(events=((1, 0, "explode"),))
        with pytest.raises(ValueError, match="invalid churn event"):
            ChurnSchedule(events=((-1, 0, "crash"),))

    def test_not_dynamic_when_empty(self):
        assert not ChurnSchedule().is_dynamic
        assert ChurnSchedule(events=((1, 0, "crash"),)).is_dynamic
        assert ChurnSchedule(initially_down=(2,)).is_dynamic

    def test_schedule_applies_at_slot_top(self):
        points = resolve_deployment(DEPLOYMENT)
        state = CHURN.bind(points, seed=None)
        assert state.initial_alive() is None
        changes = {}
        for slot in range(70):  # the epoch contract: every slot, in order
            update = state.advance(slot)
            if update is not None:
                changes[slot] = update.alive.copy()
        assert sorted(changes) == [5, 10, 60]
        assert not changes[5][0]
        assert not changes[10][3] and not changes[10][0]
        assert changes[60][0] and not changes[60][3]

    def test_initially_down(self):
        provider = ChurnSchedule(initially_down=(2, 4))
        state = provider.bind(resolve_deployment(DEPLOYMENT), seed=None)
        alive = state.initial_alive()
        assert not alive[2] and not alive[4] and alive[0]

    def test_node_bounds_checked_at_bind(self):
        provider = ChurnSchedule(events=((1, 99, "crash"),))
        with pytest.raises(ValueError, match="outside"):
            provider.bind(resolve_deployment(DEPLOYMENT), seed=None)


class TestRandomChurnSchedule:
    def test_deterministic_and_spares_respected(self):
        a = random_churn_schedule(20, 0.001, 500, 40, seed=7, spare=(0, 3))
        b = random_churn_schedule(20, 0.001, 500, 40, seed=7, spare=(0, 3))
        assert a == b
        assert a.events  # the rate is high enough to produce churn
        assert all(node not in (0, 3) for _s, node, _k in a.events)
        crashes = sum(1 for _s, _n, kind in a.events if kind == "crash")
        recovers = sum(1 for _s, _n, kind in a.events if kind == "recover")
        assert crashes == recovers

    def test_overlapping_outages_merge(self):
        """Every emitted outage window lasts >= downtime slots: a crash
        landing inside an earlier window extends it instead of emitting
        an interleaved pair whose first recover would revive the node
        mid-second-outage."""
        downtime = 40
        schedule = random_churn_schedule(8, 0.02, 300, downtime, seed=5)
        per_node: dict[int, list[tuple[int, str]]] = {}
        for slot, node, kind in schedule.events:
            per_node.setdefault(node, []).append((slot, kind))
        assert any(len(ev) > 2 for ev in per_node.values())  # real case
        for events in per_node.values():
            events.sort()
            kinds = [kind for _s, kind in events]
            assert kinds == ["crash", "recover"] * (len(kinds) // 2)
            for (down, _), (up, _) in zip(events[::2], events[1::2]):
                assert up - down >= downtime


class TestComposite:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            CompositeTopology()
        with pytest.raises(TypeError, match="not a TopologyProvider"):
            CompositeTopology(parts=("mobility",))

    def test_merges_points_and_alive(self):
        state = COMPOSITE.bind(resolve_deployment(DEPLOYMENT), seed=None)
        updates = {}
        for slot in range(33):  # the epoch contract: every slot, in order
            update = state.advance(slot)
            if update is not None:
                updates[slot] = update
        # Churn slots carry liveness only; the epoch boundary carries
        # geometry only (no churn event coincides with it).
        assert updates[5].points is None and updates[5].alive is not None
        assert updates[32].points is not None and updates[32].alive is None


def test_static_topology_is_not_dynamic():
    assert not StaticTopology().is_dynamic
    assert isinstance(StaticTopology(), TopologyProvider)


def test_plan_rejects_non_provider_topology():
    with pytest.raises(TypeError, match="TopologyProvider"):
        TrialPlan(deployment=DEPLOYMENT, stack="decay", topology="mobile")


# -- the channel's epoch contract --------------------------------------------


class TestChannelTopology:
    def test_geometry_refresh_only_at_epoch_boundaries(self):
        stack = build_stack(make_plans("decay", 1, MOBILITY)[0])
        channel = stack.runtime.channel
        initial = channel.distances
        for slot in range(32):
            assert not channel.advance_topology(slot)
        assert channel.distances is initial
        assert channel.advance_topology(32)
        assert channel.distances is not initial
        assert channel.gains.shape == initial.shape

    def test_static_channel_pays_nothing(self):
        stack = build_stack(make_plans("decay", 1, None)[0])
        channel = stack.runtime.channel
        assert channel.topology is None and channel.alive is None
        assert not channel.advance_topology(0)

    def test_epoch_geometry_shared_across_trials_via_cache(self):
        """Two trials of one provider share each epoch's matrices (the
        zero-stride batching property of provider-seeded trajectories)."""
        plans = make_plans("decay", 2, MOBILITY)
        stacks = [build_stack(plan) for plan in plans]
        for slot in range(33):
            for stack in stacks:
                stack.runtime.channel.advance_topology(slot)
        a, b = (stack.runtime.channel for stack in stacks)
        assert a.distances is b.distances
        assert a.gains is b.gains

    def test_rebinding_restarts_the_trajectory(self):
        plan = make_plans("decay", 1, MOBILITY)[0]
        first = run_trial(plan)
        second = run_trial(plan)
        assert first == second

    def test_channel_model_refolds_onto_fresh_gains(self):
        """Per-epoch refresh must re-apply the trial's static channel
        multipliers without consuming any channel-stream draws."""
        params = SINRParameters(
            channel_model=ChannelModel(shadowing_sigma_db=3.0, power_spread=2.0)
        )
        points = resolve_deployment(DEPLOYMENT)
        art = deployment_artifacts(points, params)
        channel = Channel(
            points,
            params,
            distances=art.distances,
            gains=art.gains,
            topology=MOBILITY,
        )
        channel.bind_trial_seed(7)
        folded_before = channel.effective_gains
        assert channel.advance_topology(32)
        assert channel.effective_gains is not folded_before
        # The fold is gains-elementwise: the multiplier field (ratio to
        # the refreshed base gains) is exactly the one from binding.
        ratio_before = folded_before / art.gains
        ratio_after = channel.effective_gains / channel.gains
        np.testing.assert_allclose(ratio_before, ratio_after, rtol=1e-12)

    def test_crashed_nodes_are_silent_and_deaf(self):
        plan = make_plans(
            "decay",
            1,
            ChurnSchedule(events=((0, 0, "crash"), (40, 0, "recover"))),
            workload="fixed_slots",
            options=TrialPlan.pack_options(slots=40),
        )[0]
        stack = build_stack(plan)
        from repro.experiments.workloads import get_workload

        workload = get_workload(plan.workload)
        workload.start(stack, plan)
        stack.runtime.run(40)
        for slot, kind, node, _data in stack.runtime.trace.events:
            if kind in ("transmit", "receive", "rcv") and 0 <= slot < 40:
                assert node != 0, (slot, kind)


# -- the acceptance matrix: three executors, dataclass-equal ------------------


@pytest.mark.slow
@pytest.mark.parametrize("stack", ["decay", "ack", "combined"])
@pytest.mark.parametrize("trials", [1, 8])
@pytest.mark.parametrize(
    "topology", [MOBILITY, CHURN], ids=["mobility", "churn"]
)
def test_dynamic_results_equal_across_executors(stack, trials, topology):
    assert_executors_agree(make_plans(stack, trials, topology))


def test_composite_with_stochastic_channel_across_executors():
    params = SINRParameters(
        channel_model=ChannelModel(
            rayleigh=True, shadowing_sigma_db=3.0, power_spread=2.0
        )
    )
    assert_executors_agree(
        make_plans("ack", 3, COMPOSITE, params=params)
    )


def test_counters_only_churn_across_executors():
    results = assert_executors_agree(
        make_plans("decay", 4, COMPOSITE, record_physical=False)
    )
    assert all(result.approg_latencies == () for result in results)


@pytest.mark.parametrize(
    "workload,stack,options",
    [
        ("smb", "decay", TrialPlan.pack_options(source=0)),
        ("mmb", "decay", TrialPlan.pack_options(arrivals=((0, ("m0", "m1")),))),
        ("consensus", "decay", TrialPlan.pack_options(waves=6)),
    ],
)
def test_protocol_workloads_under_dynamic_topology(workload, stack, options):
    topology = CompositeTopology(
        parts=(
            WaypointMobility(epoch_slots=40, speed=0.4, seed=7),
            random_churn_schedule(N, 0.0005, 400, 60, seed=3, spare=(0,)),
        )
    )
    assert_executors_agree(
        make_plans(stack, 2, topology, workload=workload, options=options)
    )


def test_mixed_static_and_dynamic_plans_in_one_run():
    static = make_plans("decay", 2, None)
    dynamic = make_plans("decay", 2, MOBILITY)
    plans = static + dynamic
    sequential = [run_trial(plan) for plan in plans]
    assert sequential == run_trials(plans, ExecutionPolicy(vectorize=False))
    assert sequential == run_trials(plans, ExecutionPolicy(vectorize=True))


def test_process_pool_with_dynamic_topology():
    plans = make_plans("decay", 4, COMPOSITE)
    assert run_trials(plans, ExecutionPolicy(workers=1)) == run_trials(
        plans, ExecutionPolicy(workers=2)
    )


def test_churn_slows_completion():
    """A crashed broadcaster freezes: its trial finishes strictly later
    than the identical static trial (the layer visibly does something)."""
    static = run_trial(make_plans("decay", 1, None)[0])
    churned = run_trial(make_plans("decay", 1, CHURN)[0])
    assert churned.slots > static.slots


# -- static identity ----------------------------------------------------------


def test_static_provider_and_none_are_byte_identical():
    """topology=None, StaticTopology() and a non-dynamic ChurnSchedule
    all run the exact pre-topology path (same TrialResults, and labels
    aside, the same plans batch together)."""
    none_plans = make_plans("ack", 2, None)
    static_plans = [
        dataclasses.replace(plan, topology=StaticTopology())
        for plan in none_plans
    ]
    empty_churn_plans = [
        dataclasses.replace(plan, topology=ChurnSchedule())
        for plan in none_plans
    ]
    baseline = run_trials(none_plans)
    assert baseline == run_trials(static_plans)
    assert baseline == run_trials(empty_churn_plans)
    stack = build_stack(static_plans[0])
    assert stack.runtime.channel.topology is None


def test_artifact_cache_ignores_topology():
    """Plans with and without a provider share the deployment's cached
    artifacts — the static segments of a topology sweep stay shared."""
    cache = ArtifactCache()
    for topology in (None, MOBILITY):
        plan = dataclasses.replace(
            make_plans("decay", 1, topology)[0],
            workload="fixed_slots",
            options=TrialPlan.pack_options(slots=8),
        )
        run_trials([plan], cache=cache)
    assert cache.stats()["artifact_entries"] == 1
