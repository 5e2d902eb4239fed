"""The service wire format: JSON round-trips for plans/policies/results.

Two contracts.  *Structural*: every plan-level object — topology
providers, adversary specs, channel model, sparse resolution, protocol
configs, explicit-coordinate deployments — survives
``decode(encode(x)) == x`` through real JSON text, with
``__post_init__`` validation re-running on decode.  *Semantic* (the
hypothesis property at the bottom): a plan that crossed the wire
produces bit-identical :class:`TrialResult`\\ s, which is what lets the
job server promise the same results as the in-process library call.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ack_protocol import AckConfig
from repro.core.approx_progress import ApproxProgressConfig
from repro.core.decay import DecayConfig
from repro.experiments import (
    AdversarySpec,
    DeploymentSpec,
    ExecutionPolicy,
    TrialPlan,
    run_trials,
    seeded_plans,
)
from repro.geometry import uniform_disk
from repro.service import wire
from repro.simulation.rng import spawn_trial_seeds
from repro.sinr.params import ChannelModel, SINRParameters, SparseResolution
from repro.topology import (
    ChurnSchedule,
    CompositeTopology,
    StaticTopology,
    WaypointMobility,
)

DEPLOYMENT = DeploymentSpec.of("uniform_disk", n=10, radius=6.0, seed=33)


def through_json(value):
    """encode → real JSON text → decode (not just dict identity)."""
    return wire.decode(json.loads(json.dumps(wire.encode(value))))


RICH_PLANS = {
    "topology-composite": TrialPlan(
        deployment=DEPLOYMENT,
        stack="decay",
        workload="local_broadcast",
        topology=CompositeTopology(
            parts=(
                WaypointMobility(epoch_slots=16, speed=0.4, seed=3),
                ChurnSchedule(events=((4, 0, "crash"), (40, 0, "recover"))),
            )
        ),
    ),
    "adversary-jamming": TrialPlan(
        deployment=DEPLOYMENT,
        stack="ack",
        workload="fixed_slots",
        options=TrialPlan.pack_options(slots=64),
        adversary=AdversarySpec(
            kind="jamming", drop_probability=0.2, jam_slots=(3, 5, 8), seed=7
        ),
        ack_config=AckConfig(contention_bound=16.0),
    ),
    "adversary-gray-zone": TrialPlan(
        deployment=DEPLOYMENT,
        stack="decay",
        workload="local_broadcast",
        adversary=AdversarySpec(kind="gray_zone", gray_drop=0.5, seed=11),
    ),
    "channel-model": TrialPlan(
        deployment=DEPLOYMENT,
        stack="decay",
        workload="local_broadcast",
        params=SINRParameters(
            channel_model=ChannelModel(
                rayleigh=True, shadowing_sigma_db=4.0, power_spread=2.0
            )
        ),
    ),
    "sparse-farfield": TrialPlan(
        deployment=DEPLOYMENT,
        stack="decay",
        workload="local_broadcast",
        params=SINRParameters(
            sparse=SparseResolution(mode="farfield", epsilon=0.05)
        ),
    ),
    "combined-configs": TrialPlan(
        deployment=DEPLOYMENT,
        stack="combined",
        workload="local_broadcast",
        ack_config=AckConfig(contention_bound=16.0),
        approg_config=ApproxProgressConfig(lambda_bound=4.0, eps_approg=0.2),
        topology=StaticTopology(),
    ),
    "explicit-coords": TrialPlan(
        deployment=DeploymentSpec.explicit(
            uniform_disk(8, radius=5.0, seed=2)
        ),
        stack="decay",
        workload="local_broadcast",
        decay_config=DecayConfig(contention_bound=16.0),
    ),
}


class TestPlanRoundTrip:
    @pytest.mark.parametrize("name", sorted(RICH_PLANS))
    def test_rich_plan_round_trips(self, name):
        plan = RICH_PLANS[name]
        restored = through_json(plan)
        assert restored == plan
        assert hash(restored) == hash(plan)

    def test_explicit_coords_bytes_survive(self):
        plan = RICH_PLANS["explicit-coords"]
        restored = wire.plan_from_wire(
            json.loads(json.dumps(wire.plan_to_wire(plan)))
        )
        original = dict(plan.deployment.options)["coords"]
        assert dict(restored.deployment.options)["coords"] == original

    def test_nested_option_tuples_stay_tuples(self):
        plan = TrialPlan(
            deployment=DEPLOYMENT,
            stack="decay",
            workload="mmb",
            options=TrialPlan.pack_options(
                arrivals=((0, 0), (4, 1), (9, 2))
            ),
        )
        restored = through_json(plan)
        assert restored == plan
        assert isinstance(dict(restored.options)["arrivals"], tuple)


class TestPolicyAndResultRoundTrip:
    @pytest.mark.parametrize(
        "policy",
        [
            ExecutionPolicy(),
            ExecutionPolicy(vectorize=False, workers=1),
            ExecutionPolicy(workers=4, vectorize=True, native=False,
                            share_cache=False),
            ExecutionPolicy(native=True, native_threads=8),
        ],
    )
    def test_policy_round_trips(self, policy):
        assert wire.policy_from_wire(
            json.loads(json.dumps(wire.policy_to_wire(policy)))
        ) == policy

    def test_result_round_trips_bit_exact(self):
        plan = seeded_plans(
            RICH_PLANS["channel-model"], spawn_trial_seeds(1, seed=4)
        )[0]
        (result,) = run_trials([plan])
        restored = wire.result_from_wire(
            json.loads(json.dumps(wire.result_to_wire(result)))
        )
        # Dataclass equality here is float-bit-exact: JSON uses
        # shortest-repr floats, which round-trip every finite double.
        assert restored == result


class TestWireSafety:
    def test_unknown_type_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown wire type"):
            wire.decode({"$type": "os.system", "command": "true"})

    def test_untagged_object_rejected(self):
        with pytest.raises(ValueError, match="without \\$type"):
            wire.decode({"kind": "uniform_disk"})

    def test_unregistered_dataclass_rejected_on_encode(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class NotOnTheWire:
            x: int = 1

        with pytest.raises(TypeError, match="WIRE_TYPES"):
            wire.encode(NotOnTheWire())

    def test_decode_revalidates_fields(self):
        # A tampered wire object hits the same __post_init__ guard a
        # local constructor call does.
        bad = wire.encode(AdversarySpec(kind="jamming", seed=1))
        bad["drop_probability"] = 7.5
        with pytest.raises(ValueError):
            wire.decode(bad)

    def test_wrong_top_level_type_rejected(self):
        encoded = wire.policy_to_wire(ExecutionPolicy())
        with pytest.raises(ValueError, match="TrialPlan"):
            wire.plan_from_wire(encoded)

    def test_messages_are_single_lines(self):
        message = {"op": "submit", "plans": [wire.encode(RICH_PLANS
                                                         ["explicit-coords"])]}
        text = wire.dumps(message)
        assert "\n" not in text
        assert wire.loads(text) == json.loads(text)


# -- the semantic contract --------------------------------------------------

STACKS = st.sampled_from(["decay", "ack"])


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    stack=STACKS,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    deploy_seed=st.integers(min_value=1, max_value=50),
    n=st.integers(min_value=6, max_value=12),
    rayleigh=st.booleans(),
)
def test_round_tripped_plans_run_bit_identical(
    stack, seed, deploy_seed, n, rayleigh
):
    """A plan that crossed the wire is *the same experiment*."""
    config = (
        dict(decay_config=DecayConfig(contention_bound=16.0))
        if stack == "decay"
        else dict(ack_config=AckConfig(contention_bound=16.0))
    )
    plan = TrialPlan(
        deployment=DeploymentSpec.of(
            "uniform_disk", n=n, radius=5.0, seed=deploy_seed
        ),
        stack=stack,
        workload="fixed_slots",
        options=TrialPlan.pack_options(slots=40),
        params=SINRParameters(
            channel_model=ChannelModel(rayleigh=True) if rayleigh else None
        ),
        seed=seed,
        **config,
    )
    restored = through_json(plan)
    assert restored == plan
    assert run_trials([restored]) == run_trials([plan])
