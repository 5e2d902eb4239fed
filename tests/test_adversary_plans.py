"""Plan-level failure injection (:class:`AdversarySpec`) on every executor.

PR 3 pinned the columnar protocol path under *imperatively constructed*
adversaries (direct ``VectorRuntime`` tests); this suite pins the
plan-level contract: a :class:`TrialPlan` carrying an
:class:`AdversarySpec` either rides the columnar fast path with
dataclass-equal results — jamming and gray-zone both deliver through
``Channel.finalize_slot``, so the same per-trial adversary RNG stream is
consumed in the same order on both executors — or, for
columnar-ineligible stacks, deterministically falls back to the object
path (never silently dropping the injection).
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace

import pytest

from repro.core.ack_protocol import AckConfig
from repro.core.approx_progress import ApproxProgressConfig

from repro.experiments import (
    AdversarySpec,
    DeploymentSpec,
    ExecutionPolicy,
    TrialPlan,
    run_trials,
    seeded_plans,
)
from repro.experiments.engine import build_stack, run_trial
from repro.simulation.rng import spawn_trial_seeds
from repro.sinr.channel import GrayZoneAdversary, JammingAdversary
from repro.vectorized import vector_eligible

N = 12
DEPLOYMENT = DeploymentSpec.of("uniform_disk", n=N, radius=9.0, seed=33)
# Algorithm 11.1 at test size (see test_vectorized_equivalence).
FAST_ACK = AckConfig(contention_bound=8.0, eps_ack=0.3, gamma_prime=1.0)
SMALL_APPROG = ApproxProgressConfig(
    lambda_bound=2.0, eps_approg=0.2, alpha=3.0, t_scale=0.1
)
PAPER_MAC = dict(ack_config=FAST_ACK, approg_config=SMALL_APPROG)

JAMMING = AdversarySpec(kind="jamming", drop_probability=0.15, seed=11)
GRAY = AdversarySpec(kind="gray_zone", gray_drop=0.5, seed=11)
SPECS = {"jamming": JAMMING, "gray_zone": GRAY}


def make_plans(trials, adversary, stack="decay", **kwargs):
    base = TrialPlan(
        deployment=DEPLOYMENT,
        stack=stack,
        workload=kwargs.pop("workload", "local_broadcast"),
        adversary=adversary,
        label=f"adv-{stack}",
        **kwargs,
    )
    return seeded_plans(base, spawn_trial_seeds(trials, seed=5))


class TestSpecValidation:
    def test_kind_checked(self):
        with pytest.raises(ValueError, match="unknown adversary kind"):
            AdversarySpec(kind="emp")

    def test_probabilities_checked(self):
        with pytest.raises(ValueError, match="drop_probability"):
            AdversarySpec(drop_probability=1.5)
        with pytest.raises(ValueError, match="gray_drop"):
            AdversarySpec(kind="gray_zone", gray_drop=-0.1)

    def test_plan_rejects_non_spec(self):
        with pytest.raises(TypeError, match="AdversarySpec"):
            TrialPlan(
                deployment=DEPLOYMENT, stack="decay", adversary="jammer"
            )

    def test_build_kinds(self):
        stack = build_stack(make_plans(1, JAMMING)[0])
        assert isinstance(stack.runtime.channel.adversary, JammingAdversary)
        stack = build_stack(make_plans(1, GRAY)[0])
        adversary = stack.runtime.channel.adversary
        assert isinstance(adversary, GrayZoneAdversary)
        assert adversary.reliable_graph is stack.graph

    def test_per_trial_streams_differ(self):
        plans = make_plans(2, JAMMING)
        a = plans[0].adversary.build(None, plans[0].seed)
        b = plans[1].adversary.build(None, plans[1].seed)
        assert a.rng.random() != b.rng.random()


@pytest.mark.parametrize("kind", ["jamming", "gray_zone"])
@pytest.mark.parametrize("stack", ["decay", "ack", "combined"])
def test_adversary_plans_ride_fast_path_dataclass_equal(kind, stack):
    """The pin: adversary plans are columnar-eligible, and demanding the
    fast path (vectorize=True — no silent fallback possible) produces
    dataclass-equal results on both executors."""
    plans = make_plans(
        4, SPECS[kind], stack=stack, **(PAPER_MAC if stack == "combined" else {})
    )
    assert all(vector_eligible(plan) for plan in plans)
    sequential = [run_trial(plan) for plan in plans]
    assert sequential == run_trials(plans, ExecutionPolicy(vectorize=True))
    assert all(result.transmissions > 0 for result in sequential)


@pytest.mark.parametrize("kind", ["jamming", "gray_zone"])
def test_adversary_protocol_workload_on_fast_path(kind):
    plans = make_plans(
        2,
        SPECS[kind],
        workload="smb",
        options=TrialPlan.pack_options(source=0),
    )
    sequential = [run_trial(plan) for plan in plans]
    assert sequential == run_trials(plans, ExecutionPolicy(vectorize=True))


def test_erasures_actually_happen():
    """Guard against the trivial pass: the injected adversary erases."""
    plan = make_plans(1, JAMMING)[0]
    stack = build_stack(plan)
    from repro.experiments.workloads import get_workload

    workload = get_workload(plan.workload)
    workload.start(stack, plan)
    stack.runtime.run_until(
        lambda _rt: workload.done(stack, plan), check_every=16
    )
    assert stack.runtime.channel.adversary.erased_count > 0
    # And the injection visibly perturbs the clean run.
    clean = run_trial(dataclasses.replace(plan, adversary=None))
    assert run_trial(plan) != clean


def test_ineligible_stack_falls_back_deterministically():
    """A columnar-ineligible plan with an adversary spec runs the
    object path under auto-selection — same results as run_trial, and
    vectorize=True refuses loudly rather than dropping the injection.
    The plan: Algorithm 11.1 with a label space above 2³², whose labels
    numpy draws on its 64-bit path."""
    plans = make_plans(
        2,
        JAMMING,
        stack="combined",
        ack_config=FAST_ACK,
        approg_config=replace(SMALL_APPROG, label_space=2**32 + 1),
    )
    assert not any(vector_eligible(plan) for plan in plans)
    sequential = [run_trial(plan) for plan in plans]
    assert sequential == run_trials(plans)  # auto-select: object path
    with pytest.raises(ValueError, match="not columnar-eligible"):
        run_trials(plans, ExecutionPolicy(vectorize=True))


def test_jam_slots_and_pool_pickling():
    plans = make_plans(
        4,
        AdversarySpec(
            kind="jamming", jam_slots=tuple(range(0, 64, 4)), seed=3
        ),
    )
    assert run_trials(plans, ExecutionPolicy(workers=1)) == run_trials(
        plans, ExecutionPolicy(workers=2)
    )
