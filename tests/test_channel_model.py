"""The stochastic channel subsystem (fading / shadowing / power).

Four layers of evidence:

* **config + draws** — :class:`ChannelModel` validation, the transform
  helpers in :mod:`repro.sinr.physics`, and the dedicated channel RNG
  stream (:func:`spawn_channel_rng` — independent of every node
  stream, so enabling the model perturbs only the physics);
* **physics** — the ``link_powers`` override of the reception kernels:
  feeding the deterministic powers back through it changes nothing,
  and the batched kernel's flat decodes resolve per-trial power blocks
  exactly like per-trial :func:`successful_receptions` calls;
* **channel** — :meth:`Channel.bind_trial_seed` /
  :meth:`Channel.slot_link_powers` semantics (arming, determinism,
  stream consumption, the unarmed error);
* **executors** — the acceptance matrix: with fading enabled,
  vectorized runs are dataclass-equal to the object runtime across
  {decay, ack} x {1, 8 trials}, and an inert model is byte-identical
  to no model at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ack_protocol import AckConfig
from repro.core.approx_progress import ApproxProgressConfig
from repro.experiments import (
    DeploymentSpec,
    ExecutionPolicy,
    TrialPlan,
    deployment_artifacts,
    resolve_deployment,
    run_trials,
)
from repro.experiments.plans import seeded_plans
from repro.simulation.rng import (
    LinkUniformBuffer,
    spawn_channel_rng,
    spawn_node_rngs,
    spawn_trial_seeds,
)
from repro.sinr.channel import Channel
from repro.sinr.params import ChannelModel, SINRParameters
from repro.sinr.physics import (
    draw_power_multipliers,
    draw_shadowing,
    rayleigh_gains,
    successful_receptions,
    successful_receptions_batch,
)

N = 12
DEPLOYMENT = DeploymentSpec.of("uniform_disk", n=N, radius=9.0, seed=33)
FULL_MODEL = ChannelModel(
    rayleigh=True, shadowing_sigma_db=4.0, power_spread=4.0
)


def fading_params(model: ChannelModel = FULL_MODEL) -> SINRParameters:
    return SINRParameters(channel_model=model)


# -- configuration ----------------------------------------------------------


class TestChannelModel:
    def test_defaults_are_inert(self):
        assert not ChannelModel().is_active
        assert ChannelModel().describe() == "deterministic"

    def test_each_axis_activates(self):
        assert ChannelModel(rayleigh=True).is_active
        assert ChannelModel(shadowing_sigma_db=2.0).is_active
        assert ChannelModel(power_spread=3.0).is_active

    def test_validation(self):
        with pytest.raises(ValueError, match="shadowing_sigma_db"):
            ChannelModel(shadowing_sigma_db=-1.0)
        with pytest.raises(ValueError, match="power_spread"):
            ChannelModel(power_spread=0.5)

    def test_describe_lists_active_axes(self):
        text = FULL_MODEL.describe()
        assert "rayleigh" in text and "shadow" in text and "spread" in text

    def test_params_carry_model_through_rescaling(self):
        params = fading_params().with_strong_range(50.0)
        assert params.channel_model == FULL_MODEL
        assert "model=" in params.describe()

    def test_params_hashable_for_batch_keys(self):
        assert hash(fading_params()) == hash(fading_params())
        assert fading_params() != SINRParameters()


# -- draws ------------------------------------------------------------------


class TestDraws:
    def test_rayleigh_gains_are_exponential(self):
        u = np.random.default_rng(0).random(20_000)
        gains = rayleigh_gains(u)
        assert (gains > 0).all() and np.isfinite(gains).all()
        assert gains.mean() == pytest.approx(1.0, rel=0.05)  # Exp(1)
        # The inverse-CDF map stays finite at the float64 edge.
        assert np.isfinite(rayleigh_gains(np.array([np.nextafter(1.0, 0.0)])))

    def test_power_multipliers_in_range(self):
        rng = np.random.default_rng(1)
        mult = draw_power_multipliers(ChannelModel(power_spread=5.0), rng, 500)
        assert mult.shape == (500,)
        assert (mult >= 1.0).all() and (mult <= 5.0).all()
        assert draw_power_multipliers(ChannelModel(), rng, 5) is None

    def test_shadowing_symmetric_positive(self):
        rng = np.random.default_rng(2)
        shadow = draw_shadowing(ChannelModel(shadowing_sigma_db=6.0), rng, 40)
        assert shadow.shape == (40, 40)
        assert (shadow > 0).all()
        assert np.array_equal(shadow, shadow.T)  # reciprocal links
        assert np.array_equal(np.diag(shadow), np.ones(40))
        assert draw_shadowing(ChannelModel(), rng, 5) is None

    def test_channel_stream_independent_of_node_streams(self):
        """Child n of the seed sequence: deterministic, and disjoint
        from every node generator's output."""
        a = spawn_channel_rng(N, seed=7).random(8)
        b = spawn_channel_rng(N, seed=7).random(8)
        assert np.array_equal(a, b)
        for node_rng in spawn_node_rngs(N, seed=7):
            assert not np.array_equal(node_rng.random(8), a)

    def test_link_buffer_is_chunk_independent(self):
        """Irregular takes (crossing refills, exceeding the chunk) must
        serve exactly the generator's scalar stream."""
        buffered = LinkUniformBuffer(np.random.default_rng(5), chunk=16)
        takes = [3, 20, 1, 0, 40, 16, 7]
        served = np.concatenate([buffered.take(k) for k in takes])
        direct = np.random.default_rng(5).random(sum(takes))
        assert np.array_equal(served, direct)
        with pytest.raises(ValueError):
            LinkUniformBuffer(np.random.default_rng(0), chunk=0)
        with pytest.raises(ValueError):
            buffered.take(-1)


# -- physics: the link_powers override --------------------------------------


class TestLinkPowers:
    def test_identity_when_powers_are_the_gains(self):
        """Routing the deterministic gain rows through link_powers must
        reproduce the gain-cache path decode for decode."""
        points = resolve_deployment(DEPLOYMENT)
        params = SINRParameters()
        art = deployment_artifacts(points, params)
        tx = np.array([0, 3, 5], dtype=np.intp)
        base = successful_receptions(
            params, art.distances, tx, gains=art.gains
        )
        routed = successful_receptions(
            params, art.distances, tx, link_powers=art.gains[tx, :]
        )
        assert routed == base

    def test_batch_matches_per_trial_blocks(self):
        """The batched kernel with a flat (sum k, n) power layout must
        equal per-trial resolution of the same blocks, in order."""
        points = resolve_deployment(DEPLOYMENT)
        params = SINRParameters()
        art = deployment_artifacts(points, params)
        rng = np.random.default_rng(3)
        tx_lists = [
            np.array([0, 2], dtype=np.intp),
            np.empty(0, dtype=np.intp),
            np.array([1, 4, 7], dtype=np.intp),
        ]
        blocks = [
            art.gains[tx, :] * rayleigh_gains(rng.random((tx.size, N)))
            for tx in tx_lists
            if tx.size
        ]
        dist_stack = np.broadcast_to(art.distances, (3, N, N))
        trial_idx, listener_idx, sender_idx = successful_receptions_batch(
            params,
            dist_stack,
            tx_lists,
            link_powers=np.concatenate(blocks),
        )
        block_iter = iter(blocks)
        for t, tx in enumerate(tx_lists):
            expected = (
                successful_receptions(
                    params, art.distances, tx, link_powers=next(block_iter)
                )
                if tx.size
                else {}
            )
            mine = trial_idx == t
            got = list(
                zip(listener_idx[mine].tolist(), sender_idx[mine].tolist())
            )
            assert got == list(expected.items())

    def test_link_powers_shape_validated(self):
        points = resolve_deployment(DEPLOYMENT)
        params = SINRParameters()
        art = deployment_artifacts(points, params)
        tx = np.array([0, 1], dtype=np.intp)
        with pytest.raises(ValueError, match="link_powers"):
            successful_receptions(
                params, art.distances, tx, link_powers=art.gains
            )
        with pytest.raises(ValueError, match="mutually exclusive"):
            successful_receptions(
                params,
                art.distances,
                tx,
                tx_powers=np.array([1.0, 2.0]),
                link_powers=art.gains[tx, :],
            )


# -- channel ----------------------------------------------------------------


class TestChannelBinding:
    def _channel(self, model=FULL_MODEL) -> Channel:
        points = resolve_deployment(DEPLOYMENT)
        return Channel(points, fading_params(model))

    def test_deterministic_channel_is_transparent(self):
        channel = Channel(resolve_deployment(DEPLOYMENT), SINRParameters())
        assert not channel.stochastic
        channel.bind_trial_seed(0)  # no-op
        assert channel.slot_link_powers(np.array([0, 1], dtype=np.intp)) is None

    def test_inert_model_is_transparent(self):
        channel = self._channel(ChannelModel())
        assert not channel.stochastic
        assert channel.slot_link_powers(np.array([0], dtype=np.intp)) is None

    def test_unarmed_stochastic_channel_raises(self):
        channel = self._channel()
        with pytest.raises(RuntimeError, match="bind_trial_seed"):
            channel.resolve_slot({0: "payload"})

    def test_binding_is_deterministic_per_seed(self):
        tx = np.array([0, 4], dtype=np.intp)
        one, two, other = self._channel(), self._channel(), self._channel()
        one.bind_trial_seed(9)
        two.bind_trial_seed(9)
        other.bind_trial_seed(10)
        first = one.slot_link_powers(tx)
        assert np.array_equal(first, two.slot_link_powers(tx))
        assert not np.array_equal(first, other.slot_link_powers(tx))
        # Fresh fading every slot: the next call must differ.
        assert not np.array_equal(first, one.slot_link_powers(tx))

    def test_static_multipliers_persist_across_slots(self):
        """Without Rayleigh the per-trial effective gains are static:
        every slot sees the same powers, scaled rows of the base gains."""
        channel = self._channel(
            ChannelModel(shadowing_sigma_db=3.0, power_spread=2.0)
        )
        channel.bind_trial_seed(4)
        tx = np.array([1, 6], dtype=np.intp)
        first = channel.slot_link_powers(tx)
        assert np.array_equal(first, channel.slot_link_powers(tx))
        assert first.shape == (2, N)
        assert (first > 0).all()
        assert not np.array_equal(first, channel.gains[tx, :])

    def test_empty_transmitter_set_consumes_no_draws(self):
        channel = self._channel()
        channel.bind_trial_seed(2)
        tx = np.array([0, 3], dtype=np.intp)
        expected = self._channel()
        expected.bind_trial_seed(2)
        channel.slot_link_powers(np.empty(0, dtype=np.intp))
        assert np.array_equal(
            channel.slot_link_powers(tx), expected.slot_link_powers(tx)
        )


# -- executors: the acceptance matrix ---------------------------------------


# Algorithm 11.1 at test size (see test_vectorized_equivalence).
PAPER_MAC = dict(
    ack_config=AckConfig(contention_bound=8.0, eps_ack=0.3, gamma_prime=1.0),
    approg_config=ApproxProgressConfig(
        lambda_bound=2.0, eps_approg=0.2, alpha=3.0, t_scale=0.1
    ),
)


def fading_plans(stack, trials, model=FULL_MODEL, **kwargs):
    if stack == "combined":
        kwargs = {**PAPER_MAC, **kwargs}
    base = TrialPlan(
        deployment=DEPLOYMENT,
        stack=stack,
        workload=kwargs.pop("workload", "local_broadcast"),
        params=fading_params(model),
        label=f"fade-{stack}",
        **kwargs,
    )
    return seeded_plans(base, spawn_trial_seeds(trials, seed=5))


@pytest.mark.slow
@pytest.mark.parametrize("stack", ["decay", "ack", "combined"])
@pytest.mark.parametrize("trials", [1, 8])
def test_fading_vectorized_equals_object(stack, trials):
    """The ISSUE acceptance matrix: with the full stochastic model on,
    the columnar fast path is dataclass-equal to the object runtime."""
    plans = fading_plans(stack, trials)
    vec = run_trials(plans, ExecutionPolicy(vectorize=True))
    obj = run_trials(plans, ExecutionPolicy(vectorize=False))
    assert vec == obj
    assert all(result.transmissions > 0 for result in vec)


def test_fading_sequential_matches_batched():
    """One-at-a-time object runs agree with the default dispatch, which
    batches these Decay plans on the columnar path."""
    plans = fading_plans("decay", 4)
    assert run_trials(plans, ExecutionPolicy(vectorize=False)) == (
        run_trials(plans)
    )


def test_fading_protocol_workload_on_fast_path():
    """Fading plans with protocol workloads stay columnar-eligible and
    bit-identical (BSMB delivery under a stochastic channel)."""
    plans = fading_plans(
        "decay", 4, workload="smb", options=TrialPlan.pack_options(source=0)
    )
    assert run_trials(plans, ExecutionPolicy(vectorize=True)) == run_trials(
        plans, ExecutionPolicy(vectorize=False)
    )


def test_inert_model_byte_identical_to_no_model():
    """ChannelModel() attached but inactive: results must equal the
    plain deterministic plan field for field (the disabled path does
    not consume a single extra draw)."""
    plain = seeded_plans(
        TrialPlan(deployment=DEPLOYMENT, stack="decay", label="fade-decay"),
        spawn_trial_seeds(3, seed=5),
    )
    inert = fading_plans("decay", 3, model=ChannelModel())
    assert run_trials(inert) == run_trials(plain)


def test_fading_changes_outcomes():
    """The model must actually perturb the physics: a full stochastic
    channel yields different trial results than the deterministic one
    (same seeds, same deployment)."""
    det = seeded_plans(
        TrialPlan(deployment=DEPLOYMENT, stack="decay", label="fade-decay"),
        spawn_trial_seeds(3, seed=5),
    )
    faded = fading_plans("decay", 3)
    assert run_trials(faded) != run_trials(det)


def test_shadowing_sweep_shares_one_artifact_entry():
    """Different channel models over one deployment must share the
    deterministic artifact cache entry (distances/gains/graphs are
    model-independent)."""
    from repro.experiments.cache import ArtifactCache

    cache = ArtifactCache()
    points = resolve_deployment(DEPLOYMENT)
    first = cache.artifacts(points, SINRParameters())
    second = cache.artifacts(
        points, fading_params(ChannelModel(shadowing_sigma_db=6.0))
    )
    assert second is first
    assert cache.stats()["artifact_entries"] == 1
