"""Tests for Algorithm 9.1 (repro.core.approx_progress)."""

import numpy as np
import pytest

from repro.analysis.harness import build_approg_stack
from repro.core.approx_progress import (
    ApproxProgressConfig,
    ApproxProgressEngine,
    EpochSchedule,
)
from repro.core.events import BcastMessage
from repro.geometry.deployment import uniform_disk
from repro.sinr.params import SINRParameters


@pytest.fixture
def config():
    return ApproxProgressConfig(lambda_bound=8.0, eps_approg=0.1, alpha=3.0)


@pytest.fixture
def schedule(config):
    return EpochSchedule(config)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ApproxProgressConfig(lambda_bound=0.5)
        with pytest.raises(ValueError):
            ApproxProgressConfig(lambda_bound=4, eps_approg=0.0)
        with pytest.raises(ValueError):
            ApproxProgressConfig(lambda_bound=4, alpha=2.0)
        with pytest.raises(ValueError):
            ApproxProgressConfig(lambda_bound=4, p=0.6)
        with pytest.raises(ValueError):
            ApproxProgressConfig(lambda_bound=4, p=0.3, mu=0.3)
        with pytest.raises(ValueError):
            ApproxProgressConfig(lambda_bound=4, gamma=1.0)

    @pytest.mark.parametrize(
        "name", ["phi_scale", "t_scale", "q_scale", "bcast_scale"]
    )
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_scales_must_be_positive(self, name, value):
        """Non-positive scales used to be clamped silently (t_scale=0
        ran with T=8, phi_scale=0 with one phase)."""
        with pytest.raises(ValueError, match=name):
            ApproxProgressConfig(lambda_bound=4, **{name: value})

    def test_tiny_positive_scale_stays_valid(self):
        """bench_ablation_q_thinning drives Q to 1 with q_scale=1e-9."""
        assert ApproxProgressConfig(lambda_bound=4, q_scale=1e-9).q_factor == 1

    def test_phi_scales_with_lambda(self):
        small = ApproxProgressConfig(lambda_bound=4.0)
        large = ApproxProgressConfig(lambda_bound=256.0)
        assert large.phi_count > small.phi_count

    def test_q_scales_polynomially_in_log_lambda(self):
        """Q = Θ(log^α Λ) (Line 11)."""
        lo = ApproxProgressConfig(lambda_bound=4.0, alpha=3.0, q_scale=1.0)
        hi = ApproxProgressConfig(lambda_bound=64.0, alpha=3.0, q_scale=1.0)
        # log2 jumped 2 -> 6, so Q should jump ~27x.
        assert hi.q_factor >= 20 * lo.q_factor / 8

    def test_h_values_recursion(self, config):
        """Definition 9.2: h'_φ = 3 h_{φ+1}, h_φ = h'_φ + c·log* + 1."""
        h, h_prime = config.h_values()
        phi = config.phi_count
        assert h[phi - 1] == 1
        assert h_prime[phi - 1] == 1
        for idx in range(phi - 1):
            assert h_prime[idx] == 3 * h[idx + 1]
            assert h[idx] == h_prime[idx] + config.log_star_term + 1

    def test_h_values_bounds(self, config):
        """Lemma 10.4: 3^{Φ-1} <= h_1 <= c·4^Φ·log*(Λ/ε)."""
        phi = config.phi_count
        assert config.h1 >= 3 ** (phi - 1)
        assert config.h1 <= 4**phi * config.log_star_term * 4

    def test_repetitions_grow_with_tighter_eps(self):
        loose = ApproxProgressConfig(lambda_bound=8, eps_approg=0.5)
        tight = ApproxProgressConfig(lambda_bound=8, eps_approg=0.001)
        assert tight.repetitions > loose.repetitions

    def test_potential_threshold_below_mu_T(self, config):
        assert config.potential_threshold < config.mu * config.repetitions

    def test_label_space_polynomial(self):
        cfg = ApproxProgressConfig(lambda_bound=10.0, eps_approg=0.1)
        assert cfg.labels >= (10.0 / 0.1) ** 2 - 1

    def test_explicit_overrides(self):
        cfg = ApproxProgressConfig(
            lambda_bound=8, mis_round_budget=3, label_space=100
        )
        assert cfg.mis_rounds == 3
        assert cfg.labels == 100


class TestEpochSchedule:
    def test_epoch_composition(self, schedule, config):
        expected_phase = (2 + config.mis_rounds) * config.repetitions + (
            config.bcast_block_slots
        )
        assert schedule.phase_slots == expected_phase
        assert schedule.epoch_slots == config.phi_count * expected_phase

    def test_locate_blocks_in_order(self, schedule):
        t = schedule.t
        assert schedule.locate(0)[2] == EpochSchedule.EST1
        assert schedule.locate(t)[2] == EpochSchedule.EST2
        assert schedule.locate(2 * t)[2] == EpochSchedule.MIS
        bcast_start = (2 + schedule.rounds) * t
        assert schedule.locate(bcast_start)[2] == EpochSchedule.BCAST

    def test_locate_phase_and_epoch_indices(self, schedule):
        epoch, phase, block, off = schedule.locate(
            schedule.epoch_slots + schedule.phase_slots + 3
        )
        assert epoch == 1
        assert phase == 1
        assert block == EpochSchedule.EST1
        assert off == 3

    def test_mis_offset_encodes_round(self, schedule):
        t = schedule.t
        virtual = 2 * t + 1 * t + 5  # round 1, slot 5
        _, _, block, off = schedule.locate(virtual)
        assert block == EpochSchedule.MIS
        rnd, slot_in_round = divmod(off, t)
        assert rnd == 1
        assert slot_in_round == 5

    def test_negative_slot_rejected(self, schedule):
        with pytest.raises(ValueError):
            schedule.locate(-1)

    def test_describe_mentions_parameters(self, schedule):
        text = schedule.describe()
        for token in ("epoch", "T=", "Q="):
            assert token in text


class TestEngineStateMachine:
    def make_engine(self, schedule, seed=0, with_message=True):
        engine = ApproxProgressEngine(
            schedule, np.random.default_rng(seed), node_id=0
        )
        if with_message:
            engine.message = BcastMessage(1, 0, "m")
        return engine

    def test_idle_without_message(self, schedule):
        engine = self.make_engine(schedule, with_message=False)
        payloads = [engine.step(v) for v in range(schedule.phase_slots)]
        assert all(p is None for p in payloads)

    def test_est1_payload_format(self, schedule):
        engine = self.make_engine(schedule, seed=1)
        sent = [
            p
            for v in range(schedule.t)
            if (p := engine.step(v)) is not None
        ]
        assert sent, "engine with a message should transmit in est1"
        for payload in sent:
            kind, phase, label = payload
            assert kind == "est1"
            assert phase == 0
            assert 1 <= label <= schedule.config.labels

    def test_send_pattern_recorded_matches_transmissions(self, schedule):
        engine = self.make_engine(schedule, seed=2)
        sent_slots = []
        for v in range(schedule.t):
            if engine.step(v) is not None:
                sent_slots.append(v)
        assert [
            i for i, sent in enumerate(engine._send_pattern) if sent
        ] == sent_slots

    def test_mis_replays_est1_schedule(self, schedule):
        engine = self.make_engine(schedule, seed=3)
        pattern = []
        for v in range(schedule.t):
            pattern.append(engine.step(v) is not None)
        # est2 block.
        for v in range(schedule.t, 2 * schedule.t):
            engine.step(v)
        # First MIS round must replay exactly the est1 pattern.
        replay = []
        for v in range(2 * schedule.t, 3 * schedule.t):
            replay.append(engine.step(v) is not None)
        assert replay == pattern

    def test_counting_receptions_creates_potentials(self, schedule):
        engine = self.make_engine(schedule, seed=4)
        threshold = schedule.config.potential_threshold
        # Simulate hearing label 7 often enough during est1.
        for v in range(schedule.t):
            engine.step(v)
            if v < threshold + 2:
                engine.on_reception(v, ("est1", 0, 7))
        engine.step(schedule.t)  # first est2 slot freezes potentials
        assert 7 in engine._potentials

    def test_below_threshold_not_potential(self, schedule):
        engine = self.make_engine(schedule, seed=5)
        engine.step(0)
        engine.on_reception(0, ("est1", 0, 9))  # heard once only
        for v in range(1, schedule.t + 1):
            engine.step(v)
        assert 9 not in engine._potentials

    def test_mutual_potentials_become_neighbors(self, schedule):
        engine = self.make_engine(schedule, seed=6)
        threshold = int(schedule.config.potential_threshold) + 1
        for v in range(schedule.t):
            engine.step(v)
            if v < threshold:
                engine.on_reception(v, ("est1", 0, 7))
        engine.step(schedule.t)
        my_label = engine._label
        engine.on_reception(
            schedule.t + 1, ("est2", 0, 7, frozenset({my_label}))
        )
        assert 7 in engine._neighbors

    def test_non_mutual_potential_rejected(self, schedule):
        engine = self.make_engine(schedule, seed=7)
        threshold = int(schedule.config.potential_threshold) + 1
        for v in range(schedule.t):
            engine.step(v)
            if v < threshold:
                engine.on_reception(v, ("est1", 0, 7))
        engine.step(schedule.t)
        engine.on_reception(
            schedule.t + 1, ("est2", 0, 7, frozenset({99999}))
        )
        assert 7 not in engine._neighbors

    def test_missing_neighbor_causes_dropout(self, schedule):
        engine = self.make_engine(schedule, seed=8)
        threshold = int(schedule.config.potential_threshold) + 1
        for v in range(schedule.t):
            engine.step(v)
            if v < threshold:
                engine.on_reception(v, ("est1", 0, 7))
        engine.step(schedule.t)
        my_label = engine._label
        engine.on_reception(
            schedule.t + 1, ("est2", 0, 7, frozenset({my_label}))
        )
        # Run the whole MIS block without ever hearing neighbor 7.
        for v in range(schedule.t + 2, (2 + schedule.rounds) * schedule.t + 1):
            engine.step(v)
        assert engine.drops == 1
        assert not engine._alive

    def test_isolated_node_becomes_dominator_and_bcasts(self, schedule):
        """A lone broadcaster survives every phase and transmits in
        every bcast block with probability p/Q."""
        engine = self.make_engine(schedule, seed=9)
        bcast_payloads = []
        for v in range(schedule.epoch_slots):
            payload = engine.step(v)
            _, _, block, _ = schedule.locate(v)
            if block == EpochSchedule.BCAST and payload is not None:
                bcast_payloads.append(payload)
        assert bcast_payloads, "lone node should transmit its message"
        assert all(isinstance(p, BcastMessage) for p in bcast_payloads)

    def test_first_bcast_recorded_per_epoch(self, schedule):
        engine = self.make_engine(schedule, seed=10, with_message=False)
        engine.step(0)
        incoming = BcastMessage(42, 3, "other")
        engine.on_reception(1, incoming)
        assert engine.first_bcast is incoming
        # A later message does not overwrite the first.
        engine.on_reception(2, BcastMessage(43, 4, "later"))
        assert engine.first_bcast.mid == 42

    def test_new_epoch_resets_first_bcast(self, schedule):
        engine = self.make_engine(schedule, seed=11, with_message=False)
        engine.step(0)
        engine.on_reception(1, BcastMessage(42, 3))
        engine.step(schedule.epoch_slots)  # first slot of epoch 1
        assert engine.first_bcast is None

    def test_mid_epoch_wake_stays_passive_until_boundary(self, schedule):
        """§9.3: a node woken mid-epoch joins at the next epoch
        boundary; until then it transmits nothing despite holding a
        message."""
        engine = self.make_engine(schedule, seed=12)
        start = schedule.t + 3  # first step lands inside est2 of phase 0
        for virtual in range(start, schedule.epoch_slots):
            assert engine.step(virtual) is None
        # At the boundary the node joins and eventually transmits.
        transmitted = False
        for virtual in range(
            schedule.epoch_slots, 2 * schedule.epoch_slots
        ):
            if engine.step(virtual) is not None:
                transmitted = True
                break
        assert transmitted

    def test_mid_epoch_wake_still_delivers_bcasts(self, schedule):
        """Passive observers still record overheard bcast-messages."""
        engine = self.make_engine(schedule, seed=13, with_message=False)
        start = 2 * schedule.t + 5  # mid-MIS of phase 0
        engine.step(start)
        incoming = BcastMessage(77, 9)
        engine.on_reception(start + 1, incoming)
        assert engine.first_bcast is incoming


class TestApproxProgressBehaviour:
    """End-to-end behaviour of Algorithm 9.1 on real channels."""

    @pytest.fixture
    def fast_config(self):
        # Smaller constants keep the test quick while preserving shape.
        return ApproxProgressConfig(
            lambda_bound=8.0,
            eps_approg=0.2,
            alpha=3.0,
            t_scale=0.2,
            bcast_scale=4.0,
        )

    def test_progress_on_small_deployment(self, fast_config):
        params = SINRParameters()
        pts = uniform_disk(12, radius=8.0, seed=31)
        stack = build_approg_stack(
            pts, params, approg_config=fast_config, seed=3
        )
        schedule = stack.macs[0].schedule
        for mac in stack.macs:
            mac.bcast(payload=f"m{mac.node_id}")
        stack.runtime.run(2 * schedule.epoch_slots)
        report = stack.approg_report()
        assert report.records, "dense deployment must trigger episodes"
        satisfied = report.success_fraction(2 * schedule.epoch_slots)
        assert satisfied >= 0.8

    def test_no_acks_ever(self, fast_config):
        """Remark 10.19: Algorithm 9.1 alone never acknowledges."""
        params = SINRParameters()
        pts = uniform_disk(8, radius=6.0, seed=32)
        stack = build_approg_stack(
            pts, params, approg_config=fast_config, seed=4
        )
        stack.macs[0].bcast(payload="m")
        stack.runtime.run(stack.macs[0].schedule.epoch_slots)
        assert stack.runtime.trace.count("ack") == 0
        assert stack.macs[0].busy
