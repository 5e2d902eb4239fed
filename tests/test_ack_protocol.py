"""Unit and behavioural tests for Algorithm B.1 (repro.core.ack_protocol)."""

import numpy as np
import pytest

from repro.analysis.harness import build_ack_stack, run_local_broadcast_experiment
from repro.core.ack_protocol import AckConfig, AckEngine, AckMacLayer
from repro.core.events import MessageRegistry
from repro.geometry.deployment import uniform_disk
from repro.geometry.points import PointSet
from repro.simulation.runtime import Runtime, RuntimeConfig
from repro.sinr.channel import Channel
from repro.sinr.params import SINRParameters


@pytest.fixture
def config():
    return AckConfig(contention_bound=16.0, eps_ack=0.1)


class TestAckConfig:
    def test_derived_quantities_positive(self, config):
        assert config.log_term > 0
        assert config.inner_block_slots >= 1
        assert config.halt_budget > 0
        assert config.rc_threshold > 0

    def test_initial_probability(self, config):
        assert config.initial_probability == pytest.approx(1 / 64)

    def test_floor_below_initial(self, config):
        assert config.floor_probability < config.initial_probability

    def test_validation(self):
        with pytest.raises(ValueError):
            AckConfig(contention_bound=0.5)
        with pytest.raises(ValueError):
            AckConfig(contention_bound=4, eps_ack=0.0)
        with pytest.raises(ValueError):
            AckConfig(contention_bound=4, delta=-1)
        with pytest.raises(ValueError):
            AckConfig(contention_bound=4, prob_cap=0.9)

    @pytest.mark.parametrize("name", ["fallback_divisor", "floor_divisor"])
    @pytest.mark.parametrize("value", [0.0, -32.0])
    def test_divisors_must_be_positive(self, name, value):
        """A zero fallback divisor used to crash the object path with
        ZeroDivisionError while the columnar kernel ran on at p =
        prob_cap; both now refuse the config up front."""
        with pytest.raises(ValueError, match=name):
            AckConfig(contention_bound=4, **{name: value})

    def test_expected_slot_bound_monotone_in_contention(self, config):
        assert config.expected_slot_bound(4.0) < config.expected_slot_bound(
            16.0
        )

    def test_log_term_grows_with_tighter_eps(self):
        loose = AckConfig(contention_bound=16, eps_ack=0.5)
        tight = AckConfig(contention_bound=16, eps_ack=0.001)
        assert tight.log_term > loose.log_term


class TestAckEngine:
    def test_halts_eventually(self, config):
        engine = AckEngine(config, np.random.default_rng(0))
        for _ in range(100_000):
            if engine.halted:
                break
            engine.step()
        assert engine.halted

    def test_probability_never_exceeds_cap(self, config):
        engine = AckEngine(config, np.random.default_rng(1))
        while not engine.halted:
            assert engine.probability <= config.prob_cap + 1e-12
            engine.step()

    def test_probability_never_below_floor(self, config):
        engine = AckEngine(config, np.random.default_rng(2))
        for _ in range(200):
            engine.notify_reception()  # hammer fallbacks
            engine.step()
            assert engine.probability >= config.floor_probability - 1e-12

    def test_fallback_reduces_probability(self, config):
        engine = AckEngine(config, np.random.default_rng(3))
        # Run a while to climb the probability ladder.
        for _ in range(5 * config.inner_block_slots):
            engine.step()
        climbed = engine.probability
        for _ in range(int(config.rc_threshold) + 1):
            engine.notify_reception()
        engine.step()  # fallback applies on the next owned slot
        assert engine.probability < climbed

    def test_transmissions_counted(self, config):
        engine = AckEngine(config, np.random.default_rng(4))
        while not engine.halted:
            engine.step()
        assert engine.transmissions > 0
        assert engine.transmissions <= engine.slots_run

    def test_steps_after_halt_are_noops(self, config):
        engine = AckEngine(config, np.random.default_rng(5))
        while not engine.halted:
            engine.step()
        slots = engine.slots_run
        assert engine.step() is False
        assert engine.slots_run == slots

    def test_budget_accumulates_even_without_transmitting(self, config):
        # tp increases by p each slot regardless of the coin flip
        # (paper line 13), so halting is deterministic in slot count
        # given the probability trajectory.
        a = AckEngine(config, np.random.default_rng(6))
        b = AckEngine(config, np.random.default_rng(7))
        while not a.halted:
            a.step()
        while not b.halted:
            b.step()
        # No receptions => identical trajectories => same halt time.
        assert a.slots_run == b.slots_run

    def test_halt_time_scales_with_contention(self):
        """More contention => longer runs (the Δ·log term)."""

        def slots_under_load(bound, receptions_per_slot):
            cfg = AckConfig(contention_bound=bound, eps_ack=0.1)
            engine = AckEngine(cfg, np.random.default_rng(8))
            while not engine.halted:
                engine.step()
                for _ in range(receptions_per_slot):
                    engine.notify_reception()
            return engine.slots_run

        quiet = slots_under_load(16, 0)
        busy = slots_under_load(16, 1)  # constant overheard traffic
        assert busy > quiet


class TestAckMacLayer:
    def make_pair(self, distance=5.0, config=None):
        params = SINRParameters()
        pts = PointSet(np.array([[0.0, 0.0], [distance, 0.0]]))
        reg = MessageRegistry()
        cfg = config or AckConfig(contention_bound=8.0, eps_ack=0.1)
        macs = [AckMacLayer(i, reg, cfg) for i in range(2)]
        rt = Runtime(Channel(pts, params), macs, RuntimeConfig(seed=0))
        return rt, macs

    def test_broadcast_reaches_neighbor_and_acks(self):
        rt, macs = self.make_pair()
        message = macs[0].bcast(payload="hi")
        rt.run_until(lambda r: not macs[0].busy)
        assert message.mid in macs[0].acked_mids
        assert message.mid in macs[1].delivered_mids

    def test_double_broadcast_rejected(self):
        rt, macs = self.make_pair()
        macs[0].bcast()
        with pytest.raises(RuntimeError, match="already broadcasting"):
            macs[0].bcast()

    def test_abort_stops_acking(self):
        rt, macs = self.make_pair()
        message = macs[0].bcast()
        rt.run(3)
        macs[0].abort()
        rt.run(2000)
        assert message.mid not in macs[0].acked_mids
        aborts = rt.trace.of_kind("abort")
        assert len(aborts) == 1

    def test_rcv_deduplicated(self):
        rt, macs = self.make_pair()
        macs[0].bcast()
        rt.run_until(lambda r: not macs[0].busy)
        rcvs = [e for e in rt.trace.of_kind("rcv") if e.node == 1]
        assert len(rcvs) == 1

    def test_own_message_not_delivered_to_self(self):
        rt, macs = self.make_pair()
        m = macs[0].bcast()
        rt.run_until(lambda r: not macs[0].busy)
        assert m.mid not in macs[0].delivered_mids


class TestTheorem51Behaviour:
    """Statistical checks of the Theorem 5.1 guarantee on deployments."""

    def test_acks_complete_on_random_deployment(self):
        params = SINRParameters()
        pts = uniform_disk(20, radius=10.0, seed=11)
        stack = build_ack_stack(pts, params, eps_ack=0.1, seed=1)
        broadcasters = [0, 5, 10, 15]
        report, _ = run_local_broadcast_experiment(stack, broadcasters)
        assert len(report.records) == 4
        # Every broadcast acked, and the vast majority complete.
        assert all(r.ack_slot is not None for r in report.records)
        assert report.completeness_fraction() >= 0.75

    def test_latency_grows_with_density(self):
        """The Δ·log term: denser networks take longer to ack."""
        params = SINRParameters()
        latencies = []
        for n in (8, 32):
            pts = uniform_disk(n, radius=9.0, seed=13)
            stack = build_ack_stack(pts, params, eps_ack=0.1, seed=2)
            report, _ = run_local_broadcast_experiment(
                stack, list(range(n))
            )
            latencies.append(report.mean_latency())
        assert latencies[1] > latencies[0]
