"""Artifact cache and trial-plan primitives of repro.experiments."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.cache import ArtifactCache
from repro.experiments.plans import (
    DeploymentSpec,
    TrialPlan,
    TrialResult,
    seeded_plans,
)
from repro.geometry.deployment import uniform_disk
from repro.geometry.points import PointSet, pairwise_distances
from repro.simulation.rng import spawn_trial_seeds
from repro.sinr.params import SINRParameters
from repro.sinr.physics import gain_matrix


@pytest.fixture
def params() -> SINRParameters:
    return SINRParameters()


class TestDeploymentSpec:
    def test_named_generator_roundtrip(self):
        spec = DeploymentSpec.of("uniform_disk", n=9, radius=7.0, seed=4)
        points = spec.build()
        assert len(points) == 9
        # Deterministic: rebuilding gives identical coordinates.
        assert np.array_equal(points.coords, spec.build().coords)

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError, match="unknown deployment"):
            DeploymentSpec.of("no_such_deployment", n=3)

    def test_stochastic_generator_requires_seed(self):
        # Seedless specs would be cache-shared OS-entropy draws.
        with pytest.raises(ValueError, match="explicit integer seed"):
            DeploymentSpec.of("uniform_disk", n=5, radius=4.0)
        with pytest.raises(ValueError, match="explicit integer seed"):
            DeploymentSpec.of("uniform_disk", n=5, radius=4.0, seed=None)
        # Deterministic generators take no seed and need none.
        assert DeploymentSpec.of("line_deployment", n=4, spacing=2.0)

    def test_explicit_roundtrip(self):
        original = uniform_disk(6, radius=5.0, seed=2)
        rebuilt = DeploymentSpec.explicit(original).build()
        assert np.array_equal(rebuilt.coords, original.coords)
        assert rebuilt.name == original.name

    def test_specs_hash_by_recipe(self):
        a = DeploymentSpec.of("uniform_disk", n=5, radius=3.0, seed=1)
        b = DeploymentSpec.of("uniform_disk", radius=3.0, seed=1, n=5)
        c = DeploymentSpec.of("uniform_disk", n=5, radius=3.0, seed=2)
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestArtifactCache:
    def test_hit_returns_same_objects(self, params):
        cache = ArtifactCache()
        points = uniform_disk(10, radius=8.0, seed=3)
        first = cache.artifacts(points, params)
        second = cache.artifacts(points, params)
        assert first is second
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_artifacts_correct(self, params):
        cache = ArtifactCache()
        points = uniform_disk(10, radius=8.0, seed=3)
        art = cache.artifacts(points, params)
        assert np.array_equal(
            art.distances, pairwise_distances(points.coords)
        )
        assert np.array_equal(
            art.gains, gain_matrix(params, art.distances)
        )
        assert art.metrics.n == 10
        assert art.graph.number_of_nodes() == 10

    def test_mutated_deployment_is_a_different_key(self, params):
        cache = ArtifactCache()
        points = uniform_disk(8, radius=7.0, seed=5)
        before = cache.artifacts(points, params)
        # "Mutate" the deployment: same object shape, scaled coords.
        moved = PointSet(points.coords * 1.5, name=points.name)
        after = cache.artifacts(moved, params)
        assert after is not before
        assert not np.array_equal(after.distances, before.distances)
        # The original entry is still served correctly afterwards.
        assert cache.artifacts(points, params) is before

    def test_params_participate_in_key(self, params):
        cache = ArtifactCache()
        points = uniform_disk(8, radius=7.0, seed=5)
        a = cache.artifacts(points, params)
        b = cache.artifacts(points, SINRParameters(alpha=4.0))
        assert a is not b

    def test_cached_arrays_are_frozen(self, params):
        cache = ArtifactCache()
        art = cache.artifacts(uniform_disk(6, radius=6.0, seed=1), params)
        with pytest.raises(ValueError):
            art.distances[0, 1] = 99.0
        with pytest.raises(ValueError):
            art.gains[0, 1] = 99.0

    def test_lru_eviction(self, params):
        cache = ArtifactCache(maxsize=2)
        specs = [
            DeploymentSpec.of("uniform_disk", n=4, radius=5.0, seed=s)
            for s in (1, 2, 3)
        ]
        first = cache.resolve(specs[0])
        cache.resolve(specs[1])
        cache.resolve(specs[2])  # evicts specs[0]
        assert cache.resolve(specs[0]) is not first
        assert cache.stats()["points_entries"] == 2

    def test_geometry_from_artifact_entry_marks_it_recent(self, params):
        # A mobility sweep reads its epoch-0 geometry from the artifact
        # entry; that read must keep the entry from being evicted.
        cache = ArtifactCache(maxsize=2)
        a, b, c = (uniform_disk(6, radius=6.0, seed=s) for s in (1, 2, 3))
        first = cache.artifacts(a, params)
        cache.artifacts(b, params)
        cache.geometry(a, params)
        cache.artifacts(c, params)  # evicts b, the least recently used
        misses = cache.stats()["misses"]
        assert cache.artifacts(a, params) is first
        assert cache.stats()["misses"] == misses
        cache.artifacts(b, params)
        assert cache.stats()["misses"] == misses + 1

    def test_one_distance_matrix_per_artifact_build(
        self, params, monkeypatch
    ):
        import repro.experiments.cache as cache_module
        import repro.sinr.graphs as graphs_module

        calls = []

        def counted(coords):
            calls.append(len(coords))
            return pairwise_distances(coords)

        monkeypatch.setattr(cache_module, "pairwise_distances", counted)
        monkeypatch.setattr(graphs_module, "pairwise_distances", counted)
        ArtifactCache().artifacts(uniform_disk(12, radius=8.0, seed=3), params)
        assert calls == [12]

    def test_clear(self, params):
        cache = ArtifactCache()
        cache.artifacts(uniform_disk(5, radius=5.0, seed=1), params)
        cache.clear()
        assert cache.stats() == {
            "hits": 0,
            "misses": 0,
            "points_entries": 0,
            "artifact_entries": 0,
            "geometry_entries": 0,
            "sparse_entries": 0,
        }


class TestTrialPlan:
    def test_validation(self):
        spec = DeploymentSpec.of("uniform_disk", n=4, radius=5.0, seed=1)
        with pytest.raises(ValueError, match="unknown stack"):
            TrialPlan(deployment=spec, stack="bogus")
        with pytest.raises(ValueError, match="max_slots"):
            TrialPlan(deployment=spec, max_slots=0)
        with pytest.raises(ValueError, match="extra_slots"):
            TrialPlan(deployment=spec, extra_slots=-1)

    def test_options_access(self):
        spec = DeploymentSpec.of("uniform_disk", n=4, radius=5.0, seed=1)
        plan = TrialPlan(
            deployment=spec, options=TrialPlan.pack_options(waves=6, k=2)
        )
        assert plan.option("waves") == 6
        assert plan.option("missing", "fallback") == "fallback"

    def test_seeded_plans_distinct_and_labeled(self):
        spec = DeploymentSpec.of("uniform_disk", n=4, radius=5.0, seed=1)
        base = TrialPlan(deployment=spec, label="sweep")
        seeds = spawn_trial_seeds(5, seed=9)
        plans = seeded_plans(base, seeds)
        assert [p.seed for p in plans] == seeds
        assert len({p.label for p in plans}) == 5
        assert len(set(seeds)) == 5  # trial seeds are distinct

    def test_spawn_trial_seeds_deterministic(self):
        assert spawn_trial_seeds(6, seed=3) == spawn_trial_seeds(6, seed=3)
        assert spawn_trial_seeds(6, seed=3) != spawn_trial_seeds(6, seed=4)


class TestTrialResult:
    def make(self, **overrides) -> TrialResult:
        base = dict(
            label="t",
            seed=1,
            n=4,
            degree=3,
            degree_tilde=2,
            diameter=1,
            diameter_tilde=2,
            lam=2.0,
            slots=100,
            broadcasts=3,
            ack_latencies=(10, 30, 20),
            ack_completeness=1.0,
            approg_latencies=(5, 15),
            approg_episodes=4,
            transmissions=50,
            receptions=40,
            extra=(("completion", 100),),
        )
        base.update(overrides)
        return TrialResult(**base)

    def test_derived_properties(self):
        result = self.make()
        assert result.ack_mean_latency == 20.0
        assert result.ack_max_latency == 30
        assert result.approg_median_latency == 10.0
        assert result.approg_satisfied == 2
        assert result.completion == 100
        assert result.extra_value("missing", 7) == 7

    def test_empty_latencies(self):
        result = self.make(ack_latencies=(), approg_latencies=())
        assert result.ack_mean_latency is None
        assert result.ack_max_latency is None
        assert result.approg_median_latency is None

    def test_equality_is_fieldwise(self):
        assert self.make() == self.make()
        assert self.make() != self.make(slots=101)
