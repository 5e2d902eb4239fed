"""repro.experiments — the batched multi-trial experiment engine.

Declarative :class:`TrialPlan`\\ s run through :func:`run_trials`, which
memoizes deployment-derived artifacts in a keyed cache, runs
columnar-eligible plans in batches on :mod:`repro.vectorized` and every
other plan one at a time on the object runtime, and optionally
distributes plan chunks over a process pool — all bit-identical to the
single-trial harness path.

Typical sweep::

    from repro.experiments import DeploymentSpec, TrialPlan, run_trials, seeded_plans
    from repro.simulation.rng import spawn_trial_seeds

    base = TrialPlan(
        deployment=DeploymentSpec.of("uniform_disk", n=16, radius=9.0, seed=1),
        stack="ack",
        workload="local_broadcast",
    )
    results = run_trials(seeded_plans(base, spawn_trial_seeds(32, seed=7)))
    print(sum(r.ack_mean_latency for r in results) / len(results))

See ``docs/architecture.md`` (section "The experiment engine") for the
execution model and cache-key design.
"""

from __future__ import annotations

from repro.experiments.cache import (
    GLOBAL_CACHE,
    ArtifactCache,
    DeploymentArtifacts,
    deployment_artifacts,
    geometry_artifacts,
    resolve_deployment,
)
from repro.experiments.plans import (
    AdversarySpec,
    DeploymentSpec,
    TrialPlan,
    TrialResult,
    seeded_plans,
)
from repro.experiments.policy import ExecutionPolicy

__all__ = [
    "ArtifactCache",
    "DeploymentArtifacts",
    "GLOBAL_CACHE",
    "deployment_artifacts",
    "geometry_artifacts",
    "resolve_deployment",
    "AdversarySpec",
    "DeploymentSpec",
    "TrialPlan",
    "TrialResult",
    "seeded_plans",
    "ExecutionPolicy",
    "build_stack",
    "execute_plans",
    "run_trial",
    "run_trials",
    "Workload",
    "get_workload",
    "register",
    "workload_names",
]

# The engine and workload modules depend on repro.analysis.harness,
# which itself imports this package's cache — importing them eagerly
# here would close an import cycle.  PEP 562 lazy attributes keep
# ``from repro.experiments import run_trials`` working while leaving
# the cycle open.
_LAZY = {
    "build_stack": "repro.experiments.engine",
    "execute_plans": "repro.experiments.engine",
    "run_trial": "repro.experiments.engine",
    "run_trials": "repro.experiments.engine",
    "Workload": "repro.experiments.workloads",
    "get_workload": "repro.experiments.workloads",
    "register": "repro.experiments.workloads",
    "workload_names": "repro.experiments.workloads",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
