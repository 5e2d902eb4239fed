"""The benchmark's four workloads: seeded plan lists plus their checks.

Every workload is a list of :class:`repro.api.TrialPlan` built from the
workload seed alone.  The seed derives every trial seed (through
``spawn_trial_seeds``) and, on ``paper-stack``, each trial's own
deployment; all other deployments are fixed, so artifact cost does not
move with the seed.

Why each workload exists (``BENCHMARK.json`` has a one-line version):

``decay-sweep``
    The production sweep: 8 counters-only Decay trials sharing one
    n=1000 disk for 1000 slots.  The only workload that rides the fused
    C kernel, so it stresses the kernel and the serial Python shell
    around it.
``sparse-cold``
    Sparse-exact Decay at constant density (expected degree 16), n=1200,
    2 trials x 200 slots: the cold-start wall, where dense matrices, two
    networkx graphs and two exact diameters are built although the
    physics is sparse.
``protocol-sweep``
    The paper's global problems over Decay, 8 trials each: BSMB across a
    50-cluster line (D about 49) and 2-wave flood consensus on an n=500
    disk.  The attached client adapter keeps every slot on the numpy
    step.
``paper-stack``
    Algorithm 11.1 (``stack="combined"``) running local broadcast with
    full physical tracing, on the object lockstep executor; each of the
    8 trials has its own n=32 disk, so no artifact is shared.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import astuple
from typing import Callable

from repro.api import (
    DeploymentSpec,
    SINRParameters,
    SparseResolution,
    TrialPlan,
    seeded_plans,
    spawn_trial_seeds,
)
from repro.core.decay import DecayConfig

__all__ = ["DEFAULT_SEED", "PINNED", "WORKLOADS", "check", "make_plans",
           "trial_digest"]

DEFAULT_SEED = 1

# Decay under a conservative poly(n) contention bound: 30-step
# probability sweeps (the BENCH_native shape).
LONG_DECAY = DecayConfig(contention_bound=2**30)
# The BENCH_protocols shape: long sweeps keep per-slot transmitter
# counts low; ack_factor compresses the acknowledgment budget.
PROTOCOL_DECAY = DecayConfig(contention_bound=2**20, ack_factor=1.7e-5)


def _decay_sweep(seed: int) -> list[TrialPlan]:
    base = TrialPlan(
        deployment=DeploymentSpec.of("uniform_disk", n=1000, radius=175.0,
                                     seed=9),
        stack="decay",
        workload="fixed_slots",
        options=TrialPlan.pack_options(slots=1000),
        record_physical=False,
        decay_config=LONG_DECAY,
        label="decay-sweep",
    )
    return seeded_plans(base, spawn_trial_seeds(8, seed=seed))


def _sparse_cold(seed: int) -> list[TrialPlan]:
    n = 1200
    # min_n=1: resolve sparsely below the default n=2000 crossover.
    params = SINRParameters(sparse=SparseResolution(mode="exact", min_n=1))
    # Constant density: expected in-range degree 16.
    radius = params.transmission_range * math.sqrt(n / 16)
    base = TrialPlan(
        deployment=DeploymentSpec.of("uniform_disk", n=n, radius=radius,
                                     seed=9),
        stack="decay",
        workload="fixed_slots",
        options=TrialPlan.pack_options(slots=200),
        record_physical=False,
        params=params,
        decay_config=LONG_DECAY,
        label="sparse-cold",
    )
    return seeded_plans(base, spawn_trial_seeds(2, seed=seed))


def _protocol_sweep(seed: int) -> list[TrialPlan]:
    spacing = SINRParameters().approx_range * 0.8
    line = DeploymentSpec.of(
        "cluster_deployment",
        n_clusters=50,
        nodes_per_cluster=10,
        cluster_radius=3.0,
        cluster_spacing=spacing,
        min_separation=1.0,
        seed=5,
    )
    disk = DeploymentSpec.of("uniform_disk", n=500, radius=78.0, seed=9)
    common = dict(
        stack="decay",
        record_physical=False,
        max_slots=200_000,
        decay_config=PROTOCOL_DECAY,
    )
    smb = TrialPlan(deployment=line, workload="smb",
                    options=TrialPlan.pack_options(source=0),
                    label="protocol-smb", **common)
    consensus = TrialPlan(deployment=disk, workload="consensus",
                          options=TrialPlan.pack_options(waves=2),
                          label="protocol-consensus", **common)
    # 8 trials each: BSMB completion varies with the seed, and fewer
    # trials let it move the sweep time and peak memory across seeds.
    seeds = spawn_trial_seeds(16, seed=seed)
    return seeded_plans(smb, seeds[:8]) + seeded_plans(consensus, seeds[8:])


def _paper_stack(seed: int) -> list[TrialPlan]:
    # Many short multi-hop trials (D about 4): a minimum separation of 4
    # keeps the length ratio near 4, hence the Ack budget short, and
    # eight trials average out how much each seed's disk costs.
    trials = 8
    seeds = spawn_trial_seeds(2 * trials, seed=seed)
    return [
        TrialPlan(
            deployment=DeploymentSpec.of(
                "uniform_disk", n=32, radius=24.0, min_separation=4.0,
                seed=seeds[trials + t],
            ),
            stack="combined",
            workload="local_broadcast",
            record_physical=True,
            seed=seeds[t],
            label=f"paper-stack#t{t}",
        )
        for t in range(trials)
    ]


WORKLOADS: dict[str, Callable[[int], list[TrialPlan]]] = {
    "decay-sweep": _decay_sweep,
    "sparse-cold": _sparse_cold,
    "protocol-sweep": _protocol_sweep,
    "paper-stack": _paper_stack,
}


def make_plans(workload: str, seed: int) -> list[TrialPlan]:
    """The workload's plan list for one seed."""
    return WORKLOADS[workload](seed)


def trial_digest(result) -> str:
    """A short, exact fingerprint of one ``TrialResult``.

    ``repr`` of the field tuple is exact for ints and floats (shortest
    round-trip form), so equal digests mean dataclass-equal results.
    """
    return hashlib.sha256(repr(astuple(result)).encode()).hexdigest()[:16]


def check(plan: TrialPlan, result) -> str | None:
    """Seed-independent sanity checks; the reason a result is wrong."""
    if result.label != plan.display_label or result.seed != plan.seed:
        return "result does not belong to its plan"
    if result.slots < 1 or result.transmissions < 1:
        return "trial did no work"
    if plan.workload == "fixed_slots":
        if result.slots != plan.option("slots"):
            return f"ran {result.slots} slots, planned {plan.option('slots')}"
    elif plan.workload == "smb":
        if result.completion is None:
            return "broadcast did not complete"
    elif plan.workload == "consensus":
        if len(result.extra_value("decisions", ())) != result.n:
            return "consensus is missing decisions"
    elif result.ack_completeness != 1.0 or not result.approg_latencies:
        return "local broadcast left messages unacknowledged"
    return None


# Per-trial digests at DEFAULT_SEED.  All executors are bit-identical by
# contract (these were checked on the numpy, object and sequential
# executors too), so any correct change to the program reproduces them.
PINNED: dict[str, tuple[str, ...]] = {
    "decay-sweep": (
        "9b21f3f307954c3b",
        "d9a076ef678295c3",
        "5ad75295e9c967df",
        "db91b150c9a14723",
        "c1bb820ecfb72c53",
        "4476a3917ca63bc9",
        "d6a2dc6c9d2138af",
        "9fea07c48ca00bde",
    ),
    "sparse-cold": (
        "8e2d076885428d7a",
        "7d992e908f588a05",
    ),
    "protocol-sweep": (
        "25b7f9c7cf5abfcf",
        "14d90f237e5d33e4",
        "7a04933c19a2caf9",
        "2c279571445bb447",
        "ac9eaf492d13d8cb",
        "8c03161b1d6ca02a",
        "0e928ab57e878094",
        "55022e16f8835e56",
        "ed91c34f308499f3",
        "6cfefb2e45b2f4a7",
        "7bf07ee9499a1f61",
        "683a8adcb07adb0f",
        "586da765c128ad4b",
        "8171ebc376e4f0d3",
        "40c9c2e52b7bdae9",
        "01900385dc10a4b5",
    ),
    "paper-stack": (
        "cc83d0f7a9956ce5",
        "0da118d95b60f425",
        "f6d8ac0d826e8b8e",
        "72301a57e2037a8c",
        "f637528101619e0f",
        "4d0dd3f3cda550f8",
        "9e8dfcfbb01d05e4",
        "ae5da8f44a03154b",
    ),
}
