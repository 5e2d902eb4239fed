"""Columnar fast path: before/after on 1000-node, 8-seed sweeps.

The PR-1 engine already batches the SINR physics of a sweep into one
tensor reduction, but every simulated slot still dispatches N Python
``on_slot`` calls per trial.  The columnar executor
(:mod:`repro.vectorized`) replaces that per-node layer with
struct-of-arrays kernel steps — this benchmark measures exactly that
substitution: the same plans run through ``run_trials`` with
``vectorize=False`` (the PR-1 object path) and ``vectorize=True`` (the
columnar path), asserting bit-identical results and recording the
single-core timings to JSON files at the repo root, the perf
trajectory the CI ``bench-regression`` gate guards
(``scripts/bench_compare.py``).

Two sweeps, two output files:

* **MAC layer** (``BENCH_vectorized.json``): 1000 nodes on a sparse
  disk, every node broadcasting under Decay with a conservative
  polynomial contention bound (Ñ = 2^30 — long probability sweeps, the
  regime Theorem 8.1's Ω(Ñ·log(1/ε)) budget punishes), observed for a
  fixed 1000-slot window.  ``record_physical=False`` (the
  production-throughput configuration, where the per-node dispatch
  dominates) must win by >= 3x; full tracing is reported for context.

* **Protocol layer** (``BENCH_protocols.json``): the three absMAC
  protocols of the paper's Table 1 — BSMB across a 100-cluster line
  (D ≈ 99), BMMB (k = 2) and flood consensus on uniform disks — each a
  1000-node, 8-seed sweep over the columnar Decay MAC, run to
  completion on both executors.  Counters-only; the protocol fast path
  (:mod:`repro.vectorized.protocols`) must keep every row bit-identical
  and beat the object engine >= 2.5x in aggregate.

Every row carries a ``backend`` field naming what ran the columnar
leg's slots: ``"native"`` when the compiled kernel (:mod:`repro.native`)
is selected and the row is counters-only (protocol clients included,
one slot per kernel call), ``"numpy"`` otherwise.
``scripts/bench_compare.py`` warn-skips a speedup comparison across
backends, so a host without a C compiler is not gated against a
native-recorded baseline.

Timings use ``time.process_time`` (single-core CPU seconds), best of
``rounds``, so a noisy CI neighbour cannot fake a regression or a win.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro import native
from repro.analysis.harness import format_table
from repro.core.decay import DecayConfig
from repro.experiments import (
    DeploymentSpec,
    ExecutionPolicy,
    TrialPlan,
    deployment_artifacts,
    resolve_deployment,
    run_trials,
    seeded_plans,
)
from repro.simulation.rng import spawn_trial_seeds
from repro.sinr.params import SINRParameters

N = 1000
SEEDS = 8
SLOTS = 1000
RADIUS = 175.0
CONTENTION_BOUND = 2**30  # conservative poly(N) bound: 30-step sweeps
ROUNDS = int(os.environ.get("REPRO_BENCH_ROUNDS", "2"))
# The absolute speedup bars below are the PR acceptance criteria,
# asserted on full `make bench` runs.  `make bench-record` (the CI
# bench-regression job) sets REPRO_BENCH_STRICT=0 to relax them —
# there the gate is *relative*: scripts/bench_compare.py fails when
# the recorded speedup drops >20% below the committed baseline, and a
# hard absolute bar firing first would contradict that tolerance.
# Bit-identity is asserted unconditionally in both modes.
STRICT = os.environ.get("REPRO_BENCH_STRICT", "1") != "0"
MIN_SPEEDUP = 3.0
_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = _ROOT / "BENCH_vectorized.json"

# Protocol-layer sweep (BSMB / BMMB / consensus over the Decay MAC).
# The long probability sweeps keep per-slot transmitter counts low so
# the executors' dispatch layers — not the shared SINR physics — are
# what the comparison times; ack_factor compresses the otherwise
# Ñ-proportional acknowledgment budget back to a few hundred slots
# (DecayConfig exposes the leading constant exactly for this).
PROTOCOL_SEEDS = 8
SMB_CLUSTERS = 100  # 1000 nodes: a D≈99 line of 10-node clusters
SMB_PER_CLUSTER = 10
SMB_CLUSTER_RADIUS = 3.0
MMB_N = 1000
MMB_RADIUS = 80.0
MMB_TOKENS = 2
CONS_N = 1000
CONS_RADIUS = 110.0
CONS_WAVES = 2
LONG_SWEEP = DecayConfig(contention_bound=2**20, ack_factor=1.7e-5)
MID_SWEEP = DecayConfig(contention_bound=4096.0, ack_factor=0.0143)
MIN_PROTOCOL_SPEEDUP = 2.5  # aggregate over the three protocol rows
MIN_PROTOCOL_ROW_SPEEDUP = 1.8  # every single row, with CI headroom
PROTOCOL_OUTPUT = _ROOT / "BENCH_protocols.json"


def make_plans(record_physical: bool) -> list[TrialPlan]:
    base = TrialPlan(
        deployment=DeploymentSpec.of(
            "uniform_disk", n=N, radius=RADIUS, seed=9
        ),
        stack="decay",
        workload="fixed_slots",
        options=TrialPlan.pack_options(slots=SLOTS),
        decay_config=DecayConfig(contention_bound=CONTENTION_BOUND),
        record_physical=record_physical,
        label="vec-decay",
    )
    return seeded_plans(base, spawn_trial_seeds(SEEDS, seed=7))


def columnar_backend(record_physical: bool) -> str:
    """The backend the columnar leg's slots run on: the C kernel takes
    counters-only batches whenever it is selected; physical tracing
    always runs the numpy step."""
    if native.resolve_backend() and not record_physical:
        return "native"
    return "numpy"


def time_mode(plans, vectorize: bool, rounds: int):
    """Best-of-``rounds`` single-core timing of one executor."""
    best = None
    results = None
    for _ in range(rounds):
        start = time.process_time()
        results = run_trials(plans, ExecutionPolicy(vectorize=vectorize))
        elapsed = time.process_time() - start
        best = elapsed if best is None else min(best, elapsed)
    return results, best


def run_comparison(rounds: int = ROUNDS) -> dict:
    # Warm the shared artifact cache once: both executors ride the same
    # per-deployment distances/gains/graphs, so deriving them inside
    # either timed region would only add identical noise to both.
    plans = make_plans(record_physical=False)
    points = resolve_deployment(plans[0].deployment)
    deployment_artifacts(points, plans[0].params)

    rows = []
    for record_physical in (False, True):
        plans = make_plans(record_physical)
        vec, vec_time = time_mode(plans, vectorize=True, rounds=rounds)
        obj, obj_time = time_mode(plans, vectorize=False, rounds=rounds)
        rows.append(
            {
                "record_physical": record_physical,
                "backend": columnar_backend(record_physical),
                "object_seconds": round(obj_time, 3),
                "vector_seconds": round(vec_time, 3),
                "speedup": round(obj_time / vec_time, 2),
                "bit_identical": vec == obj,
                "transmissions_per_trial": int(vec[0].transmissions),
                "receptions_per_trial": int(vec[0].receptions),
            }
        )
    return {
        "benchmark": "vectorized-stack",
        "config": {
            "n": N,
            "seeds": SEEDS,
            "slots": SLOTS,
            "radius": RADIUS,
            "stack": "decay",
            "contention_bound": CONTENTION_BOUND,
            "timer": "process_time (single-core CPU s, best of rounds)",
            "rounds": rounds,
        },
        "rows": rows,
    }


@pytest.mark.benchmark(group="vectorized-stack")
def test_vectorized_decay_sweep_speedup(benchmark, emit):
    report = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    rows = report["rows"]
    emit(
        "",
        "=== Columnar fast path: 1000-node / 8-seed Decay sweep ===",
        format_table(
            ["tracing", "object (s)", "vector (s)", "speedup", "identical"],
            [
                [
                    "physical" if r["record_physical"] else "counters-only",
                    f"{r['object_seconds']:.2f}",
                    f"{r['vector_seconds']:.2f}",
                    f"{r['speedup']:.2f}x",
                    r["bit_identical"],
                ]
                for r in rows
            ],
        ),
        f"recorded to {OUTPUT.name}",
    )

    # The engine's defining contract, at scale.
    assert all(r["bit_identical"] for r in rows)
    if STRICT:
        # The acceptance bar: the counters-only sweep (per-node
        # dispatch dominant) must beat the PR-1 engine path by >= 3x
        # on one core.
        headline = rows[0]["speedup"]
        assert headline >= MIN_SPEEDUP, (
            f"columnar speedup regressed: {headline:.2f}x < {MIN_SPEEDUP}x"
        )
        # Full tracing adds identical per-event cost to both paths;
        # the columnar win must still be substantial.
        assert rows[1]["speedup"] >= 1.5


# -- the protocol-layer sweep (BSMB / BMMB / consensus) ---------------------


def protocol_plan_sets() -> list[tuple[str, list[TrialPlan]]]:
    """One seeded plan set per protocol, all columnar-eligible."""
    params = SINRParameters()
    spacing = params.approx_range * 0.8
    smb_deployment = DeploymentSpec.of(
        "cluster_deployment",
        n_clusters=SMB_CLUSTERS,
        nodes_per_cluster=SMB_PER_CLUSTER,
        cluster_radius=SMB_CLUSTER_RADIUS,
        cluster_spacing=spacing,
        min_separation=1.0,
        seed=5,
    )
    common = dict(
        stack="decay", record_physical=False, max_slots=200_000
    )
    bases = [
        (
            "smb",
            TrialPlan(
                deployment=smb_deployment,
                workload="smb",
                options=TrialPlan.pack_options(source=0),
                decay_config=LONG_SWEEP,
                label="vec-smb",
                **common,
            ),
        ),
        (
            "mmb",
            TrialPlan(
                deployment=DeploymentSpec.of(
                    "uniform_disk", n=MMB_N, radius=MMB_RADIUS, seed=9
                ),
                workload="mmb",
                options=TrialPlan.pack_options(
                    arrivals=(
                        (0, tuple(f"m{j}" for j in range(MMB_TOKENS))),
                    )
                ),
                decay_config=MID_SWEEP,
                label="vec-mmb",
                **common,
            ),
        ),
        (
            "consensus",
            TrialPlan(
                deployment=DeploymentSpec.of(
                    "uniform_disk", n=CONS_N, radius=CONS_RADIUS, seed=9
                ),
                workload="consensus",
                options=TrialPlan.pack_options(waves=CONS_WAVES),
                decay_config=LONG_SWEEP,
                label="vec-consensus",
                **common,
            ),
        ),
    ]
    return [
        (name, seeded_plans(base, spawn_trial_seeds(PROTOCOL_SEEDS, seed=7)))
        for name, base in bases
    ]


def run_protocol_comparison(rounds: int = 1) -> dict:
    plan_sets = protocol_plan_sets()
    # Warm the shared artifact cache (identical cost on both paths).
    for _name, plans in plan_sets:
        points = resolve_deployment(plans[0].deployment)
        deployment_artifacts(points, plans[0].params)

    rows = []
    for name, plans in plan_sets:
        vec, vec_time = time_mode(plans, vectorize=True, rounds=rounds)
        obj, obj_time = time_mode(plans, vectorize=False, rounds=rounds)
        completions = [r.completion for r in vec]
        rows.append(
            {
                "workload": name,
                "backend": columnar_backend(record_physical=False),
                "n": vec[0].n,
                "seeds": len(plans),
                "object_seconds": round(obj_time, 3),
                "vector_seconds": round(vec_time, 3),
                "speedup": round(obj_time / vec_time, 2),
                "bit_identical": vec == obj,
                "completion_min": int(min(completions)),
                "completion_max": int(max(completions)),
            }
        )
    total_obj = sum(r["object_seconds"] for r in rows)
    total_vec = sum(r["vector_seconds"] for r in rows)
    return {
        "benchmark": "vectorized-protocols",
        "config": {
            "seeds": PROTOCOL_SEEDS,
            "stack": "decay",
            "record_physical": False,
            "timer": "process_time (single-core CPU s, best of rounds)",
            "rounds": rounds,
        },
        "rows": rows,
        "aggregate_speedup": round(total_obj / max(total_vec, 1e-9), 2),
    }


@pytest.mark.benchmark(group="vectorized-protocols")
def test_vectorized_protocol_sweep_speedup(benchmark, emit):
    report = benchmark.pedantic(
        run_protocol_comparison,
        kwargs={"rounds": min(ROUNDS, 2)},
        rounds=1,
        iterations=1,
    )
    PROTOCOL_OUTPUT.write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )

    rows = report["rows"]
    emit(
        "",
        "=== Protocol fast path: 1000-node / 8-seed BSMB+BMMB+CONS ===",
        format_table(
            ["protocol", "object (s)", "vector (s)", "speedup", "identical"],
            [
                [
                    r["workload"],
                    f"{r['object_seconds']:.2f}",
                    f"{r['vector_seconds']:.2f}",
                    f"{r['speedup']:.2f}x",
                    r["bit_identical"],
                ]
                for r in rows
            ],
        ),
        f"aggregate speedup {report['aggregate_speedup']:.2f}x, "
        f"recorded to {PROTOCOL_OUTPUT.name}",
    )

    # Decode-for-decode identity of the protocol client kernels, at the
    # paper's headline scale.
    assert all(r["bit_identical"] for r in rows)
    if STRICT:
        # The PR-3 acceptance bar: counters-only protocol sweeps must
        # beat the object engine >= 2.5x in aggregate (and every row
        # must carry a clear per-protocol win of its own).
        aggregate = report["aggregate_speedup"]
        assert aggregate >= MIN_PROTOCOL_SPEEDUP, (
            f"protocol speedup regressed: {aggregate:.2f}x < "
            f"{MIN_PROTOCOL_SPEEDUP}x"
        )
        for r in rows:
            assert r["speedup"] >= MIN_PROTOCOL_ROW_SPEEDUP, (
                f"{r['workload']} speedup {r['speedup']:.2f}x < "
                f"{MIN_PROTOCOL_ROW_SPEEDUP}x"
            )
