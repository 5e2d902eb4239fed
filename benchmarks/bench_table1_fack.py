"""Table 1, row f_ack (Theorem 5.1).

Paper claim: acknowledgments complete in
``O(Δ·log(Λ/ε_ack) + log Λ·log(Λ/ε_ack))`` — *linear* in the degree Δ
with a polylog additive term.

Experiment: fixed-radius random disks of growing population (so Δ grows
while Λ stays put); every node broadcasts under Algorithm B.1; measured
mean/max ack latency is compared against the predicted shape.  We check
that (a) latency grows with Δ, (b) growth is at most mildly super-linear
(the Θ-shape), and (c) the completeness of acknowledgments stays high.

Both sweeps run through the experiment engine
(:func:`repro.experiments.run_trials`): the ε-sweep reuses one cached
deployment across its four trials and advances them as one columnar
batch.  Every plan here is a homogeneous Ack population under the
local-broadcast workload, so the engine auto-selects the columnar fast
path (:mod:`repro.vectorized`) — ``test_table1_fack_rides_fast_path``
pins that selection, and the engine's equivalence suite guarantees the
numbers are bit-identical to the object runtime's.
"""

from __future__ import annotations

import pytest

from repro.analysis.bounds import fack_upper_bound
from repro.analysis.harness import correlation_with_shape, format_table
from repro.experiments import DeploymentSpec, TrialPlan, run_trials
from repro.vectorized import vector_eligible

POPULATIONS = (8, 16, 32)
RADIUS = 9.0
EPS_ACK = 0.1


def sweep_plans() -> list[TrialPlan]:
    """The Δ-sweep plans (shared by the sweep and the fast-path pin)."""
    return [
        TrialPlan(
            deployment=DeploymentSpec.of(
                "uniform_disk", n=n, radius=RADIUS, seed=100 + n
            ),
            stack="ack",
            workload="local_broadcast",
            seed=n,
            eps_ack=EPS_ACK,
            label=f"fack-n{n}",
        )
        for n in POPULATIONS
    ]


def run_sweep() -> list[dict]:
    plans = sweep_plans()
    rows = []
    for result in run_trials(plans):
        rows.append(
            {
                "n": result.n,
                "delta": result.degree,
                "lam": result.lam,
                "mean_latency": result.ack_mean_latency,
                "max_latency": result.ack_max_latency,
                "completeness": result.ack_completeness,
                "predicted": fack_upper_bound(
                    result.degree, result.lam, EPS_ACK
                ),
            }
        )
    return rows


@pytest.mark.benchmark(group="table1-fack")
def test_table1_fack(benchmark, emit):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    emit(
        "",
        "=== Table 1 / f_ack (Theorem 5.1): ack latency vs degree ===",
        format_table(
            ["n", "Δ", "Λ", "mean f_ack", "max f_ack", "complete", "Θ-shape"],
            [
                [
                    r["n"],
                    r["delta"],
                    f"{r['lam']:.1f}",
                    f"{r['mean_latency']:.0f}",
                    r["max_latency"],
                    f"{r['completeness']:.2f}",
                    f"{r['predicted']:.0f}",
                ]
                for r in rows
            ],
        ),
    )

    # Shape assertions: latency grows with Δ and tracks the bound.
    latencies = [r["mean_latency"] for r in rows]
    predicted = [r["predicted"] for r in rows]
    assert latencies == sorted(latencies), "f_ack must grow with Δ"
    shape = correlation_with_shape(latencies, predicted)
    emit(
        f"shape check: pearson={shape['pearson']:.3f} "
        f"ratio-spread={shape['ratio_spread']:.2f}"
    )
    assert shape["pearson"] > 0.8
    # Acknowledgments overwhelmingly complete (1 - eps_ack modulo noise).
    assert all(r["completeness"] >= 0.7 for r in rows)


def test_table1_fack_rides_fast_path():
    """Every f_ack plan is columnar-eligible: the engine's default
    auto-selection runs this whole benchmark on the vectorized path."""
    assert all(vector_eligible(plan) for plan in sweep_plans())


def run_eps_sweep() -> list[dict]:
    """The other axis of Theorem 5.1: f_ack ~ log(Λ/ε_ack).

    Four trials over one deployment — one cache entry, one columnar
    batch.
    """
    deployment = DeploymentSpec.of(
        "uniform_disk", n=16, radius=RADIUS, seed=116
    )
    eps_values = (0.4, 0.1, 0.01, 0.001)
    plans = [
        TrialPlan(
            deployment=deployment,
            stack="ack",
            workload="local_broadcast",
            seed=11,
            eps_ack=eps,
            label=f"fack-eps{eps}",
        )
        for eps in eps_values
    ]
    rows = []
    for eps, result in zip(eps_values, run_trials(plans)):
        rows.append(
            {
                "eps": eps,
                "mean_latency": result.ack_mean_latency,
                "completeness": result.ack_completeness,
                "predicted": fack_upper_bound(result.degree, result.lam, eps),
            }
        )
    return rows


@pytest.mark.benchmark(group="table1-fack")
def test_table1_fack_eps_dependence(benchmark, emit):
    rows = benchmark.pedantic(run_eps_sweep, rounds=1, iterations=1)
    emit(
        "",
        "=== Table 1 / f_ack (Thm 5.1): log(Λ/ε) dependence ===",
        format_table(
            ["ε_ack", "mean f_ack", "complete", "Θ-shape"],
            [
                [
                    r["eps"],
                    f"{r['mean_latency']:.0f}",
                    f"{r['completeness']:.2f}",
                    f"{r['predicted']:.0f}",
                ]
                for r in rows
            ],
        ),
    )
    latencies = [r["mean_latency"] for r in rows]
    # Tighter guarantees cost more slots...
    assert latencies == sorted(latencies)
    # ...but only logarithmically: 400x tighter ε costs < ~8x the time
    # (a linear-in-1/ε law would cost 400x).
    assert latencies[-1] / latencies[0] < 8.0
    shape = correlation_with_shape(latencies, [r["predicted"] for r in rows])
    emit(
        f"shape check: pearson={shape['pearson']:.3f} "
        f"(logarithmic cost of tighter ε)"
    )
    assert shape["pearson"] > 0.8
