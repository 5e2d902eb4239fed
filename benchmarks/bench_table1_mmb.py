"""Table 1, row global MMB (Theorem 12.7).

Paper claim: k-message broadcast completes in
``O(D̃·log^{α+1} Λ + k·(Δ + polylog)·log(nk/ε))`` — the D-term and the
k-term are *additive*.  The baseline pipeline bound from per-hop local
broadcast ([29], §2.1) is multiplicative: ``O((D + k)·(Δ·log n + log² n))``.

Experiment: BMMB over the combined stack on a fixed line network with
growing k (the ``mmb`` workload of the experiment engine — all four
trials share one cached deployment and run on the object path); the
per-message marginal cost (slope in k) must stay roughly constant
(additive k-term) rather than scale with D.

A second sweep pushes k to 16 on a 20-hop line over the standalone
Algorithm B.1 MAC (the protocols are MAC-agnostic): the FIFO pipeline's
additivity claim is the same, and the homogeneous Ack population rides
the columnar protocol kernels end-to-end
(``test_table1_mmb_scaled_rides_fast_path`` pins the selection).
"""

from __future__ import annotations

import pytest

from repro.analysis.bounds import mmb_upper_bound
from repro.analysis.harness import format_table
from repro.core.approx_progress import ApproxProgressConfig
from repro.experiments import DeploymentSpec, TrialPlan, run_trials
from repro.sinr.params import SINRParameters
from repro.vectorized import vector_eligible

KS = (1, 2, 4, 8)
HOPS = 4
SCALED_KS = (2, 4, 8, 16)
SCALED_HOPS = 20
SCALED_EPS_ACK = 0.01
EPS_MMB = 0.1


def run_sweep() -> list[dict]:
    params = SINRParameters()
    spacing = params.approx_range * 0.9  # keeps G_{1-2eps} connected too
    deployment = DeploymentSpec.of(
        "line_deployment", n=HOPS + 1, spacing=spacing
    )
    plans = [
        TrialPlan(
            deployment=deployment,
            stack="combined",
            workload="mmb",
            seed=k,
            params=params,
            approg_config=ApproxProgressConfig(
                lambda_bound=2.0,
                eps_approg=0.2,
                alpha=params.alpha,
                t_scale=0.25,
            ),
            options=TrialPlan.pack_options(
                arrivals=((0, tuple(f"msg-{j}" for j in range(k))),)
            ),
            label=f"mmb-k{k}",
        )
        for k in KS
    ]
    rows = []
    for k, result in zip(KS, run_trials(plans)):
        rows.append(
            {
                "k": k,
                "completion": result.completion,
                "predicted": mmb_upper_bound(
                    result.diameter_tilde or result.n,
                    k,
                    result.degree,
                    result.n,
                    EPS_MMB,
                    max(result.lam, 2.0),
                    params.alpha,
                ),
            }
        )
    return rows


@pytest.mark.benchmark(group="table1-mmb")
def test_table1_mmb(benchmark, emit):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    completions = [r["completion"] for r in rows]
    # Marginal cost per extra message between consecutive k values.
    margins = [
        (completions[i + 1] - completions[i]) / (KS[i + 1] - KS[i])
        for i in range(len(KS) - 1)
    ]
    emit(
        "",
        "=== Table 1 / global MMB (Thm 12.7): additive k-term ===",
        format_table(
            ["k", "completion slots", "Θ-shape"],
            [
                [r["k"], r["completion"], f"{r['predicted']:.0f}"]
                for r in rows
            ],
        ),
        f"per-message marginal slots: {[f'{m:.0f}' for m in margins]}",
    )
    assert completions == sorted(completions), "MMB must grow with k"
    # Additivity: the marginal cost must not blow up with k (a D·k
    # multiplicative law would make late margins ~D times earlier ones).
    assert max(margins) <= 4.0 * max(min(margins), 1.0), (
        f"marginal costs suggest multiplicative D·k: {margins}"
    )


def scaled_plans() -> list[TrialPlan]:
    """BMMB over Algorithm B.1: k up to 16 on a 20-hop line (columnar)."""
    params = SINRParameters()
    spacing = params.approx_range * 0.9
    deployment = DeploymentSpec.of(
        "line_deployment", n=SCALED_HOPS + 1, spacing=spacing
    )
    return [
        TrialPlan(
            deployment=deployment,
            stack="ack",
            workload="mmb",
            seed=k,
            eps_ack=SCALED_EPS_ACK,
            options=TrialPlan.pack_options(
                arrivals=((0, tuple(f"msg-{j}" for j in range(k))),)
            ),
            max_slots=800_000,
            label=f"mmb-ack-k{k}",
        )
        for k in SCALED_KS
    ]


def run_scaled_sweep() -> list[dict]:
    return [
        {"k": k, "completion": result.completion}
        for k, result in zip(SCALED_KS, run_trials(scaled_plans()))
    ]


@pytest.mark.benchmark(group="table1-mmb")
def test_table1_mmb_scaled_fast_path(benchmark, emit):
    rows = benchmark.pedantic(run_scaled_sweep, rounds=1, iterations=1)
    completions = [r["completion"] for r in rows]
    margins = [
        (completions[i + 1] - completions[i])
        / (SCALED_KS[i + 1] - SCALED_KS[i])
        for i in range(len(SCALED_KS) - 1)
    ]
    emit(
        "",
        "=== Table 1 / global MMB at k=16 (Alg. B.1 MAC, columnar) ===",
        format_table(
            ["k", "completion slots"],
            [[r["k"], r["completion"]] for r in rows],
        ),
        f"per-message marginal slots: {[f'{m:.0f}' for m in margins]}",
    )
    assert completions == sorted(completions), "MMB must grow with k"
    # The additive k-term survives the deeper pipeline: late margins
    # stay within a small constant of early ones.
    assert max(margins) <= 4.0 * max(min(margins), 1.0), (
        f"marginal costs suggest multiplicative D·k: {margins}"
    )


def test_table1_mmb_scaled_rides_fast_path():
    """Every scaled plan is columnar-eligible: the engine's default
    auto-selection runs the k-sweep on the vectorized protocol
    kernels."""
    assert all(vector_eligible(plan) for plan in scaled_plans())
