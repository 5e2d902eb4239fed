"""Table 1, row f_approg (Theorem 9.1) — the paper's headline bound.

Paper claim: approximate progress completes in
``O((log^α Λ + log*(1/ε))·log Λ·log(1/ε))`` — crucially **independent of
the degree Δ** (contrast Theorem 6.1's f_prog >= Δ) and polylogarithmic
in Λ.

Two sweeps on Algorithm 9.1 alone, run through the experiment engine
on its columnar Algorithm 9.1 kernel (one batch per node count), over
the engine's shared artifact cache:

1. **Δ-sweep**: fixed-area disks with growing population.  Δ triples;
   measured f_approg must stay (nearly) flat — the separation that
   justifies the approximate-progress relaxation.
2. **Λ-sweep**: same population at growing minimum separation (shrinking
   Λ).  Measured f_approg must grow with Λ, tracking the polylog shape.
"""

from __future__ import annotations

import pytest

from repro.analysis.bounds import fapprog_upper_bound
from repro.analysis.harness import format_table
from repro.core.approx_progress import ApproxProgressConfig
from repro.experiments import (
    DeploymentSpec,
    TrialPlan,
    deployment_artifacts,
    resolve_deployment,
    run_trials,
)
from repro.sinr.params import SINRParameters

EPS = 0.1
T_SCALE = 0.25  # same Θ-shape, smaller leading constant (DESIGN.md §3)


def plan_for(
    deployment: DeploymentSpec, params: SINRParameters, seed: int
) -> TrialPlan:
    """Algorithm 9.1 saturated for two epochs, Λ measured per deployment."""
    points = resolve_deployment(deployment)
    lam = max(2.0, deployment_artifacts(points, params).metrics.lam)
    return TrialPlan(
        deployment=deployment,
        stack="approg",
        workload="fixed_slots",
        seed=seed,
        params=params,
        approg_config=ApproxProgressConfig(
            lambda_bound=lam,
            eps_approg=EPS,
            alpha=params.alpha,
            t_scale=T_SCALE,
        ),
        options=TrialPlan.pack_options(epochs=2),
    )


def rows_from(results, params: SINRParameters) -> list[dict]:
    return [
        {
            "n": r.n,
            "delta": r.degree,
            "lam": r.lam,
            "epoch": r.extra_value("epoch_slots"),
            "episodes": r.approg_episodes,
            "satisfied": r.approg_satisfied,
            "median": r.approg_median_latency,
            "predicted": fapprog_upper_bound(
                max(r.lam, 2.0), EPS, params.alpha
            ),
        }
        for r in results
    ]


def run_delta_sweep() -> list[dict]:
    params = SINRParameters()
    plans = [
        plan_for(
            DeploymentSpec.of(
                "uniform_disk", n=n, radius=14.0, seed=200 + n
            ),
            params,
            seed=n,
        )
        for n in (20, 40, 80)
    ]
    return rows_from(run_trials(plans), params)


def run_lambda_sweep() -> list[dict]:
    params = SINRParameters()
    plans = [
        plan_for(
            DeploymentSpec.of(
                "uniform_disk",
                n=24,
                radius=16.0,
                min_separation=sep,
                seed=300 + int(sep),
            ),
            params,
            seed=int(sep),
        )
        for sep in (4.0, 2.0, 1.0)  # Λ grows as separation shrinks
    ]
    return rows_from(run_trials(plans), params)


@pytest.mark.benchmark(group="table1-fapprog")
def test_fapprog_flat_in_delta(benchmark, emit):
    rows = benchmark.pedantic(run_delta_sweep, rounds=1, iterations=1)
    emit(
        "",
        "=== Table 1 / f_approg (Thm 9.1): independence from Δ ===",
        format_table(
            ["n", "Δ", "Λ", "epoch", "episodes", "ok", "median f_approg"],
            [
                [
                    r["n"],
                    r["delta"],
                    f"{r['lam']:.1f}",
                    r["epoch"],
                    r["episodes"],
                    r["satisfied"],
                    f"{r['median']:.0f}",
                ]
                for r in rows
            ],
        ),
    )
    # All episodes satisfied within the run.
    for r in rows:
        assert r["satisfied"] >= 0.9 * r["episodes"]
    # Δ quadruples across the sweep; f_approg must NOT track it: allow
    # at most 2x drift while Δ grows > 3x (it tracks Λ, not Δ).
    medians = [r["median"] for r in rows]
    deltas = [r["delta"] for r in rows]
    assert deltas[-1] >= 3 * deltas[0]
    assert medians[-1] <= 2.0 * medians[0], (
        f"f_approg tracked Δ: medians={medians} deltas={deltas}"
    )
    emit(
        f"Δ grew {deltas[0]} -> {deltas[-1]} "
        f"while median f_approg moved {medians[0]:.0f} -> {medians[-1]:.0f}"
    )


@pytest.mark.benchmark(group="table1-fapprog")
def test_fapprog_grows_with_lambda(benchmark, emit):
    rows = benchmark.pedantic(run_lambda_sweep, rounds=1, iterations=1)
    emit(
        "",
        "=== Table 1 / f_approg (Thm 9.1): polylog growth in Λ ===",
        format_table(
            ["Λ", "Δ", "epoch", "median f_approg", "Θ-shape"],
            [
                [
                    f"{r['lam']:.1f}",
                    r["delta"],
                    r["epoch"],
                    f"{r['median']:.0f}",
                    f"{r['predicted']:.0f}",
                ]
                for r in rows
            ],
        ),
    )
    medians = [r["median"] for r in rows]
    lams = [r["lam"] for r in rows]
    assert lams == sorted(lams)
    assert medians == sorted(medians), "f_approg must grow with Λ"
    # Sub-polynomial growth: Λ grew ~4x, latency must grow < 4x the
    # ratio (the bound is polylog, so much slower than linear in Λ...
    # but constants make small sweeps noisy; assert sub-quadratic).
    assert medians[-1] / medians[0] < (lams[-1] / lams[0]) ** 2
