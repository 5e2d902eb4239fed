"""Table 2 (§2.1): global SMB — this paper vs prior approaches.

The paper's Table 2 is an *analytic* comparison of three bounds; we
reproduce it twice:

1. **Formula grid** — evaluate the three Θ-expressions across the
   parameter space and check the paper's claims: ours improves on
   Daum et al. [14] in the *full* range (they carry an extra
   multiplicative log n on the D-term), and the crossover against
   Jurdziński et al. [32] sits at ``log^{α+1} Λ ≈ log² n``.

2. **Empirical run** — two executable stacks on one dense multihop
   deployment (clusters along a line, so contention is high and the
   MAC actually matters):

   * *ours*: BSMB over Algorithm 11.1, constant per-epoch ε_approg
     (the localized analysis lets epochs run with weak guarantees);
   * *Daum-style [14]*: BSMB forwarding over the standalone epoch
     machinery (Algorithm 9.1 without any ack layer — that is what
     [14]'s global algorithm is) at w.h.p. parameters ε = 1/n², paying
     the multiplicative log n in epoch length;
   * *Decay baseline*: BSMB over the graph-model-style
     :class:`~repro.core.decay.DecayMacLayer`, reported for context
     (Decay does not appear in the paper's Table 2; its *progress*
     separation lives in Theorem 8.1 and is measured by
     ``bench_thm81_decay_approg.py``).

   All three stacks run as :class:`TrialPlan`\\ s through the batched
   experiment engine, each on the columnar protocol kernels
   (``test_table2_stacks_ride_fast_path``).
"""

from __future__ import annotations

import pytest

from repro.analysis.bounds import (
    smb_bound_daum,
    smb_bound_jurdzinski,
    smb_upper_bound,
)
from repro.analysis.harness import format_table
from repro.core.approx_progress import ApproxProgressConfig, EpochSchedule
from repro.experiments import (
    DeploymentSpec,
    TrialPlan,
    deployment_artifacts,
    resolve_deployment,
    run_trials,
)
from repro.sinr.params import SINRParameters
from repro.vectorized import vector_eligible


def formula_grid() -> list[dict]:
    rows = []
    for d in (8, 64):
        for n in (64, 4096):
            for lam in (4.0, 256.0):
                rows.append(
                    {
                        "D": d,
                        "n": n,
                        "lam": lam,
                        "ours": smb_upper_bound(d, n, 1.0 / n, lam, 3.0),
                        "daum": smb_bound_daum(d, n, lam, 3.0),
                        "jurdzinski": smb_bound_jurdzinski(d, n),
                    }
                )
    return rows


def dense_line_spec(seed=5) -> DeploymentSpec:
    """Five dense clusters along a line: multihop AND high contention."""
    params = SINRParameters()
    spacing = params.approx_range * 0.8
    return DeploymentSpec.of(
        "cluster_deployment",
        n_clusters=5,
        nodes_per_cluster=7,
        cluster_radius=2.0,
        cluster_spacing=spacing,
        min_separation=1.0,
        seed=seed,
    )


def empirical_plans() -> tuple[list[TrialPlan], dict]:
    """The three head-to-head stacks as engine plans, plus context."""
    params = SINRParameters()
    deployment = dense_line_spec()
    points = resolve_deployment(deployment)
    n = len(points)
    metrics = deployment_artifacts(points, params).metrics

    # Shared knowledge: the polynomial bound on Lambda.
    lam = max(metrics.lam, 2.0)
    ours_config = ApproxProgressConfig(
        lambda_bound=lam, eps_approg=0.125, alpha=params.alpha,
        t_scale=0.25,
    )
    daum_config = ApproxProgressConfig(
        lambda_bound=lam,
        eps_approg=1.0 / (n * n),
        alpha=params.alpha,
        t_scale=0.25,
    )
    common = dict(
        deployment=deployment,
        workload="smb",
        seed=1,
        options=TrialPlan.pack_options(source=0),
    )
    plans = [
        TrialPlan(
            stack="combined",
            eps_ack=0.1,
            approg_config=ours_config,
            label="table2-ours",
            **common,
        ),
        TrialPlan(
            stack="approg",
            approg_config=daum_config,
            label="table2-daum",
            **common,
        ),
        TrialPlan(stack="decay", label="table2-decay", **common),
    ]
    context = {
        "n": n,
        "delta": metrics.degree,
        "lam": lam,
        "epoch_ours": EpochSchedule(ours_config).epoch_slots,
        "epoch_daum": EpochSchedule(daum_config).epoch_slots,
    }
    return plans, context


def run_empirical() -> dict:
    plans, row = empirical_plans()
    ours, daum, decay = run_trials(plans)
    row.update(
        ours=ours.completion, daum=daum.completion, decay=decay.completion
    )
    return row


@pytest.mark.benchmark(group="table2-smb")
def test_table2_formula_grid(benchmark, emit):
    rows = benchmark.pedantic(formula_grid, rounds=1, iterations=1)
    emit(
        "",
        "=== Table 2 (analytic): SMB bounds across the parameter space ===",
        format_table(
            ["D", "n", "Λ", "ours", "[14] Daum", "[32] Jurdziński"],
            [
                [
                    r["D"],
                    r["n"],
                    f"{r['lam']:.0f}",
                    f"{r['ours']:.0f}",
                    f"{r['daum']:.0f}",
                    f"{r['jurdzinski']:.0f}",
                ]
                for r in rows
            ],
        ),
    )
    # Paper claim 1: we improve on [14] in the full range.
    for r in rows:
        assert r["ours"] <= r["daum"] * 1.01
    # Paper claim 2: the [32] comparison flips with the regime.
    we_win = [r for r in rows if r["ours"] < r["jurdzinski"]]
    they_win = [r for r in rows if r["jurdzinski"] < r["ours"]]
    assert we_win and they_win, "expected a crossover against [32]"
    emit(
        f"crossover vs [32]: we win in {len(we_win)}/8 cells "
        "(small Λ / large n), they win in the rest — as §2.1 states."
    )


@pytest.mark.benchmark(group="table2-smb")
def test_table2_empirical_stacks(benchmark, emit):
    row = benchmark.pedantic(run_empirical, rounds=1, iterations=1)
    emit(
        "",
        "=== Table 2 (empirical): three stacks, dense 5-cluster line ===",
        format_table(
            ["n", "Δ", "Λ", "ours", "Daum-style [14]", "Decay MAC"],
            [
                [
                    row["n"],
                    row["delta"],
                    f"{row['lam']:.1f}",
                    row["ours"],
                    row["daum"],
                    row["decay"],
                ]
            ],
        ),
        f"epoch length: ours={row['epoch_ours']} vs "
        f"Daum-style={row['epoch_daum']} "
        "(the multiplicative log n shows up directly in the epoch)",
    )
    # Who wins, as Table 2 predicts: the layered stack with the
    # localized (constant-ε) analysis beats the w.h.p.-forced epochs.
    assert row["ours"] < row["daum"]
    # Mechanism check: the forced w.h.p. parameters inflate the epoch.
    assert row["epoch_daum"] > 1.5 * row["epoch_ours"]
    # The Decay baseline ran to completion.
    assert row["decay"] > 0


def test_table2_stacks_ride_fast_path():
    """All three head-to-head plans are columnar-eligible: the Decay-MAC
    baseline, and the two stacks with the epoch machinery (Algorithms
    11.1 and 9.1), whose label spaces fit numpy's 32-bit draw path."""
    plans, _context = empirical_plans()
    assert all(vector_eligible(plan) for plan in plans)
