"""Seeded golden pins: the full trial output, frozen as JSON fixtures.

The equivalence tests assert that executors agree *with each other*;
nothing so far pinned the absolute output against drift over time (a
subtly reordered reduction, a changed RNG consumption pattern and every
executor moves together — still "equivalent", silently different).
This suite freezes the complete :class:`~repro.experiments.plans.
TrialResult` dataclasses of one small {decay, ack} × {smb, consensus}
sweep, and of the paper's own MAC — Algorithm 11.1 (``combined``)
running local broadcast from every node and from a staggered subset,
and Algorithm 9.1 (``approg``) over two epochs of a fixed slot budget,
both with physical tracing — as committed fixtures under
``tests/golden/``.  The fixtures are written by the object path
(``vectorize=False``), so every executor is checked against an
absolute reference rather than only against a peer.

Any intentional physics/protocol change will fail these tests — that is
the point.  After reviewing the diff, regenerate with::

    PYTHONPATH=src python tests/test_golden_results.py --regenerate

and commit the updated fixtures alongside the change that moved them.

The sweep also rides the sparse-resolution contract: running the same
plans with exact sparse SINR resolution must reproduce the committed
fixtures bit for bit (the resolver's bit-identity promise, pinned
against an absolute reference rather than a peer executor).
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.core.approx_progress import ApproxProgressConfig, EpochSchedule
from repro.experiments import (
    DeploymentSpec,
    ExecutionPolicy,
    TrialPlan,
    run_trials,
    seeded_plans,
)
from repro.simulation.rng import spawn_trial_seeds
from repro.sinr.params import SINRParameters, SparseResolution

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SEEDS = 2
MAX_SLOTS = 300_000


def _smb_deployment() -> DeploymentSpec:
    spacing = SINRParameters().approx_range * 0.8
    return DeploymentSpec.of(
        "cluster_deployment",
        n_clusters=6,
        nodes_per_cluster=5,
        cluster_radius=3.0,
        cluster_spacing=spacing,
        min_separation=1.0,
        seed=5,
    )


def _consensus_deployment() -> DeploymentSpec:
    return DeploymentSpec.of("uniform_disk", n=30, radius=14.0, seed=9)


def _paper_mac_deployment() -> DeploymentSpec:
    return DeploymentSpec.of(
        "uniform_disk", n=12, radius=9.0, min_separation=3.0, seed=21
    )


# Two phases of short blocks per epoch (560 slots), so a few thousand
# slots cross est1, est2, every MIS round, the bcast block and an epoch
# boundary.
PAPER_MAC_CONFIG = ApproxProgressConfig(
    lambda_bound=4.0,
    eps_approg=0.2,
    alpha=3.0,
    t_scale=0.1,
    bcast_scale=1.0,
    mis_round_budget=3,
)


def golden_plans(params: SINRParameters | None = None) -> dict[str, list]:
    """The pinned sweep: {decay, ack} × {smb, consensus} at 2 seeds,
    plus Algorithms 11.1 and 9.1 (the paper's MAC) at one seed."""
    params = params or SINRParameters()
    sweep: dict[str, list] = {}
    mac_plans = {
        "combined_local_broadcast": dict(stack="combined"),
        "combined_local_broadcast_staggered": dict(
            stack="combined", broadcasters=(0, 4, 7)
        ),
        "approg_fixed_slots": dict(
            stack="approg",
            workload="fixed_slots",
            options=TrialPlan.pack_options(
                slots=2 * EpochSchedule(PAPER_MAC_CONFIG).epoch_slots
            ),
        ),
    }
    for name, fields in mac_plans.items():
        base = TrialPlan(
            deployment=_paper_mac_deployment(),
            params=params,
            approg_config=PAPER_MAC_CONFIG,
            max_slots=MAX_SLOTS,
            record_physical=True,
            label=f"golden-{name}",
            **fields,
        )
        sweep[name] = seeded_plans(base, spawn_trial_seeds(1, seed=13))
    for stack in ("decay", "ack"):
        for workload in ("smb", "consensus"):
            if workload == "smb":
                deployment = _smb_deployment()
                options = TrialPlan.pack_options(source=0)
            else:
                deployment = _consensus_deployment()
                options = TrialPlan.pack_options(waves=6)
            base = TrialPlan(
                deployment=deployment,
                stack=stack,
                workload=workload,
                options=options,
                params=params,
                max_slots=MAX_SLOTS,
                record_physical=False,
                label=f"golden-{stack}-{workload}",
            )
            sweep[f"{stack}_{workload}"] = seeded_plans(
                base, spawn_trial_seeds(SEEDS, seed=13)
            )
    return sweep


def serialize(results) -> list[dict]:
    """JSON-normalized full dataclass dump (tuples become lists)."""
    return json.loads(
        json.dumps([dataclasses.asdict(r) for r in results])
    )


def _fixture_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


@pytest.mark.parametrize("name", sorted(golden_plans()))
def test_results_match_golden_fixture(name):
    fixture = _fixture_path(name)
    assert fixture.is_file(), (
        f"missing golden fixture {fixture}; generate it with "
        "`PYTHONPATH=src python tests/test_golden_results.py --regenerate`"
    )
    expected = json.loads(fixture.read_text(encoding="utf-8"))
    actual = serialize(run_trials(golden_plans()[name]))
    assert actual == expected, (
        f"{name}: trial output drifted from the committed golden pin. "
        "If the change is intentional, review the diff and regenerate "
        "the fixtures (see module docstring)."
    )


@pytest.mark.parametrize("name", sorted(golden_plans()))
def test_sparse_exact_reproduces_golden_fixture(name):
    """Exact sparse resolution pinned against the absolute reference."""
    fixture = _fixture_path(name)
    assert fixture.is_file()
    expected = json.loads(fixture.read_text(encoding="utf-8"))
    # min_n=1 forces the resolver on at these n=30 fixtures; the default
    # crossover would silently fall back to dense and pin nothing.
    sparse = SINRParameters(sparse=SparseResolution(mode="exact", min_n=1))
    actual = serialize(run_trials(golden_plans(sparse)[name]))
    assert actual == expected


def test_fixtures_have_no_strays():
    """Every committed fixture corresponds to a pinned sweep entry."""
    committed = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    assert committed == set(golden_plans())


def _regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, plans in sorted(golden_plans().items()):
        # The object path is the reference every executor must match.
        payload = serialize(
            run_trials(plans, ExecutionPolicy(vectorize=False))
        )
        path = _fixture_path(name)
        path.write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote {path} ({len(payload)} trials)")


if __name__ == "__main__":
    if "--regenerate" not in sys.argv:
        print(__doc__)
        sys.exit(2)
    _regenerate()
