#!/usr/bin/env python
"""native-smoke: drive the C kernel's threaded + sparse branches once.

The ThreadSanitizer leg of the CI matrix needs a short, deterministic
workload that actually exercises the code the sanitizer instruments —
the pthread pool partitioning the trials axis, the CSR decode branch
and the one-slot-per-call adapter path — without dragging the whole
pytest session under TSan's ~10x slowdown.  This script runs one dense
Decay sweep, one sparse-exact Decay sweep and one consensus sweep
(protocol clients attached: every slot is a kernel call whose pool is
created and joined around Python's busy / awake / seen / tx_mid writes
and ``kernel.reset``) at ``--threads`` and asserts each dataclass-equal
to the single-thread run; any data race the sanitizer spots fails the
process via TSan's own exit code.

Run as ``python scripts/native_smoke.py --threads 4`` (with
``LD_PRELOAD=$(gcc -print-file-name=libtsan.so)`` when the kernel was
compiled with ``-fsanitize=thread``).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro import native  # noqa: E402
from repro.experiments import (  # noqa: E402
    DeploymentSpec,
    ExecutionPolicy,
    TrialPlan,
    run_trials,
    seeded_plans,
)
from repro.simulation.rng import spawn_trial_seeds  # noqa: E402
from repro.sinr.params import SparseResolution  # noqa: E402

N = 64
RADIUS = 14.0
TRIALS = 8
SLOTS = 300
WAVES = 2


def _plans(sparse: bool, workload: str = "fixed_slots") -> list[TrialPlan]:
    options = (
        TrialPlan.pack_options(waves=WAVES)
        if workload == "consensus"
        else TrialPlan.pack_options(slots=SLOTS)
    )
    base = TrialPlan(
        deployment=DeploymentSpec.of(
            "uniform_disk", n=N, radius=RADIUS, seed=33
        ),
        stack="decay",
        workload=workload,
        options=options,
        label="native-smoke",
        record_physical=False,
    )
    if sparse:
        # min_n=1 forces the resolver on below the production
        # crossover so the CSR branch, not the dense one, runs.
        base = dataclasses.replace(
            base,
            params=dataclasses.replace(
                base.params,
                sparse=SparseResolution(mode="exact", min_n=1),
            ),
        )
    return seeded_plans(base, spawn_trial_seeds(TRIALS, seed=5))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threads", type=int, default=4)
    args = parser.parse_args()

    if not native.available():
        print("native-smoke: kernel not built (run `make native`)")
        return 1

    legs = (
        ("dense", False, "fixed_slots"),
        ("sparse-exact", True, "fixed_slots"),
        ("consensus", False, "consensus"),
    )
    for label, sparse, workload in legs:
        plans = _plans(sparse, workload)
        one = run_trials(
            plans, ExecutionPolicy(native=True, native_threads=1)
        )
        many = run_trials(
            plans,
            ExecutionPolicy(native=True, native_threads=args.threads),
        )
        if one != many:
            print(
                f"native-smoke: {label} results diverge at "
                f"{args.threads} threads"
            )
            return 1
        if not all(result.transmissions > 0 for result in many):
            print(f"native-smoke: {label} sweep did no work")
            return 1
        slots = max(result.slots for result in many)
        print(
            f"native-smoke: {label} ok — {TRIALS} trials x {slots} "
            f"slots bit-identical at 1 vs {args.threads} threads"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
