#!/usr/bin/env python
"""bench-smoke: run every benchmark script's smallest configuration.

`make bench` runs the full paper-artifact suite with its statistical
assertions — minutes of work that nobody runs on every push, which is
how benchmark scripts rot.  This smoke runner keeps them honest at CI
cost: it imports every ``benchmarks/bench_*.py`` module and executes
one *tiny* configuration of its sweep function (constants shrunk via
the registry below, statistical assertions skipped — those belong to
the full bench run), so an API drift anywhere under ``src/`` breaks the
build immediately instead of on the next hand-run of ``make bench``.

The registry is exhaustive by construction: a new ``bench_*.py``
without a smoke entry fails this script (and `make bench-smoke` /
CI with it), the same completeness contract `scripts/check_docs.py`
enforces for the catalogue.

Run via ``make bench-smoke``.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "benchmarks"))


def _shrink(module, **overrides):
    for name, value in overrides.items():
        if not hasattr(module, name):
            raise AttributeError(
                f"{module.__name__} has no constant {name!r}; "
                "update the smoke registry"
            )
        setattr(module, name, value)


def smoke_ablation_interleave(m):
    _shrink(m, BROADCASTERS=list(range(0, 24, 6)))
    return m.run_variant("ack only (Alg B.1)")


def smoke_ablation_label_space(m):
    return m.run_variant(label_space=4, n_pairs=2)


def smoke_ablation_q_thinning(m):
    _shrink(m, N_BALL=10)
    return m.run_variant(thinned=True)


def smoke_engine_batching(m):
    _shrink(m, TRIALS=2)
    plans = m.make_plans()
    legacy, _ = m.run_legacy(plans)
    shared, _ = m.run_object_path(plans)
    vectorized, _ = m.run_vectorized(plans)
    # the engine contract, in miniature
    assert shared == legacy and vectorized == legacy
    return len(vectorized)


def smoke_fading_robustness(m):
    _shrink(
        m,
        SHADOWING_DBS=(6.0,),
        POWER_SPREADS=(4.0,),
        ACK_N=10,
        ACK_RADIUS=8.0,
        ACK_SEEDS=1,
        PROTOCOL_SEEDS=1,
        SMB_CLUSTERS=3,
        SMB_PER_CLUSTER=3,
        MMB_N=10,
        MMB_RADIUS=7.0,
        CONS_N=10,
        CONS_RADIUS=7.0,
        CONS_WAVES=4,
        SPEEDUP_N=60,
        SPEEDUP_RADIUS=40.0,
        SPEEDUP_SEEDS=2,
        SPEEDUP_SLOTS=120,
    )
    report = m.run_benchmark(rounds=1)
    assert all(r["bit_identical"] for r in report["rows"])
    return report


def smoke_mobility_churn(m):
    _shrink(
        m,
        SPEEDS=(2.0,),
        CHURN_RATES=(4e-4,),
        ACK_N=10,
        ACK_RADIUS=8.0,
        ACK_SEEDS=1,
        PROTOCOL_SEEDS=1,
        SMB_N=10,
        SMB_RADIUS=7.0,
        MMB_N=10,
        MMB_RADIUS=7.0,
        CONS_N=10,
        CONS_RADIUS=7.0,
        CONS_WAVES=4,
        SPEEDUP_N=60,
        SPEEDUP_RADIUS=40.0,
        SPEEDUP_SEEDS=2,
        SPEEDUP_SLOTS=120,
    )
    report = m.run_benchmark(rounds=1)
    assert all(r["bit_identical"] for r in report["rows"])
    return report


def smoke_fig1(m):
    _shrink(m, DELTAS=(2, 4), POWER_DELTAS=(5,))
    m.run_sweep()
    return m.run_power_sweep()


def smoke_service(m):
    _shrink(m, LEVELS=(4,))
    report = m.run_load()
    # The in-module probe already asserted service == library; here we
    # only check the recorder produced a sane row.
    assert report["rows"][0]["jobs_per_sec"] > 0
    return report


def smoke_sparse_sinr(m):
    _shrink(m, NS=(48, 96), BROADCASTERS=16, SLOTS=6)
    report = m.run_benchmark(rounds=1)
    # The exact mode's bit-identity contract holds at any size; the
    # speedup bars belong to the full bench run (tiny n favours dense).
    assert all(
        r["bit_identical"] for r in report["rows"] if r["mode"] == "exact"
    )
    return report


def smoke_native_kernel(m):
    _shrink(m, N=100, SEEDS=2, SLOTS=120, RADIUS=40.0)
    report = m.run_comparison(rounds=1)
    # Bit-identity across numpy/native/object holds at any size and on
    # either backend; the speedup bars belong to the full bench run.
    assert all(r["bit_identical"] for r in report["rows"])
    return report


def smoke_table1_overview(m):
    return m.build_tables()


def smoke_table1_fack(m):
    _shrink(m, POPULATIONS=(8,))
    return m.run_sweep()


def smoke_table1_fapprog(m):
    _shrink(m, EPS=0.2)
    return m.run_lambda_sweep()


def smoke_table1_smb(m):
    _shrink(m, HOPS=(2,), SCALED_HOPS=(6,))
    assert all(m.vector_eligible(p) for p in m.scaled_plans())
    m.run_scaled_sweep()
    return m.run_sweep()


def smoke_table1_mmb(m):
    _shrink(m, KS=(1,), HOPS=2, SCALED_KS=(2,), SCALED_HOPS=4)
    assert all(m.vector_eligible(p) for p in m.scaled_plans())
    m.run_scaled_sweep()
    return m.run_sweep()


def smoke_table1_consensus(m):
    _shrink(m, HOPS=(2,), SCALED_HOPS=(4,))
    assert all(m.vector_eligible(p) for p in m.scaled_plans())
    m.run_scaled_sweep()
    return m.run_sweep()


def smoke_table2(m):
    plans, _context = m.empirical_plans()
    assert m.vector_eligible(plans[-1])  # the Decay baseline row
    return m.formula_grid()


def smoke_thm81(m):
    _shrink(m, DELTAS=(8,), MAX_SLOTS=30_000, DECAY_SEEDS=(1,))
    return m.run_sweep()


def smoke_vectorized_stack(m):
    _shrink(m, N=100, SEEDS=2, SLOTS=120, RADIUS=40.0)
    report = m.run_comparison(rounds=1)
    assert all(r["bit_identical"] for r in report["rows"])
    # The protocol sweep (BSMB/BMMB/consensus rows), miniaturized.
    _shrink(
        m,
        PROTOCOL_SEEDS=2,
        SMB_CLUSTERS=10,
        SMB_PER_CLUSTER=6,
        MMB_N=80,
        MMB_RADIUS=22.0,
        CONS_N=80,
        CONS_RADIUS=31.0,
    )
    protocol_report = m.run_protocol_comparison(rounds=1)
    assert all(r["bit_identical"] for r in protocol_report["rows"])
    return report


SMOKE = {
    "bench_ablation_interleave": smoke_ablation_interleave,
    "bench_ablation_label_space": smoke_ablation_label_space,
    "bench_ablation_q_thinning": smoke_ablation_q_thinning,
    "bench_engine_batching": smoke_engine_batching,
    "bench_fading_robustness": smoke_fading_robustness,
    "bench_fig1_progress_lower_bound": smoke_fig1,
    "bench_mobility_churn": smoke_mobility_churn,
    "bench_native_kernel": smoke_native_kernel,
    "bench_service": smoke_service,
    "bench_sparse_sinr": smoke_sparse_sinr,
    "bench_table1_overview": smoke_table1_overview,
    "bench_table1_fack": smoke_table1_fack,
    "bench_table1_fapprog": smoke_table1_fapprog,
    "bench_table1_smb": smoke_table1_smb,
    "bench_table1_mmb": smoke_table1_mmb,
    "bench_table1_consensus": smoke_table1_consensus,
    "bench_table2_smb_comparison": smoke_table2,
    "bench_thm81_decay_approg": smoke_thm81,
    "bench_vectorized_stack": smoke_vectorized_stack,
}


def main() -> int:
    scripts = sorted(
        p.stem for p in (REPO / "benchmarks").glob("bench_*.py")
    )
    missing = [name for name in scripts if name not in SMOKE]
    stale = [name for name in SMOKE if name not in scripts]
    if missing or stale:
        print("bench-smoke: FAILED (registry out of sync)")
        for name in missing:
            print(f"  - benchmarks/{name}.py has no smoke entry")
        for name in stale:
            print(f"  - smoke entry {name!r} has no script")
        return 1

    failures = []
    for name in scripts:
        start = time.perf_counter()
        try:
            module = importlib.import_module(name)
            SMOKE[name](module)
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures.append((name, exc))
            print(f"  FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"  ok   {name} ({time.perf_counter() - start:.1f}s)")
    if failures:
        print(f"bench-smoke: FAILED ({len(failures)}/{len(scripts)})")
        return 1
    print(f"bench-smoke: OK ({len(scripts)} benchmark scripts exercised)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
