#!/usr/bin/env python
"""bench-compare: guard the columnar fast path's speedups in CI.

Compares freshly recorded benchmark JSONs (``BENCH_vectorized.json``,
``BENCH_protocols.json`` — written by
``benchmarks/bench_vectorized_stack.py`` — ``BENCH_fading.json`` from
``benchmarks/bench_fading_robustness.py``, ``BENCH_mobility.json``
from ``benchmarks/bench_mobility_churn.py`` and ``BENCH_sparse.json``
from ``benchmarks/bench_sparse_sinr.py``) against the versions
committed at a git ref (default ``HEAD``).  The gate is the
*counters-only speedup*: for every counters-only row present in both
baseline and candidate, the candidate's speedup must not fall more than
``--tolerance`` (default 20%) below the committed one.  Absolute
seconds are deliberately ignored — they track the host machine; the
vector/object ratio is what the fast path owns.

Half-open pairs skip with a warning instead of failing, so the gate
bootstraps cleanly in both directions: a candidate with no committed
baseline is a benchmark being introduced, and a committed baseline with
no freshly recorded file is a benchmark whose recorder landed earlier
in the ref than the record run (mid-PR states, partial ``--files``
invocations).  Only rows present on *both* sides gate the build — a row
that vanishes from an otherwise-recorded file still fails.

Rows may carry a ``backend`` field naming what produced the measured
ratio (``BENCH_native.json``, ``BENCH_vectorized.json`` and
``BENCH_protocols.json`` record ``"native"`` when the compiled kernel
ran, ``"numpy"`` under the fallback).  When baseline and fresh
row disagree on the backend, the speedup comparison is apples to
oranges — a machine without the extension would otherwise hard-fail
against a native-recorded baseline — so such pairs warn-skip instead
of gating.

Run via ``make bench-compare`` (after ``make bench-record``); the CI
``bench-regression`` job wires both together and uploads the fresh
JSONs as workflow artifacts.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def committed_json(ref: str, relpath: str) -> dict | None:
    """The file's content at ``ref``, or None if not committed there."""
    try:
        blob = subprocess.run(
            ["git", "show", f"{ref}:{relpath}"],
            cwd=REPO,
            capture_output=True,
            check=True,
        ).stdout
    except subprocess.CalledProcessError:
        return None
    return json.loads(blob)


def row_key(row: dict) -> str:
    """Stable identity of a benchmark row across schema generations."""
    if "workload" in row:
        return str(row["workload"])
    return "physical" if row.get("record_physical") else "counters-only"


def counters_only_rows(report: dict) -> dict[str, dict]:
    return {
        row_key(row): row
        for row in report.get("rows", [])
        if not row.get("record_physical", False)
    }


def row_speedup(row: dict) -> float | None:
    """The row's gating ratio, or None when it cannot gate.

    A row without a ``speedup`` key, or with a non-finite/non-positive
    value, has no usable vector/object ratio.  Callers decide the
    severity: a *baseline* that cannot gate is skipped with a warning
    (old schema generations, experimental rows), while a *candidate*
    that lost its speedup is a broken recorder and must fail loudly —
    silently skipping it would let a perf regression ride a schema bug
    through the gate.
    """
    value = row.get("speedup")
    if value is None:
        return None
    try:
        speedup = float(value)
    except (TypeError, ValueError):
        return None
    if not (speedup > 0.0) or speedup != speedup or speedup == float("inf"):
        return None
    return speedup


def compare(
    relpath: str, ref: str, tolerance: float
) -> tuple[list[str], list[str]]:
    """Return (log lines, failure lines) for one benchmark file."""
    lines: list[str] = []
    failures: list[str] = []
    candidate_path = REPO / relpath
    if not candidate_path.is_file():
        lines.append(
            f"{relpath}: WARNING — no freshly recorded file (baseline "
            "not exercised; run `make bench-record` to cover it) — "
            "skipped"
        )
        return lines, failures
    candidate = json.loads(candidate_path.read_text(encoding="utf-8"))
    baseline = committed_json(ref, relpath)
    if baseline is None:
        lines.append(
            f"{relpath}: no baseline at {ref} (new benchmark) — skipped"
        )
        return lines, failures

    base_rows = counters_only_rows(baseline)
    cand_rows = counters_only_rows(candidate)
    for key, base_row in sorted(base_rows.items()):
        cand_row = cand_rows.get(key)
        if cand_row is None:
            failures.append(
                f"{relpath}[{key}]: row present at {ref} but missing "
                "from the fresh record"
            )
            continue
        base_backend = base_row.get("backend")
        cand_backend = cand_row.get("backend")
        if (
            base_backend is not None
            and cand_backend is not None
            and base_backend != cand_backend
        ):
            # Different backends measure different code paths (e.g. a
            # fresh record on a machine without the native extension vs
            # a native-recorded baseline): the ratio comparison would
            # be meaningless, so warn-skip rather than fail.
            lines.append(
                f"{relpath}[{key}]: backend mismatch (baseline "
                f"{base_backend!r}, fresh {cand_backend!r}) — speedup "
                "gate skipped"
            )
            continue
        base_speedup = row_speedup(base_row)
        cand_speedup = row_speedup(cand_row)
        if base_speedup is None:
            lines.append(
                f"{relpath}[{key}]: baseline row has no usable speedup "
                "— skipped"
            )
            continue
        if cand_speedup is None:
            failures.append(
                f"{relpath}[{key}]: fresh row lost its speedup "
                f"(recorded {cand_row.get('speedup')!r}) — broken "
                "recorder"
            )
            continue
        floor = base_speedup * (1.0 - tolerance)
        verdict = "ok" if cand_speedup >= floor else "REGRESSED"
        lines.append(
            f"{relpath}[{key}]: speedup {cand_speedup:.2f}x vs committed "
            f"{base_speedup:.2f}x (floor {floor:.2f}x) {verdict}"
        )
        if cand_speedup < floor:
            failures.append(
                f"{relpath}[{key}]: counters-only speedup regressed "
                f">{tolerance:.0%}: {cand_speedup:.2f}x < {floor:.2f}x"
            )
    return lines, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "files",
        nargs="*",
        default=[
            "BENCH_vectorized.json",
            "BENCH_protocols.json",
            "BENCH_fading.json",
            "BENCH_mobility.json",
            "BENCH_sparse.json",
            "BENCH_native.json",
            "BENCH_service.json",
        ],
        help="benchmark JSONs (repo-relative) to compare",
    )
    parser.add_argument(
        "--ref", default="HEAD", help="git ref holding the baseline"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fractional speedup regression (default 0.2)",
    )
    args = parser.parse_args(argv)

    all_failures: list[str] = []
    recorded = 0
    for relpath in args.files:
        recorded += (REPO / relpath).is_file()
        lines, failures = compare(relpath, args.ref, args.tolerance)
        for line in lines:
            print(f"  {line}")
        all_failures.extend(failures)
    if args.files and recorded == 0:
        # Per-file skips keep mid-PR states green, but comparing
        # *nothing* means the record step never ran (broken CI wiring,
        # wrong working directory) — that must stay a loud failure.
        all_failures.append(
            "no freshly recorded benchmark file found at all — run "
            "`make bench-record` first"
        )
    if all_failures:
        print(f"bench-compare: FAILED ({len(all_failures)} problem(s))")
        for failure in all_failures:
            print(f"  - {failure}")
        return 1
    print("bench-compare: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
