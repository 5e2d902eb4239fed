"""Cold plan-to-TrialResult benchmark of the SINR absMAC reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload decay-sweep --seed 1 --seconds 20 \
        --trace 0

Each timed run is one closed-loop ``run_trials`` call (one caller, the
next sweep only after the previous one returns) with a fresh
``ArtifactCache``, the process-wide cache cleared, ``workers=1`` and
``native_threads=1``: the numbers measure the program, not the
scheduler.  Sweeps repeat until ``--seconds`` is used up; timings are
medians over the sweeps of the run.

``--trace 0`` prints the end-to-end metrics:

* ``sweep_s``: seconds of one cold ``run_trials`` call (median), read
  from the process CPU clock: the program runs on one thread, so this
  is its wall time without the time the host gave to other tenants
  (wall seconds are printed beside it);
* ``node_slots_per_s``: sum over trials of ``n * slots``, per ``sweep_s``;
* ``peak_rss_mib``: peak resident memory of this process, which runs
  one workload only;
* ``setup_s``: ``import repro``, the kernel load probe and plan
  construction, each time in a fresh interpreter (median of several).

``--trace 1`` alternates untraced and traced sweeps and prints the
per-layer metrics of ``spans.py``: each layer's self time, its share of
the traced ``sweep_s``, the layer counters, the time no span covers
(``other_s``) and the tracing overhead.

Every result is checked: per-trial digests must match the pins at the
default seed (and, at any seed, the first sweep of the run), and
seed-independent invariants must hold.  A trial that raised or failed a
check counts in ``failed``; ``failed / attempted`` is ``failed_frac``.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
MIN_SWEEPS = 3  # untraced sweeps per run
MIN_TRACED = 2  # with --trace 1: traced sweeps, and as many untraced
HARD_LIMIT_S = 150.0  # never start a sweep that could end after this


def _build_native() -> str:
    """Build the kernel as the source stands; the backend that will run.

    ``build()`` rebuilds whenever the C source, flags or compiler
    changed, so an edited kernel is measured as written.  A failed or
    impossible build leaves the numpy backend, and the output says so.
    """
    from repro.native.build import build

    try:
        build(quiet=True)
    except (OSError, RuntimeError) as exc:
        print(f"native build failed: {exc}", file=sys.stderr)
    from repro import native

    return "native" if native.available() else "numpy"


def _setup_seconds(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


class Sweeper:
    """Runs cold sweeps of one plan list and checks every result."""

    def __init__(self, workload: str, seed: int) -> None:
        from repro.api import ExecutionPolicy
        from workloads import DEFAULT_SEED, PINNED, make_plans

        self.plans = make_plans(workload, seed)
        self.policy = ExecutionPolicy(workers=1, native_threads=1)
        pins = PINNED.get(workload) if seed == DEFAULT_SEED else None
        # The reference digests: the pins, or else the first sweep's.
        self.reference: list[str] | None = list(pins) if pins else None
        self.pinned = pins is not None
        self.attempted = 0
        self.failed = 0
        self.node_slots = 0
        self.digests: list[str] = []
        self.wall_s: list[float] = []

    def sweep(self, recorder=None) -> float:
        """One cold ``run_trials`` call; its CPU seconds."""
        from repro.api import run_trials
        from repro.experiments import cache as cache_module

        # The object-path harness builders memoize into the process-wide
        # cache, so a cold sweep clears it as well.
        caches = [cache_module.ArtifactCache()]
        shared = getattr(cache_module, "GLOBAL_CACHE", None)
        if shared is not None:
            shared.clear()
            caches.append(shared)
        cache = caches[0]
        gc.collect()
        self.attempted += len(self.plans)
        results = None
        tracing = spans.traced(recorder) if recorder is not None else None
        wall = time.perf_counter()
        start = time.process_time()
        try:
            if tracing is None:
                results = run_trials(self.plans, self.policy, cache=cache)
            else:
                with tracing:
                    results = run_trials(self.plans, self.policy,
                                         cache=cache)
        except Exception:
            traceback.print_exc(file=sys.stderr)
        elapsed = time.process_time() - start
        self.wall_s.append(time.perf_counter() - wall)
        if tracing is not None:
            for site in tracing.missing:
                print(f"not traced, no such lookup site: {site}",
                      file=sys.stderr)
            for stats in (c.stats() for c in caches):
                recorder.counts["experiments.cache_hits"] += stats["hits"]
                recorder.counts["experiments.cache_misses"] += (
                    stats["misses"]
                )
        self._check(results)
        return elapsed

    def _check(self, results) -> None:
        from workloads import check, trial_digest

        if results is None:
            self.failed += len(self.plans)
            return
        digests = [trial_digest(r) for r in results]
        if self.reference is None:
            self.reference = digests
        for i, (plan, result) in enumerate(zip(self.plans, results)):
            reason = check(plan, result)
            if reason is None and digests[i] != self.reference[i]:
                reason = f"digest {digests[i]} != {self.reference[i]}"
            if reason is not None:
                print(f"{plan.display_label}: {reason}", file=sys.stderr)
                self.failed += 1
        self.node_slots = sum(r.n * r.slots for r in results)
        self.digests = digests

    @property
    def digest(self) -> str:
        joined = ",".join(self.digests).encode()
        return hashlib.sha256(joined).hexdigest()[:16]


def _sweeps(sweeper: Sweeper, seconds: float, traced: bool):
    """Sweep until the time is used up; (untraced, traced) samples.

    With ``traced`` the sweeps alternate untraced and traced, so both
    see the same machine state, and the run ends on a traced sweep;
    each traced sweep yields one :class:`spans.SpanRecorder`.
    """
    plain: list[float] = []
    recorded: list[tuple[float, spans.SpanRecorder]] = []
    start = time.perf_counter()
    while True:
        if traced and len(recorded) < len(plain):
            recorder = spans.SpanRecorder()
            recorded.append((sweeper.sweep(recorder), recorder))
        else:
            plain.append(sweeper.sweep())
        elapsed = time.perf_counter() - start
        typical = statistics.median(plain + [t for t, _ in recorded])
        if traced:
            complete = len(recorded) == len(plain)
            done = complete and len(recorded) >= MIN_TRACED
        else:
            complete = True
            done = len(plain) >= MIN_SWEEPS
        if complete and elapsed + typical > HARD_LIMIT_S:
            break
        if done and elapsed + typical > seconds:
            break
    return plain, recorded


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(sweeper: Sweeper, plain: list[float],
                setup: list[float]) -> dict:
    sweep_s = statistics.median(plain)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "sweep_s": _metric(sweep_s, "s"),
        "node_slots_per_s": _metric(sweeper.node_slots / sweep_s, "1/s"),
        "peak_rss_mib": _metric(peak_kib / 1024.0, "MiB"),
        "setup_s": _metric(statistics.median(setup), "s"),
    }


def _per_layer(plain: list[float], recorded) -> dict:
    per_sweep = []
    for traced_s, recorder in recorded:
        values = {}
        for layer in spans.LAYERS:
            seconds = recorder.self_s.get(layer, 0.0)
            values[f"{layer}_s"] = (seconds, "s")
            values[f"{layer}_s_share"] = (seconds / traced_s, "fraction")
        other = traced_s - recorder.covered_s
        values["other_s"] = (other, "s")
        values["other_s_share"] = (other / traced_s, "fraction")
        counts = recorder.counts
        for name in (*spans.COUNTERS, "experiments.cache_hits",
                     "experiments.cache_misses"):
            unit = "B" if name.endswith("_bytes") else "count"
            values[name] = (counts.get(name, 0.0), unit)
        native_slots = counts.get("native.slots", 0.0)
        batch_slots = native_slots + counts.get("vectorized.numpy_slots", 0.0)
        values["native.slot_share"] = (
            native_slots / batch_slots if batch_slots else 0.0, "fraction"
        )
        values["traced_sweep_s"] = (traced_s, "s")
        per_sweep.append(values)
    metrics = {
        name: _metric(statistics.median(v[name][0] for v in per_sweep),
                      unit)
        for name, (_value, unit) in per_sweep[0].items()
    }
    metrics["trace_overhead"] = _metric(
        statistics.median(t for t, _ in recorded) / statistics.median(plain),
        "x",
    )
    return metrics


def _report(args, backend: str, sweeper: Sweeper, plain, recorded,
            metrics: dict) -> None:
    pin = "pinned" if sweeper.pinned else "first sweep"
    # backend= is what the build left available (a numpy run must never
    # be compared with a native one); ran= is what the traced sweeps saw.
    ran = ""
    if recorded:
        if metrics["native.slots"]["value"] > 0:
            ran = " ran=native"
        elif metrics["vectorized.numpy_slots"]["value"] > 0:
            ran = " ran=numpy"
        else:
            ran = " ran=object"
    print(f"workload={args.workload} seed={args.seed} backend={backend}{ran} "
          f"sweeps={len(plain)} traced_sweeps={len(recorded)} "
          f"trials={len(sweeper.plans)}")
    print(f"digest={sweeper.digest} reference={pin} "
          f"failed_frac={sweeper.failed / sweeper.attempted:.4f} "
          f"({sweeper.failed}/{sweeper.attempted})")
    print("sweep CPU s: " + " ".join(
        f"{t:.3f}" for t in sorted(plain + [t for t, _ in recorded])))
    print("sweep wall s: " + " ".join(
        f"{t:.3f}" for t in sorted(sweeper.wall_s)))
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")

    backend = _build_native()
    setup = [] if args.trace else _setup_seconds(args.workload, args.seed)
    sweeper = Sweeper(args.workload, args.seed)
    plain, recorded = _sweeps(sweeper, args.seconds, bool(args.trace))
    if args.trace:
        metrics = _per_layer(plain, recorded)
    else:
        metrics = _end_to_end(sweeper, plain, setup)
    _report(args, backend, sweeper, plain, recorded, metrics)
    print(json.dumps({
        "correct": sweeper.failed == 0,
        "attempted": sweeper.attempted,
        "failed": sweeper.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
