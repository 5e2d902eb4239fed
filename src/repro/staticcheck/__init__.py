"""reprolint — the repository's invariant analyzer.

Every claim this reproduction makes rests on invariants that no
off-the-shelf linter checks: the executors stay bit-identical only
while the RNG-stream contract holds (node streams ``0..n-1``, channel
stream child ``n``, provider-owned topology seeds — never an OS-entropy
or wall-clock draw); plans stay distributable only while every
dataclass reachable from :class:`~repro.experiments.plans.TrialPlan` is
frozen and registered on the service wire; the job server survives
worker crashes only while its lock discipline holds.  Runtime tests
catch violations after the fact — ``reprolint`` catches them at lint
time, before a single trial runs.

Five rule families (IDs catalogued in ``docs/invariants.md``):

* **determinism** (``D1xx``) — no ``np.random`` module-level functions,
  no stdlib ``random`` in ``src/``, no unseeded generator construction
  outside :mod:`repro.simulation.rng`, no wall-clock-derived seeds;
* **plan purity** (``P1xx``) — every dataclass reachable from
  ``TrialPlan`` / ``TrialResult`` / ``ExecutionPolicy`` field types is
  ``frozen=True`` and registered in
  :data:`repro.service.wire.WIRE_TYPES`;
* **concurrency** (``C1xx``) — no blocking calls inside ``with lock:``
  bodies in :mod:`repro.service`, no untimed queue gets, no mutable
  class-level state on service classes;
* **executor parity** (``X1xx``) — a workload overriding an object-path
  hook must override the matching ``vector_*`` hook (or carry an
  explicit ineligibility marker), so fast-path fallback is never
  silent;
* **registry exhaustiveness** (``R1xx``) — every benchmark script has a
  ``scripts/bench_smoke.py`` entry and every example a
  ``tests/test_examples.py`` entry, statically.

Findings are suppressed per line with a justified marker::

    task_q.get()  # reprolint: ignore[C102] — idle worker blocks by design

A bare suppression without justification is itself a finding (``S100``),
and so is a suppression that no longer matches anything (``S101``) —
suppressions stay load-bearing or they fail the build.

Run via ``python -m repro.staticcheck`` (see ``--help``), or
``make staticcheck``; the engine is importable for tests::

    from repro.staticcheck import run_analysis
    report = run_analysis(repo_root)
    assert report.exit_code == 0

The analyzer is pure stdlib (``ast`` + ``tokenize``): it never imports
the code under analysis, so it runs in containers with no third-party
packages installed and cannot be fooled by import-time side effects.
"""

from repro.staticcheck.engine import (
    Finding,
    Report,
    Rule,
    RULES,
    iter_rules,
    run_analysis,
)

# Importing the rule modules registers every rule family; keep these
# imports after the engine so the registry exists.
from repro.staticcheck import (  # noqa: E402  (registration imports)
    rules_concurrency,
    rules_determinism,
    rules_parity,
    rules_purity,
    rules_registry,
)

__all__ = [
    "Finding",
    "Report",
    "Rule",
    "RULES",
    "iter_rules",
    "run_analysis",
    "rules_concurrency",
    "rules_determinism",
    "rules_parity",
    "rules_purity",
    "rules_registry",
]
