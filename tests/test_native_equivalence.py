"""The native backend's defining contract: decode-for-decode identity
with both pure-python executors.

The fused C slot loop (:mod:`repro.native`) is a *fourth* way to run a
trial — object runtime, columnar numpy, engine-batched columnar, and
now the compiled kernel — and every one of them must produce the same
:class:`TrialResult`, field for field.  This suite pins that:

* **results** — the acceptance matrix {Decay, Ack} × {1, 8 trials} ×
  {synchronous, staggered wakeup}: ``run_trials(native=True)`` must be
  dataclass-equal to the pure-numpy reference (``native=False``) and
  the object runtime (``vectorize=False``);
* **protocol clients** — counters-only {smb, mmb, consensus} ×
  {Decay, Ack} × {1, 8 trials} × {dense, sparse-exact} (plus two
  kernel threads on the 8-trial cells) ride the kernel one slot per
  call with the client reactions replayed between slots: results equal
  the numpy step's and every trial's full event trace matches it in
  order, intra-slot ``bcast`` / ``decide`` positions included;
* **golden replay** — the committed ``tests/golden/*.json`` fixtures
  (smb and consensus, counters-only) re-run with ``REPRO_NATIVE=1``
  must reproduce bit for bit with every slot advanced in C;
* **selection** — ``REPRO_NATIVE=0`` forces the fallback
  (``native_slots`` stays 0), ``native=True`` without a built kernel
  fails loudly, and the auto mode picks whatever :func:`available`
  reports;
* **streams** — the kernel steps each node's PCG64 state in place:
  after k native slots every lane's state words equal its
  :func:`spawn_node_rngs` generator advanced by that lane's draw count;
* **budget** — a slot budget below the workload's target raises after
  the same slot on both backends.

Everything that needs the compiled kernel skips cleanly when
``repro.native.available()`` is False (no C compiler): the portable
suite stays green, the CI ``native`` job proves the compiled side.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from unittest import mock

import numpy as np
import pytest

from repro import native
from repro.core.decay import DecayConfig
from repro.experiments import (
    DeploymentSpec,
    ExecutionPolicy,
    TrialPlan,
    run_trials,
    seeded_plans,
)
from repro.experiments.cache import deployment_artifacts, resolve_deployment
from repro.geometry.points import PointSet
from repro.native.stepper import NativeStepper
from repro.simulation.rng import (
    NodeUniformBuffer,
    spawn_node_rngs,
    spawn_trial_seeds,
)
from repro.sinr.channel import Channel
from repro.sinr.params import SparseResolution
from repro.vectorized import (
    ConsensusClients,
    DecayKernel,
    VectorMacAdapter,
    VectorRuntime,
)
from repro.vectorized import engine as vector_engine

from test_golden_results import _fixture_path, golden_plans, serialize

N = 12
RADIUS = 9.0
DEPLOYMENT = DeploymentSpec.of("uniform_disk", n=N, radius=RADIUS, seed=33)

needs_native = pytest.mark.skipif(
    not native.available(),
    reason="native kernel not built (run `make native`)",
)


def make_plans(stack, trials, broadcasters, **kwargs):
    base = TrialPlan(
        deployment=DEPLOYMENT,
        stack=stack,
        workload=kwargs.pop("workload", "local_broadcast"),
        broadcasters=broadcasters,
        label=f"native-eq-{stack}",
        **kwargs,
    )
    return seeded_plans(base, spawn_trial_seeds(trials, seed=5))


# -- result-level equivalence -----------------------------------------------


@needs_native
@pytest.mark.parametrize("stack", ["decay", "ack"])
@pytest.mark.parametrize("trials", [1, 8])
@pytest.mark.parametrize(
    "broadcasters", [None, (0, 1, 2)], ids=["sync", "staggered"]
)
def test_results_bit_identical_native(stack, trials, broadcasters):
    """The acceptance matrix: native == numpy == object, field for
    field (counters-only plans — the shape the C kernel fuses)."""
    plans = make_plans(stack, trials, broadcasters, record_physical=False)
    nat = run_trials(plans, ExecutionPolicy(vectorize=True, native=True))
    ref = run_trials(plans, ExecutionPolicy(vectorize=True, native=False))
    obj = run_trials(plans, ExecutionPolicy(vectorize=False))
    assert nat == ref == obj
    # Guard against the trivial way this could pass: the runs did work.
    assert all(result.transmissions > 0 for result in nat)


@needs_native
@pytest.mark.parametrize("stack", ["decay", "ack"])
def test_fixed_slots_native(stack):
    """Fixed-budget workloads (incl. an observation tail) match too."""
    plans = make_plans(
        stack,
        4,
        None,
        workload="fixed_slots",
        options=TrialPlan.pack_options(slots=400),
        extra_slots=25,
        record_physical=False,
    )
    assert run_trials(
        plans, ExecutionPolicy(vectorize=True, native=True)
    ) == run_trials(plans, ExecutionPolicy(vectorize=True, native=False))


@needs_native
def test_native_kernel_actually_engages():
    """native=True on a fusible batch must advance slots *in C* — a
    silent always-fallback would render the whole matrix vacuous."""
    runtime = _direct_runtime(native=True)
    runtime.run(200)
    assert runtime.native_slots == 200
    assert runtime.channels[0].total_transmissions > 0


# -- sparse-native CSR path + trial-parallel threading -----------------------


def sparse_exact_params():
    """The batch params that ride the fused CSR decode path.

    ``min_n=1`` forces the resolver on for these deliberately tiny
    deployments (the production crossover would route n=12 to the
    dense kernels and leave nothing sparse under test)."""
    params = TrialPlan(deployment=DEPLOYMENT).params
    return dataclasses.replace(
        params, sparse=SparseResolution(mode="exact", min_n=1)
    )


@needs_native
@pytest.mark.parametrize("stack", ["decay", "ack"])
@pytest.mark.parametrize("trials", [1, 8])
@pytest.mark.parametrize("physics", ["dense", "sparse-exact"])
@pytest.mark.parametrize("threads", [1, 2, 8])
def test_native_matrix_physics_and_threads(stack, trials, physics, threads):
    """The PR-10 acceptance matrix: {Decay, Ack} × {1, 8 trials} ×
    {dense, sparse-exact} × threads {1, 2, 8} — the native kernel must
    be dataclass-equal to the pure-numpy reference and the object
    runtime in every cell.  Threads partition the trials axis, so this
    also pins that results cannot depend on the thread count."""
    kwargs = {"record_physical": False}
    if physics == "sparse-exact":
        kwargs["params"] = sparse_exact_params()
    plans = make_plans(stack, trials, (0, 1, 2), **kwargs)
    nat = run_trials(
        plans,
        ExecutionPolicy(vectorize=True, native=True, native_threads=threads),
    )
    ref = run_trials(plans, ExecutionPolicy(vectorize=True, native=False))
    obj = run_trials(plans, ExecutionPolicy(vectorize=False))
    assert nat == ref == obj
    assert all(result.transmissions > 0 for result in nat)


@needs_native
def test_sparse_native_kernel_engages():
    """Sparse-exact batches must actually advance in C — without this
    pin the sparse half of the matrix could silently pass through the
    numpy fallback."""
    runtime = _direct_runtime(native=True, sparse=True, threads=2)
    assert runtime._native_ok()
    runtime.run(200)
    assert runtime.native_slots == 200
    assert runtime.channels[0].total_transmissions > 0


@needs_native
def test_sparse_farfield_stays_numpy():
    """Only *exact* sparse mode is inside the fusion boundary: the
    farfield approximation keeps the numpy step (its ε-contract decode
    has no C twin), transparently."""
    params = dataclasses.replace(
        TrialPlan(deployment=DEPLOYMENT).params,
        sparse=SparseResolution(mode="farfield", min_n=1),
    )
    plans = make_plans("decay", 2, (0, 1, 2),
                       record_physical=False, params=params)
    nat = run_trials(plans, ExecutionPolicy(vectorize=True, native=True))
    ref = run_trials(plans, ExecutionPolicy(vectorize=True, native=False))
    assert nat == ref


@needs_native
@pytest.mark.parametrize("threads", [3, 5])
def test_thread_count_invariance_direct(threads):
    """Same runtime, same seeds, different thread partition: traces and
    counters must not move — per-trial event order is preserved because
    each trial's events drain from the same per-thread segment in
    ascending trial-range order."""
    baseline = _direct_runtime(native=True)
    threaded = _direct_runtime(native=True, threads=threads)
    baseline.run(300)
    threaded.run(300)
    assert threaded.native_slots == 300
    for a, b in zip(baseline.channels, threaded.channels):
        assert a.total_transmissions == b.total_transmissions
        assert a.total_receptions == b.total_receptions
    assert list(baseline.traces[0]) == list(threaded.traces[0])


def test_resolve_threads_decision_table(monkeypatch):
    """explicit wins over the environment; unset defaults to 1; a bad
    REPRO_NATIVE_THREADS fails loudly instead of silently serializing."""
    monkeypatch.delenv("REPRO_NATIVE_THREADS", raising=False)
    assert native.resolve_threads() == 1
    assert native.resolve_threads(4) == 4
    with pytest.raises(ValueError, match="native_threads"):
        native.resolve_threads(0)
    monkeypatch.setenv("REPRO_NATIVE_THREADS", "8")
    assert native.resolve_threads() == 8
    assert native.resolve_threads(2) == 2
    monkeypatch.setenv("REPRO_NATIVE_THREADS", "two")
    with pytest.raises(RuntimeError, match="not an integer"):
        native.resolve_threads()
    monkeypatch.setenv("REPRO_NATIVE_THREADS", "0")
    with pytest.raises(RuntimeError, match=">= 1"):
        native.resolve_threads()


# -- eligibility decision table (mirrored by reprolint X103) -----------------

# One row per predicate of VectorRuntime._native_ok.  Each row trips
# exactly one eligibility knob on an otherwise-fusible runtime and
# states whether the probe must still pass.  reprolint rule X103
# cross-checks this table against the _native_ok source: a new
# predicate without a row here fails the lint, so the selection tests
# can never silently lag the probe.
NATIVE_ELIGIBILITY_CASES = [
    ("_use_native", lambda rt: setattr(rt, "_use_native", False), False),
    ("_has_adversary", lambda rt: setattr(rt, "_has_adversary", True), False),
    # sparse physics is ineligible unless the batch qualified for the
    # CSR decode path (exact mode, one shared resolver)...
    (
        "_sparse",
        lambda rt: (
            setattr(rt, "_sparse", True),
            setattr(rt, "_sparse_native_ok", False),
        ),
        False,
    ),
    # ...in which case it stays fusible.
    (
        "_sparse_native_ok",
        lambda rt: (
            setattr(rt, "_sparse", True),
            setattr(rt, "_sparse_native_ok", True),
        ),
        True,
    ),
    ("_stochastic", lambda rt: setattr(rt, "_stochastic", True), False),
    ("_dynamic", lambda rt: setattr(rt, "_dynamic", True), False),
    (
        "record_physical",
        lambda rt: setattr(rt, "record_physical", True),
        False,
    ),
    ("_seen", lambda rt: setattr(rt, "_seen", None), False),
    ("kernel", lambda rt: setattr(rt, "kernel", object()), False),
]


@needs_native
@pytest.mark.parametrize(
    "attr,trip,expected",
    NATIVE_ELIGIBILITY_CASES,
    ids=[case[0] for case in NATIVE_ELIGIBILITY_CASES],
)
def test_native_eligibility_decision_table(attr, trip, expected):
    """Every _native_ok predicate flips eligibility exactly as the
    decision table states."""
    runtime = _direct_runtime(native=True)
    assert runtime._native_ok(), "baseline runtime must be fusible"
    trip(runtime)
    assert runtime._native_ok() is expected


@needs_native
def test_adapter_batches_run_every_slot_in_c():
    """An attached protocol adapter stays inside the fusion boundary:
    consensus clients (wake-started waves, ack-driven rebroadcasts,
    decide events) advance every slot in C."""
    runtime = _direct_runtime(native=True, broadcast=False)
    adapter = VectorMacAdapter(runtime)
    clients = ConsensusClients(
        adapter, waves=[3], values=[[i % 2 for i in range(N)]]
    )
    adapter.install(clients)
    clients.start(0)
    assert runtime._native_ok()
    runtime.run_until(lambda rt: clients.done(0), check_every=8)
    assert runtime.native_slots == runtime.slots[0] > 0
    assert (clients.decision >= 0).all()


# -- protocol clients on the fused path --------------------------------------

PROTOCOL_OPTIONS = {
    "smb": TrialPlan.pack_options(source=0),
    "mmb": TrialPlan.pack_options(
        arrivals=((0, ("m0", "m1")), (7, ("m2",)))
    ),
    "consensus": TrialPlan.pack_options(waves=2),
}


def _protocol_plans(workload, stack, trials, physics):
    kwargs = {"record_physical": False, "options": PROTOCOL_OPTIONS[workload]}
    if physics == "sparse-exact":
        kwargs["params"] = sparse_exact_params()
    return make_plans(stack, trials, None, workload=workload, **kwargs)


def _run_traced(plans, policy):
    """``run_trials(plans, policy)`` plus what it looked like inside:
    every trial's full event list, the adapter callbacks in call order
    (cells as lists) and the native slot count of each VectorRuntime
    the run built."""
    runtimes = []
    callbacks = []
    real = vector_engine.VectorRuntime

    def build(*args, **kwargs):
        runtimes.append(real(*args, **kwargs))
        return runtimes[-1]

    def logged(name):
        method = getattr(VectorMacAdapter, name)

        def log(self, *cells):
            callbacks.append((name, *(c.tolist() for c in cells)))
            return method(self, *cells)

        return log

    with contextlib.ExitStack() as stack:
        stack.enter_context(
            mock.patch.object(vector_engine, "VectorRuntime", build)
        )
        for name in ("on_ack", "on_wake", "on_rcv"):
            stack.enter_context(
                mock.patch.object(VectorMacAdapter, name, logged(name))
            )
        results = run_trials(plans, policy)
    traces = [list(trace) for runtime in runtimes for trace in runtime.traces]
    native_slots = [runtime.native_slots for runtime in runtimes]
    return results, traces, callbacks, native_slots


@needs_native
@pytest.mark.parametrize("physics", ["dense", "sparse-exact"])
@pytest.mark.parametrize("trials", [1, 8])
@pytest.mark.parametrize("stack", ["decay", "ack"])
@pytest.mark.parametrize("workload", sorted(PROTOCOL_OPTIONS))
def test_protocol_clients_native_equal_numpy(workload, stack, trials, physics):
    """Counters-only protocol batches on the kernel, at one thread and
    (8 trials) two: results equal the numpy step's, each trial's full
    event trace is equal *in order* (TrialResult equality cannot see
    where a relay's ``bcast`` or a ``decide`` lands inside a slot), the
    clients hear the same callbacks with the same cell arrays (acks
    ascending across trials), and the kernel really ran."""
    plans = _protocol_plans(workload, stack, trials, physics)
    ref, ref_traces, ref_callbacks, _ = _run_traced(
        plans, ExecutionPolicy(native=False)
    )
    assert all(result.completion > 0 for result in ref)
    for threads in (1, 2) if trials == 8 else (1,):
        nat, nat_traces, nat_callbacks, native_slots = _run_traced(
            plans, ExecutionPolicy(native=True, native_threads=threads)
        )
        assert nat == ref
        assert nat_traces == ref_traces
        assert nat_callbacks == ref_callbacks
        assert native_slots and all(slots > 0 for slots in native_slots)
    if physics == "dense":
        assert ref == run_trials(plans, ExecutionPolicy(vectorize=False))


# -- golden-fixture replay ---------------------------------------------------


@needs_native
@pytest.mark.parametrize(
    "name",
    # The paper's-MAC fixtures trace physical events and run Algorithm
    # 9.1, which the C kernel does not cover.
    sorted(
        name
        for name, plans in golden_plans().items()
        if not plans[0].record_physical
    ),
)
def test_golden_fixtures_replay_under_forced_native(name, monkeypatch):
    """REPRO_NATIVE=1 on the committed golden sweep: the smb and
    consensus fixtures are counters-only, so every slot of each batch
    advances in C (client reactions replayed between slots) and the
    committed fixtures reproduce bit for bit."""
    monkeypatch.setenv("REPRO_NATIVE", "1")
    native_slots = []
    advance = NativeStepper.advance

    def counting(self, k, rows):
        native_slots.append(advance(self, k, rows))
        return native_slots[-1]

    monkeypatch.setattr(NativeStepper, "advance", counting)
    expected = json.loads(_fixture_path(name).read_text(encoding="utf-8"))
    results = run_trials(golden_plans()[name])
    assert serialize(results) == expected
    # One batch per fixture: its slot count is the longest trial's.
    assert sum(native_slots) == max(result.slots for result in results)


# -- backend selection ------------------------------------------------------


def _direct_runtime(
    native: bool | None = None,
    sparse: bool = False,
    threads: int | None = None,
    broadcast: bool = True,
    trials: int = 1,
):
    points = resolve_deployment(DEPLOYMENT)
    params = TrialPlan(deployment=DEPLOYMENT).params
    if sparse:
        params = sparse_exact_params()
    config = DecayConfig(contention_bound=16.0, eps_ack=0.2)
    if sparse:
        channels = [Channel(points, params)]
    else:
        artifacts = deployment_artifacts(points, params)
        channels = [
            Channel(
                points,
                params,
                distances=artifacts.distances,
                gains=artifacts.gains,
            )
            for _ in range(trials)
        ]
    runtime = VectorRuntime(
        channels,
        DecayKernel([config] * trials, N),
        seeds=[77 + t for t in range(trials)],
        record_physical=False,
        native=native,
        native_threads=threads,
    )
    if broadcast:
        for t in range(trials):
            for node in range(N):
                runtime.bcast(t, node, payload=f"m{node}")
    return runtime


@pytest.mark.parametrize(
    "backend",
    [pytest.param(True, marks=needs_native), False],
    ids=["native", "numpy"],
)
def test_advance_slots_without_rows_is_a_no_op(backend):
    """advance_slots(k, []) advances nothing on either backend; the
    native stepper's slot budget is a min() over the rows and must
    never see an empty list."""
    runtime = _direct_runtime(native=backend)
    before = list(runtime.traces[0])
    runtime.advance_slots(3, [])
    assert runtime.slots == [0]
    assert runtime.native_slots == 0
    assert runtime.channels[0].total_transmissions == 0
    assert list(runtime.traces[0]) == before


@pytest.mark.parametrize(
    "backend",
    [pytest.param(True, marks=needs_native), False],
    ids=["native", "numpy"],
)
def test_empty_population_advances(backend):
    """A batch of zero-node trials still counts its slots on either
    backend (the kernel must not stall short of its target)."""
    params = TrialPlan(deployment=DEPLOYMENT).params
    runtime = VectorRuntime(
        [Channel(PointSet(np.zeros((0, 2))), params)],
        DecayKernel([DecayConfig(contention_bound=4.0)], 0),
        seeds=[1],
        record_physical=False,
        native=backend,
    )
    runtime.run(3)
    assert runtime.slots == [3]
    assert runtime.native_slots == (3 if backend else 0)


@needs_native
@pytest.mark.parametrize("staggered", [False, True], ids=["busy", "staggered"])
def test_native_lanes_continue_the_generator_streams(staggered):
    """The kernel steps each node's PCG64 state in place, one
    Generator.random() per owned slot: after k native slots every
    lane's state words equal its spawn_node_rngs generator advanced by
    that lane's draw count (slots_run — no node rebroadcasts here),
    compared through bit_generator.state."""
    trials = 3
    runtime = _direct_runtime(native=True, trials=trials, broadcast=False)
    first = range(3) if staggered else range(N)
    for t in range(trials):
        for node in first:
            runtime.bcast(t, node, payload=f"m{node}")
    runtime.run(17)
    if staggered:
        for t in range(trials):
            for node in range(3, 7):
                runtime.bcast(t, node, payload=f"m{node}")
        runtime.run(23)
    else:
        assert runtime._busy.all(), "every node must still be drawing"
    assert runtime.native_slots == runtime.slots[0]
    draws = runtime.kernel.slots_run
    assert sorted(set(draws.tolist())) == ([0, 23, 40] if staggered else [17])
    for t in range(trials):
        for node, rng in enumerate(spawn_node_rngs(N, 77 + t)):
            lane = t * N + node
            rng.random(int(draws[lane]))
            hi, lo, inc_hi, inc_lo = (int(w) for w in runtime._pcg[lane])
            assert rng.bit_generator.state["state"] == {
                "state": hi << 64 | lo,
                "inc": inc_hi << 64 | inc_lo,
            }


@pytest.mark.parametrize(
    "backend",
    [pytest.param(True, marks=needs_native), False],
    ids=["native", "numpy"],
)
def test_slot_budget_raises_after_the_same_slot(backend):
    """A counters-only Decay plan whose max_slots is below its
    fixed_slots target raises the budget error on either backend, with
    the batch standing at its budget — the native path raises it
    itself after running exactly the slots the budget allows."""
    plans = make_plans(
        "decay",
        2,
        None,
        workload="fixed_slots",
        options=TrialPlan.pack_options(slots=400),
        max_slots=150,
        record_physical=False,
    )
    runtimes = []
    real = vector_engine.VectorRuntime

    def build(*args, **kwargs):
        runtimes.append(real(*args, **kwargs))
        return runtimes[-1]

    with mock.patch.object(vector_engine, "VectorRuntime", build):
        with pytest.raises(RuntimeError, match="slot budget exhausted"):
            run_trials(plans, ExecutionPolicy(native=backend))
    (runtime,) = runtimes
    assert runtime.slots == [150, 150]
    assert runtime.native_slots == (150 if backend else 0)


@needs_native
def test_stepper_threads_clamp_to_the_kernel_limit():
    """C runs at most MAX_THREADS threads; the stepper sizes its event
    segments for the partition C really uses, so one call can finish
    a slot of every trial in a thread's range."""
    trials = native.MAX_THREADS + 6
    runtime = _direct_runtime(native=True, trials=trials, threads=1000)
    stepper = runtime._stepper
    assert stepper._nthreads == native.MAX_THREADS
    assert stepper._ev_seg >= 3 * N * -(-trials // native.MAX_THREADS)


@needs_native
def test_adapter_slot_must_finish_in_one_call():
    """Adapter batches replay one slot per kernel call: a call that
    leaves any live trial short of the slot raises instead of letting
    the slot's events split over two calls."""
    runtime = _direct_runtime(native=True, trials=2, broadcast=False)
    adapter = VectorMacAdapter(runtime)
    clients = ConsensusClients(
        adapter, waves=[3, 3], values=[[i % 2 for i in range(N)]] * 2
    )
    adapter.install(clients)
    for t in range(2):
        clients.start(t)
    # Below the 3n-row worst case C demands before entering a slot.
    runtime._stepper._state.ev_seg = 3 * N - 1
    with pytest.raises(RuntimeError, match="mid-slot"):
        runtime.advance()


def test_env_zero_forces_numpy_fallback(monkeypatch):
    """REPRO_NATIVE=0 pins the reference path even when the compiled
    kernel is built: not one slot runs in C, same results."""
    monkeypatch.setenv("REPRO_NATIVE", "0")
    env_off = _direct_runtime()
    env_off.run(200)
    assert env_off.native_slots == 0
    monkeypatch.delenv("REPRO_NATIVE")
    reference = _direct_runtime(native=False)
    reference.run(200)
    assert reference.native_slots == 0
    assert (
        env_off.channels[0].total_transmissions
        == reference.channels[0].total_transmissions
    )
    assert (
        env_off.channels[0].total_receptions
        == reference.channels[0].total_receptions
    )


def test_resolve_backend_decision_table(monkeypatch):
    """explicit=False always wins; env 0 forces the fallback; env 1 and
    native=True demand the kernel (loud RuntimeError when unbuilt);
    unset auto-selects whatever available() reports."""
    monkeypatch.setenv("REPRO_NATIVE", "1")
    assert native.resolve_backend(False) is False
    monkeypatch.setenv("REPRO_NATIVE", "0")
    assert native.resolve_backend(None) is False
    monkeypatch.delenv("REPRO_NATIVE")

    monkeypatch.setattr(native, "available", lambda: True)
    assert native.resolve_backend(None) is True
    assert native.resolve_backend(True) is True
    monkeypatch.setenv("REPRO_NATIVE", "1")
    assert native.resolve_backend(None) is True
    monkeypatch.delenv("REPRO_NATIVE")

    monkeypatch.setattr(native, "available", lambda: False)
    assert native.resolve_backend(None) is False
    with pytest.raises(RuntimeError, match="native=True demands"):
        native.resolve_backend(True)
    monkeypatch.setenv("REPRO_NATIVE", "1")
    with pytest.raises(RuntimeError, match="REPRO_NATIVE=1 demands"):
        native.resolve_backend(None)


def test_available_is_a_clean_probe():
    """available() must answer without raising on any machine — it is
    the skip guard for this whole suite."""
    assert native.available() in (True, False)
    assert native.lib_path().name == "_advance.so"


# -- build staleness --------------------------------------------------------


def test_build_stamp_catches_flag_and_source_changes(tmp_path, monkeypatch):
    """The stamp sidecar must rebuild on _FLAGS changes — the case the
    old mtime-only check missed (the .so postdates the .c, so a flag
    like -pthread appearing in a new revision silently kept a stale
    kernel).  Exercised against a scratch source so the real kernel is
    never touched."""
    import importlib

    # repro.native re-exports the build *function*, shadowing the
    # submodule attribute; resolve the module itself.
    build_mod = importlib.import_module("repro.native.build")

    compiler = build_mod._find_compiler()
    if compiler is None:
        pytest.skip("no C compiler available")
    source = tmp_path / "stamped.c"
    source.write_text("int stamped(void) { return 7; }\n", encoding="utf-8")
    monkeypatch.setattr(build_mod, "SOURCE", source)
    monkeypatch.setattr(build_mod, "TARGET", source.with_suffix(".so"))
    monkeypatch.setattr(
        build_mod, "STAMP", source.with_suffix(".buildstamp.json")
    )

    target = build_mod.build(quiet=True)
    assert target is not None and target.is_file()
    assert build_mod.STAMP.is_file()
    assert build_mod._is_fresh(compiler)

    # Same source, same flags: a second build is a no-op.
    mtime = target.stat().st_mtime_ns
    assert build_mod.build(quiet=True) == target
    assert target.stat().st_mtime_ns == mtime

    # A flag change makes the build stale even though the .so still
    # postdates the .c — exactly what mtime comparison cannot see.
    monkeypatch.setattr(
        build_mod, "_FLAGS", (*build_mod._FLAGS, "-DSTAMP_TEST")
    )
    assert not build_mod._is_fresh(compiler)
    assert build_mod.build(quiet=True) == target
    assert build_mod._is_fresh(compiler)

    # Source edits and stamp corruption are stale too.
    source.write_text("int stamped(void) { return 8; }\n", encoding="utf-8")
    assert not build_mod._is_fresh(compiler)
    build_mod.build(quiet=True)
    build_mod.STAMP.write_text("not json", encoding="utf-8")
    assert not build_mod._is_fresh(compiler)


def test_uniform_buffer_chunk_equivalence():
    """NodeUniformBuffer serves the identical stream regardless of
    chunk size — the property the horizon pre-sizing rides on."""
    small = NodeUniformBuffer(spawn_node_rngs(5, seed=21), chunk=3)
    large = NodeUniformBuffer(spawn_node_rngs(5, seed=21), chunk=1000)
    lanes = np.arange(5, dtype=np.intp)
    for _ in range(50):
        assert small.take(lanes).tolist() == large.take(lanes).tolist()
