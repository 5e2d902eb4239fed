"""Per-layer spans, recorded from outside the program.

The program has no timers of its own, so the traced run wraps each
layer's public calls for the length of one sweep and restores them
afterwards.  A call is wrapped where it is *looked up*, not where it is
defined: ``repro.experiments.cache`` binds ``metrics_from_graphs`` by
``from ... import``, so patching ``repro.analysis.metrics`` would never
see the call.  Methods are patched on their class, which every caller
reaches through attribute lookup.

Spans nest on one stack (the program is single-threaded with
``workers=1`` and ``native_threads=1``), so each layer's *self* time is
its span minus the part covered by child spans, and the self times of
all layers add up to the time covered by the outermost spans.  Spans
read the same clock as the sweep they divide: process CPU seconds.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Any, Callable

__all__ = ["COUNTERS", "LAYERS", "SpanRecorder", "traced"]

# (owner, attribute, layer, counter).  The owner is a module path or a
# "module:Class" path; the counter, when given, maps (args, result) to
# a (name, amount) pair added on every call.
_NBYTES = ("sinr.dense_bytes", lambda args, result: result.nbytes)
_TARGETS: tuple[tuple[str, str, str, Any], ...] = (
    ("repro.experiments.engine", "execute_plans", "experiments.engine", None),
    ("repro.experiments.plans:DeploymentSpec", "build", "geometry.deploy",
     None),
    ("repro.experiments.cache", "metrics_from_graphs", "analysis.metrics",
     None),
    ("repro.experiments.cache", "strong_connectivity_graph", "sinr.graphs",
     None),
    ("repro.experiments.cache", "approx_connectivity_graph", "sinr.graphs",
     None),
    ("repro.experiments.cache", "pairwise_distances", "sinr.dense", _NBYTES),
    ("repro.experiments.cache", "gain_matrix", "sinr.dense", _NBYTES),
    ("repro.sinr.graphs", "pairwise_distances", "sinr.dense", _NBYTES),
    ("repro.sinr.channel", "pairwise_distances", "sinr.dense", _NBYTES),
    ("repro.sinr.channel", "gain_matrix", "sinr.dense", _NBYTES),
    ("repro.experiments.cache", "SparseResolver", "sinr.sparse_build", None),
    ("repro.simulation.runtime:Runtime", "collect_transmissions",
     "simulation.runtime", None),
    ("repro.simulation.runtime:Runtime", "deliver_outcome",
     "simulation.runtime", None),
    ("repro.experiments.engine", "successful_receptions_batch",
     "sinr.physics", None),
    ("repro.vectorized.runtime", "successful_receptions_batch",
     "sinr.physics", None),
    ("repro.sinr.channel:Channel", "validated_transmitters", "sinr.channel",
     None),
    ("repro.sinr.channel:Channel", "finalize_slot", "sinr.channel", None),
    ("repro.simulation.runtime", "spawn_node_rngs", "simulation.rng_spawn",
     ("simulation.generators", lambda args, result: len(result))),
    ("repro.vectorized.runtime", "spawn_node_rngs", "simulation.rng_spawn",
     ("simulation.generators", lambda args, result: len(result))),
    ("repro.experiments.engine", "run_vector_group", "vectorized.group",
     None),
    ("repro.vectorized.runtime:VectorRuntime", "advance", "vectorized.step",
     ("vectorized.numpy_slots", lambda args, result: 1)),
    ("repro.vectorized.protocols:VectorMacAdapter", "on_wake",
     "vectorized.protocols", None),
    ("repro.vectorized.protocols:VectorMacAdapter", "on_ack",
     "vectorized.protocols", None),
    ("repro.vectorized.protocols:VectorMacAdapter", "on_rcv",
     "vectorized.protocols", None),
    ("repro.vectorized.protocols:VectorMacAdapter", "flush",
     "vectorized.protocols", None),
    ("repro.native.stepper:NativeStepper", "advance", "native.shell",
     ("native.slots", lambda args, result: result)),
    ("repro.experiments.engine", "broadcast_intervals", "core.spec",
     ("simulation.trace_events", lambda args, result: len(args[0]))),
    ("repro.vectorized.engine", "broadcast_intervals", "core.spec",
     ("simulation.trace_events", lambda args, result: len(args[0]))),
    ("repro.vectorized.engine", "measure_acknowledgments", "core.spec",
     None),
    ("repro.vectorized.engine", "measure_approximate_progress", "core.spec",
     None),
    ("repro.analysis.harness:StackBundle", "ack_report", "core.spec", None),
    ("repro.analysis.harness:StackBundle", "approg_report", "core.spec",
     None),
)
# The ctypes entry point of the C kernel, wrapped on the loaded library.
_KERNEL = ("repro_advance_slots", "native.kernel")

LAYERS = tuple(
    dict.fromkeys(
        [layer for _o, _a, layer, _c in _TARGETS] + [_KERNEL[1]]
    )
)
COUNTERS = tuple(
    dict.fromkeys(c[0] for _o, _a, _l, c in _TARGETS if c is not None)
)


class SpanRecorder:
    """Self time per layer and counters, from a stack of open spans."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        # One [layer, start, child seconds] entry per open span.
        self._open: list[list[Any]] = []

    def wrap(self, layer: str, fn: Callable, counter=None) -> Callable:
        """``fn`` timed as a span of ``layer`` (and counted, if asked)."""
        clock = time.process_time
        open_spans = self._open

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            entry = [layer, clock(), 0.0]
            open_spans.append(entry)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_spans.pop()
                elapsed = clock() - entry[1]
                self.self_s[layer] += elapsed - entry[2]
                if open_spans:
                    open_spans[-1][2] += elapsed
            if counter is not None:
                name, amount = counter
                self.counts[name] += amount(args, result)
            return result

        return spanned

    @property
    def covered_s(self) -> float:
        """Seconds inside any span (the sum of all self times)."""
        return sum(self.self_s.values())


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class traced:
    """Context manager: every layer's calls recorded into ``recorder``.

    The originals are put back on exit, so untraced sweeps in the same
    process run the unmodified program.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[Any, str, Any]] = []
        # Lookup sites the program no longer has: their layer reads 0
        # and their time shows up in other_s instead of failing the run.
        self.missing: list[str] = []

    def _patch(self, owner, attr: str, layer: str, counter) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else (
            getattr(owner, attr)
        )
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.recorder.wrap(layer, original, counter))

    def __enter__(self) -> SpanRecorder:
        for path, attr, layer, counter in _TARGETS:
            try:
                self._patch(_owner(path), attr, layer, counter)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{path}.{attr}")
        from repro import native

        lib = native.load()
        if lib is not None:
            self._patch(lib, _KERNEL[0], _KERNEL[1], None)
        return self.recorder

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
