"""repro.native — the compiled slot-loop kernel behind the columnar path.

The remaining hot-path cost after the columnar rewrite is per-slot
Python dispatch: every slot of a counters-only sweep still pays ~20
numpy calls and their temporaries.  This package fuses the whole slot —
transmit decision, dense gain gather, SINR reduce, decode, dedup,
kernel state step — into one C loop (``_advance.c``) that advances the
``(trials, n)`` lattice k slots per call, **bit-identical** to the numpy
path and the object runtime.  Each node draws from its own PCG64 state,
which the kernel steps in place exactly as numpy's
``Generator.random()`` does: the runtime reads every lane's state once
from the generators :func:`~repro.simulation.rng.spawn_node_rngs`
builds, so each node consumes the same stream, draw for draw, on every
backend.  Batches with protocol clients (BSMB / BMMB / consensus) run
one slot per call: each slot's ack / wake / rcv events replay through
the clients, whose rebroadcasts then shape the next slot.

Backend selection
-----------------
The kernel is a plain shared library loaded through :mod:`ctypes` — no
CPython/numpy ABI, so a machine without a compiler simply keeps the
pure-numpy reference path.  :func:`available` probes whether the
library is built and loadable; :func:`resolve_backend` folds in the
``REPRO_NATIVE`` environment override (``0`` forces the numpy
fallback, ``1`` demands the native kernel and raises when it is
missing, unset auto-selects) and any explicit ``native=`` argument
threaded down from :func:`repro.experiments.run_trials`.

Build with ``make native`` (or ``python -m repro.native.build``); see
the "Native kernels" section of ``docs/architecture.md`` for the
fusion boundary and the fallback matrix.
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path

from repro.native.build import SOURCE, TARGET, build
from repro.simulation.trace import ACK, RCV, WAKE

__all__ = [
    "available",
    "build",
    "lib_path",
    "load",
    "resolve_backend",
    "resolve_threads",
    "NativeState",
    "MAX_THREADS",
    "EV_ACK",
    "EV_WAKE",
    "EV_RCV",
    "EV_COLS",
]

# Event-row codes and width of the C event sink: each row is
# [trial, slot, code, node, mid, sender]; only rcv rows carry a sender.
# The codes are the trace's own kind codes (the EV_* enum in _advance.c
# repeats them), so the drain appends kernel rows to the event log
# without translating kinds.
EV_ACK = ACK
EV_WAKE = WAKE
EV_RCV = RCV
EV_COLS = 6

# Most kernel threads one call runs (the MAX_THREADS enum in
# _advance.c); the stepper clamps its thread count to it.
MAX_THREADS = 64

# Return codes of repro_advance_slots beyond "slots completed".
ERR_BETA_VIOLATION = -2


class NativeState(ctypes.Structure):
    """ctypes mirror of the ``repro_state`` struct in ``_advance.c``.

    Field order and widths must match the C definition exactly; every
    field is 8 bytes on LP64 platforms, so no packing pragma is needed.
    """

    _fields_ = [
        ("trials", ctypes.c_long),
        ("n", ctypes.c_long),
        ("nthreads", ctypes.c_long),
        ("kind", ctypes.c_long),
        ("sparse", ctypes.c_long),
        ("trial_target", ctypes.c_void_p),
        ("live", ctypes.c_void_p),
        ("busy", ctypes.c_void_p),
        ("awake", ctypes.c_void_p),
        ("tx_mid", ctypes.c_void_p),
        ("seen", ctypes.c_void_p),
        ("pcg", ctypes.c_void_p),
        ("gains", ctypes.c_void_p),
        ("gain_stride", ctypes.c_long),
        ("noise", ctypes.c_double),
        ("beta", ctypes.c_double),
        ("nbr", ctypes.c_void_p),
        ("indptr", ctypes.c_void_p),
        ("slots_run", ctypes.c_void_p),
        ("transmissions", ctypes.c_void_p),
        ("phase_length", ctypes.c_void_p),
        ("ack_budget", ctypes.c_void_p),
        ("probability", ctypes.c_void_p),
        ("block_remaining", ctypes.c_void_p),
        ("tp", ctypes.c_void_p),
        ("rc", ctypes.c_void_p),
        ("halted_col", ctypes.c_void_p),
        ("fallback_pending", ctypes.c_void_p),
        ("fallbacks", ctypes.c_void_p),
        ("halt_budget", ctypes.c_void_p),
        ("rc_threshold", ctypes.c_void_p),
        ("inner_block_slots", ctypes.c_void_p),
        ("prob_cap", ctypes.c_void_p),
        ("fallback_divisor", ctypes.c_void_p),
        ("floor_probability", ctypes.c_void_p),
        ("trial_slots", ctypes.c_void_p),
        ("slot_counts", ctypes.c_void_p),
        ("tx_totals", ctypes.c_void_p),
        ("rx_totals", ctypes.c_void_p),
        ("events", ctypes.c_void_p),
        ("ev_seg", ctypes.c_long),
        ("ev_lens", ctypes.c_void_p),
        ("sc_tx", ctypes.c_void_p),
        ("sc_tot", ctypes.c_void_p),
        ("sc_txflag", ctypes.c_void_p),
        ("sc_stepped", ctypes.c_void_p),
        ("sc_decoded", ctypes.c_void_p),
        ("sc_rx_listener", ctypes.c_void_p),
        ("sc_rx_sender", ctypes.c_void_p),
        ("sc_cand", ctypes.c_void_p),
        ("sc_candflag", ctypes.c_void_p),
        # C11 _Atomic long: same size and alignment as long on LP64;
        # only the C side touches it concurrently.
        ("error", ctypes.c_long),
    ]


_lib: ctypes.CDLL | None = None
_load_failed = False


def lib_path() -> Path:
    """Where the compiled kernel lives (next to its C source)."""
    return TARGET


def load() -> ctypes.CDLL | None:
    """The loaded kernel library, or None when it is not built.

    The result is cached: the first failing probe (missing or unloadable
    ``.so``) pins the session to the numpy fallback — rebuild and
    restart to pick a fresh kernel up.
    """
    global _lib, _load_failed
    if _lib is not None or _load_failed:
        return _lib
    if not TARGET.is_file():
        _load_failed = True
        return None
    try:
        lib = ctypes.CDLL(str(TARGET))
        lib.repro_advance_slots.argtypes = [ctypes.POINTER(NativeState)]
        lib.repro_advance_slots.restype = ctypes.c_long
    except OSError:
        _load_failed = True
        return None
    _lib = lib
    return _lib


def available() -> bool:
    """True when the compiled kernel is built and loadable."""
    return load() is not None


def resolve_backend(explicit: bool | None = None) -> bool:
    """Decide whether the native backend should run.

    ``explicit`` is the ``native=`` argument threaded down from the
    experiment engine: ``False`` always keeps the numpy reference path,
    ``True`` demands the native kernel (``RuntimeError`` when it is not
    built), and ``None`` defers to the ``REPRO_NATIVE`` environment
    variable — ``0`` forces the fallback, ``1`` demands the kernel,
    unset (or anything else) auto-selects it when available.
    """
    if explicit is False:
        return False
    if explicit is None:
        env = os.environ.get("REPRO_NATIVE", "").strip()
        if env == "0":
            return False
        if env != "1":
            return available()
    if not available():
        origin = (
            "native=True" if explicit else "REPRO_NATIVE=1"
        )
        raise RuntimeError(
            f"{origin} demands the native kernel, but {TARGET.name} is "
            f"not built; run `make native` (source: {SOURCE})"
        )
    return True


def resolve_threads(explicit: int | None = None) -> int:
    """How many kernel threads partition the trials axis.

    ``explicit`` is the ``native_threads=`` knob threaded down from
    :class:`~repro.experiments.policy.ExecutionPolicy`; ``None`` defers
    to the ``REPRO_NATIVE_THREADS`` environment variable, and an unset
    (or unparseable) variable keeps the single-threaded default.  The
    count only shapes wall-clock: results are bit-identical for every
    value (the equivalence suite pins {1, 2, 8}).
    """
    if explicit is not None:
        if explicit < 1:
            raise ValueError("native_threads must be >= 1")
        return int(explicit)
    env = os.environ.get("REPRO_NATIVE_THREADS", "").strip()
    if env:
        try:
            threads = int(env)
        except ValueError:
            raise RuntimeError(
                f"REPRO_NATIVE_THREADS={env!r} is not an integer"
            ) from None
        if threads < 1:
            raise RuntimeError("REPRO_NATIVE_THREADS must be >= 1")
        return threads
    return 1
