"""Per-node random sources.

The paper assumes each node has private access to a perfect random source
(§4.6).  We realize this with independent numpy generators spawned from a
single seed sequence, so whole experiments are reproducible from one seed
while nodes remain statistically independent.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "spawn_node_rngs",
    "spawn_channel_rng",
    "spawn_trial_seeds",
    "pcg64_columns",
    "NodeUniformBuffer",
    "LinkUniformBuffer",
]


def spawn_node_rngs(n: int, seed: int | None = 0) -> list[np.random.Generator]:
    """Return ``n`` independent generators derived from ``seed``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]


def spawn_channel_rng(n: int, seed: int | None = 0) -> np.random.Generator:
    """The trial's *channel* stream: child ``n`` of the master sequence.

    ``SeedSequence.spawn`` keys children purely by index, so spawning
    ``n + 1`` children of a fresh ``SeedSequence(seed)`` yields exactly
    the ``n`` node streams of :func:`spawn_node_rngs` plus one more,
    statistically independent of all of them.  The extra stream feeds
    the stochastic channel model
    (:class:`~repro.sinr.params.ChannelModel`): fading and shadowing
    draws never touch a node's private generator, so enabling the model
    perturbs *only* the physics — every node still sees the exact
    protocol-randomness stream it would see on a deterministic channel,
    and disabling the model costs zero draws.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    # Identical to SeedSequence(seed).spawn(n + 1)[n] — spawn() keys
    # child i as spawn_key=(i,) — without materializing the n node
    # children this caller does not want.
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(n,)))


def spawn_trial_seeds(n: int, seed: int | None = 0) -> list[int]:
    """Deterministic per-trial master seeds for multi-trial experiments.

    Spawns ``n`` children of ``SeedSequence(seed)`` and collapses each to
    a single integer, which becomes one trial's master seed (feeding
    :func:`spawn_node_rngs` inside that trial).  Trial ``t``'s seed is a
    pure function of ``(seed, t)``, so results are identical no matter
    how trials are batched, ordered, or distributed over worker
    processes — the statistical independence of the per-node sources
    (§4.6) extends to independence *across trials*.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    seq = np.random.SeedSequence(seed)
    return [
        int(child.generate_state(1, dtype=np.uint32)[0])
        for child in seq.spawn(n)
    ]


_LOW64 = (1 << 64) - 1


def pcg64_columns(rngs) -> np.ndarray:
    """The PCG64 state of each generator as ``(len(rngs), 4)`` uint64
    words: 128-bit state hi, state lo, increment hi, increment lo.

    The native kernel (:mod:`repro.native`) steps these words in place,
    one ``Generator.random()`` draw at a time, so a lane continues its
    generator's stream exactly where the generator stands now.
    """
    words: list[int] = []
    for rng in rngs:
        pcg = rng.bit_generator.state["state"]
        state, inc = pcg["state"], pcg["inc"]
        words += (state >> 64, state & _LOW64, inc >> 64, inc & _LOW64)
    return np.array(words, dtype=np.uint64).reshape(-1, 4)


class NodeUniformBuffer:
    """Bulk pre-draw of each node's PCG64 words, stream-identical to
    scalar ``Generator`` draws.

    The numpy step of the columnar fast path (:mod:`repro.vectorized`)
    draws for many nodes at once, exactly as the object runtime draws
    for each — node ``i``'s k-th vectorized draw must be the value its
    ``Generator`` would have produced on its k-th call, or the fast
    path stops being decode-for-decode identical.  (The native kernel
    steps :func:`pcg64_columns` instead and needs no buffer.)

    This buffer wraps one generator per node and refills each node's
    lane ``chunk`` raw 64-bit words at a time with
    ``bit_generator.random_raw(chunk)``, then serves both draw kinds
    the protocols make from those words, as numpy's PCG64 ``Generator``
    does (``tests/test_vectorized_equivalence.py`` pins both):

    * :meth:`take` — ``random()``: one word ``w`` per draw, as the
      double ``(w >> 11) · 2⁻⁵³``;
    * :meth:`integers` — ``integers(low, high)`` for ranges up to 2³²
      values: Lemire's method on 32-bit halves.  PCG64 hands out the
      low half of a fresh word and keeps the high half for the next
      32-bit request, so each lane carries the same one-flag,
      one-value buffer (``has_uint32`` / ``uinteger``), which
      ``random()`` leaves alone.

    One call serves a whole population's draws of one kind as a few
    fancy-indexed array operations instead of N Python method calls.
    """

    # The buffer costs lanes × chunk × 8 bytes; beyond this ceiling the
    # chunk auto-scales down (draw streams are chunk-independent, so
    # only refill frequency changes) instead of letting a huge
    # population sweep allocate hundreds of MB of pre-drawn words.
    MAX_BUFFER_BYTES = 64 << 20
    # The widest integers() range on numpy's 32-bit path.
    MAX_INTEGER_RANGE = 1 << 32

    def __init__(self, rngs, chunk: int = 512) -> None:
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        self._rngs = list(rngs)
        lanes = len(self._rngs)
        if lanes:
            cap = max(8, self.MAX_BUFFER_BYTES // (lanes * 8))
            chunk = min(int(chunk), cap)
        self.chunk = int(chunk)
        self._buf = np.empty((lanes, self.chunk), dtype=np.uint64)
        # All lanes start unfilled (cursor past the end, no buffered
        # half read yet); they fill lazily on first use so nodes that
        # never draw (asleep / never broadcasting) cost nothing and
        # leave their generator untouched.
        self._cursor = np.full(lanes, self.chunk + 1, dtype=np.intp)
        self._has_half = np.zeros(lanes, dtype=bool)
        self._half = np.zeros(lanes, dtype=np.uint64)

    def __len__(self) -> int:
        return len(self._rngs)

    def _first_use(self, idx: np.ndarray) -> None:
        """Take over the buffered 32-bit half of the lanes in ``idx``
        that have not drawn yet (their cursor is past the end)."""
        for lane in idx[self._cursor[idx] > self.chunk].tolist():
            state = self._rngs[lane].bit_generator.state
            self._has_half[lane] = bool(state["has_uint32"])
            self._half[lane] = state["uinteger"]
            self._cursor[lane] = self.chunk  # empty: refill on first word

    def _words(self, idx: np.ndarray) -> np.ndarray:
        """The next raw word of each lane in ``idx`` (no repeats)."""
        exhausted = idx[self._cursor[idx] >= self.chunk]
        if exhausted.size:
            self._first_use(exhausted)
            for lane in exhausted.tolist():
                bit_generator = self._rngs[lane].bit_generator
                self._buf[lane] = bit_generator.random_raw(self.chunk)
            self._cursor[exhausted] = 0
        out = self._buf[idx, self._cursor[idx]]
        self._cursor[idx] += 1
        return out

    def take(self, indices: np.ndarray) -> np.ndarray:
        """Next ``random()`` of each indexed lane, aligned with
        ``indices``.

        ``indices`` must not repeat a lane within one call (a node owns
        at most one draw per slot); across calls, each lane's values
        appear in exactly its generator's scalar stream order.
        """
        idx = np.asarray(indices, dtype=np.intp)
        return (self._words(idx) >> 11) * (1.0 / 9007199254740992.0)

    def _halves(self, idx: np.ndarray) -> np.ndarray:
        """Next 32-bit value of each lane, as PCG64's ``next_uint32``."""
        self._first_use(idx)
        has = self._has_half[idx]
        out = np.empty(idx.size, dtype=np.uint64)
        out[has] = self._half[idx[has]]
        fresh = idx[~has]
        if fresh.size:
            words = self._words(fresh)
            out[~has] = words & 0xFFFFFFFF
            self._half[fresh] = words >> 32
        self._has_half[idx] = ~has
        return out

    def integers(
        self, indices: np.ndarray, low: int, high: np.ndarray
    ) -> np.ndarray:
        """Next ``integers(low, high[i])`` of each indexed lane (int64),
        for ranges ``high - low`` of 2 to 2³² values.

        Lemire's method as numpy runs it: scale a 32-bit value by the
        range, and redraw while the low word falls under the rejection
        threshold ``2³² mod range``.
        """
        idx = np.asarray(indices, dtype=np.intp)
        span = (np.asarray(high, dtype=np.int64) - low).astype(np.uint64)
        span = np.broadcast_to(span, idx.shape)
        if idx.size and not (
            (span >= 2).all() and (span <= self.MAX_INTEGER_RANGE).all()
        ):
            raise ValueError("integers() needs 2 to 2**32 values")
        scaled = self._halves(idx) * span
        low_word = scaled & 0xFFFFFFFF
        suspect = np.flatnonzero(low_word < span)
        if suspect.size:
            threshold = (self.MAX_INTEGER_RANGE - span[suspect]) % span[suspect]
            redo = suspect[low_word[suspect] < threshold]
            threshold = threshold[low_word[suspect] < threshold]
            while redo.size:
                scaled[redo] = self._halves(idx[redo]) * span[redo]
                again = (scaled[redo] & 0xFFFFFFFF) < threshold
                redo, threshold = redo[again], threshold[again]
        return (scaled >> 32).astype(np.int64) + low


class LinkUniformBuffer:
    """Bulk pre-draw of per-link uniforms from one channel generator.

    The per-link companion of :class:`NodeUniformBuffer`: Rayleigh
    fading needs ``k·n`` fresh uniforms per slot (one per (transmitter,
    listener) pair), and drawing them as thousands of tiny
    ``Generator.random(k·n)`` calls per trial wastes time on generator
    re-entry for the small-``k`` slots that dominate the long
    probability sweeps.  This buffer refills ``chunk`` values at a time
    and serves arbitrary-size takes from the buffered tail.

    The served stream is *chunk-independent*: ``Generator.random``
    consumes exactly one 64-bit PCG64 output per float64, so any
    partition of the stream into refills yields the same values in the
    same order.  Both runtimes draw a trial's fading through the same
    :class:`~repro.sinr.channel.Channel` (object: per-slot resolution;
    columnar: per-trial blocks of the batched kernel), which is what
    keeps fading trials decode-for-decode identical across executors.
    """

    def __init__(self, rng: np.random.Generator, chunk: int = 1 << 14) -> None:
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        self._rng = rng
        self.chunk = int(chunk)
        self._buf = np.empty(0, dtype=np.float64)
        self._cursor = 0

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` uniforms of the channel stream, in order.

        May return a view into the current buffer; refills always
        allocate a *fresh* buffer (never overwrite in place), so
        previously returned arrays stay valid indefinitely.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        avail = self._buf.size - self._cursor
        if count <= avail:
            out = self._buf[self._cursor : self._cursor + count]
            self._cursor += count
            return out
        parts = [self._buf[self._cursor :]] if avail else []
        remaining = count - avail
        # One direct draw covers an oversized tail (stream-identical to
        # any chunking of it); the buffer then refills for future takes.
        if remaining >= self.chunk:
            parts.append(self._rng.random(remaining))
            self._buf = np.empty(0, dtype=np.float64)
            self._cursor = 0
        else:
            self._buf = self._rng.random(self.chunk)
            parts.append(self._buf[:remaining])
            self._cursor = remaining
        return np.concatenate(parts) if len(parts) > 1 else parts[0]
