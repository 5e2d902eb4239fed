"""Vectorized SINR computations (paper Eq. 1).

A transmission from ``v`` is decoded at ``u`` iff

    SINR_u(v) = (P / d(v,u)^α) / (Σ_{w ∈ S\\{u,v}} P / d(w,u)^α + N) >= β,

where ``S`` is the set of concurrently transmitting nodes.  Because β > 1,
at most one transmitter can be decoded by any listener in any slot, so the
reception outcome of a slot is a partial function listener → transmitter.

All functions take a precomputed pairwise-distance matrix so the per-slot
cost is one masked matrix reduction (numpy), keeping thousand-node
simulations fast.  Two further fast paths serve the experiment engine
(:mod:`repro.experiments`):

* the received-power (gain) matrix ``P / d^α`` can be computed once per
  deployment with :func:`gain_matrix` and passed back in through the
  ``gains`` parameter, removing the per-slot ``d**α`` power evaluation;
* :func:`successful_receptions_batch` resolves one slot of *many
  independent trials at once* for the columnar runtime
  (:mod:`repro.vectorized`), taking the per-trial ``(n, n)`` matrices
  as a ``(trials, n, n)`` tensor (:func:`batch_tensor`) and reducing
  the whole batch with a handful of numpy operations.

The batched kernel is engineered to be *bit-identical* to the
single-trial one: per-trial interference totals are reduced over exactly
the same addends in the same order as :func:`sinr_matrix`, so a columnar
batch reproduces :func:`successful_receptions` decode-for-decode.
"""

from __future__ import annotations

import os

import numpy as np

from repro.sinr.params import ChannelModel, SINRParameters

__all__ = [
    "received_power",
    "gain_matrix",
    "batch_tensor",
    "batch_tensor_bytes",
    "check_batch_tensor_budget",
    "interference_at",
    "sinr_matrix",
    "sinr_of_link",
    "successful_receptions",
    "successful_receptions_batch",
    "rayleigh_gains",
    "draw_power_multipliers",
    "draw_shadowing",
    "effective_gain_matrix",
]

# Distances below this are clamped to avoid division blow-ups; the paper
# normalizes minimum node distance to 1, so this never binds on valid
# layouts and only guards against degenerate test inputs.
_MIN_DISTANCE = 1.0e-9


def received_power(
    params: SINRParameters,
    dist: np.ndarray,
    power: float | np.ndarray | None = None,
) -> np.ndarray:
    """P / d^α for an array of distances (elementwise).

    Distances are first clamped from below to ``_MIN_DISTANCE`` (1e-9):
    the paper normalizes the minimum node distance to 1 (§4.2), so the
    clamp never binds on valid layouts and exists only so degenerate
    inputs (coincident points, zero diagonals) yield astronomically
    large-but-finite powers instead of NaN/inf.

    ``power`` overrides the uniform model power; it may be an array
    broadcastable against ``dist`` (per-sender powers).  The paper's
    algorithms all use uniform power (§4.2), but the Theorem 6.1 lower
    bound holds *even under arbitrary power assignment*, which the
    corresponding experiment exercises through this hook.

    ``dist`` may have any shape, including the batched ``(trials, n, n)``
    distance tensor of the experiment engine — the computation is purely
    elementwise.
    """
    d = np.maximum(np.asarray(dist, dtype=np.float64), _MIN_DISTANCE)
    p = params.power if power is None else power
    return p / d**params.alpha


def gain_matrix(params: SINRParameters, distances: np.ndarray) -> np.ndarray:
    """The full uniform-power link-gain matrix ``G[v, u] = P / d(v,u)^α``.

    This is the deployment-derived artifact the experiment engine
    memoizes: computing it once removes the per-slot ``d**α`` power
    evaluation from every subsequent slot resolution (pass the result to
    :func:`sinr_matrix` / :func:`successful_receptions` /
    :func:`successful_receptions_batch` via their ``gains`` parameter).

    Diagonal entries correspond to the clamped self-distance (see
    :func:`received_power` for the ``_MIN_DISTANCE`` clamp) and are huge;
    they are never read by the reception kernels, which exclude
    transmitters from listening (half-duplex).  ``distances`` may also be
    a ``(trials, n, n)`` stack, giving a ``(trials, n, n)`` gain tensor.
    """
    return received_power(params, distances)


# -- stochastic channel draws (ChannelModel) --------------------------------
#
# The three transforms below turn raw RNG output into the multipliers of
# :class:`~repro.sinr.params.ChannelModel`.  They are deliberately pure
# elementwise numpy so that the object runtime and the columnar
# VectorRuntime — which both feed them the same per-trial streams in the
# same order — produce bit-identical powers.


def rayleigh_gains(uniforms: np.ndarray) -> np.ndarray:
    """Rayleigh fast-fading power multipliers from uniform draws.

    A Rayleigh-faded amplitude has |h|² ~ Exp(1) (unit mean, so fading
    neither amplifies nor attenuates on average); the inverse-CDF map
    ``-log(1 - u)`` sends u ∈ [0, 1) to (0, ∞) without ever producing
    inf/NaN (``log1p`` keeps u → 1⁻ finite at float64 resolution).
    """
    return -np.log1p(-np.asarray(uniforms, dtype=np.float64))


def draw_power_multipliers(
    model: ChannelModel, rng: np.random.Generator, n: int
) -> np.ndarray | None:
    """Per-node transmit-power multipliers, uniform in [1, spread].

    Returns None when the model keeps uniform power, so callers can
    skip the row scaling (and the draw) entirely.
    """
    if model.power_spread <= 1.0:
        return None
    return 1.0 + rng.random(n) * (model.power_spread - 1.0)


def draw_shadowing(
    model: ChannelModel, rng: np.random.Generator, n: int
) -> np.ndarray | None:
    """Symmetric per-link log-normal shadowing multipliers, or None.

    Draws an ``(n, n)`` standard-normal field, keeps the strict upper
    triangle and mirrors it (shadowing is reciprocal: the obstacle
    field between two positions attenuates both directions equally),
    then maps dB to linear: ``10^(σ·Z/10)``.  The diagonal multiplier
    is exactly 1; it is never read (half-duplex) but stays finite.
    """
    if model.shadowing_sigma_db <= 0.0:
        return None
    z = rng.standard_normal((n, n))
    sym = np.triu(z, 1)
    sym = sym + sym.T
    return 10.0 ** (model.shadowing_sigma_db * sym / 10.0)


def effective_gain_matrix(
    gains: np.ndarray,
    power_multipliers: np.ndarray | None,
    shadowing: np.ndarray | None,
) -> np.ndarray | None:
    """Fold the static (per-trial) multipliers into the base gain matrix.

    Row ``v`` of the result is ``gains[v, :] · m_v · S[v, :]`` — the
    received power of sender ``v`` at every listener before fast
    fading.  Returns None when both multipliers are absent (the slot
    kernels then use the shared deterministic cache untouched).
    """
    if power_multipliers is None and shadowing is None:
        return None
    eff = np.array(gains, dtype=np.float64)  # copy: cache arrays are frozen
    if power_multipliers is not None:
        eff *= power_multipliers[:, None]
    if shadowing is not None:
        eff *= shadowing
    return eff


# Ceiling on the bytes a batched (trials, n, n) tensor may allocate
# before :func:`batch_tensor` refuses.  Overridable per call or via
# the REPRO_BATCH_TENSOR_BUDGET environment variable (read at each
# check, so tests and long-lived sessions can adjust it); the default
# (1 GiB) admits ~16 trials of 2896-node deployments while catching the
# accidental thousand-trial stack that would silently swap the host.
DEFAULT_BATCH_TENSOR_BUDGET = 1 << 30


def _batch_tensor_budget() -> int:
    raw = os.environ.get("REPRO_BATCH_TENSOR_BUDGET")
    if raw is None:
        return DEFAULT_BATCH_TENSOR_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_BATCH_TENSOR_BUDGET must be an integer byte count; "
            f"got {raw!r}"
        ) from None


def batch_tensor_bytes(trials: int, n: int, itemsize: int = 8) -> int:
    """Bytes a dense ``(trials, n, n)`` tensor of ``itemsize`` would take."""
    return int(trials) * int(n) * int(n) * int(itemsize)


def check_batch_tensor_budget(
    trials: int, n: int, max_bytes: int | None = None, itemsize: int = 8
) -> None:
    """Raise before a ``(trials, n, n)`` tensor blows the byte budget.

    The error names the offending shape and suggests the largest trial
    chunk that fits, so callers can split their sweep (e.g. via the
    engine's ``workers`` chunking) instead of silently allocating
    gigabytes.  ``max_bytes=None`` reads the module default, which the
    ``REPRO_BATCH_TENSOR_BUDGET`` environment variable overrides.
    """
    budget = _batch_tensor_budget() if max_bytes is None else max_bytes
    if budget <= 0:  # explicit opt-out
        return
    need = batch_tensor_bytes(trials, n, itemsize)
    if need <= budget:
        return
    per_trial = batch_tensor_bytes(1, n, itemsize)
    chunk = max(1, budget // per_trial) if per_trial <= budget else 0
    hint = (
        f"split the batch into chunks of <= {chunk} trial(s)"
        if chunk
        else f"a single {n}-node trial already needs {per_trial} bytes"
    )
    raise MemoryError(
        f"batched ({trials}, {n}, {n}) tensor needs {need} bytes, over "
        f"the {budget}-byte budget; {hint}, or raise the budget via "
        "REPRO_BATCH_TENSOR_BUDGET / the max_bytes parameter"
    )


def batch_tensor(matrices, itemsize: int = 16) -> np.ndarray:
    """``(trials, n, n)`` view-or-stack for the columnar runtime.

    When every entry is literally the same matrix object — the common
    sweep, many seeds over one cached deployment — a zero-stride
    broadcast view costs nothing.  Genuinely distinct matrices
    materialize through :func:`check_batch_tensor_budget`; the default
    ``itemsize=16`` accounts for the two float64 stacks a batch
    materializes together (distances AND gains), so the budget bounds
    the batch's peak rather than one allocation.
    """
    first = matrices[0]
    shape = (len(matrices), *first.shape)
    if all(m is first for m in matrices):
        return np.broadcast_to(first, shape)
    check_batch_tensor_budget(len(matrices), first.shape[0], itemsize=itemsize)
    return np.stack(matrices)


def interference_at(
    params: SINRParameters,
    distances: np.ndarray,
    transmitters: np.ndarray,
    listener: int,
    exclude: int | None = None,
) -> float:
    """Total interference power at ``listener`` from ``transmitters``.

    ``transmitters`` is an index array; ``exclude`` (the intended sender)
    is removed from the sum.  The listener itself never contributes
    (a node cannot interfere with its own reception because it cannot
    transmit and listen in the same slot).
    """
    tx = np.asarray(transmitters, dtype=np.intp)
    mask = tx != listener
    if exclude is not None:
        mask &= tx != exclude
    others = tx[mask]
    if others.size == 0:
        return 0.0
    powers = received_power(params, distances[others, listener])
    return float(powers.sum())


def sinr_of_link(
    params: SINRParameters,
    distances: np.ndarray,
    transmitters: np.ndarray,
    sender: int,
    listener: int,
) -> float:
    """SINR of the (sender → listener) link under the given transmitter set."""
    if sender == listener:
        raise ValueError("sender and listener must differ")
    signal = float(received_power(params, distances[sender, listener]))
    interference = interference_at(
        params, distances, transmitters, listener, exclude=sender
    )
    return signal / (interference + params.noise)


def sinr_matrix(
    params: SINRParameters,
    distances: np.ndarray,
    transmitters: np.ndarray,
    tx_powers: np.ndarray | None = None,
    gains: np.ndarray | None = None,
    link_powers: np.ndarray | None = None,
) -> np.ndarray:
    """SINR of every (transmitter, node) pair in one shot.

    Returns an array of shape ``(len(transmitters), n)`` where entry
    ``(k, u)`` is the SINR of transmitter ``transmitters[k]`` at node
    ``u``, with the convention that a node's SINR at itself is 0 (it
    cannot hear while sending).  ``tx_powers`` optionally assigns a
    transmission power to each transmitter (aligned with
    ``transmitters``); omitted means the uniform model power.

    ``gains`` optionally supplies the precomputed uniform-power gain
    matrix of :func:`gain_matrix`; passing it skips the per-call power
    evaluation without changing a single output bit (the gathered rows
    hold exactly the values the direct computation would produce).  It is
    ignored when ``tx_powers`` is given, since per-sender powers cannot
    reuse the uniform-power cache.

    ``link_powers`` overrides the received-power evaluation entirely: a
    ``(len(transmitters), n)`` array whose row ``k`` is the power of
    transmitter ``transmitters[k]`` received at every node — the
    stochastic-channel hook (:class:`~repro.sinr.params.ChannelModel`),
    where fading/shadowing/heterogeneous-power multipliers are already
    folded in by the caller (``Channel.slot_link_powers``).  Mutually
    exclusive with ``tx_powers``.
    """
    tx = np.asarray(transmitters, dtype=np.intp)
    n = distances.shape[0]
    if tx.size == 0:
        return np.zeros((0, n))
    if link_powers is not None and tx_powers is not None:
        raise ValueError("link_powers and tx_powers are mutually exclusive")
    if tx_powers is not None:
        tx_powers = np.asarray(tx_powers, dtype=np.float64)
        if tx_powers.shape != tx.shape:
            raise ValueError("tx_powers must align with transmitters")
        if (tx_powers <= 0).any():
            raise ValueError("powers must be positive")
        per_sender = tx_powers[:, None]
    else:
        per_sender = None
    # (k, u): power of transmitter k received at u.
    if link_powers is not None:
        powers = np.asarray(link_powers, dtype=np.float64)
        if powers.shape != (tx.size, n):
            raise ValueError(
                f"link_powers must have shape {(tx.size, n)}; "
                f"got {powers.shape!r}"
            )
    elif per_sender is None and gains is not None:
        powers = gains[tx, :]
    else:
        powers = received_power(params, distances[tx, :], power=per_sender)
    total = powers.sum(axis=0)  # (n,) total received power at each node
    # Interference for transmitter k at u excludes k's own contribution.
    interference = total[None, :] - powers
    sinr = powers / (interference + params.noise)
    # Half-duplex: a transmitter cannot decode anything, so every column
    # belonging to a transmitting node is set to 0 (it would otherwise
    # hold a meaningless self-interference artifact).
    sinr[:, tx] = 0.0
    return sinr


_BETA_VIOLATED = "beta > 1 violated: two decodable senders at one listener"


def successful_receptions(
    params: SINRParameters,
    distances: np.ndarray,
    transmitters: np.ndarray,
    listeners: np.ndarray | None = None,
    tx_powers: np.ndarray | None = None,
    gains: np.ndarray | None = None,
    link_powers: np.ndarray | None = None,
) -> dict[int, int]:
    """Resolve one slot: which listener decodes which transmitter.

    Returns a dict ``listener -> transmitter`` containing exactly the
    pairs whose SINR meets β.  Nodes in ``transmitters`` never appear as
    keys (half-duplex).  If ``listeners`` is given, only those nodes are
    considered as receivers; otherwise every non-transmitting node is.
    ``tx_powers`` optionally assigns per-transmitter powers (Theorem 6.1
    experiments); the default is the uniform model power.  ``gains``
    optionally supplies the :func:`gain_matrix` cache (bit-identical
    results, see :func:`sinr_matrix`).  ``link_powers`` optionally
    supplies the full ``(k, n)`` received-power matrix — the stochastic
    channel hook, see :func:`sinr_matrix`.

    Distances feeding the SINR are clamped from below to ``_MIN_DISTANCE``
    (see :func:`received_power`), so coincident points decode as
    astronomically strong links rather than NaNs.

    Because β > 1 guarantees uniqueness, ties are impossible and the
    result is well-defined (this holds for *any* positive received
    powers, so the stochastic multipliers never break it: two decodes
    at one listener would each need more than half the total power).
    To resolve one slot of many independent trials at once, use
    :func:`successful_receptions_batch`.
    """
    tx = np.asarray(transmitters, dtype=np.intp)
    if tx.size == 0:
        return {}
    sinr = sinr_matrix(
        params,
        distances,
        tx,
        tx_powers=tx_powers,
        gains=gains,
        link_powers=link_powers,
    )
    # Transmitter columns are already 0.0 (half-duplex) and β > 1, so
    # only an explicit listener restriction needs a mask.
    ok = sinr >= params.beta  # (k, n)
    if listeners is not None:
        listener_mask = np.zeros(distances.shape[0], dtype=bool)
        listener_mask[np.asarray(listeners, dtype=np.intp)] = True
        ok[:, ~listener_mask] = False

    k_idx, u_idx = np.nonzero(ok)
    result = dict(zip(u_idx.tolist(), tx[k_idx].tolist()))
    # A listener decoding two senders collapses into one dict key.
    if len(result) < u_idx.size:
        raise RuntimeError(_BETA_VIOLATED)
    return result


def _check_unique_listeners(listener_idx: np.ndarray) -> None:
    """Defend the β > 1 uniqueness invariant in one vectorized check.

    For the batched and sparse kernels, which return index arrays
    rather than a dict: one ``np.unique`` comparison costs one sort of
    the (sparse) decode list and runs identically with or without
    ``python -O``.
    """
    if listener_idx.size != np.unique(listener_idx).size:
        raise RuntimeError(_BETA_VIOLATED)


def _segment_totals(
    powers: np.ndarray, sizes: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Per-trial interference totals over the ragged ``(Σ k_b, n)`` layout.

    Each trial's contiguous ``(k_b, n)`` block reduces with
    ``ndarray.sum(axis=0)`` — sequential row accumulation, the exact
    addend order of the sequential kernel's ``sinr_matrix`` — so batched
    results stay bit-identical to per-trial resolution.

    Deliberately NOT ``np.add.reduceat``: measured on numpy 2.4,
    reduceat re-associates additions at SIMD width (ULP-divergent from
    ``sum(axis=0)`` for >= 7 rows, breaking the bit-identity contract)
    *and* is ~2.5x slower than this per-block loop at the engine's
    shapes (the loop body is one fused C reduction per trial; the loop
    overhead is trials × ~1µs, negligible against the (Σ k_b, n)
    elementwise work around it).
    """
    trials = sizes.size
    n = powers.shape[1]
    total = np.zeros((trials, n))
    for b in np.flatnonzero(sizes).tolist():
        total[b] = powers[offsets[b] : offsets[b + 1]].sum(axis=0)
    return total


def successful_receptions_batch(
    params: SINRParameters,
    distances: np.ndarray,
    transmitters,
    gains: np.ndarray | None = None,
    link_powers: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve one slot of ``trials`` independent runs in one reduction.

    ``distances`` is the ``(trials, n, n)`` tensor of per-trial pairwise
    distance matrices (see :func:`batch_tensor`); ``transmitters`` is a
    sequence of ``trials`` index arrays, one per trial (they may have
    different lengths, including zero).  Every non-transmitting node
    listens.  ``gains`` optionally supplies the precomputed
    ``(trials, n, n)`` gain tensor of :func:`gain_matrix`.

    Returns the decodes as three aligned index arrays
    ``(trial_idx, listener_idx, sender_idx)`` in (trial, transmitter,
    listener) order, which the columnar :mod:`repro.vectorized` runtime
    consumes directly without per-decode Python dict traffic.  Trial
    ``b``'s entries, in order, are exactly the items of
    :func:`successful_receptions` for that trial: transmitter rows are
    laid out *ragged* (trial b owns a contiguous ``(k_b, n)`` block — no
    padding, so skewed per-trial transmitter counts cost nothing), each
    block's interference total reduces with exactly the single-trial
    kernel's addend order (see :func:`_segment_totals`), and every other
    step is elementwise over the flat ``(Σ k_b, n)`` layout.  Uniform
    power only — the per-sender ``tx_powers`` hook of the single-trial
    kernel is a Theorem 6.1 feature.

    ``link_powers`` optionally replaces the gain gather with explicit
    received powers: a flat ``(Σ k_b, n)`` array whose row ``r`` is the
    power of row ``r``'s (trial, transmitter) pair at every node, laid
    out in the same ragged trial-block order as ``transmitters``.  This
    is the batched stochastic-channel hook
    (:class:`~repro.sinr.params.ChannelModel`): each trial's channel
    folds its own fading/shadowing/power multipliers into its block
    (``Channel.slot_link_powers``), so the batch stays bit-identical to
    per-trial resolution.
    """
    dist = np.asarray(distances, dtype=np.float64)
    if dist.ndim != 3 or dist.shape[1] != dist.shape[2]:
        raise ValueError(
            f"distances must have shape (trials, n, n); got {dist.shape!r}"
        )
    trials, n, _ = dist.shape
    tx_lists = [np.asarray(t, dtype=np.intp) for t in transmitters]
    if len(tx_lists) != trials:
        raise ValueError(
            f"need one transmitter set per trial: {len(tx_lists)} != {trials}"
        )
    sizes = np.array([t.size for t in tx_lists], dtype=np.intp)
    if int(sizes.sum()) == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty.copy(), empty.copy()
    if gains is None and link_powers is None:
        gains = gain_matrix(params, dist)

    # Flat ragged layout: row r holds one (trial, transmitter) pair.
    tx_flat = np.concatenate(tx_lists)
    trial_of_row = np.repeat(np.arange(trials), sizes)
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    # (r, u): power of row r's transmitter received at node u — one
    # gather for the whole batch.  A zero-stride gain stack (every
    # trial sharing one deployment, the common sweep) gathers through
    # its base matrix: same values, one less index dimension.
    if link_powers is not None:
        powers = np.asarray(link_powers, dtype=np.float64)
        if powers.shape != (tx_flat.size, n):
            raise ValueError(
                f"link_powers must have shape {(tx_flat.size, n)}; "
                f"got {powers.shape!r}"
            )
    else:
        gains = np.asarray(gains)
        if gains.ndim == 3 and gains.strides[0] == 0:
            powers = gains[0][tx_flat, :]
        else:
            powers = gains[trial_of_row, tx_flat, :]
    # Total received power per (trial, node), bit-identical to the
    # single-trial kernel's reduction.  The SINR evaluation reuses the
    # interference buffer in place — identical operations and operand
    # order as `powers / ((total[tor] - powers) + noise)`, without three
    # (Σ k_b, n) temporaries per slot.
    total = _segment_totals(powers, sizes, offsets)
    # Expanding total back to rows via repeat (contiguous block copies)
    # beats a fancy-index gather; the values are identical.
    interference = np.repeat(total, sizes, axis=0)
    np.subtract(interference, powers, out=interference)
    interference += params.noise
    sinr = np.divide(powers, interference, out=interference)
    ok = sinr >= params.beta

    # Half-duplex: a transmitter decodes nothing in its own trial.
    listening = np.ones((trials, n), dtype=bool)
    listening[trial_of_row, tx_flat] = False
    ok &= listening[trial_of_row]

    row_idx, u_idx = np.nonzero(ok)
    senders = tx_flat[row_idx]
    trials_hit = trial_of_row[row_idx]
    # beta > 1 makes two decodes at one (trial, listener) impossible;
    # one vectorized uniqueness check replaces the old per-pair asserts.
    _check_unique_listeners(trials_hit * n + u_idx)
    return trials_hit, u_idx, senders
