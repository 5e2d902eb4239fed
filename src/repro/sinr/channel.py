"""The slot-resolution channel with optional failure injection.

:class:`Channel` owns the geometry + SINR parameters for a deployment and
resolves one slot at a time: given the set of transmitting nodes (and
their payloads), it returns which listeners decode which message.

Failure injection (:class:`JammingAdversary`) lets the tests exercise the
unreliability paths of the protocols: a jammer raises the effective noise
floor at chosen slots, or erases individual receptions.  This models the
"unreliable communication" regimes discussed in §4.4/Remark 7.2 without
changing the protocol code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.geometry.points import PointSet, pairwise_distances
from repro.sinr.params import SINRParameters
from repro.sinr.physics import (
    draw_power_multipliers,
    draw_shadowing,
    effective_gain_matrix,
    gain_matrix,
    rayleigh_gains,
    sinr_of_link,
    successful_receptions,
)
from repro.topology import TopologyProvider

if TYPE_CHECKING:  # the cache module imports this package
    from repro.experiments.cache import ArtifactCache

__all__ = ["Channel", "JammingAdversary", "GrayZoneAdversary", "SlotOutcome"]


@dataclass(frozen=True)
class SlotOutcome:
    """The result of resolving one slot.

    Attributes
    ----------
    transmitters:
        Sorted tuple of node ids that transmitted this slot.
    receptions:
        Mapping listener id → (sender id, payload) for every successful
        decode.  Half-duplex: transmitters never appear as listeners.
    """

    transmitters: tuple[int, ...]
    receptions: dict[int, tuple[int, Any]]


class JammingAdversary:
    """Erasure/jamming failure injector for tests and robustness benches.

    Parameters
    ----------
    drop_probability:
        Each successful reception is independently erased with this
        probability (models fading bursts / adversarial erasures).
    jam_slots:
        Set of slot indices in which *all* receptions are erased.
    rng:
        Numpy generator for reproducibility.
    """

    def __init__(
        self,
        drop_probability: float = 0.0,
        jam_slots: set[int] | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")
        self.drop_probability = drop_probability
        self.jam_slots = jam_slots or set()
        self.rng = rng or np.random.default_rng(0)
        self.erased_count = 0

    def filter(
        self, slot: int, receptions: dict[int, tuple[int, Any]]
    ) -> dict[int, tuple[int, Any]]:
        """Apply the failure model to a slot's receptions."""
        if slot in self.jam_slots:
            self.erased_count += len(receptions)
            return {}
        if self.drop_probability == 0.0:
            return receptions
        kept: dict[int, tuple[int, Any]] = {}
        for listener, payload in receptions.items():
            if self.rng.random() < self.drop_probability:
                self.erased_count += 1
            else:
                kept[listener] = payload
        return kept


class GrayZoneAdversary:
    """Dual-graph unreliability in the style of Ghaffari et al. [23].

    Remark 7.2: the paper's setting makes all communication reliable,
    but notes the dual-graph extension where links *outside* a reliable
    core graph are controlled by a nondeterministic adversary.  This
    adversary realizes that model: receptions whose (transmitter,
    listener) pair is an edge of ``reliable_graph`` (typically G_{1-ε})
    always pass; every other decodable reception — the gray zone
    G_1 \\ G_{1-ε} — is erased with probability ``gray_drop``.

    With ``gray_drop = 1.0`` communication is *exactly* the reliable
    graph; intermediate values model flaky fringe links.  The paper's
    guarantees only ever rely on strong links, so every protocol here
    must keep its contract under any ``gray_drop`` — which the
    failure-injection tests verify.
    """

    def __init__(
        self,
        reliable_graph,
        gray_drop: float = 1.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not 0.0 <= gray_drop <= 1.0:
            raise ValueError("gray_drop must be in [0, 1]")
        self.reliable_graph = reliable_graph
        self.gray_drop = gray_drop
        self.rng = rng or np.random.default_rng(0)
        self.erased_count = 0

    def filter(
        self, slot: int, receptions: dict[int, tuple[int, Any]]
    ) -> dict[int, tuple[int, Any]]:
        """Erase gray-zone receptions per the drop probability."""
        kept: dict[int, tuple[int, Any]] = {}
        for listener, (sender, payload) in receptions.items():
            if self.reliable_graph.has_edge(sender, listener):
                kept[listener] = (sender, payload)
            elif self.gray_drop >= 1.0 or self.rng.random() < self.gray_drop:
                self.erased_count += 1
            else:
                kept[listener] = (sender, payload)
        return kept


class Channel:
    """SINR channel bound to a fixed deployment.

    Precomputes the pairwise-distance matrix and the uniform-power gain
    matrix ``P / d^α`` once; each slot resolution is then a single
    vectorized SINR reduction with no power evaluation on the hot path.
    The experiment engine passes both matrices in from its artifact
    cache so they are computed once per deployment rather than once per
    trial, and passes the cache itself as ``cache``: the channel's own
    later lookups (the sparse resolver, mobility-epoch geometry) read
    and fill that cache — ``None`` means the process-wide
    :data:`~repro.experiments.cache.GLOBAL_CACHE`.

    When ``params.channel_model`` is active (fading / shadowing /
    heterogeneous power, see :class:`~repro.sinr.params.ChannelModel`),
    the channel additionally owns the trial's stochastic state: a
    dedicated channel RNG stream (:func:`spawn_channel_rng` of the
    trial's master seed — node streams are untouched), the per-trial
    effective gain matrix with the static multipliers folded in, and a
    per-link fading buffer.  Runtimes arm it via
    :meth:`bind_trial_seed`; slot resolution then flows through
    :meth:`slot_link_powers` on every executor, which is what keeps
    stochastic trials decode-for-decode identical across the object and
    columnar paths.
    """

    def __init__(
        self,
        points: PointSet,
        params: SINRParameters,
        adversary: JammingAdversary | None = None,
        distances: np.ndarray | None = None,
        gains: np.ndarray | None = None,
        topology: TopologyProvider | None = None,
        cache: ArtifactCache | None = None,
    ) -> None:
        self.points = points
        self.params = params
        self.adversary = adversary
        self.cache = cache
        self.sparse_spec = params.sparse
        # Under a sparse resolution spec the dense matrices become lazy:
        # the resolver carries its own grid artifacts, and forcing two
        # O(n²) arrays would defeat the point of going sparse.  They
        # still materialize on first access (reference comparisons,
        # link_sinr probes, the stochastic model's effective gains).
        if distances is not None:
            self._distances = np.asarray(distances, dtype=np.float64)
        elif self.sparse_spec is not None:
            self._distances = None
        else:
            self._distances = pairwise_distances(points.coords)
        if gains is not None:
            self._gains = np.asarray(gains, dtype=np.float64)
        elif self.sparse_spec is not None and self._distances is None:
            self._gains = None
        else:
            self._gains = gain_matrix(params, self._distances)
        self._resolver = (
            self._build_resolver(points)
            if self.sparse_spec is not None
            and len(points) >= self.sparse_spec.min_n
            else None
        )
        self._slot_count = 0
        self.total_transmissions = 0
        self.total_receptions = 0
        model = params.channel_model
        self.model = model if model is not None and model.is_active else None
        self.effective_gains: np.ndarray | None = None
        self._fading = None  # LinkUniformBuffer once armed (Rayleigh)
        self._multipliers = None  # static per-trial channel-model draws,
        self._shadowing = None  # kept for per-epoch gain re-folding
        # Dynamic topology (mobility/churn): a non-dynamic provider is
        # exactly topology=None — no state is ever bound, no slot pays
        # anything, and runs stay byte-identical to the static seed.
        self.topology = (
            topology if topology is not None and topology.is_dynamic else None
        )
        self._topo_state = None
        self._initial_points = self.points
        self._initial_distances = self._distances
        self._initial_gains = self._gains
        self._initial_resolver = self._resolver
        self.alive: np.ndarray | None = None

    def _build_resolver(self, points: PointSet):
        # Deferred import (cycle: experiments.cache -> plans -> this
        # module's sibling params via the experiments package).
        from repro.experiments.cache import sparse_resolver

        return sparse_resolver(points, self.params, self.cache)

    @property
    def distances(self) -> np.ndarray:
        """Pairwise distances — lazily materialized under sparse mode."""
        if self._distances is None:
            self._distances = pairwise_distances(self.points.coords)
        return self._distances

    @distances.setter
    def distances(self, value: np.ndarray | None) -> None:
        self._distances = value

    @property
    def gains(self) -> np.ndarray:
        """Uniform-power link gains — lazily materialized under sparse."""
        if self._gains is None:
            self._gains = gain_matrix(self.params, self.distances)
        return self._gains

    @gains.setter
    def gains(self, value: np.ndarray | None) -> None:
        self._gains = value

    @property
    def sparse_active(self) -> bool:
        """Does a sparse resolver actually govern this deployment?

        False for deployments below the spec's ``min_n`` crossover even
        when a spec is present — those resolve through the dense
        kernels, and every consumer (:meth:`resolve_raw`, the columnar
        runtime's per-trial sparse loop) keys off *this* rather than
        the spec so the small-n fallback is a single decision.
        """
        return self._resolver is not None

    @property
    def stochastic(self) -> bool:
        """Does an active channel model govern this deployment?"""
        return self.model is not None

    @property
    def dynamic_topology(self) -> bool:
        """Does a dynamic topology provider govern this deployment?"""
        return self.topology is not None

    def bind_trial_seed(self, seed: int | None) -> None:
        """Arm the stochastic channel state with the trial's master seed.

        A no-op when the channel model is inactive (no RNG is spawned,
        no draw happens — the deterministic path stays byte-identical).
        Otherwise spawns the dedicated channel stream and performs the
        trial's *static* draws in a fixed order — per-node power
        multipliers first, then the shadowing field — folding them into
        ``effective_gains``; Rayleigh fading (per-slot draws) is served
        lazily from the remaining stream through a
        :class:`~repro.simulation.rng.LinkUniformBuffer`.  Rebinding
        (e.g. reusing one channel across runtimes) restarts the stream
        deterministically.

        Also (re)arms the dynamic topology state
        (:mod:`repro.topology`): geometry rewinds to the initial
        deployment and the provider binds fresh per-trial state.
        Mobility draws come from the provider's own seed — never from
        ``seed`` — so a provider perturbs geometry only (see the
        RNG-stream allocation notes in :mod:`repro.topology.providers`).
        """
        if self.topology is not None:
            self.points = self._initial_points
            self._distances = self._initial_distances
            self._gains = self._initial_gains
            self._resolver = self._initial_resolver
            self._topo_state = self.topology.bind(self._initial_points, seed)
            self.alive = self._topo_state.initial_alive()
        if self.model is None:
            return
        # Deferred import: repro.simulation.runtime imports this module,
        # so a top-level import of the (pure-numpy) rng module would
        # close an import cycle through repro.simulation.__init__.
        from repro.simulation.rng import LinkUniformBuffer, spawn_channel_rng

        rng = spawn_channel_rng(self.n, seed)
        self._multipliers = draw_power_multipliers(self.model, rng, self.n)
        self._shadowing = draw_shadowing(self.model, rng, self.n)
        self.effective_gains = effective_gain_matrix(
            self.gains, self._multipliers, self._shadowing
        )
        self._fading = LinkUniformBuffer(rng) if self.model.rayleigh else None

    def advance_topology(self, slot: int) -> bool:
        """Apply the topology changes scheduled at the top of ``slot``.

        The epoch contract: every executor calls this once per trial
        per slot, in increasing slot order, *before* collecting the
        slot's transmissions — so a node crashed at slot ``s`` is
        silent in ``s``, and positions moved at an epoch boundary shape
        that very slot's SINR.  Returns True when the *geometry*
        changed (gains were re-derived), which tells the columnar
        executor to restack its ``(trials, n, n)`` tensors;
        membership-only changes return False (the ``alive`` mask is
        read fresh each slot by every consumer).

        Geometry refresh flows through the shared artifact cache
        (:meth:`repro.experiments.cache.ArtifactCache.geometry`), and
        the channel model's static per-trial multipliers are re-folded
        onto the new gains without consuming any channel-stream draws —
        shadowing stays attached to node *identities* across epochs,
        the quasi-static reading of PR 4's once-per-trial draw.
        """
        state = self._topo_state
        if state is None:
            return False
        update = state.advance(slot)
        if update is None:
            return False
        if update.alive is not None:
            # Normalize an all-alive mask back to None so the fast
            # no-churn paths (object reception dicts, columnar masking)
            # resume once the last outage has drained.
            self.alive = update.alive if not update.alive.all() else None
        if update.points is None:
            return False
        self.points = update.points
        if (
            self.sparse_spec is not None
            and len(update.points) >= self.sparse_spec.min_n
        ):
            # Epoch contract for the sparse layer: the grid is rebuilt
            # (through the cache, so a shared trajectory shares each
            # epoch's resolver) and the lazy dense matrices are dropped
            # — they re-derive from the new coordinates only if some
            # consumer actually touches them.
            self._resolver = self._build_resolver(update.points)
            self._distances = None
            self._gains = None
        else:
            # Deferred import (cycle: experiments.cache -> plans -> this
            # module's sibling params via the experiments package).
            from repro.experiments.cache import geometry_artifacts

            self.distances, self.gains = geometry_artifacts(
                update.points, self.params, self.cache
            )
        if self.model is not None:
            self.effective_gains = effective_gain_matrix(
                self.gains, self._multipliers, self._shadowing
            )
        return True

    def slot_link_powers(self, tx_ids: np.ndarray) -> np.ndarray | None:
        """This slot's ``(k, n)`` received-power rows, or None.

        None means the deterministic fast path (shared gain cache)
        applies.  Otherwise returns the effective per-link powers of the
        given transmitters with this slot's fresh Rayleigh draws folded
        in — consuming exactly ``k·n`` channel-stream uniforms, so the
        stream position depends only on the trial's transmission
        history (which all executors reproduce identically).
        """
        if self.model is None:
            return None
        if self.effective_gains is None and self._fading is None:
            raise RuntimeError(
                "stochastic channel model is not armed; call "
                "bind_trial_seed(seed) before resolving slots"
            )
        base = self.effective_gains if self.effective_gains is not None else self.gains
        powers = base[tx_ids, :]
        if self._fading is not None:
            uniforms = self._fading.take(tx_ids.size * self.n)
            powers = powers * rayleigh_gains(
                uniforms.reshape(tx_ids.size, self.n)
            )
        return powers

    @property
    def n(self) -> int:
        """Number of nodes on the channel."""
        return len(self.points)

    @property
    def slots_resolved(self) -> int:
        """How many slots have been resolved so far."""
        return self._slot_count

    def validated_transmitters(self, transmissions: dict[int, Any]) -> np.ndarray:
        """Sorted transmitter-index array, validating node ids."""
        n = self.n
        for node in transmissions:
            if not 0 <= node < n:
                raise ValueError(f"unknown node id {node}")
        return np.array(sorted(transmissions), dtype=np.intp)

    def resolve_slot(self, transmissions: dict[int, Any]) -> SlotOutcome:
        """Resolve one slot.

        ``transmissions`` maps node id → payload for every node that
        transmits this slot.  Returns the :class:`SlotOutcome` after any
        adversarial filtering.
        """
        tx_ids = self.validated_transmitters(transmissions)
        return self.finalize_slot(
            transmissions, tx_ids, self.resolve_raw(tx_ids)
        )

    def resolve_raw(self, tx_ids: np.ndarray) -> dict[int, int]:
        """The physics-layer ``listener -> sender`` map for one slot.

        Routes through the sparse resolver when
        ``params.sparse`` is set, the dense kernel otherwise; both
        produce dicts with identical insertion order (the dense
        ``np.nonzero`` row-major order), which downstream trace
        recording and adversary filtering rely on.  Consumes this
        slot's fading draws when the channel model is active.
        """
        link_powers = self.slot_link_powers(tx_ids)
        if self._resolver is not None:
            return self._resolver.resolve(tx_ids, link_powers=link_powers)
        return successful_receptions(
            self.params,
            self.distances,
            tx_ids,
            gains=self.gains,
            link_powers=link_powers,
        )

    def resolve_raw_flat(
        self, tx_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One slot's decodes as ``(listeners, senders)`` index arrays,
        in the dense kernels' (transmitter row, listener) order — the
        per-trial sparse entry point of the columnar runtime."""
        link_powers = self.slot_link_powers(tx_ids)
        if self._resolver is not None:
            return self._resolver.resolve_flat(
                tx_ids, link_powers=link_powers
            )
        raw = successful_receptions(
            self.params,
            self.distances,
            tx_ids,
            gains=self.gains,
            link_powers=link_powers,
        )
        listeners = np.fromiter(raw.keys(), dtype=np.intp, count=len(raw))
        senders = np.fromiter(raw.values(), dtype=np.intp, count=len(raw))
        return listeners, senders

    def finalize_slot(
        self,
        transmissions: dict[int, Any],
        tx_ids: np.ndarray,
        raw: dict[int, int],
    ) -> SlotOutcome:
        """Turn a raw ``listener -> sender`` map into this slot's outcome.

        ``raw`` is the physics-layer result for ``tx_ids`` (as produced
        by :meth:`resolve_raw`, or rebuilt from the batched kernel's
        flat decodes).  Applies payload attachment, adversarial
        filtering, and the utilization counters — the per-trial half of
        :meth:`resolve_slot`, split out so the columnar runtime can
        resolve many trials' physics in one reduction and still give
        each trial its own adversary RNG stream and statistics.
        """
        receptions = {
            listener: (sender, transmissions[sender])
            for listener, sender in raw.items()
        }
        if self.alive is not None:
            # Churn: a crashed node's radio is off — its decodes vanish
            # before the adversary (or any counter) ever sees them.
            # Crashed nodes never appear as senders (the runtimes skip
            # them in phase 1), so only the listener side needs masking.
            alive = self.alive
            receptions = {
                listener: payload
                for listener, payload in receptions.items()
                if alive[listener]
            }
        if self.adversary is not None:
            receptions = self.adversary.filter(self._slot_count, receptions)
        self._slot_count += 1
        self.total_transmissions += len(transmissions)
        self.total_receptions += len(receptions)
        return SlotOutcome(
            transmitters=tuple(int(t) for t in tx_ids),
            receptions=receptions,
        )

    def link_sinr(
        self, sender: int, listener: int, transmitters: list[int]
    ) -> float:
        """SINR of a specific link under a hypothetical transmitter set.

        Convenience probe used by tests and the lower-bound experiments;
        does not advance the slot counter.  Always evaluates the
        deterministic geometry (no fading draw is consumed), so probing
        never perturbs a stochastic trial's channel stream.
        """
        tx = np.asarray(sorted(set(transmitters) | {sender}), dtype=np.intp)
        return sinr_of_link(self.params, self.distances, tx, sender, listener)

    def reset_stats(self) -> None:
        """Zero the utilization counters (slot counter is preserved)."""
        self.total_transmissions = 0
        self.total_receptions = 0
