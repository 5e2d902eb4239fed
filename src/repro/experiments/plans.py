"""Trial plans and results: the experiment engine's declarative API.

A :class:`TrialPlan` is a frozen, hashable, picklable description of one
simulation trial — which deployment, which MAC stack, which workload,
which seed.  Declarative plans are what make the engine's three
superpowers possible:

* **memoization** — two plans over the same deployment share every
  deployment-derived artifact (distance/gain matrices, connectivity
  graphs, metrics) through the keyed cache in
  :mod:`repro.experiments.cache`;
* **batching** — columnar-eligible plans with the same node count,
  physical parameters, stack and workload run as one batch on the
  array kernels of :mod:`repro.vectorized`;
* **distribution** — plans pickle cleanly, so independent batches can be
  shipped to a process pool with bit-reproducible results.

A :class:`TrialResult` is the frozen record of one finished trial; equal
seeds must yield equal results whatever executor produced them,
and the dataclass equality of :class:`TrialResult` is exactly that
bit-identity check.
"""

from __future__ import annotations

import inspect
import statistics
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

import numpy as np

import repro.geometry.deployment as deployment_mod
from repro.core.ack_protocol import AckConfig
from repro.core.approx_progress import ApproxProgressConfig
from repro.core.decay import DecayConfig
from repro.geometry.points import PointSet
from repro.sinr.channel import GrayZoneAdversary, JammingAdversary
from repro.sinr.params import SINRParameters
from repro.topology import TopologyProvider

__all__ = [
    "AdversarySpec",
    "DeploymentSpec",
    "TrialPlan",
    "TrialResult",
    "seeded_plans",
]

_EXPLICIT = "__explicit__"

STACKS = ("combined", "ack", "approg", "decay")


def _pack(kwargs: dict[str, Any]) -> tuple[tuple[str, Any], ...]:
    return tuple(sorted(kwargs.items()))


@dataclass(frozen=True)
class DeploymentSpec:
    """A reproducible, hashable recipe for a :class:`PointSet`.

    ``kind`` names a generator in :mod:`repro.geometry.deployment`
    (e.g. ``"uniform_disk"``) and ``options`` carries its keyword
    arguments as a sorted tuple of pairs; or ``kind`` is the sentinel
    ``"__explicit__"`` and ``options`` embeds raw coordinates (built via
    :meth:`explicit`).  The ``(kind, options)`` pair is the spec's cache
    key: identical specs resolve to one shared, memoized PointSet.
    """

    kind: str
    options: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def of(cls, kind: str, **kwargs: Any) -> "DeploymentSpec":
        """Spec for a named generator, e.g. ``of("uniform_disk", n=16, ...)``.

        Stochastic generators (those taking a ``seed``) must be given an
        explicit integer seed: a spec is a *reproducible* recipe and its
        ``(kind, options)`` pair is a cache key, so an OS-entropy draw
        would be silently shared by every plan naming the spec (and
        differ across pool workers), breaking the engine's
        seed-is-the-only-randomness contract.
        """
        generator = getattr(deployment_mod, kind, None)
        if generator is None or not callable(generator):
            raise ValueError(f"unknown deployment generator {kind!r}")
        if "seed" in inspect.signature(generator).parameters and not isinstance(
            kwargs.get("seed"), int
        ):
            raise ValueError(
                f"deployment generator {kind!r} is stochastic; pass an "
                "explicit integer seed so the spec is reproducible"
            )
        return cls(kind=kind, options=_pack(kwargs))

    @classmethod
    def explicit(cls, points: PointSet) -> "DeploymentSpec":
        """Spec wrapping concrete coordinates (keyed by their exact bytes)."""
        return cls(
            kind=_EXPLICIT,
            options=(
                ("coords", points.coords.tobytes()),
                ("n", len(points)),
                ("name", points.name),
            ),
        )

    def build(self) -> PointSet:
        """Materialize the PointSet (uncached; see cache.resolve_deployment)."""
        opts = dict(self.options)
        if self.kind == _EXPLICIT:
            coords = np.frombuffer(
                opts["coords"], dtype=np.float64
            ).reshape(opts["n"], 2)
            return PointSet(coords.copy(), name=opts["name"])
        generator = getattr(deployment_mod, self.kind, None)
        if generator is None or not callable(generator):
            raise ValueError(f"unknown deployment generator {self.kind!r}")
        return generator(**opts)


_ADVERSARY_KINDS = ("jamming", "gray_zone")


@dataclass(frozen=True)
class AdversarySpec:
    """A reproducible, hashable recipe for a failure injector.

    Adversaries used to be constructed imperatively and handed to the
    harness builders; a spec makes them *plan-level* configuration, so
    failure-injection sweeps batch, pickle to pool workers, and ride
    the columnar fast path (whose adversary delivery goes through the
    same :meth:`~repro.sinr.channel.Channel.finalize_slot`) with
    dataclass-equal results.

    Attributes
    ----------
    kind:
        ``"jamming"`` (:class:`~repro.sinr.channel.JammingAdversary`:
        i.i.d. erasures + jammed slots) or ``"gray_zone"``
        (:class:`~repro.sinr.channel.GrayZoneAdversary`: dual-graph
        unreliability outside G_{1-ε}, built on the deployment's cached
        strong graph).
    drop_probability / jam_slots:
        Jamming parameters (ignored for gray_zone).
    gray_drop:
        Gray-zone erasure probability (ignored for jamming).
    seed:
        Adversary stream seed; each trial's injector draws from
        ``SeedSequence([seed, trial seed])``, so per-trial streams are
        independent yet a pure function of the plan.
    """

    kind: str = "jamming"
    drop_probability: float = 0.0
    jam_slots: tuple[int, ...] = ()
    gray_drop: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _ADVERSARY_KINDS:
            raise ValueError(
                f"unknown adversary kind {self.kind!r}; "
                f"expected one of {_ADVERSARY_KINDS}"
            )
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")
        if not 0.0 <= self.gray_drop <= 1.0:
            raise ValueError("gray_drop must be in [0, 1]")

    def build(
        self, graph, trial_seed: int
    ) -> JammingAdversary | GrayZoneAdversary:
        """Fresh per-trial injector (``graph`` is the deployment's
        G_{1-ε}, only read by the gray-zone kind)."""
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, int(trial_seed)])
        )
        if self.kind == "jamming":
            return JammingAdversary(
                drop_probability=self.drop_probability,
                jam_slots=set(self.jam_slots),
                rng=rng,
            )
        return GrayZoneAdversary(graph, gray_drop=self.gray_drop, rng=rng)


@dataclass(frozen=True)
class TrialPlan:
    """One trial, fully described.

    Attributes
    ----------
    deployment:
        Where the nodes are.
    stack:
        Which MAC population runs: ``"combined"`` (Algorithm 11.1),
        ``"ack"`` (B.1), ``"approg"`` (9.1) or ``"decay"``.
    workload:
        Name of a registered workload (see
        :mod:`repro.experiments.workloads`): what the nodes do and when
        the trial is finished.
    seed:
        Master seed for all node randomness — the *only* source of
        nondeterminism, so equal plans yield equal results on any
        executor.  This includes the stochastic channel (below):
        fading draws derive from the same master seed through a
        dedicated channel stream.
    params:
        The physical constants (:class:`SINRParameters`).  Columnar
        batches are keyed by them, so attaching a stochastic
        :class:`~repro.sinr.params.ChannelModel` — Rayleigh fading,
        log-normal shadowing, heterogeneous transmit power — groups
        fading trials into their own batches automatically (and keeps
        them off deterministic ones); columnar-eligible stacks ride the
        fast path with the model active, bit-identical to the object
        runtime.
    broadcasters:
        Which nodes inject broadcasts (None = all), for workloads that
        read it.
    record_physical:
        When True (default), every physical transmit/receive lands in
        the trace (needed by the progress measurements and the spec
        checker).  False is the production-throughput mode: only
        MAC-level events (bcast/rcv/ack) are traced, so
        ``approg_latencies`` comes back empty while acknowledgment
        metrics and channel counters stay exact.  Either way both
        engine executors produce bit-identical results.
    options:
        Workload-specific knobs as a sorted tuple of pairs (build with
        :meth:`pack_options`): ``source``/``payload`` for smb,
        ``arrivals`` for mmb, ``waves`` for consensus,
        ``slots``/``epochs`` for fixed_slots.
    topology:
        Optional dynamic-topology provider (:mod:`repro.topology`):
        mobility and/or churn advancing at epoch boundaries, identical
        on all three executors.  None (or any provider whose
        ``is_dynamic`` is False) is the frozen-geometry default,
        byte-identical to pre-topology runs.  The artifact cache keys
        ignore it — graphs/metrics stay defined by the initial
        deployment, and per-epoch geometry has its own keyed memo — so
        a topology sweep shares the static artifacts with every other
        plan over the same deployment.
    adversary:
        Optional failure-injection recipe (:class:`AdversarySpec`);
        None is the reliable channel.
    ack_config / approg_config / decay_config:
        Explicit protocol configs; None derives the paper-formula
        defaults from the deployment's measured Λ (exactly like the
        harness builders).
    """

    deployment: DeploymentSpec
    stack: str = "combined"
    workload: str = "local_broadcast"
    seed: int = 0
    params: SINRParameters = field(default_factory=SINRParameters)
    broadcasters: tuple[int, ...] | None = None
    eps_ack: float = 0.1
    eps_approg: float = 0.1
    max_slots: int = 2_000_000
    extra_slots: int = 0
    record_physical: bool = True
    options: tuple[tuple[str, Any], ...] = ()
    topology: TopologyProvider | None = None
    adversary: AdversarySpec | None = None
    ack_config: AckConfig | None = None
    approg_config: ApproxProgressConfig | None = None
    decay_config: DecayConfig | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.stack not in STACKS:
            raise ValueError(
                f"unknown stack {self.stack!r}; expected one of {STACKS}"
            )
        if self.max_slots < 1:
            raise ValueError("max_slots must be >= 1")
        if self.extra_slots < 0:
            raise ValueError("extra_slots must be >= 0")
        if self.topology is not None and not isinstance(
            self.topology, TopologyProvider
        ):
            raise TypeError(
                f"topology must be a TopologyProvider; got {self.topology!r}"
            )
        if self.adversary is not None and not isinstance(
            self.adversary, AdversarySpec
        ):
            raise TypeError(
                f"adversary must be an AdversarySpec; got {self.adversary!r}"
            )

    @staticmethod
    def pack_options(**kwargs: Any) -> tuple[tuple[str, Any], ...]:
        """Normalize workload knobs into the hashable ``options`` form."""
        return _pack(kwargs)

    def option(self, name: str, default: Any = None) -> Any:
        """Read one workload knob (``default`` when absent)."""
        for key, value in self.options:
            if key == name:
                return value
        return default

    @property
    def display_label(self) -> str:
        """The plan's label, or a compact synthesized one."""
        if self.label:
            return self.label
        return f"{self.stack}/{self.workload}/seed={self.seed}"


def seeded_plans(plan: TrialPlan, seeds: Sequence[int]) -> list[TrialPlan]:
    """Replicate one plan across many seeds (the multi-trial axis).

    Pair with :func:`repro.simulation.rng.spawn_trial_seeds` to derive
    the seed list deterministically from one master seed.
    """
    stem = plan.label or f"{plan.stack}/{plan.workload}"
    return [
        replace(plan, seed=int(seed), label=f"{stem}#t{index}")
        for index, seed in enumerate(seeds)
    ]


@dataclass(frozen=True)
class TrialResult:
    """The frozen record of one finished trial.

    Dataclass equality is the engine's bit-identity contract: a plan run
    on the object path, in a columnar batch, or on a pool worker must
    produce an ``==`` result.  All fields are plain hashable values so results
    pickle cleanly and compare exactly.

    ``extra`` holds workload-specific metrics (e.g. ``completion`` for
    global broadcast, ``agreed``/``decided_value`` for consensus) as a
    sorted tuple of pairs; read them with :meth:`extra_value`.
    """

    label: str
    seed: int
    n: int
    degree: int
    degree_tilde: int
    diameter: int | None
    diameter_tilde: int | None
    lam: float
    slots: int
    broadcasts: int
    ack_latencies: tuple[int, ...]
    ack_completeness: float
    approg_latencies: tuple[int, ...]
    approg_episodes: int
    transmissions: int
    receptions: int
    extra: tuple[tuple[str, Any], ...] = ()

    def extra_value(self, name: str, default: Any = None) -> Any:
        """Read one workload metric (``default`` when absent)."""
        for key, value in self.extra:
            if key == name:
                return value
        return default

    @property
    def completion(self) -> int | None:
        """Slot at which the workload's finish condition was observed."""
        return self.extra_value("completion")

    @property
    def ack_mean_latency(self) -> float | None:
        """Mean acknowledgment latency (None when nothing was acked)."""
        if not self.ack_latencies:
            return None
        return sum(self.ack_latencies) / len(self.ack_latencies)

    @property
    def ack_max_latency(self) -> int | None:
        """Worst acknowledgment latency (None when nothing was acked)."""
        return max(self.ack_latencies) if self.ack_latencies else None

    @property
    def approg_median_latency(self) -> float | int | None:
        """Median approximate-progress latency (None without episodes).

        ``statistics.median`` semantics (an int for odd counts), so
        report tables match the pre-engine benchmark output exactly.
        """
        if not self.approg_latencies:
            return None
        return statistics.median(self.approg_latencies)

    @property
    def approg_satisfied(self) -> int:
        """Episodes that reached approximate progress within the run."""
        return len(self.approg_latencies)
