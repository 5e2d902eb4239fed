"""Workload definitions: what a trial's nodes do, and when it is done.

A :class:`Workload` is the engine-schedulable form of an experiment
script.  The legacy harness drove each experiment imperatively
(``bcast(...)`` then ``runtime.run_until(pred)``); a workload factors
that same script into hooks the engine can drive, so the object path
(:func:`~repro.experiments.engine.run_trial`) and the columnar batches
(through the ``vector_*`` twins) run the same experiment while each
trial keeps its own stopping rule:

* :meth:`client_factory` — optional per-node MAC clients (protocol
  state machines such as BSMB relays);
* :meth:`start` — inject the initial broadcasts / wakeups;
* :meth:`done` — the finish predicate, evaluated every ``check_every``
  slots *exactly like the legacy ``run_until`` cadence*, so completion
  slots match the single-trial harness bit-for-bit;
* :meth:`target_slots` — alternatively, a fixed slot budget (epoch
  sweeps), in which case :meth:`done` is never consulted;
* :meth:`finalize` — workload-specific metrics for the
  :class:`~repro.experiments.plans.TrialResult`.

Workload instances are stateless singletons in a name registry —
:class:`~repro.experiments.plans.TrialPlan` refers to them by name so
plans stay picklable for the process-pool executor; per-trial state
lives in the stack's clients, never on the workload.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.absmac.layer import MacClient
from repro.protocols.bmmb import BmmbClient
from repro.protocols.bsmb import BsmbClient
from repro.protocols.consensus import ConsensusClient

__all__ = [
    "Workload",
    "LocalBroadcastWorkload",
    "FixedSlotsWorkload",
    "SmbWorkload",
    "MmbWorkload",
    "ConsensusWorkload",
    "consensus_outcome",
    "register",
    "get_workload",
    "workload_names",
]


def consensus_outcome(
    decisions: tuple[tuple[int, int | None], ...], completion: int
) -> dict[str, Any]:
    """The consensus workload's result metrics from (node, decision)
    pairs — single source of truth for the object path and the
    columnar client population
    (:class:`~repro.vectorized.protocols.ConsensusClients`), whose
    ``extra`` tuples must stay dataclass-equal."""
    values = {decision for _, decision in decisions}
    return {
        "completion": completion,
        "decisions": decisions,
        "agreed": len(values) <= 1,
        "decided_value": values.pop() if len(values) == 1 else None,
    }


class Workload:
    """Base workload: hooks the engine drives, documented above.

    A workload may additionally opt into the columnar fast path
    (:mod:`repro.vectorized`) by implementing the ``vector_*`` hooks —
    array-state counterparts of ``start``/``done``/``target_slots``/
    ``finalize`` that read a :class:`~repro.vectorized.VectorRuntime`
    instead of a stack of MAC objects.  :meth:`vector_ready` gates the
    opt-in per plan; the default is False, which routes the plan to the
    object runtime.  Workloads whose clients are protocol state
    machines (BSMB relays, BMMB queues, consensus voters) return their
    columnar client population from :meth:`vector_clients`
    (:mod:`repro.vectorized.protocols`), which the engine installs on
    the batch's :class:`~repro.vectorized.protocols.VectorMacAdapter`.
    """

    name = "abstract"
    check_every = 16

    def client_factory(
        self, plan
    ) -> Callable[[int], MacClient] | None:
        """Optional per-node client factory (None = bare MacClient)."""
        return None

    def start(self, stack, plan) -> None:
        """Inject the workload's initial broadcasts / wakeups."""

    def done(self, stack, plan) -> bool:
        """Finish predicate, polled every ``check_every`` slots."""
        return True

    def target_slots(self, stack, plan) -> int | None:
        """Fixed slot budget, or None to poll :meth:`done` instead."""
        return None

    def finalize(self, stack, plan, completion: int) -> dict[str, Any]:
        """Workload-specific result metrics (must be hashable values)."""
        return {"completion": completion}

    # -- columnar fast-path hooks -----------------------------------------

    def vector_ready(self, plan) -> bool:
        """May this plan's workload phase run on the columnar runtime?"""
        return False

    def vector_clients(self, adapter, plans) -> Any | None:
        """Columnar client population for one batch (None = bare
        listeners).  ``plans`` lists the batch's plans in row order;
        ``adapter`` is the batch's MAC adapter, handed to the client
        kernel as its broadcast interface."""
        return None

    def vector_start(self, runtime, trial: int, plan) -> None:
        """Array-state :meth:`start`: inject broadcasts into one trial."""
        raise NotImplementedError(f"workload {self.name!r} is not columnar")

    def vector_done(self, runtime, trial: int, plan) -> bool:
        """Array-state :meth:`done` for one trial of the batch."""
        raise NotImplementedError(f"workload {self.name!r} is not columnar")

    def vector_target_slots(self, plan) -> int | None:
        """Array-state :meth:`target_slots` (stack-independent)."""
        return None

    def vector_finalize(
        self, runtime, trial: int, plan, completion: int
    ) -> dict[str, Any]:
        """Array-state :meth:`finalize`; must match the object path's
        metrics for every vector-eligible stack."""
        return {"completion": completion}

    # -- shared helpers ---------------------------------------------------

    @staticmethod
    def broadcasters(stack, plan) -> Iterable[int]:
        """The plan's broadcaster set (default: every node)."""
        if plan.broadcasters is None:
            return range(len(stack.macs))
        return plan.broadcasters

    @staticmethod
    def vector_broadcasters(runtime, plan) -> Iterable[int]:
        """:meth:`broadcasters` for the columnar runtime (same
        None-means-every-node rule, read off the lattice width)."""
        if plan.broadcasters is None:
            return range(runtime.n)
        return plan.broadcasters


class LocalBroadcastWorkload(Workload):
    """Every broadcaster bcasts once; done when all are acknowledged.

    The engine form of
    :func:`repro.analysis.harness.run_local_broadcast_experiment`
    (same payloads, same check cadence).  Pair with ``plan.extra_slots``
    to keep observing progress after the last ack.
    """

    name = "local_broadcast"
    check_every = 16

    def start(self, stack, plan) -> None:
        for node in self.broadcasters(stack, plan):
            stack.macs[node].bcast(payload=f"payload-{node}")

    def done(self, stack, plan) -> bool:
        return all(
            not stack.macs[node].busy
            for node in self.broadcasters(stack, plan)
        )

    def vector_ready(self, plan) -> bool:
        return True

    def vector_start(self, runtime, trial: int, plan) -> None:
        for node in self.vector_broadcasters(runtime, plan):
            runtime.bcast(trial, node, payload=f"payload-{node}")

    def vector_done(self, runtime, trial: int, plan) -> bool:
        broadcasters = (
            None if plan.broadcasters is None else plan.broadcasters
        )
        return not runtime.any_busy(trial, broadcasters)


class FixedSlotsWorkload(Workload):
    """Saturate with broadcasts and run a fixed slot budget.

    For layers that never acknowledge (the standalone Algorithm 9.1
    stack): every broadcaster bcasts once and the trial runs exactly
    ``slots`` slots (option), or ``epochs`` epochs of the stack's
    schedule when the MAC exposes one (option, default 1 epoch).
    """

    name = "fixed_slots"
    check_every = 1

    def start(self, stack, plan) -> None:
        for node in self.broadcasters(stack, plan):
            stack.macs[node].bcast(payload=f"m{node}")

    def target_slots(self, stack, plan) -> int:
        slots = plan.option("slots")
        if slots is not None:
            return int(slots)
        schedule = getattr(stack.macs[0], "schedule", None)
        if schedule is None:
            raise ValueError(
                "fixed_slots needs a 'slots' option for stacks without "
                "an epoch schedule"
            )
        return int(plan.option("epochs", 1)) * schedule.epoch_slots

    def finalize(self, stack, plan, completion: int) -> dict[str, Any]:
        out = {"completion": completion}
        schedule = getattr(stack.macs[0], "schedule", None)
        if schedule is not None:
            out["epoch_slots"] = schedule.epoch_slots
        return out

    def vector_ready(self, plan) -> bool:
        # Epoch-schedule budgets need a materialized MAC stack; only
        # explicit slot budgets are columnar (the Decay/Ack case — the
        # vector-eligible stacks have no epoch schedule, so the object
        # path's finalize adds no epoch_slots either).
        return plan.option("slots") is not None

    def vector_start(self, runtime, trial: int, plan) -> None:
        for node in self.vector_broadcasters(runtime, plan):
            runtime.bcast(trial, node, payload=f"m{node}")

    def vector_done(self, runtime, trial: int, plan) -> bool:
        return True  # unreachable: the fixed target drives completion

    def vector_target_slots(self, plan) -> int | None:
        return int(plan.option("slots"))

    def vector_finalize(
        self, runtime, trial: int, plan, completion: int
    ) -> dict[str, Any]:
        # The object path adds epoch_slots only for stacks exposing an
        # epoch schedule, and vector_ready admits only explicit slot
        # budgets — whose stacks have none.  So the columnar metrics
        # are exactly the completion, matching finalize() bit-for-bit
        # on every vector-eligible plan.
        return {"completion": completion}


class SmbWorkload(Workload):
    """Single-message broadcast (BSMB of [37], Theorem 12.7).

    Options: ``source`` (default 0), ``payload``.  Done when every node
    delivered the message; the completion slot matches
    :func:`repro.protocols.bsmb.run_single_message_broadcast`.
    """

    name = "smb"
    check_every = 32

    def client_factory(self, plan):
        return lambda i: BsmbClient()

    def start(self, stack, plan) -> None:
        source = int(plan.option("source", 0))
        payload = plan.option("payload", "smb-message")
        stack.clients[source].start_as_source(stack.macs[source], payload)

    def done(self, stack, plan) -> bool:
        return all(client.done for client in stack.clients)

    def vector_ready(self, plan) -> bool:
        return True

    def vector_clients(self, adapter, plans):
        from repro.vectorized.protocols import BsmbClients

        return BsmbClients(adapter)

    def vector_start(self, runtime, trial: int, plan) -> None:
        source = int(plan.option("source", 0))
        payload = plan.option("payload", "smb-message")
        runtime.adapter.client.start_as_source(trial, source, payload)

    def vector_done(self, runtime, trial: int, plan) -> bool:
        return runtime.adapter.client.done(trial)


class MmbWorkload(Workload):
    """Multi-message broadcast (BMMB of [37], Theorem 12.7).

    Option ``arrivals``: tuple of ``(node, (token, ...))`` pairs — the
    one-shot k-message arrival pattern of §4.5.  Done when every node
    delivered every token; matches
    :func:`repro.protocols.bmmb.run_multi_message_broadcast`.
    """

    name = "mmb"
    check_every = 32

    def client_factory(self, plan):
        return lambda i: BmmbClient()

    @staticmethod
    def _arrivals(plan) -> tuple[tuple[int, tuple[Any, ...]], ...]:
        arrivals = plan.option("arrivals")
        if not arrivals:
            raise ValueError("mmb workload needs an 'arrivals' option")
        return arrivals

    @staticmethod
    def _tokens(arrivals) -> list[Any]:
        tokens: list[Any] = []
        for _node, batch in arrivals:
            for token in batch:
                if token in tokens:
                    raise ValueError(f"duplicate message token {token!r}")
                tokens.append(token)
        return tokens

    def start(self, stack, plan) -> None:
        arrivals = self._arrivals(plan)
        self._tokens(arrivals)  # validate uniqueness up front
        for node, batch in arrivals:
            stack.macs[node].wake()
            for token in batch:
                stack.clients[node].arrive(token, slot=stack.runtime.slot)

    def done(self, stack, plan) -> bool:
        tokens = self._tokens(self._arrivals(plan))
        return all(client.has_all(tokens) for client in stack.clients)

    def vector_ready(self, plan) -> bool:
        return True

    def vector_clients(self, adapter, plans):
        from repro.vectorized.protocols import BmmbClients

        return BmmbClients(
            adapter,
            [self._tokens(self._arrivals(plan)) for plan in plans],
        )

    def vector_start(self, runtime, trial: int, plan) -> None:
        client = runtime.adapter.client
        for node, batch in self._arrivals(plan):
            runtime.wake_node(trial, node)
            for token in batch:
                client.arrive(trial, node, token)

    def vector_done(self, runtime, trial: int, plan) -> bool:
        return runtime.adapter.client.done(trial)


class ConsensusWorkload(Workload):
    """Flood-based consensus (Corollary 5.5 after [44]).

    Options: ``waves`` (required; callers use ``2·D_bound + 2``) and
    ``values`` (per-node binary inputs as a tuple; default parity
    ``i % 2``).  Done when every node decided; matches
    :func:`repro.protocols.consensus.run_consensus`.
    """

    name = "consensus"
    check_every = 32

    def client_factory(self, plan):
        waves = plan.option("waves")
        if waves is None:
            raise ValueError("consensus workload needs a 'waves' option")
        values = plan.option("values")

        def factory(i: int) -> ConsensusClient:
            value = (i % 2) if values is None else int(values[i])
            return ConsensusClient(i, value, waves=int(waves))

        return factory

    def start(self, stack, plan) -> None:
        for mac in stack.macs:
            mac.wake()  # consensus starts with every node participating

    def done(self, stack, plan) -> bool:
        return all(client.decided for client in stack.clients)

    def finalize(self, stack, plan, completion: int) -> dict[str, Any]:
        decisions = tuple(
            (client.node_id, client.decision) for client in stack.clients
        )
        return consensus_outcome(decisions, completion)

    @staticmethod
    def _trial_inputs(plan, n: int) -> tuple[int, list[int]]:
        waves = plan.option("waves")
        if waves is None:
            raise ValueError("consensus workload needs a 'waves' option")
        values = plan.option("values")
        inputs = [
            (i % 2) if values is None else int(values[i]) for i in range(n)
        ]
        return int(waves), inputs

    def vector_ready(self, plan) -> bool:
        return True

    def vector_clients(self, adapter, plans):
        from repro.vectorized.protocols import ConsensusClients

        n = adapter.runtime.n
        per_trial = [self._trial_inputs(plan, n) for plan in plans]
        return ConsensusClients(
            adapter,
            waves=[waves for waves, _ in per_trial],
            values=[inputs for _, inputs in per_trial],
        )

    def vector_start(self, runtime, trial: int, plan) -> None:
        runtime.adapter.client.start(trial)

    def vector_done(self, runtime, trial: int, plan) -> bool:
        return runtime.adapter.client.done(trial)

    def vector_finalize(
        self, runtime, trial: int, plan, completion: int
    ) -> dict[str, Any]:
        return runtime.adapter.client.finalize(trial, completion)


_REGISTRY: dict[str, Workload] = {}


def register(workload: Workload) -> Workload:
    """Add a workload to the name registry (last registration wins)."""
    _REGISTRY[workload.name] = workload
    return workload


def get_workload(name: str) -> Workload:
    """Look a workload up by name (ValueError lists the known names)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; registered: {workload_names()}"
        ) from None


def workload_names() -> tuple[str, ...]:
    """The registered workload names, sorted."""
    return tuple(sorted(_REGISTRY))


for _workload in (
    LocalBroadcastWorkload(),
    FixedSlotsWorkload(),
    SmbWorkload(),
    MmbWorkload(),
    ConsensusWorkload(),
):
    register(_workload)
