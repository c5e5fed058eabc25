"""Pubsub-based replication appliers: the §3.2.1 strategy spectrum.

All appliers consume the CDC topic and apply to a
:class:`~repro.replication.target.ReplicaStore`; they differ exactly
along the axes the paper describes.  Per-record service time is
identical across appliers, so throughput differences come only from
available concurrency — the paper's trade: "the serial approach is not
scalable; to avoid a scale bottleneck we need to *concurrently* publish
and apply change events.  But we can't simply apply change events in an
arbitrary order."
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

from repro._types import Mutation, MutationKind
from repro.causal.buffer import CausalBuffer, CausalBufferConfig
from repro.obs.trace import payload_version
from repro.pubsub.broker import Broker
from repro.pubsub.consumer import Consumer
from repro.pubsub.message import Message
from repro.pubsub.subscription import RoutingPolicy, SubscriptionConfig
from repro.replication.target import CursorCorruption, ReplicaStore
from repro.resilience.channel import ChannelConfig, ReliableChannel
from repro.sim.kernel import Simulation
from repro.sim.network import Network


def _mutation_of(message: Message) -> Mutation:
    payload = message.payload
    if payload["op"] == "delete":
        return Mutation.delete()
    return Mutation.put(payload["value"])


class _ApplierBase:
    """Shared wiring: a subscription plus worker consumers.

    With ``network`` set, the replica store lives across the simulated
    network (the remote data center of §3.1/§3.2.1): each apply is
    shipped to a replica endpoint through a
    :class:`~repro.resilience.channel.ReliableChannel` instead of being
    a direct method call.  The channel config decides whether a dropped
    apply is retransmitted (reliable) or silently lost (the
    fire-and-forget baseline) — and whether applies can reorder in
    flight (``ordered``), which is exactly the redelivery/reordering
    regime the version-checked appliers were built to survive.
    """

    def __init__(
        self,
        sim: Simulation,
        broker: Broker,
        topic: str,
        target: ReplicaStore,
        group_name: str,
        routing: RoutingPolicy,
        workers: int,
        service_time: float,
        ack_timeout: float = 5.0,
        network: Optional[Network] = None,
        resilience: Optional[ChannelConfig] = None,
        delivery_batch: int = 1,
        batch_overhead: float = 0.0,
        delivery_mode: str = "fifo",
        causal_hold: float = 0.25,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if delivery_mode not in ("fifo", "causal"):
            raise ValueError("delivery_mode must be 'fifo' or 'causal'")
        self.sim = sim
        self.target = target
        self.records_seen = 0
        # causal mode gates the *apply* step: workers still consume
        # concurrently, but an apply whose in-band causal deps have not
        # been applied here yet waits for them (bounded by causal_hold)
        self.causal_buffer: Optional[CausalBuffer] = None
        if delivery_mode == "causal":
            self.causal_buffer = CausalBuffer(
                sim,
                CausalBufferConfig(hold_deadline=causal_hold),
                name=f"applier:{group_name}",
                component="applier",
            )
        #: applies refused by the replica because a cursor was provably
        #: corrupted (typed CursorCorruption); the record is consumed
        #: but never applied — the reconciliation plane's repair signal
        self.cursor_faults = 0
        self._tx: Optional[ReliableChannel] = None
        if network is not None:
            self._endpoint_name = f"{group_name}-replica"

            def apply_remote(src: str, op: Dict[str, Any]) -> None:
                try:
                    getattr(self.target, op["method"])(*op["args"])
                except CursorCorruption:
                    self.cursor_faults += 1

            self._rx = ReliableChannel(
                sim, network, self._endpoint_name,
                handler=apply_remote, config=resilience,
            )
            self._tx = ReliableChannel(
                sim, network, f"{group_name}-tx", config=resilience
            )
        self.group = broker.consumer_group(
            topic,
            group_name,
            SubscriptionConfig(
                routing=routing,
                ack_timeout=ack_timeout,
                max_delivery_batch=delivery_batch,
            ),
        )
        self.consumers: List[Consumer] = []
        for idx in range(workers):
            consumer = Consumer(
                sim,
                f"{group_name}-w{idx}",
                handler=self._handle,
                batch_handler=self._handle_batch,
                service_time=service_time,
                batch_overhead=batch_overhead,
            )
            self.consumers.append(consumer)
            self.group.join(consumer)

    def _handle(self, message: Message) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _op_for(self, message: Message) -> Optional[Tuple[str, Tuple[Any, ...]]]:
        """The one-shot ``(method, args)`` apply op for a message, or
        None when the applier is stateful and has no group form."""
        return None

    def _handle_batch(self, messages: List[Message]) -> bool:
        """Group-apply a batched delivery in ONE handler invocation.

        Stateless appliers collapse the group into a single
        ``apply_many`` — one target call locally, or one wire frame
        remotely, instead of N.  Stateful appliers (txn regrouping)
        fall back to their per-message handler, still paying the
        dispatch overhead only once.
        """
        ops = [self._op_for(message) for message in messages]
        if self.causal_buffer is not None or any(op is None for op in ops):
            ok = True
            for message in messages:
                if self._handle(message) is False:
                    ok = False
            return ok
        self.records_seen += len(ops)
        if self._tx is None:
            try:
                self.target.apply_many(ops)
            except CursorCorruption:
                # isolate the poisoned op(s); the rest of the group
                # applies (re-running already-applied ops is a no-op
                # under the versioned disciplines)
                for method, args in ops:
                    try:
                        getattr(self.target, method)(*args)
                    except CursorCorruption:
                        self.cursor_faults += 1
        else:
            self._tx.send(
                self._endpoint_name, {"method": "apply_many", "args": (ops,)}
            )
        return True

    def _apply_op(self, method: str, *args: Any) -> None:
        """Apply to the target: direct call, or shipped over the network."""
        if self._tx is None:
            try:
                getattr(self.target, method)(*args)
            except CursorCorruption:
                self.cursor_faults += 1
        else:
            self._tx.send(self._endpoint_name, {"method": method, "args": args})

    def _apply_record(self, message: Message, method: str, *args: Any) -> None:
        """Apply one record, gated by the causal buffer when enabled."""
        if self.causal_buffer is None:
            self._apply_op(method, *args)
            return
        payload = message.payload
        version = payload_version(payload)
        if version is None:
            self._apply_op(method, *args)
            return
        stamp = payload.get("causal") if isinstance(payload, dict) else None
        self.causal_buffer.submit(
            message.key, version, stamp,
            lambda: self._apply_op(method, *args),
        )

    def backlog(self) -> int:
        return self.group.backlog()


class SerialTxnApplier(_ApplierBase):
    """One worker; regroups records into transactions and applies each
    atomically, in order.  Point-in-time consistent, unscalable.

    Requires the CDC topic to have a single partition (global order)."""

    def __init__(
        self,
        sim: Simulation,
        broker: Broker,
        topic: str,
        target: ReplicaStore,
        service_time: float = 0.001,
        network: Optional[Network] = None,
        resilience: Optional[ChannelConfig] = None,
        delivery_batch: int = 1,
        batch_overhead: float = 0.0,
    ) -> None:
        if broker.topic(topic).num_partitions != 1:
            raise ValueError("SerialTxnApplier requires a 1-partition topic")
        if network is not None:
            # serial apply is only point-in-time consistent if the wire
            # preserves order, so the channel must be reliable+ordered
            resilience = dataclasses.replace(
                resilience or ChannelConfig(), reliable=True, ordered=True
            )
        super().__init__(
            sim, broker, topic, target,
            group_name="serial-applier",
            routing=RoutingPolicy.PARTITION,
            workers=1,
            service_time=service_time,
            network=network,
            resilience=resilience,
            delivery_batch=delivery_batch,
            batch_overhead=batch_overhead,
        )
        self._pending: List[Tuple[str, Mutation]] = []
        self.txns_applied = 0

    def _handle(self, message: Message) -> bool:
        payload = message.payload
        self.records_seen += 1
        self._pending.append((message.key, _mutation_of(message)))
        if payload["txn_index"] == payload["txn_size"] - 1:
            self._apply_op("apply_txn", self._pending, payload["version"])
            self._pending = []
            self.txns_applied += 1
        return True


class ConcurrentApplier(_ApplierBase):
    """N workers, arbitrary routing, naive last-arrival-wins apply.

    Scales, but reordered updates overwrite with stale state and
    reordered deletes resurrect rows (eventual-consistency violations)."""

    def __init__(
        self,
        sim: Simulation,
        broker: Broker,
        topic: str,
        target: ReplicaStore,
        workers: int = 4,
        service_time: float = 0.001,
        network: Optional[Network] = None,
        resilience: Optional[ChannelConfig] = None,
        delivery_batch: int = 1,
        batch_overhead: float = 0.0,
        delivery_mode: str = "fifo",
        causal_hold: float = 0.25,
    ) -> None:
        super().__init__(
            sim, broker, topic, target,
            group_name="concurrent-applier",
            routing=RoutingPolicy.RANDOM,
            workers=workers,
            service_time=service_time,
            network=network,
            resilience=resilience,
            delivery_batch=delivery_batch,
            batch_overhead=batch_overhead,
            delivery_mode=delivery_mode,
            causal_hold=causal_hold,
        )

    def _handle(self, message: Message) -> bool:
        self.records_seen += 1
        self._apply_record(
            message,
            "apply_naive", message.key, _mutation_of(message),
            message.payload["version"],
        )
        return True

    def _op_for(self, message: Message) -> Tuple[str, Tuple[Any, ...]]:
        return (
            "apply_naive",
            (message.key, _mutation_of(message), message.payload["version"]),
        )


class VersionCheckedApplier(_ApplierBase):
    """N workers with version checks and tombstones (§3.2.1's repair).

    Eventually consistent, but snapshot anomalies remain: transactions
    are torn across workers, so the target externalizes mixtures of
    transactions that never coexisted at the source."""

    def __init__(
        self,
        sim: Simulation,
        broker: Broker,
        topic: str,
        target: ReplicaStore,
        workers: int = 4,
        service_time: float = 0.001,
        network: Optional[Network] = None,
        resilience: Optional[ChannelConfig] = None,
        delivery_batch: int = 1,
        batch_overhead: float = 0.0,
        delivery_mode: str = "fifo",
        causal_hold: float = 0.25,
    ) -> None:
        super().__init__(
            sim, broker, topic, target,
            group_name="versioned-applier",
            routing=RoutingPolicy.RANDOM,
            workers=workers,
            service_time=service_time,
            network=network,
            resilience=resilience,
            delivery_batch=delivery_batch,
            batch_overhead=batch_overhead,
            delivery_mode=delivery_mode,
            causal_hold=causal_hold,
        )

    def _handle(self, message: Message) -> bool:
        self.records_seen += 1
        self._apply_record(
            message,
            "apply_versioned", message.key, _mutation_of(message),
            message.payload["version"],
        )
        return True

    def _op_for(self, message: Message) -> Tuple[str, Tuple[Any, ...]]:
        return (
            "apply_versioned",
            (message.key, _mutation_of(message), message.payload["version"]),
        )


class PartitionSerialApplier(_ApplierBase):
    """One worker per partition, keyed partitioning (§3.2.1 strategy 3).

    Per-key order is preserved (no version checks needed for EC), but
    "transactions affecting multiple partitions are not atomically
    applied and the global transaction order of the source may be
    violated" — snapshot anomalies remain."""

    def __init__(
        self,
        sim: Simulation,
        broker: Broker,
        topic: str,
        target: ReplicaStore,
        service_time: float = 0.001,
        network: Optional[Network] = None,
        resilience: Optional[ChannelConfig] = None,
        delivery_batch: int = 1,
        batch_overhead: float = 0.0,
        delivery_mode: str = "fifo",
        causal_hold: float = 0.25,
    ) -> None:
        partitions = broker.topic(topic).num_partitions
        super().__init__(
            sim, broker, topic, target,
            group_name="partition-serial-applier",
            routing=RoutingPolicy.PARTITION,
            workers=partitions,
            service_time=service_time,
            network=network,
            resilience=resilience,
            delivery_batch=delivery_batch,
            batch_overhead=batch_overhead,
            delivery_mode=delivery_mode,
            causal_hold=causal_hold,
        )

    def _handle(self, message: Message) -> bool:
        self.records_seen += 1
        # per-key order is guaranteed by keyed partitioning + partition
        # affinity, so a plain versioned apply never skips (belt and
        # braces: keep the version check to stay safe under redelivery)
        self._apply_record(
            message,
            "apply_versioned", message.key, _mutation_of(message),
            message.payload["version"],
        )
        return True

    def _op_for(self, message: Message) -> Tuple[str, Tuple[Any, ...]]:
        return (
            "apply_versioned",
            (message.key, _mutation_of(message), message.payload["version"]),
        )
