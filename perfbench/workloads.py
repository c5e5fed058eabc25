"""The benchmark's four workloads, built from the library's public API.

Every workload is an open loop in virtual time — a bench-side writer
commits on a fixed virtual schedule whatever the consumers do — and a
closed loop in wall time: one single-threaded simulation runs as fast
as it can.  All inputs derive from the seed: the simulation RNG
(network jitter and loss, session placement jitter) is seeded with it,
and the bench's own choices (keys, probes, storm victims) come from a
separate ``random.Random`` seeded with it, so the program's RNG stream
is the one it would see without the benchmark.

A workload object is one round: :meth:`Workload.build` constructs the
topology and preloads it, :meth:`Workload.warm_up` runs the virtual
clock to just before the first measured commit, :meth:`Workload.measure`
runs the measured phase to its drained end in equal spans of virtual
time, timing each span, and :meth:`Workload.check`
returns the correctness failures (empty on correct code).  Latency is
measured client-side — the final consumer looks up the commit time the
writer recorded for the version it just received, as E14's
``_ScaleClient`` does — so no tracer is needed to measure it.
"""

from __future__ import annotations

import gc
import random
import time

from repro._types import KeyRange
from repro.cache.cluster import CacheCluster
from repro.cache.invalidation import (
    InvalidationMode,
    PubsubCacheNode,
    PubsubInvalidationPipeline,
)
from repro.cache.node import CacheNodeConfig
from repro.cache.watch_cache import WatchCacheNode
from repro.cdc.publisher import CdcPublisher
from repro.core.api import WatchCallback
from repro.core.bridge import (
    DirectIngestBridge,
    PartitionedIngestBridge,
    even_ranges,
)
from repro.core.linked_cache import LinkedCacheConfig
from repro.core.watch_system import WatchSystem
from repro.edge.client import EdgeClient
from repro.edge.frontend import (
    EdgeFrontendConfig,
    PubsubEdgeFrontend,
    WatchEdgeFrontend,
)
from repro.edge.placement import SessionPlacement
from repro.edge.session import SessionConfig, SlowConsumerPolicy, SnapshotDelivery
from repro.obs import Tracer
from repro.pubsub.broker import Broker, BrokerConfig, RemotePublisher
from repro.pubsub.log import RetentionPolicy
from repro.replication.appliers import PartitionSerialApplier
from repro.replication.target import ReplicaStore
from repro.resilience.channel import ChannelConfig
from repro.resilience.retry import RetryPolicy
from repro.sharding.autosharder import AutoSharder, AutoSharderConfig
from repro.sim.kernel import Simulation, Timeout
from repro.sim.network import Network, NetworkConfig
from repro.storage.kv import MVCCStore, Mutation
from repro.transport import BatchConfig

#: freshness probes per round
PROBES = 10_000
#: what a probe's reader returns when the consumer served no value
UNSERVED = object()

_SESSION_TOTALS = ("offered", "delivered", "coalesced", "dropped",
                   "returned", "queued")


class _GcClock:
    """Wall time spent in the cyclic collector, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.total = 0.0
        self._start = 0.0

    def __call__(self, phase, info) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.total += time.perf_counter() - self._start


class Workload:
    """One round of a workload; subclasses build the topology."""

    name = ""
    #: equal spans of virtual time the measured phase is timed in, per
    #: simulation
    SLICES = 128

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: bench-side randomness, separate from the program's sim.rng
        self.rng = random.Random(seed)
        #: virtual commit-to-arrival latencies at the final consumer (s)
        self.lags = []
        #: consumer probes: (stale, total)
        self.probes = [0, 0]
        self.sims = []
        #: virtual (start, end) of the measured phase, per simulation
        self.phases = []
        self.commits = 0
        #: wall time of each measured span, collector pauses excluded
        self.slice_s = []
        #: wall time of collector pauses in the measured phase
        self.gc_s = 0.0

    def build(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        for sim, (start, _) in zip(self.sims, self.phases):
            sim.run(until=start)
        self.lags.clear()  # preload traffic is not measured

    def measure(self, between=None) -> None:
        """Run the measured phase; ``between``, if given, is called after
        each timed span, outside the timing."""
        gc_clock = _GcClock()
        gc.callbacks.append(gc_clock)
        try:
            for sim, (start, end) in zip(self.sims, self.phases):
                for k in range(1, self.SLICES + 1):
                    until = (end if k == self.SLICES
                             else start + (end - start) * k / self.SLICES)
                    gc_before = gc_clock.total
                    t0 = time.perf_counter()
                    sim.run(until=until)
                    self.slice_s.append(time.perf_counter() - t0
                                        - (gc_clock.total - gc_before))
                    if between is not None:
                        between()
        finally:
            gc.callbacks.remove(gc_clock)
        self.gc_s = gc_clock.total

    def check(self) -> list:
        raise NotImplementedError

    def counters(self) -> dict:
        """Program counters read from public state after the run."""
        raise NotImplementedError


class _CommitLog:
    """Writer-side record of every commit: virtual commit time per
    version and the latest value per key (the probes' reference)."""

    def __init__(self, sim: Simulation, store: MVCCStore) -> None:
        self.sim = sim
        self.times = {}
        self.latest = {}
        store.history.tail(self._on_commit)

    def _on_commit(self, commit) -> None:
        self.times[commit.version] = self.sim.clock._now
        latest = self.latest
        for key, mutation in commit.writes:
            latest[key] = mutation.value


def _schedule_writer(sim, store, keys, rng, *, start, commits, rate,
                     txn_size=1, burst=1):
    """Open-loop writer: ``commits`` transactions of ``txn_size`` keys,
    in bursts of ``burst`` arriving as a Poisson process of mean rate
    ``rate / burst`` from ``start``.  The schedule and the keys (distinct
    within a transaction) are drawn by the bench RNG up front; values
    are the running write count, so each write is distinguishable.
    Returns the schedule: ``(virtual time, keys written)`` per burst."""
    plan = [rng.sample(keys, txn_size) for _ in range(commits)]
    counter = [0]

    def fire(first: int) -> None:
        for txn in plan[first:first + burst]:
            writes = {}
            for key in txn:
                counter[0] += 1
                writes[key] = Mutation.put(counter[0])
            store.commit(writes)

    schedule = []
    at = start
    for first in range(0, commits, burst):
        sim.call_at(at, lambda first=first: fire(first))
        schedule.append((at, [key for txn in plan[first:first + burst]
                              for key in txn]))
        at += rng.expovariate(rate / burst)
    return schedule


def _schedule_probes(sim, rng, schedule, latest, probes, reader_for, *,
                     count, window):
    """Freshness probes: ``count`` reads of a key just written, each at a
    uniform delay in ``[0, window)`` after its commit, from a consumer
    ``reader_for(key)`` picks up front.  A probe is stale when the
    consumer's value differs from the latest committed value at probe
    time, and a read that ``read`` reports as :data:`UNSERVED` (a cache
    miss) is not counted; ``probes`` accumulates ``[stale, total]``."""
    def probe(key, read):
        value = read(key)
        if value is UNSERVED:
            return
        probes[1] += 1
        if value != latest[key]:
            probes[0] += 1

    for _ in range(count):
        at, keys = schedule[rng.randrange(len(schedule))]
        key = keys[rng.randrange(len(keys))]
        read = reader_for(key)
        sim.call_at(at + rng.uniform(0.0, window),
                    lambda key=key, read=read: probe(key, read))


# ----------------------------------------------------------------------
# pubsub-replication


class _TimedReplica(ReplicaStore):
    """Replica that samples the lag of every apply it receives."""

    def __init__(self, name, sim, commit_log, sink):
        super().__init__(name)
        self._sim = sim
        self._commit_log = commit_log
        self._sink = sink

    def _sample(self, version) -> None:
        t0 = self._commit_log.times.get(version)
        if t0 is not None:
            self._sink.append(self._sim.clock._now - t0)

    def apply_versioned(self, key, mutation, version):
        self._sample(version)
        return super().apply_versioned(key, mutation, version)


class PubsubReplication(Workload):
    """Per-message cost of the CDC path: MVCCStore -> CdcPublisher ->
    RemotePublisher over a lossy ReliableChannel -> Broker ->
    PartitionSerialApplier over the same network -> ReplicaStore, one
    record per network message, no batching, no tracer."""

    name = "pubsub-replication"

    COMMITS = 2_400
    TXN_SIZE = 4
    BURST = 4
    RATE = 2_000.0
    KEYS = 128
    PARTITIONS = 4
    LOSS = 0.02
    START = 1.0
    DRAIN = 1.0
    PROBE_WINDOW = 0.02

    def build(self) -> None:
        sim = Simulation(seed=self.seed)
        self.sim = sim
        store = MVCCStore(clock=sim.now)
        self.store = store
        self.log = _CommitLog(sim, store)
        self.net = net = Network(sim, NetworkConfig(
            base_latency=0.001, jitter=0.0005, loss_rate=self.LOSS,
        ))
        # unordered channels: a retransmitted record overtakes nothing
        # it must wait for, and the applier's versioned apply makes the
        # replica converge whatever the arrival order
        channel = ChannelConfig(
            retry=RetryPolicy.unbounded(base_delay=0.004, max_delay=0.02),
        )
        self.broker = broker = Broker(sim)
        broker.create_topic("cdc", num_partitions=self.PARTITIONS)
        broker.attach_network(net, endpoint="cdc-broker", config=channel)
        remote = RemotePublisher(
            sim, net, "cdc-pub", broker_endpoint="cdc-broker",
            config=channel, metrics=broker.metrics,
        )
        self.cdc = CdcPublisher(
            sim, store.history, broker, "cdc",
            publish_latency=0.0005, publish_fn=remote.publish,
        )
        self.replica = _TimedReplica("replica", sim, self.log, self.lags)
        self.applier = PartitionSerialApplier(
            sim, broker, "cdc", self.replica, service_time=0.0,
            network=net, resilience=channel,
        )
        self.keys = [f"k{i:03d}" for i in range(self.KEYS)]
        # preload: every key written once through the whole pipeline
        for first in range(0, self.KEYS, self.TXN_SIZE):
            store.commit({
                key: Mutation.put(0)
                for key in self.keys[first:first + self.TXN_SIZE]
            })
        self.preload = int(store.last_version)
        schedule = _schedule_writer(
            sim, store, self.keys, self.rng, start=self.START,
            commits=self.COMMITS, rate=self.RATE,
            txn_size=self.TXN_SIZE, burst=self.BURST,
        )
        replica = self.replica
        _schedule_probes(sim, self.rng, schedule, self.log.latest,
                         self.probes, lambda key: replica.get,
                         count=PROBES, window=self.PROBE_WINDOW)
        self.sims = [sim]
        self.phases = [(self.START - 1e-6, schedule[-1][0] + self.DRAIN)]

    def measure(self, between=None) -> None:
        super().measure(between)
        self.commits = int(self.store.last_version) - self.preload

    def check(self) -> list:
        errors = []
        total = int(self.store.last_version)
        if self.applier.records_seen != total * self.TXN_SIZE:
            errors.append(
                f"applier saw {self.applier.records_seen} records, "
                f"expected {total * self.TXN_SIZE}"
            )
        for key in self.keys:
            if self.replica.get(key) != self.store.get(key):
                errors.append(f"replica diverged at {key}")
                break
        if self.commits != self.COMMITS:
            errors.append(f"{self.commits} commits, expected {self.COMMITS}")
        return errors

    def counters(self) -> dict:
        out = _net_counters(self.net)
        # publish-side channels count into the broker's registry, the
        # applier's into the network's
        out.update(_registry_counters(self.net.metrics, self.broker.metrics))
        subs = self.broker.subscriptions("cdc")
        out["pubsub.published"] = int(
            self.broker.metrics.counter("pubsub.published").value
        )
        out["pubsub.delivered"] = sum(s.delivered for s in subs)
        out["pubsub.redelivered"] = sum(s.redelivered for s in subs)
        out["cdc.records"] = self.cdc.published
        out["replication.applied"] = self.applier.records_seen
        out["replication.applies"] = self.replica.applies
        return out


def _net_counters(net) -> dict:
    snap = net.metrics.snapshot()
    return {
        "sim.network.sends": int(snap.get("net.sent", 0)),
        "sim.network.dropped": int(sum(
            v for k, v in snap.items() if k.startswith("net.dropped.")
        )),
        "sim.network.bytes_sent": int(snap.get("net.bytes.sent", 0)),
        "sim.network.frames": int(snap.get("net.frames.sent", 0)),
        "sim.network.payload_msgs": int(snap.get("net.payload.msgs", 0)),
    }


def _registry_counters(*registries) -> dict:
    """Channel counters summed over every ``resilience.*`` metric."""
    out = {"resilience.transmits": 0, "resilience.retransmits": 0,
           "resilience.acked": 0}
    for registry in registries:
        for name, value in registry.snapshot().items():
            if not name.startswith("resilience."):
                continue
            for suffix in ("transmits", "retransmits", "acked"):
                if name.endswith("." + suffix):
                    out["resilience." + suffix] += int(value)
    return out


# ----------------------------------------------------------------------
# edge workloads


def _group_range(group: int) -> KeyRange:
    # '/' sorts just below '0', so [gNNN/, gNNN0) holds the keys gNNN/KKK
    return KeyRange(f"g{group:03d}/", f"g{group:03d}0")


def _group_keys(groups: int, per_group: int) -> list:
    return [f"g{g:03d}/{k:03d}" for g in range(groups) for k in range(per_group)]


class _LagClient(EdgeClient):
    """EdgeClient that samples its own delivery latency (E14's
    ``_ScaleClient``); ``sink`` is None for unsampled clients.

    Only updates committed while the client was connected are sampled:
    a reconnect's catch-up (snapshot, delta or log replay) delivers old
    versions whose age is the client's own downtime, not delivery lag.
    """

    __slots__ = ("commit_times", "sink", "connected_at")

    def __init__(self, *args, commit_times=None, sink=None, **kw):
        super().__init__(*args, **kw)
        self.commit_times = commit_times
        self.sink = sink
        self.connected_at = 0.0

    def connect(self) -> None:
        if self.session is None:
            self.connected_at = self.sim.clock._now
        super().connect()

    def on_delivery(self, session, item) -> None:
        sink = self.sink
        if sink is not None and item.__class__ is not SnapshotDelivery:
            t0 = self.commit_times.get(item.version)
            if t0 is not None and t0 >= self.connected_at:
                sink.append(self.sim.clock._now - t0)
        super().on_delivery(session, item)


def _store_snapshot(store):
    def snapshot(key_range):
        version = store.last_version
        return version, dict(store.scan(key_range, version))
    return snapshot


def _fold_clients(clients) -> dict:
    totals = dict.fromkeys(_SESSION_TOTALS, 0)
    for client in clients:
        client.stop()
        for key, value in client.finalize().items():
            totals[key] += value
    return totals


def _conservation_errors(label, totals, frontends) -> list:
    errors = []
    accounted = sum(totals[k] for k in _SESSION_TOTALS if k != "offered")
    if accounted != totals["offered"]:
        errors.append(
            f"{label}: conservation gap, offered {totals['offered']} != "
            f"accounted {accounted}"
        )
    column_offered = sum(fe.table.totals()["offered"] for fe in frontends)
    if column_offered > totals["offered"]:
        errors.append(
            f"{label}: session table offered {column_offered} exceeds the "
            f"client folds {totals['offered']}"
        )
    return errors


def _converge_errors(label, clients, latest) -> list:
    """Every client holds the latest value of every key in its range."""
    in_range = {}
    for client in clients:
        key_range = client.key_range
        keys = in_range.get(key_range)
        if keys is None:
            keys = in_range[key_range] = [
                key for key in latest if key_range.contains(key)]
        for key in keys:
            if client.state.get(key) != latest[key]:
                return [f"{label}: client {client.name} did not converge "
                        f"at {key}"]
    return []


def _client_reader(rng, clients, groups):
    """``reader_for`` for edge probes: a random client of the key's group
    (keys are ``gNNN/KKK``; client ``i`` watches group ``i % groups``)."""
    per_group = len(clients) // groups

    def reader_for(key):
        client = clients[int(key[1:4]) + groups * rng.randrange(per_group)]
        return lambda key: client.state.get(key)

    return reader_for


def _edge_counters(frontends, clients) -> dict:
    out = {
        "edge.pump_visits": sum(fe.table.pump_visits for fe in frontends),
        "edge.connects": sum(fe.connects for fe in frontends),
        "edge.snapshots_served": sum(
            getattr(fe, "snapshots_served", 0) for fe in frontends),
        "edge.snapshot_cache_hits": sum(
            getattr(fe, "snapshot_cache_hits", 0) for fe in frontends),
        "edge.replayed": sum(getattr(fe, "replayed", 0) for fe in frontends),
    }
    for key in _SESSION_TOTALS:
        out[f"edge.{key}"] = sum(c.totals[key] for c in clients)
    return out


class WatchFanout(Workload):
    """Steady fan-out, no churn, no network (E14 shape): MVCCStore ->
    WatchSystem -> the relays of four shared-drain WatchEdgeFrontends ->
    20k EdgeClients, each watching one key group."""

    name = "watch-fanout"

    SESSIONS = 20_000
    FRONTENDS = 4
    GROUPS = 64
    KEYS_PER_GROUP = 8
    COMMITS = 1_000
    PROBE_WINDOW = 0.02
    RATE = 200.0
    CONNECT_WINDOW = 2.0
    LAT_SAMPLE = 16
    DRAIN = 1.0

    def build(self) -> None:
        sim = Simulation(seed=self.seed)
        store = MVCCStore(clock=sim.now)
        self.store = store
        self.log = _CommitLog(sim, store)
        keys = _group_keys(self.GROUPS, self.KEYS_PER_GROUP)
        for key in keys:  # preload: every key has a value before connects
            store.put(key, 0)
        self.preload = int(store.last_version)
        self.source = source = WatchSystem(sim, name="src-ws")
        DirectIngestBridge(
            sim, store.history, source, latency=0.002, jitter=0.002,
            progress_interval=0.25,
        )
        config = EdgeFrontendConfig(
            session=SessionConfig(
                policy=SlowConsumerPolicy.COALESCE, max_queue=256,
                initial_credits=8, delivery_latency=0.001,
            ),
            catchup_threshold=100,
            drain_interval=0.001,
            feed_progress=False,
        )
        self.frontends = [
            WatchEdgeFrontend(sim, f"fe{i}", source, _store_snapshot(store),
                              config=config)
            for i in range(self.FRONTENDS)
        ]
        placement = SessionPlacement(sim, self.frontends)
        self.clients = []
        for i in range(self.SESSIONS):
            group = i % self.GROUPS
            client = _LagClient(
                sim, f"{chr(97 + (26 * i) // self.SESSIONS)}{i:07d}", placement,
                key_range=_group_range(group), service_time=0.0,
                reconnect_delay=0.3, commit_times=self.log.times,
                # stride by client within its group, so every group
                # has sampled clients
                sink=(self.lags if (i // self.GROUPS) % self.LAT_SAMPLE == 0
                      else None),
            )
            self.clients.append(client)
            sim.call_after(sim.rng.uniform(0.0, self.CONNECT_WINDOW),
                           client.connect)
        start = self.CONNECT_WINDOW + 0.5
        schedule = _schedule_writer(sim, store, keys, self.rng, start=start,
                                    commits=self.COMMITS, rate=self.RATE)
        _schedule_probes(sim, self.rng, schedule, self.log.latest, self.probes,
                         _client_reader(self.rng, self.clients, self.GROUPS),
                         count=PROBES, window=self.PROBE_WINDOW)
        self.sims = [sim]
        self.phases = [(start - 1e-6, schedule[-1][0] + self.DRAIN)]

    def measure(self, between=None) -> None:
        super().measure(between)
        self.commits = int(self.store.last_version) - self.preload
        self.totals = _fold_clients(self.clients)

    def check(self) -> list:
        errors = _conservation_errors("watch", self.totals, self.frontends)
        errors += _converge_errors("watch", self.clients, self.log.latest)
        if self.commits != self.COMMITS:
            errors.append(f"{self.commits} commits, expected {self.COMMITS}")
        return errors

    def counters(self) -> dict:
        out = _edge_counters(self.frontends, self.clients)
        out["core.ingested"] = self.source.events_ingested + sum(
            fe.relay.events_applied for fe in self.frontends)
        return out


class ReconnectStorm(Workload):
    """Churn on both edge frontends over a lossy network with batched
    reliable links: slow clients, and a mass disconnect whose reconnects
    present aged cursors (edge snapshots, partition-log replay), with
    the tracer attached and sessions sampled."""

    name = "reconnect-storm"

    SESSIONS_PER_PIPELINE = 600
    GROUPS = 16
    KEYS_PER_GROUP = 8
    COMMITS = 1_500
    RATE = 150.0
    CONNECT_WINDOW = 1.0
    SLOW_EVERY = 5
    STORM_FRACTION = 0.5
    STORM_WINDOW = 1.0
    DOWNTIME_MEAN = 1.0
    DRAIN = 8.0
    LAT_SAMPLE = 2
    TRACE_SAMPLE = 64
    PROBE_WINDOW = 0.05

    def build(self) -> None:
        sim = Simulation(seed=self.seed)
        store = MVCCStore(clock=sim.now)
        self.store = store
        self.log = _CommitLog(sim, store)
        keys = _group_keys(self.GROUPS, self.KEYS_PER_GROUP)
        for key in keys:
            store.put(key, 0)
        self.preload = int(store.last_version)
        self.tracer = tracer = Tracer(sim, name="storm")
        tracer.observe_store(store)
        self.net = net = Network(sim, NetworkConfig(
            base_latency=0.002, jitter=0.001, loss_rate=0.01,
        ), tracer=tracer)
        batch = BatchConfig(max_batch=16, max_linger=0.002)
        session = dict(max_queue=64, initial_credits=4, delivery_latency=0.001)
        common = dict(catchup_threshold=64, drain_interval=0.001,
                      trace_sample=self.TRACE_SAMPLE,
                      reconnect_cursor_age=10 ** 9)
        # watch pipeline: store -> source watch system -> reliable
        # batched uplink per frontend -> relay -> coalescing sessions
        source = WatchSystem(sim, name="src-ws", tracer=tracer)
        self.bridge = DirectIngestBridge(
            sim, store.history, source, latency=0.002, jitter=0.002,
            progress_interval=0.25,
        )
        self.watch_frontends = [
            WatchEdgeFrontend(
                sim, f"wfe{i}", source, _store_snapshot(store), net=net,
                channel_config=ChannelConfig(ordered=True, batch=batch),
                config=EdgeFrontendConfig(
                    session=SessionConfig(policy=SlowConsumerPolicy.COALESCE,
                                          **session),
                    feed_progress=False, **common),
                tracer=tracer,
            )
            for i in range(2)
        ]
        # pubsub pipeline: store -> broker (retention floor) -> free
        # consumer per frontend -> reliable batched link -> dropping
        # sessions; aged reconnects replay the partition logs
        self.broker = broker = Broker(sim, BrokerConfig(gc_interval=2.0),
                                      tracer=tracer)
        broker.create_topic("updates", num_partitions=4,
                            retention=RetentionPolicy(max_messages=200))

        def publish_commit(commit):
            for key, mutation in commit.writes:
                broker.publish("updates", key, {
                    "version": commit.version, "value": mutation.value,
                })

        store.history.tail(publish_commit)
        self.pubsub_frontends = [
            PubsubEdgeFrontend(
                sim, f"pfe{i}", broker, "updates", net=net,
                channel_config=ChannelConfig(ordered=True, batch=batch),
                config=EdgeFrontendConfig(
                    session=SessionConfig(policy=SlowConsumerPolicy.DROP,
                                          **session),
                    **common),
                tracer=tracer,
            )
            for i in range(2)
        ]
        start = self.CONNECT_WINDOW + 0.5
        self.watch_clients = self._clients(
            sim, "w", SessionPlacement(sim, self.watch_frontends), keys)
        self.pubsub_clients = self._clients(
            sim, "p", SessionPlacement(sim, self.pubsub_frontends), keys)
        clients = self.watch_clients + self.pubsub_clients
        schedule = _schedule_writer(sim, store, keys, self.rng, start=start,
                                    commits=self.COMMITS, rate=self.RATE)
        last = schedule[-1][0]
        self._schedule_storm(sim, clients, (start + last) / 2.0)
        readers = [_client_reader(self.rng, self.watch_clients, self.GROUPS),
                   _client_reader(self.rng, self.pubsub_clients, self.GROUPS)]
        _schedule_probes(sim, self.rng, schedule, self.log.latest, self.probes,
                         lambda key: readers[self.rng.randrange(2)](key),
                         count=PROBES, window=self.PROBE_WINDOW)
        end = last + self.DRAIN
        # quiesce the bridge's progress ticks before the cut, so no
        # frame is in flight at the end of the measured phase
        sim.call_at(end - self.DRAIN / 2.0, self.bridge.close)
        self.sims = [sim]
        self.phases = [(start - 1e-6, end)]

    def _clients(self, sim, prefix, placement, keys) -> list:
        clients = []
        n = self.SESSIONS_PER_PIPELINE
        for i in range(n):
            group = i % self.GROUPS
            client = _LagClient(
                sim, f"{chr(97 + (26 * i) // n)}{prefix}{i:05d}", placement,
                key_range=_group_range(group),
                service_time=0.05 if i % self.SLOW_EVERY == 0 else 0.0,
                reconnect_delay=0.3, commit_times=self.log.times,
                sink=(self.lags if (i // self.GROUPS) % self.LAT_SAMPLE == 0
                      else None),
            )
            clients.append(client)
            sim.call_after(sim.rng.uniform(0.0, self.CONNECT_WINDOW),
                           client.connect)
        return clients

    def _schedule_storm(self, sim, clients, storm_at) -> None:
        rng = self.rng
        stormers = rng.sample(clients, round(len(clients) * self.STORM_FRACTION))
        for client in stormers:
            hit_at = storm_at + rng.uniform(0.0, self.STORM_WINDOW)
            downtime = min(rng.expovariate(1.0 / self.DOWNTIME_MEAN),
                           4 * self.DOWNTIME_MEAN)

            def hit(client=client, downtime=downtime):
                if client.session is None:
                    return
                client.auto_reconnect = False
                client.disconnect()

                def back():
                    client.auto_reconnect = True
                    client.connect()

                sim.call_after(downtime, back)

            sim.call_at(hit_at, hit)

    def measure(self, between=None) -> None:
        super().measure(between)
        self.commits = int(self.store.last_version) - self.preload
        self.watch_totals = _fold_clients(self.watch_clients)
        self.pubsub_totals = _fold_clients(self.pubsub_clients)

    def check(self) -> list:
        errors = _conservation_errors("watch", self.watch_totals,
                                      self.watch_frontends)
        errors += _conservation_errors("pubsub", self.pubsub_totals,
                                       self.pubsub_frontends)
        # coalescing is loss-free: every watch client converges
        errors += _converge_errors("watch", self.watch_clients, self.log.latest)
        if self.commits != self.COMMITS:
            errors.append(f"{self.commits} commits, expected {self.COMMITS}")
        return errors

    def counters(self) -> dict:
        frontends = self.watch_frontends + self.pubsub_frontends
        clients = self.watch_clients + self.pubsub_clients
        out = _edge_counters(frontends, clients)
        out.update(_net_counters(self.net))
        registries = [self.net.metrics, self.broker.metrics]
        out.update(_registry_counters(*registries))
        out["edge.replay_gaps"] = sum(fe.replay_gaps
                                      for fe in self.pubsub_frontends)
        out["pubsub.published"] = int(
            self.broker.metrics.counter("pubsub.published").value)
        subs = self.broker.subscriptions("updates")
        out["pubsub.delivered"] = sum(s.delivered for s in subs)
        out["pubsub.redelivered"] = sum(s.redelivered for s in subs)
        out["obs.events"] = len(self.tracer.log)
        return out


# ----------------------------------------------------------------------
# invalidation-race


class _TimedCacheNode(PubsubCacheNode):
    """Pubsub cache node that samples the lag of every invalidation it
    acks (a nacked delivery is rerouted, and sampled where it lands)."""

    def __init__(self, *args, commit_times=None, sink=None, **kw):
        super().__init__(*args, **kw)
        self._commit_times = commit_times
        self._sink = sink

    def handle_invalidation_message(self, message):
        acked = super().handle_invalidation_message(message)
        t0 = self._commit_times.get(message.payload["version"])
        if acked and t0 is not None:
            self._sink.append(self.sim.clock._now - t0)
        return acked


class _LagWatcher(WatchCallback):
    """A bench-side watcher on the cache fleet's watch system: it sits
    beside the cache nodes' feeds and samples event arrival lag."""

    def __init__(self, sim, commit_times, sink):
        self.sim = sim
        self.commit_times = commit_times
        self.sink = sink

    def on_event(self, event) -> None:
        t0 = self.commit_times.get(event.version)
        if t0 is not None:
            self.sink.append(self.sim.clock._now - t0)

    def on_progress(self, event) -> None:
        pass

    def on_resync(self) -> None:
        pass


class InvalidationRace(Workload):
    """E3's race: a pubsub-owner cache fleet and a watch cache fleet, each
    in its own simulation, under AutoSharder handoffs every 0.4 s with
    hot writes and reads in every handoff window, probes and the tracer
    on."""

    name = "invalidation-race"

    NODES = 3
    KEYS = 150
    RATE = 300.0
    DURATION = 10.0
    DRAIN = 2.0
    PROBE_WINDOW = 0.05
    HANDOFF_INTERVAL = 0.4
    START = 0.5

    def build(self) -> None:
        self.fleets = []
        for config in ("pubsub-owner", "watch"):
            self.fleets.append(self._build_fleet(config))
        self.sims = [fleet["sim"] for fleet in self.fleets]
        end = self.START + self.DURATION + self.DRAIN
        self.phases = [(self.START - 1e-6, end)] * len(self.sims)

    def _build_fleet(self, config: str) -> dict:
        rng = random.Random(f"{self.seed}-{config}")
        sim = Simulation(seed=self.seed)
        store = MVCCStore(clock=sim.now)
        keys = [f"key-{i:05d}" for i in range(self.KEYS)]
        for i, key in enumerate(keys):
            store.put(key, -1 - i)
        preload = int(store.last_version)
        log = _CommitLog(sim, store)
        tracer = Tracer(sim, name=config)
        tracer.observe_store(store)
        sharder = AutoSharder(
            sim, [f"node-{i}" for i in range(self.NODES)],
            AutoSharderConfig(notify_latency=0.05, notify_jitter=0.25,
                              max_slices=4096),
            auto_rebalance=False,
        )
        for boundary in range(0, self.KEYS, 5):
            sharder.split_at(keys[boundary])
        if config == "pubsub-owner":
            broker = Broker(sim, tracer=tracer)
            nodes = [
                _TimedCacheNode(
                    sim, f"node-{i}", store, InvalidationMode.OWNER_ACK,
                    config=CacheNodeConfig(fetch_latency=0.01), tracer=tracer,
                    commit_times=log.times, sink=self.lags,
                )
                for i in range(self.NODES)
            ]
            PubsubInvalidationPipeline(sim, store, broker, sharder, nodes,
                                       tracer=tracer)
        else:
            ws = WatchSystem(sim, tracer=tracer)
            PartitionedIngestBridge(sim, store.history, ws, even_ranges(8),
                                    jitter=0.004, progress_interval=0.2)
            nodes = [
                WatchCacheNode(
                    sim, f"node-{i}", store, ws,
                    cache_config=LinkedCacheConfig(snapshot_latency=0.02),
                    tracer=tracer,
                )
                for i in range(self.NODES)
            ]
            for node in nodes:
                sharder.subscribe(node.on_assignment)
            ws.watch_range(KeyRange.all(), store.last_version,
                           _LagWatcher(sim, log.times, self.lags))
        cluster = CacheCluster(sim, sharder, nodes, store)
        stop_writes = self.START + self.DURATION
        commits = round(self.DURATION * self.RATE)
        schedule = _schedule_writer(sim, store, keys, rng, start=self.START,
                                    commits=commits, rate=self.RATE)

        def read(key):
            status, value, _ = cluster.read(key)
            return value if status == "hit" else UNSERVED

        _schedule_probes(sim, rng, schedule, log.latest, self.probes,
                         lambda key: read, count=PROBES,
                         window=self.PROBE_WINDOW)
        move_order = list(keys)
        rng.shuffle(move_order)
        extra = [0]

        def handoffs():
            for key in move_order:
                if sim.now() >= stop_writes:
                    break
                sharder.move_key(key, f"node-{rng.randrange(self.NODES)}")
                for dt in (0.01, 0.03, 0.06, 0.09, 0.12, 0.15, 0.25, 0.4):
                    sim.call_after(dt, lambda key=key: cluster.read(key))
                for dt in (0.04, 0.1, 0.17):
                    extra[0] += 1
                    value = -extra[0]
                    sim.call_after(dt, lambda key=key, value=value:
                                   store.put(key, value))
                yield Timeout(self.HANDOFF_INTERVAL)

        sim.call_at(self.START, lambda: sim.spawn(handoffs(), name="handoffs"))
        return dict(config=config, sim=sim, store=store, keys=keys,
                    cluster=cluster, nodes=nodes,
                    sharder=sharder, tracer=tracer, preload=preload)

    def measure(self, between=None) -> None:
        super().measure(between)
        self.commits = sum(
            int(f["store"].last_version) - f["preload"] for f in self.fleets)

    def check(self) -> list:
        errors = []
        for fleet in self.fleets:
            if fleet["config"] == "watch":
                stale = fleet["cluster"].total_stale(fleet["keys"])
                if stale:
                    errors.append(f"watch fleet ends with {stale} stale entries")
        return errors

    def counters(self) -> dict:
        out = {"cache.invalidations_acked": 0, "cache.invalidations_nacked": 0,
               "sharding.reassignments": 0, "obs.events": 0,
               "cache.perm_stale": 0, "core.ingested": 0}
        for fleet in self.fleets:
            for node in fleet["nodes"]:
                out["cache.invalidations_acked"] += getattr(
                    node, "invalidations_acked", 0)
                out["cache.invalidations_nacked"] += getattr(
                    node, "invalidations_nacked", 0)
            out["sharding.reassignments"] += fleet["sharder"].reassignments
            out["obs.events"] += len(fleet["tracer"].log)
            out["cache.perm_stale"] += fleet["cluster"].total_stale(fleet["keys"])
        return out


WORKLOADS = {
    cls.name: cls
    for cls in (PubsubReplication, WatchFanout, ReconnectStorm,
                InvalidationRace)
}
