"""PubsubEdgeFrontend: log-replay catch-up, dedupe, every-message."""

import pytest

from repro._types import KeyRange
from repro.edge.client import EdgeClient, KeyRangeViolation, audit_key_ranges
from repro.edge.frontend import EdgeFrontendConfig, PubsubEdgeFrontend
from repro.edge.session import SessionConfig, SlowConsumerPolicy
from repro.obs.trace import Tracer, hops
from repro.pubsub.broker import Broker
from repro.pubsub.log import RetentionPolicy
from repro.sim.kernel import Simulation


class StaticPlacement:
    def __init__(self, frontend):
        self.frontend = frontend

    def frontend_for(self, client_name):
        return self.frontend


def build(sim, tracer=None, retention=RetentionPolicy(), partitions=2,
          **config_kwargs):
    broker = Broker(sim, tracer=tracer)
    broker.create_topic("t", num_partitions=partitions, retention=retention)
    config = None
    if config_kwargs:
        config_kwargs.setdefault(
            "session", SessionConfig(policy=SlowConsumerPolicy.DROP)
        )
        config = EdgeFrontendConfig(**config_kwargs)
    frontend = PubsubEdgeFrontend(
        sim, "pf0", broker, "t", config=config, tracer=tracer
    )
    return broker, frontend


def publish(broker, n, keys=10, start=0):
    for i in range(start, start + n):
        broker.publish(
            "t", f"k{i % keys:03d}", {"version": i + 1, "value": {"v": i}}
        )


def latest(n, keys=10):
    state = {}
    for i in range(n):
        state[f"k{i % keys:03d}"] = {"v": i}
    return state


def test_live_delivery_every_message(sim):
    broker, frontend = build(sim)
    client = EdgeClient(sim, "c0", StaticPlacement(frontend))
    client.connect()
    sim.run(until=0.5)
    publish(broker, 100)
    sim.run(until=5.0)
    assert client.updates_applied == 100  # pubsub delivers every message
    assert client.state == latest(100)
    assert client.session.attributed == client.session.offered


def test_coalesce_policy_rejected(sim):
    broker = Broker(sim)
    broker.create_topic("t")
    with pytest.raises(ValueError, match="watch-only"):
        PubsubEdgeFrontend(
            sim, "pf0", broker, "t",
            config=EdgeFrontendConfig(
                session=SessionConfig(policy=SlowConsumerPolicy.COALESCE)
            ),
        )


def test_reconnect_replays_log_from_offset_cursor(sim):
    broker, frontend = build(sim)
    client = EdgeClient(sim, "c0", StaticPlacement(frontend), reconnect_delay=0.2)
    client.connect()
    sim.run(until=0.5)
    publish(broker, 60)
    sim.run(until=3.0)
    client.disconnect()
    publish(broker, 40, start=60)  # missed while away
    sim.run(until=8.0)
    assert client.connects == 2
    assert client.staleness_at_connect[1] == 40
    # the missed messages were re-read from the source log
    assert frontend.replayed == 40
    assert frontend.catchups_served == 1
    assert client.updates_applied == 100
    assert client.state == latest(100)


def test_replay_and_live_paths_never_duplicate(sim):
    broker, frontend = build(sim, replay_batch=8, replay_latency=0.01)
    client = EdgeClient(sim, "c0", StaticPlacement(frontend), reconnect_delay=0.2)
    client.connect()
    sim.run(until=0.5)
    publish(broker, 50)
    sim.run(until=3.0)
    client.disconnect()
    publish(broker, 50, start=50)
    sim.run(until=3.5)  # reconnect lands here; replay is in progress...
    publish(broker, 50, start=100)  # ...while live traffic keeps flowing
    sim.run(until=10.0)
    assert client.updates_applied == 150  # exactly once each
    assert client.state == latest(150)


def test_replay_skips_gced_offsets_and_counts_the_gap(sim):
    broker, frontend = build(
        sim, retention=RetentionPolicy(max_messages=10), partitions=1
    )
    client = EdgeClient(sim, "c0", StaticPlacement(frontend), reconnect_delay=0.2)
    client.connect()
    sim.run(until=0.5)
    publish(broker, 20)
    sim.run(until=3.0)
    client.disconnect()
    publish(broker, 80, start=20)
    # force the retention sweep to delete messages the client never saw
    broker.topic("t").run_gc()
    sim.run(until=10.0)
    assert client.connects == 2
    # cursor was at 20; only the last 10 survive: 70 offsets silently gone
    assert frontend.replay_gaps == 70
    assert frontend.replayed == 10
    assert client.updates_applied == 30


def test_slow_client_drop_policy_records_edge_drops(sim):
    tracer = Tracer(sim)
    broker, frontend = build(
        sim, tracer=tracer,
        session=SessionConfig(
            policy=SlowConsumerPolicy.DROP, max_queue=16,
            initial_credits=4, delivery_latency=0.0,
        ),
    )
    client = EdgeClient(
        sim, "c0", StaticPlacement(frontend), service_time=0.2
    )
    client.connect()
    sim.run(until=0.5)
    publish(broker, 200)
    sim.run(until=60.0)
    session = client.session
    assert session.dropped > 0
    assert session.attributed == session.offered
    drops = [e for e in tracer.events() if e.hop == hops.EDGE_DROP]
    assert len(drops) == session.dropped
    # the drop trace names the session, enabling "dropped at edge"
    assert all(e.attrs["session"] == "pf0/c0" for e in drops)


def test_range_scoped_sessions_only_get_their_keys(sim):
    broker, frontend = build(sim)
    placement = StaticPlacement(frontend)
    left = EdgeClient(sim, "cL", placement, key_range=KeyRange("k000", "k005"))
    right = EdgeClient(sim, "cR", placement, key_range=KeyRange("k005", "k999"))
    left.connect()
    right.connect()
    sim.run(until=0.5)
    publish(broker, 100)
    sim.run(until=5.0)
    assert set(left.state) == {f"k{i:03d}" for i in range(5)}
    assert set(right.state) == {f"k{i:03d}" for i in range(5, 10)}
    assert left.updates_applied + right.updates_applied == 100


def test_stale_reconnect_replays_only_in_range_messages(sim):
    # two clients on disjoint ranges whose keys share both partitions
    broker, frontend = build(sim, partitions=2)
    placement = StaticPlacement(frontend)
    left_range = KeyRange("k000", "k005")
    left = EdgeClient(sim, "cL", placement, key_range=left_range,
                      reconnect_delay=0.2)
    right = EdgeClient(sim, "cR", placement,
                       key_range=KeyRange("k005", "k999"))
    left.connect()
    right.connect()
    sim.run(until=0.5)
    publish(broker, 40)
    sim.run(until=3.0)
    left.disconnect()
    stale = dict(left.offsets)
    publish(broker, 60, start=40)  # missed while away: its cursor is stale
    sim.run(until=10.0)
    assert left.connects == 2
    logs = broker.topic("t").partitions
    assert {log.partition for log in logs} == {0, 1}
    # replay read every message from the stale cursor to each head,
    # both clients' keys alike ...
    read = sum(log.next_offset - stale.get(log.partition, 0) for log in logs)
    assert frontend.replayed == read == left.staleness_at_connect[1]
    assert frontend.replayed >= 60
    # ... but offered the client only its own half of the traffic
    assert all(left_range.contains(key) for key in left.state)
    assert left.state == {
        key: value for key, value in latest(100).items()
        if left_range.contains(key)
    }
    totals = left.finalize()
    assert totals["offered"] == 50  # 20 live + 30 replayed in range
    accounted = sum(v for k, v in totals.items() if k != "offered")
    assert accounted == totals["offered"]
    assert right.finalize()["offered"] == 50
    assert right.state == {
        key: value for key, value in latest(100).items()
        if not left_range.contains(key)
    }


def test_orphaned_session_leaves_live_routing(sim):
    broker, frontend = build(sim)
    placement = StaticPlacement(frontend)
    client = EdgeClient(sim, "c0", placement)
    client.connect()
    sim.run(until=0.5)
    session = client.session
    assert frontend.detach(session)
    assert not frontend.detach(session)  # already gone
    publish(broker, 10)
    sim.run(until=3.0)
    assert session.active and session.offered == 0
    assert frontend.active_sessions == 0


def test_audit_key_ranges_names_clients_holding_foreign_keys(sim):
    placement = StaticPlacement(None)
    inside = EdgeClient(sim, "cL", placement, key_range=KeyRange("k000", "k005"))
    inside.state = {"k001": 1, None: 2}  # keyless messages reach everyone
    audit_key_ranges([inside])
    outside = EdgeClient(sim, "cX", placement, key_range=KeyRange("k000", "k005"))
    outside.state = {"k001": 1, "k007": 2}
    with pytest.raises(KeyRangeViolation, match="cX: 1 keys outside"):
        audit_key_ranges([inside, outside])


def test_back_to_back_stale_reconnects_reread_skipped_foreign_keys(sim):
    # the durable offset cursor only moves past delivered messages, so
    # the foreign-key messages one replay read and skipped after the
    # client's last in-range offset are read again by the next replay
    broker, frontend = build(sim, partitions=2)
    placement = StaticPlacement(frontend)
    left_range = KeyRange("k000", "k005")
    left = EdgeClient(sim, "cL", placement, key_range=left_range,
                      reconnect_delay=0.2)
    EdgeClient(sim, "cR", placement,
               key_range=KeyRange("k005", "k999")).connect()
    left.connect()
    sim.run(until=0.5)
    publish(broker, 40)
    sim.run(until=3.0)
    logs = broker.topic("t").partitions
    reads, rereads = [], []
    for start, until in ((40, 10.0), (100, 17.0)):
        left.disconnect()
        cursor = dict(left.offsets)
        # what the cursor already left behind: everything after the
        # client's last delivered offset is another client's key
        tail = [
            message for log in logs
            for message in log.read_from(cursor.get(log.partition, 0))
        ]
        assert not any(left_range.contains(m.key) for m in tail)
        rereads.append(len(tail))
        publish(broker, 60, start=start)
        before = frontend.replayed
        sim.run(until=until)
        reads.append(frontend.replayed - before)
        assert reads[-1] == sum(
            log.next_offset - cursor.get(log.partition, 0) for log in logs
        )
    assert left.connects == 3
    # each replay re-reads the tail that the live period (first) or the
    # previous replay (second) skipped, on top of the 60 missed messages
    assert reads == [60 + rereads[0], 60 + rereads[1]]
    assert reads == [65, 65]
    assert left.state == {
        key: value for key, value in latest(160).items()
        if left_range.contains(key)
    }
