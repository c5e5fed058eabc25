"""Differential model of the pubsub edge frontend's key-range routing.

:class:`~repro.edge.frontend.PubsubEdgeFrontend` routes live messages
through a :class:`~repro.core.watch_system.RangeIndex` (one matching
range group: that group; several: a range-tested scan of every session;
none: nobody; keyless: everyone) and offers log replay only the
messages inside the reconnecting session's range.  None of that may be
observable.  The contract, as checkable invariants:

1. **live order** — for every ingested message, the ordered list of
   sessions offered equals a naive scan of ``frontend.sessions`` in
   insertion order keeping the sessions that are ``live``, whose range
   contains the key (or the key is ``None``) and whose offset cursor
   has not passed the message;
2. **replay scope** — every replay offer's key is ``None`` or inside
   the session's key range;
3. **registry** — ``frontend.sessions`` and the range index hold the
   same sessions in the same order;
4. **state scope** — no client's state holds a key outside its range
   (:func:`~repro.edge.client.audit_key_ranges`).

The machine drives two frontends behind one placement over a shared
two-partition topic: connects, closes, placement rebalances (a frontend
leaves and rejoins the rotation, evicting its clients), session orphans
(``StateCorruptor``'s ``session-orphan`` class), and publishes on keys
chosen to land in one range group, in overlapping groups
(``KeyRange.all()`` plus group ranges), in none, or with no key at all.

The workflow runs this file with ``EDGE_ROUTING_PROFILE=edge-routing-ci``
(more examples and longer runs) next to the kernel and causal gates.
"""

import os

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro._types import KeyRange
from repro.edge.client import EdgeClient, audit_key_ranges
from repro.edge.frontend import EdgeFrontendConfig, PubsubEdgeFrontend
from repro.edge.placement import SessionPlacement
from repro.edge.session import SessionConfig, SlowConsumerPolicy
from repro.pubsub.broker import Broker
from repro.pubsub.log import RetentionPolicy
from repro.reconcile.corruptor import StateCorruptor
from repro.sim.kernel import Simulation

#: overlapping client ranges: two disjoint groups, one straddling both,
#: and the whole keyspace
RANGES = (
    KeyRange("a", "c"),
    KeyRange("c", "e"),
    KeyRange("b", "d"),
    KeyRange.all(),
)
#: keys in one group ("a1"), in overlapping groups ("b5", "c5"), in the
#: last group only ("d5"), outside every group but all() ("x"), none
KEYS = ("a1", "b5", "c5", "d5", "x", None)
NUM_CLIENTS = 6


class RecordingFrontend(PubsubEdgeFrontend):
    """Frontend that checks each live ingest against a naive scan and
    each replay offer against the session's range."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._live_offers = None
        self.ingests = 0
        self.replay_offers = 0

    def _ingest(self, message):
        expected = []
        if self.up:
            key = message.key
            for session in list(self.sessions.values()):
                if not session.live:
                    continue
                if key is not None and not session.key_range.contains(key):
                    continue
                cursor = session.expected_offsets.get(message.partition, 0)
                if message.offset < cursor:
                    continue
                expected.append(session)
        self._live_offers = offers = []
        try:
            super()._ingest(message)
        finally:
            self._live_offers = None
        self.ingests += 1
        assert [s.name for s in offers] == [s.name for s in expected]
        assert all(a is b for a, b in zip(offers, expected))

    def _offer_session(self, session, message, update):
        assert update.key == message.key and update.offset == message.offset
        if self._live_offers is not None:
            self._live_offers.append(session)
        else:
            self.replay_offers += 1
            key = message.key
            assert key is None or session.key_range.contains(key), (
                f"replay offered {key!r} to {session.name} "
                f"({session.key_range})"
            )
        super()._offer_session(session, message, update)


class EdgeRoutingMachine(RuleBasedStateMachine):
    @initialize(
        policy=st.sampled_from(
            [SlowConsumerPolicy.DROP, SlowConsumerPolicy.DISCONNECT]
        ),
        max_queue=st.sampled_from([2, 64]),
        replay_batch=st.sampled_from([1, 3, 64]),
        retention=st.sampled_from([None, 6]),
    )
    def build(self, policy, max_queue, replay_batch, retention):
        self.sim = sim = Simulation(seed=5)
        self.broker = broker = Broker(sim)
        broker.create_topic(
            "t", num_partitions=2,
            retention=RetentionPolicy(max_messages=retention),
        )
        config = EdgeFrontendConfig(
            session=SessionConfig(
                policy=policy, max_queue=max_queue, initial_credits=2,
                delivery_latency=0.001,
            ),
            replay_batch=replay_batch,
            replay_latency=0.002,
        )
        self.frontends = [
            RecordingFrontend(sim, f"pf{i}", broker, "t", config=config)
            for i in range(2)
        ]
        self.placement = SessionPlacement(sim, self.frontends)
        self.removed = None
        self.clients = [
            EdgeClient(
                sim, f"c{i}", self.placement,
                key_range=RANGES[i % len(RANGES)],
                service_time=0.01 if i % 3 == 0 else 0.0,
                reconnect_delay=0.01,
            )
            for i in range(NUM_CLIENTS)
        ]
        self.corruptor = StateCorruptor(
            sim, clients=self.clients, frontends=self.frontends,
        )
        self.published = 0

    @rule(i=st.integers(0, NUM_CLIENTS - 1))
    def connect(self, i):
        self.clients[i].connect()

    @rule(i=st.integers(0, NUM_CLIENTS - 1))
    def close(self, i):
        session = self.clients[i].session
        if session is not None:
            session.close("closed")

    @rule()
    def rebalance(self):
        if self.removed is None:
            self.removed = self.frontends[self.sim.rng.randrange(2)]
            self.placement.remove_frontend(self.removed.name)
        else:
            self.placement.add_frontend(self.removed)
            self.removed = None

    @rule()
    def orphan(self):
        self.corruptor.inject("session-orphan")

    @rule(keys=st.lists(st.sampled_from(KEYS), min_size=1, max_size=8))
    def publish(self, keys):
        for key in keys:
            self.published += 1
            self.broker.publish(
                "t", key, {"version": self.published, "value": self.published}
            )

    @rule(dt=st.sampled_from([0.001, 0.005, 0.02, 0.1]))
    def run(self, dt):
        self.sim.run_for(dt)

    @rule()
    def gc(self):
        self.broker.topic("t").run_gc()

    @invariant()
    def registry_matches_index(self):
        for frontend in self.frontends:
            assert list(frontend.sessions.values()) == list(
                frontend._index.members
            )

    @invariant()
    def state_in_range(self):
        audit_key_ranges(self.clients)

    def teardown(self):
        if not hasattr(self, "sim"):
            return
        self.sim.run_for(1.0)
        audit_key_ranges(self.clients)
        for client in self.clients:
            client.stop()
            totals = client.finalize()
            accounted = sum(v for k, v in totals.items() if k != "offered")
            assert accounted == totals["offered"], client.name


TestEdgeRoutingModel = EdgeRoutingMachine.TestCase

settings.register_profile(
    "edge-routing-dev",
    settings(max_examples=30, stateful_step_count=40, deadline=None),
)
settings.register_profile(
    "edge-routing-ci",
    settings(max_examples=200, stateful_step_count=80, deadline=None),
)
TestEdgeRoutingModel.settings = settings.get_profile(
    os.environ.get("EDGE_ROUTING_PROFILE", "edge-routing-dev")
)
