"""Differential model of the edge :class:`SessionTable` and its pump.

The table is a hand-tuned structure: dense sids over ``array`` columns,
a LIFO freelist with generations, and an intrusive singly linked ready
list whose links outlive a released slot.  The PR 10 slot-reuse bug
lived here, hidden behind "100% attribution" because a lost wakeup is
not a drop.  This model drives several sessions sharing one table —
attach, close (release), offer, snapshot offers, grants and pump ticks —
and compares every observable against a naive reference:

- a dict of live sessions by sid, per-sid column dicts, a LIFO list of
  free sids and a generation list;
- a deque of ready sids in kick order plus a set of armed sids; a
  released sid stays in the deque disarmed, so a reconnect that reuses
  it and kicks before the pump is served in the old place, exactly
  like the table's stale links;
- one delivery per armed session per tick, each tick one pump that
  starts ``drain_interval`` after the first link since the last pump.

After every step the delivery log (time, session, item), every per-sid
column and generation, :meth:`SessionTable.totals`, ``pump_visits``,
``pump_runs``, ``active`` and ``capacity`` must agree, and
:meth:`SessionTable.audit_ready` must pass.

The workflow runs this file with ``SESSION_TABLE_PROFILE=session-table-ci``
(more examples and longer runs) next to the kernel and edge-routing
gates.
"""

import os
from collections import deque

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro._types import KeyRange
from repro.edge.session import (
    ClientSession,
    SessionConfig,
    SlowConsumerPolicy,
    SnapshotDelivery,
    Update,
)
from repro.edge.session_table import SessionTable
from repro.sim.kernel import Simulation

NAMES = 5
KEYS = ("a", "b", "c")
COLUMNS = (
    "offered", "delivered", "coalesced", "dropped", "returned",
    "snapshots", "peak_queue",
)

#: ClientSession property reading each column
PROPERTIES = dict(
    zip(COLUMNS, COLUMNS),
    returned="returned_to_cursor", snapshots="snapshots_delivered",
)


class _Client:
    """Records deliveries; grants come only from the ``grant`` rule."""

    def __init__(self, sim, log):
        self.sim = sim
        self.log = log

    def on_delivery(self, session, item):
        if item.__class__ is SnapshotDelivery:
            self.log.append((self.sim.now(), session.name, ("snap", item.version)))
        else:
            self.log.append((self.sim.now(), session.name, (item.key, item.version)))

    def on_session_closed(self, session, reason):
        pass


class _RefSession:
    def __init__(self, name, sid, credits, coalesce):
        self.name = name
        self.sid = sid
        self.active = True
        self.credits = credits
        #: entries: ["u", key, version] or ["s", version]
        self.queue = []
        self.cells = {} if coalesce else None


class _Reference:
    """Naive dict/deque model of the table, its sessions and its pump."""

    def __init__(self, tick, config):
        self.tick = tick
        self.config = config
        self.now = 0.0
        self.pump_at = None
        self.sessions = {}  # sid -> live _RefSession
        self.cols = []  # sid -> {column: value}
        self.generation = []
        self.free = []
        self.ready = deque()
        self.armed = set()
        self.log = []
        self.pump_runs = 0
        self.pump_visits = 0

    @property
    def capacity(self):
        return len(self.cols)

    def attach(self, name):
        if self.free:
            sid = self.free.pop()
        else:
            sid = len(self.cols)
            self.cols.append(None)
            self.generation.append(0)
        self.cols[sid] = dict.fromkeys(COLUMNS, 0)
        session = _RefSession(
            name, sid, self.config.initial_credits,
            self.config.policy is SlowConsumerPolicy.COALESCE,
        )
        self.sessions[sid] = session
        return session

    def close(self, session):
        if not session.active:
            return
        session.active = False
        cols = self.cols[session.sid]
        cols["returned"] += sum(1 for e in session.queue if e[0] == "u")
        session.final = dict(cols)
        session.queue = []
        del self.sessions[session.sid]
        self.generation[session.sid] += 1
        self.armed.discard(session.sid)
        self.free.append(session.sid)

    def _kick(self, session):
        if not (session.active and session.credits > 0 and session.queue):
            return
        sid = session.sid
        self.armed.add(sid)
        if sid not in self.ready:
            self.ready.append(sid)
            if self.pump_at is None:
                self.pump_at = self.now + self.tick

    def _peak(self, session):
        cols = self.cols[session.sid]
        cols["peak_queue"] = max(cols["peak_queue"], len(session.queue))

    def offer(self, session, key, version):
        if not session.active:
            return
        cols = self.cols[session.sid]
        cols["offered"] += 1
        if session.cells is not None and key in session.cells:
            session.cells[key][2] = version
            cols["coalesced"] += 1
            return
        if len(session.queue) >= self.config.max_queue:
            if self.config.policy is SlowConsumerPolicy.DISCONNECT:
                cols["returned"] += 1
                self.close(session)
                return
            for idx, entry in enumerate(session.queue):
                if entry[0] == "u":
                    del session.queue[idx]
                    if session.cells is not None and session.cells.get(entry[1]) is entry:
                        del session.cells[entry[1]]
                    cols["dropped"] += 1
                    break
        entry = ["u", key, version]
        session.queue.append(entry)
        if session.cells is not None:
            session.cells[key] = entry
        self._peak(session)
        self._kick(session)

    def offer_snapshot(self, session, version):
        if not session.active:
            return
        session.queue.append(["s", version])
        self._peak(session)
        self._kick(session)

    def grant(self, session, credits):
        if not session.active:
            return
        session.credits += credits
        self._kick(session)

    def _deliver(self, session):
        entry = session.queue.pop(0)
        session.credits -= 1
        cols = self.cols[session.sid]
        if entry[0] == "s":
            cols["snapshots"] += 1
            self.log.append((self.now, session.name, ("snap", entry[1])))
        else:
            if session.cells is not None and session.cells.get(entry[1]) is entry:
                del session.cells[entry[1]]
            cols["delivered"] += 1
            self.log.append((self.now, session.name, (entry[1], entry[2])))
        self._kick(session)

    def advance(self, dt):
        until = self.now + dt
        while self.pump_at is not None and self.pump_at <= until:
            self.now = self.pump_at
            self.pump_at = None
            self.pump_runs += 1
            walk, self.ready = self.ready, deque()
            for sid in walk:
                if sid in self.armed:
                    self.armed.discard(sid)
                    self.pump_visits += 1
                    self._deliver(self.sessions[sid])
        self.now = until


class SessionTableMachine(RuleBasedStateMachine):
    @initialize(
        tick=st.sampled_from([0.0, 0.25, 0.5]),
        policy=st.sampled_from(list(SlowConsumerPolicy)),
        max_queue=st.sampled_from([1, 2, 4]),
        initial_credits=st.sampled_from([1, 2]),
    )
    def build(self, tick, policy, max_queue, initial_credits):
        self.sim = Simulation(seed=3)
        self.table = SessionTable(self.sim, drain_interval=tick)
        self.config = SessionConfig(
            policy=policy, max_queue=max_queue,
            initial_credits=initial_credits, delivery_latency=tick,
        )
        self.ref = _Reference(tick, self.config)
        self.log = []
        self.client = _Client(self.sim, self.log)
        #: name slot -> (real session, reference session), latest first
        self.live = {}
        self.closed = []
        self.incarnations = 0
        self.version = 0

    def _pair(self, i):
        pair = self.live.get(i)
        if pair is not None and not pair[0].active:
            # closed from inside (DISCONNECT overflow)
            self.closed.append(pair)
            del self.live[i]
            pair = None
        return pair

    @rule(i=st.integers(0, NAMES - 1))
    def attach(self, i):
        if self._pair(i) is not None:
            return
        self.incarnations += 1
        name = f"s{i}.{self.incarnations}"
        session = ClientSession(
            self.sim, name, self.client, KeyRange.all(),
            config=self.config, table=self.table,
        )
        ref = self.ref.attach(name)
        assert session.sid == ref.sid
        self.live[i] = (session, ref)

    @rule(i=st.integers(0, NAMES - 1))
    def close(self, i):
        pair = self._pair(i)
        if pair is None:
            return
        pair[0].close()
        self.ref.close(pair[1])
        self.closed.append(pair)
        del self.live[i]

    @rule(i=st.integers(0, NAMES - 1), key=st.sampled_from(KEYS))
    def offer(self, i, key):
        pair = self._pair(i)
        if pair is None:
            return
        self.version += 1
        pair[0].offer(Update(key=key, version=self.version))
        self.ref.offer(pair[1], key, self.version)

    @rule(i=st.integers(0, NAMES - 1))
    def offer_snapshot(self, i):
        pair = self._pair(i)
        if pair is None:
            return
        self.version += 1
        pair[0].offer_snapshot(self.version, {})
        self.ref.offer_snapshot(pair[1], self.version)

    @rule(i=st.integers(0, NAMES - 1), credits=st.integers(1, 3))
    def grant(self, i, credits):
        pair = self._pair(i)
        if pair is None:
            return
        pair[0].grant(credits)
        self.ref.grant(pair[1], credits)

    @rule(data=st.data())
    def use_stale_handle(self, data):
        """Offers and grants to a closed session are no-ops, even when
        its sid now belongs to someone else."""
        if not self.closed:
            return
        session, ref = data.draw(st.sampled_from(self.closed))
        self.version += 1
        session.offer(Update(key="a", version=self.version))
        session.grant(1)
        self.ref.offer(ref, "a", self.version)
        self.ref.grant(ref, 1)

    @rule(dt=st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0]))
    def advance(self, dt):
        self.sim.run_for(dt)
        self.ref.advance(dt)

    @invariant()
    def agrees_with_reference(self):
        table, ref = self.table, self.ref
        assert self.sim.now() == ref.now
        assert self.log == ref.log
        assert table.capacity == ref.capacity
        assert table.active == len(ref.sessions)
        assert list(table.generation) == ref.generation
        for sid, cols in enumerate(ref.cols):
            for column in COLUMNS:
                assert getattr(table, column)[sid] == cols[column], (sid, column)
            live = ref.sessions.get(sid)
            occupant = table.session(sid)
            assert (occupant and occupant.name) == (live and live.name), sid
        totals = table.totals()
        for column in COLUMNS[:-1]:
            assert totals[column] == sum(c[column] for c in ref.cols), column
        assert table.pump_runs == ref.pump_runs
        assert table.pump_visits == ref.pump_visits
        # a closed session keeps reporting its close-time counters even
        # after a reconnect recycled its slot
        for session, ref_session in self.closed:
            for column, prop in PROPERTIES.items():
                assert getattr(session, prop) == ref_session.final[column]
            assert session.attributed == session.offered

    @invariant()
    def no_lost_wakeup(self):
        self.table.audit_ready()


TestSessionTableModel = SessionTableMachine.TestCase

settings.register_profile(
    "session-table-dev",
    settings(max_examples=60, stateful_step_count=50, deadline=None),
)
settings.register_profile(
    "session-table-ci",
    settings(max_examples=400, stateful_step_count=100, deadline=None),
)
TestSessionTableModel.settings = settings.get_profile(
    os.environ.get("SESSION_TABLE_PROFILE", "session-table-dev")
)
