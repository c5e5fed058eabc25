"""SessionTable: slot lifecycle, conservation at scale, shared drain.

The table is the E14 backbone (docs/scale.md): dense sids over array
columns, a LIFO freelist with generations, and the O(active) intrusive
ready list its pump drains — the only way a session delivers.  Conservation
(``offered == delivered + coalesced + dropped + returned + queued``)
must hold per session *and* across 100k sessions summed in C.
"""

from __future__ import annotations

import pytest

from repro._types import KeyRange
from repro.edge.session import ClientSession, SessionConfig, SlowConsumerPolicy, Update
from repro.edge.session_table import LostWakeup, SessionTable
from repro.obs.trace import TraceSampler
from repro.sim.kernel import Simulation


class _Client:
    """Minimal client: applies instantly, grants one credit per item."""

    def __init__(self):
        self.delivered = []
        self.closed = []

    def on_delivery(self, session, item):
        self.delivered.append(item)
        session.grant()

    def on_session_closed(self, session, reason):
        self.closed.append(reason)


def _update(i, key=None):
    return Update(key=key or f"k{i:06d}", version=i, value=i)


def _session(sim, table, name="s", policy=SlowConsumerPolicy.COALESCE, **kw):
    client = _Client()
    config = SessionConfig(policy=policy, **kw)
    session = ClientSession(
        sim, name, client, key_range=KeyRange.all(), config=config, table=table
    )
    return session, client


# ----------------------------------------------------------------------
# slot lifecycle


def test_slots_are_dense_and_reused_lifo():
    sim = Simulation()
    table = SessionTable(sim, drain_interval=0.001)
    s0, _ = _session(sim, table, "a")
    s1, _ = _session(sim, table, "b")
    s2, _ = _session(sim, table, "c")
    assert (s0.sid, s1.sid, s2.sid) == (0, 1, 2)
    assert table.active == 3
    s1.close()
    assert table.active == 2
    assert table.session(1) is None
    # LIFO: the freed slot is the next one handed out
    s3, _ = _session(sim, table, "d")
    assert s3.sid == 1
    assert table.capacity == 3  # peak concurrency, not total connects


def test_generation_bumps_on_release():
    sim = Simulation()
    table = SessionTable(sim, drain_interval=0.001)
    s0, _ = _session(sim, table)
    sid = s0.sid
    assert table.generation[sid] == 0
    s0.close()
    assert table.generation[sid] == 1
    s1, _ = _session(sim, table)
    assert s1.sid == sid and table.generation[sid] == 1
    s1.close()
    assert table.generation[sid] == 2


def test_reused_slot_columns_are_zeroed():
    sim = Simulation()
    table = SessionTable(sim, drain_interval=0.001)
    s0, _ = _session(sim, table)
    s0.offer(_update(1))
    sim.run()
    assert s0.delivered == 1
    s0.close()
    s1, _ = _session(sim, table)
    assert s1.sid == s0.sid
    assert s1.offered == 0 and s1.delivered == 0 and s1.peak_queue == 0


def test_closed_session_counters_survive_slot_reuse():
    """EdgeClient folds counters inside on_session_closed; the numbers
    must stay readable after the slot is recycled by a reconnect."""
    sim = Simulation()
    table = SessionTable(sim, drain_interval=0.001)
    s0, _ = _session(sim, table)
    for i in range(1, 6):
        s0.offer(_update(i))
    sim.run()
    s0.close()
    s1, _ = _session(sim, table)
    s1.offer(_update(100))
    assert s1.sid == s0.sid
    # old session still reports its final numbers, not the new slot's
    assert s0.offered == 5 and s0.delivered == 5
    assert s0.attributed == s0.offered


def test_table_rejects_bad_drain_config():
    with pytest.raises(TypeError):
        SessionTable(drain_interval=0.01)  # the pump needs the sim
    with pytest.raises(ValueError):
        SessionTable(sim=Simulation(), drain_interval=-1.0)
    with pytest.raises(ValueError):
        TraceSampler(0)


# ----------------------------------------------------------------------
# conservation at scale


def test_conservation_across_100k_sessions():
    """100k sessions, mixed outcomes; the C-summed table columns obey
    conservation and match the per-session view."""
    sim = Simulation()
    table = SessionTable(sim, drain_interval=0.001)
    n = 100_000
    sessions = []
    for i in range(n):
        session, _ = _session(
            sim, table, f"s{i}",
            policy=SlowConsumerPolicy.COALESCE, max_queue=4, initial_credits=1,
        )
        sessions.append(session)
    # each session: 3 offers on 2 keys -> 1 coalesce each once drained
    for i, session in enumerate(sessions):
        session.offer(_update(1, key="a"))
        session.offer(_update(2, key="a"))
        session.offer(_update(3, key="b"))
    sim.run()
    totals = table.totals()
    assert totals["offered"] == 3 * n
    assert totals["coalesced"] == n
    assert totals["delivered"] == 2 * n
    assert (
        totals["offered"]
        == totals["delivered"] + totals["coalesced"] + totals["dropped"]
        + totals["returned"]
    )
    assert table.capacity == n
    # spot-check the per-session properties read the same columns
    assert sessions[12345].offered == 3
    assert sessions[12345].attributed == 3


def test_totals_include_closed_unrecycled_slots():
    sim = Simulation()
    table = SessionTable(sim, drain_interval=0.001)
    s0, _ = _session(sim, table)
    s0.offer(_update(1))
    sim.run()
    s0.close()
    # slot not yet recycled: its counters still sit in the columns
    assert table.totals()["delivered"] == 1


# ----------------------------------------------------------------------
# shared drain: one pump event, O(active) visits, kick order


def test_shared_drain_delivers_everything_in_kick_order():
    sim = Simulation()
    table = SessionTable(sim=sim, drain_interval=0.001)
    s_a, c_a = _session(sim, table, "a", initial_credits=4)
    s_b, c_b = _session(sim, table, "b", initial_credits=4)
    s_b.offer(_update(1, key="b1"))  # b kicked first
    s_a.offer(_update(2, key="a1"))
    s_a.offer(_update(3, key="a2"))
    sim.run()
    assert [u.key for u in c_b.delivered] == ["b1"]
    assert [u.key for u in c_a.delivered] == ["a1", "a2"]
    assert s_a.attributed == s_a.offered and s_b.attributed == s_b.offered
    assert table.pump_runs >= 1


def test_shared_drain_visits_only_ready_sessions():
    """Idle sessions cost the pump nothing: visits counts ready
    sessions, not the population."""
    sim = Simulation()
    table = SessionTable(sim=sim, drain_interval=0.001)
    sessions = [_session(sim, table, f"s{i}")[0] for i in range(500)]
    sessions[7].offer(_update(1))
    sessions[333].offer(_update(2))
    sim.run()
    assert table.pump_visits == 2
    assert table.active == 500


def test_shared_drain_one_pump_event_per_tick():
    """N ready sessions share one pump event per tick instead of N
    delivery events (the O(active) bar)."""
    sim = Simulation()
    table = SessionTable(sim=sim, drain_interval=0.001)
    sessions = [
        _session(sim, table, f"s{i}", initial_credits=8)[0] for i in range(50)
    ]
    for i, session in enumerate(sessions):
        session.offer(_update(i + 1))
    sim.run()
    # every session delivered its item; the pump ran once (one tick)
    assert table.pump_runs == 1
    assert table.totals()["delivered"] == 50


def test_shared_drain_session_close_mid_ready_is_safe():
    sim = Simulation()
    table = SessionTable(sim=sim, drain_interval=0.001)
    s_a, c_a = _session(sim, table, "a")
    s_b, c_b = _session(sim, table, "b")
    s_a.offer(_update(1))
    s_b.offer(_update(2))
    s_a.close()  # closed while sitting on the ready list
    sim.run()
    assert c_a.delivered == []
    assert len(c_b.delivered) == 1
    assert s_a.returned_to_cursor == 1  # the queued update went back
    assert s_a.attributed == s_a.offered


def test_shared_drain_is_deterministic():
    def run_once():
        sim = Simulation()
        table = SessionTable(sim=sim, drain_interval=0.003)
        log = []

        class _C(_Client):
            def on_delivery(self, session, item):
                log.append((sim.now(), session.name, item.key))
                super().on_delivery(session, item)

        sessions = []
        for i in range(40):
            client = _C()
            session = ClientSession(
                sim, f"s{i}", client, key_range=KeyRange.all(),
                config=SessionConfig(initial_credits=2), table=table,
            )
            sessions.append(session)
        for round_ in range(5):
            for i, session in enumerate(sessions):
                if (i + round_) % 3 == 0:
                    session.offer(_update(round_ * 100 + i))
        sim.run()
        return log

    assert run_once() == run_once()


# ----------------------------------------------------------------------
# slot reuse under snapshot-heavy reconnect storms (the E17 regime: a
# storm wave disconnects, reconnects below the retention floor, and is
# re-served by full snapshots — every reconnect recycles a slot while
# snapshots flow through the queue)


def _snapshot(version, n_items=3):
    return version, {f"k{i}": version * 10 + i for i in range(n_items)}


def test_generation_tracks_every_release_through_a_storm():
    """Three storm waves over the same slots: each sid's generation
    equals exactly how many times that slot was freed, and a handle
    captured before a wave is detectably stale after it."""
    sim = Simulation()
    table = SessionTable(sim, drain_interval=0.001)
    sessions = [_session(sim, table, f"s{i}")[0] for i in range(8)]
    releases = [0] * 8
    stale = []  # (sid, generation-at-attach) pairs from closed waves
    for wave in range(3):
        victims = [s for i, s in enumerate(sessions) if (i + wave) % 2 == 0]
        for victim in victims:
            version, items = _snapshot(wave + 1)
            victim.offer_snapshot(version, items)
        sim.run()
        for victim in victims:
            stale.append((victim.sid, table.generation[victim.sid]))
            victim.close()
            releases[victim.sid] += 1
        # the storm wave reconnects immediately: LIFO reuse of the
        # just-freed slots, all mid-storm
        for j, victim in enumerate(victims):
            replacement, _ = _session(sim, table, f"w{wave}r{j}")
            assert table.generation[replacement.sid] == releases[replacement.sid]
            sessions[sessions.index(victim)] = replacement
    assert list(table.generation) == releases
    assert table.capacity == 8  # storms recycled, never grew, the table
    # every handle from a closed wave is detectably stale
    for sid, generation_at_attach in stale:
        assert table.generation[sid] > generation_at_attach


def test_snapshot_column_zeroed_when_storm_reuses_slot():
    sim = Simulation()
    table = SessionTable(sim, drain_interval=0.001)
    s0, c0 = _session(sim, table)
    s0.offer_snapshot(*_snapshot(5))
    s0.offer_snapshot(*_snapshot(6))
    sim.run()
    assert s0.snapshots_delivered == 2
    s0.close()
    s1, _ = _session(sim, table)
    assert s1.sid == s0.sid
    # the recycled slot starts clean; the closed session still reports
    # its own snapshot count from the close-time _final capture
    assert s1.snapshots_delivered == 0
    assert s0.snapshots_delivered == 2
    assert table.snapshots[s1.sid] == 0


def test_conservation_survives_snapshot_heavy_churn():
    """Fold counters EdgeClient-style at close time across a multi-wave
    snapshot storm; lifetime attribution stays exact even though
    ``totals()`` columns are zeroed by slot reuse."""
    sim = Simulation()
    table = SessionTable(sim, drain_interval=0.001)
    folded = {"offered": 0, "attributed": 0, "snapshots": 0}

    def fold(session):
        folded["offered"] += session.offered
        folded["attributed"] += session.attributed
        folded["snapshots"] += session.snapshots_delivered

    n = 64
    sessions = [
        _session(sim, table, f"s{i}", max_queue=4, initial_credits=2)[0]
        for i in range(n)
    ]
    version = 0
    for wave in range(4):
        for i, session in enumerate(sessions):
            version += 1
            session.offer(_update(version, key=f"k{i % 3}"))
            if i % 2 == wave % 2:
                session.offer_snapshot(*_snapshot(version))
        sim.run()  # the storm's traffic (snapshots included) lands...
        for i in range(wave % 2, n, 2):
            version += 1
            sessions[i].offer(_update(version, key=f"k{i % 3}"))
            # ...then half the wave disconnects with work still queued
            fold(sessions[i])
            sessions[i].close()
            # ...and reconnects into the just-freed slot mid-storm
            sessions[i] = _session(
                sim, table, f"w{wave}s{i}", max_queue=4, initial_credits=2
            )[0]
        sim.run()
    for session in sessions:
        fold(session)
        session.close()
    assert folded["offered"] > 0 and folded["snapshots"] > 0
    assert folded["attributed"] == folded["offered"]
    assert table.capacity == n  # churn recycled slots, never grew


def test_shared_drain_reuse_mid_ready_delivers_to_new_session_once():
    """A storm closes a session sitting on the ready list and a
    reconnect claims its sid before the pump fires: the pump must
    deliver the *new* session's item exactly once (the stale link is
    skipped, the fresh link served)."""
    sim = Simulation()
    table = SessionTable(sim=sim, drain_interval=0.001)
    s0, c0 = _session(sim, table, "old")
    s0.offer(_update(1, key="old-key"))  # s0 joins the ready list
    s0.close()  # slot freed while linked
    s1, c1 = _session(sim, table, "new")
    assert s1.sid == s0.sid
    s1.offer_snapshot(*_snapshot(7))  # re-serve: new session re-enqueues
    sim.run()
    assert c0.delivered == []
    assert len(c1.delivered) == 1
    assert s1.snapshots_delivered == 1
    assert s0.returned_to_cursor == 1  # old queued update went back
    assert s0.attributed == s0.offered


# ----------------------------------------------------------------------
# trace sampling


def test_sampler_keeps_every_nth():
    sampler = TraceSampler(4)
    kept = [i for i in range(12) if sampler.keep(i)]
    assert kept == [0, 4, 8]
    assert all(TraceSampler().keep(i) for i in range(5))  # default: all


# ----------------------------------------------------------------------
# lost-wakeup audit: a session that could deliver is armed on the ready
# list with a pump scheduled


class _HoldingClient(_Client):
    """Keeps every credit: grants come only from the test."""

    def on_delivery(self, session, item):
        self.delivered.append(item)


def test_kick_arms_the_session_for_the_pump():
    sim = Simulation()
    table = SessionTable(sim, drain_interval=0.001)
    client = _HoldingClient()
    session = ClientSession(
        sim, "s", client, key_range=KeyRange.all(),
        config=SessionConfig(initial_credits=1), table=table,
    )
    session.offer(_update(1))
    table.audit_ready()  # the offer's kick linked it
    session.offer(_update(2))
    sim.run()
    assert len(client.delivered) == 1
    table.audit_ready()  # queued but out of credits: nothing owed
    session.grant()
    table.audit_ready()  # the grant's kick linked it again
    sim.run()
    assert len(client.delivered) == 2
    table.audit_ready()


def test_audit_ready_names_sessions_left_off_the_ready_list():
    sim = Simulation()
    table = SessionTable(sim, drain_interval=0.001)
    stalled, _ = _session(sim, table, "stalled", initial_credits=1)
    fine, _ = _session(sim, table, "fine", initial_credits=1)
    stalled.credits = 0
    stalled.offer(_update(1))  # queued, no credit: correctly idle
    fine.offer(_update(2))
    table.audit_ready()
    stalled.credits = 1  # a credit that arrives without a kick
    with pytest.raises(LostWakeup, match=r"stalled \(sid 0\)") as info:
        table.audit_ready()
    assert "fine" not in str(info.value)


def test_audit_ready_detects_a_cycling_ready_list():
    sim = Simulation()
    table = SessionTable(sim, drain_interval=0.001)
    s0, _ = _session(sim, table, "a")
    s0.offer(_update(1))
    table._ready_next[s0.sid] = s0.sid  # a re-link onto itself
    with pytest.raises(LostWakeup, match="cycles"):
        table.audit_ready()
