"""Edge clients: durable cursors, local state, and reconnect behaviour.

An :class:`EdgeClient` models one end-user connection's lifetime across
many sessions.  It owns the two durable cursors the tentpole calls for
— the last-applied MVCC version (watch) and per-partition offsets
(pubsub) — plus a local materialized map, so staleness and convergence
can be measured against the source store.  Consumption speed is modeled
by ``service_time``: the client returns one flow-control credit per
item, ``service_time`` after applying it, so a slow client throttles
its session to ``initial_credits / service_time`` items per second.

Reconnection is the client's job: on session close (slow-consumer
disconnect, frontend failure, placement rebalance, or a voluntary drop
during a storm) it asks the placement map for its current frontend
after ``reconnect_delay`` and connects there — retrying while the
assigned frontend is down.  Counter totals survive across sessions so
experiments can account every offered update per client.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro._types import Key, KeyRange, Version, VERSION_ZERO
from repro.edge.session import ClientSession, SnapshotDelivery, Update
from repro.sim.kernel import Simulation

#: counter names folded from sessions into the client's lifetime totals
_TOTAL_KEYS = (
    "offered", "delivered", "coalesced", "dropped", "returned", "queued",
)


class KeyRangeViolation(AssertionError):
    """A client's local state holds a key outside its key range."""


def audit_key_ranges(clients) -> None:
    """End-of-run audit: every key in every client's ``state`` lies in
    that client's ``key_range`` (keyless pubsub messages go to every
    client, so a ``None`` key passes); raises :class:`KeyRangeViolation`
    naming each offending client.  A frontend that offers a session
    keys outside its range passes conservation (the offers are counted
    and delivered) — only this check sees it."""
    problems = []
    for client in clients:
        key_range = client.key_range
        outside = [
            key for key in client.state
            if key is not None and not key_range.contains(key)
        ]
        if outside:
            problems.append(
                f"{client.name}: {len(outside)} keys outside "
                f"[{key_range.low!r}, {key_range.high!r}), "
                f"first {min(outside)!r}"
            )
    if problems:
        raise KeyRangeViolation("; ".join(problems))


class EdgeClient:
    """One client identity: cursors, state, and reconnect policy.

    ``__slots__``-only: at E14 scale there is one of these per session
    chain, and the instance dict would roughly double the per-client
    footprint.
    """

    __slots__ = (
        "sim", "name", "placement", "key_range", "service_time",
        "reconnect_delay", "auto_reconnect", "stopped", "cursor",
        "offsets", "state", "session", "connects", "rejected_connects",
        "disconnects", "updates_applied", "snapshots_applied",
        "resyncs_forced", "close_reasons", "staleness_at_connect",
        "peak_queue", "totals",
    )

    def __init__(
        self,
        sim: Simulation,
        name: str,
        placement,  # SessionPlacement (anything with frontend_for)
        key_range: Optional[KeyRange] = None,
        service_time: float = 0.0,
        reconnect_delay: float = 0.5,
    ) -> None:
        self.sim = sim
        self.name = name
        self.placement = placement
        self.key_range = key_range or KeyRange.all()
        self.service_time = service_time
        self.reconnect_delay = reconnect_delay
        self.auto_reconnect = True
        self.stopped = False
        #: durable cursors: highest applied commit version (watch) and
        #: next-expected offset per partition (pubsub)
        self.cursor: Version = VERSION_ZERO
        self.offsets: Dict[int, int] = {}
        #: locally materialized state of ``key_range``
        self.state: Dict[Key, Any] = {}
        self.session: Optional[ClientSession] = None
        self.connects = 0
        self.rejected_connects = 0
        self.disconnects = 0
        self.updates_applied = 0
        self.snapshots_applied = 0
        self.resyncs_forced = 0
        #: why each session ended, in order (storm accounting reads this)
        self.close_reasons: List[str] = []
        #: how far behind (frontend head - cursor) each connect found us
        self.staleness_at_connect: List[int] = []
        #: deepest session queue ever observed for this client
        self.peak_queue = 0
        self.totals: Dict[str, int] = {key: 0 for key in _TOTAL_KEYS}

    # ------------------------------------------------------------------
    # connection lifecycle

    def connect(self) -> None:
        """Connect to the placement-assigned frontend (retry if down)."""
        if self.stopped or self.session is not None:
            return
        frontend = self.placement.frontend_for(self.name)
        if not frontend.up:
            # the control plane has not rerouted us yet; try again later
            self.rejected_connects += 1
            self.sim.call_after(self.reconnect_delay, self.connect)
            return
        self.connects += 1
        self.session = frontend.connect(self)

    def disconnect(self) -> None:
        """Voluntarily drop the session (storm injection uses this)."""
        if self.session is not None:
            self.session.close("client-disconnect")

    def on_session_closed(self, session: ClientSession, reason: str) -> None:
        if session is not self.session:
            return
        self.session = None
        self.disconnects += 1
        self.close_reasons.append(reason)
        self._absorb(session)
        if self.auto_reconnect and not self.stopped:
            self.sim.call_after(self.reconnect_delay, self.connect)

    def stop(self) -> None:
        """Stop reconnecting (end-of-run teardown)."""
        self.stopped = True

    def force_resync(self) -> None:
        """Repair path: discard the durable cursors and local state so
        the next session starts from scratch (snapshot or full replay).

        The edge reconciler calls this when the reconnect cursor is
        provably corrupt (ahead of the source head): a forged cursor
        makes every delta catch-up silently skip the gap, so the only
        safe repair is to throw the cursor away."""
        self.cursor = VERSION_ZERO
        self.offsets = {}
        self.state = {}
        self.resyncs_forced += 1
        if self.session is not None:
            self.session.close("resync")
        elif self.auto_reconnect and not self.stopped:
            self.sim.call_after(self.reconnect_delay, self.connect)

    # ------------------------------------------------------------------
    # delivery (sessions call this)

    def on_delivery(self, session: ClientSession, item) -> None:
        if item.__class__ is SnapshotDelivery:
            # wholesale replacement of the watched range at one version
            self.state = dict(item.items)
            if item.version > self.cursor:
                self.cursor = item.version
            self.snapshots_applied += 1
        else:
            self._apply(item)
        if self.service_time > 0:
            self.sim.call_after(self.service_time, session.grant)
        else:
            session.grant()

    def _apply(self, update: Update) -> None:
        if update.is_delete:
            self.state.pop(update.key, None)
        else:
            self.state[update.key] = update.value
        if update.version > self.cursor:
            self.cursor = update.version
        if update.partition is not None:
            nxt = update.offset + 1
            if nxt > self.offsets.get(update.partition, 0):
                self.offsets[update.partition] = nxt
        self.updates_applied += 1

    # ------------------------------------------------------------------
    # accounting

    def _absorb(self, session: ClientSession, live: bool = False) -> None:
        if session.peak_queue > self.peak_queue:
            self.peak_queue = session.peak_queue
        totals = self.totals
        totals["offered"] += session.offered
        totals["delivered"] += session.delivered
        totals["coalesced"] += session.coalesced
        totals["dropped"] += session.dropped
        totals["returned"] += session.returned_to_cursor
        if live:
            totals["queued"] += session.queued_updates

    def finalize(self) -> Dict[str, int]:
        """Fold the live session (if any) into totals; returns totals.

        Call once at measurement end.  ``offered`` then equals
        ``delivered + coalesced + dropped + returned + queued`` — the
        conservation invariant E11 reports as attribution coverage.
        """
        if self.session is not None:
            self._absorb(self.session, live=True)
            self.session = None
        return self.totals
