"""Session placement: which frontend owns which client.

Placement reuses :class:`~repro.sharding.autosharder.AutoSharder` over
the *client-name* keyspace: each frontend owns a contiguous slice of
client names, clients route themselves via :meth:`frontend_for`, and
removing a failed frontend reassigns its slice so its clients reconnect
elsewhere.  Rebalances propagate to frontends with the sharder's
listener latency — sessions living on a frontend that just lost their
slice are closed ("rebalanced") and their clients re-route, the same
eventually-consistent handoff the sharding layer models for caches
(Figure 2): for a notify-latency window, a client can still be routed
to the old owner.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro._types import Key
from repro.sharding.assignment import Assignment
from repro.sharding.autosharder import AutoSharder, AutoSharderConfig
from repro.sim.kernel import Simulation
from repro.sim.metrics import MetricsRegistry


class SessionPlacement:
    """Maps clients to frontends through a sharder assignment."""

    def __init__(
        self,
        sim: Simulation,
        frontends: Iterable,  # frontends with .name/.up/.sessions
        config: Optional[AutoSharderConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.sim = sim
        self._frontends = {frontend.name: frontend for frontend in frontends}
        if not self._frontends:
            raise ValueError("need at least one frontend")
        self.sharder = AutoSharder(
            sim,
            sorted(self._frontends),
            config or AutoSharderConfig(notify_latency=0.01, notify_jitter=0.0),
            metrics=metrics,
            auto_rebalance=False,
        )
        self.evictions = 0
        self.sharder.subscribe(self._on_assignment, immediate=False)

    # ------------------------------------------------------------------
    # routing (clients call this)

    def frontend_for(self, client_name: Key):
        """The frontend currently assigned ``client_name``.

        Reads the sharder's authoritative assignment — the routing tier
        is assumed fresh; it is the *frontends* that learn of moves with
        latency (and evict stale sessions when they do).
        """
        return self._frontends[self.sharder.assignment.owner_of(client_name)]

    def frontends(self) -> Dict[str, object]:
        return dict(self._frontends)

    # ------------------------------------------------------------------
    # membership

    def remove_frontend(self, name: str) -> None:
        """Take a failed/drained frontend out of rotation; its slice is
        reassigned and its clients reconnect to the new owners."""
        self.sharder.remove_node(name)

    def add_frontend(self, frontend) -> None:
        self._frontends[frontend.name] = frontend
        self.sharder.add_node(frontend.name)

    # ------------------------------------------------------------------
    # assignment propagation (sharder listener, arrives with latency)

    def _on_assignment(self, assignment: Assignment) -> None:
        for frontend in self._frontends.values():
            if not frontend.up:
                continue  # crash already dropped its sessions
            for client_name, session in list(frontend.sessions.items()):
                if assignment.owner_of(client_name) != frontend.name:
                    self.evictions += 1
                    session.close("rebalanced")
