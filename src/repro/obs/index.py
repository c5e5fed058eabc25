"""TraceIndex: causal chains, hop latencies, and loss provenance.

The index groups a trace log two ways:

- **chains** — events carrying an update identity, grouped by
  ``(key, version)`` in log order.  A chain is the causal path of one
  update: ``store.commit -> cdc.capture -> ... -> cache.apply``.
- **transport** — identity-less events (``net.drop``, ``channel.*``)
  joined to chains through their ``(channel, dst, seq)`` attrs.

From these it computes:

- per-hop latency breakdown histograms into the existing
  :class:`~repro.sim.metrics.MetricsRegistry` (``obs.hop.<a>-><b>``
  plus ``obs.hop.total.<terminal>`` end-to-end), using the *first*
  occurrence of each hop per chain so fan-out (one update applied by
  N nodes) does not pollute transitions;
- **loss provenance**: for every update that entered a send hop but
  never reached the matching receive hop, the exact hop that lost it —
  a network-loss drop, a partition window, a down endpoint, a crashed
  (fire-and-forget) publisher, an exhausted retry budget — and, for
  updates that reached the broker but were silently skipped by a
  subscription cursor, whether retention GC or compaction deleted them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.eventlog import EventLog, TraceEvent
from repro.obs.trace import hops
from repro.sim.metrics import MetricsRegistry

#: send hop -> the receive hop whose absence means the update was lost
#: on that edge.
SEND_RECV_PAIRS: Dict[str, str] = {
    hops.PUBLISH_SEND: hops.PUBSUB_APPEND,
    hops.RELAY_SHIP: hops.RELAY_INGEST,
}

#: hops that mark an update reaching a consumer's materialized state.
TERMINAL_HOPS: Tuple[str, ...] = (
    hops.CACHE_APPLY, hops.WATCH_APPLY, hops.EDGE_DELIVER,
)

#: net.drop cause -> human-readable provenance label.
_DROP_CAUSES = {
    "loss": "network loss drop",
    "partition": "partition window",
    "down": "endpoint down",
}


@dataclass(frozen=True)
class LossRecord:
    """One lost update attributed to the hop that lost it."""

    key: str
    version: int
    #: the send hop the update last passed (publish.send / relay.ship)
    #: or pubsub.append for broker-side GC/compaction losses
    last_hop: str
    #: the attributed cause ("network loss drop", "partition window",
    #: "endpoint down", "publisher down", "retry budget exhausted",
    #: "retention GC", "compaction", or "unattributed (in flight)")
    cause: str
    #: where it happened (channel/subscription name)
    at: str


class TraceIndex:
    """Reconstructs per-update causal chains from an event log."""

    def __init__(self, log: EventLog) -> None:
        self._chains: Dict[Tuple[str, int], List[TraceEvent]] = {}
        self._transport: List[TraceEvent] = []
        #: (topic, partition, offset) -> (key, version) from append spans
        self._offset_identity: Dict[Tuple[str, int, int], Tuple[str, int]] = {}
        self._gap_events: List[TraceEvent] = []
        #: reconcile.* / corrupt.inject control-plane events, log order
        self._control: List[TraceEvent] = []
        for event in log:
            if event.hop == hops.PUBSUB_GAP:
                self._gap_events.append(event)
                continue
            if event.hop.startswith(("reconcile.", "corrupt.")):
                self._control.append(event)
                continue
            if event.key is None or event.version is None:
                self._transport.append(event)
                continue
            self._chains.setdefault((event.key, event.version), []).append(event)
            if event.hop == hops.PUBSUB_APPEND:
                where = (
                    event.attrs.get("topic"),
                    event.attrs.get("partition"),
                    event.attrs.get("offset"),
                )
                if None not in where:
                    self._offset_identity[where] = (event.key, event.version)

    # ------------------------------------------------------------------
    # chains

    def chains(self) -> List[Tuple[str, int]]:
        """All traced update identities, in first-seen order."""
        return list(self._chains)

    def chain(self, key: str, version: int) -> List[TraceEvent]:
        """The causal chain of one update (log order == causal order)."""
        return list(self._chains.get((key, version), ()))

    def hop_sequence(self, key: str, version: int) -> List[Tuple[str, float]]:
        """(hop, time) at the *first* occurrence of each hop, ordered.

        Fan-out repeats a hop (N nodes each apply); the first occurrence
        gives one well-defined transition sequence per update.
        """
        seen: Dict[str, float] = {}
        for event in self._chains.get((key, version), ()):
            if event.hop not in seen:
                seen[event.hop] = event.t
        # log order is sim-time order, so insertion order is chronological
        return list(seen.items())

    def delivered(self) -> List[Tuple[str, int]]:
        """Updates whose chain reached a terminal apply hop."""
        return [
            identity
            for identity, events in self._chains.items()
            if any(e.hop in TERMINAL_HOPS for e in events)
        ]

    def chain_is_complete(
        self, key: str, version: int, required: Tuple[str, ...]
    ) -> bool:
        """Does the chain contain every hop in ``required``?"""
        present = {e.hop for e in self._chains.get((key, version), ())}
        return all(hop in present for hop in required)

    # ------------------------------------------------------------------
    # hop latency

    def hop_latencies(
        self, registry: Optional[MetricsRegistry] = None, prefix: str = "obs.hop"
    ) -> MetricsRegistry:
        """Per-transition latency histograms into ``registry``.

        For each chain, consecutive first-occurrence hops contribute one
        observation to ``<prefix>.<a>-><b>``; chains rooted at
        ``store.commit`` that reach a terminal also contribute to
        ``<prefix>.total.<terminal>`` (commit-to-apply end to end).
        """
        registry = registry if registry is not None else MetricsRegistry()
        for (key, version) in self._chains:
            sequence = self.hop_sequence(key, version)
            for (hop_a, t_a), (hop_b, t_b) in zip(sequence, sequence[1:]):
                registry.histogram(f"{prefix}.{hop_a}->{hop_b}").observe(t_b - t_a)
            if sequence and sequence[0][0] == hops.COMMIT:
                t_commit = sequence[0][1]
                for hop, t in sequence[1:]:
                    if hop in TERMINAL_HOPS:
                        registry.histogram(f"{prefix}.total.{hop}").observe(
                            t - t_commit
                        )
        return registry

    # ------------------------------------------------------------------
    # loss provenance

    def loss_provenance(self) -> List[LossRecord]:
        """Attribute every lost update to the hop that lost it.

        Two loss families:

        - **wire losses** — a send hop with no matching receive hop.
          The send's ``(channel, dst, seq)`` triple joins to transport
          events: a ``net.drop`` names the drop cause, a
          ``channel.sender_down`` means a crashed fire-and-forget
          publisher never transmitted, a ``channel.giveup`` means the
          retry budget ran out.  A send with none of these was still in
          flight when the run ended.
        - **broker-side losses** — the update was appended, but a
          subscription cursor later skipped its offset (a
          ``pubsub.gap``): offsets below the gap's GC floor were
          deleted by retention GC, the rest by compaction.
        """
        drops: Dict[Tuple[str, str, int], str] = {}
        giveups: Dict[Tuple[str, str, int], bool] = {}
        sender_down: Dict[Tuple[str, str, int], bool] = {}
        for event in self._transport:
            triple = (
                event.attrs.get("src") or event.attrs.get("channel"),
                event.attrs.get("dst"),
                event.attrs.get("seq"),
            )
            if None in triple:
                continue
            if event.hop == hops.NET_DROP:
                drops[triple] = event.attrs.get("cause", "loss")
            elif event.hop == hops.CHANNEL_GIVEUP:
                giveups[triple] = True
            elif event.hop == hops.CHANNEL_SENDER_DOWN:
                sender_down[triple] = True

        records: List[LossRecord] = []
        for (key, version), events in self._chains.items():
            present = {e.hop for e in events}
            # edge-tier sheds: a bounded-buffer-drop session discarded
            # the update for one client (other clients may still have
            # received it — the record is per shed, not per update)
            for event in events:
                if event.hop == hops.EDGE_DROP:
                    records.append(LossRecord(
                        key=key, version=version, last_hop=hops.EDGE_DROP,
                        cause="dropped at edge",
                        at=str(event.attrs.get("session")),
                    ))
            for send_hop, recv_hop in SEND_RECV_PAIRS.items():
                if send_hop not in present or recv_hop in present:
                    continue
                send = next(e for e in reversed(events) if e.hop == send_hop)
                triple = (
                    send.attrs.get("channel"),
                    send.attrs.get("dst"),
                    send.attrs.get("seq"),
                )
                if sender_down.get(triple):
                    cause = "publisher down"
                elif giveups.get(triple):
                    cause = "retry budget exhausted"
                elif triple in drops:
                    cause = _DROP_CAUSES.get(drops[triple], drops[triple])
                else:
                    cause = "unattributed (in flight)"
                records.append(LossRecord(
                    key=key, version=version, last_hop=send_hop,
                    cause=cause, at=str(triple[0]),
                ))

        for gap in self._gap_events:
            topic = gap.attrs.get("topic")
            partition = gap.attrs.get("partition")
            gc_floor = gap.attrs.get("gc_floor", 0)
            subscription = str(gap.attrs.get("subscription"))
            for offset in range(
                gap.attrs.get("from_offset", 0), gap.attrs.get("to_offset", 0)
            ):
                identity = self._offset_identity.get((topic, partition, offset))
                if identity is None:
                    continue
                records.append(LossRecord(
                    key=identity[0], version=identity[1],
                    last_hop=hops.PUBSUB_APPEND,
                    cause="retention GC" if offset < gc_floor else "compaction",
                    at=subscription,
                ))
        return records

    def wire_loss_coverage(self) -> Tuple[int, int]:
        """(wire-lost updates, of which attributed to an exact hop).

        Wire-lost = chains that passed a send hop but never the matching
        receive hop; attributed = those whose cause is a named hop (not
        "unattributed").  The acceptance bar for E10 is
        attributed/lost >= 0.95.
        """
        lost = attributed = 0
        for record in self.loss_provenance():
            if record.last_hop not in SEND_RECV_PAIRS:
                continue
            lost += 1
            if not record.cause.startswith("unattributed"):
                attributed += 1
        return lost, attributed

    def edge_summary(self) -> Dict[str, int]:
        """Edge-tier event counts at per-(session, update) granularity.

        ``delivered`` / ``coalesced`` / ``dropped`` count the edge hops
        across all chains, so the lost-vs-coalesced split the trace
        claims can be checked against the sessions' own accounting.
        """
        counts = {"delivered": 0, "coalesced": 0, "dropped": 0}
        hop_key = {
            hops.EDGE_DELIVER: "delivered",
            hops.EDGE_COALESCE: "coalesced",
            hops.EDGE_DROP: "dropped",
        }
        for events in self._chains.values():
            for event in events:
                name = hop_key.get(event.hop)
                if name is not None:
                    counts[name] += 1
        return counts

    def repair_summary(self) -> Dict[str, object]:
        """Attribute every ``reconcile.repair`` to the corruption it
        fixed, and every ``corrupt.inject`` to the repair that fixed it.

        Joins the two control-plane event families on *scope*: an
        injection is **repaired** by the earliest repair in its scope at
        ``t >= inject.t``; a repair is **attributed** when at least one
        injection preceded it in its scope.  Returns::

            {"classes": {cls: {"injected", "repaired", "unrepaired",
                               "max_lag_s"}},
             "repairs": total reconcile.repair events,
             "repairs_attributed": of which joined to an injection}
        """
        injects = [e for e in self._control if e.hop == hops.CORRUPT_INJECT]
        repairs = [e for e in self._control if e.hop == hops.RECONCILE_REPAIR]
        by_scope: Dict[str, List[TraceEvent]] = {}
        for repair in repairs:
            by_scope.setdefault(repair.attrs.get("scope"), []).append(repair)

        classes: Dict[str, Dict[str, float]] = {}
        for inject in injects:
            cls = inject.attrs.get("cls", "unknown")
            row = classes.setdefault(
                cls, {"injected": 0, "repaired": 0, "unrepaired": 0,
                      "max_lag_s": 0.0},
            )
            row["injected"] += 1
            fixed_at = next(
                (r.t for r in by_scope.get(inject.attrs.get("scope"), ())
                 if r.t >= inject.t),
                None,
            )
            if fixed_at is None:
                row["unrepaired"] += 1
            else:
                row["repaired"] += 1
                row["max_lag_s"] = max(row["max_lag_s"], fixed_at - inject.t)

        inject_scopes: Dict[str, List[float]] = {}
        for inject in injects:
            inject_scopes.setdefault(inject.attrs.get("scope"), []).append(inject.t)
        attributed = sum(
            1 for repair in repairs
            if any(t <= repair.t
                   for t in inject_scopes.get(repair.attrs.get("scope"), ()))
        )
        return {
            "classes": classes,
            "repairs": len(repairs),
            "repairs_attributed": attributed,
        }

    def causal_summary(self) -> Dict[str, object]:
        """Summarize the ``causal.*`` hop family across all chains.

        Counts stamps/holds/releases, aggregates hold durations, and —
        the loss-provenance angle — attributes every bounded-hold
        *deadline* release to the dependency it was still waiting for:
        ``"dep lost upstream"`` when the awaited update's own chain
        never reached a terminal apply hop (it died on the wire or in a
        retention gap, so waiting longer could not have helped),
        ``"dep late"`` when the dep did eventually arrive — the hold
        window was simply shorter than the dep's lateness.
        """
        stamped = held = released = deadline = 0
        hold_ms: List[float] = []
        deadline_records: List[Dict[str, object]] = []
        for (key, version), events in self._chains.items():
            for event in events:
                if event.hop == hops.CAUSAL_STAMP:
                    stamped += 1
                elif event.hop == hops.CAUSAL_HELD:
                    held += 1
                elif event.hop == hops.CAUSAL_RELEASED:
                    released += 1
                    hold_ms.append(float(event.attrs.get("held_ms", 0.0)))
                elif event.hop == hops.CAUSAL_DEADLINE:
                    deadline += 1
                    hold_ms.append(float(event.attrs.get("held_ms", 0.0)))
                    waiting = str(event.attrs.get("waiting_for", ""))
                    first = waiting.split(",")[0] if waiting else ""
                    cause = "unknown"
                    if ":" in first:
                        dep_key, _, dep_v = first.rpartition(":")
                        dep_chain = self._chains.get((dep_key, int(dep_v)), ())
                        arrived = any(e.hop in TERMINAL_HOPS for e in dep_chain)
                        cause = "dep late" if arrived else "dep lost upstream"
                    deadline_records.append({
                        "key": key, "version": version,
                        "waiting_for": waiting, "cause": cause,
                    })
        return {
            "stamped": stamped,
            "held": held,
            "released_deps": released,
            "released_deadline": deadline,
            "hold_ms_max": round(max(hold_ms), 3) if hold_ms else 0.0,
            "hold_ms_mean": (
                round(sum(hold_ms) / len(hold_ms), 3) if hold_ms else 0.0
            ),
            "deadline_releases": deadline_records,
        }

    def provenance_counts(self) -> Dict[Tuple[str, str], int]:
        """{(last_hop, cause): lost-update count}, for summary tables."""
        counts: Dict[Tuple[str, str], int] = {}
        for record in self.loss_provenance():
            pair = (record.last_hop, record.cause)
            counts[pair] = counts.get(pair, 0) + 1
        return counts
