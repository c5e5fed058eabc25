"""Differential model of the simulation kernel's scheduler.

The kernel keeps events in three lanes — a zero-delay FIFO fast lane, a
binary heap and a hierarchical timer wheel — and leaves cancelled
events queued as tombstones until they are skipped or compacted away.
None of that may be observable.  The contract, stated as checkable
invariants (the way the Floodsub formalization states safety):

1. **order** — events fire in exactly the global ``(time, seq)`` order
   of one plain ``heapq``, at exactly the same virtual times;
2. **count** — ``pending_events`` equals the number of scheduled,
   unfired, uncancelled events;
3. **clock** — after ``run(until=...)`` the clock reads the same as the
   reference's.

The machine drives a :class:`Simulation` and :class:`RefScheduler` (a
``heapq`` of ``(time, seq)`` plus a dict of live actions) with the same
randomly interleaved schedule: ``call_at``, ``call_after``, ``post``,
processes sleeping on :class:`Timeout`, processes blocked on a
:class:`Waiter` and its ``fire``, handle cancels (before and after the
event fired), bounded and unbounded runs, and mass cancels of >= 512
events — immediate or from inside a running callback — so tombstone
compaction runs both between and during ``run``.  Delays span every
routing regime: zero (fast lane), inside the current wheel slot (heap),
wheel levels 0, 1 and 2, and beyond the wheel's horizon (heap again).
Both sides are compared after every step.

This file is a standing CI gate: the workflow runs it with
``KERNEL_PROFILE=kernel-ci`` (more examples and longer schedules).
"""

import heapq
import os
from itertools import count

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from repro.sim.kernel import _COMPACT_MIN_TOMBSTONES, Simulation, Timeout

#: the default wheel: 0.25 s slots, 256 slots per level, 3 levels, so
#: level 0 parks delays of one slot to 64 s, level 1 up to 16384 s,
#: level 2 up to ~4.19e6 s; anything nearer or farther goes to the heap
DELAYS = st.one_of(
    st.just(0.0),
    # shared values make equal-time ties across lanes likely
    st.sampled_from([0.1, 0.25, 0.5, 1.0, 64.0, 100.0, 16384.0, 2e4, 5e6]),
    st.floats(0.001, 0.249),  # inside the current slot
    st.floats(0.25, 63.9),  # wheel level 0
    st.floats(64.0, 16_383.0),  # wheel level 1
    st.floats(16_384.0, 4.19e6),  # wheel level 2
    st.floats(4.2e6, 1e7),  # beyond the horizon
)


class RefScheduler:
    """The reference: one ``heapq`` of ``(time, seq)``, nothing else."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = count()
        #: seq -> action for every scheduled, unfired, uncancelled event
        self._live = {}

    def schedule(self, t, action):
        seq = next(self._seq)
        heapq.heappush(self._heap, (t, seq))
        self._live[seq] = action
        return seq

    def cancel(self, seq):
        self._live.pop(seq, None)

    @property
    def pending(self):
        return len(self._live)

    def run(self, until=None):
        heap = self._heap
        while heap and (until is None or heap[0][0] <= until):
            t, seq = heapq.heappop(heap)
            action = self._live.pop(seq, None)
            if action is not None:
                self.now = t
                action()
        if until is not None and self.now < until:
            self.now = until


class RefWaiter:
    def __init__(self, ref):
        self.ref = ref
        self.fired = False
        self.waiting = []

    def add(self, action):
        if self.fired:
            self.ref.schedule(self.ref.now, action)
        else:
            self.waiting.append(action)

    def fire(self):
        if self.fired:
            return
        self.fired = True
        waiting, self.waiting = self.waiting, []
        for action in waiting:
            self.ref.schedule(self.ref.now, action)


class KernelMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulation(seed=0)
        self.ref = RefScheduler()
        self.fired = []
        self.ref_fired = []
        #: (kernel handle, reference seq) for every handle-returning call
        self.handles = []
        self.waiter = None
        self.ref_waiter = None
        self._tags = count()

    # ------------------------------------------------------------------
    # helpers

    def _pair(self, tag):
        """A logging callback for each side."""
        sim, ref = self.sim, self.ref
        return (
            lambda: self.fired.append((sim.now(), tag)),
            lambda: self.ref_fired.append((ref.now, tag)),
        )

    def _cancel_all(self, pairs):
        for handle, _ in pairs:
            handle.cancel()

    def _ref_cancel_all(self, pairs):
        for _, seq in pairs:
            self.ref.cancel(seq)

    # ------------------------------------------------------------------
    # scheduling

    @rule(delay=DELAYS)
    def call_at(self, delay):
        t = self.sim.now() + delay
        kfn, rfn = self._pair(next(self._tags))
        self.handles.append((self.sim.call_at(t, kfn), self.ref.schedule(t, rfn)))

    @rule(delay=DELAYS)
    def call_after(self, delay):
        kfn, rfn = self._pair(next(self._tags))
        handle = self.sim.call_after(delay, kfn)
        self.handles.append((handle, self.ref.schedule(self.ref.now + delay, rfn)))

    @rule(delay=DELAYS)
    def post(self, delay):
        kfn, rfn = self._pair(next(self._tags))
        self.sim.post(delay, kfn)
        self.ref.schedule(self.ref.now + delay, rfn)

    @rule(delay=DELAYS)
    def spawn_sleeper(self, delay):
        tag = next(self._tags)
        sim, ref = self.sim, self.ref

        def proc():
            self.fired.append((sim.now(), (tag, "start")))
            yield Timeout(delay)
            self.fired.append((sim.now(), (tag, "end")))

        def ref_start():
            self.ref_fired.append((ref.now, (tag, "start")))
            ref.schedule(
                ref.now + delay,
                lambda: self.ref_fired.append((ref.now, (tag, "end"))),
            )

        sim.spawn(proc(), name=f"sleeper-{tag}")
        ref.schedule(ref.now, ref_start)

    @rule()
    def new_waiter(self):
        self.waiter = self.sim.waiter()
        self.ref_waiter = RefWaiter(self.ref)

    @rule()
    def spawn_waiting(self):
        if self.waiter is None:
            self.new_waiter()
        tag = next(self._tags)
        sim, ref = self.sim, self.ref
        waiter, ref_waiter = self.waiter, self.ref_waiter

        def proc():
            self.fired.append((sim.now(), (tag, "start")))
            yield waiter
            self.fired.append((sim.now(), (tag, "end")))

        def ref_start():
            self.ref_fired.append((ref.now, (tag, "start")))
            ref_waiter.add(
                lambda: self.ref_fired.append((ref.now, (tag, "end")))
            )

        sim.spawn(proc(), name=f"waiting-{tag}")
        ref.schedule(ref.now, ref_start)

    @rule()
    def fire_waiter(self):
        if self.waiter is not None:
            self.waiter.fire()
            self.ref_waiter.fire()

    # ------------------------------------------------------------------
    # cancellation

    @rule(index=st.integers(min_value=0))
    def cancel(self, index):
        """Cancel any handle ever issued — fired, cancelled or live."""
        if self.handles:
            handle, seq = self.handles[index % len(self.handles)]
            handle.cancel()
            self.ref.cancel(seq)

    @rule(
        n=st.integers(_COMPACT_MIN_TOMBSTONES, _COMPACT_MIN_TOMBSTONES + 128),
        delays=st.lists(DELAYS, min_size=1, max_size=6),
        keep_every=st.sampled_from([0, 7]),
        later=st.none() | DELAYS,
    )
    def mass_cancel(self, n, delays, keep_every, later):
        """Schedule ``n`` events and cancel them (all, or all but every
        ``keep_every``-th) — now, or from a callback ``later`` seconds
        out, i.e. in the middle of a run."""
        sim, ref = self.sim, self.ref
        others = sim.pending_events
        batch = []
        for i in range(n):
            delay = delays[i % len(delays)]
            kfn, rfn = self._pair(next(self._tags))
            batch.append(
                (sim.call_after(delay, kfn), ref.schedule(ref.now + delay, rfn))
            )
        self.handles.extend(batch)
        if keep_every:
            batch = [p for i, p in enumerate(batch) if i % keep_every]
        if later is None:
            self._cancel_all(batch)
            self._ref_cancel_all(batch)
            if not keep_every and n > others:
                # tombstones now outnumber everything live: the cancels
                # themselves must have compacted the lanes
                assert sim._tombstones < _COMPACT_MIN_TOMBSTONES
        else:
            sim.post(later, lambda: self._cancel_all(batch))
            ref.schedule(ref.now + later, lambda: self._ref_cancel_all(batch))

    # ------------------------------------------------------------------
    # running

    @rule(duration=DELAYS)
    def run_for(self, duration):
        self.sim.run_for(duration)
        self.ref.run(until=self.ref.now + duration)

    @rule()
    def drain(self):
        self.sim.run()
        self.ref.run()

    # ------------------------------------------------------------------
    # the contract

    @invariant()
    def same_order_count_and_clock(self):
        assert self.fired == self.ref_fired
        assert self.sim.pending_events == self.ref.pending
        assert self.sim.now() == self.ref.now


TestKernelModel = KernelMachine.TestCase

settings.register_profile(
    "kernel-dev",
    settings(max_examples=25, stateful_step_count=30, deadline=None),
)
settings.register_profile(
    "kernel-ci",
    settings(max_examples=150, stateful_step_count=60, deadline=None),
)
TestKernelModel.settings = settings.get_profile(
    os.environ.get("KERNEL_PROFILE", "kernel-dev")
)
