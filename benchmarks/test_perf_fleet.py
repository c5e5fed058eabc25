"""E17 fleet gate: the shard-parallel runner beats the monolith on the
same total population — on THIS machine, in proportion to its cores.

Both edge frontends fan out through a range index (O(matching
sessions) per message), so on one core a 4-shard fleet does about the
monolith's total work and can only win by running its shards in
parallel.  The headline assertion is therefore a scaling bar: the
fleet (4 worker processes) must turn the cores it can use into wall
clock at half efficiency or better, ``speedup >= 0.5 * min(cores, 4)``
— at least 2x on a host with 4 or more cores, at least 1x on 2 cores.
The workload is the pubsub pipeline under a mass-snapshot storm.

What partitioning still buys on any core count is asserted from
deterministic counters: a reconnect replays every retained message of
the process's partition logs, and the monolith's logs hold four shards'
traffic, so the fleet re-reads fewer messages (``replayed``) and
crosses fewer retention holes (``replay_gaps``).

The conservation and determinism halves of the fleet contract are
asserted structurally here (funnels re-checked inside run(); byte
identity is pinned in tests/bench/test_fleet_determinism.py) — this
file owns the wall-clock claim.
"""

import os

from conftest import run_once

from repro.bench.experiments import e17_fleet_scale

#: the calibrated speedup pair: same 32k sessions, same total update
#: rate and keyspace, monolith vs 4 shards x 4 workers
_GATE = dict(e17_fleet_scale.DEFAULTS)
_GATE["rungs"] = (
    ("pubsub", 1, 32_000, "snapshot", 1),
    ("pubsub", 4, 8_000, "snapshot", 4),
)
_WORKERS = 4


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def test_fleet_speedup_scales_with_cores(benchmark):
    """4 workers >= 0.5 x min(cores, 4) times faster than 1 process."""
    result = run_once(benchmark, e17_fleet_scale.run, _GATE)
    sweep = result.table("fleet sweep")
    speedup = result.table(
        "speedup vs 1-process monolith (nondeterministic; excluded "
        "from determinism gates)"
    )

    mono = sweep.row_by("shards", 1)
    fleet = sweep.row_by("shards", 4)

    # same total population, both sides fully conserved (run() already
    # re-checked every funnel per shard AND merged; a violation raises)
    assert mono["sessions"] == fleet["sessions"] == 32_000
    assert mono["conserved"] and fleet["conserved"]
    assert mono["attributed_pct"] == 100.0
    assert fleet["attributed_pct"] == 100.0

    # the wall-clock bar
    cores = _usable_cores()
    bar = 0.5 * min(cores, _WORKERS)
    pair = speedup.rows[0]
    assert pair["sessions"] == 32_000
    assert pair["speedup"] >= bar, (
        f"fleet speedup {pair['speedup']}x < {bar}x on {cores} cores "
        f"(mono {pair['mono_wall_s']}s, fleet {pair['fleet_wall_s']}s)"
    )

    # the partitioning win that holds on any core count: the
    # monolith's storm replays re-read four shards' logs, and those
    # logs GC sooner, so its replays cross more holes
    assert mono["replayed"] > fleet["replayed"] > 0
    assert mono["replay_gaps"] > fleet["replay_gaps"]
