#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON line.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

A run re-executes itself once with ``PYTHONHASHSEED=0`` (a fresh
interpreter, collector left enabled), then repeats *rounds* of the
workload until the measured phases have used ``--seconds`` of wall
time (at least three rounds).  A round builds the topology from the
library's public constructors, warms it up to the first measured
commit, and runs the measured phase to its drained end; the
correctness check then runs outside the timed region.  Every round of
one run uses the same seed, so every round must reproduce the same
virtual-time results and program counters: a round that differs, or
fails its check, makes the run incorrect and is not timed.

The measured phase runs in equal spans of virtual time, each timed on
its own, with a fixed calibration piece timed after each span.
``commits_per_s`` takes every span at the fastest any timed round ran
it, and scales the sum by how fast the host ran the calibration pieces
against a reference host; ``setup_s`` is the median set-up time, scaled
the same way.  On a shared host the per-span minimum removes speed
swings of seconds and the scaling removes drift over minutes, while a
change to the program moves only the spans.

``--trace 0`` prints every end-to-end metric.  ``--trace 1`` runs one
untraced round, then traced rounds with the layer wrappers of
``layers.py`` installed, and prints every per-layer metric; the traced
rounds must reproduce the untraced round exactly (the wrappers are
passive) and match the workload's layer-coverage matrix.

``--all`` runs every workload in its own process — untraced twice on
one seed, untraced on the next seed, traced once — prints every
end-to-end metric with its unit and the per-layer table, and checks
determinism (same seed, same results; next seed, other latency
samples) and passivity across processes.

The last line of standard output is always the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from heapq import heappop, heappush

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
MIN_ROUNDS = 3
MAX_ROUNDS = 40
MAX_TRACED_ROUNDS = 3
#: a latency percentile needs this many samples ranked above it
MIN_TAIL_SAMPLES = 10
#: wall time of one calibration piece on the reference host that
#: ``commits_per_s`` is scaled to
REFERENCE_PIECE_S = 0.0003


def _reexec_with_fixed_hash_seed() -> None:
    if os.environ.get("PYTHONHASHSEED") == "0":
        return
    env = dict(os.environ, PYTHONHASHSEED="0")
    os.execve(sys.executable,
              [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)


def _import_program():
    """Put the checkout's ``src`` first on the path and load the
    benchmark modules; exits nonzero, printing no result, when the
    program is not there."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(f"perfbench: no program source at {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import coverage_matrix
    import layers
    import workloads
    return workloads, layers, coverage_matrix


# ----------------------------------------------------------------------
# host speed


_TABLE = {key: key * 7 for key in range(512)}
_HEAP = []


def _piece(steps=1200) -> int:
    """A fixed piece of interpreter work: dict reads, integer arithmetic
    and heap operations, allocating no object the collector tracks."""
    table, heap, acc = _TABLE, _HEAP, 0
    heap.clear()
    for i in range(steps):
        acc = (acc + table[i & 511]) & 0xFFFF
        heappush(heap, acc)
        if len(heap) > 64:
            heappop(heap)
    return acc


class Calibration:
    """Times one piece after every measured span, so the pieces see the
    host in the states the spans saw.  The piece uses nothing from the
    program, so a change to the program does not move it."""

    def __init__(self) -> None:
        self.piece_s = []

    def __call__(self) -> None:
        t0 = time.perf_counter()
        _piece()
        self.piece_s.append(time.perf_counter() - t0)


# ----------------------------------------------------------------------
# one round


class Round:
    """What one round measured."""

    def __init__(self, workload, setup_s, piece_s, errors, counters,
                 layer_calls=None, layer_self=None, tallies=None,
                 kernel_events=0, wheel=None):
        self.commits = workload.commits
        self.slice_s = workload.slice_s
        self.gc_s = workload.gc_s
        self.lags = workload.lags
        self.stale, self.probes = workload.probes
        self.setup_s = setup_s
        #: measured-phase wall time: spans plus collector pauses
        self.wall_s = sum(self.slice_s) + self.gc_s
        self.piece_s = piece_s
        self.errors = errors
        self.counters = counters
        self.layer_calls = layer_calls
        self.layer_self = layer_self
        self.tallies = tallies
        self.kernel_events = kernel_events
        self.wheel = wheel or {}

    def fingerprint(self) -> str:
        """Digest of every virtual-time result and program counter."""
        digest = hashlib.sha256()
        digest.update(repr((self.commits, self.stale, self.probes,
                            sorted(self.counters.items()),
                            sorted(self.wheel.items()))).encode())
        digest.update(repr(self.lags).encode())
        return digest.hexdigest()[:16]

    def lag_fingerprint(self) -> str:
        return hashlib.sha256(repr(self.lags).encode()).hexdigest()[:16]


def run_round(cls, seed, layers=None) -> Round:
    """Build, warm up and measure one round; with ``layers`` set the
    wrappers go in before anything is constructed."""
    tracer = None
    if layers is not None:
        tracer = layers.LayerTracer()
        tracer.install()
    try:
        t0 = time.perf_counter()
        workload = cls(seed)
        workload.build()
        profilers = []
        if tracer is not None:
            from repro.obs.profiler import SimProfiler
            for sim in workload.sims:
                sim.profiler = SimProfiler()
                profilers.append(sim.profiler)
        workload.warm_up()
        t1 = time.perf_counter()
        # traced rounds are not calibrated: their spans are not timed
        calibration = Calibration() if tracer is None else None
        workload.measure(calibration)
        snapshot = {}
        if tracer is not None:
            snapshot = dict(layer_calls=dict(tracer.calls),
                            layer_self=dict(tracer.self_s),
                            tallies=dict(tracer.tallies))
    finally:
        if tracer is not None:
            tracer.uninstall()
    wheel = {}
    for sim in workload.sims:
        for key, value in sim._wheel.stats().items():
            wheel[key] = wheel.get(key, 0) + value
    return Round(
        workload, t1 - t0, calibration and calibration.piece_s,
        workload.check(), workload.counters(),
        kernel_events=sum(p.total_events for p in profilers), wheel=wheel,
        **snapshot,
    )


# ----------------------------------------------------------------------
# metrics


def _rank(n: int, q: float) -> int:
    return min(n - 1, max(0, round(q * (n - 1))))


def lag_stats(lags):
    """(p50 ms, p99 ms, samples, samples ranked above p99)."""
    ordered = sorted(lags)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0, 0
    i50, i99 = _rank(n, 0.50), _rank(n, 0.99)
    return ordered[i50] * 1000.0, ordered[i99] * 1000.0, n, n - 1 - i99


def _peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _fastest(series) -> float:
    """Sum over positions of the least value any round had there."""
    return sum(min(values) for values in zip(*series))


def host_speed(timed) -> float:
    """How fast this host ran the calibration piece, relative to the
    reference host: the pieces at the fastest any round ran them."""
    pieces = _fastest(r.piece_s for r in timed)
    return REFERENCE_PIECE_S * len(timed[0].piece_s) / pieces


def reference_s(timed) -> float:
    """Wall time of one measured phase, on the reference host.

    Every span of the phase is taken at the fastest any timed round ran
    it, plus the median collector time; the rounds repeat the same
    events span for span.  A shared host's speed swings by up to 2x
    over seconds and drifts over minutes, so the per-span minimum drops
    the swings, and scaling by :func:`host_speed` -- the same minimum
    taken over calibration pieces timed between the spans -- drops the
    drift.  A change to the program moves the spans, not the pieces."""
    spans = _fastest(r.slice_s for r in timed)
    return (spans + statistics.median(r.gc_s for r in timed)) * host_speed(timed)


def end_to_end(rounds, peak_rss_mb, errors):
    """End-to-end metrics: set-up is the median over every round, the
    commit rate is taken over every round but the warm-up round; both
    are scaled to the reference host's speed."""
    good = [r for r in rounds if not r.errors] or rounds
    timed = [r for r in rounds[1:] if not r.errors] or good
    first = good[0]
    p50, p99, n, tail = lag_stats(first.lags)
    if tail < MIN_TAIL_SAMPLES:
        errors.append(f"only {tail} latency samples beyond p99 "
                      f"(need {MIN_TAIL_SAMPLES})")
    metrics = {
        "setup_s": _metric(statistics.median(r.setup_s for r in good)
                           * host_speed(timed), "s"),
        "commits_per_s": _metric(first.commits / reference_s(timed), "1/s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "lag_p50_ms": _metric(p50, "ms"),
        "lag_p99_ms": _metric(p99, "ms"),
        "stale_read_frac": _metric(
            first.stale / first.probes if first.probes else 0.0, "ratio"),
    }
    return metrics, n


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(layers, traced, untraced_wall):
    """Per-layer metrics: calls and self time per layer (median self
    time over the traced rounds), then counts read from program state
    and the tallies the wrappers kept, with ratios where the work
    happens."""
    first = traced[0]
    metrics = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.calls"] = _metric(first.layer_calls[layer], "count")
        metrics[f"{layer}.self_s"] = _metric(
            statistics.median(r.layer_self[layer] for r in traced), "s")
    c = first.counters
    t = first.tallies
    commits = max(1, first.commits)
    gc_n = first.layer_calls["runtime"]
    extra = {
        "runtime.gc_s": (metrics["runtime.self_s"]["value"], "s"),
        "runtime.gc_collections": (gc_n, "count"),
        "sim.kernel.events": (first.kernel_events, "count"),
        "sim.kernel.events_per_commit": (first.kernel_events / commits, "ratio"),
        "sim.timerwheel.inserted": (first.wheel.get("inserted", 0), "count"),
        "sim.timerwheel.transferred": (first.wheel.get("transferred", 0), "count"),
        "sim.network.sends": (c.get("sim.network.sends", 0), "count"),
        "sim.network.dropped": (c.get("sim.network.dropped", 0), "count"),
        "sim.network.bytes_per_commit": (
            c.get("sim.network.bytes_sent", 0) / commits, "B"),
        "sim.wire.bytes_sized": (t["sim.wire.bytes_sized"], "B"),
        "sim.metrics.lookups": (t["sim.metrics.lookups"], "count"),
        "sim.metrics.lookups_per_commit": (
            t["sim.metrics.lookups"] / commits, "ratio"),
        "storage.commits": (first.commits, "count"),
        "storage.snapshot_reads": (t["storage.snapshot_reads"], "count"),
        "cdc.records": (c.get("cdc.records", 0), "count"),
        "pubsub.published": (c.get("pubsub.published", 0), "count"),
        "pubsub.redelivery_ratio": (
            _ratio(c.get("pubsub.redelivered", 0), c.get("pubsub.delivered", 0)),
            "ratio"),
        "pubsub.replay_reads": (c.get("edge.replayed", 0), "count"),
        "resilience.transmits": (c.get("resilience.transmits", 0), "count"),
        "resilience.retransmits": (c.get("resilience.retransmits", 0), "count"),
        "resilience.useful_ratio": (
            _ratio(c.get("resilience.acked", 0), c.get("resilience.transmits", 0)),
            "ratio"),
        "transport.frames": (c.get("sim.network.frames", 0), "count"),
        "transport.msgs_per_frame": (
            _ratio(c.get("sim.network.payload_msgs", 0),
                   c.get("sim.network.frames", 0)), "ratio"),
        "core.ingested": (t["core.ingested"], "count"),
        "core.watch_deliveries": (t["core.watch_deliveries"], "count"),
        "edge.offered": (c.get("edge.offered", 0), "count"),
        "edge.delivered": (c.get("edge.delivered", 0), "count"),
        "edge.coalesced": (c.get("edge.coalesced", 0), "count"),
        "edge.dropped": (c.get("edge.dropped", 0), "count"),
        "edge.returned": (c.get("edge.returned", 0), "count"),
        "edge.pump_visits": (c.get("edge.pump_visits", 0), "count"),
        "edge.connects": (c.get("edge.connects", 0), "count"),
        "edge.snapshot_cache_hit_ratio": (
            _ratio(c.get("edge.snapshot_cache_hits", 0),
                   c.get("edge.snapshots_served", 0)), "ratio"),
        "edge.undelivered_frac": (
            _ratio(c.get("edge.offered", 0) - sum(
                c.get(f"edge.{k}", 0) for k in
                ("delivered", "coalesced", "dropped", "returned", "queued")),
                c.get("edge.offered", 0)), "ratio"),
        "replication.applied": (c.get("replication.applied", 0), "count"),
        "cache.invalidations_acked": (
            c.get("cache.invalidations_acked", 0), "count"),
        "cache.invalidations_nacked": (
            c.get("cache.invalidations_nacked", 0), "count"),
        "sharding.reassignments": (c.get("sharding.reassignments", 0), "count"),
        "types.keyrange_calls": (t["types.keyrange_calls"], "count"),
        "obs.records": (t["obs.records"], "count"),
        "trace.overhead": (
            statistics.median(r.wall_s for r in traced) / untraced_wall, "ratio"),
    }
    for name, (value, unit) in extra.items():
        metrics[name] = _metric(value, unit)
    return metrics


# ----------------------------------------------------------------------
# one run


def run(args) -> int:
    workloads, layers, coverage_matrix = _import_program()
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    errors = []
    # the first round warms the interpreter (specialised bytecode,
    # allocator arenas, lazily built caches): its set-up counts, its
    # measured phase is not timed
    rounds = []
    measured = 0.0
    want = 2 if args.trace else MIN_ROUNDS
    while len(rounds) < want or (not args.trace and measured < args.seconds
                                 and len(rounds) < MAX_ROUNDS):
        rounds.append(run_round(cls, args.seed))
        if len(rounds) > 1:
            measured += rounds[-1].wall_s
        else:
            # one full round's footprint, whatever the number of rounds
            peak_rss_mb = _peak_rss_mb()
        gc.collect()
    traced = []
    if args.trace:
        while not traced or (measured < args.seconds
                             and len(traced) < MAX_TRACED_ROUNDS):
            traced.append(run_round(cls, args.seed, layers))
            measured += traced[-1].wall_s
            gc.collect()
    for idx, r in enumerate(rounds + traced):
        for error in r.errors:
            errors.append(f"round {idx}: {error}")
    reference = rounds[0].fingerprint()
    for idx, r in enumerate(rounds[1:] + traced, start=1):
        if r.fingerprint() != reference:
            kind = "traced" if idx >= len(rounds) else "untraced"
            errors.append(f"round {idx} ({kind}) diverged from round 0: "
                          "virtual results are not reproducible")

    metrics, samples = end_to_end(rounds, peak_rss_mb, errors)
    print(f"workload {cls.name}  seed {args.seed}  rounds {len(rounds)}"
          f"+{len(traced)} traced  commits/round {rounds[0].commits}")
    print(f"fingerprint {reference}  lags {rounds[0].lag_fingerprint()}")
    print("round setup_s " + " ".join(f"{r.setup_s:.3f}" for r in rounds))
    print("round commits_per_s " + " ".join(
        f"{r.commits / r.wall_s:.1f}" for r in rounds))
    print("round gc_s " + " ".join(f"{r.gc_s:.3f}" for r in rounds))
    timed = [r for r in rounds[1:] if not r.errors]
    if timed:
        print(f"host speed {host_speed(timed):.3f} x the reference host")
    for name, metric in metrics.items():
        suffix = f"  (n={samples})" if name.startswith("lag_") else ""
        print(f"  {name:<20} {metric['value']:>14.6g} {metric['unit']}{suffix}")
    if args.trace:
        metrics = per_layer(layers, traced, rounds[-1].wall_s)
        errors += coverage_matrix.check(cls.name, metrics)
        print_layer_table(layers, metrics)
    for error in errors:
        print(f"FAILED: {error}")
    failed = sum(r.commits for r in rounds + traced if r.errors)
    attempted = sum(r.commits for r in rounds + traced)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed if not errors else max(failed, 1),
        "metrics": metrics,
    }))
    return 0


def print_layer_table(layers, metrics) -> None:
    total = sum(metrics[f"{l}.self_s"]["value"] for l in layers.LAYERS) or 1.0
    print(f"  {'layer':<16} {'calls':>12} {'self_s':>10} {'share':>7}")
    for layer in sorted(layers.LAYERS,
                        key=lambda l: -metrics[f"{l}.self_s"]["value"]):
        self_s = metrics[f"{layer}.self_s"]["value"]
        print(f"  {layer:<16} {metrics[f'{layer}.calls']['value']:>12} "
              f"{self_s:>10.4f} {100 * self_s / total:>6.1f}%")
    for name, metric in metrics.items():
        if not (name.endswith(".calls") or name.endswith(".self_s")):
            print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}")


# ----------------------------------------------------------------------
# every workload


def _child(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    fingerprint = lag_fp = None
    for line in lines:
        if line.startswith("fingerprint "):
            _, fingerprint, _, lag_fp = line.split()
    return lines, json.loads(lines[-1]), fingerprint, lag_fp


def run_all(args) -> int:
    workloads, _, _ = _import_program()
    problems = []
    attempted = failed = 0
    results = {}
    for name in workloads.WORKLOADS:
        lines_a, result_a, fp_a, lag_a = _child(name, args.seed, args.seconds, 0)
        _, result_b, fp_b, _ = _child(name, args.seed, args.seconds, 0)
        _, result_c, _, lag_c = _child(name, args.seed + 1, args.seconds, 0)
        lines_t, result_t, fp_t, _ = _child(name, args.seed, args.seconds, 1)
        print("\n".join(lines_a[:-1]))
        print("\n".join(line for line in lines_t[:-1]
                        if line.startswith("  ") and not
                        line.lstrip().startswith(tuple(result_a["metrics"]))))
        for result in (result_a, result_b, result_c, result_t):
            attempted += result["attempted"]
            failed += result["failed"]
            if not result["correct"]:
                problems.append(f"{name}: a run failed its checks")
        if fp_a != fp_b:
            problems.append(f"{name}: same seed, different results")
        if lag_a == lag_c:
            problems.append(f"{name}: next seed, same latency samples")
        if fp_t != fp_a:
            problems.append(f"{name}: traced run differs from untraced run")
        print(f"  determinism: seed {args.seed} twice "
              f"{'identical' if fp_a == fp_b else 'DIFFERENT'}; seed "
              f"{args.seed + 1} lags {'differ' if lag_a != lag_c else 'SAME'}; "
              f"traced {'identical' if fp_t == fp_a else 'DIFFERENT'}\n")
        results[name] = result_a["metrics"]
    for problem in problems:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {f"{w}/{m}": v for w, ms in results.items()
                    for m, v in ms.items()},
    }))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload and the cross-run checks")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _reexec_with_fixed_hash_seed()
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload or --all is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
