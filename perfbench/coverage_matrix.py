"""Which layers each workload is built to exercise and to bypass.

The traced run checks the matrix as measured: a layer listed as
exercised must have been called, and a layer listed as bypassed must
either not have been called at all or have taken at most
``NEGLIGIBLE_SHARE`` of the run's summed layer self time.  Bypassed
layers that the program still calls (value constructors in ``types``,
an ``obs`` helper on the publish path) show up in ``.calls`` with their
measured share.
"""

from __future__ import annotations

NEGLIGIBLE_SHARE = 0.02

EXERCISED = {
    "pubsub-replication": (
        "runtime", "sim.kernel", "sim.network", "sim.wire", "sim.metrics",
        "storage", "cdc", "pubsub", "resilience", "replication",
    ),
    "watch-fanout": ("runtime", "sim.kernel", "storage", "core", "edge"),
    "reconnect-storm": (
        "runtime", "sim.kernel", "sim.timerwheel", "sim.network", "sim.wire",
        "storage", "pubsub", "resilience", "transport", "core", "edge", "obs",
    ),
    "invalidation-race": (
        "runtime", "sim.kernel", "storage", "pubsub", "core", "cache",
        "sharding", "types", "obs",
    ),
}

BYPASSED = {
    "pubsub-replication": (
        "sim.timerwheel", "transport", "core", "edge", "cache", "sharding",
        "types", "obs",
    ),
    "watch-fanout": (
        "sim.network", "sim.wire", "sim.metrics", "cdc", "pubsub",
        "resilience", "replication", "cache", "sharding", "obs",
    ),
    "reconnect-storm": ("cdc", "replication", "cache", "sharding"),
    "invalidation-race": ("sim.network", "sim.wire", "replication", "edge"),
}


def check(workload: str, metrics: dict) -> list:
    """Coverage failures of one traced run (empty when the matrix holds)."""
    total = sum(value["value"] for name, value in metrics.items()
                if name.endswith(".self_s")) or 1.0
    errors = []
    for layer in EXERCISED[workload]:
        if metrics[f"{layer}.calls"]["value"] == 0:
            errors.append(f"layer {layer} was not exercised")
    for layer in BYPASSED[workload]:
        share = metrics[f"{layer}.self_s"]["value"] / total
        if share > NEGLIGIBLE_SHARE:
            errors.append(
                f"layer {layer} was not bypassed: "
                f"{metrics[f'{layer}.calls']['value']} calls, "
                f"{100 * share:.1f}% of layer time")
    return errors
