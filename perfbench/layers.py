"""Per-layer wall-clock attribution, measured from outside the program.

A :class:`LayerTracer` replaces every function defined in a layer's
modules with a thin wrapper that counts the call and, when the call
crosses in from another layer, opens a span on a single stack.  A
layer's self time is its span time minus the time of the spans opened
inside it (child layers, and collector pauses, which are charged to
the ``runtime`` layer).  A call that re-enters the layer that is
already on top of the stack is counted but opens no span, so deep
same-layer call chains cost one counter increment each.

Wrappers go onto the classes and modules themselves, and every module
that imported a wrapped function by name is rebound, so they must be
installed *before* the topology is built: hot paths pre-bind methods
at construction time and would keep calling the originals otherwise.
Spans are aggregated in memory (per-layer call counts and self time);
nothing is written until the run ends.

The wrappers do not touch arguments, results, the simulation clock or
any random stream, so a traced run is event-for-event identical to an
untraced one; the benchmark checks this on every traced run.
"""

from __future__ import annotations

import enum
import functools
import gc
import importlib
import inspect
import pkgutil
import sys
import time
import types

#: Layer name -> modules (a package name covers all its submodules);
#: ``types`` is ``repro._types``.  ``runtime`` has no modules: it is the
#: collector, timed through ``gc.callbacks``.  ``repro.obs.profiler`` is
#: left out of ``obs`` because the traced run uses it as the kernel's
#: event counter.
LAYER_MODULES = {
    "runtime": (),
    "sim.kernel": ("repro.sim.kernel", "repro.sim.clock"),
    "sim.timerwheel": ("repro.sim.timerwheel",),
    "sim.network": ("repro.sim.network",),
    "sim.wire": ("repro.sim.wire",),
    "sim.metrics": ("repro.sim.metrics",),
    "storage": ("repro.storage",),
    "cdc": ("repro.cdc",),
    "pubsub": ("repro.pubsub",),
    "resilience": ("repro.resilience",),
    "transport": ("repro.transport",),
    "core": ("repro.core",),
    "edge": ("repro.edge",),
    "replication": ("repro.replication",),
    "cache": ("repro.cache",),
    "sharding": ("repro.sharding",),
    "types": ("repro._types",),
    "obs": ("repro.obs",),
}
LAYERS = tuple(LAYER_MODULES)
_EXCLUDED_MODULES = ("repro.obs.profiler",)

#: Functions whose calls are tallied by name (``module:qualname``).
TALLIES = {
    "repro.sim.metrics:MetricsRegistry.counter": "sim.metrics.lookups",
    "repro._types:KeyRange.contains": "types.keyrange_calls",
    "repro._types:KeyRange.overlaps": "types.keyrange_calls",
    "repro.obs.trace:Tracer.record": "obs.records",
    "repro.storage.kv:MVCCStore.scan": "storage.snapshot_reads",
    "repro.storage.kv:MVCCStore.snapshot": "storage.snapshot_reads",
    "repro.core.versioned_map:VersionedMap.items_at": "storage.snapshot_reads",
    "repro.core.watch_system:WatchSystem.append": "core.ingested",
    # change events delivered to watch callbacks: linked caches (relays
    # included) and edge session feeds
    "repro.core.linked_cache:LinkedCache.on_event": "core.watch_deliveries",
    "repro.edge.frontend:_SessionFeed.on_event": "core.watch_deliveries",
}
#: Functions whose results are summed: the bytes ``wire_size`` measured
#: (``repro.sim.network`` binds it at import, so the rebinding matters).
_SUM_RESULT = {"repro.sim.wire:wire_size": "sim.wire.bytes_sized"}

#: Dunder methods that are entry points (everything else dunder is
#: protocol plumbing — hashing, comparison, repr — and stays unwrapped).
_WRAPPED_DUNDERS = ("__init__", "__call__")


def layer_of(module_name: str):
    """The layer that owns ``module_name``, or None."""
    if module_name in _EXCLUDED_MODULES:
        return None
    for layer, prefixes in LAYER_MODULES.items():
        for prefix in prefixes:
            if module_name == prefix or module_name.startswith(prefix + "."):
                return layer
    return None


def _import_layer_modules():
    """Import every module any layer names; returns them sorted by name."""
    names = set()
    for prefixes in LAYER_MODULES.values():
        for prefix in prefixes:
            module = importlib.import_module(prefix)
            names.add(prefix)
            path = getattr(module, "__path__", None)
            if path is not None:
                for info in pkgutil.walk_packages(path, prefix + "."):
                    names.add(info.name)
    modules = []
    for name in sorted(names):
        if layer_of(name) is not None:
            modules.append(importlib.import_module(name))
    return modules


class _TimedGen:
    """Generator proxy that times each resumption as a span of its layer
    (the kernel drives processes through ``send`` and ``close``)."""

    __slots__ = ("_gen", "_enter")

    def __init__(self, gen, enter):
        self._gen = gen
        self._enter = enter

    def __iter__(self):
        return self

    def __next__(self):
        return self._enter(self._gen.send, None)

    def send(self, value):
        return self._enter(self._gen.send, value)

    def throw(self, *exc):
        return self._enter(self._gen.throw, *exc)

    def close(self):
        return self._gen.close()


class LayerTracer:
    """Installs the layer wrappers and accumulates calls and self time."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.tallies = {}
        for name in list(TALLIES.values()) + list(_SUM_RESULT.values()):
            self.tallies[name] = 0
        #: the layer whose span is open (None: the benchmark's own code)
        self._cur = None
        #: time covered by child spans of the open span
        self._child = 0.0
        self._gc_t0 = 0.0
        self._restore = []  # (owner, attribute, original value)
        self._installed = False

    # ------------------------------------------------------------------
    # span accounting

    def _enter(self, layer, fn, args, kwargs):
        self.calls[layer] += 1
        if self._cur is layer:
            return fn(*args, **kwargs)
        outer = self._cur
        saved = self._child
        self._cur = layer
        self._child = 0.0
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self.self_s[layer] += dur - self._child
            self._cur = outer
            self._child = saved + dur

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
            return
        dur = time.perf_counter() - self._gc_t0
        self.self_s["runtime"] += dur
        self.calls["runtime"] += 1
        # the pause happened inside whatever span is open; charge it to
        # the runtime layer, not to that span's self time
        self._child += dur

    # ------------------------------------------------------------------
    # wrappers

    def _wrap_function(self, layer, fn, key):
        enter = self._enter
        if inspect.isgeneratorfunction(fn):
            def step(method, *args):
                return enter(layer, method, args, {})

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return _TimedGen(fn(*args, **kwargs), step)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return enter(layer, fn, args, kwargs)

        tally = TALLIES.get(key)
        sum_key = _SUM_RESULT.get(key)
        if tally is None and sum_key is None:
            return wrapper
        tallies = self.tallies
        inner = wrapper
        if sum_key is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tallies[tally] += 1
                return inner(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = inner(*args, **kwargs)
                tallies[sum_key] += result
                return result
        return wrapper

    def _wrap_class(self, layer, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("__") and name not in _WRAPPED_DUNDERS:
                continue
            key = f"{cls.__module__}:{cls.__qualname__}.{name}"
            if isinstance(attr, staticmethod):
                new = staticmethod(self._wrap_function(layer, attr.__func__, key))
            elif isinstance(attr, classmethod):
                new = classmethod(self._wrap_function(layer, attr.__func__, key))
            elif isinstance(attr, types.FunctionType):
                new = self._wrap_function(layer, attr, key)
            else:
                continue  # properties, slots, constants
            self._restore.append((cls, name, attr))
            setattr(cls, name, new)

    def install(self) -> None:
        """Wrap every layer's functions and rebind imported names."""
        if self._installed:
            raise RuntimeError("layer wrappers are already installed")
        self._installed = True
        replaced = {}  # id(original function) -> (original, wrapper)
        for module in _import_layer_modules():
            layer = layer_of(module.__name__)
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # imported from elsewhere
                if inspect.isclass(obj):
                    if issubclass(obj, (enum.Enum, BaseException)):
                        continue
                    self._wrap_class(layer, obj)
                elif isinstance(obj, types.FunctionType) and not name.startswith("__"):
                    key = f"{module.__name__}:{obj.__qualname__}"
                    replaced[id(obj)] = (obj, self._wrap_function(layer, obj, key))
        # module-level functions: rebind the name in every module that
        # holds it, because ``from x import f`` copies the binding
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if namespace is None:
                continue
            for name, obj in list(namespace.items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((module, name, obj))
                    setattr(module, name, hit[1])
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Put every original back (objects built while installed keep
        the wrappers they pre-bound)."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        self._installed = False
