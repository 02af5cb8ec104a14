"""In-memory span tracing of the simulator's layers, from outside ``src/``.

A :class:`Tracer` wraps the entry points of every layer module at run
time and records one span per call: name, start, end and the index of
the enclosing span.  Nothing in the package is edited; :meth:`Tracer.install`
patches class and module attributes and :meth:`Tracer.uninstall` puts the
originals back, so objects built after ``uninstall`` run the plain code.

What gets a span:

* every public function and public method defined in a layer module;
* private methods on both sides of an override that crosses layers
  (``CoMapMac._transmit_head`` over ``DcfMac._transmit_head``), since the
  base class calls the override and the override calls ``super()``;
* every callback the engine fires whose function lives in a layer module
  (``Channel._deliver_air_start``, ``DcfMac._ifs_elapsed``,
  ``Backhaul._deliver``, ``CbrSource._emit`` ...): ``Simulator.schedule``
  and ``schedule_at`` are wrapped to route such callbacks through a
  span-recording trampoline, which also counts scheduled events;
* every garbage-collector pause (``gc.callbacks``), as a child span of
  whatever it interrupted, so a pause is not charged to that layer.

A layer's self time is the summed duration of its spans minus the time
their child spans cover (:func:`self_times`).  Spans live in flat
``array`` buffers (26 bytes a span, invisible to the garbage collector)
and are written out by :meth:`Tracer.dump` when the run ends.
"""

from __future__ import annotations

import contextlib
import enum
import gc
import importlib
import inspect
import json
import pkgutil
import sys
import time
import types
from array import array
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Module-name prefix -> layer.  The layer names are the benchmark's
#: per-layer metric prefixes; modules not listed here get no spans, so
#: their time counts toward whichever layer called them.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.engine", "sim.engine"),
    ("repro.phy.channel", "phy.channel"),
    ("repro.phy.vector", "phy.channel"),
    ("repro.phy.spatial", "phy.channel"),
    ("repro.phy.radio", "phy.radio"),
    ("repro.mac.dcf", "mac.dcf"),
    ("repro.mac.comap", "mac.comap"),
    ("repro.mac.csr", "mac.csr"),
    ("repro.net.backhaul", "net.backhaul"),
    ("repro.net.traffic", "net.traffic"),
    ("repro.net.mobility", "net.mobility"),
    ("repro.net.network", "net.network"),
    ("repro.core", "core"),
    ("repro.experiments.parallel", "experiments.parallel"),
    ("repro.experiments.topologies", "experiments.topologies"),
    ("repro.obs.manifest", "obs.manifest"),
    ("repro.analytical", "analytical"),
)

#: Entry points whose spans belong to another layer than their module's.
#: A sweep task's body is the experiment itself, not executor overhead.
LAYER_OVERRIDES: Dict[str, str] = {
    "repro.experiments.parallel:SweepTask.execute": "experiments.task",
}

#: Span names the benchmark harness itself records (no package layer).
HARNESS_LAYER = "bench"
#: Pseudo-layer of garbage-collector pauses.
GC_LAYER = "gc"


def layer_of_module(module: Optional[str]) -> Optional[str]:
    """The layer a module belongs to, or ``None`` when it is not traced."""
    if not module:
        return None
    for prefix, layer in LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


def layer_of_name(name: str) -> str:
    """The layer of a span name (``module:qualname``, ``bench.*`` or ``gc``)."""
    if name in LAYER_OVERRIDES:
        return LAYER_OVERRIDES[name]
    if name == GC_LAYER:
        return GC_LAYER
    if name.startswith(HARNESS_LAYER + "."):
        return HARNESS_LAYER
    return layer_of_module(name.split(":", 1)[0]) or HARNESS_LAYER


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def self_times(starts, ends, parents) -> np.ndarray:
    """Per-span self time: duration minus the durations of direct children.

    Spans come from synchronous calls, so a child lies inside its
    parent's interval and children of one parent do not overlap; the
    covered part of a parent is then the sum of its children's
    durations.  ``parents[i]`` is the index of span ``i``'s parent, or
    ``-1`` for a root.  Times are integer nanoseconds.
    """
    starts = np.asarray(starts, dtype=np.int64)
    durations = np.asarray(ends, dtype=np.int64) - starts
    parents = np.asarray(parents, dtype=np.int64)
    has_parent = parents >= 0
    covered = np.zeros(len(durations), dtype=np.int64)
    np.add.at(covered, parents[has_parent], durations[has_parent])
    return durations - covered


def layer_totals(names, starts, ends, parents, name_table) -> Dict[str, Dict[str, int]]:
    """Per-layer ``self_ns`` and span ``calls`` from raw span buffers."""
    names = np.asarray(names, dtype=np.int64)
    own = self_times(starts, ends, parents)
    per_name_ns = np.bincount(names, weights=own, minlength=len(name_table))
    per_name_calls = np.bincount(names, minlength=len(name_table))
    totals: Dict[str, Dict[str, int]] = {}
    for nid, name in enumerate(name_table):
        if not per_name_calls[nid]:
            continue
        entry = totals.setdefault(layer_of_name(name), {"self_ns": 0, "calls": 0})
        entry["self_ns"] += int(round(per_name_ns[nid]))
        entry["calls"] += int(per_name_calls[nid])
    return totals


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------
def _plain_functions(namespace: dict) -> Iterable[Tuple[str, types.FunctionType]]:
    for attr, value in namespace.items():
        if isinstance(value, types.FunctionType) and not attr.startswith("__"):
            yield attr, value


class Tracer:
    """Span recorder for one traced run.  Not thread-safe (the run has none)."""

    def __init__(self) -> None:
        self.names = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self._stack: List[int] = [-1]
        self.name_table: List[str] = []
        self._name_layers: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: Events passed to ``Simulator.schedule``/``schedule_at``.
        self.scheduled = 0
        self._patches: List[Tuple[object, str, object]] = []
        self._callback_ids: Dict[object, Optional[int]] = {}
        self._wrappers: set = set()
        self._gc_open: List[int] = []

    # -- names ---------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.name_table)
            self.name_table.append(name)
            self._name_layers.append(layer_of_name(name))
            self._name_ids[name] = nid
        return nid

    # -- recording -----------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a harness span (``bench.*``) around the ``with`` body."""
        index = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(index)

    def _open(self, nid: int) -> int:
        index = len(self.names)
        self.names.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        nid = self.name_id(name)
        layer = self._name_layers[nid]
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, name_layers = self._stack, self._name_layers
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and name_layers[names[top]] == layer:
                # A call inside the same layer changes no layer's self
                # time; skipping its span keeps tracing overhead off the
                # small accessors a layer calls on itself.
                return fn(*args, **kwargs)
            index = len(names)
            names.append(nid)
            parents.append(top)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__module__ = fn.__module__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        self._wrappers.add(traced)
        return traced

    def _fire(self, nid: int, callback: Callable, *args) -> None:
        """Trampoline the engine fires in place of a layer callback."""
        index = self._open(nid)
        try:
            callback(*args)
        finally:
            self._close(index)

    def _callback_id(self, callback: Callable) -> Optional[int]:
        fn = getattr(callback, "__func__", callback)
        try:
            return self._callback_ids[fn]
        except KeyError:
            pass
        except TypeError:  # unhashable callable: leave it unwrapped
            return None
        nid = None
        if fn not in self._wrappers:
            module = getattr(fn, "__module__", None)
            if layer_of_module(module) is not None:
                qualname = getattr(fn, "__qualname__", repr(fn))
                nid = self.name_id(f"{module}:{qualname}")
        self._callback_ids[fn] = nid
        return nid

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_open.append(self._open(self.name_id(GC_LAYER)))
        elif self._gc_open:
            self._close(self._gc_open.pop())

    # -- install / uninstall --------------------------------------------
    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Import every layer module and wrap its entry points."""
        modules = _layer_modules()
        classes: List[type] = []
        functions: Dict[types.FunctionType, Callable] = {}
        for module in modules:
            for _attr, value in vars(module).items():
                if (
                    inspect.isclass(value)
                    and value.__module__ == module.__name__
                    and not issubclass(value, (BaseException, enum.Enum))
                    and value not in classes
                ):
                    classes.append(value)
            for attr, fn in _plain_functions(vars(module)):
                if fn.__module__ == module.__name__ and not attr.startswith("_"):
                    functions[fn] = self._wrap(fn, f"{fn.__module__}:{fn.__qualname__}")
        for cls in classes:
            for attr in _traced_methods(cls, classes):
                fn = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(fn, f"{cls.__module__}:{fn.__qualname__}"))
        # Module-level functions are also bound by ``from m import f`` in
        # other modules; patch every package module's reference.
        for module in [m for name, m in list(sys.modules.items())
                       if name == "repro" or name.startswith("repro.")]:
            if module is None:
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in functions:
                    self._patch(module, attr, functions[value])
        self._patch_engine()
        gc.callbacks.append(self._gc_callback)

    def _patch_engine(self) -> None:
        from repro.sim.engine import Simulator

        tracer = self
        fire = self._fire
        callback_id = self._callback_id
        for attr in ("schedule", "schedule_at"):
            original = Simulator.__dict__.get(attr)  # already span-wrapped
            if original is None:
                continue

            def scheduler(sim, when, callback, *args, _original=original):
                tracer.scheduled += 1
                nid = callback_id(callback)
                if nid is None:
                    return _original(sim, when, callback, *args)
                return _original(sim, when, fire, nid, callback, *args)

            scheduler.__qualname__ = original.__qualname__
            self._patch(Simulator, attr, scheduler)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._callback_ids.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------
    def _buffers(self):
        return tuple(
            np.frombuffer(buffer, dtype=buffer.typecode)
            for buffer in (self.names, self.starts, self.ends, self.parents)
        )

    def call_counts(self) -> Dict[str, int]:
        """Spans recorded per span name."""
        counts = np.bincount(self._buffers()[0], minlength=len(self.name_table))
        return {name: int(counts[nid]) for nid, name in enumerate(self.name_table) if counts[nid]}

    def layer_totals(self) -> Dict[str, Dict[str, int]]:
        return layer_totals(*self._buffers(), self.name_table)

    def inclusive_ns(self, names: Iterable[str]) -> int:
        """Summed duration of the spans with any of ``names``.

        Meant for spans that do not nest in one another: harness spans,
        or entry points of one layer (calls inside a layer record no
        span of their own).
        """
        wanted = [self._name_ids[name] for name in names if name in self._name_ids]
        if not wanted:
            return 0
        ids, starts, ends, _ = self._buffers()
        mask = np.isin(ids, wanted)
        return int((ends[mask] - starts[mask]).sum())

    def dump(self, path: str) -> int:
        """Write the spans: a JSON header line, then the raw buffers."""
        header = {
            "format": "perfbench.spans/1",
            "spans": len(self.names),
            "names": self.name_table,
            "layout": ["names:uint16", "starts:int64", "ends:int64", "parents:int64"],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for buffer in (self.names, self.starts, self.ends, self.parents):
                buffer.tofile(handle)
        return len(self.names)


def _traced_methods(cls: type, classes: Sequence[type]) -> List[str]:
    """Public methods of ``cls`` plus private ones overridden across layers."""
    methods = {attr for attr, _ in _plain_functions(vars(cls))}
    attrs = {attr for attr in methods if not attr.startswith("_")}
    private = methods - attrs
    layer = layer_of_module(cls.__module__)
    for other in classes:
        if other is cls or layer_of_module(other.__module__) == layer:
            continue
        related = issubclass(other, cls) or issubclass(cls, other)
        if related:
            attrs |= private & set(vars(other))
    return sorted(attrs)


def _layer_modules() -> List[types.ModuleType]:
    """Import and return every module of the package that maps to a layer."""
    import repro

    found = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if layer_of_module(info.name) is None:
            continue
        try:
            found.append(importlib.import_module(info.name))
        except ImportError:
            continue  # an optional backend whose dependency is missing
    return found
