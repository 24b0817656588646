"""Layer-boundary span tracing, installed from outside the simulator.

:class:`SpanTracer` wraps the public entry points of every layer under
``src/repro`` -- the engine's scheduling API, node handler registration, the
radio, the MAC, AODV's unicast entry, the spatial indexes and the mobility
models -- so that each call into a layer records one span: its kind (which
names the entry point and the layer it belongs to), start, end and parent
span.  Spans stay in memory as compact arrays while the traced run lasts;
:meth:`SpanTracer.summary` derives per-layer self time from them afterwards
and :meth:`SpanTracer.write` dumps them.

Nothing in ``src/`` knows about the tracer.  It must be installed *before*
``Scenario.build()``: protocol objects bind methods and register callbacks
while they are built, and those bindings must already point at the
wrappers.  Wrapping never changes what the simulator computes -- a wrapped
callback is called with the same arguments in the same order -- which the
benchmark proves on every traced run by comparing the simulated digest with
an untraced run of the same configuration.

Scheduled engine callbacks and registered handlers are keyed to a layer by
their *owner's* module (the class of a bound method's ``self``, else the
function's module), using :data:`MODULE_LAYERS`.
"""

from __future__ import annotations

import array
import json
import os
import time
from types import ModuleType
from typing import Callable, Dict, List, Optional, Tuple

#: Layer names, after the modules under ``src/repro``.  ``sim`` also absorbs
#: whatever the traced wall time does not attribute to a span (the engine's
#: own loop, the benchmark's glue).
LAYERS = (
    "sim",
    "sim.shard",
    "mobility",
    "net.spatial",
    "net.medium",
    "net.mac",
    "net.node",
    "routing",
    "multicast",
    "core",
    "workload",
    "membership",
    "obs",
)

#: Module prefix -> layer; the first matching prefix wins.
MODULE_LAYERS = (
    ("repro.sim.shard", "sim.shard"),
    ("repro.sim", "sim"),
    ("repro.mobility", "mobility"),
    ("repro.net.spatial", "net.spatial"),
    ("repro.net.medium", "net.medium"),
    ("repro.net.phy", "net.medium"),
    ("repro.net.mac", "net.mac"),
    ("repro.net", "net.node"),
    ("repro.routing", "routing"),
    ("repro.multicast", "multicast"),
    ("repro.core", "core"),
    ("repro.workload", "workload"),
    ("repro.metrics", "workload"),
    ("repro.membership", "membership"),
    ("repro.obs", "obs"),
    ("repro.trace", "obs"),
)

#: Binary layout of one span in the file :meth:`SpanTracer.write` produces
#: (kind, parent index or -1, start, end; perf_counter seconds).
SPAN_FIELDS = (("kind", "H"), ("parent", "i"), ("start", "d"), ("end", "d"))


def layer_of_module(module: Optional[str]) -> str:
    """The layer a module belongs to (``sim`` for anything outside repro)."""
    if module:
        for prefix, layer in MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "sim"


def owner_module(callback: Callable) -> Optional[str]:
    """Module of the object that owns ``callback``."""
    owner = getattr(callback, "__self__", None)
    if owner is not None and not isinstance(owner, ModuleType):
        return type(owner).__module__
    return getattr(callback, "__module__", None)


class SpanTracer:
    """Records one span per call into a layer entry point.

    Use as a context manager around build *and* run::

        tracer = SpanTracer()
        with tracer:
            scenario = Scenario(config).build()
            with tracer.recording():
                scenario.run()
        summary = tracer.summary()

    Wrappers stay installed only inside the ``with`` block; spans are
    recorded only inside :meth:`recording`.
    """

    def __init__(self) -> None:
        self.kind_names: List[str] = []
        self.kind_layers: List[int] = []
        self._kind_ids: Dict[str, int] = {}
        self._callback_kinds: Dict[object, int] = {}
        self.kinds, self.parents, self.starts, self.ends = (
            array.array(code) for _, code in SPAN_FIELDS
        )
        #: Open spans, innermost last; -1 is the root sentinel.
        self._stack: List[int] = [-1]
        #: ``[recording]`` -- a list so the wrappers' closures share it.
        self._on = [False]
        self._patches: List[Tuple[object, str, object]] = []
        #: Simulators and media the traced code created (counter read-out).
        self.simulators: List[object] = []
        self.media: List[object] = []
        self.wall_s = 0.0
        self._span = self._make_span()

    # ------------------------------------------------------------ kinds
    def kind(self, name: str, layer: str) -> int:
        """Id of the span kind ``name`` (created on first use)."""
        kind = self._kind_ids.get(name)
        if kind is None:
            kind = len(self.kind_names)
            self.kind_names.append(name)
            self.kind_layers.append(LAYERS.index(layer))
            self._kind_ids[name] = kind
        return kind

    def callback_kind(self, callback: Callable, via: str) -> int:
        """Span kind of a callback, keyed by its owner's module."""
        owner = getattr(callback, "__self__", None)
        if owner is not None and not isinstance(owner, ModuleType):
            key = (via, type(owner))
        else:
            # Closures share their code object, so per-call lambdas do not
            # grow the cache.
            key = (via, getattr(callback, "__code__", None) or type(callback))
        kind = self._callback_kinds.get(key)
        if kind is None:
            layer = layer_of_module(owner_module(callback))
            kind = self.kind(f"{via}->{layer}", layer)
            self._callback_kinds[key] = kind
        return kind

    # ------------------------------------------------------------ spans
    def _make_span(self) -> Callable:
        """The span-recording call, with every lookup bound as a local."""
        on = self._on
        stack = self._stack
        kinds_append = self.kinds.append
        parents_append = self.parents.append
        starts_append = self.starts.append
        ends = self.ends
        ends_append = ends.append
        clock = time.perf_counter

        def span(kind, fn, args, kwargs=None):
            if not on[0]:
                return fn(*args, **kwargs) if kwargs else fn(*args)
            index = len(ends)
            kinds_append(kind)
            parents_append(stack[-1])
            ends_append(0.0)
            stack.append(index)
            starts_append(clock())
            try:
                return fn(*args, **kwargs) if kwargs else fn(*args)
            finally:
                ends[index] = clock()
                stack.pop()

        return span

    def call(self, name: str, layer: str, fn: Callable, *args):
        """Call ``fn(*args)`` inside one span of kind ``name``."""
        return self._span(self.kind(name, layer), fn, args)

    def wrap_callable(self, callback: Callable, via: str) -> Callable:
        """A span-recording stand-in for a registered callback."""
        span = self._span
        kind = self.callback_kind(callback, via)

        def traced(*args):
            return span(kind, callback, args)

        return traced

    # ---------------------------------------------------------- install
    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _wrap_method(self, cls, name: str, layer: str) -> None:
        original = cls.__dict__[name]
        span = self._span
        kind = self.kind(f"{cls.__name__}.{name}", layer)

        def traced(*args, **kwargs):
            return span(kind, original, args, kwargs)

        traced.__name__ = name
        traced.__doc__ = original.__doc__
        self._patch(cls, name, traced)

    def _wrap_callback_arg(self, cls, name: str, position: int, via: str) -> None:
        """Patch ``cls.name`` so its callback argument is span-wrapped."""
        original = cls.__dict__[name]
        wrap = self.wrap_callable

        def traced(self_, *args, **kwargs):
            if position < len(args) and callable(args[position]):
                args = list(args)
                args[position] = wrap(args[position], via)
            return original(self_, *args, **kwargs)

        traced.__name__ = name
        traced.__doc__ = original.__doc__
        self._patch(cls, name, traced)

    def _wrap_engine(self) -> None:
        from repro.sim.engine import Simulator

        span = self._span
        callback_kind = self.callback_kind
        run_kind = self.kind("Simulator.run", "sim")
        simulators = self.simulators

        def fire(kind, callback, args):
            return span(kind, callback, args)

        call_in = Simulator.__dict__["call_in"]
        call_at = Simulator.__dict__["call_at"]
        schedule_at = Simulator.__dict__["schedule_at"]
        schedule_many = Simulator.__dict__["schedule_many"]
        run = Simulator.__dict__["run"]

        def traced_call_in(sim, delay, callback, args=()):
            return call_in(sim, delay, fire, (callback_kind(callback, "event"), callback, args))

        def traced_call_at(sim, when, callback, args=()):
            return call_at(sim, when, fire, (callback_kind(callback, "event"), callback, args))

        def traced_schedule_at(sim, when, callback, *args):
            if not callable(callback):
                return schedule_at(sim, when, callback, *args)
            return schedule_at(sim, when, fire, callback_kind(callback, "event"), callback, args)

        def traced_schedule_many(sim, calls, *, absolute=False):
            wrapped = (
                (when, fire, (callback_kind(callback, "event"), callback, args))
                for when, callback, args in calls
            )
            return schedule_many(sim, wrapped, absolute=absolute)

        def traced_run(sim, *args, **kwargs):
            if sim not in simulators:
                simulators.append(sim)
            return span(run_kind, run, (sim,) + args, kwargs)

        for name, replacement in (
            ("call_in", traced_call_in),
            ("call_at", traced_call_at),
            ("schedule_at", traced_schedule_at),
            ("schedule_many", traced_schedule_many),
            ("run", traced_run),
        ):
            replacement.__doc__ = Simulator.__dict__[name].__doc__
            self._patch(Simulator, name, replacement)

    def _wrap_constructors(self) -> None:
        """Hooks that need the constructed object (registries, post-init wraps)."""
        from repro.net.mac import CsmaMac
        from repro.net.medium import Medium
        from repro.sim.timers import PeriodicTimer

        media = self.media
        wrap = self.wrap_callable
        medium_init = Medium.__dict__["__init__"]
        mac_init = CsmaMac.__dict__["__init__"]
        timer_init = PeriodicTimer.__dict__["__init__"]

        def traced_medium_init(medium, *args, **kwargs):
            medium_init(medium, *args, **kwargs)
            media.append(medium)

        def traced_mac_init(mac, sim, phy, *args, **kwargs):
            mac_init(mac, sim, phy, *args, **kwargs)
            # The MAC installs these straight on its radio; the medium
            # calls them from inside its own spans.
            phy.broadcast_callback = wrap(phy.broadcast_callback, "radio")
            phy.on_transmission_finished = wrap(phy.on_transmission_finished, "radio")

        def traced_timer_init(timer, sim, interval, callback, **kwargs):
            # A periodic timer fires its own ``_fire`` (engine layer); the
            # protocol work is the wrapped callback inside it.
            timer_init(timer, sim, interval, wrap(callback, "timer"), **kwargs)

        self._patch(Medium, "__init__", traced_medium_init)
        self._patch(CsmaMac, "__init__", traced_mac_init)
        self._patch(PeriodicTimer, "__init__", traced_timer_init)

    def install(self) -> None:
        """Install every wrapper (idempotent)."""
        if self._patches:
            return
        from repro import mobility
        from repro.mobility.base import MobilityModel
        from repro.multicast.flooding import FloodingRouter
        from repro.multicast.maodv import MaodvRouter
        from repro.multicast.odmrp import OdmrpRouter
        from repro.net import spatial
        from repro.net.mac import CsmaMac
        from repro.net.medium import Medium
        from repro.net.node import Node
        from repro.net.phy import Phy
        from repro.routing.aodv import AodvRouter

        self._wrap_engine()
        self._wrap_constructors()
        # Handler registration: AODV, MAODV and gossip run inside
        # Node.deliver, so their handlers need spans of their own.
        self._wrap_callback_arg(Node, "register_handler", 1, "handler")
        self._wrap_callback_arg(Node, "add_sniffer", 0, "handler")
        self._wrap_callback_arg(Node, "add_link_failure_listener", 0, "handler")
        self._wrap_callback_arg(Phy, "set_receive_callback", 0, "radio")
        self._wrap_callback_arg(AodvRouter, "add_neighbor_loss_listener", 0, "handler")
        for router in (AodvRouter, MaodvRouter, FloodingRouter, OdmrpRouter):
            self._wrap_callback_arg(router, "add_delivery_listener", 0, "handler")
        for router in (MaodvRouter, FloodingRouter, OdmrpRouter):
            self._wrap_method(router, "send_data", "multicast")
            self._wrap_method(router, "join_group", "multicast")
        self._wrap_method(Node, "deliver", "net.node")
        self._wrap_method(Phy, "transmit", "net.medium")
        self._wrap_method(Medium, "is_busy_for", "net.medium")
        self._wrap_method(CsmaMac, "send", "net.mac")
        self._wrap_method(AodvRouter, "send_unicast", "routing")
        for cls in (spatial.UniformGridIndex, spatial.TorusGridIndex, spatial.LinearScanIndex):
            for name in ("transmission_window", "candidates"):
                if name in cls.__dict__:
                    self._wrap_method(cls, name, "net.spatial")
        for cls in _mobility_classes(mobility, MobilityModel):
            for name in ("position", "position_hold", "motion_sample"):
                if name in cls.__dict__:
                    self._wrap_method(cls, name, "mobility")

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "SpanTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def recording(self) -> "_Recording":
        """Context manager: record spans and the traced wall time inside it."""
        return _Recording(self)

    # ---------------------------------------------------------- results
    def counts(self) -> Dict[str, int]:
        """Spans recorded per kind name."""
        totals = [0] * len(self.kind_names)
        for kind in self.kinds:
            totals[kind] += 1
        return {name: totals[i] for i, name in enumerate(self.kind_names)}

    def summary(self) -> Dict[str, float]:
        """Per-layer self seconds; ``sim`` also takes the unattributed rest.

        A span's self time is its duration minus the durations of its
        direct children (children nest strictly inside their parent, so
        this equals the part of the interval no child covers).  The
        layer totals plus the remainder add up to :attr:`wall_s`.
        """
        starts, ends, parents, kinds = self.starts, self.ends, self.parents, self.kinds
        count = len(ends)
        child = array.array("d", bytes(8 * count))
        rooted = 0.0
        for index in range(count):
            duration = ends[index] - starts[index]
            parent = parents[index]
            if parent >= 0:
                child[parent] += duration
            else:
                rooted += duration
        by_kind = [0.0] * len(self.kind_names)
        for index in range(count):
            by_kind[kinds[index]] += ends[index] - starts[index] - child[index]
        layers = {layer: 0.0 for layer in LAYERS}
        for kind, seconds in enumerate(by_kind):
            layers[LAYERS[self.kind_layers[kind]]] += seconds
        layers["sim"] += self.wall_s - rooted
        return layers

    def write(self, path: str, meta: Dict[str, object]) -> None:
        """Dump the spans: one JSON header line, then the raw arrays."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        header = dict(meta)
        header.update(
            spans=len(self.ends),
            kinds=[[name, LAYERS[layer]] for name, layer in zip(self.kind_names, self.kind_layers)],
            fields=[list(field) for field in SPAN_FIELDS],
            wall_s=self.wall_s,
        )
        with open(path, "wb") as handle:
            handle.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            for column in (self.kinds, self.parents, self.starts, self.ends):
                column.tofile(handle)


class _Recording:
    def __init__(self, tracer: SpanTracer):
        self._tracer = tracer

    def __enter__(self) -> None:
        self._tracer._on[0] = True
        self._started = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self._tracer.wall_s += time.perf_counter() - self._started
        self._tracer._on[0] = False


def _mobility_classes(package, base) -> List[type]:
    """Every mobility model class defined in the ``repro.mobility`` modules."""
    import importlib
    import pkgutil

    classes = []
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and issubclass(value, base)
                and value.__module__ == module.__name__
            ):
                classes.append(value)
    return classes
