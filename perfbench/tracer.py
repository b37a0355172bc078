"""Span tracer installed from the benchmark's side of the API.

The benchmark measures its end-to-end metrics with no tracing at all.
A separate traced run wraps the public entry points of each simulator
layer (the table in :data:`TARGETS`) with a function that records one
span per call: its name, start, end and the span that was open when it
began (its parent).  Spans stay in memory, in flat arrays, and are
written out once, by :func:`write_spans`, when the run ends.

Wrapping happens on the classes and modules themselves, and it must
happen before ``build_machine``: the network caches each endpoint's
bound ``deliver`` method at attach time, so a machine built before
:meth:`Tracer.install` would keep calling the unwrapped methods.

A layer's self time is the sum, over its spans, of each span's duration
minus the part covered by its child spans (:meth:`Tracer.layer_self`).
Time spent inside a span's own body but in functions that are not
wrapped - for example the compiled processor's fused hit path, which the
kernel calls directly - is therefore charged to the nearest wrapped
caller, which for event callbacks is ``Simulator.run``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

#: (module, class or None, attribute, layer).  The span name is
#: ``Class.attribute``, or ``module.function`` for module functions
#: (``module`` being the last part of the module's dotted name).
TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.sim.kernel", "Simulator", "run", "sim"),
    ("repro.sim.kernel", "Simulator", "step_select", "sim"),
    ("repro.interconnect.network", "Network", "send", "interconnect"),
    ("repro.interconnect.network", "Network", "broadcast", "interconnect"),
    ("repro.protocols.cache_side", "DirectoryCacheController", "access",
     "protocols"),
    ("repro.protocols.cache_side", "DirectoryCacheController", "deliver",
     "protocols"),
    ("repro.core.controller", "TwoBitDirectoryController", "deliver", "core"),
    ("repro.cache.array", "CacheArray", "lookup", "cache"),
    ("repro.cache.array", "CacheArray", "fill", "cache"),
    ("repro.memory.module", "MemoryModule", "read", "memory"),
    ("repro.memory.module", "MemoryModule", "write", "memory"),
    ("repro.verification.oracle", "CoherenceOracle", "check_read",
     "verification.oracle"),
    ("repro.verification.oracle", "CoherenceOracle", "commit_write",
     "verification.oracle"),
    ("repro.faults.inject", "FaultInjector", "on_deliver", "faults"),
    ("repro.obs.core", "Observability", "on_send", "obs"),
    ("repro.obs.core", "Observability", "on_broadcast", "obs"),
    ("repro.obs.core", "Observability", "on_state", "obs"),
    ("repro.obs.core", "Observability", "span_begin", "obs"),
    ("repro.obs.core", "Observability", "span_phase", "obs"),
    ("repro.obs.core", "Observability", "span_outcome", "obs"),
    ("repro.obs.core", "Observability", "span_end", "obs"),
    ("repro.obs.core", "Observability", "tick", "obs"),
    ("repro.system.builder", None, "build_machine", "system"),
    ("repro.checkpoint", None, "save", "checkpoint"),
    ("repro.checkpoint", None, "load", "checkpoint"),
    ("repro.verification.model_check", None, "replay_schedule",
     "verification.model_check"),
    ("repro.verification.model_check", None, "check_protocol",
     "verification.model_check"),
    ("repro.verification.schedules", "StateFingerprinter", "fingerprint",
     "verification.fingerprint"),
)

#: Workload classes whose reference streams get a span per ``__next__``.
#: The stream a processor pulls from is the iterator ``_raw_stream``
#: returns (the compiled engine calls its ``__next__`` directly), so the
#: wrapper goes around that iterator.
STREAM_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("repro.workloads.synthetic", "DuboisBriggsWorkload"),
    ("repro.workloads.traces", "StreamingTraceWorkload"),
    ("repro.workloads.synthetic", "ScriptedWorkload"),
)
STREAM_SPAN = "stream.__next__"
STREAM_LAYER = "workloads"


def span_name(module_name: str, cls_name: Optional[str], attr: str) -> str:
    owner = cls_name or module_name.rsplit(".", 1)[-1]
    return f"{owner}.{attr}"


#: Span name -> layer.
LAYER_OF: Dict[str, str] = {
    span_name(module, cls, attr): layer for module, cls, attr, layer in TARGETS
}
LAYER_OF[STREAM_SPAN] = STREAM_LAYER


class _TracedIterator:
    """Iterator whose ``__next__`` records a span around the inner one."""

    __slots__ = ("_next",)

    def __init__(self, next_fn: Callable) -> None:
        self._next = next_fn

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self):
        return self._next()


class Tracer:
    """Records spans around the wrapped entry points while installed."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        names, parent, start, end = self.names, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return functools.update_wrapper(span, fn)

    def mark(self) -> int:
        """Index of the next span; pass to the summaries to skip earlier ones."""
        return len(self.names)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every target; undone by :meth:`uninstall`."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for module_name, cls_name, attr, _ in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            name = span_name(module_name, cls_name, attr)
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name))
        for module_name, cls_name in STREAM_TARGETS:
            owner = getattr(importlib.import_module(module_name), cls_name)
            self._patch(owner, "_raw_stream", self._traced_streams(owner))
        return self

    def _traced_streams(self, owner) -> Callable:
        raw_stream = owner._raw_stream

        def traced_raw_stream(workload, pid):
            inner = raw_stream(workload, pid)
            return _TracedIterator(self.wrap(inner.__next__, STREAM_SPAN))

        return functools.update_wrapper(traced_raw_stream, raw_stream)

    def _patch(self, owner, attr: str, replacement: Callable) -> None:
        had_own = isinstance(owner, type) and attr in owner.__dict__
        original = owner.__dict__[attr] if had_own else getattr(owner, attr)
        setattr(owner, attr, replacement)
        if isinstance(owner, type) and not had_own:
            self._undo.append(lambda: delattr(owner, attr))
        else:
            self._undo.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def _self_times(self, since: int) -> List[float]:
        """Per-span self time for spans ``since`` onwards."""
        start, end, parent = self.start, self.end, self.parent
        n = len(self.names)
        own = [end[i] - start[i] for i in range(since, n)]
        for i in range(since, n):
            p = parent[i]
            if p >= since:
                own[p - since] -= end[i] - start[i]
        return own

    def layer_self(self, since: int = 0) -> Dict[str, float]:
        """Layer -> summed self time (s) of spans ``since`` onwards."""
        totals: Dict[str, float] = {}
        names = self.names
        for offset, own in enumerate(self._self_times(since)):
            layer = LAYER_OF[names[since + offset]]
            totals[layer] = totals.get(layer, 0.0) + own
        return totals

    def counts(self, since: int = 0) -> Counter:
        """Span name -> number of calls ``since`` onwards."""
        return Counter(self.names[since:])

    def total(self, name: str) -> float:
        """Summed duration (s) of the spans named ``name``."""
        start, end = self.start, self.end
        return sum(
            end[i] - start[i] for i, n in enumerate(self.names) if n == name
        )


def write_spans(path: str, tracers: Dict[str, Tracer]) -> None:
    """Write every span of ``tracers`` as JSON lines.

    Each line is ``[tracer label, index, parent index, name, start_s,
    end_s]``, times on the host's ``perf_counter`` clock and parent -1
    for a root span.
    """
    with open(path, "w") as fh:
        for label, tracer in tracers.items():
            names, parent = tracer.names, tracer.parent
            start, end = tracer.start, tracer.end
            for i, name in enumerate(names):
                fh.write(json.dumps([label, i, parent[i], name, start[i], end[i]]))
                fh.write("\n")
