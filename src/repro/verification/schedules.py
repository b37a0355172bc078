"""Schedule enumeration support for the protocol model checker.

The event kernel exposes the only interleaving freedom a run has — the
order of same-cycle events — via :meth:`Simulator.enabled` /
:meth:`Simulator.step_select`.  A *schedule* is the list of choice
indices taken at each decision point (a point where more than one event
is enabled); replaying the same schedule against a freshly built machine
reproduces the exact run, which is what makes counterexamples printable
and shrinkable.

This module provides the pieces the checker composes:

* :func:`describe_entry` — human-readable labels for queued events, so a
  counterexample trace reads like a protocol transcript;
* :func:`format_schedule` / :func:`parse_schedule` — the printable form
  (``"0,2,1"``) users can feed back via ``repro check --replay``;
* :class:`StateFingerprinter` — a replay-stable structural hash of the
  full machine state (components + pending events), used to prune
  interleavings that converge to an already-explored state.
"""

from __future__ import annotations

import random
from collections import deque
from enum import Enum
from functools import partial
from operator import attrgetter, itemgetter
from types import BuiltinFunctionType, FunctionType, MethodType, ModuleType
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
def format_schedule(schedule: List[int]) -> str:
    """Printable form of a schedule (empty list -> ``"-"``)."""
    return ",".join(str(c) for c in schedule) if schedule else "-"


def parse_schedule(text: str) -> List[int]:
    """Inverse of :func:`format_schedule`."""
    text = text.strip()
    if not text or text == "-":
        return []
    try:
        choices = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"malformed schedule {text!r}; want e.g. '0,2,1'")
    if any(c < 0 for c in choices):
        raise ValueError(f"schedule indices must be >= 0: {text!r}")
    return choices


# ----------------------------------------------------------------------
# Event labels
# ----------------------------------------------------------------------
def _callable_label(fn: Any) -> str:
    """``owner.method`` label for an event callback."""
    if isinstance(fn, partial):
        return _callable_label(fn.func)
    owner = getattr(fn, "__self__", None)
    name = getattr(fn, "__name__", None) or getattr(
        fn, "__qualname__", repr(fn)
    )
    if owner is not None:
        owner_name = getattr(owner, "name", type(owner).__name__)
        return f"{owner_name}.{name}"
    return str(name)


def describe_entry(entry: Tuple) -> str:
    """One-line label for a heap entry: ``t=12 cache0._classify(...)``."""
    time, _tie, _seq, _event, fn, args = entry
    brief = []
    for arg in args:
        text = repr(arg)
        if len(text) > 40:
            text = text[:37] + "..."
        brief.append(text)
    return f"t={time} {_callable_label(fn)}({', '.join(brief)})"


# ----------------------------------------------------------------------
# State fingerprinting
# ----------------------------------------------------------------------
#: A state fingerprint: one flat tuple of atoms (see StateFingerprinter).
Fingerprint = Tuple[Any, ...]

_KERNEL = "the event kernel; its queue is frozen separately"
_STATS = "statistics only; never read back by protocol logic"
_CONFIG = "build-time configuration, equal on every machine of a search"
_WIRING = "constant wiring fixed at build time"
_DISPATCH = "message-kind dispatch table; constant wiring"
_HOLDERS = (
    "copy-holder index; scenario machines deliver every broadcast copy "
    "(Machine.use_per_copy_fanout), so nothing reads it"
)

#: Fields that never feed back into protocol behaviour, per class, each
#: with the reason it may be dropped.  An entry applies to the class it
#: names and to every subclass; dropping a field merges states that
#: differ only in it.  Anything not listed is included — erring toward
#: inclusion is always sound (it only reduces pruning).
_SKIP_FIELDS: Dict[str, Dict[str, str]] = {
    "Component": {"sim": _KERNEL, "counters": _STATS},
    "AbstractCacheController": {"config": _CONFIG},
    "AbstractMemoryController": {"config": _CONFIG},
    "SnoopBusManager": {"config": _CONFIG},
    "DirectoryCacheController": {
        "home_fn": _WIRING,
        "_deliver_table": _DISPATCH,
    },
    "ClassicalCacheController": {"home_fn": _WIRING, "holders": _HOLDERS},
    "ClassicalMemoryController": {"holders": _HOLDERS},
    "StaticCacheController": {"home_fn": _WIRING},
    "TwoBitDirectoryController": {
        "_deliver_table": _DISPATCH,
        "holders": _HOLDERS,
    },
    "Network": {
        "_deliver_fns": _WIRING,
        "_endpoints": _WIRING,
        "_member_bits": _WIRING,
    },
    "Processor": {
        "stream": "its position is captured by Processor.issued",
        "exhausted": "follows from the script length and Processor.issued",
        "on_drained": _WIRING,
        "latency_histogram": _STATS,
        "fused_fast": _STATS,
        # Fast-path bookkeeping: batched statistics, and the constant
        # transition-table fields and component aliases it caches (the
        # cache array and oracle are frozen at their owners).
        "_acc": _STATS,
        "_cpend": _STATS,
        "_hpend": _STATS,
        "_kernel": _WIRING,
        "_has_op_flag": _WIRING,
        "_pre_shared_escape": _WIRING,
        "_lookup_phase": _WIRING,
        "_r_clean": _WIRING,
        "_r_dirty": _WIRING,
        "_w_clean": _WIRING,
        "_w_dirty": _WIRING,
        "_lru_touch": _WIRING,
        "_replayable": _WIRING,
        "_array": "alias of the cache's array, frozen at the cache",
        "_oracle": "alias of the machine's oracle, frozen once",
    },
    "CacheArray": {
        # Sound only because no policy reads the clock's absolute value:
        # lines are stamped with it, and replacement compares stamps
        # with each other (LRU, FIFO) or with 0 ("never stamped"), so
        # states whose clocks differ behave alike.
        "_clock": "LRU use counter; replacement compares stamps relatively",
    },
    "TwoBitDirectory": {
        "_clock": "stats clock callable",
        "_since": _STATS,
        "_time_in": _STATS,
        "transitions": _STATS,
        "observer": "transition probe callback (telemetry)",
    },
    "TransactionEngine": {
        "_start_fn": _WIRING,
        "max_concurrency": _STATS,
        "max_queue_depth": _STATS,
    },
    "TranslationBuffer": {"hits": _STATS, "misses": _STATS},
    "CoherenceOracle": {"reads_checked": _STATS, "writes_committed": _STATS},
    "FaultInjector": {"sim": _KERNEL, "counters": _STATS},
    "Message": {
        "uid": "never read by protocol logic; drawn from a global counter",
    },
}

#: Classes frozen to a constant (pure configuration / statistics).
_SKIP_CLASSES = frozenset(
    {
        "CounterSet",
        "CounterRegistry",
        "Histogram",
        "MachineConfig",
        "TimingConfig",
        "ProtocolOptions",
        "AddressMap",
        "FaultSpec",  # frozen plan data; behaviour is in the injector RNG
    }
)

#: Callable classes that are pure wiring: an instance freezes to its
#: class name, like a function.  Any other callable object is frozen
#: field by field.
_WIRING_CALLABLES = frozenset({"_CacheHoldersFn"})

#: Dict-valued attributes whose values are transaction uids that must be
#: canonically renumbered (module-global counters differ across replays).
_UID_VALUE_ATTRS = frozenset(
    {
        "_inflight_clean_ejects",
        "_cancelled_mreqs",
        "_revoked_ejects",
        "_dirty_eject_uids",
    }
)

#: Set-valued attributes of tuples whose *last* element is a uid, and
#: dict-valued attributes keyed by such tuples.  Sorted by their stable
#: prefix (then raw uid, whose relative order is replay-stable) before
#: canonical renumbering, because set iteration order depends on the raw
#: uid values.
_UID_TUPLE_SET_ATTRS = frozenset(
    {"_admitted_cmds", "_eject_retry_scheduled", "_scrubbed_mreqs"}
)
_UID_TUPLE_KEY_ATTRS = frozenset({"_eject_retries"})


def _uid_tuple_sort_key(t: tuple):
    uid = t[-1]
    return (repr(t[:-1]), not isinstance(uid, int), uid if isinstance(uid, int) else 0)

#: Message.meta keys holding transaction uids.
_UID_META_KEYS = frozenset({"txn", "ej"})


class _Mark:
    """A marker in the flat encoding; equal only to itself, so no atom
    of machine state can be mistaken for one."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"<{self.name}>"


_SEQ, _SET, _DICT, _DEQUE, _META = (
    _Mark(n) for n in ("seq", "set", "dict", "deque", "meta")
)
_UID, _UID_VALUES, _UID_SET, _UID_KEYS = (
    _Mark(n) for n in ("uid", "uid-values", "uid-set", "uid-keys")
)
_OBJ, _REF, _CYCLE, _SKIP, _ENUM = (
    _Mark(n) for n in ("obj", "ref", "cycle", "skip", "enum")
)
_FN, _METHOD, _PARTIAL, _RNG, _FAULTS = (
    _Mark(n) for n in ("fn", "method", "partial", "rng", "faults")
)

#: Types emitted as themselves (exact types; subclasses are classified
#: once by :func:`_handler_for`).
_ATOMS = frozenset({type(None), bool, int, float, str, bytes})


def _skip_fields(cls: type) -> Dict[str, str]:
    """The :data:`_SKIP_FIELDS` entries that apply to ``cls``."""
    fields: Dict[str, str] = {}
    for klass in reversed(cls.__mro__):
        fields.update(_SKIP_FIELDS.get(klass.__name__, ()))
    return fields


class _Plan:
    """How to freeze instances of one class with one attribute set.

    ``token`` opens the object in the flat encoding and names its kept
    attributes, so the values that follow need no labels; ``get`` fetches
    those values in sorted attribute order; ``special`` holds, per value,
    the uid-canonicalizing emitter it needs (None for a plain value).
    """

    __slots__ = ("token", "get", "special", "dropped")

    def __init__(self, cls: type, attrs: Sequence[str], slotted: bool) -> None:
        skip = _skip_fields(cls)
        name = cls.__name__
        kept = tuple(a for a in sorted(attrs) if a not in skip)
        self.dropped = tuple(
            (name, a) for a in sorted(set(attrs)) if a in skip
        )
        self.token = (_OBJ, name, kept)
        self.special = tuple(_special_emitter(name, a) for a in kept)
        fetch = attrgetter if slotted else itemgetter
        if not kept:
            self.get = lambda obj: ()
        elif len(kept) == 1:
            one = fetch(kept[0])
            self.get = lambda obj: (one(obj),)
        else:
            self.get = fetch(*kept)


#: Plans by (class, instance attribute names); None for slotted classes.
#: Process-wide: a plan depends only on its key and the constant tables
#: above, and ``replay_schedule`` builds a fingerprinter per schedule.
_PLANS: Dict[Tuple[type, Optional[tuple]], _Plan] = {}
#: Emitter by exact value type (see :func:`_handler_for`).
_HANDLERS: Dict[type, Callable[["StateFingerprinter", Any], None]] = {}


class StateFingerprinter:
    """Structural, replay-stable fingerprint of a whole machine.

    The fingerprint covers every behaviour-bearing piece of state: cache
    arrays, write-back buffers, pending operations, directory entries,
    engine queues, memory contents, the oracle's commit history, network
    cursors, and the pending event queue (relative order only — absolute
    sequence numbers are history-dependent).  Transaction uids drawn from
    module-global counters are renumbered in traversal order, so two
    replays that reach structurally identical states produce identical
    fingerprints even though their raw uids differ.

    A fingerprint is one flat tuple of atoms: ints, strings and the like
    as they are, containers as a marker and a length followed by their
    items, objects as a token naming their class and kept attributes
    followed by the attribute values.  Dict and set items appear sorted
    by the ``repr`` of their key (of the key's encoding, for keys that
    are not atoms), so insertion history never splits states.  How to
    walk each class is compiled once into a :class:`_Plan` and shared by
    every fingerprinter.

    A fresh instance is required per fingerprint call set against one
    machine; the component identity map is built once.
    """

    def __init__(self, machine) -> None:
        self.machine = machine
        m = machine
        self._components: List[Any] = [
            *m.processors,
            *m.caches,
            *m.controllers,
            *m.modules,
            *m.managers,
            m.network,
            m.oracle,
        ]
        #: id -> the token that stands for a component referenced from
        #: outside its own walk.
        self._refs: Dict[int, tuple] = {
            id(comp): (_REF, comp.name) for comp in self._components[:-1]
        }
        self._refs[id(m.oracle)] = (_REF, "oracle")
        #: Plans this fingerprinter has used (see :meth:`dropped_fields`).
        self._plans: Dict[Tuple[type, Optional[tuple]], _Plan] = {}

    def fingerprint(self) -> Fingerprint:
        """Hashable state snapshot (see class docstring)."""
        out: List[Any] = []
        self._out = out
        self._append = out.append
        self._uids: Dict[int, int] = {}
        self._active: set = set()
        self._target = 0
        sim = self.machine.sim
        out.append(sim.now)
        faults = getattr(self.machine, "faults", None)
        if faults is not None:
            # The injector's RNG stream, path cursors, and stall windows
            # all feed back into future behaviour.
            out.append(_FAULTS)
            self._emit(faults)
        for comp in self._components:
            # While a component is the emit target it is frozen in full;
            # any reference to a *different* component collapses to its
            # ref token, so each component's state appears exactly once
            # no matter how densely the wiring cross-links them.
            self._target = id(comp)
            self._emit(comp)
        self._target = 0
        # seq is omitted: only the relative order matters for future
        # behaviour, and absolute values depend on how many events the
        # particular interleaving has allocated so far.  (Sorting the
        # entries themselves orders by (time, tie, seq): seq is unique.)
        live = sorted(
            entry
            for entry in sim._queue
            if entry[3] is None or not entry[3].cancelled
        )
        out.append(len(live))
        for entry in live:
            out.append(entry[0])
            self._emit(entry[4])
            self._emit(entry[5])
        return tuple(out)

    def dropped_fields(self) -> List[Tuple[str, str]]:
        """Sorted (class, attribute) pairs this fingerprinter's walks
        have left out of the state (see :data:`_SKIP_FIELDS`)."""
        return sorted(
            {pair for plan in self._plans.values() for pair in plan.dropped}
        )

    # -- emitters ------------------------------------------------------
    def _emit(self, obj: Any) -> None:
        kind = type(obj)
        if kind in _ATOMS:
            self._append(obj)
        else:
            (_HANDLERS.get(kind) or _handler_for(kind))(self, obj)

    def _emit_uid(self, uid: Any) -> None:
        if isinstance(uid, int):
            uids = self._uids
            self._append(_UID)
            self._append(uids.setdefault(uid, len(uids)))
        else:
            self._emit(uid)

    def _emit_object(self, obj: Any, slotted: bool = False) -> None:
        oid = id(obj)
        ref = self._refs.get(oid)
        if ref is not None and oid != self._target:
            self._append(ref)
            return
        active = self._active
        if oid in active:
            self._append((_CYCLE, type(obj).__name__))
            return
        cls = type(obj)
        if slotted:
            source = obj
            key = (cls, None)
        else:
            source = obj.__dict__
            key = (cls, tuple(source))
        plan = self._plans.get(key) or self._load_plan(key, slotted)
        try:
            values = plan.get(source)
        except AttributeError:
            # An unset slot: plan for the slots this instance has.
            key = (cls, tuple(a for a in _all_slots(cls) if hasattr(obj, a)))
            plan = self._plans.get(key) or self._load_plan(key, True)
            values = plan.get(obj)
        active.add(oid)
        append = self._append
        append(plan.token)
        for special, value in zip(plan.special, values):
            if special is not None:
                special(self, value)
            elif type(value) in _ATOMS:
                append(value)
            else:
                kind = type(value)
                (_HANDLERS.get(kind) or _handler_for(kind))(self, value)
        active.discard(oid)

    def _load_plan(self, key, slotted: bool) -> _Plan:
        plan = _PLANS.get(key)
        if plan is None:
            cls, attrs = key
            plan = _PLANS[key] = _Plan(
                cls, _all_slots(cls) if attrs is None else attrs, slotted
            )
        self._plans[key] = plan
        return plan

    def _emit_seq(self, seq: Any, mark: _Mark = _SEQ) -> None:
        append = self._append
        append(mark)
        append(len(seq))
        for item in seq:
            if type(item) in _ATOMS:
                append(item)
            else:
                self._emit(item)

    def _emit_deque(self, seq: Any) -> None:
        self._emit_seq(seq, _DEQUE)

    def _emit_set(self, items: Any) -> None:
        if all(type(item) in _ATOMS for item in items):
            self._append(_SET)
            self._append(len(items))
            self._out.extend(sorted(items, key=repr))
        else:
            self._emit_items(_SET, dict.fromkeys(items), _no_value)

    def _emit_dict(self, mapping: dict) -> None:
        self._emit_items(_DICT, mapping, _plain_value)

    def _emit_meta(self, meta: dict) -> None:
        """Message.meta: a dict whose uid-bearing keys are renumbered."""
        self._emit_items(_META, meta, _meta_value)

    def _emit_uid_values(self, value: Any) -> None:
        """A dict whose values are uids (see :data:`_UID_VALUE_ATTRS`)."""
        if isinstance(value, dict):
            self._emit_items(_UID_VALUES, value, _uid_value)
        else:
            self._emit(value)

    def _emit_items(self, mark: _Mark, mapping: dict, emit_value) -> None:
        """``mark``, the length, then each key and its value, ordered by
        the ``repr`` of the key (of the key's encoding, for a key that
        is not an atom).

        Items are emitted in iteration order first, so uids are numbered
        in that order as before; only then are the emitted runs sorted.
        """
        append = self._append
        append(mark)
        append(len(mapping))
        if len(mapping) == 1:
            for key, value in mapping.items():
                self._emit(key)
                emit_value(self, key, value)
            return
        out = self._out
        runs = []
        for key, value in mapping.items():
            start = len(out)
            self._emit(key)
            order = (
                repr(key) if type(key) in _ATOMS else repr(tuple(out[start:]))
            )
            emit_value(self, key, value)
            runs.append((order, out[start:]))
            del out[start:]
        runs.sort(key=itemgetter(0))
        for _, run in runs:
            out.extend(run)

    def _emit_uid_tuple(self, t: tuple) -> None:
        append = self._append
        append(len(t))
        for item in t[:-1]:
            self._emit(item)
        self._emit_uid(t[-1])

    def _emit_uid_set(self, value: Any) -> None:
        """A set of uid-ended tuples (see :data:`_UID_TUPLE_SET_ATTRS`)."""
        if not isinstance(value, (set, frozenset)):
            self._emit(value)
            return
        self._append(_UID_SET)
        self._append(len(value))
        for t in sorted(value, key=_uid_tuple_sort_key):
            self._emit_uid_tuple(t)

    def _emit_uid_keys(self, value: Any) -> None:
        """A dict keyed by uid-ended tuples (:data:`_UID_TUPLE_KEY_ATTRS`)."""
        if not isinstance(value, dict):
            self._emit(value)
            return
        self._append(_UID_KEYS)
        self._append(len(value))
        for key in sorted(value, key=_uid_tuple_sort_key):
            self._emit_uid_tuple(key)
            self._emit(value[key])

    def _emit_partial(self, fn: partial) -> None:
        self._append(_PARTIAL)
        self._emit(fn.func)
        self._emit_seq(fn.args)
        self._emit_dict(fn.keywords)

    def _emit_rng(self, rng: random.Random) -> None:
        self._append(_RNG)
        self._append(rng.getstate())

    def _emit_callable(self, fn: Any) -> None:
        """A function freezes to its name, a bound method to its owner
        and name."""
        owner = getattr(fn, "__self__", None)
        if owner is None or isinstance(owner, ModuleType):
            self._append((_FN, fn.__qualname__))
        else:
            self._append(_METHOD)
            self._emit(owner)
            self._append(fn.__qualname__)


def _plain_value(fp: StateFingerprinter, key: Any, value: Any) -> None:
    fp._emit(value)


def _no_value(fp: StateFingerprinter, key: Any, value: Any) -> None:
    pass


def _uid_value(fp: StateFingerprinter, key: Any, value: Any) -> None:
    fp._emit_uid(value)


def _meta_value(fp: StateFingerprinter, key: Any, value: Any) -> None:
    if key in _UID_META_KEYS:
        fp._emit_uid(value)
    else:
        fp._emit(value)


def _all_slots(cls: type) -> tuple:
    return tuple(
        a for klass in cls.__mro__ for a in getattr(klass, "__slots__", ())
    )


def _special_emitter(cls_name: str, attr: str) -> Optional[Callable]:
    """The uid-canonicalizing emitter ``cls_name.attr`` needs, if any."""
    if attr == "uid":
        return StateFingerprinter._emit_uid
    if cls_name == "Message" and attr == "meta":
        return StateFingerprinter._emit_meta
    if attr in _UID_VALUE_ATTRS:
        return StateFingerprinter._emit_uid_values
    if attr in _UID_TUPLE_SET_ATTRS:
        return StateFingerprinter._emit_uid_set
    if attr in _UID_TUPLE_KEY_ATTRS:
        return StateFingerprinter._emit_uid_keys
    return None


def _constant(token: tuple) -> Callable[[StateFingerprinter, Any], None]:
    return lambda fp, obj: fp._append(token)


def _enum_handler(cls: type) -> Callable[[StateFingerprinter, Any], None]:
    tokens = {name: (_ENUM, cls.__name__, name) for name in cls.__members__}

    def emit(fp: StateFingerprinter, member: Enum) -> None:
        name = member._name_
        fp._append(tokens.get(name) or (_ENUM, cls.__name__, name))

    return emit


def _handler_for(cls: type) -> Callable[[StateFingerprinter, Any], None]:
    """Classify a value type once; the emitter is cached per class."""
    fp = StateFingerprinter
    if issubclass(cls, (bool, int, float, str, bytes)):
        handler = lambda fp, obj: fp._append(obj)  # noqa: E731
    elif issubclass(cls, Enum):
        handler = _enum_handler(cls)
    elif issubclass(cls, (tuple, list)):
        handler = fp._emit_seq
    elif issubclass(cls, (set, frozenset)):
        handler = fp._emit_set
    elif issubclass(cls, dict):
        handler = fp._emit_dict
    elif issubclass(cls, partial):
        handler = fp._emit_partial
    elif issubclass(cls, random.Random):
        handler = fp._emit_rng
    elif issubclass(cls, (FunctionType, MethodType, BuiltinFunctionType)):
        handler = fp._emit_callable
    elif cls.__name__ in _WIRING_CALLABLES:
        handler = _constant((_FN, cls.__name__))
    elif issubclass(cls, deque):
        handler = fp._emit_deque
    elif cls.__name__ in _SKIP_CLASSES:
        handler = _constant((_SKIP, cls.__name__))
    elif cls.__dictoffset__:
        handler = fp._emit_object
    else:
        handler = _emit_slotted
    _HANDLERS[cls] = handler
    return handler


def _emit_slotted(fp: StateFingerprinter, obj: Any) -> None:
    fp._emit_object(obj, slotted=True)
