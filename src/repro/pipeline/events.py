"""Typed pipeline event bus.

The stage modules under :mod:`repro.pipeline.stages` publish structured
events as they move instructions through the machine; everything that
used to observe :class:`~repro.pipeline.core.Core` by wrapping its
private methods (the tracer, the pipeline viewer, the dynamic-invariant
cross-checker, the control-flow statistics) now subscribes here
instead.  The contract:

* **Typed.** Every event is a dataclass; subscribers register per
  event *class* and receive exactly that class.  There is no string
  topic to typo.
* **Synchronous and deterministic.** ``publish`` invokes handlers
  inline, in subscription order.  Simulation results must be
  bit-identical whether or not anyone is listening, so handlers must
  not mutate simulator state.
* **Zero overhead when unsubscribed.** Publishing sites guard with
  :meth:`EventBus.wants` before *constructing* an event, so a bus with
  no subscriber for a type costs one dict-membership test and zero
  allocations on that path.  ``Event.constructed`` and
  :attr:`EventBus.published` exist so tests can prove it.
* **Frozen.** An event's fields cannot be reassigned once it is built,
  so every subscriber sees the payload the publisher built.

Events carry live references (uops, hardware contexts, streams) — they
are cheap and exact, but they are views into mutable simulator state.
A subscriber that needs a value *as of the event* must copy it in the
handler (the tracer stringifies; the cross-checker snapshots).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Tuple, Type

from ..compat import frozen_slots_dataclass as _event_dataclass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..recycle.stream import RecycleStream, StreamKind
    from .context import HardwareContext
    from .instance import ProgramInstance
    from .uop import Uop


@_event_dataclass
class Event:
    """Base class for all bus events.

    ``cycle`` is the simulator cycle at publish time.  The class-level
    ``constructed`` counter is a test hook: it counts every event
    object ever built, which is how the no-allocation guarantee of an
    unsubscribed bus is enforced by tests.
    """

    constructed = 0  # class attribute: total events ever instantiated

    cycle: int

    def __post_init__(self) -> None:
        Event.constructed += 1  # shr-ok: monotone test-hook counter, never read by simulation


# ----------------------------------------------------------------------
# Per-stage events (in pipeline order)
# ----------------------------------------------------------------------
@_event_dataclass
class FetchBlock(Event):
    """A fetch block was delivered for one context (``count`` > 0)."""

    ctx: "HardwareContext"
    count: int
    next_pc: int  # the context's fetch PC after the block


@_event_dataclass
class StreamOpened(Event):
    """A recycle stream was opened at a merge point (Section 3.2)."""

    dst: "HardwareContext"
    src: "HardwareContext"
    stream: "RecycleStream"
    kind: "StreamKind"
    merge_pc: int
    length: int  # entries snapshotted into the stream


@_event_dataclass
class StreamEnded(Event):
    """A recycle stream stopped (exhausted / squashed / repredicted)."""

    dst: "HardwareContext"
    stream: "RecycleStream"
    reason: str
    delivered: int  # entries actually injected into rename


@_event_dataclass
class Renamed(Event):
    """One instruction passed rename (fetched, recycled, or reused)."""

    uop: "Uop"


@_event_dataclass
class Reused(Event):
    """A recycled instruction's old result was *reused* (Section 3.5).

    ``consistent`` is a snapshot of the stream's re-established
    registers taken *before* this reuse was installed — the exact
    set the reuse decision was judged against.
    """

    uop: "Uop"
    dst: "HardwareContext"
    src: "HardwareContext"
    pc: int
    srcs: Tuple[int, ...]
    consistent: frozenset
    stream: "RecycleStream"


@_event_dataclass
class Forked(Event):
    """A low-confidence branch forked its alternate path (TME)."""

    parent: "HardwareContext"
    spare: "HardwareContext"
    branch: "Uop"
    alt_pc: int


@_event_dataclass
class Respawned(Event):
    """An inactive trace was re-activated through the recycle path."""

    parent: "HardwareContext"
    ctx: "HardwareContext"
    branch: "Uop"
    alt_pc: int


@_event_dataclass
class Issued(Event):
    """One instruction issued to a functional unit and began execution."""

    uop: "Uop"


@_event_dataclass
class StoreForwarded(Event):
    """A load's value came from an in-flight older store, not memory.

    Published at issue when the indexed memory path finds a completed
    older store to the same cell (``store.store_bits`` is what the load
    receives).  The cross-checker's M6 rule verifies the pair against
    the static alias classes.
    """

    load: "Uop"
    store: "Uop"
    address: int
    ctx: "HardwareContext"


@_event_dataclass
class Completed(Event):
    """One instruction finished execution this cycle."""

    uop: "Uop"


@_event_dataclass
class BranchResolved(Event):
    """A branch resolved at completion.

    ``covered`` is true exactly when the mispredict was absorbed by a
    forked alternate (a primaryship swap follows).
    """

    uop: "Uop"
    ctx: "HardwareContext"
    mispredicted: bool
    on_arch_path: bool
    is_cond: bool
    covered: bool


@_event_dataclass
class PrimarySwapped(Event):
    """A fork branch mispredicted; its alternate became the primary."""

    old: "HardwareContext"
    new: "HardwareContext"
    branch: "Uop"


@_event_dataclass
class Squashed(Event):
    """One in-flight instruction was squashed."""

    uop: "Uop"


@_event_dataclass
class Retired(Event):
    """One instruction committed architecturally."""

    uop: "Uop"
    instance: "ProgramInstance"


#: Every event type a core can publish, in pipeline order.  Tests use
#: this to prove the workload suite exercises the whole catalogue.
ALL_EVENT_TYPES: Tuple[Type[Event], ...] = (
    FetchBlock,
    StreamOpened,
    StreamEnded,
    Renamed,
    Reused,
    Forked,
    Respawned,
    Issued,
    StoreForwarded,
    Completed,
    BranchResolved,
    PrimarySwapped,
    Squashed,
    Retired,
)


class EventBus:
    """Synchronous, type-keyed publish/subscribe hub.

    Handlers for one event type run in subscription order; publishing
    an event type nobody subscribed to never happens (call sites guard
    with :meth:`wants`), which is what keeps the bus free when unused.
    """

    def __init__(self) -> None:
        self._handlers: Dict[Type[Event], List[Callable[[Event], None]]] = {}
        #: Public read-only alias of the handler table: hot publish
        #: sites test ``EventType in bus.active`` (a plain dict
        #: membership check) instead of calling :meth:`wants`.  The
        #: dict object is stable for the bus's lifetime; subscribe /
        #: unsubscribe mutate it in place.
        self.active: Dict[Type[Event], List[Callable[[Event], None]]] = self._handlers
        #: Publish counts per event type (test/diagnostic hook).
        self.published: Dict[Type[Event], int] = {}

    def wants(self, event_type: Type[Event]) -> bool:
        """Is anyone listening?  Publish sites must check this first."""
        return event_type in self._handlers

    def subscribe(
        self, event_type: Type[Event], handler: Callable[[Event], None]
    ) -> Callable[[], None]:
        """Register ``handler`` for ``event_type``; returns an unsubscriber.

        Unsubscribing the last handler of a type restores the
        zero-overhead fast path for that type.
        """
        if not (isinstance(event_type, type) and issubclass(event_type, Event)):
            raise TypeError(f"not an event type: {event_type!r}")
        handlers = self._handlers.setdefault(event_type, [])
        handlers.append(handler)

        def unsubscribe() -> None:
            try:
                handlers.remove(handler)
            except ValueError:
                pass
            if not handlers:
                self._handlers.pop(event_type, None)

        return unsubscribe

    def subscribe_many(
        self, handlers: Dict[Type[Event], Callable[[Event], None]]
    ) -> List[Callable[[], None]]:
        """Subscribe a type→handler mapping; returns the unsubscribers."""
        return [self.subscribe(etype, fn) for etype, fn in handlers.items()]  # det-ok: subscription order follows the caller's literal dict, which is deterministic

    def publish(self, event: Event) -> None:
        """Deliver ``event`` to its type's handlers, in order.

        Handlers must not subscribe/unsubscribe this event's type from
        inside the callback.
        """
        etype = type(event)
        self.published[etype] = self.published.get(etype, 0) + 1
        for handler in self._handlers.get(etype, ()):
            handler(event)
