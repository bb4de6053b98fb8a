"""The discrete-event kernel: one heap, one zero-delay lane.

This module is the hot path of every experiment — campaigns push
millions of events through ``run()``.  Pending events live in two
lanes, merged on ``(when, seq)``:

* a binary heap (``heapq``) of ``(when, seq, callback, args)`` tuples
  holds every timer — anything scheduled with a positive delay or at
  a later absolute time;
* a zero-delay *ready lane* (a deque) holds the wake/resume traffic
  that dominates campaigns: events due at the current instant are
  O(1) appends instead of heap pushes.

``seq`` is globally unique and assigned in scheduling-call order, so
the two lanes never tie past the first two tuple fields and the merged
stream is exactly the ``(when, seq)`` order of a single heap — the
order :mod:`repro.sim.reference` (the pre-optimization kernel, kept
verbatim as the test-side witness) executes.  Equivalence tests replay
identical programs through both and require byte-identical
fingerprints.

The ready lane stays sorted without any bookkeeping because virtual
time never runs backwards: inside ``run()`` appends happen at the
nondecreasing current time with increasing seq, and outside ``run()``
they all share one fixed ``now`` (``run(until=...)`` refuses to
rewind the clock).

Per-event overheads are flattened where profiles showed them: the
buffered :class:`TraceDigest`, slotted waitables, tombstoned waiter
lists, the inlined ``Timeout`` insert and the inlined wake/expire/
resume paths.

``run()`` also owns the cyclic garbage collector for its duration:
when the collector is enabled on entry it is disabled while events
execute and re-enabled on every exit.  A running cell allocates
thousands of long-lived objects and no cyclic garbage, so automatic
collections during ``run()`` only scan live cell state and promote it
towards the expensive full collections.  A caller that already paused
the collector (a campaign worker running a batch) keeps control: the
kernel leaves it alone.  No collection is forced either way.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import struct
from collections import deque
from types import MethodType
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

_INFINITY = float("inf")
_PACK_EVENT = struct.Struct("<dQ").pack
_heappush = heapq.heappush
_heappop = heapq.heappop

#: Buffered digest entries (two per event record) folded into blake2b
#: per ``update()`` call — ~1024 events a chunk.
_FLUSH_ENTRIES = 2048


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. bad delays, double-fire)."""


class TraceDigest:
    """A running fingerprint of the event trajectory.

    Every event the kernel executes folds ``(time, seq, kind)`` into a
    blake2b hash, where *kind* is the qualified name of the callback.
    Two runs with the same fingerprint executed the same events, at the
    same virtual times, in the same order — which makes the digest a
    cheap replayable witness for the determinism contract: same seed ⇒
    same digest, regardless of worker count or process boundary.

    Deliberately avoids ``hash()`` (randomized per process via
    ``PYTHONHASHSEED``) so fingerprints compare across processes.

    The byte stream hashed is exactly the reference implementation's
    (``struct.pack("<dQ", when, seq)`` followed by the UTF-8 encoded
    kind, per event) — but the work per event is trimmed two ways:

    * kind bytes are memoized: bound methods key on their underlying
      function object, everything else on the qualname string, so the
      qualname lookup and UTF-8 encode happen once per distinct
      callback kind instead of once per event;
    * records accumulate in a list and fold into blake2b in chunks of
      :attr:`FLUSH_RECORDS`, replacing two C-call ``update()``s per
      event with one ``b"".join`` + ``update()`` per thousand.  A
      stream hash digests identical bytes to an identical value no
      matter how they are split, so buffering is invisible to every
      committed golden digest.
    """

    __slots__ = ("_hash", "events", "_pending", "_func_kinds",
                 "_name_kinds")

    def __init__(self) -> None:
        self._hash = hashlib.blake2b(digest_size=16)
        self.events = 0
        #: Buffered (pack, kind) byte pairs awaiting one hash update.
        self._pending: List[bytes] = []
        #: plain function -> encoded kind (bound-method fast path).
        self._func_kinds: Dict[Any, bytes] = {}
        #: qualname string -> encoded kind (every other callable).
        self._name_kinds: Dict[str, bytes] = {}

    def record(self, when: float, seq: int, kind: str) -> None:
        """Fold one executed event into the fingerprint."""
        kind_bytes = self._name_kinds.get(kind)
        if kind_bytes is None:
            kind_bytes = kind.encode("utf-8", "replace")
            self._name_kinds[kind] = kind_bytes
        pending = self._pending
        pending.append(_PACK_EVENT(when, seq))
        pending.append(kind_bytes)
        self.events += 1
        if len(pending) >= _FLUSH_ENTRIES:
            self._flush()

    def _flush(self) -> None:
        if self._pending:
            self._hash.update(b"".join(self._pending))
            self._pending.clear()

    def hexdigest(self) -> str:
        """Hex fingerprint of every event folded in so far."""
        self._flush()
        return self._hash.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TraceDigest {self.hexdigest()} "
                f"({self.events} events)>")


def _event_kind(callback: Callable[..., None]) -> str:
    """A process-stable label for a scheduled callback."""
    kind = getattr(callback, "__qualname__", None)
    if kind is None:
        kind = type(callback).__qualname__
    return kind


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Waitable:
    """Base class for anything a process may yield on.

    A waitable is *fired* exactly once; firing wakes every process
    currently waiting on it and delivers :attr:`value` (or raises
    :attr:`exception` inside the waiter).

    Waiter bookkeeping: entries record their list index on the waiter
    (``_wait_index``), so :meth:`_discard_waiter` can tombstone its
    slot with ``None`` in O(1) instead of an O(n) ``list.remove``.
    Firing skips tombstones, preserving the survivors' subscription
    order bit-for-bit; heavily tombstoned lists compact in place.
    """

    __slots__ = ("sim", "fired", "value", "exception", "_waiters",
                 "_dead")

    #: Compact the waiter list once at least this many tombstones have
    #: accumulated *and* they outnumber the live entries.
    _COMPACT_MIN = 32

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.fired = False
        self.value: Any = None
        self.exception: Optional[BaseException] = None
        self._waiters: List[Any] = []
        self._dead = 0

    def _append_waiter(self, entry: Any) -> None:
        """Subscribe ``entry`` (a process or watcher) for the fire."""
        entry._wait_index = len(self._waiters)
        self._waiters.append(entry)

    def _discard_waiter(self, process: "Process") -> None:
        waiters = self._waiters
        index = process._wait_index
        if 0 <= index < len(waiters) and waiters[index] is process:
            waiters[index] = None
            dead = self._dead + 1
            self._dead = dead
            if dead >= self._COMPACT_MIN and dead * 2 >= len(waiters):
                self._compact()

    def _compact(self) -> None:
        live = [entry for entry in self._waiters if entry is not None]
        for index, entry in enumerate(live):
            entry._wait_index = index
        self._waiters = live
        self._dead = 0

    def _wake_waiters(self) -> None:
        """Schedule every live waiter's resume at the current instant.

        Inlines ``sim.schedule(0.0, waiter._resume, self)`` — the
        per-waiter call/packing overhead is measurable at campaign
        scale — and lands the wake events on the simulator's zero-delay
        ready lane instead of the timer heap.  ``now + 0.0`` (not
        ``now``) reproduces ``schedule``'s arithmetic bit-for-bit: the
        digest packs the event time, and ``-0.0 + 0.0`` is ``+0.0``.
        The event tuple layout must match :meth:`Simulator.schedule`.
        """
        waiters = self._waiters
        if not waiters:
            return
        self._waiters = []
        self._dead = 0
        sim = self.sim
        ready_append = sim._ready.append
        now = sim._now + 0.0
        seq = sim._seq
        args = (self,)
        for waiter in waiters:
            if waiter is not None:
                seq += 1
                ready_append((now, seq, waiter._resume, args))
        sim._seq = seq

    def fire(self, value: Any = None) -> None:
        """Fire the waitable, delivering ``value`` to all waiters."""
        if self.fired:
            raise SimulationError(f"{self!r} fired twice")
        self.fired = True
        self.value = value
        self._wake_waiters()

    def fail(self, exception: BaseException) -> None:
        """Fire the waitable with an exception raised inside waiters."""
        if self.fired:
            raise SimulationError(f"{self!r} fired twice")
        self.fired = True
        self.exception = exception
        self._wake_waiters()


class Timeout(Waitable):
    """Fires after a fixed virtual-time delay.

    The constructor and expiry callback are the single hottest
    allocation/dispatch pair in a campaign (every service delay is a
    timeout), so both flatten their call chains: ``__init__`` assigns
    the :class:`Waitable` fields directly and inserts its expiry event
    without going through :meth:`Simulator.schedule`, and ``_expire``
    inlines :meth:`Waitable.fire` minus the double-fire guard it
    performs itself.  Validation, event tuple layout, seq accounting
    and lane choice match ``schedule`` exactly, so event order is
    untouched.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not 0.0 <= delay < _INFINITY:
            raise SimulationError(
                f"timeout delay {delay!r} is not a finite, "
                "non-negative number")
        self.sim = sim
        self.fired = False
        self.value = None
        self.exception = None
        self._waiters = []
        self._dead = 0
        self.delay = delay
        seq = sim._seq + 1
        sim._seq = seq
        if delay:
            _heappush(sim._heap,
                      (sim._now + delay, seq, self._expire, (value,)))
        else:
            sim._ready.append(
                (sim._now + delay, seq, self._expire, (value,)))

    def _expire(self, value: Any) -> None:
        if self.fired:
            return
        self.fired = True
        self.value = value
        # Inlined _wake_waiters: one call per expiry saved, and expiry
        # is the single most frequent event kind in every campaign.
        waiters = self._waiters
        if not waiters:
            return
        self._waiters = []
        self._dead = 0
        sim = self.sim
        ready_append = sim._ready.append
        now = sim._now + 0.0
        seq = sim._seq
        args = (self,)
        for waiter in waiters:
            if waiter is not None:
                seq += 1
                ready_append((now, seq, waiter._resume, args))
        sim._seq = seq


class Signal(Waitable):
    """A one-shot event fired explicitly by some other process."""

    __slots__ = ()


class AnyOf(Waitable):
    """Fires when the first of its children fires.

    The value delivered is the ``(child, child_value)`` pair of the
    winning child.  Remaining children keep running; their eventual
    values are discarded.
    """

    __slots__ = ("children",)

    def __init__(self, sim: "Simulator", children: Iterable[Waitable]):
        super().__init__(sim)
        self.children = list(children)
        if not self.children:
            raise SimulationError("AnyOf needs at least one child")
        for child in self.children:
            self._watch(child)

    def _watch(self, child: Waitable) -> None:
        if child.fired:
            self.sim.schedule(0.0, self._child_fired, child)
        else:
            child._append_waiter(_Watcher(self, child))

    def _child_fired(self, child: Waitable) -> None:
        if self.fired:
            return
        if child.exception is not None:
            self.fail(child.exception)
        else:
            self.fire((child, child.value))


class AllOf(Waitable):
    """Fires when every child has fired; value is the list of values."""

    __slots__ = ("children", "_pending")

    def __init__(self, sim: "Simulator", children: Iterable[Waitable]):
        super().__init__(sim)
        self.children = list(children)
        self._pending = len(self.children)
        if self._pending == 0:
            sim.schedule(0.0, self.fire, [])
            return
        for child in self.children:
            if child.fired:
                sim.schedule(0.0, self._child_fired, child)
            else:
                child._append_waiter(_Watcher(self, child))

    def _child_fired(self, child: Waitable) -> None:
        if self.fired:
            return
        if child.exception is not None:
            self.fail(child.exception)
            return
        self._pending -= 1
        if self._pending == 0:
            self.fire([c.value for c in self.children])


class _Watcher:
    """Adapter letting composite waitables sit in a child's waiter list."""

    __slots__ = ("parent", "child", "_wait_index")

    def __init__(self, parent: Waitable, child: Waitable):
        self.parent = parent
        self.child = child
        self._wait_index = -1

    def _resume(self, _waitable: Waitable) -> None:
        self.parent._child_fired(self.child)  # type: ignore[attr-defined]


ProcessGenerator = Generator[Waitable, Any, Any]


class Process(Waitable):
    """A running process; also a waitable that fires on termination."""

    __slots__ = ("name", "_generator", "_target", "_interrupts",
                 "_wait_index")

    _ids = 0

    def __init__(self, sim: "Simulator", generator: ProcessGenerator,
                 name: Optional[str] = None):
        super().__init__(sim)
        Process._ids += 1
        self.name = name or f"proc-{Process._ids}"
        self._generator = generator
        self._target: Optional[Waitable] = None
        self._interrupts: List[Interrupt] = []
        self._wait_index = -1
        # Inlined ``sim.schedule(0.0, self._resume, None)`` onto the
        # ready lane (``+ 0.0`` matches schedule's arithmetic exactly).
        seq = sim._seq + 1
        sim._seq = seq
        sim._ready.append((sim._now + 0.0, seq, self._resume, (None,)))

    @property
    def alive(self) -> bool:
        return not self.fired

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point."""
        if self.fired:
            return
        self._interrupts.append(Interrupt(cause))
        if self._target is not None:
            self._target._discard_waiter(self)
            self._target = None
        self.sim.schedule(0.0, self._resume, None)

    def _resume(self, waitable: Optional[Waitable]) -> None:
        if self.fired:
            return
        if waitable is not None and waitable is not self._target:
            # Stale wake-up from a waitable we stopped caring about
            # (e.g. we were interrupted while waiting on it).
            return
        self._target = None
        try:
            if self._interrupts:
                interrupt = self._interrupts.pop(0)
                target = self._generator.throw(interrupt)
            elif waitable is not None and waitable.exception is not None:
                target = self._generator.throw(waitable.exception)
            else:
                value = waitable.value if waitable is not None else None
                target = self._generator.send(value)
        except StopIteration as stop:
            self.fire(stop.value)
            return
        except Interrupt as interrupt:
            # Process chose not to handle an interrupt: die quietly with
            # the cause as its value.
            self.fire(interrupt.cause)
            return
        while not isinstance(target, Waitable):
            # Misuse: the generator yielded something that cannot be
            # waited on.  Throw at the yield point; a generator that
            # catches the error may return (the process fires with the
            # return value) or yield a proper waitable (it resumes
            # waiting).  An uncaught throw propagates to the event
            # loop, as it always has.
            try:
                target = self._generator.throw(SimulationError(
                    f"process {self.name} yielded {target!r}, "
                    "which is not a Waitable"))
            except StopIteration as stop:
                self.fire(stop.value)
                return
        if self._interrupts:
            # An interrupt raced in while we were executing; deliver it
            # instead of blocking.
            self.sim.schedule(0.0, self._resume, None)
            return
        self._target = target
        # Subscribe to the target, inlined (one call per resume saved).
        # An already-fired target resumes us on the next tick, so
        # re-entrancy never bites.
        if target.fired:
            sim = self.sim
            seq = sim._seq + 1
            sim._seq = seq
            sim._ready.append((sim._now + 0.0, seq, self._resume, (target,)))
        else:
            self._wait_index = len(target._waiters)
            target._waiters.append(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.fired else "alive"
        return f"<Process {self.name} {state}>"


class Simulator:
    """Owns virtual time, the timer heap and the zero-delay lane."""

    __slots__ = ("_heap", "_ready", "_now", "_seq", "_running",
                 "digest")

    def __init__(self) -> None:
        #: Min-heap of pending timers, ``(when, seq, callback, args)``.
        self._heap: List[tuple] = []
        #: Zero-delay fast lane: events due at the current instant, in
        #: seq order (sorted by ``(when, seq)`` because the clock never
        #: runs backwards — see the module docstring).
        self._ready: deque = deque()
        self._now = 0.0
        self._seq = 0
        self._running = False
        #: Running trace fingerprint of every executed event.
        self.digest = TraceDigest()

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def fingerprint(self) -> str:
        """Hex trace digest of every event executed so far.

        Identical fingerprints mean identical event trajectories —
        the determinism contract checked by
        ``tests/test_determinism.py``.
        """
        return self.digest.hexdigest()

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time.

        ``delay`` must be finite and non-negative (``-0.0`` counts as
        zero); anything else — NaN included — raises
        :class:`SimulationError` instead of scrambling the heap order.
        """
        if not 0.0 <= delay < _INFINITY:
            raise SimulationError(
                f"delay {delay!r} is not a finite, non-negative number")
        seq = self._seq + 1
        self._seq = seq
        if delay:
            _heappush(self._heap, (self._now + delay, seq, callback, args))
        else:
            self._ready.append((self._now + delay, seq, callback, args))

    def schedule_at(self, when: float, callback: Callable[..., None],
                    *args: Any) -> None:
        """Run ``callback(*args)`` at absolute virtual time ``when``.

        Same seq assignment and validation as :meth:`schedule` with
        ``delay = when - now``, but ``when`` itself becomes the fire
        time: producers that precompute an exact time train (the
        cohort engine's ``w += tick`` recurrence) keep their exact
        floats instead of re-deriving them as ``now + (when - now)``.
        """
        delay = when - self._now
        if not 0.0 <= delay < _INFINITY:
            raise SimulationError(
                f"absolute time {when!r} is not a finite time at or "
                f"after now={self._now}")
        seq = self._seq + 1
        self._seq = seq
        if delay:
            _heappush(self._heap, (when + 0.0, seq, callback, args))
        else:
            self._ready.append((when + 0.0, seq, callback, args))

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def signal(self) -> Signal:
        return Signal(self)

    def any_of(self, children: Iterable[Waitable]) -> AnyOf:
        return AnyOf(self, children)

    def all_of(self, children: Iterable[Waitable]) -> AllOf:
        return AllOf(self, children)

    def spawn(self, generator: ProcessGenerator,
              name: Optional[str] = None) -> Process:
        """Start a new process from a generator."""
        return Process(self, generator, name)

    def run(self, until: Optional[float] = None) -> float:
        """Execute events until the queue drains or ``until`` is reached.

        Returns the virtual time at which execution stopped.  ``until``
        may not be NaN or earlier than :attr:`now` — the clock never
        runs backwards.

        The cyclic garbage collector is paused while events execute
        if it was enabled on entry, and re-enabled on every exit
        (drain, ``until`` stop or a raising callback); a collector the
        caller already disabled stays disabled.  Refcounting still
        frees the simulator's acyclic garbage immediately.
        """
        if self._running:
            raise SimulationError("run() is not re-entrant")
        if until is not None and not self._now <= until:
            raise SimulationError(
                f"run(until={until!r}) is before now={self._now}")
        heap = self._heap
        pop = _heappop
        digest = self.digest
        func_kinds_get = digest._func_kinds.get
        func_kinds = digest._func_kinds
        name_kinds_get = digest._name_kinds.get
        name_kinds = digest._name_kinds
        pending = digest._pending
        # ``pending`` is mutated via clear(), never rebound, so the
        # bound append stays valid across flushes.
        pending_append = pending.append
        hash_update = digest._hash.update
        pack = _PACK_EVENT
        method_type = MethodType
        ready = self._ready
        ready_popleft = ready.popleft
        stop_at = _INFINITY if until is None else until
        events = 0
        self._running = True
        gc_paused = gc.isenabled()
        if gc_paused:
            gc.disable()
        try:
            # Merge the heap with the zero-delay ready lane by head
            # comparison (seq is globally unique, so comparisons never
            # tie past the first two fields).  Ready events are due
            # now, hence never past ``until``; only the heap head needs
            # the stop check, made before popping.
            while True:
                if ready:
                    if heap and heap[0] < ready[0]:
                        event = pop(heap)
                    else:
                        event = ready_popleft()
                elif heap:
                    if heap[0][0] > stop_at:
                        self._now = until  # type: ignore[assignment]
                        break
                    event = pop(heap)
                else:
                    break
                when, seq, callback, args = event
                self._now = when
                # The digest of this event, inlined — the per-event
                # call overhead is measurable at campaign scale.  Hashes
                # exactly what ``digest.record(when, seq,
                # _event_kind(callback))`` would, memoizing bound
                # methods by their function object.
                if type(callback) is method_type:
                    func = callback.__func__
                    kind_bytes = func_kinds_get(func)
                    if kind_bytes is None:
                        kind_bytes = _event_kind(func).encode(
                            "utf-8", "replace")
                        func_kinds[func] = kind_bytes
                else:
                    kind = getattr(callback, "__qualname__", None)
                    if kind is None:
                        kind = type(callback).__qualname__
                    kind_bytes = name_kinds_get(kind)
                    if kind_bytes is None:
                        kind_bytes = kind.encode("utf-8", "replace")
                        name_kinds[kind] = kind_bytes
                pending_append(pack(when, seq))
                pending_append(kind_bytes)
                events += 1
                if len(pending) >= _FLUSH_ENTRIES:
                    hash_update(b"".join(pending))
                    pending.clear()
                callback(*args)
        finally:
            # Counted locally in the loop; synced even when a callback
            # raises.
            digest.events += events
            self._running = False
            if gc_paused:
                gc.enable()
        if until is not None and until > self._now:
            self._now = until
        return self._now
