"""Per-layer span tracing installed from outside the program.

A :class:`Tracer` wraps every function and method defined in the
modules of each layer package (``repro.sim``, ``repro.net``, ...) so
that each call records one span: ``(name, start, end, parent)``.
Generator functions — the simulator's processes — get a span per
resumption, so the work a process does between two ``yield``s is
charged to the process's layer and not to the kernel that resumed it.

Spans live in flat ``array`` buffers in memory and are written once,
when the run ends.  A layer's *self time* is the summed duration of
its spans minus the part covered by their child spans; the time of a
root span (one per timed pass) covered by no layer span is reported
as unattributed.

Wrappers keep ``__qualname__``/``__module__`` (``functools.wraps``),
so the kernel's event-kind labels — and with them the trace digests —
are the same traced and untraced.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import sys
import time
import types
from array import array
from typing import Dict, List, Tuple

import numpy as np

#: Layer name -> package.  ``vision`` and ``chaos`` are on no
#: workload's default path and stay unmeasured.
LAYERS: Dict[str, str] = {
    "sim": "repro.sim",
    "net": "repro.net",
    "cluster": "repro.cluster",
    "dsp": "repro.dsp",
    "scatter": "repro.scatter",
    "scatterpp": "repro.scatterpp",
    "flow": "repro.flow",
    "orchestra": "repro.orchestra",
    "metrics": "repro.metrics",
    "cohort": "repro.cohort",
    "mobility": "repro.mobility",
    "experiments": "repro.experiments",
}

#: Span categories that are not layers: the benchmark's root span per
#: timed pass, and the campaign parent blocked on its workers.
ROOT = "root"
POOL_WAIT = "experiments.pool.wait"

#: Attribute marking the benchmark's own hooks, which are never wrapped.
HOOK = "__perfbench_hook__"

#: Dunder methods worth a span; the rest (``__repr__``, ``__eq__``,
#: ``__hash__`` ...) are bookkeeping that would only add overhead.
_DUNDERS = ("__init__", "__call__")


def import_layers() -> None:
    """Import every module of every layer, so lazily imported modules
    are wrapped too."""
    for package_name in LAYERS.values():
        package = importlib.import_module(package_name)
        for info in pkgutil.iter_modules(package.__path__,
                                         package_name + "."):
            importlib.import_module(info.name)


def _layer_of(module_name: str):
    for layer, package in LAYERS.items():
        if module_name == package or module_name.startswith(package + "."):
            return layer
    return None


class Tracer:
    """In-memory span buffers plus the wrappers that fill them."""

    def __init__(self) -> None:
        #: name id -> (category, qualified name); category is a layer,
        #: :data:`ROOT` or :data:`POOL_WAIT`.
        self.names: List[Tuple[str, str]] = [(ROOT, ROOT)]
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: List[int] = [-1]

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Empty the buffers in place (wrappers keep their references)."""
        for buffer in (self.name_ids, self.parents, self.starts,
                       self.ends):
            del buffer[:]
        del self.stack[1:]

    @contextlib.contextmanager
    def root(self):
        """One root span around a timed pass."""
        index = self.open_span(0)
        try:
            yield
        finally:
            self.close_span(index)

    def open_span(self, nid: int) -> int:
        index = len(self.name_ids)
        self.name_ids.append(nid)
        self.parents.append(self.stack[-1])
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.stack.append(index)
        return index

    def close_span(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, category: str):
        """A span-recording wrapper for ``fn`` under ``category``."""
        self.names.append((category, f"{fn.__module__}.{fn.__qualname__}"))
        nid = len(self.names) - 1

        if inspect.isgeneratorfunction(fn):
            open_span = functools.partial(self.open_span, nid)
            close_span = self.close_span

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return _traced_generator(fn(*args, **kwargs), open_span,
                                         close_span)

            return gen_wrapper

        # open_span/close_span inlined: this wrapper runs on every call
        # of every layer function, and its cost is the trace overhead.
        name_ids = self.name_ids
        parents = self.parents
        starts = self.starts
        ends = self.ends
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(clock())
            ends.append(0.0)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's functions and methods.

        Module-level names in any ``repro`` module (and values of
        module-level dicts, such as the campaign runner registry) that
        point at a wrapped function are redirected to its wrapper, so
        ``from x import f`` call sites are traced too.
        """
        import_layers()
        replaced: Dict[int, object] = {}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "repro" or name.startswith("repro.")]
        for module in modules:
            layer = _layer_of(module.__name__)
            if layer is None:
                continue
            for attr, value in list(vars(module).items()):
                if getattr(value, HOOK, False):
                    continue
                if (isinstance(value, types.FunctionType)
                        and value.__module__ == module.__name__):
                    wrapper = self.wrap(value, layer)
                    replaced[id(value)] = wrapper
                    setattr(module, attr, wrapper)
                elif (isinstance(value, type)
                        and value.__module__ == module.__name__):
                    self._wrap_class(value, layer)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replaced and isinstance(
                        value, types.FunctionType):
                    setattr(module, attr, replaced[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if (isinstance(item, types.FunctionType)
                                and id(item) in replaced):
                            value[key] = replaced[id(item)]

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("__") and attr not in _DUNDERS:
                continue
            if isinstance(value, types.FunctionType):
                setattr(cls, attr, self.wrap(value, layer))
            elif isinstance(value, staticmethod):
                setattr(cls, attr,
                        staticmethod(self.wrap(value.__func__, layer)))
            elif isinstance(value, classmethod):
                setattr(cls, attr,
                        classmethod(self.wrap(value.__func__, layer)))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def as_arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int64).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
        }


def _traced_generator(gen, open_span, close_span):
    """Delegate to ``gen`` (send/throw/close), one span per resumption."""
    value = None
    pending = None
    while True:
        index = open_span()
        try:
            if pending is None:
                target = gen.send(value)
            else:
                error, pending = pending, None
                target = gen.throw(error)
        except StopIteration as stop:
            close_span(index)
            return stop.value
        except BaseException:
            close_span(index)
            raise
        close_span(index)
        try:
            value = yield target
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as error:  # delivered into ``gen`` above
            pending = error


def self_times(spans: Dict[str, np.ndarray],
               names: List[Tuple[str, str]]) -> Dict[str, Dict[str, float]]:
    """Per-category self time and span count for one process's spans.

    Returns ``{category: {"self_s": ..., "calls": ...}}``; the
    :data:`ROOT` entry's self time is the unattributed time.
    """
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    own = duration - covered
    categories = sorted({category for category, _ in names})
    category_index = {c: i for i, c in enumerate(categories)}
    of_name = np.array([category_index[c] for c, _ in names],
                       dtype=np.int64)
    span_category = of_name[spans["name_id"]]
    self_s = np.bincount(span_category, weights=own,
                         minlength=len(categories))
    calls = np.bincount(span_category, minlength=len(categories))
    return {c: {"self_s": float(self_s[i]), "calls": int(calls[i])}
            for c, i in category_index.items()}
