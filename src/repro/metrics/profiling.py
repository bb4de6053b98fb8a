"""Wall-time profiler for the vision-kernel stages.

The simulator's *virtual* time is calibrated from the paper's tables
and never depends on how fast the host machine runs; the *real* time
spent computing is what the perf work optimizes.
:class:`StageProfiler` attributes that real wall time to named vision
stages (``sift.detect``, ``fisher.encode``, ``lsh.query``, ...) so
speedups are measured per kernel instead of asserted, and so a
regression in one stage cannot hide behind an improvement in another.

Design constraints:

* **Deterministic accounting** — counters are plain dicts keyed by
  stage name; two runs of the same workload produce the same call
  counts (durations naturally vary with the host).  Snapshots/deltas
  mirror :class:`repro.metrics.summary.CacheStats` so a caller can
  scope measurements to one piece of work.
* **Near-zero cost when disabled** — the ``stage`` context manager
  short-circuits before touching the clock, so production campaigns
  can leave profiler hooks in place.
* **No global mutable state** — every hook takes an explicit
  profiler, so measurements never leak between callers.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional


@dataclass(frozen=True)
class StageRecord:
    """Immutable snapshot of one stage's accumulated cost."""

    calls: int = 0
    total_ns: int = 0

    @property
    def total_ms(self) -> float:
        return self.total_ns / 1e6

    @property
    def mean_ms(self) -> Optional[float]:
        if self.calls == 0:
            return None
        return self.total_ms / self.calls

    def delta(self, earlier: "StageRecord") -> "StageRecord":
        return StageRecord(calls=self.calls - earlier.calls,
                           total_ns=self.total_ns - earlier.total_ns)


@dataclass
class StageProfiler:
    """Accumulates wall time per named stage.

    Usage::

        profiler = StageProfiler()
        with profiler.stage("sift.describe"):
            descriptors = extractor.describe(image, keypoints)
        profiler.snapshot()["sift.describe"].total_ms

    Nested stages are allowed and accounted independently (the outer
    stage's time includes the inner stage's — reports should treat
    stages as a flat attribution, not a strict tree).
    """

    enabled: bool = True
    _calls: Dict[str, int] = field(default_factory=dict)
    _total_ns: Dict[str, int] = field(default_factory=dict)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            elapsed = time.perf_counter_ns() - start
            self._calls[name] = self._calls.get(name, 0) + 1
            self._total_ns[name] = (self._total_ns.get(name, 0)
                                    + elapsed)

    def record(self, name: str, elapsed_ns: int) -> None:
        """Attribute an externally measured duration to ``name``."""
        if not self.enabled:
            return
        self._calls[name] = self._calls.get(name, 0) + 1
        self._total_ns[name] = (self._total_ns.get(name, 0)
                                + int(elapsed_ns))

    def snapshot(self) -> Dict[str, StageRecord]:
        """Immutable copy of every stage's counters, sorted by name."""
        return {name: StageRecord(calls=self._calls[name],
                                  total_ns=self._total_ns[name])
                for name in sorted(self._calls)}

    def delta(self, earlier: Mapping[str, StageRecord]) \
            -> Dict[str, StageRecord]:
        """Stage costs accumulated since an earlier ``snapshot()``."""
        out: Dict[str, StageRecord] = {}
        for name, record in self.snapshot().items():
            base = earlier.get(name, StageRecord())
            diff = record.delta(base)
            if diff.calls or diff.total_ns:
                out[name] = diff
        return out

    def reset(self) -> None:
        self._calls.clear()
        self._total_ns.clear()

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready view: {stage: {calls, total_ms, mean_ms}}."""
        return {name: {"calls": record.calls,
                       "total_ms": record.total_ms,
                       "mean_ms": record.mean_ms}
                for name, record in self.snapshot().items()}
