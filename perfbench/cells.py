"""What the benchmark reads from each finished cell, and how it checks it.

:func:`observe` turns one ``ExperimentResult`` into a flat
:class:`CellRecord` of counts read from public state — frames the
microscopic clients sent, simulator events, per-layer work counters —
plus the result of the conservation audits.  :func:`check_summary`
audits the JSON summary a campaign cell returns (fresh or replayed
from the cell cache).  :func:`count_failures` applies the per-run
output check that feeds ``failed_ratio``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


@dataclass
class CellRecord:
    """Counts and audit outcome for one simulated cell."""

    digest: Optional[str]
    frames_sent: int = 0
    frames_received: int = 0
    events: int = 0
    dsp_processed: int = 0
    dsp_dropped_busy: int = 0
    packets_sent: int = 0
    packets_dropped: int = 0
    scatterpp_dispatched: int = 0
    scatterpp_dropped_stale: int = 0
    flow_shed_backpressure: int = 0
    flow_batched_rounds: int = 0
    handovers: int = 0
    #: Why the cell failed its output check (``None`` when it passed).
    error: Optional[str] = None


def _instances(result) -> List:
    from repro.scatter.config import PIPELINE_ORDER

    orchestrator = result.pipeline.orchestrator
    return [instance for service in PIPELINE_ORDER
            for instance in (orchestrator.instances(service)
                             + orchestrator.retired_instances(service))]


def _links(network) -> List:
    from repro.net.topology import NetworkError

    nodes = network.nodes()
    links = []
    for src in nodes:
        for dst in nodes:
            try:
                links.append(network.link(src, dst))
            except NetworkError:
                continue
    return links


def audit_result(result) -> Optional[str]:
    """Run the flow, state (mobility) and cohort conservation audits."""
    from repro.flow.invariants import (ConservationError,
                                       check_result_conservation,
                                       check_state_conservation)

    try:
        check_result_conservation(result)
        check_state_conservation(result)
    except ConservationError as error:
        return f"ledger: {error}"
    cohort = getattr(result, "cohort", None)
    if cohort is not None and cohort["ledger"]["balance"] != 0:
        return f"ledger: cohort off by {cohort['ledger']['balance']}"
    return None


def observe(result) -> CellRecord:
    """Read one finished cell's counts and audit its ledgers."""
    instances = _instances(result)
    sidecars = [i.sidecar for i in instances if hasattr(i, "sidecar")]
    links = _links(result.testbed.network)
    mobility = getattr(result, "mobility", None)
    return CellRecord(
        digest=result.trace_digest,
        frames_sent=sum(len(c.sent) for c in result.clients),
        frames_received=sum(len(c.received) for c in result.clients),
        events=result.testbed.sim.digest.events,
        dsp_processed=sum(i.stats.processed for i in instances),
        dsp_dropped_busy=sum(i.stats.dropped_busy for i in instances),
        packets_sent=sum(link.stats.packets_sent for link in links),
        packets_dropped=sum(link.stats.packets_dropped for link in links),
        scatterpp_dispatched=sum(s.stats.dispatched for s in sidecars),
        scatterpp_dropped_stale=sum(s.stats.dropped_stale
                                    for s in sidecars),
        flow_shed_backpressure=sum(i.stats.shed_backpressure
                                   for i in instances),
        flow_batched_rounds=sum(s.stats.batched_rounds for s in sidecars),
        handovers=len(mobility["handovers"]) if mobility else 0,
        error=audit_result(result))


def check_summary(summary: Optional[Dict]) -> Optional[str]:
    """Audit the ledgers a campaign cell summary carries."""
    if summary is None:
        return "no summary"
    flow = summary.get("flow")
    if flow:
        for service, ledger in flow["services"].items():
            if ledger["balance"] != 0:
                return f"ledger: {service} off by {ledger['balance']}"
    cohort = summary.get("cohort")
    if cohort and cohort["ledger"]["balance"] != 0:
        return f"ledger: cohort off by {cohort['ledger']['balance']}"
    return None


@dataclass
class PassOutcome:
    """One timed pass (cold or replay): per-cell digests and errors."""

    wall_s: float
    digests: List[Optional[str]]
    errors: List[Optional[str]]


def count_failures(cold: PassOutcome, replay: PassOutcome,
                   expected: Optional[Sequence[str]]) -> Dict[str, str]:
    """The output check: ``{"<pass> cell <i>": reason}`` per failed cell.

    A cold cell fails when it raised or its ledger did not balance
    (``errors``), or when its digest differs from ``expected`` — the
    digests of the first repetition in this run, the recorded table
    for the default seed, or a previous run of the same seed.  A
    replay cell fails on its own errors, or when its digest differs
    from the cold one.
    """
    failures: Dict[str, str] = {}
    cells = max(len(cold.digests), len(replay.digests),
                len(expected or ()))
    for index in range(cells):
        digest = _at(cold.digests, index)
        error = _at(cold.errors, index, "missing cell")
        if error is None and digest is None:
            error = "no digest"
        if error is None and expected is not None \
                and digest != _at(expected, index):
            error = f"digest {digest} != expected {_at(expected, index)}"
        if error is not None:
            failures[f"cold cell {index}"] = error
        error = _at(replay.errors, index, "missing cell")
        if error is None and _at(replay.digests, index) != digest:
            error = (f"replay digest {_at(replay.digests, index)} != "
                     f"cold {digest}")
        if error is not None:
            failures[f"replay cell {index}"] = error
    return failures


def _at(items: Sequence, index: int, default=None):
    return items[index] if index < len(items) else default
