"""Run one deployment configuration under client load.

Mirrors the paper's methodology (§3.2): N virtualized clients replay
the 30 FPS video against a deployed pipeline for a fixed run duration
while the orchestrator samples hardware; QoS aggregates are computed
from client logs afterwards.  Simulated runs default to 60 s (the
paper runs 5 minutes of wall clock; virtual time is statistics-
equivalent and the full five minutes is available via ``duration_s``).

An :class:`ExperimentSpec` describes one run completely — pipeline,
placement, load, seed and every optional scenario block — and
:func:`run` is the one code path that builds a testbed from it, drives
the simulator and collects an :class:`ExperimentResult`.  The spec's
``repr`` is canonical, so it doubles as the campaign cell-cache key
(:func:`repro.experiments.cache.task_fingerprint`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.testbed import Testbed, build_paper_testbed
from repro.flow import default_flow_config
from repro.metrics.hardware import HardwareMonitor
from repro.metrics.qos import ClientStats
from repro.net.netem import Netem
from repro.orchestra.orchestrator import Orchestrator
from repro.scatter import config as scatter_config
from repro.scatter.client import ArClient
from repro.scatter.config import PlacementConfig
from repro.scatter.pipeline import ScatterPipeline
from repro.scatter.resilience import ResilienceConfig
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry

#: Default experiment run length (virtual seconds).
DEFAULT_DURATION_S = 60.0

#: Time given to the tail of the pipeline to drain after clients stop.
DRAIN_S = 1.0


@dataclass
class ExperimentResult:
    """Everything measured during one run."""

    config_name: str
    num_clients: int
    duration_s: float
    clients: List[ClientStats]
    pipeline: ScatterPipeline
    monitor: HardwareMonitor
    testbed: Testbed
    #: Sidecar telemetry; present only for scAtteR++ runs.
    analytics: Optional[object] = None
    #: Per-frame distributed traces; present when ``tracing=True``.
    tracer: Optional[object] = None
    #: Per-fault MTTR / availability report; present only for chaos
    #: runs (specs with a ``chaos`` block).
    resilience: Optional[object] = None
    #: Hex fingerprint of the kernel's event trajectory — the
    #: determinism-contract witness (same seed ⇒ same digest).
    trace_digest: Optional[str] = None
    #: Flow-control summary — the active config plus per-service frame
    #: conservation ledgers; present only when the run had a flow
    #: config attached.
    flow: Optional[dict] = None
    #: Mobility/handover summary — per-handover records plus the
    #: aggregate report (MTTR, state moved, frames lost by reason);
    #: present only for mobility runs (specs with a ``mobility``
    #: block).
    mobility: Optional[dict] = None
    #: Macro-cohort summary — spec, exact frame ledger, analytic
    #: capacity, and serialized latency sketches; present only for
    #: cohort runs (specs with a ``cohort`` block).
    cohort: Optional[dict] = None
    #: Post-hoc joules attribution (per stage / idle / device, plus
    #: joules-per-frame and cost units) from
    #: :func:`repro.metrics.energy.energy_summary`; present only for
    #: specs with an ``energy`` power model (optimizer-oracle runs).
    #: Computed from counters after the run — never part of the digest
    #: contract.
    energy: Optional[dict] = None
    #: Autoscaler activity (decisions + skipped candidates) when the
    #: run had an :class:`~repro.orchestra.autoscaler.Autoscaler`
    #: attached (specs with ``autoscaler`` genes).
    autoscaler: Optional[dict] = None

    # ------------------------------------------------------------------
    # Client QoS aggregates
    # ------------------------------------------------------------------
    def per_client_fps(self) -> List[float]:
        return [c.fps(self.duration_s) for c in self.clients]

    def mean_fps(self) -> float:
        return float(np.mean(self.per_client_fps()))

    def success_rate(self) -> float:
        sent = sum(c.frames_sent for c in self.clients)
        received = sum(c.frames_received for c in self.clients)
        return received / sent if sent else 0.0

    def mean_e2e_ms(self) -> float:
        latencies = [lat for c in self.clients
                     for lat in c.e2e_latencies_s]
        return 1000.0 * float(np.mean(latencies)) if latencies else 0.0

    def median_e2e_ms(self) -> float:
        latencies = [lat for c in self.clients
                     for lat in c.e2e_latencies_s]
        return 1000.0 * float(np.median(latencies)) if latencies else 0.0

    def percentile_e2e_ms(self, percentile: float) -> float:
        """Tail latency — the metric XR budgets actually care about."""
        if not 0.0 < percentile < 100.0:
            raise ValueError(
                f"percentile must be in (0, 100), got {percentile}")
        latencies = [lat for c in self.clients
                     for lat in c.e2e_latencies_s]
        if not latencies:
            return 0.0
        return 1000.0 * float(np.percentile(latencies, percentile))

    def mean_jitter_ms(self) -> float:
        return 1000.0 * float(np.mean([c.jitter_s()
                                       for c in self.clients]))

    # ------------------------------------------------------------------
    # Pipeline / hardware aggregates
    # ------------------------------------------------------------------
    def service_latency_ms(self) -> Dict[str, float]:
        return {service: self.pipeline.service_latency_ms(service)
                for service in scatter_config.PIPELINE_ORDER}

    def service_memory_gb(self) -> Dict[str, float]:
        return self.monitor.service_memory_gb()

    def machine_cpu_util(self) -> Dict[str, float]:
        return {name: self.monitor.mean_cpu(name)
                for name in self.pipeline.placement.machines_used()}

    def machine_gpu_util(self) -> Dict[str, float]:
        return {name: self.monitor.mean_gpu(name)
                for name in self.pipeline.placement.machines_used()}

    def drop_counts(self) -> Dict[str, int]:
        return self.pipeline.drop_counts()

    def qoe(self):
        """Estimated mean-opinion score for this run's QoS."""
        from repro.metrics.qoe import estimate_qoe

        return estimate_qoe(fps=self.mean_fps(),
                            e2e_ms=self.mean_e2e_ms(),
                            success_rate=self.success_rate(),
                            jitter_ms=self.mean_jitter_ms())


# ----------------------------------------------------------------------
# The experiment spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScatterppOptions:
    """scAtteR++'s knobs: the sidecar staleness threshold and the
    component ablation (both flags False reduces to plain scAtteR)."""

    #: ``None`` resolves to
    #: :data:`repro.scatterpp.pipeline.DEFAULT_THRESHOLD_S`.
    threshold_s: Optional[float] = None
    stateless_sift: bool = True
    with_sidecars: bool = True

    def __post_init__(self) -> None:
        if self.threshold_s is None:
            from repro.scatterpp.pipeline import DEFAULT_THRESHOLD_S

            object.__setattr__(self, "threshold_s", DEFAULT_THRESHOLD_S)
        if self.threshold_s <= 0:
            raise ValueError(
                f"threshold_s must be positive, got {self.threshold_s}")


@dataclass(frozen=True)
class RampOptions:
    """Staged load: client *i* starts at ``i × stage_s`` and streams to
    the end of the run (Figures 8 and 12 correlate sidecar telemetry
    with it), so the run lasts ``stage_s × clients``."""

    stage_s: float = 10.0


@dataclass(frozen=True)
class ChaosOptions:
    """Faults injected and *discovered*: the orchestrator's watchdog is
    off, a heartbeat :class:`~repro.orchestra.health.FailureDetector`
    (built with ``detector_kwargs``) finds failures, and a
    :class:`~repro.chaos.injector.FaultInjector` drives ``plan`` (a
    :class:`~repro.chaos.faults.FaultPlan`)."""

    plan: object
    detector_kwargs: Optional[dict] = None


@dataclass(frozen=True)
class MobilityOptions:
    """Clients roam between edge sites and their sessions follow.

    Each client follows a :class:`~repro.mobility.trajectory.
    ClientTrajectory` (``trajectories``, seed-derived when ``None``);
    every site change triggers a stateful session handover, or the
    kill-and-reconnect baseline with ``naive=True``.
    """

    naive: bool = False
    trajectories: Optional[tuple] = None
    handover_config: Optional[object] = None
    mean_dwell_s: float = 8.0
    min_dwell_s: float = 2.0


@dataclass(frozen=True)
class CohortOptions:
    """A ``size``-client population of which the spec's ``clients``
    run microscopically as tracers; the rest ride one
    :class:`~repro.cohort.CohortEngine` tick process."""

    size: int
    load: str = "constant"
    load_kwargs: Optional[dict] = None
    #: ``None`` resolves to :data:`repro.cohort.DEFAULT_TICK_S`.
    tick_s: Optional[float] = None

    def cohort_spec(self, tracers: int):
        from repro.cohort import CohortSpec, DEFAULT_TICK_S

        return CohortSpec(
            size=self.size, tracers=tracers,
            tick_s=self.tick_s if self.tick_s is not None
            else DEFAULT_TICK_S,
            load=self.load, load_kwargs=dict(self.load_kwargs or {}))


#: Blocks that need the scAtteR++ pipeline.
_SCATTERPP_ONLY = ("flow", "ramp", "mobility", "cohort", "autoscaler")

#: Scenario blocks that shape the run itself; at most one per spec,
#: except that chaos may ride a mobility run.
_SCENARIOS = ("ramp", "chaos", "mobility", "cohort")


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything that determines one run, validated on construction.

    Core: ``placement``, ``clients``, ``duration_s``, ``seed``, the
    ``pipeline`` (``"scatter"`` or ``"scatterpp"``), an optional
    ``client_netem`` on every client access link, raw
    ``pipeline_kwargs`` (scatter only), the client ``resilience`` layer
    (chaos and mobility runs default it to the stock
    :class:`ResilienceConfig`), and the trajectory-neutral
    ``tracing``/``profile`` observers.  Optional blocks:
    ``scatterpp`` (filled with defaults for the scAtteR++ pipeline),
    ``flow`` (a :class:`~repro.flow.FlowConfig` on every sidecar and
    client), ``ramp``, ``chaos``, ``mobility``, ``cohort``,
    ``autoscaler`` (:class:`~repro.orchestra.optimize.ScalerGenes`) and
    ``energy`` (a :class:`~repro.metrics.energy.PowerModel` for
    post-hoc joules attribution).
    """

    placement: PlacementConfig
    clients: int
    duration_s: float = DEFAULT_DURATION_S
    seed: int = 0
    pipeline: str = "scatter"
    client_netem: Optional[Netem] = None
    pipeline_kwargs: Optional[dict] = None
    resilience: Optional[ResilienceConfig] = None
    tracing: bool = False
    scatterpp: Optional[ScatterppOptions] = None
    flow: Optional[object] = None
    ramp: Optional[RampOptions] = None
    chaos: Optional[ChaosOptions] = None
    mobility: Optional[MobilityOptions] = None
    cohort: Optional[CohortOptions] = None
    autoscaler: Optional[object] = None
    energy: Optional[object] = None

    def __post_init__(self) -> None:
        def fail(message: str) -> None:
            raise ValueError(f"ExperimentSpec: {message}")

        if not isinstance(self.placement, PlacementConfig):
            fail(f"placement must be a PlacementConfig, got "
                 f"{type(self.placement).__name__}")
        if (isinstance(self.clients, bool)
                or not isinstance(self.clients, int) or self.clients < 1):
            fail(f"clients must be an int >= 1, got {self.clients!r}")
        if not self.duration_s > 0:
            fail(f"duration_s must be positive, got {self.duration_s}")
        if not isinstance(self.seed, int):
            fail(f"seed must be an int, got {self.seed!r}")
        if self.pipeline not in ("scatter", "scatterpp"):
            fail(f"pipeline must be 'scatter' or 'scatterpp', got "
                 f"{self.pipeline!r}")
        if self.pipeline == "scatter":
            for name in ("scatterpp",) + _SCATTERPP_ONLY:
                if getattr(self, name) is not None:
                    fail(f"{name} requires pipeline='scatterpp'")
        else:
            if self.pipeline_kwargs is not None:
                fail("pipeline_kwargs applies to pipeline='scatter' "
                     "only; scAtteR++ takes a scatterpp block")
            if self.scatterpp is None:
                # Mobility keeps the stateful sift↔matching loop: it is
                # only interesting with session state to move.
                object.__setattr__(self, "scatterpp", ScatterppOptions(
                    stateless_sift=self.mobility is None))
            if self.mobility is not None and self.scatterpp.stateless_sift:
                fail("mobility needs the stateful sift "
                     "(scatterpp.stateless_sift=False)")
            if (self.flow is not None or self.cohort is not None) \
                    and not self.scatterpp.with_sidecars:
                fail("flow and cohort need the scAtteR++ sidecars")
        scenarios = [name for name in _SCENARIOS
                     if getattr(self, name) is not None]
        if len(scenarios) > 1 and scenarios != ["chaos", "mobility"]:
            fail(f"at most one of ramp/chaos/mobility/cohort (chaos may "
                 f"ride mobility), got {scenarios}")
        if self.ramp is not None:
            if not self.ramp.stage_s > 0:
                fail(f"ramp.stage_s must be positive, got "
                     f"{self.ramp.stage_s}")
            if self.duration_s != self.ramp.stage_s * self.clients:
                fail(f"a ramp runs stage_s × clients = "
                     f"{self.ramp.stage_s * self.clients} s, got "
                     f"duration_s={self.duration_s}")
        if self.chaos is not None and not hasattr(self.chaos.plan,
                                                  "faults"):
            fail("chaos.plan must be a FaultPlan")
        if self.mobility is not None:
            mobility = self.mobility
            if not 0 < mobility.min_dwell_s <= mobility.mean_dwell_s:
                fail("mobility dwell times need 0 < min_dwell_s <= "
                     "mean_dwell_s")
            if (mobility.trajectories is not None
                    and len(mobility.trajectories) != self.clients):
                fail(f"need one trajectory per client: "
                     f"{len(mobility.trajectories)} != {self.clients}")
        if self.cohort is not None:
            self.cohort.cohort_spec(self.clients)  # validates the block
        if self.resilience is None and (self.chaos is not None
                                        or self.mobility is not None):
            object.__setattr__(self, "resilience", ResilienceConfig())


# ----------------------------------------------------------------------
# run(spec): build → attach → run → collect
# ----------------------------------------------------------------------
def _build(spec: ExperimentSpec) -> tuple:
    sim = Simulator()
    rng = RngRegistry(spec.seed)
    testbed = build_paper_testbed(sim, rng, num_clients=spec.clients)
    if spec.client_netem is not None:
        for node in testbed.client_nodes:
            testbed.network.set_netem(node, "e1", spec.client_netem)
    orchestrator = Orchestrator(testbed)
    if spec.scatterpp is None:
        kwargs = spec.pipeline_kwargs or {}
    else:
        from repro.scatterpp.pipeline import scatterpp_pipeline_kwargs

        kwargs = scatterpp_pipeline_kwargs(
            threshold_s=spec.scatterpp.threshold_s,
            stateless_sift=spec.scatterpp.stateless_sift,
            with_sidecars=spec.scatterpp.with_sidecars, flow=spec.flow)
    pipeline = ScatterPipeline(testbed, orchestrator, spec.placement,
                               **kwargs)
    pipeline.deploy()
    # Under chaos, failures must be discovered by the heartbeat
    # detector, not by the container-state watchdog.
    orchestrator.start(watchdog=spec.chaos is None)
    clients = [ArClient(client_id=index, node=node,
                        network=testbed.network,
                        registry=orchestrator.registry,
                        resilience=spec.resilience, flow=spec.flow,
                        rng=rng.stream(f"client.{index}"))
               for index, node in enumerate(testbed.client_nodes)]
    return sim, testbed, orchestrator, pipeline, clients


def flow_summary(pipeline: ScatterPipeline, clients, flow
                 ) -> Optional[dict]:
    """JSON-ready flow ledger for a finished run (``None`` sans flow).

    Carries the active knobs plus every sidecar's conservation ledger
    summed per service — which is how the workers-0/4 invariant checks
    see the counters across a process boundary.
    """
    if flow is None:
        return None
    from dataclasses import asdict

    from repro.flow.invariants import ledger_totals, sidecar_ledger

    instances = [instance
                 for service_name in scatter_config.PIPELINE_ORDER
                 for instance in pipeline.instances(service_name)]
    with_sidecar = [instance for instance in instances
                    if hasattr(instance, "sidecar")]
    sidecars = [instance.sidecar for instance in with_sidecar]
    return {
        "config": asdict(flow),
        "services": ledger_totals([sidecar_ledger(instance)
                                   for instance in with_sidecar]),
        "paced_frames": sum(c.stats.frames_paced for c in clients),
        "batched_rounds": sum(s.stats.batched_rounds
                              for s in sidecars),
        "batched_frames": sum(s.stats.batched_frames
                              for s in sidecars),
        "shed_backpressure": sum(instance.stats.shed_backpressure
                                 for instance in instances),
    }


def _start_autoscaler(orchestrator, genes):
    from repro.orchestra.autoscaler import (AppAwareScalingPolicy,
                                            Autoscaler)

    policy = AppAwareScalingPolicy(
        drop_ratio_threshold=genes.drop_ratio,
        queue_depth_threshold=genes.queue_depth)
    scaler = Autoscaler(orchestrator, policy,
                        max_replicas=genes.max_replicas,
                        placement_machine=genes.machine)
    scaler.start()
    return scaler


def _attach_mobility(spec: ExperimentSpec, sim, testbed, orchestrator,
                     clients):
    """Bind every client to its trajectory; schedule its handovers.

    Returns the coordinator and the number of planned handovers.
    """
    from repro.mobility.handover import HandoverCoordinator
    from repro.mobility.trajectory import default_trajectories
    from repro.net.netem import apply_netem_schedule

    mobility = spec.mobility
    trajectories = mobility.trajectories
    if trajectories is None:
        trajectories = default_trajectories(
            spec.clients, duration_s=spec.duration_s,
            rng=testbed.rng.stream("mobility"),
            mean_dwell_s=mobility.mean_dwell_s,
            min_dwell_s=mobility.min_dwell_s)
    coordinator = HandoverCoordinator(
        orchestrator, service="sift", config=mobility.handover_config,
        naive=mobility.naive)
    # Upstream services consult the session directory before the
    # balancer, so a client's frames chase its session.
    for instance in orchestrator.all_instances():
        instance.session_router = coordinator.directory
    planned = 0
    for client, trajectory in zip(clients, trajectories):
        coordinator.attach_client(client)
        coordinator.bind_initial(client.client_id,
                                 trajectory.initial_site)
        schedule = trajectory.netem_schedule()
        if schedule:
            apply_netem_schedule(testbed.network, client.node, "e1",
                                 schedule)
        for at_s, __, to_site in trajectory.handovers():
            sim.schedule(at_s, coordinator.handover_session,
                         client.client_id, to_site)
            planned += 1
    return coordinator, planned


def run(spec: ExperimentSpec) -> ExperimentResult:
    """Build the testbed ``spec`` describes, drive it, collect results.

    The single code path that builds a testbed and runs the simulator.
    Its order is part of the determinism contract — every step that
    schedules an event moves the trace digest if it moves:

    1. build: simulator, testbed, client netem, deployed pipeline,
       orchestrator (watchdog off under chaos), clients;
    2. attach, in this order: the sidecar analytics sampler
       (scAtteR++ with sidecars, outside chaos and mobility), the chaos
       detector then injector, the autoscaler, the cohort engine (its
       RNG stream is drawn here), the mobility trajectories and
       handovers, the tracer;
    3. start: the cohort engine, then every client — staggered by
       ``ramp.stage_s`` for a ramp — and run to ``duration_s`` plus
       :data:`DRAIN_S`;
    4. collect the QoS result plus each block's report.
    """
    sim, testbed, orchestrator, pipeline, clients = _build(spec)
    analytics = detector = injector = scaler = engine = None
    # Chaos and mobility runs never sampled sidecar telemetry; the
    # sampler's events are part of their pinned trajectories.
    if (spec.scatterpp is not None and spec.scatterpp.with_sidecars
            and spec.chaos is None and spec.mobility is None):
        from repro.scatterpp.analytics import SidecarAnalytics

        analytics = SidecarAnalytics(sim)
        for instance in orchestrator.all_instances():
            analytics.watch(instance)
        analytics.start()
    if spec.chaos is not None:
        from repro.chaos.injector import FaultInjector
        from repro.orchestra.health import FailureDetector

        detector = FailureDetector(
            orchestrator, **(spec.chaos.detector_kwargs or {}))
        detector.start()
        injector = FaultInjector(orchestrator, spec.chaos.plan)
        injector.start()
    if spec.autoscaler is not None:
        scaler = _start_autoscaler(orchestrator, spec.autoscaler)
    if spec.cohort is not None:
        from repro.cohort import CohortEngine, LOAD_PROCESSES

        cohort = spec.cohort.cohort_spec(spec.clients)
        rng = None
        if LOAD_PROCESSES[cohort.load].uses_rng and cohort.macro_members:
            rng = testbed.rng.stream("cohort")
        engine = CohortEngine(sim, cohort, pipeline, flow=spec.flow,
                              threshold_s=spec.scatterpp.threshold_s,
                              rng=rng)
    if spec.mobility is not None:
        coordinator, planned = _attach_mobility(
            spec, sim, testbed, orchestrator, clients)
    tracer = None
    if spec.tracing:
        from repro.metrics.tracing import Tracer

        tracer = Tracer()
        for traced in orchestrator.all_instances() + clients:
            traced.tracer = tracer

    if engine is not None:
        engine.start(spec.duration_s)
    for index, client in enumerate(clients):
        if spec.ramp is None:
            client.start(spec.duration_s)
            continue
        delay = index * spec.ramp.stage_s

        def delayed_start(client=client, delay=delay,
                          run_for=spec.duration_s - delay):
            yield sim.timeout(delay)
            client.start(run_for)

        sim.spawn(delayed_start(), name=f"ramp-{index}")
    sim.run(until=spec.duration_s + DRAIN_S)

    result = ExperimentResult(
        config_name=spec.placement.name, num_clients=spec.clients,
        duration_s=spec.duration_s,
        clients=[c.stats for c in clients], pipeline=pipeline,
        monitor=orchestrator.monitor, testbed=testbed,
        analytics=analytics, tracer=tracer,
        trace_digest=sim.fingerprint(),
        flow=flow_summary(pipeline, clients, spec.flow))
    if engine is not None:
        from repro.cohort import check_cohort_conservation

        check_cohort_conservation(engine.ledger)
        result.cohort = engine.report(
            duration_s=spec.duration_s,
            tracer_mean_fps=result.mean_fps()).as_dict()
    if spec.mobility is not None:
        from repro.mobility.metrics import build_mobility_report

        report = build_mobility_report(coordinator, result.clients,
                                       planned=planned)
        result.mobility = {
            "naive": spec.mobility.naive,
            "report": report.as_dict(),
            "handovers": [record.as_dict()
                          for record in coordinator.records]}
    if injector is not None:
        from repro.metrics.resilience import build_resilience_report

        result.resilience = build_resilience_report(
            injector=injector, detector=detector,
            orchestrator=orchestrator, clients=clients)
    if spec.energy is not None:
        from repro.metrics.energy import energy_summary

        result.energy = energy_summary(result, spec.energy)
    if scaler is not None:
        result.autoscaler = {
            "genes": spec.autoscaler.as_dict(),
            "decisions": [{"timestamp_s": d.timestamp_s,
                           "service": d.service,
                           "reason": d.reason,
                           "replicas_after": d.replicas_after}
                          for d in scaler.decisions],
            "skipped": [{"timestamp_s": s.timestamp_s,
                         "service": s.service,
                         "reason": s.reason}
                        for s in scaler.skipped]}
    return result


# ----------------------------------------------------------------------
# Named shims (benchmark harnesses and fig7 call these by name)
# ----------------------------------------------------------------------
def run_scatter_experiment(placement, *, num_clients,
                           duration_s=DEFAULT_DURATION_S, seed=0, **spec):
    """:func:`run` of a scAtteR spec; ``spec`` adds further fields."""
    return run(ExperimentSpec(placement, num_clients, duration_s, seed,
                              **spec))


def run_scatterpp_experiment(placement, *, num_clients,
                             duration_s=DEFAULT_DURATION_S, seed=0, **spec):
    """:func:`run` of a scAtteR++ spec; ``spec`` adds further fields."""
    return run(ExperimentSpec(placement, num_clients, duration_s, seed,
                              "scatterpp", **spec))


def run_scatterpp_flow_experiment(placement, *, num_clients,
                                  duration_s=DEFAULT_DURATION_S, seed=0):
    """:func:`run` of scAtteR++ with the default flow config."""
    return run(ExperimentSpec(placement, num_clients, duration_s, seed,
                              "scatterpp", flow=default_flow_config()))
