"""Run one deployment configuration under client load.

Mirrors the paper's methodology (§3.2): N virtualized clients replay
the 30 FPS video against a deployed pipeline for a fixed run duration
while the orchestrator samples hardware; QoS aggregates are computed
from client logs afterwards.  Simulated runs default to 60 s (the
paper runs 5 minutes of wall clock; virtual time is statistics-
equivalent and the full five minutes is available via ``duration_s``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.testbed import Testbed, build_paper_testbed
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
    #: runs (see :func:`run_resilience_experiment`).
    resilience: Optional[object] = None
    #: Hex fingerprint of the kernel's event trajectory — the
    #: determinism-contract witness (same seed ⇒ same digest).
    trace_digest: Optional[str] = None
    #: Feature-cache counters accumulated during this run (dict from
    #: :meth:`repro.metrics.summary.CacheStats.as_dict`); real
    #: wall-clock accounting only — never part of the digest contract.
    feature_cache: Optional[dict] = None
    #: Per-kernel wall-time attribution accumulated during this run
    #: (from :class:`repro.metrics.profiling.StageProfiler`); empty
    #: profiles are reported as None.
    kernel_profile: Optional[dict] = None
    #: Per-event-kind counts and wall time from the simulator loop
    #: (from :class:`repro.metrics.profiling.EventProfile`); present
    #: only when the run was started with ``profile=True``.  Real
    #: wall-clock accounting only — never part of the digest contract.
    event_profile: Optional[dict] = None
    #: Flow-control summary — the active config plus per-service frame
    #: conservation ledgers; present only when the run had a flow
    #: config attached.
    flow: Optional[dict] = None
    #: Mobility/handover summary — per-handover records plus the
    #: aggregate report (MTTR, state moved, frames lost by reason);
    #: present only for mobility runs
    #: (see :func:`run_mobility_experiment`).
    mobility: Optional[dict] = None
    #: Macro-cohort summary — spec, exact frame ledger, analytic
    #: capacity, and serialized latency sketches; present only for
    #: cohort runs (see :func:`run_cohort_experiment`).
    cohort: Optional[dict] = None
    #: Post-hoc joules attribution (per stage / idle / device, plus
    #: joules-per-frame and cost units) from
    #: :func:`repro.metrics.energy.energy_summary`; present only for
    #: optimizer-oracle runs.  Computed from counters after the run —
    #: never part of the digest contract.
    energy: Optional[dict] = None
    #: Autoscaler activity (decisions + skipped candidates) when the
    #: run had an :class:`~repro.orchestra.autoscaler.Autoscaler`
    #: attached (optimizer-oracle runs with scaler genes on).
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


class _ComputeScope:
    """Scopes feature-cache and profiler counters to one experiment.

    Snapshot the process-wide cache/profiler before the run; the
    deltas afterwards attribute hits/misses and kernel wall time to
    this experiment even when several runs share the process.
    """

    def __init__(self):
        from repro.metrics.profiling import default_profiler
        from repro.vision.cache import default_feature_cache

        self._cache = default_feature_cache()
        self._profiler = default_profiler()
        self._cache_before = self._cache.stats()
        self._profile_before = self._profiler.snapshot()

    def cache_delta(self) -> Optional[dict]:
        delta = self._cache.stats().delta(self._cache_before)
        if delta.lookups == 0 and delta.insertions == 0:
            return None
        return delta.as_dict()

    def profile_delta(self) -> Optional[dict]:
        delta = self._profiler.delta(self._profile_before)
        if not delta:
            return None
        return {name: {"calls": record.calls,
                       "total_ms": record.total_ms,
                       "mean_ms": record.mean_ms}
                for name, record in delta.items()}


def _event_profile(sim) -> Optional[dict]:
    """JSON-ready event-kind profile, or ``None`` when not profiled."""
    profile = getattr(sim, "profile", None)
    if profile is None or not profile.events:
        return None
    return profile.as_dict()


def _build(placement: PlacementConfig, num_clients: int, seed: int,
           client_netem: Optional[Netem],
           pipeline_kwargs: Optional[dict],
           resilience: Optional[ResilienceConfig] = None,
           watchdog: bool = True, flow=None,
           profile: bool = False) -> tuple:
    sim = Simulator(profile=profile)
    rng = RngRegistry(seed)
    testbed = build_paper_testbed(sim, rng, num_clients=num_clients)
    if client_netem is not None:
        for node in testbed.client_nodes:
            testbed.network.set_netem(node, "e1", client_netem)
    orchestrator = Orchestrator(testbed)
    pipeline = ScatterPipeline(testbed, orchestrator, placement,
                               **(pipeline_kwargs or {}))
    pipeline.deploy()
    orchestrator.start(watchdog=watchdog)
    clients = []
    for index, node in enumerate(testbed.client_nodes):
        clients.append(ArClient(
            client_id=index, node=node, network=testbed.network,
            registry=orchestrator.registry, resilience=resilience,
            flow=flow, rng=rng.stream(f"client.{index}")))
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

    ledgers = []
    for service_name in scatter_config.PIPELINE_ORDER:
        for instance in pipeline.instances(service_name):
            if hasattr(instance, "sidecar"):
                ledgers.append(sidecar_ledger(instance))
    sidecars = [instance.sidecar
                for service_name in scatter_config.PIPELINE_ORDER
                for instance in pipeline.instances(service_name)
                if hasattr(instance, "sidecar")]
    return {
        "config": asdict(flow),
        "services": ledger_totals(ledgers),
        "paced_frames": sum(c.stats.frames_paced for c in clients),
        "batched_rounds": sum(s.stats.batched_rounds
                              for s in sidecars),
        "batched_frames": sum(s.stats.batched_frames
                              for s in sidecars),
        "shed_backpressure": sum(
            instance.stats.shed_backpressure
            for service_name in scatter_config.PIPELINE_ORDER
            for instance in pipeline.instances(service_name)),
    }


def _attach_tracer(orchestrator, clients):
    from repro.metrics.tracing import Tracer

    tracer = Tracer()
    for instance in orchestrator.all_instances():
        instance.tracer = tracer
    for client in clients:
        client.tracer = tracer
    return tracer


def run_scatter_experiment(
        placement: PlacementConfig, *, num_clients: int,
        duration_s: float = DEFAULT_DURATION_S, seed: int = 0,
        client_netem: Optional[Netem] = None,
        pipeline_kwargs: Optional[dict] = None,
        tracing: bool = False,
        profile: bool = False) -> ExperimentResult:
    """Deploy scAtteR per ``placement`` and run ``num_clients``.

    ``profile=True`` turns on the kernel's per-event-kind wall-time
    profiler (``ExperimentResult.event_profile``); the default keeps
    the event loop clock-free and is provably trajectory-neutral.
    """
    scope = _ComputeScope()
    sim, testbed, orchestrator, pipeline, clients = _build(
        placement, num_clients, seed, client_netem, pipeline_kwargs,
        profile=profile)
    tracer = _attach_tracer(orchestrator, clients) if tracing else None
    for client in clients:
        client.start(duration_s)
    sim.run(until=duration_s + DRAIN_S)
    return ExperimentResult(
        config_name=placement.name, num_clients=num_clients,
        duration_s=duration_s,
        clients=[c.stats for c in clients], pipeline=pipeline,
        monitor=orchestrator.monitor, testbed=testbed, tracer=tracer,
        trace_digest=sim.fingerprint(),
        feature_cache=scope.cache_delta(),
        kernel_profile=scope.profile_delta(),
        event_profile=_event_profile(sim))


def run_scatterpp_experiment(
        placement: PlacementConfig, *, num_clients: int,
        duration_s: float = DEFAULT_DURATION_S, seed: int = 0,
        client_netem: Optional[Netem] = None,
        threshold_s: Optional[float] = None,
        stateless_sift: bool = True,
        with_sidecars: bool = True,
        flow=None,
        tracing: bool = False,
        profile: bool = False,
        post_deploy=None) -> ExperimentResult:
    """Deploy scAtteR++ (stateless sift + sidecars) and run clients.

    ``stateless_sift`` / ``with_sidecars`` exist for the component
    ablation — disabling both reduces to plain scAtteR.  ``flow`` (a
    :class:`~repro.flow.FlowConfig`) engages the flow substrate on
    every sidecar *and* every client; ``None`` reproduces the paper's
    behaviour — and the golden trace digests — byte for byte.

    ``post_deploy(sim, orchestrator, pipeline)`` runs after the
    pipeline is deployed and before clients start — the hook the
    optimizer oracle uses to attach an autoscaler.  ``None`` (the
    default) leaves the trajectory byte-identical to a call without
    the parameter.
    """
    from repro.scatterpp.analytics import SidecarAnalytics
    from repro.scatterpp.pipeline import scatterpp_pipeline_kwargs

    kwargs = scatterpp_pipeline_kwargs(
        threshold_s=threshold_s, stateless_sift=stateless_sift,
        with_sidecars=with_sidecars, flow=flow)
    scope = _ComputeScope()
    sim, testbed, orchestrator, pipeline, clients = _build(
        placement, num_clients, seed, client_netem, kwargs, flow=flow,
        profile=profile)
    analytics = None
    if with_sidecars:
        analytics = SidecarAnalytics(sim)
        for instance in orchestrator.all_instances():
            analytics.watch(instance)
        analytics.start()
    if post_deploy is not None:
        post_deploy(sim, orchestrator, pipeline)
    tracer = _attach_tracer(orchestrator, clients) if tracing else None
    for client in clients:
        client.start(duration_s)
    sim.run(until=duration_s + DRAIN_S)
    return ExperimentResult(
        config_name=placement.name, num_clients=num_clients,
        duration_s=duration_s,
        clients=[c.stats for c in clients], pipeline=pipeline,
        monitor=orchestrator.monitor, testbed=testbed,
        analytics=analytics, tracer=tracer,
        trace_digest=sim.fingerprint(),
        feature_cache=scope.cache_delta(),
        kernel_profile=scope.profile_delta(),
        event_profile=_event_profile(sim),
        flow=flow_summary(pipeline, clients, flow))


def run_cohort_experiment(
        placement: PlacementConfig, *, cohort_size: int,
        tracers: int,
        duration_s: float = DEFAULT_DURATION_S, seed: int = 0,
        client_netem: Optional[Netem] = None,
        threshold_s: Optional[float] = None,
        flow=None,
        load: str = "constant",
        load_kwargs: Optional[dict] = None,
        tick_s: Optional[float] = None,
        tracing: bool = False,
        profile: bool = False) -> ExperimentResult:
    """A hybrid city-scale run: ``tracers`` microscopic clients ride
    alongside a ``cohort_size``-client statistical population.

    The tracer clients are real :class:`~repro.scatter.client.
    ArClient` instances (exact per-frame QoS through the full
    scAtteR++ event machinery); the remaining ``cohort_size -
    tracers`` members are modeled by one :class:`~repro.cohort.
    CohortEngine` tick process — aggregate credits/pacing/admission
    plus a fluid bottleneck queue — at O(1) memory and O(ticks) events
    regardless of population size.  ``ExperimentResult.cohort``
    carries the spec, the exactly-balanced frame ledger (checked
    before returning), the analytic capacity model, and mergeable
    latency sketches.

    With ``cohort_size == tracers`` the macro layer is provably
    inert — zero events, zero RNG — and the run is bit-identical to
    :func:`run_scatterpp_experiment` with the same arguments (the
    equivalence contract ``tests/test_cohort_equivalence.py`` pins).
    """
    from repro.cohort import (CohortEngine, CohortSpec,
                              DEFAULT_TICK_S, LOAD_PROCESSES,
                              check_cohort_conservation)
    from repro.scatterpp.analytics import SidecarAnalytics
    from repro.scatterpp.pipeline import scatterpp_pipeline_kwargs

    spec = CohortSpec(
        size=cohort_size, tracers=tracers,
        tick_s=tick_s if tick_s is not None else DEFAULT_TICK_S,
        load=load, load_kwargs=dict(load_kwargs or {}))
    kwargs = scatterpp_pipeline_kwargs(threshold_s=threshold_s,
                                       flow=flow)
    scope = _ComputeScope()
    sim, testbed, orchestrator, pipeline, clients = _build(
        placement, spec.tracers, seed, client_netem, kwargs,
        flow=flow, profile=profile)
    analytics = SidecarAnalytics(sim)
    for instance in orchestrator.all_instances():
        analytics.watch(instance)
    analytics.start()
    rng = None
    if LOAD_PROCESSES[spec.load].uses_rng and spec.macro_members:
        rng = testbed.rng.stream("cohort")
    engine = CohortEngine(
        sim, spec, pipeline, flow=flow,
        threshold_s=threshold_s if threshold_s is not None else 0.100,
        rng=rng)
    tracer = _attach_tracer(orchestrator, clients) if tracing else None
    engine.start(duration_s)
    for client in clients:
        client.start(duration_s)
    sim.run(until=duration_s + DRAIN_S)
    check_cohort_conservation(engine.ledger)
    result = ExperimentResult(
        config_name=placement.name, num_clients=spec.tracers,
        duration_s=duration_s,
        clients=[c.stats for c in clients], pipeline=pipeline,
        monitor=orchestrator.monitor, testbed=testbed,
        analytics=analytics, tracer=tracer,
        trace_digest=sim.fingerprint(),
        feature_cache=scope.cache_delta(),
        kernel_profile=scope.profile_delta(),
        event_profile=_event_profile(sim),
        flow=flow_summary(pipeline, clients, flow))
    result.cohort = engine.report(
        duration_s=duration_s,
        tracer_mean_fps=result.mean_fps()).as_dict()
    return result


def run_scatterpp_flow_experiment(
        placement: PlacementConfig, *, num_clients: int,
        duration_s: float = DEFAULT_DURATION_S, seed: int = 0,
        client_netem: Optional[Netem] = None,
        threshold_s: Optional[float] = None,
        tracing: bool = False,
        profile: bool = False) -> ExperimentResult:
    """scAtteR++ with the default flow substrate engaged.

    The campaign-facing variant (registered as ``scatterpp-flow``):
    same signature contract as the other runners so
    :mod:`repro.experiments.parallel` can shard it across workers.
    """
    from repro.flow import default_flow_config

    return run_scatterpp_experiment(
        placement, num_clients=num_clients, duration_s=duration_s,
        seed=seed, client_netem=client_netem, threshold_s=threshold_s,
        flow=default_flow_config(), tracing=tracing, profile=profile)


def run_ramp_experiment(
        placement: PlacementConfig, *, max_clients: int,
        stage_s: float = 10.0, seed: int = 0,
        threshold_s: Optional[float] = None) -> ExperimentResult:
    """A scAtteR++ run where clients join one by one.

    Client *i* starts streaming at ``i × stage_s`` and keeps going
    until the end of the run (Figures 8 and 12 correlate per-service
    sidecar telemetry with this staged load increase).
    """
    if max_clients < 1:
        raise ValueError(f"max_clients must be >= 1, got {max_clients}")
    if stage_s <= 0:
        raise ValueError(f"stage_s must be positive, got {stage_s}")
    from repro.scatterpp.analytics import SidecarAnalytics
    from repro.scatterpp.pipeline import scatterpp_pipeline_kwargs

    kwargs = scatterpp_pipeline_kwargs(threshold_s=threshold_s)
    scope = _ComputeScope()
    sim, testbed, orchestrator, pipeline, clients = _build(
        placement, max_clients, seed, None, kwargs)
    analytics = SidecarAnalytics(sim)
    for instance in orchestrator.all_instances():
        analytics.watch(instance)
    analytics.start()

    total_s = stage_s * max_clients
    for index, client in enumerate(clients):
        remaining = total_s - index * stage_s

        def delayed_start(client=client, delay=index * stage_s,
                          run_for=remaining):
            yield sim.timeout(delay)
            client.start(run_for)

        sim.spawn(delayed_start(), name=f"ramp-{index}")
    sim.run(until=total_s + DRAIN_S)
    return ExperimentResult(
        config_name=placement.name, num_clients=max_clients,
        duration_s=total_s,
        clients=[c.stats for c in clients], pipeline=pipeline,
        monitor=orchestrator.monitor, testbed=testbed,
        analytics=analytics, trace_digest=sim.fingerprint(),
        feature_cache=scope.cache_delta(),
        kernel_profile=scope.profile_delta())


def run_mobility_experiment(
        placement: PlacementConfig, *, num_clients: int,
        duration_s: float = DEFAULT_DURATION_S, seed: int = 0,
        trajectories=None,
        handover_config=None,
        naive: bool = False,
        plan=None,
        resilience: Optional[ResilienceConfig] = None,
        flow=None,
        threshold_s: Optional[float] = None,
        mean_dwell_s: float = 8.0,
        min_dwell_s: float = 2.0,
        tracing: bool = False) -> ExperimentResult:
    """A mobility run: clients roam between edge sites, sessions move.

    Each client follows a :class:`~repro.mobility.trajectory.
    ClientTrajectory` (seed-derived by default): its access link is
    driven through the trajectory's netem schedule, and every site
    change triggers a stateful session handover via
    :class:`~repro.mobility.handover.HandoverCoordinator` —
    ``naive=True`` swaps in the kill-and-reconnect baseline the
    benchmark compares against.  The stateful sift↔matching loop is
    kept (``stateless_sift=False``): mobility is only interesting when
    there is session state to move.

    ``plan`` (a :class:`~repro.chaos.faults.FaultPlan`) layers chaos on
    top — crashes racing handovers exercise the abort/rollback/retry
    paths; with a plan attached failures are *discovered* by the
    heartbeat detector, as in :func:`run_resilience_experiment`.
    Clients default to the stock resilience layer so mid-handover
    windows degrade to local tracking instead of stalling.
    """
    from repro.mobility.handover import HandoverCoordinator
    from repro.mobility.metrics import build_mobility_report
    from repro.mobility.trajectory import default_trajectories
    from repro.net.netem import apply_netem_schedule
    from repro.scatterpp.pipeline import scatterpp_pipeline_kwargs

    if resilience is None:
        resilience = ResilienceConfig()
    kwargs = scatterpp_pipeline_kwargs(
        threshold_s=threshold_s, stateless_sift=False, flow=flow)
    scope = _ComputeScope()
    sim, testbed, orchestrator, pipeline, clients = _build(
        placement, num_clients, seed, None, kwargs,
        resilience=resilience, watchdog=(plan is None), flow=flow)
    detector = injector = None
    if plan is not None:
        from repro.chaos.injector import FaultInjector
        from repro.orchestra.health import FailureDetector

        detector = FailureDetector(orchestrator)
        detector.start()
        injector = FaultInjector(orchestrator, plan)
        injector.start()

    if trajectories is None:
        trajectories = default_trajectories(
            num_clients, duration_s=duration_s,
            rng=testbed.rng.stream("mobility"),
            mean_dwell_s=mean_dwell_s, min_dwell_s=min_dwell_s)
    if len(trajectories) != num_clients:
        raise ValueError(
            f"need one trajectory per client: "
            f"{len(trajectories)} != {num_clients}")

    coordinator = HandoverCoordinator(
        orchestrator, service="sift", config=handover_config,
        naive=naive)
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

    tracer = _attach_tracer(orchestrator, clients) if tracing else None
    for client in clients:
        client.start(duration_s)
    sim.run(until=duration_s + DRAIN_S)

    report = build_mobility_report(
        coordinator, [c.stats for c in clients], planned=planned)
    mobility = {
        "naive": naive,
        "report": report.as_dict(),
        "handovers": [record.as_dict()
                      for record in coordinator.records],
    }
    resilience_report = None
    if injector is not None:
        from repro.metrics.resilience import build_resilience_report

        resilience_report = build_resilience_report(
            injector=injector, detector=detector,
            orchestrator=orchestrator, clients=clients)
    return ExperimentResult(
        config_name=placement.name, num_clients=num_clients,
        duration_s=duration_s,
        clients=[c.stats for c in clients], pipeline=pipeline,
        monitor=orchestrator.monitor, testbed=testbed, tracer=tracer,
        resilience=resilience_report,
        trace_digest=sim.fingerprint(),
        feature_cache=scope.cache_delta(),
        kernel_profile=scope.profile_delta(),
        flow=flow_summary(pipeline, clients, flow),
        mobility=mobility)


def run_resilience_experiment(
        placement: PlacementConfig, *, num_clients: int, plan,
        duration_s: float = DEFAULT_DURATION_S, seed: int = 0,
        resilience: Optional[ResilienceConfig] = None,
        detector_kwargs: Optional[dict] = None,
        scatterpp: bool = False,
        threshold_s: Optional[float] = None,
        client_netem: Optional[Netem] = None) -> ExperimentResult:
    """A chaos run: faults injected, failures *discovered*, QoS kept.

    Differences from the plain runners:

    * the orchestrator's container-state watchdog is off — failures
      must be discovered by the heartbeat
      :class:`~repro.orchestra.health.FailureDetector`;
    * every client gets the resilience layer (retry + breaker +
      local fallback), defaulting to :class:`ResilienceConfig`'s
      stock parameters;
    * ``plan`` (a :class:`~repro.chaos.faults.FaultPlan`) is driven by
      a :class:`~repro.chaos.injector.FaultInjector`;
    * the result carries a
      :class:`~repro.metrics.resilience.ResilienceReport` in its
      ``resilience`` field.
    """
    from repro.chaos.injector import FaultInjector
    from repro.metrics.resilience import build_resilience_report
    from repro.orchestra.health import FailureDetector

    if resilience is None:
        resilience = ResilienceConfig()
    pipeline_kwargs = None
    if scatterpp:
        from repro.scatterpp.pipeline import scatterpp_pipeline_kwargs

        pipeline_kwargs = scatterpp_pipeline_kwargs(
            threshold_s=threshold_s)
    scope = _ComputeScope()
    sim, testbed, orchestrator, pipeline, clients = _build(
        placement, num_clients, seed, client_netem, pipeline_kwargs,
        resilience=resilience, watchdog=False)
    detector = FailureDetector(orchestrator,
                               **(detector_kwargs or {}))
    detector.start()
    injector = FaultInjector(orchestrator, plan)
    injector.start()
    for client in clients:
        client.start(duration_s)
    sim.run(until=duration_s + DRAIN_S)
    report = build_resilience_report(
        injector=injector, detector=detector,
        orchestrator=orchestrator, clients=clients)
    return ExperimentResult(
        config_name=placement.name, num_clients=num_clients,
        duration_s=duration_s,
        clients=[c.stats for c in clients], pipeline=pipeline,
        monitor=orchestrator.monitor, testbed=testbed,
        resilience=report, trace_digest=sim.fingerprint(),
        feature_cache=scope.cache_delta(),
        kernel_profile=scope.profile_delta())
