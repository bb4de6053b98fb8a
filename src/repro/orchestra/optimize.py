"""Multi-objective placement + autoscaling-policy search.

The paper *characterizes* twelve hand-picked placements; this module
*searches* the space instead, following the genetic/Pareto shape of
Herabad's edge-placement optimizers: candidates are genomes (a replica
map per pipeline stage plus optional autoscaler thresholds), evaluated
against the simulator through campaign cells, and ranked by Pareto
dominance over four objectives —

* **capacity** (maximize) — the largest client count on the probe
  ladder meeting the XR SLO (mean FPS ≥ 20, p95 E2E ≤ 100 ms);
* **p95 latency at capacity** (minimize);
* **joules per delivered frame** (minimize) — from the device/server
  energy model (:mod:`repro.metrics.energy`);
* **cost units** (minimize) — machine-rate-weighted replica-seconds.

Design constraints, in priority order:

1. **Determinism is a contract.**  The loop draws every random choice
   from one seeded ``random.Random``; the oracle inherits the
   campaign layer's serial ≡ sharded ≡ cached guarantee.  Same seed ⇒
   bit-identical Pareto front, at any worker count
   (``tests/test_optimize_properties.py``).
2. **Genomes are cache keys.**  A genome encodes to an ``opt:`` spec
   string that :func:`repro.experiments.campaign.resolve_placement`
   decodes back; the content-addressed cell cache fingerprints the
   resolved placement plus the spec itself, so revisiting a genome —
   within a run, across runs, across worker counts — replays from
   cache instead of re-simulating.
3. **The front never regresses.**  Ranking happens over an archive of
   every genome ever evaluated, so each generation's front weakly
   dominates the previous one by construction.

The oracle lives in :mod:`repro.experiments.oracle`; everything here
imports the experiments layer lazily to keep ``orchestra`` importable
on its own.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.scatter import config as scatter_config
from repro.scatter.config import PIPELINE_ORDER, PlacementConfig

#: Genome spec strings start with this prefix; everything after it is
#: the encoded placement (and optional autoscaler genes).  The grammar
#: is comma-free so specs survive the CLI's ``--placements a,b,c``
#: splitting: ``opt:primary=e1;sift=e2+e1;...;matching=e2@as=...``.
SPEC_PREFIX = "opt:"

#: Testbed machine memory (GB) — the schedulability check the search
#: space enforces so mutation/crossover can never emit a genome the
#: scheduler would reject.
MACHINE_MEMORY_GB = {"e1": 128.0, "e2": 264.0, "cloud": 64.0}

#: Autoscaler gene alphabets (small and discrete: keeps the search
#: space countable and every encoded float round-trippable).
DROP_RATIO_CHOICES = (0.02, 0.05, 0.10)
QUEUE_DEPTH_CHOICES = (8, 16, 32)
MAX_REPLICA_CHOICES = (2, 3, 4)


class OptimizeError(ValueError):
    """Raised for malformed genomes, infeasible search configs, or
    failed oracle evaluations.  A ``ValueError`` so campaign-layer
    fail-fast validation (``Campaign.__post_init__`` resolving every
    placement) treats a bad genome spec like any other bad name."""


# ----------------------------------------------------------------------
# Genome encoding
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScalerGenes:
    """Autoscaler-policy half of a genome (app-aware thresholds)."""

    drop_ratio: float = 0.05
    queue_depth: int = 16
    max_replicas: int = 3
    machine: str = "e1"

    def __post_init__(self) -> None:
        if self.drop_ratio <= 0:
            raise OptimizeError(
                f"drop_ratio must be positive, got {self.drop_ratio}")
        if self.queue_depth < 1:
            raise OptimizeError(
                f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.max_replicas < 1:
            raise OptimizeError(
                f"max_replicas must be >= 1, got {self.max_replicas}")
        if not self.machine:
            raise OptimizeError("scaler machine must be non-empty")

    def encode(self) -> str:
        return (f"as=drop{self.drop_ratio:g}+depth{self.queue_depth}"
                f"+max{self.max_replicas}+{self.machine}")

    @classmethod
    def decode(cls, text: str) -> "ScalerGenes":
        if not text.startswith("as="):
            raise OptimizeError(f"bad scaler genes {text!r}")
        parts = text[3:].split("+")
        if len(parts) != 4:
            raise OptimizeError(f"bad scaler genes {text!r}")
        drop, depth, cap, machine = parts
        if not (drop.startswith("drop") and depth.startswith("depth")
                and cap.startswith("max")):
            raise OptimizeError(f"bad scaler genes {text!r}")
        try:
            return cls(drop_ratio=float(drop[4:]),
                       queue_depth=int(depth[5:]),
                       max_replicas=int(cap[3:]),
                       machine=machine)
        except ValueError as error:
            raise OptimizeError(
                f"bad scaler genes {text!r}: {error}") from error

    def as_dict(self) -> Dict:
        return {"drop_ratio": self.drop_ratio,
                "queue_depth": self.queue_depth,
                "max_replicas": self.max_replicas,
                "machine": self.machine}


@dataclass(frozen=True)
class Genome:
    """One candidate: a replica map plus optional autoscaler genes.

    ``machines[i]`` lists the machine of every replica of
    ``PIPELINE_ORDER[i]``, in deployment order — the same shape as
    :class:`~repro.scatter.config.PlacementConfig.placements`.
    """

    machines: Tuple[Tuple[str, ...], ...]
    scaler: Optional[ScalerGenes] = None

    def __post_init__(self) -> None:
        if len(self.machines) != len(PIPELINE_ORDER):
            raise OptimizeError(
                f"need {len(PIPELINE_ORDER)} replica lists, "
                f"got {len(self.machines)}")
        for service, replicas in zip(PIPELINE_ORDER, self.machines):
            if not replicas:
                raise OptimizeError(f"{service} has no replicas")
            for machine in replicas:
                if not machine or any(c in machine for c in ";+=@,"):
                    raise OptimizeError(
                        f"bad machine name {machine!r} for {service}")

    # ------------------------------------------------------------------
    def encode(self) -> str:
        """The canonical ``opt:`` spec string (cache-key material)."""
        body = ";".join(
            f"{service}={'+'.join(replicas)}"
            for service, replicas in zip(PIPELINE_ORDER, self.machines))
        if self.scaler is not None:
            body += "@" + self.scaler.encode()
        return SPEC_PREFIX + body

    @classmethod
    def decode(cls, spec: str) -> "Genome":
        if not spec.startswith(SPEC_PREFIX):
            raise OptimizeError(f"not a genome spec: {spec!r}")
        body = spec[len(SPEC_PREFIX):]
        scaler = None
        if "@" in body:
            body, scaler_text = body.split("@", 1)
            scaler = ScalerGenes.decode(scaler_text)
        parts = body.split(";")
        if len(parts) != len(PIPELINE_ORDER):
            raise OptimizeError(
                f"expected {len(PIPELINE_ORDER)} services in {spec!r}")
        machines: List[Tuple[str, ...]] = []
        for service, part in zip(PIPELINE_ORDER, parts):
            prefix = f"{service}="
            if not part.startswith(prefix):
                raise OptimizeError(
                    f"expected {service!r} at {part!r} in {spec!r}")
            replicas = tuple(m for m in part[len(prefix):].split("+"))
            if any(not m for m in replicas):
                raise OptimizeError(
                    f"empty machine name in {part!r}")
            machines.append(replicas)
        return cls(machines=tuple(machines), scaler=scaler)

    # ------------------------------------------------------------------
    def to_placement(self) -> PlacementConfig:
        """A :class:`PlacementConfig` whose *name is the spec* — so the
        cell cache's ``repr(resolved placement)`` covers the whole
        genome, autoscaler genes included."""
        return PlacementConfig(self.encode(), {
            service: list(replicas)
            for service, replicas in zip(PIPELINE_ORDER, self.machines)})

    @classmethod
    def from_placement(cls, placement: PlacementConfig,
                       scaler: Optional[ScalerGenes] = None) -> "Genome":
        """Lift any static placement (C1..C21, cloud, vectors) into
        genome space."""
        return cls(machines=tuple(
            tuple(placement.placements[service])
            for service in PIPELINE_ORDER), scaler=scaler)

    def machines_used(self) -> List[str]:
        names = {m for replicas in self.machines for m in replicas}
        if self.scaler is not None:
            names.add(self.scaler.machine)
        return sorted(names)


def is_genome_spec(name: str) -> bool:
    return name.startswith(SPEC_PREFIX)


# ----------------------------------------------------------------------
# Search space: schedulability, mutation, crossover
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SearchSpace:
    """The feasible genome set plus its variation operators.

    Every operator is *closed over schedulable genomes*: mutation and
    crossover validate their output against replica bounds and machine
    memory and fall back to a known-schedulable parent rather than
    emit an infeasible candidate (the property
    ``tests/test_optimize_properties.py`` pins).
    """

    machines: Tuple[str, ...] = ("e1", "e2")
    max_replicas_per_service: int = 3
    scaler: bool = True
    memory_gb: Mapping[str, float] = field(
        default_factory=lambda: dict(MACHINE_MEMORY_GB))
    #: Probability knobs for the variation operators.
    scaler_rate: float = 0.25
    crossover_rate: float = 0.7

    def __post_init__(self) -> None:
        if not self.machines:
            raise OptimizeError("need at least one machine")
        for machine in self.machines:
            if machine not in self.memory_gb:
                raise OptimizeError(
                    f"machine {machine!r} missing from memory_gb")
        if self.max_replicas_per_service < 1:
            raise OptimizeError("max_replicas_per_service must be >= 1")

    # ------------------------------------------------------------------
    def is_schedulable(self, genome: Genome) -> bool:
        """Replica bounds, known machines, and memory fit."""
        loads: Dict[str, float] = {}
        for service, replicas in zip(PIPELINE_ORDER, genome.machines):
            if not 1 <= len(replicas) <= self.max_replicas_per_service:
                return False
            for machine in replicas:
                if machine not in self.machines:
                    return False
                loads[machine] = (
                    loads.get(machine, 0.0)
                    + scatter_config.SERVICE_MEMORY_BYTES[service])
        from repro.cluster.machine import GB

        for machine, used in loads.items():
            if used > self.memory_gb[machine] * GB:
                return False
        if genome.scaler is not None:
            if not self.scaler:
                return False
            if genome.scaler.machine not in self.machines:
                return False
        return True

    # ------------------------------------------------------------------
    def random_scaler(self, rng: random.Random) -> ScalerGenes:
        return ScalerGenes(
            drop_ratio=rng.choice(DROP_RATIO_CHOICES),
            queue_depth=rng.choice(QUEUE_DEPTH_CHOICES),
            max_replicas=rng.choice(MAX_REPLICA_CHOICES),
            machine=rng.choice(self.machines))

    def random_genome(self, rng: random.Random) -> Genome:
        machines = []
        for __ in PIPELINE_ORDER:
            count = rng.choice(
                (1, 1, min(2, self.max_replicas_per_service)))
            machines.append(tuple(rng.choice(self.machines)
                                  for __ in range(count)))
        scaler = None
        if self.scaler and rng.random() < self.scaler_rate:
            scaler = self.random_scaler(rng)
        genome = Genome(machines=tuple(machines), scaler=scaler)
        if not self.is_schedulable(genome):
            # Memory can only overflow on tiny memory_gb overrides;
            # collapse to single replicas on the first machine.
            genome = Genome(machines=tuple(
                (self.machines[0],) for __ in PIPELINE_ORDER))
        return genome

    def mutate(self, genome: Genome, rng: random.Random) -> Genome:
        """One structural edit; always schedulable (falls back to the
        input, which callers guarantee is schedulable)."""
        for __ in range(8):
            candidate = self._mutate_once(genome, rng)
            if self.is_schedulable(candidate):
                return candidate
        return genome

    def _mutate_once(self, genome: Genome,
                     rng: random.Random) -> Genome:
        ops = ["swap"]
        if any(len(r) < self.max_replicas_per_service
               for r in genome.machines):
            ops.append("add")
        if any(len(r) > 1 for r in genome.machines):
            ops.append("remove")
        if self.scaler:
            ops.append("scaler")
        op = rng.choice(ops)
        machines = [list(r) for r in genome.machines]
        scaler = genome.scaler
        if op == "swap":
            index = rng.randrange(len(machines))
            slot = rng.randrange(len(machines[index]))
            machines[index][slot] = rng.choice(self.machines)
        elif op == "add":
            eligible = [i for i, r in enumerate(machines)
                        if len(r) < self.max_replicas_per_service]
            index = rng.choice(eligible)
            machines[index].append(rng.choice(self.machines))
        elif op == "remove":
            eligible = [i for i, r in enumerate(machines)
                        if len(r) > 1]
            index = rng.choice(eligible)
            machines[index].pop(rng.randrange(len(machines[index])))
        else:  # scaler: toggle off, toggle on, or re-draw the genes
            scaler = (None if scaler is not None
                      and rng.random() < 0.5
                      else self.random_scaler(rng))
        return Genome(machines=tuple(tuple(r) for r in machines),
                      scaler=scaler)

    def crossover(self, a: Genome, b: Genome,
                  rng: random.Random) -> Genome:
        """Uniform per-service crossover; always schedulable (falls
        back to parent ``a``)."""
        for __ in range(8):
            machines = tuple(
                a.machines[i] if rng.random() < 0.5 else b.machines[i]
                for i in range(len(PIPELINE_ORDER)))
            scaler = a.scaler if rng.random() < 0.5 else b.scaler
            candidate = Genome(machines=machines, scaler=scaler)
            if self.is_schedulable(candidate):
                return candidate
        return a


# ----------------------------------------------------------------------
# Objectives and Pareto machinery
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Objectives:
    """One genome's measured objective vector."""

    capacity: int
    p95_ms: float
    joules_per_frame: float
    cost_units: float

    def vector(self) -> Tuple[float, float, float, float]:
        """All-minimize form (capacity negated) for dominance."""
        return (-float(self.capacity), self.p95_ms,
                self.joules_per_frame, self.cost_units)

    def as_dict(self) -> Dict:
        return {"capacity": self.capacity,
                "p95_ms": self.p95_ms,
                "joules_per_frame": self.joules_per_frame,
                "cost_units": self.cost_units}


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Strict Pareto dominance on all-minimize vectors."""
    return (all(x <= y for x, y in zip(a, b))
            and any(x < y for x, y in zip(a, b)))


def pareto_front(archive: Mapping[str, Objectives]
                 ) -> List[Tuple[str, Objectives]]:
    """Nondominated members of the archive, deterministically ordered
    (best capacity first, then p95, joules, cost, spec)."""
    entries = sorted(archive.items(),
                     key=lambda kv: (kv[1].vector(), kv[0]))
    front: List[Tuple[str, Objectives]] = []
    for spec, objectives in entries:
        vector = objectives.vector()
        if any(dominates(other.vector(), vector)
               for __, other in entries):
            continue
        front.append((spec, objectives))
    return front


# ----------------------------------------------------------------------
# The campaign-cell oracle
# ----------------------------------------------------------------------
class CampaignOracle:
    """Evaluates genome batches through ``run_campaign`` cells.

    One batch = one campaign: every unevaluated genome × the full
    client ladder × one seed, sharded across ``workers`` and replayed
    from ``cache`` on revisits.  Grading reuses the capacity probe's
    SLO: capacity is the longest ladder prefix meeting it; p95,
    joules-per-frame, and cost are read at the capacity point.
    """

    def __init__(self, *, ladder: Tuple[int, ...] = (1, 2, 3, 4),
                 duration_s: float = 4.0, seed: int = 0,
                 workers: int = 0, cache=None):
        if not ladder or list(ladder) != sorted(set(ladder)):
            raise OptimizeError(
                f"ladder must be strictly increasing, got {ladder}")
        self.ladder = tuple(ladder)
        self.duration_s = duration_s
        self.seed = seed
        self.workers = workers
        # Accept a CampaignCellCache or a directory path and hold one
        # resolved instance so hit/miss counters accumulate across
        # generations.
        from repro.experiments.cache import resolve_cell_cache

        self.cache = resolve_cell_cache(cache)

    def evaluate(self, specs: Sequence[str]
                 ) -> Tuple[Dict[str, Objectives], List[Dict]]:
        """Objectives per spec plus per-cell provenance records."""
        from repro.experiments.cache import task_fingerprint
        from repro.experiments.campaign import Campaign, run_campaign
        from repro.experiments.capacity import CapacitySlo
        from repro.experiments.parallel import plan_tasks

        if not specs:
            return {}, []
        campaign = Campaign(
            name="optimize-oracle", pipelines=("optimize",),
            placements=tuple(specs), client_counts=self.ladder,
            duration_s=self.duration_s, seeds=(self.seed,))
        calls = [{"genome": task.placement, "clients": task.clients,
                  "seed": task.seed,
                  "fingerprint": task_fingerprint(task)}
                 for task in plan_tasks(campaign)]
        report = run_campaign(campaign, workers=self.workers,
                              cache=self.cache)
        if report.failures:
            failed = sorted(
                f"{cell[1]}@{cell[2]}c: {records[0].error.splitlines()[0]}"
                for cell, records in report.failures.items())
            raise OptimizeError(
                "oracle cells failed: " + "; ".join(failed))

        slo = CapacitySlo()
        results: Dict[str, Objectives] = {}
        for spec in specs:
            rungs = {}
            for clients in self.ladder:
                summaries = report.summaries[
                    ("optimize", spec, clients)]
                rungs[clients] = summaries[0]
            capacity = 0
            for clients in self.ladder:
                summary = rungs[clients]
                if not slo.met_by(summary["fps"],
                                  summary["p95_e2e_ms"]):
                    break
                capacity = clients
            graded = rungs[capacity if capacity else self.ladder[0]]
            energy = graded.get("energy") or {}
            joules = energy.get("joules_per_frame")
            results[spec] = Objectives(
                capacity=capacity,
                p95_ms=float(graded["p95_e2e_ms"]),
                joules_per_frame=(float(joules) if joules is not None
                                  else float("inf")),
                cost_units=float(energy.get("cost_units", 0.0)))
        return results, calls

    def cache_report(self) -> Optional[Dict]:
        return self.cache.report() if self.cache is not None else None


# ----------------------------------------------------------------------
# The search loop
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OptimizeConfig:
    """Everything that parameterizes one search run."""

    name: str = "optimize"
    seed: int = 0
    population: int = 8
    generations: int = 3
    #: Hard cap on distinct genomes sent to the oracle (None = only
    #: ``population × (generations + 1)`` bounds the run).
    budget: Optional[int] = None
    ladder: Tuple[int, ...] = (1, 2, 3, 4)
    duration_s: float = 4.0
    oracle_seed: int = 0
    workers: int = 0
    machines: Tuple[str, ...] = ("e1", "e2")
    max_replicas_per_service: int = 3
    scaler: bool = True

    def __post_init__(self) -> None:
        if self.population < 2:
            raise OptimizeError("population must be >= 2")
        if self.generations < 0:
            raise OptimizeError("generations must be >= 0")
        if self.budget is not None and self.budget < 1:
            raise OptimizeError("budget must be >= 1")

    def as_dict(self) -> Dict:
        return {"name": self.name, "seed": self.seed,
                "population": self.population,
                "generations": self.generations,
                "budget": self.budget,
                "ladder": list(self.ladder),
                "duration_s": self.duration_s,
                "oracle_seed": self.oracle_seed,
                "machines": list(self.machines),
                "max_replicas_per_service":
                    self.max_replicas_per_service,
                "scaler": self.scaler}


@dataclass
class OptimizationReport:
    """Serializable outcome of one search run."""

    config: Dict
    #: Nondominated archive members: [{"genome", "objectives"}],
    #: best-capacity first, deterministically ordered.
    front: List[Dict]
    #: Per-generation log: evaluations, archive size, front snapshot.
    generations: List[Dict]
    #: Distinct genomes sent to the oracle.
    evaluations: int
    #: Every oracle cell: genome, clients, seed, cell fingerprint.
    oracle_calls: List[Dict]
    #: Cell-cache stats (hits/misses/stored), or None when uncached.
    cache: Optional[Dict] = None

    def as_dict(self) -> Dict:
        return {"config": self.config, "front": self.front,
                "generations": self.generations,
                "evaluations": self.evaluations,
                "oracle_calls": self.oracle_calls,
                "cache": self.cache}

    def front_digest(self) -> str:
        """Blake2b over the canonical front JSON — the bit-identity
        witness two same-seed runs must agree on."""
        payload = json.dumps(self.front, sort_keys=True)
        return hashlib.blake2b(payload.encode(),
                               digest_size=16).hexdigest()

    def best(self) -> Optional[Dict]:
        return self.front[0] if self.front else None


def static_seed_genomes(space: SearchSpace) -> List[Genome]:
    """Known-good static placements lifted into genome space — the
    paper's configurations seed the population so the search starts
    from the characterized frontier instead of noise."""
    from repro.scatter.config import (baseline_configs, cloud_config,
                                      hybrid_config, scaling_config)

    candidates = list(baseline_configs().values())
    candidates += [cloud_config(), hybrid_config()]
    candidates += [scaling_config(vector) for vector in
                   ([2, 2, 1, 1, 1], [1, 2, 1, 1, 2], [1, 2, 2, 1, 2])]
    genomes = []
    for placement in candidates:
        genome = Genome.from_placement(placement)
        if space.is_schedulable(genome):
            genomes.append(genome)
    return genomes


class PlacementSearch:
    """Seeded genetic loop with Pareto ranking over the archive."""

    def __init__(self, config: OptimizeConfig, *, oracle=None,
                 cache=None):
        self.config = config
        self.space = SearchSpace(
            machines=tuple(config.machines),
            max_replicas_per_service=config.max_replicas_per_service,
            scaler=config.scaler)
        self.oracle = oracle if oracle is not None else CampaignOracle(
            ladder=config.ladder, duration_s=config.duration_s,
            seed=config.oracle_seed, workers=config.workers,
            cache=cache)

    # ------------------------------------------------------------------
    def seed_population(self, rng: random.Random) -> List[Genome]:
        population = static_seed_genomes(self.space)
        while len(population) < self.config.population:
            population.append(self.space.random_genome(rng))
        return population[:max(self.config.population,
                               len(population))]

    # ------------------------------------------------------------------
    def run(self) -> OptimizationReport:
        config = self.config
        rng = random.Random(config.seed)
        archive: Dict[str, Objectives] = {}
        oracle_calls: List[Dict] = []
        generation_log: List[Dict] = []
        evaluations = 0
        population = self.seed_population(rng)

        for generation in range(config.generations + 1):
            new_specs = []
            for genome in population:
                spec = genome.encode()
                if spec not in archive and spec not in new_specs:
                    new_specs.append(spec)
            if config.budget is not None:
                remaining = config.budget - evaluations
                new_specs = new_specs[:max(0, remaining)]
            if new_specs:
                results, calls = self.oracle.evaluate(new_specs)
                archive.update(results)
                oracle_calls.extend(calls)
                evaluations += len(new_specs)

            front = pareto_front(archive)
            generation_log.append({
                "generation": generation,
                "evaluated": len(new_specs),
                "archive": len(archive),
                "front": [{"genome": spec,
                           "objectives": objectives.as_dict()}
                          for spec, objectives in front],
                "best_capacity": max(
                    (o.capacity for __, o in front), default=0),
            })
            exhausted = (config.budget is not None
                         and evaluations >= config.budget)
            if generation == config.generations or exhausted:
                break
            population = self._next_population(archive, front, rng)

        front = pareto_front(archive)
        return OptimizationReport(
            config=config.as_dict(),
            front=[{"genome": spec, "objectives": objectives.as_dict()}
                   for spec, objectives in front],
            generations=generation_log,
            evaluations=evaluations,
            oracle_calls=oracle_calls,
            cache=self.oracle.cache_report()
            if hasattr(self.oracle, "cache_report") else None)

    # ------------------------------------------------------------------
    def _next_population(self, archive: Mapping[str, Objectives],
                         front: List[Tuple[str, Objectives]],
                         rng: random.Random) -> List[Genome]:
        """Front members breed; elites re-enter (and dedup against the
        archive at evaluation time, costing nothing)."""
        front_specs = {spec for spec, __ in front}
        ranked = sorted(
            archive.items(),
            key=lambda kv: (0 if kv[0] in front_specs else 1,
                            kv[1].vector(), kv[0]))
        parents = [Genome.decode(spec) for spec, __ in
                   ranked[:max(2, self.config.population // 2)]]
        population = parents[:2]
        while len(population) < self.config.population:
            if (len(parents) >= 2
                    and rng.random() < self.space.crossover_rate):
                a, b = rng.sample(parents, 2)
                child = self.space.crossover(a, b, rng)
            else:
                child = parents[len(population) % len(parents)]
            population.append(self.space.mutate(child, rng))
        return population


def run_search(config: OptimizeConfig, *,
               cache=None) -> OptimizationReport:
    """Convenience wrapper: build and run one search."""
    return PlacementSearch(config, cache=cache).run()
