"""Golden digests of every runner variant.

``tests/golden/determinism_digests.json`` and ``flow_digests.json`` pin
only plain scatter / scatterpp / scatterpp-flow campaign cells.  This
file pins one short cell of every other way the harness builds and
drives a testbed — tracing, client netem, both scAtteR++ ablations, an
active cohort macro layer, the staged ramp, mobility (stateful, naive,
and racing a crash), chaos on both pipelines and an optimizer genome
with autoscaler genes — so a refactor of the harness that reorders a
single scheduled event shows up as a changed digest.

Each entry pins the kernel's trace digest plus a digest of the run's
summary.  After an *intentional* behaviour change, regenerate with
``PYTHONPATH=src python tests/golden/regenerate_determinism.py``.
"""

import hashlib
import json
import pathlib

import pytest

from repro.experiments.runner import (
    ChaosOptions,
    CohortOptions,
    ExperimentSpec,
    MobilityOptions,
    RampOptions,
    ScatterppOptions,
    run,
)

RUNNER_GOLDEN_PATH = (pathlib.Path(__file__).parent / "golden"
                      / "runner_digests.json")

#: Virtual seconds per pinned cell.
DURATION_S = 2.0


def _placement(name):
    from repro.experiments.campaign import resolve_placement

    return resolve_placement(name)


def _crash_plan():
    from repro.chaos.faults import FaultPlan, InstanceCrash

    return FaultPlan(faults=[InstanceCrash(at_s=1.0, service="sift")])


def _scatter_netem():
    from repro.net.netem import Netem, mobility_oscillation

    return ExperimentSpec(
        _placement("C1"), 2, DURATION_S, seed=1,
        client_netem=Netem(delay_s=0.005, loss=1e-3,
                           **mobility_oscillation()))


def _cohort_poisson():
    from repro.flow import default_flow_config

    return ExperimentSpec(
        _placement("C1"), 2, DURATION_S, pipeline="scatterpp",
        flow=default_flow_config(),
        cohort=CohortOptions(size=200, load="poisson"))


def _mobility(**options):
    return ExperimentSpec(
        _placement("C1"), 2, DURATION_S, pipeline="scatterpp",
        mobility=MobilityOptions(mean_dwell_s=0.8, min_dwell_s=0.4,
                                 **options.pop("mobility", {})),
        **options)


def _resilience(pipeline, **chaos):
    return ExperimentSpec(
        _placement("C2"), 1, DURATION_S, pipeline=pipeline,
        chaos=ChaosOptions(plan=_crash_plan(), **chaos))


def _optimize_scaler():
    from repro.experiments.oracle import optimize_cell
    from repro.orchestra.optimize import Genome, ScalerGenes

    genome = Genome.from_placement(
        _placement("C1"),
        scaler=ScalerGenes(drop_ratio=0.02, queue_depth=8,
                           max_replicas=2, machine="e1"))
    return optimize_cell(genome.to_placement(), num_clients=2,
                         duration_s=DURATION_S, seed=0)


#: cell name -> () -> ExperimentSpec
RUNNER_CELLS = {
    "scatter/trace": lambda: ExperimentSpec(
        _placement("C12"), 2, DURATION_S, tracing=True),
    "scatter/netem": _scatter_netem,
    "scatterpp/stateful-sift": lambda: ExperimentSpec(
        _placement("C12"), 2, DURATION_S, pipeline="scatterpp",
        scatterpp=ScatterppOptions(stateless_sift=False)),
    "scatterpp/no-sidecars": lambda: ExperimentSpec(
        _placement("C12"), 2, DURATION_S, pipeline="scatterpp",
        scatterpp=ScatterppOptions(with_sidecars=False)),
    "cohort/poisson": _cohort_poisson,
    "ramp": lambda: ExperimentSpec(
        _placement("C12"), 2, DURATION_S, pipeline="scatterpp",
        ramp=RampOptions(stage_s=DURATION_S / 2)),
    "mobility/stateful": lambda: _mobility(),
    "mobility/naive": lambda: _mobility(mobility={"naive": True}),
    "mobility/crash": lambda: _mobility(
        chaos=ChaosOptions(plan=_crash_plan())),
    "resilience/scatter": lambda: _resilience("scatter"),
    "resilience/scatterpp": lambda: _resilience(
        "scatterpp",
        detector_kwargs={"interval_s": 0.2, "dead_timeout_s": 1.0}),
    "optimize/scaler-genes": _optimize_scaler,
}


def cell_digests(result):
    """``{"trace": kernel digest, "summary": summary digest}``."""
    from dataclasses import asdict

    from repro.experiments.store import summarize_result

    summary = summarize_result(result)
    if result.resilience is not None:
        summary["resilience"] = asdict(result.resilience)
    blob = json.dumps(summary, sort_keys=True, default=repr)
    return {"trace": result.trace_digest,
            "summary": hashlib.blake2b(blob.encode(),
                                       digest_size=16).hexdigest()}


def runner_digest_map():
    """Digests of every pinned cell, keyed by cell name."""
    return {name: cell_digests(run(cell()))
            for name, cell in sorted(RUNNER_CELLS.items())}


@pytest.mark.parametrize("name", sorted(RUNNER_CELLS))
def test_runner_cell_matches_golden(name):
    golden = json.loads(RUNNER_GOLDEN_PATH.read_text())["digests"]
    assert cell_digests(run(RUNNER_CELLS[name]())) == golden[name], (
        f"runner cell {name} drifted from "
        f"tests/golden/runner_digests.json")


def test_golden_covers_exactly_the_pinned_cells():
    golden = json.loads(RUNNER_GOLDEN_PATH.read_text())["digests"]
    assert sorted(golden) == sorted(RUNNER_CELLS)
