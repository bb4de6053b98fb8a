"""The optimizer's evaluation oracle: genome specs → experiment specs.

Registered as the ``optimize`` pipeline in
:data:`repro.experiments.campaign.PIPELINES`, so genome candidates ride
the whole campaign stack — sharding across warm workers, failure
quarantine, and the content-addressed cell cache — exactly like every
characterization cell.

One oracle cell is a scAtteR++ run with the default flow substrate
(the best-performing configuration PR 5 pinned) plus, when the genome
carries autoscaler genes, an app-aware :class:`~repro.orchestra.
autoscaler.Autoscaler` (the spec's ``autoscaler`` block).  After the
run, the device/server energy model attributes joules and cost (the
spec's ``energy`` block, :func:`repro.metrics.energy.energy_summary`)
— post-hoc, from counters, moving zero events.

Neutrality contract (pinned by ``tests/test_determinism.py``): a
genome with no scaler genes — or a plain static placement name —
walks a trajectory *byte-identical* to the ``scatterpp-flow`` runner's
for the same placement, so the oracle inherits the serial ≡ sharded ≡
cached determinism guarantee without new golden files.
"""

from __future__ import annotations

from repro.experiments.runner import ExperimentSpec
from repro.orchestra.optimize import Genome, is_genome_spec
from repro.scatter.config import PlacementConfig


def optimize_cell(placement: PlacementConfig, *, num_clients: int,
                  duration_s: float, seed: int) -> ExperimentSpec:
    """One oracle cell: flow-on scAtteR++, the genome's autoscaler
    genes (decoded from the placement name, which *is* the genome's
    spec string), post-hoc energy attribution."""
    from repro.flow import default_flow_config
    from repro.metrics.energy import DEFAULT_POWER_MODEL

    genes = (Genome.decode(placement.name).scaler
             if is_genome_spec(placement.name) else None)
    return ExperimentSpec(placement, num_clients, duration_s, seed,
                          pipeline="scatterpp",
                          flow=default_flow_config(), autoscaler=genes,
                          energy=DEFAULT_POWER_MODEL)
