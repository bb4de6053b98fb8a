"""Experiment harness: testbeds, runners and per-figure reproductions.

:func:`repro.experiments.runner.run` drives the one deployment an
:class:`~repro.experiments.runner.ExperimentSpec` describes and returns
an :class:`~repro.experiments.runner.ExperimentResult` holding QoS and
hardware metrics; :mod:`repro.experiments.figures` maps every figure of
the paper's evaluation to a function regenerating its rows.
"""

from repro.experiments.cache import (
    CampaignCellCache,
    code_fingerprint,
    task_fingerprint,
)
from repro.experiments.parallel import (
    CellFailure,
    CellTask,
    TaskOutcome,
    effective_workers,
    plan_tasks,
    run_tasks,
    shutdown_pool,
    warm_pool,
)
from repro.experiments.repetition import (
    ReplicatedMetric,
    aggregate_summaries,
    replicate,
    replicate_experiment,
    significantly_better,
)
from repro.experiments.runner import (
    ChaosOptions,
    CohortOptions,
    ExperimentResult,
    ExperimentSpec,
    MobilityOptions,
    RampOptions,
    ScatterppOptions,
    run,
)
from repro.experiments.store import (
    ResultStore,
    diff_results,
    regressions,
    summarize_result,
)

__all__ = [
    "CampaignCellCache",
    "CellFailure",
    "CellTask",
    "ChaosOptions",
    "CohortOptions",
    "ExperimentResult",
    "ExperimentSpec",
    "MobilityOptions",
    "RampOptions",
    "ScatterppOptions",
    "code_fingerprint",
    "effective_workers",
    "ReplicatedMetric",
    "ResultStore",
    "TaskOutcome",
    "aggregate_summaries",
    "diff_results",
    "plan_tasks",
    "regressions",
    "replicate",
    "replicate_experiment",
    "run",
    "run_tasks",
    "shutdown_pool",
    "significantly_better",
    "summarize_result",
    "task_fingerprint",
    "warm_pool",
]
