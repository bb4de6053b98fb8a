"""Tests for seed replication and confidence intervals."""

from dataclasses import replace

import pytest

from repro.experiments.repetition import (
    ReplicatedMetric,
    replicate,
    replicate_experiment,
    significantly_better,
)
from repro.experiments.runner import ExperimentSpec
from repro.scatter.config import baseline_configs


def test_replicated_metric_statistics():
    metric = ReplicatedMetric("fps", (10.0, 12.0, 14.0))
    assert metric.mean == pytest.approx(12.0)
    assert metric.std == pytest.approx(2.0)
    # t(0.975, df=2) * s / sqrt(n); with two degrees of freedom the
    # quantile has the closed form (2p - 1) / sqrt(2p(1 - p)).
    t_crit = 0.95 / (2 * 0.975 * 0.025) ** 0.5
    assert t_crit == pytest.approx(4.302652729749464, rel=1e-14)
    assert metric.ci95_halfwidth == pytest.approx(
        t_crit * 2.0 / 3 ** 0.5, rel=1e-12)
    low, high = metric.interval
    assert low < 12.0 < high


def test_single_value_has_zero_interval():
    metric = ReplicatedMetric("fps", (10.0,))
    assert metric.std == 0.0
    assert metric.ci95_halfwidth == 0.0
    assert metric.interval == (10.0, 10.0)


def test_identical_values_zero_spread():
    metric = ReplicatedMetric("fps", (5.0, 5.0, 5.0))
    assert metric.std == 0.0
    assert metric.ci95_halfwidth == 0.0


def test_significantly_better_logic():
    high = ReplicatedMetric("fps", (20.0, 21.0, 22.0))
    low = ReplicatedMetric("fps", (10.0, 11.0, 12.0))
    touching = ReplicatedMetric("fps", (18.0, 21.0, 24.0))
    assert significantly_better(high, low)
    assert not significantly_better(low, high)
    assert not significantly_better(touching, high)


def test_replicate_validation():
    with pytest.raises(ValueError):
        replicate(lambda seed: {}, seeds=())


def test_replicate_runs_all_seeds():
    seen = []

    def fake_run(seed):
        seen.append(seed)
        return {"fps": 10.0 + seed, "success_rate": 0.5,
                "e2e_ms": 40.0, "jitter_ms": 2.0, "qoe_mos": 3.0}

    metrics = replicate(fake_run, seeds=(1, 2, 3))
    assert seen == [1, 2, 3]
    assert metrics["fps"].values == (11.0, 12.0, 13.0)
    assert set(metrics) == {"fps", "success_rate", "e2e_ms",
                            "jitter_ms", "qoe_mos"}


def test_replicate_experiment_end_to_end():
    metrics = replicate_experiment(
        ExperimentSpec(baseline_configs()["C1"], 2, 6.0), seeds=(0, 1, 2))
    fps = metrics["fps"]
    assert len(fps.values) == 3
    assert fps.mean > 0
    # Different seeds produce different (but nearby) outcomes.
    assert fps.std > 0
    assert fps.ci95_halfwidth < fps.mean


def test_scatterpp_significantly_beats_scatter():
    """The headline claim survives seed variation."""
    seeds = (0, 1, 2)
    spec = ExperimentSpec(baseline_configs()["C1"], 4, 8.0)
    scatter = replicate_experiment(spec, seeds=seeds)
    scatterpp = replicate_experiment(
        replace(spec, pipeline="scatterpp"), seeds=seeds)
    assert significantly_better(scatterpp["fps"], scatter["fps"])
