"""Tests for the command-line interface."""

import multiprocessing
import os

import pytest

from repro import cli
from repro.cli import FIGURES, _placement_arg, build_parser, main
from repro.experiments import campaign as campaign_mod
from repro.experiments.parallel import effective_workers, shutdown_pool


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["run", "--config", "C1", "--clients",
                              "2", "--duration", "5"])
    assert args.command == "run"
    assert args.clients == 2


def test_figures_command_lists_all(capsys):
    assert main(["figures"]) == 0
    out = capsys.readouterr().out
    for name in FIGURES:
        assert name in out


def test_figures_registry_covers_evaluation():
    expected = {"fig2", "fig3", "fig4", "fig6", "fig7", "fig8",
                "fig9", "fig10", "fig11", "fig12", "headline"}
    assert set(FIGURES) == expected


def test_run_command_scatter(capsys):
    code = main(["run", "--config", "C1", "--clients", "1",
                 "--duration", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean FPS" in out
    assert "sift" in out


def test_run_command_scatterpp_with_trace(capsys):
    code = main(["run", "--config", "C2", "--pipeline", "scatterpp",
                 "--clients", "1", "--duration", "3", "--trace"])
    assert code == 0
    out = capsys.readouterr().out
    assert "trace component" in out
    assert "network" in out


def test_run_command_replica_vector(capsys):
    code = main(["run", "--config", "1,2,1,1,2", "--clients", "1",
                 "--duration", "2"])
    assert code == 0
    assert "[1, 2, 1, 1, 2]" in capsys.readouterr().out


def test_figure_command(capsys):
    code = main(["figure", "fig4", "--duration", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "cloud" in out
    assert "FPS" in out


def test_figure_command_unknown(capsys):
    assert main(["figure", "fig99"]) == 2


def test_testbed_command(capsys):
    assert main(["testbed"]) == 0
    out = capsys.readouterr().out
    assert "e1" in out and "e2" in out and "cloud" in out
    assert "15.00" in out  # client <-> cloud RTT


def test_named_config_errors():
    with pytest.raises(SystemExit):
        _placement_arg("nonsense")


def test_named_config_variants():
    assert _placement_arg("C21").name == "C21"
    assert _placement_arg("cloud").name == "cloud"
    assert _placement_arg("hybrid").name == "hybrid"
    assert _placement_arg("[1, 3, 2, 1, 3]").replica_vector() == \
        [1, 3, 2, 1, 3]


def test_config_accepts_genome_specs():
    genome = "opt:primary=e1;sift=e1;encoding=e2;lsh=e2;matching=e2"
    assert _placement_arg(genome).name == genome


@pytest.mark.parametrize("config", ["1,2", "1,x,1,1,1", "opt:bogus"])
def test_bad_config_exits_with_one_line(config):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--config", config, "--duration", "1"])
    message = str(excinfo.value)
    assert message.startswith(f"bad --config {config!r}")
    assert "\n" not in message


@pytest.mark.parametrize("flags", [["--tracers", "2"],
                                   ["--cohort-load", "poisson"]])
def test_cohort_flags_need_cohort_size(flags):
    with pytest.raises(SystemExit, match="need --cohort-size"):
        main(["run", "--pipeline", "scatterpp", "--duration", "1"]
             + flags)


@pytest.mark.parametrize("crash", ["sift", "@4.0", "sift@soon",
                                   "sift@-1"])
def test_bad_crash_exits_with_one_line(crash):
    with pytest.raises(SystemExit, match="--crash wants SERVICE@SECONDS"):
        main(["mobility", "--duration", "1", "--crash", crash])


def test_invalid_spec_exits_with_one_line():
    with pytest.raises(SystemExit, match="flow requires"):
        main(["run", "--flow", "--duration", "1"])


@pytest.mark.parametrize("argv", [
    ["campaign", "--workers", "-1"],
    ["campaign", "--seeds", "a"],
    ["campaign", "--placements", "1,2,3"],
    ["campaign", "--clients", "0"],
    ["figure", "fig2", "--duration", "-1"],
    ["testbed", "--clients", "0"],
    ["capacity", "--max-clients", "0"],
    ["capacity", "--slo-fps", "-1"],
    ["optimize", "--budget", "0"],
    ["optimize", "--population", "0", "--budget", "4"],
], ids=" ".join)
def test_bad_input_exits_at_the_boundary(argv, capsys):
    """Bad values stop in argparse (exit 2) or with a one-line
    ``SystemExit`` message, before anything runs."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    code = excinfo.value.code
    out, err = capsys.readouterr()
    if code == 2:
        assert "error: argument" in err
    else:
        assert isinstance(code, str) and "\n" not in code
    assert "Traceback" not in out + err


@pytest.mark.parametrize("name", ["fig8", "fig12"])
def test_ramp_figures_honor_seed(monkeypatch, name):
    seen = {}

    def fake_figure(**kwargs):
        seen.update(kwargs)
        return {}

    monkeypatch.setitem(FIGURES, name, (fake_figure, lambda report: None,
                                        FIGURES[name][2]))
    assert main(["figure", name, "--duration", "2", "--seed", "5"]) == 0
    assert seen == {"stage_s": 2.0, "seed": 5}


def test_run_spec_maps_cohort_flags():
    args = build_parser().parse_args(
        ["run", "--pipeline", "scatterpp", "--clients", "3",
         "--cohort-size", "900", "--tracers", "2",
         "--cohort-load", "poisson", "--flow"])
    spec = cli._run_spec(args)
    assert spec.clients == 2
    assert (spec.cohort.size, spec.cohort.load) == (900, "poisson")
    assert spec.flow is not None


def test_optimize_command(capsys):
    assert main(["optimize", "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "pred FPS" in out
    assert "best by throughput" in out


def test_optimize_latency_objective(capsys):
    assert main(["optimize", "--objective", "latency"]) == 0
    assert "best by latency" in capsys.readouterr().out


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="fake-runner injection into pool workers requires fork")
def test_campaign_reports_effective_worker_count(monkeypatch, capsys):
    """Requests beyond the CPU count are capped; the banner says so."""
    def fake_runner(placement, *, num_clients, duration_s, seed):
        return {"fps": 30.0, "success_rate": 1.0, "e2e_ms": 40.0,
                "jitter_ms": 1.0, "qoe_mos": 4.0,
                "trace_digest": f"digest-{placement.name}-s{seed}"}

    requested = (os.cpu_count() or 1) + 3
    shutdown_pool()  # forked workers must inherit the fake runner
    monkeypatch.setitem(campaign_mod.RUNNERS, "scatter", fake_runner)
    expected = effective_workers(requested)
    try:
        assert main(["campaign", "--pipelines", "scatter",
                     "--placements", "C1", "--clients", "1",
                     "--duration", "1", "--seeds", "0,1",
                     "--workers", str(requested)]) == 0
    finally:
        shutdown_pool()
    out = capsys.readouterr().out
    assert expected < requested
    assert (f"running 2 (cell, seed) tasks on {expected} worker "
            "process(es)") in out


def test_campaign_prints_cell_cache_stats_once(monkeypatch, capsys,
                                               tmp_path):
    def fake_runner(placement, *, num_clients, duration_s, seed):
        return {"fps": 30.0, "success_rate": 1.0, "e2e_ms": 40.0,
                "jitter_ms": 1.0, "qoe_mos": 4.0,
                "trace_digest": f"digest-{placement.name}-s{seed}"}

    monkeypatch.setitem(campaign_mod.RUNNERS, "scatter", fake_runner)
    assert main(["campaign", "--pipelines", "scatter",
                 "--placements", "C1", "--clients", "1",
                 "--duration", "1", "--seeds", "0,1",
                 "--cache-dir", str(tmp_path / "cells")]) == 0
    out = capsys.readouterr().out
    assert out.count("hits=") == 1
    assert "cell cache: hits=0 misses=2 stored=2 corrupt=0" in out
