"""Shared helpers for the benchmark harness.

Every ``bench_fig*`` module regenerates one table/figure of the paper
(CoNEXT Companion '23).  Results are printed and also persisted under
``benchmarks/results/`` so the regenerated rows survive the pytest
capture.
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: ``BENCH_SMOKE=1`` shrinks every benchmark that has a full and a
#: CI-sized variant to its CI size.
SMOKE = os.environ.get("BENCH_SMOKE") == "1"

#: Committed benchmark headline numbers live at the repo root as
#: ``BENCH_<name>.json`` so the perf trajectory is versioned alongside
#: the code that earned it; ``benchmarks/summarize.py`` renders the
#: table.  Smoke runs write to the gitignored ``benchmarks/results/``
#: instead, so a CI-sized run never overwrites a committed snapshot.
BENCH_DIR = pathlib.Path(__file__).resolve().parents[1]


def save_bench_json(name: str, entry) -> pathlib.Path:
    """Persist one benchmark's headline JSON (see :data:`BENCH_DIR`)."""
    import json

    directory = RESULTS_DIR if SMOKE else BENCH_DIR
    directory.mkdir(exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
    return path


def pytest_addoption(parser):
    parser.addoption(
        "--campaign-workers", type=int,
        default=int(os.environ.get("REPRO_CAMPAIGN_WORKERS", "0")),
        help="shard campaign-style benchmarks across N worker "
             "processes (0 = serial); results are bit-identical "
             "either way — see the determinism contract in "
             "EXPERIMENTS.md")


@pytest.fixture
def campaign_workers(request) -> int:
    """Worker count for sharded benchmark runs (``--campaign-workers``
    or the ``REPRO_CAMPAIGN_WORKERS`` env var; 0 = serial)."""
    return request.config.getoption("--campaign-workers")


@pytest.fixture
def save_result():
    """Write a named result artifact and echo it to stdout."""
    def save(name: str, content: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(content + "\n")
        print(f"\n[{name}] (saved to {path})\n{content}")

    return save
