"""The four benchmark workloads.

Each workload is a batch job whose input is made from a seed:
``cold(seed)`` runs it once and ``replay(seed)`` runs the identical
call again in the same process.  Both return the per-cell digests and
audit errors (:class:`cells.PassOutcome`) and the
:class:`cells.CellRecord` of every cell they simulated; ``cold`` also
returns workload-specific extras (campaign worker time, cache stores).

``campaign-mixed`` runs its cells on the campaign worker pool.  A
:class:`WorkerProbe` — installed before the pool forks — reads each
cell's counts inside the worker and ships them back through one small
file per batch, together with the batch's wall time, the worker's
peak RSS and, in a traced run, its spans.
"""

from __future__ import annotations

import os
import pickle
import resource
import shutil
import time
from typing import Dict, List, Optional, Tuple

from cells import CellRecord, PassOutcome, check_summary, observe
from layers import HOOK

#: A genome with autoscaler genes, so the optimizer's scaler path runs.
GENOME = ("opt:primary=e2;sift=e2+e1;encoding=e2;lsh=e1;matching=e2"
          "@as=drop0.05+depth16+max3+e1")

#: Per-workload input size.  ``tiny`` is the self-test's size.
SIZES: Dict[str, Dict[str, Dict]] = {
    "cell-scatter": {
        "full": {"duration_s": 15.0},
        "tiny": {"duration_s": 2.0},
    },
    "cell-scatterpp-flow": {
        "full": {"duration_s": 5.0},
        "tiny": {"duration_s": 2.0},
    },
    "campaign-mixed": {
        "full": {"duration_s": 1.0, "placements": ("C12", "C21", GENOME),
                 "client_counts": (1, 3)},
        "tiny": {"duration_s": 1.0, "placements": ("C12", GENOME),
                 "client_counts": (1,)},
    },
    "figure-fig7": {
        "full": {"duration_s": 0.25, "clients": tuple(range(1, 11))},
        "tiny": {"duration_s": 0.25, "clients": (1, 2)},
    },
}

#: Distinct inputs per run seed (see :meth:`Workload.cell_seed`).
CELL_SEEDS = 8

#: Campaign workers: at most two, and never more than the host's cores.
WORKERS = max(1, min(2, os.cpu_count() or 1))


def _hook(fn):
    setattr(fn, HOOK, True)
    return fn


def _timed(fn) -> Tuple[float, object]:
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


class Workload:
    name = ""
    #: Does this workload run on the campaign worker pool?
    pooled = False

    def __init__(self, seed: int, size: str, outdir: str) -> None:
        self.seed = seed
        self.size = SIZES[self.name][size]
        self.outdir = outdir

    def cell_seed(self, rep: int) -> int:
        """Seed of repetition ``rep``: repetitions rotate through
        :data:`CELL_SEEDS` inputs derived from the run's seed, so a
        run's median spans several draws of the workload."""
        return self.seed * CELL_SEEDS + rep % CELL_SEEDS

    def setup(self) -> None:
        """Lazy set-up paid before timing: one 1-s warm-up cell."""
        from repro.experiments import runner
        from repro.experiments.campaign import resolve_placement

        runner.run_scatter_experiment(resolve_placement("C12"),
                                      num_clients=4, duration_s=1.0,
                                      seed=self.seed)

    def cold(self, seed: int) -> Tuple[PassOutcome, List[CellRecord], Dict]:
        raise NotImplementedError

    def replay(self, seed: int) -> Tuple[PassOutcome, List[CellRecord]]:
        raise NotImplementedError

    def end_rep(self) -> None:
        """Release what one cold+replay repetition left behind."""

    def close(self) -> None:
        """Stop every process the workload started."""


class _Rerun(Workload):
    """A workload whose replay simply runs the same call again."""

    def _pass(self, seed: int) -> Tuple[PassOutcome, List[CellRecord]]:
        raise NotImplementedError

    def cold(self, seed):
        outcome, records = self._pass(seed)
        return outcome, records, {}

    def replay(self, seed):
        return self._pass(seed)


class _CellWorkload(_Rerun):
    """One cell on C12."""

    def _run(self, seed: int):
        raise NotImplementedError

    def _pass(self, seed):
        try:
            wall, result = _timed(lambda: self._run(seed))
        except Exception as error:  # a raising cell is a failed cell
            return PassOutcome(0.0, [None], [repr(error)]), []
        record = observe(result)
        return (PassOutcome(wall, [record.digest], [record.error]),
                [record])


class CellScatter(_CellWorkload):
    name = "cell-scatter"

    def _run(self, seed):
        from repro.experiments import runner
        from repro.experiments.campaign import resolve_placement

        return runner.run_scatter_experiment(
            resolve_placement("C12"), num_clients=4,
            duration_s=self.size["duration_s"], seed=seed)


class CellScatterppFlow(_CellWorkload):
    name = "cell-scatterpp-flow"

    def _run(self, seed):
        from repro.experiments import runner
        from repro.experiments.campaign import resolve_placement

        return runner.run_scatterpp_flow_experiment(
            resolve_placement("C12"), num_clients=8,
            duration_s=self.size["duration_s"], seed=seed)


class FigureFig7(_Rerun):
    """``fig7_scaling_clients``; a hook on the figure module's runner
    reference reads each of its cells."""

    name = "figure-fig7"

    def setup(self) -> None:
        from repro.experiments import figures, runner

        super().setup()
        self._records: List[CellRecord] = []

        @_hook
        def run_scatterpp_experiment(*args, **kwargs):
            # Looked up at call time, so a traced run times the
            # (wrapped) runner the figure would have called.
            result = runner.run_scatterpp_experiment(*args, **kwargs)
            self._records.append(observe(result))
            return result

        figures.run_scatterpp_experiment = run_scatterpp_experiment

    def _pass(self, seed):
        from repro.experiments import figures

        self._records = []
        try:
            wall, rows = _timed(lambda: figures.fig7_scaling_clients(
                clients=self.size["clients"],
                duration_s=self.size["duration_s"], seed=seed))
        except Exception as error:
            return PassOutcome(0.0, [None], [repr(error)]), []
        records = self._records
        errors = [r.error for r in records]
        if len(rows) != len(records):
            errors = ["row/cell count mismatch"] * len(records)
        return (PassOutcome(wall, [r.digest for r in records], errors),
                records)


class WorkerProbe:
    """Hooks in ``repro.experiments.parallel`` / ``store`` that read
    each campaign cell inside its worker.

    Installed in the parent before the pool forks, so every worker
    inherits them.  Per batch the worker writes one pickle file:
    ``{"pid", "busy_s", "maxrss_kb", "cells": [(task, record)],
    "spans"}``.  The parent reads (and deletes) them after each pass.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.tracer = None
        self._execute_batch = None
        self._traced_batch = None
        self._pending: Optional[CellRecord] = None
        self._cells: List[Tuple[str, Optional[CellRecord]]] = []
        self._batches = 0
        os.makedirs(directory, exist_ok=True)

    def install(self) -> None:
        import functools

        from repro.experiments import parallel, store

        execute_batch = parallel._execute_batch
        execute = parallel._execute
        summarize = store.summarize_result

        @_hook
        def summarize_result(result):
            self._pending = observe(result)
            return summarize(result)

        @_hook
        def _execute(task):
            self._pending = None
            payload = execute(task)
            self._cells.append((str(task), self._pending))
            return payload

        @_hook
        @functools.wraps(execute_batch)  # pickled by reference
        def _execute_batch(tasks):
            self._cells = []
            run = execute_batch
            if self.tracer is not None:
                self.tracer.reset()
                run = self._traced_batch
            start = time.perf_counter()
            blob = run(tasks)
            busy = time.perf_counter() - start
            self._write(busy)
            return blob

        store.summarize_result = summarize_result
        parallel._execute = _execute
        parallel._execute_batch = _execute_batch
        self._execute_batch = execute_batch

    def trace(self, tracer) -> None:
        """Record worker spans with ``tracer`` (call before the fork)."""
        self.tracer = tracer
        self._traced_batch = tracer.wrap(self._execute_batch,
                                         "experiments")

    def _write(self, busy_s: float) -> None:
        self._batches += 1
        payload = {
            "pid": os.getpid(),
            "busy_s": busy_s,
            "maxrss_kb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss,
            "cells": self._cells,
            "spans": (self.tracer.as_arrays()
                      if self.tracer is not None else None),
        }
        path = os.path.join(self.directory,
                            f"{os.getpid()}-{self._batches}.pkl")
        with open(path + ".tmp", "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(path + ".tmp", path)

    def collect(self) -> List[Dict]:
        """Every batch file written since the last call (then deleted)."""
        batches = []
        for name in sorted(os.listdir(self.directory)):
            if not name.endswith(".pkl"):
                continue
            path = os.path.join(self.directory, name)
            with open(path, "rb") as handle:
                batches.append(pickle.load(handle))
            os.remove(path)
        return batches


class CampaignMixed(Workload):
    """A cold ``run_campaign`` over every campaign runner into a fresh
    cell cache, then the identical call replayed from that cache."""

    name = "campaign-mixed"
    pooled = True

    def setup(self) -> None:
        self.probe = WorkerProbe(os.path.join(self.outdir, "workers"))
        self.probe.install()
        self.worker_batches: List[Dict] = []
        self.hits = 0
        self._reps = 0
        super().setup()
        self.warm_pool()

    def campaign(self, seed: int):
        from repro.experiments.campaign import Campaign

        return Campaign(
            name="perfbench-mixed",
            pipelines=("scatter", "scatterpp-flow", "mobility", "cohort",
                       "optimize"),
            placements=self.size["placements"],
            client_counts=self.size["client_counts"],
            duration_s=self.size["duration_s"], seeds=(seed,))

    def warm_pool(self) -> None:
        """(Re)fork the campaign workers now, outside any timed pass."""
        from repro.experiments.parallel import shutdown_pool, warm_pool

        shutdown_pool()
        pool = warm_pool(WORKERS)
        for future in [pool.submit(os.getpid) for _ in range(WORKERS)]:
            future.result()

    def _cache_dir(self) -> str:
        return os.path.join(self.outdir, f"cache-{self._reps}")

    def _campaign_pass(self, campaign, seed: int):
        from repro.experiments.campaign import run_campaign

        try:
            wall, report = _timed(lambda: run_campaign(
                campaign, workers=WORKERS, cache_dir=self._cache_dir()))
        except Exception as error:
            return PassOutcome(0.0, [None], [repr(error)]), None
        digests, errors = [], []
        for cell in campaign.cells:
            if cell in report.failures:
                digests.append(None)
                errors.append(report.failures[cell][0].error)
                continue
            digests.append(report.digests[cell].get(seed))
            errors.append(check_summary(report.summaries[cell][0]))
        return PassOutcome(wall, digests, errors), report

    def cold(self, seed):
        from repro.experiments.parallel import plan_tasks

        campaign = self.campaign(seed)
        outcome, report = self._campaign_pass(campaign, seed)
        batches = self.probe.collect()
        self.worker_batches.extend(batches)
        by_task = {task: record for batch in batches
                   for task, record in batch["cells"]}
        records = []
        for index, task in enumerate(plan_tasks(campaign)):
            record = by_task.get(str(task))
            if record is None:
                outcome.errors[index] = (outcome.errors[index]
                                         or "cell not observed")
                continue
            records.append(record)
            if record.error is not None and outcome.errors[index] is None:
                outcome.errors[index] = record.error
        extra = {
            "busy_s": sum(b["busy_s"] for b in batches),
            "stored": report.cache["stored"] if report else 0,
        }
        return outcome, records, extra

    def replay(self, seed):
        outcome, report = self._campaign_pass(self.campaign(seed), seed)
        batches = self.probe.collect()
        self.worker_batches.extend(batches)
        records = [record for batch in batches
                   for _, record in batch["cells"]]
        self.hits = report.cache["hits"] if report else 0
        return outcome, records

    def end_rep(self) -> None:
        shutil.rmtree(self._cache_dir(), ignore_errors=True)
        self._reps += 1

    def close(self) -> None:
        from repro.experiments.parallel import shutdown_pool

        shutdown_pool()

    def worker_peak_rss_kb(self) -> int:
        """Summed peak RSS of the campaign workers (one peak per pid)."""
        peaks: Dict[int, int] = {}
        for batch in self.worker_batches:
            peaks[batch["pid"]] = max(peaks.get(batch["pid"], 0),
                                      batch["maxrss_kb"])
        return sum(peaks.values())


WORKLOADS = {cls.name: cls for cls in (CellScatter, CellScatterppFlow,
                                       CampaignMixed, FigureFig7)}
