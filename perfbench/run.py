"""Host-time benchmark of the scAtteR simulator, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload cell-scatter --seed 0 \\
        --seconds 15 --trace 0

Repetitions run until ``--seconds`` have passed, rotating through the
inputs derived from ``--seed``; each runs its input twice in one
process, a cold pass and an identical replay.  Each pass is bracketed
by a fixed calibration loop (:mod:`calib`) and its time is scaled to a
reference-speed host; a timing is the median over repetitions.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` first
measures untraced, then wraps every layer's functions (:mod:`layers`)
and reruns one repetition to print per-layer self time and counts.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Every cell is checked: its conservation ledgers must balance, its
replay must reproduce its cold digest, every repetition must
reproduce the first, and the digests must match ``digests.json`` (the
table recorded for the default seed) or, for other seeds, those of
an earlier run of the same seed in this checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List

from calib import REFERENCE_S, calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 0
#: Set-up samples per run (each a fresh process); setup_s is their median.
SETUP_PROBES = 5

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "frames_per_s": "frames/s",
    "replay_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer counts: metric -> :class:`cells.CellRecord` field, summed
#: over the cells of a pass.
COUNT_METRICS = {
    "sim.events": "events",
    "dsp.processed": "dsp_processed",
    "dsp.dropped_busy": "dsp_dropped_busy",
    "net.packets_sent": "packets_sent",
    "net.packets_dropped": "packets_dropped",
    "scatterpp.dispatched": "scatterpp_dispatched",
    "scatterpp.dropped_stale": "scatterpp_dropped_stale",
    "flow.shed_backpressure": "flow_shed_backpressure",
    "flow.batched_rounds": "flow_batched_rounds",
    "mobility.handovers": "handovers",
}


def per_layer_units() -> Dict[str, str]:
    """Per-layer metrics (``--trace 1``): name -> unit."""
    from layers import LAYERS

    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update({name: "count" for name in COUNT_METRICS})
    units.update({
        "dsp.useful_ratio": "ratio",
        "experiments.pool.busy_ratio": "ratio",
        "experiments.pool.wait_s": "s",
        "experiments.cache.hits": "count",
        "experiments.cache.stored": "count",
        "experiments.runner_calls": "count",
        "trace.unattributed_s": "s",
        "trace.overhead_ratio": "ratio",
    })
    return units


@dataclass
class Rep:
    """One repetition: a cold pass and its replay of input ``seed``.

    ``*_scale`` converts the pass's measured host time to the
    reference host's (:mod:`calib`).
    """

    seed: int
    cold: object
    replay: object
    records: List = field(default_factory=list)
    replay_records: List = field(default_factory=list)
    extra: Dict = field(default_factory=dict)
    cold_scale: float = 1.0
    replay_scale: float = 1.0

    @property
    def frames(self) -> int:
        return sum(r.frames_sent for r in self.records)

    @property
    def frames_per_s(self) -> float:
        wall = self.cold.wall_s * self.cold_scale
        return self.frames / wall if wall else 0.0

    @property
    def replay_s(self) -> float:
        return self.replay.wall_s * self.replay_scale


def _scale(before: float, after: float) -> float:
    return 2.0 * REFERENCE_S / (before + after)


def run_rep(workload, seed: int) -> Rep:
    gc.collect()
    before = calibrate()
    cold, records, extra = workload.cold(seed)
    gc.collect()
    middle = calibrate()
    replay, replay_records = workload.replay(seed)
    after = calibrate()
    workload.end_rep()
    return Rep(seed, cold, replay, records, replay_records, extra,
               _scale(before, middle), _scale(middle, after))


def run_reps(workload, seconds: float, min_reps: int = 1) -> List[Rep]:
    """Repeat until ``seconds`` of measurement have passed."""
    reps = []
    start = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - start < seconds:
        reps.append(run_rep(workload, workload.cell_seed(len(reps))))
    return reps


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------
class DigestBook:
    """Where a run finds the digests it must reproduce, per input seed.

    The default seed at full size is checked against the table in
    ``digests.json``.  Any other (seed, size) is checked against the
    first run of it in this checkout, whose digests are kept under
    ``.perfbench_out/digests``.
    """

    def __init__(self, root: str, workload, size: str):
        self.key = workload.name
        self.table = workload.seed == DEFAULT_SEED and size == "full"
        inputs = hashlib.blake2b(repr(workload.size).encode(),
                                 digest_size=6).hexdigest()
        self.path = (DIGESTS if self.table else os.path.join(
            root, ".perfbench_out", "digests",
            f"{workload.name}-{inputs}-{workload.seed}.json"))

    def _load(self) -> Dict:
        if not os.path.exists(self.path):
            return {}
        with open(self.path) as handle:
            return json.load(handle)

    def expected(self) -> Dict[int, List[str]]:
        return {int(seed): digests for seed, digests
                in self._load().get(self.key, {}).items()}

    def record(self, digests: Dict[int, List[str]]) -> None:
        table = self._load()
        entry = table.setdefault(self.key, {})
        entry.update({str(seed): d for seed, d in digests.items()})
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        with open(self.path + ".tmp", "w") as handle:
            json.dump(table, handle, indent=1, sort_keys=True)
            handle.write("\n")
        os.replace(self.path + ".tmp", self.path)


def check_reps(reps: List[Rep], book: DigestBook, record: bool):
    """Apply the output check; return (attempted, failures)."""
    from cells import count_failures

    first: Dict[int, int] = {}
    for index, rep in enumerate(reps):
        first.setdefault(rep.seed, index)
    firsts = {seed: reps[index].cold.digests
              for seed, index in first.items()}
    expected = book.expected()
    if record:
        book.record(firsts)
        expected = firsts
    elif not book.table:
        # The first run of a seed in this checkout: later runs match it.
        book.record({seed: digests for seed, digests in firsts.items()
                     if seed not in expected and None not in digests})
    failures: Dict[str, str] = {}
    attempted = 0
    for index, rep in enumerate(reps):
        reference = expected.get(rep.seed)
        if reference is None and first[rep.seed] != index:
            reference = firsts[rep.seed]
        attempted += len(rep.cold.digests) + len(rep.replay.digests)
        for cell, reason in count_failures(rep.cold, rep.replay,
                                           reference).items():
            failures[f"rep {index} (seed {rep.seed}) {cell}"] = reason
    return attempted, failures


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def setup_times(args, n: int) -> List[float]:
    """Start-to-ready time of ``n`` fresh processes doing the set-up.

    Not scaled: imports are mostly file and unmarshal work, which the
    calibration loop does not track (scaling widened the spread).
    """
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--size", args.size, "--setup-probe"]
    times = []
    for _ in range(n):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=120)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, "
                               f"said {line!r})")
        times.append(elapsed)
    return times


def end_to_end(args, workload, reps: List[Rep]) -> Dict[str, float]:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.pooled:
        peak_kb += workload.worker_peak_rss_kb()
    workload.close()
    setups = setup_times(args, SETUP_PROBES)
    scales = [r.cold_scale for r in reps] + [r.replay_scale for r in reps]
    print(f"# {len(reps)} reps of {reps[0].frames} frames; host speed "
          f"{min(scales):.3f}-{max(scales):.3f}x the reference; "
          f"unscaled median frames_per_s "
          f"{statistics.median(r.frames / r.cold.wall_s for r in reps):.3f}")
    return {
        "setup_s": statistics.median(setups),
        "frames_per_s": statistics.median(r.frames_per_s for r in reps),
        "replay_s": statistics.median(r.replay_s for r in reps),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def per_layer(args, root: str, workload, reps: List[Rep]):
    """Trace one more repetition; return (metrics, traced rep)."""
    from layers import LAYERS, POOL_WAIT, ROOT, Tracer, self_times
    from workloads import WORKERS

    tracer = Tracer()
    tracer.install()
    if workload.pooled:
        from repro.experiments import parallel

        workload.probe.trace(tracer)
        parallel.as_completed = tracer.wrap(parallel.as_completed,
                                            POOL_WAIT)
        workload.warm_pool()  # refork so the workers carry the wrappers
    seed = reps[0].seed  # trace the input whose counts are reported
    tracer.reset()
    gc.collect()
    before = calibrate()
    with tracer.root():
        cold, records, extra = workload.cold(seed)
    gc.collect()
    middle = calibrate()
    with tracer.root():
        replay, replay_records = workload.replay(seed)
    workload.end_rep()
    traced = Rep(seed, cold, replay, records, replay_records, extra,
                 _scale(before, middle))

    spans = {"parent": tracer.as_arrays()}
    if workload.pooled:
        batches = [b for b in workload.worker_batches
                   if b["spans"] is not None]
        for index, batch in enumerate(batches):
            spans[f"worker{index}"] = batch["spans"]
    totals: Dict[str, Dict[str, float]] = {}
    for arrays in spans.values():
        for category, value in self_times(arrays, tracer.names).items():
            total = totals.setdefault(category, {"self_s": 0.0, "calls": 0})
            total["self_s"] += value["self_s"]
            total["calls"] += value["calls"]
    _write_spans(root, args, spans, tracer.names)
    workload.close()

    first = reps[0]
    counts = {name: sum(getattr(r, attr) for r in first.records)
              for name, attr in COUNT_METRICS.items()}
    received = sum(r.frames_received for r in first.records)
    processed = counts["dsp.processed"]
    untraced_fps = statistics.median(r.frames_per_s for r in reps
                                     if r.seed == seed)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = totals.get(layer, {}).get("self_s", 0.0)
        metrics[f"{layer}.calls"] = totals.get(layer, {}).get("calls", 0)
    metrics.update(counts)
    metrics.update({
        "dsp.useful_ratio": (received * 5 / processed if processed
                             else 0.0),
        "experiments.pool.busy_ratio": statistics.median(
            r.extra["busy_s"] / (WORKERS * r.cold.wall_s) for r in reps)
        if workload.pooled else 0.0,
        "experiments.pool.wait_s": totals.get(POOL_WAIT, {}).get(
            "self_s", 0.0),
        "experiments.cache.hits": getattr(workload, "hits", 0),
        "experiments.cache.stored": first.extra.get("stored", 0),
        "experiments.runner_calls": len(traced.replay_records),
        "trace.unattributed_s": totals.get(ROOT, {}).get("self_s", 0.0),
        "trace.overhead_ratio": (traced.frames_per_s / untraced_fps
                                 if untraced_fps else 0.0),
    })
    return metrics, traced


def _write_spans(root: str, args, spans, names) -> None:
    """Write the run's spans once, at the end, as one ``.npz``."""
    import numpy as np

    directory = os.path.join(root, ".perfbench_out", "spans")
    os.makedirs(directory, exist_ok=True)
    flat = {"names": np.array([f"{c}|{q}" for c, q in names])}
    for process, arrays in spans.items():
        for key, array in arrays.items():
            flat[f"{process}.{key}"] = array
    np.savez_compressed(os.path.join(
        directory, f"{args.workload}-{args.size}-seed{args.seed}.npz"),
        **flat)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"),
                        default="full")
    parser.add_argument("--setup-probe", action="store_true",
                        help="do the set-up, print 'ready' and exit")
    parser.add_argument("--record-digests", action="store_true",
                        help="write this run's digests as the table "
                             "for the default seed")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no src/repro under {root}; run from the "
              "repository root", file=sys.stderr)
        return 2
    if args.record_digests and (args.seed != DEFAULT_SEED
                                or args.size != "full"):
        print("perfbench: --record-digests needs the default seed at "
              "full size", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import CELL_SEEDS, WORKLOADS

    outdir = os.path.join(root, ".perfbench_out",
                          f"run-{args.workload}-{os.getpid()}")
    workload = WORKLOADS[args.workload](args.seed, args.size, outdir)
    try:
        workload.setup()
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        reps = run_reps(workload, args.seconds,
                        CELL_SEEDS if args.record_digests else 1)
        if args.trace:
            metrics, traced = per_layer(args, root, workload, reps)
            reps = reps + [traced]
            units = per_layer_units()
        else:
            metrics = end_to_end(args, workload, reps)
            units = END_TO_END
    finally:
        workload.close()
        shutil.rmtree(outdir, ignore_errors=True)

    attempted, failures = check_reps(
        reps, DigestBook(root, workload, args.size),
        args.record_digests)
    for name in units:
        print(f"{name:32s} {metrics[name]:>16.6f} {units[name]}")
    print(f"{'failed_ratio':32s} {len(failures) / attempted:>16.6f} "
          f"({len(failures)} of {attempted} cells, {len(reps)} reps)")
    for cell, reason in list(failures.items())[:10]:
        print(f"FAILED {cell}: {reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
