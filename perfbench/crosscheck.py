"""Cross-check the traced layer split against cProfile; run from the
repository root::

    python3 perfbench/crosscheck.py [--workload cell-scatter] [--seed 0]

Runs the cold pass of the workload's first four inputs twice in one
process: under cProfile, then with the :mod:`layers` tracer installed.
cProfile's self time is grouped by the ``src/repro/<package>`` its
function lives in; time in functions outside the tree (builtins, the
standard library, NumPy) is charged to the package of the caller that
spent it, as the tracer does.  Prints both splits as shares of their total
and the gap between them, in percentage points.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import os
import pstats
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

#: Inputs profiled (and traced) per cross-check.
PASSES = 4


def _package(filename: str, src: str):
    """The layer (``repro`` sub-package) a source file belongs to."""
    prefix = os.path.join(src, "repro") + os.sep
    if not filename.startswith(prefix):
        return None
    parts = filename[len(prefix):].split(os.sep)
    return parts[0] if len(parts) > 1 else "repro"


def profile_split(stats: pstats.Stats, src: str):
    """Self time per package, outside-tree time charged to callers."""
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    memo = {}

    def owners(func, seen=()):
        """{package: share} that ``func``'s own time belongs to."""
        if func in memo:
            return memo[func]
        package = _package(func[0], src)
        if package is not None:
            result = {package: 1.0}
        elif func in seen or func not in table:
            result = {"(outside)": 1.0}
        else:
            callers = table[func][4]
            total = sum(entry[2] for entry in callers.values())
            result = {}
            if total <= 0:
                result = {"(outside)": 1.0}
            for caller, entry in callers.items():
                if total <= 0:
                    break
                for owner, share in owners(caller,
                                           seen + (func,)).items():
                    result[owner] = (result.get(owner, 0.0)
                                     + share * entry[2] / total)
        memo[func] = result
        return result

    split = {}
    for func, (_, _, tottime, _, _) in table.items():
        for owner, share in owners(func).items():
            split[owner] = split.get(owner, 0.0) + share * tottime
    return split


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="cell-scatter")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=("full", "tiny"),
                        default="full")
    args = parser.parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from layers import LAYERS, Tracer, self_times
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](
        args.seed, args.size, os.path.join(root, ".perfbench_out",
                                           f"crosscheck-{os.getpid()}"))
    workload.setup()
    try:
        gc.collect()
        seeds = [workload.cell_seed(rep) for rep in range(PASSES)]
        profiler = cProfile.Profile()
        for seed in seeds:
            profiler.enable()
            workload.cold(seed)
            profiler.disable()
            workload.end_rep()
        profiled = profile_split(pstats.Stats(profiler), src)

        tracer = Tracer()
        tracer.install()
        if workload.pooled:
            workload.probe.trace(tracer)
            workload.warm_pool()
        tracer.reset()
        gc.collect()
        for seed in seeds:
            with tracer.root():
                workload.cold(seed)
            workload.end_rep()
        traced = {category: value["self_s"] for category, value in
                  self_times(tracer.as_arrays(), tracer.names).items()}
        for batch in getattr(workload, "worker_batches", []):
            if batch["spans"] is None:
                continue
            for category, value in self_times(batch["spans"],
                                              tracer.names).items():
                traced[category] = traced.get(category, 0.0) \
                    + value["self_s"]
    finally:
        workload.close()

    traced_total = sum(traced.values())
    profiled_total = sum(profiled.values())
    print(f"workload {args.workload}, seed {args.seed}: traced "
          f"{traced_total:.3f} s of self time, cProfile "
          f"{profiled_total:.3f} s")
    print(f"| {'layer':13s} | traced % | cProfile % | gap (pp) |")
    print("|---------------|---------:|-----------:|---------:|")
    rows = list(LAYERS) + sorted(
        (set(traced) | set(profiled)) - set(LAYERS))
    for layer in rows:
        t = 100.0 * traced.get(layer, 0.0) / traced_total
        p = 100.0 * profiled.get(layer, 0.0) / profiled_total
        print(f"| {layer:13s} | {t:8.1f} | {p:10.1f} | {t - p:+8.1f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
