"""Self-test of the benchmark; run from the repository root::

    python3 perfbench/selftest.py

1. A tiny-size pass over every workload, untraced and traced: the last
   stdout line must be the result object, with every metric that
   ``BENCHMARK.json`` names (end-to-end untraced, per-layer traced)
   printed with its unit, and every cell correct.
2. Negative checks: a corrupted digest and an unbalanced ledger must
   each be counted as a failed cell.
3. In a directory holding only ``BENCHMARK.json`` and the benchmark's
   files, the command must fail without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from cells import PassOutcome, check_summary, count_failures  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(command, cwd: str, extra) -> subprocess.CompletedProcess:
    return subprocess.run(command + extra, cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def check_tiny_pass(root: str, spec: dict) -> list:
    problems = []
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in spec["workloads"]:
        for trace in (0, 1):
            label = f"{workload['name']} trace={trace}"
            done = _run(spec["command"], root, [
                "--workload", workload["name"], "--seed", "7",
                "--seconds", "1", "--trace", str(trace),
                "--size", "tiny"])
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append(f"{label}: exit {done.returncode}: "
                                f"{done.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != RESULT_KEYS:
                problems.append(f"{label}: keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] \
                    or result["attempted"] < 1:
                problems.append(f"{label}: not correct: {lines[-12:-1]}")
            got = {name: value["unit"]
                   for name, value in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{label}: metrics {got} != {wanted[trace]}")
            for name, value in result["metrics"].items():
                if not isinstance(value["value"], (int, float)):
                    problems.append(f"{label}: {name} = {value!r}")
                if not any(line.split()[:1] == [name] and
                           line.split()[-1] == value["unit"]
                           for line in lines[:-1]):
                    problems.append(f"{label}: {name} not printed "
                                    "with its unit")
    return problems


def check_negative() -> list:
    problems = []
    good = PassOutcome(1.0, ["aa", "bb"], [None, None])
    if count_failures(good, good, ["aa", "bb"]):
        problems.append("a clean pass was counted as failed")
    corrupted = PassOutcome(1.0, ["aa", "XX"], [None, None])
    failed = count_failures(corrupted, corrupted, ["aa", "bb"])
    if list(failed) != ["cold cell 1"]:
        problems.append(f"corrupted digest not counted: {failed}")
    replay = PassOutcome(1.0, ["aa", "XX"], [None, None])
    failed = count_failures(good, replay, None)
    if list(failed) != ["replay cell 1"]:
        problems.append(f"cold != replay not counted: {failed}")
    ledger = {"flow": {"services": {"sift": {"balance": 1}}}}
    unbalanced = PassOutcome(1.0, ["aa"], [check_summary(ledger)])
    failed = count_failures(unbalanced, PassOutcome(1.0, ["aa"], [None]),
                            ["aa"])
    if list(failed) != ["cold cell 0"]:
        problems.append(f"unbalanced flow ledger not counted: {failed}")
    cohort = {"cohort": {"ledger": {"balance": -2}}}
    if check_summary(cohort) is None:
        problems.append("unbalanced cohort ledger not detected")
    return problems


def check_bare_directory(root: str, spec: dict) -> list:
    bare = os.path.join(root, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(root, path),
                            os.path.join(bare, path))
        done = _run(spec["command"], bare, [
            "--workload", spec["workloads"][0]["name"], "--seed", "0",
            "--seconds", "1", "--trace", "0"])
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return [f"bare directory: exit {done.returncode}, "
                f"stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    root = os.getcwd()
    spec = _spec(root)
    problems = (check_negative() + check_bare_directory(root, spec)
                + check_tiny_pass(root, spec))
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "ok" if not problems else f"{len(problems)} failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
