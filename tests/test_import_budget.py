"""Import budget of the simulator core.

scipy and networkx are heavy to import (scipy.stats alone costs about
a second) and the simulator needs neither on its default path, so a
CLI call, a campaign worker or a placement-search cell must not load
them.  Each check runs in a fresh interpreter so that no other test's
imports leak in.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC_DIR = str(pathlib.Path(__file__).resolve().parents[1] / "src")

_PROBE = r"""
import json, sys
HEAVY = ("scipy", "networkx")
import repro.cli
import repro.experiments.campaign  # the CLI loads it on first use
loaded = {"after_import": sorted(m for m in sys.modules
                                 if m.split(".")[0] in HEAVY)}
from repro.experiments.runner import ExperimentSpec, run
from repro.scatter.config import baseline_configs
result = run(ExperimentSpec(baseline_configs()["C12"], 1, 1.0))
loaded["after_cell"] = sorted(m for m in sys.modules
                              if m.split(".")[0] in HEAVY)
loaded["core"] = [m for m in ("repro.experiments.runner",
                              "repro.experiments.repetition",
                              "repro.experiments.figures",
                              "repro.net.topology")
                  if m in sys.modules]
loaded["frames"] = sum(c.frames_sent for c in result.clients)
print(json.dumps(loaded))
"""


def test_cli_and_one_cell_load_neither_scipy_nor_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(loaded["core"]) == 4, loaded["core"]
    assert loaded["frames"] > 0
    assert loaded["after_import"] == []
    assert loaded["after_cell"] == []
