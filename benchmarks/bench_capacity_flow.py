"""Capacity gain from the flow-control substrate.

Probes the C12 reference deployment for the largest client count that
meets the XR SLO (mean per-client FPS >= 20, p95 end-to-end <= 100 ms)
twice — flow substrate off, then on (credit backpressure + token-bucket
admission + batched dispatch + client pacing) — and asserts the
substrate buys at least a 1.5x capacity gain.  Every probed cell is
audited by the frame-conservation checker, so the headline number can
never come from a run that silently lost frames.

Results land in the committed repo-root ``BENCH_capacity_flow.json``.

``BENCH_SMOKE=1`` shrinks the probe duration and ceiling for
CI; the smoke run still exercises both arms and the conservation
audit, but only asserts the gain is not a regression (>= 1.0).
"""

from __future__ import annotations

import json

from repro.experiments.capacity import run_capacity_comparison
from repro.scatter.config import baseline_configs

from benchmarks.conftest import SMOKE, save_bench_json

PLACEMENT = "C12"
DURATION_S = 4.0 if SMOKE else 8.0
MAX_CLIENTS = 4 if SMOKE else 16
MIN_GAIN = 1.0 if SMOKE else 1.5


def test_flow_substrate_capacity_gain(save_result):
    placement = baseline_configs()[PLACEMENT]
    comparison = run_capacity_comparison(
        placement, duration_s=DURATION_S, max_clients=MAX_CLIENTS,
        progress=print)
    off, on = comparison["off"], comparison["on"]
    gain = comparison["gain"]

    # Both arms probed real cells and at least one client fits even
    # without flow — otherwise the gain ratio is meaningless.
    assert off.probes and on.probes
    assert off.max_clients >= 1, off.as_dict()
    # Every probe carries the SLO verdict it was graded against.
    for report in (off, on):
        for probe in report.probes:
            assert probe.meets_slo == report.slo.met_by(
                probe.fps, probe.p95_e2e_ms)
    # Flow-on probes carry balanced ledgers across every service.
    for probe in on.probes:
        assert probe.flow is not None
        for ledger in probe.flow["services"].values():
            assert ledger["balance"] == 0, probe.as_dict()

    entry = {
        "placement": PLACEMENT,
        "smoke": SMOKE,
        "probe_duration_s": DURATION_S,
        "max_clients_ceiling": MAX_CLIENTS,
        "slo": {"min_fps": off.slo.min_fps,
                "max_p95_ms": off.slo.max_p95_ms},
        "flow_off": off.as_dict(),
        "flow_on": on.as_dict(),
        "capacity_off": off.max_clients,
        "capacity_on": on.max_clients,
        "gain": round(gain, 3),
    }
    save_bench_json("capacity_flow", entry)
    save_result("capacity_flow",
                json.dumps(entry, indent=2, sort_keys=True))

    assert gain >= MIN_GAIN, entry
