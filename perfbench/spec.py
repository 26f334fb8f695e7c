"""What the benchmark measures: workloads, metrics and the layer table.

`BENCHMARK.json` at the repository root is the one list of the metrics,
their units and bounds, and of the run length; this module reads it and
adds what the file does not hold: what one operation is, and which spans
each workload must and must not reach.
"""
from __future__ import annotations

import json

from common import ROOT, WORKLOADS

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN_SECONDS = BENCHMARK["run_seconds"]
END_TO_END = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]

# What one operation is, per workload, for attempted/failed and op_latency.
OPERATION = {"survey": "frames", "track": "frames", "receiver": "frames",
             "verify": "properties"}

# The properties `uwps verify` reports, in order: one `verify.<name>.s`
# per-layer metric each.
VERIFY_PROPERTIES = [name[len("verify."):-len(".s")] for name, _ in PER_LAYER
                     if name.startswith("verify.") and name.endswith(".s")]

ALL = frozenset(WORKLOADS)
NOT_VERIFY = ALL - {"verify"}

# Span -> (workloads where it must record calls, workloads where it must
# record none). A traced run that breaks either side fails, so a renamed or
# re-routed function shows as a broken trace rather than a silent zero.
SPAN_EXPECTATIONS = {
    "geo.geodetic_to_enu": (ALL, frozenset()),
    "geo.enu_to_geodetic": (ALL - {"receiver"}, {"receiver"}),
    "protocol.decode_message": ({"receiver", "verify"}, {"survey", "track"}),
    "protocol.encode_message": ({"verify"}, NOT_VERIFY),
    "multilateration.pseudorange_diffs": (ALL, frozenset()),
    "multilateration.kleusberg_solve": (ALL, frozenset()),
    "multilateration.select_underwater": (ALL, frozenset()),
    "multilateration.residuals": (ALL, frozenset()),
    "multilateration.numerical_solve": (ALL - {"receiver"}, {"receiver"}),
    "channel.simulate": (ALL - {"receiver"}, {"receiver"}),
    "channel.assemble_observations": (ALL, frozenset()),
    "channel.add_timing_noise": ({"track", "verify"}, {"survey", "receiver"}),
    "cli.main": (ALL, frozenset()),
    "cli.parse_scenario_file": ({"survey", "track"}, {"receiver", "verify"}),
    "cli.parse_observation_file": ({"receiver"}, {"survey", "track", "verify"}),
}
