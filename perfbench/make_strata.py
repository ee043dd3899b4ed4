#!/usr/bin/env python3
"""Regenerate ``hrmsbench/perfect_club_strata.json``.

``perfect-club-cold`` stratifies its draw by how much placement work
each loop's HRMS search does (``machine.mrt`` plus ``engine.bounds``
calls on the ``perfect-club`` machine), so every seed carries the same
mix of cheap single-attempt loops and rare deep II searches.  The counts
are deterministic; rerun this (about 20 s) only if the population in
``repro.workloads.perfectclub`` changes::

    python3 perfbench/make_strata.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hrmsbench  # noqa: E402

hrmsbench.require_source_tree()

from hrmsbench import layers, workloads  # noqa: E402

PLACEMENT_LAYERS = ("machine.mrt", "engine.bounds")


def main() -> int:
    from repro.graph.serialization import graph_to_dict
    from repro.workloads.perfectclub import perfect_club_suite

    workload = workloads.Workload("perfect-club-strata", 0)
    for loop in perfect_club_suite():
        workload.requests.append(
            {
                "graph": graph_to_dict(loop.graph),
                "machine": "perfect-club",
                "scheduler": "hrms",
            }
        )
        workload.labels.append(loop.graph.name)

    entries = []
    with layers.LayerTracer() as tracer:
        for label, body in zip(workload.labels, workload.requests):
            before = tracer.totals()
            layers.replay(workloads.Workload(label, 0, [body], [label]), tracer)
            after = tracer.totals()
            entries.append(
                {
                    "name": label,
                    "ops": len(body["graph"]["operations"]),
                    "placements": sum(
                        after[layer][1] - before[layer][1]
                        for layer in PLACEMENT_LAYERS
                    ),
                }
            )
    shutil.rmtree(hrmsbench.WORK_DIR, ignore_errors=True)
    document = {
        "about": (
            "Placement calls (machine.mrt + engine.bounds) of each "
            "Perfect-Club loop's HRMS search on perfect-club; written by "
            "perfbench/make_strata.py."
        ),
        "loops": entries,
    }
    workloads.STRATA_FILE.write_text(
        json.dumps(document, separators=(",", ":")) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(entries)} loops to {workloads.STRATA_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
