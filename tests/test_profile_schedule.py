"""The cProfile harness (scripts/profile_schedule.py) reports GC pauses."""

from __future__ import annotations

import gc
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

from profile_schedule import GcPauses, main  # noqa: E402


def test_gc_pauses_count_forced_collections():
    callbacks = list(gc.callbacks)
    with GcPauses() as pauses:
        gc.collect(0)
        gc.collect(2)
    assert gc.callbacks == callbacks
    assert pauses.collections[0] >= 1 and pauses.collections[2] >= 1
    assert pauses.seconds > 0.0
    assert "collections (generation 0/1/2: " in pauses.summary()


def test_report_ends_with_gc_lines(capsys):
    assert main(["--size", "16", "--top", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-2].startswith("profile_schedule: gc during compute_mii: ")
    assert lines[-1].startswith(
        "profile_schedule: gc during the profiled cell: "
    )
