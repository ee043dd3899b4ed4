"""The cProfile harness (scripts/profile_schedule.py) reports the ladder's
work and GC pauses."""

from __future__ import annotations

import gc
import re
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


def _ladder_line(lines):
    (line,) = [
        line
        for line in lines
        if line.startswith("profile_schedule: ladder work per run: ")
    ]
    return line


def test_report_counts_the_ladder_work(capsys, monkeypatch):
    from repro.machine.mrt import ModuloReservationTable

    scans = {"n": 0}
    scan_place = ModuloReservationTable.scan_place

    def counted(self, op, candidates):
        scans["n"] += 1
        return scan_place(self, op, candidates)

    monkeypatch.setattr(ModuloReservationTable, "scan_place", counted)
    assert main(["--size", "160", "--top", "1", "--repeat", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    # Under the pstats report, before the two GC lines.
    assert lines.index(_ladder_line(lines)) == len(lines) - 3
    match = re.fullmatch(
        r"profile_schedule: ladder work per run: (\d+) attempts, (\d+) row "
        r"groups \((\d+) walks \+ (\d+) resumed\), (\d+) scan_place calls",
        _ladder_line(lines),
    )
    attempts, groups, walks, resumes, scan_calls = map(int, match.groups())
    # The default cell: a 38-attempt HRMS search, one walk per attempt;
    # every failing attempt fails at least two row groups.
    assert attempts == walks == 38
    assert groups == walks + resumes and resumes >= attempts - 1
    # Two profiled runs and one shape run, the same scans each.
    assert scan_calls * 3 == scans["n"]


def test_schedulers_without_the_ladder_report_no_groups(capsys):
    assert main(["--size", "16", "--top", "1", "--scheduler", "ims"]) == 0
    line = _ladder_line(capsys.readouterr().out.splitlines())
    assert "0 row groups (0 walks + 0 resumed)" in line
