"""The perf gate's tier registry and compare rules (scripts/perf_check.py).

Pure dict-in/list-out: no tier is measured here.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

from perf_check import (  # noqa: E402
    BASELINE_KINDS,
    RULE_KINDS,
    TIERS,
    Rule,
    build_document,
    build_parser,
    check_tier,
    main,
)

BASELINE = json.loads((REPO_ROOT / "BENCH_scalability.json").read_text())
BY_NAME = {tier.name: tier for tier in TIERS}
RECORDED = [tier for tier in TIERS if tier.recorded]


@pytest.mark.parametrize("tier", RECORDED, ids=lambda tier: tier.name)
def test_committed_baseline_passes_against_itself(tier):
    section = BASELINE[tier.name]
    assert check_tier(tier, section, section, 2.0) == []


def test_clean_docs_row_passes():
    row = {"problems": 0, "problem_descriptions": []}
    assert check_tier(BY_NAME["docs"], row, {}, 2.0) == []


@pytest.mark.parametrize("tier", RECORDED, ids=lambda tier: tier.name)
def test_every_gated_key_is_in_the_committed_baseline(tier):
    for label, row in tier.rows(BASELINE[tier.name]).items():
        for rule in tier.rules:
            assert rule.key in row, f"{label}: no {rule.key!r} to gate"
            if rule.detail:
                assert rule.detail in row, f"{label}: no {rule.detail!r}"


#: kind -> (bound, baseline value, just past the bound, just inside it)
KIND_CASES = {
    "exact": (None, 7, 8, 7),
    "true": (None, None, False, True),
    "zero": (None, None, 1, 0),
    "floor": (1.5, None, 1.49, 1.51),
    "ceiling": (1.02, None, 1.03, 1.01),
    "lower": (None, 1.0, 2.01, 1.99),
    "higher": (None, 10.0, 4.99, 5.01),
    "not_below": (None, 30, 29, 30),
}


def test_every_rule_kind_has_a_case():
    assert set(KIND_CASES) == set(RULE_KINDS)


@pytest.mark.parametrize("kind", sorted(KIND_CASES))
def test_rule_kind_flags_past_and_passes_inside(kind):
    bound, was, past, inside = KIND_CASES[kind]
    rule = Rule("x", kind, bound)
    base = {} if was is None else {"x": was}
    problem = rule.check({"x": past}, base, 2.0)
    assert problem and problem.startswith("x ")
    assert rule.check({"x": inside}, base, 2.0) is None


@pytest.mark.parametrize("kind", sorted(KIND_CASES))
def test_only_baseline_kinds_need_the_baseline(kind):
    bound, _, past, _ = KIND_CASES[kind]
    flagged = Rule("x", kind, bound).check({"x": past}, {}, 2.0)
    assert (flagged is None) == (kind in BASELINE_KINDS)


def test_ratio_kinds_skip_a_zero_baseline():
    assert Rule("x", "lower").check({"x": 5.0}, {"x": 0.0}, 2.0) is None
    assert Rule("x", "higher").check({"x": 0.0}, {"x": 0}, 2.0) is None


def test_problem_quotes_details_and_hint():
    rule = Rule("drift", "zero", detail="why", hint="re-bless")
    row = {"drift": 4, "why": ["a", "b", "c", "d"]}
    assert rule.check(row, {}, 2.0) == (
        "drift is 4, must be zero: a; b; c — re-bless"
    )


def test_problem_shortens_long_values():
    problem = Rule("rows", "exact").check(
        {"rows": list(range(1000))}, {"rows": []}, 2.0
    )
    assert problem.startswith("rows changed [] -> [0, 1, 2,")
    assert len(problem) < 100


def test_sizes_rows_compare_per_size_and_skip_unrecorded_sizes():
    tier = BY_NAME["sizes"]
    sizes = BASELINE["sizes"]
    slow = {**sizes["16"], "ii": sizes["16"]["ii"] + 1}
    current = {"16": slow, "9999": sizes["64"]}
    problems = check_tier(tier, current, sizes, 2.0)
    assert len(problems) == 1 and problems[0].startswith("size 16: ii ")


def test_sizes_rows_gate_mii_analysis():
    tier = BY_NAME["sizes"]
    base = BASELINE["sizes"]["160"]
    drifted = {**base, "circuits": base["circuits"] + 1}
    slow = {**base, "mii_s": base["mii_s"] * 3}
    for row, key in ((drifted, "circuits"), (slow, "mii_s")):
        problems = check_tier(tier, {"160": row}, {"160": base}, 2.0)
        assert [p.split()[2] for p in problems] == [key]


def test_sizes_rows_gate_deep_hrms_search():
    tier = BY_NAME["sizes"]
    base = BASELINE["sizes"]["160"]
    assert base["deep_hrms_s"] > 0
    bound = base["deep_hrms_s"] * 2.0
    within = {**base, "deep_hrms_s": bound * 0.99}
    past = {**base, "deep_hrms_s": bound * 1.01}
    assert check_tier(tier, {"160": within}, {"160": base}, 2.0) == []
    problems = check_tier(tier, {"160": past}, {"160": base}, 2.0)
    assert [p.split()[2] for p in problems] == ["deep_hrms_s"]


def test_sizes_rows_gate_production_fresh_solve():
    tier = BY_NAME["sizes"]
    for size, base in BASELINE["sizes"].items():
        # The production cold solve is gated on its own, next to the
        # Floyd–Warshall reference (mindist_cold_s).
        assert base["mindist_fresh_s"] > 0
        bound = base["mindist_fresh_s"] * 2.0
        within = {**base, "mindist_fresh_s": bound * 0.99}
        past = {**base, "mindist_fresh_s": bound * 1.01}
        assert check_tier(tier, {size: within}, {size: base}, 2.0) == []
        problems = check_tier(tier, {size: past}, {size: base}, 2.0)
        assert [p.split()[2] for p in problems] == ["mindist_fresh_s"]


def test_chaos_shape_rules():
    tier = BY_NAME["chaos"]
    base = BASELINE["chaos"]
    unknown = {**base, "faults_fired": {**base["faults_fired"], "x.y": 1}}
    unsettled = {**base, "jobs": base["jobs"] + 1}
    silent = {**base, "faults_total": 0}
    for broken, key in ((unknown, "faults_fired"), (unsettled, "settled"),
                        (silent, "faults_total")):
        problems = check_tier(tier, broken, base, 2.0)
        assert [p.split()[1] for p in problems] == [key]


class TestProcpoolSpeedup:
    """Floor on a box with a core per worker, ratio vs a baseline from
    the same (cpu-starved) regime otherwise."""

    tier = BY_NAME["procpool"]
    base = BASELINE["procpool"]  # recorded with cpus < workers

    def speedup_problems(self, row, base=None):
        problems = check_tier(self.tier, row, base or self.base, 2.0)
        return [p for p in problems if " speedup " in p]

    def test_floor_when_cpus_cover_workers(self):
        row = {**self.base, "cpus": self.base["workers"]}
        assert self.speedup_problems({**row, "speedup": 2.6}) == []
        (problem,) = self.speedup_problems({**row, "speedup": 2.4})
        assert "floor 2.5" in problem

    def test_ratio_when_cpu_starved(self):
        row = {**self.base, "cpus": self.base["workers"] - 1}
        ratio_floor = self.base["speedup"] / 2.0
        assert self.speedup_problems({**row, "speedup": 2.4}) == []
        assert self.speedup_problems(
            {**row, "speedup": ratio_floor * 1.01}
        ) == []
        (problem,) = self.speedup_problems(
            {**row, "speedup": ratio_floor * 0.99}
        )
        assert "regressed" in problem

    def test_no_ratio_against_a_multicore_baseline(self):
        row = {**self.base, "cpus": 1, "speedup": 0.01}
        multicore = {**self.base, "cpus": self.base["workers"]}
        assert self.speedup_problems(row, multicore) == []


def test_absolute_rules_apply_without_a_baseline_section():
    row = {**BASELINE["procpool"], "identical_artifacts": False}
    problems = check_tier(BY_NAME["procpool"], row, {}, 2.0)
    assert [p.split()[1] for p in problems] == ["identical_artifacts"]


def test_update_document_merges_sizes_and_carries_the_rest():
    new_row = {**BASELINE["sizes"]["16"], "mindist_cold_s": 1.0}
    document = build_document({"sizes": {"16": new_row}}, BASELINE)
    assert list(document) == list(BASELINE)
    assert document["sizes"] == {**BASELINE["sizes"], "16": new_row}
    for name in BASELINE:
        if name not in ("meta", "sizes"):
            assert document[name] == BASELINE[name]


def test_parser_keeps_the_documented_options():
    parser = build_parser()
    args = parser.parse_args(
        ["--tier", "qa", "--tier", "docs", "--threshold", "3", "--update"]
    )
    assert args.tier == ["qa", "docs"] and args.threshold == 3.0
    with pytest.raises(SystemExit):
        parser.parse_args(["--no-qa"])


def test_list_tiers_prints_every_rule(capsys):
    assert main(["--list-tiers"]) == 0
    out = capsys.readouterr().out
    for tier in TIERS:
        assert tier.name in out
        for rule in tier.rules:
            assert rule.describe() in out
