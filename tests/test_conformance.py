"""Golden kernel conformance suite (:mod:`repro.qa.conformance`).

Covers the four layers of the suite (see docs/TESTING.md):

* the kernel × scheduler smoke matrix — every bundled kernel compiles
  and schedules on every registered scheduler (portfolio included) with
  II >= MII and a verifier pass;
* the committed goldens under ``tests/goldens/conformance/`` — DDG
  fingerprints pin kernel compilation, per-cell II/MII/MaxLive pin
  scheduler quality, and a tier-1 slice of the matrix is re-run and
  diffed on every test run (the full matrix, exact schedulers included,
  is the ``nightly`` marker tier);
* the golden bless/diff mechanics — a mutated golden names the exact
  cell and delta;
* the ``hrms-conformance`` CLI and the campaign's ``kernels`` fuzz
  profile.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine.mindist import fingerprint_digest
from repro.frontend.kernels import kernel_names, kernel_source
from repro.frontend.pipeline import compile_source
from repro.frontend.pipeline import profile_by_name as lowering_profile
from repro.machine.configs import canonical_machines
from repro.mii.analysis import compute_mii
from repro.qa.conformance import (
    EXACT_MII_LIMIT,
    EXACT_OP_LIMIT,
    GOLDEN_DIRNAME,
    ConformanceConfig,
    bless,
    diff_goldens,
    golden_path,
    load_golden,
    main as conformance_main,
    run_conformance,
)
from repro.schedule.verify import verify_schedule
from repro.schedulers import registry

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDENS_DIR = Path(__file__).parent / "goldens" / "conformance"

HEURISTICS = [
    name
    for name in registry.available_schedulers()
    if name not in registry.EXACT_SCHEDULERS
    and name not in registry.VIRTUAL_SCHEDULERS
]

#: Exact (MILP) cells cost seconds to minutes — the full sweep belongs
#: to the nightly tier, so those params carry the ``slow`` marker.
SMOKE_SCHEDULERS = (
    [pytest.param(name) for name in HEURISTICS]
    + [pytest.param("portfolio")]
    + [
        pytest.param(name, marks=pytest.mark.slow)
        for name in registry.EXACT_SCHEDULERS
    ]
)

_COMPILED: dict[str, tuple] = {}


def compiled_on_generic4(kernel: str):
    """(graph, machine, analysis) for *kernel*, compiled once."""
    if kernel not in _COMPILED:
        machine = canonical_machines()["generic4"]
        graph = compile_source(kernel_source(kernel), name=kernel).graph
        _COMPILED[kernel] = (graph, machine, compute_mii(graph, machine))
    return _COMPILED[kernel]


class TestKernelSchedulerMatrix:
    """Smoke: every kernel × every registered scheduler (generic4)."""

    @pytest.mark.parametrize("scheduler", SMOKE_SCHEDULERS)
    @pytest.mark.parametrize("kernel", kernel_names())
    def test_kernel_schedules_and_verifies(self, kernel, scheduler):
        graph, machine, analysis = compiled_on_generic4(kernel)
        if scheduler in registry.EXACT_SCHEDULERS:
            if len(graph) > EXACT_OP_LIMIT:
                pytest.skip(f"{len(graph)} ops > exact limit")
            if analysis.mii > EXACT_MII_LIMIT:
                pytest.skip(f"mii {analysis.mii} > exact limit")
        if scheduler == "portfolio":
            from repro.portfolio import race_portfolio

            result = race_portfolio(graph, machine, analysis)
            schedule = result.schedule
        else:
            schedule = registry.make_scheduler(scheduler).schedule(
                graph, machine, analysis
            )
        assert schedule.ii >= analysis.mii
        verify_schedule(schedule)  # raises on an illegal schedule


class TestKernelFingerprintGoldens:
    """The committed goldens pin kernel compilation bit-for-bit."""

    @pytest.mark.parametrize("kernel", kernel_names())
    def test_compiled_digest_matches_golden(self, kernel):
        golden = load_golden(GOLDENS_DIR, kernel)
        assert golden is not None, (
            f"no golden for {kernel!r} — run 'hrms-conformance --bless' "
            "and commit tests/goldens/conformance/"
        )
        assert golden["digests"], "golden records no digests"
        for profile, digest in golden["digests"].items():
            graph = compile_source(
                kernel_source(kernel),
                name=kernel,
                profile=lowering_profile(profile),
            ).graph
            assert fingerprint_digest(graph) == digest, (
                f"{kernel} compiles to a different DDG under "
                f"{profile!r} than the committed golden — the front "
                "end drifted (re-bless only if intentional)"
            )
            assert len(graph) == golden["ops"][profile]


#: The tier-1 slice of the matrix: a structurally diverse eighth of the
#: library, heuristics + portfolio only.  The full matrix (everything,
#: exact schedulers included) runs nightly.
SMOKE_KERNELS = (
    "daxpy",
    "dot",
    "liv5_tridiag",
    "predicated_clip",
    "gather",
    "iir_biquad",
    "tridiag_backsub",
    "rms",
)


@pytest.fixture(scope="module")
def smoke_result():
    return run_conformance(
        ConformanceConfig(
            kernels=SMOKE_KERNELS, include_exact=False, workers=4
        )
    )


class TestConformanceMatrix:
    def test_smoke_matrix_is_oracle_clean(self, smoke_result):
        assert smoke_result.failures == []
        assert smoke_result.count("failed") == 0
        assert smoke_result.count("ok") > 0
        assert smoke_result.oracle_checks >= 4 * smoke_result.count("ok")

    def test_smoke_matrix_matches_committed_goldens(self, smoke_result):
        assert diff_goldens(smoke_result, GOLDENS_DIR) == []

    def test_every_cell_respects_its_lower_bounds(self, smoke_result):
        for cell in smoke_result.cells:
            if cell.status != "ok":
                continue
            assert cell.mii == max(cell.resmii, cell.recmii)
            assert cell.ii >= cell.mii, cell.coordinate
            assert cell.maxlive >= 0

    def test_matrix_is_deterministic_across_runs(self, smoke_result):
        again = run_conformance(
            ConformanceConfig(
                kernels=SMOKE_KERNELS[:2], include_exact=False, workers=2
            )
        )
        by_coord = {c.coordinate: c for c in smoke_result.cells}
        for cell in again.cells:
            first = by_coord[cell.coordinate]
            assert cell.golden_values() == first.golden_values()
            assert cell.digest == first.digest

    @pytest.mark.nightly
    def test_full_matrix_with_exact_schedulers(self):
        result = run_conformance(ConformanceConfig(workers=4))
        assert result.failures == []
        assert diff_goldens(result, GOLDENS_DIR) == []


class TestGoldenMechanics:
    """bless/diff: drift is named cell-by-cell with deltas."""

    @pytest.fixture(scope="class")
    def tiny_result(self):
        return run_conformance(
            ConformanceConfig(
                kernels=("daxpy", "dot"),
                schedulers=("hrms", "topdown"),
                include_portfolio=False,
                include_exact=False,
                workers=2,
            )
        )

    def test_bless_then_diff_is_clean(self, tiny_result, tmp_path):
        written = bless(tiny_result, tmp_path)
        assert sorted(p.name for p in written) == ["daxpy.json", "dot.json"]
        assert diff_goldens(tiny_result, tmp_path) == []

    def test_missing_golden_is_reported(self, tiny_result, tmp_path):
        bless(tiny_result, tmp_path)
        golden_path(tmp_path, "dot").unlink()
        drift = diff_goldens(tiny_result, tmp_path)
        assert any("dot: no golden committed" in line for line in drift)

    def test_value_drift_names_cell_and_delta(self, tiny_result, tmp_path):
        bless(tiny_result, tmp_path)
        path = golden_path(tmp_path, "daxpy")
        document = json.loads(path.read_text())
        cell = document["cells"]["generic4"]["hrms"]
        cell["ii"] += 1
        cell["maxlive"] -= 2
        path.write_text(json.dumps(document))
        drift = diff_goldens(tiny_result, tmp_path)
        ii_lines = [line for line in drift if "ii changed" in line]
        assert len(ii_lines) == 1
        assert "daxpy @ generic4/hrms" in ii_lines[0]
        assert "(-1)" in ii_lines[0]
        assert any(
            "maxlive changed" in line and "(+2)" in line for line in drift
        )

    def test_digest_drift_is_reported(self, tiny_result, tmp_path):
        bless(tiny_result, tmp_path)
        path = golden_path(tmp_path, "daxpy")
        document = json.loads(path.read_text())
        profile = next(iter(document["digests"]))
        document["digests"][profile] = "0" * 64
        path.write_text(json.dumps(document))
        drift = diff_goldens(tiny_result, tmp_path)
        assert any("compiled digest" in line for line in drift)

    def test_unswept_golden_cells_are_not_drift(self, tiny_result, tmp_path):
        # The golden keeps cells for schedulers/machines a partial run
        # did not sweep; only swept coordinates are compared.
        bless(tiny_result, tmp_path)
        path = golden_path(tmp_path, "daxpy")
        document = json.loads(path.read_text())
        document["cells"]["generic4"]["sms"] = dict(
            document["cells"]["generic4"]["hrms"]
        )
        path.write_text(json.dumps(document))
        assert diff_goldens(tiny_result, tmp_path) == []

    def test_swept_cell_missing_from_run_is_drift(
        self, tiny_result, tmp_path
    ):
        bless(tiny_result, tmp_path)
        path = golden_path(tmp_path, "daxpy")
        document = json.loads(path.read_text())
        del document["cells"]["generic4"]["topdown"]
        path.write_text(json.dumps(document))
        drift = diff_goldens(tiny_result, tmp_path)
        assert any(
            "generic4/topdown" in line and "no golden" in line
            for line in drift
        )


class TestConformanceCli:
    ARGS = [
        "--kernels", "daxpy",
        "--machines", "generic4",
        "--schedulers", "hrms,topdown",
        "--no-exact",
        "--no-portfolio",
        "--workers", "2",
    ]

    def test_bless_then_gate(self, tmp_path, capsys):
        goldens = ["--goldens", str(tmp_path)]
        assert conformance_main(self.ARGS + goldens + ["--bless"]) == 0
        assert golden_path(tmp_path, "daxpy").exists()
        assert conformance_main(self.ARGS + goldens) == 0
        err = capsys.readouterr().err
        assert "cell(s) ok" in err

    def test_gate_fails_on_drift(self, tmp_path, capsys):
        goldens = ["--goldens", str(tmp_path)]
        assert conformance_main(self.ARGS + goldens + ["--bless"]) == 0
        path = golden_path(tmp_path, "daxpy")
        document = json.loads(path.read_text())
        document["cells"]["generic4"]["hrms"]["ii"] += 3
        path.write_text(json.dumps(document))
        assert conformance_main(self.ARGS + goldens) == 1
        err = capsys.readouterr().err
        assert "DRIFT" in err and "ii changed" in err

    def test_unknown_kernel_rejected(self, tmp_path):
        assert (
            conformance_main(
                ["--kernels", "nope", "--goldens", str(tmp_path)]
            )
            == 1
        )

    def test_json_report(self, tmp_path, capsys):
        goldens = ["--goldens", str(tmp_path)]
        conformance_main(self.ARGS + goldens + ["--bless"])
        conformance_main(self.ARGS + goldens + ["--json"])
        out = capsys.readouterr().out
        report = json.loads(out)
        assert {cell["scheduler"] for cell in report["cells"]} == {
            "hrms", "topdown",
        }
        assert report["failures"] == []

    def test_module_entry_point_imports_cleanly(self):
        """``python -m repro.qa.conformance`` runs without runpy's
        "found in sys.modules" warning: the ``repro.qa`` package does not
        import the module it is about to execute."""
        env = os.environ.copy()
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        result = subprocess.run(
            [
                sys.executable, "-W", "error::RuntimeWarning",
                "-m", "repro.qa.conformance", "--help",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "usage: hrms-conformance" in result.stdout


class TestKernelsFuzzProfile:
    """The campaign's compiled-kernel diversity source."""

    def test_builds_real_compiled_kernels(self):
        from repro.qa.profiles import profile_by_name

        profile = profile_by_name("kernels")
        seen = set()
        for seed in range(8):
            graph = profile.build(seed)
            graph.validate()
            # qa-kernels-<seed>-<kernel>-<lowering>
            kernel = graph.name.split("-")[-2]
            assert kernel in kernel_names()
            seen.add(kernel)
        assert len(seen) > 1, "one kernel for 8 seeds — not diverse"

    def test_profile_is_deterministic(self):
        from repro.qa.profiles import profile_by_name

        profile = profile_by_name("kernels")
        first, second = profile.build(5), profile.build(5)
        assert first.name == second.name
        assert fingerprint_digest(first) == fingerprint_digest(second)

    def test_campaign_runs_kernels_profile_clean(self):
        from repro.qa.campaign import CampaignConfig, run_campaign

        report = run_campaign(
            CampaignConfig(
                seeds=4,
                profiles=("kernels",),
                include_exact=False,
                shrink=False,
            )
        )
        assert report.cases == 4
        assert not report.failures


def test_committed_goldens_cover_every_kernel():
    """Every bundled kernel has a committed golden, and vice versa."""
    committed = {path.stem for path in GOLDENS_DIR.glob("*.json")}
    assert committed == set(kernel_names()), (
        "tests/goldens/conformance/ and KERNEL_SOURCES disagree — run "
        "'hrms-conformance --bless' after adding or removing kernels"
    )


def test_golden_dirname_constant_points_here():
    assert (
        Path(__file__).parent.parent / GOLDEN_DIRNAME
    ).resolve() == GOLDENS_DIR.resolve()
