"""The documentation consistency gate (scripts/check_docs.py)."""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

from check_docs import (  # noqa: E402
    check_docs,
    console_scripts,
    local_link_targets,
    repro_names,
    resolves,
)


class TestRepoDocs:
    def test_repo_docs_are_in_sync(self):
        assert check_docs(REPO_ROOT) == []

    def test_console_scripts_parsed_from_setup(self):
        names = console_scripts(REPO_ROOT / "setup.py")
        assert set(names) == {
            "hrms-experiments", "hrms-compile", "hrms-serve",
            "hrms-submit", "hrms-report", "hrms-fuzz", "hrms-chaos",
            "hrms-conformance",
        }


class TestGateTrips:
    def _repo(self, tmp_path, readme: str) -> Path:
        (tmp_path / "setup.py").write_text(
            '"hrms-serve = repro.service.cli:serve_main"',
            encoding="utf-8",
        )
        (tmp_path / "README.md").write_text(readme, encoding="utf-8")
        return tmp_path

    def test_missing_readme_is_fatal(self, tmp_path):
        problems = check_docs(tmp_path)
        assert problems and "README.md is missing" in problems[0]

    def test_missing_entry_point_reported(self, tmp_path):
        repo = self._repo(tmp_path, "Schedulers: hrms topdown bottomup "
                                    "slack sms ims frlc spilp optreg "
                                    "portfolio")
        problems = check_docs(repo)
        assert any("hrms-serve" in p for p in problems)

    def test_missing_scheduler_reported(self, tmp_path):
        repo = self._repo(
            tmp_path,
            "hrms-serve. Schedulers: hrms topdown bottomup slack sms ims "
            "frlc spilp optreg",  # no portfolio
        )
        problems = check_docs(repo)
        assert any("'portfolio'" in p for p in problems)

    def test_dead_link_reported(self, tmp_path):
        repo = self._repo(
            tmp_path,
            "hrms-serve hrms topdown bottomup slack sms ims frlc spilp "
            "optreg portfolio [gone](docs/NOPE.md)",
        )
        problems = check_docs(repo)
        assert any("NOPE.md" in p for p in problems)

    def test_dangling_repro_name_reported(self, tmp_path):
        repo = self._repo(
            tmp_path,
            "hrms-serve hrms topdown bottomup slack sms ims frlc spilp "
            "optreg portfolio `repro.engine.session.SchedulingSession` "
            "`repro.engine.NoSuchSolver`",
        )
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "X.md").write_text(
            "See `repro.service.cancel` and `repro.cancel.check`.",
            encoding="utf-8",
        )
        problems = check_docs(repo)
        assert len(problems) == 2
        assert any("`repro.engine.NoSuchSolver`" in p for p in problems)
        assert any(
            "docs/X.md" in p and "`repro.service.cancel`" in p
            for p in problems
        )

    def test_dead_perf_check_command_reported(self, tmp_path):
        repo = self._repo(
            tmp_path,
            "hrms-serve hrms topdown bottomup slack sms ims frlc spilp "
            "optreg portfolio. Skip a tier with `perf_check.py --no-qa`; "
            "list them with `scripts/perf_check.py --list-tiers`.",
        )
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "X.md").write_text(
            "- run:\n"
            "  ```sh\n"
            "  python scripts/perf_check.py --tier qa   # one tier\n"
            "  python scripts/perf_check.py --tier nope | tee log\n"
            "  ```\n",
            encoding="utf-8",
        )
        problems = check_docs(repo)
        assert len(problems) == 2
        assert any("README.md" in p and "--no-qa" in p for p in problems)
        assert any("docs/X.md" in p and "'nope'" in p for p in problems)

    def test_dead_experiments_command_reported(self, tmp_path):
        repo = self._repo(
            tmp_path,
            "hrms-serve hrms topdown bottomup slack sms ims frlc spilp "
            "optreg portfolio. `hrms-experiments` regenerates the paper: "
            "`hrms-experiments stats --backend thread`.",
        )
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "X.md").write_text(
            "```sh\n"
            "$ hrms-experiments stats --loops 200 --jobs 2\n"
            "$ python -m repro.experiments.cli fig99\n"
            "```\n",
            encoding="utf-8",
        )
        problems = check_docs(repo)
        assert len(problems) == 2
        assert any(
            "README.md" in p and "--backend thread" in p for p in problems
        )
        assert any("docs/X.md" in p and "'fig99'" in p for p in problems)

    def test_substring_does_not_satisfy_scheduler_mention(self, tmp_path):
        # "hrms-serve" must not count as a mention of scheduler "hrms"...
        # it does contain it as a word-boundary token, so use a harder
        # case: "imsfoo" must not satisfy "ims".
        repo = self._repo(
            tmp_path,
            "hrms-serve hrms topdown bottomup slack sms imsfoo frlc "
            "spilp optreg portfolio",
        )
        problems = check_docs(repo)
        assert any("'ims'" in p for p in problems)


def test_link_targets_skip_external_urls(tmp_path):
    md = tmp_path / "x.md"
    md.write_text(
        "[a](https://x.org) [b](#anchor) [c](local.md) [d](mailto:x@y.z)",
        encoding="utf-8",
    )
    assert local_link_targets(md) == ["local.md"]


def test_repro_names_read_inline_code_only(tmp_path):
    md = tmp_path / "x.md"
    md.write_text(
        "prose repro.not.code, `python -m repro.qa.cli --seed 1`, "
        "`repro.engine.warm_start()`\n"
        "```\nrepro.in.a.fence `repro.fenced.span`\n```\n",
        encoding="utf-8",
    )
    assert repro_names(md) == ["repro.qa.cli", "repro.engine.warm_start"]


def test_resolves_modules_and_attributes():
    assert resolves("repro.engine.session.SchedulingSession.mindist")
    assert resolves("repro.cancel")
    assert not resolves("repro.service.cancel")
    assert not resolves("repro.engine.SchedulingSession.no_such_method")
