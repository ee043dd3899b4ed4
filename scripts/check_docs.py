#!/usr/bin/env python
"""Documentation consistency gate.

The README promises a quickstart: every console-script entry point
declared in ``setup.py`` and every scheduler registered in
:mod:`repro.schedulers.registry` must be mentioned in ``README.md``,
every relative link in the README and ``docs/`` must resolve to a
real file, and every backticked dotted ``repro.…`` name in
``README.md``, ``PERFORMANCE.md`` and ``docs/*.md`` must import and
resolve.  Anything less means the docs have rotted relative to the
code — which this script turns into a loud failure instead of a
confused user.

Run standalone::

    PYTHONPATH=src python scripts/check_docs.py

or let ``scripts/perf_check.py`` (which embeds it as a tier) and
``tests/test_check_docs.py`` run it for you.
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: ``"name = package.module:function"`` inside setup.py's entry_points.
_ENTRY_POINT = re.compile(r'"([A-Za-z0-9_.-]+)\s*=\s*[\w.]+:[\w]+"')

#: Inline markdown links — ``[text](target)``.
_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Inline code spans (one line; fenced blocks are stripped first).
_CODE_SPAN = re.compile(r"`([^`\n]+)`")

#: A dotted name rooted at the package — ``repro.engine.warm_start``.
_REPRO_NAME = re.compile(r"(?<![\w.-])repro(?:\.[A-Za-z_]\w*)+")


def console_scripts(setup_py: Path) -> list[str]:
    """The console-script names declared in *setup_py*."""
    return _ENTRY_POINT.findall(setup_py.read_text(encoding="utf-8"))


def local_link_targets(markdown: Path) -> list[str]:
    """Relative link targets in *markdown* (external URLs/anchors skipped)."""
    targets = []
    for target in _MD_LINK.findall(markdown.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        targets.append(target.split("#", 1)[0])
    return targets


def repro_names(markdown: Path) -> list[str]:
    """Dotted ``repro.…`` names inside *markdown*'s inline code spans."""
    text = markdown.read_text(encoding="utf-8")
    text = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    names = []
    for span in _CODE_SPAN.findall(text):
        names.extend(_REPRO_NAME.findall(span))
    return names


def resolves(dotted: str) -> bool:
    """Whether *dotted* names an importable module or an attribute
    reachable from one (``repro.engine.session.SchedulingSession.mindist``)."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        try:
            target = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            if exc.name == module or module.startswith(f"{exc.name}."):
                continue  # *module* itself is missing: try a shorter one
            raise
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def check_docs(repo_root: Path) -> list[str]:
    """Every problem found, as human-readable strings (empty = clean)."""
    problems: list[str] = []
    readme = repo_root / "README.md"
    setup_py = repo_root / "setup.py"
    if not readme.exists():
        return [f"README.md is missing from {repo_root}"]
    text = readme.read_text(encoding="utf-8")

    if setup_py.exists():
        scripts = console_scripts(setup_py)
        if not scripts:
            problems.append("no console_scripts found in setup.py "
                            "(parser out of sync?)")
        for name in scripts:
            if name not in text:
                problems.append(
                    f"console script {name!r} (setup.py) is not mentioned "
                    "in README.md"
                )
    else:
        problems.append(f"setup.py is missing from {repo_root}")

    from repro.schedulers.registry import available_schedulers

    for name in available_schedulers():
        if not re.search(rf"\b{re.escape(name)}\b", text):
            problems.append(
                f"registered scheduler {name!r} is not mentioned in "
                "README.md"
            )

    for markdown in (readme, *sorted((repo_root / "docs").glob("*.md"))):
        for target in local_link_targets(markdown):
            if not (markdown.parent / target).exists():
                problems.append(
                    f"{markdown.relative_to(repo_root)} links to "
                    f"{target!r}, which does not exist"
                )

    named = [readme, repo_root / "PERFORMANCE.md",
             *sorted((repo_root / "docs").glob("*.md"))]
    for markdown in named:
        if not markdown.exists():
            continue
        for name in sorted(set(repro_names(markdown))):
            if not resolves(name):
                problems.append(
                    f"{markdown.relative_to(repo_root)} names `{name}`, "
                    "which does not import"
                )
    return problems


def main(argv: list[str] | None = None) -> int:
    problems = check_docs(REPO_ROOT)
    if problems:
        print("check_docs: DOCUMENTATION OUT OF SYNC")
        for problem in problems:
            print(f"  !! {problem}")
        return 1
    print("check_docs: ok (README covers every entry point and scheduler; "
          "every documented repro name imports)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
