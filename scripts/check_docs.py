#!/usr/bin/env python
"""Documentation consistency gate.

The README promises a quickstart: every console-script entry point
declared in ``setup.py`` and every scheduler registered in
:mod:`repro.schedulers.registry` must be mentioned in ``README.md``,
every relative link in the README and ``docs/`` must resolve to a
real file, every backticked dotted ``repro.…`` name in
``README.md``, ``PERFORMANCE.md`` and ``docs/*.md`` must import and
resolve, every ``perf_check.py …`` and ``hrms-experiments …``
command line in the code of the docs must parse with that program's
argument parser, and every ``*.md`` file a docstring under ``src/``
cites must exist (its path taken from the repository root).
Anything less means the docs have rotted relative to the code — which
this script turns into a loud failure instead of a confused user.

Run standalone::

    PYTHONPATH=src python scripts/check_docs.py

or let ``scripts/perf_check.py`` (which embeds it as a tier) and
``tests/test_check_docs.py`` run it for you.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import re
import shlex
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

#: A markdown file name — ``docs/ARCHITECTURE.md``, ``PERFORMANCE.md``.
_MD_NAME = re.compile(r"(?<![\w./-])[\w./-]+\.md\b")

#: Fenced code blocks (also indented ones, inside list items).
_FENCE = re.compile(r"^[ \t]*```.*?^[ \t]*```", flags=re.M | re.S)

#: The docs whose code may show command lines.
_COMMAND_DOCS = ("README.md", "PERFORMANCE.md", "benchmarks/README.md",
                 "docs/*.md", ".claude/skills/verify/SKILL.md")


def _perf_check_parser():
    from perf_check import build_parser

    return build_parser()


def _experiments_parser():
    from repro.experiments.cli import build_parser

    return build_parser()


#: The commands whose doc invocations are checked: name -> (invocation
#: pattern, parser factory).  An invocation's arguments run to the end
#: of the line or of the code span, or to a shell operator.
_COMMANDS = {
    name: (re.compile(rf"(?:{pattern})\b([^\n|;&<>`]*)"), parser)
    for name, pattern, parser in (
        ("perf_check.py", r"perf_check\.py", _perf_check_parser),
        ("hrms-experiments",
         r"hrms-experiments|-m repro\.experiments\.cli",
         _experiments_parser),
    )
}


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
    text = _FENCE.sub("", markdown.read_text(encoding="utf-8"))
    names = []
    for span in _CODE_SPAN.findall(text):
        names.extend(_REPRO_NAME.findall(span))
    return names


def docstring_md_names(source: Path) -> list[str]:
    """``*.md`` names in *source*'s module, class and function
    docstrings."""
    tree = ast.parse(source.read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            docstring = ast.get_docstring(node, clean=False)
            if docstring:
                names.extend(_MD_NAME.findall(docstring))
    return names


def command_calls(markdown: Path) -> list[tuple[str, list[str]]]:
    """``(command, argv)`` for every checked command line in
    *markdown*'s fenced blocks and inline code spans.  A bare command
    name, with no arguments, is a mention rather than a call."""
    text = markdown.read_text(encoding="utf-8")
    snippets = _FENCE.findall(text) + _CODE_SPAN.findall(_FENCE.sub("", text))
    calls = []
    for snippet in snippets:
        for name, (pattern, _) in _COMMANDS.items():
            for match in pattern.finditer(snippet):
                argv = shlex.split(match.group(1), comments=True)
                if argv:
                    calls.append((name, argv))
    return calls


def command_rejects(name: str, argv: list[str]) -> str | None:
    """Why command *name*'s argument parser would refuse *argv*, or None."""
    _, build_parser = _COMMANDS[name]
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code:
            return stderr.getvalue().rsplit("error: ", 1)[-1].strip()
    return None


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

    for source in sorted((repo_root / "src").rglob("*.py")):
        for name in docstring_md_names(source):
            if not (repo_root / name).exists():
                problems.append(
                    f"{source.relative_to(repo_root)} cites {name!r} in a "
                    "docstring, which does not exist"
                )

    for pattern in _COMMAND_DOCS:
        for markdown in sorted(repo_root.glob(pattern)):
            for name, argv in command_calls(markdown):
                reason = command_rejects(name, argv)
                if reason:
                    problems.append(
                        f"{markdown.relative_to(repo_root)} runs "
                        f"`{name} {shlex.join(argv)}`: {reason}"
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
          "every documented repro name imports; every perf_check.py "
          "and hrms-experiments command line parses; every markdown "
          "file a src/ docstring cites exists)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
