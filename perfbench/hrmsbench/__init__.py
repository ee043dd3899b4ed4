"""Layer-attributed benchmark of the HRMS scheduling service.

Everything here measures the program from outside: ``server`` spawns a
stock ``hrms-serve`` process, ``client`` drives it over HTTP in a closed
loop, ``check`` re-verifies what it returned, and ``layers`` replays the
same requests in-process with timing wrappers around each layer's public
functions.  ``workloads`` builds the seeded request streams.
"""

from pathlib import Path

#: Root of the checkout the benchmark measures (the parent of ``perfbench``).
ROOT = Path(__file__).resolve().parents[2]

#: Scratch space for stores and server logs; removed after every run.
WORK_DIR = ROOT / ".bench_work"


def require_source_tree() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or fail loudly.

    The benchmark measures the program in *this* checkout, never an
    installed copy, so a tree without ``src/repro`` is an error.
    """
    import sys

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program sources at {src / 'repro'}; run from a "
            "full checkout"
        )
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
