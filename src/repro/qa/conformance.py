"""Golden kernel conformance suite.

The fuzzing campaign (:mod:`repro.qa.campaign`) exercises the scheduler
catalog on *synthetic* populations; this module locks scheduler quality
on the **real** loop bodies the paper's evaluation rests on.  Every
kernel in :data:`repro.frontend.kernels.KERNEL_SOURCES` is compiled
through the front end, submitted through the service's store/executor
path (the same ``POST /v1/jobs`` → ``POST /v1/verify`` flow an external
client would use) across the full registered scheduler catalog × the
canonical machine configurations, faces the QA oracle battery, and is
diffed against committed goldens recording per-(kernel, machine,
scheduler) expected II, MII bounds, MaxLive and the compiled kernel's
DDG fingerprint digest.

This is the compiler-style "golden output" regression discipline: a
schedule quality change anywhere in the matrix — a new II, a different
MaxLive, a kernel that stops compiling to the same graph — names the
exact cell that moved and by how much.  Intentional improvements are
re-blessed with ``hrms-conformance --bless``; everything else is a
regression.

Determinism notes: goldens record only schedule *identity* (II, MII
bookkeeping, MaxLive, digests), never wall time; the exact (MILP)
schedulers run without a time limit on small kernels only, so their
cells are optimal — and therefore deterministic — rather than
budget-dependent.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError
from repro.frontend.kernels import KERNEL_SOURCES, kernel_source
from repro.machine.configs import canonical_machines
from repro.qa.campaign import _machine_supports
from repro.schedulers import registry

#: Golden file schema version.
GOLDEN_SCHEMA = 1

#: ``kind`` stamped into every golden envelope.
GOLDEN_KIND = "hrms-conformance-golden"

#: Where the committed goldens live, relative to the repo root.
GOLDEN_DIRNAME = "tests/goldens/conformance"

#: Largest kernel (operation count) the exact MILP schedulers run on.
#: Small enough that an *unlimited* solve finishes in seconds — exact
#: cells must be optimal, not time-limit-dependent, to stay golden.
EXACT_OP_LIMIT = 10

#: Largest MII the exact schedulers accept.  The MILP time horizon
#: scales with II, not just operation count: a 6-op kernel with an
#: unpipelined sqrt (MII 30) runs the register-optimal formulation into
#: its time limit, and a timed-out incumbent is not a golden.
EXACT_MII_LIMIT = 12

#: Lowering profile per canonical machine: the Govindarajan study uses
#: its own latency table, everything else lowers with the Perfect-Club
#: profile (the front end's default).
MACHINE_PROFILES = {
    "generic4": "perfect_club",
    "govindarajan": "govindarajan",
    "perfect-club": "perfect_club",
}

#: The per-cell quantities a golden records (schedule identity only —
#: no wall-clock fields).
CELL_FIELDS = ("ii", "mii", "resmii", "recmii", "maxlive")


@dataclass(frozen=True)
class ConformanceConfig:
    """What one conformance run sweeps."""

    #: Kernel names (default: the whole bundled library).
    kernels: tuple[str, ...] | None = None
    #: Canonical machine names (default: all).
    machines: tuple[str, ...] | None = None
    #: Concrete scheduler names (default: every registered heuristic).
    schedulers: tuple[str, ...] | None = None
    #: Race the virtual portfolio over the registered heuristics.
    include_portfolio: bool = True
    #: Run the exact (MILP) schedulers on kernels small enough for an
    #: unlimited — hence deterministic — solve.
    include_exact: bool = True
    exact_op_limit: int = EXACT_OP_LIMIT
    exact_mii_limit: int = EXACT_MII_LIMIT
    #: Service worker threads executing the matrix.
    workers: int = 4
    #: Store directory (``None`` = throwaway temporary store).
    store_root: str | None = None


@dataclass
class ConformanceCell:
    """One (kernel, machine, scheduler) coordinate of the matrix."""

    kernel: str
    machine: str
    scheduler: str
    status: str  # "ok" | "skipped" | "failed"
    ii: int | None = None
    mii: int | None = None
    resmii: int | None = None
    recmii: int | None = None
    maxlive: int | None = None
    #: DDG fingerprint digest of the compiled kernel (per the machine's
    #: lowering profile).
    digest: str | None = None
    artifact: str | None = None
    detail: str = ""

    @property
    def coordinate(self) -> str:
        return f"{self.kernel} @ {self.machine} / {self.scheduler}"

    def golden_values(self) -> dict:
        return {name: getattr(self, name) for name in CELL_FIELDS}


@dataclass
class ConformanceResult:
    """Everything one conformance run observed."""

    cells: list[ConformanceCell] = field(default_factory=list)
    #: What the run actually swept — the differ only compares golden
    #: cells inside this envelope, so a deliberately partial run (say
    #: ``--no-exact`` in a fast CI tier) is not "missing" cells.
    machines_swept: tuple[str, ...] = ()
    schedulers_swept: tuple[str, ...] = ()
    #: Oracle failures and scheduler errors ("x failed: why").
    failures: list[str] = field(default_factory=list)
    #: (kernel, profile) → compiled-graph fingerprint digest.
    digests: dict[str, dict[str, str]] = field(default_factory=dict)
    #: (kernel, profile) → compiled-graph operation count.
    ops: dict[str, dict[str, int]] = field(default_factory=dict)
    oracle_checks: int = 0
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def count(self, status: str) -> int:
        return sum(1 for cell in self.cells if cell.status == status)

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} FAILURE(S)"
        return (
            f"{self.count('ok')} cell(s) ok, {self.count('skipped')} "
            f"skipped, {self.count('failed')} failed, "
            f"{self.oracle_checks} oracle check(s) in "
            f"{self.wall_seconds:.1f}s: {status}"
        )

    def kernels(self) -> list[str]:
        seen: dict[str, None] = {}
        for cell in self.cells:
            seen.setdefault(cell.kernel, None)
        return list(seen)


def resolve_kernels(names: tuple[str, ...] | None) -> list[str]:
    """The kernels a config sweeps, library order."""
    if names is None:
        return list(KERNEL_SOURCES)
    for name in names:
        if name not in KERNEL_SOURCES:
            raise ReproError(
                f"unknown kernel {name!r}; available: "
                f"{', '.join(KERNEL_SOURCES)}"
            )
    return list(names)


def resolve_machines(names: tuple[str, ...] | None) -> list[str]:
    """The canonical machine names a config sweeps."""
    catalog = canonical_machines()
    if names is None:
        return list(catalog)
    for name in names:
        if name not in catalog:
            raise ReproError(
                f"unknown machine {name!r}; available: "
                f"{', '.join(catalog)}"
            )
    return list(names)


def resolve_schedulers(config: ConformanceConfig) -> list[str]:
    """The concrete (non-exact, non-virtual) scheduler names swept."""
    known = registry.available_schedulers()
    if config.schedulers is not None:
        for name in config.schedulers:
            if name not in known:
                raise ReproError(
                    f"unknown scheduler {name!r}; available: "
                    f"{', '.join(known)}"
                )
        return [
            name
            for name in config.schedulers
            if name not in registry.VIRTUAL_SCHEDULERS
            and name not in registry.EXACT_SCHEDULERS
        ]
    return [
        name
        for name in known
        if name not in registry.VIRTUAL_SCHEDULERS
        and name not in registry.EXACT_SCHEDULERS
    ]


def _compile_kernels(
    kernels: list[str], profiles: list[str]
) -> dict[tuple[str, str], "object"]:
    """(kernel, profile) → compiled :class:`DependenceGraph`."""
    from repro.frontend.pipeline import compile_source, profile_by_name

    compiled = {}
    for kernel in kernels:
        for profile in profiles:
            loop = compile_source(
                kernel_source(kernel),
                name=kernel,
                profile=profile_by_name(profile),
            )
            compiled[(kernel, profile)] = loop.graph
    return compiled


def run_conformance(
    config: ConformanceConfig | None = None, *, log=None
) -> ConformanceResult:
    """Run the kernel × machine × scheduler matrix through a live
    (in-process) scheduling service and the oracle battery.

    Every cell is a real service submission — the request carries the
    kernel's *source text*, so the executor compiles it exactly the way
    ``POST /v1/jobs`` would — and every produced artifact is re-verified
    through the service's ``POST /v1/verify`` path against a locally
    compiled graph (which also proves compilation is deterministic
    between submission and verification: the digests must match).

    Oracle failures and scheduler errors are collected on the result,
    never raised — the caller diffs the surviving cells against the
    goldens.
    """
    import tempfile

    from repro.engine.mindist import fingerprint_digest
    from repro.graph.serialization import graph_to_dict
    from repro.mii.analysis import compute_mii
    from repro.service import ExecutorConfig, SchedulingService

    config = config or ConformanceConfig()
    say = log or (lambda message: None)
    kernels = resolve_kernels(config.kernels)
    machines = resolve_machines(config.machines)
    schedulers = resolve_schedulers(config)
    catalog = canonical_machines()
    profiles = sorted({MACHINE_PROFILES[name] for name in machines})
    compiled = _compile_kernels(kernels, profiles)

    result = ConformanceResult()
    began = time.perf_counter()
    for kernel in kernels:
        result.digests[kernel] = {
            profile: fingerprint_digest(compiled[(kernel, profile)])
            for profile in profiles
        }
        result.ops[kernel] = {
            profile: len(compiled[(kernel, profile)])
            for profile in profiles
        }

    exact = (
        [
            name
            for name in registry.EXACT_SCHEDULERS
            if name in registry.available_schedulers()
        ]
        if config.include_exact
        else []
    )
    result.machines_swept = tuple(machines)
    result.schedulers_swept = tuple(
        schedulers
        + exact
        + (["portfolio"] if config.include_portfolio else [])
    )

    mii_cache: dict[tuple[str, str], int] = {}

    def mii_of(kernel: str, machine_name: str) -> int:
        key = (kernel, machine_name)
        if key not in mii_cache:
            graph = compiled[(kernel, MACHINE_PROFILES[machine_name])]
            mii_cache[key] = compute_mii(graph, catalog[machine_name]).mii
        return mii_cache[key]

    def plan_cell(kernel: str, machine_name: str, scheduler: str):
        """The request for one cell, or a skipped-cell record."""
        profile = MACHINE_PROFILES[machine_name]
        graph = compiled[(kernel, profile)]
        if not _machine_supports(catalog[machine_name], graph):
            classes = {u.name for u in catalog[machine_name].unit_classes()}
            missing = sorted(
                {
                    op.opclass
                    for op in graph.operations()
                    if op.opclass not in classes
                }
            )
            return ConformanceCell(
                kernel, machine_name, scheduler, "skipped",
                detail=f"machine has no {'/'.join(missing)} unit",
            )
        if scheduler in registry.EXACT_SCHEDULERS:
            if len(graph) > config.exact_op_limit:
                return ConformanceCell(
                    kernel, machine_name, scheduler, "skipped",
                    detail=f"{len(graph)} ops > exact-op-limit "
                    f"{config.exact_op_limit}",
                )
            mii = mii_of(kernel, machine_name)
            if mii > config.exact_mii_limit:
                return ConformanceCell(
                    kernel, machine_name, scheduler, "skipped",
                    detail=f"mii {mii} > exact-mii-limit "
                    f"{config.exact_mii_limit}",
                )
        return {
            "kind": "schedule",
            "source": kernel_source(kernel),
            "name": kernel,
            "profile": profile,
            "machine": machine_name,
            "scheduler": scheduler,
        }

    def settle(service, jobs, what: str) -> None:
        deadline = time.monotonic() + 600
        while any(
            job.status not in ("done", "failed") for job in jobs.values()
        ):
            if time.monotonic() > deadline:
                raise ReproError(f"conformance: {what} jobs timed out")
            time.sleep(0.005)

    def run_wave(service, wave) -> None:
        """Submit one wave of cells, settle it, verify every artifact."""
        jobs = {}
        for cell_coord, request in wave:
            jobs[cell_coord] = service.submit(request)
        settle(service, jobs, "matrix")
        for (kernel, machine_name, scheduler), job in jobs.items():
            cell = ConformanceCell(kernel, machine_name, scheduler, "ok")
            profile = MACHINE_PROFILES[machine_name]
            graph = compiled[(kernel, profile)]
            if job.status != "done":
                cell.status = "failed"
                cell.detail = f"job failed: {job.error}"
                result.failures.append(f"{cell.coordinate}: {cell.detail}")
                result.cells.append(cell)
                continue
            report = service.verify_artifact(
                {
                    "artifact": job.result["artifact"],
                    "graph": graph_to_dict(graph),
                }
            )
            result.oracle_checks += len(report["checks"])
            if not report["ok"]:
                cell.status = "failed"
                failed = [
                    check["oracle"]
                    for check in report["checks"]
                    if not check["ok"]
                ]
                cell.detail = f"oracle failure(s): {', '.join(failed)}"
                result.failures.append(f"{cell.coordinate}: {cell.detail}")
            envelope = service.store.get(job.result["artifact"])
            payload = envelope["payload"]
            if envelope["kind"] == "portfolio":
                payload = payload["schedule"]
            cell.ii = payload["ii"]
            cell.mii = payload["mii"]
            cell.resmii = payload["resmii"]
            cell.recmii = payload["recmii"]
            cell.maxlive = payload["maxlive"]
            cell.digest = payload["graph"]["digest"]
            cell.artifact = job.result["artifact"]
            expected = result.digests[kernel][profile]
            if cell.digest != expected:
                cell.status = "failed"
                cell.detail = (
                    f"artifact digest {cell.digest[:12]}… != locally "
                    f"compiled {expected[:12]}… (compilation is "
                    "non-deterministic!)"
                )
                result.failures.append(f"{cell.coordinate}: {cell.detail}")
            result.cells.append(cell)

    def sweep(service) -> None:
        # Two waves per matrix: concrete schedulers first so the
        # portfolio wave races over store-warmed members instead of
        # recomputing them.
        concrete_wave, portfolio_wave = [], []
        for kernel in kernels:
            for machine_name in machines:
                for scheduler in schedulers + exact:
                    planned = plan_cell(kernel, machine_name, scheduler)
                    if isinstance(planned, ConformanceCell):
                        result.cells.append(planned)
                    else:
                        concrete_wave.append(
                            ((kernel, machine_name, scheduler), planned)
                        )
                if config.include_portfolio:
                    planned = plan_cell(kernel, machine_name, "portfolio")
                    if isinstance(planned, ConformanceCell):
                        result.cells.append(planned)
                    else:
                        portfolio_wave.append(
                            ((kernel, machine_name, "portfolio"), planned)
                        )
        say(
            f"{len(kernels)} kernel(s) x {len(machines)} machine(s): "
            f"{len(concrete_wave)} concrete + {len(portfolio_wave)} "
            "portfolio cell(s)"
        )
        run_wave(service, concrete_wave)
        run_wave(service, portfolio_wave)

    service_config = ExecutorConfig(backend="thread", workers=config.workers)
    if config.store_root is not None:
        service = SchedulingService(
            config.store_root, config=service_config
        ).start()
        try:
            sweep(service)
        finally:
            service.stop()
    else:
        with tempfile.TemporaryDirectory(prefix="hrms-conformance-") as tmp:
            service = SchedulingService(tmp, config=service_config).start()
            try:
                sweep(service)
            finally:
                service.stop()

    # Deterministic report order regardless of worker interleaving.
    result.cells.sort(key=lambda c: (c.kernel, c.machine, c.scheduler))
    result.wall_seconds = time.perf_counter() - began
    return result


# ----------------------------------------------------------------------
# Goldens: bless and diff.
# ----------------------------------------------------------------------


def golden_path(goldens_dir: str | Path, kernel: str) -> Path:
    return Path(goldens_dir) / f"{kernel}.json"


def golden_document(result: ConformanceResult, kernel: str) -> dict:
    """The golden envelope for *kernel* from *result*."""
    cells: dict[str, dict[str, dict]] = {}
    for cell in result.cells:
        if cell.kernel != kernel or cell.status != "ok":
            continue
        cells.setdefault(cell.machine, {})[cell.scheduler] = (
            cell.golden_values()
        )
    return {
        "schema": GOLDEN_SCHEMA,
        "kind": GOLDEN_KIND,
        "kernel": kernel,
        "digests": dict(sorted(result.digests[kernel].items())),
        "ops": dict(sorted(result.ops[kernel].items())),
        "cells": {
            machine: dict(sorted(cells[machine].items()))
            for machine in sorted(cells)
        },
    }


def bless(result: ConformanceResult, goldens_dir: str | Path) -> list[Path]:
    """Write one golden file per kernel in *result*; returns the paths."""
    directory = Path(goldens_dir)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for kernel in result.kernels():
        path = golden_path(directory, kernel)
        path.write_text(
            json.dumps(golden_document(result, kernel), indent=2,
                       sort_keys=True) + "\n",
            encoding="utf-8",
        )
        written.append(path)
    return written


def load_golden(goldens_dir: str | Path, kernel: str) -> dict | None:
    path = golden_path(goldens_dir, kernel)
    if not path.exists():
        return None
    document = json.loads(path.read_text(encoding="utf-8"))
    if document.get("kind") != GOLDEN_KIND:
        raise ReproError(f"{path} is not a conformance golden")
    return document


def diff_goldens(
    result: ConformanceResult, goldens_dir: str | Path
) -> list[str]:
    """Every way *result* drifts from the committed goldens.

    Each entry names the exact cell and the delta — the triage starts
    (and usually ends) with this list.  An empty list means conformance.
    """
    drift: list[str] = []
    for kernel in result.kernels():
        golden = load_golden(goldens_dir, kernel)
        if golden is None:
            drift.append(
                f"{kernel}: no golden committed (run --bless to record one)"
            )
            continue
        for profile, digest in sorted(result.digests[kernel].items()):
            expected = golden.get("digests", {}).get(profile)
            if expected is None:
                drift.append(
                    f"{kernel}: golden has no digest for profile {profile!r}"
                )
            elif digest != expected:
                drift.append(
                    f"{kernel}: compiled digest ({profile}) changed "
                    f"{expected[:12]}… -> {digest[:12]}… "
                    "(kernel compilation drifted)"
                )
        for profile, ops in sorted(result.ops[kernel].items()):
            expected = golden.get("ops", {}).get(profile)
            if expected is not None and ops != expected:
                drift.append(
                    f"{kernel}: op count ({profile}) changed "
                    f"{expected} -> {ops}"
                )
        observed: dict[str, dict] = {}
        for cell in result.cells:
            if cell.kernel != kernel or cell.status != "ok":
                continue
            observed[f"{cell.machine}/{cell.scheduler}"] = (
                cell.golden_values()
            )
        # Only golden cells inside the run's swept envelope count as
        # expected: a deliberately partial run (machine/scheduler subset)
        # is diffed against the matching slice of the golden, while a
        # kernel that silently drops out of a *swept* coordinate is
        # still drift.
        expected_cells = {
            f"{machine}/{scheduler}": values
            for machine, row in golden.get("cells", {}).items()
            for scheduler, values in row.items()
            if machine in result.machines_swept
            and scheduler in result.schedulers_swept
        }
        for coordinate in sorted(set(expected_cells) - set(observed)):
            drift.append(
                f"{kernel} @ {coordinate}: golden cell not produced by "
                "this run (scheduler/machine dropped or newly skipped?)"
            )
        for coordinate in sorted(set(observed) - set(expected_cells)):
            drift.append(
                f"{kernel} @ {coordinate}: cell has no golden "
                "(new scheduler/machine — run --bless)"
            )
        for coordinate in sorted(set(observed) & set(expected_cells)):
            for name in CELL_FIELDS:
                new, old = observed[coordinate][name], (
                    expected_cells[coordinate].get(name)
                )
                if old is not None and new != old:
                    delta = new - old
                    drift.append(
                        f"{kernel} @ {coordinate}: {name} changed "
                        f"{old} -> {new} ({'+' if delta >= 0 else ''}"
                        f"{delta})"
                    )
    return drift


# ----------------------------------------------------------------------
# Console entry point: hrms-conformance.
# ----------------------------------------------------------------------


def _csv(text: str | None) -> tuple[str, ...] | None:
    if text is None:
        return None
    parts = tuple(part.strip() for part in text.split(",") if part.strip())
    return parts or None


def main(argv: list[str] | None = None) -> int:
    """``hrms-conformance``: run the matrix, diff (or bless) goldens."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="hrms-conformance",
        description="Golden kernel conformance: compile every bundled "
        "kernel, schedule it across the registered scheduler catalog x "
        "the canonical machines through a live scheduling service, run "
        "the QA oracle battery on every cell, and diff against the "
        "committed goldens.",
    )
    parser.add_argument(
        "--kernels", default=None,
        help="comma-separated kernel names (default: the whole library)",
    )
    parser.add_argument(
        "--machines", default=None,
        help="comma-separated canonical machine names (default: all)",
    )
    parser.add_argument(
        "--schedulers", default=None,
        help="comma-separated scheduler names (default: every "
        "registered heuristic)",
    )
    parser.add_argument(
        "--no-portfolio", action="store_true",
        help="skip the virtual portfolio cells",
    )
    parser.add_argument(
        "--no-exact", action="store_true",
        help="skip the MILP-backed schedulers even on tiny kernels",
    )
    parser.add_argument(
        "--exact-op-limit", type=int, default=EXACT_OP_LIMIT,
        help="largest kernel the exact schedulers run on "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--exact-mii-limit", type=int, default=EXACT_MII_LIMIT,
        help="largest MII the exact schedulers accept — bigger MILPs "
        "hit their time limit and stop being deterministic "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="service worker threads (default: %(default)s)",
    )
    parser.add_argument(
        "--goldens", default=GOLDEN_DIRNAME, metavar="DIR",
        help="goldens directory (default: %(default)s)",
    )
    parser.add_argument(
        "--bless", action="store_true",
        help="regenerate the goldens from this run instead of diffing",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the cell matrix as JSON on stdout",
    )
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers wants a positive count, got {args.workers}")

    config = ConformanceConfig(
        kernels=_csv(args.kernels),
        machines=_csv(args.machines),
        schedulers=_csv(args.schedulers),
        include_portfolio=not args.no_portfolio,
        include_exact=not args.no_exact,
        exact_op_limit=args.exact_op_limit,
        exact_mii_limit=args.exact_mii_limit,
        workers=args.workers,
    )
    try:
        result = run_conformance(
            config,
            log=lambda message: print(
                f"hrms-conformance: {message}", file=sys.stderr
            ),
        )
    except ReproError as exc:
        print(f"hrms-conformance: {exc}", file=sys.stderr)
        return 1

    if args.json:
        print(
            json.dumps(
                {
                    "cells": [
                        {
                            "kernel": cell.kernel,
                            "machine": cell.machine,
                            "scheduler": cell.scheduler,
                            "status": cell.status,
                            **cell.golden_values(),
                            "detail": cell.detail,
                        }
                        for cell in result.cells
                    ],
                    "digests": result.digests,
                    "failures": result.failures,
                },
                indent=2,
            )
        )
    print(f"hrms-conformance: {result.summary()}", file=sys.stderr)
    for failure in result.failures:
        print(f"hrms-conformance: FAIL {failure}", file=sys.stderr)

    if args.bless:
        if not result.ok:
            print(
                "hrms-conformance: refusing to bless a run with oracle "
                "failures",
                file=sys.stderr,
            )
            return 1
        written = bless(result, args.goldens)
        print(
            f"hrms-conformance: blessed {len(written)} golden(s) -> "
            f"{args.goldens}",
            file=sys.stderr,
        )
        return 0

    drift = diff_goldens(result, args.goldens)
    for line in drift:
        print(f"hrms-conformance: DRIFT {line}", file=sys.stderr)
    if drift:
        print(
            f"hrms-conformance: {len(drift)} golden drift(s) — "
            "intentional changes are re-recorded with --bless",
            file=sys.stderr,
        )
    return 0 if result.ok and not drift else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
