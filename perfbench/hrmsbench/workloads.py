"""Seeded request streams for the three benchmark workloads.

A :class:`Workload` is an ordered list of ``POST /v1/jobs`` bodies plus
one label per request.  Everything is a pure function of
``(workload name, seed)``: the server only ever sees the generated
bodies, and the same seed always yields the same bodies in the same
order (``Workload.digest`` proves it).

``perfect-club-cold``
    A stratified draw without replacement from the program's 1258-loop
    Perfect-Club-like population, one request per loop, HRMS on the
    ``perfect-club`` machine.  Loops are sorted by the placement work
    their HRMS search did when the benchmark was defined
    (``perfect_club_strata.json``) and every seed takes one loop from
    each consecutive group of five, so every seed carries the same share
    of the rare multi-attempt searches that dominate compute.  Strata go
    out in an order fixed per workload (``send_order``).
``recurrence-dense``
    Synthetic loops built as chains of 13-op recurrence blocks: a
    forward ladder (operand window of two) with four short-distance
    backward edges spanning each block.  Circuits multiply inside a
    block but never cross one, so each loop has hundreds to a few
    thousand elementary circuits, far below the enumeration cap, and
    MII analysis dominates.  HRMS on ``perfect-club``.
``kernel-mix``
    A Zipf-skewed draw (exponent 1) over bundled kernel x lowering
    profile x canonical machine x non-exact scheduler (``portfolio``
    included), sent as loop-language source into one store, so most
    requests are store hits.  Kernel/machine pairs the machine cannot
    execute are left out of the draw.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("perfect-club-cold", "recurrence-dense", "kernel-mix")

#: Perfect-Club loops per stratum; each seed draws one loop from each.
PERFECT_CLUB_GROUP = 5

#: Loops per ``recurrence-dense`` run and their size range in operations.
RECURRENCE_LOOPS = 100
RECURRENCE_OPS = (24, 112)
#: Operations per recurrence block and backward edges drawn per block.
RECURRENCE_BLOCK = 13
RECURRENCE_CLOSERS = 4

#: Requests per ``kernel-mix`` run and the Zipf exponent of the draw.
KERNEL_MIX_REQUESTS = 1000
KERNEL_MIX_ZIPF = 1.0

STRATA_FILE = Path(__file__).with_name("perfect_club_strata.json")


@dataclass
class Workload:
    """One workload's request stream for one seed."""

    name: str
    seed: int
    requests: list[dict] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.requests)

    def head(self, count: int) -> "Workload":
        """The first *count* requests as a workload of their own."""
        return Workload(
            self.name, self.seed, self.requests[:count], self.labels[:count]
        )

    def digest(self) -> str:
        """Content hash of the request stream (same seed, same digest)."""
        hasher = hashlib.sha256()
        for label, body in zip(self.labels, self.requests):
            hasher.update(label.encode())
            hasher.update(json.dumps(body, sort_keys=True).encode())
        return hasher.hexdigest()[:16]

    def graph_for(self, index: int):
        """The dependence graph request *index* describes, rebuilt
        client-side (the output check needs it to re-verify artifacts)."""
        body = self.requests[index]
        if "graph" in body:
            from repro.graph.serialization import graph_from_dict

            return graph_from_dict(body["graph"])
        from repro.frontend.pipeline import compile_source, profile_by_name

        return compile_source(
            body["source"],
            name=body["name"],
            profile=profile_by_name(body["profile"]),
        ).graph


def build(name: str, seed: int) -> Workload:
    """The request stream of workload *name* for *seed*."""
    builders = {
        "perfect-club-cold": _perfect_club_cold,
        "recurrence-dense": _recurrence_dense,
        "kernel-mix": _kernel_mix,
    }
    if name not in builders:
        raise ValueError(
            f"unknown workload {name!r}; available: {', '.join(WORKLOADS)}"
        )
    workload = Workload(name, seed)
    builders[name](random.Random(f"{name}/{seed}"), workload)
    return workload


# ----------------------------------------------------------------------
def send_order(name: str, strata: int) -> list[int]:
    """The order strata are sent in: fixed per workload, not per seed.

    The seed picks what fills each stratum; keeping the order fixed keeps
    which strata run side by side on the two workers, and so the latency
    tail, from changing with the seed.
    """
    order = list(range(strata))
    random.Random(f"{name}/send-order").shuffle(order)
    return order


def load_strata() -> list[dict]:
    """Per-loop placement work recorded when the benchmark was defined."""
    return json.loads(STRATA_FILE.read_text(encoding="utf-8"))["loops"]


def _perfect_club_cold(rng: random.Random, workload: Workload) -> None:
    from repro.graph.serialization import graph_to_dict
    from repro.workloads.perfectclub import perfect_club_suite

    loops = perfect_club_suite()
    strata = load_strata()
    recorded = [(entry["name"], entry["ops"]) for entry in strata]
    actual = [(loop.graph.name, len(loop.graph)) for loop in loops]
    if recorded != actual:
        raise RuntimeError(
            "the Perfect-Club population no longer matches "
            f"{STRATA_FILE.name}; regenerate it with perfbench/make_strata.py"
        )
    order = sorted(
        range(len(loops)),
        key=lambda i: (strata[i]["placements"], strata[i]["ops"], i),
    )
    groups = [
        order[start:start + PERFECT_CLUB_GROUP]
        for start in range(0, len(order), PERFECT_CLUB_GROUP)
    ]
    for stratum in send_order(workload.name, len(groups)):
        graph = loops[rng.choice(groups[stratum])].graph
        workload.requests.append(
            {
                "graph": graph_to_dict(graph),
                "machine": "perfect-club",
                "scheduler": "hrms",
            }
        )
        workload.labels.append(graph.name)


# ----------------------------------------------------------------------
def recurrence_loop(rng: random.Random, n_ops: int, name: str) -> dict:
    """One recurrence-dense loop as a serialized DDG (wire format 1)."""
    operations: list[dict] = []
    edges: list[dict] = []

    def edge(src: str, dst: str, distance: int) -> None:
        edges.append(
            {"src": src, "dst": dst, "distance": distance, "kind": "register"}
        )

    previous_tail = None
    first = 0
    while first < n_ops:
        size = min(RECURRENCE_BLOCK, n_ops - first)
        names = [f"r{first + offset}" for offset in range(size)]
        for op_name in names:
            operations.append(
                {
                    "name": op_name,
                    "latency": 4,
                    "opclass": "fadd" if rng.random() < 0.6 else "fmul",
                    "produces_value": True,
                }
            )
        if previous_tail is not None:
            edge(previous_tail, names[0], 0)
        for offset in range(size - 1):
            edge(names[offset], names[offset + 1], 0)
        for offset in range(size - 2):
            edge(names[offset], names[offset + 2], 0)
        if size >= 3:
            # Backward edges run from the block's last third to its first
            # third; one edge per (src, dst) pair, since a parallel edge
            # with a larger distance never closes a circuit of its own.
            closers: set[tuple[int, int]] = set()
            for _ in range(RECURRENCE_CLOSERS):
                dst = rng.randrange(0, size // 3 + 1)
                src = rng.randrange(2 * size // 3, size)
                if src > dst:
                    closers.add((src, dst))
            for src, dst in sorted(closers):
                edge(names[src], names[dst], rng.choice((1, 1, 2, 3)))
        previous_tail = names[-1]
        first += size
    return {
        "schema": 1,
        "format": 1,
        "name": name,
        "operations": operations,
        "edges": edges,
    }


def _recurrence_dense(rng: random.Random, workload: Workload) -> None:
    low, high = RECURRENCE_OPS
    span = high - low
    # Stratified sizes: one loop per equal slice of the size range.
    strata = send_order(workload.name, RECURRENCE_LOOPS)
    for index, stratum in enumerate(strata):
        n_ops = low + int((stratum + rng.random()) * span / RECURRENCE_LOOPS)
        name = f"rd{workload.seed}-{index:03d}"
        workload.requests.append(
            {
                "graph": recurrence_loop(rng, n_ops, name),
                "machine": "perfect-club",
                "scheduler": "hrms",
            }
        )
        workload.labels.append(name)


# ----------------------------------------------------------------------
def kernel_mix_combos() -> list[tuple[str, str, str, str]]:
    """Every (kernel, profile, machine, scheduler) the draw ranges over.

    Kernel/machine pairs whose compiled loop uses a unit class the
    machine lacks are left out: the service rejects those requests by
    design, and the benchmark draws only requests that can succeed.
    """
    from repro.errors import ReproError
    from repro.frontend.kernels import kernel_names, kernel_source
    from repro.frontend.pipeline import compile_source, profile_by_name
    from repro.machine.configs import canonical_machines
    from repro.schedulers.registry import (
        EXACT_SCHEDULERS,
        available_schedulers,
    )

    schedulers = [
        name for name in available_schedulers() if name not in EXACT_SCHEDULERS
    ]
    machines = canonical_machines()
    combos = []
    for kernel in kernel_names():
        for profile in ("perfect_club", "govindarajan"):
            graph = compile_source(
                kernel_source(kernel),
                name=kernel,
                profile=profile_by_name(profile),
            ).graph
            for machine_name, machine in machines.items():
                try:
                    for op in graph.operations():
                        machine.class_for(op)
                except ReproError:
                    continue
                for scheduler in schedulers:
                    combos.append((kernel, profile, machine_name, scheduler))
    return combos


def _kernel_mix(rng: random.Random, workload: Workload) -> None:
    from repro.frontend.kernels import kernel_source

    ranked = kernel_mix_combos()
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** KERNEL_MIX_ZIPF for rank in range(len(ranked))]
    for kernel, profile, machine, scheduler in rng.choices(
        ranked, weights=weights, k=KERNEL_MIX_REQUESTS
    ):
        workload.requests.append(
            {
                "source": kernel_source(kernel),
                "name": kernel,
                "profile": profile,
                "machine": machine,
                "scheduler": scheduler,
            }
        )
        workload.labels.append(f"{kernel}/{profile}/{machine}/{scheduler}")
