"""Synthetic Perfect-Club-like loop suite (Section 4.2's population).

The paper schedules 1258 innermost DO loops extracted from the Perfect
Club Benchmark Suite with the ICTINEO compiler — an artefact we cannot
re-run: neither that compiler nor the loops it extracted are
available.  This module generates a **seeded, synthetic
population of 1258 loop bodies** whose aggregate statistics follow what
the paper and its companion report [15] describe for that suite:

* loop bodies are mostly small (median ≈ 8 operations) with a long tail
  a small-body majority with a heavy tail to ~200 operations (mixture
  distribution, see ``_loop_size``);
* roughly a quarter of the loops carry a recurrence;
* the operation mix is dominated by memory traffic and adds, with
  occasional divides and rare square roots;
* every loop reads a handful of loop invariants;
* iteration counts span two orders of magnitude and weight the "dynamic"
  statistics of Figures 12–14.

The default seed pins the population, so every experiment, test and
benchmark sees the same 1258 loops.
"""

from __future__ import annotations

import math
import random

from repro.graph.ops import FADD, FDIV, FMUL, FSQRT
from repro.workloads.loops import Loop
from repro.workloads.synthetic import GeneratorProfile, random_ddg

#: Number of loops the paper's suite contains.
DEFAULT_SUITE_SIZE = 1258

#: Fixed seed: the date of MICRO-28's proceedings.
DEFAULT_SEED = 19951128


def perfect_club_suite(
    n_loops: int = DEFAULT_SUITE_SIZE,
    seed: int = DEFAULT_SEED,
) -> list[Loop]:
    """Generate the synthetic Perfect-Club-like loop population."""
    rng = random.Random(seed)
    loops: list[Loop] = []
    for index in range(n_loops):
        size = _loop_size(rng)
        graph = random_ddg(
            rng, size, name=f"pc{index:04d}", profile=_profile_for(size)
        )
        loops.append(
            Loop(
                graph=graph,
                iterations=_iteration_count(rng, size),
                invariants=_invariant_count(rng, size),
                source="perfect-club-synthetic",
            )
        )
    return loops


def _profile_for(size: int) -> GeneratorProfile:
    """Per-size generator statistics.

    Large scientific loop bodies (unrolled/fused source loops) consume
    operands produced much earlier in the body, which is what drives
    their register pressure; the operand window therefore scales with
    the body size.  Divide/sqrt frequencies are kept low enough that the
    unpipelined units do not dominate every large loop's ResMII.
    """
    return GeneratorProfile(
        compute_mix=[
            (FADD, 4, 0.55),
            (FMUL, 4, 0.38),
            (FDIV, 17, 0.05),
            (FSQRT, 30, 0.02),
        ],
        # Scientific inner loops are memory-bound: the load/store units
        # are the ResMII bottleneck, so spill traffic costs II directly
        # (the effect Figure 14 measures).
        load_fraction=0.34,
        store_fraction=0.14,
        two_operand_probability=0.75,
        operand_window=max(6, size),
    )


def _loop_size(rng: random.Random) -> int:
    """Mixture body-size distribution: mostly small, heavy tail to 160.

    85 % of loops are ordinary small bodies (log-normal, median ~9 ops);
    15 % model the unrolled/fused scientific kernels that dominate the
    Perfect Club's execution time (uniform 40–160 ops).  The tail
    matters: the paper observes that loops with high register
    requirements account for an important share of execution time, and
    Figures 13/14 hinge on loops needing more than 32 and 64 registers
    existing in the population.
    """
    if rng.random() < 0.18:
        return rng.randint(48, 200)
    size = int(round(math.exp(rng.gauss(math.log(9.0), 0.6))))
    return max(4, min(40, size))


def _iteration_count(rng: random.Random, size: int) -> int:
    """Log-normal trip count: median ~64, clipped to [4, 5000].

    Large scientific bodies tend to iterate over big arrays, so the
    median trip count grows mildly with the body size — this correlation
    is what makes the high-pressure loops matter dynamically (Figures
    12–14 weight by execution time).
    """
    median = 64.0 * (1.0 + size / 40.0)
    count = int(round(math.exp(rng.gauss(math.log(median), 1.0))))
    return max(4, min(5000, count))


def _invariant_count(rng: random.Random, size: int) -> int:
    """Small loops read a couple of invariants, large ones many more."""
    lam = 2.0 + size / 10.0
    # Knuth's bounded Poisson sampler is overkill; a clipped geometric
    # mixture reproduces the needed spread.
    value = 0
    threshold = math.exp(-lam)
    product = rng.random()
    while product > threshold and value < 24:
        value += 1
        product *= rng.random()
    return value
