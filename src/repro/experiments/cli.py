"""Command-line entry point: ``hrms-experiments <artefact>``.

Regenerates any table or figure of the paper::

    hrms-experiments motivating
    hrms-experiments table1 [--spilp-time-limit 30]
    hrms-experiments table2
    hrms-experiments table3
    hrms-experiments stats  [--loops 1258] [--jobs 8] [--store DIR]
    hrms-experiments fig11  [--loops 1258] [--jobs 8]
    hrms-experiments fig12 | fig13 | fig14
    hrms-experiments ablations
    hrms-experiments frontend
    hrms-experiments portfolio [--loops 4] [--policy min_regs]
    hrms-experiments all [--quick]

``portfolio`` is not a paper artefact: it races the scheduler
portfolio (:mod:`repro.portfolio`) for a sample of loops across every
built-in machine configuration and prints each loop's Pareto front
over the winners' (II, MaxLive).

``--quick`` shrinks the Perfect-Club population and SPILP's time limit so
the whole run finishes in about a minute (useful for CI).
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import stats as stats_mod
from repro.experiments.ablations import (
    hypernode_sensitivity,
    phase_split,
    preordering_value,
    render_sensitivity,
)
from repro.experiments.fig11 import figure11, render_figure11
from repro.experiments.frontend_suite import (
    render_frontend_suite,
    run_frontend_suite,
)
from repro.experiments.fig12 import figure12, render_figure12
from repro.experiments.fig13 import figure13, render_figure13
from repro.experiments.fig14 import figure14, render_figure14
from repro.experiments.motivating import render_motivating, run_motivating
from repro.experiments.table1 import render_table1, run_table1
from repro.experiments.table2 import render_table2, summarise
from repro.experiments.table3 import render_table3, summarise_times
from repro.machine.configs import govindarajan_machine, perfect_club_machine
from repro.workloads.govindarajan import govindarajan_suite
from repro.workloads.perfectclub import perfect_club_suite


def build_parser() -> argparse.ArgumentParser:
    """The ``hrms-experiments`` argument parser."""
    from repro.portfolio.policies import policy_names

    parser = argparse.ArgumentParser(
        prog="hrms-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "artefact",
        choices=[
            "motivating", "table1", "table2", "table3", "stats",
            "fig11", "fig12", "fig13", "fig14", "ablations",
            "frontend", "portfolio", "all",
        ],
    )
    parser.add_argument(
        "--policy", choices=policy_names(), default=None,
        help="portfolio selection policy (portfolio artefact only)",
    )
    parser.add_argument(
        "--loops", type=int, default=1258,
        help="Perfect-Club population size (default: 1258)",
    )
    parser.add_argument(
        "--spilp-time-limit", type=float, default=30.0,
        help="per-loop MILP time limit in seconds (default: 30)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small population + tight solver limits",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the Perfect-Club study (default: 1 = "
             "in-process; 0 = all cores)",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="persistent artifact store directory: study rows are read "
             "from and written to DIR, so re-runs skip scheduling "
             "(shared with hrms-serve)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.policy is not None and args.artefact != "portfolio":
        parser.error("--policy only applies to the portfolio artefact")

    if args.quick:
        args.loops = min(args.loops, 150)
        args.spilp_time_limit = min(args.spilp_time_limit, 5.0)

    wanted = (
        ["motivating", "table1", "table2", "table3", "stats",
         "fig11", "fig12", "fig13", "fig14", "ablations", "frontend"]
        if args.artefact == "all"
        else [args.artefact]
    )

    table1_records = None
    study = None

    def get_table1():
        nonlocal table1_records
        if table1_records is None:
            table1_records = run_table1(
                spilp_time_limit=args.spilp_time_limit
            )
        return table1_records

    def get_study():
        nonlocal study
        if study is None:
            cache = None
            if args.store is not None:
                from repro.service.store import persistent_study_cache

                cache = persistent_study_cache(args.store)
            study = stats_mod.run_study(
                loops=perfect_club_suite(n_loops=args.loops),
                jobs=args.jobs,
                cache=cache,
            )
        return study

    for artefact in wanted:
        print(f"\n################ {artefact} ################")
        if artefact == "motivating":
            print(render_motivating(run_motivating()))
        elif artefact == "table1":
            print(render_table1(get_table1()))
        elif artefact == "table2":
            print(render_table2(summarise(get_table1())))
        elif artefact == "table3":
            print(render_table3(summarise_times(get_table1())))
        elif artefact == "stats":
            print(stats_mod.render_stats(stats_mod.aggregate(get_study())))
        elif artefact == "fig11":
            print(render_figure11(figure11(get_study())))
        elif artefact == "fig12":
            print(render_figure12(figure12(get_study())))
        elif artefact == "fig13":
            print(render_figure13(figure13(get_study())))
        elif artefact == "fig14":
            result = figure14(get_study())
            print(render_figure14(result))
        elif artefact == "frontend":
            print(render_frontend_suite(run_frontend_suite()))
        elif artefact == "portfolio":
            from repro.portfolio import render_sweep, sweep_portfolio

            # A small, capped sample: sweeps race every heuristic on
            # every machine config, so size is loops x machines x members.
            suite = govindarajan_suite()
            sample = suite[: max(1, min(args.loops, 8))]
            print(
                f"sweeping {len(sample)} of {len(suite)} loops "
                f"(capped at 8; each loop races the portfolio on every "
                f"built-in machine)\n"
            )
            for loop in sample:
                sweep = sweep_portfolio(loop.graph, policy=args.policy)
                print(render_sweep(sweep))
                front = ", ".join(
                    f"{entry.machine} (II {entry.result.winner_score.ii}, "
                    f"MaxLive {entry.result.winner_score.maxlive})"
                    for entry in sweep.front()
                )
                print(f"  pareto front: {front}\n")
        elif artefact == "ablations":
            machine = govindarajan_machine()
            sample = govindarajan_suite()[:8]
            print(render_sensitivity(
                hypernode_sensitivity(sample, machine)
            ))
            pc = perfect_club_suite(n_loops=min(args.loops, 200))
            value = preordering_value(pc, perfect_club_machine())
            print(
                f"\npre-ordering value on {value.loops} loops: "
                f"HRMS maxlive {value.hrms_maxlive} vs program-order "
                f"{value.ablated_maxlive} "
                f"(ratio {value.register_ratio:.2f}); optimal II "
                f"{value.hrms_optimal} vs {value.ablated_optimal}"
            )
            split = phase_split(pc, perfect_club_machine())
            print(
                f"phase split: ordering {split.ordering_share:.1%}, "
                f"placement {split.scheduling_share:.1%}"
            )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
