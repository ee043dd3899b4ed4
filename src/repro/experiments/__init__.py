"""Experiment harnesses: one module per table/figure of the paper.

* :mod:`repro.experiments.motivating` — Figures 2–4 (Section 2).
* :mod:`repro.experiments.table1` — Table 1 (II/buffers/time, 24 loops).
* :mod:`repro.experiments.table2` — Table 2 (better/equal/worse summary).
* :mod:`repro.experiments.table3` — Table 3 (total compilation time).
* :mod:`repro.experiments.stats` — Section 4.2's aggregate statistics and
  the shared Perfect-Club study all figure harnesses reuse
  (:func:`~repro.experiments.stats.run_study`: deduplicated, optionally
  cached, serial or over a warm process pool).
* :mod:`repro.experiments.fig11` / ``fig12`` / ``fig13`` — cumulative
  register-requirement distributions (static, dynamic, +invariants).
* :mod:`repro.experiments.fig14` — execution cycles under register
  budgets (∞/64/32) with spilling.
* :mod:`repro.experiments.ablations` — design-choice checks (initial
  hypernode invariance, value of the pre-ordering, phase-time split).
* :mod:`repro.experiments.cli` — ``hrms-experiments`` command-line entry.
"""
