"""Differential verification & fuzzing layer.

The library's correctness evidence used to be piecemeal: the algebraic
verifier (:mod:`repro.schedule.verify`), the cycle-accurate simulator
(:mod:`repro.sim`) and the seeded graph generator
(:mod:`repro.workloads.synthetic`) each existed in isolation and only
met on hand-picked workloads.  This package is the adversarial layer
that makes them meet *systematically*:

* :mod:`~repro.qa.profiles` — diversity profiles for the seeded random
  DDG generator: tight recurrences, wide parallel graphs,
  unpipelined-heavy mixes, and tiny single-op / zero-recurrence edge
  cases that hand-picked workloads never cover.
* :mod:`~repro.qa.oracles` — the oracle battery every schedule is held
  against: ``verify_schedule`` legality, II within the
  [MII, driver-upper-bound] window, simulator replay (every read legal,
  ``peak_live_steady`` equal to closed-form MaxLive), cross-scheduler
  MII agreement, and bit-identical artifacts across the thread and
  process service backends.
* :mod:`~repro.qa.campaign` — the driver: seeds × profiles × canonical
  machines × every registered scheduler, with wall-clock or seed
  budgets, failure collection and automatic shrinking.
* :mod:`~repro.qa.shrink` — greedy delta-debugging of a failing case:
  drop operations and edges while the oracle still fails, yielding the
  minimized reproducer that gets committed.
* :mod:`~repro.qa.corpus` — the JSON reproducer format under
  ``tests/corpus/`` and its replay machinery: every bug the campaign
  ever surfaced is pinned as a corpus entry the test-suite re-asserts
  forever.
* :mod:`~repro.qa.conformance` — the golden kernel conformance suite:
  every bundled front-end kernel × the registered scheduler catalog ×
  the canonical machines, run through a live scheduling service,
  oracle-checked, and diffed against committed per-cell goldens
  (expected II, MII bounds, MaxLive, DDG digests) under
  ``tests/goldens/``.

Entry points: the ``hrms-fuzz`` console script (:mod:`repro.qa.cli`),
the ``hrms-conformance`` console script (:mod:`repro.qa.conformance`),
the service's ``POST /v1/verify`` endpoint (re-verify any stored
artifact), and the ``qa`` and ``conformance`` tiers of
``scripts/perf_check.py``.
"""

from repro.qa.campaign import CampaignConfig, CampaignReport, run_campaign
from repro.qa.corpus import (
    load_corpus,
    make_reproducer,
    replay_entry,
    save_reproducer,
)
from repro.qa.oracles import (
    OracleFailure,
    OracleReport,
    run_battery,
    verify_artifact_payload,
)
from repro.qa.profiles import FuzzProfile, fuzz_profiles, profile_names
from repro.qa.shrink import shrink_case

__all__ = [
    "CampaignConfig",
    "CampaignReport",
    "ConformanceConfig",
    "ConformanceResult",
    "FuzzProfile",
    "bless",
    "diff_goldens",
    "run_conformance",
    "OracleFailure",
    "OracleReport",
    "fuzz_profiles",
    "load_corpus",
    "make_reproducer",
    "profile_names",
    "replay_entry",
    "run_battery",
    "run_campaign",
    "save_reproducer",
    "shrink_case",
    "verify_artifact_payload",
]

#: Names served from :mod:`repro.qa.conformance` on first access.  The
#: package does not import that module eagerly: ``python -m
#: repro.qa.conformance`` imports the package first, and a submodule
#: already in ``sys.modules`` when ``runpy`` executes it draws a
#: ``RuntimeWarning``.
_CONFORMANCE_NAMES = frozenset({
    "ConformanceConfig",
    "ConformanceResult",
    "bless",
    "diff_goldens",
    "run_conformance",
})


def __getattr__(name: str):
    if name in _CONFORMANCE_NAMES:
        from repro.qa import conformance

        return getattr(conformance, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
