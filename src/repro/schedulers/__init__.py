"""Modulo schedulers: HRMS plus the paper's comparison methods.

* :class:`~repro.core.scheduler.HRMSScheduler` — the paper's contribution.
* :class:`~repro.schedulers.topdown.TopDownScheduler` — ASAP list
  scheduling in topological order (the Section 4.2 comparator, [15]).
* :class:`~repro.schedulers.bottomup.BottomUpScheduler` — ALAP list
  scheduling in reverse topological order (Section 2's second strawman).
* :class:`~repro.schedulers.slack.SlackScheduler` — Huff's
  lifetime-sensitive slack scheduling [10] with MinDist windows and
  ejection.
* :class:`~repro.schedulers.sms.SwingScheduler` — Llosa et al.'s Swing
  Modulo Scheduling, HRMS's successor: a swing ordering placed by the
  same bidirectional ladder.
* :class:`~repro.schedulers.ims.IMSScheduler` — Rau's Iterative Modulo
  Scheduling: height priority with operation displacement.
* :class:`~repro.schedulers.frlc.FRLCScheduler` — Wang & Eisenbeis's
  decomposed software pipelining [23]; register-insensitive.
* :class:`~repro.schedulers.spilp.SPILPScheduler` — Govindarajan, Altman &
  Gao's buffer-minimising integer linear program [8].
* :class:`~repro.schedulers.optreg.OptRegScheduler` — Eichenberger et
  al.'s register-optimal integer program [7].

The two exact methods share one time-indexed model, solved with HiGHS
through :func:`scipy.optimize.milp` (:mod:`repro.schedulers.exact`).

All schedulers share :class:`~repro.schedulers.base.ModuloScheduler`:
``schedule(graph, machine)`` runs the MII analysis, then tries increasing
II values until an attempt succeeds, returning a verified-shape
:class:`~repro.schedule.schedule.Schedule`.
"""

from repro.schedulers.base import ModuloScheduler
from repro.schedulers.bottomup import BottomUpScheduler
from repro.schedulers.frlc import FRLCScheduler
from repro.schedulers.registry import available_schedulers, make_scheduler
from repro.schedulers.slack import SlackScheduler
from repro.schedulers.spilp import SPILPScheduler
from repro.schedulers.topdown import TopDownScheduler


def __getattr__(name: str):
    # Lazy re-export: repro.core imports the base module from this
    # package, so importing HRMS eagerly here would be circular.
    if name == "HRMSScheduler":
        from repro.core.scheduler import HRMSScheduler

        return HRMSScheduler
    raise AttributeError(name)


__all__ = [
    "BottomUpScheduler",
    "FRLCScheduler",
    "HRMSScheduler",
    "ModuloScheduler",
    "SPILPScheduler",
    "SlackScheduler",
    "TopDownScheduler",
    "available_schedulers",
    "make_scheduler",
]
