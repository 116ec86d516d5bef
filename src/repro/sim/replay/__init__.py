"""The session executor and its recorded timeline source.

:class:`SessionReplayManager` is the one session executor: every
campaign submission goes through it.  A run has one fast timeline
source, picked per campaign in this order:

1. the **analytic** prediction, when the subclass
   :class:`~repro.sim.analytic.manager.TieredSessionManager` runs
   (tier ``auto``/``analytic``);
2. else the **recorded** timeline of this package's replay cache
   (unless ``replay_cache=False``, when no executor runs at all).

Every submission the source cannot serve goes to the **packet** engine,
the referee both sources are validated against.  One
:class:`ExecutorStats` type counts the outcome, whichever source ran.

The recorded source: a Dataset-A/B campaign re-simulates thousands of
query sessions whose packet timelines are pure functions of a small
parameter tuple: the client-FE path, the TCP configs, the
static/dynamic byte sizes, and the per-query keyed service draws.  This
package memoizes those timelines.
On a cache hit the driver skips the packet-level simulation entirely
and *replays* the recorded timeline time-shifted to the new start —
producing bit-identical :class:`~repro.measure.capture.PacketEvent`
records, session landmarks, and ground-truth logs.

Correctness rests on three pillars (see ``docs/PERFORMANCE.md``):

* **Strict admission** (:mod:`repro.sim.replay.admission`): a session is
  only recorded/replayed when its timeline provably cannot depend on
  anything outside the cache key — no loss, jitter, or fault injection
  on its path links, no cross-traffic on its front-end during the
  session window, keyed (order-independent) service draws, and a start
  time whose binade the whole session window fits in (so the float
  time-shift is exact).
* **Validation on first reuse** (:mod:`repro.sim.replay.manager`): the
  first time a key recurs the session is simulated anyway and compared
  bit-for-bit against the shifted recording; only after that match do
  subsequent occurrences replay without simulating.
* **Side-effect replication**: a replayed session burns the same
  ephemeral port, writes the same fetch/query ground-truth records, and
  injects the same capture events the full simulation would have
  produced.  One injector does this for both sources.
"""

from repro.sim.replay.admission import SubmissionSchedule
from repro.sim.replay.cache import ReplayCache
from repro.sim.replay.manager import (
    ExecutorStats,
    SessionReplayManager,
    merged_stats,
)

__all__ = [
    "ExecutorStats",
    "ReplayCache",
    "SessionReplayManager",
    "SubmissionSchedule",
    "merged_stats",
]
