"""The session executor: the driver-facing front door of every campaign.

One :class:`SessionReplayManager` serves one campaign run.  Drivers
route every query submission through :meth:`SessionReplayManager.submit`
instead of calling :meth:`~repro.measure.emulator.QueryEmulator.submit`
directly.  Per submission, the executor either serves the session from
its timeline source or falls through to the packet engine, the referee
every source is checked against:

* **bypass** — an admission rule failed; simulate normally and count
  the reason;
* **miss** — admissible but no validated timeline yet; simulate
  normally and, once the session completes, either record its timeline
  (no entry existed) or compare it against the existing unvalidated
  entry (validation on first reuse);
* **hit** — a validated timeline exists and the isolation window holds;
  skip the packet-level simulation and inject the timeline time-shifted
  to now, replicating every observable side effect.

This class's source is the recorded timeline (the replay cache).
:class:`~repro.sim.analytic.manager.TieredSessionManager` swaps in the
analytic source — closed-form predictions instead of recordings — and
shares everything else: the admission ladder, the per-FE live set
behind the ``fe-busy`` veto, the pending/settle path, the one injector
(:meth:`SessionReplayManager._replay`) and :class:`ExecutorStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.measure.session import QuerySession
from repro.sim.replay.admission import (
    SubmissionSchedule,
    campaign_bypass_reason,
    isolation_guard,
    path_bypass_reason,
)
from repro.sim.replay.cache import ReplayCache
from repro.sim.replay.fingerprint import session_key, window_fits
from repro.sim.replay.timeline import (
    RecordedTimeline,
    materialize_events,
    observable_tuple,
    predicted_tuple,
    record_timeline,
)


@dataclass
class ExecutorStats:
    """One campaign run's executor accounting, for either source.

    Picklable and summable: sharded campaigns return one instance per
    worker and merge them with :func:`merged_stats`.  Every submission
    lands in exactly one of ``analytic`` (prediction injected),
    ``hits`` (recording replayed) or ``simulated`` (packet engine);
    ``submissions`` is their sum.  The recorded source's simulated
    sessions are its ``misses`` plus its ``bypasses``.
    """

    #: Sessions served by the closed-form model (no packet simulation).
    analytic: int = 0
    #: Sessions replayed from a validated recording (no simulation).
    hits: int = 0
    #: Sessions that went through the packet engine.
    simulated: int = 0
    #: Simulated sessions the recorded source admitted — recorded, or
    #: used to validate an existing entry.
    misses: int = 0
    #: Sessions whose timeline entered the cache (unvalidated).
    recorded: int = 0
    #: Analytic source: packet-simulated validation samples.  Recorded
    #: source: first-reuse comparisons that matched and promoted an
    #: entry.
    validations: int = 0
    #: First-reuse comparisons that did NOT match (entry dropped).
    validation_failures: int = 0
    #: Validation samples whose landmark error exceeded tolerance.
    divergences: int = 0
    #: Strata demoted to packet-level simulation by the gate.
    demotions: int = 0
    #: Cache entries evicted to make room for this run's recordings.
    evictions: int = 0
    #: Reason -> count for submissions admission turned away.
    bypasses: Dict[str, int] = field(default_factory=dict)

    def bypass(self, reason: str) -> None:
        self.bypasses[reason] = self.bypasses.get(reason, 0) + 1

    @property
    def bypassed(self) -> int:
        return sum(self.bypasses.values())

    @property
    def submissions(self) -> int:
        return self.analytic + self.hits + self.simulated

    def __add__(self, other: "ExecutorStats") -> "ExecutorStats":
        if not isinstance(other, ExecutorStats):
            return NotImplemented
        bypasses = dict(self.bypasses)
        for reason, count in other.bypasses.items():
            bypasses[reason] = bypasses.get(reason, 0) + count
        counts = {f.name: getattr(self, f.name) + getattr(other, f.name)
                  for f in fields(self) if f.name != "bypasses"}
        return ExecutorStats(bypasses=bypasses, **counts)

    def __radd__(self, other):
        # Lets shard results merge with a plain sum(stats_list).
        if other == 0:
            return self
        return NotImplemented


def merged_stats(parts: Iterable[Optional[ExecutorStats]]
                 ) -> Optional[ExecutorStats]:
    """Sum per-shard stats of one source (None when no shard ran it).

    Per-shard replay caches need no coordination: a shard records and
    replays only its own sessions, each bit-identical to its simulated
    counterpart, so the merged dataset equals the serial run whichever
    shard got which hit.  Analytic decisions are per stratum and every
    partition keeps strata whole, so merged analytic counters equal
    the serial run's exactly.
    """
    present = [stats for stats in parts if stats is not None]
    return sum(present) if present else None


class SessionReplayManager:
    """Per-campaign session executor over the recorded timeline source."""

    #: The result attribute (``dataset.replay``) :meth:`finalize`'s
    #: stats are stored under.
    stats_field = "replay"

    def __init__(self, scenario, schedule: SubmissionSchedule, *,
                 cache: Optional[ReplayCache] = None,
                 store_payload: bool = False,
                 run_timeout: Optional[float] = None):
        self.scenario = scenario
        self.schedule = schedule
        self.cache = cache if cache is not None else ReplayCache()
        self.cache.bind(scenario)
        self.stats = ExecutorStats()
        self._campaign_reason = campaign_bypass_reason(
            scenario, store_payload, run_timeout)
        self._path_reasons: Dict[tuple, Optional[str]] = {}
        #: (session, settle) of simulated sessions awaiting completion.
        self._pending: List[Tuple[QuerySession, Callable[[], None]]] = []
        #: fe name -> [(session, guard)] of sessions submitted to it.
        self._live: Dict[str, List[Tuple[QuerySession, float]]] = {}

    # ------------------------------------------------------------------
    def submit(self, emulator, service_name: str, frontend,
               keyword) -> QuerySession:
        """Submit one query, replaying its timeline when provably safe."""
        self._drain()
        reason = self._bypass_reason(emulator, service_name, frontend)
        if reason is not None:
            return self._bypass(emulator, service_name, frontend,
                                keyword, reason)

        now = self.scenario.sim.now
        guard = self._guard(emulator, service_name, frontend)
        key = session_key(self.scenario, service_name, frontend,
                          emulator.vp.name, keyword,
                          emulator.peek_query_id(), now)
        entry = self.cache.get(key)
        if entry is not None:
            # Both validating and replaying additionally need the full
            # isolation window ahead of us.
            end = now + entry.duration + entry.guard
            if not window_fits(now, end) \
                    or self.schedule.next_after(frontend.node.name,
                                                now) < end:
                return self._bypass(emulator, service_name, frontend,
                                    keyword, "window")
            if entry.validated:
                self.stats.hits += 1
                return self._replay(emulator, service_name, frontend,
                                    keyword, entry)

        self.stats.misses += 1
        session = self._simulate(emulator, service_name, frontend,
                                 keyword, guard)
        self._pending.append((session, partial(
            self._settle_recording, session, key, frontend, guard, entry,
            emulator.tcp_host)))
        return session

    def finalize(self) -> ExecutorStats:
        """Settle outstanding sessions and return the run's stats.

        Call after ``sim.run()`` returns.  Sessions still incomplete
        then (timeouts, failures) settle as such: the recorded source
        simply does not record them, the analytic source counts their
        validation samples as divergent.
        """
        self._drain(final=True)
        return self.stats

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _bypass_reason(self, emulator, service_name: str,
                       frontend) -> Optional[str]:
        if self._campaign_reason is not None:
            return self._campaign_reason
        vp_name = emulator.vp.name
        triple = (service_name, frontend.node.name, vp_name)
        if triple not in self._path_reasons:
            self._path_reasons[triple] = self._path_reason(
                service_name, frontend, vp_name)
        reason = self._path_reasons[triple]
        if reason is not None:
            return reason
        now = self.scenario.sim.now
        if now <= 0.0:
            # t=0 sessions overlap scenario warm-up (FE-BE pool
            # handshakes) and sit outside every positive binade.
            return "time-origin"
        if self._warming_up(service_name, frontend, vp_name, now):
            return "warm-up"
        if self.schedule.count_at(frontend.node.name, now) != 1:
            return "concurrent-submit"
        if self._fe_busy(frontend.node.name, now):
            return "fe-busy"
        return None

    def _path_reason(self, service_name: str, frontend,
                     vp_name: str) -> Optional[str]:
        """Why the source can never serve this (service, FE, VP) path."""
        return path_bypass_reason(self.scenario, service_name, frontend,
                                  vp_name)

    def _warming_up(self, service_name: str, frontend, vp_name: str,
                    now: float) -> bool:
        """Whether ``now`` is too early for the source on this path.

        Recordings only need ``now > 0`` (the time-origin rule).
        """
        return False

    def _fe_busy(self, fe_name: str, now: float) -> bool:
        live = self._live.get(fe_name)
        if not live:
            return False
        still = [(session, guard) for session, guard in live
                 if session.completed_at is None
                 or session.completed_at + guard > now]
        self._live[fe_name] = still
        return bool(still)

    def _guard(self, emulator, service_name: str, frontend) -> float:
        return isolation_guard(self.scenario.client_fe_rtt(
            emulator.vp, frontend, self.scenario.service(service_name)))

    def _count(self, name: str) -> None:
        """Mirror one stats increment as an obs counter.

        The recorded source's counters describe per-process cache work,
        so they are exported host-scope from the stats instead (see
        :func:`repro.obs.record.record_replay_stats`).
        """

    # ------------------------------------------------------------------
    # packet referee
    # ------------------------------------------------------------------
    def _bypass(self, emulator, service_name: str, frontend, keyword,
                reason: str) -> QuerySession:
        self.stats.bypass(reason)
        self._count("bypass.%s" % reason)
        return self._simulate(emulator, service_name, frontend, keyword,
                              self._guard(emulator, service_name,
                                          frontend))

    def _simulate(self, emulator, service_name: str, frontend, keyword,
                  guard: float) -> QuerySession:
        self.stats.simulated += 1
        self._count("simulated_sessions")
        session = emulator.submit(service_name, frontend, keyword)
        self._live.setdefault(frontend.node.name, []) \
            .append((session, guard))
        return session

    def _drain(self, final: bool = False) -> None:
        """Settle the pending sessions that completed (all if final)."""
        still = []
        for session, settle in self._pending:
            if session.completed_at is None and not final:
                still.append((session, settle))
            else:
                settle()
        self._pending = still

    def _settle_recording(self, session: QuerySession, key: tuple,
                          frontend, guard: float,
                          entry: Optional[RecordedTimeline],
                          tcp_host) -> None:
        """Record a missed session, or validate ``entry`` against it."""
        if session.completed_at is None:
            return
        fetch = frontend.fetch_log.get(session.query_id)
        query = self.scenario.service(session.service) \
            .backend_for_frontend(frontend).query_log.get(session.query_id)
        complete = (session.failed is None
                    and fetch is not None
                    and fetch.completed_at is not None
                    and query is not None
                    and query.completed_time is not None)
        if entry is None:
            if not complete or _retransmitted(session):
                # A retransmission on a loss-free path means a queue
                # overflowed or an RTO misfired -- state the key can't
                # see.
                return
            end = session.completed_at + guard
            if window_fits(session.started_at, end) \
                    and self.schedule.next_after(
                        session.fe_name, session.started_at) >= end:
                self._store(key, record_timeline(session, guard, fetch,
                                                 query))
            return

        if complete and observable_tuple(session, fetch, query) \
                == predicted_tuple(entry, session.started_at,
                                   session.vp_name, session.fe_name,
                                   session.local_port, tcp_host):
            entry.validated = True
            self.stats.validations += 1
            return
        self.stats.validation_failures += 1
        self.cache.pop(key)
        # An outright failure where the recording succeeded means the
        # key doesn't determine the outcome here.  Otherwise re-record
        # from the fresh session (the original recording may have caught
        # a warm-up artifact); the entry stays unvalidated.
        if complete and not _retransmitted(session):
            self._store(key, record_timeline(session, guard, fetch, query))

    def _store(self, key: tuple,
               timeline: Optional[RecordedTimeline]) -> None:
        if timeline is None:
            return
        evictions = self.cache.evictions
        self.cache.put(key, timeline)
        self.stats.recorded += 1
        self.stats.evictions += self.cache.evictions - evictions

    # ------------------------------------------------------------------
    # the injector
    # ------------------------------------------------------------------
    def _replay(self, emulator, service_name: str, frontend, keyword,
                entry: RecordedTimeline) -> QuerySession:
        """Inject ``entry`` as a session starting now, no packets sent.

        Serves both sources: a validated recording or an analytic
        prediction's timeline.
        """
        # Effect-parity contract: this method is the simflow replication
        # root — everything it reaches must cover every signature in
        # sim/replay/effects.py (generated; EFF001/EFF004 enforce the
        # parity, so deleting any replication below fails the lint).
        scenario = self.scenario
        start = scenario.sim.now
        service = scenario.service(service_name)
        # Replicate submit()'s side effects in its exact order.
        service.register_keywords([keyword])
        query_id = emulator.next_query_id()
        session = QuerySession(
            query_id=query_id,
            service=service_name,
            vp_name=emulator.vp.name,
            fe_name=frontend.node.name,
            keyword=keyword,
            started_at=start,
            path_rtt=scenario.client_fe_rtt(emulator.vp, frontend,
                                            service))
        # Burn the ephemeral port the simulated connection would bind,
        # keeping the host's allocation order identical.
        session.local_port = emulator.tcp_host.reserve_port()
        emulator.sessions.append(session)
        backend = service.backend_for_frontend(frontend)
        scenario.sim.schedule_timeline(start, [
            (entry.forward_offset, self._server_effects,
             (frontend, backend, entry, query_id, start)),
            (entry.duration, self._finalize_replay,
             (emulator, session, entry, start)),
        ])
        self._live.setdefault(frontend.node.name, []) \
            .append((session, entry.guard))
        return session

    def _server_effects(self, frontend, backend, entry: RecordedTimeline,
                        query_id: str, start: float) -> None:
        frontend.record_replayed_fetch(
            query_id, start + entry.forward_offset,
            start + entry.fetch_completed_offset, entry.fetch_size)
        backend.record_replayed_query(
            query_id, entry.keyword_text,
            start + entry.be_arrival_offset, entry.tproc,
            entry.be_response_size, start + entry.be_completed_offset)

    def _finalize_replay(self, emulator, session: QuerySession,
                         entry: RecordedTimeline, start: float) -> None:
        # Runs at exactly start + duration, the instant the simulated
        # completion callback would have fired.
        session.completed_at = self.scenario.sim.now
        session.response_size = entry.response_size
        events = materialize_events(entry, start, session.vp_name,
                                    session.fe_name, session.local_port,
                                    emulator.tcp_host)
        emulator.capture.inject(events)
        session.events = events


def _retransmitted(session: QuerySession) -> bool:
    return any(event.retransmit for event in session.events)
