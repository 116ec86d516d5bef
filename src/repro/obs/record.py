"""Campaign recording: turn finished sessions into spans and metrics.

The drivers (:mod:`repro.measure.driver`) bracket each campaign with
:func:`begin`/:func:`end`.  Everything is derived *post hoc* from data
the simulation produced anyway — the session's captured packet events,
the FE fetch log, and the BE query log — so tracing adds no work to
the hot simulation path and automatically covers replayed sessions
(the replay cache replicates the ground-truth logs bit-exactly; see
``repro.sim.replay``).

Span model (docs/OBSERVABILITY.md):

* ``session`` — one top-level span per query session, ``[started_at,
  completed_at]``, with the boundary-free packet landmarks ``tb, t1,
  t2, t3, te`` as point events (the same scan as
  :func:`repro.core.metrics.extract_timeline`, minus the landmarks
  that need the content-analysis boundary).
* children ``phase.connect`` ``[tb, t1]``, ``phase.request``
  ``[t1, t2]``, ``phase.response`` ``[t3, te]``;
* children ``fe.fetch`` (FE forwarded_at -> completed_at) and
  ``be.query`` (BE arrival -> completion, tproc attribute) from the
  service ground-truth logs;
* after content-analysis calibration, :func:`annotate_boundaries` adds
  the boundary landmarks ``t4``/``t5`` and the ``phase.static``
  ``[t3, t4]`` / ``phase.dynamic`` ``[t5, te]`` children.

Every timestamp is simulated seconds; nothing here reads the host.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.analysis.stream import TraceError, inbound_byte_arrivals
from repro.obs import runtime
from repro.obs.metrics import SCOPE_HOST, SCOPE_SIM
from repro.obs.trace import Span

#: Histogram bounds: session durations (seconds) and response sizes.
DURATION_BOUNDS = (0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0, 5.0)
SIZE_BOUNDS = (4_096, 16_384, 32_768, 65_536, 131_072, 262_144)


class CampaignMark:
    """Where a campaign started, for delta extraction at its end."""

    __slots__ = ("trace_mark", "metrics_base", "engine_events",
                 "engine_compactions")

    def __init__(self, trace_mark, metrics_base, engine_events,
                 engine_compactions):
        self.trace_mark = trace_mark
        self.metrics_base = metrics_base
        self.engine_events = engine_events
        self.engine_compactions = engine_compactions


def begin(scenario) -> CampaignMark:
    """Mark the start of a campaign on ``scenario`` (tracing enabled)."""
    sim = scenario.sim
    return CampaignMark(runtime.tracer.mark(),
                        runtime.metrics.snapshot(),
                        sim.events_processed,
                        getattr(sim, "compactions", 0))


def end(mark: CampaignMark, kind: str, scenario, dataset) -> None:
    """Record a finished campaign: session spans + campaign metrics.

    Attaches the per-campaign deltas to ``dataset.trace`` (canonical
    serialized spans) and ``dataset.obs_metrics``
    (:class:`~repro.obs.metrics.MetricsSnapshot`).
    """
    for session in dataset.sessions:
        runtime.tracer.add(session_span(scenario, session))
    _campaign_metrics(mark, kind, scenario, dataset)
    dataset.trace = runtime.tracer.snapshot_since(mark.trace_mark)
    dataset.obs_metrics = \
        runtime.metrics.snapshot().subtract(mark.metrics_base)


# ----------------------------------------------------------------------
# span construction
# ----------------------------------------------------------------------
def session_span(scenario, session) -> Span:
    """Build the span tree of one finished query session."""
    end_time = session.completed_at  # simlint: unit[s]
    if end_time is None:
        end_time = session.events[-1].time if session.events \
            else session.started_at
    attrs: Dict[str, object] = {
        "query_id": session.query_id,
        "service": session.service,
        "vp": session.vp_name,
        "fe": session.fe_name,
        "keyword": session.keyword.text,
        "bytes": session.response_size,
    }
    if session.failed:
        attrs["failed"] = session.failed
    span = Span("session", session.started_at, end_time, attrs)

    marks = landmarks(session)
    for name in ("tb", "t1", "t2", "t3", "te"):
        if name in marks:
            span.event(marks[name], name)
    if "tb" in marks and "t1" in marks:
        span.child("phase.connect", marks["tb"], marks["t1"])
    if "t1" in marks and "t2" in marks:
        span.child("phase.request", marks["t1"], marks["t2"])
    if "t3" in marks and "te" in marks:
        span.child("phase.response", marks["t3"], marks["te"])
    _attach_ground_truth(scenario, session, span)
    return span


def landmarks(session) -> Dict[str, float]:
    """Boundary-free packet landmarks of one session.

    Mirrors :func:`repro.core.metrics.extract_timeline` exactly for the
    landmarks that need no static/dynamic boundary (tb, t1, t2, t3,
    te); returns whichever subset the trace supports instead of
    raising, so failed sessions still get partial spans.
    """
    events = session.events
    out: Dict[str, float] = {}
    tb = syn_ack_time = t1 = None
    get_event = None
    for event in events:
        if event.direction == "out" and event.syn and tb is None:
            tb = event.time
        elif (event.direction == "in" and event.syn and event.ack_flag
              and syn_ack_time is None):
            syn_ack_time = event.time
        elif (event.direction == "out" and event.payload_len > 0
              and t1 is None):
            t1 = event.time
            get_event = event
    if tb is not None:
        out["tb"] = tb
    if syn_ack_time is not None and tb is not None:
        out["rtt"] = syn_ack_time - tb
    if t1 is None:
        return out
    out["t1"] = t1

    get_end_seq = get_event.seq + get_event.payload_len
    for event in events:
        if (event.direction == "in" and event.ack_flag
                and event.ack >= get_end_seq and event.time >= t1):
            out["t2"] = event.time
            break

    try:
        arrivals = inbound_byte_arrivals(events)
    except TraceError:
        return out
    if arrivals:
        out["t3"] = arrivals[0].time
        out["te"] = arrivals[-1].time
    return out


def _attach_ground_truth(scenario, session, span: Span) -> None:
    """Add fe.fetch / be.query children from the service logs."""
    try:
        deployment = scenario.service(session.service)
        frontend = deployment.frontend_by_name(session.fe_name)
    except (KeyError, AttributeError):
        return
    fetch = frontend.fetch_log.get(session.query_id)
    if fetch is not None and fetch.completed_at is not None:
        span.child("fe.fetch", fetch.forwarded_at, fetch.completed_at,
                   {"query_id": session.query_id,
                    "bytes": fetch.response_size})
    backend = deployment.backend_for_frontend(frontend)
    query = backend.query_log.get(session.query_id)
    if query is not None and query.completed_time is not None:
        span.child("be.query", query.arrival_time, query.completed_time,
                   {"query_id": session.query_id,
                    "tproc": query.tproc,
                    "bytes": query.response_size})


def annotate_boundaries(metrics_list: Iterable) -> None:
    """Add boundary landmarks t4/t5 + static/dynamic phase children.

    Called after content-analysis calibration with the extracted
    :class:`repro.core.metrics.QueryMetrics`; finds each query's
    ``session`` span in the global tracer and completes its timeline.
    Idempotent per span.
    """
    if not runtime.enabled:
        return
    by_query = runtime.tracer.session_spans()
    for qm in metrics_list:
        span = by_query.get(qm.session.query_id)
        if span is None:
            continue
        if any(name == "t4" for _, name in span.events):
            continue
        timeline = qm.timeline
        span.event(timeline.t4, "t4")
        span.event(timeline.t5, "t5")
        span.events.sort()
        span.child("phase.static", timeline.t3, timeline.t4)
        span.child("phase.dynamic", timeline.t5, timeline.te)
        span.children.sort(key=lambda s: s.sort_key())


# ----------------------------------------------------------------------
# campaign metrics
# ----------------------------------------------------------------------
def _campaign_metrics(mark: CampaignMark, kind: str, scenario,
                      dataset) -> None:
    m = runtime.metrics
    sessions = dataset.sessions
    completed = [s for s in sessions if s.complete]

    # sim scope: functions of the simulated world, bit-identical
    # between a serial campaign and any sharding of it.
    m.inc("campaign.sessions.completed", len(completed), SCOPE_SIM)
    m.inc("campaign.sessions.failed",
          len(sessions) - len(completed), SCOPE_SIM)
    for session in completed:
        m.observe("campaign.session.duration_s", session.duration,
                  DURATION_BOUNDS, SCOPE_SIM)
        m.observe("campaign.response.bytes", session.response_size,
                  SIZE_BOUNDS, SCOPE_SIM)
    for service, fe_name in sorted({(s.service, s.fe_name)
                                    for s in sessions}):
        try:
            frontend = scenario.service(service).frontend_by_name(fe_name)
        except (KeyError, AttributeError):
            continue
        m.gauge_max("fe.peak_concurrency", frontend.peak_concurrency,
                    SCOPE_SIM)

    # host scope: this process's work (differs per shard by design —
    # warm-up is re-simulated, caches are per-process).
    m.inc("campaign.runs.%s" % kind, 1, SCOPE_HOST)
    sim = scenario.sim
    m.inc("engine.events_processed",
          sim.events_processed - mark.engine_events, SCOPE_HOST)
    m.inc("engine.compactions",
          getattr(sim, "compactions", 0) - mark.engine_compactions,
          SCOPE_HOST)
    replay = getattr(dataset, "replay", None)
    if replay is not None:
        record_replay_stats(replay)


def record_replay_stats(stats) -> None:
    """Surface the recorded source's ExecutorStats (host scope)."""
    m = runtime.metrics
    m.inc("replay.hits", stats.hits, SCOPE_HOST)
    m.inc("replay.misses", stats.misses, SCOPE_HOST)
    m.inc("replay.recorded", stats.recorded, SCOPE_HOST)
    m.inc("replay.validations", stats.validations, SCOPE_HOST)
    m.inc("replay.validation_failures", stats.validation_failures,
          SCOPE_HOST)
    m.inc("replay.evictions", stats.evictions, SCOPE_HOST)
    for reason in sorted(stats.bypasses):
        m.inc("replay.bypass.%s" % reason, stats.bypasses[reason],
              SCOPE_HOST)
