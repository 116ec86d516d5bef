"""The benchmark's workloads: what each one runs and why it was chosen.

Every workload is a function of the seed alone.  ``prepare(seed)``
builds the program's inputs (the ``ScenarioConfig``, keywords and
``WorkloadSpec``) and the scenario; ``Prepared.execute()`` runs the
program once and returns what it produced, and ``Prepared.check()``
turns that into an :class:`Outcome` whose counts and digest the runner
checks.  Execution is the timed phase; preparation and checking are
outside it.

Runs are single-process and serial: no shards, no ``--jobs``, no worker
pool.  The benchmark was sized on a 2-core machine, and one process per
run keeps the second core free for the measuring harness and the OS, so
nothing competes with the measured work.

The executors are pinned: every driver call passes ``tier`` and
``replay_cache`` explicitly, and ``run.py`` strips ``REPRO_*`` variables
(``REPRO_TIER``, ``REPRO_REPLAY_CACHE``, ``REPRO_CAMPAIGN_SHARDS``,
``REPRO_BENCH_*``, ``REPRO_TRACE``) from the environment before the
package is imported.

Workloads (simulated-time arrival model in brackets):

``paper-campaign`` [closed loop]
    The ``python -m repro fig678`` pipeline at ``ExperimentScale.small``:
    60 vantage points, both services, the four figure-3 keywords and the
    paper-default unkeyed service draws, on the packet tier.  Each
    vantage point sends one query per service, waits for the round to
    be scheduled ``interval`` seconds later, and repeats 12 times
    (1440 sessions).  After ``run_dataset_a`` come
    ``calibrate_frontends_used``, ``extract_all_calibrated`` and
    ``check_bounds`` (Eq. 1 against the FE fetch log).  The replay cache
    is on, as the CLI default has it, but every session bypasses it as
    ``unkeyed-draws``.  Chosen because it is the paper's own work: the
    packet path, ``content`` (high keyword reuse), ``core`` and
    ``analysis`` do nearly all of it and the fast paths do none.

``stream-tiered`` [open loop, Poisson at 2 sessions/s]
    ``run_streaming_campaign(tier="auto")`` over Zipf(1.0) popularity on
    128 keywords, 6 vantage points, one service, keyed deterministic
    service draws and infinite FE caches.  Chosen because the
    ``fe-busy`` veto splits the work about evenly between the analytic
    tier and the packet tier, so both tiers and the admission logic
    between them show.  The testbed (vantage-point placement and hence
    which front-ends the six vantage points share) is fixed at
    ``STREAM_TESTBED_SEED``, and the seed draws the traffic: with the
    placement drawn per seed, the analytic share ranged 0.46-0.69 over
    eight seeds and moved the throughput with it, while on one testbed
    it stays near one half.

``cache-churn`` [open loop, Poisson at 2 sessions/s]
    The ``stream-tiered`` shape with a 16-object LRU FE static cache and
    Zipf over 1024 keywords.  The working set far exceeds the cache, so
    this is the write side of the FE content path (insert, evict,
    full-page origin fetch) beside its reads.  Every session bypasses
    the fast paths as ``finite-content-cache``, and keyword reuse is low,
    so a render memo that helps ``paper-campaign`` mostly misses here.

A fourth workload, ``replay-campaign`` (the keyed deterministic shape
of ``test_bench_dataset_a_campaign_replay_cached``, where most sessions
are replay-cache hits), was measured and dropped: its executions last
about 0.15 s, so its rate follows the shared host's speed from second to
second, and its spread over ten seeds (IQR over median, 0.35) exceeded
any bound the benchmark may set.  ``sim.replay`` is still measured on
``paper-campaign``, where every session passes the replay cache's
admission and bypasses it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cache import CacheHierarchySpec, CacheSpec
from repro.content.keywords import KeywordCatalog
from repro.core.bounds import check_bounds
from repro.core.metrics import extract_all_calibrated
from repro.experiments.common import (
    ExperimentScale,
    build_scenario,
    calibrate_frontends_used,
)
from repro.measure.driver import run_dataset_a
from repro.measure.streaming import run_streaming_campaign
from repro.services.deployment import google_like_profile
from repro.testbed.scenario import Scenario, ScenarioConfig
from repro.workload import OpenLoopWorkload, WorkloadSpec


@dataclass
class Outcome:
    """What one execution of a workload produced, for the checks."""

    #: Sessions the workload submitted and sessions that completed.
    submitted: int
    completed: int
    #: Sessions that ended with a failure, and that never ended.
    failed: int
    truncated: int
    #: Completed sessions that a workload-specific check rejected.
    check_failures: int
    #: Run-to-run identity of the outputs (same seed, same digest).
    digest: str
    #: Eq. 1 samples checked and violated (``paper-campaign`` only).
    eq1_checked: int = 0
    eq1_violations: int = 0
    #: Campaign fetch records overwritten by a later query reusing the
    #: same query id (``paper-campaign`` only).
    query_id_collisions: int = 0
    #: Executor accounting: TierStats / ReplayStats / content-cache dict.
    tier: object = None
    replay: object = None
    content_cache: Optional[Dict[str, int]] = None

    @property
    def bad(self) -> int:
        return self.failed + self.truncated + self.check_failures


@dataclass
class Prepared:
    """A workload's inputs and scenario, ready to execute once."""

    scenario: Scenario
    #: Runs the program once (the timed phase) and returns its output.
    execute: Callable[[], object]
    #: Checks that output and counts it, outside the timed phase.
    check: Callable[[object], Outcome]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loop: str
    prepare: Callable[[int], Prepared] = field(repr=False)


def _session_digest(sessions) -> str:
    """Digest of every session's start/end time and response size."""
    digest = hashlib.sha256()
    for session in sorted(sessions, key=lambda s: s.query_id):
        digest.update(("%s %r %r %r\n" % (
            session.query_id, session.started_at, session.completed_at,
            session.response_size)).encode())
    return digest.hexdigest()


def _campaign_outcome(dataset, submitted: int, check_failures: int,
                      eq1_checked: int = 0,
                      eq1_violations: int = 0) -> Outcome:
    sessions = dataset.sessions
    truncated = sum(1 for s in sessions if s.completed_at is None)
    failed = sum(1 for s in sessions
                 if s.completed_at is not None and s.failed is not None)
    completed = len(sessions) - truncated - failed
    # Sessions the driver never created count as truncated too.
    truncated += max(0, submitted - len(sessions))
    return Outcome(submitted=submitted, completed=completed, failed=failed,
                   truncated=truncated, check_failures=check_failures,
                   digest=_session_digest(sessions),
                   eq1_checked=eq1_checked, eq1_violations=eq1_violations,
                   tier=dataset.tier, replay=dataset.replay)


# ---------------------------------------------------------------------------
# paper-campaign
# ---------------------------------------------------------------------------
def prepare_paper_campaign(seed: int) -> Prepared:
    scale = ExperimentScale.small(seed=seed)
    scenario = build_scenario(scale)
    keywords = KeywordCatalog(seed=seed).figure3_set()
    submitted = (scale.vantage_count * scale.repeats
                 * len(scenario.services))

    def execute():
        dataset = run_dataset_a(scenario, keywords, repeats=scale.repeats,
                                interval=scale.interval,
                                replay_cache=True, tier="packet")
        # The campaign's ground truth, taken before calibration: the
        # calibration emulator numbers its queries from 1 at the first
        # vantage point, reusing that vantage point's campaign query
        # ids, and its fetch records replace the campaign's under those
        # ids.  ``check`` counts them as collisions.
        truth = {name: scenario.service(name).merged_fetch_log()
                 for name in scenario.services}
        inferred = {}
        for service_name in scenario.services:
            sessions = dataset.for_service(service_name)
            calibration = calibrate_frontends_used(scenario, service_name,
                                                   sessions)
            metrics = extract_all_calibrated(sessions, calibration)
            inferred[service_name] = (
                sessions, metrics, check_bounds(metrics, truth[service_name]))
        return dataset, truth, inferred

    def check(output) -> Outcome:
        dataset, truth, inferred = output
        unextracted = checked = violations = collisions = 0
        for service_name, (sessions, metrics, report) in inferred.items():
            unextracted += sum(1 for s in sessions if s.complete) \
                - len(metrics)
            checked += report.n
            violations += sum(1 for s in report.samples if not s.holds)
            after = scenario.service(service_name).merged_fetch_log()
            collisions += sum(1 for query_id, record
                              in truth[service_name].items()
                              if after.get(query_id) is not record)
        # An Eq. 1 violation is a wrong inference: the session fails
        # its check as surely as one that could not be extracted.
        outcome = _campaign_outcome(dataset, submitted,
                                    unextracted + violations,
                                    eq1_checked=checked,
                                    eq1_violations=violations)
        outcome.query_id_collisions = collisions
        return outcome

    return Prepared(scenario, execute, check)


# ---------------------------------------------------------------------------
# open-loop streams
# ---------------------------------------------------------------------------
#: Queries per streaming execution; sized so that one execution spans
#: several hundred simulated seconds of steady open-loop load.  On
#: ``stream-tiered`` the seed moves the analytic share (0.43-0.53 over
#: seeds 101-110) and the throughput with it, however long the stream:
#: over those seeds the spread of the rate was 0.100 at 2000 queries
#: and 0.119 at 4000.
STREAM_EVENTS = 2000
CHURN_EVENTS = 1000
#: The streams run on one fixed testbed; the seed draws the traffic.
STREAM_TESTBED_SEED = 7
#: FE static-cache size of ``cache-churn``, in objects of the service's
#: static page portion.
CHURN_CACHE_OBJECTS = 16


def _prepare_stream(seed: int, *, keyword_count: int, events: int,
                    cache_objects: Optional[int]) -> Prepared:
    fe_cache = CacheHierarchySpec()
    if cache_objects is not None:
        static_bytes = google_like_profile().page_profile.static_size
        fe_cache = CacheHierarchySpec(static=CacheSpec(
            "lru", capacity_bytes=cache_objects * static_bytes))
    scenario = Scenario(ScenarioConfig(
        seed=STREAM_TESTBED_SEED, vantage_count=6, keyed_service_draws=True,
        deterministic_services=True, fe_cache=fe_cache))
    spec = WorkloadSpec(seed=seed, users=10_000, duration=86_400.0,
                        arrivals="poisson", session_rate=2.0, alpha=1.0,
                        keyword_count=keyword_count, max_events=events,
                        services=(Scenario.GOOGLE,))
    workload = OpenLoopWorkload(
        spec, [vp.name for vp in scenario.vantage_points])

    def execute():
        return run_streaming_campaign(scenario, workload, tier="auto",
                                      replay_cache=False)

    def check(result) -> Outcome:
        return Outcome(
            submitted=result.events,
            completed=result.sessions - result.failures,
            failed=result.failures, truncated=result.truncated,
            check_failures=0, digest=result.fingerprint(),
            tier=result.tier, replay=result.replay,
            content_cache=result.content_cache)

    return Prepared(scenario, execute, check)


def prepare_stream_tiered(seed: int) -> Prepared:
    return _prepare_stream(seed, keyword_count=128, events=STREAM_EVENTS,
                           cache_objects=None)


def prepare_cache_churn(seed: int) -> Prepared:
    return _prepare_stream(seed, keyword_count=1024, events=CHURN_EVENTS,
                           cache_objects=CHURN_CACHE_OBJECTS)


WORKLOADS: List[Workload] = [
    Workload("paper-campaign",
             "the paper's fig678 Dataset-A pipeline at small scale on the "
             "packet tier; every session bypasses the fast paths",
             "closed", prepare_paper_campaign),
    Workload("stream-tiered",
             "open-loop Zipf stream where fe-busy splits sessions between "
             "the analytic and the packet tier",
             "open", prepare_stream_tiered),
    Workload("cache-churn",
             "open-loop stream over a 16-object LRU FE cache much smaller "
             "than its working set: hits, evictions, origin fetches",
             "open", prepare_cache_churn),
]

BY_NAME = {workload.name: workload for workload in WORKLOADS}
