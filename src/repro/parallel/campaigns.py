"""Sharded versions of the two measurement campaigns.

Each shard process rebuilds the *full* scenario from its
:class:`~repro.testbed.scenario.ScenarioConfig` (construction is
deterministic, so every shard sees the identical universe: same VP
placement, same deployments, same content) and then runs the campaign
for only its slice of vantage points.  Start times come from each VP's
index in the full fleet (see :func:`repro.measure.driver._fleet_staggers`)
and the load/processing RNG draws are keyed per query
(``ScenarioConfig(keyed_service_draws=True)``, which this module
requires), so a query executes identically no matter which process
hosts it.

The merge is order-independent: sessions are regrouped by the fleet
order of their vantage points, reproducing exactly the session list the
serial driver builds.

Only config-built scenarios can be sharded — the worker has nothing but
the config to rebuild from, so scenarios constructed with custom
service profiles are rejected.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.content.keywords import Keyword
from repro.measure.driver import (
    DatasetA,
    DatasetB,
    run_dataset_a,
    run_dataset_b,
)
from repro.measure.session import QuerySession
from repro.measure.streaming import (
    StreamingCampaignResult,
    run_streaming_campaign,
)
from repro.parallel.partition import (
    fe_sharing_components,
    partition_components,
    partition_round_robin,
)
from repro.parallel.pool import map_shards
from repro.sim.replay import merged_stats
from repro.testbed.scenario import Scenario, ScenarioConfig
from repro.workload.generator import OpenLoopWorkload, WorkloadSpec


@dataclass(frozen=True)
class _DatasetAShard:
    """Picklable work order for one Dataset-A shard."""

    config: ScenarioConfig
    keywords: Tuple[Keyword, ...]
    vp_names: Tuple[str, ...]
    repeats: int
    interval: float
    services: Optional[Tuple[str, ...]]
    store_payload: bool
    run_timeout: Optional[float]
    #: None (env default) or a bool; each worker builds its own private
    #: per-shard ReplayCache, so cache objects never cross processes.
    replay_cache: Optional[bool] = None
    #: Mirror of the parent's repro.obs enabled flag: workers re-assert
    #: it so tracing survives any process start method (fork inherits
    #: it anyway) and per-shard captures come back on the dataset.
    observe: bool = False
    #: Execution tier (None = env default; see repro.sim.analytic).
    #: Tier decisions are stratum-local and the partition keeps strata
    #: whole, so per-shard tiering reproduces the serial run.
    tier: Optional[str] = None


@dataclass(frozen=True)
class _DatasetBShard:
    """Picklable work order for one Dataset-B shard."""

    config: ScenarioConfig
    service_name: str
    frontend_name: str
    keyword: Keyword
    vp_names: Tuple[str, ...]
    repeats: int
    interval: float
    store_payload: bool
    run_timeout: Optional[float]
    replay_cache: Optional[bool] = None
    observe: bool = False
    #: Execution tier, as on :class:`_DatasetAShard`.
    tier: Optional[str] = None


def _select_vps(scenario: Scenario, names: Sequence[str]):
    by_name = {vp.name: vp for vp in scenario.vantage_points}
    return [by_name[name] for name in names]


def _run_dataset_a_shard(shard: _DatasetAShard) -> DatasetA:
    if shard.observe:
        obs.enable()
    scenario = Scenario(shard.config)
    return run_dataset_a(
        scenario, list(shard.keywords),
        repeats=shard.repeats, interval=shard.interval,
        services=list(shard.services) if shard.services else None,
        vantage_points=_select_vps(scenario, shard.vp_names),
        store_payload=shard.store_payload,
        run_timeout=shard.run_timeout,
        replay_cache=shard.replay_cache,
        tier=shard.tier)


def _run_dataset_b_shard(shard: _DatasetBShard) -> DatasetB:
    if shard.observe:
        obs.enable()
    scenario = Scenario(shard.config)
    service = scenario.service(shard.service_name)
    frontend = service.frontend_by_name(shard.frontend_name)
    return run_dataset_b(
        scenario, shard.service_name, frontend, shard.keyword,
        repeats=shard.repeats, interval=shard.interval,
        vantage_points=_select_vps(scenario, shard.vp_names),
        store_payload=shard.store_payload,
        run_timeout=shard.run_timeout,
        replay_cache=shard.replay_cache,
        tier=shard.tier)


#: Histogram bounds for per-shard session counts.
_SHARD_SESSION_BOUNDS = (10, 30, 100, 300, 1_000, 3_000, 10_000)


def _merge_observability(obs_mark, results: Sequence[object],
                         merged) -> None:
    """Fold per-shard observability captures into the merged dataset.

    The runner first rolls the live runtime back to ``obs_mark``: when
    :func:`~repro.parallel.pool.map_shards` fell back to inline
    execution, the shard campaigns recorded straight into this
    process's tracer/registry, and absorbing their snapshots too would
    double-count.  (With real worker processes the rollback is a
    no-op.)  Sim-scope metrics and spans merge to exactly the serial
    campaign's capture; host-scope metrics add up across shards.
    """
    if obs_mark is None:
        return
    obs.rollback(obs_mark)
    merged.trace = obs.merge_traces(
        [result.trace for result in results])
    merged.obs_metrics = obs.merge_metrics(
        [result.obs_metrics for result in results])
    obs.absorb(merged.trace, merged.obs_metrics)
    registry = obs.runtime.metrics
    registry.inc("campaign.shards", len(results))
    for result in results:
        registry.observe("shard.sessions", len(result.sessions),
                         _SHARD_SESSION_BOUNDS)


def _check_default_profiles(scenario: Scenario,
                            service_names: Sequence[str]) -> None:
    from repro.testbed.scenario import scenario_profiles

    # Compare against the profiles a worker rebuilding from the config
    # would construct — config-level transforms (deterministic_services)
    # are shardable, hand-passed custom profiles are not.  Only the
    # services this campaign runs are checked (and thus built — the
    # scenario constructs deployments lazily).
    defaults = scenario_profiles(scenario.config)
    for name in service_names:
        if defaults.get(name) != scenario.service(name).profile:
            raise ValueError(
                "sharding requires a config-built scenario; service %r "
                "uses a custom profile the worker processes cannot "
                "rebuild" % name)


def _check_shardable(scenario: Scenario,
                     service_names: Sequence[str]) -> None:
    _check_default_profiles(scenario, service_names)
    if not scenario.config.keyed_service_draws:
        raise ValueError(
            "sharded campaigns require a scenario built with "
            "ScenarioConfig(keyed_service_draws=True): with the default "
            "shared sequential RNG streams, a shard's service-delay "
            "draws would depend on queries running in other shards")
    if scenario.config.fe_cache.shared_regional:
        raise ValueError(
            "sharded campaigns cannot use a shared regional cache "
            '(fe_cache.regional_scope="shared"): its contents depend on '
            "the interleaved miss streams of every front-end homed on a "
            "back-end, and front-ends land in different shards; use "
            'regional_scope="per-fe" or run serially')


def _sessions_in_fleet_order(scenario: Scenario,
                             results: Sequence[object]
                             ) -> List[QuerySession]:
    by_vp: Dict[str, List[QuerySession]] = {}
    for result in results:
        for session in result.sessions:
            by_vp.setdefault(session.vp_name, []).append(session)
    merged: List[QuerySession] = []
    for vp in scenario.vantage_points:
        merged.extend(by_vp.get(vp.name, []))
    return merged


def run_dataset_a_sharded(scenario: Scenario,
                          keywords: Sequence[Keyword], *,
                          repeats: int = 10,
                          interval: float = 10.0,
                          services: Optional[Sequence[str]] = None,
                          shards: int = 2,
                          processes: int = 0,
                          store_payload: bool = False,
                          run_timeout: Optional[float] = None,
                          replay_cache: Optional[bool] = None,
                          tier: Optional[str] = None) -> DatasetA:
    """Sharded :func:`~repro.measure.driver.run_dataset_a`.

    ``scenario`` is used only to partition the fleet and to carry the
    config; it is *not* run (workers rebuild their own copy).  The
    partition keeps FE-sharing vantage points together, which makes the
    merged dataset bit-identical to the serial run for the same seed.

    ``replay_cache`` (None = env default, or a bool) is forwarded to
    every worker; each builds its own per-shard cache.  ``tier`` is
    forwarded too; tier decisions are per-stratum (service, FE, VP) and
    strata never span shards, so sharded tiering is bit-identical to
    serial.
    """
    service_names = tuple(services or scenario.services)
    _check_shardable(scenario, service_names)
    components = fe_sharing_components(scenario, service_names)
    partition = partition_components(components, shards)
    shard_specs = [
        _DatasetAShard(config=scenario.config,
                       keywords=tuple(keywords),
                       vp_names=tuple(vp.name for vp in part),
                       repeats=repeats, interval=interval,
                       services=service_names,
                       store_payload=store_payload,
                       run_timeout=run_timeout,
                       replay_cache=replay_cache,
                       observe=obs.enabled(),
                       tier=tier)
        for part in partition]
    obs_mark = obs.fork_mark() if obs.enabled() else None
    results = map_shards(_run_dataset_a_shard, shard_specs, processes)

    merged = DatasetA()
    merged.replay = merged_stats(result.replay for result in results)
    merged.tier = merged_stats(result.tier for result in results)
    merged.sessions = _sessions_in_fleet_order(scenario, results)
    default_fe: Dict[Tuple[str, str], Tuple[str, float]] = {}
    for result in results:
        default_fe.update(result.default_fe)
    # Re-insert in the serial driver's (vp, service) iteration order so
    # even dict ordering matches the serial run.
    for vp in scenario.vantage_points:
        for service_name in service_names:
            key = (vp.name, service_name)
            if key in default_fe:
                merged.default_fe[key] = default_fe[key]
    _merge_observability(obs_mark, results, merged)
    return merged


class HighFrontEndLoadError(ValueError):
    """A Dataset-B sharding request would not be serial-equivalent.

    Raised by :func:`run_dataset_b_sharded` when the campaign schedule
    keeps the shared front-end busy enough that concurrent sessions
    would overlap there.  Pass ``allow_high_fe_load=True`` to downgrade
    this error to a :class:`UserWarning` and shard anyway (accepting
    that the merged dataset may diverge from the serial run).
    """


def _estimated_fe_busy_time(scenario: Scenario, service_name: str,
                            frontend_name: str) -> float:
    """Rough per-session busy time at the shared Dataset-B front-end.

    Two client RTTs (connection setup plus request/response) bracket the
    FE's own work: its median load delay and the back-end's base
    processing time.  This is an intentionally *low* estimate — real
    sessions also pay transfer time and load noise — so the guard only
    fires on schedules that are clearly too dense.
    """
    service = scenario.service(service_name)
    frontend = service.frontend_by_name(frontend_name)
    rtts = [scenario.client_fe_rtt(vp, frontend, service)
            for vp in scenario.vantage_points]
    mean_rtt = sum(rtts) / len(rtts)  # simlint: unit[s]
    profile = service.profile
    return (2.0 * mean_rtt + profile.fe_load.median_delay
            + profile.processing.base)


def _guard_dataset_b_fe_load(scenario: Scenario, service_name: str,
                             frontend_name: str, interval: float,
                             allow_high_fe_load: bool) -> None:
    """Refuse (or warn about) sharding a high-FE-load Dataset-B config.

    Sharded Dataset B is serial-equivalent only while the shared
    front-end never serves two sessions at once (its concurrency-
    dependent load draws then see ``concurrency == 1`` in every shard,
    exactly as in the serial run).  The fleet submits one session every
    ``interval / len(fleet)`` seconds; when that gap undercuts the
    estimated per-session FE busy time *and* the service actually
    charges for concurrency, shards would disagree with the serial
    schedule's overlaps.
    """
    profile = scenario.service(service_name).profile
    if profile.fe_load.per_concurrent_delay <= 0.0:
        return  # FE load is concurrency-independent: overlap is harmless
    gap = interval / max(1, len(scenario.vantage_points))
    busy = _estimated_fe_busy_time(scenario, service_name, frontend_name)
    if gap >= busy:
        return
    message = (
        "Dataset-B sharding is only serial-equivalent at low front-end "
        "load, but this schedule is dense: the fleet submits to %r "
        "every %.3fs while a session keeps it busy for ~%.3fs, and the "
        "%r profile charges per-concurrent delay. Raise `interval`, "
        "shrink the fleet, or pass allow_high_fe_load=True to shard "
        "anyway (the merged dataset may then diverge from the serial "
        "run)." % (frontend_name, gap, busy, service_name))
    if not allow_high_fe_load:
        raise HighFrontEndLoadError(message)
    warnings.warn(message, UserWarning, stacklevel=3)


def run_dataset_b_sharded(scenario: Scenario, service_name: str,
                          frontend_name: str, keyword: Keyword, *,
                          repeats: int = 10,
                          interval: float = 10.0,
                          shards: int = 2,
                          processes: int = 0,
                          store_payload: bool = False,
                          run_timeout: Optional[float] = None,
                          replay_cache: Optional[bool] = None,
                          tier: Optional[str] = None,
                          allow_high_fe_load: bool = False) -> DatasetB:
    """Sharded :func:`~repro.measure.driver.run_dataset_b`.

    Every Dataset-B vantage point targets the *same* fixed front-end,
    so all of them form one FE-sharing component: the partition here is
    plain round-robin and the merged result reproduces the serial run
    only when concurrent load on that FE is negligible (large
    ``interval`` relative to session durations).  Schedules dense
    enough to overlap sessions at the FE raise
    :class:`HighFrontEndLoadError` up front; pass
    ``allow_high_fe_load=True`` to downgrade the refusal to a
    :class:`UserWarning` and shard anyway.  See ``docs/PERFORMANCE.md``
    for the validity discussion.

    For the same reason, Dataset-B sharding splits (service, FE, VP)
    strata across shards only when VPs are split — it never is: each VP
    is wholly in one shard, and tier strata are per-VP.  ``tier`` is
    therefore safe to forward here too.
    """
    _check_shardable(scenario, (service_name,))
    if scenario.config.fe_cache.finite:
        # Round-robin splits the shared FE's request stream across
        # workers, so a finite (evicting) cache would see a different
        # request order in each shard and diverge from serial state.
        # Dataset-A/streaming sharding is safe (FE-sharing components
        # keep each FE's whole stream in one shard) — only Dataset B
        # shares one FE across shards.
        raise ValueError(
            "Dataset-B sharding is not serial-equivalent with a finite "
            "front-end content cache (fe_cache.static policy %r): all "
            "vantage points share one FE, and splitting its request "
            "stream across shards would evolve different cache states; "
            "run run_dataset_b serially instead"
            % scenario.config.fe_cache.static.policy)
    resolved = scenario.service(service_name).frontend_by_name(
        frontend_name).node.name
    _guard_dataset_b_fe_load(scenario, service_name, resolved,
                             interval, allow_high_fe_load)
    partition = partition_round_robin(scenario.vantage_points, shards)
    shard_specs = [
        _DatasetBShard(config=scenario.config,
                       service_name=service_name,
                       frontend_name=resolved,
                       keyword=keyword,
                       vp_names=tuple(vp.name for vp in part),
                       repeats=repeats, interval=interval,
                       store_payload=store_payload,
                       run_timeout=run_timeout,
                       replay_cache=replay_cache,
                       observe=obs.enabled(),
                       tier=tier)
        for part in partition]
    obs_mark = obs.fork_mark() if obs.enabled() else None
    results = map_shards(_run_dataset_b_shard, shard_specs, processes)

    merged = DatasetB(service=service_name, fe_name=resolved)
    merged.replay = merged_stats(result.replay for result in results)
    merged.tier = merged_stats(result.tier for result in results)
    merged.sessions = _sessions_in_fleet_order(scenario, results)
    _merge_observability(obs_mark, results, merged)
    return merged


# ----------------------------------------------------------------------
# Streaming (open-loop workload) campaigns
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _StreamingShard:
    """Picklable work order for one streaming-campaign shard.

    The worker rebuilds the scenario *and* the workload from their
    specs; the workload's determinism contract (sequential arrival
    stream + per-session RNGs, see :mod:`repro.workload.generator`)
    guarantees every shard regenerates the identical global stream and
    filters it to its own vantage points.
    """

    config: ScenarioConfig
    spec: WorkloadSpec
    vp_names: Tuple[str, ...]
    batch_events: int
    lookahead: float
    replay_cache: Optional[bool] = None
    observe: bool = False
    tier: Optional[str] = None


def _run_streaming_shard(shard: _StreamingShard
                         ) -> StreamingCampaignResult:
    if shard.observe:
        obs.enable()
    scenario = Scenario(shard.config)
    workload = OpenLoopWorkload(
        shard.spec, [vp.name for vp in scenario.vantage_points])
    return run_streaming_campaign(
        scenario, workload,
        vantage_points=_select_vps(scenario, shard.vp_names),
        batch_events=shard.batch_events,
        lookahead=shard.lookahead,
        tier=shard.tier,
        replay_cache=shard.replay_cache)


def _merge_streaming_observability(obs_mark,
                                   results: Sequence[
                                       StreamingCampaignResult],
                                   merged: StreamingCampaignResult
                                   ) -> None:
    """Streaming analogue of :func:`_merge_observability`.

    Streaming results carry metrics only (``trace`` would grow with the
    event count), so the merge rolls back inline double-counting,
    combines the per-shard metric snapshots, and re-absorbs them.
    """
    if obs_mark is None:
        return
    obs.rollback(obs_mark)
    merged.obs_metrics = obs.merge_metrics(
        [result.obs_metrics for result in results])
    obs.absorb(None, merged.obs_metrics)
    registry = obs.runtime.metrics
    registry.inc("campaign.shards", len(results))
    for result in results:
        registry.observe("shard.sessions", result.sessions,
                         _SHARD_SESSION_BOUNDS)


def run_streaming_sharded(scenario: Scenario, spec: WorkloadSpec, *,
                          shards: int = 2,
                          processes: int = 0,
                          batch_events: int = 2048,
                          lookahead: float = 30.0,
                          replay_cache: Optional[bool] = None,
                          tier: Optional[str] = None
                          ) -> StreamingCampaignResult:
    """Sharded :func:`~repro.measure.streaming.run_streaming_campaign`.

    The fleet is partitioned by FE-sharing components (as Dataset A is)
    so every front-end's full submission schedule lives inside exactly
    one shard; with keyed service draws the merged result is then
    bit-identical to the serial streaming run — same counters, same
    quantile-sketch fingerprints — at any shard count.

    Only spec-built workloads shard: a worker regenerates the stream
    from the picklable :class:`~repro.workload.generator.WorkloadSpec`.
    Replay traces (:class:`~repro.workload.trace.TraceWorkload`) run
    serially instead.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    _check_shardable(scenario, spec.services)
    components = fe_sharing_components(scenario, spec.services)
    partition = partition_components(components, shards)
    shard_specs = [
        _StreamingShard(config=scenario.config,
                        spec=spec,
                        vp_names=tuple(vp.name for vp in part),
                        batch_events=batch_events,
                        lookahead=lookahead,
                        replay_cache=replay_cache,
                        observe=obs.enabled(),
                        tier=tier)
        for part in partition]
    obs_mark = obs.fork_mark() if obs.enabled() else None
    results = map_shards(_run_streaming_shard, shard_specs, processes)

    merged = StreamingCampaignResult.merged(results)
    merged.spec = spec
    merged.shards = len(results)
    _merge_streaming_observability(obs_mark, results, merged)
    return merged
