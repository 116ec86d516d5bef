"""``python -m repro workload`` — run open-loop streaming campaigns.

Examples::

    python -m repro workload --users 10000 --duration 600 --rate 2
    python -m repro workload --arrivals flash --alpha 1.2 --shards 4
    python -m repro workload --sweep-alpha 0.6,0.8,1.0,1.2
    python -m repro workload --events 5000 --trace-out run.jsonl
    python -m repro workload --trace-in run.jsonl
    python -m repro workload --shards 3 --verify-serial

The command builds a deterministic scenario
(``ScenarioConfig(keyed_service_draws=True,
deterministic_services=True)``), generates the workload lazily
(:mod:`repro.workload`), and folds it through the bounded-memory
streaming runner (:mod:`repro.measure.streaming`), printing aggregate
counters, replay hit rate, and sketch quantiles.  ``--verify-serial``
re-runs serially and fails unless the sharded fingerprint is
bit-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.cache import POLICIES, CacheHierarchySpec, CacheSpec
from repro.measure.streaming import (
    DEFAULT_BATCH_EVENTS,
    DEFAULT_LOOKAHEAD,
    StreamingCampaignResult,
    run_streaming_campaign,
)
from repro.testbed.scenario import Scenario, ScenarioConfig
from repro.workload.arrivals import ARRIVAL_KINDS
from repro.workload.generator import OpenLoopWorkload, WorkloadSpec
from repro.workload.trace import TraceWorkload, write_events

__all__ = ["main"]

_QUANTILES = (0.5, 0.9, 0.99)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro workload",
        description="Run an open-loop workload through the "
                    "bounded-memory streaming campaign runner.")
    parser.add_argument("--seed", type=int, default=1,
                        help="scenario AND workload seed (default: 1)")
    parser.add_argument("--vps", type=int, default=12, metavar="N",
                        help="vantage-point fleet size (default: 12)")
    parser.add_argument("--users", type=int, default=10_000,
                        help="simulated user population (default: 10000)")
    parser.add_argument("--duration", type=float, default=600.0,
                        metavar="SECONDS",
                        help="campaign length in simulated seconds "
                             "(default: 600)")
    parser.add_argument("--rate", type=float, default=1.0,
                        metavar="PER_SECOND",
                        help="aggregate session-arrival rate "
                             "(default: 1.0)")
    parser.add_argument("--arrivals", default="poisson",
                        choices=ARRIVAL_KINDS,
                        help="arrival process (default: poisson)")
    parser.add_argument("--alpha", type=float, default=1.0,
                        help="Zipf keyword-popularity skew "
                             "(default: 1.0)")
    parser.add_argument("--keywords", type=int, default=256,
                        metavar="N",
                        help="ranked keyword-universe size "
                             "(default: 256)")
    parser.add_argument("--events", type=int, default=None, metavar="N",
                        help="hard cap on generated query events "
                             "(default: run out the duration)")
    parser.add_argument("--services", default="google-like",
                        metavar="NAME[,NAME]",
                        help="comma-separated service names "
                             "(default: google-like)")
    parser.add_argument("--shards", type=int, default=1, metavar="N",
                        help="shard the fleet across N partitions "
                             "(default: 1, serial)")
    parser.add_argument("--processes", type=int, default=0, metavar="N",
                        help="worker processes for sharded runs "
                             "(default: 0 = one per shard, capped at "
                             "CPU count)")
    parser.add_argument("--tier", default=None,
                        choices=("analytic", "packet", "auto"),
                        help="execution tier (as on the main CLI)")
    parser.add_argument("--batch", type=int,
                        default=DEFAULT_BATCH_EVENTS, metavar="N",
                        help="events scheduled per simulator burst "
                             "(default: %d)" % DEFAULT_BATCH_EVENTS)
    parser.add_argument("--lookahead", type=float,
                        default=DEFAULT_LOOKAHEAD, metavar="SECONDS",
                        help="schedule visibility window (default: "
                             "%.0f)" % DEFAULT_LOOKAHEAD)
    parser.add_argument("--fe-cache", default="infinite",
                        metavar="POLICY[:BYTES]",
                        help="front-end static-content cache: "
                             "'infinite' (default, the paper's "
                             "always-hit black box) or "
                             "POLICY:CAPACITY_BYTES with POLICY one of "
                             "%s, e.g. lru:131072 (see docs/CACHING.md)"
                             % "/".join(p for p in POLICIES
                                        if p != "infinite"))
    parser.add_argument("--sweep-alpha", default=None,
                        metavar="A[,A...]",
                        help="run once per Zipf alpha and print the "
                             "hit-rate table")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write the generated event stream as a "
                             "JSONL trace instead of simulating")
    parser.add_argument("--trace-in", default=None, metavar="PATH",
                        help="replay a recorded JSONL trace (serial "
                             "only) instead of generating")
    parser.add_argument("--verify-serial", action="store_true",
                        help="after a sharded run, re-run serially and "
                             "fail unless fingerprints match")
    parser.add_argument("--summary", default=None, metavar="PATH",
                        help="also write the aggregate result as JSON")
    return parser


def _spec_from_args(args, alpha: Optional[float] = None) -> WorkloadSpec:
    return WorkloadSpec(
        seed=args.seed, users=args.users, duration=args.duration,
        arrivals=args.arrivals, session_rate=args.rate,
        alpha=args.alpha if alpha is None else alpha,
        keyword_count=args.keywords,
        services=tuple(name.strip()
                       for name in args.services.split(",")
                       if name.strip()),
        max_events=args.events)


def _parse_fe_cache(text: str) -> CacheHierarchySpec:
    """``infinite`` or ``POLICY:CAPACITY_BYTES`` -> a hierarchy spec."""
    if text == "infinite":
        return CacheHierarchySpec()
    policy, sep, capacity = text.partition(":")
    if not sep:
        raise ValueError("finite --fe-cache needs a capacity: "
                         "use POLICY:CAPACITY_BYTES, e.g. lru:131072")
    return CacheHierarchySpec(
        static=CacheSpec(policy, capacity_bytes=int(capacity)))


def _scenario_from_args(args) -> Scenario:
    return Scenario(ScenarioConfig(
        seed=args.seed, vantage_count=args.vps,
        keyed_service_draws=True, deterministic_services=True,
        fe_cache=_parse_fe_cache(args.fe_cache)))


def _run(args, spec: WorkloadSpec) -> StreamingCampaignResult:
    if args.shards > 1:
        from repro.parallel import run_streaming_sharded
        return run_streaming_sharded(
            _scenario_from_args(args), spec,
            shards=args.shards, processes=args.processes,
            batch_events=args.batch, lookahead=args.lookahead,
            tier=args.tier)
    scenario = _scenario_from_args(args)
    workload = OpenLoopWorkload(
        spec, [vp.name for vp in scenario.vantage_points])
    return run_streaming_campaign(
        scenario, workload, batch_events=args.batch,
        lookahead=args.lookahead, tier=args.tier)


def _summary_dict(result: StreamingCampaignResult) -> dict:
    summary = {
        "events": result.events,
        "sessions": result.sessions,
        "failures": result.failures,
        "truncated": result.truncated,
        "shards": result.shards,
        "fingerprint": result.fingerprint(),
        "sketches": {},
    }
    if result.replay is not None:
        summary["replay"] = {"hits": result.replay.hits,
                             "misses": result.replay.misses,
                             "hit_rate": result.hit_rate()}
    if result.tier is not None:
        summary["tier"] = {"analytic": result.tier.analytic,
                           "simulated": result.tier.simulated}
    if result.content_cache is not None:
        summary["content_cache"] = {
            "counters": dict(result.content_cache),
            "hit_rate": result.content_hit_rate(),
        }
    for name in sorted(result.sketches):
        sketch = result.sketches[name]
        summary["sketches"][name] = {
            "count": sketch.count,
            "mean": sketch.mean,
            "quantiles": {("p%g" % (q * 100)): sketch.quantile(q)
                          for q in _QUANTILES},
        }
    return summary


def _print_result(result: StreamingCampaignResult) -> None:
    print("events    %d" % result.events)
    print("sessions  %d  (failures %d, truncated %d)"
          % (result.sessions, result.failures, result.truncated))
    if result.shards > 1:
        print("shards    %d" % result.shards)
    if result.replay is not None:
        print("replay    hits %d  misses %d  hit-rate %.3f"
              % (result.replay.hits, result.replay.misses,
                 result.hit_rate() or 0.0))
    if result.tier is not None:
        print("tier      analytic %d  simulated %d"
              % (result.tier.analytic, result.tier.simulated))
    if result.content_cache is not None:
        cache = result.content_cache
        print("fe-cache  hits %d  misses %d  evictions %d  "
              "origin-fetches %d  hit-rate %.3f"
              % (cache.get("fe_hits", 0), cache.get("fe_misses", 0),
                 cache.get("fe_evictions", 0),
                 cache.get("origin_fetches", 0),
                 result.content_hit_rate() or 0.0))
    for name in sorted(result.sketches):
        sketch = result.sketches[name]
        unit = "s" if name.startswith("duration/") else "B"
        print("%-24s %s"
              % (name, "  ".join(
                  "p%g=%.4g%s" % (q * 100, sketch.quantile(q), unit)
                  for q in _QUANTILES)))
    print("fingerprint %s" % result.fingerprint())


def _sweep_alpha(args, alphas: List[float]) -> int:
    print("alpha sweep (replay cache on): %s"
          % ", ".join("%g" % a for a in alphas))
    print("%-8s %-10s %-10s %-10s %-10s"
          % ("alpha", "events", "hits", "hit-rate", "fe-cache"))
    rates = []
    for alpha in alphas:
        result = _run(args, _spec_from_args(args, alpha=alpha))
        # With a finite --fe-cache the content hit rate is the figure
        # of merit; the default black box falls back to replay hits.
        content = result.content_hit_rate()
        rate = result.hit_rate() or 0.0
        rates.append(content if content is not None else rate)
        print("%-8g %-10d %-10d %-10.3f %-10s"
              % (alpha, result.events,
                 result.replay.hits if result.replay else 0, rate,
                 "%.3f" % content if content is not None else "-"))
    if rates == sorted(rates):
        print("hit-rate rises monotonically with alpha")
    else:
        print("warning: hit-rate is not monotone over this sweep")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.trace_in and args.trace_out:
        print("--trace-in and --trace-out are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.trace_in and args.shards > 1:
        print("traces replay serially; drop --shards or regenerate "
              "from a spec", file=sys.stderr)
        return 2

    if args.sweep_alpha:
        alphas = [float(part) for part in args.sweep_alpha.split(",")
                  if part.strip()]
        return _sweep_alpha(args, alphas)

    if args.trace_out:
        scenario = _scenario_from_args(args)
        workload = OpenLoopWorkload(
            _spec_from_args(args),
            [vp.name for vp in scenario.vantage_points])
        count = write_events(args.trace_out, workload.events())
        print("wrote %d events to %s" % (count, args.trace_out))
        return 0

    if args.trace_in:
        scenario = _scenario_from_args(args)
        result = run_streaming_campaign(
            scenario, TraceWorkload(args.trace_in),
            batch_events=args.batch, lookahead=args.lookahead,
            tier=args.tier)
    else:
        result = _run(args, _spec_from_args(args))
    _print_result(result)

    exit_code = 0
    if args.verify_serial and args.shards > 1:
        serial_args = argparse.Namespace(**vars(args))
        serial_args.shards = 1
        serial = _run(serial_args, _spec_from_args(args))
        if serial.fingerprint() == result.fingerprint():
            print("verify-serial: fingerprints match")
        else:
            print("verify-serial: MISMATCH (serial %s != sharded %s)"
                  % (serial.fingerprint(), result.fingerprint()),
                  file=sys.stderr)
            exit_code = 1

    if args.summary:
        with open(args.summary, "w") as handle:
            json.dump(_summary_dict(result), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print("summary written to %s" % args.summary)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
