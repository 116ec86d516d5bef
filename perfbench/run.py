"""End-to-end campaign benchmark: one workload, one process, one seed.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-campaign --seed 1 \\
        --seconds 30 --trace 0

The workloads and why each was chosen are described in
``perfbench/workloads.py``.  A run measures one workload in this single
serial process (no shards, pools or ``--jobs``):

1. **Timed phase**: the workload executes again and again on fresh
   scenarios built from the same seed until ``--seconds`` are spent
   (at least three times).  Scenario construction is outside the timed
   phase.  During each execution a host-speed gauge
   (``perfbench/gauge.py``) samples how fast the host runs, four times
   a second; the sampling time is taken off the execution's time, and
   its completed sessions per host second are divided by the host's
   speed relative to the gauge's reference host.  ``sessions_per_s``
   is the median of these rates over executions.  ``peak_rss_mb`` is
   the process's peak resident memory afterwards.
2. **Set-up** (``--trace 0``): the run starts ``SETUP_PROBES`` fresh
   interpreters that import the package, build the workload's inputs
   and scenario, and stop at the first simulated event (the first
   ``Simulator.run``).  ``setup_s`` is the median time from spawning
   the interpreter to that event, less the gauge's time in it, scaled
   to the reference host by the host's speed in gauge samples the probe
   takes from before its package imports to that event.  One probe runs
   before each execution, and any left over after the last, so the
   probes sample the host over the whole run rather than over a few
   seconds of it.  Probe and gauge time do not count towards
   ``--seconds``.
3. **Checks**, outside the timed phase: every submitted session
   completed (none failed or truncated), every execution produced the
   same output digest, and on ``paper-campaign`` every inferred session
   satisfied Eq. 1 against the FE fetch log.  ``failed`` counts failed,
   truncated and check-failing sessions; ``correct`` is false when any
   check fails.

With ``--trace 1`` the run instead spends a third of ``--seconds`` on
untraced executions and the rest on executions traced by
``perfbench/layers.py``, and reports the per-layer metrics, all as
timed: the gauge is off, so that it adds nothing to any layer's time.
Traced outputs must match untraced ones, and traced self times summed
over the layers must not exceed the traced wall time.

The last line of standard output is the JSON result; the lines before
it are a human-readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import gauge

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh interpreters started per run to time set-up.
SETUP_PROBES = 5
#: Executions a run makes at least: digests are compared across them,
#: and the median of three outvotes one execution slowed by the host.
MIN_EXECUTIONS = 3
#: Seconds a set-up probe may take before the run gives up.
PROBE_TIMEOUT = 120


def _scrub_environment() -> None:
    """Drop every ``REPRO_*`` knob so nothing but the arguments the
    workloads pass selects an executor, a shard count or tracing."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------
class _FirstEvent(Exception):
    pass


def _import_workloads():
    sys.path[:0] = [SRC, HERE]
    import workloads
    return workloads


def _probe(name: str, seed: int) -> int:
    """Child side of a set-up probe.  With the gauge sampling, import
    the package, build the workload and stop at its first event; print
    the clock then, the seconds spent sampling until then and the
    host's speed."""
    with gauge.Sampler() as sampler:
        workload = _import_workloads().BY_NAME[name]
        from repro.sim.engine import Simulator

        def first_run(self, *args, **kwargs):
            raise _FirstEvent(time.monotonic(), sampler.inside_s)

        prepared = workload.prepare(seed)
        Simulator.run = first_run
        try:
            prepared.execute()
        except _FirstEvent as event:
            first_event = event.args
        else:
            print("workload finished without a simulated event",
                  file=sys.stderr)
            return 1
    print(*map(repr, first_event + (gauge.speed(sampler.samples),)))
    return 0


def _setup_seconds(workload, seed: int) -> float:
    """Time one set-up probe, from spawning it to its first event, less
    the gauge's time in it, scaled to the gauge's reference host by the
    host's speed in the probe."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload.name, "--seed", str(seed)],
        cwd=ROOT, env=dict(os.environ), capture_output=True, text=True,
        timeout=PROBE_TIMEOUT)
    if done.returncode != 0:
        raise RuntimeError("set-up probe failed:\n" + done.stderr)
    first_event, inside_s, speed = map(float, done.stdout.split()[-3:])
    return (first_event - start - inside_s) * speed


# ---------------------------------------------------------------------------
# timed phase
# ---------------------------------------------------------------------------
class Execution:
    """One execution of the workload and what it cost."""

    def __init__(self, outcome, execute_s: float, wall_s: float,
                 events: int, speed: float):
        self.outcome = outcome
        self.execute_s = execute_s
        self.wall_s = wall_s
        self.events = events
        #: The host's speed while it ran, relative to the gauge's
        #: reference host (1.0 when it was not sampled).
        self.speed = speed

    @property
    def raw_rate(self) -> float:
        """Completed sessions per host second, as timed."""
        return self.outcome.completed / self.execute_s

    @property
    def rate(self) -> float:
        """Completed sessions per second on the reference host."""
        return self.raw_rate / self.speed


def _execute(workload, seed: int, budget: float, minimum: int,
             tracer=None, probes: int = 0) -> tuple:
    """Execute until ``budget`` seconds are spent (``minimum`` times at
    least) and time ``probes`` set-ups between executions.  With a
    tracer, scenarios are built and run traced; without one, the gauge
    samples the host's speed during each execution.  Returns the
    executions and the set-up times."""
    executions, setup_samples = [], []
    spent = 0.0
    while len(executions) < minimum or spent \
            + statistics.median(e.wall_s for e in executions) <= budget:
        if len(setup_samples) < probes:
            setup_samples.append(_setup_seconds(workload, seed))
        gc.collect()
        sampler = gauge.Sampler() if tracer is None else None
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            prepared = workload.prepare(seed)
            with sampler or contextlib.nullcontext():
                ready = time.perf_counter()
                output = prepared.execute()
                end = time.perf_counter()
        finally:
            if tracer is not None:
                tracer.uninstall()
        execute_s, speed = end - ready, 1.0
        if sampler is not None:
            execute_s -= sampler.inside_s
            speed = gauge.speed(sampler.samples)
        executions.append(Execution(prepared.check(output), execute_s,
                                    end - start,
                                    prepared.scenario.sim.events_processed,
                                    speed))
        # Free this execution's scenario before the next one is built,
        # so the peak resident memory is that of a single execution.
        del prepared, output
        spent += end - start
    while len(setup_samples) < probes:
        setup_samples.append(_setup_seconds(workload, seed))
    return executions, setup_samples


# ---------------------------------------------------------------------------
# checks and metrics
# ---------------------------------------------------------------------------
def _check(executions) -> tuple:
    """(attempted, failed sessions, problems) over every execution."""
    attempted = sum(e.outcome.submitted for e in executions)
    failed = sum(e.outcome.bad for e in executions)
    problems = []
    for index, execution in enumerate(executions):
        outcome = execution.outcome
        if outcome.bad or outcome.submitted != (
                outcome.completed + outcome.failed + outcome.truncated):
            problems.append(
                "execution %d: %d submitted, %d completed, %d failed, "
                "%d truncated, %d check-failing"
                % (index, outcome.submitted, outcome.completed,
                   outcome.failed, outcome.truncated,
                   outcome.check_failures))
    digests = {e.outcome.digest for e in executions}
    if len(digests) != 1:
        problems.append("outputs differ between executions of one seed: "
                        + ", ".join(sorted(d[:12] for d in digests)))
    return attempted, failed, problems


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def _end_to_end(executions, setup_samples) -> dict:
    return {
        "sessions_per_s": _metric(
            statistics.median(e.rate for e in executions), "1/s"),
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
    }


def _per_layer(plain, traced, tracer) -> dict:
    runs = len(traced)
    first = plain[0].outcome
    metrics = {}
    for layer, (calls, self_s) in tracer.layer_totals().items():
        metrics[layer + ".self_s"] = _metric(self_s / runs, "s")
        metrics[layer + ".calls"] = _metric(calls / runs, "count")
    counts = tracer.counts

    def per_run(name):
        return counts.get(name, 0) / runs

    renders = sum(tracer.render_keys.values()) / runs
    tier, replay = first.tier, first.replay
    cache = first.content_cache or {}
    plain_rate = statistics.median(e.rate for e in plain)
    traced_rate = statistics.median(e.rate for e in traced)
    metrics.update({
        "sim.events": _metric(plain[0].events, "count"),
        "sim.host_us_per_event": _metric(statistics.median(
            1e6 * e.execute_s / e.events for e in plain), "us"),
        "tcp.segments": _metric(per_run("tcp.segments"), "count"),
        "tcp.retransmits": _metric(per_run("tcp.retransmits"), "count"),
        "net.packets": _metric(per_run("net.packets"), "count"),
        "content.renders": _metric(renders, "count"),
        "content.render_reuse": _metric(
            _ratio(renders, len(tracer.render_keys)), "ratio"),
        "sim.analytic.coverage": _metric(
            _ratio(tier.analytic, tier.submissions) if tier else 0.0,
            "fraction"),
        "sim.analytic.bypass.fe-busy": _metric(
            tier.bypasses.get("fe-busy", 0) if tier else 0, "count"),
        "sim.analytic.validations": _metric(
            tier.validations if tier else 0, "count"),
        "sim.analytic.divergences": _metric(
            tier.divergences if tier else 0, "count"),
        "sim.replay.hit_ratio": _metric(
            _ratio(replay.hits, replay.submissions) if replay else 0.0,
            "fraction"),
        "sim.replay.bypass.unkeyed-draws": _metric(
            replay.bypasses.get("unkeyed-draws", 0) if replay else 0,
            "count"),
        "sim.replay.validation_failures": _metric(
            replay.validation_failures if replay else 0, "count"),
        "cache.hit_ratio": _metric(
            _ratio(per_run("cache.hits"), per_run("cache.lookups")),
            "fraction"),
        "cache.evictions": _metric(
            cache.get("fe_evictions", 0)
            + cache.get("regional_evictions", 0), "count"),
        "cache.origin_fetches": _metric(per_run("cache.origin_fetches"),
                                        "count"),
        "measure.capture_events": _metric(
            per_run("measure.capture_events"), "count"),
        "measure.capture_scanned_per_session": _metric(
            _ratio(counts.get("measure.capture_scanned", 0),
                   counts.get("measure.harvests", 0)), "count"),
        "measure.query_id_collisions": _metric(first.query_id_collisions,
                                               "count"),
        "core.eq1_checked": _metric(first.eq1_checked, "count"),
        "core.eq1_violations": _metric(first.eq1_violations, "count"),
        "trace.wall_s": _metric(sum(e.wall_s for e in traced) / runs, "s"),
        "trace.overhead_frac": _metric(plain_rate / traced_rate - 1.0,
                                       "fraction"),
    })
    return metrics


def _report(workload, seed, executions, attempted, failed, problems):
    first = executions[0].outcome
    print("workload %s  seed %d  (%s loop in simulated time; one serial "
          "process)" % (workload.name, seed, workload.loop))
    print("  why: %s" % workload.why)
    print("  executions %d  sessions/execution %d  digest %s"
          % (len(executions), first.submitted, first.digest[:16]))
    print("  sessions/s per execution, as timed: %s" % " ".join(
        "%.1f" % e.raw_rate for e in executions))
    print("  host speed per execution (gauge): %s" % " ".join(
        "%.3f" % e.speed for e in executions))
    print("  failed_frac %.6g fraction  (%d of %d sessions)"
          % (_ratio(failed, attempted), failed, attempted))
    if first.eq1_checked:
        print("  eq1_violation_frac %.6g fraction  (%d of %d inferred "
              "sessions; %d campaign query ids reused by calibration)"
              % (_ratio(first.eq1_violations, first.eq1_checked),
                 first.eq1_violations, first.eq1_checked,
                 first.query_id_collisions))
    for problem in problems:
        print("  CHECK FAILED: %s" % problem)


def main(argv=None) -> int:
    args = _parse(argv)
    _scrub_environment()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: the repro package is not at %s" % SRC,
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return _probe(args.workload, args.seed)
    workloads = _import_workloads()
    workload = workloads.BY_NAME.get(args.workload)
    if workload is None:
        print("perfbench: unknown workload %r (have %s)"
              % (args.workload, ", ".join(workloads.BY_NAME)),
              file=sys.stderr)
        return 2

    if args.trace:
        from layers import LayerTracer
        tracer = LayerTracer()
        plain, _ = _execute(workload, args.seed, args.seconds / 3.0, 1)
        traced, _ = _execute(workload, args.seed, args.seconds * 2.0 / 3.0,
                             1, tracer)
        executions = plain + traced
    else:
        executions, setup_samples = _execute(
            workload, args.seed, args.seconds, MIN_EXECUTIONS,
            probes=SETUP_PROBES)
    attempted, failed, problems = _check(executions)
    if args.trace:
        metrics = _per_layer(plain, traced, tracer)
        self_sum = sum(metrics[layer + ".self_s"]["value"]
                       for layer in tracer.layer_totals())
        if self_sum > metrics["trace.wall_s"]["value"]:
            problems.append("traced self times (%.4f s) exceed the traced "
                            "wall time (%.4f s)"
                            % (self_sum, metrics["trace.wall_s"]["value"]))
    else:
        metrics = _end_to_end(executions, setup_samples)
    _report(workload, args.seed, executions, attempted, failed, problems)
    if args.trace:
        print("  traced executions %d; self times per execution:"
              % len(traced))
        for line in tracer.table():
            print("    " + line)
    else:
        print("  set-up probes at the reference speed (s): %s" % " ".join(
            "%.3f" % s for s in setup_samples))
    for name, metric in metrics.items():
        print("  %-40s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
