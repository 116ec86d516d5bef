"""Smoke test of the benchmark at minimal length.

Usage (from the repository root)::

    python3 perfbench/smoke.py [--seed N]

Runs every workload named in ``BENCHMARK.json`` once untraced and once
traced, at the minimal length of ``SECONDS`` (each run still makes its
minimum number of executions), and checks that

* the last output line is the JSON result with exactly the keys
  ``correct``, ``attempted``, ``failed`` and ``metrics``;
* the untraced run prints exactly the ``end_to_end`` metrics and the
  traced run exactly the ``per_layer`` metrics, each with its unit;
* every output check passed and no session failed;
* the per-layer split is the one the workloads were chosen for: no
  analytic tier on ``paper-campaign``, analytic coverage between 0.3
  and 0.7 on ``stream-tiered``, cache evictions only on
  ``cache-churn``, and no workload with a replay hit ratio above 0.5.

Exits 0 when everything holds and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: ``--seconds`` of every run: minimal, so each run makes only its
#: minimum number of executions.
SECONDS = 1

#: workload -> [(metric, predicate, description)] on the traced run.
SPLIT = {
    "paper-campaign": [
        ("sim.analytic.calls", lambda v: v == 0, "== 0"),
        ("cache.evictions", lambda v: v == 0, "== 0"),
        ("sim.replay.hit_ratio", lambda v: v <= 0.5, "<= 0.5"),
        ("core.eq1_checked", lambda v: v > 0, "> 0"),
    ],
    "stream-tiered": [
        ("sim.analytic.coverage", lambda v: 0.3 <= v <= 0.7,
         "in [0.3, 0.7]"),
        ("cache.evictions", lambda v: v == 0, "== 0"),
        ("sim.replay.hit_ratio", lambda v: v <= 0.5, "<= 0.5"),
    ],
    "cache-churn": [
        ("cache.evictions", lambda v: v > 0, "> 0"),
        ("sim.replay.hit_ratio", lambda v: v <= 0.5, "<= 0.5"),
    ],
}


def _run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(SECONDS),
                           "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise RuntimeError("%s exited %d:\n%s"
                           % (workload, done.returncode, done.stderr))
    return json.loads(done.stdout.strip().splitlines()[-1])


def _problems(spec: dict, workload: str, result: dict, trace: int):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        yield "result keys %s" % sorted(result)
    if not result["correct"] or result["failed"] or \
            result["attempted"] < 1:
        yield "checks: correct=%s attempted=%s failed=%s" % (
            result["correct"], result["attempted"], result["failed"])
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(wanted):
        yield "metric names: missing %s, extra %s" % (
            sorted(set(wanted) - set(metrics)),
            sorted(set(metrics) - set(wanted)))
    for name, metric in metrics.items():
        if name in wanted and metric.get("unit") != wanted[name]:
            yield "%s unit %r, expected %r" % (name, metric.get("unit"),
                                               wanted[name])
        if not isinstance(metric.get("value"), (int, float)):
            yield "%s value %r" % (name, metric.get("value"))
    if trace:
        for name, predicate, description in SPLIT.get(workload, []):
            value = metrics.get(name, {}).get("value")
            if value is None or not predicate(value):
                yield "%s = %r, expected %s" % (name, value, description)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = _run(spec, workload, args.seed, trace)
            problems = list(_problems(spec, workload, result, trace))
            failures += len(problems)
            print("%-16s trace=%d  %d metrics  %s"
                  % (workload, trace, len(result["metrics"]),
                     "ok" if not problems else "FAILED"))
            for problem in problems:
                print("    " + problem)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
