"""Cross-check the traced layer split against cProfile.

Usage (from the repository root)::

    python3 perfbench/profile_check.py --seed 1

Runs ``paper-campaign`` once under :class:`layers.LayerTracer` and once
under :mod:`cProfile`, and compares the three layers with the most self
time.  The cProfile side aggregates each function's own time by the
``repro.*`` subpackage that defines it (``sim.analytic`` and
``sim.replay`` apart from ``sim``).  Time in functions outside the
package (``random.choice``, ``heapq``, builtins) goes to the
subpackages that called them, in proportion to the time each caller
spent in them.  Exits 0 when both sides name the same top three
layers, 1 otherwise.

cProfile adds a cost to every Python call, the tracer only to wrapped
entry points, so the shares differ; the ranking of the heavy layers is
what must agree.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REPRO = os.path.join(SRC, "repro") + os.sep

WORKLOAD = "paper-campaign"
TOP = 3


def _layer_of(filename: str):
    """The repro subpackage a source file belongs to, or None."""
    path = os.path.abspath(filename)
    if not path.startswith(REPRO):
        return None
    parts = path[len(REPRO):].split(os.sep)
    if len(parts) == 1:
        return "repro"
    if parts[0] == "sim" and len(parts) > 2:
        return "sim." + parts[1]
    return parts[0]


def profile_layers(stats: pstats.Stats) -> dict:
    """Own time per repro subpackage, outside time charged to callers."""
    table = stats.stats
    owners_memo = {}

    def owners(func, depth=0) -> dict:
        """layer -> share of ``func``'s own time that layer caused."""
        if func in owners_memo:
            return owners_memo[func]
        layer = _layer_of(func[0])
        if layer is not None:
            result = {layer: 1.0}
        elif depth > 50:
            result = {}
        else:
            callers = table[func][4] if func in table else {}
            weights = {caller: timing[3] or timing[2]
                       for caller, timing in callers.items()}
            total = sum(weights.values())
            result = {}
            for caller, weight in weights.items():
                if not total or caller == func:
                    continue
                for owner, share in owners(caller, depth + 1).items():
                    result[owner] = result.get(owner, 0.0) \
                        + share * weight / total
        owners_memo[func] = result
        return result

    totals = {}
    for func, (_, _, own, _, _) in table.items():
        for layer, share in owners(func).items():
            totals[layer] = totals.get(layer, 0.0) + own * share
    return totals


def _top(totals: dict) -> list:
    return [name for name, _ in sorted(totals.items(),
                                       key=lambda item: -item[1])[:TOP]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [SRC, HERE]
    import workloads
    from layers import LayerTracer

    workload = workloads.BY_NAME[WORKLOAD]
    tracer = LayerTracer()
    tracer.install()
    try:
        workload.prepare(args.seed).execute()
    finally:
        tracer.uninstall()
    traced = {layer: self_s
              for layer, (_, self_s) in tracer.layer_totals().items()}

    prepared = workload.prepare(args.seed)
    profiler = cProfile.Profile()
    profiler.runcall(prepared.execute)
    profiled = profile_layers(pstats.Stats(profiler))

    for title, totals in (("traced self time", traced),
                          ("cProfile own time by subpackage", profiled)):
        print("%s (s):" % title)
        for name in sorted(totals, key=lambda n: -totals[n])[:6]:
            print("  %-14s %8.3f" % (name, totals[name]))
    match = set(_top(traced)) == set(_top(profiled))
    print("top-%d traced %s, cProfile %s: %s"
          % (TOP, _top(traced), _top(profiled),
             "match" if match else "MISMATCH"))
    return 0 if match else 1


if __name__ == "__main__":
    sys.exit(main())
