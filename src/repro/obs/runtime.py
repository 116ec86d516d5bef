"""Process-wide observability switch and singletons.

Instrumentation sites throughout the stack (engine, TCP, links,
services, drivers) are guarded by one module-level boolean::

    from repro.obs import runtime as _obs
    ...
    if _obs.enabled:
        _obs.metrics.inc("tcp.retransmissions")

Reading a module attribute is the cheapest guard Python offers, and
every guard sits on a *rare* path (a retransmit, a loss, a completed
request) — never inside the per-event dispatch loop — so the disabled
configuration adds no measurable overhead (benchmarked in
``benchmarks/test_bench_microperf.py``).

The switch initialises from the ``REPRO_TRACE`` environment variable:
unset/``0``/``off``/``false``/``no`` leave tracing disabled; any other value enables it,
and a value that is not simply ``1``/``on``/``true``/``yes`` is also
taken as the JSONL export path by the CLI.  Worker processes created
by :mod:`repro.parallel` inherit the flag via fork and additionally
re-assert it from their shard spec (see ``parallel.campaigns``).
"""

from __future__ import annotations

import os
from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

_FALSY = ("", "0", "off", "false", "no")
_BARE_TRUTHY = ("1", "on", "true", "yes")


def env_setting() -> Optional[str]:
    """The raw ``REPRO_TRACE`` value, or None when unset/falsy."""
    value = os.environ.get("REPRO_TRACE", "")
    if value.strip().lower() in _FALSY:
        return None
    return value


def env_trace_path() -> Optional[str]:
    """A JSONL export path carried in ``REPRO_TRACE``, if any.

    Bare truthy values ("1", "on", ...) enable tracing without implying
    an export file; anything else names the file to write.
    """
    value = env_setting()
    if value is None or value.strip().lower() in _BARE_TRUTHY:
        return None
    return value


#: Master switch.  Mutable module attribute, read (not imported) at
#: every instrumentation site so enable()/disable() take effect
#: everywhere immediately.
enabled: bool = env_setting() is not None

#: Process-wide singletons.  They exist even while disabled (cheap:
#: empty dicts/lists) so guards stay one-line.
tracer = Tracer()
metrics = MetricsRegistry()


def enable() -> None:
    global enabled
    # Shard workers re-assert the flag on purpose: the switch is
    # per-process, and parallel/campaigns merges recorded data through
    # the snapshot/absorb protocol, never through this module's state.
    enabled = True  # simlint: ignore[SHARD001]


def disable() -> None:
    global enabled
    enabled = False


def reset() -> None:
    """Drop all recorded spans and metrics (keeps the switch as-is)."""
    tracer.clear()
    metrics.clear()


def configure_from_env() -> None:
    """Re-read ``REPRO_TRACE`` (e.g. after the CLI mutates environ)."""
    global enabled
    enabled = env_setting() is not None
