"""Replicated-effects contract for the session fast paths.

GENERATED FILE - do not edit by hand.  Regenerate with::

    python -m repro.lint src --emit-effects

A replay hit (:mod:`repro.sim.replay`) or analytic injection
(:mod:`repro.sim.analytic`) never drives :mod:`repro.tcp`
packet-by-packet, so every side effect a simulated session
leaves behind must be replicated explicitly by the session
executor's one injector.  The signatures below are derived by
:mod:`repro.lint.effectflow` as the intersection of the
replication roots' effect closures, restricted to signatures
with at least one session-path site; the EFF004 simlint rule
fails when this file no longer matches the derivation, and
EFF001 names any session-path effect the closures miss.

Signature syntax: a bare name means "a call to a method of
that name" (``register_keywords``); a trailing ``[]`` means "a
subscript store into an attribute of that name"
(``fetch_log[]``).
"""

from __future__ import annotations

#: Session-path effect signatures replicated on a fast-path
#: hit, with the module(s) performing each one.
REPLICATED_EFFECTS = (
    # src/repro/services/frontend.py
    "fetch_log[]",
    # src/repro/services/backend.py
    "query_log[]",
    # src/repro/services/backend.py
    "register",
    # src/repro/services/deployment.py
    "register_all",
    # src/repro/measure/emulator.py
    "register_keywords",
    # src/repro/tcp/host.py
    "reserve_port",
)
