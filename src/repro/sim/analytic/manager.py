"""The tiered campaign executor: analytic bulk, packet-level referee.

:class:`TieredSessionManager` is the session executor of
:mod:`repro.sim.replay.manager` with its timeline source swapped: the
analytic prediction instead of the recorded timeline.  Drivers route
every query submission through :meth:`TieredSessionManager.submit` and
the manager decides, per submission, between

* **bypass** — an admission rule (campaign, path, analytic-path, or
  temporal) failed; packet-simulate and count the reason;
* **validate** — admissible, but the gate's deterministic sample picked
  this submission: packet-simulate it, then compare the analytic
  prediction's landmarks against the trace and demote the stratum on
  divergence;
* **analytic** — skip the packet engine entirely; the closed-form
  prediction is injected through the executor's one injector, the
  same a cache hit uses, replicating every observable side effect.

All tier decisions are stratum-local and seeded, so a sharded campaign
(whose partition keeps strata whole) makes the same decisions as a
serial one, bit for bit.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Optional

from repro.measure.session import QuerySession
from repro.obs import runtime as _obs
from repro.obs.metrics import SCOPE_SIM
from repro.sim.analytic.gate import (
    DEFAULT_TOLERANCE,
    DEFAULT_VALIDATE_EVERY,
    DivergenceGate,
    landmark_divergences,
)
from repro.sim.analytic.predictor import AnalyticPredictor, analytic_path_reason
from repro.sim.replay.admission import SubmissionSchedule
from repro.sim.replay.manager import SessionReplayManager

#: Valid values for the campaign tier policy.
TIER_MODES = ("packet", "analytic", "auto")

#: Histogram bounds for per-landmark divergence observations.  Centered
#: on the gate tolerance (2.5e-7 s) so the exported histograms show at
#: a glance whether predictions sit at float noise or near demotion.
DIVERGENCE_BOUNDS = (1e-10, 1e-9, 1e-8, 1e-7, 2.5e-7,
                     1e-6, 1e-5, 1e-4, 1e-3)  # simlint: unit[s]


def tier_mode(explicit: Optional[str] = None) -> str:
    """Resolve the campaign tier policy (explicit > env > packet).

    The ``REPRO_TIER`` env var supplies the default; the CLI's
    ``--tier`` flag sets it.  ``packet`` keeps the existing behavior.
    """
    value = explicit if explicit is not None \
        else os.environ.get("REPRO_TIER", "")
    value = value.strip().lower() or "packet"
    if value not in TIER_MODES:
        raise ValueError("tier must be one of %s, got %r"
                         % ("/".join(TIER_MODES), value))
    return value


class TieredSessionManager(SessionReplayManager):
    """Per-campaign tier orchestration (modes ``analytic`` / ``auto``).

    ``auto`` runs the full gate policy — per-stratum seeded validation
    samples plus divergence demotion.  ``analytic`` trusts the model
    outright (no validation packets at all); admission bypasses still
    packet-simulate in both modes, so inadmissible sessions are always
    ground truth.  Every stats increment is mirrored as a sim-scope
    ``tier.*`` obs counter: tier decisions are stratum-local, so the
    counters are identical between serial and sharded runs.
    """

    stats_field = "tier"

    def __init__(self, scenario, schedule: SubmissionSchedule, *,
                 mode: str = "auto",
                 tolerance: float = DEFAULT_TOLERANCE,
                 validate_every: int = DEFAULT_VALIDATE_EVERY,
                 store_payload: bool = False,
                 run_timeout: Optional[float] = None):
        if mode not in ("analytic", "auto"):
            raise ValueError(
                "mode must be 'analytic' or 'auto' (use the plain "
                "replay/simulation path for 'packet'), got %r" % (mode,))
        super().__init__(scenario, schedule, store_payload=store_payload,
                         run_timeout=run_timeout)
        self.mode = mode
        self.predictor = AnalyticPredictor(scenario)
        self.gate = DivergenceGate(
            scenario.streams.seed, tolerance=tolerance,
            validate_every=(validate_every if mode == "auto" else None))

    # ------------------------------------------------------------------
    def submit(self, emulator, service_name: str, frontend,
               keyword) -> QuerySession:
        """Submit one query through the tier policy."""
        self._drain()
        reason = self._bypass_reason(emulator, service_name, frontend)
        stratum = (service_name, frontend.node.name, emulator.vp.name)
        if reason is None and self.gate.demoted(stratum):
            reason = "gate-demoted"
        if reason is not None:
            return self._bypass(emulator, service_name, frontend,
                                keyword, reason)

        guard = self._guard(emulator, service_name, frontend)
        prediction, reason = self.predictor.predict(
            service_name, frontend, emulator.vp.name, keyword,
            emulator.peek_query_id(), guard)
        if prediction is None:
            return self._bypass(emulator, service_name, frontend,
                                keyword, reason)

        if self.gate.decide(stratum) == "validate":
            self.stats.validations += 1
            self._count("validations")
            session = self._simulate(emulator, service_name, frontend,
                                     keyword, guard)
            self._pending.append((session, partial(
                self._settle_sample, session, stratum, prediction,
                emulator.tcp_host)))
            return session

        self.stats.analytic += 1
        self._count("analytic_sessions")
        return self._replay(emulator, service_name, frontend, keyword,
                            prediction.timeline)

    # ------------------------------------------------------------------
    # the analytic source
    # ------------------------------------------------------------------
    def _path_reason(self, service_name: str, frontend,
                     vp_name: str) -> Optional[str]:
        return super()._path_reason(service_name, frontend, vp_name) \
            or analytic_path_reason(self.scenario, service_name, frontend)

    def _warming_up(self, service_name: str, frontend, vp_name: str,
                    now: float) -> bool:
        # The FE-BE pool handshakes may still occupy those links.
        path = self.predictor.path(service_name, frontend, vp_name)
        return now < path.warmup_horizon

    def _count(self, name: str) -> None:
        if _obs.enabled:
            _obs.metrics.inc("tier.%s" % name, scope=SCOPE_SIM)

    def _settle_sample(self, session: QuerySession, stratum: tuple,
                       prediction, tcp_host) -> None:
        """Compare a validation sample's landmarks with the prediction."""
        if session.completed_at is None or session.failed is not None \
                or not session.events:
            # The model predicted a completion the packet engine never
            # delivered: unconditionally divergent.
            divergences = {"te": float("inf")}
        else:
            divergences = landmark_divergences(session, prediction,
                                               tcp_host)
            if _obs.enabled:
                for name, value in divergences.items():
                    _obs.metrics.observe(
                        "tier.divergence.%s" % name, value,
                        bounds=DIVERGENCE_BOUNDS, scope=SCOPE_SIM)
        diverged, demoted_now = self.gate.observe(stratum, divergences)
        if diverged:
            self.stats.divergences += 1
            self._count("divergences")
        if demoted_now:
            self.stats.demotions += 1
            self._count("demotions")
