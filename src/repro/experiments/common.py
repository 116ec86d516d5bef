"""Shared machinery for the figure-reproduction experiments.

Every experiment runner follows the same recipe:

1. build a (scaled) :class:`~repro.testbed.scenario.Scenario`;
2. run a small *calibration* campaign with payload capture to locate the
   static/dynamic boundary per service (the content analysis);
3. run the measurement campaign proper (payloads off);
4. extract metrics and compute the figure's data series.

``ExperimentScale`` lets benchmarks run the same experiments at reduced
size while keeping the paper-scale parameters one constant away.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.analysis.boundary import BoundaryCalibration
from repro.content.keywords import Keyword
from repro.measure.emulator import QueryEmulator
from repro.measure.session import QuerySession
from repro.services.frontend import FrontEndServer
from repro.sim import units
from repro.testbed.scenario import Scenario, ScenarioConfig
from repro.testbed.sites import Metro
from repro.testbed.vantage import VantagePoint

#: Keywords used for boundary calibration.  First words differ so the
#: content diff converges quickly.
CALIBRATION_KEYWORDS = (
    Keyword(text="network measurement studies", popularity=0.4,
            complexity=0.4),
    Keyword(text="distributed systems research", popularity=0.4,
            complexity=0.4),
    Keyword(text="protocol performance analysis", popularity=0.4,
            complexity=0.4),
)

#: Calibration query ids: a namespace of their own beside the emulator's
#: ``q-<vp>-<n>``, at the same width so request sizes match.  A
#: calibration issued after a campaign on the campaign's vantage point
#: must not reuse its query ids: the FE fetch log is keyed by them, and
#: a reused id would replace the campaign's ground-truth record.
_CALIBRATION_ID_TEMPLATE = "c-%s-%06d"


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs trading fidelity for runtime.

    ``paper`` reproduces the study's sample sizes; ``small`` keeps every
    qualitative shape at benchmark-friendly cost.
    """

    vantage_count: int = 60
    repeats: int = 12
    interval: float = 2.0
    fig3_samples: int = 120
    fig9_repeats: int = 48
    seed: int = 0

    @classmethod
    def small(cls, seed: int = 0) -> "ExperimentScale":
        return cls(seed=seed)

    @classmethod
    def tiny(cls, seed: int = 0) -> "ExperimentScale":
        """Minimum scale that still produces the shapes (CI-friendly)."""
        return cls(vantage_count=24, repeats=5, interval=1.0,
                   fig3_samples=40, fig9_repeats=24, seed=seed)

    @classmethod
    def paper(cls, seed: int = 0) -> "ExperimentScale":
        """The 2011 campaign's size: ~240 nodes, 500-720 repeats."""
        return cls(vantage_count=240, repeats=720, interval=10.0,
                   fig3_samples=500, fig9_repeats=120, seed=seed)

    def with_overrides(self, **kwargs) -> "ExperimentScale":
        return replace(self, **kwargs)


def build_scenario(scale: ExperimentScale, **config_overrides) -> Scenario:
    """Standard two-service scenario at the requested scale."""
    config = ScenarioConfig(seed=scale.seed,
                            vantage_count=scale.vantage_count,
                            **config_overrides)
    return Scenario(config)


def calibrate_service(scenario: Scenario, service_name: str,
                      frontends: Optional[Sequence[FrontEndServer]] = None,
                      vp: Optional[VantagePoint] = None
                      ) -> BoundaryCalibration:
    """Run the content-analysis calibration for one service.

    Issues the calibration keywords (payload capture on) from one
    vantage point against each front-end in ``frontends`` (default: the
    vantage point's default FE), then builds the per-FE boundary table.
    """
    vp = vp or scenario.vantage_points[0]
    service = scenario.service(service_name)
    emulator = QueryEmulator(scenario, vp, store_payload=True)
    targets = list(frontends) if frontends else \
        [scenario.default_frontend(service_name, vp)]
    sessions = []
    for frontend in targets:
        scenario.link_client_to_frontend(vp, frontend, service)
        for keyword in CALIBRATION_KEYWORDS:
            query_id = _CALIBRATION_ID_TEMPLATE % (vp.name,
                                                   len(sessions) + 1)
            sessions.append(emulator.submit(service_name, frontend,
                                            keyword, query_id=query_id))
    scenario.sim.run()
    incomplete = [s for s in sessions if not s.complete]
    if incomplete:
        raise RuntimeError("calibration queries failed: %s"
                           % [s.query_id for s in incomplete])
    return BoundaryCalibration.from_sessions(sessions)


def calibrate_frontends_used(scenario: Scenario, service_name: str,
                             sessions: Sequence[QuerySession],
                             vp: Optional[VantagePoint] = None
                             ) -> BoundaryCalibration:
    """Calibrate exactly the front-ends a campaign touched."""
    service = scenario.service(service_name)
    fe_names = sorted({s.fe_name for s in sessions
                       if s.service == service_name})
    frontends = [service.frontend_by_name(name) for name in fe_names]
    return calibrate_service(scenario, service_name, frontends, vp)


def colocated_vantage_point(scenario: Scenario, metro: Metro,
                            tag: str) -> VantagePoint:
    """Create a low-RTT client inside ``metro`` (campus-like access)."""
    rng = scenario.streams.get("colocated/%s" % tag)
    vp = VantagePoint(
        name="probe-%s-%s" % (tag, metro.name),
        metro=metro,
        location=metro.location,
        access_delay=units.ms(rng.uniform(1.0, 2.0)),
        peering_penalty=units.ms(rng.uniform(3.0, 6.0)))
    return scenario.add_vantage_point(vp)


def sessions_by_fe(sessions: Sequence[QuerySession]
                   ) -> Dict[str, List[QuerySession]]:
    """Group sessions by the front-end that served them."""
    grouped: Dict[str, List[QuerySession]] = {}
    for session in sessions:
        grouped.setdefault(session.fe_name, []).append(session)
    return grouped
