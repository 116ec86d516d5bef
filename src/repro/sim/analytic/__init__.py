"""Closed-form (fluid) session modeling and tiered campaign execution.

The packet engine is the referee: every session *can* be simulated at
packet level.  But for admitted sessions — isolated on their front-end,
loss-free, jitter-free, default TCP knobs, keyed service draws — the
full packet timeline is a closed-form function of the resolved query
parameters (RTTs, bandwidths, content sizes, MSS, initial window,
``Tproc``, FE load delay).  :mod:`repro.sim.analytic` evaluates that
function directly:

* :mod:`~repro.sim.analytic.model` — slow-start ramp arithmetic over
  fluid FIFO links, producing the exact per-segment schedule;
* :mod:`~repro.sim.analytic.predictor` — resolves a query's parameters
  against a scenario and emits a replayable
  :class:`~repro.sim.replay.timeline.RecordedTimeline`;
* :mod:`~repro.sim.analytic.gate` — deterministic validation sampling
  and the divergence gate that demotes a stratum back to packet-level
  simulation when predictions drift beyond tolerance;
* :mod:`~repro.sim.analytic.manager` — the analytic timeline source:
  :class:`TieredSessionManager` is the session executor of
  :mod:`repro.sim.replay` serving admitted sessions from predictions
  instead of recordings, with the packet engine as referee.
"""

from repro.sim.analytic.gate import DEFAULT_TOLERANCE, DivergenceGate
from repro.sim.analytic.manager import TieredSessionManager, tier_mode
from repro.sim.analytic.model import (
    LinkHorizon,
    SessionModel,
    SessionParams,
    predict_session,
)
from repro.sim.analytic.predictor import AnalyticPredictor

__all__ = [
    "AnalyticPredictor",
    "DEFAULT_TOLERANCE",
    "DivergenceGate",
    "LinkHorizon",
    "SessionModel",
    "SessionParams",
    "TieredSessionManager",
    "predict_session",
    "tier_mode",
]
