"""The in-house search query emulator.

The paper: "we develop an in-house user search query emulator, which
performs exactly the same functionality as the web-based search box".
:class:`QueryEmulator` does the same against the simulated services: it
issues one GET per query on a *fresh* TCP connection (as browsers of the
era did for search result pages) toward a chosen front-end server,
captures the packet trace of that connection, and packages everything
into a :class:`~repro.measure.session.QuerySession`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.content.keywords import Keyword
from repro.http.client import HttpFetch, RequestHooks
from repro.http.message import HttpRequest, build_query_path
from repro.measure.capture import PacketCapture
from repro.measure.session import QuerySession
from repro.services.frontend import FRONTEND_PORT, FrontEndServer
from repro.net.address import Endpoint
from repro.testbed.scenario import Scenario
from repro.testbed.vantage import VantagePoint

#: Query ids are namespaced by vantage point (ids must be globally
#: unique: they key the ground-truth fetch/query logs) and use a fixed
#: width counter so request sizes stay stable across a campaign.
_QUERY_ID_TEMPLATE = "q-%s-%06d"


class QueryEmulator:
    """Issues search queries from one vantage point."""

    def __init__(self, scenario: Scenario, vp: VantagePoint,
                 store_payload: bool = False):
        self.scenario = scenario
        self.vp = vp
        self.tcp_host = scenario.client_host(vp)
        self.capture = PacketCapture(scenario.sim, self.tcp_host.node,
                                     store_payload=store_payload)
        self.sessions: List[QuerySession] = []
        self._counter = 0

    # ------------------------------------------------------------------
    def next_query_id(self) -> str:
        self._counter += 1
        return _QUERY_ID_TEMPLATE % (self.vp.name, self._counter)

    def peek_query_id(self) -> str:
        """The id :meth:`next_query_id` will return next, without
        consuming it.

        The session-replay cache fingerprints a submission *before*
        deciding whether to simulate it, and the fingerprint includes
        query-id-keyed service draws — so it must know the id the
        emulator is about to assign.
        """
        return _QUERY_ID_TEMPLATE % (self.vp.name, self._counter + 1)

    def submit(self, service_name: str, frontend: FrontEndServer,
               keyword: Keyword,
               query_id: Optional[str] = None) -> QuerySession:
        """Issue one query; returns the (initially incomplete) session.

        The caller must have linked the vantage point to ``frontend``
        (see :meth:`Scenario.link_client_to_frontend`) and should run the
        simulator afterwards; the session fills itself in as the
        response arrives.
        """
        service = self.scenario.service(service_name)
        service.register_keywords([keyword])
        query_id = query_id or self.next_query_id()
        session = QuerySession(
            query_id=query_id,
            service=service_name,
            vp_name=self.vp.name,
            fe_name=frontend.node.name,
            keyword=keyword,
            started_at=self.scenario.sim.now,
            path_rtt=self.scenario.client_fe_rtt(self.vp, frontend,
                                                 service))
        path = build_query_path("/search", {"q": keyword.text,
                                            "id": query_id})
        hooks = RequestHooks(
            on_complete=lambda response: self._complete(session, response),
            on_failure=lambda message: self._fail(session, message))
        fetch = HttpFetch(self.tcp_host,
                          Endpoint(frontend.node.name, FRONTEND_PORT),
                          HttpRequest(path=path,
                                      headers={"Host": service_name}),
                          hooks)
        session.local_port = fetch.conn.flow.local.port
        self.sessions.append(session)
        return session

    def submit_default(self, service_name: str,
                       keyword: Keyword) -> QuerySession:
        """Resolve the default FE via DNS, link, and submit."""
        frontend, _ = self.scenario.connect_default(service_name, self.vp)
        return self.submit(service_name, frontend, keyword)

    # ------------------------------------------------------------------
    def _complete(self, session: QuerySession, response) -> None:
        session.completed_at = self.scenario.sim.now
        session.response_size = len(response.body)
        self._harvest(session)

    def _fail(self, session: QuerySession, message: str) -> None:
        session.failed = message
        session.completed_at = self.scenario.sim.now
        self._harvest(session)

    def _harvest(self, session: QuerySession) -> None:
        """Slice this session's packets out of the host-wide capture."""
        session.events = self.capture.flow_events(
            session.local_port, start=session.started_at,
            end=self.scenario.sim.now + 1e-9)

    def drop_capture_before(self, time: float) -> None:
        """Free memory: forget packets captured before ``time``.

        Long campaigns call this after harvesting each batch.
        """
        self.capture.drop_before(time)
