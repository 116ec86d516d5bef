"""Tests for capture, the query emulator, and the campaign drivers."""

import pytest

from repro.content.keywords import Keyword, KeywordCatalog
from repro.experiments.common import calibrate_frontends_used
from repro.measure.driver import (
    run_dataset_a,
    run_dataset_b,
    run_single_queries,
)
from repro.measure.emulator import QueryEmulator
from repro.testbed.scenario import Scenario, ScenarioConfig


def kw(text="probe query", popularity=0.5, complexity=0.5):
    return Keyword(text=text, popularity=popularity, complexity=complexity)


@pytest.fixture
def scenario():
    return Scenario(ScenarioConfig(seed=6, vantage_count=8))


def test_single_query_session_end_to_end(scenario):
    vp = scenario.vantage_points[0]
    emulator = QueryEmulator(scenario, vp, store_payload=True)
    session = emulator.submit_default(Scenario.GOOGLE, kw())
    scenario.sim.run()
    assert session.complete
    assert session.duration > 0
    assert session.response_size > 10_000
    assert session.local_port >= 49152
    assert session.path_rtt > 0

    events = session.events
    assert events, "session must carry a packet trace"
    # First event is the outbound SYN.
    assert events[0].direction == "out" and events[0].syn
    # There is an inbound SYN-ACK.
    assert any(e.direction == "in" and e.syn and e.ack_flag for e in events)
    # Inbound data bytes total at least the response size.
    inbound_payload = sum(e.payload_len for e in session.inbound_data_events())
    assert inbound_payload >= session.response_size
    # Payload bytes stored on request.
    assert any(e.payload for e in session.inbound_data_events())


def test_capture_payload_storage_optional(scenario):
    vp = scenario.vantage_points[1]
    emulator = QueryEmulator(scenario, vp, store_payload=False)
    session = emulator.submit_default(Scenario.GOOGLE, kw())
    scenario.sim.run()
    assert session.complete
    assert all(e.payload is None for e in session.events)
    assert any(e.payload_len > 0 for e in session.events)


def test_sessions_are_isolated_per_connection(scenario):
    vp = scenario.vantage_points[2]
    emulator = QueryEmulator(scenario, vp)
    s1 = emulator.submit_default(Scenario.GOOGLE, kw("first"))
    s2 = emulator.submit_default(Scenario.BING, kw("second"))
    scenario.sim.run()
    assert s1.complete and s2.complete
    assert s1.local_port != s2.local_port
    ports_1 = {e.local_port for e in s1.events}
    ports_2 = {e.local_port for e in s2.events}
    assert ports_1 == {s1.local_port}
    assert ports_2 == {s2.local_port}


def test_dataset_a_runs_all_nodes_and_services(scenario):
    keywords = KeywordCatalog(seed=1).figure3_set()
    dataset = run_dataset_a(scenario, keywords, repeats=2, interval=2.0)
    expected = len(scenario.vantage_points) * 2 * 2  # vps x repeats x services
    assert len(dataset.sessions) == expected
    assert all(s.complete for s in dataset.sessions)
    # Default FE map covers every (vp, service).
    assert len(dataset.default_fe) == len(scenario.vantage_points) * 2
    google = dataset.for_service(Scenario.GOOGLE)
    assert len(google) == expected / 2
    vp0 = scenario.vantage_points[0].name
    assert len(dataset.for_vp(vp0)) == 4
    assert len(dataset.for_vp(vp0, Scenario.BING)) == 2


def test_calibration_keeps_campaign_fetch_records(scenario):
    """A calibration run after a campaign, from the campaign's first
    vantage point, must not replace the campaign's ground truth."""
    keywords = KeywordCatalog(seed=1).figure3_set()
    dataset = run_dataset_a(scenario, keywords, repeats=2, interval=2.0)
    truth = {name: scenario.service(name).merged_fetch_log()
             for name in scenario.services}
    for name in scenario.services:
        calibrate_frontends_used(scenario, name, dataset.for_service(name))
    for name in scenario.services:
        after = scenario.service(name).merged_fetch_log()
        campaign = [s.query_id for s in dataset.for_service(name)]
        assert campaign and all(query_id in truth[name]
                                for query_id in campaign)
        assert all(after[query_id] is truth[name][query_id]
                   for query_id in campaign)


def test_dataset_b_fixed_fe(scenario):
    service = scenario.service(Scenario.BING)
    frontend = service.frontends[0]
    dataset = run_dataset_b(scenario, Scenario.BING, frontend, kw("fixed"),
                            repeats=3, interval=1.0)
    assert dataset.fe_name == frontend.node.name
    assert len(dataset.sessions) == len(scenario.vantage_points) * 3
    assert all(s.fe_name == frontend.node.name for s in dataset.sessions)
    assert all(s.complete for s in dataset.sessions)
    vp0 = scenario.vantage_points[0].name
    assert len(dataset.for_vp(vp0)) == 3


def test_run_single_queries_assignments(scenario):
    service = scenario.service(Scenario.GOOGLE)
    frontend = service.frontends[0]
    assignments = [(vp, kw("unique-%d" % i))
                   for i, vp in enumerate(scenario.vantage_points[:5])]
    sessions = run_single_queries(scenario, Scenario.GOOGLE, frontend,
                                  assignments, spacing=0.5)
    assert len(sessions) == 5
    assert all(s.complete for s in sessions)
    assert len({s.keyword.text for s in sessions}) == 5
    # Sequential spacing respected.
    starts = sorted(s.started_at for s in sessions)
    assert starts[1] - starts[0] == pytest.approx(0.5)


def test_dataset_a_rejects_empty_keywords(scenario):
    with pytest.raises(ValueError):
        run_dataset_a(scenario, [])
