"""Coverage for small helpers: words, capture, sessions, timeline spans."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.content import words
from repro.content.keywords import KeywordCatalog
from repro.measure.capture import PacketCapture, PacketEvent
from repro.measure.session import QuerySession
from repro.content.keywords import Keyword
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.topology import Topology
from repro.sim import units
from repro.sim.engine import Simulator
from repro.tcp.segment import Segment


# ---------------------------------------------------------------------------
# word pools
# ---------------------------------------------------------------------------
def test_word_pools_nonempty_and_disjoint_enough():
    assert len(words.POPULAR_TOPICS) >= 15
    assert len(words.TOPIC_NOUNS) >= 20
    assert len(words.UNCORRELATED_NOUNS) >= 15
    # Uncorrelated nouns must not overlap the topic nouns (they model
    # the paper's "computer and potato" mixtures).
    assert not set(words.UNCORRELATED_NOUNS) & set(words.TOPIC_NOUNS)
    assert "Videos" in words.STATIC_MENU_ITEMS
    assert "News" in words.STATIC_MENU_ITEMS


def test_catalog_classes_do_not_leak_rng_state():
    """Requesting one class must not perturb another (named streams)."""
    a = KeywordCatalog(seed=9)
    b = KeywordCatalog(seed=9)
    a.popular(50)  # extra draws on catalog a
    assert [k.text for k in a.complex(5)] == \
        [k.text for k in b.complex(5)]


# ---------------------------------------------------------------------------
# capture mechanics
# ---------------------------------------------------------------------------
def make_tcp_packet(sport=1234, dport=80, data=b"abc"):
    segment = Segment(sport=sport, dport=dport, seq=1, data=data,
                      ack_flag=True)
    return Packet(src="a", dst="b", protocol="tcp",
                  size_bytes=segment.wire_size, payload=segment)


def test_capture_attach_detach():
    sim = Simulator()
    topo = Topology(sim)
    node_a = topo.add_node("a")
    topo.add_node("b")
    topo.connect("a", "b", delay=0.001, bandwidth=units.mbps(10))
    topo.build_routes()
    capture = PacketCapture(sim, node_a)
    node_a.send(make_tcp_packet())
    sim.run()
    assert len(capture.events) == 1
    assert capture.events[0].direction == "out"
    capture.detach()
    node_a.send(make_tcp_packet())
    sim.run()
    assert len(capture.events) == 1  # no longer recording
    capture.attach()
    capture.attach()  # idempotent
    node_a.send(make_tcp_packet())
    sim.run()
    assert len(capture.events) == 2
    capture.clear()
    assert capture.events == []


def test_capture_ignores_non_tcp_packets():
    sim = Simulator()
    topo = Topology(sim)
    node_a = topo.add_node("a")
    topo.add_node("b")
    topo.connect("a", "b", delay=0.001, bandwidth=units.mbps(10))
    topo.build_routes()
    capture = PacketCapture(sim, node_a)
    node_a.send(Packet(src="a", dst="b", protocol="ping", size_bytes=10))
    sim.run()
    assert capture.events == []


def test_packet_event_describe_and_flags():
    event = PacketEvent(time=1.5, direction="out", src="a", dst="b",
                        sport=1, dport=2, wire_size=40, payload_len=0,
                        seq=10, ack=20, syn=True, fin=False,
                        ack_flag=True, retransmit=False)
    text = event.describe()
    assert "a:1" in text and "b:2" in text
    assert "S" in text
    assert not event.is_pure_ack  # SYN present
    assert event.local_port == 1


def test_capture_flow_filter_window():
    sim = Simulator()
    topo = Topology(sim)
    node_a = topo.add_node("a")
    topo.add_node("b")
    topo.connect("a", "b", delay=0.001, bandwidth=units.mbps(10))
    topo.build_routes()
    capture = PacketCapture(sim, node_a)
    sim.schedule(1.0, node_a.send, make_tcp_packet(sport=1111))
    sim.schedule(2.0, node_a.send, make_tcp_packet(sport=2222))
    sim.run()
    assert len(capture.flow_events(1111)) == 1
    assert len(capture.flow_events(2222, start=1.5)) == 1
    assert capture.flow_events(2222, start=0.0, end=1.5) == []


#: The capture's per-port index against the linear scan it replaced.
_PORTS = (1111, 2222, 3333)
_times = st.floats(0.0, 3.0, allow_nan=False)
_observe_step = st.tuples(st.just("observe"), st.sampled_from(("send",
                                                               "recv")),
                          st.sampled_from(_PORTS), _times)
_inject_step = st.tuples(st.just("inject"), st.lists(
    st.tuples(st.sampled_from(("out", "in")), st.sampled_from(_PORTS),
              _times), max_size=4))
_drop_step = st.tuples(st.just("drop"), _times)
_clear_step = st.tuples(st.just("clear"))


def _linear_scan(capture, port, start, end):
    return [e for e in capture.events
            if e.local_port == port and start <= e.time < end]


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(st.one_of(_observe_step, _observe_step, _inject_step,
                                _drop_step, _clear_step), max_size=25),
       windows=st.lists(st.tuples(_times, _times), min_size=1, max_size=3))
def test_flow_events_index_matches_linear_scan(steps, windows):
    sim = Simulator()
    node = Node(sim, "a")
    capture = PacketCapture(sim, node)
    for step in steps:
        kind = step[0]
        if kind == "observe":
            _, event, port, delay = step
            # The far end's port is another watched port, so a packet
            # is indexed under its local port only.
            other = _PORTS[(_PORTS.index(port) + 1) % len(_PORTS)]
            sport, dport = (port, other) if event == "send" \
                else (other, port)
            sim.schedule(delay, node._notify, event,
                         make_tcp_packet(sport=sport, dport=dport))
            sim.run()
        elif kind == "inject":
            capture.inject([PacketEvent(
                time=time, direction=direction, src="a", dst="b",
                sport=port if direction == "out" else 80,
                dport=80 if direction == "out" else port,
                wire_size=40, payload_len=0, seq=0, ack=0, syn=False,
                fin=False, ack_flag=True, retransmit=False)
                for direction, port, time in step[1]])
        elif kind == "drop":
            capture.drop_before(sim.now + step[1] - 1.5)
        else:
            capture.clear()
        for port in _PORTS:
            assert capture.flow_events(port) == \
                _linear_scan(capture, port, 0.0, float("inf"))
            for back, width in windows:
                start = sim.now - back
                end = start + width
                assert capture.flow_events(port, start, end) == \
                    _linear_scan(capture, port, start, end)


# ---------------------------------------------------------------------------
# session helpers
# ---------------------------------------------------------------------------
def test_session_duration_and_filters():
    session = QuerySession(
        query_id="q", service="svc", vp_name="vp", fe_name="fe",
        keyword=Keyword(text="k", popularity=0.5, complexity=0.5),
        started_at=1.0)
    assert not session.complete
    assert session.duration is None
    session.completed_at = 3.5
    assert session.complete
    assert session.duration == 2.5
    session.failed = "boom"
    assert not session.complete

    inbound = PacketEvent(time=2.0, direction="in", src="fe", dst="vp",
                          sport=80, dport=5000, wire_size=140,
                          payload_len=100, seq=1, ack=1, syn=False,
                          fin=False, ack_flag=True, retransmit=False)
    outbound = PacketEvent(time=1.0, direction="out", src="vp", dst="fe",
                           sport=5000, dport=80, wire_size=40,
                           payload_len=0, seq=1, ack=0, syn=True,
                           fin=False, ack_flag=False, retransmit=False)
    session.events = [outbound, inbound]
    assert session.inbound_data_events() == [inbound]
    assert session.outbound_events() == [outbound]


# ---------------------------------------------------------------------------
# sites helpers
# ---------------------------------------------------------------------------
def test_metro_hubs_are_subset():
    from repro.testbed.sites import METROS, google_like_fe_sites
    hub_names = {m.name for m in METROS if m.hub}
    site_names = {name for name, _ in google_like_fe_sites()}
    assert site_names == hub_names
