"""Client-side packet capture (the simulated tcpdump).

A :class:`PacketCapture` attaches to a node as a tap and records one
:class:`PacketEvent` per packet the node sends or receives — timestamp,
direction, addressing, TCP flags/sequence numbers, and (optionally) the
payload bytes.  The analysis pipeline consumes *only* these events, never
simulator internals, mirroring how the paper works exclusively from
tcpdump traces.

Payload storage is optional because large campaigns (hundreds of nodes x
hundreds of queries) don't need bodies for every query: the content
analysis that locates the static/dynamic boundary runs on a small
calibration set with payloads on, after which temporal classification
needs only sequence numbers.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.net.node import Node
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.tcp.segment import Segment


class PacketEvent:
    """One captured packet, as tcpdump would log it.

    A manual ``__slots__`` class (not a dataclass): one instance is
    appended per packet per tapped host, which makes its constructor a
    measurement-campaign hot path.
    """

    __slots__ = ("time", "direction", "src", "dst", "sport", "dport",
                 "wire_size", "payload_len", "seq", "ack", "syn", "fin",
                 "ack_flag", "retransmit", "payload")

    def __init__(self, time: float, direction: str, src: str, dst: str,
                 sport: int, dport: int, wire_size: int, payload_len: int,
                 seq: int, ack: int, syn: bool, fin: bool, ack_flag: bool,
                 retransmit: bool, payload: Optional[bytes] = None):
        self.time = time
        self.direction = direction  # "out" or "in"
        self.src = src
        self.dst = dst
        self.sport = sport
        self.dport = dport
        self.wire_size = wire_size
        self.payload_len = payload_len
        self.seq = seq
        self.ack = ack
        self.syn = syn
        self.fin = fin
        self.ack_flag = ack_flag
        self.retransmit = retransmit
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<PacketEvent %s>" % self.describe()

    @property
    def is_pure_ack(self) -> bool:
        return (self.ack_flag and self.payload_len == 0
                and not self.syn and not self.fin)

    @property
    def local_port(self) -> int:
        """The captured host's port for this packet."""
        return self.sport if self.direction == "out" else self.dport

    def describe(self) -> str:
        """tcpdump-style one-liner."""
        arrow = ">" if self.direction == "out" else "<"
        flags = "".join(c for f, c in ((self.syn, "S"), (self.fin, "F"),
                                       (self.ack_flag, ".")) if f)
        return "%.6f %s %s:%d %s %s:%d [%s] seq=%d ack=%d len=%d" % (
            self.time, arrow, self.src, self.sport, arrow,
            self.dst, self.dport, flags, self.seq, self.ack,
            self.payload_len)


class PacketCapture:
    """Tap-based packet recorder for one host."""

    def __init__(self, sim: Simulator, node: Node,
                 store_payload: bool = False):
        self.sim = sim
        self.node = node
        self.store_payload = store_payload
        self.events: List[PacketEvent] = []
        #: local port -> that connection's events, in capture order.
        self._by_port: Dict[int, List[PacketEvent]] = {}
        self._tap: Optional[Callable] = None
        self.attach()

    def attach(self) -> None:
        if self._tap is not None:
            return
        self._tap = self._observe
        self.node.add_tap(self._tap)

    def detach(self) -> None:
        if self._tap is not None:
            self.node.remove_tap(self._tap)
            self._tap = None

    def clear(self) -> None:
        self.events.clear()
        self._by_port.clear()

    def drop_before(self, time: float) -> None:
        """Forget every event captured before ``time``."""
        self.events = [e for e in self.events if e.time >= time]
        self._by_port = {}
        self._index(self.events)

    def _index(self, events: List[PacketEvent]) -> None:
        by_port = self._by_port
        for event in events:
            by_port.setdefault(event.local_port, []).append(event)

    # ------------------------------------------------------------------
    def _observe(self, event: str, packet: Packet) -> None:
        if event not in ("send", "recv"):
            return
        segment = packet.payload
        if not isinstance(segment, Segment):
            return
        if event == "send":
            direction, port = "out", segment.sport
        else:
            direction, port = "in", segment.dport
        # The capture is the materialization boundary for zero-copy
        # segment payloads: bytes are synthesized from the wire's lazy
        # views here and only here.  With store_payload=False (the
        # default for measurement campaigns) payload travels the whole
        # simulated path length-only.
        captured = PacketEvent(
            time=self.sim.now,
            direction=direction,
            src=packet.src, dst=packet.dst,
            sport=segment.sport, dport=segment.dport,
            wire_size=packet.size_bytes,
            payload_len=len(segment.data),
            seq=segment.seq, ack=segment.ack,
            syn=segment.syn, fin=segment.fin,
            ack_flag=segment.ack_flag,
            retransmit=segment.retransmit,
            payload=bytes(segment.data) if self.store_payload else None)
        self.events.append(captured)
        self._by_port.setdefault(port, []).append(captured)

    # ------------------------------------------------------------------
    def inject(self, events: List[PacketEvent]) -> None:
        """Append pre-built events, as if the tap had observed them.

        Used by the session-replay cache to make a replayed session
        leave exactly the capture footprint its full simulation would
        have left.  The caller is responsible for event times: injected
        events should not be later than the simulation clock (the tap
        only ever appends at ``sim.now``, so per-port chronological
        order is preserved as long as injection happens at or after the
        last event's timestamp).
        """
        self.events.extend(events)
        self._index(events)

    # ------------------------------------------------------------------
    def flow_events(self, local_port: int,
                    start: float = 0.0,
                    end: float = float("inf")) -> List[PacketEvent]:
        """Events of one connection (by the host's local port), within a
        time window — the per-session trace slice."""
        return [e for e in self._by_port.get(local_port, ())
                if start <= e.time < end]
