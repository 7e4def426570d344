"""Deterministic desk-scale packet network simulator.

Virtual time is an integer microsecond counter driven by a single event
heap; ties break on insertion order, so a run is a pure function of its
inputs and seed.  Links serialize packets FIFO at their configured
capacity (octets per second) plus a fixed propagation delay, which
preserves the in-order, no-loss carrier contract the gateway pair
relies on.

Node kinds map to behaviors: hosts terminate traffic, answer service
requests statelessly, and optionally run a paced workload generator;
routers forward; monitors apply a first-match rule list, optional
address translation, and a checksum anomaly counter; covert gateways
wrap a fuse/extract engine around everything crossing toward or from
their peer.

Set-up computes every topology fact once per ``Simulation``: one
sorted adjacency map, one BFS per node for the next hops (the runs from
the gateways also keep the hop counts that decide which side of a
gateway pair a host sits on, for client targets and secret registries),
each node's address and MAC as an int and bytes, each monitor's rules
with their addresses resolved, and from the next hops one forwarding
table per node: destination address -> (pipe to the next hop, that
hop's receive function).

The per-hop contract: one hop is one heap event, ``(time, serial,
function, arguments)``, found with one lookup in the sender's table,
that calls the next node's receive function.  Each receive function is
made at set-up with its node's context resolved (a monitor's rules,
counters and NAT flows; a gateway's engine, side, secret registry, NAT
flag and peer-side addresses), so a hop neither branches on the kind
nor looks a node up by name.  A gateway with nothing to fuse, in a run
without the channel or without a peer, gets a router's function.  The
frame length travels with the event: only an origin, a host's reply or
a gateway that rebuilds the packet derives it again.

A ``Simulation`` keeps counters and running digests, never a record
per packet; a covert transfer keeps only its own sends, and leaves the
flow table, keyed by the port each transfer sends from, once finished.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import random
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, List, Optional, Set, Tuple

from . import packet as pk
from . import topology as topo_mod
from . import trace as trace_mod
from .engine import CovertGateway, DesyncError, EngineConfig, _child_seed

MICROS = 1_000_000

SERVICE_PORTS = {
    "http": 80,
    "tls": 443,
    "tcp": 9000,
}
UDP_SERVICE_PORT = 5353
SECRET_PORT = 9999
# Source ports a NAT gateway maps secret flows to, handed out cyclically.
_NAT_PORT_FIRST, _NAT_PORT_LAST = 61000, 0xFFFF
# Flow serials wrap so a workload source port, 20000 + 3 * serial + 2 at most, fits 16 bits.
_FLOW_SERIALS = (0xFFFF - 20000 - 2) // len(SERVICE_PORTS) + 1

# The most an echo request holds: an IPv4 packet's 65,535 octets less its 20-octet header and 8 of ICMP.
_MAX_ICMP_PAYLOAD = 65535 - 20 - 8

DEFAULT_MIX = {
    "http": 0.31,
    "tls": 0.15,
    "tcp": 0.18,
    "udp": 0.18,
    "icmp": 0.18,
}


class SimError(Exception):
    pass


@dataclass
class WorkloadSpec:
    """Visible-traffic shape for every workload-flagged host."""

    budget: int = 20_000  # octets per second per client
    mix: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_MIX))
    restart_every: int = 8  # requests per flow before a fresh handshake
    min_frame: int = 140
    max_frame: int = 1400
    icmp_payload: int = 56

    def validate(self) -> None:
        if self.budget <= 0:
            raise ValueError("workload budget must be positive")
        if set(self.mix) != set(DEFAULT_MIX):
            raise ValueError("mix must weight exactly %s" % sorted(DEFAULT_MIX))
        for kind, weight in self.mix.items():
            if not weight >= 0:  # so that NaN fails too
                raise ValueError("mix weight %s must not be negative, got %r" % (kind, weight))
        total = sum(self.mix.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError("mix weights must sum to 1, got %r" % total)
        if self.restart_every < 1:
            raise ValueError("restart_every must be at least 1")
        if not 0 < self.min_frame <= self.max_frame <= 1400:
            raise ValueError("frame bounds must satisfy 0 < min <= max <= 1400")
        if not 0 <= self.icmp_payload <= _MAX_ICMP_PAYLOAD:
            raise ValueError("icmp_payload must be 0 to %d octets, got %d" % (_MAX_ICMP_PAYLOAD, self.icmp_payload))


def parse_workload(text: str) -> WorkloadSpec:
    """``key = value`` lines, optionally under a ``[workload]`` header:
    the integer fields of ``WorkloadSpec`` and one weight per mix entry."""
    spec = WorkloadSpec()
    keys = [f.name for f in fields(WorkloadSpec) if f.name != "mix"] + list(spec.mix)
    for _, _, values in topo_mod.read_sections(text, {"workload": keys}, implicit="workload"):
        for key, (raw, line) in values.items():
            if key in spec.mix:
                spec.mix[key] = topo_mod.parse_float(raw, line, key)
            else:
                setattr(spec, key, topo_mod.parse_int(raw, line, key))
    spec.validate()
    return spec


def _child_rng(seed: int, name: str) -> random.Random:
    return random.Random(_child_seed(seed, name))


def _safe_isn(*parts) -> int:
    """Deterministic initial sequence number whose leading octet can
    never be mistaken for a synchronization header code."""
    h = _child_seed("isn", *parts)
    return ((0x40 | (h >> 56) & 0x3F) << 24) | (h & 0xFFFFFF)


_PROTO_NUMBERS = {"any": None, "tcp": pk.PROTO_TCP, "udp": pk.PROTO_UDP, "icmp": pk.PROTO_ICMP}


def _compile_rules(rules: List[topo_mod.RuleDef]) -> List[tuple]:
    """One node's ``rules`` in order as (index, action, protocol number,
    source, destination, destination port); ``None`` matches anything."""
    return [(
        index, rule.action, _PROTO_NUMBERS[rule.proto],
        None if rule.src == "any" else pk.str_to_ip(rule.src),
        None if rule.dst == "any" else pk.str_to_ip(rule.dst),
        rule.dst_port,
    ) for index, rule in enumerate(rules)]


def _nat_permits(flows: Set[tuple], pings: Set[tuple], outbound: bool, p: pk.ParsedPacket) -> bool:
    """Flow-tracking address translation: outbound traffic opens a mapping
    in ``flows`` or ``pings``, unsolicited inbound traffic is dropped."""
    key = pk.flow_key(p)
    if outbound:
        if key is not None:
            flows.add(key)
        elif p.icmp is not None and p.icmp.icmp_type == pk.ICMP_ECHO_REQUEST:
            pings.add((p.ipv4.src_ip, p.ipv4.dst_ip, p.icmp.identifier))
        return True
    if key is not None:
        return pk.reverse_flow_key(key) in flows
    if p.icmp is not None and p.icmp.icmp_type == pk.ICMP_ECHO_REPLY:
        return (p.ipv4.dst_ip, p.ipv4.src_ip, p.icmp.identifier) in pings
    return False


@dataclass(slots=True)
class _Pipe:
    src: str
    dst: str
    capacity: int  # octets per second
    delay_us: int = 0
    busy_until: int = 0
    carried_packets: int = 0
    carried_octets: int = 0

    def transit(self, now: int, size: int) -> int:
        start = now if now > self.busy_until else self.busy_until
        self.busy_until = start - (-size * MICROS // self.capacity)  # ceil of the transmission time
        self.carried_packets += 1
        self.carried_octets += size
        return self.busy_until + self.delay_us


@dataclass(slots=True)
class NodeStats:
    sent: int = 0
    received: int = 0
    forwarded: int = 0
    dropped: int = 0


@dataclass
class MonitorStats:
    rule_hits: Dict[int, int] = field(default_factory=dict)
    log_hits: int = 0
    rule_drops: int = 0
    default_drops: int = 0
    nat_drops: int = 0
    checksum_anomalies: int = 0
    addresses: Set[Tuple[int, int]] = field(default_factory=set)


@dataclass
class _FlowState:
    sport: int
    seq: int
    requests: int = 0


class _WorkloadClient:
    """Paced visible-traffic source bound to one host."""

    def __init__(self, sim: "Simulation", host: str, target: str, spec: WorkloadSpec, rng: random.Random):
        self.sim = sim
        self.host = host
        self.target = target
        self.spec = spec
        self.rng = rng
        self.flows: Dict[str, _FlowState] = {}
        self.flow_serial = 0
        self.emitted_octets = 0
        self.kind_counts: Dict[str, int] = {k: 0 for k in DEFAULT_MIX}
        self.icmp_seq = 0
        self.ping_id = _child_seed("ping", host) & 0x7FFF
        self.addresses = sim._addresses(host, target)

    def start(self, offset_us: int) -> None:
        self.sim._schedule(offset_us, self.tick)

    def _pick_kind(self) -> str:
        roll = self.rng.random()
        acc = 0.0
        for kind in ("http", "tls", "tcp", "udp", "icmp"):
            acc += self.spec.mix[kind]
            if roll < acc:
                return kind
        return "icmp"

    def tick(self) -> None:
        sim = self.sim
        src_ip, dst_ip, src_mac, dst_mac = self.addresses
        kind = self._pick_kind()
        self.kind_counts[kind] += 1
        if kind in SERVICE_PORTS:
            p = self._tcp_request(kind)
        elif kind == "udp":
            payload = self.rng.randbytes(self.rng.randint(80, 400))
            p = pk.build_udp(src_ip, dst_ip, 30000 + (self.flow_serial % 1000), UDP_SERVICE_PORT,
                             payload=payload, src_mac=src_mac, dst_mac=dst_mac)
        else:
            payload = self.rng.randbytes(self.spec.icmp_payload)
            self.icmp_seq += 1
            p = pk.build_icmp_echo(src_ip, dst_ip, identifier=self.ping_id,
                                   sequence=self.icmp_seq & 0xFFFF, payload=payload,
                                   src_mac=src_mac, dst_mac=dst_mac)
        size = p.wire_len
        self.emitted_octets += size
        sim.send_from(self.host, p, size)
        gap = -(-size * MICROS // self.spec.budget)
        sim._schedule(sim.now + gap, self.tick)

    def _tcp_request(self, kind: str) -> pk.ParsedPacket:
        src_ip, dst_ip, src_mac, dst_mac = self.addresses
        port = SERVICE_PORTS[kind]
        flow = self.flows.get(kind)
        if flow is None or flow.requests >= self.spec.restart_every:
            self.flow_serial = (self.flow_serial + 1) % _FLOW_SERIALS
            sport = 20000 + len(SERVICE_PORTS) * self.flow_serial + port % 3
            flow = _FlowState(sport=sport, seq=_safe_isn(self.host, kind, self.flow_serial))
            self.flows[kind] = flow
            return pk.build_tcp(src_ip, dst_ip, flow.sport, port, seq=flow.seq,
                                flags=pk.TCP_SYN, src_mac=src_mac, dst_mac=dst_mac)
        payload = self.rng.randbytes(self.rng.randint(self.spec.min_frame, self.spec.max_frame))
        flow.requests += 1
        p = pk.build_tcp(src_ip, dst_ip, flow.sport, port, seq=flow.seq,
                         ack=1, flags=pk.TCP_ACK | pk.TCP_PSH, payload=payload,
                         src_mac=src_mac, dst_mac=dst_mac)
        flow.seq = (flow.seq + len(payload)) & 0xFFFFFFFF
        return p


class _Transfer:
    """A covert transfer from port ``sport`` of ``src`` to ``SECRET_PORT``
    of ``dst``.  It stays in the simulation's ``_flows`` until it
    finishes; ``finished_us`` stays None until then."""

    def __init__(self, sim: "Simulation", src: str, dst: str, sport: int):
        self.sim = sim
        self.src = src
        self.dst = dst
        self.sport = sport
        self.delivered_packets = 0
        self.finished_us: Optional[int] = None

    def _send(self, seq: int, payload: bytes) -> None:
        src_ip, dst_ip, src_mac, dst_mac = self.sim._addresses(self.src, self.dst)
        self.sim.send_from(self.src, pk.build_tcp(src_ip, dst_ip, self.sport, SECRET_PORT, seq=seq & 0xFFFFFFFF,
                                                  flags=pk.TCP_ACK | pk.TCP_PSH, payload=payload,
                                                  src_mac=src_mac, dst_mac=dst_mac))

    def _finish(self) -> None:
        self.finished_us = self.sim.now
        del self.sim._flows[self.sport]


class _BulkTransfer(_Transfer):
    """Covert payload drain: all packets offered up front.  It finishes
    when the last octet has arrived."""

    def __init__(self, sim: "Simulation", src: str, dst: str, payload_octets: int, packet_size: int, sport: int):
        super().__init__(sim, src, dst, sport)
        self.payload_octets = payload_octets
        self.packet_size = packet_size
        self.sent_packets = 0
        self.delivered_octets = 0
        self.digest_parts: List[bytes] = []
        self.delivered_parts: List[bytes] = []

    def start(self) -> None:
        rng = _child_rng(self.sim.seed, "bulk:%s:%s" % (self.src, self.dst))
        remaining = self.payload_octets
        seq = _safe_isn(self.src, "bulk")
        while remaining > 0:
            size = min(self.packet_size, remaining)
            payload = rng.randbytes(size)
            self.digest_parts.append(payload)
            self._send(seq, payload)
            seq += size
            self.sent_packets += 1
            remaining -= size

    def arrive(self, node: str, p: pk.ParsedPacket) -> None:
        """Credit a packet of this flow that reached ``node``, if that is ``dst``."""
        if node == self.dst:
            self.delivered_octets += len(p.app_payload)
            self.delivered_packets += 1
            self.delivered_parts.append(p.app_payload)
            if self.delivered_octets >= self.payload_octets:
                self._finish()

    @property
    def sent_digest(self) -> str:
        return hashlib.sha256(b"".join(self.digest_parts)).hexdigest()

    @property
    def delivered_digest(self) -> str:
        return hashlib.sha256(b"".join(self.delivered_parts)).hexdigest()


class _PacedTransfer(_Transfer):
    """Stop-and-wait covert sender with a fixed retransmission timeout.

    Sends request ``delivered_packets``, waits for its acknowledgement to
    come back through the channel to ``src``, and retransmits when the
    timeout lapses first.  ``send_times`` holds the virtual time of every
    send (demand plus retransmissions); its per-interval counts feed the
    stability metric.
    """

    PACKET_SIZE = 256
    RTO_US = 400_000

    def __init__(self, sim: "Simulation", src: str, dst: str, packets: int, sport: int):
        super().__init__(sim, src, dst, sport)
        self.packets = packets
        self.base_seq = _safe_isn(src, "paced")
        self.retransmissions = 0
        self.send_times: List[int] = []

    def start(self) -> None:
        """Send the awaited request, or finish once every one is acknowledged."""
        if self.delivered_packets < self.packets:
            self._emit(self.delivered_packets)
        else:
            self._finish()

    def _emit(self, index: int) -> None:
        rng = _child_rng(self.sim.seed, "paced:%s:%d" % (self.src, index))
        payload = rng.randbytes(self.PACKET_SIZE)
        self.send_times.append(self.sim.now)
        self._send(self.base_seq + index, payload)
        self.sim._schedule(self.sim.now + self.RTO_US, self._timeout, index)

    def _timeout(self, index: int) -> None:
        if index == self.delivered_packets:
            self.retransmissions += 1
            self._emit(index)

    def arrive(self, node: str, p: pk.ParsedPacket) -> None:
        """Take an acknowledgement of this flow that reached ``node``, if that is ``src``."""
        if node == self.src and (p.tcp.ack - self.base_seq - self.PACKET_SIZE) & 0xFFFFFFFF == self.delivered_packets:
            self.delivered_packets += 1
            self.start()


class Simulation:
    """One experiment: topology + workload + gateway configuration.
    The covert mode and each gateway's engine are fixed at construction;
    methods patched onto an engine afterwards still run."""

    def __init__(
        self,
        topology: topo_mod.Topology,
        workload: Optional[WorkloadSpec] = None,
        engine_config: Optional[EngineConfig] = None,
        seed: int = 0,
        covert: bool = True,
        capture_nodes: Tuple[str, ...] = (),
    ):
        self.topology = topology
        self.workload = workload or WorkloadSpec()
        self.workload.validate()
        self.seed = seed
        self.covert = covert
        self.now = 0
        self._heap: List[Tuple[int, int, Callable[..., None], tuple]] = []
        self._serial = 0

        self.node_stats: Dict[str, NodeStats] = {n: NodeStats() for n in topology.nodes}
        self.monitor_stats: Dict[str, MonitorStats] = {}
        # SHA-256 over the SHA-256 of every secret packet delivered, in order.
        self.secret_chain = hashlib.sha256()
        self.desync_count = 0
        self.captures: Dict[str, trace_mod.TraceFile] = {
            n: trace_mod.TraceFile(records=[]) for n in capture_nodes
        }

        self._node_ip: Dict[str, Optional[int]] = {}
        self._node_mac: Dict[str, Optional[bytes]] = {}
        for node in topology.nodes.values():
            self._node_ip[node.name] = pk.str_to_ip(node.ip) if node.ip is not None else None
            self._node_mac[node.name] = pk.str_to_mac(node.mac) if node.mac is not None else None
        self._ip_to_node: Dict[int, str] = {ip: name for name, ip in self._node_ip.items() if ip is not None}
        self._secret_ips: Set[int] = {
            self._node_ip[n.name] for n in topology.nodes.values() if n.secret and n.ip is not None
        }
        pairs = topology.gateway_pairs()
        # Hop counts from each gateway, filled by _build_routes; links
        # are undirected, so they also give every node's distance to it.
        self._gateway_dist: Dict[str, Dict[str, int]] = {}
        adjacency = topology.adjacency()
        next_hop = self._build_routes(adjacency, {gw for pair in pairs for gw in pair})
        self._pipes: Dict[Tuple[str, str], _Pipe] = {}
        for link in topology.links:
            self._pipes[(link.a, link.b)] = _Pipe(link.a, link.b, link.capacity, link.delay_us)
            self._pipes[(link.b, link.a)] = _Pipe(link.b, link.a, link.capacity, link.delay_us)

        base_config = engine_config or EngineConfig()
        self.gateways: Dict[str, CovertGateway] = {}
        self._gateway_side: Dict[str, str] = {}
        # Per gateway: the addresses whose next hop is its peer's side,
        # the only traffic that carries the stream.
        self._peer_side: Dict[str, Set[int]] = {}
        self._secret_registry: Dict[str, Set[int]] = {}
        # Per NAT gateway: (protocol, mapped port) -> (source address,
        # source port), and back from (protocol, address, port).
        self._phys_nat: Dict[str, Dict[Tuple[int, int], Tuple[int, int]]] = {}
        self._phys_nat_back: Dict[str, Dict[Tuple[int, int, int], int]] = {}
        self._phys_nat_next: Dict[str, int] = {}
        for a, b in pairs:
            for gw, peer in ((a, b), (b, a)):
                cfg = replace(base_config, seed=seed)
                engine = CovertGateway(gw, peer, cfg, local_mac=self._node_mac[gw])
                self.gateways[gw] = engine
                side = next_hop[gw].get(peer)
                if side is None:
                    raise SimError("no path from %r to %r" % (gw, peer))
                self._gateway_side[gw] = side
                self._peer_side[gw] = {ip for ip, dest in self._ip_to_node.items() if next_hop[gw].get(dest) == side}
                self._secret_registry[gw] = {
                    self._node_ip[h.name]
                    for h in topology.nodes.values()
                    if h.secret and self._closer_to(h.name, peer, gw)
                }
                self._phys_nat[gw] = {}
                self._phys_nat_back[gw] = {}
                self._phys_nat_next[gw] = _NAT_PORT_FIRST

        self.clients: Dict[str, _WorkloadClient] = {}
        # Covert transfers not yet finished, by the source port each sends from.
        self._flows: Dict[int, _Transfer] = {}
        self._flow_ports = itertools.cycle(range(41000, 42000))
        # Each node's forwarding table: destination address -> (pipe to
        # the next hop, that hop's receive function, which takes the
        # packet, the previous hop and the frame length).  Filled once
        # the receive functions, which hold their own node's table, exist.
        self._forward: Dict[str, dict] = {name: {} for name in topology.nodes}
        receivers = {name: self._receiver(node) for name, node in topology.nodes.items()}
        for origin, table in self._forward.items():
            hops = next_hop[origin]
            # One entry per neighbour, shared by every address behind it.
            via = {n: (self._pipes[(origin, n)], receivers[n]) for n in adjacency[origin]}
            table.update((ip, via[hops[dest]]) for ip, dest in self._ip_to_node.items() if dest in hops)
        self._build_clients(pairs)
        if self.covert and base_config.encryption:
            for engine in self.gateways.values():
                engine.start_key_exchange()

    # -- construction helpers ------------------------------------------------

    def _build_routes(self, adjacency: Dict[str, List[str]], gateways: Set[str]) -> Dict[str, Dict[str, str]]:
        """Next hop from every node to every node it reaches: one BFS per
        origin over sorted neighbours, so equal-length paths resolve to
        the one through the lowest names.  The BFS from each of
        ``gateways`` also fills ``_gateway_dist``."""
        tables: Dict[str, Dict[str, str]] = {}
        names = list(self.topology.nodes)
        for origin in names:
            # The origin's neighbours are their own first hop; everything
            # further inherits the first hop of the node that reached it.
            first_hop: Dict[str, Optional[str]] = {origin: None}
            depth = {origin: 0}
            frontier = [origin]
            while frontier:
                nxt = []
                for name in frontier:
                    for n in adjacency[name]:
                        if n not in first_hop:
                            first_hop[n] = first_hop[name] or n
                            depth[n] = depth[name] + 1
                            nxt.append(n)
                frontier = nxt
            tables[origin] = {dest: first_hop[dest] for dest in names if dest != origin and dest in first_hop}
            if origin in gateways:
                self._gateway_dist[origin] = depth
        return tables

    def _addresses(self, src: str, dst: str) -> Tuple[Optional[int], Optional[int], Optional[bytes], Optional[bytes]]:
        """Source and destination address and MAC, resolved at set-up."""
        return self._node_ip[src], self._node_ip[dst], self._node_mac[src], self._node_mac[dst]

    def _closer_to(self, node: str, a: str, b: str) -> bool:
        """Whether ``node`` is strictly fewer hops from gateway ``a``
        than from gateway ``b``; unreachable counts as infinitely far."""
        da = self._gateway_dist[a].get(node)
        db = self._gateway_dist[b].get(node)
        return da is not None and (db is None or da < db)

    def _build_clients(self, pairs: List[Tuple[str, str]]) -> None:
        visible = sorted(
            n.name for n in self.topology.nodes.values() if n.kind == topo_mod.KIND_HOST and not n.secret
        )
        # Visible hosts on the far side of each gateway pair, by name.
        far_hosts: Dict[Tuple[str, str], List[str]] = {}
        for a, b in pairs:
            for far, near in ((a, b), (b, a)):
                far_hosts[(far, near)] = [n for n in visible if self._closer_to(n, far, near)]
        for node in sorted(self.topology.nodes.values(), key=lambda n: n.name):
            if not node.workload:
                continue
            target = self._cross_target(node.name, pairs, far_hosts)
            if target is None:
                continue
            rng = _child_rng(self.seed, "workload:%s" % node.name)
            client = _WorkloadClient(self, node.name, target, self.workload, rng)
            self.clients[node.name] = client
            offset = len(self.clients) * 937
            client.start(offset)

    def _cross_target(self, host: str, pairs, far_hosts) -> Optional[str]:
        """The first visible host, by name, on the far side of the first
        gateway pair that has one."""
        for a, b in pairs:
            near, far = (a, b) if self._closer_to(host, a, b) else (b, a)
            for name in far_hosts[(far, near)]:
                if name != host:
                    return name
        return None

    # -- public API ----------------------------------------------------------

    def add_bulk_transfer(self, src: str, dst: str, payload_octets: int, packet_size: int = 512, start_us: Optional[int] = None) -> _BulkTransfer:
        """Start, at ``start_us`` (default now), a transfer of ``payload_octets`` in packets of
        ``packet_size``, from port 41000 + n mod 1000 as the n-th covert transfer (from 0)."""
        if payload_octets < 1:
            raise SimError("payload of %d octets is below 1 octet" % payload_octets)
        if packet_size < 1:
            raise SimError("packet size %d is below 1 octet" % packet_size)
        if start_us is None:
            start_us = self.now
        elif start_us < self.now:
            raise SimError("transfer start %d us is before now (%d us)" % (start_us, self.now))
        return self._open_flow(start_us, _BulkTransfer, src, dst, payload_octets, packet_size)

    def add_paced_transfer(self, src: str, dst: str, packets: int) -> _PacedTransfer:
        """Start, now, a stop-and-wait transfer of ``packets`` requests, from
        port 41000 + n mod 1000 as the n-th covert transfer (from 0)."""
        return self._open_flow(self.now, _PacedTransfer, src, dst, packets)

    def _open_flow(self, start_us: int, kind: type, src: str, dst: str, *args):
        """Start a ``kind`` transfer from the next flow port at ``start_us``; it stays in ``_flows`` until finished."""
        for name in (src, dst):
            if self._node_ip.get(name) is None:
                raise SimError("transfer endpoint %r is not a node with an address" % name)
        if src == dst:
            raise SimError("transfer from %r to itself" % src)
        transfer = kind(self, src, dst, *args, next(self._flow_ports))
        self._flows[transfer.sport] = transfer
        self._schedule(start_us, transfer.start)
        return transfer

    def _schedule(self, t: int, fn: Callable[..., None], *args) -> None:
        self._serial += 1
        heapq.heappush(self._heap, (t, self._serial, fn, args))

    def run(self, duration_us: int) -> None:
        if duration_us < 0:
            raise SimError("run duration %d us is negative" % duration_us)
        horizon = self.now + duration_us
        heap = self._heap
        while heap and heap[0][0] <= horizon:
            t, _, fn, args = heapq.heappop(heap)
            self.now = t
            fn(*args)
        self.now = horizon

    def run_until(self, predicate: Callable[[], bool], max_us: int) -> None:
        """Advance in 100 ms steps until ``predicate`` holds or ``max_us`` passes."""
        while self.now < max_us and not predicate():
            self.run(min(100_000, max_us - self.now))

    def monitor_totals(self) -> MonitorStats:
        """Every monitor's counters summed, rule hits per rule; the
        address pairs stay with each monitor's own stats."""
        total = MonitorStats()
        for stats in self.monitor_stats.values():
            for name in ("log_hits", "rule_drops", "default_drops", "nat_drops", "checksum_anomalies"):
                setattr(total, name, getattr(total, name) + getattr(stats, name))
            for rule, hits in stats.rule_hits.items():
                total.rule_hits[rule] = total.rule_hits.get(rule, 0) + hits
        return total

    # -- packet movement -----------------------------------------------------

    def send_from(self, node: str, p: pk.ParsedPacket, size: Optional[int] = None) -> None:
        """Originate ``p`` at ``node`` and route it one hop; ``size`` is
        its frame length when the caller already has it."""
        self.node_stats[node].sent += 1
        self._route(self._forward[node], node, p, p.wire_len if size is None else size)

    def _route(self, table: dict, node: str, p: pk.ParsedPacket, size: int) -> None:
        """Send ``p`` one hop on from ``node``: one lookup in ``node``'s
        forwarding ``table``, one heap event."""
        ip = p.ipv4
        if ip is None:
            return
        # No entry for an unknown address or the node's own.
        entry = table.get(ip.dst_ip)
        if entry is None:
            self.node_stats[node].dropped += 1
            return
        pipe, receive = entry
        self._serial += 1
        heapq.heappush(self._heap, (pipe.transit(self.now, size), self._serial, receive, (p, node, size)))

    def _receiver(self, node: topo_mod.NodeDef) -> Callable:
        """The function a packet arriving at ``node`` goes to, with the
        node's kind, stats, table, capture file and context resolved."""
        name, stats, table = node.name, self.node_stats[node.name], self._forward[node.name]
        kind = node.kind
        if kind == topo_mod.KIND_CGATEWAY and (not self.covert or name not in self.gateways):
            # Nothing is fused, so adjust_flow would return every packet as it came.
            kind = topo_mod.KIND_ROUTER
        if kind == topo_mod.KIND_ROUTER:
            route = self._route

            def receive(p, came_from, size):
                stats.received += 1
                stats.forwarded += 1
                route(table, name, p, size)
        else:
            receive = {
                topo_mod.KIND_HOST: self._host_receiver,
                topo_mod.KIND_MONITOR: self._monitor_receiver,
                topo_mod.KIND_CGATEWAY: self._gateway_receiver,
            }[kind](node, stats, table)
        capture = self.captures.get(name)
        if capture is None:
            return receive
        uncaptured, records = receive, capture.records

        def receive(p, came_from, size):
            records.append(pk.RawPacket(pk.serialize_packet(p), capture_time_us=self.now))
            uncaptured(p, came_from, size)
        return receive

    # -- hosts -----------------------------------------------------------------

    def _host_receiver(self, node: topo_mod.NodeDef, stats: NodeStats, table: dict) -> Callable:
        name, my_ip, route = node.name, self._node_ip[node.name], self._route

        def receive(p, came_from, size):
            stats.received += 1
            if p.ipv4 is None or p.ipv4.dst_ip != my_ip:
                stats.dropped += 1
                return
            tcp = p.tcp
            if tcp is not None and SECRET_PORT in (tcp.src_port, tcp.dst_port):
                # A covert transfer's data or acknowledgement.  A gateway lending its address also remapped
                # the port; an acknowledgement's port, 41000-41999, is never one it maps (61000 up).
                port = tcp.dst_port if tcp.src_port == SECRET_PORT else tcp.src_port
                nat = self._phys_nat.get(self._ip_to_node.get(p.ipv4.src_ip))
                if nat and (pk.PROTO_TCP, port) in nat:
                    port = nat[(pk.PROTO_TCP, port)][1]
                transfer = self._flows.get(port)
                if transfer is not None:
                    transfer.arrive(name, p)
            reply = self._respond(name, p, tcp)
            if reply is not None:
                stats.sent += 1
                route(table, name, reply, reply.wire_len)
        return receive

    def _respond(self, node: str, p: pk.ParsedPacket, tcp: Optional[pk.Tcp]) -> Optional[pk.ParsedPacket]:
        """Stateless service behavior: the reply is a pure function of
        the request (``tcp`` is its TCP header or None), so reruns with
        one seed are bit-identical."""
        src_name = self._ip_to_node.get(p.ipv4.src_ip)
        my_mac = self._node_mac[node]
        dst_mac = self._node_mac[src_name] if src_name else p.link.src_mac
        src_ip = p.ipv4.dst_ip
        dst_ip = p.ipv4.src_ip
        if tcp is not None:
            flags, payload = tcp.flags, b""
            if flags & pk.TCP_SYN:
                # A SYN gets a SYN-ACK and a SYN-ACK an ACK, each acknowledging one octet.
                advance = 1
                if flags & pk.TCP_ACK:
                    flags, seq = pk.TCP_ACK, tcp.ack
                else:
                    flags, seq = pk.TCP_SYN | pk.TCP_ACK, _safe_isn(node, p.ipv4.src_ip, tcp.src_port, tcp.seq)
            elif p.app_payload and (tcp.dst_port == SECRET_PORT or tcp.dst_port in SERVICE_PORTS.values()):
                flags, seq, advance = pk.TCP_ACK, tcp.ack, len(p.app_payload)
                if tcp.dst_port != SECRET_PORT:
                    size = 100 + (tcp.seq % 400)
                    body = hashlib.sha256(p.app_payload[:32] + tcp.seq.to_bytes(4, "big")).digest()
                    flags, payload = pk.TCP_ACK | pk.TCP_PSH, (body * (size // len(body) + 1))[:size]
            else:
                return None
            return pk.build_tcp(src_ip, dst_ip, tcp.dst_port, tcp.src_port, seq=seq,
                                ack=(tcp.seq + advance) & 0xFFFFFFFF, flags=flags, payload=payload,
                                src_mac=my_mac, dst_mac=dst_mac)
        if p.icmp is not None and p.icmp.icmp_type == pk.ICMP_ECHO_REQUEST:
            return pk.build_icmp_echo(
                src_ip, dst_ip, icmp_type=pk.ICMP_ECHO_REPLY,
                identifier=p.icmp.identifier, sequence=p.icmp.sequence,
                payload=p.icmp.payload, src_mac=my_mac, dst_mac=dst_mac,
            )
        if p.udp is not None and p.udp.dst_port == UDP_SERVICE_PORT:
            body = hashlib.sha256(bytes(p.app_payload[:16]) + b"udp").digest()
            return pk.build_udp(
                src_ip, dst_ip, p.udp.dst_port, p.udp.src_port,
                payload=body + body[:28], src_mac=my_mac, dst_mac=dst_mac,
            )
        return None

    # -- monitors ----------------------------------------------------------------

    def _monitor_receiver(self, node: topo_mod.NodeDef, stats: NodeStats, table: dict) -> Callable:
        """A monitor's receive function, its rules resolved, its counters and NAT flows made."""
        name, default_action, nat, route = node.name, node.default_action, node.nat, self._route
        monitor = self.monitor_stats[name] = MonitorStats()
        rules = _compile_rules([rule for rule in self.topology.rules if rule.node == name])
        flows: Set[tuple] = set()  # with NAT, the flows and pings opened from inside
        pings: Set[tuple] = set()

        def receive(p, came_from, size):
            stats.received += 1
            verdict = None
            ip = p.ipv4
            if ip is not None:
                monitor.addresses.add((ip.src_ip, ip.dst_ip))
                if not pk.validate_ipv4_checksum(p):
                    monitor.checksum_anomalies += 1
                port = p.transport.dst_port if isinstance(p.transport, (pk.Tcp, pk.Udp)) else None
                for index, action, proto, src, dst, dst_port in rules:
                    if ((proto is None or ip.protocol == proto)
                            and (src is None or ip.src_ip == src)
                            and (dst is None or ip.dst_ip == dst)
                            and (dst_port is None or port == dst_port)):
                        monitor.rule_hits[index] = monitor.rule_hits.get(index, 0) + 1
                        if action == "log":
                            monitor.log_hits += 1
                            continue
                        verdict = action
                        break
            if verdict is None:
                verdict = default_action
                if verdict == "drop":
                    monitor.default_drops += 1
                    stats.dropped += 1
                    return
            if verdict == "drop":
                monitor.rule_drops += 1
                stats.dropped += 1
                return
            if nat and not _nat_permits(flows, pings, came_from == node.nat_inside, p):
                monitor.nat_drops += 1
                stats.dropped += 1
                return
            stats.forwarded += 1
            route(table, name, p, size)
        return receive

    # -- covert gateways ----------------------------------------------------------

    def _gateway_receiver(self, node: topo_mod.NodeDef, stats: NodeStats, table: dict) -> Callable:
        """A paired gateway's receive function in a covert run, its engine resolved."""
        engine = self.gateways[node.name]
        name, nat, my_ip = node.name, node.nat, self._node_ip[node.name]
        route, secret_ips = self._route, self._secret_ips
        side = self._gateway_side[name]
        registry = self._secret_registry[name]
        peer_side = self._peer_side[name]

        def from_peer(p):
            """The packet to forward once ``p`` is extracted, or None."""
            try:
                forwarded, secrets, _ = engine.extract(p)
            except DesyncError as exc:
                self.desync_count += 1
                forwarded, secrets = exc.forwarded, []
            forwarded = engine.adjust_flow(forwarded)
            for blob in secrets:
                self.secret_chain.update(hashlib.sha256(blob).digest())
                try:
                    inner = pk.parse_packet(blob)
                except pk.PacketError:
                    continue
                route(table, name, inner, len(blob))
            if nat and forwarded.ipv4 is not None and forwarded.ipv4.dst_ip == my_ip:
                return self._phys_nat_in(name, forwarded)
            return forwarded

        def toward_peer(p):
            """The packet to forward once ``p`` is fused, or None when it
            joins the secret queue instead."""
            if p.ipv4 is not None and p.ipv4.dst_ip in registry:
                engine.enqueue_secret(pk.serialize_packet(p))
                return None
            if nat and p.ipv4 is not None and p.ipv4.src_ip in secret_ips:
                p = self._phys_nat_out(name, p)
            p = engine.adjust_flow(p)
            if p.ipv4 is not None and p.ipv4.dst_ip in peer_side:
                p, _ = engine.fuse(p)
            return p

        def receive(p, came_from, size):
            stats.received += 1
            if came_from == side:
                forwarded = from_peer(p)
            else:
                forwarded = toward_peer(p)
            if forwarded is None:
                return
            stats.forwarded += 1
            # A rebuilt packet may have a new length; an untouched one keeps its own.
            route(table, name, forwarded, size if forwarded is p else forwarded.wire_len)
        return receive

    # physical address translation at a gateway: secret flows leave with
    # the gateway's own address and a remapped source port.

    def _phys_nat_out(self, node: str, p: pk.ParsedPacket) -> pk.ParsedPacket:
        table = self._phys_nat[node]
        my_ip, my_mac = self._node_ip[node], self._node_mac[node]
        if p.tcp is not None or p.udp is not None:
            proto, src_ip, sport = p.ipv4.protocol, p.ipv4.src_ip, p.transport.src_port
            back = self._phys_nat_back[node]
            mapped = back.get((proto, src_ip, sport))
            if mapped is None:
                # Ports wrap; a port still mapped passes to the new flow.
                mapped = self._phys_nat_next[node]
                self._phys_nat_next[node] = _NAT_PORT_FIRST if mapped == _NAT_PORT_LAST else mapped + 1
                evicted = table.get((proto, mapped))
                if evicted is not None:
                    del back[(proto,) + evicted]
                table[(proto, mapped)] = (src_ip, sport)
                back[(proto, src_ip, sport)] = mapped
            return pk.readdress(p, src_ip=my_ip, src_port=mapped, src_mac=my_mac)
        if p.icmp is not None:
            table.setdefault((pk.PROTO_ICMP, p.icmp.identifier), (p.ipv4.src_ip, p.icmp.identifier))
            return pk.readdress(p, src_ip=my_ip, src_mac=my_mac)
        return p

    def _phys_nat_in(self, node: str, p: pk.ParsedPacket) -> Optional[pk.ParsedPacket]:
        t = p.transport
        if t is None:
            return None
        icmp = p.icmp is not None
        entry = self._phys_nat[node].get((p.ipv4.protocol, t.identifier if icmp else t.dst_port))
        if entry is None:
            return None
        oip, oport = entry
        return pk.readdress(p, dst_ip=oip, dst_port=None if icmp else oport,
                            dst_mac=self._node_mac.get(self._ip_to_node.get(oip)))
