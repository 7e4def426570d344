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
made at set-up with its node's context resolved (a monitor's rules and
counters; a gateway's side, secret registry, NAT flag and peer-side
addresses), so a hop neither branches on the kind nor looks a node up
by name.  Only a gateway's engine is looked up per packet, so methods
swapped onto it after set-up (a benchmark's timers) are the ones
called.  The frame length travels with the event: only an origin, a
host's reply or a gateway that rebuilds the packet derives it again.

A ``Simulation`` keeps counters and running digests, never a record
per packet; a transfer keeps only its own sends, and a bulk transfer is
let go once it has all arrived.
"""

from __future__ import annotations

import hashlib
import heapq
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
        total = sum(self.mix.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError("mix weights must sum to 1, got %r" % total)
        if self.restart_every < 1:
            raise ValueError("restart_every must be at least 1")
        if not 0 < self.min_frame <= self.max_frame <= 1400:
            raise ValueError("frame bounds must satisfy 0 < min <= max <= 1400")


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


def _compile_rules(rules: List[topo_mod.RuleDef]) -> Dict[str, List[tuple]]:
    """Each node's rules in order as (index, action, protocol number,
    source, destination, destination port); ``None`` matches anything."""
    compiled: Dict[str, List[tuple]] = {}
    for rule in rules:
        own = compiled.setdefault(rule.node, [])
        own.append((
            len(own), rule.action, _PROTO_NUMBERS[rule.proto],
            None if rule.src == "any" else pk.str_to_ip(rule.src),
            None if rule.dst == "any" else pk.str_to_ip(rule.dst),
            rule.dst_port,
        ))
    return compiled


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
    seen: int = 0
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
            p = pk.build_icmp_echo(src_ip, dst_ip, identifier=_child_seed("ping", self.host) & 0x7FFF,
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


class _BulkTransfer:
    """Covert payload drain: all packets offered up front."""

    def __init__(self, sim: "Simulation", src: str, dst: str, payload_octets: int, packet_size: int, sport: int):
        self.sim = sim
        self.src = src
        self.dst = dst
        self.sport = sport
        self.payload_octets = payload_octets
        self.packet_size = packet_size
        self.sent_packets = 0
        self.delivered_octets = 0
        self.delivered_packets = 0
        self.finished_us: Optional[int] = None
        self.digest_parts: List[bytes] = []
        self.delivered_parts: List[bytes] = []

    def start(self) -> None:
        rng = _child_rng(self.sim.seed, "bulk:%s:%s" % (self.src, self.dst))
        src_ip, dst_ip, src_mac, dst_mac = self.sim._addresses(self.src, self.dst)
        remaining = self.payload_octets
        seq = _safe_isn(self.src, "bulk")
        while remaining > 0:
            size = min(self.packet_size, remaining)
            payload = rng.randbytes(size)
            self.digest_parts.append(payload)
            p = pk.build_tcp(src_ip, dst_ip, self.sport, SECRET_PORT, seq=seq,
                             flags=pk.TCP_ACK | pk.TCP_PSH, payload=payload,
                             src_mac=src_mac, dst_mac=dst_mac)
            seq = (seq + size) & 0xFFFFFFFF
            self.sim.send_from(self.src, p)
            self.sent_packets += 1
            remaining -= size

    @property
    def sent_digest(self) -> str:
        return hashlib.sha256(b"".join(self.digest_parts)).hexdigest()

    @property
    def delivered_digest(self) -> str:
        return hashlib.sha256(b"".join(self.delivered_parts)).hexdigest()


class _PacedTransfer:
    """Stop-and-wait covert sender with a fixed retransmission timeout.

    Sends one request, waits for the peer's acknowledgement to come back
    through the channel, and retransmits when the timeout lapses first.
    ``send_times`` holds the virtual time of every send (demand plus
    retransmissions); its per-interval counts feed the stability metric.
    """

    def __init__(self, sim: "Simulation", src: str, dst: str, packets: int, packet_size: int, rto_us: int):
        self.sim = sim
        self.src = src
        self.dst = dst
        self.packets = packets
        self.packet_size = packet_size
        self.rto_us = rto_us
        self.next_index = 0
        self.awaiting: Optional[int] = None
        self.retransmissions = 0
        self.delivered_packets = 0
        self.finished_us: Optional[int] = None
        self.send_times: List[int] = []

    def start(self) -> None:
        self._send_next()

    def _send_next(self) -> None:
        if self.next_index >= self.packets:
            self.finished_us = self.sim.now
            return
        self.awaiting = self.next_index
        self._emit(self.next_index)

    def _emit(self, index: int) -> None:
        src_ip, dst_ip, src_mac, dst_mac = self.sim._addresses(self.src, self.dst)
        rng = _child_rng(self.sim.seed, "paced:%s:%d" % (self.src, index))
        payload = rng.randbytes(self.packet_size)
        p = pk.build_tcp(src_ip, dst_ip, 42000, SECRET_PORT,
                         seq=(_safe_isn(self.src, "paced") + index) & 0xFFFFFFFF,
                         flags=pk.TCP_ACK | pk.TCP_PSH, payload=payload,
                         src_mac=src_mac, dst_mac=dst_mac)
        self.send_times.append(self.sim.now)
        self.sim.send_from(self.src, p)
        self.sim._schedule(self.sim.now + self.rto_us, self._timeout, index)

    def _timeout(self, index: int) -> None:
        if self.awaiting == index:
            self.retransmissions += 1
            self._emit(index)

    def on_ack(self, ack_value: int) -> None:
        if self.awaiting is None:
            return
        base = _safe_isn(self.src, "paced")
        acked = (ack_value - base - self.packet_size) & 0xFFFFFFFF
        if acked == self.awaiting:
            self.awaiting = None
            self.delivered_packets += 1
            self.next_index += 1
            self._send_next()


class Simulation:
    """One experiment: topology + workload + gateway configuration."""

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
        for node in topology.nodes.values():
            if node.kind == topo_mod.KIND_MONITOR:
                self.monitor_stats[node.name] = MonitorStats()
        self._monitor_rules = _compile_rules(topology.rules)
        self._nat_flows: Dict[str, Set[tuple]] = {n: set() for n in self.monitor_stats}
        self._nat_pings: Dict[str, Set[tuple]] = {n: set() for n in self.monitor_stats}

        self.clients: Dict[str, _WorkloadClient] = {}
        self._bulk_count: Dict[str, int] = {}
        self._bulk_by_port: Dict[Tuple[str, int], _BulkTransfer] = {}
        self._paced_by_src: Dict[str, _PacedTransfer] = {}
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

    def add_bulk_transfer(self, src: str, dst: str, payload_octets: int, packet_size: int = 512, start_us: int = 0) -> _BulkTransfer:
        # The n-th bulk transfer to a host sends from port 41000 + n (mod
        # 1000), so the host tells its packets from those of a concurrent
        # or stalled transfer.
        index = self._bulk_count.get(dst, 0)
        self._bulk_count[dst] = index + 1
        sport = 41000 + index % 1000
        transfer = _BulkTransfer(self, src, dst, payload_octets, packet_size, sport)
        self._bulk_by_port[(dst, sport)] = transfer
        self._schedule(start_us, transfer.start)
        return transfer

    def add_paced_transfer(self, src: str, dst: str, packets: int, packet_size: int = 256, rto_us: int = 400_000, start_us: int = 0) -> _PacedTransfer:
        transfer = _PacedTransfer(self, src, dst, packets, packet_size, rto_us)
        self._paced_by_src[src] = transfer
        self._schedule(start_us, transfer.start)
        return transfer

    def _schedule(self, t: int, fn: Callable[..., None], *args) -> None:
        self._serial += 1
        heapq.heappush(self._heap, (t, self._serial, fn, args))

    def run(self, duration_us: int) -> None:
        horizon = self.now + duration_us
        heap = self._heap
        while heap and heap[0][0] <= horizon:
            t, _, fn, args = heapq.heappop(heap)
            self.now = t
            fn(*args)
        self.now = horizon

    def run_until(self, predicate: Callable[[], bool], max_us: int, step_us: int = 100_000) -> None:
        """Advance in steps until ``predicate`` holds or ``max_us`` passes."""
        while self.now < max_us and not predicate():
            self.run(min(step_us, max_us - self.now))

    def monitor_totals(self) -> MonitorStats:
        """Every monitor's counters summed; rule hits are summed per rule
        and the address pairs united."""
        total = MonitorStats()
        for stats in self.monitor_stats.values():
            for name in ("seen", "log_hits", "rule_drops", "default_drops", "nat_drops", "checksum_anomalies"):
                setattr(total, name, getattr(total, name) + getattr(stats, name))
            for rule, hits in stats.rule_hits.items():
                total.rule_hits[rule] = total.rule_hits.get(rule, 0) + hits
            total.addresses |= stats.addresses
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
        if node.kind == topo_mod.KIND_ROUTER:
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
            }[node.kind](node, stats, table)
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
            if tcp is not None and tcp.dst_port == SECRET_PORT and p.app_payload:
                sport = tcp.src_port
                # A gateway lending its address also remapped the port.
                nat = self._phys_nat.get(self._ip_to_node.get(p.ipv4.src_ip))
                if nat and (pk.PROTO_TCP, sport) in nat:
                    sport = nat[(pk.PROTO_TCP, sport)][1]
                transfer = self._bulk_by_port.get((name, sport))
                if transfer is not None:
                    transfer.delivered_octets += len(p.app_payload)
                    transfer.delivered_packets += 1
                    transfer.delivered_parts.append(p.app_payload)
                    transfer.finished_us = self.now
                    # A whole transfer is let go; a stalled one stays mapped.
                    if transfer.delivered_octets >= transfer.payload_octets:
                        del self._bulk_by_port[(name, sport)]
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
                if flags & pk.TCP_ACK and not p.app_payload and tcp.src_port == SECRET_PORT:
                    transfer = self._paced_by_src.get(node)
                    if transfer is not None:
                        transfer.on_ack(tcp.ack)
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
        """A monitor's receive function, its rules and counters resolved."""
        name, default_action, nat, route = node.name, node.default_action, node.nat, self._route
        monitor = self.monitor_stats[name]
        rules = self._monitor_rules.get(name, ())

        def receive(p, came_from, size):
            stats.received += 1
            monitor.seen += 1
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
            if nat and not self._nat_permits(name, node, p, came_from):
                monitor.nat_drops += 1
                stats.dropped += 1
                return
            stats.forwarded += 1
            route(table, name, p, size)
        return receive

    def _nat_permits(self, node: str, spec, p: pk.ParsedPacket, came_from: str) -> bool:
        """Flow-tracking address translation: outbound traffic opens a
        mapping, unsolicited inbound traffic is dropped."""
        outbound = came_from == spec.nat_inside
        key = pk.flow_key(p)
        if outbound:
            if key is not None:
                self._nat_flows[node].add(key)
            elif p.icmp is not None and p.icmp.icmp_type == pk.ICMP_ECHO_REQUEST:
                self._nat_pings[node].add((p.ipv4.src_ip, p.ipv4.dst_ip, p.icmp.identifier))
            return True
        if key is not None:
            return pk.reverse_flow_key(key) in self._nat_flows[node]
        if p.icmp is not None and p.icmp.icmp_type == pk.ICMP_ECHO_REPLY:
            return (p.ipv4.dst_ip, p.ipv4.src_ip, p.icmp.identifier) in self._nat_pings[node]
        return False

    # -- covert gateways ----------------------------------------------------------

    def _gateway_receiver(self, node: topo_mod.NodeDef, stats: NodeStats, table: dict) -> Callable:
        """A covert gateway's receive function; its engine is looked up per packet."""
        name, nat, my_ip = node.name, node.nat, self._node_ip[node.name]
        gateways, route, secret_ips = self.gateways, self._route, self._secret_ips
        side = self._gateway_side.get(name)
        registry = self._secret_registry.get(name, set())
        peer_side = self._peer_side.get(name, set())

        def from_peer(engine, p):
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
                route(table, name, inner, inner.wire_len)
            if nat and forwarded.ipv4 is not None and forwarded.ipv4.dst_ip == my_ip:
                return self._phys_nat_in(name, forwarded)
            return forwarded

        def toward_peer(engine, p):
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
            engine = gateways.get(name)
            if engine is None or not self.covert:
                forwarded = p if engine is None else engine.adjust_flow(p)
            elif came_from == side:
                forwarded = from_peer(engine, p)
            else:
                forwarded = toward_peer(engine, p)
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
        if icmp:
            return pk.readdress(p, dst_ip=oip)
        host = self._ip_to_node.get(oip)
        return pk.readdress(p, dst_ip=oip, dst_port=oport, dst_mac=self._node_mac[host] if host else None)
