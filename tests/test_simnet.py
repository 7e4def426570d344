"""Deterministic desk-scale network simulator."""

import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from stegnet import packet as pk
from stegnet import wire
from stegnet.engine import ITEM_DATA, CovertGateway, DesyncError, EngineConfig
from stegnet.scenarios import line_topology, send_counts
from stegnet.simnet import (
    DEFAULT_MIX,
    MICROS,
    SECRET_PORT,
    UDP_SERVICE_PORT,
    SimError,
    Simulation,
    WorkloadSpec,
    parse_workload,
)
from stegnet.topology import ConfigError, Topology, load_topology

SECRET_IPS = ("10.0.1.2", "10.0.2.3")
CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.topo"))


def _sim(seed=0, visible_users=2, covert=True, **kw):
    return Simulation(
        line_topology(visible_users=visible_users),
        workload=WorkloadSpec(),
        seed=seed,
        covert=covert,
        **kw,
    )


def _intercept(sim, node, receive):
    """Send every hop into ``node`` to ``receive`` instead, by swapping
    the node's entry in every forwarding table.  Returns the node's own
    receive function, for ``receive`` to pass packets on to."""
    own = None
    for table in sim._forward.values():
        for ip, (pipe, hop) in table.items():
            if pipe.dst == node:
                own = hop
                table[ip] = (pipe, receive)
    assert own is not None
    return own


def _pipe_totals(sim):
    return {key: (p.carried_packets, p.carried_octets, p.busy_until) for key, p in sim._pipes.items()}


def test_same_seed_is_bit_identical():
    runs = []
    for _ in range(2):
        sim = _sim(seed=42)
        transfer = sim.add_bulk_transfer("secret_a", "secret_b", 2000)
        sim.run(3 * MICROS)
        runs.append(
            (
                {n: (s.sent, s.received, s.forwarded, s.dropped) for n, s in sim.node_stats.items()},
                _pipe_totals(sim),
                sim.secret_chain.hexdigest(),
                transfer.delivered_digest,
                sim.desync_count,
            )
        )
    assert runs[0] == runs[1]
    assert runs[0][4] == 0

    other = _sim(seed=43)
    other.add_bulk_transfer("secret_a", "secret_b", 2000)
    other.run(3 * MICROS)
    assert _pipe_totals(other) != runs[0][1]


def test_covert_bulk_transfer_delivers_bit_exact():
    sim = _sim(seed=7)
    transfer = sim.add_bulk_transfer("secret_a", "secret_b", 3000, packet_size=300)
    sim.run_until(lambda: transfer.delivered_octets >= 3000, max_us=30 * MICROS)
    assert transfer.delivered_octets == 3000
    assert transfer.delivered_digest == transfer.sent_digest
    assert sim.desync_count == 0


def test_secret_addresses_never_appear_on_the_core_wire():
    sim = _sim(seed=11, capture_nodes=("core",))
    transfer = sim.add_bulk_transfer("secret_a", "secret_b", 1500, packet_size=250)
    sim.run_until(lambda: transfer.delivered_octets >= 1500, max_us=30 * MICROS)
    assert transfer.delivered_octets == 1500
    records = sim.captures["core"].records
    assert len(records) > 20
    secret = {pk.str_to_ip(ip) for ip in SECRET_IPS}
    for r in records:
        p = pk.parse_packet(r.data)
        assert p.ipv4.src_ip not in secret
        assert p.ipv4.dst_ip not in secret
        if p.tcp is not None:
            assert p.tcp.dst_port != SECRET_PORT
            assert p.tcp.src_port != SECRET_PORT


def test_open_monitor_forwards_everything_it_sees():
    sim = _sim(seed=3, visible_users=1)
    sim.run(2 * MICROS)
    stats = sim.monitor_stats["core"]
    node = sim.node_stats["core"]
    assert node.received > 50
    assert node.forwarded == node.received - node.dropped
    assert node.dropped == 0
    assert stats.checksum_anomalies == 0


def test_workload_pacing_tracks_budget():
    sim = _sim(seed=5, visible_users=1, covert=False)
    duration = 5
    sim.run(duration * MICROS)
    client = sim.clients["vis_a_1"]
    target = sim.workload.budget * duration
    assert abs(client.emitted_octets - target) / target < 0.05


def test_workload_mix_tracks_weights():
    sim = _sim(seed=6, visible_users=1, covert=False)
    sim.run(8 * MICROS)
    counts = sim.clients["vis_a_1"].kind_counts
    total = sum(counts.values())
    assert total > 80
    for kind, weight in DEFAULT_MIX.items():
        assert abs(counts[kind] / total - weight) < 0.13, kind


def test_workload_parsing_and_validation():
    spec = parse_workload("[workload]\nbudget = 5000\nhttp = 0.5\ntls = 0.05\ntcp = 0.09\nudp = 0.18\nicmp = 0.18\n")
    assert spec.budget == 5000 and spec.mix["http"] == 0.5
    assert parse_workload("[Workload]\nbudget = 0x100\n").budget == 256
    with pytest.raises(ConfigError) as err:
        parse_workload("budget = 1\nbudget = 2\n")
    assert err.value.line == 2
    with pytest.raises(ConfigError) as err:
        parse_workload("budget = 5000\nturbo = 1\n")
    assert err.value.line == 2
    with pytest.raises(ConfigError):
        parse_workload("budget = fast\n")
    with pytest.raises(ValueError):
        parse_workload("http = 0.9\n")  # weights no longer sum to 1
    with pytest.raises(ValueError):
        WorkloadSpec(budget=0).validate()
    with pytest.raises(ValueError):
        WorkloadSpec(min_frame=0).validate()


@pytest.mark.parametrize(
    "text,message",
    [
        ("icmp_payload = -1\n", "icmp_payload must be 0 to 65507"),
        ("icmp_payload = 70000\n", "icmp_payload must be 0 to 65507"),
        ("http = 1.31\ntls = -0.31\ntcp = 0\nudp = 0\nicmp = 0\n", "mix weight tls must not be negative"),
        ("http = nan\n", "mix weight http must not be negative"),
    ],
)
def test_workload_refuses_values_the_run_cannot_use(text, message):
    with pytest.raises(ValueError, match=message):
        parse_workload(text)


def test_workload_takes_either_icmp_payload_bound():
    assert parse_workload("icmp_payload = 0\n").icmp_payload == 0
    assert parse_workload("icmp_payload = 65507\n").icmp_payload == 65507


def test_nat_monitor_blocks_unsolicited_inbound():
    sim = Simulation(
        line_topology(visible_users=1, nat_monitor=True),
        workload=WorkloadSpec(),
        seed=1,
        covert=False,
        capture_nodes=("vis_a_1",),
    )
    nodes = sim.topology.nodes

    def _from_port(port):
        out = []
        for r in sim.captures["vis_a_1"].records:
            p = pk.parse_packet(r.data)
            if p.tcp is not None and p.tcp.src_port == port:
                out.append(p)
        return out

    syn_in = pk.build_tcp(
        nodes["server_b"].ip, nodes["vis_a_1"].ip, 50000, 8080,
        seq=0x41000000, flags=pk.TCP_SYN,
        src_mac=nodes["server_b"].mac, dst_mac=nodes["gw_b"].mac,
    )
    sim.send_from("server_b", syn_in)
    sim.run(MICROS)
    assert sim.monitor_stats["core"].nat_drops == 1
    assert _from_port(50000) == []

    syn_out = pk.build_tcp(
        nodes["vis_a_1"].ip, nodes["server_b"].ip, 50001, 9000,
        seq=0x42000000, flags=pk.TCP_SYN,
        src_mac=nodes["vis_a_1"].mac, dst_mac=nodes["gw_a"].mac,
    )
    sim.send_from("vis_a_1", syn_out)
    sim.run(MICROS)
    # the reply crossed back through the mapping the outbound SYN opened
    replies = [p for p in _from_port(9000) if p.tcp.dst_port == 50001]
    assert len(replies) == 1
    assert replies[0].tcp.flags & pk.TCP_SYN and replies[0].tcp.flags & pk.TCP_ACK
    assert sim.monitor_stats["core"].nat_drops == 1


def test_monitor_counts_checksum_anomalies():
    sim = _sim(seed=2, visible_users=1, covert=False)
    nodes = sim.topology.nodes
    p = pk.build_tcp(
        nodes["vis_a_1"].ip, nodes["server_b"].ip, 50002, 80,
        seq=1, payload=b"x",
        src_mac=nodes["vis_a_1"].mac, dst_mac=nodes["gw_a"].mac,
    )
    bad = replace(p, ipv4=replace(p.ipv4, header_checksum=p.ipv4.header_checksum ^ 0x5555))
    sim.send_from("vis_a_1", bad)
    sim.run(MICROS // 2)
    assert sim.monitor_stats["core"].checksum_anomalies == 1


def test_gateway_address_translation_round_trip():
    sim = Simulation(
        line_topology(visible_users=1, gateway_nat=True),
        workload=WorkloadSpec(),
        seed=4,
        covert=True,
        capture_nodes=("core",),
    )
    nodes = sim.topology.nodes
    syn = pk.build_tcp(
        nodes["secret_a"].ip, nodes["server_b"].ip, 33000, 9000,
        seq=0x43000000, flags=pk.TCP_SYN,
        src_mac=nodes["secret_a"].mac, dst_mac=nodes["gw_a"].mac,
    )
    sim.send_from("secret_a", syn)
    sim.run(MICROS)
    table = sim._phys_nat["gw_a"]
    assert len(table) == 1
    (proto, mapped), (orig_ip, orig_port) = next(iter(table.items()))
    assert proto == pk.PROTO_TCP and mapped >= 61000
    assert orig_ip == pk.str_to_ip(nodes["secret_a"].ip) and orig_port == 33000
    assert sim._ip_to_node[orig_ip] == "secret_a"
    assert sim._phys_nat_back["gw_a"] == {(proto, orig_ip, orig_port): mapped}
    # reply came back through the mapping
    assert sim.node_stats["secret_a"].received == 1
    # the same flow again reuses its mapping
    sim.send_from("secret_a", syn)
    sim.run(MICROS)
    assert len(table) == 1
    assert sim.node_stats["secret_a"].received == 2
    # the wire never carried the secret host's address
    secret_ip = pk.str_to_ip(nodes["secret_a"].ip)
    for src, dst in sim.monitor_stats["core"].addresses:
        assert secret_ip not in (src, dst)


def test_gateway_address_translation_ports_wrap():
    sim = Simulation(
        line_topology(visible_users=1, gateway_nat=True),
        workload=WorkloadSpec(),
        seed=4,
        covert=True,
    )
    nodes = sim.topology.nodes
    secret_ip = pk.str_to_ip(nodes["secret_a"].ip)
    tcp = pk.PROTO_TCP

    def syn(sport):
        return pk.build_tcp(
            nodes["secret_a"].ip, nodes["server_b"].ip, sport, 9000,
            seq=0x43000000, flags=pk.TCP_SYN,
            src_mac=nodes["secret_a"].mac, dst_mac=nodes["gw_a"].mac,
        )

    # the last port in the range is followed by the first
    sim._phys_nat_next["gw_a"] = 65535
    for sport in (33000, 33001):
        sim.send_from("secret_a", syn(sport))
    sim.run(MICROS)
    assert sim._phys_nat["gw_a"] == {(tcp, 65535): (secret_ip, 33000), (tcp, 61000): (secret_ip, 33001)}
    assert sim.node_stats["secret_a"].received == 2
    # a port still mapped passes to the new flow, out of both indexes
    sim._phys_nat_next["gw_a"] = 65535
    sim.send_from("secret_a", syn(33002))
    sim.run(MICROS)
    assert sim._phys_nat["gw_a"] == {(tcp, 65535): (secret_ip, 33002), (tcp, 61000): (secret_ip, 33001)}
    assert sim._phys_nat_back["gw_a"] == {(tcp, secret_ip, 33002): 65535, (tcp, secret_ip, 33001): 61000}
    assert sim.node_stats["secret_a"].received == 3


def test_paced_transfer_retransmits_without_carriers():
    sim = Simulation(line_topology(visible_users=0), workload=WorkloadSpec(), seed=9)
    transfer = sim.add_paced_transfer("secret_a", "secret_b", packets=3)
    sim.run(MICROS)
    assert transfer.delivered_packets == 0
    assert transfer.retransmissions == 2  # timeouts at 0.4 s and 0.8 s


def test_paced_transfer_completes_with_carriers():
    sim = _sim(seed=10, visible_users=2)
    transfer = sim.add_paced_transfer("secret_a", "secret_b", packets=5)
    sim.run_until(lambda: transfer.finished_us is not None, max_us=60 * MICROS)
    assert transfer.finished_us is not None
    assert transfer.delivered_packets == 5
    assert sim.desync_count == 0


def test_two_paced_transfers_from_one_host_each_get_their_acknowledgements():
    sim = _sim(seed=0, visible_users=2, engine_config=EngineConfig(enabled_handlers=(1, 2), seed=0))
    transfers = [sim.add_paced_transfer("secret_a", "secret_b", 3) for _ in range(2)]
    sim.run_until(lambda: all(t.finished_us is not None for t in transfers), max_us=30 * MICROS)
    assert [t.delivered_packets for t in transfers] == [3, 3]
    assert [t.retransmissions for t in transfers] == [0, 0]
    assert not sim._flows


def test_sent_series_buckets_by_interval():
    sim = _sim(seed=12, visible_users=1)
    transfer = sim.add_paced_transfer("secret_a", "secret_b", packets=40)
    sim.run(3 * MICROS)
    series = send_counts(transfer.send_times, MICROS, 3 * MICROS)
    assert len(series) == 3
    assert transfer.retransmissions > 0
    assert sum(series) == sim.node_stats["secret_a"].sent
    assert all(v > 0 for v in series)


def test_memory_does_not_grow_with_virtual_time():
    sim = _sim(seed=5, visible_users=2)
    transfer = sim.add_bulk_transfer("secret_a", "secret_b", 2048)
    sim.run(5 * MICROS)
    assert transfer.delivered_octets == 2048
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sim.run(20 * MICROS)
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # One timestamp kept per send would add about 150 kB over these 20 s;
    # the counters add under 20 kB (struct's format cache, heap churn).
    assert growth < 50_000


def test_workload_flow_serials_wrap_inside_the_port_range():
    sim = _sim(seed=0, visible_users=1, covert=False)
    client = sim.clients["vis_a_1"]
    # The last serial whose source port 20000 + 3 * serial + 2 fits.
    last = (0xFFFF - 20002) // 3
    client.flow_serial = last
    sim.run(2 * MICROS)
    assert client.flow_serial < last
    assert all(flow.sport <= 0xFFFF for flow in client.flows.values())


def test_sequential_bulk_transfers_to_one_host_stay_apart():
    sim = _sim(seed=3, visible_users=4)
    transfers = []
    for _ in range(3):
        transfer = sim.add_bulk_transfer("secret_b", "secret_a", 4096, start_us=sim.now)
        sim.run_until(lambda: transfer.delivered_octets >= 4096, max_us=sim.now + 60 * MICROS)
        transfers.append((transfer, transfer.finished_us))
    for transfer, finished_us in transfers:
        assert transfer.delivered_octets == 4096
        assert transfer.delivered_packets == transfer.sent_packets
        assert transfer.delivered_digest == transfer.sent_digest
        # later transfers' packets never move an earlier completion time
        assert transfer.finished_us == finished_us
    finished = [t.finished_us for t, _ in transfers]
    assert finished == sorted(set(finished))


def test_a_finished_transfer_is_not_kept():
    sim = _sim(seed=3, visible_users=4)
    transfer = sim.add_bulk_transfer("secret_b", "secret_a", 4096, start_us=sim.now)
    sim.run_until(lambda: transfer.delivered_octets >= 4096, max_us=60 * MICROS)
    assert transfer.delivered_digest == transfer.sent_digest
    gone = weakref.ref(transfer)
    del transfer
    assert gone() is None
    # A transfer that has not arrived stays mapped.
    stalled = sim.add_bulk_transfer("secret_b", "secret_a", 4096, start_us=sim.now + 60 * MICROS)
    sim.run(MICROS)
    assert list(sim._flows.values()) == [stalled]


def test_a_transfer_cannot_start_in_the_past():
    sim = _sim(seed=3)
    sim.run(5 * MICROS)
    with pytest.raises(SimError, match="before now"):
        sim.add_bulk_transfer("secret_a", "secret_b", 512, start_us=sim.now - 1)
    bulk = sim.add_bulk_transfer("secret_a", "secret_b", 512)
    paced = sim.add_paced_transfer("secret_a", "secret_b", 1)
    sim.run_until(lambda: bulk.finished_us and paced.finished_us, max_us=sim.now + 30 * MICROS)
    # A default start is now, not virtual time 0.
    assert paced.send_times[0] == 5 * MICROS
    assert bulk.finished_us > 5 * MICROS
    assert list(sim._flows) == []


def test_the_clock_cannot_run_backwards():
    sim = _sim(seed=3)
    sim.run(1000)
    with pytest.raises(SimError, match="negative"):
        sim.run(-600)
    assert sim.now == 1000


@pytest.mark.parametrize("packet_size", [0, -1])
def test_a_bulk_transfer_refuses_packets_without_octets(packet_size):
    # A zero-octet packet never drains the payload, so the transfer
    # would loop at its start; it is refused before anything runs.
    sim = _sim(seed=3)
    with pytest.raises(SimError, match="packet size"):
        sim.add_bulk_transfer("secret_a", "secret_b", 512, packet_size=packet_size)
    assert not sim._flows


def test_a_bulk_transfer_refuses_an_empty_payload():
    # An empty payload sends nothing, so it would never finish.
    sim = _sim(seed=3)
    with pytest.raises(SimError, match="payload of 0 octets"):
        sim.add_bulk_transfer("secret_a", "secret_b", 0)
    assert not sim._flows


@pytest.mark.parametrize("add", [lambda sim, src, dst: sim.add_bulk_transfer(src, dst, 512),
                                 lambda sim, src, dst: sim.add_paced_transfer(src, dst, 1)], ids=["bulk", "paced"])
@pytest.mark.parametrize("src,dst,bad", [("secret_a", "nonexistent", "nonexistent"), ("core", "secret_b", "core")])
def test_a_transfer_refuses_an_endpoint_without_an_address(add, src, dst, bad):
    # An undeclared name, or a monitor with no address, would end the
    # next run with a traceback from inside the transfer's start.
    sim = _sim(seed=3)
    with pytest.raises(SimError, match="endpoint '%s' is not a node with an address" % bad):
        add(sim, src, dst)
    assert not sim._flows
    sim.run(MICROS)
    assert add(sim, "secret_a", "secret_b").sport == 41000


@pytest.mark.parametrize("add", [lambda sim, name: sim.add_bulk_transfer(name, name, 2000),
                                 lambda sim, name: sim.add_paced_transfer(name, name, 1)], ids=["bulk", "paced"])
def test_a_transfer_refuses_a_host_sending_to_itself(add):
    # Such a transfer used to be accepted and then deliver nothing until the run's deadline.
    sim = _sim(seed=1)
    with pytest.raises(SimError, match="transfer from 'secret_a' to itself"):
        add(sim, "secret_a")
    assert not sim._flows


def test_translated_replies_reach_the_secret_host_at_its_own_mac():
    sim = Simulation(line_topology(visible_users=1, gateway_nat=True), workload=WorkloadSpec(), seed=4,
                     capture_nodes=("secret_a",))
    nodes = sim.topology.nodes
    addresses = dict(src_mac=nodes["secret_a"].mac, dst_mac=nodes["gw_a"].mac)
    sim.send_from("secret_a", pk.build_icmp_echo(nodes["secret_a"].ip, nodes["server_b"].ip, identifier=7,
                                                 sequence=1, payload=b"p" * 32, **addresses))
    sim.send_from("secret_a", pk.build_udp(nodes["secret_a"].ip, nodes["server_b"].ip, 33000, UDP_SERVICE_PORT,
                                           payload=b"q" * 32, **addresses))
    sim.run(MICROS)
    replies = [pk.parse_packet(r.data) for r in sim.captures["secret_a"].records]
    assert sorted(r.ipv4.protocol for r in replies) == [pk.PROTO_ICMP, pk.PROTO_UDP]
    for reply in replies:
        assert reply.ipv4.dst_ip == pk.str_to_ip(nodes["secret_a"].ip)
        assert reply.link.dst_mac == pk.str_to_mac(nodes["secret_a"].mac)


def test_a_lost_packet_stalls_only_its_own_transfer():
    sim = _sim(seed=3, visible_users=4)
    lost = []

    def lossy(p, came_from, size):
        if not lost and p.tcp is not None and p.tcp.dst_port == SECRET_PORT and p.app_payload:
            lost.append(p)
            return
        receive(p, came_from, size)

    # Every hop into secret_a goes through its receive function.
    receive = _intercept(sim, "secret_a", lossy)
    stalled = sim.add_bulk_transfer("secret_b", "secret_a", 4096, start_us=sim.now)
    sim.run(30 * MICROS)
    assert lost and stalled.delivered_octets == 4096 - 512
    # Seven of its eight packets arrived; it has not finished.
    assert stalled.finished_us is None
    after = sim.add_bulk_transfer("secret_b", "secret_a", 4096, start_us=sim.now)
    sim.run_until(lambda: after.delivered_octets >= 4096, max_us=sim.now + 60 * MICROS)
    assert stalled.delivered_octets == 4096 - 512
    assert stalled.finished_us is None
    assert after.delivered_packets == after.sent_packets
    assert after.delivered_digest == after.sent_digest
    assert after.finished_us <= sim.now


def test_concurrent_bulk_transfers_to_one_host_stay_apart():
    sim = _sim(seed=4, visible_users=2, covert=False)
    transfers = [sim.add_bulk_transfer(src, "secret_a", 3072, packet_size=256)
                 for src in ("secret_b", "server_b")]
    sim.run_until(lambda: all(t.delivered_octets >= 3072 for t in transfers), max_us=60 * MICROS)
    for transfer in transfers:
        assert transfer.delivered_octets == 3072
        assert transfer.delivered_digest == transfer.sent_digest


def test_bulk_transfer_through_gateway_address_translation_is_credited():
    sim = Simulation(line_topology(visible_users=1, gateway_nat=True), workload=WorkloadSpec(), seed=4)
    transfer = sim.add_bulk_transfer("secret_a", "server_b", 2048)
    sim.run_until(lambda: transfer.delivered_octets >= 2048, max_us=10 * MICROS)
    assert sim._phys_nat["gw_a"]
    assert transfer.delivered_octets == 2048
    assert transfer.delivered_digest == transfer.sent_digest


def _node(name, kind, ip=None, **extra):
    lines = ["[node]", "name = %s" % name, "kind = %s" % kind]
    if ip:
        lines.append("ip = %s" % ip)
    lines.extend("%s = %s" % item for item in extra.items())
    return "\n".join(lines)


# Two equal-length paths between the gateways, declared against name
# order; a workload host as far from one gateway as from the other; and
# one cut off from everything.
TIES = "\n\n".join([
    _node("gw_a", "cgateway", "10.0.1.1", peer="gw_b"),
    _node("gw_b", "cgateway", "10.0.2.1", peer="gw_a"),
    _node("secret_a", "host", "10.0.1.2", secret="true"),
    _node("secret_b", "host", "10.0.2.2", secret="true"),
    _node("vis_a", "host", "10.0.1.3", workload="true"),
    _node("vis_b", "host", "10.0.2.3", workload="true"),
    _node("r2", "router"),
    _node("r1", "router"),
    _node("mid", "host", "10.0.3.1", workload="true"),
    _node("lone", "host", "10.0.4.1", workload="true"),
] + [
    "[link]\na = %s\nb = %s\ncapacity = 125000" % pair
    for pair in (("secret_a", "gw_a"), ("vis_a", "gw_a"), ("gw_a", "r2"), ("gw_a", "r1"),
                 ("r2", "gw_b"), ("r1", "gw_b"), ("gw_b", "secret_b"), ("gw_b", "vis_b"),
                 ("mid", "r1"))
])


class _BruteForce:
    """Set-up facts recomputed from ``Topology.hop_count`` and
    ``Topology.neighbors`` alone, the slow way."""

    def __init__(self, topo):
        self.topo = topo
        self.hops = {}

    def hop_count(self, a, b):
        if (a, b) not in self.hops:
            self.hops[(a, b)] = self.topo.hop_count(a, b)
        return self.hops[(a, b)]

    def closer_to(self, node, a, b):
        da, db = self.hop_count(node, a), self.hop_count(node, b)
        return da is not None and (db is None or da < db)

    def target(self, host):
        for a, b in self.topo.gateway_pairs():
            near, far = (a, b) if self.closer_to(host, a, b) else (b, a)
            options = sorted(
                n.name for n in self.topo.nodes.values()
                if n.kind == "host" and not n.secret and n.name != host
                and self.closer_to(n.name, far, near)
            )
            if options:
                return options[0]
        return None

    def secret_addresses(self, gw, peer):
        return {
            pk.str_to_ip(h.ip) for h in self.topo.nodes.values()
            if h.secret and self.closer_to(h.name, peer, gw)
        }

    def first_hop(self, origin, dest):
        """The lowest-named neighbour on a shortest path."""
        hops = self.hop_count(origin, dest)
        return min(n for n in self.topo.neighbors(origin) if self.hop_count(n, dest) == hops - 1)


@pytest.mark.parametrize(
    "make_topology",
    [lambda path=path: load_topology(path.read_text(encoding="utf-8")) for path in CONFIGS]
    + [lambda n=n: line_topology(visible_users=n) for n in (1, 7, 33)]
    + [lambda: load_topology(TIES)],
    ids=[path.stem for path in CONFIGS] + ["line_%d" % n for n in (1, 7, 33)] + ["ties"],
)
def test_setup_facts_match_brute_force(make_topology):
    topo = make_topology()
    sim = Simulation(topo, workload=WorkloadSpec(), seed=0)
    ref = _BruteForce(topo)
    expected_targets = {}
    for node in topo.nodes.values():
        if node.workload and ref.target(node.name) is not None:
            expected_targets[node.name] = ref.target(node.name)
    assert {host: client.target for host, client in sim.clients.items()} == expected_targets
    pairs = topo.gateway_pairs()
    assert pairs
    for a, b in pairs:
        for gw, peer in ((a, b), (b, a)):
            assert sim._secret_registry[gw] == ref.secret_addresses(gw, peer)
            assert sim._gateway_side[gw] == ref.first_hop(gw, peer)


def test_setup_walks_the_topology_a_bounded_number_of_times(monkeypatch):
    topo = line_topology(visible_users=200)
    calls = {"neighbors": 0, "hop_count": 0}

    def counted(name):
        original = getattr(Topology, name)

        def wrapper(self, *args):
            calls[name] += 1
            return original(self, *args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(Topology, name, counted(name))
    sim = Simulation(topo, workload=WorkloadSpec(), seed=0)
    assert len(sim.clients) == 200
    assert calls["neighbors"] + calls["hop_count"] <= len(topo.nodes)


def test_encrypted_backlog_waits_for_the_key_exchange(monkeypatch):
    """Secret packets queued before the cipher boundary wait for it:
    the key exchange opens ahead of them and every one goes encrypted."""
    opened = []
    next_item = CovertGateway._next_item

    def spy(self):
        before = self._tx_item
        item = next_item(self)
        if item is not None and item is not before:
            opened.append((self.node_id, item.kind, item.wire_bytes != item.payload))
        return item

    monkeypatch.setattr(CovertGateway, "_next_item", spy)
    sim = Simulation(line_topology(visible_users=1),
                     engine_config=EngineConfig(enabled_handlers=(1, 2), encryption=True, seed=0), seed=0)
    transfer = sim.add_bulk_transfer("secret_a", "secret_b", 4000)
    sim.run_until(lambda: transfer.delivered_octets >= 4000, max_us=30 * MICROS)
    assert transfer.delivered_octets == 4000 and transfer.delivered_digest == transfer.sent_digest
    assert sim.desync_count == 0
    assert all(gateway.session_established for gateway in sim.gateways.values())
    data = [encrypted for _, kind, encrypted in opened if kind == ITEM_DATA]
    assert len(data) == 16 and all(data)
    # On each side every key-exchange item opens before any data item.
    for node in sim.gateways:
        kinds = [kind for name, kind, _ in opened if name == node]
        assert kinds == sorted(kinds, key=lambda kind: kind == ITEM_DATA)


def _probe_topology():
    """``firewall_bypass.topo`` with a router between gw_a and the core
    monitor, a log rule on TCP port 80 and a drop rule on UDP port 5353."""
    text = (Path(__file__).resolve().parent.parent / "configs" / "firewall_bypass.topo").read_text()
    text = text.replace("[link]\na = gw_a\nb = core\n",
                        "[node]\nname = edge\nkind = router\n\n"
                        "[link]\na = gw_a\nb = edge\ncapacity = 125000\ndelay_us = 200\n\n"
                        "[link]\na = edge\nb = core\n")
    text += ("\n[rule]\nnode = core\naction = log\nproto = tcp\ndst_port = 80\n"
             "\n[rule]\nnode = core\naction = drop\nproto = udp\ndst_port = 5353\n")
    return load_topology(text)


def test_router_log_rule_and_port_rule():
    topo = _probe_topology()
    assert topo.nodes["edge"].kind == "router"
    assert [(r.action, r.proto, r.dst_port) for r in topo.rules[-2:]] == [("log", "tcp", 80), ("drop", "udp", 5353)]
    # Handlers 1 and 2 leave UDP alone, so the dropped datagrams carry none of the stream.
    sim = Simulation(topo, workload=WorkloadSpec(), engine_config=EngineConfig(enabled_handlers=(1, 2), seed=1), seed=1)
    transfer = sim.add_bulk_transfer("secret_a", "secret_b", 800)
    sim.run_until(lambda: transfer.delivered_octets >= 800, max_us=30 * MICROS)
    assert transfer.delivered_octets == 800 and transfer.delivered_digest == transfer.sent_digest
    assert sim.desync_count == 0
    router = sim.node_stats["edge"]
    assert (router.received, router.forwarded, router.dropped) == (59, 59, 0)
    core = sim.monitor_stats["core"]
    assert (core.log_hits, core.rule_drops, core.rule_hits) == (11, 6, {4: 11, 5: 6})


def test_a_lost_carrier_desyncs_and_the_carriers_still_go_on():
    sim = _sim(seed=0, visible_users=1)
    engine = sim.gateways["gw_b"]
    lost, desynced, arrived = [], [], []

    def lossy(p, came_from, size):
        # The first carrier holding a segment opens an item; without it
        # the rest of that item has no opening header.
        if not lost and came_from == "core" and engine.registry.match(p) and not wire.is_excluded(p):
            lost.append(p)
            return
        receive(p, came_from, size)

    extract = engine.extract

    def spy(carrier):
        try:
            return extract(carrier)
        except DesyncError as exc:
            desynced.append(exc.forwarded)
            raise

    def at_server(p, came_from, size):
        arrived.append(p)
        server(p, came_from, size)

    receive = _intercept(sim, "gw_b", lossy)
    server = _intercept(sim, "server_b", at_server)
    engine.extract = spy
    sim.add_bulk_transfer("secret_a", "secret_b", 2000)
    sim.run(5 * MICROS)
    assert len(lost) == 1
    assert sim.desync_count == len(desynced) > 0
    # Each carrier that could not be read still reached its destination.
    assert {id(p) for p in desynced} <= {id(p) for p in arrived}
