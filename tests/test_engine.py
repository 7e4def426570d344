"""Fuse/extract gateway pair, end to end.

The five-carrier walkthroughs pin the selection and sync behaviour to
hand-computed octet counts; the randomized round trips then cover the
same machinery over arbitrary carrier mixes.
"""

import contextlib
import dataclasses
import random
import sys
from dataclasses import replace

import pytest

from stegnet import packet as pk
from stegnet import wire
from stegnet.engine import (
    CovertGateway,
    DesyncError,
    EngineConfig,
    EngineError,
    Oversize,
)
from stegnet.handlers import (
    ICMP_PAYLOAD_ID,
    HandlerRegistry,
    TCP_ISN_ID,
    TCP_OPTIONS_ID,
    UnknownHandler,
    build_registry,
    make_icmp_payload_handler,
    make_tcp_options_handler,
)
from stegnet import crypto
from stegnet import trace as tr
from stegnet.scenarios import line_topology
from stegnet.simnet import MICROS, Simulation

MAC_HIGH = b"\x02\x00\x00\x00\x00\x0a"
MAC_LOW = b"\x02\x00\x00\x00\x00\x01"


def _tcp(i=0, *, src="10.0.1.5", dst="10.0.2.9", sport=40000, dport=80, payload=b"x" * 64):
    return pk.build_tcp(src, dst, sport, dport, seq=5000 + i, payload=payload)


def _icmp(i=0, *, size=56):
    return pk.build_icmp_echo("10.0.1.5", "10.0.2.9", identifier=9, sequence=i, payload=bytes([0x20 + i % 64]) * size)


def _pair(config=None, registry=None, peer_registry=None):
    cfg = config or EngineConfig()
    tx = CovertGateway("gw_a", "gw_b", replace(cfg), registry=registry, local_mac=MAC_HIGH)
    rx = CovertGateway("gw_b", "gw_a", replace(cfg), registry=peer_registry or registry, local_mac=MAC_LOW)
    return tx, rx


def _pump(tx, rx, carriers):
    """Run carriers through one direction; returns (fusion stats,
    extract stats, completed secrets)."""
    fstats, estats, got = [], [], []
    for c in carriers:
        fused, fs = tx.fuse(c)
        assert pk.validate_checksums(fused), "fused carrier must stay checksum-clean"
        repaired, secrets, es = rx.extract(fused)
        assert pk.validate_checksums(repaired)
        fstats.append(fs)
        estats.append(es)
        got.extend(secrets)
    return fstats, estats, got


def test_five_carrier_walkthrough():
    # Two 40-octet TCP carriers, one 56-octet echo request, two more
    # TCP carriers move a 213-octet secret with a single opening sync:
    # 37+40+56+40+40.  The ICMP continuation is silent because both
    # sides see exactly one matching handler on either side of the hop.
    secret = random.Random(31).randbytes(213)
    tx, rx = _pair(EngineConfig(enabled_handlers=(TCP_OPTIONS_ID, ICMP_PAYLOAD_ID)))
    tx.enqueue_secret(secret)
    carriers = [_tcp(0), _tcp(1), _icmp(2), _tcp(3), _tcp(4)]
    fstats, estats, got = _pump(tx, rx, carriers)

    assert [f.sync_octets for f in fstats] == [3, 0, 0, 0, 0]
    assert [f.data_octets for f in fstats] == [37, 40, 56, 40, 40]
    assert [f.handler_id for f in fstats] == [1, 1, 2, 1, 1]
    assert fstats[-1].item_completed and tx.idle
    assert got == [secret]
    assert [e.data_octets for e in estats] == [37, 40, 56, 40, 40]
    assert tx.counters["sync_octets"] == 3
    assert tx.counters["secret_octets_sent"] == 213
    assert rx.counters["rx_sync_octets"] == 3
    assert rx.counters["secret_octets_delivered"] == 213
    assert rx.counters["secret_packets_delivered"] == 1


def test_five_carrier_walkthrough_with_competing_icmp_handlers():
    # Same carriers, but a second echo-payload handler (id 6) competes
    # for the ICMP hop.  Multiplicity 2 forces explicit switches both
    # into and out of the echo region: 37+40+53+37+40 with syncs on
    # carriers 1, 3 and 4.
    def _registry():
        reg = build_registry(enabled=(TCP_OPTIONS_ID, ICMP_PAYLOAD_ID))
        reg.register(make_icmp_payload_handler(handler_id=6, cost=0.12, name="icmp_payload_alt"))
        return reg

    secret = random.Random(32).randbytes(207)
    cfg = EngineConfig(enabled_handlers=(TCP_OPTIONS_ID, ICMP_PAYLOAD_ID))
    tx, rx = _pair(cfg, registry=_registry(), peer_registry=_registry())
    tx.enqueue_secret(secret)
    fstats, estats, got = _pump(tx, rx, [_tcp(0), _tcp(1), _icmp(2), _tcp(3), _tcp(4)])

    assert [f.sync_octets for f in fstats] == [3, 0, 3, 3, 0]
    assert [f.data_octets for f in fstats] == [37, 40, 53, 37, 40]
    assert [f.handler_id for f in fstats] == [1, 1, 2, 1, 1]
    assert got == [secret]
    assert [e.sync_octets for e in estats] == [3, 0, 3, 3, 0]
    assert tx.idle and rx.counters["secret_octets_delivered"] == 207


def test_unmatched_carriers_pass_untouched():
    tx, rx = _pair(EngineConfig(enabled_handlers=(TCP_OPTIONS_ID,)))
    tx.enqueue_secret(b"\xaa" * 50)
    udp = pk.build_udp("10.0.1.5", "10.0.2.9", 5353, 5353, payload=b"q" * 30)
    before = pk.serialize_packet(udp)
    fused, fs = tx.fuse(udp)
    assert not fs.matched and not fs.modified
    assert pk.serialize_packet(fused) == before
    repaired, secrets, es = rx.extract(fused)
    assert not es.matched and secrets == []
    assert pk.serialize_packet(repaired) == before
    assert tx.pending_octets == 50


def test_idle_gateway_excludes_matched_carriers():
    tx, rx = _pair()
    carrier = _tcp()
    before = pk.serialize_packet(carrier)
    fused, fs = tx.fuse(carrier)
    assert fs.matched and fs.excluded and fs.modified
    assert fused.ipv4.tos == wire.EXCLUDE_TOS
    assert wire.is_excluded(fused)
    assert pk.validate_checksums(fused)
    repaired, secrets, es = rx.extract(fused)
    assert es.excluded and secrets == []
    assert not wire.is_excluded(repaired)
    assert pk.serialize_packet(repaired) == before
    assert tx.counters["carriers_excluded"] == 1


def test_capacity_starved_carrier_excluded_mid_stream():
    tx, rx = _pair(EngineConfig(enabled_handlers=(TCP_OPTIONS_ID, ICMP_PAYLOAD_ID)))
    secret = b"\x5a" * 30
    tx.enqueue_secret(secret)
    tiny = _icmp(size=2)  # capacity 2, opening needs 3+1
    fused, fs = tx.fuse(tiny)
    assert fs.excluded
    fstats, _, got = _pump(tx, rx, [_tcp(1)])
    assert fstats[0].sync_octets == 3 and fstats[0].data_octets == 30
    assert got == [secret]


def test_second_item_opens_on_fresh_carrier():
    # Leftover capacity after an item completes is deliberately wasted;
    # the next item always opens under its own sync on a new carrier.
    tx, rx = _pair(EngineConfig(enabled_handlers=(TCP_OPTIONS_ID,)))
    first, second = b"\x11" * 10, b"\x22" * 20
    tx.enqueue_secret(first)
    tx.enqueue_secret(second)
    fstats, _, got = _pump(tx, rx, [_tcp(0), _tcp(1)])
    assert [f.data_octets for f in fstats] == [10, 20]
    assert [f.sync_octets for f in fstats] == [3, 3]
    assert [f.item_completed for f in fstats] == [True, True]
    assert got == [first, second]


def test_randomized_round_trips():
    rng = random.Random(0xE7)
    cfg = EngineConfig(enabled_handlers=(TCP_OPTIONS_ID, ICMP_PAYLOAD_ID))
    for trial in range(25):
        tx, rx = _pair(cfg)
        secrets = [rng.randbytes(rng.randint(1, 400)) for _ in range(rng.randint(1, 4))]
        for s in secrets:
            tx.enqueue_secret(s)
        got = []
        guard = 0
        while not tx.idle or rx._rx_item is not None:
            guard += 1
            assert guard < 500, "stream failed to drain"
            pick = rng.random()
            if pick < 0.5:
                c = _tcp(guard, payload=rng.randbytes(rng.randint(0, 80)))
            elif pick < 0.8:
                c = _icmp(guard, size=rng.randint(0, 64))
            else:
                c = pk.build_udp("10.0.1.5", "10.0.2.9", 1000 + guard, 53, payload=b"u" * 10)
            fused, fs = tx.fuse(c)
            if fs.modified:
                spec = tx.registry.get(fs.handler_id) if fs.handler_id else None
                if spec is not None:
                    assert fs.sync_octets + fs.data_octets <= spec.capacity(fused)
            _, out, _ = rx.extract(fused)
            got.extend(out)
        assert got == secrets, "trial %d diverged" % trial


def test_desync_drops_only_inflight_item():
    tx, rx = _pair(EngineConfig(enabled_handlers=(TCP_OPTIONS_ID,)))
    lost = b"\xee" * 100  # 0xEE never decodes as a sync code
    tx.enqueue_secret(lost)
    fused = [tx.fuse(_tcp(i))[0] for i in range(3)]
    assert tx.idle

    # First carrier vanishes in transit; the peer sees raw mid-item
    # octets where an opening sync should be and flags both leftovers.
    drops = 0
    for f in fused[1:]:
        with pytest.raises(DesyncError) as err:
            rx.extract(f)
        assert err.value.forwarded is not None
        drops += 1
    assert drops == 2

    # The session itself survives: the next item opens cleanly.
    kept = b"\x55" * 30
    tx.enqueue_secret(kept)
    _, _, got = _pump(tx, rx, [_tcp(9)])
    assert got == [kept]


def _crafted(segment):
    """A TCP carrier whose options region holds ``segment`` verbatim."""
    return build_registry(enabled=(TCP_OPTIONS_ID,)).get(TCP_OPTIONS_ID).writer(_tcp(0), segment)


@pytest.mark.parametrize("segment", [
    # a recovery item announcing 3 octets instead of 17
    wire.encode_sync(wire.SyncHeader(wire.CODE_RECOVERY, 3)) + b"\x01\x02\x03",
    # a key exchange whose encrypted secret is garbage
    wire.encode_sync(wire.SyncHeader(wire.CODE_KEY_EXCHANGE, 0))
    + crypto.encode_ke_message(crypto.KE_SYMKEY, MAC_HIGH, b"\x00" * 5),
], ids=["short_recovery", "garbage_symkey"])
def test_undecodable_item_is_a_desync(segment):
    tx, rx = _pair(EngineConfig(enabled_handlers=(TCP_OPTIONS_ID,)))
    crafted = _crafted(segment)
    with pytest.raises(DesyncError) as err:
        rx.extract(crafted)
    assert err.value.forwarded is not None

    # The session survives: the next item opens cleanly.
    kept = b"\x55" * 30
    tx.enqueue_secret(kept)
    _, _, got = _pump(tx, rx, [_tcp(9)])
    assert got == [kept]


def test_session_reset_rides_after_pending_data():
    tx, rx = _pair(EngineConfig(enabled_handlers=(TCP_OPTIONS_ID,)))
    secret = b"\x77" * 12
    tx.enqueue_secret(secret)
    tx.reset_session()
    fstats, estats, got = _pump(tx, rx, [_tcp(0), _tcp(1)])
    assert got == [secret]
    assert fstats[1].item_kind == "reset"
    assert estats[1].item_kind == "reset"
    assert estats[1].sync_octets == 3 and estats[1].data_octets == 0
    assert not rx._rx_cipher_active
    assert tx.idle


def _drive_key_exchange(a, b, max_rounds=60):
    rng = random.Random(5)
    rounds = 0
    while not (a.session_established and b.session_established and a.idle and b.idle):
        rounds += 1
        assert rounds < max_rounds, "key exchange failed to converge"
        fa, _ = a.fuse(_tcp(rounds, sport=41000))
        b.extract(fa)
        fb, _ = b.fuse(_tcp(rounds, src="10.0.2.9", dst="10.0.1.5", sport=42000))
        a.extract(fb)
    return rounds


def test_key_exchange_roles_follow_mac_order():
    cfg = EngineConfig(enabled_handlers=(TCP_OPTIONS_ID, ICMP_PAYLOAD_ID), encryption=True, seed=101)
    a = CovertGateway("gw_a", "gw_b", cfg, local_mac=MAC_HIGH)
    b = CovertGateway("gw_b", "gw_a", replace(cfg, seed=202), local_mac=MAC_LOW)
    a.start_key_exchange()
    b.start_key_exchange()
    _drive_key_exchange(a, b)
    assert a.session.role == crypto.ROLE_GENERATOR
    assert b.session.role == crypto.ROLE_RECEIVER
    assert a.session.secret == b.session.secret


def _encrypted_pair():
    """Handler-1 gateways, seeds 101 and 202, with their keys agreed."""
    cfg = EngineConfig(enabled_handlers=(TCP_OPTIONS_ID,), encryption=True, seed=101)
    a = CovertGateway("gw_a", "gw_b", cfg, local_mac=MAC_HIGH)
    b = CovertGateway("gw_b", "gw_a", replace(cfg, seed=202), local_mac=MAC_LOW)
    a.start_key_exchange()
    b.start_key_exchange()
    _drive_key_exchange(a, b)
    return a, b


def test_encrypted_transfer_hides_payload_but_not_sync():
    a, b = _encrypted_pair()
    secret = b"attack at dawn, move the blue boxes first" * 3
    a.enqueue_secret(secret)
    wire_data = bytearray()
    got = []
    i = 0
    while not a.idle:
        i += 1
        fused, fs = a.fuse(_tcp(i, sport=43000))
        region = fused.tcp.options
        if fs.sync_octets:
            header = wire.decode_sync(region[: wire.SYNC_SIZE])
            assert header is not None, "sync octets must stay plaintext"
            wire_data += region[wire.SYNC_SIZE : wire.SYNC_SIZE + fs.data_octets]
        else:
            wire_data += region[: fs.data_octets]
        _, out, _ = b.extract(fused)
        got.extend(out)
    assert got == [secret]
    assert len(wire_data) == len(secret)
    assert bytes(wire_data) != secret, "payload must not ride in the clear"


def _both_ways(a, b, rounds, b_first):
    """One carrier each way per round; returns what ``a`` delivered and
    the desyncs it raised."""
    got, desyncs = [], []
    for i in range(rounds):
        for side in ("b", "a") if b_first else ("a", "b"):
            if side == "a":
                b.extract(a.fuse(_tcp(i, sport=41000))[0])
                continue
            try:
                got += a.extract(b.fuse(_tcp(i, src="10.0.2.9", dst="10.0.1.5", sport=42000))[0])[1]
            except DesyncError as exc:
                desyncs.append(str(exc))
    return got, desyncs


@pytest.mark.parametrize("b_first", [False, True], ids=["reset_read_first", "secret_on_its_way"])
def test_reset_meets_the_peers_encrypted_secret(b_first):
    # a resets while b holds an encrypted secret for it.  When b reads the
    # reset first, the secret waits for a new key exchange, and b's fuse
    # must not raise NotEstablished; when it is already on its way, a ends
    # it in a desync rather than deliver the ciphertext as the secret.
    a, b = _encrypted_pair()
    secret = b"attack at dawn " * 4
    b.enqueue_secret(secret)
    a.reset_session()
    got, desyncs = _both_ways(a, b, 10, b_first)
    assert got == []
    if b_first:
        assert desyncs == ["undecodable data item: no symmetric key installed"]
        assert b.idle
        b.enqueue_secret(secret)
    else:
        assert desyncs == []
        assert b.pending_octets == len(secret)
    assert not (a.session_established or b.session_established)
    a.start_key_exchange()
    b.start_key_exchange()
    got, desyncs = _both_ways(a, b, 40, b_first)
    assert got == [secret] and desyncs == []
    assert a.session.secret == b.session.secret


def test_isn_rewrite_translates_and_relays_recovery():
    cfg = EngineConfig(enabled_handlers=(TCP_OPTIONS_ID, ICMP_PAYLOAD_ID, TCP_ISN_ID), augmented_allowed=True)
    tx, rx = _pair(cfg)
    tx.enqueue_secret(b"\x99")

    syn = pk.build_tcp("10.0.1.5", "10.0.2.9", 40000, 80, seq=0x11111111, flags=pk.TCP_SYN)
    key = pk.flow_key(syn)
    fused_syn, fs = tx.fuse(syn)
    assert fs.handler_id == TCP_ISN_ID and fs.sync_octets == 3 and fs.data_octets == 1
    assert fs.item_completed
    delta = (fused_syn.tcp.seq - 0x11111111) & 0xFFFFFFFF
    assert tx.flow_deltas[key] == delta

    # Forward packets shift into the rewritten space, pure SYNs do not,
    # and reverse acknowledgements shift back.
    data_pkt = pk.build_tcp("10.0.1.5", "10.0.2.9", 40000, 80, seq=0x11111112, payload=b"hello")
    assert tx.adjust_flow(data_pkt).tcp.seq == (0x11111112 + delta) & 0xFFFFFFFF
    assert tx.adjust_flow(syn).tcp.seq == 0x11111111
    ack_pkt = pk.build_tcp(
        "10.0.2.9", "10.0.1.5", 80, 40000,
        seq=0x500, ack=(0x11111112 + delta) & 0xFFFFFFFF, flags=pk.TCP_ACK,
    )
    back = tx.adjust_flow(ack_pkt)
    assert back.tcp.ack == 0x11111112
    assert pk.validate_checksums(back)

    # Peer: secret arrives on the SYN itself, the recovery record on
    # the next carrier.  Knowledge lands in the recovery table, not in
    # the translation table, so seq/ack shifting happens exactly once.
    _, secrets, es = rx.extract(fused_syn)
    assert secrets == [b"\x99"] and es.handler_id == TCP_ISN_ID
    fused_next, fs2 = tx.fuse(_tcp(1))
    assert fs2.item_kind == "recovery"
    rx.extract(fused_next)
    assert len(rx.received_recovery_records) == 1
    record = rx.received_recovery_records[0]
    assert record.field_id == wire.FIELD_TCP_ISN
    assert record.original == 0x11111111
    assert rx.recovered_isn[key] == (0x11111111, fused_syn.tcp.seq)
    assert rx.flow_deltas == {}
    assert rx.adjust_flow(data_pkt).tcp.seq == 0x11111112


def test_augmented_channel_gated_by_config():
    tx, _ = _pair(EngineConfig(enabled_handlers=(TCP_OPTIONS_ID, ICMP_PAYLOAD_ID, TCP_ISN_ID)))
    tx.enqueue_secret(b"\x42")
    syn = pk.build_tcp("10.0.1.5", "10.0.2.9", 40000, 80, seq=7, flags=pk.TCP_SYN)
    fused, fs = tx.fuse(syn)
    assert fs.excluded, "augmented-only carriers are excluded unless allowed"
    assert tx.flow_deltas == {}


def test_augment_probability_diverts_eligible_carriers():
    # A cheap catch-all TCP handler would normally win the SYN; with
    # the probability forced to 1 every eligible carrier is diverted to
    # the sequence-number channel instead.
    def _registry():
        reg = build_registry(enabled=(TCP_OPTIONS_ID, TCP_ISN_ID))
        spec = make_tcp_options_handler(handler_id=7, cost=0.05)
        reg.register(replace(spec, name="tcp_options_any", match=lambda p: p.tcp is not None))
        return reg

    cfg = EngineConfig(
        enabled_handlers=(TCP_OPTIONS_ID, TCP_ISN_ID),
        augmented_allowed=True,
        augment_probability=1.0,
        seed=3,
    )
    tx = CovertGateway("gw_a", "gw_b", cfg, registry=_registry(), local_mac=MAC_HIGH)
    tx.enqueue_secret(b"\x10")
    syn = pk.build_tcp("10.0.1.5", "10.0.2.9", 40000, 80, seq=900, flags=pk.TCP_SYN)
    fused, fs = tx.fuse(syn)
    assert fs.handler_id == TCP_ISN_ID
    assert tx.flow_deltas, "diverted carrier must record its rewrite"


def test_enqueue_limits_and_chunking():
    tx, _ = _pair()
    with pytest.raises(EngineError):
        tx.enqueue_secret(b"")
    with pytest.raises(Oversize):
        tx.enqueue_secret(b"\x00" * 0x10000)
    count = tx.enqueue_payload(b"\xab" * 65536)
    assert count == 45  # ceil(65536 / 1480)
    assert tx.pending_octets == 65536


def test_unknown_enabled_handler_rejected_at_construction():
    with pytest.raises(UnknownHandler):
        CovertGateway("gw_a", "gw_b", EngineConfig(enabled_handlers=(9,)))
    with pytest.raises(UnknownHandler):
        CovertGateway("gw_a", "gw_b", EngineConfig(cost_overrides={7: 0.2}))


def test_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(enabled_handlers=()).validate()
    with pytest.raises(ValueError):
        EngineConfig(cost_overrides={1: 1.5}).validate()
    with pytest.raises(ValueError):
        EngineConfig(chunk_size=0).validate()
    with pytest.raises(ValueError):
        EngineConfig(augment_probability=-0.1).validate()


@contextlib.contextmanager
def _calls(*functions):
    """Count calls to any of ``functions`` made inside the block.  The
    hook matches each function by its code object, so a module that
    bound it with ``from dataclasses import replace`` is caught too."""
    targets = {function.__code__ for function in functions}
    calls = [0]

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in targets:
            calls[0] += 1

    sys.setprofile(hook)
    try:
        yield calls
    finally:
        sys.setprofile(None)


# The dataclass-generated __init__ of every packet layer class.
LAYER_INITS = tuple(cls.__init__ for cls in (pk.Ethernet, pk.Ipv4, pk.Tcp, pk.Udp, pk.Icmp, pk.ParsedPacket))


def _carrier_pass(*functions):
    """Calls to ``functions`` while a handlers-1,2,4 pair fuses and
    extracts a 2,000-record capture."""
    capture = tr.synthesize_mixed_trace(2000, seed=17)
    config = EngineConfig(enabled_handlers=(1, 2, 4), seed=17)
    tx, rx = CovertGateway("a", "b", config=config), CovertGateway("b", "a", config=config)
    payload = random.Random(17).randbytes(15 * 2000)
    tx.enqueue_payload(payload)
    with _calls(*functions) as calls:
        fused, _ = tr.fuse_records(tx, capture.records)
        _, tally = tr.extract_records(rx, fused)
    assert b"".join(tally.chunks) == payload
    # Both the segment writers and the exclusion marker ran under the hook.
    assert tx.counters["carriers_excluded"] > 0
    assert tx.counters["carriers_modified"] > 0
    return calls[0]


def test_carrier_path_calls_no_dataclass_replace():
    """fuse and extract rebuild carriers through packet.py's constructors."""
    assert _carrier_pass(dataclasses.replace) == 0


def test_carrier_path_calls_no_layer_init():
    """parse_packet and the rebuilders fill the slots directly instead of
    going through the frozen dataclasses' generated __init__."""
    assert _carrier_pass(*LAYER_INITS) == 0


def test_carrier_path_looks_up_no_handler_by_id():
    """fuse and extract pass the registry's specs along instead of
    turning handler ids back into specs."""
    assert _carrier_pass(HandlerRegistry.get) == 0


def test_gateway_nat_path_calls_no_dataclass_replace():
    """Gateway address translation rewrites packets through packet.py
    as well, both on the way out and on the way back in."""
    topology = line_topology(gateway_nat=True)
    topology.nodes["secret_a"].workload = True
    sim = Simulation(topology, engine_config=EngineConfig(seed=3), seed=3)
    transfer = sim.add_bulk_transfer("secret_a", "secret_b", 600)
    with _calls(dataclasses.replace) as calls:
        sim.run(3 * MICROS)
    assert transfer.delivered_octets == 600
    assert len(sim._phys_nat["gw_a"]) > 1
    # Replies to the translated workload came back through the table.
    assert sim.node_stats["secret_a"].received > 0
    assert calls[0] == 0
    # Each translation, out and back in, builds one packet.
    secret, server = sim._node_ip["secret_a"], sim._node_ip["server_b"]
    for request in (pk.build_tcp(secret, server, 40001, 80, flags=pk.TCP_SYN),
                    pk.build_udp(secret, server, 40002, 5353, payload=b"query"),
                    pk.build_icmp_echo(secret, server, identifier=7)):
        with _calls(pk._new_packet) as built:
            out = sim._phys_nat_out("gw_a", request)
        assert built[0] == 1 and pk.validate_checksums(out)
        t = out.transport
        answer = pk.readdress(out, src_ip=server, dst_ip=out.ipv4.src_ip, src_port=t.dst_port,
                              dst_port=t.src_port) if out.icmp is None else pk.readdress(out, dst_ip=out.ipv4.src_ip)
        with _calls(pk._new_packet) as built:
            back = sim._phys_nat_in("gw_a", answer)
        assert built[0] == 1 and back.ipv4.dst_ip == secret and pk.validate_checksums(back)


def test_simulator_derives_the_frame_length_only_where_a_packet_is_made():
    """The frame length rides with each hop's event: routers and
    monitors forward the size they received, so ``wire_len`` runs only
    for a packet sent from a host, forwarded by a gateway or delivered
    out of the covert stream."""
    topology = line_topology(visible_users=4)
    sim = Simulation(topology, engine_config=EngineConfig(enabled_handlers=(1, 2), seed=5), seed=5)
    transfer = sim.add_bulk_transfer("secret_b", "secret_a", 8192)
    with _calls(pk.ParsedPacket.wire_len.fget) as calls:
        sim.run(5 * MICROS)
    assert transfer.delivered_octets == 8192
    sent = sum(stats.sent for stats in sim.node_stats.values())
    gateway_forwarded = sum(sim.node_stats[name].forwarded for name in sim.gateways)
    secrets = sum(engine.counters["secret_packets_delivered"] for engine in sim.gateways.values())
    hops = sum(stats.received for stats in sim.node_stats.values())
    # Far fewer than one per hop: the routers and the monitor add none.
    assert calls[0] <= sent + gateway_forwarded + secrets < hops


def test_simulator_derives_the_ipv4_length_once_per_packet_operation():
    """The same run derives the IPv4 length (``_ipv4_lengths``) at most
    once for each packet built, rebuilt, checksum-validated or
    serialized, and for each frame length (``wire_len``) asked for."""
    def run(*functions):
        sim = Simulation(line_topology(visible_users=4), engine_config=EngineConfig(enabled_handlers=(1, 2), seed=5),
                         seed=5)
        transfer = sim.add_bulk_transfer("secret_b", "secret_a", 8192)
        with _calls(*functions) as calls:
            sim.run(5 * MICROS)
        assert transfer.delivered_octets == 8192
        return calls[0]

    derived = run(pk._ipv4_lengths)
    operations = run(pk._rebuild, pk.validate_ipv4_checksum, pk.serialize_packet, pk.ParsedPacket.wire_len.fget)
    assert 1000 < derived <= operations
