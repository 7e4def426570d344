"""Fuse/extract gateway pair, end to end.

The five-carrier walkthroughs pin the selection and sync behaviour to
hand-computed octet counts; the randomized round trips then cover the
same machinery over arbitrary carrier mixes.
"""

import contextlib
import dataclasses
import hashlib
import random
import sys
from dataclasses import replace

import pytest

from stegnet import packet as pk
from stegnet import engine, wire
from stegnet.engine import (
    ITEM_KEY_EXCHANGE,
    CarrierStats,
    CovertGateway,
    DesyncError,
    EngineConfig,
    EngineError,
    Oversize,
    _TxItem,
)
from stegnet.handlers import (
    ICMP_PAYLOAD_ID,
    IPV4_CHECKSUM_ID,
    HandlerRegistry,
    TCP_ISN_ID,
    TCP_OPTIONS_ID,
    UnknownHandler,
    _is_pure_syn,
    build_registry,
    make_icmp_payload_handler,
    make_tcp_isn_handler,
    make_tcp_options_handler,
    matches_only_pure_syns,
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


def test_a_carrier_the_active_handler_cannot_ride_is_a_desync():
    # a's item opened on handler 1 with two candidates, so every later
    # handler change is announced.  A third party's echo request matches
    # only handler 2 and announces no switch: b cannot read it as a's.
    a, b = _pair(EngineConfig(enabled_handlers=(TCP_OPTIONS_ID, ICMP_PAYLOAD_ID, IPV4_CHECKSUM_ID), seed=3))
    a.enqueue_secret(bytes(1000))
    fused, fs = a.fuse(_tcp(0))
    assert fs.handler_id == TCP_OPTIONS_ID and len(a.registry.match(_tcp(0))) == 2
    b.extract(fused)
    echo = pk.build_icmp_echo("10.0.7.7", "10.0.2.9", identifier=3, sequence=1, payload=bytes(range(56)))
    sent = pk.serialize_packet(echo)
    with pytest.raises(DesyncError, match="^active handler does not match carrier and no switch announced$") as err:
        b.extract(echo)
    assert pk.serialize_packet(err.value.forwarded) == sent

    # The rest of the interrupted item desyncs; the next one arrives whole.
    kept = random.Random(70).randbytes(300)
    a.enqueue_secret(kept)
    got, i = [], 0
    while not a.idle:
        i += 1
        try:
            got += b.extract(a.fuse(_tcp(i))[0])[1]
        except DesyncError:
            pass
    assert got == [kept]


def _crafted(segment):
    """A TCP carrier whose options region holds ``segment`` verbatim."""
    return build_registry(enabled=(TCP_OPTIONS_ID,)).get(TCP_OPTIONS_ID).writer(_tcp(0), segment)


@pytest.mark.parametrize("segment", [
    # code 0x05, which opens no item kind, announcing 3 octets
    b"\x05\x00\x03" + b"\x01\x02\x03",
    # code 0x05 announcing 17 octets: a flow key, a field id and an original ISN
    b"\x05\x00\x11" + bytes.fromhex("0a0001059c400a00020900500500001388"),
    # a key exchange whose encrypted secret is garbage
    wire.encode_sync(wire.SyncHeader(wire.CODE_KEY_EXCHANGE, crypto.KE_PREFIX + 5))
    + crypto.encode_ke_message(crypto.KE_SYMKEY, MAC_HIGH, b"\x00" * 5),
    # a data item announcing no octets: 01 00 00
    wire.encode_sync(wire.SyncHeader(wire.CODE_PACKET_START, 0)),
], ids=["short_recovery", "recovery_without_isn_channel", "garbage_symkey", "empty_packet"])
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
    # A reset is a zero-length item: it completes on its opening carrier.
    assert fstats[1].item_completed and estats[1].item_completed
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
    # it in a desync at its opening rather than deliver the ciphertext as
    # the secret, and the item's second carrier opens nothing.
    a, b = _encrypted_pair()
    secret = b"attack at dawn " * 4
    b.enqueue_secret(secret)
    a.reset_session()
    got, desyncs = _both_ways(a, b, 10, b_first)
    assert got == []
    if b_first:
        assert desyncs == ["data item opened with no session", "no opening header where one was expected"]
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


def test_forged_reset_ends_in_a_desync_not_in_ciphertext_delivered():
    # Anyone on the path can write a reset opening (options 04 00 00)
    # into a handler-1 carrier.  b drops its session, while a still
    # encrypts: a's next secret must end in a desync at b, not arrive
    # as ciphertext.
    a, b = _encrypted_pair()
    reset = wire.encode_sync(wire.SyncHeader(wire.CODE_SESSION_RESET, 0))
    forged = b.registry.get(TCP_OPTIONS_ID).writer(_tcp(7), reset)
    assert forged.tcp.options[:3] == bytes([4, 0, 0])
    b.extract(forged)
    secret = random.Random(64).randbytes(64)
    a.enqueue_secret(secret)
    got, desyncs, i = [], [], 0
    while not a.idle:
        i += 1
        try:
            got += b.extract(a.fuse(_tcp(i, sport=43000))[0])[1]
        except DesyncError as exc:
            desyncs.append(str(exc))
    assert got == [] and b.counters["secret_octets_delivered"] == 0
    assert desyncs and desyncs[0] == "data item opened with the receive cipher off"


@pytest.mark.parametrize("announced", [1, 0xFFFF])
def test_reset_announcing_octets_is_a_desync_that_keeps_the_session(announced):
    # A reset is a zero-length item, so an opening that announces more
    # is not the peer's: b refuses it and keeps the session it would drop.
    a, b = _encrypted_pair()
    session = b.session
    forged = b.registry.get(TCP_OPTIONS_ID).writer(
        _tcp(7), wire.encode_sync(wire.SyncHeader(wire.CODE_SESSION_RESET, announced)))
    with pytest.raises(DesyncError, match="undecodable reset item: %d octets announced" % announced):
        b.extract(forged)
    assert b.session is session and b.session_established
    secret = random.Random(66).randbytes(64)
    a.enqueue_secret(secret)
    got, i = [], 0
    while not a.idle:
        i += 1
        got += b.extract(a.fuse(_tcp(i, sport=43000))[0])[1]
    assert got == [secret]


@pytest.mark.parametrize("skew", [-1, 1], ids=["one_short", "one_long"])
def test_key_exchange_whose_opening_disagrees_with_its_prefix_is_a_desync(skew):
    # b's public key, whole, under an opening that announces one octet
    # fewer or more than its prefix: a takes no key and queues no reply.
    cfg = EngineConfig(enabled_handlers=(TCP_OPTIONS_ID, ICMP_PAYLOAD_ID), encryption=True, seed=101)
    a = CovertGateway("gw_a", "gw_b", cfg, local_mac=MAC_HIGH)
    b = CovertGateway("gw_b", "gw_a", replace(cfg, seed=202), local_mac=MAC_LOW)
    a.start_key_exchange()
    b.start_key_exchange()
    queued, session = list(a._queue), a.session
    message = b._queue[0].payload
    opening = wire.encode_sync(wire.SyncHeader(wire.CODE_KEY_EXCHANGE, len(message) + skew))
    carrier = a.registry.get(ICMP_PAYLOAD_ID).writer(_icmp(size=len(message) + 8), opening + message)
    with pytest.raises(DesyncError, match="undecodable key_exchange item"):
        a.extract(carrier)
    assert a.session is session and session.peer_public is None and session.key is None
    assert list(a._queue) == queued


@pytest.mark.parametrize("announced", [crypto.KE_PREFIX - 1, 0xFFFF], ids=["below_the_prefix", "longest_possible"])
def test_key_exchange_opening_beyond_the_longest_message_is_a_desync(announced):
    # A forged opening announcing 65,535 octets, taken at its word, would
    # swallow a's stream at b until that many octets had passed; one
    # shorter than the prefix holds no message.  Both end at the opening.
    a, b = _encrypted_pair()
    # The bound is the longest message a gateway builds: its public key.
    longest = crypto.encode_ke_message(crypto.KE_PUBKEY, MAC_HIGH, a.session.keypair.public.to_bytes())
    assert len(longest) == crypto.KE_LONGEST == 272
    prefix = crypto.encode_ke_message(crypto.KE_PUBKEY, MAC_HIGH, bytes(0xFFFF - crypto.KE_PREFIX))[:crypto.KE_PREFIX]
    opening = wire.encode_sync(wire.SyncHeader(wire.CODE_KEY_EXCHANGE, announced))
    forged = b.registry.get(TCP_OPTIONS_ID).writer(_tcp(7), opening + prefix)
    with pytest.raises(DesyncError, match="undecodable key_exchange item: %d octets announced" % announced):
        b.extract(forged)
    rng = random.Random(67)
    secrets = [rng.randbytes(200) for _ in range(20)]
    for secret in secrets:
        a.enqueue_secret(secret)
    got = []
    for i in range(120):
        got += b.extract(a.fuse(_tcp(i, sport=43000))[0])[1]
    assert got == secrets


@pytest.mark.parametrize("config", [
    EngineConfig(enabled_handlers=(TCP_OPTIONS_ID,), seed=3),
    EngineConfig(enabled_handlers=(TCP_OPTIONS_ID, TCP_ISN_ID), augmented_allowed=True, seed=3),
], ids=["without_isn_channel", "with_isn_channel"])
def test_recovery_opening_of_any_other_length_is_a_desync(config):
    # 0x05 once opened a recovery item; it opens nothing now, with the ISN
    # channel or without it.  A forged 05 ff ff taken at its word would
    # swallow a's stream at b.  It ends at the opening.
    a, b = _pair(config)
    forged = _crafted(b"\x05\xff\xff")
    with pytest.raises(DesyncError, match="no opening header where one was expected"):
        b.extract(forged)
    rng = random.Random(67)
    secrets = [rng.randbytes(200) for _ in range(20)]
    for secret in secrets:
        a.enqueue_secret(secret)
    got = []
    for i in range(120):
        got += b.extract(a.fuse(_tcp(i, sport=43000))[0])[1]
    assert got == secrets


def _mallory():
    """A third gateway on the path, its public key queued."""
    mallory = CovertGateway("mallory", "gw_a", EngineConfig(enabled_handlers=(TCP_OPTIONS_ID,), encryption=True,
                                                            seed=999), local_mac=pk.str_to_mac("02:00:00:00:00:05"))
    mallory.start_key_exchange()
    return mallory


def _forge_key_exchange(mallory, target):
    """``mallory`` sends its queue into handler-1 carriers that
    ``target`` extracts; returns the desync messages."""
    desyncs, i = [], 0
    while not mallory.idle:
        i += 1
        try:
            target.extract(mallory.fuse(_tcp(i, sport=44000))[0])
        except DesyncError as exc:
            desyncs.append(str(exc))
    return desyncs


def test_forged_key_exchange_leaves_an_established_key_alone():
    # Its MAC is below a's, so a would take the forged key, make a new
    # secret as the generator and queue it under the third party's key.
    a, b = _encrypted_pair()
    session = a.session
    key, peer_public = session.key, session.peer_public
    desyncs = _forge_key_exchange(_mallory(), a)
    assert desyncs == ["undecodable key_exchange item: public key already received in this session"]
    assert a.session is session and session.key == key and session.peer_public is peer_public
    assert a.idle, "no key-exchange reply may be queued"
    # The pair still talks under its own key.
    secret = random.Random(65).randbytes(64)
    a.enqueue_secret(secret)
    got, i = [], 0
    while not a.idle:
        i += 1
        got += b.extract(a.fuse(_tcp(i, sport=43000))[0])[1]
    assert got == [secret]


def test_secret_sent_to_the_generator_changes_no_key():
    a, _ = _encrypted_pair()
    session, key = a.session, a.session.key
    assert session.role == crypto.ROLE_GENERATOR
    mallory = CovertGateway("mallory", "gw_a", EngineConfig(enabled_handlers=(TCP_OPTIONS_ID,), encryption=True,
                                                            seed=999))
    secret = crypto.rsa_encrypt(session.keypair.public, bytes(crypto.SECRET_LEN))
    message = crypto.encode_ke_message(crypto.KE_SYMKEY, mallory.local_mac, secret)
    mallory._queue.append(_TxItem(kind=ITEM_KEY_EXCHANGE, payload=message))
    assert _forge_key_exchange(mallory, a) == ["undecodable key_exchange item: secret sent to the generator"]
    assert a.session is session and session.key == key
    assert a.idle, "no key-exchange reply may be queued"


def test_key_exchange_at_a_gateway_with_encryption_off_makes_no_key():
    plain = CovertGateway("gw_a", "gw_b", EngineConfig(enabled_handlers=(TCP_OPTIONS_ID,), seed=101),
                          local_mac=MAC_HIGH)
    mallory = _mallory()
    with _calls(crypto.generate_keypair) as keygens:
        desyncs = _forge_key_exchange(mallory, plain)
    # The item's later carriers open nothing, so each of them desyncs too.
    assert desyncs and desyncs[0] == "key_exchange item opened with encryption off"
    assert keygens[0] == 0 and plain.session is None
    assert plain.idle, "no key-exchange reply may be queued"


@pytest.mark.parametrize("opened_before_reset, reason", [
    (True, "undecodable data item: no session"),
    (False, "data item opened with no session"),
], ids=["completes_after_reset", "opens_after_reset"])
def test_secret_item_after_a_local_reset_makes_no_key(opened_before_reset, reason):
    # a's reset drops its session and keeps its receive cipher on, so b's
    # item, encrypted under the old key, cannot be read.  Decrypting it
    # used to make a's next key pair first.
    a, b = _encrypted_pair()
    b.enqueue_payload(random.Random(69).randbytes(1400))
    first = b.fuse(_tcp(0, sport=43000))[0]
    if opened_before_reset:
        a.extract(first)
    a.reset_session()
    pending = [] if opened_before_reset else [first]
    desyncs, i = [], 0
    with _calls(crypto.generate_keypair) as keygens:
        while pending or not b.idle:
            i += 1
            carrier = pending.pop() if pending else b.fuse(_tcp(i, sport=43000))[0]
            try:
                a.extract(carrier)
            except DesyncError as exc:
                desyncs.append(str(exc))
    assert keygens[0] == 0 and a.session is None
    assert desyncs and desyncs[0] == reason


@pytest.mark.parametrize("message, reason", [
    (crypto.encode_ke_message(0x07, MAC_HIGH, b""), "unknown message type 0x07"),
    (crypto.encode_ke_message(crypto.KE_CIPHER_ON, MAC_HIGH, b""), "message type 0x03 with no session"),
    (crypto.encode_ke_message(crypto.KE_SYMKEY, MAC_HIGH, bytes(5)), "message type 0x02 with no session"),
    (crypto.encode_ke_message(crypto.KE_PUBKEY, MAC_HIGH, b"\x00"), "public key blob truncated"),
], ids=["unknown_type", "cipher_on", "short_secret", "truncated_public_key"])
def test_only_a_public_key_makes_a_session(message, reason):
    # Encryption on and no session: anything but a peer's public key is
    # refused before it changes any state.  Each used to make a key pair.
    gateway = CovertGateway("gw_b", "gw_a", EngineConfig(enabled_handlers=(TCP_OPTIONS_ID,), encryption=True,
                                                         seed=202), local_mac=MAC_LOW)
    opening = wire.encode_sync(wire.SyncHeader(wire.CODE_KEY_EXCHANGE, len(message)))
    with _calls(crypto.generate_keypair) as keygens:
        with pytest.raises(DesyncError, match="undecodable key_exchange item: %s" % reason):
            gateway.extract(_crafted(opening + message))
    assert keygens[0] == 0 and gateway.session is None
    assert not gateway._rx_cipher_active and gateway.idle


def test_cipher_on_after_the_generators_reset_makes_no_key():
    # a, the generator, resets while b's cipher-on is on its way: a
    # refuses it, and neither makes a session nor turns its cipher on.
    cfg = EngineConfig(enabled_handlers=(TCP_OPTIONS_ID,), encryption=True, seed=101)
    a = CovertGateway("gw_a", "gw_b", cfg, local_mac=MAC_HIGH)
    b = CovertGateway("gw_b", "gw_a", replace(cfg, seed=202), local_mac=MAC_LOW)
    a.start_key_exchange()
    b.start_key_exchange()
    assert _forge_key_exchange(a, b) == _forge_key_exchange(b, a) == []
    assert _forge_key_exchange(a, b) == [] and b.session_established
    a.reset_session()
    with _calls(crypto.generate_keypair) as keygens:
        desyncs = _forge_key_exchange(b, a)
    assert desyncs == ["undecodable key_exchange item: message type 0x03 with no session"]
    assert keygens[0] == 0 and a.session is None and not a._rx_cipher_active


def test_a_public_key_too_short_for_a_secret_makes_no_session():
    # rsa_encrypt cannot pad a 16-octet secret to a modulus under 27
    # octets.  The generator used to refuse such a key only after making
    # a key pair, a session and a secret, and then refused the genuine
    # key after it as the session's second.
    cfg = EngineConfig(enabled_handlers=(TCP_OPTIONS_ID,), encryption=True, seed=101)
    a = CovertGateway("gw_a", "gw_b", cfg, local_mac=MAC_HIGH)
    b = CovertGateway("gw_b", "gw_a", replace(cfg, seed=202), local_mac=MAC_LOW)
    message = crypto.encode_ke_message(crypto.KE_PUBKEY, MAC_LOW, crypto.RsaPublicKey(n=3, e=65537).to_bytes())
    opening = wire.encode_sync(wire.SyncHeader(wire.CODE_KEY_EXCHANGE, len(message)))
    draws = a._rng.getstate()
    with _calls(crypto.generate_keypair) as keygens:
        with pytest.raises(DesyncError, match="undecodable key_exchange item: public key modulus under 27 octets"):
            a.extract(_crafted(opening + message))
    assert keygens[0] == 0 and a.session is None and a.idle
    assert a._rng.getstate() == draws
    a.start_key_exchange()
    b.start_key_exchange()
    _drive_key_exchange(a, b)
    assert a.session.role == crypto.ROLE_GENERATOR and a.session.secret == b.session.secret


def test_isn_rewrite_translates_and_sends_nothing():
    cfg = EngineConfig(enabled_handlers=(TCP_OPTIONS_ID, ICMP_PAYLOAD_ID, TCP_ISN_ID), augmented_allowed=True)
    tx, rx = _pair(cfg)
    tx.enqueue_secret(b"\x99")

    syn = pk.build_tcp("10.0.1.5", "10.0.2.9", 40000, 80, seq=0x11111111, flags=pk.TCP_SYN)
    key = pk.flow_key(syn)
    fused_syn, fs = tx.fuse(syn)
    assert fs.handler_id == TCP_ISN_ID and fs.sync_octets == 3 and fs.data_octets == 1
    assert fs.item_completed
    assert tx.idle, "the rewrite queues nothing for the peer"
    delta = (fused_syn.tcp.seq - 0x11111111) & 0xFFFFFFFF
    assert tx.flow_deltas[key] == delta

    # Forward packets shift into the rewritten space, a retransmitted
    # SYN with them, and reverse acknowledgements shift back.
    data_pkt = pk.build_tcp("10.0.1.5", "10.0.2.9", 40000, 80, seq=0x11111112, payload=b"hello")
    assert tx.adjust_flow(data_pkt).tcp.seq == (0x11111112 + delta) & 0xFFFFFFFF
    assert tx.adjust_flow(syn).tcp.seq == fused_syn.tcp.seq
    ack_pkt = pk.build_tcp(
        "10.0.2.9", "10.0.1.5", 80, 40000,
        seq=0x500, ack=(0x11111112 + delta) & 0xFFFFFFFF, flags=pk.TCP_ACK,
    )
    back = tx.adjust_flow(ack_pkt)
    assert back.tcp.ack == 0x11111112
    assert pk.validate_checksums(back)

    # Peer: the secret arrives on the SYN itself.  Only the rewriting
    # gateway translates, so seq/ack shifting happens exactly once.
    _, secrets, es = rx.extract(fused_syn)
    assert secrets == [b"\x99"] and es.handler_id == TCP_ISN_ID
    assert rx.flow_deltas == {}
    assert rx.adjust_flow(data_pkt).tcp.seq == 0x11111112


def test_a_new_flow_on_a_rewritten_flows_tuple_is_not_shifted():
    """A pure SYN that brings another initial sequence number opens a
    new flow on the same 5-tuple, so the old flow's correction ends."""
    tx = CovertGateway("a", "b", config=EngineConfig(enabled_handlers=(ICMP_PAYLOAD_ID, TCP_ISN_ID),
                                                     augmented_allowed=True, augment_probability=1.0, seed=1))
    tx.enqueue_secret(b"hi")

    def send(p):
        return tx.fuse(tx.adjust_flow(p))

    first = pk.build_tcp("10.1.0.2", "10.2.0.3", 40000, 80, seq=0x10000000, flags=pk.TCP_SYN)
    rewritten, stats = send(first)
    assert stats.handler_id == TCP_ISN_ID and rewritten.tcp.seq != 0x10000000
    send(_icmp())
    assert tx.idle
    # A retransmission of the rewritten SYN keeps the correction.
    assert tx.adjust_flow(first).tcp.seq == rewritten.tcp.seq and pk.flow_key(first) in tx.flow_deltas
    second = pk.build_tcp("10.1.0.2", "10.2.0.3", 40000, 80, seq=0x20000000, flags=pk.TCP_SYN)
    fused, stats = send(second)
    assert stats.excluded and fused.tcp.seq == 0x20000000
    assert tx.flow_deltas == {}
    segment = pk.build_tcp("10.1.0.2", "10.2.0.3", 40000, 80, seq=0x20000001, payload=bytes(100))
    assert send(segment)[0].tcp.seq == 0x20000001


def test_a_retransmitted_syn_keeps_its_first_rewrite():
    # Handler 5 is the only one that matches a SYN, so the sender used to
    # rewrite the copy's ISN again and switch flow_deltas to that rewrite:
    # an endpoint that answered the first copy got acknowledgements
    # shifted back by the wrong delta.
    tx, rx = _pair(EngineConfig(enabled_handlers=(ICMP_PAYLOAD_ID, TCP_ISN_ID), augmented_allowed=True,
                                augment_probability=1.0, seed=1))
    tx.enqueue_secret(b"hello world")
    syn = pk.build_tcp("10.1.0.2", "10.2.0.3", 40000, 80, seq=0x10000000, flags=pk.TCP_SYN)
    fused, got = [], []
    for carrier in [syn, syn] + [_icmp(i) for i in range(3)]:
        fused.append(tx.fuse(tx.adjust_flow(carrier)))
        got += rx.extract(fused[-1][0])[1]  # raises DesyncError on a desync
    (first, first_stats), (copy, copy_stats) = fused[:2]
    assert first.tcp.seq == copy.tcp.seq == 0x01000B68
    assert first_stats.handler_id == TCP_ISN_ID and copy_stats.excluded
    assert tx.flow_deltas == {pk.flow_key(syn): 0xF1000B68}
    assert tx.idle and got == [b"hello world"]


def test_a_retransmitted_syn_carries_nothing():
    # The copy's ISN holds the first rewrite's octets, here a switch
    # header to handler 5.  Written to handler 7 while 7 is active, the
    # copy would make the peer take those octets for a switch and desync;
    # it is excluded instead.  The diversion draw is still made.
    def _registry():
        reg = build_registry(enabled=(ICMP_PAYLOAD_ID, TCP_ISN_ID))
        spec = make_tcp_options_handler(handler_id=7, cost=0.05)
        reg.register(replace(spec, name="tcp_options_any", match=lambda p: p.tcp is not None))
        return reg

    cfg = EngineConfig(enabled_handlers=(ICMP_PAYLOAD_ID, TCP_ISN_ID), augmented_allowed=True,
                       augment_probability=1.0, seed=3)
    tx, rx = _pair(cfg, registry=_registry(), peer_registry=_registry())
    secret = bytes(range(1, 201))
    tx.enqueue_secret(secret)
    syn = pk.build_tcp("10.1.0.2", "10.2.0.3", 40000, 80, seq=0x10000000, flags=pk.TCP_SYN)
    data = [pk.build_tcp("10.1.0.9", "10.2.0.3", 40001, 80, seq=100 + i, ack=1, payload=b"x" * 20) for i in range(8)]
    got, fused = [], []
    for carrier in [data[0], syn, data[1], syn] + data[2:]:
        draws = random.Random()
        draws.setstate(tx._rng.getstate())
        fused.append(tx.fuse(tx.adjust_flow(carrier)))
        if carrier is syn:
            draws.random()
            assert tx._rng.getstate() == draws.getstate()
        got += rx.extract(fused[-1][0])[1]  # raises DesyncError on a desync
    assert [(fs.handler_id, fs.sync_octets) for _, fs in fused[:3]] == [(7, 3), (TCP_ISN_ID, 3), (7, 3)]
    (first, _), (copy, copy_stats) = fused[1], fused[3]
    assert copy_stats.excluded and copy.tcp.seq == first.tcp.seq != syn.tcp.seq
    assert tx.idle and got == [secret] and len(tx.flow_deltas) == 1


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


def test_carrier_diverted_to_a_region_without_room_is_excluded():
    # A 2-octet plug-in on pure SYNs at id 5: a SYN that handler 4
    # would continue an item on is diverted to it, where a switch
    # header alone overflows the region, so fuse excludes the carrier.
    isn_two = replace(make_tcp_isn_handler(), name="tcp_isn_two_octets", capacity=lambda p: 2)

    def _run(augmented):
        registry = build_registry(enabled=(ICMP_PAYLOAD_ID, IPV4_CHECKSUM_ID))
        registry.register(isn_two)
        cfg = EngineConfig(enabled_handlers=(ICMP_PAYLOAD_ID, IPV4_CHECKSUM_ID), augmented_allowed=augmented,
                           augment_probability=1.0 if augmented else 0.0, seed=5)
        tx, rx = _pair(cfg, registry=registry)
        payload = random.Random(68).randbytes(3000)
        tx.enqueue_payload(payload)
        carriers = [pk.parse_packet(r.data) for r in tr.synthesize_mixed_trace(1500, seed=19).records]
        syns, got = [], []
        for c in carriers:
            # Handler 4 writes the IPv4 checksum field, so no checksum check here.
            fused, fs = tx.fuse(c)
            got += rx.extract(fused)[1]
            if _is_pure_syn(c):
                syns.append(fs)
        assert tx.idle and b"".join(got) == payload
        assert tx.flow_deltas == {} and rx.counters["rx_data_octets"] == tx.counters["data_octets"]
        return syns

    # Without the diversion, handler 4 carries data on some SYNs ...
    assert any(fs.handler_id == IPV4_CHECKSUM_ID for fs in _run(False))
    # ... and with it, every SYN is excluded.
    syns = _run(True)
    assert syns and all(fs.excluded and fs.handler_id is None for fs in syns)


def test_a_plugin_at_id_5_is_not_the_isn_channel():
    # Without augmented correction id 5 is free for a plug-in; this one
    # writes echo payloads, which have no sequence number to rewrite.
    registry = HandlerRegistry()
    registry.register(make_icmp_payload_handler(handler_id=5, name="icmp_as_5"))
    tx, rx = _pair(EngineConfig(), registry=registry)
    secret = random.Random(5).randbytes(11)
    tx.enqueue_secret(secret)
    fstats, _, got = _pump(tx, rx, [_icmp(0)])
    assert fstats[0].handler_id == 5 and fstats[0].item_completed
    assert got == [secret]
    assert tx.flow_deltas == {}
    assert tx.idle, "a write at a plug-in id 5 queues nothing after its item"


def test_augmented_correction_refuses_a_plugin_at_id_5_that_is_not_on_pure_syns():
    # Its writes would be recorded as ISN rewrites; the first fuse used
    # to fail on a carrier without a TCP header instead.
    any_tcp = replace(make_tcp_isn_handler(), name="tcp_isn_any", match=lambda p: p.tcp is not None)
    for spec in (make_icmp_payload_handler(handler_id=5, name="icmp_as_5"), any_tcp):
        registry = HandlerRegistry()
        registry.register(spec)
        with pytest.raises(EngineError, match=r"%r at id 5\b" % spec.name):
            CovertGateway("gw_a", "gw_b", EngineConfig(augmented_allowed=True), registry=registry)
    assert matches_only_pure_syns(make_tcp_isn_handler())


def test_augmented_correction_refuses_a_plugin_at_id_5_that_also_takes_syn_acks():
    # A SYN-ACK's ISN is the responder's: rewriting it is not the ISN channel.
    any_syn = replace(make_tcp_isn_handler(), name="any_syn",
                      match=lambda p: p.tcp is not None and bool(p.tcp.flags & pk.TCP_SYN))
    assert not matches_only_pure_syns(any_syn)
    registry = HandlerRegistry()
    registry.register(any_syn)
    with pytest.raises(EngineError, match=r"'any_syn' at id 5\b"):
        CovertGateway("gw_a", "gw_b", EngineConfig(augmented_allowed=True), registry=registry)


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
def _calls(*functions, when=None):
    """Count calls to any of ``functions`` made inside the block, only
    those whose arguments ``when`` accepts if it is given (it is passed
    the called frame's locals).  The hook matches each function by its
    code object, so a module that bound it with ``from dataclasses
    import replace`` is caught too."""
    targets = {function.__code__ for function in functions}
    calls = [0]

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in targets and (when is None or when(frame.f_locals)):
            calls[0] += 1

    sys.setprofile(hook)
    try:
        yield calls
    finally:
        sys.setprofile(None)


# The dataclass-generated __init__ of every packet layer class.
LAYER_INITS = tuple(cls.__init__ for cls in (pk.Ethernet, pk.Ipv4, pk.Tcp, pk.Udp, pk.Icmp, pk.ParsedPacket))


def _carrier_pass(*functions, seed=17, octets=15 * 2000, when=None):
    """Calls to ``functions`` (those ``when`` accepts, as in ``_calls``)
    while a handlers-1,2,4 pair fuses and extracts a 2,000-record
    capture carrying ``octets`` secret octets.  The gateways are built,
    and the registry has run its self-test, before the count starts."""
    capture = tr.synthesize_mixed_trace(2000, seed=seed)
    config = EngineConfig(enabled_handlers=(1, 2, 4), seed=seed)
    tx, rx = CovertGateway("a", "b", config=config), CovertGateway("b", "a", config=config)
    payload = random.Random(seed).randbytes(octets)
    tx.enqueue_payload(payload)
    with _calls(*functions, when=when) as calls:
        fused, _ = tr.fuse_records(tx, capture.records)
        _, tally = tr.extract_records(rx, fused)
    assert b"".join(tally.chunks) == payload
    # Both the segment writers and the exclusion marker ran under the hook.
    assert tx.counters["carriers_excluded"] > 0
    assert tx.counters["carriers_modified"] > 0
    return calls[0]


def test_carrier_path_derives_the_ipv4_length_only_where_a_writer_changes_it():
    """A parsed carrier carries the total its header states through the
    exclusion marker, the checksum repair and serialization, so only the
    writers that change a length (``set_tcp_options``,
    ``set_icmp_payload``) derive one."""
    derived = _carrier_pass(pk._ipv4_lengths, seed=3, octets=20000)
    assert 0 < derived <= _carrier_pass(pk.set_tcp_options, pk.set_icmp_payload, seed=3, octets=20000)


def test_carrier_path_packs_only_the_carriers_a_writer_resized():
    """The exclusion marker, its clearing and the checksum handler's
    write and repair change only the IPv4 header, so each of their
    carriers serializes as the frame it was parsed from with that header
    written in.  Only a carrier given new TCP options or ICMP payload
    is packed again."""
    serialized = _carrier_pass(pk.serialize_packet, seed=3, octets=20000)
    packed = _carrier_pass(pk.serialize_packet, seed=3, octets=20000, when=lambda args: args["p"]._frame is None)
    resized = _carrier_pass(pk.set_tcp_options, pk.set_icmp_payload, seed=3, octets=20000)
    assert serialized == 2 * 2000
    assert 0 < packed <= resized < serialized // 2


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


def test_idle_gateway_marks_carriers_without_selecting():
    """With nothing to send and no diversion to draw for, ``fuse`` stamps
    each matched carrier with the exclusion marker without asking the
    registry to select; the bytes and counters are what selection gave."""
    carriers = [pk.parse_packet(r.data) for r in tr.synthesize_mixed_trace(300, seed=17).records]
    idle = CovertGateway("a", "b", config=EngineConfig(enabled_handlers=(1, 2), seed=17))
    with _calls(HandlerRegistry.select) as calls:
        fused = [idle.fuse(c) for c in carriers]
    assert calls[0] == 0
    matched = [bool(idle.registry.match(c)) for c in carriers]
    assert 0 < sum(matched) < len(carriers)
    for carrier, (out, stats), hit in zip(carriers, fused, matched):
        assert (stats.matched, stats.excluded, stats.modified) == (hit, hit, hit)
        assert pk.serialize_packet(out) == pk.serialize_packet(wire.mark_excluded(carrier) if hit else carrier)
    assert idle.counters == dict(dict.fromkeys(idle.counters, 0), carriers_seen=len(carriers),
                                 carriers_excluded=sum(matched))
    # A gateway that may divert SYNs to the ISN channel still selects, so
    # its draws stay in step with a busy one's.
    diverting = CovertGateway("a", "b", config=EngineConfig(enabled_handlers=(1, 2, TCP_ISN_ID), seed=17,
                                                            augmented_allowed=True, augment_probability=0.25))
    with _calls(HandlerRegistry.select) as calls:
        for carrier in carriers:
            diverting.fuse(carrier)
    assert calls[0] == diverting.counters["carriers_excluded"] > sum(matched)


def test_idle_gateway_builds_no_candidate_list():
    """An idle sender with no diversion to draw for asks the registry
    only whether some handler matches, so it neither lists the
    candidates nor selects; a busy or diverting sender still lists them
    for every carrier."""
    carriers = [pk.parse_packet(r.data) for r in tr.synthesize_mixed_trace(300, seed=17).records]
    idle = CovertGateway("a", "b", config=EngineConfig(enabled_handlers=(1, 2), seed=17))
    with _calls(HandlerRegistry.match, HandlerRegistry.select) as calls:
        fused = [idle.fuse(c) for c in carriers]
    assert calls[0] == 0
    matched = [bool(idle.registry.match(c)) for c in carriers]
    assert 0 < sum(matched) < len(carriers)
    assert [pk.serialize_packet(out) for out, _ in fused] == [
        pk.serialize_packet(wire.mark_excluded(c) if hit else c) for c, hit in zip(carriers, matched)]
    assert [(s.matched, s.excluded, s.modified) for _, s in fused] == [(hit, hit, hit) for hit in matched]
    assert idle.counters == dict(dict.fromkeys(idle.counters, 0), carriers_seen=len(carriers),
                                 carriers_excluded=sum(matched))
    busy = CovertGateway("a", "b", config=EngineConfig(enabled_handlers=(1, 2), seed=17))
    busy.enqueue_secret(bytes(60000))
    diverting = CovertGateway("a", "b", config=EngineConfig(enabled_handlers=(1, 2, TCP_ISN_ID), seed=17,
                                                            augmented_allowed=True, augment_probability=0.25))
    for gateway in (busy, diverting):
        with _calls(HandlerRegistry.match) as calls:
            for carrier in carriers:
                gateway.fuse(carrier)
        assert calls[0] == len(carriers)
    assert busy.pending_octets > 0 and diverting.idle


# SHA-256 of the repr of every CarrierStats that fuse and extract return
# over the two trace passes of tests/test_oracle.py: handlers 1, 2 and 4,
# then all five with a quarter of the eligible carriers diverted to the
# ISN channel.
CARRIER_STATS_DIGEST = "418f5573d9a268a026bc16af9f169f307c6e3904c892c8bc0d110db75f4cbdc4"


def _recording(method, seen):
    """``method``, appending the stats of each call to ``seen``."""
    def call(carrier):
        result = method(carrier)
        seen.append((method.__name__, result[-1]))
        return result
    return call


def test_carrier_stats_of_the_oracle_passes():
    records = tr.synthesize_mixed_trace(3000, seed=3).records
    passes = ((dict(enabled_handlers=(1, 2, 4)), 40_000),
              (dict(enabled_handlers=(1, 2, 3, 4, 5), augmented_allowed=True, augment_probability=0.25), 20_000))
    seen = []
    for options, octets in passes:
        tx = CovertGateway("a", "b", config=EngineConfig(seed=7, **options))
        rx = CovertGateway("b", "a", config=EngineConfig(seed=8, **options))
        payload = random.Random(11).randbytes(octets)
        tx.enqueue_payload(payload)
        tx.fuse, rx.extract = _recording(tx.fuse, seen), _recording(rx.extract, seen)
        fused, _ = tr.fuse_records(tx, records)
        _, tally = tr.extract_records(rx, fused)
        assert tx.idle and b"".join(tally.chunks) == payload
    assert len(seen) == 4 * len(records)
    assert hashlib.sha256(repr(seen).encode()).hexdigest() == CARRIER_STATS_DIGEST


def test_carriers_that_move_no_segment_build_no_stats():
    """fuse and extract return one shared, frozen value for each outcome
    that moves no segment, and build one for each carrier that moves one."""
    carriers = [pk.parse_packet(r.data) for r in tr.synthesize_mixed_trace(300, seed=17).records]
    for octets in (0, 6000):
        config = EngineConfig(enabled_handlers=(1, 2), seed=17)
        tx, rx = CovertGateway("a", "b", config=config), CovertGateway("b", "a", config=config)
        payload = random.Random(17).randbytes(octets)
        tx.enqueue_payload(payload)
        with _calls(CarrierStats.__init__, engine._new_stats) as built:
            fused = [tx.fuse(c) for c in carriers]
            extracted = [rx.extract(out) for out, _ in fused]
        assert b"".join(chunk for _, chunks, _ in extracted for chunk in chunks) == payload
        assert tx.counters["carriers_excluded"] > 0
        stats = [s for _, s in fused] + [s for _, _, s in extracted]
        moved = [s for s in stats if s.handler_id is not None]
        assert len(moved) == 2 * tx.counters["carriers_modified"]
        assert built[0] == len(moved) == len({id(s) for s in moved})
        assert len({id(s) for s in stats if s.handler_id is None}) <= 4
    assert tx.idle and moved
    with pytest.raises(dataclasses.FrozenInstanceError):
        moved[0].data_octets = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        stats[-1].matched = False


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
    once for each packet whose layers may change length: each one built
    (``_fresh``) or given new TCP options or ICMP payload.  Every other
    rebuild, readdressing included, checksum validation, serialization
    and frame length (``wire_len``) reads the total its packet carries."""
    def run(*functions):
        sim = Simulation(line_topology(visible_users=4), engine_config=EngineConfig(enabled_handlers=(1, 2), seed=5),
                         seed=5)
        transfer = sim.add_bulk_transfer("secret_b", "secret_a", 8192)
        with _calls(*functions) as calls:
            sim.run(5 * MICROS)
        assert transfer.delivered_octets == 8192
        return calls[0]

    derived = run(pk._ipv4_lengths)
    operations = run(pk._fresh, pk.set_tcp_options, pk.set_icmp_payload)
    assert 1000 < derived <= operations


def test_readdressing_a_parsed_packet_derives_no_length():
    """Readdressing changes no length, so the packet it makes carries
    the total of the parsed one, and equals the readdressing of a copy
    that carries none."""
    for record in tr.synthesize_mixed_trace(60, seed=4).records:
        p = pk.parse_packet(record.data)
        ports = {} if p.icmp is not None else {"src_port": 7, "dst_port": 9}
        with _calls(pk._ipv4_lengths) as calls:
            q = pk.readdress(p, src_ip=0x0A000001, dst_ip=0x0A000002, src_mac=b"\x02" * 6, **ports)
        assert calls[0] == 0
        bare = pk.readdress(dataclasses.replace(p), src_ip=0x0A000001, dst_ip=0x0A000002, src_mac=b"\x02" * 6,
                            **ports)
        assert q == bare and q._total == p._total and pk.serialize_packet(q) == pk.serialize_packet(bare)
        assert pk.validate_checksums(q)
