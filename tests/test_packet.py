import copy
import gc
import pickle
import random
import sys
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stegnet.packet as pk


def checksum_oracle(data: bytes) -> int:
    """One's-complement sum computed a different way: word at a time
    with the carry folded back after every addition."""
    total = 0
    for i in range(0, len(data) - 1, 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    if len(data) & 1:
        total += data[-1] << 8
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def test_checksum_known_header():
    # RFC 1071 style worked example; checksum field zeroed in the input.
    header = bytes.fromhex("450000730000400040110000c0a80001c0a800c7")
    assert pk.ipv4_checksum(header) == 0xB861


def test_checksum_all_zero():
    assert pk.checksum16(b"\x00" * 20) == 0xFFFF


def test_checksum_matches_oracle():
    rng = random.Random(0x5EED)
    for size in range(0, 1601):
        data = rng.randbytes(size)
        assert pk.checksum16(data) == checksum_oracle(data), size
    # Edges of the one-remainder sum: no data, the zero word at every
    # parity, all ones, and non-zero data whose sum is 0 modulo 0xFFFF.
    edges = [b"", b"\xff\xff", b"\x12\x34\xed\xcb", b"\x00\x01\xff\xfe", b"\xff\xff" * 700]
    for size in (1, 2, 3, 20, 1499, 1500, 1600):
        edges += [b"\x00" * size, b"\xff" * size]
    for data in edges:
        assert pk.checksum16(data) == checksum_oracle(data), data[:4]
    assert pk.checksum16(b"") == 0xFFFF
    assert pk.checksum16(b"\xff\xff") == pk.checksum16(b"\x12\x34\xed\xcb") == 0


def test_checksum_verification_identity():
    # Summing a block together with its own checksum gives all ones.
    rng = random.Random(7)
    for _ in range(200):
        data = rng.randbytes(2 * rng.randrange(1, 40))
        value = pk.checksum16(data)
        total = value
        for i in range(0, len(data), 2):
            total += (data[i] << 8) | data[i + 1]
            total = (total & 0xFFFF) + (total >> 16)
        assert total == 0xFFFF


def _random_packet(rng: random.Random) -> pk.ParsedPacket:
    src = "10.%d.%d.%d" % (rng.randrange(256), rng.randrange(256), rng.randrange(1, 255))
    dst = "10.%d.%d.%d" % (rng.randrange(256), rng.randrange(256), rng.randrange(1, 255))
    kind = rng.randrange(3)
    payload = rng.randbytes(rng.randrange(0, 600))
    if kind == 0:
        flag_pool = (pk.TCP_ACK, pk.TCP_SYN, pk.TCP_SYN | pk.TCP_ACK, pk.TCP_ACK | pk.TCP_PSH, pk.TCP_FIN | pk.TCP_ACK)
        options = rng.choice((b"", b"\x01" * 4, bytes((2, 4, 5, 0xB4)), rng.randbytes(4 * rng.randrange(0, 11))))
        return pk.build_tcp(
            src, dst, rng.randrange(1, 0x10000), rng.randrange(1, 0x10000),
            seq=rng.randrange(1 << 32), ack=rng.randrange(1 << 32),
            flags=rng.choice(flag_pool), options=options, payload=payload,
            tos=rng.randrange(256), ttl=rng.randrange(1, 256),
            identification=rng.randrange(0x10000),
        )
    if kind == 1:
        return pk.build_udp(
            src, dst, rng.randrange(1, 0x10000), rng.randrange(1, 0x10000),
            payload=payload, identification=rng.randrange(0x10000),
        )
    return pk.build_icmp_echo(
        src, dst, identifier=rng.randrange(0x10000), sequence=rng.randrange(0x10000),
        payload=payload, identification=rng.randrange(0x10000),
    )


def test_serialize_parse_round_trip():
    rng = random.Random(0xC0FFEE)
    for _ in range(1000):
        p = _random_packet(rng)
        wire = pk.serialize_packet(p)
        back = pk.parse_packet(wire)
        assert back == p
        assert pk.serialize_packet(back) == wire


def test_builders_emit_valid_checksums():
    rng = random.Random(41)
    for _ in range(300):
        p = _random_packet(rng)
        assert pk.validate_ipv4_checksum(p)
        assert pk.validate_transport_checksum(p)


def test_corrupted_byte_fails_validation():
    rng = random.Random(99)
    for _ in range(200):
        p = _random_packet(rng)
        wire = bytearray(pk.serialize_packet(p))
        # flip one bit somewhere in the IPv4 header past the version octet
        pos = rng.randrange(15, 34 if len(wire) >= 34 else len(wire))
        wire[pos] ^= 1 << rng.randrange(8)
        try:
            damaged = pk.parse_packet(bytes(wire))
        except pk.PacketError:
            continue
        assert not (pk.validate_ipv4_checksum(damaged) and pk.validate_transport_checksum(damaged))


def test_flow_key_direction():
    p = pk.build_tcp("10.0.0.1", "10.0.0.2", 1234, 80, seq=5)
    key = pk.flow_key(p)
    assert key == (pk.str_to_ip("10.0.0.1"), 1234, pk.str_to_ip("10.0.0.2"), 80, pk.PROTO_TCP)
    assert pk.reverse_flow_key(key) == (pk.str_to_ip("10.0.0.2"), 80, pk.str_to_ip("10.0.0.1"), 1234, pk.PROTO_TCP)


def _tcp_data_offset(p):
    wire = pk.serialize_packet(p)
    ihl = wire[pk.ETHER_SIZE] & 0x0F
    return wire[pk.ETHER_SIZE + ihl * 4 + 12] >> 4


def _ipv4_total_length(p):
    wire = pk.serialize_packet(p)
    return int.from_bytes(wire[pk.ETHER_SIZE + 2 : pk.ETHER_SIZE + 4], "big")


def test_set_tcp_options_pads_to_word():
    p = pk.build_tcp("10.0.0.1", "10.0.0.2", 1, 2, payload=b"hi")
    grown = pk.set_tcp_options(p, bytes(37))
    assert len(grown.tcp.options) == 40
    assert _tcp_data_offset(grown) == 15
    assert grown.app_payload == b"hi"
    assert pk.validate_ipv4_checksum(grown) and pk.validate_transport_checksum(grown)
    shrunk = pk.set_tcp_options(grown, b"")
    assert _tcp_data_offset(shrunk) == 5
    assert shrunk.tcp.options == b""


def test_set_tcp_options_overflow():
    p = pk.build_tcp("10.0.0.1", "10.0.0.2", 1, 2)
    with pytest.raises(pk.OptionsOverflow):
        pk.set_tcp_options(p, bytes(41))


def test_serialize_refuses_what_the_ipv4_header_cannot_state():
    # The total length is taken from the transport bytes; 65,535 octets
    # is the most it can say, and options must fill whole words.
    tcp = pk.build_tcp("10.0.0.1", "10.0.0.2", 1, 2)
    udp = pk.build_udp("10.0.0.1", "10.0.0.2", 1, 2)
    icmp = pk.build_icmp_echo("10.0.0.1", "10.0.0.2")
    for p, header in ((tcp, 40), (udp, 28), (icmp, 28)):
        limit = pk.MAX_IPV4_TOTAL - header
        # 70,000 octets also overflow the UDP length field.
        for size, fits in ((limit, True), (limit + 1, False), (70000, False)):
            if p.icmp is not None:
                big = replace(p, transport=replace(p.icmp, payload=bytes(size)))
            else:
                big = replace(p, app_payload=bytes(size))
            if fits:
                assert len(pk.serialize_packet(big)) == pk.ETHER_SIZE + pk.MAX_IPV4_TOTAL
            else:
                with pytest.raises(pk.Truncated):
                    pk.serialize_packet(big)
        with pytest.raises(pk.OptionsOverflow):
            pk.serialize_packet(replace(p, ipv4=replace(p.ipv4, options=bytes(6))))


OVERSIZE_ENTRIES = {
    "transport_checksum": pk.transport_checksum,
    "fix_checksums": pk.fix_checksums,
    "readdress": lambda p: pk.readdress(p, src_ip=3),
    "with_tcp_seq_ack": lambda p: pk.with_tcp_seq_ack(p, 1, 2),
}


@pytest.mark.parametrize("kind, entry", [(kind, entry) for kind in ("tcp", "udp") for entry in OVERSIZE_ENTRIES
                                         if (kind, entry) != ("udp", "with_tcp_seq_ack")])
def test_oversize_segments_raise_truncated(kind, entry):
    """Past what the IPv4 total length can state, every checksum entry
    point raises ``Truncated`` before it packs a pseudo header."""
    build = pk.build_tcp if kind == "tcp" else pk.build_udp
    p = replace(build("10.0.0.1", "10.0.0.2", 1, 2), app_payload=bytes(70000))
    with pytest.raises(pk.Truncated):
        OVERSIZE_ENTRIES[entry](p)


def test_fix_checksums_leaves_its_input_alone():
    p = pk.build_tcp("10.0.0.1", "10.0.0.2", 1, 2, payload=b"data")
    damaged = pk.with_ipv4(replace(p, transport=replace(p.tcp, checksum=0)), 0, 0, 0)
    fixed = pk.fix_checksums(damaged)
    assert fixed == pk.with_ipv4(p, 0, 0) and pk.validate_checksums(fixed)
    # The transport it refilled was a copy.
    assert damaged.tcp.checksum == 0 and damaged.ipv4.header_checksum == 0


def test_icmp_payload_replacement():
    p = pk.build_icmp_echo("10.0.0.1", "10.0.0.2", payload=b"abcdefgh" * 4)
    swapped = pk.set_icmp_payload(p, b"Z" * 40)
    assert swapped.icmp.payload == b"Z" * 40
    assert pk.validate_transport_checksum(swapped)
    assert _ipv4_total_length(swapped) == _ipv4_total_length(p) + 8


def test_readdress_matches_field_replacement():
    """Against the obvious rebuild: replace each field, then fix both
    checksums."""
    rng = random.Random(23)
    for _ in range(300):
        p = _random_packet(rng)
        side = rng.choice(("src", "dst"))
        mac = {side + "_mac": rng.randbytes(6)}
        ip = {side + "_ip": rng.randrange(1 << 32)}
        port = {} if p.icmp is not None else {side + "_port": rng.randrange(0x10000)}
        got = pk.readdress(p, **mac, **ip, **port)
        want = replace(p, link=replace(p.link, **mac), ipv4=replace(p.ipv4, **ip), transport=replace(p.transport, **port))
        assert got == pk.fix_checksums(want)
        assert pk.validate_checksums(got)
    with pytest.raises(pk.UnsupportedProtocol):
        pk.readdress(pk.build_icmp_echo("10.0.0.1", "10.0.0.2"), dst_port=7)


def _seq_ack_by_field_replacement(p, seq, ack):
    """The reference: replace both fields, then refill the TCP checksum alone."""
    moved = replace(p, transport=replace(p.tcp, seq=seq, ack=ack))
    return replace(moved, transport=replace(moved.tcp, checksum=pk.transport_checksum(moved)))


def test_with_tcp_seq_ack_keeps_the_ipv4_object():
    rng = random.Random(31)
    packets = [p for p in (_random_packet(rng) for _ in range(600)) if p.tcp is not None]
    base = pk.build_tcp("10.0.0.1", "10.0.0.2", 1, 2, flags=pk.TCP_SYN, payload=b"data")
    # IPv4 options, a stale header checksum and link padding all pass through.
    packets.append(replace(base, ipv4=replace(base.ipv4, options=b"\x01" * 8, header_checksum=0x1234),
                           link_trailer=b"\0" * 6))
    for p in packets:
        seq, ack = rng.randrange(1 << 32), rng.randrange(1 << 32)
        got = pk.with_tcp_seq_ack(p, seq, ack)
        assert got.ipv4 is p.ipv4
        want = _seq_ack_by_field_replacement(p, seq, ack)
        assert got == want
        assert pk.serialize_packet(got) == pk.serialize_packet(want)
        assert (got.tcp.seq, got.tcp.ack) == (seq, ack) and pk.validate_transport_checksum(got)


def test_parse_rejects_garbage():
    with pytest.raises(pk.Truncated):
        pk.parse_packet(b"\x00" * 10)
    junk = pk.serialize_packet(pk.build_tcp("10.0.0.1", "10.0.0.2", 1, 2))
    mangled = bytearray(junk)
    mangled[14] = 0x65  # IPv6 version nibble
    with pytest.raises(pk.BadVersion):
        pk.parse_packet(bytes(mangled))


def test_udp_zero_checksum_wire_rule():
    # A computed zero must be transmitted as 0xFFFF.
    rng = random.Random(3)
    for _ in range(500):
        p = pk.build_udp("10.1.1.1", "10.2.2.2", rng.randrange(1, 65536), rng.randrange(1, 65536), payload=rng.randbytes(rng.randrange(40)))
        assert p.udp.checksum != 0
        assert pk.validate_transport_checksum(p)


u8 = st.integers(0, 0xFF)
u16 = st.integers(0, 0xFFFF)
u32 = st.integers(0, 0xFFFFFFFF)
words = st.integers(0, 10).flatmap(lambda n: st.binary(min_size=4 * n, max_size=4 * n))
ethernet = st.tuples(st.binary(min_size=6, max_size=6), st.binary(min_size=6, max_size=6), u16)
ipv4 = st.tuples(u8, u16, st.integers(0, 7), st.integers(0, 0x1FFF), u8, u8, u16, u32, u32, words)
tcp = st.tuples(u16, u16, u32, u32, u8, u16, u16, u16, words)
udp = st.tuples(u16, u16, u16)
icmp = st.tuples(u8, u8, u16, u16, u16, st.binary(max_size=64))
# Each packet class with its positional constructor and field values.
LAYERS = {
    "raw": (pk.RawPacket, pk._new_raw, st.tuples(st.binary(max_size=64), st.integers(0, 2**64))),
    "ethernet": (pk.Ethernet, pk._new_ethernet, ethernet),
    "ipv4": (pk.Ipv4, pk._new_ipv4, ipv4),
    "tcp": (pk.Tcp, pk._new_tcp, tcp),
    "udp": (pk.Udp, pk._new_udp, udp),
    "icmp": (pk.Icmp, pk._new_icmp, icmp),
    "packet": (pk.ParsedPacket, pk._new_packet, st.tuples(
        ethernet.map(lambda v: pk.Ethernet(*v)),
        st.none() | ipv4.map(lambda v: pk.Ipv4(*v)),
        st.none() | tcp.map(lambda v: pk.Tcp(*v)) | udp.map(lambda v: pk.Udp(*v)) | icmp.map(lambda v: pk.Icmp(*v)),
        st.binary(max_size=64),
        st.binary(max_size=8),
    )),
}


@pytest.mark.parametrize("layer", sorted(LAYERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_positional_constructor_builds_the_dataclass(layer, data):
    """The fast constructor's object is the public constructor's: equal,
    same hash and repr, the same size and garbage-collector tracking,
    copied by ``replace``, ``copy.copy`` and pickle, and still frozen."""
    cls, new, values = LAYERS[layer]
    values = data.draw(values)
    fast, public = new(*values), cls(*values)
    assert type(fast) is cls
    assert fast == public and hash(fast) == hash(public) and repr(fast) == repr(public)
    assert sys.getsizeof(fast) == sys.getsizeof(public) and gc.is_tracked(fast) == gc.is_tracked(public)
    assert replace(fast) == public and copy.copy(fast) == public and pickle.loads(pickle.dumps(fast)) == public
    for field, value in zip(fields(cls), values):
        with pytest.raises(FrozenInstanceError):
            setattr(fast, field.name, value)
