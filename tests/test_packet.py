import copy
import gc
import pickle
import random
import struct
import sys
from contextlib import contextmanager
from dataclasses import FrozenInstanceError, fields, replace
from typing import Optional
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stegnet.packet as pk
from stegnet import handlers
from stegnet import trace as tr
from stegnet.packet import (
    ETHER_SIZE, ETHERTYPE_IPV4, MAX_TCP_OPTIONS, PROTO_ICMP, PROTO_TCP, PROTO_UDP, _ETH, _ETH_IPV4, _ICMP, _PSEUDO,
    _UDP, BadVersion, Icmp, OptionsOverflow, ParsedPacket, Tcp, Transport, Truncated, Udp, UnsupportedProtocol,
    _icmp_bytes, _ipv4_lengths, _new_ethernet, _new_icmp, _new_ipv4, _new_packet, _new_tcp, _new_udp, checksum16,
)
from stegnet.wire import clear_exclusion, mark_excluded


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


def test_tcp_flags_hold_the_reserved_nibble():
    # Octets 12-13 are the data offset over 12 flag bits; a 13th bit
    # would overwrite the offset, so it is refused.
    p = pk.build_tcp("10.0.0.1", "10.0.0.2", 1, 2, flags=0x100 | pk.TCP_ACK)
    frame = pk.serialize_packet(p)
    assert frame[46:48] == bytes((0x51, 0x10)) and pk.validate_checksums(p)
    assert pk.parse_packet(frame) == p and pk.serialize_packet(replace(p)) == frame
    wide = replace(p, transport=replace(p.tcp, flags=0x1000))
    for make in (lambda: pk.build_tcp("10.0.0.1", "10.0.0.2", 1, 2, flags=0x1000),
                 lambda: pk.serialize_packet(wide), lambda: pk.transport_checksum(wide)):
        with pytest.raises(pk.PacketError, match="TCP flags 0x1000 exceed 12 bits"):
            make()


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


# ---------------------------------------------------------------------------
# The codec as it was before it read and wrote the common frame shape
# with one struct call, copied verbatim but for the names: the reference
# that both of the library's paths, fused and general, must agree with.
# Its TCP header keeps its own copy of the layout of that time, with the
# data-offset octet and the flags octet apart, and it now keeps the
# reserved nibble of the first in the top four of the 12 flag bits.
_REFERENCE_TCP = struct.Struct("!HHIIBBHHH")


def reference_transport_sum(src: int, dst: int, t: Transport, length: int, payload: bytes) -> int:
    """Checksum of ``t`` with its field zeroed, between addresses ``src``
    and ``dst``, for a transport of ``length`` octets (header and
    payload); ``transport_checksum`` documents the rules."""
    if isinstance(t, Tcp):
        return checksum16(b"".join((_PSEUDO.pack(src, dst, PROTO_TCP, length), reference_tcp_bytes(t, 0), payload)))
    if isinstance(t, Udp):
        head = _PSEUDO.pack(src, dst, PROTO_UDP, length) + _UDP.pack(t.src_port, t.dst_port, length, 0)
        return checksum16(head + payload) or 0xFFFF
    if isinstance(t, Icmp):
        return checksum16(_icmp_bytes(t, 0))
    raise UnsupportedProtocol("protocol %r" % type(t).__name__)


def reference_tcp_bytes(tcp: Tcp, checksum: int) -> bytes:
    options = tcp.options
    if len(options) > MAX_TCP_OPTIONS or len(options) % 4:
        raise OptionsOverflow("TCP options must be 4-aligned and at most 40 octets")
    offset = (_REFERENCE_TCP.size + len(options)) // 4
    head = _REFERENCE_TCP.pack(tcp.src_port, tcp.dst_port, tcp.seq, tcp.ack, offset << 4 | tcp.flags >> 8,
                               tcp.flags & 0xFF, tcp.window, checksum, tcp.urgent)
    return head + options


def reference_serialize_packet(p: ParsedPacket) -> bytes:
    """Emit the frame bytes for ``p``.

    Length and offset fields come from the structure itself; stored
    checksums are written verbatim.
    """
    link, ip, t = p.link, p.ipv4, p.transport
    if ip is None:
        return _ETH.pack(link.dst_mac, link.src_mac, link.ethertype) + p.app_payload
    ihl, total = _ipv4_lengths(ip.options, t, p.app_payload)
    head = _ETH_IPV4.pack(link.dst_mac, link.src_mac, link.ethertype, 0x40 | ihl, ip.tos, total, ip.identification,
                          ip.flags << 13 | ip.frag_offset, ip.ttl, ip.protocol, ip.header_checksum, ip.src_ip,
                          ip.dst_ip)
    if isinstance(t, Tcp):
        transport = reference_tcp_bytes(t, t.checksum)
    elif isinstance(t, Udp):
        transport = _UDP.pack(t.src_port, t.dst_port, total - 4 * ihl, t.checksum)
    elif isinstance(t, Icmp):
        return b"".join((head, ip.options, _icmp_bytes(t, t.checksum), p.link_trailer))
    else:
        transport = b""
    return b"".join((head, ip.options, transport, p.app_payload, p.link_trailer))


def reference_parse_packet(data: bytes) -> ParsedPacket:
    """Parse one Ethernet frame.

    Raises Truncated when the buffer ends before a declared length or a
    declared length is structurally impossible, and BadVersion when an
    IPv4 ethertype carries a version other than 4.
    """
    if isinstance(data, (bytearray, memoryview)):
        data = bytes(data)
    size = len(data)
    if size < _ETH_IPV4.size:
        if size < ETHER_SIZE:
            raise Truncated("frame shorter than an Ethernet header")
        dst, src, ethertype = _ETH.unpack_from(data)
        if ethertype == ETHERTYPE_IPV4:
            raise Truncated("IPv4 header truncated")
        return _new_packet(_new_ethernet(dst, src, ethertype), None, None, data[ETHER_SIZE:], b"")
    (dst, src, ethertype, ver_ihl, tos, total, ident, flags_frag, ttl, proto, hchk, src_ip,
     dst_ip) = _ETH_IPV4.unpack_from(data)
    link = _new_ethernet(dst, src, ethertype)
    if ethertype != ETHERTYPE_IPV4:
        return _new_packet(link, None, None, data[ETHER_SIZE:], b"")

    version, ihl = ver_ihl >> 4, ver_ihl & 0x0F
    if version != 4:
        raise BadVersion("IPv4 version nibble is %d" % version)
    if ihl < 5:
        raise Truncated("IPv4 IHL %d below minimum" % ihl)
    header_len = ihl * 4
    if total < header_len:
        raise Truncated("IPv4 total length smaller than header")
    # Transport header from ``start``; IPv4 payload up to ``end``.
    start, end = ETHER_SIZE + header_len, ETHER_SIZE + total
    if end > size:
        raise Truncated("IPv4 total length exceeds frame")
    ipv4 = _new_ipv4(tos, ident, flags_frag >> 13, flags_frag & 0x1FFF, ttl, proto, hchk, src_ip, dst_ip,
                     data[_ETH_IPV4.size : start])

    transport: Optional[Transport] = None
    payload = b""
    if proto == PROTO_TCP:
        if end - start < _REFERENCE_TCP.size:
            raise Truncated("TCP header truncated")
        sport, dport, seq, ack, off_bits, flags, window, chk, urg = _REFERENCE_TCP.unpack_from(data, start)
        offset = (off_bits >> 4) * 4
        if offset < _REFERENCE_TCP.size or start + offset > end:
            raise Truncated("TCP data offset inconsistent with segment")
        transport = _new_tcp(sport, dport, seq, ack, (off_bits & 0x0F) << 8 | flags, window, chk, urg,
                             data[start + _REFERENCE_TCP.size : start + offset])
        payload = data[start + offset : end]
    elif proto == PROTO_UDP:
        if end - start < _UDP.size:
            raise Truncated("UDP header truncated")
        sport, dport, length, chk = _UDP.unpack_from(data, start)
        if length != end - start:
            raise Truncated("UDP length inconsistent with IPv4 payload")
        transport = _new_udp(sport, dport, chk)
        payload = data[start + _UDP.size : end]
    elif proto == PROTO_ICMP:
        if end - start < _ICMP.size:
            raise Truncated("ICMP header truncated")
        itype, code, chk, ident2, seq2 = _ICMP.unpack_from(data, start)
        transport = _new_icmp(itype, code, chk, ident2, seq2, data[start + _ICMP.size : end])
    else:
        payload = data[start:end]

    return _new_packet(link, ipv4, transport, payload, data[end:])


def _verdict(function, *args):
    """What ``function`` returns, or the class and message it raises."""
    try:
        return function(*args)
    except (pk.PacketError, struct.error) as exc:
        return type(exc), str(exc)


macs = st.binary(min_size=6, max_size=6)


def _mostly(draw, usual, other):
    """``usual`` seven times in eight, else a draw from ``other``."""
    return draw(other) if draw(st.integers(0, 7)) == 0 else usual


@st.composite
def packets(draw, writable=False):
    """Packets of each transport, or of none, with and without IPv4
    options, mostly IPv4 under the protocol number of their transport.
    Unless ``writable``, some have options no header can state or are
    too long for the IPv4 total length."""
    link = pk.Ethernet(draw(macs), draw(macs), _mostly(draw, ETHERTYPE_IPV4, u16))
    payload = st.binary(max_size=64)
    options = words
    if not writable:
        payload = payload | st.integers(65440, 65520).map(bytes)
        options = options | st.binary(max_size=44)
    if draw(st.integers(0, 9)) == 0:
        return ParsedPacket(link, None, None, draw(payload))
    proto = draw(st.sampled_from((PROTO_TCP, PROTO_UDP, PROTO_ICMP, None)))
    transport = {
        PROTO_TCP: st.builds(Tcp, u16, u16, u32, u32, st.integers(0, 0xFFF), u16, u16, u16, options),
        PROTO_UDP: st.builds(Udp, u16, u16, u16),
        PROTO_ICMP: st.builds(Icmp, u8, u8, u16, u16, u16, payload),
        None: st.none(),
    }[proto]
    ip = pk.Ipv4(draw(u8), draw(u16), draw(st.integers(0, 7)), draw(st.integers(0, 0x1FFF)), draw(u8),
                 draw(u8) if proto is None else _mostly(draw, proto, u8), draw(u16), draw(u32), draw(u32),
                 b"" if draw(st.booleans()) else draw(options))
    return ParsedPacket(link, ip, draw(transport), draw(payload), draw(st.binary(max_size=8)))


@settings(max_examples=400, deadline=None)
@given(p=packets())
def test_serialize_agrees_with_the_reference(p):
    """The same bytes, or the same error in the same order: a frame over
    65,535 octets is ``Truncated`` before bad TCP options overflow."""
    assert _verdict(pk.serialize_packet, p) == _verdict(reference_serialize_packet, p)
    if p.ipv4 is not None and p.transport is not None:
        assert _verdict(pk.transport_checksum, p) == _verdict(reference_transport_checksum, p)


def reference_transport_checksum(p):
    """``transport_checksum`` over the reference transport sum."""
    ihl, total = _ipv4_lengths(p.ipv4.options, p.transport, p.app_payload)
    return reference_transport_sum(p.ipv4.src_ip, p.ipv4.dst_ip, p.transport, total - 4 * ihl, p.app_payload)


def _put(frame, at, value, size):
    """Write ``value`` over the ``size`` octets at ``at``, as far as the
    frame reaches."""
    frame[at : at + size] = value.to_bytes(size, "big")[: max(0, len(frame) - at)]


def _transport_at(frame):
    return ETHER_SIZE + (frame[ETHER_SIZE] & 0x0F) * 4 if len(frame) > ETHER_SIZE else len(frame)


def _set_reserved_bits(frame, draw):
    """Set some of the four reserved bits beside a TCP data offset."""
    at = _transport_at(frame) + 12
    if at < len(frame):
        frame[at] |= draw(st.integers(1, 15))


def _set_udp_length(frame, draw):
    _put(frame, _transport_at(frame) + 4, draw(u16), 2)


def _set_total_length(frame, draw):
    _put(frame, ETHER_SIZE + 2, draw(u16), 2)


def _truncate(frame, draw):
    del frame[draw(st.integers(0, len(frame))):]


def _flip_bit(frame, draw):
    if frame:
        frame[draw(st.integers(0, min(len(frame), 60) - 1))] ^= 1 << draw(st.integers(0, 7))


def _add_trailer(frame, draw):
    frame += draw(st.binary(min_size=1, max_size=16))


DAMAGE = (_set_reserved_bits, _set_udp_length, _set_total_length, _truncate, _flip_bit, _add_trailer)


@st.composite
def frames(draw):
    """Frames the reference writes, half of them then damaged once or
    twice, as bytes, bytearray or memoryview."""
    frame = bytearray(reference_serialize_packet(draw(packets(writable=True))))
    if draw(st.booleans()):
        for damage in draw(st.lists(st.sampled_from(DAMAGE), min_size=1, max_size=2)):
            damage(frame, draw)
    return draw(st.sampled_from((bytes, bytearray, memoryview)))(bytes(frame))


@settings(max_examples=600, deadline=None)
@given(frame=frames())
def test_parse_agrees_with_the_reference(frame):
    """The same packet, repr and bytes written back, or the same error."""
    got, want = _verdict(pk.parse_packet, frame), _verdict(reference_parse_packet, frame)
    if isinstance(want, ParsedPacket):
        assert got == want and repr(got) == repr(want)
        assert pk.serialize_packet(got) == reference_serialize_packet(want)
    else:
        assert got == want


# ---------------------------------------------------------------------------
# The two facts a packet carries: its IPv4 total length and its frame.


MIXED_FRAMES = tuple(record.data for record in tr.synthesize_mixed_trace(300, seed=5).records)
STOCK_SPECS = tuple(factory() for factory in handlers._STOCK.values())


def test_a_parsed_capture_carries_its_frames_and_lengths():
    """Every frame of a synthesized capture takes a fused path, so its
    packet carries the frame itself and the total its header states."""
    for frame in MIXED_FRAMES:
        p = pk.parse_packet(frame)
        assert p._frame is frame and pk.serialize_packet(p) is frame
        assert p._total == int.from_bytes(frame[ETHER_SIZE + 2 : ETHER_SIZE + 4], "big") and p.wire_len == len(frame)


def _assert_carries_the_truth(p):
    """A carried total is the one the layers give, a carried frame is
    what they serialize to, and copies made without the constructor's
    facts are equal and serialize to the same bytes."""
    bare = replace(p)
    assert bare._total is None and bare._frame is None
    if p._total is not None:
        assert p._total == _ipv4_lengths(p.ipv4.options, p.transport, p.app_payload)[1]
    if p._frame is not None:
        assert p._frame == pk.serialize_packet(bare)
    wire = pk.serialize_packet(p)
    assert p.wire_len == len(wire)
    for twin in (copy.copy(p), pickle.loads(pickle.dumps(p)),
                 ParsedPacket(p.link, p.ipv4, p.transport, p.app_payload, p.link_trailer)):
        assert twin == p and pk.serialize_packet(twin) == wire


def _operations(p, data):
    """Thunks for every packet the builders, rebuilders and stock
    handlers make, the rebuilders and handlers from ``p``."""
    addresses = st.tuples(u32, u32, u16, u16)
    src, dst, sport, dport = data.draw(addresses)
    payload = st.binary(max_size=64)
    yield lambda: pk.build_tcp(src, dst, sport, dport, options=data.draw(words), payload=data.draw(payload))
    yield lambda: pk.build_udp(src, dst, sport, dport, payload=data.draw(payload))
    yield lambda: pk.build_icmp_echo(src, dst, identifier=sport, payload=data.draw(payload))
    yield lambda: pk.fix_checksums(p)
    if p.ipv4 is None:
        return
    yield lambda: pk.with_ipv4(p, data.draw(u8), data.draw(u16))
    yield lambda: pk.with_ipv4(p, data.draw(u8), data.draw(u16), data.draw(u16))
    yield lambda: pk.fix_ipv4_checksum(p)
    yield lambda: mark_excluded(p)
    yield lambda: clear_exclusion(p)
    ports = {"src_port": sport, "dst_port": dport} if isinstance(p.transport, (Tcp, Udp)) else {}
    yield lambda: pk.readdress(p, src_ip=src, dst_ip=dst, src_mac=data.draw(macs), **ports)
    if p.tcp is not None:
        yield lambda: pk.with_tcp_seq_ack(p, data.draw(u32), data.draw(u32))
        yield lambda: pk.set_tcp_options(p, data.draw(st.binary(max_size=MAX_TCP_OPTIONS)))
    if p.icmp is not None:
        yield lambda: pk.set_icmp_payload(p, data.draw(payload))
    for spec in STOCK_SPECS:
        if spec.match(p) and spec.capacity(p) > 0:
            segment = data.draw(st.binary(min_size=1, max_size=spec.capacity(p)))
            yield lambda spec=spec, segment=segment: spec.writer(p, segment)
            yield lambda spec=spec, segment=segment: spec.recover(spec.writer(p, segment))


@st.composite
def carried_frames(draw):
    """Frames of a synthesized capture or written from ``packets()``,
    half of them with reserved bits set beside a TCP data offset."""
    if draw(st.booleans()):
        frame = bytearray(draw(st.sampled_from(MIXED_FRAMES)))
    else:
        frame = bytearray(pk.serialize_packet(draw(packets(writable=True))))
    if draw(st.booleans()):
        _set_reserved_bits(frame, draw)
    return bytes(frame)


@contextmanager
def _header_rewrites():
    """Patches ``pk.with_ipv4`` to list each packet it makes, with
    whether its source carried a frame.  The exclusion marker,
    ``clear_exclusion``, ``fix_ipv4_checksum`` and the IPv4 handlers
    all make their packets through it."""
    made = []
    real = pk.with_ipv4

    def recording(p, *args):
        q = real(p, *args)
        made.append((q, p._frame is not None))
        return q

    with mock.patch.object(pk, "with_ipv4", recording):
        yield made


@settings(max_examples=300, deadline=None)
@given(frame=carried_frames(), data=st.data())
def test_carried_facts_never_go_stale(frame, data):
    """Whatever parses, builds or rebuilds a packet, what it carries
    agrees with its layers, and the parsed packet it came from still
    does afterwards: no rebuild fills a transport it shares.  A packet
    carries a frame exactly when it is that parsed packet carrying one,
    or ``with_ipv4`` made it from a packet carrying one."""
    try:
        p = pk.parse_packet(frame)
    except pk.PacketError:
        return
    assert p._frame in (None, frame) and (p.ipv4 is None) == (p._total is None)
    if p.tcp is not None:
        # The codec keeps the reserved nibble, in the top four flag bits.
        assert p.tcp.flags >> 8 == frame[_transport_at(frame) + 12] & 0x0F
    _assert_carries_the_truth(p)
    for make in _operations(p, data):
        with _header_rewrites() as made:
            try:
                q = make()
            except pk.PacketError:
                continue
        if q is p:
            kept = p._frame is not None
        else:
            kept = any(r is q and framed for r, framed in made)
        assert (q._frame is not None) == kept
        assert q.ipv4 is None or q._total is not None
        _assert_carries_the_truth(q)
        _assert_carries_the_truth(p)
