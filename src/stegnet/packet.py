"""Byte-exact model of Ethernet/IPv4/TCP/UDP/ICMP frames.

Parsing and serialization are inverses: a well formed frame survives
``parse_packet`` -> ``serialize_packet`` without a single bit changing,
and a packet built through the constructors survives the reverse trip.
Length and offset fields (IHL, total length, data offset, UDP length)
are not stored: serialization derives them from structure.  Checksum
fields are emitted exactly as stored, so a deliberately overwritten
checksum stays overwritten until someone recomputes it on purpose.

Only Ethernet link frames are modeled.  Frames with a non-IPv4
ethertype, and IPv4 packets with an unhandled protocol number, are kept
as opaque payload so they still round-trip.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import Optional, Union

ETHERTYPE_IPV4 = 0x0800

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10
TCP_URG = 0x20

TCP_OPT_NOP = 0x01
MAX_TCP_OPTIONS = 40
MAX_IP_OPTIONS = 40

ICMP_ECHO_REPLY = 0
ICMP_ECHO_REQUEST = 8

ETHER_SIZE = 14
MIN_IPV4_HEADER = 20
MAX_IPV4_TOTAL = 65535
MAX_FRAME = ETHER_SIZE + MAX_IPV4_TOTAL

_ETH = struct.Struct("!6s6sH")
_IPV4 = struct.Struct("!BBHHHBBH4s4s")
_TCP = struct.Struct("!HHIIBBHHH")
_UDP = struct.Struct("!HHHH")
_ICMP = struct.Struct("!BBHHH")


class PacketError(Exception):
    """Base for malformed or unusable packet data."""


class Truncated(PacketError):
    """Buffer ends before a declared length, or lengths are inconsistent."""


class BadVersion(PacketError):
    """IPv4 ethertype with a version nibble that is not 4."""


class OptionsOverflow(PacketError):
    """Options region would exceed 40 octets or break 4-octet alignment."""


class UnsupportedProtocol(PacketError):
    """Checksum requested for a transport this model does not cover."""


def mac_to_str(mac: bytes) -> str:
    return ":".join("%02x" % b for b in mac)


def str_to_mac(text: str) -> bytes:
    parts = text.split(":")
    if len(parts) != 6:
        raise ValueError("MAC must have six octets: %r" % text)
    return bytes(int(part, 16) for part in parts)


def str_to_ip(text: str) -> int:
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError("IPv4 address must have four octets: %r" % text)
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError("IPv4 octet out of range: %r" % text)
        value = (value << 8) | octet
    return value


def _coerce_ip(value: Union[int, str]) -> int:
    return value if isinstance(value, int) else str_to_ip(value)


def _coerce_mac(value: Union[bytes, str]) -> bytes:
    return value if isinstance(value, bytes) else str_to_mac(value)


@dataclass(frozen=True)
class RawPacket:
    """Captured frame bytes plus capture time in integer microseconds."""

    data: bytes
    capture_time_us: int = 0


@dataclass(frozen=True)
class Ethernet:
    dst_mac: bytes
    src_mac: bytes
    ethertype: int


@dataclass(frozen=True)
class Ipv4:
    tos: int
    identification: int
    flags: int
    frag_offset: int
    ttl: int
    protocol: int
    header_checksum: int
    src_ip: int
    dst_ip: int
    options: bytes = b""


@dataclass(frozen=True)
class Tcp:
    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int
    window: int
    checksum: int
    urgent: int
    options: bytes = b""


@dataclass(frozen=True)
class Udp:
    src_port: int
    dst_port: int
    checksum: int


@dataclass(frozen=True)
class Icmp:
    icmp_type: int
    code: int
    checksum: int
    identifier: int
    sequence: int
    payload: bytes = b""


Transport = Union[Tcp, Udp, Icmp]


@dataclass(frozen=True)
class ParsedPacket:
    link: Ethernet
    ipv4: Optional[Ipv4] = None
    transport: Optional[Transport] = None
    app_payload: bytes = b""
    # Link-level bytes past the declared IPv4 total length (padding).
    link_trailer: bytes = b""

    @property
    def tcp(self) -> Optional[Tcp]:
        return self.transport if isinstance(self.transport, Tcp) else None

    @property
    def udp(self) -> Optional[Udp]:
        return self.transport if isinstance(self.transport, Udp) else None

    @property
    def icmp(self) -> Optional[Icmp]:
        return self.transport if isinstance(self.transport, Icmp) else None

    @property
    def wire_len(self) -> int:
        if self.ipv4 is None:
            return ETHER_SIZE + len(self.app_payload)
        return ETHER_SIZE + _ipv4_total(self) + len(self.link_trailer)


def flow_key(p: ParsedPacket):
    """(src ip, src port, dst ip, dst port, protocol) for TCP/UDP, else None."""
    if p.ipv4 is None:
        return None
    ports: Optional[tuple] = None
    if p.tcp is not None:
        ports = (p.tcp.src_port, p.tcp.dst_port)
    elif p.udp is not None:
        ports = (p.udp.src_port, p.udp.dst_port)
    if ports is None:
        return None
    return (p.ipv4.src_ip, ports[0], p.ipv4.dst_ip, ports[1], p.ipv4.protocol)


def reverse_flow_key(key):
    src_ip, src_port, dst_ip, dst_port, proto = key
    return (dst_ip, dst_port, src_ip, src_port, proto)


# ---------------------------------------------------------------------------
# Checksums


def checksum16(data: bytes) -> int:
    """Internet one's-complement checksum over ``data`` (odd length padded)."""
    if len(data) & 1:
        data = data + b"\x00"
    total = sum(struct.unpack("!%dH" % (len(data) // 2), data))
    total = (total & 0xFFFF) + (total >> 16)
    total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def ipv4_checksum(header: bytes) -> int:
    """Header checksum for raw IPv4 header bytes.

    The caller zeroes the checksum field first; length must be a
    multiple of 4 as every real IPv4 header is.
    """
    if len(header) % 4:
        raise PacketError("IPv4 header length must be a multiple of 4")
    return checksum16(header)


def _pseudo_header(ip: Ipv4, proto: int, length: int) -> bytes:
    return struct.pack("!4s4sBBH", ip.src_ip.to_bytes(4, "big"), ip.dst_ip.to_bytes(4, "big"), 0, proto, length)


def transport_checksum(p: ParsedPacket) -> int:
    """Checksum for the transport layer of ``p`` with its field zeroed.

    TCP and UDP include the IPv4 pseudo header; ICMP covers only the
    ICMP message.  For UDP the all-zero result is transmitted as 0xFFFF
    (zero on the wire means "no checksum").
    """
    if p.ipv4 is None or p.transport is None:
        raise UnsupportedProtocol("no transport layer to checksum")
    if p.tcp is not None:
        body = _tcp_bytes(replace(p.tcp, checksum=0)) + p.app_payload
        return checksum16(_pseudo_header(p.ipv4, PROTO_TCP, len(body)) + body)
    if p.udp is not None:
        length = _UDP.size + len(p.app_payload)
        body = _UDP.pack(p.udp.src_port, p.udp.dst_port, length, 0) + p.app_payload
        value = checksum16(_pseudo_header(p.ipv4, PROTO_UDP, length) + body)
        return 0xFFFF if value == 0 else value
    if p.icmp is not None:
        return checksum16(_icmp_bytes(replace(p.icmp, checksum=0)))
    raise UnsupportedProtocol("protocol %r" % type(p.transport).__name__)


def fix_ipv4_checksum(p: ParsedPacket) -> ParsedPacket:
    if p.ipv4 is None:
        raise UnsupportedProtocol("packet has no IPv4 layer")
    header = _ipv4_header_bytes(p, checksum=0)
    return replace(p, ipv4=replace(p.ipv4, header_checksum=ipv4_checksum(header)))


def fix_transport_checksum(p: ParsedPacket) -> ParsedPacket:
    value = transport_checksum(p)
    if p.tcp is not None:
        return replace(p, transport=replace(p.tcp, checksum=value))
    if p.udp is not None:
        return replace(p, transport=replace(p.udp, checksum=value))
    return replace(p, transport=replace(p.icmp, checksum=value))


def fix_checksums(p: ParsedPacket) -> ParsedPacket:
    if p.transport is not None:
        p = fix_transport_checksum(p)
    if p.ipv4 is not None:
        p = fix_ipv4_checksum(p)
    return p


def validate_ipv4_checksum(p: ParsedPacket) -> bool:
    if p.ipv4 is None:
        return True
    return checksum16(_ipv4_header_bytes(p)) == 0


def validate_transport_checksum(p: ParsedPacket) -> bool:
    if p.transport is None:
        return True
    if p.udp is not None and p.udp.checksum == 0:
        return True  # UDP checksum disabled is legal
    stored = p.transport.checksum
    computed = transport_checksum(p)
    if p.udp is not None and computed == 0xFFFF and stored in (0xFFFF,):
        return True
    return stored == computed


def validate_checksums(p: ParsedPacket) -> bool:
    return validate_ipv4_checksum(p) and validate_transport_checksum(p)


# ---------------------------------------------------------------------------
# Serialization


def _ipv4_payload_len(p: ParsedPacket) -> int:
    if p.tcp is not None:
        return _TCP.size + len(p.tcp.options) + len(p.app_payload)
    if p.udp is not None:
        return _UDP.size + len(p.app_payload)
    if p.icmp is not None:
        return _ICMP.size + len(p.icmp.payload)
    return len(p.app_payload)


def _ipv4_total(p: ParsedPacket) -> int:
    assert p.ipv4 is not None
    return MIN_IPV4_HEADER + len(p.ipv4.options) + _ipv4_payload_len(p)


def _ipv4_header_bytes(p: ParsedPacket, checksum: Optional[int] = None) -> bytes:
    ip = p.ipv4
    if len(ip.options) > MAX_IP_OPTIONS or len(ip.options) % 4:
        raise OptionsOverflow("IPv4 options must be 4-aligned and at most 40 octets")
    ihl = (MIN_IPV4_HEADER + len(ip.options)) // 4
    total = _ipv4_total(p)
    if total > MAX_IPV4_TOTAL:
        raise Truncated("IPv4 total length %d exceeds 65535" % total)
    stored = ip.header_checksum if checksum is None else checksum
    head = _IPV4.pack(
        (4 << 4) | ihl,
        ip.tos,
        total,
        ip.identification,
        (ip.flags << 13) | ip.frag_offset,
        ip.ttl,
        ip.protocol,
        stored,
        ip.src_ip.to_bytes(4, "big"),
        ip.dst_ip.to_bytes(4, "big"),
    )
    return head + ip.options


def _tcp_bytes(tcp: Tcp) -> bytes:
    if len(tcp.options) > MAX_TCP_OPTIONS or len(tcp.options) % 4:
        raise OptionsOverflow("TCP options must be 4-aligned and at most 40 octets")
    offset = (_TCP.size + len(tcp.options)) // 4
    head = _TCP.pack(
        tcp.src_port,
        tcp.dst_port,
        tcp.seq,
        tcp.ack,
        offset << 4,
        tcp.flags,
        tcp.window,
        tcp.checksum,
        tcp.urgent,
    )
    return head + tcp.options


def _udp_bytes(udp: Udp, payload_len: int) -> bytes:
    return _UDP.pack(udp.src_port, udp.dst_port, _UDP.size + payload_len, udp.checksum)


def _icmp_bytes(icmp: Icmp) -> bytes:
    return _ICMP.pack(icmp.icmp_type, icmp.code, icmp.checksum, icmp.identifier, icmp.sequence) + icmp.payload


def serialize_packet(p: ParsedPacket) -> bytes:
    """Emit the frame bytes for ``p``.

    Length and offset fields come from the structure itself; stored
    checksums are written verbatim.
    """
    out = bytearray(_ETH.pack(p.link.dst_mac, p.link.src_mac, p.link.ethertype))
    if p.ipv4 is None:
        out += p.app_payload
        return bytes(out)
    out += _ipv4_header_bytes(p)
    if p.tcp is not None:
        out += _tcp_bytes(p.tcp)
        out += p.app_payload
    elif p.udp is not None:
        out += _udp_bytes(p.udp, len(p.app_payload))
        out += p.app_payload
    elif p.icmp is not None:
        out += _icmp_bytes(p.icmp)
    else:
        out += p.app_payload
    out += p.link_trailer
    return bytes(out)


# ---------------------------------------------------------------------------
# Parsing


def parse_packet(data: bytes) -> ParsedPacket:
    """Parse one Ethernet frame.

    Raises Truncated when the buffer ends before a declared length or a
    declared length is structurally impossible, and BadVersion when an
    IPv4 ethertype carries a version other than 4.
    """
    if isinstance(data, (bytearray, memoryview)):
        data = bytes(data)
    if len(data) < ETHER_SIZE:
        raise Truncated("frame shorter than an Ethernet header")
    dst, src, ethertype = _ETH.unpack_from(data, 0)
    link = Ethernet(dst, src, ethertype)
    if ethertype != ETHERTYPE_IPV4:
        return ParsedPacket(link=link, app_payload=data[ETHER_SIZE:])

    if len(data) < ETHER_SIZE + MIN_IPV4_HEADER:
        raise Truncated("IPv4 header truncated")
    (ver_ihl, tos, total, ident, flags_frag, ttl, proto, hchk, src_ip, dst_ip) = _IPV4.unpack_from(data, ETHER_SIZE)
    version = ver_ihl >> 4
    if version != 4:
        raise BadVersion("IPv4 version nibble is %d" % version)
    ihl = ver_ihl & 0x0F
    if ihl < 5:
        raise Truncated("IPv4 IHL %d below minimum" % ihl)
    header_len = ihl * 4
    if total < header_len:
        raise Truncated("IPv4 total length smaller than header")
    if ETHER_SIZE + total > len(data):
        raise Truncated("IPv4 total length exceeds frame")
    if ETHER_SIZE + header_len > len(data):
        raise Truncated("IPv4 options truncated")
    options = data[ETHER_SIZE + MIN_IPV4_HEADER : ETHER_SIZE + header_len]
    ipv4 = Ipv4(
        tos=tos,
        identification=ident,
        flags=flags_frag >> 13,
        frag_offset=flags_frag & 0x1FFF,
        ttl=ttl,
        protocol=proto,
        header_checksum=hchk,
        src_ip=int.from_bytes(src_ip, "big"),
        dst_ip=int.from_bytes(dst_ip, "big"),
        options=options,
    )
    body = data[ETHER_SIZE + header_len : ETHER_SIZE + total]
    trailer = data[ETHER_SIZE + total :]

    transport: Optional[Transport] = None
    payload = b""
    if proto == PROTO_TCP:
        if len(body) < _TCP.size:
            raise Truncated("TCP header truncated")
        (sport, dport, seq, ack, off_bits, flags, window, chk, urg) = _TCP.unpack_from(body, 0)
        offset = off_bits >> 4
        if offset < 5 or offset * 4 > len(body):
            raise Truncated("TCP data offset inconsistent with segment")
        transport = Tcp(sport, dport, seq, ack, flags, window, chk, urg, options=body[_TCP.size : offset * 4])
        payload = body[offset * 4 :]
    elif proto == PROTO_UDP:
        if len(body) < _UDP.size:
            raise Truncated("UDP header truncated")
        sport, dport, length, chk = _UDP.unpack_from(body, 0)
        if length != len(body) or length < _UDP.size:
            raise Truncated("UDP length inconsistent with IPv4 payload")
        transport = Udp(sport, dport, chk)
        payload = body[_UDP.size :]
    elif proto == PROTO_ICMP:
        if len(body) < _ICMP.size:
            raise Truncated("ICMP header truncated")
        itype, code, chk, ident2, seq2 = _ICMP.unpack_from(body, 0)
        transport = Icmp(itype, code, chk, ident2, seq2, payload=body[_ICMP.size :])
    else:
        payload = body

    return ParsedPacket(link=link, ipv4=ipv4, transport=transport, app_payload=payload, link_trailer=trailer)


# ---------------------------------------------------------------------------
# Mutation helpers


def set_tcp_options(p: ParsedPacket, options: bytes) -> ParsedPacket:
    """Replace the TCP options region with ``options``.

    Pads with NOP (0x01) octets to 4-octet alignment and recomputes
    both checksums, since the segment and total lengths change.
    """
    if p.tcp is None:
        raise UnsupportedProtocol("packet has no TCP header")
    if len(options) > MAX_TCP_OPTIONS:
        raise OptionsOverflow("TCP options of %d octets exceed 40" % len(options))
    padded = options + bytes([TCP_OPT_NOP]) * (-len(options) % 4)
    return fix_checksums(replace(p, transport=replace(p.tcp, options=padded)))


def set_icmp_payload(p: ParsedPacket, payload: bytes) -> ParsedPacket:
    if p.icmp is None:
        raise UnsupportedProtocol("packet has no ICMP message")
    return fix_checksums(replace(p, transport=replace(p.icmp, payload=payload)))


# ---------------------------------------------------------------------------
# Constructors


def build_tcp(
    src_ip,
    dst_ip,
    src_port: int,
    dst_port: int,
    *,
    seq: int = 0,
    ack: int = 0,
    flags: int = TCP_ACK | TCP_PSH,
    window: int = 65535,
    options: bytes = b"",
    payload: bytes = b"",
    src_mac="02:00:00:00:00:01",
    dst_mac="02:00:00:00:00:02",
    tos: int = 0,
    ttl: int = 64,
    identification: int = 0,
) -> ParsedPacket:
    tcp = Tcp(src_port, dst_port, seq, ack, flags, window, 0, 0, options=options)
    p = ParsedPacket(
        link=Ethernet(_coerce_mac(dst_mac), _coerce_mac(src_mac), ETHERTYPE_IPV4),
        ipv4=_fresh_ipv4(src_ip, dst_ip, PROTO_TCP, tos, ttl, identification),
        transport=tcp,
        app_payload=payload,
    )
    return fix_checksums(p)


def build_udp(
    src_ip,
    dst_ip,
    src_port: int,
    dst_port: int,
    *,
    payload: bytes = b"",
    src_mac="02:00:00:00:00:01",
    dst_mac="02:00:00:00:00:02",
    tos: int = 0,
    ttl: int = 64,
    identification: int = 0,
) -> ParsedPacket:
    udp = Udp(src_port, dst_port, 0)
    p = ParsedPacket(
        link=Ethernet(_coerce_mac(dst_mac), _coerce_mac(src_mac), ETHERTYPE_IPV4),
        ipv4=_fresh_ipv4(src_ip, dst_ip, PROTO_UDP, tos, ttl, identification),
        transport=udp,
        app_payload=payload,
    )
    return fix_checksums(p)


def build_icmp_echo(
    src_ip,
    dst_ip,
    *,
    icmp_type: int = ICMP_ECHO_REQUEST,
    identifier: int = 0,
    sequence: int = 0,
    payload: bytes = b"\x00" * 56,
    src_mac="02:00:00:00:00:01",
    dst_mac="02:00:00:00:00:02",
    tos: int = 0,
    ttl: int = 64,
    identification: int = 0,
) -> ParsedPacket:
    icmp = Icmp(icmp_type, 0, 0, identifier, sequence, payload=payload)
    p = ParsedPacket(
        link=Ethernet(_coerce_mac(dst_mac), _coerce_mac(src_mac), ETHERTYPE_IPV4),
        ipv4=_fresh_ipv4(src_ip, dst_ip, PROTO_ICMP, tos, ttl, identification),
        transport=icmp,
    )
    return fix_checksums(p)


def _fresh_ipv4(src_ip, dst_ip, proto: int, tos: int, ttl: int, identification: int) -> Ipv4:
    return Ipv4(
        tos=tos,
        identification=identification,
        flags=2,  # don't fragment, the common case
        frag_offset=0,
        ttl=ttl,
        protocol=proto,
        header_checksum=0,
        src_ip=_coerce_ip(src_ip),
        dst_ip=_coerce_ip(dst_ip),
    )
