"""Byte-exact model of Ethernet/IPv4/TCP/UDP/ICMP frames.

Parsing and serialization are inverses: a well formed frame survives
``parse_packet`` -> ``serialize_packet`` without a single bit changing,
and a packet built through the constructors survives the reverse trip.
Length and offset fields (IHL, total length, data offset, UDP length)
are not layer fields: they follow from structure.  Checksum fields are
emitted exactly as stored, so a deliberately overwritten checksum stays
overwritten until someone recomputes it on purpose.  Packets are
slotted, frozen dataclasses.  Every change (``with_ipv4``,
``readdress``, ``set_*``, ``fix_*``) and every ``build_*`` builds each
changed layer once and ends in ``_rebuild``, which fills the transport
checksum and then the IPv4 one when asked, and builds one packet.

A packet carries two facts its maker already holds, so that no later
call derives them again.  Its IPv4 total length: ``parse_packet`` reads
it from the header, a change that keeps every length (``with_ipv4``,
``readdress``, ``fix_*``, ``with_tcp_seq_ack``) takes it from the
source packet, and ``_rebuild`` otherwise derives it once with
``_ipv4_lengths``, the one place lengths are derived and bounded.  And
its frame: ``parse_packet`` sets it only for a frame that
``serialize_packet`` would give back byte for byte, and ``with_ipv4``
(so the exclusion marker, ``fix_ipv4_checksum`` and the IPv4 handlers
too) carries its source's frame on with the new IPv4 header written
into it, the only octets it changes.  No other rebuild carries one.
``serialize_packet`` returns a carried frame, and it, ``wire_len`` and
the checksums read the total through ``_lengths``.
Neither fact can go stale: a packet's layers never change after it is
built, and ``_rebuild`` fills only a transport its caller has just made.
Both stay out of ``__init__``, equality, hashing, ``repr`` and
``dataclasses.replace``, so a packet made any other way carries neither
and derives its length from its layers.

Inside this module and ``trace``, layers and captured records are
built by positional constructors (``_new_ipv4`` and its siblings) made
once at import by ``_constructor``, which ``engine`` uses for its
``CarrierStats`` too.  Each takes every field in
declaration order, stores them into a bare slotted twin of the class by
plain attribute assignment and then sets the object's ``__class__``,
where the dataclass ``__init__`` of a frozen class goes through
``object.__setattr__`` once per field at two to three times the cost.
The object is the one the public constructor builds: of the same class,
equal, with the same hash and repr, and frozen from then on.

Three fused shapes, Ethernet over a 20-octet IPv4 header over a fixed
TCP, UDP or ICMP header, are read by ``parse_packet`` and written by
``serialize_packet`` with one struct call each (``_ETH_IPV4_TCP`` and
its siblings), and ``_PSEUDO_TCP`` packs the TCP pseudo header with the
TCP header for its checksum.  A frame qualifies when its ethertype is
IPv4, its first IPv4 octet is 0x45 and its protocol is TCP, UDP or
ICMP, and it is read this way only if it passes every length check.
The general path, layer by layer, reads and writes everything else:
IPv4 options, other protocols, other ethertypes and every malformed
frame, so it alone raises the parse errors.  Both paths give the same
objects and bytes.

Only Ethernet link frames are modeled.  Frames with a non-IPv4
ethertype, and IPv4 packets with an unhandled protocol number, are kept
as opaque payload so they still round-trip.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields
from typing import Optional, Tuple, Union

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
_IPV4 = struct.Struct("!BBHHHBBHII")
# Ethernet plus the fixed IPv4 header; addresses are integers in both.
_ETH_IPV4 = struct.Struct(_ETH.format + _IPV4.format[1:])
# TCP octets 12-13 are one field: the data offset over ``Tcp.flags``.
_TCP = struct.Struct("!HHIIHHHH")
_UDP = struct.Struct("!HHHH")
_ICMP = struct.Struct("!BBHHH")
# The fused shapes (see the module docstring).
_ETH_IPV4_TCP = struct.Struct(_ETH_IPV4.format + _TCP.format[1:])
_ETH_IPV4_UDP = struct.Struct(_ETH_IPV4.format + _UDP.format[1:])
_ETH_IPV4_ICMP = struct.Struct(_ETH_IPV4.format + _ICMP.format[1:])
# TCP/UDP pseudo header: addresses, a zero octet, protocol, length.
_PSEUDO = struct.Struct("!IIxBH")
_PSEUDO_TCP = struct.Struct(_PSEUDO.format + _TCP.format[1:])
# The first IPv4 octet of a header without options (version 4, IHL 5),
# the offset of such a frame's protocol octet, and each fused size.
_VERSION_IHL_5 = 0x45
_PROTO_AT = ETHER_SIZE + 9
_TCP_FRAME, _UDP_FRAME, _ICMP_FRAME = _ETH_IPV4_TCP.size, _ETH_IPV4_UDP.size, _ETH_IPV4_ICMP.size


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


@dataclass(frozen=True, slots=True)
class RawPacket:
    """Captured frame bytes plus capture time in integer microseconds."""

    data: bytes
    capture_time_us: int = 0


@dataclass(frozen=True, slots=True)
class Ethernet:
    dst_mac: bytes
    src_mac: bytes
    ethertype: int


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Tcp:
    """A TCP header.  ``flags`` is the 12 bits after the data offset, as
    Wireshark's ``tcp.flags`` is: the reserved nibble (its low bit is
    RFC 3540's NS, AccECN's AE) over the eight control bits."""

    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int
    window: int
    checksum: int
    urgent: int
    options: bytes = b""


@dataclass(frozen=True, slots=True)
class Udp:
    src_port: int
    dst_port: int
    checksum: int


@dataclass(frozen=True, slots=True)
class Icmp:
    icmp_type: int
    code: int
    checksum: int
    identifier: int
    sequence: int
    payload: bytes = b""


# ``|``, not ``typing.Union``: typing caches what it subscripts, which
# would keep these classes, and this module with them, past a re-import.
Transport = Tcp | Udp | Icmp


@dataclass(frozen=True, slots=True)
class ParsedPacket:
    link: Ethernet
    ipv4: Optional[Ipv4] = None
    transport: Optional[Transport] = None
    app_payload: bytes = b""
    # Link-level bytes past the declared IPv4 total length (padding).
    link_trailer: bytes = b""
    # The IPv4 total length and the frame this packet carries (see the
    # module docstring).  Neither goes stale: a packet's layers never
    # change after it is built, and ``_rebuild`` fills only a transport
    # its caller has just made.
    _total: Optional[int] = field(default=None, init=False, repr=False, compare=False)
    _frame: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

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
        return ETHER_SIZE + _lengths(self)[1] + len(self.link_trailer)


def _constructor(cls):
    """A function that builds ``cls`` from all of its fields, passed
    positionally in declaration order, in straight-line code generated
    here as ``dataclasses`` generates ``__init__``.  It fills a bare
    twin of ``cls``, a class with the same slots and nothing else, by
    plain attribute stores, which the interpreter specializes into slot
    writes, and then makes the object a ``cls``: ``__class__``
    assignment is allowed between classes of the same layout.  A field
    left out of ``__init__`` is an optional last argument, None unless
    given."""
    names = cls.__slots__
    twin = type("_" + cls.__name__, (), {"__slots__": names})
    namespace = {"_new": object.__new__, "_twin": twin, "_cls": cls}
    params = ", ".join(f.name if f.init else f.name + "=None" for f in fields(cls))
    body = "".join("    self.%s = %s\n" % (name, name) for name in names)
    function = "new_" + cls.__name__
    exec("def %s(%s):\n    self = _new(_twin)\n%s    self.__class__ = _cls\n    return self\n"
         % (function, params, body), namespace)
    return namespace[function]


_new_raw = _constructor(RawPacket)
_new_ethernet = _constructor(Ethernet)
_new_ipv4 = _constructor(Ipv4)
_new_tcp = _constructor(Tcp)
_new_udp = _constructor(Udp)
_new_icmp = _constructor(Icmp)
_new_packet = _constructor(ParsedPacket)


def flow_key(p: ParsedPacket):
    """(src ip, src port, dst ip, dst port, protocol) for TCP/UDP, else None."""
    t = p.transport
    if p.ipv4 is None or not isinstance(t, (Tcp, Udp)):
        return None
    return (p.ipv4.src_ip, t.src_port, p.ipv4.dst_ip, t.dst_port, p.ipv4.protocol)


def reverse_flow_key(key):
    src_ip, src_port, dst_ip, dst_port, proto = key
    return (dst_ip, dst_port, src_ip, src_port, proto)


# ---------------------------------------------------------------------------
# Checksums


def checksum16(data: bytes) -> int:
    """Internet one's-complement checksum over ``data`` (odd length padded).

    The one's-complement sum of 16-bit words is order-free and its
    carries may be deferred (RFC 1071 §2), and 2**16 is 1 modulo 0xFFFF,
    so the sum is the whole buffer read as one integer, modulo 0xFFFF:
    one ``int.from_bytes`` and one remainder instead of a word loop.
    Non-zero data whose remainder is 0 sums to 0xFFFF, the
    one's-complement zero that an end-around carry produces.
    """
    value = int.from_bytes(data, "big")
    if len(data) & 1:
        value <<= 8
    if not value:
        return 0xFFFF
    return 0xFFFF - (value % 0xFFFF or 0xFFFF)


def ipv4_checksum(header: bytes) -> int:
    """Header checksum for raw IPv4 header bytes.

    The caller zeroes the checksum field first; length must be a
    multiple of 4 as every real IPv4 header is.
    """
    if len(header) % 4:
        raise PacketError("IPv4 header length must be a multiple of 4")
    return checksum16(header)


def _transport_sum(src: int, dst: int, t: Transport, length: int, payload: bytes) -> int:
    """Checksum of ``t`` with its field zeroed, between addresses ``src``
    and ``dst``, for a transport of ``length`` octets (header and
    payload); ``transport_checksum`` documents the rules."""
    if isinstance(t, Tcp):
        head = _PSEUDO_TCP.pack(src, dst, PROTO_TCP, length, t.src_port, t.dst_port, t.seq, t.ack,
                                _tcp_offset_flags(t), t.window, 0, t.urgent)
        return checksum16(b"".join((head, t.options, payload)))
    if isinstance(t, Udp):
        head = _PSEUDO.pack(src, dst, PROTO_UDP, length) + _UDP.pack(t.src_port, t.dst_port, length, 0)
        return checksum16(head + payload) or 0xFFFF
    if isinstance(t, Icmp):
        return checksum16(_icmp_bytes(t, 0))
    raise UnsupportedProtocol("protocol %r" % type(t).__name__)


def transport_checksum(p: ParsedPacket) -> int:
    """Checksum for the transport layer of ``p`` with its field zeroed.

    TCP and UDP include the IPv4 pseudo header; ICMP covers only the
    ICMP message.  For UDP the all-zero result is transmitted as 0xFFFF
    (zero on the wire means "no checksum").  A packet whose IPv4 header
    cannot state its length raises as ``serialize_packet`` does.
    """
    ip, t = p.ipv4, p.transport
    if ip is None or t is None:
        raise UnsupportedProtocol("no transport layer to checksum")
    ihl, total = _lengths(p)
    return _transport_sum(ip.src_ip, ip.dst_ip, t, total - 4 * ihl, p.app_payload)


def fix_ipv4_checksum(p: ParsedPacket) -> ParsedPacket:
    ip = p.ipv4
    if ip is None:
        raise UnsupportedProtocol("packet has no IPv4 layer")
    return with_ipv4(p, ip.tos, ip.identification)


def fix_checksums(p: ParsedPacket) -> ParsedPacket:
    """``p`` with its transport checksum, if it has a transport, and its
    IPv4 header checksum summed again, in one rebuild."""
    ip, t = p.ipv4, p.transport
    if ip is None:
        if t is not None:
            raise UnsupportedProtocol("no transport layer to checksum")
        return p
    return _rebuild(p.link, ip.tos, ip.identification, ip.flags, ip.frag_offset, ip.ttl, ip.protocol, None, ip.src_ip,
                    ip.dst_ip, ip.options, None if t is None else _copy(t), p.app_payload, p.link_trailer,
                    t is not None, p._total)


def validate_ipv4_checksum(p: ParsedPacket) -> bool:
    """Whether the packed header's words, stored checksum included, sum
    to a one's-complement zero.  Both zeros, 0x0000 and 0xFFFF, are
    accepted as the stored checksum where either completes the sum."""
    return p.ipv4 is None or checksum16(_ipv4_header_bytes(p)) == 0


def validate_transport_checksum(p: ParsedPacket) -> bool:
    if p.transport is None:
        return True
    if p.udp is not None and p.udp.checksum == 0:
        return True  # UDP checksum disabled is legal
    return p.transport.checksum == transport_checksum(p)


def validate_checksums(p: ParsedPacket) -> bool:
    return validate_ipv4_checksum(p) and validate_transport_checksum(p)


# ---------------------------------------------------------------------------
# Serialization


def _ipv4_lengths(options: bytes, transport: Optional[Transport], payload: bytes) -> Tuple[int, int]:
    """IHL and total length of an IPv4 header with ``options`` over
    ``transport`` and ``payload``: the one derivation of the IPv4 length
    from a packet's layers, which also checks what the header can state
    (4-aligned options of at most 40 octets, at most 65,535 in all)."""
    header = MIN_IPV4_HEADER + len(options)
    if header > MIN_IPV4_HEADER + MAX_IP_OPTIONS or header % 4:
        raise OptionsOverflow("IPv4 options must be 4-aligned and at most 40 octets")
    if isinstance(transport, Tcp):
        total = header + _TCP.size + len(transport.options) + len(payload)
    elif isinstance(transport, Udp):
        total = header + _UDP.size + len(payload)
    elif isinstance(transport, Icmp):
        total = header + _ICMP.size + len(transport.payload)
    else:
        total = header + len(payload)
    if total > MAX_IPV4_TOTAL:
        raise Truncated("IPv4 total length %d exceeds 65535" % total)
    return header // 4, total


def _lengths(p: ParsedPacket) -> Tuple[int, int]:
    """IHL and total length of the IPv4 header of ``p``: the total it
    carries, or else the one ``_ipv4_lengths`` derives."""
    ip, total = p.ipv4, p._total
    if total is None:
        return _ipv4_lengths(ip.options, p.transport, p.app_payload)
    return 5 + len(ip.options) // 4, total


def _ipv4_header_bytes(p: ParsedPacket, checksum: Optional[int] = None) -> bytes:
    """The IPv4 header of ``p``, with ``checksum`` in place of the
    stored one unless it is None."""
    ip = p.ipv4
    ihl, total = _lengths(p)
    head = _IPV4.pack(0x40 | ihl, ip.tos, total, ip.identification, ip.flags << 13 | ip.frag_offset, ip.ttl,
                      ip.protocol, ip.header_checksum if checksum is None else checksum, ip.src_ip, ip.dst_ip)
    return head + ip.options


def _tcp_offset_flags(tcp: Tcp) -> int:
    """Octets 12-13 of ``tcp``: the header length in words in the top
    four bits, over the 12 flag bits."""
    options = tcp.options
    if len(options) > MAX_TCP_OPTIONS or len(options) % 4:
        raise OptionsOverflow("TCP options must be 4-aligned and at most 40 octets")
    if tcp.flags >> 12:
        raise PacketError("TCP flags %#x exceed 12 bits" % tcp.flags)
    return (_TCP.size + len(options)) // 4 << 12 | tcp.flags


def _tcp_bytes(tcp: Tcp, checksum: int) -> bytes:
    head = _TCP.pack(tcp.src_port, tcp.dst_port, tcp.seq, tcp.ack, _tcp_offset_flags(tcp), tcp.window, checksum,
                     tcp.urgent)
    return head + tcp.options


def _icmp_bytes(icmp: Icmp, checksum: int) -> bytes:
    return _ICMP.pack(icmp.icmp_type, icmp.code, checksum, icmp.identifier, icmp.sequence) + icmp.payload


def serialize_packet(p: ParsedPacket) -> bytes:
    """Emit the frame bytes for ``p``.

    A packet that carries a frame gives it back.  Otherwise length
    and offset fields come from the structure itself; stored checksums
    are written verbatim.
    """
    frame = p._frame
    if frame is not None:
        return frame
    link, ip, t = p.link, p.ipv4, p.transport
    if ip is None:
        return _ETH.pack(link.dst_mac, link.src_mac, link.ethertype) + p.app_payload
    ihl, total = _lengths(p)
    if ihl == 5:
        # No IPv4 options: Ethernet, IPv4 and the transport header in one pack.
        if isinstance(t, Tcp):
            head = _ETH_IPV4_TCP.pack(link.dst_mac, link.src_mac, link.ethertype, _VERSION_IHL_5, ip.tos, total,
                                      ip.identification, ip.flags << 13 | ip.frag_offset, ip.ttl, ip.protocol,
                                      ip.header_checksum, ip.src_ip, ip.dst_ip, t.src_port, t.dst_port, t.seq, t.ack,
                                      _tcp_offset_flags(t), t.window, t.checksum, t.urgent)
            return b"".join((head, t.options, p.app_payload, p.link_trailer))
        if isinstance(t, Udp):
            head = _ETH_IPV4_UDP.pack(link.dst_mac, link.src_mac, link.ethertype, _VERSION_IHL_5, ip.tos, total,
                                      ip.identification, ip.flags << 13 | ip.frag_offset, ip.ttl, ip.protocol,
                                      ip.header_checksum, ip.src_ip, ip.dst_ip, t.src_port, t.dst_port,
                                      total - MIN_IPV4_HEADER, t.checksum)
            return b"".join((head, p.app_payload, p.link_trailer))
        if isinstance(t, Icmp):
            head = _ETH_IPV4_ICMP.pack(link.dst_mac, link.src_mac, link.ethertype, _VERSION_IHL_5, ip.tos, total,
                                       ip.identification, ip.flags << 13 | ip.frag_offset, ip.ttl, ip.protocol,
                                       ip.header_checksum, ip.src_ip, ip.dst_ip, t.icmp_type, t.code, t.checksum,
                                       t.identifier, t.sequence)
            return b"".join((head, t.payload, p.link_trailer))
    head = _ETH_IPV4.pack(link.dst_mac, link.src_mac, link.ethertype, 0x40 | ihl, ip.tos, total, ip.identification,
                          ip.flags << 13 | ip.frag_offset, ip.ttl, ip.protocol, ip.header_checksum, ip.src_ip,
                          ip.dst_ip)
    if isinstance(t, Tcp):
        transport = _tcp_bytes(t, t.checksum)
    elif isinstance(t, Udp):
        transport = _UDP.pack(t.src_port, t.dst_port, total - 4 * ihl, t.checksum)
    elif isinstance(t, Icmp):
        return b"".join((head, ip.options, _icmp_bytes(t, t.checksum), p.link_trailer))
    else:
        transport = b""
    return b"".join((head, ip.options, transport, p.app_payload, p.link_trailer))


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
    size = len(data)
    # A frame of Ethernet, IPv4 without options and one TCP, UDP or ICMP
    # header is read with one struct call when each length agrees with
    # the next, and carries ``data`` as its frame.  Every other frame,
    # malformed ones included, and one that fails any of these checks
    # takes the general path below.
    if size >= _UDP_FRAME:
        proto = data[_PROTO_AT]
        if proto == PROTO_TCP and size >= _TCP_FRAME:
            (dst, src, ethertype, ver_ihl, tos, total, ident, flags_frag, ttl, _, hchk, src_ip, dst_ip, sport, dport,
             seq, ack, offset_flags, window, chk, urg) = _ETH_IPV4_TCP.unpack_from(data)
            end, start = ETHER_SIZE + total, _ETH_IPV4.size + (offset_flags >> 12) * 4
            if (ethertype == ETHERTYPE_IPV4 and ver_ihl == _VERSION_IHL_5 and total >= _TCP_FRAME - ETHER_SIZE
                    and end <= size and offset_flags >> 12 >= 5 and start <= end):
                return _new_packet(
                    _new_ethernet(dst, src, ethertype),
                    _new_ipv4(tos, ident, flags_frag >> 13, flags_frag & 0x1FFF, ttl, proto, hchk, src_ip, dst_ip, b""),
                    _new_tcp(sport, dport, seq, ack, offset_flags & 0x0FFF, window, chk, urg, data[_TCP_FRAME:start]),
                    data[start:end], data[end:], total, data)
        elif proto == PROTO_UDP:
            (dst, src, ethertype, ver_ihl, tos, total, ident, flags_frag, ttl, _, hchk, src_ip, dst_ip, sport, dport,
             length, chk) = _ETH_IPV4_UDP.unpack_from(data)
            end = ETHER_SIZE + total
            if (ethertype == ETHERTYPE_IPV4 and ver_ihl == _VERSION_IHL_5 and total >= _UDP_FRAME - ETHER_SIZE
                    and end <= size and length == total - MIN_IPV4_HEADER):
                return _new_packet(
                    _new_ethernet(dst, src, ethertype),
                    _new_ipv4(tos, ident, flags_frag >> 13, flags_frag & 0x1FFF, ttl, proto, hchk, src_ip, dst_ip, b""),
                    _new_udp(sport, dport, chk), data[_UDP_FRAME:end], data[end:], total, data)
        elif proto == PROTO_ICMP:
            (dst, src, ethertype, ver_ihl, tos, total, ident, flags_frag, ttl, _, hchk, src_ip, dst_ip, itype, code,
             chk, ident2, seq2) = _ETH_IPV4_ICMP.unpack_from(data)
            end = ETHER_SIZE + total
            if (ethertype == ETHERTYPE_IPV4 and ver_ihl == _VERSION_IHL_5 and total >= _ICMP_FRAME - ETHER_SIZE
                    and end <= size):
                return _new_packet(
                    _new_ethernet(dst, src, ethertype),
                    _new_ipv4(tos, ident, flags_frag >> 13, flags_frag & 0x1FFF, ttl, proto, hchk, src_ip, dst_ip, b""),
                    _new_icmp(itype, code, chk, ident2, seq2, data[_ICMP_FRAME:end]), b"", data[end:], total, data)
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
        if end - start < _TCP.size:
            raise Truncated("TCP header truncated")
        sport, dport, seq, ack, offset_flags, window, chk, urg = _TCP.unpack_from(data, start)
        offset = (offset_flags >> 12) * 4
        if offset < _TCP.size or start + offset > end:
            raise Truncated("TCP data offset inconsistent with segment")
        transport = _new_tcp(sport, dport, seq, ack, offset_flags & 0x0FFF, window, chk, urg,
                             data[start + _TCP.size : start + offset])
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

    return _new_packet(link, ipv4, transport, payload, data[end:], total)


# ---------------------------------------------------------------------------
# Mutation helpers


# Each transport class's checksum slot setter, for ``_rebuild`` to fill.
_SET_CHECKSUM = {cls: cls.checksum.__set__ for cls in (Tcp, Udp, Icmp)}


def _rebuild(link: Ethernet, tos: int, identification: int, flags: int, frag_offset: int, ttl: int, protocol: int,
             checksum: Optional[int], src: int, dst: int, options: bytes, transport: Optional[Transport],
             payload: bytes, trailer: bytes, fill: bool = False, total: Optional[int] = None,
             frame: Optional[bytes] = None) -> ParsedPacket:
    """The packet these layers make, carrying ``total``, the IPv4 total
    length of a source packet whose lengths the change keeps.  A
    ``checksum`` of None is summed over the header, after a ``total`` of
    None is derived and bounded once, before any packing; then ``fill``
    sets the transport checksum in the slot of ``transport``, which the
    caller has just made for this packet.  A ``frame`` is the one a
    parsed source packet carries, with its total, when only the IPv4
    header changes, which then has no options and no transport to fill:
    the packet carries that frame with the new header, checksum summed
    in the one packing, written over octets 14-33."""
    if frame is not None:
        head = _IPV4.pack(_VERSION_IHL_5, tos, total, identification, flags << 13 | frag_offset, ttl, protocol,
                          checksum or 0, src, dst)
        if checksum is None:
            # Summed with a zero field, then set in octets 10-11 of the header.
            checksum = checksum16(head)
            frame = b"".join((frame[:ETHER_SIZE], head[:10], checksum.to_bytes(2, "big"), head[12:],
                              frame[_ETH_IPV4.size:]))
        else:
            frame = b"".join((frame[:ETHER_SIZE], head, frame[_ETH_IPV4.size:]))
    elif checksum is None:
        if total is None:
            ihl, total = _ipv4_lengths(options, transport, payload)
        else:
            ihl = 5 + len(options) // 4
        if fill:
            value = _transport_sum(src, dst, transport, total - 4 * ihl, payload)
            _SET_CHECKSUM[type(transport)](transport, value)
        checksum = checksum16(_IPV4.pack(0x40 | ihl, tos, total, identification, flags << 13 | frag_offset, ttl,
                                         protocol, 0, src, dst) + options)
    ipv4 = _new_ipv4(tos, identification, flags, frag_offset, ttl, protocol, checksum, src, dst, options)
    return _new_packet(link, ipv4, transport, payload, trailer, total, frame)


def _copy(t: Transport) -> Transport:
    """A new transport equal to ``t``, for ``_rebuild`` to fill."""
    if isinstance(t, Tcp):
        return _new_tcp(t.src_port, t.dst_port, t.seq, t.ack, t.flags, t.window, t.checksum, t.urgent, t.options)
    if isinstance(t, Udp):
        return _new_udp(t.src_port, t.dst_port, t.checksum)
    return _new_icmp(t.icmp_type, t.code, t.checksum, t.identifier, t.sequence, t.payload)


def with_ipv4(p: ParsedPacket, tos: int, identification: int, checksum: Optional[int] = None) -> ParsedPacket:
    """``p`` (which has an IPv4 layer) with a new TOS, identification
    and header checksum.  A ``checksum`` of None is recomputed.  Only
    the IPv4 header changes, so a frame ``p`` carries is carried on
    with the new header in it."""
    ip = p.ipv4
    return _rebuild(p.link, tos, identification, ip.flags, ip.frag_offset, ip.ttl, ip.protocol, checksum, ip.src_ip,
                    ip.dst_ip, ip.options, p.transport, p.app_payload, p.link_trailer, False, p._total, p._frame)


def with_tcp_seq_ack(p: ParsedPacket, seq: int, ack: int) -> ParsedPacket:
    """``p`` with a new TCP sequence and acknowledgement number and the
    TCP checksum recomputed.  Only TCP changes, so the packet keeps the
    very ``Ipv4`` object of ``p`` and its total length;
    ``transport_checksum`` reads that total or, for a packet that
    carries none, derives it and refuses an oversize segment before it
    sums."""
    ip, tcp = p.ipv4, p.tcp
    if tcp is None or ip is None:
        raise UnsupportedProtocol("packet has no TCP header")
    tcp = _new_tcp(tcp.src_port, tcp.dst_port, seq, ack, tcp.flags, tcp.window, 0, tcp.urgent, tcp.options)
    out = _new_packet(p.link, ip, tcp, p.app_payload, p.link_trailer, p._total)
    _SET_CHECKSUM[Tcp](tcp, transport_checksum(out))
    return out


def readdress(p: ParsedPacket, *, src_ip: Optional[int] = None, dst_ip: Optional[int] = None,
              src_port: Optional[int] = None, dst_port: Optional[int] = None,
              src_mac: Optional[bytes] = None, dst_mac: Optional[bytes] = None) -> ParsedPacket:
    """``p`` (which has an IPv4 layer) with new addresses, MACs and, for
    TCP and UDP, ports; None keeps a field.  Both checksums are
    recomputed, as ``fix_checksums`` does, and no length changes, so
    the packet keeps the total ``p`` carries."""
    ip, t, link = p.ipv4, p.transport, p.link
    link = _new_ethernet(link.dst_mac if dst_mac is None else dst_mac,
                         link.src_mac if src_mac is None else src_mac, link.ethertype)
    if isinstance(t, (Tcp, Udp)):
        sport = t.src_port if src_port is None else src_port
        dport = t.dst_port if dst_port is None else dst_port
        if isinstance(t, Tcp):
            t = _new_tcp(sport, dport, t.seq, t.ack, t.flags, t.window, 0, t.urgent, t.options)
        else:
            t = _new_udp(sport, dport, 0)
    elif src_port is not None or dst_port is not None:
        raise UnsupportedProtocol("only TCP and UDP carry ports")
    elif t is not None:
        t = _copy(t)
    return _rebuild(link, ip.tos, ip.identification, ip.flags, ip.frag_offset, ip.ttl, ip.protocol, None,
                    ip.src_ip if src_ip is None else src_ip, ip.dst_ip if dst_ip is None else dst_ip, ip.options, t,
                    p.app_payload, p.link_trailer, t is not None, p._total)


def set_tcp_options(p: ParsedPacket, options: bytes) -> ParsedPacket:
    """Replace the TCP options region with ``options``.

    Pads with NOP (0x01) octets to 4-octet alignment and recomputes
    both checksums, since the segment and total lengths change.
    """
    ip, tcp = p.ipv4, p.tcp
    if tcp is None or ip is None:
        raise UnsupportedProtocol("packet has no TCP header")
    if len(options) > MAX_TCP_OPTIONS:
        raise OptionsOverflow("TCP options of %d octets exceed 40" % len(options))
    padded = options + bytes([TCP_OPT_NOP]) * (-len(options) % 4)
    tcp = _new_tcp(tcp.src_port, tcp.dst_port, tcp.seq, tcp.ack, tcp.flags, tcp.window, 0, tcp.urgent, padded)
    return _rebuild(p.link, ip.tos, ip.identification, ip.flags, ip.frag_offset, ip.ttl, ip.protocol, None,
                    ip.src_ip, ip.dst_ip, ip.options, tcp, p.app_payload, p.link_trailer, True)


def set_icmp_payload(p: ParsedPacket, payload: bytes) -> ParsedPacket:
    ip, icmp = p.ipv4, p.icmp
    if icmp is None or ip is None:
        raise UnsupportedProtocol("packet has no ICMP message")
    icmp = _new_icmp(icmp.icmp_type, icmp.code, 0, icmp.identifier, icmp.sequence, payload)
    return _rebuild(p.link, ip.tos, ip.identification, ip.flags, ip.frag_offset, ip.ttl, ip.protocol, None,
                    ip.src_ip, ip.dst_ip, ip.options, icmp, p.app_payload, p.link_trailer, True)


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
    tcp = _new_tcp(src_port, dst_port, seq, ack, flags, window, 0, 0, options)
    return _fresh(src_ip, dst_ip, src_mac, dst_mac, PROTO_TCP, tos, ttl, identification, tcp, payload)


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
    udp = _new_udp(src_port, dst_port, 0)
    return _fresh(src_ip, dst_ip, src_mac, dst_mac, PROTO_UDP, tos, ttl, identification, udp, payload)


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
    icmp = _new_icmp(icmp_type, 0, 0, identifier, sequence, payload)
    return _fresh(src_ip, dst_ip, src_mac, dst_mac, PROTO_ICMP, tos, ttl, identification, icmp)


def _fresh(src_ip, dst_ip, src_mac, dst_mac, proto: int, tos: int, ttl: int, identification: int,
           transport: Transport, payload: bytes = b"") -> ParsedPacket:
    """A new packet over the just-made ``transport``, both checksums filled."""
    link = _new_ethernet(_coerce_mac(dst_mac), _coerce_mac(src_mac), ETHERTYPE_IPV4)
    # Flags 2: don't fragment, the common case.
    return _rebuild(link, tos, identification, 2, 0, ttl, proto, None, _coerce_ip(src_ip), _coerce_ip(dst_ip), b"",
                    transport, payload, b"", True)
