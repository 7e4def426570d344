"""Properties of the IPv4 header checksum of rebuilt packets.

``fix_ipv4_checksum`` and ``with_ipv4`` rebuild through
``packet._rebuild``, which packs the header with ``_IPV4``, its checksum
field zero, and sums that packing; the reference they must match sums
the header as ``serialize_packet`` lays it out,
``ipv4_checksum(_ipv4_header_bytes(p, checksum=0))``.  The rewrites on
the carrier path recompute the checksum in full: a carrier that arrives
with a wrong checksum leaves with a right one.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stegnet.packet as pk
from stegnet import wire
from stegnet.handlers import make_ipv4_checksum_handler

LINK = pk.Ethernet(b"\x02" * 6, b"\x04" * 6, pk.ETHERTYPE_IPV4)

u8 = st.integers(0, 0xFF)
u16 = st.integers(0, 0xFFFF)
u32 = st.integers(0, 0xFFFFFFFF)
ip_options = st.integers(0, pk.MAX_IP_OPTIONS // 4).flatmap(lambda n: st.binary(min_size=4 * n, max_size=4 * n))
payloads = st.sampled_from((0, 1, 2, 3, 8, 57, 1000, 1480)).flatmap(lambda n: st.binary(min_size=n, max_size=n))


@st.composite
def ipv4_headers(draw, options=ip_options):
    return pk.Ipv4(
        tos=draw(u8),
        identification=draw(u16),
        flags=draw(st.integers(0, 7)),
        frag_offset=draw(st.integers(0, 0x1FFF)),
        ttl=draw(u8),
        protocol=draw(u8),
        header_checksum=draw(u16),
        src_ip=draw(u32),
        dst_ip=draw(u32),
        options=draw(options),
    )


@st.composite
def packets(draw, options=ip_options):
    """IPv4 packets with random header fields, over no transport, TCP,
    UDP or ICMP, with payloads of several lengths."""
    ip = draw(ipv4_headers(options))
    payload = draw(payloads)
    kind = draw(st.sampled_from(("raw", "tcp", "udp", "icmp")))
    if kind == "tcp":
        tcp = pk.Tcp(draw(u16), draw(u16), draw(u32), draw(u32), draw(u8), draw(u16), draw(u16), draw(u16),
                     options=b"\x01" * 4 * draw(st.integers(0, 10)))
        return pk.ParsedPacket(LINK, ip, tcp, payload)
    if kind == "udp":
        return pk.ParsedPacket(LINK, ip, pk.Udp(draw(u16), draw(u16), draw(u16)), payload)
    if kind == "icmp":
        return pk.ParsedPacket(LINK, ip, pk.Icmp(draw(u8), draw(u8), draw(u16), draw(u16), draw(u16), payload))
    return pk.ParsedPacket(LINK, ip, None, payload)


def _packed_reference(p: pk.ParsedPacket) -> int:
    return pk.ipv4_checksum(pk._ipv4_header_bytes(p, checksum=0))


@settings(max_examples=300, deadline=None)
@given(packets())
def test_field_sum_matches_packed_header(p):
    fixed = pk.fix_ipv4_checksum(p)
    assert fixed.ipv4.header_checksum == _packed_reference(p)
    assert pk.validate_ipv4_checksum(fixed)
    assert pk.serialize_packet(fixed)[pk.ETHER_SIZE + 20:] == pk.serialize_packet(p)[pk.ETHER_SIZE + 20:]


@settings(max_examples=200, deadline=None)
@given(packets(), u8, u16)
def test_with_ipv4_matches_packed_header(p, tos, identification):
    rebuilt = pk.with_ipv4(p, tos, identification)
    assert (rebuilt.ipv4.tos, rebuilt.ipv4.identification) == (tos, identification)
    assert rebuilt.ipv4.header_checksum == _packed_reference(rebuilt)
    stored = pk.with_ipv4(p, tos, identification, 0x1234)
    assert stored.ipv4.header_checksum == 0x1234
    assert stored.ipv4.options == p.ipv4.options and stored.transport == p.transport


@settings(max_examples=300, deadline=None)
@given(packets(), st.sampled_from(("random", "fixed", "other zero")))
def test_validate_agrees_with_the_packed_header(p, stored):
    """``validate_ipv4_checksum`` sums the fields with the stored word;
    the reference sums the packed header.  Where the computed checksum
    is 0x0000, a stored 0xFFFF (the other one's-complement zero) is
    valid under both."""
    if stored != "random":
        p = pk.fix_ipv4_checksum(p)
        if stored == "other zero":
            value = p.ipv4.header_checksum
            if value in (0x0000, 0xFFFF):
                value ^= 0xFFFF
            p = pk.with_ipv4(p, p.ipv4.tos, p.ipv4.identification, value)
    assert pk.validate_ipv4_checksum(p) == (pk.checksum16(pk._ipv4_header_bytes(p)) == 0)


def test_validate_accepts_both_zeros():
    # 0x4500 (version, IHL) + 20 (total length) + 0xBAEB = 0xFFFF: the
    # computed checksum is 0x0000, and a stored 0xFFFF completes the sum too.
    p = pk.ParsedPacket(LINK, pk.Ipv4(0, 0xBAEB, 0, 0, 0, 0, 0, 0, 0), None, b"")
    assert pk.fix_ipv4_checksum(p).ipv4.header_checksum == 0x0000
    for stored in (0x0000, 0xFFFF):
        q = pk.with_ipv4(p, 0, 0xBAEB, stored)
        assert pk.validate_ipv4_checksum(q)
        assert pk.checksum16(pk._ipv4_header_bytes(q)) == 0
    assert not pk.validate_ipv4_checksum(pk.with_ipv4(p, 0, 0xBAEB, 0x0001))


bad_options = st.one_of(
    st.integers(1, pk.MAX_IP_OPTIONS).filter(lambda n: n % 4).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
    st.just(b"\x01" * 44),
)


@settings(max_examples=100, deadline=None)
@given(packets(options=bad_options))
def test_bad_options_raise_overflow(p):
    with pytest.raises(pk.OptionsOverflow):
        pk.fix_ipv4_checksum(p)
    with pytest.raises(pk.OptionsOverflow):
        pk.with_ipv4(p, 0, 0)


def test_total_length_over_65535_raises_truncated():
    ip = pk.Ipv4(0, 0, 2, 0, 64, 99, 0, 1, 2, options=b"\x01" * 8)
    fits = pk.ParsedPacket(LINK, ip, None, b"\x00" * (pk.MAX_IPV4_TOTAL - 28))
    assert pk.fix_ipv4_checksum(fits).ipv4.header_checksum == _packed_reference(fits)
    over = pk.ParsedPacket(LINK, ip, None, b"\x00" * (pk.MAX_IPV4_TOTAL - 27))
    with pytest.raises(pk.Truncated):
        pk.fix_ipv4_checksum(over)
    with pytest.raises(pk.Truncated):
        wire.mark_excluded(over)


@st.composite
def carriers(draw):
    """Well formed TCP/UDP/ICMP carriers, parsed back from their bytes."""
    src, dst, tos, ident = draw(u32), draw(u32), draw(st.integers(0, 0xE6)), draw(u16)
    payload = draw(payloads)
    kind = draw(st.sampled_from(("tcp", "udp", "icmp")))
    if kind == "tcp":
        p = pk.build_tcp(src, dst, draw(u16), draw(u16), seq=draw(u32), payload=payload, tos=tos,
                         identification=ident)
    elif kind == "udp":
        p = pk.build_udp(src, dst, draw(u16), draw(u16), payload=payload, tos=tos, identification=ident)
    else:
        p = pk.build_icmp_echo(src, dst, payload=payload, tos=tos, identification=ident)
    return pk.parse_packet(pk.serialize_packet(p))


@settings(max_examples=150, deadline=None)
@given(carriers(), u16)
def test_exclusion_marker_recomputes_a_wrong_checksum(p, wrong):
    good = p.ipv4.header_checksum
    # Where the checksum is 0x0000, 0xFFFF (the other zero) is right too.
    if wrong in (good, good or 0xFFFF):
        wrong ^= 1
    damaged = pk.with_ipv4(p, p.ipv4.tos, p.ipv4.identification, wrong)
    assert not pk.validate_ipv4_checksum(damaged)
    marked = wire.mark_excluded(damaged)
    assert wire.is_excluded(marked) and pk.validate_ipv4_checksum(marked)
    cleared = wire.clear_exclusion(damaged)
    assert cleared.ipv4.tos == 0 and pk.validate_ipv4_checksum(cleared)
    assert pk.validate_ipv4_checksum(wire.clear_exclusion(marked))


@settings(max_examples=150, deadline=None)
@given(carriers(), st.binary(min_size=1, max_size=2))
def test_ipv4_checksum_handler_recover_restores_bytes(p, segment):
    spec = make_ipv4_checksum_handler()
    if not spec.match(p):
        return
    written = spec.writer(p, segment)
    assert spec.reader(written)[:len(segment)] == segment
    assert pk.serialize_packet(spec.recover(written)) == pk.serialize_packet(p)
