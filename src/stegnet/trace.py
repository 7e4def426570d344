"""Classic pcap trace reading and writing, and the offline gateway
passes over a capture's records.

Covers the original little-endian capture format only: magic
0xa1b2c3d4, version 2.4, microsecond timestamps.  Synthetic records are
always full captures (incl_len == orig_len), so write(read(x)) == x
holds bit for bit for anything this module produced.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Sequence, Tuple, Union

# The passes call parse_packet and serialize_packet through the module,
# so a wrapper put on either name later sees their calls.
from . import packet as pk
from .engine import CovertGateway, DesyncError
from .packet import TCP_SYN, RawPacket, _new_raw, build_icmp_echo, build_tcp, build_udp, serialize_packet

PCAP_MAGIC = 0xA1B2C3D4
PCAP_VERSION = (2, 4)
PCAP_SNAPLEN = 65535
LINKTYPE_ETHERNET = 1

_GLOBAL = struct.Struct("<IHHiIII")
_RECORD = struct.Struct("<IIII")


class TraceError(Exception):
    """Base for capture file problems."""


class BadMagic(TraceError):
    """File does not start with the classic little-endian pcap magic."""


class TruncatedRecord(TraceError):
    """A record header or body ends before its declared length."""


@dataclass
class TraceFile:
    records: List[RawPacket] = field(default_factory=list)
    link_type: int = LINKTYPE_ETHERNET


def read_trace(source: Union[str, Path, bytes]) -> TraceFile:
    """The capture at the path ``source``, or in the bytes ``source``."""
    data = Path(source).read_bytes() if isinstance(source, (str, Path)) else bytes(source)
    if len(data) < _GLOBAL.size:
        raise BadMagic("capture shorter than a pcap global header")
    magic, vmaj, vmin, _zone, _sigfigs, _snaplen, network = _GLOBAL.unpack_from(data, 0)
    if magic != PCAP_MAGIC:
        raise BadMagic("unsupported capture magic 0x%08x" % magic)
    if (vmaj, vmin) != PCAP_VERSION:
        raise TraceError("unsupported pcap version %d.%d" % (vmaj, vmin))
    trace = TraceFile(link_type=network)
    offset = _GLOBAL.size
    while offset < len(data):
        if offset + _RECORD.size > len(data):
            raise TruncatedRecord("record header truncated at offset %d" % offset)
        ts_sec, ts_usec, incl_len, orig_len = _RECORD.unpack_from(data, offset)
        offset += _RECORD.size
        if offset + incl_len > len(data):
            raise TruncatedRecord("record body truncated at offset %d" % offset)
        if incl_len != orig_len:
            raise TraceError("snaplen-truncated record (incl %d != orig %d)" % (incl_len, orig_len))
        trace.records.append(_new_raw(data[offset : offset + incl_len], ts_sec * 1_000_000 + ts_usec))
        offset += incl_len
    return trace


def write_trace(trace: TraceFile, sink: Union[str, Path, None] = None) -> bytes:
    """Serialize ``trace``; optionally write it to the path ``sink``."""
    out = bytearray(_GLOBAL.pack(PCAP_MAGIC, PCAP_VERSION[0], PCAP_VERSION[1], 0, 0, PCAP_SNAPLEN, trace.link_type))
    for record in trace.records:
        sec, usec = divmod(record.capture_time_us, 1_000_000)
        out += _RECORD.pack(sec, usec, len(record.data), len(record.data))
        out += record.data
    blob = bytes(out)
    if sink is not None:
        Path(sink).write_bytes(blob)
    return blob


def synthesize_mixed_trace(count: int, seed: int = 0) -> TraceFile:
    """Deterministic mixed traffic for demos and tooling tests, a record per millisecond from 0 us.

    Roughly two thirds TCP data packets, with UDP, ICMP echo requests
    and a few bare TCP SYNs mixed in.  All frames are well formed with
    valid checksums.
    """
    rng = random.Random(seed)
    trace = TraceFile()
    for i in range(count):
        kind = rng.random()
        src = "10.1.0.%d" % rng.randint(2, 60)
        dst = "10.2.0.%d" % rng.randint(2, 60)
        if kind < 0.55:
            p = build_tcp(src, dst, rng.randint(1024, 60000), rng.choice([80, 443, 8080]),
                          seq=rng.getrandbits(32), ack=rng.getrandbits(32),
                          payload=rng.randbytes(rng.randint(40, 600)),
                          identification=i & 0xFFFF)
        elif kind < 0.65:
            p = build_tcp(src, dst, rng.randint(1024, 60000), 80, flags=TCP_SYN,
                          seq=rng.getrandbits(32), identification=i & 0xFFFF)
        elif kind < 0.82:
            p = build_udp(src, dst, rng.randint(1024, 60000), 53,
                          payload=rng.randbytes(rng.randint(20, 300)),
                          identification=i & 0xFFFF)
        else:
            p = build_icmp_echo(src, dst, identifier=rng.getrandbits(16), sequence=i & 0xFFFF,
                                payload=rng.randbytes(56), identification=i & 0xFFFF)
        trace.records.append(RawPacket(data=serialize_packet(p), capture_time_us=1000 * i))
    return trace


@dataclass
class PassTally:
    """What a pass saw beyond the gateway's counters; ``matched``,
    ``desyncs`` and the recovered ``chunks``, in order, are extract's."""

    unparsed: int = 0
    matched: int = 0
    desyncs: int = 0
    chunks: List[bytes] = field(default_factory=list)


def _each_carrier(records: Sequence[RawPacket],
                  step: Callable[[pk.ParsedPacket, PassTally], pk.ParsedPacket]) -> Tuple[List[RawPacket], PassTally]:
    """One record out per record in; a frame that does not parse is
    copied unchanged and counted."""
    tally = PassTally()
    out: List[RawPacket] = []
    for record in records:
        try:
            carrier = pk.parse_packet(record.data)
        except pk.PacketError:
            tally.unparsed += 1
            out.append(record)
            continue
        out.append(_new_raw(pk.serialize_packet(step(carrier, tally)), record.capture_time_us))
    return out, tally


def fuse_records(gateway: CovertGateway, records: Sequence[RawPacket]) -> Tuple[List[RawPacket], PassTally]:
    """The records fused by ``gateway``, whose counters say what was
    fused and excluded.  Each carrier first passes ``adjust_flow``, as
    at a gateway, so a flow whose SYN was rewritten stays in step."""
    return _each_carrier(records, lambda carrier, tally: gateway.fuse(gateway.adjust_flow(carrier))[0])


def extract_records(gateway: CovertGateway, records: Sequence[RawPacket]) -> Tuple[List[RawPacket], PassTally]:
    """The records as ``gateway`` forwards them after extraction; a
    ``DesyncError``'s carrier is forwarded and the error counted."""

    def step(carrier: pk.ParsedPacket, tally: PassTally) -> pk.ParsedPacket:
        try:
            repaired, chunks, stats = gateway.extract(carrier)
        except DesyncError as exc:
            tally.desyncs += 1
            return exc.forwarded
        tally.matched += stats.matched
        tally.chunks.extend(chunks)
        return repaired

    return _each_carrier(records, step)
