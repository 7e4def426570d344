import itertools
import random
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stegnet.packet as pk
import stegnet.trace as tr
from stegnet import wire
from stegnet.engine import CovertGateway, EngineConfig


def test_write_read_bit_identical(tmp_path):
    trace = tr.synthesize_mixed_trace(120, seed=5)
    path = tmp_path / "mix.pcap"
    first = tr.write_trace(trace, path)
    back = tr.read_trace(path)
    assert back.link_type == trace.link_type
    assert back.records == trace.records
    assert tr.write_trace(back) == first
    # Any link type round-trips; only the CLI insists on Ethernet.
    raw_ipv4 = tr.TraceFile(records=trace.records, link_type=101)
    assert tr.read_trace(tr.write_trace(raw_ipv4)) == raw_ipv4


def test_global_header_layout():
    data = tr.write_trace(tr.TraceFile(records=[]))
    magic, major, minor, zone, sigfigs, snaplen, link = struct.unpack("<IHHiIII", data[:24])
    assert magic == 0xA1B2C3D4
    assert (major, minor) == (2, 4)
    assert zone == 0 and sigfigs == 0
    assert snaplen == 65535
    assert link == 1


def test_record_header_layout():
    p = pk.RawPacket(b"\xAB" * 60, capture_time_us=3_500_042)
    data = tr.write_trace(tr.TraceFile(records=[p]))
    sec, usec, incl, orig = struct.unpack("<IIII", data[24:40])
    assert (sec, usec) == (3, 500_042)
    assert incl == orig == 60
    assert data[40:100] == p.data


def test_bad_magic():
    with pytest.raises(tr.BadMagic):
        tr.read_trace(b"\xDE\xAD\xBE\xEF" + b"\x00" * 20)


def test_truncated_record():
    trace = tr.synthesize_mixed_trace(3, seed=1)
    data = tr.write_trace(trace)
    with pytest.raises(tr.TruncatedRecord):
        tr.read_trace(data[:-5])
    with pytest.raises(tr.TruncatedRecord):
        tr.read_trace(data[: 24 + 10])


def test_synthesized_records_parse_and_validate():
    rng = random.Random(0)
    for seed in (rng.randrange(1000) for _ in range(5)):
        trace = tr.synthesize_mixed_trace(80, seed=seed)
        assert len(trace.records) == 80
        last = -1
        for record in trace.records:
            assert record.capture_time_us > last
            last = record.capture_time_us
            p = pk.parse_packet(record.data)
            assert pk.validate_ipv4_checksum(p)
            assert pk.validate_transport_checksum(p)


def test_synthesis_deterministic():
    a = tr.write_trace(tr.synthesize_mixed_trace(50, seed=9))
    b = tr.write_trace(tr.synthesize_mixed_trace(50, seed=9))
    c = tr.write_trace(tr.synthesize_mixed_trace(50, seed=10))
    assert a == b
    assert a != c


def _fault(records, kind, i, bit):
    """``records`` with record ``i`` dropped, swapped with its neighbour,
    or with bit ``bit`` (modulo the frame) flipped after the Ethernet
    header."""
    records = list(records)
    if kind == "drop":
        del records[i]
    elif kind == "swap":
        i = min(i, len(records) - 2)
        records[i], records[i + 1] = records[i + 1], records[i]
    else:
        data = bytearray(records[i].data)
        pos = pk.ETHER_SIZE * 8 + bit % ((len(data) - pk.ETHER_SIZE) * 8)
        data[pos // 8] ^= 0x80 >> (pos % 8)
        records[i] = pk.RawPacket(bytes(data), records[i].capture_time_us)
    return records


def _with_ns_bit(frame: bytes) -> bytes:
    """A TCP frame without IPv4 options with RFC 3540's NS bit (AccECN's
    AE), bit 0x01 of octet 46, set and its TCP checksum summed again
    over the raw segment."""
    f = bytearray(frame)
    f[46] |= 0x01
    f[50:52] = bytes(2)
    segment = bytes(f[34 : pk.ETHER_SIZE + int.from_bytes(f[16:18], "big")])
    pseudo = struct.pack("!4s4sxBH", f[26:30], f[30:34], pk.PROTO_TCP, len(segment))
    f[50:52] = pk.checksum16(pseudo + segment).to_bytes(2, "big")
    return bytes(f)


# Every non-empty set of the stock handlers, and each set that holds
# the ISN channel once more with a quarter of its carriers diverted to it.
_HANDLER_SETS = [handlers for size in range(1, 6) for handlers in itertools.combinations(range(1, 6), size)]
_IDLE_CONFIGS = [(handlers, {}) for handlers in _HANDLER_SETS] + [
    (handlers, {"augmented_allowed": True, "augment_probability": 0.25}) for handlers in _HANDLER_SETS if 5 in handlers]


def _config_id(config):
    handlers, options = config
    name = ("handler_" if len(handlers) == 1 else "handlers_") + "_".join(map(str, handlers))
    return name + ("_augmented" if options else "")


@pytest.mark.parametrize("handlers, options", _IDLE_CONFIGS, ids=map(_config_id, _IDLE_CONFIGS))
def test_tcp_reserved_bits_leave_an_idle_pair_as_they_came(handlers, options):
    # The codec used to drop the reserved nibble, so each such segment
    # left with the bit cleared and a checksum that no longer verified.
    records = [pk.RawPacket(_with_ns_bit(r.data) if r.data[23] == pk.PROTO_TCP else r.data, r.capture_time_us)
               for r in tr.synthesize_mixed_trace(2000, seed=11).records]
    assert sum(r.data[46] & 0x01 for r in records if r.data[23] == pk.PROTO_TCP) == 1338
    assert all(pk.validate_checksums(pk.parse_packet(r.data)) for r in records)
    config = EngineConfig(enabled_handlers=handlers, **options)
    fused, _ = tr.fuse_records(CovertGateway("a", "b", config=config), records)
    repaired, tally = tr.extract_records(CovertGateway("b", "a", config=config), fused)
    assert [r.data for r in repaired] == [r.data for r in records]
    assert tally.desyncs == 0


def test_fuse_pass_carries_a_rewritten_isn_through_its_flow():
    """The fuse pass shifts the segments after a SYN whose initial
    sequence number it rewrote, as a gateway in the simulator does."""
    syn = pk.build_tcp("10.1.0.2", "10.2.0.3", 40000, 80, seq=0x10000000, flags=pk.TCP_SYN)
    segments = [pk.build_tcp("10.1.0.2", "10.2.0.3", 40000, 80, seq=0x10000001 + 100 * i, payload=bytes(100))
                for i in range(3)]
    records = [pk.RawPacket(pk.serialize_packet(p), 1000 * i) for i, p in enumerate([syn] + segments)]
    gateway = CovertGateway("a", "b", config=EngineConfig(enabled_handlers=(2, 5), augmented_allowed=True,
                                                          augment_probability=1.0, seed=1))
    gateway.enqueue_secret(b"hello")
    fused, _ = tr.fuse_records(gateway, records)
    out = [pk.parse_packet(r.data) for r in fused]
    isn = out[0].tcp.seq
    assert isn != 0x10000000 and gateway.flow_deltas == {pk.flow_key(syn): (isn - 0x10000000) & 0xFFFFFFFF}
    assert [p.tcp.seq for p in out[1:]] == [(isn + 1 + 100 * i) & 0xFFFFFFFF for i in range(3)]
    assert all(pk.validate_checksums(p) for p in out)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(("drop", "swap", "flip")),
       position=st.integers(0, 2**16), bit=st.integers(0, 2**16))
def test_extract_pass_survives_a_fault_between_the_passes(seed, kind, position, bit):
    """Outside the in-order, lossless contract the extract pass still
    returns a record for every record: after one dropped, swapped or
    flipped data carrier, extract may desync or deliver wrong content
    but raises nothing else.  Wrong deliveries are reported in ROADMAP
    item A, not bounded here."""
    capture = tr.synthesize_mixed_trace(400, seed=seed).records
    config = EngineConfig(enabled_handlers=(1, 2, 4), seed=seed)
    tx, rx = CovertGateway("a", "b", config=config), CovertGateway("b", "a", config=config)
    tx.enqueue_payload(random.Random(seed).randbytes(4000))
    fused, _ = tr.fuse_records(tx, capture)
    assert tx.idle
    carrying = [i for i, (before, after) in enumerate(zip(capture, fused))
                if before != after and not wire.is_excluded(pk.parse_packet(after.data))]
    faulted = _fault(fused, kind, carrying[position % len(carrying)], bit)
    repaired, _ = tr.extract_records(rx, faulted)
    assert len(repaired) == len(faulted)


def test_passes_call_no_raw_packet_init():
    """Reading a capture and both gateway passes make their records with
    packet.py's positional constructor, not the frozen dataclass's
    generated ``__init__``."""
    blob = tr.write_trace(tr.synthesize_mixed_trace(400, seed=5))
    config = EngineConfig(enabled_handlers=(1, 2, 4), seed=5)
    tx, rx = CovertGateway("a", "b", config=config), CovertGateway("b", "a", config=config)
    payload = random.Random(5).randbytes(4000)
    tx.enqueue_payload(payload)
    init, calls = pk.RawPacket.__init__.__code__, [0]

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is init:
            calls[0] += 1

    sys.setprofile(hook)
    try:
        records = tr.read_trace(blob).records
        fused, _ = tr.fuse_records(tx, records)
        repaired, tally = tr.extract_records(rx, fused)
    finally:
        sys.setprofile(None)
    assert len(repaired) == 400 and b"".join(tally.chunks) == payload
    assert calls[0] == 0
