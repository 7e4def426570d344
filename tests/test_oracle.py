"""Byte-identity oracle: fixed seeds, fixed output bytes.

Refactors that claim to change no behaviour must keep every digest here.
The scenario reports cover the simulator, the monitor and the handlers
end to end; the trace pair covers fuse, the exclusion marker, extract
and repair on a mixed capture.  A digest that moves on purpose is
re-recorded together with the reason in CHANGES.md.
"""

import hashlib
import random
from pathlib import Path

import pytest

import stegnet.packet as pk
import stegnet.trace as tr
from stegnet.calibration import CalibrationPlan, calibrate_handler
from stegnet.cli import main
from stegnet.engine import CovertGateway, EngineConfig
from stegnet.report import render_report
from stegnet.scenarios import (
    calibration_report,
    scenario_firewall_bypass,
    scenario_impersonation,
    scenario_nat_bypass,
    scenario_secret_internet,
    scenario_segmentation,
    scenario_stability,
    simulation_runner,
)

REPORT_DIGESTS = {
    "firewall_bypass": "6159f36e9b0906d77ca91eff57bcf9b5408032db5fd90bc8c4cc864669f80268",
    "nat_bypass": "0745e0a83f3c07c46fc8cb66d30bdab81daa83e132b3c32b06d516785127e0a2",
    "segmentation": "ff43b4eb1445be7813fe1ca534791540cdce4a9a110fd731c4e5369fe9b3af60",
    "impersonation": "2b02fc59b722fbd2044995da24666aa88a48ee8dff94aac45443bf619d7be605",
    "stability": "88468bdab1d1d91404515e32a03c3d218532ee0634829d70e26795bc13ced4bb",
    "secret_internet": "b2efc8ed015e36a9a978c465bbcadb63d033bf3beccb3f37f1163a00f7f32e77",
}
SCENARIOS = {
    "firewall_bypass": scenario_firewall_bypass,
    "nat_bypass": scenario_nat_bypass,
    "segmentation": scenario_segmentation,
    "impersonation": scenario_impersonation,
    "stability": scenario_stability,
    "secret_internet": scenario_secret_internet,
}
CALIBRATION_DIGEST = "475d80a24179ad08206ae991b517a5cc0f25af91551a716fa340b0177616bb86"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# ``simulate`` with the shipped workload and engine files, a 2000-octet
# payload and a 10 s horizon, keyed by topology and covert mode.
SIMULATE_DIGESTS = {
    ("firewall_bypass", True): "f582fd83c04320978bb58ed580d5ca3c90bd594ff6027e792b126671a03299a0",
    ("firewall_bypass", False): "09d31665a2fc5c94b680981eb5344d9875386a76576ba1a18d9fc1d5de35a3d5",
    ("impersonation", True): "a3d2b18a4dcc0c1f6a484a67c1bc4c5f9752b7ffc5aaaf9563acd0f527d866da",
    ("impersonation", False): "3f1f25df6f320cf3302a724584e0ccf992463fb18849936962a72bece0403c17",
    ("nat_bypass", True): "2c55dacf9415569f04788c789fa3f2048ee75cc00be10641dab44e4a8c2a6d69",
    ("nat_bypass", False): "098263a7b5a8a4bc5f1b1628ed4229172c34a8a9f92086e806b5ac8d8df80838",
    ("secret_internet", True): "bef1fbdc43b8c3366302789fad87c8e0ad6e3a5bd7a46bd50ec76e009662ccfc",
    ("secret_internet", False): "6c75bc2769a3d3df1f1a3697a91905b34b9ac5c7e2d8e02e04f1fcc009cb7212",
    ("segmentation", True): "7738b3cf1c295cf7b89deb944925047811e53527a1fa6758e04356600a3fba67",
    ("segmentation", False): "de137642ad6e7ec92b7274e7b548bad56262e98bf1cf8250b695b99977d0a3d8",
}
# The same on secret_internet with the cipher on, a 4000-octet payload
# and a 60 s horizon: the in-band key exchange, then encrypted items.
ENCRYPTED_SIMULATE_DIGEST = "04929592d83772caa25004396c471806c38cbf615c877220ee5e572db9d01341"

TRACE_RECORDS = 3000
TRACE_PAYLOAD = 40_000
FUSED_DIGEST = "f089ac3c091916a003028c3f297e8ebf94547507bdbe2d68a357462c71196ee0"
REPAIRED_DIGEST = "d88faba42cd58921418e9a128fac54b37939fac4c69f37e6fe3a3518ec412618"
# All five handlers with the ISN channel allowed and a quarter of the
# eligible carriers diverted to it: handler switches and the augment
# path both reach the wire.
SWITCHING_PAYLOAD = 20_000
SWITCHING_FUSED_DIGEST = "9474a2fc0c67236fd77a21860dec09e720a438f34f3464b22bc368d8c2bfc2db"
SWITCHING_REPAIRED_DIGEST = "8c28bd9e7297782fe08ce66de65027c9d1d93a3c170600ba909ea39f27538d51"
# One encrypted gateway pair trading carriers both ways: every fused
# frame, so the key exchange's sync headers are pinned as well as the
# encrypted items' octets.
ENCRYPTED_PAIR_ROUNDS = 400
ENCRYPTED_WIRE_DIGEST = "3dd7213d70125a98fe6da974c2f9ffb9dff1af40ad2628a6f32dcfdb1b0c58b5"
MAC_HIGH = b"\x02\x00\x00\x00\x00\x0a"
MAC_LOW = b"\x02\x00\x00\x00\x00\x01"


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_report_bytes(name):
    assert _sha(render_report(SCENARIOS[name](seed=0))) == REPORT_DIGESTS[name]


def test_calibration_report_bytes():
    plan = CalibrationPlan(sessions=1, bandwidth_levels=(8000, 20000), payload_octets=2000)
    result = calibrate_handler(simulation_runner(max_virtual_s=30), 2, plan=plan, seed=1)
    assert _sha(render_report(calibration_report(result))) == CALIBRATION_DIGEST


def _simulate_digest(out, topology, *flags):
    """SHA-256 of the ``simulate`` report for ``topology`` with the
    shipped workload and engine files and ``flags``."""
    assert main(["simulate", "--topology", str(CONFIGS / ("%s.topo" % topology)),
                 "--workload", str(CONFIGS / "workload.cfg"), "--config", str(CONFIGS / "engine.cfg"),
                 *flags, "--out", str(out)]) == 0
    return _sha(out.read_bytes())


@pytest.mark.parametrize("topology, covert", sorted(SIMULATE_DIGESTS))
def test_simulate_report_bytes(topology, covert, tmp_path, capsys):
    flags = ["--payload", "2000", "--duration", "10"] + ([] if covert else ["--no-covert"])
    assert _simulate_digest(tmp_path / "simulate.report", topology, *flags) == SIMULATE_DIGESTS[(topology, covert)]


def test_encrypted_simulate_report_bytes(tmp_path, capsys):
    flags = ["--encrypt", "--payload", "4000", "--duration", "60"]
    assert _simulate_digest(tmp_path / "simulate.report", "secret_internet", *flags) == ENCRYPTED_SIMULATE_DIGEST


def _fuse_and_repair(config_a, config_b, payload):
    """Fuse ``payload`` over the mixed capture and extract it again;
    asserts full delivery and returns the fused and repaired trace bytes."""
    tx = CovertGateway("a", "b", config=config_a)
    rx = CovertGateway("b", "a", config=config_b)
    tx.enqueue_payload(payload)

    fused, _ = tr.fuse_records(tx, tr.synthesize_mixed_trace(TRACE_RECORDS, seed=3).records)
    repaired, tally = tr.extract_records(rx, fused)
    assert tx.idle and b"".join(tally.chunks) == payload
    return (tr.write_trace(tr.TraceFile(records=fused)),
            tr.write_trace(tr.TraceFile(records=repaired)))


def test_fused_and_repaired_trace_bytes():
    fused, repaired = _fuse_and_repair(
        EngineConfig(enabled_handlers=(1, 2, 4), seed=7),
        EngineConfig(enabled_handlers=(1, 2, 4), seed=8),
        random.Random(11).randbytes(TRACE_PAYLOAD),
    )
    assert _sha(fused) == FUSED_DIGEST
    assert _sha(repaired) == REPAIRED_DIGEST


def test_switching_trace_bytes():
    switching = dict(enabled_handlers=(1, 2, 3, 4, 5), augmented_allowed=True, augment_probability=0.25)
    fused, repaired = _fuse_and_repair(
        EngineConfig(seed=7, **switching),
        EngineConfig(seed=8, **switching),
        random.Random(11).randbytes(SWITCHING_PAYLOAD),
    )
    assert _sha(fused) == SWITCHING_FUSED_DIGEST
    assert _sha(repaired) == SWITCHING_REPAIRED_DIGEST


def _pair_carrier(rng, i, src, dst, sport):
    """Every third carrier an echo request, the others TCP segments."""
    if i % 3 == 2:
        return pk.build_icmp_echo(src, dst, identifier=sport, sequence=i, payload=rng.randbytes(56))
    return pk.build_tcp(src, dst, sport, 80, seq=5000 + i, payload=rng.randbytes(rng.randint(0, 80)))


def test_encrypted_wire_bytes():
    a = CovertGateway("gw_a", "gw_b", EngineConfig(enabled_handlers=(1, 2), encryption=True, seed=101),
                      local_mac=MAC_HIGH)
    b = CovertGateway("gw_b", "gw_a", EngineConfig(enabled_handlers=(1, 2), encryption=True, seed=202),
                      local_mac=MAC_LOW)
    to_b, to_a = random.Random(13).randbytes(5000), random.Random(14).randbytes(3000)
    a.enqueue_payload(to_b)
    b.enqueue_payload(to_a)
    a.start_key_exchange()
    b.start_key_exchange()
    rng = random.Random(15)
    digest = hashlib.sha256()
    at_a, at_b = [], []
    for i in range(ENCRYPTED_PAIR_ROUNDS):
        frame = pk.serialize_packet(a.fuse(_pair_carrier(rng, i, "10.0.1.5", "10.0.2.9", 41000))[0])
        digest.update(frame)
        at_b += b.extract(pk.parse_packet(frame))[1]
        frame = pk.serialize_packet(b.fuse(_pair_carrier(rng, i, "10.0.2.9", "10.0.1.5", 42000))[0])
        digest.update(frame)
        at_a += a.extract(pk.parse_packet(frame))[1]
    assert a.idle and b.idle
    assert b"".join(at_b) == to_b and b"".join(at_a) == to_a
    assert digest.hexdigest() == ENCRYPTED_WIRE_DIGEST


# ---------------------------------------------------------------------------
# parse_packet's verdict on malformed frames.  Every truncation and every
# single-bit flip in the header octets of a seeded frame set is parsed;
# each outcome (error class and message, or the parsed fields and their
# serialization) goes into one digest, so a rewrite of the parser keeps
# which frames it rejects, why, and what it reads from the rest.

MALFORMED_DIGEST = "b344b2ccc31768e35b6dc51938e1c3db5de640b94ba28d17676737d0706ef0ec"


def _corpus_frames():
    """Three synthesized frames of each kind (TCP data, bare SYN, UDP,
    ICMP echo), plus one TCP frame carrying IPv4 and TCP options."""
    picked = {}
    for record in tr.synthesize_mixed_trace(80, seed=5).records:
        p = pk.parse_packet(record.data)
        kind = (p.ipv4.protocol, p.tcp is not None and bool(p.tcp.flags & pk.TCP_SYN))
        if len(picked.setdefault(kind, [])) < 3:
            picked[kind].append(record.data)
    frames = [frame for kind in sorted(picked) for frame in picked[kind]]
    base = pk.set_tcp_options(pk.build_tcp("10.0.0.1", "10.0.0.2", 1000, 80, payload=b"opt"), bytes((2, 4, 5, 0xB4)))
    ipv4 = pk.Ipv4(0, 9, 2, 0, 64, pk.PROTO_TCP, 0, base.ipv4.src_ip, base.ipv4.dst_ip, b"\x01\x01\x01\x00")
    frames.append(pk.serialize_packet(pk.fix_checksums(pk.ParsedPacket(base.link, ipv4, base.tcp, b"opt"))))
    return frames


def _header_len(frame: bytes) -> int:
    """Octets of Ethernet, IPv4 and transport headers at the front of
    a well formed ``frame``."""
    p = pk.parse_packet(frame)
    transport = {pk.PROTO_TCP: 20 + len(p.tcp.options) if p.tcp else 0, pk.PROTO_UDP: 8, pk.PROTO_ICMP: 8}
    return pk.ETHER_SIZE + pk.MIN_IPV4_HEADER + len(p.ipv4.options) + transport[p.ipv4.protocol]


def _malformed(frame: bytes):
    yield from (frame[:n] for n in range(len(frame)))
    for pos in range(_header_len(frame)):
        for bit in range(8):
            flipped = bytearray(frame)
            flipped[pos] ^= 1 << bit
            yield bytes(flipped)


def test_parse_verdicts_on_malformed_frames():
    digest = hashlib.sha256()
    frames = _corpus_frames()
    assert len(frames) == 13
    for frame in frames:
        for data in _malformed(frame):
            try:
                p = pk.parse_packet(data)
            except pk.PacketError as exc:
                digest.update(b"E %s %s\n" % (type(exc).__name__.encode(), str(exc).encode()))
            else:
                digest.update(b"P %s %s\n" % (repr(p).encode(), pk.serialize_packet(p).hex().encode()))
    assert digest.hexdigest() == MALFORMED_DIGEST
