"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS line with the
measured numbers on success, and fails as a normal pytest assertion
otherwise.  Run with ``pytest -v -s tests/test_acceptance.py`` to see
the lines as they go by.
"""

import contextlib
import io
import os
import random
import time
from dataclasses import replace

import pytest

from stegnet import calibration as cal
from stegnet import crypto
from stegnet import packet as pk
from stegnet import scenarios as sc
from stegnet import trace as tr
from stegnet import wire
from stegnet.cli import main as cli_main
from stegnet.cli import _seeded_payload
from stegnet.engine import CovertGateway, EngineConfig
from stegnet.handlers import (
    ICMP_PAYLOAD_ID,
    TCP_OPTIONS_ID,
    TCP_ISN_ID,
    build_registry,
    make_icmp_payload_handler,
)
from stegnet.simnet import MICROS, Simulation, WorkloadSpec
from stegnet.scenarios import line_topology

MAC_HIGH = b"\x02\x00\x00\x00\x00\x0a"
MAC_LOW = b"\x02\x00\x00\x00\x00\x01"


def _report(num, detail):
    print("criterion %d: PASS - %s" % (num, detail))


def _tcp(i=0, *, src="10.0.1.5", dst="10.0.2.9", sport=40000, dport=80, payload=b"x" * 64):
    return pk.build_tcp(src, dst, sport, dport, seq=5000 + i, payload=payload)


def _icmp(i=0, *, size=56):
    return pk.build_icmp_echo("10.0.1.5", "10.0.2.9", identifier=9, sequence=i,
                              payload=bytes([0x20 + i % 64]) * size)


# ---------------------------------------------------------------------------
# Criteria 1 and 2: fixed five-carrier walkthroughs


def test_criterion_01_five_carrier_replay():
    started = time.time()
    secret = random.Random(31).randbytes(213)
    cfg = EngineConfig(enabled_handlers=(TCP_OPTIONS_ID, ICMP_PAYLOAD_ID))
    tx = CovertGateway("gw_a", "gw_b", replace(cfg), local_mac=MAC_HIGH)
    rx = CovertGateway("gw_b", "gw_a", replace(cfg), local_mac=MAC_LOW)
    tx.enqueue_secret(secret)

    carriers = [_tcp(0), _tcp(1), _icmp(2), _tcp(3), _tcp(4)]
    per_carrier, got = [], []
    for c in carriers:
        fused, fs = tx.fuse(c)
        _, out, _ = rx.extract(fused)
        per_carrier.append(fs.data_octets)
        got.extend(out)

    elapsed = time.time() - started
    assert per_carrier == [37, 40, 56, 40, 40]
    assert sum(per_carrier) == 213
    assert got == [secret]
    assert elapsed < 1.0, "took %.3fs" % elapsed
    _report(1, "per-carrier data %r, total %d octets, %.3fs"
            % (per_carrier, sum(per_carrier), elapsed))


def test_criterion_02_five_carrier_replay_with_handler_ambiguity():
    started = time.time()
    secret = random.Random(32).randbytes(207)

    def _registry():
        reg = build_registry(enabled=(TCP_OPTIONS_ID, ICMP_PAYLOAD_ID))
        reg.register(make_icmp_payload_handler(handler_id=6, cost=0.12,
                                               name="icmp_payload_alt"))
        return reg

    cfg = EngineConfig(enabled_handlers=(TCP_OPTIONS_ID, ICMP_PAYLOAD_ID))
    tx = CovertGateway("gw_a", "gw_b", replace(cfg), registry=_registry(), local_mac=MAC_HIGH)
    rx = CovertGateway("gw_b", "gw_a", replace(cfg), registry=_registry(), local_mac=MAC_LOW)
    tx.enqueue_secret(secret)

    carriers = [_tcp(0), _tcp(1), _icmp(2), _tcp(3), _tcp(4)]
    sync_per, data_per, got = [], [], []
    for c in carriers:
        fused, fs = tx.fuse(c)
        _, out, _ = rx.extract(fused)
        sync_per.append(fs.sync_octets)
        data_per.append(fs.data_octets)
        got.extend(out)

    elapsed = time.time() - started
    assert data_per == [37, 40, 53, 37, 40]
    assert sum(data_per) == 207
    sync_carriers = [i + 1 for i, s in enumerate(sync_per) if s]
    assert sync_carriers == [1, 3, 4]
    assert got == [secret]
    assert elapsed < 1.0, "took %.3fs" % elapsed
    _report(2, "per-carrier data %r, sync on carriers %r, %.3fs"
            % (data_per, sync_carriers, elapsed))


# ---------------------------------------------------------------------------
# Criteria 3 and 4: randomized sessions, byte identity, carrier hygiene


def _session_carrier(rng, i, reverse=False):
    src, dst = ("10.0.2.9", "10.0.1.5") if reverse else ("10.0.1.5", "10.0.2.9")
    kind = rng.random()
    if kind < 0.52:
        return pk.build_tcp(src, dst, 40000 + i % 7, 80, seq=0x2000 + i * 97,
                            payload=rng.randbytes(rng.randint(16, 120)))
    if kind < 0.58:
        return pk.build_tcp(src, dst, 46000 + i % 5, 443, seq=0x4000 + i * 131,
                            flags=pk.TCP_SYN)
    if kind < 0.90:
        return pk.build_icmp_echo(src, dst, identifier=7, sequence=i,
                                  payload=rng.randbytes(rng.randint(40, 120)))
    return pk.build_udp(src, dst, 50000 + i % 9, 5353,
                        payload=rng.randbytes(rng.randint(8, 64)))


def _ke_carrier(enabled, i, reverse=False):
    src, dst = ("10.0.2.9", "10.0.1.5") if reverse else ("10.0.1.5", "10.0.2.9")
    if TCP_OPTIONS_ID in enabled:
        return pk.build_tcp(src, dst, 41000, 80, seq=0x9000 + i, payload=b"k" * 32)
    return pk.build_icmp_echo(src, dst, identifier=3, sequence=i, payload=b"\x30" * 56)


# Registries are immutable once built and the per-handler self test is
# the expensive part, so the randomized suite shares one per enabled set.
_REGISTRIES = {}


def _registry_for(enabled):
    reg = _REGISTRIES.get(enabled)
    if reg is None:
        reg = _REGISTRIES[enabled] = build_registry(enabled=enabled)
    return reg


def _run_session(idx, rng, check=None):
    """One independent covert session with randomized config and traffic.

    ``check(original, repaired, enabled)`` is called for every carrier
    after extraction-side recovery when given.  Returns the number of
    secrets moved.
    """
    encrypted = idx % 5 == 0
    base = rng.choice([(TCP_OPTIONS_ID,), (ICMP_PAYLOAD_ID,),
                       (TCP_OPTIONS_ID, ICMP_PAYLOAD_ID)])
    extra = [h for h in (3, 4, 5) if rng.random() < 0.4]
    enabled = tuple(sorted(set(base) | set(extra)))
    cfg = EngineConfig(enabled_handlers=enabled, encryption=encrypted,
                       augmented_allowed=TCP_ISN_ID in enabled,
                       augment_probability=0.25 if TCP_ISN_ID in enabled else 0.0,
                       seed=101)
    registry = _registry_for(enabled)
    a = CovertGateway("gw_a", "gw_b", cfg, registry=registry, local_mac=MAC_HIGH)
    b = CovertGateway("gw_b", "gw_a", replace(cfg, seed=202), registry=registry,
                      local_mac=MAC_LOW)

    if encrypted:
        a.start_key_exchange()
        b.start_key_exchange()
        rounds = 0
        while not (a.session_established and b.session_established and a.idle and b.idle):
            rounds += 1
            assert rounds < 80, "key exchange stalled, enabled=%r" % (enabled,)
            fa, _ = a.fuse(_ke_carrier(enabled, rounds))
            b.extract(fa)
            fb, _ = b.fuse(_ke_carrier(enabled, rounds, reverse=True))
            a.extract(fb)

    count = 2 if rng.random() < 0.1 else 1
    secrets = [rng.randbytes(rng.randint(1, 1500)) for _ in range(count)]
    for s in secrets:
        a.enqueue_secret(s)

    got, i = [], 0
    while len(got) < len(secrets):
        i += 1
        assert i < 6000, "no forward progress, enabled=%r" % (enabled,)
        c = a.adjust_flow(_session_carrier(rng, i))
        fused, _ = a.fuse(c)
        repaired, out, _ = b.extract(fused)
        b.adjust_flow(repaired)
        if check is not None:
            check(c, repaired, enabled)
        got.extend(out)

    assert got == secrets, ("delivery mismatch in session %d, enabled=%r "
                            "encrypted=%s" % (idx, enabled, encrypted))
    return len(secrets)


@pytest.fixture(scope="module")
def randomized_suite():
    """The shared 1000-session run behind criteria 3 and 4."""
    violations, checked = [], [0]

    def check(original, repaired, enabled):
        checked[0] += 1
        if not pk.validate_checksums(repaired):
            violations.append("checksum failure, enabled=%r" % (enabled,))
        elif not _masked_equal(original, repaired, enabled):
            violations.append("bytes changed outside declared regions, "
                              "enabled=%r" % (enabled,))

    started = time.time()
    rng = random.Random(2026)
    sessions, moved = 1000, 0
    for idx in range(sessions):
        moved += _run_session(idx, rng, check=check)
    return {
        "sessions": sessions,
        "moved": moved,
        "elapsed": time.time() - started,
        "carriers": checked[0],
        "violations": violations,
    }


def test_criterion_03_thousand_randomized_sessions(randomized_suite):
    r = randomized_suite
    assert r["sessions"] == 1000
    assert r["elapsed"] < 30.0, "took %.1fs" % r["elapsed"]
    _report(3, "%d sessions, %d secrets byte-identical, %.1fs"
            % (r["sessions"], r["moved"], r["elapsed"]))


def _masked_equal(original, fused, enabled):
    """True when ``fused`` differs from ``original`` only in declared
    carrier regions, the exclusion marker, and recomputed checksums."""
    ip_fields = {"tos": fused.ipv4.tos, "header_checksum": fused.ipv4.header_checksum}
    if 3 in enabled:
        ip_fields["identification"] = fused.ipv4.identification
    p = replace(original, ipv4=replace(original.ipv4, **ip_fields))
    if original.tcp is not None and fused.tcp is not None:
        t_fields = {"checksum": fused.tcp.checksum}
        if TCP_OPTIONS_ID in enabled:
            t_fields["options"] = fused.tcp.options
        if TCP_ISN_ID in enabled:
            t_fields["seq"] = fused.tcp.seq
        p = replace(p, transport=replace(original.tcp, **t_fields))
    elif original.udp is not None and fused.udp is not None:
        p = replace(p, transport=replace(original.udp, checksum=fused.udp.checksum))
    elif original.icmp is not None and fused.icmp is not None:
        i_fields = {"checksum": fused.icmp.checksum}
        if ICMP_PAYLOAD_ID in enabled:
            i_fields["payload"] = fused.icmp.payload
        p = replace(p, transport=replace(original.icmp, **i_fields))
    return pk.serialize_packet(p) == pk.serialize_packet(fused)


def test_criterion_04_forwarded_carriers_stay_wellformed(randomized_suite):
    r = randomized_suite
    assert r["carriers"] > 10_000
    assert not r["violations"], r["violations"][:5]
    _report(4, "%d forwarded carriers checksum-clean and region-confined "
               "after recovery" % r["carriers"])


# ---------------------------------------------------------------------------
# Criterion 5: middlebox traversal


def test_criterion_05_firewall_and_nat_traversal():
    fw = sc.scenario_firewall_bypass(seed=3, payload_octets=102_400, budget=60_000,
                                     visible_users=2, max_virtual_s=240)
    assert fw.fields["covert_delivered_octets"] >= 102_400
    assert fw.fields["payload_intact"] is True
    assert fw.fields["secret_ip_rule_hits"] == 0
    assert fw.fields["monitor_secret_address_sightings"] == 0
    assert fw.fields["direct_delivered_octets"] == 0
    assert fw.fields["direct_blocked_packets"] > 0

    nat = sc.scenario_nat_bypass(seed=3)
    assert nat.fields["direct_handshake_established"] is False
    assert nat.fields["direct_syn_nat_drops"] >= 1
    assert nat.fields["covert_handshake_established"] is True
    assert nat.fields["covert_handshake_nat_drops"] == 0
    _report(5, "firewall: %d octets with 0 rule hits; nat: covert handshake "
               "established, direct SYN dropped"
            % fw.fields["covert_delivered_octets"])


# ---------------------------------------------------------------------------
# Criterion 6: cost model


def test_criterion_06_cost_model():
    n = 4
    uniform = [(10.0, 20.0)] * n
    assert cal.cost_constant([10.0] * n, 10.0, 20.0) == 0.0
    assert abs(cal.cost_constant([20.0] * n, 10.0, 20.0) - 1.0) < 1e-12
    fixture = [12.0, 14.0, 16.0, 18.0]
    assert cal.cost_constant(fixture, 10.0, 20.0) == 0.5
    assert cal.cost_variable(fixture, uniform) == cal.cost_constant(fixture, 10.0, 20.0)

    rng = random.Random(9)
    for _ in range(20):
        k = rng.randint(1, 8)
        lo = rng.uniform(1.0, 50.0)
        hi = lo + rng.uniform(1.0, 50.0)
        ts = [rng.uniform(lo, hi) for _ in range(k)]
        assert cal.cost_variable(ts, [(lo, hi)] * k) == cal.cost_constant(ts, lo, hi)

    plan = cal.CalibrationPlan(sessions=1, bandwidth_levels=(12_000, 20_000), payload_octets=1200)
    runner = sc.simulation_runner(max_virtual_s=60)
    first = cal.calibrate_handler(runner, ICMP_PAYLOAD_ID, plan=plan, seed=4)
    second = cal.calibrate_handler(runner, ICMP_PAYLOAD_ID, plan=plan, seed=4)
    assert first == second, "calibration must be deterministic"
    assert 0.0 <= first.cost < 1.0
    _report(6, "fixture cost 0.5 exact, variable==constant bit-exact, "
               "simulated calibration %.4f deterministic" % first.cost)


# ---------------------------------------------------------------------------
# Criterion 7: goodput scaling and exact capacity accounting


def test_criterion_07_goodput_scaling_and_accounting():
    goodputs = []
    for vu in (1, 2, 4, 6, 8, 10):
        sim = Simulation(line_topology(visible_users=vu),
                         workload=WorkloadSpec(budget=12_000),
                         engine_config=EngineConfig(enabled_handlers=(1, 2), seed=0),
                         seed=0)
        transfer = sim.add_bulk_transfer("secret_a", "secret_b", 4000, packet_size=400)
        sim.run_until(lambda: transfer.delivered_octets >= 4000, 120 * MICROS)
        assert transfer.delivered_octets == 4000
        goodputs.append(transfer.delivered_octets * MICROS / transfer.finished_us)
    for earlier, later in zip(goodputs, goodputs[1:]):
        assert later >= earlier, "goodput fell when users were added: %r" % (goodputs,)

    sim = Simulation(line_topology(visible_users=4),
                     workload=WorkloadSpec(budget=12_000),
                     engine_config=EngineConfig(enabled_handlers=(1, 2), seed=0),
                     seed=0)
    transfer = sim.add_bulk_transfer("secret_a", "secret_b", 4000, packet_size=400)
    gw = sim.gateways["gw_a"]
    recorded = []
    inner_fuse = gw.fuse

    def recording_fuse(carrier):
        fused, fs = inner_fuse(carrier)
        recorded.append(fs)
        return fused, fs

    gw.fuse = recording_fuse
    sim.run_until(lambda: transfer.delivered_octets >= 4000, 120 * MICROS)
    assert transfer.delivered_octets == 4000
    assert transfer.delivered_digest == transfer.sent_digest

    txc, rxc = sim.gateways["gw_a"].counters, sim.gateways["gw_b"].counters
    data_sum = sum(fs.data_octets for fs in recorded)
    used_sum = sum(fs.sync_octets + fs.data_octets for fs in recorded)
    sync_sum = sum(fs.sync_octets for fs in recorded)
    assert rxc["secret_octets_delivered"] == txc["secret_octets_sent"]
    assert txc["secret_octets_sent"] == data_sum
    assert data_sum == used_sum - sync_sum
    assert txc["data_octets"] == data_sum
    assert txc["sync_octets"] == sync_sum
    _report(7, "goodput %s non-decreasing; %d delivered octets == sum of "
               "per-carrier data == used capacity minus %d sync octets"
            % (["%.0f" % g for g in goodputs], data_sum, sync_sum))


# ---------------------------------------------------------------------------
# Criterion 8: send-rate stability


def test_criterion_08_stability_metric():
    rng = random.Random(13)
    for _ in range(10):
        base = [rng.randint(0, 40) for _ in range(rng.randint(1, 30))]
        if sum(base) == 0:
            base[0] = 1
        assert sc.stability_distance(base, base) == [0.0] * len(base)

    crowded = sc.scenario_stability(seed=7, packets=25, duration_s=30, visible_users=10)
    lonely = sc.scenario_stability(seed=7, packets=25, duration_s=30, visible_users=1)
    again = sc.scenario_stability(seed=7, packets=25, duration_s=30, visible_users=1)
    m10 = float(crowded.fields["mean_abs_distance"])
    m1 = float(lonely.fields["mean_abs_distance"])
    assert m10 <= m1, "crowding must not make the secret sender stick out more"
    assert lonely.fields == again.fields and lonely.rows == again.rows
    _report(8, "self-distance all zero; mean distance %.3f at 10 users <= %.3f "
               "at 1 user; deterministic" % (m10, m1))


# ---------------------------------------------------------------------------
# Criterion 9: trace tooling round trip


def test_criterion_09_trace_roundtrip(tmp_path):
    started = time.time()
    raw = str(tmp_path / "mixed.pcap")
    fused = str(tmp_path / "fused.pcap")
    recovered = str(tmp_path / "recovered.bin")
    tr.write_trace(tr.synthesize_mixed_trace(500, seed=11), raw)

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["fuse-trace", "--in", raw, "--out", fused,
                         "--payload", "1024", "--seed", "9"]) == 0
        assert cli_main(["extract-trace", "--in", fused, "--out", recovered]) == 0

    with open(recovered, "rb") as fh:
        got = fh.read()
    assert got == _seeded_payload(1024, 9)

    with open(fused, "rb") as fh:
        blob = fh.read()
    assert tr.write_trace(tr.read_trace(fused)) == blob, "pcap write/read must be bit-identical"
    elapsed = time.time() - started
    assert elapsed < 5.0, "took %.1fs" % elapsed
    _report(9, "1024 octets through a 500-packet capture and back, pcap "
               "bit-identical, %.2fs" % elapsed)


# ---------------------------------------------------------------------------
# Criterion 10: role negotiation and encrypted sessions


def test_criterion_10_role_negotiation_and_encryption():
    rng = random.Random(21)
    pairs = 0
    while pairs < 200:
        a = bytes([0x02, 0, 0]) + rng.randbytes(3) + rng.randbytes(3)[:3]
        b = bytes([0x02, 0, 0]) + rng.randbytes(3) + rng.randbytes(3)[:3]
        a, b = a[:6], b[:6]
        if crypto.mac_tail(a) == crypto.mac_tail(b):
            continue
        pairs += 1
        first, second = crypto.choose_generator(a, b), crypto.choose_generator(b, a)
        assert first != second, "exactly one side must become generator"

    cfg = EngineConfig(enabled_handlers=(TCP_OPTIONS_ID,), encryption=True, seed=101)
    a = CovertGateway("gw_a", "gw_b", cfg, local_mac=MAC_HIGH)
    b = CovertGateway("gw_b", "gw_a", replace(cfg, seed=202), local_mac=MAC_LOW)
    a.start_key_exchange()
    b.start_key_exchange()
    rounds = 0
    while not (a.session_established and b.session_established and a.idle and b.idle):
        rounds += 1
        assert rounds < 80
        fa, _ = a.fuse(_ke_carrier((TCP_OPTIONS_ID,), rounds))
        b.extract(fa)
        fb, _ = b.fuse(_ke_carrier((TCP_OPTIONS_ID,), rounds, reverse=True))
        a.extract(fb)
    assert a.session.role == crypto.ROLE_GENERATOR
    assert b.session.role == crypto.ROLE_RECEIVER
    assert a.session.secret == b.session.secret

    secret = random.Random(55).randbytes(700)
    a.enqueue_secret(secret)
    got, wire_data, i = [], bytearray(), 0
    while not a.idle:
        i += 1
        fused, fs = a.fuse(_tcp(i, sport=43000))
        region = fused.tcp.options
        if fs.sync_octets:
            header = wire.decode_sync(region[:wire.SYNC_SIZE])
            assert header is not None, "sync octets must stay plaintext"
            wire_data += region[wire.SYNC_SIZE:wire.SYNC_SIZE + fs.data_octets]
        else:
            wire_data += region[:fs.data_octets]
        _, out, _ = b.extract(fused)
        got.extend(out)
    assert got == [secret]
    assert bytes(wire_data) != secret, "payload must not ride in the clear"
    _report(10, "200 MAC pairs pick exactly one generator each way, encrypted "
                "session round-trips %d octets with plaintext sync" % len(secret))
