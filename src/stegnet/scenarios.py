"""Canned experiments over the simulator.

Each scenario builds a small topology, runs a covert transfer under
some network obstacle (an inspecting monitor, address translation, a
segmenting firewall), and returns a ``SessionReport`` with everything a
test or a reader needs to judge the outcome.  All of them are pure
functions of their seed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from . import packet as pk
from .calibration import CalibrationResult, RunSpec
from .engine import EngineConfig
from .handlers import ICMP_PAYLOAD_ID, TCP_ISN_ID, TCP_OPTIONS_ID
from .report import SessionReport
from .simnet import MICROS, Simulation, WorkloadSpec, _BulkTransfer
from .topology import Topology, load_topology

DEFAULT_HANDLERS = (TCP_OPTIONS_ID, ICMP_PAYLOAD_ID)
_HANDSHAKE_PORT = 9000  # where scenario_nat_bypass sends its handshake SYN


def _visible_ip(i: int) -> str:
    """Visible user ``i`` (from 0) of ``line_topology``: 10.0.1.10-254 for
    the first 245, then 10.0.3.1-254, 10.0.4.1-254 and so on."""
    if i < 245:
        return "10.0.1.%d" % (10 + i)
    extra = i - 245
    return "10.0.%d.%d" % (3 + extra // 254, 1 + extra % 254)


def line_topology(
    visible_users: int = 1,
    nat_monitor: bool = False,
    gateway_nat: bool = False,
    rules: Sequence[str] = (),
    default_action: str = "allow",
) -> Topology:
    """Two gateway-fronted sites joined through one monitored core.

    Site A holds the covert source and ``visible_users`` workload
    hosts; site B holds a visible server and the covert destination.
    Every link carries 125,000 octets/s with a 200 us delay.
    """
    parts: List[str] = []

    def node(name, kind, ip=None, **extra):
        parts.append("[node]")
        parts.append("name = %s" % name)
        parts.append("kind = %s" % kind)
        if ip:
            parts.append("ip = %s" % ip)
        for key, value in extra.items():
            parts.append("%s = %s" % (key, value))
        parts.append("")

    def link(a, b):
        parts.extend(["[link]", "a = %s" % a, "b = %s" % b,
                      "capacity = 125000", "delay_us = 200", ""])

    node("secret_a", "host", "10.0.1.2", secret="true")
    for i in range(visible_users):
        node("vis_a_%d" % (i + 1), "host", _visible_ip(i), workload="true")
    node("gw_a", "cgateway", "10.0.1.1", peer="gw_b")
    node("core", "monitor")
    node("gw_b", "cgateway", "10.0.2.1", peer="gw_a")
    node("server_b", "host", "10.0.2.2")
    node("secret_b", "host", "10.0.2.3", secret="true")

    link("secret_a", "gw_a")
    for i in range(visible_users):
        link("vis_a_%d" % (i + 1), "gw_a")
    link("gw_a", "core")
    link("core", "gw_b")
    link("gw_b", "server_b")
    link("gw_b", "secret_b")

    for rule in rules:
        parts.append(rule)
        parts.append("")
    policy = ["[policy]", "node = core", "default = %s" % default_action]
    if nat_monitor:
        policy.extend(["nat = true", "inside = gw_a"])
    parts.extend(policy)
    parts.append("")
    if gateway_nat:
        parts.extend(["[policy]", "node = gw_a", "nat = true", ""])
    return load_topology("\n".join(parts))


def run_transfer(
    sim: Simulation, src: str, dst: str, octets: int, max_us: int, packet_size: int = 512,
) -> _BulkTransfer:
    """Send ``octets`` from ``src`` to ``dst`` as one bulk transfer and
    run ``sim`` until all of them have arrived or the absolute virtual
    time ``max_us`` passes.  The transfer took ``transfer.finished_us or
    sim.now``: its last arrival, or the run's end if it did not finish."""
    transfer = sim.add_bulk_transfer(src, dst, octets, packet_size)
    sim.run_until(lambda: transfer.delivered_octets >= octets, max_us)
    return transfer


def _invisibility_fields(sim: Simulation, report: SessionReport) -> None:
    # Sightings count per monitor: a pair seen at two monitors counts twice.
    secret_seen = sum(1 for stats in sim.monitor_stats.values() for src, dst in stats.addresses
                      if src in sim._secret_ips or dst in sim._secret_ips)
    monitors = sim.monitor_totals()
    report.fields["monitor_drops"] = monitors.rule_drops + monitors.default_drops
    report.fields["monitor_log_hits"] = monitors.log_hits
    report.fields["monitor_checksum_anomalies"] = monitors.checksum_anomalies
    report.fields["monitor_nat_drops"] = monitors.nat_drops
    report.fields["monitor_secret_address_sightings"] = secret_seen
    report.fields["desyncs"] = sim.desync_count


def scenario_secret_internet(
    seed: int = 0,
    budgets: Sequence[int] = (8_000, 16_000, 24_000, 32_000),
    payload_octets: int = 2_000,
) -> SessionReport:
    """Covert throughput across a monitored core at rising carrier
    supply, unencrypted.  One row per workload budget level."""
    report = SessionReport(scenario="secret_internet", seed=seed)
    report.fields["payload_octets"] = payload_octets
    report.fields["encryption"] = False
    config = EngineConfig(enabled_handlers=DEFAULT_HANDLERS, seed=seed)
    total_drops = 0
    for budget in budgets:
        sim = Simulation(line_topology(), workload=WorkloadSpec(budget=budget), engine_config=config, seed=seed)
        transfer = run_transfer(sim, "secret_a", "secret_b", payload_octets, 120 * MICROS)
        duration_us = transfer.finished_us or sim.now
        throughput = transfer.delivered_octets * MICROS / duration_us if duration_us else 0.0
        counters = sim.gateways["gw_a"].counters
        overhead = counters["sync_octets"] + counters["mgmt_octets_sent"]
        monitors = sim.monitor_totals()
        total_drops += monitors.rule_drops + monitors.default_drops + monitors.nat_drops
        report.add_row(
            budget=budget,
            delivered_octets=transfer.delivered_octets,
            duration_us=duration_us,
            throughput_oct_s=round(throughput, 3),
            carriers_modified=counters["carriers_modified"],
            carriers_excluded=counters["carriers_excluded"],
            overhead_octets=overhead,
            desyncs=sim.desync_count,
        )
        if budget == budgets[-1]:
            _invisibility_fields(sim, report)
            for name in ("carriers_modified", "carriers_excluded", "sync_octets", "data_octets", "secret_octets_sent"):
                report.fields[name] = counters[name]
    report.fields["monitor_total_drops"] = total_drops
    return report


def _blocked_then_covert(
    report: SessionReport,
    topo_factory,
    seed: int,
    workload: Optional[WorkloadSpec] = None,
    payload_octets: int = 800,
    max_virtual_s: int = 60,
) -> Tuple[Simulation, _BulkTransfer]:
    """Shared shape of the bypass scenarios: a direct attempt across a
    hostile middle fails within half the horizon, the covert attempt
    succeeds.  Returns the covert run and its transfer."""
    config = EngineConfig(enabled_handlers=DEFAULT_HANDLERS, seed=seed)
    direct = Simulation(topo_factory(), workload=workload, engine_config=config, seed=seed, covert=False)
    direct_transfer = run_transfer(direct, "secret_b", "secret_a", payload_octets, max_virtual_s * MICROS // 2)
    report.fields["direct_delivered_octets"] = direct_transfer.delivered_octets
    monitors = direct.monitor_totals()
    report.fields["direct_blocked_packets"] = monitors.rule_drops + monitors.default_drops + monitors.nat_drops

    covert = Simulation(topo_factory(), workload=workload, engine_config=config, seed=seed)
    transfer = run_transfer(covert, "secret_b", "secret_a", payload_octets, max_virtual_s * MICROS)
    report.fields["covert_delivered_octets"] = transfer.delivered_octets
    report.fields["covert_duration_us"] = transfer.finished_us or covert.now
    return covert, transfer


def scenario_nat_bypass(seed: int = 0) -> SessionReport:
    """Reaching a host behind flow-tracking address translation.

    The direct connection attempt is unsolicited inbound traffic and
    dies at the translator; the covert handshake rides response
    carriers that the translator considers part of established flows,
    and both endpoints see it complete.
    """
    report = SessionReport(scenario="nat_bypass", seed=seed)
    factory = lambda: line_topology(nat_monitor=True)
    bypass, _ = _blocked_then_covert(report, factory, seed)
    _invisibility_fields(bypass, report)

    def handshake_sim(covert: bool) -> Simulation:
        sim = Simulation(
            factory(), engine_config=EngineConfig(enabled_handlers=DEFAULT_HANDLERS, seed=seed), seed=seed,
            covert=covert, capture_nodes=("secret_a", "secret_b"),
        )
        src = sim.topology.nodes["secret_b"]
        dst = sim.topology.nodes["secret_a"]
        syn = pk.build_tcp(
            src.ip, dst.ip, 31337, _HANDSHAKE_PORT,
            seq=0x41414141, flags=pk.TCP_SYN,
            src_mac=src.mac, dst_mac=dst.mac,
        )
        sim.send_from("secret_b", syn)
        sim.run(10 * MICROS)
        return sim

    def handshake_state(sim: Simulation) -> Tuple[bool, bool]:
        saw_synack = saw_final_ack = False
        for record in sim.captures["secret_b"].records:
            p = pk.parse_packet(record.data)
            if p.tcp is not None and p.tcp.src_port == _HANDSHAKE_PORT \
                    and p.tcp.flags & pk.TCP_SYN and p.tcp.flags & pk.TCP_ACK:
                saw_synack = True
        for record in sim.captures["secret_a"].records:
            p = pk.parse_packet(record.data)
            if p.tcp is not None and p.tcp.dst_port == _HANDSHAKE_PORT \
                    and p.tcp.flags == pk.TCP_ACK and not p.app_payload:
                saw_final_ack = True
        return saw_synack, saw_final_ack

    direct = handshake_sim(covert=False)
    covert = handshake_sim(covert=True)
    d_synack, d_ack = handshake_state(direct)
    c_synack, c_ack = handshake_state(covert)
    report.fields["direct_handshake_established"] = d_synack and d_ack
    report.fields["direct_syn_nat_drops"] = direct.monitor_totals().nat_drops
    report.fields["covert_handshake_established"] = c_synack and c_ack
    report.fields["covert_handshake_nat_drops"] = covert.monitor_totals().nat_drops
    return report


def scenario_firewall_bypass(
    seed: int = 0,
    payload_octets: int = 800,
    budget: int = 20_000,
    visible_users: int = 1,
    max_virtual_s: int = 60,
) -> SessionReport:
    """Drop rules keyed on both secret nodes' addresses.

    The direct transfer hits them immediately; the covert transfer
    delivers the full payload with zero hits on any of them.
    """
    rules = tuple(
        "[rule]\nnode = core\naction = drop\nproto = any\n%s = %s" % (side, ip)
        for ip in ("10.0.1.2", "10.0.2.3")
        for side in ("src", "dst")
    )
    report = SessionReport(scenario="firewall_bypass", seed=seed)
    covert, transfer = _blocked_then_covert(
        report, lambda: line_topology(rules=rules, visible_users=visible_users), seed,
        WorkloadSpec(budget=budget), payload_octets, max_virtual_s,
    )
    report.fields["payload_intact"] = transfer.delivered_digest == transfer.sent_digest
    # Every rule in this topology is one of the secret-address drops.
    report.fields["secret_ip_rule_hits"] = sum(covert.monitor_totals().rule_hits.values())
    _invisibility_fields(covert, report)
    return report


def scenario_segmentation(seed: int = 0) -> SessionReport:
    """Default-drop core that only admits named visible services."""
    rules = (
        "[rule]\nnode = core\naction = allow\nproto = tcp\ndst = 10.0.2.2",
        "[rule]\nnode = core\naction = allow\nproto = tcp\nsrc = 10.0.2.2",
        "[rule]\nnode = core\naction = allow\nproto = udp\ndst = 10.0.2.2",
        "[rule]\nnode = core\naction = allow\nproto = udp\nsrc = 10.0.2.2",
        "[rule]\nnode = core\naction = allow\nproto = icmp",
    )
    report = SessionReport(scenario="segmentation", seed=seed)
    covert, _ = _blocked_then_covert(report, lambda: line_topology(rules=rules, default_action="drop"), seed)
    _invisibility_fields(covert, report)
    return report


def scenario_impersonation(seed: int = 0) -> SessionReport:
    """The gateway lends its own address to the secret host's visible
    traffic, so the monitor never sees the secret address at all."""
    topo = line_topology(gateway_nat=True)
    topo.nodes["secret_a"].workload = True
    sim = Simulation(topo, engine_config=EngineConfig(enabled_handlers=DEFAULT_HANDLERS, seed=seed), seed=seed)
    transfer = sim.add_bulk_transfer("secret_a", "secret_b", 600)
    sim.run(20 * MICROS)
    report = SessionReport(scenario="impersonation", seed=seed)
    report.fields["covert_delivered_octets"] = transfer.delivered_octets
    report.fields["server_received_packets"] = sim.node_stats["server_b"].received
    report.fields["gateway_translations"] = len(sim._phys_nat["gw_a"])
    _invisibility_fields(sim, report)
    return report


def scenario_stability(
    seed: int = 0,
    packets: int = 40,
    duration_s: int = 60,
    visible_users: int = 1,
) -> SessionReport:
    """Send-rate fingerprint, per virtual second, of the covert path against a direct run."""
    def run(covert: bool):
        sim = Simulation(
            line_topology(visible_users=visible_users),
            engine_config=EngineConfig(enabled_handlers=DEFAULT_HANDLERS, seed=seed), seed=seed, covert=covert,
        )
        transfer = sim.add_paced_transfer("secret_a", "secret_b", packets)
        sim.run(duration_s * MICROS)
        return send_counts(transfer.send_times, MICROS, duration_s * MICROS), transfer

    base_series, _ = run(covert=False)
    covert_series, covert_transfer = run(covert=True)
    distances = stability_distance(covert_series, base_series)
    report = SessionReport(scenario="stability", seed=seed)
    report.fields["visible_users"] = visible_users
    report.fields["mean_abs_distance"] = mean_abs_distance(covert_series, base_series)
    report.fields["retransmissions"] = covert_transfer.retransmissions
    report.columns = ["interval", "base_count", "covert_count", "distance"]
    for i, d in enumerate(distances):
        base = base_series[i] if i < len(base_series) else 0
        report.add_row(interval=i, base_count=base, covert_count=covert_series[i], distance=round(d, 6))
    return report


# ---------------------------------------------------------------------------
# Stability metric


def send_counts(times: Sequence[int], interval_us: int, horizon_us: int) -> List[int]:
    """How many of ``times`` fall in each ``interval_us`` before
    ``horizon_us``; at least one interval."""
    buckets = [0] * max(1, -(-horizon_us // interval_us))
    for t in times:
        if t < horizon_us:
            buckets[t // interval_us] += 1
    return buckets


class EmptyBase(ValueError):
    """The comparison base has no intervals or no traffic."""


def stability_distance(series: Sequence[int], base: Sequence[int]) -> List[float]:
    """Signed per-interval deviation of ``series`` from base behavior,
    in units of the base's mean interval count.

    Zero when the interval matches the base run exactly, positive when
    the node sends more (demand plus retransmissions), negative when it
    goes quiet.  Against a steady base this equals the normalized send
    ratio's distance from its 1.0 pivot; comparing any base against
    itself gives all zeros.  Shorter inputs are padded with silence.
    """
    if not base:
        raise EmptyBase("base series must not be empty")
    mean = sum(base) / len(base)
    if mean == 0:
        raise EmptyBase("base series has no traffic to compare against")
    n = max(len(series), len(base))
    padded = list(series) + [0] * (n - len(series))
    reference = list(base) + [0] * (n - len(base))
    return [(c - b) / mean for c, b in zip(padded, reference)]


def mean_abs_distance(series: Sequence[int], base: Sequence[int]) -> float:
    distances = stability_distance(series, base)
    if not distances:
        return 0.0
    return sum(abs(d) for d in distances) / len(distances)


def aggregate_series(series: Sequence[int], factor: int) -> List[int]:
    """Sum adjacent intervals; widens the observation window."""
    if factor < 1:
        raise ValueError("factor must be at least 1")
    return [sum(series[i : i + factor]) for i in range(0, len(series), factor)]


# ---------------------------------------------------------------------------
# Calibration glue


def _calibration_handlers(handler_id: int) -> Tuple[int, ...]:
    """Minimal viable handler set for measuring one handler.

    Two-octet regions cannot hold an opening header, so they are
    measured alongside the echo-payload channel that bootstraps the
    stream; wide regions are measured alone.
    """
    if handler_id in (TCP_OPTIONS_ID, ICMP_PAYLOAD_ID):
        return (handler_id,)
    return (ICMP_PAYLOAD_ID, handler_id)


def simulation_runner(max_virtual_s: int = 60):
    """Runner for ``calibrate_handler`` backed by full simulator runs."""

    def run(spec: RunSpec) -> float:
        if spec.mode == "baseline":
            handlers = DEFAULT_HANDLERS
        elif spec.mode == "target":
            handlers = _calibration_handlers(spec.handler_id)
        elif spec.mode == "augmented":
            handlers = tuple(dict.fromkeys(_calibration_handlers(spec.handler_id) + (TCP_ISN_ID,)))
        else:
            raise ValueError("unknown calibration mode %r" % spec.mode)
        # The ISN channel carries only with augmented correction allowed, also when it is the target.
        config = EngineConfig(enabled_handlers=handlers, augmented_allowed=TCP_ISN_ID in handlers,
                              augment_probability=spec.augment_probability, seed=spec.seed)
        sim = Simulation(line_topology(visible_users=spec.visible_users), workload=WorkloadSpec(budget=spec.bandwidth),
                         engine_config=config, seed=spec.seed, covert=spec.mode != "baseline")
        transfer = run_transfer(sim, "secret_a", "secret_b", spec.payload_octets, max_virtual_s * MICROS,
                                packet_size=200)
        return (transfer.finished_us or sim.now) / MICROS

    return run


def calibration_report(result: CalibrationResult) -> SessionReport:
    report = SessionReport(scenario="calibration", seed=result.specs[0].seed if result.specs else 0)
    report.fields["handler_id"] = result.handler_id
    report.fields["cost"] = result.cost
    report.fields["runs"] = result.run_count
    report.columns = ["session", "bandwidth", "duration_s", "min_threshold_s", "max_threshold_s"]
    for spec, t, (low, high) in zip(result.specs, result.times, result.thresholds):
        report.add_row(
            session=spec.session,
            bandwidth=spec.bandwidth,
            duration_s=round(t, 6),
            min_threshold_s=round(low, 6),
            max_threshold_s=round(high, 6),
        )
    return report
