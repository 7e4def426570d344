"""Canned experiments, the stability metric, and session reports."""

import pytest

from stegnet.calibration import CalibrationPlan, CalibrationResult, RunSpec, calibrate_handler
from stegnet.engine import CovertGateway, EngineConfig
from stegnet.report import SessionReport, parse_report, render_report, write_report
from stegnet.scenarios import (
    EmptyBase,
    aggregate_series,
    calibration_report,
    line_topology,
    mean_abs_distance,
    run_transfer,
    scenario_firewall_bypass,
    scenario_impersonation,
    scenario_nat_bypass,
    scenario_secret_internet,
    scenario_segmentation,
    scenario_stability,
    simulation_runner,
    stability_distance,
)
from stegnet.simnet import MICROS, Simulation


def test_stability_distance_zero_against_itself():
    for base in ([4, 4, 4], [5, 1, 9, 2], [7]):
        assert stability_distance(base, base) == [0.0] * len(base)


def test_stability_distance_steady_base_matches_ratio_form():
    base = [4, 4, 4, 4]
    series = [8, 4, 0, 4]
    assert stability_distance(series, base) == [1.0, 0.0, -1.0, 0.0]
    # equals (count / mean) - 1 when the base is steady
    mean = sum(base) / len(base)
    assert stability_distance(series, base) == [c / mean - 1.0 for c in series]


def test_stability_distance_pads_short_series_with_silence():
    base = [2, 2, 2, 2]
    assert stability_distance([2, 2], base) == [0.0, 0.0, -1.0, -1.0]
    assert stability_distance([2, 2, 2, 2, 4], base) == [0.0, 0.0, 0.0, 0.0, 2.0]


def test_stability_distance_rejects_empty_or_silent_base():
    with pytest.raises(EmptyBase):
        stability_distance([1, 2], [])
    with pytest.raises(EmptyBase):
        stability_distance([1, 2], [0, 0, 0])


def test_mean_abs_distance():
    assert mean_abs_distance([8, 4, 0, 4], [4, 4, 4, 4]) == 0.5
    assert mean_abs_distance([3, 3], [3, 3]) == 0.0


def test_aggregate_series():
    assert aggregate_series([1, 2, 3, 4, 5], 2) == [3, 7, 5]
    assert aggregate_series([1, 2, 3], 1) == [1, 2, 3]
    assert aggregate_series([], 3) == []
    with pytest.raises(ValueError):
        aggregate_series([1], 0)


def test_scenario_firewall_bypass():
    report = scenario_firewall_bypass(seed=0)
    f = report.fields
    assert f["direct_delivered_octets"] == 0
    assert f["direct_blocked_packets"] > 0
    assert f["covert_delivered_octets"] == 800
    assert f["payload_intact"] is True
    assert f["secret_ip_rule_hits"] == 0
    assert f["monitor_secret_address_sightings"] == 0
    assert f["desyncs"] == 0


def test_scenario_nat_bypass():
    report = scenario_nat_bypass(seed=0)
    f = report.fields
    assert f["direct_delivered_octets"] == 0
    assert f["direct_handshake_established"] is False
    assert f["direct_syn_nat_drops"] >= 1
    assert f["covert_delivered_octets"] == 800
    assert f["covert_handshake_established"] is True
    assert f["covert_handshake_nat_drops"] == 0


def test_scenario_segmentation():
    report = scenario_segmentation(seed=0)
    f = report.fields
    assert f["direct_delivered_octets"] == 0
    assert f["direct_blocked_packets"] > 0
    assert f["covert_delivered_octets"] == 800
    assert f["monitor_secret_address_sightings"] == 0


def test_scenario_impersonation():
    report = scenario_impersonation(seed=0)
    f = report.fields
    assert f["covert_delivered_octets"] == 600
    assert f["gateway_translations"] >= 1
    assert f["server_received_packets"] > 0
    assert f["monitor_secret_address_sightings"] == 0


def test_scenario_secret_internet_rows():
    report = scenario_secret_internet(seed=0, budgets=(8_000, 16_000), payload_octets=1_000)
    assert len(report.rows) == 2
    for row in report.rows:
        assert row["delivered_octets"] == 1_000
        assert row["throughput_oct_s"] > 0
        assert row["desyncs"] == 0
    assert report.fields["monitor_secret_address_sightings"] == 0


def test_scenario_stability_report_shape():
    report = scenario_stability(seed=1, packets=10, duration_s=15)
    assert report.fields["visible_users"] == 1
    assert report.fields["mean_abs_distance"] >= 0.0
    assert len(report.rows) == 15
    assert report.columns == ["interval", "base_count", "covert_count", "distance"]


def test_simulation_runner_modes():
    run = simulation_runner(max_virtual_s=30)
    common = dict(session=0, bandwidth=20_000, visible_users=1,
                  handler_id=1, payload_octets=600, seed=3)
    base = run(RunSpec(mode="baseline", **common))
    target = run(RunSpec(mode="target", **common))
    assert base > 0 and target > 0
    assert target > base, "covert transfer must not beat the direct path"
    assert run(RunSpec(mode="baseline", **common)) == base
    with pytest.raises(ValueError):
        run(RunSpec(mode="sideways", **common))


def test_calibrating_the_isn_handler_measures_it(monkeypatch):
    # Handler 5 carries only in SYNs, which it may take only with augmented
    # correction allowed.  So its target runs write it, and handler 2's,
    # whose augmented runs divert to it, do not.
    fuse, sink = CovertGateway.fuse, [set()]

    def recording_fuse(self, carrier):
        fused, stats = fuse(self, carrier)
        sink[0].add(stats.handler_id)
        return fused, stats

    monkeypatch.setattr(CovertGateway, "fuse", recording_fuse)
    run, target = simulation_runner(max_virtual_s=30), {2: set(), 5: set()}

    def runner(spec):
        sink[0] = target[spec.handler_id] if spec.mode == "target" else set()
        return run(spec)

    plan = CalibrationPlan(sessions=1, bandwidth_levels=(8000, 16000), payload_octets=1000)
    for handler_id in target:
        calibrate_handler(runner, handler_id, plan=plan, seed=1)
    assert 5 in target[5] and 5 not in target[2]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("gateway_nat", [False, True], ids=["plain", "gateway_nat"])
def test_isn_rewrites_keep_the_transfer_whole(gateway_nat, seed):
    # The fusing gateway corrects each flow whose SYN it rewrote and
    # tells its peer nothing; the secret still arrives whole and in step.
    config = EngineConfig(enabled_handlers=(1, 2, 5), augmented_allowed=True, augment_probability=0.25, seed=seed)
    sim = Simulation(line_topology(visible_users=4, gateway_nat=gateway_nat), engine_config=config, seed=seed)
    transfer = run_transfer(sim, "secret_a", "secret_b", 20_000, 20 * MICROS)
    assert transfer.delivered_digest == transfer.sent_digest and sim.desync_count == 0
    assert sim.gateways["gw_a"].flow_deltas, "the ISN channel must have written"


def test_calibration_report_round_trip(tmp_path):
    result = CalibrationResult(handler_id=2, cost=0.117)
    result.times = [1.5, 2.0]
    result.thresholds = [(1.0, 4.0), (1.2, 4.0)]
    result.specs = [
        RunSpec(session=0, bandwidth=8000, visible_users=3, mode="target",
                handler_id=2, payload_octets=4000, seed=11),
        RunSpec(session=0, bandwidth=16000, visible_users=3, mode="target",
                handler_id=2, payload_octets=4000, seed=12),
    ]
    report = calibration_report(result)
    path = tmp_path / "calibration.txt"
    write_report(report, str(path))
    back = parse_report(path.read_text())
    assert back.scenario == "calibration"
    assert back.fields["handler_id"] == "2"
    assert float(back.fields["cost"]) == 0.117
    assert len(back.rows) == 2
    assert back.rows[0]["bandwidth"] == "8000"


def test_session_report_render_parse():
    report = SessionReport(scenario="demo", seed=4)
    report.fields["flag"] = True
    report.fields["ratio"] = 0.25
    report.add_row(a=1, b="x")
    report.add_row(a=2, b="y")
    text = render_report(report)
    back = parse_report(text)
    assert back.scenario == "demo" and back.seed == 4
    assert back.fields["flag"] == "true"
    assert back.rows == [{"a": "1", "b": "x"}, {"a": "2", "b": "y"}]


@pytest.mark.parametrize("users", [246, 300])
def test_line_topology_past_245_users(users):
    topo = line_topology(visible_users=users)
    ips = [node.ip for node in topo.nodes.values() if node.ip]
    assert len(ips) == len(set(ips)) == users + 5
    assert not [ip for ip in ips if ip.endswith((".0", ".255"))]
    # The first 245 users keep their addresses.
    assert topo.nodes["vis_a_1"].ip == "10.0.1.10"
    assert topo.nodes["vis_a_245"].ip == "10.0.1.254"
    assert not [ip for ip in ips if ip.startswith("10.0.2.") and ip not in ("10.0.2.1", "10.0.2.2", "10.0.2.3")]
