"""Command line front end: exit codes, reports, trace round trips."""

import gc
import hashlib
import os
import stat
import warnings
from dataclasses import replace
from pathlib import Path
from textwrap import dedent

import pytest

from stegnet import packet as pk
from stegnet import trace as tr
from stegnet.cli import _engine_config_from_args, _seeded_payload, build_parser, main
from stegnet.engine import CovertGateway, EngineConfig
from stegnet.report import parse_report
from stegnet.simnet import WorkloadSpec, parse_workload

TOPOLOGY = dedent(
    """
    [node]
    name = secret_a
    kind = host
    ip = 10.0.1.2
    secret = true

    [node]
    name = vis_a_1
    kind = host
    ip = 10.0.1.10
    workload = true

    [node]
    name = gw_a
    kind = cgateway
    ip = 10.0.1.1
    peer = gw_b

    [node]
    name = core
    kind = monitor

    [node]
    name = gw_b
    kind = cgateway
    ip = 10.0.2.1
    peer = gw_a

    [node]
    name = server_b
    kind = host
    ip = 10.0.2.2

    [node]
    name = secret_b
    kind = host
    ip = 10.0.2.3
    secret = true

    [link]
    a = secret_a
    b = gw_a
    capacity = 125000

    [link]
    a = vis_a_1
    b = gw_a
    capacity = 125000

    [link]
    a = gw_a
    b = core
    capacity = 125000

    [link]
    a = core
    b = gw_b
    capacity = 125000

    [link]
    a = gw_b
    b = server_b
    capacity = 125000

    [link]
    a = gw_b
    b = secret_b
    capacity = 125000
    """
)


@pytest.fixture
def topo_file(tmp_path):
    path = tmp_path / "line.cfg"
    path.write_text(TOPOLOGY)
    return str(path)


def _carrier_trace(path, count=40, payload=b"x" * 32):
    records = []
    for i in range(count):
        p = pk.build_tcp("192.168.5.2", "192.168.9.9", 30000 + i, 443,
                         seq=0x41000000 + i * 97, payload=payload)
        records.append(pk.RawPacket(pk.serialize_packet(p), capture_time_us=1000 * i))
    tr.write_trace(tr.TraceFile(records=records), str(path))
    return str(path)


def test_simulate_writes_deterministic_report(topo_file, tmp_path, capsys):
    out_a = tmp_path / "a.report"
    out_b = tmp_path / "b.report"
    argv = ["simulate", "--topology", topo_file, "--payload", "400",
            "--duration", "20", "--seed", "3"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    report = parse_report(out_a.read_text())
    assert report.scenario == "simulate"
    assert report.fields["delivered_octets"] == "400"
    assert report.fields["payload_sha256"] == report.fields["delivered_sha256"]
    assert report.fields["desyncs"] == "0"
    gateways = [row["gateway"] for row in report.rows]
    assert gateways == ["gw_a", "gw_b"]


def test_simulate_without_transfer_or_covert(topo_file, capsys):
    rc = main(["simulate", "--topology", topo_file, "--payload", "0",
               "--no-covert", "--duration", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "virtual_us" in out
    assert "payload_sha256" not in out


def test_topology_errors_exit_3(tmp_path, capsys):
    assert main(["simulate", "--topology", str(tmp_path / "missing.cfg")]) == 3
    bad = tmp_path / "bad.cfg"
    bad.write_text("[node]\nname = x\nkind = host\n")  # no ip
    assert main(["simulate", "--topology", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "error:" in err
    bad.write_text("[node]\nname = x\ncolour = red\n")
    assert main(["simulate", "--topology", str(bad)]) == 3
    assert capsys.readouterr().err.count("line 3") == 1
    bad.write_bytes(b"[node]\nname = \xff\n")
    assert main(["simulate", "--topology", str(bad)]) == 3
    assert "error: topology" in capsys.readouterr().err


def test_workload_errors_exit_2(topo_file, tmp_path):
    wl = tmp_path / "wl.cfg"
    wl.write_text("budget = -5\n")
    assert main(["simulate", "--topology", topo_file, "--workload", str(wl)]) == 2
    wl.write_text("nonsense = 1\n")
    assert main(["simulate", "--topology", topo_file, "--workload", str(wl)]) == 2


@pytest.mark.parametrize("text", [
    "icmp_payload = -1\n",
    "icmp_payload = 70000\n",
    "http = 1.31\ntls = -0.31\ntcp = 0\nudp = 0\nicmp = 0\n",
])
def test_workload_values_the_run_cannot_use_exit_2(text, topo_file, tmp_path, capsys):
    wl = tmp_path / "wl.cfg"
    wl.write_text(text)
    rc = main(["simulate", "--topology", topo_file, "--workload", str(wl),
               "--payload", "100", "--duration", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error: workload %s: " % wl in err and "Traceback" not in err


def test_unknown_handler_exits_4(topo_file, tmp_path, capsys):
    assert main(["simulate", "--topology", topo_file, "--handler", "99"]) == 4
    assert main(["calibrate", "--handler", "99"]) == 4
    trace = _carrier_trace(tmp_path / "c.pcap")
    assert main(["fuse-trace", "--in", trace, "--out",
                 str(tmp_path / "f.pcap"), "--handler", "zzz"]) == 4


def test_engine_config_file(tmp_path, capsys):
    trace = _carrier_trace(tmp_path / "c.pcap")
    cfg = tmp_path / "engine.cfg"
    cfg.write_text("[engine]\nhandlers = 1,2\nseed = 7\ncost.1 = 0.2\nchunk_size = 500\n")
    rc = main(["fuse-trace", "--in", trace, "--out", str(tmp_path / "f.pcap"),
               "--config", str(cfg), "--payload", "64"])
    assert rc == 0

    cfg.write_text("handlers = 1\nwarp_speed = 9\n")
    rc = main(["fuse-trace", "--in", trace, "--out", str(tmp_path / "g.pcap"),
               "--config", str(cfg)])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err

    cfg.write_text("encryption = true\n")
    rc = main(["fuse-trace", "--in", trace, "--out", str(tmp_path / "h.pcap"),
               "--config", str(cfg)])
    assert rc == 2

    # A bad handler list is a bad value like any other; only --handler
    # on the command line exits 4 (test_unknown_handler_exits_4).
    cases = (("seed = 1\nseed = 2\n", 2), ("cost.7 = 0.2\n", 1), ("handlers = zzz\n", 1),
             ("seed = 1\nhandlers =\n", 2))
    for text, line in cases:
        cfg.write_text(text)
        rc = main(["fuse-trace", "--in", trace, "--out", str(tmp_path / "i.pcap"),
                   "--config", str(cfg)])
        assert rc == 2
        assert "error: engine config %s: line %d: " % (cfg, line) in capsys.readouterr().err
    cfg.write_bytes(b"seed = \xff\n")
    rc = main(["fuse-trace", "--in", trace, "--out", str(tmp_path / "j.pcap"),
               "--config", str(cfg)])
    assert rc == 2
    assert "error: engine config" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["calibrate", "--handler", "1", "--levels", "abc"],
    ["calibrate", "--handler", "1", "--sessions", "0"],
    ["fuse-trace", "--in", "c.pcap", "--out", "f.pcap", "--payload", "-5"],
    ["simulate", "--topology", "t.topo", "--duration", "nan"],
    ["simulate", "--topology", "t.topo", "--duration", "0"],
    ["simulate", "--topology", "t.topo", "--payload", "-5"],
    ["simulate", "--topology", "t.topo", "--duration", "0.0000001"],
    ["simulate", "--topology", "t.topo", "--duration", "1e303"],
])
def test_bad_numbers_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error: argument %s: " % argv[-2] in capsys.readouterr().err


def test_shipped_config_files_hold_the_defaults():
    configs = Path(__file__).resolve().parent.parent / "configs"
    assert parse_workload((configs / "workload.cfg").read_text()) == WorkloadSpec()
    args = build_parser().parse_args(["fuse-trace", "--in", "x.pcap", "--out", "y.pcap",
                                      "--config", str(configs / "engine.cfg")])
    assert _engine_config_from_args(args) == EngineConfig()


def test_simulate_prints_topology_warnings(tmp_path, capsys):
    # Three routers between the gateways make a path worth a second look.
    routers = "".join("[node]\nname = r%d\nkind = router\n\n" % i for i in (2, 3))
    topology = tmp_path / "long.topo"
    topology.write_text(routers + TOPOLOGY.replace("kind = monitor", "kind = router").replace(
        "a = core\nb = gw_b\n",
        "a = core\nb = r2\ncapacity = 125000\n\n[link]\na = r2\nb = r3\ncapacity = 125000\n\n"
        "[link]\na = r3\nb = gw_b\n"))
    assert main(["simulate", "--topology", str(topology), "--payload", "0", "--duration", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ("warning: gateways gw_a and gw_b are separated by 3 intermediate nodes; "
                            "extraction latency grows with each hop\n")
    assert parse_report(captured.out).fields["virtual_us"] == "1000000"


def test_a_stalled_transfer_is_timed_to_the_end_of_the_run(tmp_path, capsys):
    configs = Path(__file__).resolve().parent.parent / "configs"
    out = tmp_path / "stalled.report"
    assert main(["simulate", "--topology", str(configs / "secret_internet.topo"),
                 "--workload", str(configs / "workload.cfg"), "--config", str(configs / "engine.cfg"),
                 "--payload", "2000", "--duration", "0.5", "--out", str(out)]) == 0
    assert "transfer incomplete (1024 of 2000 octets)" in capsys.readouterr().err
    fields = parse_report(out.read_text()).fields
    assert fields["transfer_us"] == fields["virtual_us"] == "500000"
    assert float(fields["throughput_oct_s"]) == int(fields["delivered_octets"]) * 10**6 / 500000 == 2048


def test_seed_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "engine.cfg"
    cfg.write_text("seed = 7\n")

    def engine_seed(*extra):
        args = build_parser().parse_args(["fuse-trace", "--in", "x.pcap", "--out", "y.pcap", *extra])
        return _engine_config_from_args(args).seed

    assert engine_seed("--config", str(cfg), "--seed", "3") == 3
    assert engine_seed("--config", str(cfg), "--seed", "0") == 0
    assert engine_seed("--config", str(cfg)) == 7
    assert engine_seed() == 0


def test_config_file_seed_drives_the_run(topo_file, tmp_path, capsys):
    cfg = tmp_path / "engine.cfg"
    cfg.write_text("seed = 7\n")
    reports = []
    for seeding in (["--config", str(cfg)], ["--seed", "7"]):
        out = tmp_path / ("run%d.report" % len(reports))
        assert main(["simulate", "--topology", topo_file, "--payload", "400", "--duration", "20",
                     "--out", str(out), *seeding]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert parse_report(reports[0].decode()).seed == 7

    fused = tmp_path / "fused.pcap"
    recovered = tmp_path / "payload.bin"
    trace = _carrier_trace(tmp_path / "carriers.pcap")
    assert main(["fuse-trace", "--in", trace, "--out", str(fused), "--payload", "256",
                 "--config", str(cfg)]) == 0
    assert main(["extract-trace", "--in", str(fused), "--out", str(recovered), "--config", str(cfg)]) == 0
    assert recovered.read_bytes() == _seeded_payload(256, 7)


def test_fuse_then_extract_round_trip(tmp_path, capsys):
    trace = _carrier_trace(tmp_path / "carriers.pcap")
    fused = tmp_path / "fused.pcap"
    recovered = tmp_path / "payload.bin"
    rc = main(["fuse-trace", "--in", trace, "--out", str(fused),
               "--payload", "256", "--seed", "5"])
    assert rc == 0
    fuse_out = capsys.readouterr().out
    expected = _seeded_payload(256, 5)
    gateway = CovertGateway("trace", "peer", config=EngineConfig(seed=5))
    gateway.enqueue_payload(expected)
    tr.fuse_records(gateway, tr.read_trace(trace).records)
    assert "fused %d of 40 carriers, excluded %d\n" % (
        gateway.counters["carriers_modified"], gateway.counters["carriers_excluded"]) in fuse_out
    assert hashlib.sha256(expected).hexdigest() in fuse_out

    repaired = tmp_path / "repaired.pcap"
    rc = main(["extract-trace", "--in", str(fused), "--out", str(recovered),
               "--trace-out", str(repaired)])
    assert rc == 0
    extract_out = capsys.readouterr().out
    assert hashlib.sha256(expected).hexdigest() in extract_out
    assert recovered.read_bytes() == expected

    forwarded = tr.read_trace(str(repaired))
    assert len(forwarded.records) == len(tr.read_trace(str(fused)).records)
    for record in forwarded.records:
        assert pk.validate_checksums(pk.parse_packet(record.data))


def test_trace_commands_copy_unparseable_frames(tmp_path, capsys):
    good = tr.read_trace(_carrier_trace(tmp_path / "carriers.pcap")).records
    bad_version = bytearray(good[0].data)
    bad_version[pk.ETHER_SIZE] = 0x65  # IPv6 version nibble
    truncated = good[1].data[: pk.ETHER_SIZE + 10]
    bad = [pk.RawPacket(bytes(bad_version), 500), pk.RawPacket(truncated, 1500)]
    mixed = good[:1] + bad[:1] + good[1:20] + bad[1:] + good[20:]
    source = tmp_path / "mixed.pcap"
    tr.write_trace(tr.TraceFile(records=mixed), str(source))

    fused, repaired, recovered = (tmp_path / n for n in ("fused.pcap", "repaired.pcap", "payload.bin"))
    assert main(["fuse-trace", "--in", str(source), "--out", str(fused),
                 "--payload", "256", "--seed", "5"]) == 0
    assert "unparseable frames 2" in capsys.readouterr().out
    assert main(["extract-trace", "--in", str(fused), "--out", str(recovered),
                 "--trace-out", str(repaired)]) == 0
    assert "unparseable frames 2" in capsys.readouterr().out
    assert recovered.read_bytes() == _seeded_payload(256, 5)

    for path in (fused, repaired):
        records = tr.read_trace(str(path)).records
        assert [records[1], records[21]] == bad


def test_fuse_payload_file(tmp_path, capsys):
    trace = _carrier_trace(tmp_path / "carriers.pcap")
    blob = tmp_path / "blob.bin"
    blob.write_bytes(b"covert cargo " * 10)
    fused = tmp_path / "fused.pcap"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        rc = main(["fuse-trace", "--in", trace, "--out", str(fused),
                   "--payload-file", str(blob)])
        gc.collect()
    assert rc == 0
    assert [w.message for w in caught if w.category is ResourceWarning] == []
    out = tmp_path / "back.bin"
    assert main(["extract-trace", "--in", str(fused), "--out", str(out)]) == 0
    assert out.read_bytes() == blob.read_bytes()


def test_fuse_trace_without_capacity_exits_5(tmp_path):
    trace = _carrier_trace(tmp_path / "one.pcap", count=1)
    rc = main(["fuse-trace", "--in", trace, "--out", str(tmp_path / "f.pcap"),
               "--payload", "500"])
    assert rc == 5


@pytest.mark.parametrize("command", ["fuse-trace", "extract-trace"])
def test_trace_commands_refuse_non_ethernet_captures(command, tmp_path, capsys):
    # A raw-IPv4 (link type 101) copy of a capture: the same frames
    # without their Ethernet headers.
    capture = tr.synthesize_mixed_trace(300, seed=1)
    records = [pk.RawPacket(r.data[pk.ETHER_SIZE:], r.capture_time_us) for r in capture.records]
    raw = tmp_path / "raw.pcap"
    tr.write_trace(tr.TraceFile(records=records, link_type=101), raw)
    out = tmp_path / "out"
    assert main([command, "--in", str(raw), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: cannot read trace: link type 101 is not Ethernet\n"
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("simulate", "--out"),
    ("calibrate", "--out"),
    ("fuse-trace", "--out"),
    ("extract-trace", "--out"),
    ("extract-trace", "--trace-out"),
])
def test_unwritable_output_exits_2(command, flag, topo_file, tmp_path, capsys):
    trace = _carrier_trace(tmp_path / "carriers.pcap")
    inputs = {
        "simulate": ["--topology", topo_file, "--payload", "0", "--duration", "0.5"],
        "calibrate": ["--handler", "2", "--sessions", "1", "--levels", "4000",
                      "--payload", "100", "--max-virtual-s", "5"],
        "fuse-trace": ["--in", trace],
        "extract-trace": ["--in", trace],
    }
    missing = tmp_path / "missing" / "out"
    assert main([command, flag, str(missing)] + inputs[command]) == 2
    assert "error: cannot write %s: No such file or directory\n" % missing in capsys.readouterr().err
    assert not missing.parent.exists()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_outputs_follow_the_umask(umask, mode, topo_file, tmp_path, capsys):
    trace = _carrier_trace(tmp_path / "carriers.pcap")
    out = {name: tmp_path / name for name in ("report", "fused.pcap", "payload.bin", "repaired.pcap")}
    previous = os.umask(umask)
    try:
        assert main(["simulate", "--topology", topo_file, "--payload", "0", "--duration", "0.5",
                     "--out", str(out["report"])]) == 0
        assert main(["fuse-trace", "--in", trace, "--out", str(out["fused.pcap"]),
                     "--payload", "64"]) == 0
        assert main(["extract-trace", "--in", str(out["fused.pcap"]), "--out", str(out["payload.bin"]),
                     "--trace-out", str(out["repaired.pcap"])]) == 0
        with open(tmp_path / "plain", "wb"):
            pass
    finally:
        assert os.umask(previous) == umask
    assert stat.S_IMODE((tmp_path / "plain").stat().st_mode) == mode
    assert {name: stat.S_IMODE(path.stat().st_mode) for name, path in out.items()} == dict.fromkeys(out, mode)


@pytest.mark.parametrize("case, code, message", [
    ("not a pcap", 2, "error: cannot read trace: capture shorter than a pcap global header\n"),
    ("missing trace", 2, "error: cannot read trace: [Errno 2] No such file or directory"),
    ("missing payload file", 2, "error: cannot read payload: [Errno 2] No such file or directory"),
    ("empty payload file", 2, "error: payload is empty\n"),
    ("zero chunk size", 2, "error: chunk size must be within 1..65535\n"),
    ("one secret side", 3, "error: need secret hosts behind two different gateways\n"),
])
def test_documented_exits(case, code, message, tmp_path, capsys):
    trace = _carrier_trace(tmp_path / "carriers.pcap")
    (tmp_path / "short.pcap").write_bytes(b"\xd4\xc3\xb2\xa1")
    (tmp_path / "empty.bin").write_bytes(b"")
    (tmp_path / "engine.cfg").write_text("chunk_size = 0\n")
    # Without secret_b's flag, the only secret host left sits behind gw_a.
    one_side = TOPOLOGY.replace("ip = 10.0.2.3\nsecret = true\n", "ip = 10.0.2.3\n")
    assert one_side != TOPOLOGY
    (tmp_path / "one_side.topo").write_text(one_side)
    fuse = ["fuse-trace", "--in", trace, "--out", str(tmp_path / "fused.pcap")]
    argv = {
        "not a pcap": ["extract-trace", "--in", str(tmp_path / "short.pcap")],
        "missing trace": ["extract-trace", "--in", str(tmp_path / "missing.pcap")],
        "missing payload file": fuse + ["--payload-file", str(tmp_path / "missing.bin")],
        "empty payload file": fuse + ["--payload-file", str(tmp_path / "empty.bin")],
        "zero chunk size": fuse + ["--config", str(tmp_path / "engine.cfg")],
        "one secret side": ["simulate", "--topology", str(tmp_path / "one_side.topo"),
                            "--payload", "100", "--duration", "1"],
    }[case]
    assert main(argv) == code
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "fused.pcap").exists()


def test_extract_on_unfused_trace_recovers_nothing(tmp_path, capsys):
    trace = _carrier_trace(tmp_path / "plain.pcap", count=5)
    rc = main(["extract-trace", "--in", str(trace)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "recovered 0 octets" in captured.out


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag, field", [
    ("--encrypt", "encryption"),
    ("--allow-augmented", "augmented_allowed"),
    ("--preserve-icmp-ts", "preserve_icmp_timestamp"),
])
def test_engine_flags_land_in_the_config(flag, field):
    args = build_parser().parse_args(["simulate", "--topology", "t.topo", flag])
    config = _engine_config_from_args(args)
    assert getattr(config, field) is True
    assert replace(config, **{field: False}) == EngineConfig()
