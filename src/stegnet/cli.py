"""Command line front end.

Four tools share one executable:

    simulate       run a topology with covert traffic, write a report
    calibrate      place one handler's cost from simulated transfers
    fuse-trace     embed a payload into the carriers of a capture file
    extract-trace  recover the payload from a fused capture file

Exit codes: 0 success, 2 bad workload or engine configuration, 3 bad
topology, 4 unknown handler id, 5 the carrier trace cannot hold the
payload.  argparse usage errors also exit 2.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from . import packet as pk
from . import trace as tr
from .calibration import CalibrationPlan, calibrate_handler
from .engine import CovertGateway, DesyncError, EngineConfig, _child_seed
from .handlers import UnknownHandler, build_registry
from .report import SessionReport, _write_atomic, render_report, write_report
from .scenarios import calibration_report, simulation_runner
from .simnet import MICROS, Simulation, WorkloadSpec, parse_workload
from .topology import ConfigError, InvalidTopology, Topology, _parse_bool, load_topology

EXIT_CONFIG = 2
EXIT_TOPOLOGY = 3
EXIT_HANDLER = 4
EXIT_CAPACITY = 5

# Engine file keys whose EngineConfig field has another name.
_CONFIG_FIELDS = {"handlers": "enabled_handlers", "augmented": "augmented_allowed"}


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _fail(code: int, message: str) -> "CliError":
    return CliError(code, message)


def _parse_handler_list(text: str) -> Tuple[int, ...]:
    ids = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            ids.append(int(part, 0))
        except ValueError:
            raise _fail(EXIT_HANDLER, "handler id %r is not an integer" % part)
    if not ids:
        raise _fail(EXIT_CONFIG, "empty handler list")
    return tuple(ids)


def _load_engine_file(path: str) -> Dict[str, object]:
    """key = value engine settings, optional [engine] section header."""
    try:
        text = open(path, "r", encoding="utf-8").read()
    except OSError as exc:
        raise _fail(EXIT_CONFIG, "cannot read engine config: %s" % exc)
    values: Dict[str, object] = {}
    costs: Dict[int, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line != "[engine]":
                raise _fail(EXIT_CONFIG, "line %d: unknown section %s" % (lineno, line))
            continue
        if "=" not in line:
            raise _fail(EXIT_CONFIG, "line %d: expected key = value" % lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key == "handlers":
                values[key] = _parse_handler_list(value)
            elif key in ("encryption", "augmented", "preserve_icmp_timestamp"):
                values[key] = _parse_bool(value, lineno)
            elif key == "augment_probability":
                values[key] = float(value)
            elif key in ("seed", "chunk_size"):
                values[key] = int(value, 0)
            elif key.startswith("cost."):
                costs[int(key[5:], 0)] = float(value)
            else:
                raise _fail(EXIT_CONFIG, "line %d: unknown engine key %r" % (lineno, key))
        except ValueError:
            raise _fail(EXIT_CONFIG, "line %d: bad value %r for %s" % (lineno, value, key))
    if costs:
        values["cost_overrides"] = costs
    return values


def _engine_config_from_args(args: argparse.Namespace) -> EngineConfig:
    """Config file first, command line flags override."""
    values: Dict[str, object] = {}
    if getattr(args, "config", None):
        values.update(_load_engine_file(args.config))
    if getattr(args, "handler", None):
        values["handlers"] = _parse_handler_list(args.handler)
    if getattr(args, "encrypt", False):
        values["encryption"] = True
    if getattr(args, "allow_augmented", False):
        values["augmented"] = True
    if getattr(args, "preserve_icmp_ts", False):
        values["preserve_icmp_timestamp"] = True
    if getattr(args, "seed", None) is not None:
        values["seed"] = args.seed
    config = EngineConfig(**{_CONFIG_FIELDS.get(key, key): value for key, value in values.items()})
    try:
        config.validate()
        build_registry(config.enabled_handlers, config.cost_overrides,
                       config.preserve_icmp_timestamp)
    except UnknownHandler as exc:
        raise _fail(EXIT_HANDLER, str(exc))
    except ValueError as exc:
        raise _fail(EXIT_CONFIG, str(exc))
    return config


def _load_topology(path: str) -> Topology:
    try:
        return load_topology(path)
    except OSError as exc:
        raise _fail(EXIT_TOPOLOGY, "cannot read topology: %s" % exc)
    except ConfigError as exc:
        raise _fail(EXIT_TOPOLOGY, "topology line %s: %s" % (exc.line, exc))
    except InvalidTopology as exc:
        raise _fail(EXIT_TOPOLOGY, str(exc))


def _load_workload(path: Optional[str]) -> Optional[WorkloadSpec]:
    if not path:
        return None
    try:
        return parse_workload(open(path, "r", encoding="utf-8").read())
    except OSError as exc:
        raise _fail(EXIT_CONFIG, "cannot read workload: %s" % exc)
    except (ConfigError, ValueError) as exc:
        raise _fail(EXIT_CONFIG, "workload: %s" % exc)


def _seeded_payload(size: int, seed: int) -> bytes:
    return random.Random(_child_seed("cli-payload", seed)).randbytes(size)


def _emit_report(report: SessionReport, out: Optional[str]) -> None:
    if out:
        write_report(report, out)
        print("report written to %s" % out)
    else:
        sys.stdout.write(render_report(report))


def _note_unparsed(count: int) -> None:
    if count:
        print("unparseable frames %d, copied unchanged" % count)


def _secret_pair(topology: Topology) -> Tuple[str, str]:
    """First covert source/destination pair on opposite gateway sides."""
    by_gateway: Dict[str, List[str]] = {}
    for name in sorted(topology.nodes):
        node = topology.nodes[name]
        if not node.secret:
            continue
        for neighbor in topology.neighbors(name):
            if topology.nodes[neighbor].kind == "cgateway":
                by_gateway.setdefault(neighbor, []).append(name)
                break
    gateways = sorted(by_gateway)
    if len(gateways) < 2:
        raise _fail(EXIT_TOPOLOGY,
                    "need secret hosts behind two different gateways")
    return by_gateway[gateways[0]][0], by_gateway[gateways[1]][0]


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_simulate(args: argparse.Namespace) -> int:
    topology = _load_topology(args.topology)
    workload = _load_workload(args.workload)
    config = _engine_config_from_args(args)
    sim = Simulation(topology, workload=workload, engine_config=config,
                     seed=args.seed or 0, covert=not args.no_covert)
    transfer = None
    if args.payload > 0:
        src, dst = _secret_pair(topology)
        transfer = sim.add_bulk_transfer(src, dst, args.payload)
    horizon = int(args.duration * MICROS)
    if transfer is not None:
        sim.run_until(lambda: transfer.delivered_octets >= args.payload, horizon)
    else:
        sim.run(horizon)

    report = SessionReport(scenario="simulate", seed=args.seed or 0)
    report.fields["topology"] = os.path.basename(args.topology)
    report.fields["virtual_us"] = sim.now
    if transfer is not None:
        report.fields["payload_octets"] = args.payload
        report.fields["delivered_octets"] = transfer.delivered_octets
        report.fields["payload_sha256"] = transfer.sent_digest
        report.fields["delivered_sha256"] = transfer.delivered_digest
        duration = transfer.finished_us or sim.now
        report.fields["transfer_us"] = duration
        if duration:
            report.fields["throughput_oct_s"] = round(
                transfer.delivered_octets * MICROS / duration, 3)
    report.fields["desyncs"] = sim.desync_count
    monitors = sim.monitor_totals()
    report.fields["monitor_drops"] = monitors.rule_drops + monitors.default_drops + monitors.nat_drops
    report.fields["monitor_checksum_anomalies"] = monitors.checksum_anomalies
    for name in sorted(sim.gateways):
        counters = sim.gateways[name].counters
        report.add_row(
            gateway=name,
            carriers_seen=counters["carriers_seen"],
            carriers_modified=counters["carriers_modified"],
            carriers_excluded=counters["carriers_excluded"],
            sync_octets=counters["sync_octets"],
            data_octets=counters["data_octets"],
            secret_octets_sent=counters["secret_octets_sent"],
            secret_octets_delivered=counters["secret_octets_delivered"],
        )
    _emit_report(report, args.out)
    if transfer is not None and transfer.delivered_octets < args.payload:
        print("warning: transfer incomplete (%d of %d octets)"
              % (transfer.delivered_octets, args.payload), file=sys.stderr)
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    try:
        build_registry((args.handler,))
    except UnknownHandler as exc:
        raise _fail(EXIT_HANDLER, str(exc))
    levels = CalibrationPlan.bandwidth_levels
    if args.levels:
        levels = tuple(int(x) for x in args.levels.split(",") if x.strip())
    plan = CalibrationPlan(
        sessions=args.sessions,
        bandwidth_levels=levels,
        payload_octets=args.payload,
    )
    result = calibrate_handler(
        simulation_runner(max_virtual_s=args.max_virtual_s),
        args.handler, plan=plan, seed=args.seed or 0,
    )
    print("handler %d carrier cost %.6f over %d runs"
          % (result.handler_id, result.cost, result.run_count))
    if args.out:
        write_report(calibration_report(result), args.out)
        print("report written to %s" % args.out)
    return 0


def _trace_gateway(args: argparse.Namespace) -> CovertGateway:
    config = _engine_config_from_args(args)
    if config.encryption:
        raise _fail(EXIT_CONFIG,
                    "trace tools are one-sided; encryption needs a live peer")
    return CovertGateway("trace", "peer", config=config)


def _cmd_fuse_trace(args: argparse.Namespace) -> int:
    gateway = _trace_gateway(args)
    if args.payload_file:
        try:
            payload = open(args.payload_file, "rb").read()
        except OSError as exc:
            raise _fail(EXIT_CONFIG, "cannot read payload: %s" % exc)
    else:
        payload = _seeded_payload(args.payload, args.seed or 0)
    if not payload:
        raise _fail(EXIT_CONFIG, "payload is empty")
    try:
        source = tr.read_trace(args.infile)
    except (OSError, tr.TraceError) as exc:
        raise _fail(EXIT_CONFIG, "cannot read trace: %s" % exc)

    gateway.enqueue_payload(payload)
    fused: List[pk.RawPacket] = []
    carrying = excluded = unparsed = 0
    for record in source.records:
        try:
            carrier = pk.parse_packet(record.data)
        except pk.PacketError:
            unparsed += 1
            fused.append(record)
            continue
        carrier, stats = gateway.fuse(carrier)
        if stats.excluded:
            excluded += 1
        elif stats.modified:
            carrying += 1
        fused.append(pk.RawPacket(pk.serialize_packet(carrier), record.capture_time_us))
    leftover = gateway.pending_octets
    if leftover or not gateway.idle:
        raise _fail(EXIT_CAPACITY,
                    "trace lacks capacity: %d payload octets left over" % leftover)
    tr.write_trace(tr.TraceFile(records=fused, link_type=source.link_type), args.out)
    counters = gateway.counters
    print("fused %d of %d carriers, stamped %d idle matches excluded"
          % (carrying, len(source.records), excluded))
    _note_unparsed(unparsed)
    print("payload octets %d  sha256 %s"
          % (len(payload), hashlib.sha256(payload).hexdigest()))
    print("sync octets %d  data octets %d"
          % (counters["sync_octets"], counters["data_octets"]))
    print("trace written to %s" % args.out)
    return 0


def _cmd_extract_trace(args: argparse.Namespace) -> int:
    gateway = _trace_gateway(args)
    try:
        source = tr.read_trace(args.infile)
    except (OSError, tr.TraceError) as exc:
        raise _fail(EXIT_CONFIG, "cannot read trace: %s" % exc)
    chunks: List[bytes] = []
    repaired_records: List[pk.RawPacket] = []
    matched = desyncs = unparsed = 0
    for record in source.records:
        try:
            carrier = pk.parse_packet(record.data)
        except pk.PacketError:
            unparsed += 1
            repaired_records.append(record)
            continue
        try:
            repaired, packets, stats = gateway.extract(carrier)
        except DesyncError as exc:
            desyncs += 1
            repaired = exc.forwarded
            packets = []
            stats = None
        if stats is not None and stats.matched:
            matched += 1
        chunks.extend(packets)
        repaired_records.append(pk.RawPacket(pk.serialize_packet(repaired), record.capture_time_us))
    payload = b"".join(chunks)
    print("matched %d of %d carriers" % (matched, len(source.records)))
    _note_unparsed(unparsed)
    if desyncs:
        print("desyncs %d" % desyncs, file=sys.stderr)
    print("recovered %d octets in %d chunks  sha256 %s"
          % (len(payload), len(chunks), hashlib.sha256(payload).hexdigest()))
    if args.out:
        _write_atomic(args.out, payload)
        print("payload written to %s" % args.out)
    if args.trace_out:
        tr.write_trace(tr.TraceFile(records=repaired_records,
                                    link_type=source.link_type), args.trace_out)
        print("repaired trace written to %s" % args.trace_out)
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="engine settings file (key = value)")
    parser.add_argument("--handler", metavar="IDS",
                        help="comma separated handler ids to enable")
    parser.add_argument("--encrypt", action="store_true",
                        help="encrypt the covert stream")
    parser.add_argument("--allow-augmented", action="store_true",
                        help="permit handlers that need correction traffic")
    parser.add_argument("--preserve-icmp-ts", action="store_true",
                        help="keep the first eight echo payload octets intact")
    parser.add_argument("--seed", type=int, help="run seed; overrides the config file (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stegnet",
        description="covert channel gateways, trace tools, and a network simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a topology and report")
    sim.add_argument("--topology", required=True, metavar="FILE")
    sim.add_argument("--workload", metavar="FILE", help="workload settings file")
    sim.add_argument("--duration", type=float, default=30.0,
                     metavar="SECONDS", help="virtual time budget")
    sim.add_argument("--payload", type=int, default=1000, metavar="OCTETS",
                     help="covert transfer size, 0 to disable")
    sim.add_argument("--no-covert", action="store_true",
                     help="forward traffic without covert processing")
    sim.add_argument("--out", metavar="FILE", help="write the report here")
    _add_engine_flags(sim)
    sim.set_defaults(func=_cmd_simulate)

    cal = sub.add_parser("calibrate", help="measure one handler's carrier cost")
    cal.add_argument("--handler", type=int, required=True, metavar="ID")
    cal.add_argument("--sessions", type=int, default=6)
    cal.add_argument("--levels", metavar="LIST",
                     help="comma separated workload budgets (octets/s)")
    cal.add_argument("--payload", type=int, default=4000, metavar="OCTETS")
    cal.add_argument("--max-virtual-s", type=int, default=60,
                     help="virtual horizon per run")
    cal.add_argument("--seed", type=int)
    cal.add_argument("--out", metavar="FILE", help="write the sweep report here")
    cal.set_defaults(func=_cmd_calibrate)

    fuse = sub.add_parser("fuse-trace", help="embed a payload into a capture")
    fuse.add_argument("--in", dest="infile", required=True, metavar="PCAP")
    fuse.add_argument("--out", required=True, metavar="PCAP")
    group = fuse.add_mutually_exclusive_group()
    group.add_argument("--payload", type=int, default=256, metavar="OCTETS",
                       help="embed this many seeded random octets")
    group.add_argument("--payload-file", metavar="FILE",
                       help="embed this file's bytes instead")
    _add_engine_flags(fuse)
    fuse.set_defaults(func=_cmd_fuse_trace)

    ext = sub.add_parser("extract-trace", help="recover a payload from a capture")
    ext.add_argument("--in", dest="infile", required=True, metavar="PCAP")
    ext.add_argument("--out", metavar="FILE", help="write recovered bytes here")
    ext.add_argument("--trace-out", metavar="PCAP",
                     help="write the repaired carrier trace here")
    _add_engine_flags(ext)
    ext.set_defaults(func=_cmd_extract_trace)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
