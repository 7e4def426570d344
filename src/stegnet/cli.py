"""Command line front end.

Four tools share one executable:

    simulate       run a topology with covert traffic, write a report
    calibrate      place one handler's cost from simulated transfers
    fuse-trace     embed a payload into the carriers of a capture file
    extract-trace  recover the payload from a fused capture file

Exit codes: 0 success; 2 bad workload or engine configuration, an
unreadable payload or capture, a capture that is not Ethernet, or an
unwritable output; 3 bad topology; 4 unknown handler id; 5 the carrier
trace cannot hold the payload.  argparse usage errors also exit 2.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import random
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from . import trace as tr
from .calibration import CalibrationPlan, calibrate_handler
from .engine import CovertGateway, EngineConfig, _child_seed
from .handlers import STOCK_IDS, UnknownHandler, build_registry
from .report import SessionReport, _write_atomic, render_report
from .scenarios import calibration_report, run_transfer, simulation_runner
from .simnet import MICROS, Simulation, parse_workload
from .topology import (KIND_CGATEWAY, ConfigError, Topology, load_topology, parse_bool, parse_float, parse_int,
                       read_sections)

T = TypeVar("T")

EXIT_CONFIG = 2
EXIT_TOPOLOGY = 3
EXIT_HANDLER = 4
EXIT_CAPACITY = 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _parse_handler_list(text: str) -> Tuple[int, ...]:
    ids = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            ids.append(int(part, 0))
        except ValueError:
            raise CliError(EXIT_HANDLER, "handler id %r is not an integer" % part)
    if not ids:
        raise CliError(EXIT_CONFIG, "empty handler list")
    return tuple(ids)


def _parse_handler_setting(raw: str, line: int, what: str) -> Tuple[int, ...]:
    """An engine file's handler list; a bad one is a bad value on ``line``."""
    try:
        return _parse_handler_list(raw)
    except CliError as exc:
        raise ConfigError(line, str(exc)) from None


def _int_at_least(minimum: int, kind: str) -> Callable[[str], int]:
    """argparse type: an integer of at least ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("expected an integer, got %r" % text) from None
        if value < minimum:
            raise argparse.ArgumentTypeError("expected a %s integer, got %r" % (kind, text))
        return value

    return parse


_positive_int = _int_at_least(1, "positive")
_non_negative_int = _int_at_least(0, "non-negative")


def _duration(text: str) -> float:
    """argparse type: a finite number of seconds, at least one microsecond."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a number, got %r" % text) from None
    if not 1 <= value * MICROS < math.inf:
        raise argparse.ArgumentTypeError("expected a finite number of seconds, at least 0.000001, got %r" % text)
    return value


def _positive_int_list(text: str) -> Tuple[int, ...]:
    """argparse type: a non-empty comma separated list of positive integers."""
    values = tuple(_positive_int(part) for part in text.split(",") if part.strip())
    if not values:
        raise argparse.ArgumentTypeError("expected a comma separated list, got %r" % text)
    return values


# Engine file keys: the EngineConfig field each sets and its value parser.
_ENGINE_KEYS = {
    "handlers": ("enabled_handlers", _parse_handler_setting),
    "encryption": ("encryption", parse_bool),
    "augmented": ("augmented_allowed", parse_bool),
    "preserve_icmp_timestamp": ("preserve_icmp_timestamp", parse_bool),
    "augment_probability": ("augment_probability", parse_float),
    "seed": ("seed", parse_int),
    "chunk_size": ("chunk_size", parse_int),
    **{"cost.%d" % hid: ("cost_overrides", parse_float) for hid in STOCK_IDS},
}


def _engine_settings(text: str) -> Dict[str, object]:
    """EngineConfig keyword arguments from an engine file."""
    values: Dict[str, object] = {}
    costs: Dict[int, float] = {}
    for _, _, fields in read_sections(text, {"engine": _ENGINE_KEYS}, implicit="engine"):
        for key, (raw, line) in fields.items():
            name, parse = _ENGINE_KEYS[key]
            if name == "cost_overrides":
                costs[int(key[5:])] = parse(raw, line, key)
            else:
                values[name] = parse(raw, line, key)
    return dict(values, cost_overrides=costs)


def _read(path: str, what: str, exit_code: int, parse: Callable[[str], T]) -> T:
    """``parse`` applied to the text of ``path``.  A file that cannot be
    read or parsed exits with ``exit_code``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except (OSError, ValueError) as exc:
        raise CliError(exit_code, "%s %s: %s" % (what, path, exc)) from None


def _engine_config_from_args(args: argparse.Namespace) -> EngineConfig:
    """Config file first, command line flags override."""
    values = _read(args.config, "engine config", EXIT_CONFIG, _engine_settings) if args.config else {}
    if args.handler:
        values["enabled_handlers"] = _parse_handler_list(args.handler)
    if args.encrypt:
        values["encryption"] = True
    if args.allow_augmented:
        values["augmented_allowed"] = True
    if args.preserve_icmp_ts:
        values["preserve_icmp_timestamp"] = True
    if args.seed is not None:
        values["seed"] = args.seed
    config = EngineConfig(**values)
    try:
        config.validate()
        build_registry(config.enabled_handlers, config.cost_overrides,
                       config.preserve_icmp_timestamp)
    except UnknownHandler as exc:
        raise CliError(EXIT_HANDLER, str(exc))
    except ValueError as exc:
        raise CliError(EXIT_CONFIG, str(exc))
    return config


def _seeded_payload(size: int, seed: int) -> bytes:
    return random.Random(_child_seed("cli-payload", seed)).randbytes(size)


def _write(path: str, data: bytes) -> None:
    """Atomically replace ``path``; a failure exits 2."""
    try:
        _write_atomic(path, data)
    except OSError as exc:
        raise CliError(EXIT_CONFIG, "cannot write %s: %s" % (path, exc.strerror or exc)) from None


def _read_capture(path: str) -> tr.TraceFile:
    """An Ethernet capture; anything else exits 2."""
    try:
        capture = tr.read_trace(path)
    except (OSError, tr.TraceError) as exc:
        raise CliError(EXIT_CONFIG, "cannot read trace: %s" % exc) from None
    if capture.link_type != tr.LINKTYPE_ETHERNET:
        raise CliError(EXIT_CONFIG, "cannot read trace: link type %d is not Ethernet" % capture.link_type)
    return capture


def _emit_report(report: SessionReport, out: Optional[str]) -> None:
    if out:
        _write(out, render_report(report).encode("utf-8"))
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
            if topology.nodes[neighbor].kind == KIND_CGATEWAY:
                by_gateway.setdefault(neighbor, []).append(name)
                break
    gateways = sorted(by_gateway)
    if len(gateways) < 2:
        raise CliError(EXIT_TOPOLOGY, "need secret hosts behind two different gateways")
    return by_gateway[gateways[0]][0], by_gateway[gateways[1]][0]


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_simulate(args: argparse.Namespace) -> int:
    topology = _read(args.topology, "topology", EXIT_TOPOLOGY, load_topology)
    for warning in topology.warnings:
        print("warning: %s" % warning, file=sys.stderr)
    workload = _read(args.workload, "workload", EXIT_CONFIG, parse_workload) if args.workload else None
    config = _engine_config_from_args(args)
    sim = Simulation(topology, workload=workload, engine_config=config,
                     seed=config.seed, covert=not args.no_covert)
    horizon = int(args.duration * MICROS)
    transfer = None
    if args.payload > 0:
        transfer = run_transfer(sim, *_secret_pair(topology), args.payload, horizon)
    else:
        sim.run(horizon)

    report = SessionReport(scenario="simulate", seed=config.seed)
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
        raise CliError(EXIT_HANDLER, str(exc))
    plan = CalibrationPlan(
        sessions=args.sessions,
        bandwidth_levels=args.levels,
        payload_octets=args.payload,
    )
    result = calibrate_handler(
        simulation_runner(max_virtual_s=args.max_virtual_s),
        args.handler, plan=plan, seed=args.seed or 0,
    )
    print("handler %d carrier cost %.6f over %d runs"
          % (result.handler_id, result.cost, result.run_count))
    if args.out:
        _emit_report(calibration_report(result), args.out)
    return 0


def _trace_gateway(args: argparse.Namespace) -> CovertGateway:
    config = _engine_config_from_args(args)
    if config.encryption:
        raise CliError(EXIT_CONFIG, "trace tools are one-sided; encryption needs a live peer")
    return CovertGateway("trace", "peer", config=config)


def _cmd_fuse_trace(args: argparse.Namespace) -> int:
    gateway = _trace_gateway(args)
    if args.payload_file:
        try:
            payload = Path(args.payload_file).read_bytes()
        except OSError as exc:
            raise CliError(EXIT_CONFIG, "cannot read payload: %s" % exc)
    else:
        payload = _seeded_payload(args.payload, gateway.config.seed)
    if not payload:
        raise CliError(EXIT_CONFIG, "payload is empty")
    source = _read_capture(args.infile)

    gateway.enqueue_payload(payload)
    fused, tally = tr.fuse_records(gateway, source.records)
    leftover = gateway.pending_octets
    if leftover or not gateway.idle:
        raise CliError(EXIT_CAPACITY, "trace lacks capacity: %d payload octets left over" % leftover)
    _write(args.out, tr.write_trace(tr.TraceFile(records=fused, link_type=source.link_type)))
    counters = gateway.counters
    print("fused %d of %d carriers, excluded %d"
          % (counters["carriers_modified"], len(source.records), counters["carriers_excluded"]))
    _note_unparsed(tally.unparsed)
    print("payload octets %d  sha256 %s"
          % (len(payload), hashlib.sha256(payload).hexdigest()))
    print("sync octets %d  data octets %d"
          % (counters["sync_octets"], counters["data_octets"]))
    print("trace written to %s" % args.out)
    return 0


def _cmd_extract_trace(args: argparse.Namespace) -> int:
    gateway = _trace_gateway(args)
    source = _read_capture(args.infile)
    repaired, tally = tr.extract_records(gateway, source.records)
    payload = b"".join(tally.chunks)
    print("matched %d of %d carriers" % (tally.matched, len(source.records)))
    _note_unparsed(tally.unparsed)
    if tally.desyncs:
        print("desyncs %d" % tally.desyncs, file=sys.stderr)
    print("recovered %d octets in %d chunks  sha256 %s"
          % (len(payload), len(tally.chunks), hashlib.sha256(payload).hexdigest()))
    if args.out:
        _write(args.out, payload)
        print("payload written to %s" % args.out)
    if args.trace_out:
        _write(args.trace_out, tr.write_trace(tr.TraceFile(records=repaired, link_type=source.link_type)))
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
    sim.add_argument("--duration", type=_duration, default=30.0,
                     metavar="SECONDS", help="virtual time budget")
    sim.add_argument("--payload", type=_non_negative_int, default=1000, metavar="OCTETS",
                     help="covert transfer size, 0 to disable")
    sim.add_argument("--no-covert", action="store_true",
                     help="forward traffic without covert processing")
    sim.add_argument("--out", metavar="FILE", help="write the report here")
    _add_engine_flags(sim)
    sim.set_defaults(func=_cmd_simulate)

    cal = sub.add_parser("calibrate", help="measure one handler's carrier cost")
    cal.add_argument("--handler", type=int, required=True, metavar="ID")
    cal.add_argument("--sessions", type=_positive_int, default=6)
    cal.add_argument("--levels", type=_positive_int_list, default=CalibrationPlan.bandwidth_levels, metavar="LIST",
                     help="comma separated workload budgets (octets/s)")
    cal.add_argument("--payload", type=_positive_int, default=4000, metavar="OCTETS")
    cal.add_argument("--max-virtual-s", type=_positive_int, default=60,
                     help="virtual horizon per run")
    cal.add_argument("--seed", type=int)
    cal.add_argument("--out", metavar="FILE", help="write the sweep report here")
    cal.set_defaults(func=_cmd_calibrate)

    fuse = sub.add_parser("fuse-trace", help="embed a payload into a capture")
    fuse.add_argument("--in", dest="infile", required=True, metavar="PCAP")
    fuse.add_argument("--out", required=True, metavar="PCAP")
    group = fuse.add_mutually_exclusive_group()
    group.add_argument("--payload", type=_positive_int, default=256, metavar="OCTETS",
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
