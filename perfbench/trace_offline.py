"""Workload ``trace_offline``: the fuse-trace / extract-trace user path
over one long synthetic capture.

Each pass is one gateway-pair session over the whole capture, the two
CLI commands back to back: parse, fuse and serialize every record,
write the fused capture, read it back, then parse, extract and
serialize every record and write the repaired capture.  Everything
stays in memory.  Handlers 1, 2 and 4 are on and nothing is encrypted,
so the work is per-carrier packet, handler, wire and engine code.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
from time import perf_counter

from stegnet import packet as pk
from stegnet import trace as tr
from stegnet.cli import main as cli_main
from stegnet.engine import CovertGateway, DesyncError, EngineConfig

from common import OUT_DIR, Phase, Stopwatch, Times, digest

HANDLERS = (1, 2, 4)
# Carriers per timed slice (see common.QuietCore).
BLOCK = 256
NODE, PEER = "trace", "peer"


class TraceOffline:
    setup_reps = 15

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        carriers = 800 if smoke else 16_000
        # About 25 payload octets fit per carrier of this mix; 15 keeps
        # the payload well inside capacity for every seed.
        capture = tr.synthesize_mixed_trace(carriers, seed=seed)
        self.capture_blob = tr.write_trace(capture)
        self.payload = random.Random(seed).randbytes(15 * carriers)
        self.config = EngineConfig(enabled_handlers=HANDLERS, seed=seed)
        self.chunks = [self.payload[i:i + self.config.chunk_size]
                       for i in range(0, len(self.payload), self.config.chunk_size)]
        if smoke:
            self.setup_reps = 1

    def _pair(self):
        return (CovertGateway(NODE, PEER, config=self.config),
                CovertGateway(NODE, PEER, config=self.config))

    def setup(self, rep: int, watch: Stopwatch):
        """What a fresh process pays before the first carrier: reading
        the capture and building the gateway pair, one slice each."""
        return watch.call(tr.read_trace, self.capture_blob), watch.call(self._pair)

    def measure(self, state, seconds: float, quiet, tracer=None) -> Phase:
        source, pair = state
        phase = Phase()
        while phase.more(seconds):
            phase.begin_unit(tracer)
            watch = Stopwatch(quiet)
            self._pass(phase, source, pair, watch, tracer)
            phase.end_unit(watch)
            pair = None
        return phase

    def _start(self, pair):
        sender, receiver = pair if pair is not None else self._pair()
        sender.enqueue_payload(self.payload)
        return sender, receiver

    @staticmethod
    def _write_read(records, link_type: int):
        blob = tr.write_trace(tr.TraceFile(records=records, link_type=link_type))
        return tr.read_trace(blob), blob

    def _pass(self, phase: Phase, source: tr.TraceFile, pair, watch: Stopwatch, tracer) -> None:
        records = source.records
        n = len(records)
        fuse = Times()

        sender, receiver = watch.call(self._start, pair)
        fused = []
        for block in range(0, n, BLOCK):
            factor = watch.slice()
            for i in range(block, min(block + BLOCK, n)):
                record = records[i]
                t0 = perf_counter()
                carrier, _ = sender.fuse(pk.parse_packet(record.data))
                data = pk.serialize_packet(carrier)
                fuse.raw.append(perf_counter() - t0)
                fused.append(pk.RawPacket(data=data, capture_time_us=record.capture_time_us))
            fuse.rescale_from(block, factor)
            watch.add(sum(fuse.raw[block:]))
        received, fused_blob = watch.call(self._write_read, fused, source.link_type)
        leftover = sender.pending_octets

        repaired, chunks, bad_checksums, desyncs = [], [], 0, 0
        for i, record in enumerate(received.records):
            if i % BLOCK == 0:
                factor = watch.slice()
            t0 = perf_counter()
            try:
                carrier, secrets, _ = receiver.extract(pk.parse_packet(record.data))
            except DesyncError as exc:
                carrier, secrets = exc.forwarded, []
                desyncs += 1
            data = pk.serialize_packet(carrier)
            elapsed = perf_counter() - t0
            watch.add(elapsed)
            phase.carriers.add(fuse.raw[i] + elapsed, fuse.scaled[i] + elapsed * factor)
            chunks.extend(secrets)
            repaired.append(pk.RawPacket(data=data, capture_time_us=record.capture_time_us))
            if tracer is not None:
                tracer.enabled = False
            if not pk.validate_checksums(carrier):
                bad_checksums += 1
            if tracer is not None:
                tracer.enabled = True
        repaired_blob = watch.call(tr.write_trace, tr.TraceFile(records=repaired, link_type=received.link_type))

        good = sum(1 for got, want in zip(chunks, self.chunks) if got == want)
        wrong = len(self.chunks) - good + max(0, len(chunks) - len(self.chunks))
        phase.attempted += n + len(self.chunks)
        phase.desyncs += desyncs
        if leftover:
            phase.fail(0, "pass %d: %d payload octets did not fit the capture" % (phase.units, leftover))
        if desyncs:
            phase.fail(desyncs, "pass %d: %d desyncs" % (phase.units, desyncs))
        if bad_checksums:
            phase.fail(bad_checksums, "pass %d: %d repaired carriers fail validate_checksums"
                       % (phase.units, bad_checksums))
        if wrong:
            phase.fail(wrong, "pass %d: %d secret packets wrong or missing" % (phase.units, wrong))
        phase.secret_octets += sum(len(c) for c, want in zip(chunks, self.chunks) if c == want)

        fused_sha, repaired_sha = digest(fused_blob), digest(repaired_blob)
        if phase.units == 0:
            phase.fingerprint = {
                "fused_pcap_sha256": fused_sha,
                "repaired_pcap_sha256": repaired_sha,
                "recovered_sha256": digest(*chunks),
                "sender_counters": dict(sender.counters),
                "receiver_counters": dict(receiver.counters),
            }
            phase.first_unit = {
                "counters": [dict(sender.counters)],
                "calls": tracer.calls() if tracer is not None else {},
            }
            phase.extra["fused_blob"] = fused_blob
            phase.extra["repaired_blob"] = repaired_blob
        elif (fused_sha, repaired_sha) != (phase.fingerprint["fused_pcap_sha256"],
                                           phase.fingerprint["repaired_pcap_sha256"]):
            phase.fail(1, "pass %d produced different capture bytes than pass 0" % phase.units)

    def cross_check(self, phase: Phase) -> None:
        """The stegnet CLI on the same capture and payload must write the
        bytes the benchmark's own loop wrote.  Runs outside timing."""
        work = OUT_DIR / ("cli-check-%d" % os.getpid())
        work.mkdir(parents=True, exist_ok=True)
        try:
            capture, payload = work / "capture.pcap", work / "payload.bin"
            fused, recovered, repaired = work / "fused.pcap", work / "recovered.bin", work / "repaired.pcap"
            capture.write_bytes(self.capture_blob)
            payload.write_bytes(self.payload)
            common = ["--handler", ",".join(map(str, HANDLERS)), "--seed", str(self.seed)]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                fuse_code = cli_main(["fuse-trace", "--in", str(capture), "--out", str(fused),
                                      "--payload-file", str(payload)] + common)
                extract_code = cli_main(["extract-trace", "--in", str(fused), "--out", str(recovered),
                                         "--trace-out", str(repaired)] + common) if fuse_code == 0 else None
            checks = [
                ("fuse-trace exit code", fuse_code == 0),
                ("extract-trace exit code", extract_code == 0),
                ("fused capture bytes", fused.exists() and fused.read_bytes() == phase.extra["fused_blob"]),
                ("recovered payload", recovered.exists() and recovered.read_bytes() == self.payload),
                ("repaired capture bytes",
                 repaired.exists() and repaired.read_bytes() == phase.extra["repaired_blob"]),
            ]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        phase.attempted += len(checks)
        for what, ok in checks:
            if not ok:
                phase.fail(1, "CLI cross-check: %s differs from the benchmark loop" % what)
