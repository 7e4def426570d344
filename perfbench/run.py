"""stegnet benchmark: three in-process workloads, end-to-end metrics
untraced and per-layer metrics from a traced run.

    python3 perfbench/run.py --workload trace_offline --seed 1 --seconds 10 --trace 0

Run it from a checkout that holds ``src/stegnet``; it imports that
copy and nothing installed.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run measures half its time untraced and half traced
and reports the per-layer ones.  The run's metadata, determinism
fingerprint and result also land in ``perfbench/out/``, and a traced
run writes its spans there.

A correctness failure prints the result with ``correct`` false and
exits with code 1.  ``--smoke`` shrinks every workload to a few
seconds, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

from common import (OUT_DIR, QuietCore, Stopwatch, Times, excluded_share, fingerprint_digest, median,
                    metadata, peak_rss_mb, quantile, sync_share, write_json)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Fresh imports of stegnet timed per run; setup_s counts their median.
IMPORT_REPS = 7
EXIT_FAILED = 1
EXIT_NO_PROGRAM = 2


def _import_program(quiet, reps: int):
    """Import stegnet from ``src/`` of this checkout ``reps`` times, each
    time afresh; return the time of each import and the file the CLI
    module came from."""
    if not (SRC / "stegnet" / "__init__.py").is_file():
        print("perfbench: no stegnet sources under %s" % SRC, file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    times = Times()
    for _ in range(reps):
        for name in [m for m in sys.modules if m == "stegnet" or m.startswith("stegnet.")]:
            del sys.modules[name]
        watch = Stopwatch(quiet)
        # stegnet.cli pulls in every module.
        watch.call(importlib.import_module, "stegnet.cli")
        times.add(watch.raw_s, watch.scaled_s)
    return times, sys.modules["stegnet.cli"].__file__


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(scaled: bool, imports: Times, setup: Times, phase, rss_mb: float) -> dict:
    """End-to-end metrics from the times as rescaled by the quiet-core
    speed factor of their slices, or as measured."""
    carriers, sessions = phase.carriers.view(scaled), phase.sessions.view(scaled)
    return {
        "setup_s": _metric(median(imports.view(scaled)) + median(setup.view(scaled)), "s"),
        "secret_goodput_Bps": _metric(phase.goodput(scaled), "octets/s"),
        "carrier_us_p50": _metric(quantile(carriers, 0.50) * 1e6, "us"),
        "carrier_us_p99": _metric(quantile(carriers, 0.99) * 1e6, "us"),
        "session_ms_p50": _metric(quantile(sessions, 0.50) * 1e3, "ms"),
        "session_ms_p90": _metric(quantile(sessions, 0.90) * 1e3, "ms"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }


def per_layer(scaled: bool, quiet, tracer, setup_calls, keygen_s: float, plain, traced,
              attempted: int, failed: int) -> dict:
    """Per-layer metrics of a traced run.  Times per call are means over
    the traced setup and phase; counts cover the first unit of work of
    the traced phase, so they repeat exactly.  When ``scaled``, span
    times are rescaled by the run's mean quiet-core factor and phase
    times by their slices' factors."""
    st = tracer.stat
    factor = quiet.mean_factor() if scaled else 1.0

    def self_per_call(name: str, scale: float) -> float:
        stat = st(name)
        return stat.self_s / stat.calls * scale * factor if stat.calls else 0.0

    def per_call(name: str, scale: float) -> float:
        stat = st(name)
        return stat.total_s / stat.calls * scale * factor if stat.calls else 0.0

    unit_calls = {name: n - setup_calls.get(name, 0) for name, n in traced.first_unit["calls"].items()}
    counters = traced.first_unit["counters"]
    stream = st("crypto.stream")
    hops = traced.first_unit.get("hops", 0)
    # Tracing's cost: the traced phase's untraced units against its
    # traced ones (the untraced phase when it ran a single unit).
    traced_units = sum(traced.unit_traced)
    if traced.units > traced_units:
        plain_goodput = traced.goodput(scaled, traced=False)
    else:
        plain_goodput = plain.goodput(scaled)
    traced_goodput = traced.goodput(scaled, traced=True)
    return {
        "packet.parse_us": _metric(self_per_call("packet.parse", 1e6), "us"),
        "packet.serialize_us": _metric(self_per_call("packet.serialize", 1e6), "us"),
        "packet.build_us": _metric(self_per_call("packet.build", 1e6), "us"),
        "packet.checksum_us": _metric(self_per_call("packet.checksum", 1e6), "us"),
        "packet.parse_calls": _metric(unit_calls.get("packet.parse", 0), "count"),
        "packet.build_calls": _metric(unit_calls.get("packet.build", 0), "count"),
        "engine.fuse_self_us": _metric(self_per_call("engine.fuse", 1e6), "us"),
        "engine.extract_self_us": _metric(self_per_call("engine.extract", 1e6), "us"),
        "engine.desyncs": _metric(plain.desyncs + traced.desyncs, "count"),
        "handlers.match_us": _metric(self_per_call("handlers.match", 1e6), "us"),
        "handlers.select_us": _metric(self_per_call("handlers.select", 1e6), "us"),
        "handlers.build_registry_ms": _metric(per_call("handlers.build_registry", 1e3), "ms"),
        "handlers.build_registry_calls": _metric(unit_calls.get("handlers.build_registry", 0), "count"),
        "crypto.keygen_s": _metric(keygen_s * factor, "s"),
        "crypto.rsa_decrypt_ms": _metric(per_call("crypto.rsa_decrypt", 1e3), "ms"),
        "crypto.rsa_encrypt_ms": _metric(per_call("crypto.rsa_encrypt", 1e3), "ms"),
        "crypto.stream_us_per_kB": _metric(
            stream.total_s * factor * 1e6 / (stream.octets / 1000) if stream.octets else 0.0, "us/kB"),
        "trace.read_s": _metric(per_call("trace.read", 1.0), "s"),
        "trace.write_s": _metric(per_call("trace.write", 1.0), "s"),
        "topology.load_ms": _metric(per_call("topology.load", 1e3), "ms"),
        "simnet.init_s": _metric(per_call("simnet.init", 1.0), "s"),
        "simnet.run_self_s": _metric(st("simnet.run").self_s * factor / traced_units if hops else 0.0,
                                     "s"),
        "simnet.hops": _metric(hops, "count"),
        "simnet.hops_per_s": _metric(plain.extra.get("hops", 0) / plain.busy_s(scaled), "1/s"),
        "wire.sync_share": _metric(sync_share(counters), "ratio"),
        "wire.excluded_share": _metric(excluded_share(counters), "ratio"),
        "error_rate": _metric(failed / attempted, "ratio"),
        "tracing.goodput_untraced_Bps": _metric(plain_goodput, "octets/s"),
        "tracing.goodput_traced_Bps": _metric(traced_goodput, "octets/s"),
        "tracing.slowdown": _metric(plain_goodput / traced_goodput if traced_goodput else 0.0, "ratio"),
    }


def run(argv=None) -> dict:
    """Run one benchmark invocation; returns the full record (the
    printed result is its ``result`` entry)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("trace_offline", "sim_crowd", "sessions_mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = parser.parse_args(argv)

    # Smoke runs check behaviour, not speed: they never wait.
    quiet = QuietCore(budget_s=0.0 if args.smoke else QuietCore.BUDGET_S)
    imports, cli_file = _import_program(quiet, 1 if args.smoke else IMPORT_REPS)
    if Path(cli_file).resolve().parent != (SRC / "stegnet").resolve():
        print("perfbench: imported stegnet from %s, not from this checkout" % cli_file, file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    from sessions_mixed import SessionsMixed
    from sim_crowd import SimCrowd
    from trace_offline import TraceOffline
    from tracing import Tracer

    factory = {"trace_offline": TraceOffline, "sim_crowd": SimCrowd, "sessions_mixed": SessionsMixed}
    workload = factory[args.workload](args.seed, smoke=args.smoke)

    setup, state = Times(), None
    for rep in range(workload.setup_reps):
        state = None
        watch = Stopwatch(quiet)
        state = workload.setup(rep, watch)
        setup.add(watch.raw_s, watch.scaled_s)

    plain = workload.measure(state, args.seconds / 2 if args.trace else args.seconds, quiet)
    state = None
    if hasattr(workload, "cross_check"):
        workload.cross_check(plain)
    phases = [plain]

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_state = workload.setup(workload.setup_reps, Stopwatch(quiet))
            setup_calls = tracer.calls()
            keygen_s = tracer.stat("crypto.keygen").total_s
            traced = workload.measure(traced_state, args.seconds / 2, quiet, tracer)
        finally:
            tracer.remove()
        traced_state = None
        phases.append(traced)
        if traced.fingerprint != plain.fingerprint:
            traced.fail(1, "traced phase fingerprint differs from the untraced one")

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    correct = failed == 0 and all(not p.messages for p in phases)
    if args.trace:
        metrics, raw_metrics = (per_layer(scaled, quiet, tracer, setup_calls, keygen_s, plain, traced,
                                          attempted, failed) for scaled in (True, False))
    else:
        rss_mb = peak_rss_mb()
        metrics, raw_metrics = (end_to_end(scaled, imports, setup, plain, rss_mb) for scaled in (True, False))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    fingerprint = dict(plain.fingerprint, digest=fingerprint_digest(plain.fingerprint))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "metadata": metadata(),
        "fingerprint": fingerprint,
        "units": [p.units for p in phases],
        "failures": [m for p in phases for m in p.messages],
        "setup_s_reps": {"scaled": list(setup.scaled), "raw": list(setup.raw)},
        "import_s_reps": {"scaled": list(imports.scaled), "raw": list(imports.raw)},
        "quiet_core": quiet.summary(),
        "result": result,
        # The same metrics from the times as measured, before rescaling.
        "raw_metrics": raw_metrics,
    }
    stem = "%s_seed%d_trace%d%s" % (args.workload, args.seed, args.trace, "_smoke" if args.smoke else "")
    write_json(OUT_DIR / ("BENCH_%s.json" % stem), record)
    if tracer is not None:
        tracer.write_spans(OUT_DIR / ("spans_%s.tsv" % stem))
    return record


def main(argv=None) -> int:
    record = run(argv)
    for message in record["failures"]:
        print("perfbench: FAILED %s" % message, file=sys.stderr)
    print("fingerprint %s %s" % (record["fingerprint"]["digest"], json.dumps(record["metadata"], sort_keys=True)))
    print(json.dumps(record["result"], sort_keys=True))
    return 0 if record["result"]["correct"] else EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
