"""Smoke tests for the benchmark itself: every metric named in
BENCHMARK.json is emitted, the correctness gates catch corrupted
deliveries, runs repeat their fingerprints, and a directory without the
program is refused.

Every benchmark run happens in a child process, as the benchmark is
meant to run, so nothing it imports, patches or caches (stegnet's RSA
key cache among them) leaks into the process that runs the other tests.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Run in a child process: once the benchmark has imported stegnet,
# corrupt every secret the receiving gateway extracts (flip the last
# octet), then let the run go on.
CORRUPT = """
import sys
sys.path.insert(0, sys.argv[1])
import run
import_program = run._import_program
def import_and_corrupt(*args):
    imported = import_program(*args)
    from stegnet.engine import CovertGateway
    original = CovertGateway.extract
    def corrupting(self, carrier):
        repaired, secrets, stats = original(self, carrier)
        return repaired, [s[:-1] + bytes([s[-1] ^ 0xFF]) for s in secrets], stats
    CovertGateway.extract = corrupting
    return imported
run._import_program = import_and_corrupt
sys.exit(run.main(sys.argv[2:]))
"""


def _smoke(workload, trace, seed=7, prefix=()):
    """Run one smoke invocation in a child process; return its exit code
    and the record it wrote, whose result must be the one it printed."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    command = list(prefix) + args if prefix else [sys.executable, str(BENCH_DIR / "run.py")] + args
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((OUT_DIR / ("BENCH_%s_seed%d_trace%d_smoke.json" % (workload, seed, trace))).read_text())
    assert record["result"] == result
    return proc.returncode, record


@pytest.fixture(scope="module")
def records():
    return {(w, t): _smoke(w, t) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(records, workload):
    code, record = records[(workload, 0)]
    result = record["result"]
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, record["failures"]
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0, spec["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(records, workload):
    code, record = records[(workload, 1)]
    result = record["result"]
    assert code == 0
    assert result["correct"] and result["failed"] == 0, record["failures"]
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    for spec in SPEC["per_layer"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
    assert metrics["error_rate"]["value"] == 0
    assert metrics["engine.desyncs"]["value"] == 0
    assert metrics["tracing.slowdown"]["value"] > 0
    assert metrics["packet.parse_us"]["value"] > 0
    assert metrics["engine.fuse_self_us"]["value"] > 0


def test_layers_show_up_on_the_workloads_that_use_them(records):
    offline, crowd, sessions = (records[(w, 1)][1]["result"]["metrics"]
                                for w in ("trace_offline", "sim_crowd", "sessions_mixed"))
    assert offline["trace.read_s"]["value"] > 0 and offline["trace.write_s"]["value"] > 0
    assert offline["crypto.rsa_decrypt_ms"]["value"] == 0
    assert crowd["simnet.hops"]["value"] > 0 and crowd["simnet.init_s"]["value"] > 0
    assert crowd["topology.load_ms"]["value"] > 0
    assert sessions["crypto.rsa_decrypt_ms"]["value"] > 0
    assert sessions["crypto.stream_us_per_kB"]["value"] > 0
    assert sessions["handlers.build_registry_calls"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_the_same_fingerprint(records, workload):
    # The traced run's untraced phase is a second run of the same
    # inputs; its traced phase is checked against it inside the run.
    fingerprint = records[(workload, 0)][1]["fingerprint"]
    assert records[(workload, 1)][1]["fingerprint"] == fingerprint
    assert _smoke(workload, 0)[1]["fingerprint"] == fingerprint


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gates_catch_a_corrupted_delivery(workload):
    code, record = _smoke(workload, 0, seed=8,
                          prefix=[sys.executable, "-c", CORRUPT, str(BENCH_DIR)])
    assert code == 1
    assert not record["result"]["correct"]
    assert record["result"]["failed"] > 0 and record["failures"]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
