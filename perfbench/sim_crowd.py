"""Workload ``sim_crowd``: the firewall-bypass shape with a crowd of
light visible users.

``line_topology`` with many workload hosts at site A and drop rules on
both secret addresses at the ``core`` monitor.  Bulk covert transfers
run one after another from ``secret_b`` to ``secret_a`` inside one
``Simulation``, each until it is delivered.  Set-up is dominated by
``Simulation()``, which grows steeply with the number of hosts; the
measured phase is the event loop, monitor rules and routing across many
flows, with the gateway pair riding on them.

The simulator hands parsed packets from node to node, so a carrier's
time here is the sending gateway's ``fuse`` plus the receiving
gateway's ``extract`` of the same carrier (links are FIFO and lossless,
so the n-th carrier fused on one side is the n-th extracted on the
other).
"""

from __future__ import annotations

from time import perf_counter

from stegnet.engine import EngineConfig
from stegnet.scenarios import line_topology
from stegnet.simnet import MICROS, Simulation, WorkloadSpec

from common import Phase, Stopwatch, Times

SECRET_IPS = ("10.0.1.2", "10.0.2.3")
RULES = tuple(
    "[rule]\nnode = core\naction = drop\nproto = any\n%s = %s" % (side, ip)
    for ip in SECRET_IPS
    for side in ("src", "dst")
)
HANDLERS = (1, 2)
SRC, DST = "secret_b", "secret_a"
# A transfer that has not arrived after this much virtual time stalled.
STALL_US = 600 * MICROS
# Virtual time per timed slice, as in Simulation.run_until.
STEP_US = 100_000


def _timed(gateway, name: str, sink: Times):
    """Time ``gateway.<name>`` calls into ``sink``.  The method is looked
    up on the class at each call, so tracing can come and go."""
    cls = type(gateway)

    def timed(*args):
        t0 = perf_counter()
        try:
            return getattr(cls, name)(gateway, *args)
        finally:
            sink.raw.append(perf_counter() - t0)
    return timed


def _hops(sim: Simulation) -> int:
    return sum(stats.received for stats in sim.node_stats.values())


def _rule_hits(sim: Simulation) -> int:
    return sum(sum(stats.rule_hits.values()) for stats in sim.monitor_stats.values())


class SimCrowd:
    setup_reps = 7

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.users = 4 if smoke else 64
        self.budget = 1_800
        self.payload_octets = 4_096 if smoke else 65_536
        if smoke:
            self.setup_reps = 1

    def setup(self, rep: int, watch: Stopwatch) -> Simulation:
        """Build the topology, then the ``Simulation``, one slice each."""
        topology = watch.call(line_topology, visible_users=self.users, rules=RULES)
        return watch.call(Simulation, topology, workload=WorkloadSpec(budget=self.budget),
                          engine_config=EngineConfig(enabled_handlers=HANDLERS, seed=self.seed),
                          seed=self.seed)

    def measure(self, sim: Simulation, seconds: float, quiet, tracer=None) -> Phase:
        phase = Phase()
        fused = {name: Times() for name in sim.gateways}
        extracted = {name: Times() for name in sim.gateways}
        for name, gateway in sim.gateways.items():
            gateway.fuse = _timed(gateway, "fuse", fused[name])
            gateway.extract = _timed(gateway, "extract", extracted[name])
        timings = list(fused.values()) + list(extracted.values())
        hops = 0
        while phase.more(seconds):
            phase.begin_unit(tracer)
            hops_before = _hops(sim)
            transfer = sim.add_bulk_transfer(SRC, DST, self.payload_octets, start_us=sim.now)
            # Simulation.run_until's loop, one timed slice per step.
            limit = sim.now + STALL_US
            watch = Stopwatch(quiet)
            while sim.now < limit and transfer.delivered_octets < self.payload_octets:
                marks = [len(times.raw) for times in timings]
                watch.call(sim.run, min(STEP_US, limit - sim.now))
                for times, mark in zip(timings, marks):
                    times.rescale_from(mark, watch.factor)
            unit_hops = _hops(sim) - hops_before
            hops += unit_hops
            self._check(phase, sim, transfer)
            if phase.units == 0:
                counters = [dict(sim.gateways[name].counters) for name in sorted(sim.gateways)]
                phase.fingerprint = {
                    "virtual_completion_us": transfer.finished_us,
                    "virtual_now_us": sim.now,
                    "hops": unit_hops,
                    "delivered_sha256": transfer.delivered_digest,
                    "gateway_counters": counters,
                    "desyncs": sim.desync_count,
                }
                phase.first_unit = {
                    "counters": counters,
                    "calls": tracer.calls() if tracer is not None else {},
                    "hops": unit_hops,
                }
            phase.end_unit(watch)
        for sender, receiver in (("gw_b", "gw_a"), ("gw_a", "gw_b")):
            f, e = fused[sender], extracted[receiver]
            for i in range(min(len(f.raw), len(e.raw))):
                phase.carriers.add(f.raw[i] + e.raw[i], f.scaled[i] + e.scaled[i])
        phase.desyncs = sim.desync_count
        phase.extra["hops"] = hops
        return phase

    def _check(self, phase: Phase, sim: Simulation, transfer) -> None:
        sent = transfer.digest_parts
        phase.attempted += len(sent)
        if transfer.delivered_octets < self.payload_octets:
            phase.fail(len(sent) - transfer.delivered_packets,
                       "transfer %d stalled at %d of %d octets"
                       % (phase.units, transfer.delivered_octets, self.payload_octets))
        elif transfer.delivered_digest != transfer.sent_digest:
            got = transfer.delivered_parts
            wrong = sum(1 for a, b in zip(got, sent) if a != b) + abs(len(got) - len(sent))
            phase.fail(max(1, wrong), "transfer %d delivered different bytes than were sent" % phase.units)
        else:
            phase.secret_octets += self.payload_octets
        if sim.desync_count != phase.desyncs:
            phase.fail(sim.desync_count - phase.desyncs,
                       "transfer %d: %d desyncs" % (phase.units, sim.desync_count - phase.desyncs))
            phase.desyncs = sim.desync_count
        hits = _rule_hits(sim) - phase.extra.get("rule_hits", 0)
        if hits:
            phase.fail(hits, "transfer %d: %d hits on the secret-address drop rules" % (phase.units, hits))
            phase.extra["rule_hits"] = _rule_hits(sim)
