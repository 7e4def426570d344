"""Secret goodput against visible-user count, with exact accounting.

More visible users means more carrier packets past the gateway, so the
same secret payload crosses faster.  The second half reconciles the
delivered octets against per-carrier capacity use, to the octet.

    python3 demos/user_scaling.py
"""

from stegnet.engine import EngineConfig
from stegnet.scenarios import line_topology, run_transfer
from stegnet.simnet import MICROS, Simulation, WorkloadSpec

PAYLOAD = 4000


def run(users: int, record=None):
    sim = Simulation(
        line_topology(visible_users=users),
        workload=WorkloadSpec(budget=12_000),
        engine_config=EngineConfig(enabled_handlers=(1, 2), seed=0),
        seed=0,
    )
    if record is not None:
        gw = sim.gateways["gw_a"]
        inner = gw.fuse
        gw.fuse = lambda c: record(inner(c))
    return sim, run_transfer(sim, "secret_a", "secret_b", PAYLOAD, 120 * MICROS, packet_size=400)


def main() -> None:
    print("visible users | time to move %d octets | goodput" % PAYLOAD)
    for users in (1, 2, 4, 6, 8, 10):
        sim, transfer = run(users)
        seconds = (transfer.finished_us or sim.now) / MICROS
        print("     %2d       |       %7.3f s        | %7.0f oct/s"
              % (users, seconds, transfer.delivered_octets / seconds))

    stats = []

    def record(result):
        stats.append(result[1])
        return result

    sim, transfer = run(4, record=record)
    tx = sim.gateways["gw_a"].counters
    rx = sim.gateways["gw_b"].counters
    data = sum(s.data_octets for s in stats)
    sync = sum(s.sync_octets for s in stats)
    print()
    print("accounting at 4 users:")
    print("  secret octets sent        %6d" % tx["secret_octets_sent"])
    print("  secret octets delivered   %6d" % rx["secret_octets_delivered"])
    print("  sum of per-carrier data   %6d over %d fused carriers"
          % (data, sum(1 for s in stats if s.modified)))
    print("  capacity used minus sync  %6d (%d sync octets)"
          % (data + sync - sync, sync))
    assert rx["secret_octets_delivered"] == data == tx["secret_octets_sent"]
    print("  exact to the octet: yes")


if __name__ == "__main__":
    main()
