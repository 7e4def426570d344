"""Workload ``sessions_mixed``: many short gateway-pair sessions, one
after another (a closed loop with one client).

Shaped like the randomized-session acceptance suite: handler sets drawn
from {1}, {2} and {1,2} with 3, 4 and 5 each added at p = 0.4, ISN
augmentation at 0.25 when 5 is on, one session in five encrypted with
an in-band key exchange, and 1-2 secrets of 1-1500 octets per session.
The draws are balanced per block of sessions (see ``_plan``).
Each gateway builds its own registry, as ``Simulation`` does.  Gateway
seeds are fixed, so the RSA key pairs are generated during set-up and
the sessions reuse them; the session inputs come from ``--seed``.

Carriers cross between the two gateways as bytes: parse, fuse,
serialize, parse, extract, serialize.
"""

from __future__ import annotations

import random
from dataclasses import replace
from time import perf_counter
from typing import List

from stegnet import packet as pk
from stegnet.engine import CovertGateway, DesyncError, EngineConfig

from common import Phase, Stopwatch, digest

MAC_HIGH = b"\x02\x00\x00\x00\x00\x0a"
MAC_LOW = b"\x02\x00\x00\x00\x00\x01"
TCP_OPTIONS_ID, ICMP_PAYLOAD_ID, TCP_ISN_ID = 1, 2, 5
# Gateway seeds of set-up repetition k are SEED_A + k * SEED_STEP and
# SEED_B + k * SEED_STEP; the sessions use repetition 0's.
SEED_A, SEED_B, SEED_STEP = 101, 202, 1000
CARRIER_POOL = 4096
MAX_KE_ROUNDS = 80
MAX_CARRIERS = 6000
FINGERPRINT_SESSIONS = 16
BLOCK = 30


def _stratum(rng: random.Random, j: int, strata: int) -> int:
    """A secret size drawn from the j-th of ``strata`` equal slices of
    1..1500 octets."""
    return 1 + int((j + rng.random()) * 1500 / strata)


def _carrier(rng: random.Random, i: int, reverse: bool = False) -> bytes:
    src, dst = ("10.0.2.9", "10.0.1.5") if reverse else ("10.0.1.5", "10.0.2.9")
    kind = rng.random()
    if kind < 0.52:
        p = pk.build_tcp(src, dst, 40000 + i % 7, 80, seq=0x2000 + i * 97,
                         payload=rng.randbytes(rng.randint(16, 120)))
    elif kind < 0.58:
        p = pk.build_tcp(src, dst, 46000 + i % 5, 443, seq=0x4000 + i * 131, flags=pk.TCP_SYN)
    elif kind < 0.90:
        p = pk.build_icmp_echo(src, dst, identifier=7, sequence=i,
                               payload=rng.randbytes(rng.randint(40, 120)))
    else:
        p = pk.build_udp(src, dst, 50000 + i % 9, 5353, payload=rng.randbytes(rng.randint(8, 64)))
    return pk.serialize_packet(p)


def _ke_carrier(tcp: bool, i: int, reverse: bool = False) -> bytes:
    src, dst = ("10.0.2.9", "10.0.1.5") if reverse else ("10.0.1.5", "10.0.2.9")
    if tcp:
        p = pk.build_tcp(src, dst, 41000, 80, seq=0x9000 + i, payload=b"k" * 32)
    else:
        p = pk.build_icmp_echo(src, dst, identifier=3, sequence=i, payload=b"\x30" * 56)
    return pk.serialize_packet(p)


class SessionsMixed:
    setup_reps = 5

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        rng = random.Random(seed)
        self.pool = [_carrier(rng, i) for i in range(1, CARRIER_POOL + 1)]
        self.ke = {tcp: [(_ke_carrier(tcp, r), _ke_carrier(tcp, r, reverse=True))
                         for r in range(1, MAX_KE_ROUNDS + 1)]
                   for tcp in (True, False)}
        self.fingerprint_sessions = 6 if smoke else FINGERPRINT_SESSIONS
        if smoke:
            self.setup_reps = 1

    def _config(self, enabled, encrypted: bool, seed: int) -> EngineConfig:
        return EngineConfig(enabled_handlers=enabled, encryption=encrypted,
                            augmented_allowed=TCP_ISN_ID in enabled,
                            augment_probability=0.25 if TCP_ISN_ID in enabled else 0.0,
                            seed=seed)

    def _pair(self, enabled, encrypted: bool, rep: int):
        cfg = self._config(enabled, encrypted, SEED_A + rep * SEED_STEP)
        a = CovertGateway("gw_a", "gw_b", cfg, local_mac=MAC_HIGH)
        b = CovertGateway("gw_b", "gw_a", replace(cfg, seed=SEED_B + rep * SEED_STEP), local_mac=MAC_LOW)
        return a, b

    def setup(self, rep: int, watch: Stopwatch) -> None:
        """Build an encrypting gateway pair and queue both public keys,
        which generates this repetition's RSA key pairs; one slice for
        the pair and one per key pair."""
        a, b = watch.call(self._pair, (TCP_OPTIONS_ID, ICMP_PAYLOAD_ID), True, rep)
        watch.call(a.start_key_exchange)
        watch.call(b.start_key_exchange)

    @staticmethod
    def _plan(rng: random.Random):
        """Session inputs, endlessly, in balanced blocks of ``BLOCK``.

        Each block holds every base handler set BLOCK/3 times, each
        extra handler in 2/5 of its sessions, two secrets in 1/10 of
        them, and first-secret sizes one per 1500/BLOCK-octet stratum,
        all shuffled by ``rng``.  Independent draws would give each
        seed its own mix and move every timing by up to a fifth.
        """
        bases = [(TCP_OPTIONS_ID,), (ICMP_PAYLOAD_ID,), (TCP_OPTIONS_ID, ICMP_PAYLOAD_ID)]
        index = 0
        while True:
            base = bases * (BLOCK // 3)
            rng.shuffle(base)
            extras = []
            for _ in (3, 4, 5):
                on = [True] * (BLOCK * 2 // 5) + [False] * (BLOCK - BLOCK * 2 // 5)
                rng.shuffle(on)
                extras.append(on)
            sizes = [_stratum(rng, j, BLOCK) for j in range(BLOCK)]
            rng.shuffle(sizes)
            pairs = BLOCK // 10
            second = [_stratum(rng, j, pairs) for j in range(pairs)] + [None] * (BLOCK - pairs)
            rng.shuffle(second)
            for k in range(BLOCK):
                enabled = tuple(sorted(set(base[k]) | {h for h, on in zip((3, 4, 5), extras) if on[k]}))
                secrets = [rng.randbytes(size) for size in (sizes[k], second[k]) if size is not None]
                yield enabled, index % 5 == 0, secrets, rng.randrange(CARRIER_POOL)
                index += 1

    def measure(self, state, seconds: float, quiet, tracer=None) -> Phase:
        phase = Phase()
        # Every phase replays the same session sequence.
        plan = self._plan(random.Random(self.seed ^ 0x5E55))
        prints: List[str] = []
        first_counters: List[dict] = []
        while phase.more(seconds, self.fingerprint_sessions):
            index = phase.units
            phase.begin_unit(tracer)
            enabled, encrypted, secrets, offset = next(plan)
            carriers_before = len(phase.carriers.raw)
            watch = Stopwatch(quiet)
            a, b, got, why = watch.call(self._session, phase, enabled, encrypted, secrets, offset)
            phase.carriers.rescale_from(carriers_before, watch.factor)
            phase.attempted += 1
            if why is None and got != secrets:
                why = "delivered secrets differ from those sent"
            if why is not None:
                phase.fail(1, "session %d (handlers %r, encrypted %s): %s" % (index, enabled, encrypted, why))
            else:
                phase.secret_octets += sum(len(s) for s in secrets)
            if index < self.fingerprint_sessions:
                first_counters += [dict(a.counters), dict(b.counters)]
                prints.append(digest(repr((enabled, encrypted, len(phase.carriers.raw) - carriers_before,
                                           sorted(a.counters.items()), sorted(b.counters.items()))).encode(),
                                     *got))
                if index + 1 == self.fingerprint_sessions:
                    phase.fingerprint = {"sessions": self.fingerprint_sessions, "session_sha256": digest(*(
                        p.encode() for p in prints))}
                    phase.first_unit = {
                        "counters": first_counters,
                        "calls": tracer.calls() if tracer is not None else {},
                    }
            phase.end_unit(watch)
        return phase

    def _session(self, phase: Phase, enabled, encrypted: bool, secrets, offset: int):
        """One session from gateway construction to the last secret
        delivered.  Returns the pair, the secrets delivered and why the
        session failed (None when it did not)."""
        carrier_s = phase.carriers.raw
        a, b = self._pair(enabled, encrypted, 0)
        try:
            if encrypted:
                a.start_key_exchange()
                b.start_key_exchange()
                rounds = self.ke[TCP_OPTIONS_ID in enabled]

                def established() -> bool:
                    return a.session_established and b.session_established and a.idle and b.idle

                # Key-exchange carriers count in the session's time but
                # not among the carriers: one in about 200 carriers does
                # an RSA operation and takes some 300 times longer than
                # the rest, so with them in, p99 sits on the edge between
                # the two groups and jumps with the session mix.
                for forward, reverse in rounds:
                    if established():
                        break
                    for sender, receiver, frame in ((a, b, forward), (b, a, reverse)):
                        fused, _ = sender.fuse(pk.parse_packet(frame))
                        carrier, _, _ = receiver.extract(pk.parse_packet(pk.serialize_packet(fused)))
                        pk.serialize_packet(carrier)
                if not established():
                    return a, b, [], "key exchange stalled after %d rounds" % len(rounds)
            for s in secrets:
                a.enqueue_secret(s)
            got: List[bytes] = []
            pool = self.pool
            i = 0
            while len(got) < len(secrets):
                if i == MAX_CARRIERS:
                    return a, b, got, "no forward progress after %d carriers" % i
                t0 = perf_counter()
                carrier = a.adjust_flow(pk.parse_packet(pool[(offset + i) % CARRIER_POOL]))
                fused, _ = a.fuse(carrier)
                repaired, out, _ = b.extract(pk.parse_packet(pk.serialize_packet(fused)))
                pk.serialize_packet(b.adjust_flow(repaired))
                carrier_s.append(perf_counter() - t0)
                got.extend(out)
                i += 1
            return a, b, got, None
        except DesyncError as exc:
            phase.desyncs += 1
            return a, b, [], "desync: %s" % exc
