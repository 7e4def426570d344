"""A model-based test of the gateway pair.

A hypothesis state machine drives two gateways through random
interleavings of what a caller can do: enqueue secrets on either side,
pass carriers one way, start the key exchange, reset a side, drain, and
damage one carrier.  A model keeps, for each direction, the secrets
sent, those delivered and the desyncs seen, and the invariants compare
the gateways with it after every step.

The handler set and encryption are drawn once per run, from the stock
handlers; with handler 5 come augmented correction and diversion.
Carriers come from a few cached synthesized captures, and each fused
carrier is serialized and parsed again on its way to the peer.  The
gateways keep fixed seeds, so their key pairs come from the key cache
after the first run.
"""

import random
import sys
from dataclasses import replace

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from stegnet import crypto
from stegnet import packet as pk
from stegnet import trace as tr
from stegnet.engine import ITEM_DATA, CovertGateway, DesyncError, EngineConfig
from stegnet.handlers import STOCK_IDS, TCP_ISN_ID

MAC_HIGH = b"\x02\x00\x00\x00\x00\x0a"
MAC_LOW = b"\x02\x00\x00\x00\x00\x01"

CAPTURES = {seed: tuple(record.data for record in tr.synthesize_mixed_trace(300, seed=seed).records)
            for seed in (3, 7, 11)}
SIZES = (1, 2, 17, 1480, 1481, 65535)
# Carriers a drain passes each way before it gives up.
DRAIN_LIMIT = 400

_REAL_KEYGEN = crypto.generate_keypair


def _keygen_allowed(frame) -> bool:
    """Whether the call that made ``frame`` may make a key pair: only
    ``start_key_exchange`` or a peer's public key may."""
    while frame is not None:
        if frame.f_code is CovertGateway.start_key_exchange.__code__:
            return True
        if frame.f_code is CovertGateway._handle_key_exchange.__code__:
            return frame.f_locals.get("msg_type") == crypto.KE_PUBKEY
        frame = frame.f_back
    return False


class GatewayPair(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.keygen_faults = []

        def generate_keypair(*args, **kwargs):
            if not _keygen_allowed(sys._getframe(1)):
                self.keygen_faults.append(sys._getframe(2).f_code.co_name)
            return _REAL_KEYGEN(*args, **kwargs)

        crypto.generate_keypair = generate_keypair

    def teardown(self):
        crypto.generate_keypair = _REAL_KEYGEN

    @initialize(handlers=st.sets(st.sampled_from(STOCK_IDS), min_size=1), encryption=st.booleans(),
                capture=st.sampled_from(sorted(CAPTURES)))
    def start(self, handlers, encryption, capture):
        augmented = TCP_ISN_ID in handlers
        config = EngineConfig(enabled_handlers=tuple(sorted(handlers)), encryption=encryption,
                              augmented_allowed=augmented, augment_probability=0.25 if augmented else 0.0, seed=101)
        self.a = CovertGateway("gw_a", "gw_b", config, local_mac=MAC_HIGH)
        self.b = CovertGateway("gw_b", "gw_a", replace(config, seed=202), local_mac=MAC_LOW)
        self.encryption = encryption
        self.frames = CAPTURES[capture]
        # Per direction: the secrets sent, those delivered, the desyncs
        # seen and the next frame of the capture to carry.
        self.sent = {"ab": [], "ba": []}
        self.delivered = {"ab": [], "ba": []}
        self.desyncs = {"ab": 0, "ba": 0}
        self.position = {"ab": 0, "ba": len(self.frames) // 2}
        self.was_reset = False
        self.faulted = False

    def _ends(self, direction):
        return (self.a, self.b) if direction == "ab" else (self.b, self.a)

    def _fuse(self, direction) -> pk.ParsedPacket:
        """The next carrier of ``direction``, fused and serialized, then
        parsed again as the peer would receive it."""
        frames, at = self.frames, self.position[direction]
        self.position[direction] = at + 1
        fused, _ = self._ends(direction)[0].fuse(pk.parse_packet(frames[at % len(frames)]))
        return pk.parse_packet(pk.serialize_packet(fused))

    def _extract(self, direction, carrier: pk.ParsedPacket) -> None:
        # extract only returns or raises DesyncError: anything else ends the run.
        try:
            _, secrets, _ = self._ends(direction)[1].extract(carrier)
        except DesyncError:
            self.desyncs[direction] += 1
        else:
            self.delivered[direction] += secrets

    def _pass(self, direction, count) -> None:
        for _ in range(count):
            self._extract(direction, self._fuse(direction))

    @rule(direction=st.sampled_from(("ab", "ba")),
          size=st.sampled_from(SIZES) | st.integers(1, 3000), fill=st.integers(0, 2**32))
    def enqueue(self, direction, size, fill):
        secret = random.Random(fill).randbytes(size)
        self._ends(direction)[0].enqueue_secret(secret)
        self.sent[direction].append(secret)

    @rule(direction=st.sampled_from(("ab", "ba")), count=st.integers(1, 60))
    def pass_carriers(self, direction, count):
        self._pass(direction, count)

    def _settled(self) -> bool:
        """Both sessions dropped, and neither side has a reset or a
        key-exchange message still to send: the point at which the
        callers restart the key exchange."""
        return all(gateway.session is None
                   and all(item.kind == ITEM_DATA for item in (*gateway._queue, gateway._tx_item) if item)
                   for gateway in (self.a, self.b))

    @precondition(lambda self: self.encryption and self._settled())
    @rule()
    def key_exchange(self):
        self.a.start_key_exchange()
        self.b.start_key_exchange()

    @rule(side=st.sampled_from("ab"))
    def reset(self, side):
        (self.a if side == "a" else self.b).reset_session()
        self.was_reset = True

    @rule()
    def drain(self):
        for _ in range(DRAIN_LIMIT):
            if self.a.idle and self.b.idle:
                break
            self._pass("ab", 1)
            self._pass("ba", 1)
        if self.a.idle and self.b.idle and not (self.was_reset or self.faulted):
            assert self.delivered == self.sent

    @rule(direction=st.sampled_from(("ab", "ba")), damage=st.sampled_from(("drop", "swap", "flip")),
          at=st.integers(0, 2**16))
    def fault(self, direction, damage, at):
        self.faulted = True
        carrier = self._fuse(direction)
        if damage == "drop":
            return
        if damage == "swap":
            self._extract(direction, self._fuse(direction))
        elif damage == "flip":
            frame = bytearray(pk.serialize_packet(carrier))
            bit = pk.ETHER_SIZE * 8 + at % ((len(frame) - pk.ETHER_SIZE) * 8)
            frame[bit // 8] ^= 0x80 >> bit % 8
            try:
                carrier = pk.parse_packet(bytes(frame))
            except pk.PacketError:
                return
        self._extract(direction, carrier)

    @invariant()
    def only_a_public_key_makes_a_key_pair(self):
        assert self.keygen_faults == []

    @invariant()
    def counters_agree_with_the_model(self):
        for direction in ("ab", "ba"):
            tx, rx = self._ends(direction)
            delivered = self.delivered[direction]
            assert rx.counters["secret_packets_delivered"] == len(delivered)
            assert rx.counters["secret_octets_delivered"] == sum(map(len, delivered))
            waiting = sum(item.kind == ITEM_DATA for item in tx._queue)
            waiting += tx._tx_item is not None and tx._tx_item.kind == ITEM_DATA
            assert tx.counters["secret_packets_sent"] + waiting == len(self.sent[direction])

    @invariant()
    def delivery_follows_the_model(self):
        if self.faulted:
            return
        for direction in ("ab", "ba"):
            sent, delivered = self.sent[direction], self.delivered[direction]
            if not self.was_reset:
                assert delivered == sent[: len(delivered)] and self.desyncs[direction] == 0
                continue
            # A subsequence, in order; a secret skipped, or left behind
            # by a sender with nothing more to send, is never silent.
            position, skipped = 0, 0
            for secret in delivered:
                while position < len(sent) and sent[position] != secret:
                    position += 1
                    skipped += 1
                assert position < len(sent), "a secret delivered out of order or never sent"
                position += 1
            if self._ends(direction)[0].idle:
                skipped += len(sent) - position
            assert not skipped or self.desyncs[direction] > 0


TestGatewayPair = GatewayPair.TestCase
TestGatewayPair.settings = settings(max_examples=80, stateful_step_count=30, deadline=None,
                                    suppress_health_check=[HealthCheck.too_slow])
