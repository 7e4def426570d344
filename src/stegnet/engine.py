"""Stateful fuse/extract gateway pair for one protected path.

One ``CovertGateway`` instance owns one direction-pair endpoint: it
fuses the secret stream into carriers heading toward its peer and
extracts the peer's stream from carriers arriving back.  The two sides
are symmetric; a pair of instances with mirrored configuration
interoperates over any in-order, lossless carrier sequence.

The transmit side is a FIFO of stream items (secret packets,
key-exchange messages, session resets); under encryption, secret
packets wait for the cipher and the others go ahead of them.  Each
item opens with a plaintext synchronization header; mid-item handler
switches are announced in-band exactly when the transition is
ambiguous, otherwise the receiving side re-derives the same handler
selection on its own.

Augmented correction lets a carrier divert to the sequence-number
channel, which overwrites a pure SYN's initial sequence number.  The
fusing gateway corrects that flow itself (``flow_deltas`` and
``adjust_flow``) and sends its peer nothing about the rewrite.  A SYN
that repeats the rewritten one's initial sequence number is a
retransmission: it leaves with the first rewrite's number and carries
nothing.  A SYN on the same 5-tuple with another one opens a new flow
and ends the correction.

The receive side never guesses blindly: it consults the same registry
and selection policy, and scans only the regions the sender could have
written.  Original carrier bytes are consulted only in the narrow
augmented-correction case, which the traffic generators keep free of
sync-header lookalikes.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from . import crypto
from . import packet as pk
from . import wire
from .handlers import (
    DEFAULT_ENABLED,
    HandlerRegistry,
    HandlerSpec,
    RecoveryClass,
    TCP_ISN_ID,
    _is_pure_syn,
    build_registry,
    matches_only_pure_syns,
)

ITEM_DATA = "data"
ITEM_KEY_EXCHANGE = "key_exchange"
ITEM_RESET = "reset"

# Each item kind: the sync code that opens it, then the least and the
# most octets its opening may announce as the item's wire length.  An
# opening outside them is not the peer's, and taken at its word it
# would swallow the peer's stream.  Data items are encrypted once the
# cipher is on; the others stay plaintext.
_KINDS = {
    ITEM_DATA: (wire.CODE_PACKET_START, 1, 0xFFFF),
    ITEM_KEY_EXCHANGE: (wire.CODE_KEY_EXCHANGE, crypto.KE_PREFIX, crypto.KE_LONGEST),
    ITEM_RESET: (wire.CODE_SESSION_RESET, 0, 0),
}
_OPENED_KIND = {code: kind for kind, (code, _, _) in _KINDS.items()}

_SEQ_MASK = 0xFFFFFFFF


class EngineError(Exception):
    pass


class Oversize(EngineError):
    """Secret packet longer than the 16-bit start header can announce."""


class DesyncError(EngineError):
    """Receive state cannot be reconciled with the carrier.

    The in-flight partial item is dropped and the receive side returns
    to idle; the session itself survives.  ``forwarded`` carries the
    packet so callers can still forward it.
    """

    def __init__(self, message: str, forwarded: pk.ParsedPacket):
        super().__init__(message)
        self.forwarded = forwarded


@dataclass
class EngineConfig:
    enabled_handlers: Tuple[int, ...] = DEFAULT_ENABLED
    cost_overrides: Dict[int, float] = field(default_factory=dict)
    encryption: bool = False
    augmented_allowed: bool = False
    preserve_icmp_timestamp: bool = False
    seed: int = 0
    chunk_size: int = 1480
    # Probability that an eligible carrier is diverted to the
    # augmented-correction channel; used by cost calibration runs.
    augment_probability: float = 0.0

    def validate(self) -> None:
        if not self.enabled_handlers:
            raise ValueError("at least one handler must be enabled")
        for hid, cost in self.cost_overrides.items():
            if not 0.0 <= cost < 1.0:
                raise ValueError("cost override for handler %d outside [0, 1): %r" % (hid, cost))
        if not 0 < self.chunk_size <= 0xFFFF:
            raise ValueError("chunk size must be within 1..65535")
        if not 0.0 <= self.augment_probability <= 1.0:
            raise ValueError("augment probability outside [0, 1]")


@dataclass(frozen=True, slots=True)
class CarrierStats:
    """What ``fuse`` or ``extract`` did with one carrier.  ``modified``
    is set only by ``fuse``.  A carrier that moves no segment gets one
    of the shared values below; one that moves a segment gets its own,
    built by ``_new_stats``."""

    matched: bool = False
    modified: bool = False
    excluded: bool = False
    handler_id: Optional[int] = None
    sync_octets: int = 0
    data_octets: int = 0
    item_kind: Optional[str] = None
    item_completed: bool = False


_new_stats = pk._constructor(CarrierStats)
_UNMATCHED = CarrierStats()
# fuse's exclusion marker, and extract clearing it.
_EXCLUDED = CarrierStats(matched=True, modified=True, excluded=True)
_CLEARED = CarrierStats(excluded=True)
# A carrier extract matched but the sender would have excluded.
_UNSELECTED = CarrierStats(matched=True)


@dataclass(eq=False)  # leaves the queue by identity: equal items may wait in it
class _TxItem:
    kind: str
    payload: bytes
    wire_bytes: bytes = b""
    sent: int = 0


@dataclass
class _RxItem:
    kind: str
    expected: int
    buf: bytearray = field(default_factory=bytearray)


def _child_seed(*parts) -> int:
    """64-bit seed from the SHA-256 of ``parts`` joined by colons.  The
    engine, the simulator and the CLI derive all their seeds here."""
    text = ":".join(str(part) for part in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class CovertGateway:
    """One endpoint of a fuse/extract pair."""

    def __init__(
        self,
        node_id: str,
        peer_id: str,
        config: Optional[EngineConfig] = None,
        registry: Optional[HandlerRegistry] = None,
        local_mac: bytes = b"\x02\x00\x00\x00\x00\x01",
    ):
        self.node_id = node_id
        self.peer_id = peer_id
        self.config = config or EngineConfig()
        self.config.validate()
        self.registry = registry if registry is not None else build_registry(
            enabled=self.config.enabled_handlers,
            cost_overrides=self.config.cost_overrides,
            preserve_icmp_timestamp=self.config.preserve_icmp_timestamp,
        )
        # The sequence-number handler, which carriers may be diverted to
        # and extraction scans, exists only with augmented correction.
        # Its writes are recorded as ISN rewrites, so it must ride pure SYNs.
        self._isn: Optional[HandlerSpec] = None
        if self.config.augmented_allowed and TCP_ISN_ID in self.registry.ids:
            self._isn = self.registry.get(TCP_ISN_ID)
            if not matches_only_pure_syns(self._isn):
                raise EngineError("handler %r at id %d must match pure TCP SYNs and nothing else under augmented "
                                  "correction" % (self._isn.name, TCP_ISN_ID))
        # Whether fuse may draw to divert a carrier to that handler.
        self._divert = self._isn is not None and self.config.augment_probability > 0.0
        self.local_mac = local_mac
        self._rng = random.Random(_child_seed(self.config.seed, "engine:%s" % node_id))

        self._queue: Deque[_TxItem] = deque()
        self._tx_item: Optional[_TxItem] = None
        self._tx_cursor = wire.SegmentCursor()

        self._rx_item: Optional[_RxItem] = None
        self._rx_cursor = wire.SegmentCursor()
        self._rx_cipher_active = False

        self._session: Optional[crypto.CryptoSession] = None

        self.flow_deltas: Dict[tuple, int] = {}
        # The original initial sequence number of each rewritten SYN.
        self._flow_isns: Dict[tuple, int] = {}

        # Counters for reporting; data octets are split by item kind.
        self.counters = {
            "carriers_seen": 0,
            "carriers_modified": 0,
            "carriers_excluded": 0,
            "sync_octets": 0,
            "data_octets": 0,
            "secret_octets_sent": 0,
            "mgmt_octets_sent": 0,
            "secret_packets_sent": 0,
            "rx_sync_octets": 0,
            "rx_data_octets": 0,
            "secret_octets_delivered": 0,
            "secret_packets_delivered": 0,
        }

    # -- transmit side -----------------------------------------------------

    def enqueue_secret(self, data: bytes) -> None:
        """Queue one secret packet (opaque bytes) for covert transfer."""
        if len(data) < 1:
            raise EngineError("secret packet must hold at least one octet")
        if len(data) > 0xFFFF:
            raise Oversize("secret packet of %d octets exceeds 65535" % len(data))
        self._queue.append(_TxItem(kind=ITEM_DATA, payload=bytes(data)))

    def enqueue_payload(self, payload: bytes) -> int:
        """Chunk an arbitrary payload into secret packets; returns count."""
        size = self.config.chunk_size
        count = 0
        for start in range(0, len(payload), size):
            self.enqueue_secret(payload[start : start + size])
            count += 1
        return count

    def reset_session(self) -> None:
        """Queue an in-band session reset and drop local cipher state.

        Receive decryption stays on: items the peer encrypted before it
        reads the reset end in a desync, not as ciphertext delivered.
        Queued secrets wait for a new key exchange, which both sides
        start once both sessions are gone and no reset or key-exchange
        message is left to send either way."""
        self._queue.append(_TxItem(kind=ITEM_RESET, payload=b""))
        self._session = None

    @property
    def pending_octets(self) -> int:
        """Secret octets accepted but not yet fused into carriers."""
        total = sum(len(i.payload) for i in self._queue if i.kind == ITEM_DATA)
        if self._tx_item is not None and self._tx_item.kind == ITEM_DATA:
            total += len(self._tx_item.wire_bytes) - self._tx_item.sent
        return total

    @property
    def idle(self) -> bool:
        return self._tx_item is None and not self._queue

    def _ensure_session(self) -> crypto.CryptoSession:
        if self._session is None:
            pair = crypto.generate_keypair(_child_seed(self.config.seed, "rsa:%s" % self.node_id))
            self._session = crypto.CryptoSession(keypair=pair)
        return self._session

    def start_key_exchange(self) -> None:
        """Queue this side's public key; call on both gateways."""
        self._queue_key_exchange(crypto.KE_PUBKEY, self._ensure_session().keypair.public.to_bytes())

    def _queue_key_exchange(self, msg_type: int, payload: bytes) -> None:
        message = crypto.encode_ke_message(msg_type, self.local_mac, payload)
        self._queue.append(_TxItem(kind=ITEM_KEY_EXCHANGE, payload=message))

    def _next_item(self) -> Optional[_TxItem]:
        """The item in flight, else the next one, opened here, or None.

        Under encryption, data items wait for an established session
        and every other item opens ahead of them, so none of them
        leaves in plaintext; each is encrypted as it opens."""
        if self._tx_item is not None:
            return self._tx_item
        queue = self._queue
        if not queue:
            return None
        item = queue[0]
        if self.config.encryption and item.kind == ITEM_DATA:
            item = next((queued for queued in queue if queued.kind != ITEM_DATA),
                        item if self.session_established else None)
            if item is None:
                return None
        queue.remove(item)
        if self.config.encryption and item.kind == ITEM_DATA:
            item.wire_bytes = self._session.encrypt_item(item.payload)
        else:
            item.wire_bytes = item.payload
        item.sent = 0
        self._tx_item = item
        return item

    def fuse(self, carrier: pk.ParsedPacket) -> Tuple[pk.ParsedPacket, CarrierStats]:
        """Embed the next stream slice into ``carrier``.

        Unmatched carriers pass through untouched.  Matched carriers
        either receive a segment or are stamped with the exclusion
        marker, so the peer never has to guess.  A sender with nothing
        in flight or queued and no ISN diversion to draw for marks a
        carrier at the first handler that matches it, without building
        the candidate list or selecting: the marker is the same
        whichever handler matched.
        """
        self.counters["carriers_seen"] += 1
        if self._tx_item is None and not self._queue and not self._divert:
            if not self.registry.matches(carrier):
                return carrier, _UNMATCHED
            return self._exclude(carrier)
        candidates = self.registry.match(carrier)
        if not candidates:
            return carrier, _UNMATCHED
        # The item in flight, or the next one _next_item opens, starts here.
        opening = self._tx_item is None or self._tx_item.sent == 0
        picked = self.registry.select(
            candidates, carrier, self._tx_cursor, opening, self.config.augmented_allowed)
        if picked is None:
            return self._exclude(carrier)
        spec, capacity = picked
        isn = self._isn
        divert = (self._divert and spec is not isn and isn.match(carrier)
                  and self._rng.random() < self.config.augment_probability)
        if self.flow_deltas and isn.match(carrier) and pk.flow_key(carrier) in self.flow_deltas:
            # A copy of a rewritten SYN, given the first rewrite's ISN by adjust_flow.  That ISN
            # stays, and the peer may read its octets as a switch header, so nothing rides the copy.
            return self._exclude(carrier)
        if divert:
            spec, capacity = isn, isn.capacity(carrier)
        item = self._next_item()
        if item is None:
            return self._exclude(carrier)
        room = self._tx_cursor.room(spec.id, capacity, len(candidates), opening)
        if room < 1:
            # Only a diverted carrier can lack room: select skipped the rest.
            return self._exclude(carrier)
        sync = b""
        if opening:
            sync = wire.encode_sync(wire.SyncHeader(_KINDS[item.kind][0], len(item.wire_bytes)))
        elif room < capacity:
            sync = wire.encode_sync(wire.switch_header(spec.id))
        n = min(room, len(item.wire_bytes) - item.sent)
        self._tx_cursor.adopt(spec.id, len(candidates), opening)
        segment = sync + item.wire_bytes[item.sent : item.sent + n]

        modified = spec.writer(carrier, segment)
        if spec is self._isn:
            self._record_isn_rewrite(carrier, modified)

        item.sent += n
        self.counters["carriers_modified"] += 1
        self.counters["sync_octets"] += len(sync)
        self.counters["data_octets"] += n
        if item.kind == ITEM_DATA:
            self.counters["secret_octets_sent"] += n
        else:
            self.counters["mgmt_octets_sent"] += n
        completed = item.sent == len(item.wire_bytes)
        if completed:
            if item.kind == ITEM_DATA:
                self.counters["secret_packets_sent"] += 1
            self._tx_item = None
        return modified, _new_stats(True, True, False, spec.id, len(sync), n, item.kind, completed)

    def _exclude(self, carrier: pk.ParsedPacket) -> Tuple[pk.ParsedPacket, CarrierStats]:
        self.counters["carriers_excluded"] += 1
        return wire.mark_excluded(carrier), _EXCLUDED

    def _record_isn_rewrite(self, original: pk.ParsedPacket, modified: pk.ParsedPacket) -> None:
        key = pk.flow_key(original)  # a TCP SYN's, never None
        self.flow_deltas[key] = (modified.tcp.seq - original.tcp.seq) & _SEQ_MASK
        self._flow_isns[key] = original.tcp.seq

    def adjust_flow(self, p: pk.ParsedPacket) -> pk.ParsedPacket:
        """Seq/ack rewriting for flows whose initial sequence number was
        overwritten here.  Forward packets shift into the rewritten
        space before they leave; reverse acknowledgements shift back so
        the near endpoint never notices.  A pure SYN that repeats the
        flow's original initial sequence number is a retransmission and
        leaves with the rewritten one; a pure SYN that brings another
        opens a new flow on the same tuple, ends the old one's
        correction and passes through to fuse."""
        if not self.flow_deltas or p.tcp is None:
            return p
        key = pk.flow_key(p)
        if key in self.flow_deltas:
            if _is_pure_syn(p) and p.tcp.seq != self._flow_isns[key]:
                del self.flow_deltas[key], self._flow_isns[key]
                return p
            return pk.with_tcp_seq_ack(p, (p.tcp.seq + self.flow_deltas[key]) & _SEQ_MASK, p.tcp.ack)
        rkey = pk.reverse_flow_key(key) if key is not None else None
        if rkey in self.flow_deltas and p.tcp.flags & pk.TCP_ACK:
            delta = self.flow_deltas[rkey]
            return pk.with_tcp_seq_ack(p, p.tcp.seq, (p.tcp.ack - delta) & _SEQ_MASK)
        return p

    # -- receive side -------------------------------------------------------

    def _desync(self, carrier: pk.ParsedPacket, why: str):
        self._rx_item = None
        raise DesyncError(why, forwarded=carrier)

    def extract(self, carrier: pk.ParsedPacket) -> Tuple[pk.ParsedPacket, List[bytes], CarrierStats]:
        """Recover the stream slice from ``carrier``.

        Returns the repaired carrier to forward, any secret packets
        completed by this carrier, and per-carrier accounting.
        """
        if wire.is_excluded(carrier):
            return wire.clear_exclusion(carrier), [], _CLEARED
        candidates = self.registry.match(carrier)
        if not candidates:
            return carrier, [], _UNMATCHED
        picked = self.registry.select(
            candidates, carrier, self._rx_cursor, self._rx_item is None, self.config.augmented_allowed)
        if picked is None:
            # Fusion would have excluded this carrier; nothing rides it.
            return carrier, [], _UNSELECTED
        sel = picked[0]

        scan = [sel]
        isn = self._isn
        if isn is not None and sel is not isn and isn.match(carrier):
            scan.append(isn)

        secrets: List[bytes] = []
        if self._rx_item is None:
            spec, region, header = self._rx_open(carrier, scan, len(candidates))
            self._rx_item = self._open_item(header, carrier)
            consumed = wire.SYNC_SIZE
        else:
            spec, region, consumed = self._rx_continue(carrier, candidates, sel, scan)

        item = self._rx_item
        grab = region[consumed : consumed + item.expected - len(item.buf)]
        item.buf += grab

        self.counters["rx_sync_octets"] += consumed
        self.counters["rx_data_octets"] += len(grab)

        completed = len(item.buf) == item.expected
        if completed:
            self._rx_item = None
            try:
                data = bytes(item.buf)
                if item.kind == ITEM_DATA:
                    if self.config.encryption:
                        if self._session is None:
                            # A local reset dropped the key; a new session would hold none either.
                            raise crypto.NotEstablished("no session")
                        data = self._session.decrypt_item(data)
                    secrets.append(data)
                    self.counters["secret_octets_delivered"] += len(data)
                    self.counters["secret_packets_delivered"] += 1
                elif item.kind == ITEM_KEY_EXCHANGE:
                    self._handle_key_exchange(data)
                else:
                    # A reset: queued secrets wait for a new key exchange, as at the peer.
                    self._rx_cipher_active = False
                    self._session = None
            except crypto.CryptoError as exc:
                self._desync(self._repair(carrier, spec), "undecodable %s item: %s" % (item.kind, exc))

        return (self._repair(carrier, spec), secrets,
                _new_stats(True, False, False, spec.id, consumed, len(grab), item.kind, completed))

    def _open_item(self, header: wire.SyncHeader, carrier: pk.ParsedPacket) -> _RxItem:
        # _rx_open passes no switch; every other code opens an item of the length it announces.
        kind = _OPENED_KIND[header.code]
        _, least, most = _KINDS[kind]
        if not least <= header.data <= most:
            self._desync(carrier, "undecodable %s item: %d octets announced" % (kind, header.data))
        if kind == ITEM_KEY_EXCHANGE and not self.config.encryption:
            # Its peer never sends one; answering would make an RSA key.
            self._desync(carrier, "%s item opened with encryption off" % kind)
        if kind != ITEM_DATA or not self.config.encryption:
            return _RxItem(kind=kind, expected=header.data)
        if not self._rx_cipher_active:
            # The peer encrypts every data item, so one that opens here
            # (after a forged reset, say) is refused, not delivered as ciphertext.
            self._desync(carrier, "data item opened with the receive cipher off")
        if self._session is None:
            # A local reset dropped the key it would be decrypted under.
            self._desync(carrier, "data item opened with no session")
        return _RxItem(kind=kind, expected=header.data)

    def _rx_open(self, carrier: pk.ParsedPacket, scan: List[HandlerSpec], mult: int):
        for spec in scan:
            region = spec.reader(carrier)
            header = wire.decode_sync(region[: wire.SYNC_SIZE])
            if header is not None and header.code != wire.CODE_HANDLER_SWITCH:
                self._rx_cursor.adopt(spec.id, mult, opening=True)
                return spec, region, header
        self._desync(carrier, "no opening header where one was expected")

    def _rx_continue(self, carrier: pk.ParsedPacket, candidates: List[HandlerSpec], sel: HandlerSpec,
                     scan: List[HandlerSpec]):
        cursor, mult = self._rx_cursor, len(candidates)
        active = sel  # unambiguous carriers never carry a switch header
        if cursor.ambiguous(mult):
            # Ambiguous carriers announce every handler change in-band,
            # so look for a switch header even when ``sel`` is the
            # active handler: the sender may have diverted this carrier
            # to the ISN channel.
            for spec in scan:
                if spec.id == cursor.active_handler:
                    continue
                region = spec.reader(carrier)
                header = wire.decode_sync(region[: wire.SYNC_SIZE])
                if header is not None and header.code == wire.CODE_HANDLER_SWITCH and wire.switch_target(header) == spec.id:
                    cursor.adopt(spec.id, mult, opening=False)
                    return spec, region, wire.SYNC_SIZE
            for active in candidates:
                if active.id == cursor.active_handler:
                    break
            else:
                self._desync(carrier, "active handler does not match carrier and no switch announced")
        cursor.adopt(active.id, mult, opening=False)
        return active, active.reader(carrier), 0

    def _repair(self, carrier: pk.ParsedPacket, spec: HandlerSpec) -> pk.ParsedPacket:
        if spec.recovery is RecoveryClass.SELF_RECOVERABLE:
            return spec.recover(carrier)
        return carrier

    def _handle_key_exchange(self, blob: bytes) -> None:
        msg_type, mac, payload = crypto.decode_ke_message(blob)
        # The peer sends one public key per session (a reset drops the
        # session), long enough to encrypt a secret to, answers only a
        # session this side holds, and never sends the generator a
        # secret: anything else is refused before it changes any state.
        # Only a public key makes a session.
        session = self._session
        if msg_type == crypto.KE_PUBKEY:
            if session is not None and session.peer_public is not None:
                raise crypto.CryptoError("public key already received in this session")
            peer_public = crypto.RsaPublicKey.from_bytes(payload)
            if (peer_public.n.bit_length() + 7) // 8 < crypto.MIN_MODULUS_BYTES:
                raise crypto.CryptoError("public key modulus under %d octets" % crypto.MIN_MODULUS_BYTES)
            session = self._ensure_session()
            session.peer_public = peer_public
            if crypto.choose_generator(self.local_mac, mac):
                secret = self._rng.randbytes(crypto.SECRET_LEN)
                session.install_secret(secret, crypto.ROLE_GENERATOR)
                self._queue_key_exchange(crypto.KE_SYMKEY, crypto.rsa_encrypt(peer_public, secret))
            else:
                session.role = crypto.ROLE_RECEIVER
        elif msg_type not in (crypto.KE_SYMKEY, crypto.KE_CIPHER_ON):
            raise crypto.CryptoError("unknown message type %#04x" % msg_type)
        elif session is None:
            raise crypto.CryptoError("message type %#04x with no session" % msg_type)
        elif msg_type == crypto.KE_CIPHER_ON:
            self._rx_cipher_active = True
        elif session.role == crypto.ROLE_GENERATOR:
            raise crypto.CryptoError("secret sent to the generator")
        else:
            session.install_secret(crypto.rsa_decrypt(session.keypair, payload), crypto.ROLE_RECEIVER)
            self._queue_key_exchange(crypto.KE_CIPHER_ON, b"")
            self._rx_cipher_active = True

    @property
    def session(self) -> Optional[crypto.CryptoSession]:
        return self._session

    @property
    def session_established(self) -> bool:
        return self._session is not None and self._session.established
