"""Stateful fuse/extract gateway pair for one protected path.

One ``CovertGateway`` instance owns one direction-pair endpoint: it
fuses the secret stream into carriers heading toward its peer and
extracts the peer's stream from carriers arriving back.  The two sides
are symmetric; a pair of instances with mirrored configuration
interoperates over any in-order, lossless carrier sequence.

The transmit side is a FIFO of stream items (secret packets,
key-exchange messages, recovery records); under encryption, secret
packets and recovery records wait for the cipher and the others go
ahead of them.  Each item opens with a plaintext synchronization
header; mid-item handler switches are announced in-band exactly when
the transition is ambiguous, otherwise the receiving side re-derives
the same handler selection on its own.

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
    build_registry,
)

ITEM_DATA = "data"
ITEM_KEY_EXCHANGE = "key_exchange"
ITEM_RECOVERY = "recovery"
ITEM_RESET = "reset"

# The sync code that opens each item kind, and back.  Data and recovery
# items announce their length and are encrypted once the cipher is on;
# the others announce a chunk index (0 for a reset) and stay plaintext.
_OPENING_CODE = {ITEM_DATA: wire.CODE_PACKET_START, ITEM_KEY_EXCHANGE: wire.CODE_KEY_EXCHANGE,
                 ITEM_RECOVERY: wire.CODE_RECOVERY, ITEM_RESET: wire.CODE_SESSION_RESET}
_OPENED_KIND = {code: kind for kind, code in _OPENING_CODE.items()}
_SECRET_KINDS = (ITEM_DATA, ITEM_RECOVERY)

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


@dataclass
class CarrierStats:
    """What ``fuse`` or ``extract`` did with one carrier.  ``modified``
    is set only by ``fuse``."""

    matched: bool = False
    modified: bool = False
    excluded: bool = False
    handler_id: Optional[int] = None
    sync_octets: int = 0
    data_octets: int = 0
    item_kind: Optional[str] = None
    item_completed: bool = False


@dataclass(eq=False)  # leaves the queue by identity: equal items may wait in it
class _TxItem:
    kind: str
    payload: bytes
    chunk_index: int = 0
    wire_bytes: bytes = b""
    sent: int = 0

    def opening(self) -> wire.SyncHeader:
        data = len(self.wire_bytes) if self.kind in _SECRET_KINDS else self.chunk_index
        return wire.SyncHeader(_OPENING_CODE[self.kind], data)


@dataclass
class _RxItem:
    kind: str
    encrypted: bool
    expected: Optional[int]
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
        self._isn: Optional[HandlerSpec] = None
        if self.config.augmented_allowed and TCP_ISN_ID in self.registry.ids:
            self._isn = self.registry.get(TCP_ISN_ID)
        self.local_mac = local_mac
        self._rng = random.Random(_child_seed(self.config.seed, "engine:%s" % node_id))

        self._queue: Deque[_TxItem] = deque()
        self._tx_item: Optional[_TxItem] = None
        self._tx_cursor = wire.SegmentCursor()
        self._cipher_boundary = False

        self._rx_item: Optional[_RxItem] = None
        self._rx_cursor = wire.SegmentCursor()
        self._rx_cipher_active = False

        self._session: Optional[crypto.CryptoSession] = None

        self.flow_deltas: Dict[tuple, int] = {}
        self.received_recovery_records: List[wire.RecoveryRecord] = []
        self.recovered_isn: Dict[tuple, Tuple[int, int]] = {}
        self._observed_isn: Dict[tuple, int] = {}

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
        if isinstance(data, pk.RawPacket):
            data = data.data
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
        reads the reset end in a desync, not as ciphertext delivered."""
        self._queue.append(_TxItem(kind=ITEM_RESET, payload=b""))
        self._cipher_boundary = False
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
            self._session = crypto.CryptoSession(local_mac=self.local_mac, keypair=pair)
        return self._session

    def start_key_exchange(self) -> None:
        """Queue this side's public key; call on both gateways."""
        session = self._ensure_session()
        message = crypto.encode_ke_message(crypto.KE_PUBKEY, self.local_mac, session.keypair.public.to_bytes())
        self._queue.append(_TxItem(kind=ITEM_KEY_EXCHANGE, payload=message, chunk_index=0))

    def _next_item(self) -> Optional[_TxItem]:
        """The item in flight, else the next one, opened here, or None.

        Under encryption, data and recovery items wait for the cipher
        boundary and every other item opens ahead of them, so none of
        them leaves in plaintext; each is encrypted as it opens."""
        if self._tx_item is not None:
            return self._tx_item
        queue = self._queue
        if not queue:
            return None
        item = queue[0]
        if self.config.encryption and item.kind in _SECRET_KINDS:
            item = next((queued for queued in queue if queued.kind not in _SECRET_KINDS),
                        item if self._cipher_boundary else None)
            if item is None:
                return None
        queue.remove(item)
        if self.config.encryption and item.kind in _SECRET_KINDS:
            item.wire_bytes = self._ensure_session().encrypt_item(item.payload)
        else:
            item.wire_bytes = item.payload
        item.sent = 0
        self._tx_item = item
        return item

    def fuse(self, carrier: pk.ParsedPacket) -> Tuple[pk.ParsedPacket, CarrierStats]:
        """Embed the next stream slice into ``carrier``.

        Unmatched carriers pass through untouched.  Matched carriers
        either receive a segment or are stamped with the exclusion
        marker, so the peer never has to guess.
        """
        stats = CarrierStats()
        self.counters["carriers_seen"] += 1
        candidates = self.registry.match(carrier)
        if not candidates:
            return carrier, stats
        stats.matched = True
        # The item in flight, or the next one _next_item opens, starts here.
        opening = self._tx_item is None or self._tx_item.sent == 0
        picked = self.registry.select(
            candidates, carrier, self._tx_cursor, opening, self.config.augmented_allowed)
        if picked is None:
            return self._exclude(carrier, stats)
        spec, capacity = picked
        isn = self._isn
        if (
            isn is not None
            and self.config.augment_probability > 0.0
            and spec is not isn
            and isn.match(carrier)
            and self._rng.random() < self.config.augment_probability
        ):
            spec = isn
            capacity = isn.capacity(carrier)
        item = self._next_item()
        if item is None:
            return self._exclude(carrier, stats)
        remaining = len(item.wire_bytes) - item.sent
        placed = self._tx_cursor.place(
            spec.id, capacity, len(candidates), remaining, item.opening() if opening else None)
        if placed is None:
            return self._exclude(carrier, stats)
        header, n = placed
        segment = (wire.encode_sync(header) if header is not None else b"") + item.wire_bytes[item.sent : item.sent + n]

        isn_before = carrier.tcp.seq if spec.id == TCP_ISN_ID else None
        modified = spec.writer(carrier, segment)
        if spec.id == TCP_ISN_ID:
            self._record_isn_rewrite(carrier, modified, isn_before)

        item.sent += n
        stats.modified = True
        stats.handler_id = spec.id
        stats.sync_octets = wire.SYNC_SIZE if header is not None else 0
        stats.data_octets = n
        stats.item_kind = item.kind
        self.counters["carriers_modified"] += 1
        self.counters["sync_octets"] += stats.sync_octets
        self.counters["data_octets"] += n
        if item.kind == ITEM_DATA:
            self.counters["secret_octets_sent"] += n
        else:
            self.counters["mgmt_octets_sent"] += n
        if item.sent == len(item.wire_bytes):
            stats.item_completed = True
            if item.kind == ITEM_DATA:
                self.counters["secret_packets_sent"] += 1
            self._tx_item = None
        return modified, stats

    def _exclude(self, carrier: pk.ParsedPacket, stats: CarrierStats) -> Tuple[pk.ParsedPacket, CarrierStats]:
        stats.excluded = True
        stats.modified = True
        self.counters["carriers_excluded"] += 1
        return wire.mark_excluded(carrier), stats

    def _record_isn_rewrite(self, original: pk.ParsedPacket, modified: pk.ParsedPacket, isn_before: int) -> None:
        key = pk.flow_key(original)
        if key is None:
            return
        delta = (modified.tcp.seq - isn_before) & _SEQ_MASK
        self.flow_deltas[key] = delta
        record = wire.RecoveryRecord(
            src_ip=key[0], src_port=key[1], dst_ip=key[2], dst_port=key[3],
            field_id=wire.FIELD_TCP_ISN, original=isn_before,
        )
        self._queue.append(_TxItem(kind=ITEM_RECOVERY, payload=wire.encode_recovery(record)))

    def adjust_flow(self, p: pk.ParsedPacket) -> pk.ParsedPacket:
        """Seq/ack rewriting for flows whose initial sequence number was
        overwritten here.  Forward packets shift into the rewritten
        space before they leave; reverse acknowledgements shift back so
        the near endpoint never notices."""
        if not self.flow_deltas or p.tcp is None:
            return p
        key = pk.flow_key(p)
        if key in self.flow_deltas:
            delta = self.flow_deltas[key]
            if p.tcp.flags & pk.TCP_SYN and not (p.tcp.flags & pk.TCP_ACK):
                return p  # the rewritten SYN itself passes through fuse
            return pk.with_tcp_seq_ack(p, (p.tcp.seq + delta) & _SEQ_MASK, p.tcp.ack)
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
        stats = CarrierStats()
        if wire.is_excluded(carrier):
            stats.excluded = True
            return wire.clear_exclusion(carrier), [], stats
        candidates = self.registry.match(carrier)
        if not candidates:
            return carrier, [], stats
        stats.matched = True
        picked = self.registry.select(
            candidates, carrier, self._rx_cursor, self._rx_item is None, self.config.augmented_allowed)
        if picked is None:
            # Fusion would have excluded this carrier; nothing rides it.
            return carrier, [], stats
        sel = picked[0]

        scan = [sel]
        isn = self._isn
        if isn is not None and sel is not isn and isn.match(carrier):
            scan.append(isn)

        secrets: List[bytes] = []
        if self._rx_item is None:
            spec, region, header = self._rx_open(carrier, scan, len(candidates))
            consumed = wire.SYNC_SIZE
            if header.code == wire.CODE_SESSION_RESET:
                # Queued secrets wait for a new key exchange, as at the peer.
                self._rx_cipher_active = False
                self._cipher_boundary = False
                self._session = None
                stats.handler_id = spec.id
                stats.sync_octets = consumed
                stats.item_kind = ITEM_RESET
                self.counters["rx_sync_octets"] += consumed
                return self._repair(carrier, spec), [], stats
            self._rx_item = self._open_item(header, carrier)
        else:
            spec, region, consumed = self._rx_continue(carrier, candidates, sel, scan)

        item = self._rx_item
        avail = region[consumed:]
        taken = 0
        while avail:
            # A key exchange's length sits in its prefix; read that first.
            want = crypto.KE_PREFIX if item.expected is None else item.expected
            grab = avail[: want - len(item.buf)]
            item.buf += grab
            taken += len(grab)
            avail = avail[len(grab):]
            if item.expected is not None:
                break
            if len(item.buf) == crypto.KE_PREFIX:
                item.expected = crypto.ke_message_length(item.buf)

        stats.handler_id = spec.id
        stats.sync_octets = consumed
        stats.data_octets = taken
        stats.item_kind = item.kind
        self.counters["rx_sync_octets"] += consumed
        self.counters["rx_data_octets"] += taken
        if spec.id == TCP_ISN_ID:
            self.note_isn_observation(carrier)

        if len(item.buf) == item.expected:
            stats.item_completed = True
            self._rx_item = None
            try:
                data = bytes(item.buf)
                if item.encrypted:
                    data = self._ensure_session().decrypt_item(data)
                if item.kind == ITEM_DATA:
                    secrets.append(data)
                    self.counters["secret_octets_delivered"] += len(data)
                    self.counters["secret_packets_delivered"] += 1
                elif item.kind == ITEM_KEY_EXCHANGE:
                    self._handle_key_exchange(data)
                elif item.kind == ITEM_RECOVERY:
                    self._handle_recovery(data, carrier)
            except (wire.MalformedRecord, crypto.CryptoError) as exc:
                self._desync(self._repair(carrier, spec), "undecodable %s item: %s" % (item.kind, exc))

        return self._repair(carrier, spec), secrets, stats

    def _open_item(self, header: wire.SyncHeader, carrier: pk.ParsedPacket) -> _RxItem:
        kind = _OPENED_KIND.get(header.code)
        if kind == ITEM_KEY_EXCHANGE:
            return _RxItem(kind=kind, encrypted=False, expected=None)
        if kind not in _SECRET_KINDS:
            self._desync(carrier, "unexpected opening code 0x%02x" % header.code)
        if kind == ITEM_DATA and header.data < 1:
            self._desync(carrier, "zero-length packet announcement")
        return _RxItem(kind=kind, encrypted=bool(self.config.encryption and self._rx_cipher_active),
                       expected=header.data)

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
        spec = sel  # unambiguous carriers never carry a switch header
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
            for spec in candidates:
                if spec.id == cursor.active_handler:
                    break
            else:
                self._desync(carrier, "active handler does not match carrier and no switch announced")
        cursor.adopt(spec.id, mult, opening=False)
        return spec, spec.reader(carrier), 0

    def _repair(self, carrier: pk.ParsedPacket, spec: HandlerSpec) -> pk.ParsedPacket:
        if spec.recovery is RecoveryClass.SELF_RECOVERABLE:
            return spec.recover(carrier)
        return carrier

    def _handle_recovery(self, data: bytes, carrier: pk.ParsedPacket) -> None:
        # The rewriting gateway already translates seq/ack for both
        # directions, so the delta must not be applied again here; the
        # pairing is kept so the original field value stays recoverable.
        record = wire.decode_recovery(data)
        self.received_recovery_records.append(record)
        key = (record.src_ip, record.src_port, record.dst_ip, record.dst_port, pk.PROTO_TCP)
        observed = self._observed_isn.get(key)
        if observed is not None:
            self.recovered_isn[key] = (record.original, observed)

    def note_isn_observation(self, carrier: pk.ParsedPacket) -> None:
        """Record the on-wire ISN of a rewritten SYN for later pairing
        with its recovery record."""
        key = pk.flow_key(carrier)
        if key is not None and carrier.tcp is not None:
            self._observed_isn[key] = carrier.tcp.seq

    def _handle_key_exchange(self, blob: bytes) -> None:
        msg_type, mac, payload = crypto.decode_ke_message(blob)
        session = self._ensure_session()
        if msg_type == crypto.KE_PUBKEY:
            session.peer_public = crypto.RsaPublicKey.from_bytes(payload)
            session.peer_mac = mac
            if crypto.choose_generator(self.local_mac, mac):
                secret = self._rng.randbytes(crypto.SECRET_LEN)
                session.install_secret(secret, crypto.ROLE_GENERATOR)
                message = crypto.encode_ke_message(
                    crypto.KE_SYMKEY, self.local_mac, crypto.rsa_encrypt(session.peer_public, secret)
                )
                self._queue.append(_TxItem(kind=ITEM_KEY_EXCHANGE, payload=message, chunk_index=1))
                self._cipher_boundary = True
            else:
                session.role = crypto.ROLE_RECEIVER
        elif msg_type == crypto.KE_SYMKEY:
            secret = crypto.rsa_decrypt(session.keypair, payload)
            session.install_secret(secret, crypto.ROLE_RECEIVER)
            message = crypto.encode_ke_message(crypto.KE_CIPHER_ON, self.local_mac, b"")
            self._queue.append(_TxItem(kind=ITEM_KEY_EXCHANGE, payload=message, chunk_index=2))
            self._cipher_boundary = True
            self._rx_cipher_active = True
        elif msg_type == crypto.KE_CIPHER_ON:
            self._rx_cipher_active = True

    @property
    def session(self) -> Optional[crypto.CryptoSession]:
        return self._session

    @property
    def session_established(self) -> bool:
        return self._session is not None and self._session.established
