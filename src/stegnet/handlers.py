"""Carrier-field handlers: where secret octets live inside a packet.

A handler names one writable region of a carrier packet and knows how
to match eligible packets, write a segment into the region, and read
the region back out.  The reader returns the full readable region; the
octets written are always its prefix, and when a segment fills the
region exactly the two are equal.  The stream layer knows how many of
the returned octets are meaningful, so region padding never leaks into
reassembled data.

Every handler carries a manipulation class (how badly the write hurts
the carrier) and a recovery class (what it takes to repair it).  A
DESTRUCTIVE handler must either repair itself from the packet alone
(``recover``) or be flagged for augmented correction, in which case the
engine ships the original value to the peer as a recovery record.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from . import packet as pk
from .wire import SYNC_SIZE, SegmentCursor


class ManipulationClass(Enum):
    NON_DESTRUCTIVE = "non_destructive"
    QUALITY_AFFECTING = "quality_affecting"
    DESTRUCTIVE = "destructive"


class RecoveryClass(Enum):
    NO_RECOVERY = "no_recovery"
    SELF_RECOVERABLE = "self_recoverable"
    AUGMENTED_CORRECTION = "augmented_correction"


# Qualitative carrier cost anchors.
COST_LOW = 0.10
COST_MODERATE = 0.40
COST_HIGH = 0.70

TCP_OPTIONS_ID = 1
ICMP_PAYLOAD_ID = 2
IPV4_ID_ID = 3
IPV4_CHECKSUM_ID = 4
TCP_ISN_ID = 5

DEFAULT_ENABLED = (TCP_OPTIONS_ID, ICMP_PAYLOAD_ID, IPV4_CHECKSUM_ID)


class RegistryError(Exception):
    pass


class DuplicateId(RegistryError):
    pass


class SelfTestFailed(RegistryError):
    pass


class UnknownHandler(RegistryError):
    pass


def _identity(p: pk.ParsedPacket) -> pk.ParsedPacket:
    return p


@dataclass(frozen=True)
class HandlerSpec:
    """One carrier region: match, write, read, and repair."""

    id: int
    name: str
    match: Callable[[pk.ParsedPacket], bool]
    writer: Callable[[pk.ParsedPacket, bytes], pk.ParsedPacket]
    reader: Callable[[pk.ParsedPacket], bytes]
    capacity: Callable[[pk.ParsedPacket], int]
    carrier_cost: float
    manipulation: ManipulationClass
    recovery: RecoveryClass
    recover: Callable[[pk.ParsedPacket], pk.ParsedPacket] = _identity
    # Set on handlers whose region exists only to hold sync headers;
    # such regions must be near-free to touch.
    sync_reserved: bool = False


@lru_cache(maxsize=None)
def _default_vectors(seed: int = 0x5EED) -> Tuple[pk.ParsedPacket, ...]:
    """Assorted well formed packets used to exercise writer/reader pairs."""
    rng = random.Random(seed)
    vectors: List[pk.ParsedPacket] = []
    for i in range(3):
        vectors.append(
            pk.build_tcp("10.0.0.2", "10.0.9.9", 4000 + i, 80,
                         seq=rng.getrandbits(32), payload=rng.randbytes(rng.randint(10, 400)))
        )
    vectors.append(pk.build_tcp("10.0.0.3", "10.0.9.9", 4100, 443, options=b"\x01" * 8, payload=rng.randbytes(64)))
    vectors.append(pk.build_tcp("10.0.0.4", "10.0.9.9", 4200, 22, flags=pk.TCP_SYN, seq=rng.getrandbits(32)))
    vectors.append(pk.build_udp("10.0.0.5", "10.0.9.9", 4300, 53, payload=rng.randbytes(100)))
    vectors.append(pk.build_icmp_echo("10.0.0.6", "10.0.9.9", identifier=7, sequence=1, payload=rng.randbytes(56)))
    vectors.append(pk.build_icmp_echo("10.0.0.7", "10.0.9.9", identifier=8, sequence=2, payload=rng.randbytes(16)))
    return tuple(vectors)


def _self_test(spec: HandlerSpec) -> None:
    """Writer/reader pair law: for every matched packet and segment not
    longer than the capacity, the read-back region starts with the
    segment, and equals it when the segment fills the region.  Vectors
    and samples are fixed, so the verdict depends on the spec alone."""
    matched = [v for v in _default_vectors() if spec.match(v)]
    if not matched:
        return
    rng = random.Random(0xC0DE ^ spec.id)
    for trial in range(100):
        p = matched[trial % len(matched)]
        cap = spec.capacity(p)
        if cap <= 0:
            continue
        size = cap if trial % 3 == 0 else rng.randint(1, cap)
        segment = rng.randbytes(size)
        written = spec.writer(p, segment)
        got = spec.reader(written)
        if len(got) < size or got[:size] != segment:
            raise SelfTestFailed("handler %r corrupts segments (size %d)" % (spec.name, size))
        if size == cap and got[:cap] != segment:
            raise SelfTestFailed("handler %r fails exact read-back at full capacity" % spec.name)


_PASSED: Set[HandlerSpec] = set()  # specs that passed _self_test in this process

# Selection prefers the cheapest repair: lower rank wins.
_RECOVERY_RANK = {RecoveryClass.NO_RECOVERY: 0, RecoveryClass.SELF_RECOVERABLE: 1,
                  RecoveryClass.AUGMENTED_CORRECTION: 2}


class HandlerRegistry:
    """The enabled handlers of one gateway; each spec passes
    ``_self_test`` on its first registration in a process."""

    def __init__(self) -> None:
        self._specs: Dict[int, HandlerSpec] = {}
        self._order: Tuple[int, ...] = ()  # registered ids, ascending

    def register(self, spec: HandlerSpec) -> int:
        if spec.id in self._specs:
            raise DuplicateId("handler id %d already registered" % spec.id)
        if not 0 <= spec.id <= 0xFF:
            raise RegistryError("handler id %d out of 8-bit range" % spec.id)
        if not 0.0 <= spec.carrier_cost <= 1.0:
            raise RegistryError("carrier cost %r outside [0, 1]" % spec.carrier_cost)
        if spec.sync_reserved and spec.carrier_cost >= 0.05:
            raise RegistryError("a sync-reserved region must cost under 0.05")
        if spec not in _PASSED:
            _self_test(spec)
            _PASSED.add(spec)
        self._specs[spec.id] = spec
        self._order = tuple(sorted(self._specs))
        return spec.id

    def get(self, handler_id: int) -> HandlerSpec:
        try:
            return self._specs[handler_id]
        except KeyError:
            raise UnknownHandler("no handler with id %d" % handler_id) from None

    @property
    def ids(self) -> List[int]:
        return list(self._order)

    def match(self, p: pk.ParsedPacket) -> List[int]:
        """Ids of all handlers accepting ``p``, ascending."""
        return [hid for hid in self._order if self._specs[hid].match(p)]

    def select(self, candidates: Sequence[int], p: pk.ParsedPacket, cursor: SegmentCursor, opening: bool,
               augmented_allowed: bool) -> Optional[Tuple[int, int]]:
        """Pick one handler for a carrier: (id, capacity on ``p``), or None.

        ``cursor`` is the direction's selection state and ``opening``
        is true when the next segment starts a stream item (the receive
        side is idle exactly when the transmit side is about to open).
        Only handlers whose region fits the header this carrier would
        need plus one data octet are considered; a two-octet field
        cannot open an item but can extend one silently.  The remaining
        order is strictly lexicographic: drop augmented-correction
        handlers unless allowed, then minimize carrier cost, then
        prefer NO_RECOVERY over SELF_RECOVERABLE over
        AUGMENTED_CORRECTION, then maximize capacity on this packet,
        then lowest id.  Both endpoints evaluate this from state they
        share, so the choice never needs announcing in the unambiguous
        cases.
        """
        multiplicity = len(candidates)
        best = None
        for spec in [self.get(c) for c in candidates]:
            if spec.recovery is RecoveryClass.AUGMENTED_CORRECTION and not augmented_allowed:
                continue
            header = opening or cursor.switch_needed(spec.id, multiplicity)
            capacity = spec.capacity(p)
            if capacity < (SYNC_SIZE if header else 0) + 1:
                continue
            key = (spec.carrier_cost, _RECOVERY_RANK[spec.recovery], -capacity, spec.id)
            if best is None or key < best:
                best = key
        return None if best is None else (best[3], -best[2])


# ---------------------------------------------------------------------------
# Built-in handlers


def make_tcp_options_handler(handler_id: int = TCP_OPTIONS_ID, cost: float = 0.34) -> HandlerSpec:
    """TCP options region of non-SYN segments, up to 40 octets.

    The write replaces the whole options region (NOP padded to 4-octet
    alignment) and recomputes both checksums.  Real options are lost,
    which degrades but does not break the flow.
    """

    def match(p: pk.ParsedPacket) -> bool:
        return p.tcp is not None and not (p.tcp.flags & pk.TCP_SYN)

    def writer(p: pk.ParsedPacket, segment: bytes) -> pk.ParsedPacket:
        return pk.set_tcp_options(p, segment)

    def reader(p: pk.ParsedPacket) -> bytes:
        return p.tcp.options

    return HandlerSpec(
        id=handler_id,
        name="tcp_options",
        match=match,
        writer=writer,
        reader=reader,
        capacity=lambda p: pk.MAX_TCP_OPTIONS,
        carrier_cost=cost,
        manipulation=ManipulationClass.QUALITY_AFFECTING,
        recovery=RecoveryClass.NO_RECOVERY,
    )


def make_icmp_payload_handler(
    handler_id: int = ICMP_PAYLOAD_ID,
    cost: float = COST_LOW,
    preserve_timestamp: bool = False,
    name: str = "icmp_payload",
) -> HandlerSpec:
    """Echo-request payload, overwritten in place.

    With ``preserve_timestamp`` the leading 8 payload octets (the
    conventional ping timestamp) are left alone, shrinking a standard
    56-octet payload to 48 octets of capacity.
    """
    offset = 8 if preserve_timestamp else 0

    def match(p: pk.ParsedPacket) -> bool:
        return p.icmp is not None and p.icmp.icmp_type == pk.ICMP_ECHO_REQUEST

    def capacity(p: pk.ParsedPacket) -> int:
        return max(0, len(p.icmp.payload) - offset)

    def writer(p: pk.ParsedPacket, segment: bytes) -> pk.ParsedPacket:
        payload = p.icmp.payload
        if len(segment) > len(payload) - offset:
            raise ValueError("segment exceeds ICMP payload region")
        new_payload = payload[:offset] + segment + payload[offset + len(segment):]
        return pk.set_icmp_payload(p, new_payload)

    def reader(p: pk.ParsedPacket) -> bytes:
        return p.icmp.payload[offset:]

    return HandlerSpec(
        id=handler_id,
        name=name,
        match=match,
        writer=writer,
        reader=reader,
        capacity=capacity,
        carrier_cost=cost,
        manipulation=ManipulationClass.NON_DESTRUCTIVE,
        recovery=RecoveryClass.NO_RECOVERY,
    )


def make_ipv4_id_handler(handler_id: int = IPV4_ID_ID, cost: float = COST_HIGH) -> HandlerSpec:
    """IPv4 identification field, 2 octets.

    Overwriting it would break reassembly of fragmented traffic, so the
    cost is high and the handler ships disabled.
    """

    def match(p: pk.ParsedPacket) -> bool:
        return p.ipv4 is not None

    def writer(p: pk.ParsedPacket, segment: bytes) -> pk.ParsedPacket:
        if len(segment) > 2:
            raise ValueError("identification field holds at most 2 octets")
        old = p.ipv4.identification.to_bytes(2, "big")
        value = int.from_bytes(segment + old[len(segment):], "big")
        return pk.with_ipv4(p, p.ipv4.tos, value)

    def reader(p: pk.ParsedPacket) -> bytes:
        return p.ipv4.identification.to_bytes(2, "big")

    return HandlerSpec(
        id=handler_id,
        name="ipv4_id",
        match=match,
        writer=writer,
        reader=reader,
        capacity=lambda p: 2,
        carrier_cost=cost,
        manipulation=ManipulationClass.QUALITY_AFFECTING,
        recovery=RecoveryClass.NO_RECOVERY,
    )


def make_ipv4_checksum_handler(handler_id: int = IPV4_CHECKSUM_ID, cost: float = COST_LOW) -> HandlerSpec:
    """IPv4 header checksum field of TCP/UDP packets, 2 octets.

    The overwrite leaves the packet invalid in transit; the extraction
    side repairs it by recomputing the checksum, which restores the
    original bytes exactly.  ICMP packets are left to the larger
    payload channel so echo traffic keeps a single matching handler.
    """

    def match(p: pk.ParsedPacket) -> bool:
        return p.ipv4 is not None and p.ipv4.protocol in (pk.PROTO_TCP, pk.PROTO_UDP)

    def writer(p: pk.ParsedPacket, segment: bytes) -> pk.ParsedPacket:
        if len(segment) > 2:
            raise ValueError("checksum field holds at most 2 octets")
        old = p.ipv4.header_checksum.to_bytes(2, "big")
        value = int.from_bytes(segment + old[len(segment):], "big")
        return pk.with_ipv4(p, p.ipv4.tos, p.ipv4.identification, value)

    def reader(p: pk.ParsedPacket) -> bytes:
        return p.ipv4.header_checksum.to_bytes(2, "big")

    return HandlerSpec(
        id=handler_id,
        name="ipv4_checksum",
        match=match,
        writer=writer,
        reader=reader,
        capacity=lambda p: 2,
        carrier_cost=cost,
        manipulation=ManipulationClass.DESTRUCTIVE,
        recovery=RecoveryClass.SELF_RECOVERABLE,
        recover=pk.fix_ipv4_checksum,
    )


def make_tcp_isn_handler(handler_id: int = TCP_ISN_ID, cost: float = COST_HIGH) -> HandlerSpec:
    """Initial sequence number of pure SYN segments, 4 octets.

    Destroys the flow's sequence space; the engine must record the
    original value, emit it as a recovery record, and rewrite the rest
    of the flow.  Ships disabled.
    """

    def match(p: pk.ParsedPacket) -> bool:
        return p.tcp is not None and bool(p.tcp.flags & pk.TCP_SYN) and not (p.tcp.flags & pk.TCP_ACK)

    def writer(p: pk.ParsedPacket, segment: bytes) -> pk.ParsedPacket:
        if len(segment) > 4:
            raise ValueError("sequence number holds at most 4 octets")
        old = p.tcp.seq.to_bytes(4, "big")
        value = int.from_bytes(segment + old[len(segment):], "big")
        return pk.with_tcp_seq_ack(p, value, p.tcp.ack)

    def reader(p: pk.ParsedPacket) -> bytes:
        return p.tcp.seq.to_bytes(4, "big")

    return HandlerSpec(
        id=handler_id,
        name="tcp_isn",
        match=match,
        writer=writer,
        reader=reader,
        capacity=lambda p: 4,
        carrier_cost=cost,
        manipulation=ManipulationClass.DESTRUCTIVE,
        recovery=RecoveryClass.AUGMENTED_CORRECTION,
    )


# Stock handler factories and their default carrier costs, by id.
_STOCK = {
    TCP_OPTIONS_ID: (make_tcp_options_handler, 0.34),
    ICMP_PAYLOAD_ID: (make_icmp_payload_handler, COST_LOW),
    IPV4_ID_ID: (make_ipv4_id_handler, COST_HIGH),
    IPV4_CHECKSUM_ID: (make_ipv4_checksum_handler, COST_LOW),
    TCP_ISN_ID: (make_tcp_isn_handler, COST_HIGH),
}
STOCK_IDS = tuple(_STOCK)


@lru_cache(maxsize=None, typed=True)
def _stock_spec(factory: Callable[..., HandlerSpec], **options) -> HandlerSpec:
    """One frozen spec per distinct stock configuration, so the
    registry's self-test of it runs once per process."""
    return factory(**options)


def build_registry(
    enabled: Sequence[int] = DEFAULT_ENABLED,
    cost_overrides: Optional[Dict[int, float]] = None,
    preserve_icmp_timestamp: bool = False,
) -> HandlerRegistry:
    """Registry of the ``enabled`` stock handlers.

    ``cost_overrides`` replaces per-handler carrier costs before
    registration.  An unknown id in either raises UnknownHandler.
    """
    for hid in (*enabled, *(cost_overrides or ())):
        if hid not in _STOCK:
            raise UnknownHandler("no handler with id %d" % hid)
    cost = (cost_overrides or {}).get
    options = {ICMP_PAYLOAD_ID: {"preserve_timestamp": preserve_icmp_timestamp}}
    registry = HandlerRegistry()
    for hid, (factory, default_cost) in _STOCK.items():
        if hid in enabled:
            registry.register(_stock_spec(factory, cost=cost(hid, default_cost), **options.get(hid, {})))
    return registry
