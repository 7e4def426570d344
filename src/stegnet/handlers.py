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
(``recover``) or be flagged for augmented correction.  Augmented
correction here means the fusing gateway corrects the flow it rewrote:
it shifts that flow's later sequence and acknowledgement numbers, and
sends nothing to the peer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import packet as pk
from .wire import SegmentCursor


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


@lru_cache(maxsize=None)
def _default_vectors() -> Tuple[pk.ParsedPacket, ...]:
    """Assorted well formed packets used to exercise writer/reader pairs;
    a SYN and a SYN-ACK among them tell the ISN channel's carriers apart."""
    rng = random.Random(0x5EED)
    vectors: List[pk.ParsedPacket] = []
    for i in range(3):
        vectors.append(
            pk.build_tcp("10.0.0.2", "10.0.9.9", 4000 + i, 80,
                         seq=rng.getrandbits(32), payload=rng.randbytes(rng.randint(10, 400)))
        )
    vectors.append(pk.build_tcp("10.0.0.3", "10.0.9.9", 4100, 443, options=b"\x01" * 8, payload=rng.randbytes(64)))
    vectors.append(pk.build_tcp("10.0.0.4", "10.0.9.9", 4200, 22, flags=pk.TCP_SYN, seq=rng.getrandbits(32)))
    vectors.append(pk.build_tcp("10.0.9.9", "10.0.0.4", 22, 4200, flags=pk.TCP_SYN | pk.TCP_ACK, seq=0x5EED, ack=1))
    vectors.append(pk.build_udp("10.0.0.5", "10.0.9.9", 4300, 53, payload=rng.randbytes(100)))
    vectors.append(pk.build_icmp_echo("10.0.0.6", "10.0.9.9", identifier=7, sequence=1, payload=rng.randbytes(56)))
    vectors.append(pk.build_icmp_echo("10.0.0.7", "10.0.9.9", identifier=8, sequence=2, payload=rng.randbytes(16)))
    return tuple(vectors)


def _is_pure_syn(p: pk.ParsedPacket) -> bool:
    t = p.transport
    return isinstance(t, pk.Tcp) and t.flags & (pk.TCP_SYN | pk.TCP_ACK) == pk.TCP_SYN


def matches_only_pure_syns(spec: HandlerSpec) -> bool:
    """Whether, of the default vectors, ``spec`` matches the TCP SYN
    without ACK and no other: the carriers of the ISN channel."""
    return all(spec.match(v) == _is_pure_syn(v) for v in _default_vectors())


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


# The specs that passed _self_test in this process, by ``id``: a spec
# hashes its Enum fields in Python code.  Each value keeps its spec
# alive, so its id is never reused.
_PASSED: Dict[int, HandlerSpec] = {}

# Selection prefers the cheapest repair: a spec's rank is the index of
# its recovery class here, found by identity, not by hashing the Enum.
_RECOVERY_ORDER = (RecoveryClass.NO_RECOVERY, RecoveryClass.SELF_RECOVERABLE, RecoveryClass.AUGMENTED_CORRECTION)


class HandlerRegistry:
    """The enabled handlers of one gateway; each spec passes
    ``_self_test`` on its first registration in a process."""

    def __init__(self) -> None:
        self._specs: Dict[int, HandlerSpec] = {}
        self._order: Tuple[HandlerSpec, ...] = ()  # registered specs, by ascending id
        # Each registered spec's rank in _RECOVERY_ORDER by id: an Enum hashes in Python code, an int in C.
        self._rank: Dict[int, int] = {}

    def register(self, spec: HandlerSpec) -> int:
        if spec.id in self._specs:
            raise DuplicateId("handler id %d already registered" % spec.id)
        if not 0 <= spec.id <= 0xFF:
            raise RegistryError("handler id %d out of 8-bit range" % spec.id)
        if not 0.0 <= spec.carrier_cost <= 1.0:
            raise RegistryError("carrier cost %r outside [0, 1]" % spec.carrier_cost)
        if spec.manipulation is ManipulationClass.DESTRUCTIVE and spec.recovery is RecoveryClass.NO_RECOVERY:
            raise RegistryError("destructive handler %r has no recovery" % spec.name)
        if id(spec) not in _PASSED:
            _self_test(spec)
            _PASSED[id(spec)] = spec
        self._specs[spec.id] = spec
        self._rank[spec.id] = _RECOVERY_ORDER.index(spec.recovery)
        self._order = tuple(self._specs[hid] for hid in sorted(self._specs))
        return spec.id

    def get(self, handler_id: int) -> HandlerSpec:
        try:
            return self._specs[handler_id]
        except KeyError:
            raise UnknownHandler("no handler with id %d" % handler_id) from None

    @property
    def ids(self) -> List[int]:
        return [spec.id for spec in self._order]

    def match(self, p: pk.ParsedPacket) -> List[HandlerSpec]:
        """All handlers accepting ``p``, by ascending id."""
        return [spec for spec in self._order if spec.match(p)]

    def matches(self, p: pk.ParsedPacket) -> bool:
        """Whether any handler accepts ``p``; stops at the first, by
        ascending id."""
        for spec in self._order:
            if spec.match(p):
                return True
        return False

    def select(self, candidates: Sequence[HandlerSpec], p: pk.ParsedPacket, cursor: SegmentCursor, opening: bool,
               augmented_allowed: bool) -> Optional[Tuple[HandlerSpec, int]]:
        """Pick one handler for a carrier: (spec, capacity on ``p``), or None.

        ``cursor`` is the direction's selection state and ``opening``
        is true when the next segment starts a stream item (the receive
        side is idle exactly when the transmit side is about to open).
        Only handlers with ``cursor.room`` for at least one data octet
        after the header this carrier would need are considered; a
        two-octet field cannot open an item but can extend one
        silently.  The remaining order is strictly lexicographic: drop
        augmented-correction handlers unless allowed, then minimize
        carrier cost, then prefer NO_RECOVERY over SELF_RECOVERABLE
        over AUGMENTED_CORRECTION, then maximize capacity on this
        packet, then lowest id.  Both endpoints evaluate this from
        state they share, so the choice never needs announcing in the
        unambiguous cases.
        """
        multiplicity, rank = len(candidates), self._rank
        best = chosen = None
        for spec in candidates:
            if spec.recovery is RecoveryClass.AUGMENTED_CORRECTION and not augmented_allowed:
                continue
            capacity = spec.capacity(p)
            if cursor.room(spec.id, capacity, multiplicity, opening) < 1:
                continue
            key = (spec.carrier_cost, rank[spec.id], -capacity, spec.id)
            if best is None or key < best:
                best, chosen = key, spec
        return None if chosen is None else (chosen, -best[2])


# ---------------------------------------------------------------------------
# Built-in handlers


def make_tcp_options_handler(handler_id: int = TCP_OPTIONS_ID, cost: float = 0.34) -> HandlerSpec:
    """TCP options region of non-SYN segments, up to 40 octets.

    The write replaces the whole options region (NOP padded to 4-octet
    alignment) and recomputes both checksums.  Real options are lost,
    which degrades but does not break the flow.
    """

    def match(p: pk.ParsedPacket) -> bool:
        t = p.transport
        return isinstance(t, pk.Tcp) and not (t.flags & pk.TCP_SYN)

    def writer(p: pk.ParsedPacket, segment: bytes) -> pk.ParsedPacket:
        if len(segment) > pk.MAX_TCP_OPTIONS:
            raise ValueError("tcp_options field holds at most %d octets" % pk.MAX_TCP_OPTIONS)
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
        t = p.transport
        return isinstance(t, pk.Icmp) and t.icmp_type == pk.ICMP_ECHO_REQUEST

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


def _int_field_handler(width: int, get: Callable[[pk.ParsedPacket], int],
                       put: Callable[[pk.ParsedPacket, int], pk.ParsedPacket], **fields) -> HandlerSpec:
    """A big-endian integer header field of ``width`` octets, read with
    ``get`` and rewritten with ``put``.  A segment overwrites the
    field's leading octets; the rest keep their old value.  ``fields``
    are the remaining ``HandlerSpec`` fields."""

    def writer(p: pk.ParsedPacket, segment: bytes) -> pk.ParsedPacket:
        if len(segment) > width:
            raise ValueError("%s field holds at most %d octets" % (fields["name"], width))
        old = get(p).to_bytes(width, "big")
        return put(p, int.from_bytes(segment + old[len(segment):], "big"))

    def reader(p: pk.ParsedPacket) -> bytes:
        return get(p).to_bytes(width, "big")

    return HandlerSpec(writer=writer, reader=reader, capacity=lambda p: width, **fields)


def make_ipv4_id_handler(handler_id: int = IPV4_ID_ID, cost: float = COST_HIGH) -> HandlerSpec:
    """IPv4 identification field, 2 octets.

    Overwriting it would break reassembly of fragmented traffic, so the
    cost is high and the handler ships disabled.
    """
    return _int_field_handler(
        2, lambda p: p.ipv4.identification, lambda p, value: pk.with_ipv4(p, p.ipv4.tos, value),
        id=handler_id,
        name="ipv4_id",
        match=lambda p: p.ipv4 is not None,
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
    return _int_field_handler(
        2, lambda p: p.ipv4.header_checksum,
        lambda p, value: pk.with_ipv4(p, p.ipv4.tos, p.ipv4.identification, value),
        id=handler_id,
        name="ipv4_checksum",
        match=lambda p: p.ipv4 is not None and p.ipv4.protocol in (pk.PROTO_TCP, pk.PROTO_UDP),
        carrier_cost=cost,
        manipulation=ManipulationClass.DESTRUCTIVE,
        recovery=RecoveryClass.SELF_RECOVERABLE,
        recover=pk.fix_ipv4_checksum,
    )


def make_tcp_isn_handler(handler_id: int = TCP_ISN_ID, cost: float = COST_HIGH) -> HandlerSpec:
    """Initial sequence number of pure SYN segments, 4 octets.

    Destroys the flow's sequence space; the fusing gateway records the
    shift and rewrites the rest of the flow's sequence and
    acknowledgement numbers itself, sending nothing to the peer.  Ships
    disabled.
    """
    return _int_field_handler(
        4, lambda p: p.tcp.seq, lambda p, value: pk.with_tcp_seq_ack(p, value, p.tcp.ack),
        id=handler_id,
        name="tcp_isn",
        match=_is_pure_syn,
        carrier_cost=cost,
        manipulation=ManipulationClass.DESTRUCTIVE,
        recovery=RecoveryClass.AUGMENTED_CORRECTION,
    )


# Stock handler factories by id; each factory's signature holds the
# handler's default carrier cost.
_STOCK = {
    TCP_OPTIONS_ID: make_tcp_options_handler,
    ICMP_PAYLOAD_ID: make_icmp_payload_handler,
    IPV4_ID_ID: make_ipv4_id_handler,
    IPV4_CHECKSUM_ID: make_ipv4_checksum_handler,
    TCP_ISN_ID: make_tcp_isn_handler,
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
    overrides = cost_overrides or {}
    registry = HandlerRegistry()
    for hid, factory in _STOCK.items():
        if hid in enabled:
            options = {"cost": overrides[hid]} if hid in overrides else {}
            if hid == ICMP_PAYLOAD_ID:
                options["preserve_timestamp"] = preserve_icmp_timestamp
            registry.register(_stock_spec(factory, **options))
    return registry
