"""In-band signaling for the covert stream.

Synchronization headers are 3 octets: an 8-bit code and 16 bits of
big-endian data.  They are never encrypted, so the receiving side can
always interpret them without session state.  The handler-switch header
protects itself with a magic octet (0xA5) in the data high byte; other
codes carry plain counts.

Exclusion is signaled out of band relative to the carrier region: the
IPv4 TOS octet is set to 0xE7.  The marker consumes no carrier
capacity, and no handler is allowed to use the TOS octet as a region.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from . import packet as pk

# Sync header: code, data.
_SYNC = struct.Struct("!BH")
SYNC_SIZE = _SYNC.size

CODE_PACKET_START = 0x01
CODE_HANDLER_SWITCH = 0x02
CODE_KEY_EXCHANGE = 0x03
CODE_SESSION_RESET = 0x04

SYNC_CODES = frozenset((CODE_PACKET_START, CODE_HANDLER_SWITCH, CODE_KEY_EXCHANGE, CODE_SESSION_RESET))

SWITCH_MAGIC = 0xA5

# TOS octet value marking a carrier that holds no secret data.
EXCLUDE_TOS = 0xE7


@dataclass(frozen=True)
class SyncHeader:
    code: int
    data: int


def encode_sync(header: SyncHeader) -> bytes:
    if header.code not in SYNC_CODES:
        raise ValueError("unknown sync code 0x%02x" % header.code)
    if not 0 <= header.data <= 0xFFFF:
        raise ValueError("sync data %d out of 16-bit range" % header.data)
    return _SYNC.pack(header.code, header.data)


def decode_sync(octets: bytes) -> Optional[SyncHeader]:
    """Decode the first 3 octets; None when they cannot be a sync
    header.  The code octet is tested before anything is unpacked."""
    if len(octets) < SYNC_SIZE or octets[0] not in SYNC_CODES:
        return None
    code, data = _SYNC.unpack_from(octets)
    if code == CODE_HANDLER_SWITCH and data >> 8 != SWITCH_MAGIC:
        return None
    return SyncHeader(code, data)


def switch_header(handler_id: int) -> SyncHeader:
    if not 0 <= handler_id <= 0xFF:
        raise ValueError("handler id %d out of 8-bit range" % handler_id)
    return SyncHeader(CODE_HANDLER_SWITCH, (SWITCH_MAGIC << 8) | handler_id)


def switch_target(header: SyncHeader) -> int:
    return header.data & 0xFF


# ---------------------------------------------------------------------------
# Exclusion marker


def mark_excluded(p: pk.ParsedPacket) -> pk.ParsedPacket:
    """Stamp the capacity-free exclusion signature on a carrier.

    The IPv4 header checksum is recomputed so the marked packet stays
    structurally valid in transit.  Only the IPv4 header changes, so a
    parsed carrier's frame is carried on with the new header in it and
    serializes without a pack.
    """
    if p.ipv4 is None:
        raise pk.UnsupportedProtocol("exclusion marker needs an IPv4 header")
    return pk.with_ipv4(p, EXCLUDE_TOS, p.ipv4.identification)


def is_excluded(p: pk.ParsedPacket) -> bool:
    return p.ipv4 is not None and p.ipv4.tos == EXCLUDE_TOS


def clear_exclusion(p: pk.ParsedPacket) -> pk.ParsedPacket:
    """Zero the TOS octet before forwarding; the original value is not
    restored (accepted loss, generators never emit the marker value).
    The IPv4 header checksum is recomputed, and a carried frame is kept
    as ``mark_excluded`` keeps it."""
    if p.ipv4 is None:
        return p
    return pk.with_ipv4(p, 0, p.ipv4.identification)


# ---------------------------------------------------------------------------
# Segment planning


class SegmentCursor:
    """Handler-selection state of one stream direction: the active
    handler and the multiplicity (number of matching handlers) of the
    carrier that established it.  ``room`` is the one fit rule: both
    sides select by it, the sender sizes each segment by it, and each
    side then calls ``adopt`` with the handler it used, so the two
    mirrors stay in step.  Excluded carriers leave the state untouched."""

    def __init__(self, active_handler: Optional[int] = None, active_multiplicity: int = 1):
        self.active_handler = active_handler
        self.active_multiplicity = active_multiplicity

    def ambiguous(self, multiplicity: int) -> bool:
        """Whether this carrier or the one that established the active
        handler matched more than one handler."""
        return multiplicity > 1 or self.active_multiplicity > 1

    def room(self, handler_id: int, capacity: int, multiplicity: int, opening: bool) -> int:
        """Data octets a region of ``capacity`` holds on this carrier
        after the header it needs: an opening header when the carrier
        opens an item, a switch header when it changes the active
        handler and the change is ambiguous, else none.  The peer
        re-derives unambiguous changes on its own.  Below 1, the region
        cannot carry this carrier's segment."""
        active = self.active_handler
        if opening or (active is not None and active != handler_id and self.ambiguous(multiplicity)):
            return capacity - SYNC_SIZE
        return capacity

    def adopt(self, handler_id: int, multiplicity: int, opening: bool) -> None:
        """Make ``handler_id`` active for a carrier of ``multiplicity``.
        The multiplicity is recorded when the carrier opens an item or
        changes the handler, and kept when it continues on the same one."""
        if opening or handler_id != self.active_handler:
            self.active_multiplicity = multiplicity
        self.active_handler = handler_id
