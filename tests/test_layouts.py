"""Each in-band layout against the hand-written codec it replaced.

The sync header and the key-exchange prefix are each one
``struct.Struct`` now.  The functions below are the codecs as
they were before that, kept verbatim as references: the new ones must
give the same bytes, the same values and the same refusals.
"""

import random
import struct
from dataclasses import dataclass
from typing import Optional, Tuple

import stegnet.crypto as cr
import stegnet.wire as wire
from stegnet.crypto import CryptoError
from stegnet.wire import (
    CODE_HANDLER_SWITCH,
    SWITCH_MAGIC,
    SYNC_CODES,
    SYNC_SIZE,
)

KE_PREFIX = 9


@dataclass(frozen=True)
class SyncHeader:
    code: int
    data: int


def encode_sync(header: SyncHeader) -> bytes:
    if header.code not in SYNC_CODES:
        raise ValueError("unknown sync code 0x%02x" % header.code)
    if not 0 <= header.data <= 0xFFFF:
        raise ValueError("sync data %d out of 16-bit range" % header.data)
    return bytes((header.code, header.data >> 8, header.data & 0xFF))


def decode_sync(octets: bytes) -> Optional[SyncHeader]:
    """Decode 3 octets; None when they cannot be a sync header."""
    if len(octets) < SYNC_SIZE:
        return None
    code = octets[0]
    if code not in SYNC_CODES:
        return None
    data = (octets[1] << 8) | octets[2]
    if code == CODE_HANDLER_SWITCH and octets[1] != SWITCH_MAGIC:
        return None
    return SyncHeader(code, data)


def encode_ke_message(msg_type: int, mac: bytes, payload: bytes) -> bytes:
    """[type:1][MAC:6][length:2][payload]."""
    if len(mac) != 6:
        raise ValueError("MAC address must be 6 octets")
    if len(payload) > 0xFFFF:
        raise ValueError("key exchange payload too long")
    return bytes([msg_type]) + mac + struct.pack("!H", len(payload)) + payload


def decode_ke_message(blob: bytes) -> Tuple[int, bytes, bytes]:
    if len(blob) < KE_PREFIX:
        raise CryptoError("key exchange message truncated")
    msg_type = blob[0]
    mac = blob[1:7]
    (length,) = struct.unpack_from("!H", blob, 7)
    payload = blob[KE_PREFIX : KE_PREFIX + length]
    if len(payload) != length:
        raise CryptoError("key exchange payload truncated")
    return msg_type, mac, payload


def _outcome(function, *args):
    """What ``function`` returns, or the type of what it raises."""
    try:
        return function(*args)
    except Exception as exc:
        return type(exc)


def _as_tuple(header):
    return None if header is None else (header.code, header.data)


def test_sizes_match_the_references():
    assert (wire.SYNC_SIZE, cr.KE_PREFIX) == (3, KE_PREFIX)


def test_sync_decode_matches_the_reference_on_every_prefix():
    tails = (b"\x00", b"\x5a", b"\xa5", b"\xff\x01\x02")
    for prefix in range(0x10000):
        head = prefix.to_bytes(2, "big")
        assert _as_tuple(wire.decode_sync(head)) == _as_tuple(decode_sync(head)) is None
        for tail in tails:
            octets = head + tail
            assert _as_tuple(wire.decode_sync(octets)) == _as_tuple(decode_sync(octets))
    for short in (b"", b"\x01", b"\x02\xa5"):
        assert wire.decode_sync(short) is None and decode_sync(short) is None


def test_sync_encode_matches_the_reference():
    for code in range(256):
        for data in (-1, 0, 1, 0xA5FF, 0xFFFF, 0x10000):
            expected = _outcome(encode_sync, SyncHeader(code, data))
            assert _outcome(wire.encode_sync, wire.SyncHeader(code, data)) == expected
            assert (expected is ValueError) == (code not in SYNC_CODES or not 0 <= data <= 0xFFFF)


def test_ke_codec_matches_the_reference():
    rng = random.Random(23)
    for _ in range(20000):
        msg_type = rng.randrange(256)
        mac = rng.randbytes(6)
        payload = rng.randbytes(rng.choice((0, 1, 5, 40, 300)))
        blob = cr.encode_ke_message(msg_type, mac, payload)
        assert blob == encode_ke_message(msg_type, mac, payload)
        assert cr.decode_ke_message(blob) == decode_ke_message(blob) == (msg_type, mac, payload)
        for cut in (0, KE_PREFIX - 1, KE_PREFIX, len(blob) - 1, rng.randrange(len(blob) + 1)):
            assert _outcome(cr.decode_ke_message, blob[:cut]) == _outcome(decode_ke_message, blob[:cut])


def test_ke_encode_refuses_what_the_reference_refuses():
    for mac, payload in ((b"\x02" * 5, b""), (b"\x02" * 7, b""), (b"\x02" * 6, bytes(0x10000))):
        assert _outcome(cr.encode_ke_message, 1, mac, payload) is ValueError
        assert _outcome(encode_ke_message, 1, mac, payload) is ValueError
