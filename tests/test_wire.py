import random

import stegnet.packet as pk
import stegnet.wire as wire
from stegnet.engine import CovertGateway, EngineConfig
from stegnet.handlers import ICMP_PAYLOAD_ID


def test_sync_encode_fixtures():
    assert wire.encode_sync(wire.SyncHeader(wire.CODE_PACKET_START, 84)) == bytes((0x01, 0x00, 0x54))
    assert wire.encode_sync(wire.switch_header(2)) == bytes((0x02, 0xA5, 0x02))
    assert wire.encode_sync(wire.SyncHeader(wire.CODE_SESSION_RESET, 0)) == bytes((0x04, 0x00, 0x00))


def test_sync_decode_round_trip():
    rng = random.Random(31)
    for _ in range(500):
        header = wire.SyncHeader(rng.choice(tuple(wire.SYNC_CODES)), rng.randrange(0x10000))
        if header.code == wire.CODE_HANDLER_SWITCH:
            header = wire.switch_header(rng.randrange(256))
        octets = wire.encode_sync(header)
        assert len(octets) == wire.SYNC_SIZE
        assert wire.decode_sync(octets) == header


def test_sync_decode_rejects_unknown_code():
    assert wire.decode_sync(bytes((0xFF, 0x00, 0x01))) is None
    assert wire.decode_sync(bytes((0x00, 0x00, 0x00))) is None
    assert wire.decode_sync(b"\x01\x00") is None  # too short


def test_switch_header_magic():
    header = wire.switch_header(6)
    assert header.data >> 8 == 0xA5
    assert wire.switch_target(header) == 6
    # a switch missing the magic octet is not a sync header at all
    assert wire.decode_sync(bytes((0x02, 0x00, 0x06))) is None


def test_exclusion_marking():
    p = pk.build_tcp("10.0.0.1", "10.0.0.2", 5, 6, tos=0x10, payload=b"x")
    marked = wire.mark_excluded(p)
    assert marked.ipv4.tos == wire.EXCLUDE_TOS
    assert wire.is_excluded(marked)
    assert not wire.is_excluded(p)
    assert pk.validate_ipv4_checksum(marked)
    cleared = wire.clear_exclusion(marked)
    assert cleared.ipv4.tos == 0
    assert pk.validate_ipv4_checksum(cleared)


def test_handler_switch_rule_table():
    def switch_needed(chosen, active, multiplicity, active_multiplicity):
        # A continuing carrier loses room exactly to a switch header.
        room = wire.SegmentCursor(active, active_multiplicity).room(chosen, 10, multiplicity, opening=False)
        assert room in (10, 10 - wire.SYNC_SIZE)
        return room < 10

    # chosen == active never switches; no active handler never switches
    assert not switch_needed(1, 1, 3, 3)
    assert not switch_needed(1, None, 2, 1)
    # ambiguity on either side forces the switch
    assert switch_needed(2, 1, 2, 1)
    assert switch_needed(2, 1, 1, 2)
    # both unambiguous: silent adoption
    assert not switch_needed(2, 1, 1, 1)


def test_cursor_adopt_keeps_the_establishing_multiplicity():
    cursor = wire.SegmentCursor()
    cursor.adopt(1, 2, opening=True)
    assert (cursor.active_handler, cursor.active_multiplicity) == (1, 2)
    assert cursor.ambiguous(1)
    # continuing on the same handler keeps the establishing carrier's count
    cursor.adopt(1, 1, opening=False)
    assert cursor.active_multiplicity == 2
    # a change of handler, or an opening, records the new carrier's count
    cursor.adopt(2, 1, opening=False)
    assert (cursor.active_handler, cursor.active_multiplicity) == (2, 1)
    assert not cursor.ambiguous(1) and cursor.ambiguous(3)
    cursor.adopt(2, 3, opening=True)
    assert cursor.active_multiplicity == 3


# The two worked segmentation examples: (handler id, capacity, multiplicity)
# per carrier in arrival order.

CASE_ONE = [(1, 40, 1), (1, 40, 1), (2, 56, 1), (1, 40, 1), (1, 40, 1)]
CASE_TWO = [(1, 40, 1), (1, 40, 1), (2, 56, 2), (1, 40, 1), (1, 40, 1)]


def _plan(secret_len, carriers):
    """Lay one secret packet over ``carriers`` as the sender does, with
    ``SegmentCursor.room`` and ``adopt``: one (sync header, data octets)
    per carrier, None for an excluded one, stopping once the packet is
    placed."""
    cursor = wire.SegmentCursor()
    steps, remaining = [], secret_len
    for handler_id, capacity, multiplicity in carriers:
        if remaining == 0:
            break
        opening = remaining == secret_len
        room = cursor.room(handler_id, capacity, multiplicity, opening)
        if room < 1:
            steps.append(None)
            continue
        sync = None
        if opening:
            sync = wire.SyncHeader(wire.CODE_PACKET_START, secret_len)
        elif room < capacity:
            sync = wire.switch_header(handler_id)
        cursor.adopt(handler_id, multiplicity, opening)
        steps.append((sync, min(room, remaining)))
        remaining -= steps[-1][1]
    return steps


def test_plan_case_one():
    steps = _plan(213, CASE_ONE)
    assert [data for _, data in steps] == [37, 40, 56, 40, 40]
    assert sum(data for _, data in steps) == 213
    syncs = [sync for sync, _ in steps]
    assert syncs[0] == wire.SyncHeader(wire.CODE_PACKET_START, 213)
    assert syncs[1:] == [None, None, None, None]


def test_plan_case_two():
    steps = _plan(207, CASE_TWO)
    assert [data for _, data in steps] == [37, 40, 53, 37, 40]
    assert sum(data for _, data in steps) == 207
    syncs = [sync for sync, _ in steps]
    assert syncs[0] == wire.SyncHeader(wire.CODE_PACKET_START, 207)
    assert syncs[1] is None
    assert syncs[2] == wire.switch_header(2)
    assert syncs[3] == wire.switch_header(1)
    assert syncs[4] is None


def test_plan_conservation():
    """Sync octets plus data octets never exceed offered capacity, and
    data octets sum to the secret length whenever planning stops early."""
    rng = random.Random(0xACE)
    for _ in range(400):
        secret_len = rng.randrange(1, 400)
        carriers = []
        for _ in range(rng.randrange(1, 30)):
            handler = rng.choice((1, 1, 1, 2, 4))
            capacity = {1: 40, 2: rng.choice((24, 48, 56)), 4: 2}[handler]
            multiplicity = rng.choice((1, 1, 2))
            carriers.append((handler, capacity, multiplicity))
        steps = _plan(secret_len, carriers)
        used = 0
        for step, (_, capacity, _) in zip(steps, carriers):
            if step is None:
                continue  # excluded: consumes nothing
            sync, data = step
            assert data + (wire.SYNC_SIZE if sync else 0) <= capacity
            used += data
        assert used <= secret_len
        if len(steps) < len(carriers):
            assert used == secret_len


def test_plan_two_octet_regions_cannot_open():
    # A checksum-field carrier can continue a packet but never start one.
    steps = _plan(10, [(4, 2, 1), (1, 40, 1)])
    assert steps[0] is None
    assert steps[1][1] == 10


def test_plan_reset_opens_on_no_region_below_header_plus_one():
    # A reset is a zero-length item, yet it opens only where a data item
    # could: the one fit rule asks every opening for one data octet.
    gateway = CovertGateway("gw_a", "gw_b", EngineConfig(enabled_handlers=(ICMP_PAYLOAD_ID,)))
    gateway.reset_session()
    for size in range(wire.SYNC_SIZE + 2):
        echo = pk.build_icmp_echo("10.0.1.5", "10.0.2.9", identifier=9, sequence=size, payload=bytes(size))
        _, stats = gateway.fuse(echo)
        assert stats.excluded == (size <= wire.SYNC_SIZE)
    assert (stats.item_kind, stats.sync_octets, stats.data_octets) == ("reset", wire.SYNC_SIZE, 0)
    assert stats.item_completed and gateway.idle
